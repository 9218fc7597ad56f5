"""Layer passes both workloads share: batched scoring, the relational JSON
round trip, artifact loads and the serial kernel → registry → HTTP probe.

Every call into the program is wrapped in a span named after the layer it
enters (``core.fast.batch``, ``serving.registry.query``, ...), so the
traced run reads each layer's time from the spans alone.
"""

from __future__ import annotations

import time
import tracemalloc
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from benchlib import Tracer, median
from gateway import (
    MODEL,
    BenchError,
    Client,
    Gateway,
    answer_matches,
    predict_body,
)

# Batch size of the scoring passes; the gateway's own batches are whatever
# its micro-batcher coalesces.
BATCH = 16
# Deploys the fit workload's serving probe sends (the serve workload swaps
# on its own schedule inside the window).
PROBE_DEPLOYS = 4

MIB = 1024.0 * 1024.0


def score_in_batches(
    tracer: Tracer, model, queries: Sequence[frozenset]
) -> Tuple[np.ndarray, List[float]]:
    """Values for every query via ``classification_values_batch`` in fixed
    batches of :data:`BATCH`; returns them with the seconds of each full
    batch (a short last batch is scored but not timed)."""
    rows = []
    seconds: List[float] = []
    for start in range(0, len(queries), BATCH):
        chunk = list(queries[start : start + BATCH])
        t0 = time.perf_counter()
        with tracer.span("core.fast.batch", op=start // BATCH):
            rows.append(np.asarray(model.classification_values_batch(chunk)))
        if len(chunk) == BATCH:
            seconds.append(time.perf_counter() - t0)
    return np.concatenate(rows), seconds


def batch_peak_mib(model, queries: Sequence[frozenset]) -> float:
    """tracemalloc peak of one full batch (untimed)."""
    tracemalloc.start()
    try:
        model.classification_values_batch(list(queries[:BATCH]))
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def load_json_ms(tracer: Tracer, dataset, path: Path, reps: int = 3) -> float:
    """Median ``load_relational_json`` time of the query file, as
    ``repro predict --data`` reads it; checks the round trip."""
    from repro.datasets.io import load_relational_json, save_relational_json

    save_relational_json(dataset, path)
    seconds = []
    for _ in range(reps):
        t0 = time.perf_counter()
        with tracer.span("datasets.io.load_json"):
            loaded = load_relational_json(path)
        seconds.append(time.perf_counter() - t0)
    if loaded.samples != dataset.samples:
        raise AssertionError("relational JSON round trip changed the queries")
    return 1000.0 * median(seconds)


def load_artifact_ms(
    tracer: Tracer, path: Path, fingerprint: str, reps: int = 3
) -> Tuple[float, float]:
    """Median lazy- and eager-verify ``load_artifact`` times (ms)."""
    from repro.core.artifact import load_artifact

    lazy, eager = [], []
    for _ in range(reps):
        for verify, sink in (("lazy", lazy), ("eager", eager)):
            name = "core.artifact.load" + ("_eager" if verify == "eager" else "")
            t0 = time.perf_counter()
            with tracer.span(name):
                load_artifact(path, expected_fingerprint=fingerprint, verify=verify)
            sink.append(time.perf_counter() - t0)
    return 1000.0 * median(lazy), 1000.0 * median(eager)


# Passes of the serial probe.  Each depth runs as its own pass so the
# gateway child never computes while this process's BLAS threads still spin
# after an in-process call (interleaving them per query slowed the child's
# PC kernel from ~45 to ~75 ms on two cores); the mirrored order cancels
# linear drift.
PROBE_PASSES = ("kernel", "registry", "http", "http", "registry", "kernel")
PROBE_SPANS = {
    "kernel": "core.fast.query",
    "registry": "serving.registry.query",
    "http": "serving.http.query",
}


def serving_probe(
    tracer: Tracer,
    artifact: Path,
    gateway: Gateway,
    queries: List[List[int]],
    expected: Sequence[Sequence[float]],
) -> Dict[str, float]:
    """The same queries, one at a time, through the kernel (a batch of one),
    an in-process registry with the CLI's serve defaults, and the gateway
    child over keep-alive HTTP.  A query's time at a depth is the mean of
    its two passes; each gap between depths is the median of per-query
    differences.  Raises if any path answers differently from
    ``expected``."""
    from repro.core.classifier import BSTClassifier
    from repro.core.fast import clear_evaluator_cache
    from repro.evaluation.timing import EngineCounters
    from repro.serving import ModelRegistry, ServeConfig

    # Both in-process depths must run the artifact's memory-mapped evaluator,
    # as the gateway child does — not an evaluator this process fitted for
    # the same fingerprint, which the cache would otherwise hand back.
    clear_evaluator_cache()
    kernel_model = BSTClassifier.load(artifact, verify="eager")
    registry = ModelRegistry(ServeConfig(), counters=EngineCounters())
    client = Client(gateway.url)
    bodies = [predict_body(items) for items in queries]
    sizes: Dict[str, List[int]] = {"req": [], "resp": []}

    def call(path: str, index: int) -> bool:
        query, want = frozenset(queries[index]), expected[index]
        if path == "kernel":
            got = kernel_model.classification_values_batch([query])[0]
            return bool(np.array_equal(got, want))
        if path == "registry":
            got = registry.classification_values(MODEL, query)
            return bool(np.array_equal(got, want))
        status, answer, req, resp = client.predict(bodies[index])
        sizes["req"].append(req)
        sizes["resp"].append(resp)
        return status == 200 and answer_matches(answer, want)

    seconds = {path: [0.0] * len(queries) for path in PROBE_SPANS}
    try:
        registry.deploy(MODEL, artifact)
        for path in PROBE_PASSES:
            for index in range(len(queries)):
                t0 = time.perf_counter()
                with tracer.span(PROBE_SPANS[path], op=index):
                    ok = call(path, index)
                seconds[path][index] += (
                    time.perf_counter() - t0
                ) / PROBE_PASSES.count(path)
                if not ok:
                    raise BenchError(
                        f"serial probe: query {index} answered differently"
                        f" via {path}"
                    )
    finally:
        client.close()
        registry.close()

    def gap(upper: str, lower: str) -> float:
        return 1000.0 * median(
            [a - b for a, b in zip(seconds[upper], seconds[lower])]
        )

    return {
        "core.fast.query_ms": 1000.0 * median(seconds["kernel"]),
        "serving.registry.query_ms": 1000.0 * median(seconds["registry"]),
        "serving.service.overhead_ms": gap("registry", "kernel"),
        "serving.http.query_ms": 1000.0 * median(seconds["http"]),
        "serving.http.overhead_ms": gap("http", "registry"),
        "serving.http.request_bytes": median(sizes["req"]),
        "serving.http.response_bytes": median(sizes["resp"]),
    }


def probe_deploys(
    tracer: Tracer, gateway: Gateway, artifacts: Sequence[Path]
) -> List[float]:
    """Serial admin hot swaps alternating over ``artifacts``; returns the
    seconds each took."""
    client = Client(gateway.url)
    try:
        seconds = []
        for k in range(PROBE_DEPLOYS):
            t0 = time.perf_counter()
            with tracer.span("serving.registry.swap", op=k):
                status, body, _, _ = client.deploy(artifacts[(k + 1) % len(artifacts)])
            if status != 200:
                raise AssertionError(f"probe deploy answered {status}: {body}")
            seconds.append(time.perf_counter() - t0)
    finally:
        client.close()
    return seconds

