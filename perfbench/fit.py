"""The ``fit`` workload: building BSTC models from raw expression data.

Closed loop, one caller, the full-size PC profile (12,600 genes; 52/50
training rows per class as in the paper's Table 3).  Each op draws a fresh
seeded random split (the paper's Section 6.2 protocol) and runs
``EntropyDiscretizer().fit`` → ``.transform`` → ``BSTClassifier().fit`` →
``.save``; every op must miss the evaluator cache.  This is the paper's
training-scalability claim and the only workload where the discretizer,
the plan compile and the artifact write run.
"""

from __future__ import annotations

import json
import shutil
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List

import numpy as np

from benchlib import (
    MIN_BEYOND,
    Report,
    Tracer,
    counter_diff,
    median,
    percentile,
    service_metrics,
)
from gateway import Client, fetch_counters, predict_body, spawn_gateway
from layers import (
    BATCH,
    MIB,
    batch_peak_mib,
    load_artifact_ms,
    load_json_ms,
    probe_deploys,
    score_in_batches,
    serving_probe,
)

PROFILE = "PC"
# The expression matrix is the same every run; --seed drives the splits, so
# run-to-run spread measures the builds, not a different cohort.
DATA_SEED = 0
# Set-ups timed before the window and again after it: on a shared host one
# reading swings with the host's speed over seconds, and samples a minute
# apart give a steadier median than back-to-back ones.
SETUP_REPS = 3
# The tail rule needs this many ops; a slow machine measures past
# ``--seconds`` until it has them, never past HARD_CAP_S.
MIN_OPS = 2 * MIN_BEYOND + 2
HARD_CAP_S = 110.0
# A model build slower than this misses; the same limit every run.
LIMIT_MS = 5000.0
# Each op span's self time (harness code between the layer calls) may be at
# most this share of the op.
SPAN_TOLERANCE = 0.01

EXPECTED = Path(__file__).with_name("expected.json")


def run(seed: int, seconds: float, tracer: Tracer, root: Path, work: Path,
        report: Report) -> None:
    from repro.core.artifact import load_artifact
    from repro.core.classifier import BSTClassifier
    from repro.datasets.discretize import EntropyDiscretizer
    from repro.datasets.io import load_expression_tsv, save_expression_tsv
    from repro.datasets.profiles import profile
    from repro.datasets.splits import count_split
    from repro.datasets.synthetic import generate_expression_data
    from repro.evaluation.timing import engine_counters

    prof = profile(PROFILE)
    tsv = work / "expression.tsv"
    save_expression_tsv(generate_expression_data(prof, seed=DATA_SEED), tsv)

    # Set-up: what the user pays before the first build — reading the raw
    # expression matrix.
    setup = []

    def load():
        t0 = time.perf_counter()
        with tracer.span("datasets.io.load_tsv"):
            loaded = load_expression_tsv(tsv)
        setup.append(time.perf_counter() - t0)
        return loaded

    for _ in range(SETUP_REPS):
        matrix = load()

    latencies, gaps, misses, kept, items, sizes = [], [], [], [], [], []
    first_span = len(tracer.spans)
    start = prev_end = time.perf_counter()
    op = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_CAP_S or (
            elapsed >= seconds and report.attempted >= MIN_OPS
        ):
            break
        split = count_split(
            matrix.label_array, prof.given_training, seed=seed * 1_000_003 + op
        )
        train = matrix.subset(split.train_indices)
        path = work / f"op{op}.npz"
        misses_before = engine_counters.get("evaluator_cache_misses")
        report.attempted += 1
        t0 = time.perf_counter()
        gaps.append(t0 - prev_end)
        try:
            with tracer.span("bench.fit_op", op=op):
                with tracer.span("datasets.discretize.fit", op=op):
                    disc = EntropyDiscretizer().fit(train)
                with tracer.span("datasets.discretize.transform", op=op):
                    rel = disc.transform(train)
                with tracer.span("core.classifier.fit", op=op):
                    clf = BSTClassifier().fit(rel)
                with tracer.span("core.artifact.save", op=op):
                    clf.save(path)
            t1 = time.perf_counter()
            # Untimed validity: the file reloads as exactly this op's model.
            load_artifact(path, expected_fingerprint=rel.fingerprint)
        except Exception as exc:  # an op that fails is counted, not fatal
            report.failed += 1
            report.check(False, f"op {op} failed: {exc!r}")
            prev_end = time.perf_counter()
            op += 1
            continue
        prev_end = t1
        latencies.append(t1 - t0)
        misses.append(engine_counters.get("evaluator_cache_misses") - misses_before)
        kept.append(disc.n_kept_genes)
        items.append(disc.n_items)
        sizes.append(path.stat().st_size)
        path.unlink()
        op += 1
    window_s = time.perf_counter() - start
    window_spans = len(tracer.spans) - first_span
    for _ in range(SETUP_REPS):
        load()

    report.check(
        all(m == 1 for m in misses),
        f"ops must each miss the evaluator cache once; misses per op {misses}",
    )
    ref = reference_op(work, report)

    in_limit = sum(1 for s in latencies if 1000.0 * s <= LIMIT_MS)
    report.put_timing("setup_s", setup)
    report.put_timing("op_p50_ms", latencies)
    report.put_tail("op_tail_ms", latencies)
    report.put("peak_mib", ref.op_peak_mib, "tracemalloc, reference op")
    report.put(
        "slo_met_frac", in_limit / report.attempted,
        f"{in_limit}/{report.attempted} ops within {LIMIT_MS:.0f} ms",
    )
    report.note(
        f"attempted {report.attempted}, succeeded {len(latencies)},"
        f" failed {report.failed} in {window_s:.1f} s"
    )
    late_ms = 1000.0 * percentile(gaps, 99)
    report.note(f"generator gap between ops p99 {late_ms:.3f} ms")
    if not tracer.enabled:
        return

    report.put_timing("datasets.io.load_tsv_ms", setup)
    for name in (
        "datasets.discretize.fit",
        "datasets.discretize.transform",
        "core.classifier.fit",
        "core.artifact.save",
    ):
        report.put_timing(name + "_ms", tracer.durations(name))
    report.put("datasets.discretize.kept_genes", median(kept), "median over ops")
    report.put("datasets.discretize.items", median(items), "median over ops")
    report.put("core.classifier.fit_peak_mib", ref.fit_peak_mib,
               "tracemalloc around BSTClassifier.fit, reference op")
    report.put("core.fast.cache_miss_ratio", sum(misses) / len(misses))
    report.put("core.artifact.bytes", median(sizes), "median over ops")
    layer_probe(tracer, root, work, ref, report)
    report.put("bench.late_p99_ms", late_ms, "gap between closed-loop ops")
    report.put("bench.sent", report.attempted)
    report.put("bench.failed", report.failed)
    report.put(
        "bench.trace_overhead_pct",
        100.0 * window_spans * Tracer.cost_per_span_s() / sum(latencies),
        f"{window_spans} spans x measured span cost / op time",
    )

    selfs = tracer.self_times()
    worst = max(
        selfs[i] / (span[2] - span[1])
        for i, span in enumerate(tracer.spans)
        if span[0] == "bench.fit_op"
    )
    report.note(
        f"span self-check: layer spans cover >= {100 * (1 - worst):.3f}% of"
        f" every op (tolerance {100 * SPAN_TOLERANCE:.0f}%)"
    )
    report.check(worst <= SPAN_TOLERANCE,
                 f"layer spans leave {100 * worst:.2f}% of an op unaccounted")


@dataclass
class Reference:
    """The reference op's artifact-loaded evaluator, held-out queries and
    measurements."""

    op_peak_mib: float
    fit_peak_mib: float
    path: Path
    fingerprint: str
    model: Any
    test: Any  # the held-out rows as a RelationalDataset
    queries: List[frozenset]
    values: np.ndarray
    batch_s: List[float]


def reference_op(work: Path, report: Report) -> Reference:
    """One build of the Table 3 split under tracemalloc, then the accuracy
    gate: the reloaded artifact must score the held-out rows exactly as the
    in-memory model, with the accuracy recorded in ``expected.json``.  The
    input is the same every run, so the peak repeats."""
    from repro.core.artifact import load_artifact
    from repro.core.classifier import BSTClassifier
    from repro.datasets.discretize import EntropyDiscretizer
    from repro.datasets.profiles import profile
    from repro.datasets.splits import given_training_split
    from repro.datasets.synthetic import generate_expression_data

    prof = profile(PROFILE)
    data = generate_expression_data(prof, seed=DATA_SEED)
    split = given_training_split(data.label_array, prof.given_training, DATA_SEED)
    train = data.subset(split.train_indices)
    test = data.subset(split.test_indices)
    path = work / "reference.npz"

    peaks = {}
    tracemalloc.start()
    try:
        disc = EntropyDiscretizer().fit(train)
        peaks["discretize.fit"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        rel = disc.transform(train)
        peaks["discretize.transform"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        clf = BSTClassifier().fit(rel)
        peaks["classifier.fit"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        clf.save(path)
        peaks["artifact.save"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    # load_artifact, not BSTClassifier.load: the latter would hand back the
    # evaluator this process just fitted (the evaluator cache is keyed by
    # fingerprint), and the check would compare the model with itself.
    reloaded = load_artifact(
        path, expected_fingerprint=rel.fingerprint, verify="eager"
    )
    test_rel = disc.transform(test)
    queries = list(test_rel.samples)
    untraced = Tracer(False)
    in_memory, _ = score_in_batches(untraced, clf, queries)
    from_file, batch_s = score_in_batches(untraced, reloaded, queries)
    report.check(
        np.array_equal(in_memory, from_file),
        "reloaded artifact scores the held-out rows differently",
    )
    hits = int(np.sum(np.argmax(from_file, axis=1) == test.label_array))
    accuracy = f"{hits}/{len(queries)}"
    expected = json.loads(EXPECTED.read_text())["fit_reference_accuracy"]
    report.check(
        accuracy == expected,
        f"reference held-out accuracy {accuracy}, expected {expected}",
    )
    report.note(f"reference held-out accuracy {accuracy} (expected {expected})")
    return Reference(
        op_peak_mib=max(peaks.values()) / MIB,
        fit_peak_mib=peaks["classifier.fit"] / MIB,
        path=path,
        fingerprint=rel.fingerprint,
        model=reloaded,
        test=test_rel,
        queries=queries,
        values=in_memory,
        batch_s=batch_s,
    )


def layer_probe(tracer: Tracer, root: Path, work: Path, ref: Reference,
                report: Report) -> None:
    """Traced only: the layers the fit loop does not reach, driven with the
    reference model and its held-out rows — artifact loads, the query JSON,
    batched scoring, and a real gateway child for the serving layers."""
    lazy_ms, eager_ms = load_artifact_ms(tracer, ref.path, ref.fingerprint)
    report.put("core.artifact.load_ms", lazy_ms, "median, verify=lazy")
    report.put("core.artifact.load_eager_ms", eager_ms, "median, verify=eager")
    report.put("datasets.io.load_json_ms",
               load_json_ms(tracer, ref.test, work / "queries.json"))

    batch_s = list(ref.batch_s)
    for _ in range(2):
        batch_s += score_in_batches(tracer, ref.model, ref.queries)[1]
    report.put_timing("core.fast.batch_ms", batch_s)
    report.put("core.fast.us_per_query", 1e6 * median(batch_s) / BATCH)
    report.put("core.fast.batch_peak_mib", batch_peak_mib(ref.model, ref.queries))

    twin = work / "reference-b.npz"
    shutil.copyfile(ref.path, twin)
    items = [sorted(q) for q in ref.queries]
    gateway = spawn_gateway(root, work, ref.path, "probe")
    try:
        # One untimed request first, as the serve workload's set-up does:
        # the child's first query maps the artifact and warms the kernel.
        warm = Client(gateway.url)
        warm.predict(predict_body(items[0]))
        warm.close()
        before = fetch_counters(gateway.url)
        probe = serving_probe(
            tracer, ref.path, gateway, items, ref.values.tolist()
        )
        swaps = probe_deploys(tracer, gateway, [ref.path, twin])
        diff = counter_diff(before, fetch_counters(gateway.url))
    finally:
        gateway.stop()
    report.put("serving.http.ready_s", gateway.ready_s, "n=1")
    for name, value in probe.items():
        report.put(name, value, f"serial, median of {len(items)}")
    for name, value in service_metrics(diff).items():
        report.put(name, value, "counter diff over the serving probe")
    report.put_timing("serving.registry.swap_ms", swaps)
