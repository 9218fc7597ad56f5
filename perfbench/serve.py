"""The ``serve`` workload: querying a deployed model as a service.

Open loop: seeded Poisson arrivals at a fixed rate from one process with at
most ``nproc`` (and at most two) sender threads, each owning one keep-alive
HTTP/1.1 connection, against a ``python -m repro.cli serve`` child serving
the full ALL-profile artifact with the admin plane on.  Requests are
``POST /v1/models/model:predict`` with ``items``; on a fixed schedule an
admin ``:deploy`` hot-swaps between two artifact files that answer
identically — writes beside reads.  The only workload through
``serving.http``, ``serving.service`` and ``serving.registry``; the kernel
sees batches of one or two on a small model.
"""

from __future__ import annotations

import http.client
import os
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

import numpy as np

from benchlib import (
    Report,
    Sent,
    Tracer,
    counter_diff,
    median,
    percentile,
    poisson_schedule,
    service_metrics,
)
from gateway import (
    BenchError,
    Client,
    answer_matches,
    fetch_counters,
    predict_body,
    spawn_gateway,
)
from layers import (
    BATCH,
    MIB,
    batch_peak_mib,
    load_artifact_ms,
    load_json_ms,
    score_in_batches,
    serving_probe,
)

PROFILE = "ALL"
# The deployed model and the query pool are the same every run; --seed
# drives the traffic (arrival times and which query each request carries),
# so run-to-run spread measures the system, not a different model.
DATA_SEED = 0
# The query pool: fresh samples of the same profile (a cohort this many
# times the paper's), all but the Table 3 training rows.
COHORT_SCALE = 4
# Arrivals per second.  A keep-alive request the gateway answers while the
# client is in delayed-ACK mode stalls ~40 ms (headers and body go out in
# two writes); at 8/s about 5 % of requests stall, the connections are well
# under half busy, and the tail percentile (p97 at ~400 requests) sits in
# that stall mode.  At 15/s requests queue behind stalls and the p98 lands
# in a sparse queueing tail that moved 26 % between runs; at 25/s half the
# requests stall and the median itself is a stall.
RATE = 8.0
DEPLOY_EVERY_S = 5.0
# The repository's own serving objective, Slo(p99_ms=250).
LIMIT_MS = 250.0
# Set-ups timed before the window and again after it: on a shared host one
# reading swings with the host's speed over seconds, and samples a minute
# apart give a steadier median than back-to-back ones.
SETUP_REPS = 3
SENDERS = max(1, min(2, os.cpu_count() or 1))
# Offset between scheduling and the first due time, so every sender is
# waiting before the first request is due.
LEAD_S = 0.05
# Queries in the traced serial pass through kernel, registry and HTTP.
SERIAL_QUERIES = 60
ORACLE_QUERIES = 3
# A generator whose own lateness p99 exceeds this share of op_tail_ms set
# the tail itself, not the gateway; such a run is flagged.
GENERATOR_BOUND_FRAC = 0.10


def run(seed: int, seconds: float, tracer: Tracer, root: Path, work: Path,
        report: Report) -> None:
    from repro.core.artifact import load_artifact
    from repro.core.classifier import BSTClassifier
    from repro.core.fast import clear_evaluator_cache
    from repro.datasets.discretize import EntropyDiscretizer
    from repro.datasets.io import load_expression_tsv, save_expression_tsv
    from repro.datasets.profiles import profile
    from repro.datasets.splits import given_training_split
    from repro.datasets.synthetic import generate_expression_data
    from repro.evaluation.timing import engine_counters

    # Preparation (untimed): the model and the query pool.
    prof = profile(PROFILE)
    cohort = replace(
        prof, class_counts=tuple(COHORT_SCALE * c for c in prof.class_counts)
    )
    data = generate_expression_data(cohort, seed=DATA_SEED)
    split = given_training_split(data.label_array, prof.given_training, DATA_SEED)
    train = data.subset(split.train_indices)
    pool = data.subset(split.test_indices)
    tsv_s: List[float] = []
    if tracer.enabled:
        # Timed only: the model is built from the in-memory matrix in both
        # modes (the TSV keeps 6 significant digits), so it is the same one.
        tsv = work / "train.tsv"
        save_expression_tsv(train, tsv)
        for _ in range(3):
            t0 = time.perf_counter()
            with tracer.span("datasets.io.load_tsv"):
                load_expression_tsv(tsv)
            tsv_s.append(time.perf_counter() - t0)
    with tracer.span("datasets.discretize.fit"):
        disc = EntropyDiscretizer().fit(train)
    with tracer.span("datasets.discretize.transform"):
        rel = disc.transform(train)
    misses = engine_counters.get("evaluator_cache_misses")
    with tracer.span("core.classifier.fit"):
        clf = BSTClassifier().fit(rel)
    misses = engine_counters.get("evaluator_cache_misses") - misses
    artifacts = [work / "model-a.npz", work / "model-b.npz"]
    for path in artifacts:
        with tracer.span("core.artifact.save"):
            clf.save(path)
    with tracer.span("datasets.discretize.transform"):
        pool_rel = disc.transform(pool)
    queries = list(pool_rel.samples)
    items = [sorted(q) for q in queries]
    bodies = [predict_body(q) for q in items]
    # The reference answers come from the in-memory fit, so the gateway's
    # artifact-backed answers are checked against an independent path.
    expected, _ = score_in_batches(Tracer(False), clf, queries)
    expected_rows = expected.tolist()
    oracle_check(report)

    # Set-up: spawn the gateway until its ready file appears, plus the
    # first answered request.  The last spawn before the window serves it.
    setup, ready = [], []

    def spawn(tag: str):
        t0 = time.perf_counter()
        spawned = spawn_gateway(root, work, artifacts[0], tag)
        first = Client(spawned.url)
        try:
            status, body, _, _ = first.predict(bodies[0])
        except BaseException:
            spawned.stop()
            raise
        finally:
            first.close()
        setup.append(time.perf_counter() - t0)
        ready.append(spawned.ready_s)
        report.check(
            status == 200 and answer_matches(body, expected_rows[0]),
            f"first request after spawn answered {status}: {body}",
        )
        return spawned

    gateway = None
    try:
        for rep in range(SETUP_REPS):
            if gateway is not None:
                gateway.stop()
            gateway = spawn(f"setup{rep}")

        schedule = poisson_schedule(
            seed, RATE, seconds, len(queries), DEPLOY_EVERY_S
        )
        before = fetch_counters(gateway.url) if tracer.enabled else {}
        first_span = len(tracer.spans)
        sent, deploys = open_loop(
            gateway.url, schedule, bodies, expected_rows, artifacts, tracer,
            report,
        )
        window_spans = len(tracer.spans) - first_span
        hwm = gateway.vmhwm_mib()
        if tracer.enabled:
            diff = counter_diff(before, fetch_counters(gateway.url))
            probe = serving_probe(
                tracer, artifacts[0], gateway, items[:SERIAL_QUERIES],
                expected_rows[:SERIAL_QUERIES],
            )
    finally:
        if gateway is not None:
            gateway.stop()
    for rep in range(SETUP_REPS):
        spawn(f"after{rep}").stop()

    answered = [s for s in sent if s.ok]
    latencies = [s.latency_s for s in answered]
    in_limit = sum(1 for s in latencies if 1000.0 * s <= LIMIT_MS)
    report.put_timing("setup_s", setup)
    report.put_timing("op_p50_ms", latencies)
    report.put_tail("op_tail_ms", latencies)
    report.put("peak_mib", hwm, "gateway child VmHWM")
    report.put(
        "slo_met_frac", in_limit / report.attempted,
        f"{in_limit}/{report.attempted} attempted answered correctly within"
        f" {LIMIT_MS:.0f} ms",
    )
    swap_s = [d for d in deploys if d is not None]
    swap_p50 = f"{1000.0 * median(swap_s):.2f} ms" if swap_s else "n/a"
    report.note(
        f"attempted {report.attempted}, succeeded {len(answered)}, failed"
        f" {report.failed}; deploys {len(swap_s)}/{len(deploys)} answered,"
        f" swap p50 {swap_p50}"
    )
    late = [s.generator_late_s for s in sent if s.generator_late_s is not None]
    late_p99_ms = 1000.0 * percentile(late, 99)
    bound = GENERATOR_BOUND_FRAC * report.metrics["op_tail_ms"][0]
    report.note(
        f"generator lateness p99 {late_p99_ms:.3f} ms over {len(late)} requests"
        f" sent by an idle sender; generator-bound: "
        + ("YES" if late_p99_ms > bound else "no")
        + f" (flag above {bound:.2f} ms)"
    )
    report.check(len(swap_s) == len(deploys), "an admin deploy failed")
    if not tracer.enabled:
        return

    report.put_timing("datasets.io.load_tsv_ms", tsv_s)
    report.put("datasets.io.load_json_ms",
               load_json_ms(tracer, pool_rel, work / "queries.json"))
    for name in (
        "datasets.discretize.fit",
        "datasets.discretize.transform",
        "core.classifier.fit",
        "core.artifact.save",
    ):
        report.put_timing(name + "_ms", tracer.durations(name))
    report.put("datasets.discretize.kept_genes", disc.n_kept_genes)
    report.put("datasets.discretize.items", disc.n_items)
    # A second, untimed fit on a cleared cache for the allocation peak.
    clear_evaluator_cache()
    tracemalloc.start()
    try:
        BSTClassifier().fit(rel)
        fit_peak = tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()
    report.put("core.classifier.fit_peak_mib", fit_peak)
    report.put("core.fast.cache_miss_ratio", misses, "1 fit")
    report.put("core.artifact.bytes", artifacts[0].stat().st_size)
    lazy_ms, eager_ms = load_artifact_ms(tracer, artifacts[0], rel.fingerprint)
    report.put("core.artifact.load_ms", lazy_ms, "median, verify=lazy")
    report.put("core.artifact.load_eager_ms", eager_ms, "median, verify=eager")
    served = load_artifact(artifacts[0], verify="eager")
    scored, batch_s = score_in_batches(tracer, served, queries)
    report.check(np.array_equal(scored, expected),
                 "the artifact scores the query pool unlike the in-memory fit")
    report.put_timing("core.fast.batch_ms", batch_s)
    report.put("core.fast.us_per_query", 1e6 * median(batch_s) / BATCH)
    report.put("core.fast.batch_peak_mib", batch_peak_mib(served, queries))
    for name, value in probe.items():
        report.put(name, value, f"serial, median of {SERIAL_QUERIES}")
    report.put_timing("serving.http.ready_s", ready)
    for name, value in service_metrics(diff).items():
        report.put(name, value, "counter diff over the window")
    report.put_timing("serving.registry.swap_ms", swap_s)
    report.put("bench.late_p99_ms", late_p99_ms, "open-loop generator")
    report.put("bench.sent", report.attempted)
    report.put("bench.failed", report.failed)
    report.put(
        "bench.trace_overhead_pct",
        100.0 * window_spans * Tracer.cost_per_span_s() / sum(latencies),
        f"{window_spans} spans x measured span cost / request latency",
    )
    layered = (
        probe["serving.http.query_ms"]
        >= probe["serving.registry.query_ms"]
        >= probe["core.fast.query_ms"]
    )
    report.note(
        "layer self-check http >= registry >= kernel: "
        + ("ok" if layered else "VIOLATED")
    )
    report.check(layered, "serial pass: http >= registry >= kernel violated")


def open_loop(url, schedule, bodies, expected, artifacts, tracer: Tracer,
              report: Report):
    """Send ``schedule`` against ``url`` (request ``i`` carries
    ``bodies[schedule.query[i]]``); returns the records of the requests
    answered correctly and each deploy's seconds (``None`` if refused)."""
    n = len(schedule.due)
    records: List[Optional[Sent]] = [None] * n
    deploys: List[Optional[float]] = [None] * len(schedule.deploys)
    mismatches: List[int] = []
    claim = threading.Lock()
    cursor = [0]
    clients = [Client(url) for _ in range(SENDERS)]
    for client in clients:
        client.predict(bodies[0])  # open the connection before the window
    start = time.perf_counter() + LEAD_S

    def sender(client: Client) -> None:
        while True:
            with claim:
                i = cursor[0]
                if i >= n:
                    return
                cursor[0] += 1
            due = start + schedule.due[i]
            claimed = time.perf_counter()
            if claimed < due:
                time.sleep(due - claimed)
            sent = time.perf_counter()
            q = schedule.query[i]
            try:
                status, body, _, _ = client.predict(bodies[q])
                ok = status == 200
                if ok and not answer_matches(body, expected[q]):
                    mismatches.append(i)
            except (OSError, http.client.HTTPException):
                ok = False
            done = time.perf_counter()
            records[i] = Sent(due, claimed, sent, done, ok)
            parent = tracer.record("bench.request", due, done, op=i)
            tracer.record("serving.http.request", sent, done, parent, op=i)

    def deployer(client: Client) -> None:
        for k, offset in enumerate(schedule.deploys):
            due = start + offset
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            t0 = time.perf_counter()
            try:
                status, _, _, _ = client.deploy(artifacts[(k + 1) % 2])
            except (OSError, http.client.HTTPException):
                status = None
            t1 = time.perf_counter()
            tracer.record("serving.registry.swap", t0, t1, op=k)
            if status == 200:
                deploys[k] = t1 - t0

    admin = Client(url)
    # Daemon threads, so a terminated run can exit and stop the gateway.
    threads = [
        threading.Thread(target=sender, args=(c,), daemon=True) for c in clients
    ]
    threads.append(threading.Thread(target=deployer, args=(admin,), daemon=True))
    for thread in threads:
        thread.start()
    limit = start + schedule.due[-1] + 60.0 if n else start + 60.0
    for thread in threads:
        thread.join(timeout=max(1.0, limit - time.perf_counter()))
    for client in clients + [admin]:
        client.close()
    if any(thread.is_alive() for thread in threads):
        raise BenchError("open-loop senders did not finish")
    sent = [r for r in records if r is not None]
    report.attempted += n
    report.failed += sum(1 for r in sent if not r.ok)
    report.check(len(sent) == n, f"{n - len(sent)} requests never sent")
    report.check(
        not mismatches,
        f"{len(mismatches)} answers differ from the in-process evaluator",
    )
    wrong = set(mismatches)
    return [r for i, r in enumerate(records) if r is not None and i not in wrong], deploys


def oracle_check(report: Report) -> None:
    """The in-process evaluator the answers are checked against must agree
    with the paper-literal ``core/bstce.py`` oracle (abs 1e-5) on a few
    queries of the scaled profile."""
    from repro.bst.table import build_all_bsts
    from repro.core.bstce import bstce
    from repro.core.classifier import BSTClassifier
    from repro.datasets.discretize import EntropyDiscretizer
    from repro.datasets.profiles import scaled
    from repro.datasets.splits import given_training_split
    from repro.datasets.synthetic import generate_expression_data

    prof = scaled(PROFILE)
    data = generate_expression_data(prof, seed=DATA_SEED)
    split = given_training_split(data.label_array, prof.given_training, DATA_SEED)
    train = data.subset(split.train_indices)
    disc = EntropyDiscretizer().fit(train)
    rel = disc.transform(train)
    queries = list(disc.transform(data.subset(split.test_indices)).samples)
    queries = queries[:ORACLE_QUERIES]
    fast = BSTClassifier().fit(rel).classification_values_batch(queries)
    bsts = build_all_bsts(rel)
    oracle = np.array([[bstce(b, q, "min") for b in bsts] for q in queries])
    report.check(
        bool(np.allclose(fast, oracle, rtol=0.0, atol=1e-5)),
        "fast evaluator disagrees with the bstce oracle on the scaled profile",
    )
