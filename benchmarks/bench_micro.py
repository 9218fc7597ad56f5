"""Micro-benchmarks of the core primitives (multi-round, statistical).

These complement the one-shot experiment benchmarks: BST construction, the
BSTCE kernel (a batch of one and a full batch), Top-k node throughput, and
entropy discretization, all on the scaled ALL profile's given-training
split.

The ``test_bitset_*_speedup`` pair gates the packed-bitset substrate: the
set-based reference implementations the kernel replaced are kept here, the
outputs are cross-checked bit for bit (always gating), and the packed path
must run >= 5x faster.  Setting ``REPRO_BENCH_SMOKE`` relaxes only the
timing assertion (shared CI runners make wall-clock ratios flaky); the
bit-identity check still fails the run.
"""

import importlib.util
import json
import os
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.topk import TopkMiner
from repro.bst.table import BST, build_all_bsts
from repro.core.artifact import load_artifact, save_artifact
from repro.core.bstce import bstce
from repro.core.classifier import BSTClassifier
from repro.core.fast import (
    FastBSTCEvaluator,
    clear_evaluator_cache,
    get_evaluator,
)
from repro.datasets.dataset import RelationalDataset
from repro.datasets.discretize import EntropyDiscretizer, mdlp_cut_points
from repro.datasets.profiles import scaled
from repro.datasets.splits import given_training_split
from repro.datasets.synthetic import generate_expression_data
from repro.evaluation.latency import LatencyHistogram
from repro.evaluation.timing import EngineCounters
from repro.serving import ModelRegistry, PredictionService, ServeConfig

BENCH_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

#: Speedup trajectory collected by the gating benchmarks and written to
#: BENCH_micro.json at module teardown (CI uploads it as a build artifact,
#: so regressions show up as a declining series across commits).
_BENCH_RECORD = {}


def _gated_keys():
    """The keys ``scripts/bench_trend.py`` gates in BENCH_micro.json."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "bench_trend.py"
    spec = importlib.util.spec_from_file_location("bench_trend", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return frozenset(module.GATES["BENCH_micro.json"])


def _record_path(record, environ=os.environ):
    """Where the module's record is written: ``REPRO_BENCH_JSON`` when set;
    otherwise ``BENCH_micro.json`` in the working directory if every gated
    key was recorded, and the temp directory if not, so a ``-k`` subset
    never overwrites the full record with a partial one."""
    if environ.get("REPRO_BENCH_JSON"):
        return environ["REPRO_BENCH_JSON"]
    if _gated_keys() <= record.keys():
        return "BENCH_micro.json"
    return os.path.join(tempfile.gettempdir(), "BENCH_micro.partial.json")


@pytest.fixture(scope="module", autouse=True)
def bench_record():
    yield _BENCH_RECORD
    if not _BENCH_RECORD:
        return
    payload = {
        "suite": "bench_micro",
        "smoke": BENCH_SMOKE,
        "unix_time": time.time(),
        "results": dict(sorted(_BENCH_RECORD.items())),
    }
    out_path = _record_path(_BENCH_RECORD)
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


@pytest.fixture(scope="module")
def pipeline():
    profile = scaled("ALL")
    data = generate_expression_data(profile, seed=1)
    split = given_training_split(data, profile.given_training, seed=0)
    train = data.subset(split.train_indices)
    test = data.subset(split.test_indices)
    disc = EntropyDiscretizer().fit(train)
    rel_train = disc.transform(train)
    queries = disc.transform_values(test.values)
    return train, rel_train, queries


def test_bst_construction(benchmark, pipeline):
    _, rel_train, _ = pipeline
    bsts = benchmark(build_all_bsts, rel_train)
    assert len(bsts) == rel_train.n_classes


def test_fast_engine_query(benchmark, pipeline):
    _, rel_train, queries = pipeline
    evaluator = FastBSTCEvaluator(rel_train)
    value = benchmark(evaluator.classification_values, queries[0])
    assert 0.0 <= value.min() <= value.max() <= 1.0


def test_fast_engine_batch(benchmark, pipeline):
    _, rel_train, queries = pipeline
    evaluator = FastBSTCEvaluator(rel_train)
    values = benchmark(evaluator.classification_values_batch, queries)
    assert values.shape == (len(queries), rel_train.n_classes)
    assert 0.0 <= values.min() <= values.max() <= 1.0


def test_batched_throughput_speedup(pipeline):
    """The acceptance bar: batched prediction must deliver >= 3x the
    per-query (batch-of-one) throughput on the paper-scale synthetic
    profile, while the batched and per-query paths agree bit for bit and
    the reference engine within its stated bound.

    The workload tiles the held-out queries to a serving-sized batch and
    takes the best of three timed repetitions of each path, so the ratio
    measures steady-state throughput rather than first-call overhead.
    """
    _, rel_train, queries = pipeline
    evaluator = FastBSTCEvaluator(rel_train)
    workload = (queries * 8)[:128]
    evaluator.classification_values_batch(workload[:4])  # warm up

    serial_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        serial = np.stack(
            [evaluator.classification_values(q) for q in workload]
        )
        serial_seconds = min(serial_seconds, time.perf_counter() - start)

    batch_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        batch = evaluator.classification_values_batch(workload)
        batch_seconds = min(batch_seconds, time.perf_counter() - start)

    assert np.array_equal(batch, serial)
    bst = BST.build(rel_train, 0)
    for i in (0, len(queries) // 2, len(queries) - 1):
        assert batch[i, 0] == pytest.approx(
            bstce(bst, queries[i]), rel=0, abs=2.0**-24
        )

    speedup = serial_seconds / batch_seconds
    _BENCH_RECORD["batched_bstce_speedup"] = speedup
    per_query_qps = len(workload) / serial_seconds
    batched_qps = len(workload) / batch_seconds
    print(
        f"\nbatched BSTCE: {batched_qps:.0f} q/s vs per-query"
        f" {per_query_qps:.0f} q/s ({speedup:.1f}x)"
    )
    assert speedup >= 3.0, (
        f"batched throughput only {speedup:.2f}x the per-query path"
    )


def test_reference_engine_query(benchmark, pipeline):
    _, rel_train, queries = pipeline
    bst = BST.build(rel_train, 0)
    value = benchmark(bstce, bst, queries[0])
    assert 0.0 <= value <= 1.0


def test_classifier_fit(benchmark, pipeline):
    _, rel_train, _ = pipeline
    clf = benchmark(lambda: BSTClassifier().fit(rel_train))
    assert clf.dataset is rel_train


def test_discretizer_fit(benchmark, pipeline):
    train, _, _ = pipeline
    disc = benchmark(lambda: EntropyDiscretizer().fit(train))
    # What is timed must cut every gene as the per-gene MDLP recursion does.
    labels = train.label_array
    cuts = [(part.gene_index, part.cuts) for part in disc.partitions]
    expected = []
    for j in range(train.n_genes):
        found = mdlp_cut_points(train.values[:, j], labels, train.n_classes)
        if found:
            expected.append((j, tuple(found)))
    assert disc.n_kept_genes > 0
    assert cuts == expected


def test_topk_mining(benchmark, pipeline):
    _, rel_train, _ = pipeline
    groups = benchmark(
        lambda: TopkMiner(rel_train, 0, k=5, min_support=0.8).mine()
    )
    assert isinstance(groups, list)


# ----------------------------------------------------------------------
# Packed-bitset substrate vs the set-based reference it replaced
# ----------------------------------------------------------------------

# Microarray-scale incidence: thousands of genes, a few thousand samples,
# dense rows — the regime the paper's scalability study (Tables 4/6) runs
# in and where support counting/closures dominate mining time.  (The
# pipeline fixture's discretized split is only ~20x60, far too small for a
# kernel-vs-interpreter comparison: numpy dispatch overhead would drown
# the signal.)
_KERNEL_ROWS, _KERNEL_COLS, _KERNEL_DENSITY = 2500, 5000, 0.5


@pytest.fixture(scope="module")
def kernel_workload():
    from repro.core.bitset import BitMatrix

    rng = np.random.default_rng(0)
    dense = rng.random((_KERNEL_ROWS, _KERNEL_COLS)) < _KERNEL_DENSITY
    rows_matrix = BitMatrix.from_bool(dense)
    columns_matrix = rows_matrix.transpose()
    row_sets = [
        frozenset(np.flatnonzero(dense[i]).tolist())
        for i in range(_KERNEL_ROWS)
    ]
    column_sets = [
        frozenset(np.flatnonzero(dense[:, j]).tolist())
        for j in range(_KERNEL_COLS)
    ]
    return rows_matrix, columns_matrix, row_sets, column_sets


def _set_reduce_and(reference_sets, selection, universe_size):
    """The pre-bitset support/closure computation: chained frozenset
    intersection (this is the reference the kernel replaced)."""
    result = None
    for index in selection:
        members = reference_sets[index]
        result = members if result is None else result & members
        if not result:
            break
    if result is None:
        return frozenset(range(universe_size))
    return result


def _best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _speedup_gate(name, packed_seconds, set_seconds):
    speedup = set_seconds / packed_seconds
    _BENCH_RECORD[f"bitset_{name.replace(' ', '_')}_speedup"] = speedup
    print(f"\nbitset {name}: {speedup:.1f}x vs frozensets")
    if not BENCH_SMOKE:
        assert speedup >= 5.0, (
            f"packed {name} only {speedup:.2f}x the set reference"
        )


def test_bitset_support_counting_speedup(kernel_workload):
    """Support counting on packed item columns vs frozenset intersection.

    Cross-check (always gating, even under REPRO_BENCH_SMOKE): both paths
    report identical support sets for every probed itemset.  Timing gate
    (smoke-relaxed): the word-wise AND-reduction must run >= 5x faster.
    """
    _, columns_matrix, _, column_sets = kernel_workload
    rng = np.random.default_rng(7)
    itemsets = [
        sorted(
            int(i) for i in rng.choice(_KERNEL_COLS, int(size), replace=False)
        )
        for size in rng.integers(2, 6, 300)
    ]

    packed = [
        columns_matrix.reduce_and(s).to_frozenset() for s in itemsets
    ]
    reference = [
        _set_reduce_and(column_sets, s, _KERNEL_ROWS) for s in itemsets
    ]
    assert packed == reference  # bit-identity gate, never relaxed

    packed_seconds = _best_of(
        3, lambda: [columns_matrix.reduce_and(s).count() for s in itemsets]
    )
    set_seconds = _best_of(
        3,
        lambda: [
            len(_set_reduce_and(column_sets, s, _KERNEL_ROWS))
            for s in itemsets
        ],
    )
    _speedup_gate("support counting", packed_seconds, set_seconds)


def test_bitset_closure_speedup(kernel_workload):
    """Row closures on packed sample rows vs frozenset intersection.

    The closure (items common to a row subset) is the (MC)²BAR miner's
    hottest operation; same gating scheme as the support benchmark.
    """
    rows_matrix, _, row_sets, _ = kernel_workload
    rng = np.random.default_rng(8)
    subsets = [
        sorted(
            int(i) for i in rng.choice(_KERNEL_ROWS, int(size), replace=False)
        )
        for size in rng.integers(2, 7, 300)
    ]

    packed = [rows_matrix.reduce_and(rows).to_frozenset() for rows in subsets]
    reference = [
        _set_reduce_and(row_sets, rows, _KERNEL_COLS) for rows in subsets
    ]
    assert packed == reference  # bit-identity gate, never relaxed

    packed_seconds = _best_of(
        3, lambda: [rows_matrix.reduce_and(rows).count() for rows in subsets]
    )
    set_seconds = _best_of(
        3,
        lambda: [
            len(_set_reduce_and(row_sets, rows, _KERNEL_COLS))
            for rows in subsets
        ],
    )
    _speedup_gate("closure", packed_seconds, set_seconds)


# ----------------------------------------------------------------------
# The compiled-plan kernel: absolute cost, arena size, build memory
# ----------------------------------------------------------------------


def _plan_profile():
    if BENCH_SMOKE:
        return _serving_dataset(150, 600, 3, 0.3, seed=11)
    return _serving_dataset(500, 3000, 3, 0.3, seed=11)


def test_plan_kernel_us_per_query():
    """Absolute plan-kernel cost on the sparse serving profile.

    Wide vocabularies (thousands of items) probed by sparse queries (tens
    of expressed genes each) in batches of 64: each query compacts to one
    64-bit word of columns, so the kernel's cost is its sort and
    cumulative OR over every ``(inside, outside)`` row pair, not the
    vocabulary.  Records the best-of-3 wall time
    per query (``plan_kernel_us_per_query``), the compiled arena's size
    (``plan_arena_bytes``, deterministic for the profile) and per-batch
    latency percentiles; ``scripts/bench_trend.py`` gates the first two as
    trends against the committed record.  Exactness always gates: every
    row of the batch equals its query's batch of one.
    """
    n_batches = 4 if BENCH_SMOKE else 12
    dataset = _plan_profile()
    planned = FastBSTCEvaluator(dataset)
    rng = np.random.default_rng(12)
    batch = rng.random((64, dataset.n_items)) < 30 / dataset.n_items

    rows = planned.classification_values_batch(batch)
    singles = np.stack([planned.classification_values(q) for q in batch])
    assert np.array_equal(rows, singles)  # never relaxed

    histogram = LatencyHistogram()

    def run_planned():
        for _ in range(n_batches):
            start = time.perf_counter()
            planned.classification_values_batch(batch)
            histogram.record(time.perf_counter() - start)

    seconds = _best_of(3, run_planned)
    us_per_query = 1e6 * seconds / (n_batches * len(batch))
    arena_bytes = planned.plan.hot_nbytes()
    _BENCH_RECORD["plan_kernel_us_per_query"] = us_per_query
    _BENCH_RECORD["plan_arena_bytes"] = float(arena_bytes)
    _BENCH_RECORD["plan_kernel_batch_latency_ms"] = histogram.to_dict()
    print(
        f"\ncompiled plan: {us_per_query:.0f} us/query in batches of"
        f" {len(batch)}; arena {arena_bytes / 1e6:.2f} MB"
    )


def test_evaluator_build_peak_bytes():
    """tracemalloc peak of one ``FastBSTCEvaluator`` build — the plan
    compile from the training row blocks — on the sparse serving profile.

    Allocation sizes, not wall clock, so the gate holds under
    REPRO_BENCH_SMOKE too: the peak may be at most 2.5x the arena it
    produces (the per-class pieces plus their concatenation are 2x; the
    pair-weight temporaries must stay small on top).
    """
    import tracemalloc

    dataset = _plan_profile()
    dataset.bool_matrix, dataset.label_array  # memoized before tracing
    tracemalloc.start()
    try:
        evaluator = FastBSTCEvaluator(dataset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arena_bytes = evaluator.plan.hot_nbytes()
    _BENCH_RECORD["evaluator_build_peak_bytes"] = float(peak)
    print(
        f"\nevaluator build peak: {peak / 1e6:.2f} MB for a"
        f" {arena_bytes / 1e6:.2f} MB arena ({peak / arena_bytes:.2f}x)"
    )
    assert peak <= 2.5 * arena_bytes, (
        f"plan compile peaked at {peak / arena_bytes:.2f}x its arena"
    )


# ----------------------------------------------------------------------
# Model artifacts and the micro-batching prediction service
# ----------------------------------------------------------------------


def _serving_dataset(n_samples, n_items, n_classes, density, seed):
    rng = np.random.default_rng(seed)
    return RelationalDataset.from_bool_matrix(
        rng.random((n_samples, n_items)) < density,
        labels=tuple(
            int(x) for x in rng.integers(0, n_classes, size=n_samples)
        ),
    )


def test_artifact_cold_start_speedup(tmp_path):
    """Cold start from a model artifact vs rebuilding the evaluator.

    The serving path the artifact subsystem exists for: a fresh process gets
    one query and must answer it.  The rebuild side pays the full
    ``FastBSTCEvaluator`` plan compile (dense per-class matmuls over the
    training matrix) plus the first batch; the artifact side memory-maps
    the compiled arena and pays only the first batch.  Gate: load+first
    >= 5x faster than rebuild+first (best of 3 cold starts each; under
    REPRO_BENCH_SMOKE the profile shrinks and only bit-identity gates).

    The 5x gate times an unverified load (``verify="off"``) — the same
    measurement this gate was introduced on, isolating the artifact
    subsystem from integrity checking.  The default (lazy-verified) path
    additionally pays one deferred CRC pass over the tables on the first
    query; it is timed here too and must still beat the rebuild by >= 2.5x
    (its load-time share is gated by ``test_artifact_integrity_overhead``).
    """
    if BENCH_SMOKE:
        n_samples, n_items = 200, 800
    else:
        n_samples, n_items = 1000, 4000
    dataset = _serving_dataset(n_samples, n_items, 3, 0.3, seed=2)
    rng = np.random.default_rng(3)
    query = (rng.random(n_items) < 30 / n_items)[None, :]

    path = save_artifact(FastBSTCEvaluator(dataset), tmp_path / "model.npz")

    def rebuild_and_answer():
        # A genuinely cold rebuild: a fresh dataset object (no memoized
        # derived state) and an empty evaluator cache.
        fresh = RelationalDataset(
            dataset.item_names,
            dataset.class_names,
            dataset.samples,
            dataset.labels,
        )
        clear_evaluator_cache()
        return get_evaluator(fresh).classification_values_batch(query)

    def load_and_answer():
        return load_artifact(path, verify="off").classification_values_batch(
            query
        )

    def load_verified_and_answer():
        return load_artifact(path, verify="lazy").classification_values_batch(
            query
        )

    rebuilt = rebuild_and_answer()
    loaded = load_and_answer()
    assert np.array_equal(rebuilt, loaded)  # bit-identity gate, never relaxed
    assert np.array_equal(rebuilt, load_verified_and_answer())

    rebuild_seconds = _best_of(3, rebuild_and_answer)
    load_seconds = _best_of(3, load_and_answer)
    verified_seconds = _best_of(3, load_verified_and_answer)
    clear_evaluator_cache()

    speedup = rebuild_seconds / load_seconds
    verified_speedup = rebuild_seconds / verified_seconds
    _BENCH_RECORD["artifact_cold_start_speedup"] = speedup
    _BENCH_RECORD["artifact_cold_start_speedup_verified"] = verified_speedup
    print(
        f"\nartifact cold start: load+first {load_seconds * 1e3:.1f}ms"
        f" (verified {verified_seconds * 1e3:.1f}ms) vs"
        f" rebuild+first {rebuild_seconds * 1e3:.1f}ms"
        f" ({speedup:.1f}x / {verified_speedup:.1f}x verified)"
    )
    if not BENCH_SMOKE:
        assert speedup >= 5.0, (
            f"artifact cold start only {speedup:.2f}x faster than a rebuild"
        )
        assert verified_speedup >= 2.5, (
            f"verified cold start only {verified_speedup:.2f}x faster than"
            " a rebuild"
        )


def test_artifact_integrity_overhead(tmp_path):
    """Integrity verification must stay cheap on the serving cold start.

    Loads the same artifact with verification off and with the default lazy
    mode (manifest parsed, root digest recomputed from the zip central
    directory, table CRCs deferred to the first query).  Gate: the lazy
    path costs at most 20% over the unverified load (best of 3 each;
    relaxed under REPRO_BENCH_SMOKE).  As a correctness anchor that never
    relaxes, an eager load of a byte-flipped copy must raise
    ``ArtifactCorrupt``.
    """
    from repro.core.artifact import ArtifactCorrupt
    from repro.testing import corrupt_artifact_member

    if BENCH_SMOKE:
        n_samples, n_items = 200, 800
    else:
        n_samples, n_items = 1000, 4000
    dataset = _serving_dataset(n_samples, n_items, 3, 0.3, seed=7)
    path = save_artifact(FastBSTCEvaluator(dataset), tmp_path / "model.npz")

    plain_seconds = _best_of(3, lambda: load_artifact(path, verify="off"))
    lazy_seconds = _best_of(3, lambda: load_artifact(path, verify="lazy"))

    # Detection gate, never relaxed: a flipped byte in a table member must
    # surface as ArtifactCorrupt under eager verification.
    corrupt = tmp_path / "corrupt.npz"
    corrupt.write_bytes(path.read_bytes())
    corrupt_artifact_member(corrupt, "arena_pair_len.npy")
    with pytest.raises(ArtifactCorrupt):
        load_artifact(corrupt, verify="eager", on_corrupt="fail")

    overhead = lazy_seconds / plain_seconds - 1.0
    _BENCH_RECORD["artifact_integrity_overhead"] = overhead
    print(
        f"\nartifact integrity: lazy verify {lazy_seconds * 1e3:.1f}ms vs"
        f" unverified {plain_seconds * 1e3:.1f}ms"
        f" ({overhead * 100:+.1f}% overhead)"
    )
    if not BENCH_SMOKE:
        assert overhead <= 0.20, (
            f"lazy integrity verification adds {overhead * 100:.1f}% to the"
            " cold-start load (gate: 20%)"
        )


def _mean_batch(counters):
    return counters.get("service_batched_queries") / counters.get(
        "service_batches"
    )


def test_service_threaded_throughput_speedup():
    """Batched serving vs serial batch-of-one kernel calls.

    Eight concurrent callers push 64 requests through a
    ``PredictionService`` on the default configuration; the baseline
    answers the same requests serially, one ``classification_values`` call
    (a batch of one) each.  Each side is timed as the best of three
    passes, as in ``test_batched_throughput_speedup``; one pass per side
    let the ratio swing by a fifth on unchanged code.  On this dense
    800-item profile the kernel's cost per query is flat in batch size, so
    coalescing buys little throughput: the gate is that the service —
    queue, deadlines, load shedding and circuit breaker all enabled,
    thresholds set never to fire — keeps at least 0.8x the serial
    throughput.  The ratio and the mean
    service batch are recorded.  Served values must equal the batched
    kernel's and the serial path's bit for bit (always gating); the timing
    gate is relaxed under REPRO_BENCH_SMOKE, where the profile also
    shrinks.
    """
    if BENCH_SMOKE:
        n_samples, n_items, n_requests = 100, 200, 16
    else:
        n_samples, n_items, n_requests = 400, 800, 64
    n_threads, reps = 8, 3
    dataset = _serving_dataset(n_samples, n_items, 3, 0.3, seed=5)
    evaluator = FastBSTCEvaluator(dataset)
    rng = np.random.default_rng(6)
    queries = rng.random((n_requests, n_items)) < 0.3
    evaluator.classification_values_batch(queries[:2])  # warm up

    serial_seconds = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        serial = np.stack(
            [evaluator.classification_values(q) for q in queries]
        )
        serial_seconds = min(serial_seconds, time.perf_counter() - start)

    served = np.empty((reps,) + serial.shape)
    latencies = np.zeros((reps, n_requests))
    per_thread = n_requests // n_threads

    def caller(rep, thread_id):
        lo = thread_id * per_thread
        for i in range(lo, lo + per_thread):
            begin = time.perf_counter()
            served[rep, i] = service.classification_values(queries[i])
            latencies[rep, i] = time.perf_counter() - begin

    counters = EngineCounters()
    with PredictionService(
        evaluator,
        ServeConfig(
            default_deadline_ms=60_000.0,
            shed_high=4 * n_requests,
            breaker_threshold=5,
        ),
        counters=counters,
    ) as service:
        service_seconds = float("inf")
        for rep in range(reps):
            threads = [
                threading.Thread(target=caller, args=(rep, i))
                for i in range(n_threads)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            service_seconds = min(
                service_seconds, time.perf_counter() - start
            )

    # Correctness gates, never relaxed: the service hands back exactly what
    # the batched kernel computes (it batches, row-slices, nothing else),
    # and a query's values do not depend on its batch.
    for values in served:
        assert np.array_equal(
            values, evaluator.classification_values_batch(queries)
        )
        assert np.array_equal(values, serial)

    speedup = serial_seconds / service_seconds
    mean_batch = _mean_batch(counters)
    _BENCH_RECORD["service_threaded_throughput_speedup"] = speedup
    _BENCH_RECORD["service_mean_batch"] = mean_batch
    # LatencyHistogram is not thread-safe, so callers record wall times
    # into their own slots and the histogram is fed after the join.
    histogram = LatencyHistogram()
    for seconds in latencies.ravel():
        histogram.record(float(seconds))
    _BENCH_RECORD["service_request_latency_ms"] = histogram.to_dict()
    serial_qps = n_requests / serial_seconds
    service_qps = n_requests / service_seconds
    print(
        f"\nprediction service: {service_qps:.1f} q/s over {n_threads}"
        f" threads (mean batch {mean_batch:.1f}) vs {serial_qps:.1f} q/s"
        f" serial batch-of-one ({speedup:.2f}x)"
    )
    if not BENCH_SMOKE:
        assert speedup >= 0.8, (
            f"batched serving only {speedup:.2f}x the serial"
            " batch-of-one throughput"
        )


def test_registry_aggregate_throughput_speedup():
    """N-model registry vs one service shared across those N models.

    The same offered load — threads pinned to models, every request for a
    specific model — is pushed through two deployments:

    * **shared**: one ``PredictionService`` fronting a dispatcher that
      routes each query to its model.  One batch may mix rows belonging to
      different models, so the dispatcher evaluates row by row: a batch of
      B costs B singleton kernel calls.
    * **registry**: a ``ModelRegistry`` giving each model its own slot and
      request queue, so concurrent callers of the same model share batched
      kernel calls again.

    Outside REPRO_BENCH_SMOKE (whose tiny profile answers too fast to
    overlap) the registry slots' mean service batch must exceed one.  The
    aggregate throughput ratio is recorded, not asserted: on
    this dense profile the kernel's cost per query is flat in batch size.
    Both deployments must agree bit for bit with direct batch evaluation
    (always gating).
    """
    n_models = 4
    if BENCH_SMOKE:
        n_samples, n_items, per_thread, threads_per_model = 100, 200, 2, 2
    else:
        n_samples, n_items, per_thread, threads_per_model = 300, 600, 6, 8
    datasets = [
        _serving_dataset(n_samples, n_items, 3, 0.3, seed=20 + i)
        for i in range(n_models)
    ]
    evaluators = [FastBSTCEvaluator(ds) for ds in datasets]
    rng = np.random.default_rng(21)
    n_threads = n_models * threads_per_model
    queries = rng.random((n_threads, per_thread, n_items)) < 0.3
    for evaluator in evaluators:
        evaluator.classification_values_batch(queries[0][:2])  # warm up

    class _Dispatcher:
        """The shared-service model: query rows carry a model-id prefix."""

        dataset = None  # heterogeneous models; no single query shape

        def classification_values_batch(self, rows):
            out = []
            for row in rows:
                model_id = int(row[0])
                out.append(
                    evaluators[model_id].classification_values(
                        np.asarray(row[1:], dtype=bool)
                    )
                )
            return np.stack(out)

    def drive(submit):
        """Run the pinned-thread load; returns (seconds, results)."""
        results = [None] * n_threads

        def caller(thread_id):
            model_id = thread_id % n_models
            rows = queries[thread_id]
            results[thread_id] = np.stack(
                [submit(model_id, row) for row in rows]
            )

        workers = [
            threading.Thread(target=caller, args=(i,))
            for i in range(n_threads)
        ]
        start = time.perf_counter()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        return time.perf_counter() - start, results

    shared_counters = EngineCounters()
    with PredictionService(
        _Dispatcher(),
        ServeConfig(validate_queries=False, default_deadline_ms=60_000.0),
        counters=shared_counters,
    ) as shared:

        def submit_shared(model_id, row):
            tagged = np.empty(n_items + 1, dtype=np.float64)
            tagged[0] = model_id
            tagged[1:] = row
            return shared.classification_values(tagged)

        shared_seconds, shared_results = drive(submit_shared)

    registry_counters = EngineCounters()
    registry = ModelRegistry(
        ServeConfig(default_deadline_ms=60_000.0),
        counters=registry_counters,
    )
    try:
        for i, evaluator in enumerate(evaluators):
            registry.deploy_model(f"m{i}", evaluator)
        registry_seconds, registry_results = drive(
            lambda model_id, row: registry.classification_values(
                f"m{model_id}", row
            )
        )
    finally:
        registry.close()

    # Correctness gates, never relaxed: both deployments must agree with
    # direct batch evaluation on every model's own queries.
    for thread_id in range(n_threads):
        expected = evaluators[thread_id % n_models].\
            classification_values_batch(queries[thread_id])
        assert np.array_equal(registry_results[thread_id], expected)
        assert np.array_equal(shared_results[thread_id], expected)

    n_requests = n_threads * per_thread
    speedup = shared_seconds / registry_seconds
    shared_batch = _mean_batch(shared_counters)
    registry_batch = _mean_batch(registry_counters)
    _BENCH_RECORD["registry_aggregate_throughput_speedup"] = speedup
    _BENCH_RECORD["registry_mean_batch"] = registry_batch
    print(
        f"\nmodel registry: {n_requests / registry_seconds:.1f} q/s over"
        f" {n_models} slots (mean batch {registry_batch:.1f}) vs"
        f" {n_requests / shared_seconds:.1f} q/s shared service"
        f" (mean batch {shared_batch:.1f}; {speedup:.2f}x)"
    )
    if not BENCH_SMOKE:
        assert registry_batch > 1.0, (
            "registry slots did not coalesce concurrent callers"
        )


class _RowByRow:
    """An evaluator whose batch call evaluates its rows one at a time: the
    service over it queues and drains exactly as over the evaluator, but
    its batches share no kernel work."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def dataset(self):
        return self.inner.dataset

    def classification_values_batch(self, queries):
        return np.concatenate(
            [self.inner.classification_values_batch([q]) for q in queries]
        )


def test_service_coalescing_speedup():
    """What batching the queued requests buys on the full ALL profile.

    The model and 64 queries are built as perfbench's ``serve`` workload
    builds them (full-size ALL profile, a cohort 4x the paper's, the
    Table 3 training rows).  Eight closed-loop threads send 8 queries
    each through a ``PredictionService`` on the default configuration;
    the baseline is the same service over :class:`_RowByRow`, so the only
    difference is whether a drained batch is one kernel call or one per
    row.  Passes alternate between the two sides and each side keeps its
    best; the ratio is recorded as ``service_coalescing_speedup`` and
    must be at least 1 outside REPRO_BENCH_SMOKE.  Served rows equal
    ``classification_values_batch`` bit for bit on both sides (always
    gating).
    """
    from dataclasses import replace

    from repro.datasets.profiles import profile

    prof = profile("ALL")
    cohort = replace(
        prof, class_counts=tuple(4 * c for c in prof.class_counts)
    )
    data = generate_expression_data(cohort, seed=0)
    split = given_training_split(data.label_array, prof.given_training, 0)
    train = data.subset(split.train_indices)
    disc = EntropyDiscretizer().fit(train)
    evaluator = FastBSTCEvaluator(disc.transform(train))
    pool = disc.transform(data.subset(split.test_indices))
    queries = list(pool.samples)[:64]
    expected = evaluator.classification_values_batch(queries)
    n_threads, reps = 8, 2 if BENCH_SMOKE else 7
    per_thread = len(queries) // n_threads

    def one_pass(service):
        served = [None] * len(queries)

        def caller(thread_id):
            for i in range(thread_id, len(queries), n_threads):
                served[i] = service.classification_values(queries[i])

        threads = [
            threading.Thread(target=caller, args=(i,))
            for i in range(n_threads)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        seconds = time.perf_counter() - start
        assert np.array_equal(np.asarray(served), expected)  # never relaxed
        return seconds

    counters = EngineCounters()
    best = {"batched": float("inf"), "row_by_row": float("inf")}
    with PredictionService(evaluator, counters=counters) as batched:
        with PredictionService(
            _RowByRow(evaluator), counters=EngineCounters()
        ) as row_by_row:
            sides = {"batched": batched, "row_by_row": row_by_row}
            for _ in range(reps):
                for name, service in sides.items():
                    best[name] = min(best[name], one_pass(service))

    speedup = best["row_by_row"] / best["batched"]
    _BENCH_RECORD["service_coalescing_speedup"] = speedup
    ms = {name: 1e3 * s / len(queries) for name, s in best.items()}
    print(
        f"\nservice coalescing (ALL, {n_threads} threads x {per_thread}):"
        f" {ms['batched']:.3f} ms/query batched (mean batch"
        f" {_mean_batch(counters):.1f}) vs {ms['row_by_row']:.3f} ms/query"
        f" row by row ({speedup:.2f}x)"
    )
    if not BENCH_SMOKE:
        assert speedup >= 1.0, (
            f"batching queued requests only {speedup:.2f}x row-by-row"
            " evaluation of the same batches"
        )


# ----------------------------------------------------------------------
# Incremental training data plane: delta recompile and chunked ingestion
# ----------------------------------------------------------------------


def test_incremental_append_speedup():
    """Delta plan recompile after a <=5% row append vs a cold rebuild.

    The incremental training data plane's core gate: a serving process
    holding a compiled evaluator receives a small batch of new labeled
    rows (drift retraining).  The cold path rebuilds everything — derived
    dataset state and the plan compile — over all rows; the
    delta path (``FastBSTCEvaluator.append_rows`` →
    ``recompile_delta``) reuses every block the new rows do not touch and
    runs matmuls only over the appended slice.  Gate: the delta path must
    be >= 5x faster (best of 3 each; relaxed under REPRO_BENCH_SMOKE).
    The bit-identity checks — identical arena bytes, geometry, dtypes and
    predictions versus the cold rebuild — always gate.
    """
    from repro.core.plan import ARENA_FIELDS

    if BENCH_SMOKE:
        n_samples, n_items = 240, 800
    else:
        n_samples, n_items = 1500, 4000
    full = _serving_dataset(n_samples, n_items, 3, 0.3, seed=30)
    old_n = n_samples - max(1, n_samples // 20)  # a 5% append
    base = full.subset(range(old_n))
    grown = base.append_samples(full.samples[old_n:], full.labels[old_n:])

    clear_evaluator_cache()
    base_eval = FastBSTCEvaluator(base)

    def cold_rebuild():
        # A genuinely cold rebuild: a fresh dataset object (no memoized
        # derived state) and an empty evaluator cache.
        fresh = RelationalDataset(
            grown.item_names, grown.class_names, grown.samples, grown.labels
        )
        clear_evaluator_cache()
        return get_evaluator(fresh)

    def delta_append():
        return base_eval.append_rows(grown)

    cold_eval = cold_rebuild()
    delta_eval = delta_append()
    cold_plan = cold_eval.plan
    delta_plan = delta_eval.plan
    # Bit-identity gates, never relaxed: same plan bytes, same answers.
    assert np.array_equal(cold_plan.geometry, delta_plan.geometry)
    for name in ARENA_FIELDS:
        cold_arr = cold_plan.arena[name]
        delta_arr = delta_plan.arena[name]
        assert cold_arr.dtype == delta_arr.dtype, name
        assert np.array_equal(cold_arr, delta_arr), name
    rng = np.random.default_rng(31)
    batch = rng.random((32, n_items)) < 0.3
    assert np.array_equal(
        cold_eval.classification_values_batch(batch),
        delta_eval.classification_values_batch(batch),
    )

    cold_seconds = _best_of(3, cold_rebuild)
    delta_seconds = _best_of(3, delta_append)
    clear_evaluator_cache()

    speedup = cold_seconds / delta_seconds
    _BENCH_RECORD["incremental_append_speedup"] = speedup
    appended = grown.n_samples - base.n_samples
    print(
        f"\nincremental append ({appended} rows on {base.n_samples}):"
        f" delta {delta_seconds * 1e3:.1f}ms vs cold rebuild"
        f" {cold_seconds * 1e3:.1f}ms ({speedup:.1f}x)"
    )
    if not BENCH_SMOKE:
        assert speedup >= 5.0, (
            f"delta recompile only {speedup:.2f}x faster than a cold"
            " rebuild for a 5% row append"
        )


def test_chunked_ingest_memory_flat(tmp_path):
    """Chunked TSV ingestion peak memory must stay flat as rows grow 10x.

    A streaming consumer (running per-gene reduction over
    ``iter_expression_tsv`` blocks, nothing retained) is traced with
    ``tracemalloc`` on a tall profile and on one 10x taller; the peak may
    not even double.  The whole-file loader is traced on the tall profile
    for contrast — its peak necessarily scales with the row count.
    Memory flatness is deterministic (allocation sizes, not wall clock),
    so these gates hold under REPRO_BENCH_SMOKE too.
    """
    import tracemalloc

    from repro.datasets.dataset import ExpressionMatrix
    from repro.datasets.io import iter_expression_tsv, load_expression_tsv, \
        save_expression_tsv

    n_genes = 120 if BENCH_SMOKE else 200
    base_rows = 150 if BENCH_SMOKE else 400

    def write_profile(rows, seed):
        rng = np.random.default_rng(seed)
        data = ExpressionMatrix(
            gene_names=tuple(f"g{j}" for j in range(n_genes)),
            values=rng.random((rows, n_genes)),
            labels=tuple(int(x) for x in rng.integers(0, 3, size=rows)),
            class_names=("A", "B", "C"),
        )
        path = tmp_path / f"tall_{rows}.tsv"
        save_expression_tsv(data, path)
        return path

    def chunked_peak(path):
        tracemalloc.start()
        total = np.zeros(n_genes)
        rows = 0
        for chunk in iter_expression_tsv(path, chunk_rows=64):
            total += chunk.values.sum(axis=0)
            rows += chunk.values.shape[0]
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak, rows, total

    small = write_profile(base_rows, 40)
    tall = write_profile(base_rows * 10, 41)
    peak_small, rows_small, _ = chunked_peak(small)
    peak_tall, rows_tall, sum_tall = chunked_peak(tall)
    assert rows_small == base_rows and rows_tall == base_rows * 10

    tracemalloc.start()
    whole = load_expression_tsv(tall)
    _, peak_whole = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    np.testing.assert_allclose(whole.values.sum(axis=0), sum_tall)

    ratio = peak_tall / peak_small
    _BENCH_RECORD["chunked_ingest_peak_ratio_10x"] = ratio
    _BENCH_RECORD["chunked_ingest_peak_bytes"] = float(peak_tall)
    _BENCH_RECORD["whole_file_ingest_peak_bytes"] = float(peak_whole)
    print(
        f"\nchunked ingest peak: {peak_small / 1e6:.2f}MB at"
        f" {rows_small} rows vs {peak_tall / 1e6:.2f}MB at {rows_tall}"
        f" rows ({ratio:.2f}x); whole-file load peaks at"
        f" {peak_whole / 1e6:.2f}MB"
    )
    assert ratio <= 2.0, (
        f"chunked ingest peak grew {ratio:.2f}x for a 10x taller profile"
    )
    assert peak_whole >= 3.0 * peak_tall, (
        "whole-file load should dominate chunked peak memory"
        f" ({peak_whole / 1e6:.2f}MB vs {peak_tall / 1e6:.2f}MB)"
    )
