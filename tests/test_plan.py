"""Compiled evaluation plans: the kernel against the paper-literal oracle
and against itself (bit for bit), the duplicate-row cull, dtype-downcast
overflow guards, arena structure, and the cell-stream kernel's
differential tests."""

import threading
import warnings

import numpy as np
import pytest

from conftest import random_relational
from repro.bst.culling import duplicate_row_keep_mask
from repro.bst.table import build_all_bsts
from repro.core.arithmetization import COMBINERS
from repro.core.artifact import load_artifact, save_artifact
from repro.core.bstce import bstce
from repro.core.classifier import BSTClassifier
from repro.core.fast import FastBSTCEvaluator, clear_evaluator_cache
from repro.core import fast as fast_module
from repro.core import plan as plan_module
from repro.core.plan import ARENA_FIELDS, FLOAT32_EXACT_MAX
from repro.datasets.dataset import RelationalDataset
from repro.evaluation.timing import engine_counters

#: Oracle agreement bounds.  Under ``min`` each kernel value is a mean of
#: correctly rounded float32 quotients of exact integer counts, so it sits
#: within one float32 rounding (2**-24) of the oracle's float64 value;
#: ``product`` and ``mean`` also round inside their float32 reductions.
ORACLE_TOLERANCE = {"min": 2.0**-24, "product": 1e-5, "mean": 1e-5}


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_evaluator_cache()
    yield
    clear_evaluator_cache()


def _with_duplicates(rng, n_samples=10, n_items=16, n_classes=3):
    """A random dataset whose outside blocks contain exact-duplicate rows,
    so the min-plan cull has something to drop."""
    while True:
        matrix = rng.random((n_samples, n_items)) < rng.uniform(0.2, 0.7)
        matrix[1] = matrix[0]
        matrix[2] = matrix[0]
        labels = rng.integers(0, n_classes, n_samples)
        labels[0] = labels[1] = labels[2] = 0
        if len(set(labels.tolist())) == n_classes:
            return RelationalDataset.from_bool_matrix(
                matrix,
                labels.tolist(),
                class_names=[f"c{i}" for i in range(n_classes)],
            )


def _assert_matches_oracle(rows, dataset, arithmetization, queries):
    """Kernel rows against :func:`repro.core.bstce.bstce` on every class."""
    bsts = build_all_bsts(dataset)
    expected = np.array([
        [
            bstce(bst, frozenset(np.flatnonzero(q).tolist()), arithmetization)
            for bst in bsts
        ]
        for q in queries
    ])
    np.testing.assert_allclose(
        rows, expected, rtol=0, atol=ORACLE_TOLERANCE[arithmetization]
    )


def _single_rows(evaluator, queries):
    """Each query alone: a batch of one through ``classification_values``."""
    return np.stack([evaluator.classification_values(q) for q in queries])


def _unculled_evaluator(dataset, arithmetization):
    """The same plan compiled with the duplicate-row cull switched off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            plan_module,
            "duplicate_row_keep_mask",
            lambda rows: np.ones(rows.shape[0], dtype=bool),
        )
        return FastBSTCEvaluator(dataset, arithmetization)


class TestBitIdentity:
    """The plan kernel agrees with the oracle within the stated bound, and
    with itself bit for bit — not approximately — across batch sizes,
    sparsity regimes and culled duplicate rows."""

    @pytest.mark.parametrize("arithmetization", sorted(COMBINERS))
    def test_random_datasets(self, arithmetization):
        rng = np.random.default_rng(42)
        for _ in range(8):
            dataset = random_relational(rng)
            planned = FastBSTCEvaluator(dataset, arithmetization)
            queries = rng.random((17, dataset.n_items)) < rng.uniform(0.1, 0.7)
            rows = planned.classification_values_batch(queries)
            _assert_matches_oracle(rows, dataset, arithmetization, queries)
            assert np.array_equal(rows, _single_rows(planned, queries))

    @pytest.mark.parametrize("arithmetization", sorted(COMBINERS))
    def test_duplicate_rows(self, arithmetization):
        rng = np.random.default_rng(7)
        for _ in range(5):
            dataset = _with_duplicates(rng)
            planned = FastBSTCEvaluator(dataset, arithmetization)
            queries = rng.random((9, dataset.n_items)) < 0.5
            rows = planned.classification_values_batch(queries)
            _assert_matches_oracle(rows, dataset, arithmetization, queries)
            assert np.array_equal(rows, _single_rows(planned, queries))

    def test_sparse_serving_queries(self):
        # Wide vocabulary + sparse queries drives the per-query restricted
        # matmul path; the skipped zero terms must not change a bit.
        rng = np.random.default_rng(3)
        matrix = rng.random((24, 600)) < 0.15
        labels = rng.integers(0, 3, 24)
        labels[:3] = (0, 1, 2)
        dataset = RelationalDataset.from_bool_matrix(
            matrix, labels.tolist(), class_names=["a", "b", "c"]
        )
        planned = FastBSTCEvaluator(dataset)
        queries = rng.random((32, 600)) < 0.02  # ~12 genes per query
        rows = planned.classification_values_batch(queries)
        assert np.array_equal(rows, _single_rows(planned, queries))
        _assert_matches_oracle(rows[:4], dataset, "min", queries[:4])
        # A dense batch takes the stacked full-width matmul; each row still
        # equals its query's batch of one (the restricted path).
        dense = rng.random((8, 600)) < 0.6
        assert np.array_equal(
            planned.classification_values_batch(dense),
            _single_rows(planned, dense),
        )


class TestCulling:
    def test_duplicate_row_keep_mask(self):
        matrix = np.array(
            [[1, 0], [1, 0], [0, 1], [1, 0], [0, 0]], dtype=bool
        )
        keep = duplicate_row_keep_mask(matrix)
        assert keep.tolist() == [True, False, True, False, True]
        assert duplicate_row_keep_mask(np.zeros((0, 3), dtype=bool)).size == 0

    def test_min_plan_culls_duplicates(self):
        rng = np.random.default_rng(11)
        dataset = _with_duplicates(rng)
        planned = FastBSTCEvaluator(dataset, "min")
        assert planned.plan.culled_refs > 0
        # The culled stream must produce the unculled plan's values bit for
        # bit: duplicates carry identical pair values and min is idempotent.
        unculled = _unculled_evaluator(dataset, "min")
        assert unculled.plan.culled_refs == 0
        queries = rng.random((8, dataset.n_items)) < 0.5
        assert np.array_equal(
            unculled.classification_values_batch(queries),
            planned.classification_values_batch(queries),
        )

    @pytest.mark.parametrize("arithmetization", ["product", "mean"])
    def test_non_idempotent_arithmetizations_keep_full_stream(
        self, arithmetization
    ):
        # Dropping a duplicate changes a product/mean; those plans must not
        # cull anything.
        rng = np.random.default_rng(13)
        dataset = _with_duplicates(rng)
        planned = FastBSTCEvaluator(dataset, arithmetization)
        assert planned.plan.culled_refs == 0

    def test_culled_refs_counter(self):
        rng = np.random.default_rng(17)
        dataset = _with_duplicates(rng)
        before = engine_counters.get("plan_culled_refs")
        planned = FastBSTCEvaluator(dataset, "min")
        assert (
            engine_counters.get("plan_culled_refs")
            == before + planned.plan.culled_refs
        )

    def test_explain_identical_under_culling(self):
        # A culled plan serves the same classification values, so the
        # explanation machinery reports identical evidence.
        rng = np.random.default_rng(19)
        dataset = _with_duplicates(rng)
        clf = BSTClassifier().fit(dataset)
        assert clf._fast.plan.culled_refs > 0
        query = frozenset(
            int(i) for i in np.flatnonzero(rng.random(dataset.n_items) < 0.5)
        )
        explained_culled = clf.explain(query)
        original_fast = clf._fast
        try:
            clf._fast = _unculled_evaluator(dataset, "min")
            explained_unculled = clf.explain(query)
        finally:
            clf._fast = original_fast
        assert explained_culled == explained_unculled


class TestDowncastGuards:
    def test_small_data_downcasts(self):
        rng = np.random.default_rng(23)
        dataset = random_relational(rng)
        planned = FastBSTCEvaluator(dataset)
        assert planned.plan.index_dtype == np.dtype(np.int32)
        assert planned.plan.weight_dtype == np.dtype(np.float32)
        assert planned.plan.arena["h_flat"].dtype == np.dtype(np.int32)
        assert planned.plan.arena["pair_len"].dtype == np.dtype(np.float32)

    def test_boundary_values_stay_exact_in_float32(self):
        # Every representable pair length at or below 2**24 must survive
        # the downcast exactly.
        lengths = np.array(
            [1, 2, FLOAT32_EXACT_MAX - 1, FLOAT32_EXACT_MAX], dtype=np.float64
        )
        assert np.array_equal(
            lengths.astype(np.float32).astype(np.float64), lengths
        )

    def test_wide_index_fallback(self, monkeypatch):
        # Force the guard: with the int32 ceiling lowered to zero, every
        # index lands in the wide dtype (counted), and the kernel output is
        # the int32 plan's bit for bit — the fallback is a widening, never
        # a wrap.
        rng = np.random.default_rng(29)
        dataset = random_relational(rng)
        narrow = FastBSTCEvaluator(dataset)
        monkeypatch.setattr(plan_module, "INT32_MAX", 0)
        before = engine_counters.get("plan_wide_index_fallbacks")
        planned = FastBSTCEvaluator(dataset)
        assert planned.plan.index_dtype == np.dtype(np.int64)
        assert engine_counters.get("plan_wide_index_fallbacks") == before + 1
        monkeypatch.undo()
        queries = rng.random((9, dataset.n_items)) < 0.4
        assert np.array_equal(
            narrow.classification_values_batch(queries),
            planned.classification_values_batch(queries),
        )

    def test_wide_weight_fallback_preserves_large_lengths(self, monkeypatch):
        # Pair lengths past the float32-exact ceiling must be stored in
        # float64, exactly, instead of silently rounding.  The ceiling is
        # lowered so ordinary lengths cross it; the wide plan then holds
        # the narrow plan's lengths unchanged and answers bit for bit.
        rng = np.random.default_rng(31)
        dataset = random_relational(rng)
        narrow = FastBSTCEvaluator(dataset)
        monkeypatch.setattr(plan_module, "FLOAT32_EXACT_MAX", 1)
        before = engine_counters.get("plan_wide_float_fallbacks")
        wide = FastBSTCEvaluator(dataset)
        monkeypatch.undo()
        assert wide.plan.weight_dtype == np.dtype(np.float64)
        assert engine_counters.get("plan_wide_float_fallbacks") == before + 1
        assert wide.plan.arena["pair_len"].max() > 1
        assert np.array_equal(
            wide.plan.arena["pair_len"],
            narrow.plan.arena["pair_len"].astype(np.float64),
        )
        queries = rng.random((9, dataset.n_items)) < 0.4
        assert np.array_equal(
            narrow.classification_values_batch(queries),
            wide.classification_values_batch(queries),
        )

    @pytest.mark.parametrize("arithmetization", sorted(COMBINERS))
    def test_fused_pair_weights_match_legacy(self, arithmetization):
        # pair_len/pair_neg must encode exactly the list-selection rule the
        # fused weights replaced, counted here from the row sets: the
        # negated list h - c when non-empty, else the fallback c - h, and
        # length 0 when both are empty.
        rng = np.random.default_rng(37)
        dataset = random_relational(rng)
        planned = FastBSTCEvaluator(dataset, arithmetization)
        labels = dataset.label_array
        for class_id, pc in enumerate(planned.plan.classes):
            assert pc is not None
            inside = np.flatnonzero(labels == class_id)
            outside = np.flatnonzero(labels != class_id)
            neg = np.array([
                [len(dataset.samples[h] - dataset.samples[c]) for h in outside]
                for c in inside
            ])
            pos = np.array([
                [len(dataset.samples[c] - dataset.samples[h]) for h in outside]
                for c in inside
            ]).reshape(neg.shape)
            assert np.array_equal(np.asarray(pc.pair_neg), neg > 0)
            assert np.array_equal(
                np.asarray(pc.pair_len), np.where(neg > 0, neg, pos)
            )


class TestArenaStructure:
    def test_views_share_arena_memory(self):
        rng = np.random.default_rng(41)
        dataset = random_relational(rng)
        plan = FastBSTCEvaluator(dataset).plan
        for pc in plan.classes:
            if pc is None:
                continue
            for name in ARENA_FIELDS:
                view = getattr(pc, name)
                if view.size:
                    assert np.shares_memory(view, plan.arena[name])

    def test_geometry_covers_every_class(self):
        dataset = RelationalDataset(
            item_names=("a", "b", "c"),
            class_names=("x", "y", "z"),
            samples=(frozenset({0, 1}), frozenset({2})),
            labels=(0, 2),
        )
        plan = FastBSTCEvaluator(dataset).plan
        assert plan.geometry.shape == (3, 4)
        assert plan.classes[1] is None
        assert tuple(plan.geometry[1]) == (0, 0, 0, 0)


class TestArtifactV1Fallback:
    """Format v1 artifacts are refused (``test_artifact.py::
    test_unknown_format_version``); the current format loads silently."""

    def test_v2_round_trip_does_not_warn(self, tmp_path):
        rng = np.random.default_rng(59)
        dataset = random_relational(rng)
        evaluator = FastBSTCEvaluator(dataset)
        path = save_artifact(evaluator, tmp_path / "m2.npz")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            loaded = load_artifact(path)
        assert loaded.plan.culled_refs == evaluator.plan.culled_refs


def _reference_rows(dataset, arithmetization, queries):
    """The exact in-kernel reference: each query alone (a batch of one),
    its cells picked by the whole-stream gather."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fast_module, "_WHOLE_STREAM_SHARE", 10**12)
        return _single_rows(
            FastBSTCEvaluator(dataset, arithmetization), queries
        )


def _wide_dataset(seed, n_samples=60, n_items=300, n_classes=3, density=0.35):
    rng = np.random.default_rng(seed)
    matrix = rng.random((n_samples, n_items)) < density
    labels = rng.integers(0, n_classes, n_samples)
    labels[:n_classes] = np.arange(n_classes)
    matrix[1] = matrix[0]  # a duplicate outside row for the min cull
    return RelationalDataset.from_bool_matrix(
        matrix, labels.tolist(), class_names=[f"c{i}" for i in range(n_classes)]
    )


#: Cell-selection methods of the plan kernel, forced through its cost
#: constant: the whole-stream gather and the per-run gather.
_SELECTION_MODES = {
    "auto": {},
    "whole": {"_WHOLE_STREAM_SHARE": 10**12},
    "runs": {"_WHOLE_STREAM_SHARE": 0},
}


@pytest.fixture(params=sorted(_SELECTION_MODES))
def selection_mode(request, monkeypatch):
    for name, value in _SELECTION_MODES[request.param].items():
        monkeypatch.setattr(fast_module, name, value)
    return request.param


class TestCellStreamKernel:
    """The cell-stream plan kernel, under each cell-selection method and
    batch size, against :func:`_reference_rows` — compared with
    ``np.array_equal`` (bit for bit) — and, on a subset, the oracle."""

    @pytest.mark.parametrize("arithmetization", sorted(COMBINERS))
    @pytest.mark.parametrize("n_queries", [1, 2, 64, 65])
    def test_batch_sizes_and_densities(
        self, arithmetization, n_queries, selection_mode
    ):
        dataset = _wide_dataset(71)
        rng = np.random.default_rng(n_queries)
        # Densities on both sides of the whole-stream threshold, mixed
        # within one block.
        density = np.resize([0.02, 0.1, 0.5, 0.9], n_queries)
        queries = rng.random((n_queries, dataset.n_items)) < density[:, None]
        planned = FastBSTCEvaluator(dataset, arithmetization)
        rows = planned.classification_values_batch(queries)
        assert np.array_equal(
            rows, _reference_rows(dataset, arithmetization, queries)
        )
        if selection_mode == "auto" and n_queries == 2:
            # The oracle is slow on this profile: one sparse pair of
            # queries per arithmetization.
            _assert_matches_oracle(rows, dataset, arithmetization, queries)

    @pytest.mark.parametrize("arithmetization", sorted(COMBINERS))
    def test_random_datasets(self, arithmetization, selection_mode):
        rng = np.random.default_rng(73)
        for _ in range(6):
            dataset = _with_duplicates(rng)
            queries = rng.random((9, dataset.n_items)) < rng.uniform(0.1, 0.8)
            rows = FastBSTCEvaluator(
                dataset, arithmetization
            ).classification_values_batch(queries)
            assert np.array_equal(
                rows, _reference_rows(dataset, arithmetization, queries)
            )
            if selection_mode == "auto":
                _assert_matches_oracle(rows, dataset, arithmetization, queries)

    def test_density_picks_each_selection_method(self, monkeypatch):
        calls = {"_stream_cells": 0, "_run_cells": 0}
        for name in calls:
            original = getattr(FastBSTCEvaluator, name)

            def spy(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(FastBSTCEvaluator, name, spy)
        dataset = _wide_dataset(79)
        rng = np.random.default_rng(79)
        planned = FastBSTCEvaluator(dataset)
        for density, method in ((0.9, "_stream_cells"), (0.02, "_run_cells")):
            before = dict(calls)
            queries = rng.random((4, dataset.n_items)) < density
            assert np.array_equal(
                planned.classification_values_batch(queries),
                _reference_rows(dataset, "min", queries),
            )
            assert calls[method] > before[method]

    def test_empty_and_black_dot_only_queries(self, selection_mode):
        dataset = _wide_dataset(83)
        matrix = dataset.bool_matrix.copy()
        labels = dataset.label_array
        # Gene 0 is expressed by class 0 only: a black dot for class 0 and
        # outside every other class's gene mask.
        matrix[:, 0] = labels == 0
        dataset = RelationalDataset.from_bool_matrix(
            matrix, labels.tolist(), class_names=list(dataset.class_names)
        )
        queries = np.zeros((3, dataset.n_items), dtype=bool)
        queries[1, 0] = True
        queries[2, :5] = True
        for arithmetization in sorted(COMBINERS):
            planned = FastBSTCEvaluator(dataset, arithmetization)
            rows = planned.classification_values_batch(queries)
            assert np.array_equal(
                rows, _reference_rows(dataset, arithmetization, queries)
            )
            assert not rows[0].any()
            assert rows[1, 0] == 1.0 and not rows[1, 1:].any()

    def test_class_without_outside_rows(self, selection_mode):
        # Every sample is class 0: it has no outside rows (an empty stream,
        # all black dots) and class 1 is absent.
        rng = np.random.default_rng(89)
        matrix = rng.random((6, 20)) < 0.5
        dataset = RelationalDataset.from_bool_matrix(
            matrix, [0] * 6, class_names=["a", "b"]
        )
        planned = FastBSTCEvaluator(dataset)
        queries = rng.random((5, 20)) < 0.5
        rows = planned.classification_values_batch(queries)
        assert np.array_equal(rows, _reference_rows(dataset, "min", queries))
        assert planned._cell_stream(0).n_elems == 0
        assert planned.plan.classes[1] is None

    def test_int64_fallback_plan(self, monkeypatch, selection_mode):
        # An int64 plan (forced through the int32 ceiling) against the int32
        # plan the reference compiles once the ceiling is restored.
        dataset = _wide_dataset(97, n_items=120)
        queries = np.random.default_rng(97).random((7, 120)) < 0.3
        monkeypatch.setattr(plan_module, "INT32_MAX", 0)
        planned = FastBSTCEvaluator(dataset)
        rows = planned.classification_values_batch(queries)
        assert planned.plan.index_dtype == np.dtype(np.int64)
        assert all(
            planned._cell_stream(c).elem.dtype == np.dtype(np.int64)
            for c, pc in enumerate(planned.plan.classes)
            if pc is not None
        )
        monkeypatch.undo()
        assert np.array_equal(rows, _reference_rows(dataset, "min", queries))

    @pytest.mark.parametrize("arithmetization", sorted(COMBINERS))
    def test_loaded_and_refreshed_evaluators(
        self, tmp_path, arithmetization, selection_mode
    ):
        dataset = _wide_dataset(101)
        queries = np.random.default_rng(101).random(
            (9, dataset.n_items)
        ) < np.resize([0.03, 0.6], 9)[:, None]
        expected = _reference_rows(dataset, arithmetization, queries)
        path = save_artifact(
            FastBSTCEvaluator(dataset, arithmetization), tmp_path / "m.npz"
        )
        base = RelationalDataset.from_bool_matrix(
            dataset.bool_matrix[:40],
            dataset.label_array[:40].tolist(),
            class_names=list(dataset.class_names),
        )
        refreshed = FastBSTCEvaluator(base, arithmetization).append_rows(
            dataset
        )
        for evaluator in (
            load_artifact(path),
            load_artifact(path, mmap=False),
            refreshed,
        ):
            assert np.array_equal(
                evaluator.classification_values_batch(queries), expected
            )

    def test_sparse_queries_build_no_stream(self):
        # A sparse first query (the serving cold start) gathers its runs
        # from the plan's CSR lists and never pays for a cell stream.
        dataset = _wide_dataset(109)
        planned = FastBSTCEvaluator(dataset)
        before = engine_counters.get("plan_stream_builds")
        rows = planned.classification_values_batch([frozenset({1, 2, 3})])
        assert engine_counters.get("plan_stream_builds") == before
        assert planned._streams == {}
        assert np.array_equal(
            rows,
            _reference_rows(dataset, "min", [frozenset({1, 2, 3})]),
        )

    def test_one_build_per_class_across_many_queries(self):
        # Dense blocks take the whole-stream method in every class, so
        # each class builds its stream once and reuses it.
        dataset = _wide_dataset(103)
        planned = FastBSTCEvaluator(dataset)
        before = engine_counters.get("plan_stream_builds")
        rng = np.random.default_rng(103)
        for _ in range(5):
            planned.classification_values_batch(
                rng.random((3, dataset.n_items)) < 0.9
            )
            planned.classification_values_batch(
                [frozenset({1, 2, 3})]
            )
        non_empty = sum(pc is not None for pc in planned.plan.classes)
        assert engine_counters.get("plan_stream_builds") == before + non_empty

    def test_racing_first_queries_build_once(self, tmp_path):
        dataset = _wide_dataset(107)
        path = save_artifact(FastBSTCEvaluator(dataset), tmp_path / "m.npz")
        loaded = load_artifact(path)
        # Dense, so every class takes the whole-stream method.
        query = np.random.default_rng(107).random(dataset.n_items) < 0.9
        barrier = threading.Barrier(8)
        rows = [None] * 8
        before = engine_counters.get("plan_stream_builds")

        def first_query(slot):
            barrier.wait()
            rows[slot] = loaded.classification_values_batch([query])[0]

        threads = [
            threading.Thread(target=first_query, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        non_empty = sum(pc is not None for pc in loaded.plan.classes)
        assert engine_counters.get("plan_stream_builds") == before + non_empty
        expected = _reference_rows(dataset, "min", [query])[0]
        assert all(np.array_equal(row, expected) for row in rows)


def _ladder_dataset(max_len=70, n_inside=3):
    """Class 0 has one gene of every cell length ``1..max_len``: outside
    row ``h`` expresses genes ``h+1..max_len``, so gene ``g`` (1-based)
    has exactly ``g`` outside rows and every outside row is distinct."""
    outside = np.triu(np.ones((max_len, max_len), dtype=bool))
    inside = np.ones((n_inside, max_len), dtype=bool)
    return RelationalDataset.from_bool_matrix(
        np.vstack([inside, outside]),
        [0] * n_inside + [1] * max_len,
        class_names=["in", "out"],
    )


class TestFoldedCellStream:
    """The length-bucketed, element-major ``min``/``product`` layout
    against ``reduceat`` over the flat layout, bit for bit."""

    @pytest.mark.parametrize("arithmetization", ["min", "product"])
    @pytest.mark.parametrize("cell_budget", [None, 64])
    def test_fold_equals_reduceat(
        self, arithmetization, cell_budget, monkeypatch
    ):
        # Cell lengths 1..70 cross every power-of-two bucket boundary up to
        # 64; a tiny element budget splits buckets' columns into chunks.
        if cell_budget is not None:
            monkeypatch.setattr(fast_module, "_CELL_BUDGET", cell_budget)
        dataset = _ladder_dataset()
        evaluator = FastBSTCEvaluator(dataset, arithmetization)
        pc = evaluator.plan.classes[0]
        folded = plan_module.build_cell_stream(pc, arithmetization)
        flat = plan_module.build_cell_stream(pc, "mean")
        assert folded.folded and not flat.folded
        assert set(flat.cell_len.tolist()) == set(range(1, 71))
        assert np.array_equal(folded.cell_gene, flat.cell_gene)
        assert np.array_equal(folded.cell_row, flat.cell_row)
        rng = np.random.default_rng(113)
        n_pairs = pc.inside.shape[0] * pc.outside.shape[0]
        for n_b in (1, 3):
            pair_values = np.ones((n_b, n_pairs + 1), dtype=np.float32)
            pair_values[:, :-1] = rng.uniform(0.5, 1.0, (n_b, n_pairs))
            reduce = np.minimum if arithmetization == "min" else np.multiply
            expected = reduce.reduceat(
                np.take(pair_values, flat.elem, axis=1),
                flat.cell_start,
                axis=1,
            )
            got = evaluator._stream_values(folded, pair_values)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("arithmetization", ["min", "product"])
    def test_small_budget_answers_unchanged(
        self, arithmetization, monkeypatch
    ):
        dataset = _ladder_dataset()
        queries = np.random.default_rng(127).random((5, dataset.n_items)) < 0.7
        expected = _reference_rows(dataset, arithmetization, queries)
        monkeypatch.setattr(fast_module, "_CELL_BUDGET", 64)
        monkeypatch.setattr(fast_module, "_WHOLE_STREAM_SHARE", 10**12)
        rows = FastBSTCEvaluator(
            dataset, arithmetization
        ).classification_values_batch(queries)
        assert np.array_equal(rows, expected)
        _assert_matches_oracle(rows, dataset, arithmetization, queries)

    @pytest.mark.parametrize("arithmetization", sorted(COMBINERS))
    def test_padded_layout_at_most_doubles_the_stream(self, arithmetization):
        # Rounding a length up to a power of two pads a cell by less than
        # its own length, so the padded layout stays below twice the flat
        # stream — the memory the folded layout may cost.
        for dataset in (_ladder_dataset(), _wide_dataset(131)):
            evaluator = FastBSTCEvaluator(dataset, arithmetization)
            for class_id, pc in enumerate(evaluator.plan.classes):
                stream = evaluator._cell_stream(class_id)
                assert stream.n_elems <= 2 * pc.stream_elems
                if arithmetization == "mean":
                    assert stream.n_elems == pc.stream_elems
                    assert stream.buckets == ()
                else:
                    assert stream.cell_start is None
                    widths = [elem.shape[0] for elem in stream.buckets]
                    assert widths == sorted(set(widths))
                    assert all(w & (w - 1) == 0 for w in widths)
