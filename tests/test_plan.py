"""Compiled evaluation plans: the kernel against a test-only cell reference
and the paper-literal oracle, against itself bit for bit across batch
sizes and working budgets, duplicate outside rows, the weight-dtype and
exact-sum guards, and the four-member arena."""

import threading
import warnings

import numpy as np
import pytest

from conftest import random_relational
from repro.bst.table import build_all_bsts
from repro.core.arithmetization import COMBINERS
from repro.core.artifact import (
    ARTIFACT_FORMAT_VERSION,
    load_artifact,
    save_artifact,
)
from repro.core.bitset import _swar_popcount
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
#: ``product`` and ``mean`` also round inside their closed forms.
ORACLE_TOLERANCE = {"min": 2.0**-24, "product": 1e-5, "mean": 1e-5}


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_evaluator_cache()
    yield
    clear_evaluator_cache()


def _with_duplicates(rng, n_samples=10, n_items=16, n_classes=3):
    """A random dataset whose rows 1 and 2 duplicate row 0 (class 0), so
    every other class has exact-duplicate outside rows."""
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


def _without_rows(dataset, rows):
    keep = np.setdiff1d(np.arange(dataset.n_samples), rows)
    return RelationalDataset.from_bool_matrix(
        dataset.bool_matrix[keep],
        dataset.label_array[keep].tolist(),
        class_names=list(dataset.class_names),
    )


def _query_matrix(dataset, queries):
    """Item sets or indicator vectors as a bool matrix (ids past the
    vocabulary dropped, as the kernel does)."""
    rows = np.zeros((len(queries), dataset.n_items), dtype=bool)
    for b, query in enumerate(queries):
        if isinstance(query, np.ndarray):
            rows[b] = query
        else:
            rows[b, [i for i in query if 0 <= i < dataset.n_items]] = True
    return rows


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


def _cell_reference(dataset, queries, arithmetization="min"):
    """Test-only reference: per cell ``(g, c)``, gather the float32 pair
    values ``V[c, h]`` over the outside rows ``h`` expressing ``g`` and
    combine them (a black dot is 1); sum each column in ascending gene
    order.  Under ``min`` the kernel must equal it bit for bit."""
    combine = {"min": np.min, "product": np.prod, "mean": np.mean}
    qmat = _query_matrix(dataset, queries).astype(np.int64)
    matrix = dataset.bool_matrix.astype(np.int64)
    labels = dataset.label_array
    rows = np.zeros((len(qmat), dataset.n_classes))
    for class_id in range(dataset.n_classes):
        inside = matrix[labels == class_id]
        outside = matrix[labels != class_id]
        if not len(inside):
            continue
        inter = inside @ outside.T
        len_neg = outside.sum(axis=1)[None, :] - inter  # |h - c|
        length = np.where(len_neg > 0, len_neg, inside.sum(axis=1)[:, None] - inter)
        for b, q in enumerate(qmat):
            chq = (inside * q) @ outside.T
            sat = np.where(
                len_neg > 0,
                len_neg - ((outside @ q)[None, :] - chq),
                (inside @ q)[:, None] - chq,
            )
            with np.errstate(divide="ignore", invalid="ignore"):
                pair = np.where(
                    length > 0,
                    sat.astype(np.float32) / length.astype(np.float32),
                    np.float32(0),
                ).astype(np.float64)
            means = np.zeros(len(inside))
            for c in range(len(inside)):
                genes = np.flatnonzero(inside[c] * q)
                cells = [
                    combine[arithmetization](pair[c, outside[:, g] > 0])
                    if outside[:, g].any() else 1.0
                    for g in genes
                ]
                if cells:
                    means[c] = np.cumsum(cells)[-1] / len(cells)
            n_cols = np.count_nonzero((inside * q).any(axis=1))
            if n_cols:
                rows[b, class_id] = means.sum() / n_cols
    return rows


def _single_rows(evaluator, queries):
    """Each query alone: a batch of one through ``classification_values``."""
    return np.stack([evaluator.classification_values(q) for q in queries])


def _reference_rows(dataset, arithmetization, queries):
    """What a batch must equal bit for bit: the cell reference under
    ``min``; each query alone (a batch of one) under ``product``/``mean``,
    whose closed forms meet the reference within ``ORACLE_TOLERANCE``."""
    if arithmetization == "min":
        return _cell_reference(dataset, queries)
    return _single_rows(FastBSTCEvaluator(dataset, arithmetization), queries)


class TestBitIdentity:
    """The plan kernel agrees with the oracle within the stated bound, and
    with itself bit for bit — not approximately — across batch sizes,
    sparsity regimes and duplicate rows."""

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
        # A wide vocabulary probed by sparse queries: each query compacts
        # to its own ~12 columns, one 64-bit word; a dense batch compacts
        # to hundreds.  Neither may change a bit.
        rng = np.random.default_rng(3)
        matrix = rng.random((24, 600)) < 0.15
        labels = rng.integers(0, 3, 24)
        labels[:3] = (0, 1, 2)
        dataset = RelationalDataset.from_bool_matrix(
            matrix, labels.tolist(), class_names=["a", "b", "c"]
        )
        planned = FastBSTCEvaluator(dataset)
        queries = rng.random((32, 600)) < 0.02
        rows = planned.classification_values_batch(queries)
        assert np.array_equal(rows, _single_rows(planned, queries))
        assert np.array_equal(rows, _cell_reference(dataset, queries))
        _assert_matches_oracle(rows[:4], dataset, "min", queries[:4])
        dense = rng.random((8, 600)) < 0.6
        assert np.array_equal(
            planned.classification_values_batch(dense),
            _single_rows(planned, dense),
        )


class TestCulling:
    """Duplicate outside rows need no cull: a cumulative OR ignores them
    under ``min``, while ``product`` and ``mean`` count every one."""

    def test_min_plan_culls_duplicates(self):
        # Rows 1 and 2 duplicate row 0 (class 0), so they are duplicate
        # outside rows of every other class: under min those classes
        # answer exactly as on the dataset without them.
        rng = np.random.default_rng(11)
        dataset = _with_duplicates(rng)
        culled = _without_rows(dataset, [1, 2])
        queries = rng.random((8, dataset.n_items)) < 0.5
        rows = FastBSTCEvaluator(dataset, "min").classification_values_batch(
            queries
        )
        expected = FastBSTCEvaluator(culled, "min").classification_values_batch(
            queries
        )
        assert np.array_equal(rows[:, 1:], expected[:, 1:])
        assert np.array_equal(rows, _cell_reference(dataset, queries))

    @pytest.mark.parametrize("arithmetization", ["product", "mean"])
    def test_non_idempotent_arithmetizations_keep_full_stream(
        self, arithmetization
    ):
        # Dropping a duplicate changes a product or mean: those values
        # count every outside row and still meet the oracle.
        rng = np.random.default_rng(13)
        dataset = _with_duplicates(rng)
        culled = _without_rows(dataset, [1, 2])
        queries = rng.random((8, dataset.n_items)) < 0.5
        rows = FastBSTCEvaluator(
            dataset, arithmetization
        ).classification_values_batch(queries)
        without = FastBSTCEvaluator(
            culled, arithmetization
        ).classification_values_batch(queries)
        assert not np.allclose(rows[:, 1:], without[:, 1:], rtol=0, atol=1e-9)
        _assert_matches_oracle(rows, dataset, arithmetization, queries)

    def test_explain_identical_under_culling(self, tmp_path):
        # A classifier fitted on duplicate rows explains a query the same
        # whether it evaluates in memory or from its reloaded artifact.
        rng = np.random.default_rng(19)
        dataset = _with_duplicates(rng)
        clf = BSTClassifier().fit(dataset)
        query = frozenset(
            int(i) for i in np.flatnonzero(rng.random(dataset.n_items) < 0.5)
        )
        explained = clf.explain(query)
        original_fast = clf._fast
        try:
            clf._fast = load_artifact(
                save_artifact(original_fast, tmp_path / "m.npz")
            )
            explained_again = clf.explain(query)
        finally:
            clf._fast = original_fast
        assert explained == explained_again


class TestDowncastGuards:
    def test_small_data_downcasts(self):
        rng = np.random.default_rng(23)
        dataset = random_relational(rng)
        planned = FastBSTCEvaluator(dataset)
        assert planned.plan.weight_dtype == np.dtype(np.float32)
        assert planned.plan.arena["pair_len"].dtype == np.dtype(np.float32)
        for name in ("inside", "outside", "pair_neg"):
            assert planned.plan.arena[name].dtype == np.dtype(bool)

    def test_boundary_values_stay_exact_in_float32(self):
        # Every representable pair length at or below 2**24 must survive
        # the downcast exactly.
        lengths = np.array(
            [1, 2, FLOAT32_EXACT_MAX - 1, FLOAT32_EXACT_MAX], dtype=np.float64
        )
        assert np.array_equal(
            lengths.astype(np.float32).astype(np.float64), lengths
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

    def test_sum_bound_exceeded_is_counted(self, monkeypatch):
        # A plan past the exact-sum bound is counted and still compiled:
        # the arena is unchanged and every path gives the same bits.
        rng = np.random.default_rng(33)
        dataset = random_relational(rng)
        queries = rng.random((9, dataset.n_items)) < 0.4
        before = engine_counters.get("plan_sum_bound_exceeded")
        within = FastBSTCEvaluator(dataset)
        assert engine_counters.get("plan_sum_bound_exceeded") == before
        monkeypatch.setattr(plan_module, "EXACT_SUM_BITS", 0)
        past = FastBSTCEvaluator(dataset)
        assert engine_counters.get("plan_sum_bound_exceeded") == before + 1
        for name in ARENA_FIELDS:
            assert np.array_equal(past.plan.arena[name], within.plan.arena[name])
        rows = past.classification_values_batch(queries)
        assert np.array_equal(rows, _single_rows(past, queries))
        assert np.array_equal(rows, within.classification_values_batch(queries))

    def test_sum_bound_matches_its_statement(self):
        # n_items · 2**⌈log2 L⌉ ≤ 2**30: the ALL-sized vocabulary with every
        # pair length up to n_items stays inside; 2**20 items with lengths
        # of 2**11 do not.
        for n_items, length, inside in (
            (1073, 1073, True), (2706, 2706, True), (2**20, 2**10, True),
            (2**20, 2**10 + 1, False),
        ):
            before = engine_counters.get("plan_sum_bound_exceeded")
            raw = {
                "inside": np.zeros((1, n_items), dtype=bool),
                "outside": np.zeros((1, n_items), dtype=bool),
                "pair_len": np.full((1, 1), length, dtype=np.float32),
                "pair_neg": np.ones((1, 1), dtype=bool),
            }
            plan_module._build_arena([(raw, (1, 1))], n_items)
            counted = engine_counters.get("plan_sum_bound_exceeded") - before
            assert counted == (0 if inside else 1), (n_items, length)

    @pytest.mark.parametrize("arithmetization", sorted(COMBINERS))
    def test_fused_pair_weights_match_legacy(self, arithmetization):
        # pair_len/pair_neg must encode exactly the list-selection rule,
        # counted here from the row sets: the negated list h - c when
        # non-empty, else the fallback c - h, and length 0 when both are
        # empty.
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
        assert tuple(plan.arena) == ARENA_FIELDS == (
            "inside", "outside", "pair_len", "pair_neg"
        )
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
        assert plan.geometry.shape == (3, 2)
        assert plan.classes[1] is None
        assert tuple(plan.geometry[1]) == (0, 0)
        assert tuple(plan.geometry[0]) == (1, 1)

    def test_arena_is_bool_rows_and_five_bytes_per_pair(self):
        rng = np.random.default_rng(43)
        dataset = random_relational(rng)
        plan = FastBSTCEvaluator(dataset).plan
        n_pairs = sum(
            int(pc.pair_len.size) for pc in plan.classes if pc is not None
        )
        rows = dataset.n_samples * dataset.n_classes
        assert plan.hot_nbytes() == rows * dataset.n_items + 5 * n_pairs


class TestArtifactFormat:
    """Artifacts are written in the current format and load silently;
    format 2 loading is ``test_artifact.py::TestFormat2Compatibility``."""

    def test_current_format_round_trip_does_not_warn(self, tmp_path):
        rng = np.random.default_rng(59)
        dataset = random_relational(rng)
        evaluator = FastBSTCEvaluator(dataset)
        path = save_artifact(evaluator, tmp_path / "m3.npz")
        with np.load(path) as npz:
            assert int(npz["meta_format_version"]) == ARTIFACT_FORMAT_VERSION
            assert sorted(n for n in npz.files if n.startswith("arena_")) == [
                f"arena_{name}" for name in sorted(ARENA_FIELDS)
            ]
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            loaded = load_artifact(path)
        queries = rng.random((5, dataset.n_items)) < 0.5
        assert np.array_equal(
            loaded.classification_values_batch(queries),
            evaluator.classification_values_batch(queries),
        )


def _wide_dataset(seed, n_samples=60, n_items=300, n_classes=3, density=0.35):
    rng = np.random.default_rng(seed)
    matrix = rng.random((n_samples, n_items)) < density
    labels = rng.integers(0, n_classes, n_samples)
    labels[:n_classes] = np.arange(n_classes)
    matrix[1] = matrix[0]  # a duplicate outside row
    return RelationalDataset.from_bool_matrix(
        matrix, labels.tolist(), class_names=[f"c{i}" for i in range(n_classes)]
    )


#: Working-budget regimes of the plan kernel, forced through its word
#: budget: the default, one group per block, and one query per group with
#: one inside row per gathered chunk.
_BUDGET_MODES = {"auto": None, "whole": 1 << 40, "runs": 1}


@pytest.fixture(params=sorted(_BUDGET_MODES))
def budget_mode(request, monkeypatch):
    if _BUDGET_MODES[request.param] is not None:
        monkeypatch.setattr(
            fast_module, "_WORD_BUDGET", _BUDGET_MODES[request.param]
        )
    return request.param


class TestCellStreamKernel:
    """The sorted cumulative-OR ``min`` kernel and the ``product``/``mean``
    closed forms under each working budget and batch size, against
    :func:`_reference_rows` with ``np.array_equal`` and, on a subset, the
    oracle and :func:`_cell_reference` within ``ORACLE_TOLERANCE``."""

    @pytest.mark.parametrize("arithmetization", sorted(COMBINERS))
    @pytest.mark.parametrize("n_queries", [1, 2, 3, 64, 65])
    def test_batch_sizes_and_densities(
        self, arithmetization, n_queries, budget_mode
    ):
        dataset = _wide_dataset(71)
        rng = np.random.default_rng(n_queries)
        # Sparse and dense queries mixed within one block, so short
        # queries ride padded with sentinel columns.
        density = np.resize([0.02, 0.1, 0.5, 0.9], n_queries)
        queries = rng.random((n_queries, dataset.n_items)) < density[:, None]
        planned = FastBSTCEvaluator(dataset, arithmetization)
        rows = planned.classification_values_batch(queries)
        assert np.array_equal(
            rows, _reference_rows(dataset, arithmetization, queries)
        )
        if budget_mode == "auto" and n_queries == 2:
            # The oracle is slow on this profile: one sparse pair of
            # queries per arithmetization.
            _assert_matches_oracle(rows, dataset, arithmetization, queries)
            np.testing.assert_allclose(
                rows, _cell_reference(dataset, queries, arithmetization),
                rtol=0, atol=ORACLE_TOLERANCE[arithmetization],
            )

    @pytest.mark.parametrize("arithmetization", sorted(COMBINERS))
    def test_random_datasets(self, arithmetization, budget_mode):
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
            if budget_mode == "auto":
                _assert_matches_oracle(rows, dataset, arithmetization, queries)

    def test_empty_and_black_dot_only_queries(self, budget_mode):
        dataset = _wide_dataset(83)
        matrix = dataset.bool_matrix.copy()
        labels = dataset.label_array
        # Gene 0 is expressed by class 0 only: a black dot for class 0 and
        # outside every other class's rows.
        matrix[:, 0] = labels == 0
        dataset = RelationalDataset.from_bool_matrix(
            matrix, labels.tolist(), class_names=list(dataset.class_names)
        )
        n = dataset.n_items
        # Empty, black-dot only, a few genes, and out of vocabulary only.
        queries = [frozenset(), frozenset({0}), frozenset(range(5)),
                   frozenset({n, n + 7, -1})]
        for arithmetization in sorted(COMBINERS):
            planned = FastBSTCEvaluator(dataset, arithmetization)
            rows = planned.classification_values_batch(queries)
            assert np.array_equal(
                rows, _reference_rows(dataset, arithmetization, queries)
            )
            assert not rows[0].any() and not rows[3].any()
            assert rows[1, 0] == 1.0 and not rows[1, 1:].any()
        assert np.array_equal(
            FastBSTCEvaluator(dataset).classification_values_batch(queries),
            _cell_reference(dataset, queries),
        )

    def test_class_without_outside_rows(self, budget_mode):
        # Every sample is class 0: it has no outside rows (every cell a
        # black dot) and class 1 is absent.
        rng = np.random.default_rng(89)
        matrix = rng.random((6, 20)) < 0.5
        dataset = RelationalDataset.from_bool_matrix(
            matrix, [0] * 6, class_names=["a", "b"]
        )
        queries = rng.random((5, 20)) < 0.5
        for arithmetization in sorted(COMBINERS):
            planned = FastBSTCEvaluator(dataset, arithmetization)
            rows = planned.classification_values_batch(queries)
            assert np.array_equal(rows, _cell_reference(dataset, queries))
            touched = (queries[:, None, :] & matrix[None]).any(axis=(1, 2))
            assert np.array_equal(rows[:, 0], touched.astype(float))
            assert planned.plan.classes[1] is None
            assert not rows[:, 1].any()

    def test_int64_fallback_plan(self, monkeypatch, budget_mode):
        # The SWAR popcount, the fallback over the kernel's 64-bit words
        # where numpy has no bitwise_count, gives the same bits.
        dataset = _wide_dataset(97, n_items=120)
        queries = np.random.default_rng(97).random((7, 120)) < 0.3
        expected = _reference_rows(dataset, "min", queries)
        monkeypatch.setattr(fast_module, "popcount", _swar_popcount)
        rows = FastBSTCEvaluator(dataset).classification_values_batch(queries)
        assert np.array_equal(rows, expected)

    @pytest.mark.parametrize("arithmetization", sorted(COMBINERS))
    def test_loaded_and_refreshed_evaluators(
        self, tmp_path, arithmetization, budget_mode
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
        # A sparse first query (the serving cold start) builds nothing:
        # the evaluator keeps no per-query or per-class state.
        dataset = _wide_dataset(109)
        planned = FastBSTCEvaluator(dataset)
        state = dict(vars(planned))
        before = engine_counters.get("plan_compiles")
        rows = planned.classification_values_batch([frozenset({1, 2, 3})])
        assert vars(planned) == state
        assert engine_counters.get("plan_compiles") == before
        assert np.array_equal(
            rows, _cell_reference(dataset, [frozenset({1, 2, 3})])
        )

    def test_one_build_per_class_across_many_queries(self):
        # Each class's arena slice is compiled once, at the build; dense
        # and sparse queries afterwards compile nothing.
        dataset = _wide_dataset(103)
        before = engine_counters.get("plan_compiles")
        planned = FastBSTCEvaluator(dataset)
        rng = np.random.default_rng(103)
        for _ in range(5):
            planned.classification_values_batch(
                rng.random((3, dataset.n_items)) < 0.9
            )
            planned.classification_values_batch([frozenset({1, 2, 3})])
        assert engine_counters.get("plan_compiles") == before + 1

    def test_racing_first_queries_build_once(self, tmp_path):
        # Eight first queries race on a lazily verified artifact: its
        # table members are verified once and every thread gets the bits.
        dataset = _wide_dataset(107)
        path = save_artifact(FastBSTCEvaluator(dataset), tmp_path / "m.npz")
        loaded = load_artifact(path)
        query = np.random.default_rng(107).random(dataset.n_items) < 0.9
        barrier = threading.Barrier(8)
        rows = [None] * 8
        before = engine_counters.get("artifact_members_verified")

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
        verified = engine_counters.get("artifact_members_verified") - before
        assert verified == len(ARENA_FIELDS)
        expected = _cell_reference(dataset, [query])[0]
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
    """The ladder dataset — every cell length ``1..70``, so the cumulative
    OR covers one new gene per sorted row — against the per-cell
    reference, under the default and a tiny word budget."""

    @pytest.mark.parametrize("arithmetization", ["min", "product"])
    @pytest.mark.parametrize("cell_budget", [None, 64])
    def test_fold_equals_reduceat(
        self, arithmetization, cell_budget, monkeypatch
    ):
        if cell_budget is not None:
            monkeypatch.setattr(fast_module, "_WORD_BUDGET", cell_budget)
        dataset = _ladder_dataset()
        queries = np.random.default_rng(113).random((3, dataset.n_items)) < 0.7
        queries[0] = True
        evaluator = FastBSTCEvaluator(dataset, arithmetization)
        rows = evaluator.classification_values_batch(queries)
        assert np.array_equal(rows, _single_rows(evaluator, queries))
        reference = _cell_reference(dataset, queries, arithmetization)
        if arithmetization == "min":
            assert np.array_equal(rows, reference)
        else:
            np.testing.assert_allclose(
                rows, reference, rtol=0, atol=ORACLE_TOLERANCE["product"]
            )

    @pytest.mark.parametrize("arithmetization", ["min", "product"])
    def test_small_budget_answers_unchanged(
        self, arithmetization, monkeypatch
    ):
        dataset = _ladder_dataset()
        queries = np.random.default_rng(127).random((5, dataset.n_items)) < 0.7
        expected = _reference_rows(dataset, arithmetization, queries)
        monkeypatch.setattr(fast_module, "_WORD_BUDGET", 64)
        rows = FastBSTCEvaluator(
            dataset, arithmetization
        ).classification_values_batch(queries)
        assert np.array_equal(rows, expected)
        _assert_matches_oracle(rows, dataset, arithmetization, queries)
