"""Property tests: the vectorized BSTCE engine equals the reference.

Under ``min`` each kernel value is a mean of correctly rounded float32
quotients of exact integer counts, so it sits within 2**-24 of the
oracle; ``product`` and ``mean`` also round inside float32 reductions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bst.table import build_all_bsts
from repro.core.bstce import bstce
from repro.core.fast import FastBSTCEvaluator
from repro.datasets.dataset import RelationalDataset


@st.composite
def relational_datasets(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    m = draw(st.integers(min_value=1, max_value=12))
    k = draw(st.integers(min_value=2, max_value=3))
    rows = [
        frozenset(
            j
            for j in range(m)
            if draw(st.booleans())
        )
        for _ in range(n)
    ]
    labels = [draw(st.integers(min_value=0, max_value=k - 1)) for _ in range(n)]
    ds = RelationalDataset(
        item_names=tuple(f"g{j}" for j in range(m)),
        class_names=tuple(f"c{i}" for i in range(k)),
        samples=tuple(rows),
        labels=tuple(labels),
    )
    query = frozenset(j for j in range(m) if draw(st.booleans()))
    return ds, query


class TestEngineEquivalence:
    @given(relational_datasets())
    @settings(max_examples=150, deadline=None)
    def test_fast_matches_reference_min(self, case):
        ds, query = case
        fast = FastBSTCEvaluator(ds, "min")
        bsts = build_all_bsts(ds)
        for class_id in range(ds.n_classes):
            expected = bstce(bsts[class_id], query, "min")
            actual = fast.class_value(class_id, query)
            assert actual == pytest.approx(expected, rel=0, abs=2.0**-24)

    @given(relational_datasets())
    @settings(max_examples=60, deadline=None)
    def test_fast_matches_reference_product_and_mean(self, case):
        ds, query = case
        for arith in ("product", "mean"):
            fast = FastBSTCEvaluator(ds, arith)
            bsts = build_all_bsts(ds)
            for class_id in range(ds.n_classes):
                expected = bstce(bsts[class_id], query, arith)
                actual = fast.class_value(class_id, query)
                assert actual == pytest.approx(expected, abs=1e-5)

    @given(relational_datasets())
    @settings(max_examples=100, deadline=None)
    def test_values_bounded(self, case):
        ds, query = case
        fast = FastBSTCEvaluator(ds, "min")
        values = fast.classification_values(query)
        assert ((values >= 0.0) & (values <= 1.0)).all()


class TestQueryHandling:
    def test_vector_query(self, example):
        fast = FastBSTCEvaluator(example)
        vec = np.zeros(example.n_items, dtype=bool)
        vec[[0, 3, 4]] = True
        assert fast.class_value(0, vec) == pytest.approx(0.75)

    def test_wrong_vector_shape_raises(self, example):
        fast = FastBSTCEvaluator(example)
        with pytest.raises(ValueError):
            fast.class_value(0, np.zeros(3, dtype=bool))

    def test_out_of_range_items_ignored(self, example):
        fast = FastBSTCEvaluator(example)
        assert fast.class_value(0, frozenset({0, 3, 4, 999})) == pytest.approx(
            0.75
        )

    def test_unknown_arithmetization_rejected(self, example):
        with pytest.raises(ValueError):
            FastBSTCEvaluator(example, "median")

    def test_single_class_dataset(self):
        """All samples one class: every cell is a black dot, value 1 for any
        overlapping query."""
        ds = RelationalDataset(
            item_names=("a", "b"),
            class_names=("only",),
            samples=(frozenset({0}), frozenset({0, 1})),
            labels=(0, 0),
        )
        fast = FastBSTCEvaluator(ds)
        assert fast.class_value(0, frozenset({0})) == 1.0
