"""Property tests for the MDLP discretizer.

The key semantic invariant: MDLP operates on *order statistics* (entropy of
threshold splits), so the induced partition of the samples must be invariant
under any strictly increasing transform of a gene's values — even though the
numeric cut points move.

The properties run through :class:`EntropyDiscretizer`, i.e. the block
kernel that fits every gene of a block at once; ``test_matches_per_gene``
pins it to the per-gene :func:`mdlp_cut_points` recursion.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.dataset import ExpressionMatrix
from repro.datasets.discretize import EntropyDiscretizer, mdlp_cut_points


@st.composite
def labeled_values(draw):
    n = draw(st.integers(min_value=4, max_value=30))
    values = draw(
        st.lists(
            st.floats(
                min_value=-100, max_value=100, allow_nan=False, width=32
            ),
            min_size=n,
            max_size=n,
        )
    )
    labels = draw(
        st.lists(st.integers(min_value=0, max_value=1), min_size=n, max_size=n)
    )
    return values, labels


def batched_cuts(*columns, labels):
    """Cut points of each column, fitted together by the block kernel."""
    data = ExpressionMatrix(
        gene_names=tuple(f"g{j}" for j in range(len(columns))),
        values=np.column_stack(columns).astype(np.float64),
        labels=tuple(labels),
        class_names=("a", "b"),
    )
    cuts = [[] for _ in columns]
    for part in EntropyDiscretizer().fit(data).partitions:
        cuts[part.gene_index] = list(part.cuts)
    return cuts


def partition_of(values, cuts):
    return tuple(int(np.searchsorted(cuts, v, side="left")) for v in values)


class TestMdlpProperties:
    @given(labeled_values())
    @settings(max_examples=150, deadline=None)
    def test_cuts_strictly_inside_range(self, case):
        values, labels = case
        (cuts,) = batched_cuts(values, labels=labels)
        if cuts:
            assert min(values) < cuts[0]
            assert cuts[-1] < max(values)

    @given(labeled_values())
    @settings(max_examples=150, deadline=None)
    def test_cuts_sorted_and_distinct(self, case):
        values, labels = case
        (cuts,) = batched_cuts(values, labels=labels)
        assert cuts == sorted(cuts)
        assert len(cuts) == len(set(cuts))

    @given(labeled_values())
    @settings(max_examples=100, deadline=None)
    def test_partition_invariant_under_monotone_transform(self, case):
        values, labels = case
        transformed = [float(np.arctan(v / 50.0) * 10 + v * 0.001) for v in values]
        # Both columns share one kernel block.
        base_cuts, trans_cuts = batched_cuts(values, transformed, labels=labels)
        assert partition_of(values, base_cuts) == partition_of(
            transformed, trans_cuts
        )

    @given(labeled_values())
    @settings(max_examples=100, deadline=None)
    def test_pure_labels_never_cut(self, case):
        values, _ = case
        assert batched_cuts(values, labels=[0] * len(values)) == [[]]

    @given(labeled_values())
    @settings(max_examples=100, deadline=None)
    def test_deterministic(self, case):
        values, labels = case
        assert batched_cuts(values, labels=labels) == batched_cuts(
            values, labels=labels
        )

    @given(labeled_values())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_gene(self, case):
        values, labels = case
        assert batched_cuts(values, labels=labels) == [
            mdlp_cut_points(values, labels, 2)
        ]
