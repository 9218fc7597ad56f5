"""Entropy-MDL discretization tests (Fayyad–Irani MDLP)."""

import functools
import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import discretize
from repro.datasets.dataset import DatasetError, ExpressionMatrix
from repro.datasets.discretize import (
    EntropyDiscretizer,
    GenePartition,
    class_entropy,
    mdlp_cut_points,
)
from repro.datasets.profiles import profile, scaled
from repro.datasets.splits import given_training_split
from repro.datasets.synthetic import generate_expression_data


class TestEntropy:
    def test_pure_is_zero(self):
        assert class_entropy(np.array([5, 0])) == 0.0

    def test_uniform_binary_is_one(self):
        assert class_entropy(np.array([4, 4])) == pytest.approx(1.0)

    def test_empty_is_zero(self):
        assert class_entropy(np.array([0, 0])) == 0.0


class TestMdlpCutPoints:
    def test_perfect_separation_one_cut(self):
        values = [1.0, 1.1, 1.2, 5.0, 5.1, 5.2]
        labels = [0, 0, 0, 1, 1, 1]
        cuts = mdlp_cut_points(values, labels, 2)
        assert len(cuts) == 1
        assert 1.2 < cuts[0] < 5.0

    def test_random_noise_no_cut(self):
        rng = np.random.default_rng(1)
        values = rng.random(40)
        labels = rng.integers(0, 2, 40)
        # Noise should essentially never pass the MDL criterion.
        assert mdlp_cut_points(values, labels.tolist(), 2) == []

    def test_constant_values_no_cut(self):
        assert mdlp_cut_points([3.0] * 10, [0, 1] * 5, 2) == []

    def test_three_way_separation_two_cuts(self):
        values = (
            [1.0 + 0.01 * i for i in range(8)]
            + [5.0 + 0.01 * i for i in range(8)]
            + [9.0 + 0.01 * i for i in range(8)]
        )
        labels = [0] * 8 + [1] * 8 + [2] * 8
        cuts = mdlp_cut_points(values, labels, 3)
        assert len(cuts) == 2

    def test_cuts_sorted(self):
        values = list(range(30))
        labels = [0] * 10 + [1] * 10 + [0] * 10
        cuts = mdlp_cut_points([float(v) for v in values], labels, 2)
        assert cuts == sorted(cuts)

    def test_single_sample(self):
        assert mdlp_cut_points([1.0], [0], 2) == []

    def test_threshold_between_adjacent_doubles(self):
        # The midpoint of two adjacent doubles rounds up to the larger one;
        # the cut must still separate them (it used to recurse forever).
        values = [0.6, 0.6000000000000001]
        assert mdlp_cut_points(values, [0, 1], 2) == [0.6]
        data = _matrix(np.array(values)[:, None], [0, 1])
        disc = EntropyDiscretizer().fit(data)
        assert disc.partitions[0].cuts == (0.6,)
        low, high = disc.transform(data).samples
        assert low != high


class TestGenePartition:
    def test_interval_of(self):
        part = GenePartition(0, "g", (1.0, 3.0))
        assert part.interval_of(0.5) == 0
        assert part.interval_of(1.0) == 0  # boundary stays low
        assert part.interval_of(2.0) == 1
        assert part.interval_of(10.0) == 2
        assert part.n_intervals == 3

    def test_interval_names(self):
        part = GenePartition(0, "g", (1.0,))
        assert part.interval_name(0) == "g@(-inf,1]"
        assert part.interval_name(1) == "g@(1,+inf]"


def _matrix(values, labels, names=None):
    values = np.asarray(values, dtype=float)
    names = names or tuple(f"g{i}" for i in range(values.shape[1]))
    return ExpressionMatrix(
        gene_names=tuple(names),
        values=values,
        labels=tuple(labels),
        class_names=("a", "b"),
    )


class TestEntropyDiscretizer:
    def test_informative_gene_kept_noise_dropped(self):
        rng = np.random.default_rng(2)
        n = 30
        labels = [0] * 15 + [1] * 15
        informative = np.concatenate([rng.normal(0, 1, 15), rng.normal(5, 1, 15)])
        noise = rng.normal(0, 1, n)
        data = _matrix(np.column_stack([informative, noise]), labels)
        disc = EntropyDiscretizer().fit(data)
        assert disc.n_kept_genes == 1
        assert disc.kept_gene_indices() == [0]
        assert disc.n_items == 2

    def test_transform_one_item_per_kept_gene(self):
        rng = np.random.default_rng(3)
        labels = [0] * 12 + [1] * 12
        cols = [
            np.concatenate([rng.normal(0, 1, 12), rng.normal(6, 1, 12)]),
            np.concatenate([rng.normal(3, 1, 12), rng.normal(-3, 1, 12)]),
        ]
        data = _matrix(np.column_stack(cols), labels)
        rel = EntropyDiscretizer().fit_transform(data)
        for sample in rel.samples:
            assert len(sample) == 2  # one interval item per kept gene

    def test_train_test_consistency(self):
        """A test sample equal to a training sample maps to the same items."""
        rng = np.random.default_rng(4)
        labels = [0] * 10 + [1] * 10
        col = np.concatenate([rng.normal(0, 1, 10), rng.normal(5, 1, 10)])
        data = _matrix(col[:, None], labels)
        disc = EntropyDiscretizer().fit(data)
        rel = disc.transform(data)
        again = disc.transform_values(data.values)
        assert list(rel.samples) == again

    def test_transform_before_fit_raises(self):
        disc = EntropyDiscretizer()
        with pytest.raises(RuntimeError):
            disc.transform_values(np.zeros((1, 2)))

    def test_labels_preserved(self):
        rng = np.random.default_rng(5)
        labels = [0] * 8 + [1] * 8
        col = np.concatenate([rng.normal(0, 0.5, 8), rng.normal(4, 0.5, 8)])
        data = _matrix(col[:, None], labels)
        rel = EntropyDiscretizer().fit_transform(data)
        assert rel.labels == tuple(labels)
        assert rel.class_names == ("a", "b")

    def test_labels_mapped_by_class_name(self):
        # The same rows with their classes numbered the other way round
        # keep their class names through transform.
        rng = np.random.default_rng(7)
        labels = [0] * 3 + [1] * 3
        values = np.concatenate([rng.normal(0, 0.1, 3), rng.normal(5, 0.1, 3)])
        fitted = ExpressionMatrix(
            gene_names=("g0",),
            values=values[:, None],
            labels=tuple(labels),
            class_names=("lo", "hi"),
        )
        disc = EntropyDiscretizer().fit(fitted)
        swapped = ExpressionMatrix(
            gene_names=("g0",),
            values=values[:, None],
            labels=tuple(1 - c for c in labels),
            class_names=("hi", "lo"),
        )
        rel = disc.transform(swapped)
        assert rel.class_names == ("lo", "hi")
        assert [rel.class_names[c] for c in rel.labels] == ["lo"] * 3 + ["hi"] * 3
        assert rel == disc.transform(fitted)

    def test_transform_rejects_unseen_class(self):
        rng = np.random.default_rng(8)
        labels = [0] * 4 + [1] * 4
        col = np.concatenate([rng.normal(0, 0.5, 4), rng.normal(4, 0.5, 4)])
        disc = EntropyDiscretizer().fit(_matrix(col[:, None], labels))
        other = ExpressionMatrix(
            gene_names=("g0",),
            values=col[:, None],
            labels=tuple([0] * 4 + [2] * 4),
            class_names=("a", "b", "mid"),
        )
        with pytest.raises(DatasetError, match="mid"):
            disc.transform(other)
        # A class of the vocabulary that labels no row is not an error.
        unused = ExpressionMatrix(
            gene_names=("g0",),
            values=col[:, None],
            labels=tuple(labels),
            class_names=("a", "b", "mid"),
        )
        assert disc.transform(unused) == disc.transform(
            _matrix(col[:, None], labels)
        )

    def test_item_names_carry_gene_and_interval(self):
        rng = np.random.default_rng(6)
        labels = [0] * 10 + [1] * 10
        col = np.concatenate([rng.normal(0, 1, 10), rng.normal(6, 1, 10)])
        data = _matrix(col[:, None], labels, names=("MYC",))
        disc = EntropyDiscretizer().fit(data)
        assert all(name.startswith("MYC@") for name in disc.item_names)

    def test_transform_rejects_wider_rows(self):
        disc = EntropyDiscretizer().fit(_separable(n_genes=2))
        for transform in (disc.transform_values, disc._transform_values_scalar):
            with pytest.raises(DatasetError, match="2 gene values.*got 3"):
                transform(np.zeros((4, 3)))

    def test_transform_rejects_narrower_rows(self):
        disc = EntropyDiscretizer().fit(_separable(n_genes=2))
        for transform in (disc.transform_values, disc._transform_values_scalar):
            with pytest.raises(DatasetError, match="2 gene values.*got 1"):
                transform(np.zeros(1))


def _separable(n_genes):
    labels = [0] * 6 + [1] * 6
    column = np.array([0.0] * 6 + [1.0] * 6)
    return _matrix(np.tile(column[:, None], (1, n_genes)), labels)


def _per_gene_cuts(values, labels, n_classes):
    """Reference: the per-gene MDLP recursion on every column."""
    return [
        tuple(mdlp_cut_points(values[:, j], labels, n_classes))
        for j in range(values.shape[1])
    ]


def _classed(values, labels, n_classes):
    return ExpressionMatrix(
        gene_names=tuple(f"g{j}" for j in range(values.shape[1])),
        values=values,
        labels=tuple(labels.tolist()),
        class_names=tuple(f"c{k}" for k in range(n_classes)),
    )


def _block_cuts(values, labels, n_classes):
    data = _classed(values, labels, n_classes)
    return _fitted_cuts(EntropyDiscretizer().fit(data), data.n_genes)


def _fitted_cuts(disc, n_genes):
    cuts = [()] * n_genes
    for part in disc.partitions:
        cuts[part.gene_index] = part.cuts
    return cuts


def _random_case(rng, n_genes):
    n = int(rng.integers(1, 81))
    n_classes = int(rng.integers(2, 5))
    labels = rng.integers(0, n_classes, n)
    if rng.random() < 0.15:
        labels[:] = rng.integers(0, n_classes)  # single-class labels
    # Class-shifted columns rounded to 0-2 decimals: informative genes with
    # heavy ties, so cuts land between tie groups at every depth.
    shift = rng.normal(0, 1.5, n_genes) * (rng.random(n_genes) < 0.6)
    values = rng.normal(0, 1, (n, n_genes)) + labels[:, None] * shift
    values = np.round(values, int(rng.integers(0, 3)))
    values[rng.random((n, n_genes)) < rng.choice([0.0, 0.1])] = np.nan
    values[:, rng.random(n_genes) < 0.1] = 2.5  # constant columns
    return values, labels, n_classes


class TestBlockKernelMatchesPerGene:
    """The block kernel behind ``fit`` against the per-gene recursion,
    compared with exact ``==`` on every cut tuple."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_matrices(self, seed, monkeypatch):
        # A 7-gene kernel block puts block edges inside every matrix.
        monkeypatch.setattr(discretize, "_GENE_BLOCK", 7)
        rng = np.random.default_rng(seed)
        for _ in range(25):
            values, labels, n_classes = _random_case(
                rng, int(rng.integers(1, 30))
            )
            assert _block_cuts(values, labels, n_classes) == _per_gene_cuts(
                values, labels, n_classes
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_label_runs(self, seed):
        # Classes in runs along the value axis nest several accepted cuts
        # per gene, with exact score ties below depth 0 where the first
        # minimum decides the cut.
        rng = np.random.default_rng(seed)
        for _ in range(10):
            n_classes = int(rng.integers(2, 4))
            runs = rng.integers(1, 8, 12)
            labels = np.repeat(rng.integers(0, n_classes, runs.size), runs)
            n = labels.size
            noise = rng.choice([0.1, 2.0, 5.0], 40)
            values = np.round(
                np.arange(n)[:, None] + rng.normal(0, 1, (n, 40)) * noise, 0
            )
            assert _block_cuts(values, labels, n_classes) == _per_gene_cuts(
                values, labels, n_classes
            )

    def test_first_minimum_below_depth_zero(self):
        # Inside (25.5, +inf) a cut just before the lone class-2 sample and
        # one just after it score the same; the lower one must win.
        labels = np.array(
            [1] * 11 + [2] * 10 + [1] * 5 + [0] * 7 + [2] + [1] * 7
        )
        values = np.arange(labels.size, dtype=np.float64)[:, None]
        expected = [(10.5, 20.5, 25.5, 32.5)]
        assert _per_gene_cuts(values, labels, 3) == expected
        assert _block_cuts(values, labels, 3) == expected

    def test_cuts_are_found(self):
        # Guards the differential test against comparing empty results.
        rng = np.random.default_rng(0)
        found = 0
        for _ in range(25):
            values, labels, n_classes = _random_case(rng, 20)
            found += sum(map(len, _per_gene_cuts(values, labels, n_classes)))
        assert found > 50

    def test_gene_count_not_a_multiple_of_block(self):
        rng = np.random.default_rng(1)
        n_genes = 2 * discretize._GENE_BLOCK + 3
        labels = rng.integers(0, 2, 24)
        values = np.round(rng.normal(size=(24, n_genes)) + labels[:, None], 1)
        cuts = _block_cuts(values, labels, 2)
        assert any(cuts)
        assert cuts == _per_gene_cuts(values, labels, 2)

    @pytest.mark.parametrize("name", ["ALL", "LC", "PC", "OC"])
    def test_scaled_profiles(self, name):
        prof = scaled(name)
        data = generate_expression_data(prof, seed=0)
        split = given_training_split(data.label_array, prof.given_training)
        train = data.subset(split.train_indices)
        args = (train.values, train.label_array, train.n_classes)
        cuts = _block_cuts(*args)
        assert any(cuts)
        assert cuts == _per_gene_cuts(*args)


class TestGeneMajorKernel:
    """The kernel's unstable sort, integer prefix counts and vectorised MDL
    test."""

    def test_mixed_class_tie_groups_across_three_blocks(self, monkeypatch):
        # Values rounded to a handful of levels make every tie group hold
        # several classes and NaNs, so the unstable sort reorders samples
        # inside ties that the cuts must not notice.
        monkeypatch.setattr(discretize, "_GENE_BLOCK", 16)
        rng = np.random.default_rng(23)
        n, n_genes, n_classes = 90, 40, 3
        labels = rng.integers(0, n_classes, n)
        shift = rng.normal(0, 1.2, n_genes)
        values = np.round(
            rng.normal(0, 1, (n, n_genes)) + labels[:, None] * shift, 0
        )
        values[rng.random((n, n_genes)) < 0.12] = np.nan
        cuts = _block_cuts(values, labels, n_classes)
        assert sum(map(len, cuts)) > 20
        assert cuts == _per_gene_cuts(values, labels, n_classes)

    def test_vectorised_mdl_test_matches_scalar(self):
        rng = np.random.default_rng(29)
        m = 2000
        size = rng.integers(2, 200, m)
        k = rng.integers(1, 5, m)
        k1 = rng.integers(1, 5, m)
        k2 = rng.integers(1, 5, m)
        parent = rng.random(m) * 2
        e_left = rng.random(m) * 2
        e_right = rng.random(m) * 2
        # Put each gain on the MDL bound and one ulp to either side, where
        # any change to the order of operations flips decisions.
        columns = (size, parent, e_left, e_right, k, k1, k2)
        bound = np.array(
            [
                (math.log2(n - 1) + math.log2(3**c - 2) - (c * p - a * el - b * er))
                / n
                for n, p, el, er, c, a, b in zip(*(x.tolist() for x in columns))
            ]
        )
        on_bound = parent - bound
        weighted = np.concatenate(
            [
                parent - rng.random(m) * 0.3,
                on_bound,
                np.nextafter(on_bound, np.inf),
                np.nextafter(on_bound, -np.inf),
            ]
        )
        args = [np.tile(x, 4) for x in (size, parent)]
        args += [weighted]
        args += [np.tile(x, 4) for x in (e_left, e_right, k, k1, k2)]
        got = discretize._mdl_accepts_all(*args)
        expected = [
            discretize._mdl_accepts(*row)
            for row in zip(*(a.tolist() for a in args))
        ]
        assert got.tolist() == expected
        assert 0 < got.sum() < got.size


@functools.lru_cache(maxsize=None)
def _given_training(name):
    """The full-size given-training split of ``name`` (data seed 0)."""
    prof = profile(name)
    data = generate_expression_data(prof, seed=0)
    split = given_training_split(data.label_array, prof.given_training, 0)
    return data.subset(split.train_indices)


class TestDepthZeroTable:
    """Depth 0 read from one table of left class-count vectors per fit,
    its dense fallback, and wall-clock-free pins of what it saves."""

    @pytest.mark.parametrize("name", ["PC", "ALL", "LEUK3"])
    def test_table_scores_equal_dense_bits(self, name):
        train = _given_training(name)
        labels, k = train.label_array, train.n_classes
        n = labels.size
        table = discretize._depth_zero(labels, k)
        assert table.weighted is not None
        # Dense scores of every (gene, position) of one block, from class
        # counts taken per column with a stable sort.
        block = train.values[:, : discretize._GENE_BLOCK]
        ranked = labels[np.argsort(block, axis=0, kind="mergesort")].T
        left = np.stack(
            [np.cumsum(ranked == c, axis=1)[:, :-1] for c in range(k)]
        )
        n_left = np.arange(1, n, dtype=np.float64)
        n_right = n - n_left
        e_left = discretize._side_entropy(left, n_left)
        e_right = discretize._side_entropy(
            table.totals[:, None, None] - left, n_right
        )
        weighted = (n_left * e_left + n_right * e_right) / n
        key = np.tensordot(table.strides, left, axes=1)
        for got, dense in [
            (table.weighted[key], weighted),
            (table.e_left[key], e_left),
            (table.e_right[key], e_right),
        ]:
            assert np.array_equal(got.view(np.int64), dense.view(np.int64))

    @pytest.mark.parametrize("name", ["PC", "ALL", "LEUK3", "absent"])
    def test_table_entropies_equal_class_entropy(self, name):
        # The deeper depths read every parent entropy from the table, so
        # each non-empty point must hold class_entropy's bits, as the
        # per-gene _best_cut computes it.
        if name == "absent":
            labels = np.random.default_rng(59).choice([0, 2], 70)
            k = 3
        else:
            train = _given_training(name)
            labels, k = train.label_array, train.n_classes
        table = discretize._depth_zero(labels, k)
        assert table.e_left is not None
        points = np.indices(table.totals + 1).reshape(k, -1)
        points = points[:, points.sum(axis=0) > 0]
        expected = np.array([class_entropy(v) for v in points.T])
        got = table.e_left[np.tensordot(table.strides, points, axes=1)]
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_forced_fallback_matches_per_gene(self):
        # 4 classes of 15: a box of 16**4 points, more than 59 * 512.
        rng = np.random.default_rng(43)
        labels = np.repeat(np.arange(4), 15)
        shift = rng.normal(0, 1.5, 30)
        values = np.round(
            rng.normal(0, 1, (60, 30)) + labels[:, None] * shift, 1
        )
        values[rng.random(values.shape) < 0.05] = np.nan
        assert discretize._depth_zero(labels, 4).weighted is None
        cuts = _block_cuts(values, labels, 4)
        assert sum(map(len, cuts)) > 10
        assert cuts == _per_gene_cuts(values, labels, 4)

    def test_constant_block_skips_mdl_test(self, monkeypatch):
        # The first 4-gene block is constant or all-NaN: no gene has a
        # candidate, and the MDL test must not see empty arrays.
        monkeypatch.setattr(discretize, "_GENE_BLOCK", 4)
        sizes = []
        real = discretize._mdl_accepts_all

        def recording(size, *args):
            sizes.append(size.size)
            return real(size, *args)

        monkeypatch.setattr(discretize, "_mdl_accepts_all", recording)
        labels = np.repeat([0, 1], 10)
        values = np.column_stack(
            [np.full(20, 1.0), np.full(20, -3.0), np.full(20, np.nan)]
            + [np.full(20, 7.0)]
            + [labels + 0.5, labels * 2.0]
        )
        cuts = _block_cuts(values, labels, 2)
        assert cuts == [(), (), (), (), (1.0,), (1.0,)]
        assert sizes and min(sizes) > 0

    @pytest.mark.parametrize("absent", [0, 1, 2])
    def test_class_absent_from_training_labels(self, absent):
        rng = np.random.default_rng(47 + absent)
        present = [c for c in range(3) if c != absent]
        labels = rng.choice(present, 50)
        shift = rng.normal(0, 1.5, 25)
        values = np.round(
            rng.normal(0, 1, (50, 25)) + labels[:, None] * shift, 1
        )
        table = discretize._depth_zero(labels, 3)
        assert table.totals[absent] == 0 and table.weighted is not None
        cuts = _block_cuts(values, labels, 3)
        assert sum(map(len, cuts)) > 5
        assert cuts == _per_gene_cuts(values, labels, 3)

    def test_table_built_once_per_fit(self, monkeypatch):
        monkeypatch.setattr(discretize, "_GENE_BLOCK", 8)
        built = []
        real = discretize._depth_zero

        def counting(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(discretize, "_depth_zero", counting)
        rng = np.random.default_rng(53)
        labels = np.repeat([0, 1, 2], 12)
        data = _classed(
            np.round(rng.normal(size=(36, 40)) + labels[:, None], 1), labels, 3
        )
        cold = EntropyDiscretizer().fit(data)
        assert len(built) == 1
        chunks = [data.subset(range(i, min(i + 10, 36))) for i in (0, 10, 20, 30)]
        streamed = EntropyDiscretizer().fit_streaming(
            lambda: iter(chunks), gene_block=8
        )
        assert len(built) == 2
        assert cold.n_kept_genes > 0
        assert streamed.partitions == cold.partitions

    def test_depth_zero_scoring_does_not_grow_with_genes(self, monkeypatch):
        # With a table every entropy of the fit is scored while the table
        # is built: no class-count vector is scored per gene, at depth 0 or
        # below, so the vectors scored do not grow with the genes.
        scored, outside, building = [], [], []
        real_side, real_table = (
            discretize._side_entropy,
            discretize._depth_zero,
        )

        def side(counts, sizes):
            (scored if building else outside).append(counts[0].size)
            return real_side(counts, sizes)

        def table(*args):
            building.append(True)
            try:
                return real_table(*args)
            finally:
                building.pop()

        monkeypatch.setattr(discretize, "_side_entropy", side)
        monkeypatch.setattr(discretize, "_depth_zero", table)
        train = _given_training("PC")
        assert EntropyDiscretizer().fit(train).n_kept_genes > 0
        once = sum(scored)
        scored.clear()
        doubled = np.concatenate([train.values, train.values], axis=1)
        EntropyDiscretizer().fit(_classed(doubled, train.label_array, 2))
        assert sum(scored) == once > 0
        assert outside == []

    def test_fit_peak_memory(self):
        train = _given_training("PC")
        tracemalloc.start()
        try:
            EntropyDiscretizer().fit(train)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * 2**20

    def test_transform_and_classifier_fit_peak_memory(self):
        # The transform scatters item codes into the dataset's bool matrix
        # and the classifier reads that matrix: no per-row item set is held
        # (they took ≈ 18.9 MiB here when they were the stored form).
        from repro.core.classifier import BSTClassifier
        from repro.core.fast import clear_evaluator_cache

        train = _given_training("PC")
        disc = EntropyDiscretizer().fit(train)
        clear_evaluator_cache()  # the fit must compile, not hit the cache
        tracemalloc.start()
        try:
            rel = disc.transform(train)
            BSTClassifier().fit(rel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            clear_evaluator_cache()
        assert "samples" not in rel.__dict__
        assert peak <= 3.0 * 2**20


def _record_batches(monkeypatch):
    """Patch stage 2 to record the width of every batch it runs on."""
    widths = []
    real = discretize._deeper_cuts

    def recording(batch, depth_zero):
        widths.append(batch.genes.size)
        return real(batch, depth_zero)

    monkeypatch.setattr(discretize, "_deeper_cuts", recording)
    return widths


class TestTwoStages:
    """Depth 0 per column block, the deeper depths per batch of kept genes
    gathered across blocks: wall-clock-free pins of the batch structure."""

    def test_pc_runs_one_deeper_pass_per_batch(self, monkeypatch):
        widths = _record_batches(monkeypatch)
        train = _given_training("PC")
        kept = EntropyDiscretizer().fit(train).n_kept_genes
        blocks = math.ceil(train.n_genes / discretize._GENE_BLOCK)
        assert len(widths) == math.ceil(kept / discretize._GENE_BLOCK)
        assert len(widths) < blocks == 25
        assert sum(widths) == kept
        assert widths[:-1] == [discretize._GENE_BLOCK] * (len(widths) - 1)

    def test_streaming_batches_stay_within_gene_block(self, monkeypatch):
        widths = _record_batches(monkeypatch)
        train = _given_training("PC")
        data = _classed(train.values[:, :600], train.label_array, 2)
        cold = EntropyDiscretizer().fit(data)
        assert widths == [cold.n_kept_genes]
        widths.clear()
        chunks = [
            data.subset(range(i, min(i + 25, data.n_samples)))
            for i in range(0, data.n_samples, 25)
        ]
        streamed = EntropyDiscretizer().fit_streaming(
            lambda: iter(chunks), gene_block=8
        )
        assert max(widths) <= 8 and sum(widths) == cold.n_kept_genes
        assert streamed.partitions == cold.partitions
        assert streamed.item_names == cold.item_names

    def test_pairs_chunked_within_a_depth(self, monkeypatch):
        # A depth's (range, candidate) pairs run in chunks of about
        # n · _GENE_BLOCK / 8 pairs, so one batch's ranges span passes.
        passes = []
        real = discretize._best_range_cuts

        def recording(prefix, distinct, gene, lo, hi, depth_zero):
            passes.append(int((hi - lo - 1).sum()))
            return real(prefix, distinct, gene, lo, hi, depth_zero)

        monkeypatch.setattr(discretize, "_best_range_cuts", recording)
        train = _given_training("PC")
        EntropyDiscretizer().fit(train)
        budget = train.n_samples * discretize._GENE_BLOCK // 8
        assert sum(passes) > 4 * budget
        assert max(passes) <= budget + train.n_samples


class TestRecordedCuts:
    """Cut points of the full-size Table 3 splits, recorded with the
    column-major, stable-sort kernel the gene-major one replaced: a sha256
    of ``repr([(gene_index, cuts), ...])`` pins every cut to the bit."""

    RECORDED = json.loads(
        (Path(__file__).with_name("data") / "discretize_cuts.json").read_text()
    )

    @pytest.mark.parametrize("name", ["PC", "ALL"])
    def test_given_training_split(self, name):
        prof = profile(name)
        data = generate_expression_data(prof, seed=0)
        split = given_training_split(data.label_array, prof.given_training, 0)
        disc = EntropyDiscretizer().fit(data.subset(split.train_indices))
        cuts = [(part.gene_index, part.cuts) for part in disc.partitions]
        recorded = self.RECORDED[name]
        assert disc.n_kept_genes == recorded["n_kept_genes"]
        assert disc.n_items == recorded["n_items"]
        assert hashlib.sha256(repr(cuts).encode()).hexdigest() == (
            recorded["sha256"]
        )


class TestTransformValues:
    """The vectorised ``transform_values`` against the per-row
    ``searchsorted`` reference."""

    @pytest.fixture(scope="class")
    def disc(self):
        # Gene 0 separates two groups (one cut), gene 1 three (two cuts),
        # gene 2 is noise and dropped.
        rng = np.random.default_rng(37)
        labels = [0] * 20 + [1] * 20 + [0] * 20
        one = np.repeat([0.0, 5.0, 0.0], 20) + rng.normal(0, 0.1, 60)
        two = np.repeat([0.0, 5.0, 9.0], 20) + rng.normal(0, 0.1, 60)
        noise = rng.normal(0, 1, 60)
        disc = EntropyDiscretizer().fit(
            _matrix(np.column_stack([one, two, noise]), labels)
        )
        assert [len(p.cuts) for p in disc.partitions] == [1, 2]
        return disc

    def test_edges_match_scalar_reference(self, disc):
        cut0 = disc.partitions[0].cuts[0]
        low, high = disc.partitions[1].cuts
        probe = np.array(
            [
                [np.nan, np.nan, 0.0],
                [np.inf, -np.inf, np.nan],
                [-np.inf, np.inf, np.inf],
                [cut0, low, 1.0],
                [cut0, high, -1.0],
                [np.nextafter(cut0, np.inf), np.nextafter(low, np.inf), 0.0],
                [cut0 - 1, (low + high) / 2, 0.0],
            ]
        )
        got = disc.transform_values(probe)
        assert got == disc._transform_values_scalar(probe)
        # NaN takes the last interval of its gene, as searchsorted does.
        assert got[0] == {1, 4}
        # A value on a cut stays in the lower interval.
        assert got[3] == {0, 2} and got[4] == {0, 3}

    def test_no_kept_genes(self):
        rng = np.random.default_rng(41)
        disc = EntropyDiscretizer().fit(
            _matrix(rng.normal(size=(20, 3)), [0, 1] * 10)
        )
        assert disc.n_kept_genes == 0
        probe = rng.normal(size=(4, 3))
        assert disc.transform_values(probe) == [frozenset()] * 4
        assert disc._transform_values_scalar(probe) == [frozenset()] * 4
