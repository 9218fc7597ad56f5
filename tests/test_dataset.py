"""Unit tests for the relational/continuous data models."""

import dataclasses
import functools
import pickle

import numpy as np
import pytest

from repro.datasets.dataset import (
    DatasetError,
    ExpressionMatrix,
    RelationalDataset,
    running_example,
)
from repro.datasets.discretize import EntropyDiscretizer
from repro.datasets.io import load_relational_json, save_relational_json
from repro.datasets.profiles import profile
from repro.datasets.splits import given_training_split
from repro.datasets.synthetic import generate_expression_data


class TestRunningExample:
    def test_shape(self, example):
        assert example.n_samples == 5
        assert example.n_items == 6
        assert example.n_classes == 2

    def test_class_membership(self, example):
        assert example.class_members(0) == (0, 1, 2)
        assert example.class_members(1) == (3, 4)

    def test_outside_members(self, example):
        assert example.outside_members(0) == (3, 4)

    def test_sample_contents_match_table1(self, example):
        names = example.item_names
        s1 = {names[i] for i in example.samples[0]}
        assert s1 == {"g1", "g2", "g3", "g5"}
        s5 = {names[i] for i in example.samples[4]}
        assert s5 == {"g3", "g4", "g5", "g6"}

    def test_class_sizes(self, example):
        assert example.class_sizes() == (3, 2)

    def test_majority_class(self, example):
        assert example.majority_class() == 0


class TestValidation:
    def test_label_count_mismatch(self):
        with pytest.raises(DatasetError):
            RelationalDataset(("a",), ("x",), (frozenset(),), (0, 0))

    def test_unknown_item(self):
        with pytest.raises(DatasetError):
            RelationalDataset(("a",), ("x",), (frozenset({5}),), (0,))

    def test_unknown_class(self):
        with pytest.raises(DatasetError):
            RelationalDataset(("a",), ("x",), (frozenset(),), (3,))

    def test_sample_names_length(self):
        with pytest.raises(DatasetError):
            RelationalDataset(
                ("a",), ("x",), (frozenset(),), (0,), sample_names=("s1", "s2")
            )


class TestBoolMatrix:
    def test_roundtrip(self, example):
        rebuilt = RelationalDataset.from_bool_matrix(
            example.bool_matrix,
            example.labels,
            item_names=example.item_names,
            class_names=example.class_names,
        )
        assert rebuilt.samples == example.samples

    def test_matrix_values(self, example):
        mat = example.bool_matrix
        assert mat.shape == (5, 6)
        assert mat[0, 0] and not mat[0, 3]  # s1 expresses g1, not g4

    def test_from_matrix_rejects_1d(self):
        with pytest.raises(DatasetError):
            RelationalDataset.from_bool_matrix(np.zeros(4), [0])


class TestSubset:
    def test_subset_keeps_order(self, example):
        sub = example.subset([2, 0])
        assert sub.labels == (0, 0)
        assert sub.samples[0] == example.samples[2]
        assert sub.sample_names == ("s3", "s1")

    def test_support_of_itemset(self, example):
        # g1, g3 -> cancer samples s1, s2 only (the Section 1 example rule).
        assert example.support_of_itemset({0, 2}) == {0, 1}


@functools.lru_cache(maxsize=None)
def _transformed(name):
    """The discretizer fitted on ``name``'s full-size given-training split
    (data seed 0), that split's raw rows and their transform."""
    prof = profile(name)
    data = generate_expression_data(prof, seed=0)
    split = given_training_split(data.label_array, prof.given_training, 0)
    train = data.subset(split.train_indices)
    disc = EntropyDiscretizer().fit(train)
    return disc, train, disc.transform(train)


def _cold(data):
    """``data`` rebuilt through the constructor from its item sets."""
    return RelationalDataset(
        data.item_names,
        data.class_names,
        data.samples,
        data.labels,
        data.sample_names,
    )


def _assert_same(got, cold):
    assert got == cold
    assert got.samples == cold.samples
    assert got.fingerprint == cold.fingerprint
    assert hash(got) == hash(cold)


class TestMatrixForm:
    """The bool matrix is the stored form; ``samples`` is derived from it,
    and every row operation equals a cold construction from item sets."""

    # Recorded while ``samples`` was the stored form: the fingerprint
    # hashes the matrix, so evaluator cache keys and artifact
    # fingerprints carry over unchanged.
    FINGERPRINTS = {
        "PC": "a48be27894e31c4b86f9333f20cf5682a7c6f67b",
        "ALL": "da5727521142984b02abb1ec76301fd44bd80bb5",
    }

    def test_running_example_fingerprint(self, example):
        assert example.fingerprint == "9e4081cf7453a280732334818e3136b7f6b4cd8a"

    @pytest.mark.parametrize("name", ["PC", "ALL"])
    def test_transformed_split_fingerprint(self, name):
        _, _, rel = _transformed(name)
        assert rel.fingerprint == self.FINGERPRINTS[name]

    @pytest.mark.parametrize("name", ["PC", "ALL"])
    def test_derived_samples_match_scalar_reference(self, name):
        disc, train, rel = _transformed(name)
        assert rel.samples == tuple(disc._transform_values_scalar(train.values))
        assert rel.samples is rel.samples  # derived once
        _assert_same(rel, _cold(rel))

    def test_matrix_and_labels_are_read_only(self, example):
        with pytest.raises(ValueError):
            example.bool_matrix[0, 0] = False
        with pytest.raises(ValueError):
            example.label_array[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            example.labels = ()

    def test_equality_sees_every_field(self, example):
        flipped = example.bool_matrix.copy()
        flipped[0, 5] = True
        assert example != RelationalDataset.from_bool_matrix(
            flipped, example.labels, example.item_names, example.class_names,
            example.sample_names,
        )
        assert example != RelationalDataset.from_bool_matrix(
            example.bool_matrix, (1, 0, 0, 1, 1), example.item_names,
            example.class_names, example.sample_names,
        )
        assert example != RelationalDataset.from_bool_matrix(
            example.bool_matrix, example.labels, example.item_names,
            example.class_names,
        )
        assert len({example, running_example(), _cold(example)}) == 1

    def test_pickle_round_trip(self, example):
        example.sample_rows  # a cached view travels along
        loaded = pickle.loads(pickle.dumps(example))
        _assert_same(loaded, example)

    def test_subset(self, example):
        sub = example.subset([4, 0, 2])
        _assert_same(sub, _cold(sub))
        assert sub.samples == tuple(example.samples[i] for i in (4, 0, 2))
        _assert_same(example.subset([]), _cold(example.subset([])))

    def test_from_bool_matrix_copies(self, example):
        matrix = example.bool_matrix.copy()
        built = RelationalDataset.from_bool_matrix(
            matrix, example.labels, example.item_names, example.class_names,
            example.sample_names,
        )
        _assert_same(built, example)
        matrix[:] = False
        assert built == example

    def test_from_bool_matrix_validates(self, example):
        with pytest.raises(DatasetError, match="5 samples but 4 labels"):
            RelationalDataset.from_bool_matrix(example.bool_matrix, (0,) * 4)
        with pytest.raises(DatasetError, match="unknown class id 2"):
            RelationalDataset.from_bool_matrix(
                example.bool_matrix, (0, 1, 2, 1, 0), class_names=("a", "b")
            )
        with pytest.raises(DatasetError, match="6 matrix columns but 2 items"):
            RelationalDataset.from_bool_matrix(
                example.bool_matrix, example.labels, item_names=("a", "b")
            )

    def test_constructor_rejects_non_integer_items(self):
        with pytest.raises(DatasetError, match="integers"):
            RelationalDataset(("a", "b"), ("x",), ({1.0},), (0,))
        with pytest.raises(DatasetError, match="collection"):
            RelationalDataset(("a",), ("x",), (5,), (0,))

    @pytest.mark.parametrize("name", ["running", "PC"])
    def test_relational_json_round_trip(self, name, tmp_path):
        data = running_example() if name == "running" else _transformed(name)[2]
        path = tmp_path / "rel.json"
        save_relational_json(data, path)
        loaded = load_relational_json(path)
        _assert_same(loaded, data)
        _assert_same(loaded, _cold(data))

    def test_append_samples(self, example):
        base = example.subset(range(3))
        grown = base.append_samples(
            example.samples[3:], example.labels[3:], example.sample_names[3:]
        )
        _assert_same(grown, example)

    def test_append_samples_to_transformed_dataset(self):
        disc, train, rel = _transformed("PC")
        base = rel.subset(range(90))
        base.sample_rows, base.item_columns, base.class_bits(0)
        # The appended rows arrive as the query form, not from the matrix.
        extra = disc.transform_values(train.values[90:])
        grown = base.append_samples(
            extra, rel.labels[90:], rel.sample_names[90:]
        )
        _assert_same(grown, rel)
        cold = _cold(rel)
        for view in ("sample_rows", "item_columns"):
            assert view in grown.__dict__  # extended, not rebuilt
            got, want = getattr(grown, view), getattr(cold, view)
            assert got.n_cols == want.n_cols
            assert np.array_equal(got.words, want.words)
        assert [grown.class_bits(c) for c in range(grown.n_classes)] == [
            cold.class_bits(c) for c in range(cold.n_classes)
        ]
        assert grown.fingerprint == self.FINGERPRINTS["PC"]

    def test_append_samples_rejects_unknown_item(self, example):
        with pytest.raises(DatasetError, match="sample 6 expresses unknown item 9"):
            example.append_samples([{0}, {9}], [0, 1])


class TestExpressionMatrix:
    def test_validation_rows(self):
        with pytest.raises(DatasetError):
            ExpressionMatrix(("g",), np.zeros((2, 1)), (0,), ("x",))

    def test_validation_columns(self):
        with pytest.raises(DatasetError):
            ExpressionMatrix(("g", "h"), np.zeros((1, 1)), (0,), ("x",))

    def test_subset_and_select(self):
        data = ExpressionMatrix(
            ("g0", "g1", "g2"),
            np.arange(12).reshape(4, 3).astype(float),
            (0, 0, 1, 1),
            ("a", "b"),
        )
        sub = data.subset([1, 3])
        assert sub.labels == (0, 1)
        assert sub.values[0, 0] == 3.0
        sel = data.select_genes([2, 0])
        assert sel.gene_names == ("g2", "g0")
        assert sel.values[0].tolist() == [2.0, 0.0]

    def test_class_helpers(self):
        data = ExpressionMatrix(
            ("g",), np.zeros((3, 1)), (0, 1, 1), ("a", "b")
        )
        assert data.class_sizes() == (1, 2)
        assert data.class_members(1) == (1, 2)
