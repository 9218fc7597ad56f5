"""Dataset I/O roundtrip tests."""

import numpy as np
import pytest

from repro.datasets.dataset import DatasetError, ExpressionMatrix
from repro.datasets.io import (
    load_expression_tsv,
    load_relational_json,
    save_expression_tsv,
    save_relational_json,
)


@pytest.fixture
def matrix():
    rng = np.random.default_rng(0)
    return ExpressionMatrix(
        gene_names=("g0", "g1", "g2"),
        values=rng.normal(size=(4, 3)),
        labels=(0, 0, 1, 1),
        class_names=("tumor", "normal"),
        sample_names=("a", "b", "c", "d"),
    )


class TestExpressionTsv:
    def test_roundtrip(self, matrix, tmp_path):
        path = tmp_path / "data.tsv"
        save_expression_tsv(matrix, path)
        loaded = load_expression_tsv(path)
        assert loaded.gene_names == matrix.gene_names
        assert loaded.labels == matrix.labels
        assert loaded.class_names == matrix.class_names
        assert loaded.sample_names == matrix.sample_names
        np.testing.assert_allclose(loaded.values, matrix.values, rtol=1e-5)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("nope\tnope\n")
        with pytest.raises(DatasetError):
            load_expression_tsv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.tsv"
        path.write_text("sample\tclass\tg0\ns1\ta\t1.0\t2.0\n")
        with pytest.raises(DatasetError):
            load_expression_tsv(path)

    def test_duplicate_gene_names_rejected(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("sample\tclass\tg0\tg1\tg0\ns1\ta\t1\t2\t3\n")
        with pytest.raises(DatasetError, match="duplicate gene name.*g0"):
            load_expression_tsv(path)

    def test_unparsable_value_names_row_and_gene(self, tmp_path):
        path = tmp_path / "text.tsv"
        path.write_text("sample\tclass\tg0\tg1\ns1\ta\t1.0\toops\n")
        with pytest.raises(DatasetError, match=r"text\.tsv:2: gene g1"):
            load_expression_tsv(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, bad, tmp_path):
        path = tmp_path / "nonfinite.tsv"
        path.write_text(f"sample\tclass\tg0\tg1\ns1\ta\t1.0\t{bad}\n")
        with pytest.raises(DatasetError, match=r"nonfinite\.tsv:2: gene g1"):
            load_expression_tsv(path)


class TestRelationalJson:
    def test_roundtrip(self, example, tmp_path):
        path = tmp_path / "rel.json"
        save_relational_json(example, path)
        loaded = load_relational_json(path)
        assert loaded == example

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DatasetError):
            load_relational_json(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text('{"item_names": []}')
        with pytest.raises(DatasetError):
            load_relational_json(path)

    def test_duplicate_item_names_rejected(self, tmp_path):
        path = tmp_path / "dupitems.json"
        path.write_text(
            '{"item_names": ["g1", "g1"], "class_names": ["a"],'
            ' "samples": [[0]], "labels": [0]}'
        )
        with pytest.raises(DatasetError, match="duplicate item name.*g1"):
            load_relational_json(path)

    def test_sample_label_count_mismatch(self, tmp_path):
        path = tmp_path / "mismatch.json"
        path.write_text(
            '{"item_names": ["g1"], "class_names": ["a"],'
            ' "samples": [[0], [0]], "labels": [0]}'
        )
        with pytest.raises(DatasetError, match="2 samples but 1 labels"):
            load_relational_json(path)

    def test_out_of_range_item_id_rejected(self, tmp_path):
        path = tmp_path / "range.json"
        path.write_text(
            '{"item_names": ["g1", "g2"], "class_names": ["a"],'
            ' "samples": [[0], [1, 2]], "labels": [0, 0]}'
        )
        with pytest.raises(
            DatasetError, match=r"range\.json: sample 1 expresses unknown item 2"
        ):
            load_relational_json(path)

    def test_non_list_samples_rejected(self, tmp_path):
        path = tmp_path / "shape.json"
        path.write_text(
            '{"item_names": ["g1"], "class_names": ["a"],'
            ' "samples": [0], "labels": [0]}'
        )
        with pytest.raises(DatasetError):
            load_relational_json(path)
