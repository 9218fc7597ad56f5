"""Dataset I/O roundtrip tests."""

import hashlib
import math

import numpy as np
import pytest

from repro.datasets.dataset import DatasetError, ExpressionMatrix
from repro.datasets.io import (
    load_expression_tsv,
    load_relational_json,
    save_expression_tsv,
    save_relational_json,
)
from repro.datasets.profiles import profile
from repro.datasets.synthetic import generate_expression_data

#: sha256 of the float64 bytes of the seeded PC profile read back from its
#: TSV, as the per-value ``float()`` row parser loaded it.
PC_VALUES_SHA256 = (
    "3e9d38808d74b884a04d2e49548342f3ff623690b2b80b2b8a6654c6a709953d"
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


@pytest.fixture(scope="module")
def pc_tsv(tmp_path_factory):
    path = tmp_path_factory.mktemp("pc") / "pc.tsv"
    save_expression_tsv(generate_expression_data(profile("PC"), seed=0), path)
    return path


@pytest.mark.parametrize("chunk_rows", [None, 7])
def test_pc_matrix_bit_identical(pc_tsv, chunk_rows):
    loaded = load_expression_tsv(pc_tsv, chunk_rows=chunk_rows)
    assert loaded.values.shape == (136, 12600)
    assert loaded.values.dtype == np.float64
    digest = hashlib.sha256(loaded.values.tobytes()).hexdigest()
    assert digest == PC_VALUES_SHA256


def _load_or_message(path, chunk_rows):
    try:
        return load_expression_tsv(path, chunk_rows=chunk_rows), None
    except DatasetError as exc:
        return None, str(exc)


class TestTokenParity:
    """The loader accepts exactly what Python's ``float`` accepts, with
    the same values, and rejects everything else with the row parser's
    message — whichever parser reads the block."""

    @pytest.mark.parametrize("chunk_rows", [None, 1])
    @pytest.mark.parametrize(
        "token",
        [" 1.5", "+2", "1_000", "\uff11\uff12", "1e400", "0x10", "", "1.0#x", "nan"],
    )
    def test_token_matches_float(self, token, chunk_rows, tmp_path):
        path = tmp_path / "tokens.tsv"
        path.write_text(
            f"sample\tclass\tg0\tg1\ns1\ta\t1.0\t{token}\ns2\tb\t{token}\t2\n",
            encoding="utf-8",
        )
        loaded, message = _load_or_message(path, chunk_rows)
        try:
            value = float(token)
        except ValueError:
            assert message == f"{path}:2: gene g1: not a number: {token!r}"
            return
        if not math.isfinite(value):
            assert message == f"{path}:2: gene g1: non-finite value {token}"
            return
        assert message is None
        expected = np.array([[1.0, value], [value, 2.0]])
        assert loaded.values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("chunk_rows", [None, 1])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("sample\tclass\tg0\r\ns1\ta\t1\r\ns2\tb\t2\r\n", None),
            (
                "sample\tclass\tg0\ns1\ta\t1\n\ns2\tb\t2\n",
                ":3: expected 3 fields, found 1",
            ),
            (
                "sample\tclass\tg0\ns1\ta\t1\n\n",
                ":3: expected 3 fields, found 1",
            ),
            (
                "sample\tclass\tg0\ns1\ta\t1\t\n",
                ":2: expected 3 fields, found 4",
            ),
        ],
        ids=["crlf", "blank-line-mid-file", "trailing-blank-line", "extra-tab"],
    )
    def test_framing(self, text, message, chunk_rows, tmp_path):
        path = tmp_path / "framing.tsv"
        path.write_bytes(text.encode("utf-8"))
        loaded, got = _load_or_message(path, chunk_rows)
        if message is None:
            assert got is None
            assert loaded.values.tolist() == [[1.0], [2.0]]
            assert loaded.sample_names == ("s1", "s2")
            assert loaded.class_names == ("a", "b")
        else:
            assert got == f"{path}{message}"

    def test_first_error_in_line_order(self, tmp_path):
        """A bad value reported before a later misframed line of the same
        block, as the row-by-row parser reports it."""
        path = tmp_path / "order.tsv"
        path.write_text("sample\tclass\tg0\ns1\ta\toops\ns2\tb\t1\t2\n")
        _, message = _load_or_message(path, None)
        assert message == f"{path}:2: gene g0: not a number: 'oops'"


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
