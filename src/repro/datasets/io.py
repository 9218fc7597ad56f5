"""Dataset file formats.

Two simple, inspectable formats:

* ``ExpressionMatrix`` ↔ tab-separated values: a header row of gene names,
  then one row per sample: ``sample_name<TAB>class_name<TAB>v1<TAB>v2...``.
  This matches the layout of the original SDMC distribution files.
* ``RelationalDataset`` ↔ JSON: explicit item/class vocabularies plus the
  expressed-item lists, for exchanging discretized data.

The TSV reader comes in two shapes sharing one parsing core,
:func:`_parse_tsv_block`, so every malformed-input path raises the *same*
:class:`DatasetError` message:

* :func:`load_expression_tsv` — the whole file as one matrix, read as
  packed float64 blocks of ``chunk_rows`` rows and joined.
* :func:`iter_expression_tsv` — a generator of fixed-size row blocks, the
  streaming entry point (see docs/STREAMING.md).  Each yielded chunk carries
  the *cumulative* class vocabulary, so labels are directly comparable
  across chunks and :func:`concat_expression_chunks` is lossless.

A block's values are parsed in one ``np.loadtxt`` call; the per-value
:func:`_parse_tsv_row` is the reference and runs only on a block that call
refuses, to raise the error or accept what Python's ``float`` accepts.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from itertools import islice
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, TextIO, Tuple, Union

import numpy as np

from .dataset import DatasetError, ExpressionMatrix, RelationalDataset

PathLike = Union[str, Path]

#: Default block height for the TSV readers.  Peak parse memory is
#: O(chunk_rows * n_genes); 256 rows keeps even a 10k-gene profile under
#: ~20 MB per block while amortizing per-chunk overhead.
DEFAULT_CHUNK_ROWS = 256


def save_expression_tsv(data: ExpressionMatrix, path: PathLike) -> None:
    """Write an expression matrix in the TSV interchange format."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        handle.write("sample\tclass\t" + "\t".join(data.gene_names) + "\n")
        for i in range(data.n_samples):
            name = (
                data.sample_names[i] if data.sample_names is not None else f"s{i}"
            )
            row_values = "\t".join(f"{v:.6g}" for v in data.values[i])
            handle.write(
                f"{name}\t{data.class_names[data.labels[i]]}\t{row_values}\n"
            )


def _parse_tsv_header(path: Path, handle: TextIO) -> Tuple[str, ...]:
    """Validate the header line and return the gene-name columns."""
    header = handle.readline().rstrip("\n").split("\t")
    if len(header) < 3 or header[0] != "sample" or header[1] != "class":
        raise DatasetError(f"{path}: not an expression TSV file")
    gene_names = tuple(header[2:])
    duplicates = [name for name, n in Counter(gene_names).items() if n > 1]
    if duplicates:
        raise DatasetError(
            f"{path}: duplicate gene name(s) in header: "
            + ", ".join(sorted(duplicates))
        )
    return gene_names


def _parse_tsv_row(
    path: Path, line_no: int, line: str, gene_names: Tuple[str, ...]
) -> Tuple[str, str, List[float]]:
    """Parse one data line into ``(sample_name, class_name, values)``."""
    parts = line.rstrip("\n").split("\t")
    if len(parts) != len(gene_names) + 2:
        raise DatasetError(
            f"{path}:{line_no}: expected {len(gene_names) + 2} fields,"
            f" found {len(parts)}"
        )
    row: List[float] = []
    for gene, text in zip(gene_names, parts[2:]):
        try:
            value = float(text)
        except ValueError as exc:
            raise DatasetError(
                f"{path}:{line_no}: gene {gene}: not a number: {text!r}"
            ) from exc
        if not math.isfinite(value):
            raise DatasetError(
                f"{path}:{line_no}: gene {gene}: non-finite value {text}"
            )
        row.append(value)
    return parts[0], parts[1], row


def _parse_tsv_block(
    path: Path, first_line_no: int, lines: List[str], gene_names: Tuple[str, ...]
) -> Tuple[List[str], List[str], np.ndarray]:
    """Parse a block of data lines into ``(sample_names, class_names, values)``.

    ``lines[k]`` is file line ``first_line_no + k``.  The framing is checked
    in Python (one tab count per line), then all values are parsed in one C
    pass by ``np.loadtxt``.  ``loadtxt`` alone would skip a blank line and
    ``usecols`` would drop extra fields, hence the explicit count; and
    ``comments=None`` keeps ``1.0#x`` an error rather than ``1.0``.  If any
    line is misframed, ``loadtxt`` refuses a token or returns another shape,
    or a value is not finite, the block is re-parsed by
    :func:`_parse_tsv_row`, which raises the first error in line order or
    returns the values of tokens that Python's ``float`` accepts and numpy's
    parser does not (``1_000``, non-ASCII digits).  Accepted inputs, values
    and messages are therefore exactly the row parser's.
    """
    n_genes = len(gene_names)
    values = None
    if all(line.count("\t") == n_genes + 1 for line in lines):
        try:
            values = np.loadtxt(
                lines,
                dtype=np.float64,
                delimiter="\t",
                usecols=range(2, n_genes + 2),
                comments=None,
                quotechar=None,
                ndmin=2,
            )
        except ValueError:
            pass
    if (
        values is None
        or values.shape != (len(lines), n_genes)
        or not np.isfinite(values).all()
    ):
        values = np.empty((len(lines), n_genes), dtype=np.float64)
        for k, line in enumerate(lines):
            values[k] = _parse_tsv_row(path, first_line_no + k, line, gene_names)[2]
    heads = [line.split("\t", 2) for line in lines]
    return [h[0] for h in heads], [h[1] for h in heads], values


def iter_expression_tsv(
    path: PathLike, chunk_rows: int = DEFAULT_CHUNK_ROWS
) -> Iterator[ExpressionMatrix]:
    """Stream an expression TSV as fixed-size row blocks.

    Yields :class:`ExpressionMatrix` chunks of at most ``chunk_rows``
    samples each (the final block may be ragged).  Peak memory is bounded by
    one block — O(chunk_rows × n_genes) — independent of file height.

    Every chunk carries the **cumulative** class vocabulary (classes in
    first-seen file order), so a label id means the same class in every
    chunk and blocks concatenate losslessly via
    :func:`concat_expression_chunks`.  Malformed input raises exactly the
    :class:`DatasetError` the whole-file loader would raise.
    """
    path = Path(path)
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
    with path.open("r", encoding="utf-8") as handle:
        gene_names = _parse_tsv_header(path, handle)
        class_index: Dict[str, int] = {}
        line_no = 2
        while True:
            lines = list(islice(handle, chunk_rows))
            if not lines:
                return
            sample_names, label_names, values = _parse_tsv_block(
                path, line_no, lines, gene_names
            )
            line_no += len(lines)
            labels = tuple(
                class_index.setdefault(name, len(class_index))
                for name in label_names
            )
            yield ExpressionMatrix(
                gene_names=gene_names,
                values=values,
                labels=labels,
                class_names=tuple(class_index),
                sample_names=tuple(sample_names),
            )


def concat_expression_chunks(
    chunks: Sequence[ExpressionMatrix],
) -> ExpressionMatrix:
    """Concatenate row blocks into one matrix.

    Chunks must agree on gene names.  Class vocabularies are merged in
    first-seen order and labels remapped, so the result of concatenating
    :func:`iter_expression_tsv` blocks is bit-identical to the whole-file
    :func:`load_expression_tsv` (the streaming reader's cumulative
    vocabularies make the remap the identity there).
    """
    if not chunks:
        raise DatasetError("no chunks to concatenate")
    gene_names = chunks[0].gene_names
    class_names: List[str] = []
    class_index = {}
    labels: List[int] = []
    sample_names: List[str] = []
    named = all(c.sample_names is not None for c in chunks)
    for chunk in chunks:
        if chunk.gene_names != gene_names:
            raise DatasetError(
                "chunk gene names disagree: cannot concatenate"
            )
        remap: List[int] = []
        for name in chunk.class_names:
            merged = class_index.get(name)
            if merged is None:
                merged = len(class_names)
                class_index[name] = merged
                class_names.append(name)
            remap.append(merged)
        labels.extend(remap[lab] for lab in chunk.labels)
        if named:
            sample_names.extend(chunk.sample_names)
    return ExpressionMatrix(
        gene_names=gene_names,
        values=np.concatenate([c.values for c in chunks], axis=0),
        labels=tuple(labels),
        class_names=tuple(class_names),
        sample_names=tuple(sample_names) if named else None,
    )


def load_expression_tsv(
    path: PathLike, chunk_rows: Optional[int] = None
) -> ExpressionMatrix:
    """Read an expression matrix written by :func:`save_expression_tsv`.

    Rows are parsed in blocks of ``chunk_rows`` (default
    :data:`DEFAULT_CHUNK_ROWS`), each packed straight into a float64 array
    by :func:`_parse_tsv_block`, so peak memory is the blocks plus the final
    array.  The result is bit-identical for every block height.
    """
    path = Path(path)
    chunks = list(
        iter_expression_tsv(
            path, DEFAULT_CHUNK_ROWS if chunk_rows is None else chunk_rows
        )
    )
    if not chunks:
        # Header-only file: a 1-D empty value array fails matrix validation.
        with path.open("r", encoding="utf-8") as handle:
            gene_names = _parse_tsv_header(path, handle)
        return ExpressionMatrix(
            gene_names=gene_names,
            values=np.asarray([], dtype=np.float64),
            labels=(),
            class_names=(),
            sample_names=(),
        )
    if len(chunks) == 1:
        return chunks[0]
    return concat_expression_chunks(chunks)


def save_relational_json(data: RelationalDataset, path: PathLike) -> None:
    """Write a discretized dataset as JSON."""
    payload = {
        "item_names": list(data.item_names),
        "class_names": list(data.class_names),
        "labels": list(data.labels),
        "samples": [np.flatnonzero(row).tolist() for row in data.bool_matrix],
        "sample_names": (
            list(data.sample_names) if data.sample_names is not None else None
        ),
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_relational_json(path: PathLike) -> RelationalDataset:
    """Read a dataset written by :func:`save_relational_json`.

    The item lists are scattered into the dataset's bool matrix in one pass
    (the :class:`RelationalDataset` constructor); no item set is built."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{path}: invalid JSON ({exc})") from exc
    try:
        item_names = tuple(payload["item_names"])
        samples = list(payload["samples"])
        labels = tuple(payload["labels"])
    except KeyError as exc:
        raise DatasetError(f"{path}: missing field {exc}") from exc
    except TypeError as exc:
        raise DatasetError(
            f"{path}: not a relational dataset object ({exc})"
        ) from exc
    duplicates = [name for name, n in Counter(item_names).items() if n > 1]
    if duplicates:
        raise DatasetError(
            f"{path}: duplicate item name(s): " + ", ".join(sorted(duplicates))
        )
    if len(samples) != len(labels):
        raise DatasetError(
            f"{path}: {len(samples)} samples but {len(labels)} labels"
        )
    try:
        return RelationalDataset(
            item_names=item_names,
            class_names=tuple(payload["class_names"]),
            samples=samples,
            labels=labels,
            sample_names=(
                tuple(payload["sample_names"])
                if payload.get("sample_names") is not None
                else None
            ),
        )
    except KeyError as exc:
        raise DatasetError(f"{path}: missing field {exc}") from exc
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from exc
