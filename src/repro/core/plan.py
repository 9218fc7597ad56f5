"""Ahead-of-time compiled evaluation plans: one structure-of-arrays arena.

The batched BSTCE kernel (:mod:`repro.core.fast`) evaluates from a single
flat **structure-of-arrays arena** compiled at fit/save time straight from
each class's inside and outside row blocks (:func:`compile_plan`):

* **Fused pair weights** — each ``(c, h)`` pair stores ``pair_len`` (the
  length of its shared exclusion list: ``|h - c|`` for the negated form,
  else the fallback ``|c - h|``; ``0`` marks the empty list) and
  ``pair_neg`` (which form was selected) — 5 bytes per pair, computed by
  one helper (:func:`_pair_weights`) shared by the cold compile and the
  delta recompile.  Every length is a small-integer float32 count (exact
  below 2**24), so the kernel's single rounding operation is the final
  ``sat / len`` division.
* **Downcast dtypes** — index arrays (CSR offsets, row ids, counts) store
  as int32 and pair lengths as float32 *when the ranges permit*, with
  explicit overflow guards: a value past :data:`INT32_MAX` /
  :data:`FLOAT32_EXACT_MAX` falls back to the wide dtype and increments
  ``plan_wide_index_fallbacks`` / ``plan_wide_float_fallbacks`` — never a
  silent wrap.
* **Serving-time culling** — under the ``min`` arithmetization the
  gene-major outside-row stream drops exact-duplicate outside rows
  (:func:`repro.bst.culling.duplicate_row_keep_mask`): duplicates carry
  identical pair values in every cell, and ``min`` is idempotent, so the
  culled segment reduction is bit-identical while skipping the dropped
  references entirely (``plan_culled_refs`` counts them).  The general
  Section 8 implication cull is *not* applied here — it changes quantized
  values — and ``product``/``mean`` plans keep the full stream.

Every per-class array is a **view** into one flat arena member per field,
so a model artifact stores one contiguous payload per field
(``arena_<field>``) plus a tiny int64 geometry table, and a memory-mapped
load rebuilds all views without copying a byte
(:func:`plan_from_arena`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..bst.culling import (
    duplicate_row_keep_mask,
    duplicate_row_keep_mask_blocks,
)
from ..evaluation.timing import engine_counters

__all__ = [
    "ARENA_FIELDS",
    "CellStream",
    "EvaluationPlan",
    "FLOAT32_EXACT_MAX",
    "INT32_MAX",
    "PlanClass",
    "address_dtype",
    "build_cell_stream",
    "compile_plan",
    "plan_from_arena",
    "recompile_delta",
]

#: Largest index an int32 arena can address; anything larger falls back to
#: int64 (counted under ``plan_wide_index_fallbacks``).
INT32_MAX = 2**31 - 1

#: Largest integer float32 represents exactly (2**24; 2**24 + 1 is the
#: first gap).  Pair-list lengths past it fall back to float64 (counted
#: under ``plan_wide_float_fallbacks``) instead of silently rounding.
FLOAT32_EXACT_MAX = 2**24

#: Every arena member, in storage order.  Dtypes: ``inside``/``outside``/
#: ``pair_neg``/``gene_mask``/``blackdot_mask`` are bool; ``inside_f``/
#: ``outside_f`` float32; ``pair_len`` the plan's weight dtype; the rest
#: the plan's index dtype.
ARENA_FIELDS: Tuple[str, ...] = (
    "inside",
    "outside",
    "inside_f",
    "outside_f",
    "pair_len",
    "pair_neg",
    "gene_mask",
    "outside_counts",
    "blackdot_mask",
    "h_flat",
    "h_offsets",
    "inside_rows",
    "inside_row_offsets",
)

#: ``geometry`` columns: per class ``(n_c, n_o, h_flat_len,
#: inside_rows_len)``; a row of zeros marks an absent class (no training
#: samples).  Every other member shape derives from these plus ``n_items``.
GEOMETRY_COLUMNS = 4


@dataclass
class PlanClass:
    """One class's slice of the arena — every arena array a view, never a
    copy — plus the kernel's query-independent per-class inputs, derived
    once from those views when the plan is built or loaded."""

    class_id: int
    inside: np.ndarray       # bool (n_c, n_items): rows of C_i
    outside: np.ndarray      # bool (n_o, n_items): rows of S - C_i
    inside_f: np.ndarray     # float32 matmul operand
    outside_f: np.ndarray    # float32 matmul operand
    pair_len: np.ndarray     # (n_c, n_o): selected list length, 0 = empty
    pair_neg: np.ndarray     # bool (n_c, n_o): negated form selected
    gene_mask: np.ndarray    # bool (n_items,): genes some inside row expresses
    outside_counts: np.ndarray  # (n_items,): culled outside rows per gene
    blackdot_mask: np.ndarray   # bool (n_items,)
    h_flat: np.ndarray       # (h_len,): culled outside-row ids, gene-major
    h_offsets: np.ndarray    # (n_items,): start of each gene in h_flat
    inside_rows: np.ndarray  # (ir_len,): inside rows per gene, gene-major
    inside_row_offsets: np.ndarray  # (n_items + 1,): CSR offsets
    has_outside: np.ndarray = field(init=False)  # bool (n_items,): counts > 0
    gene_rows: np.ndarray = field(init=False)    # int64 (n_items,): rows per gene
    stream_elems: int = field(init=False)        # the flat cell stream's elements

    def __post_init__(self) -> None:
        counts = np.asarray(self.outside_counts, dtype=np.int64)
        self.has_outside = counts > 0
        self.gene_rows = np.diff(
            np.asarray(self.inside_row_offsets, dtype=np.int64)
        )
        self.stream_elems = int(np.dot(self.gene_rows, counts))


@dataclass
class EvaluationPlan:
    """The compiled arena plus the per-class views over it."""

    n_items: int
    n_classes: int
    index_dtype: np.dtype
    weight_dtype: np.dtype
    culled_refs: int
    arena: Dict[str, np.ndarray]
    geometry: np.ndarray  # int64 (n_classes, GEOMETRY_COLUMNS)
    classes: List[Optional[PlanClass]] = field(default_factory=list)

    def hot_nbytes(self) -> int:
        """Bytes the batched kernel can touch per query block — the whole
        arena (every member is kernel-hot; there is no cold field)."""
        return sum(int(a.nbytes) for a in self.arena.values())


def _empty(dtype: np.dtype) -> np.ndarray:
    return np.zeros(0, dtype=dtype)


def _concat(pieces: List[np.ndarray], dtype: np.dtype) -> np.ndarray:
    if not pieces:
        return _empty(dtype)
    return np.concatenate([np.ascontiguousarray(p.ravel()) for p in pieces])


#: One class's compile output: ``(raw pieces, geometry row, max index,
#: max weight, culled refs)``, or ``None`` for a class without samples.
_RawClass = Tuple[
    Dict[str, np.ndarray], Tuple[int, int, int, int], int, float, int
]


def _pair_weights(
    inside_f: np.ndarray, outside_f: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(pair_len, pair_neg)`` for every (inside row ``c``, outside row
    ``h``) pair of two float32 row blocks.

    The pair's shared list is the negated ``h - c`` when that is non-empty,
    else the fallback ``c - h``: ``pair_neg`` records the form and
    ``pair_len`` its length (``0`` when both are empty).  One matmul gives
    ``|c ∩ h|``; every count is a small integer, exact in float32 under any
    summation order, so a grown dataset's blocks can be computed piecewise
    (:func:`recompile_delta`) and still match the cold compile byte for
    byte.
    """
    inter = inside_f @ outside_f.T                    # |c ∩ h|
    len_neg = outside_f.sum(axis=1)[None, :] - inter  # |h - c|
    pair_neg = len_neg > 0
    # |c - h| in place of the intersection, then the negated lengths
    # wherever that form was selected.
    pair_len = np.subtract(inside_f.sum(axis=1)[:, None], inter, out=inter)
    np.copyto(pair_len, len_neg, where=pair_neg)
    return pair_len, pair_neg


def _finish_class(
    raw: Dict[str, np.ndarray], n_c: int, n_o: int, culled_refs: int
) -> _RawClass:
    """Attach a class's geometry row and the ranges the dtype guards of
    :func:`_build_arena` check."""
    h_len, ir_len = int(raw["h_flat"].size), int(raw["inside_rows"].size)
    counts, pair_len = raw["outside_counts"], raw["pair_len"]
    max_index = max(
        n_c, n_o, h_len, ir_len, int(counts.max()) if counts.size else 0
    )
    max_weight = float(pair_len.max()) if pair_len.size else 0.0
    return raw, (n_c, n_o, h_len, ir_len), max_index, max_weight, culled_refs


def _raw_for_class(
    inside: np.ndarray,
    outside: np.ndarray,
    n_items: int,
    arithmetization: str,
) -> _RawClass:
    """One class's raw arena pieces, compiled from its inside and outside
    row blocks (the cold path; also a previously absent class's first
    samples in :func:`recompile_delta`)."""
    n_c, n_o = inside.shape[0], outside.shape[0]
    inside_f = inside.astype(np.float32)
    outside_f = outside.astype(np.float32)
    pair_len, pair_neg = _pair_weights(inside_f, outside_f)
    # Value-preserving duplicate cull (min only; see module docstring).
    if arithmetization == "min" and n_o:
        keep = duplicate_row_keep_mask(outside)
    else:
        keep = np.ones(n_o, dtype=bool)
    culled_outside = outside & keep[:, None]
    counts = culled_outside.sum(axis=0).astype(np.int64)
    gene_ids, h_ids = np.nonzero(culled_outside.T)
    del gene_ids  # np.nonzero order guarantees gene-major h_ids
    uncull_counts = outside.sum(axis=0).astype(np.int64)
    culled_refs = int(uncull_counts.sum()) - int(h_ids.size)
    h_offsets = np.zeros(n_items, dtype=np.int64)
    if n_items > 1:
        np.cumsum(counts[:-1], out=h_offsets[1:])
    gene_mask = inside.any(axis=0)
    ins_gene_ids, inside_rows = np.nonzero(inside.T)
    del ins_gene_ids
    inside_row_offsets = np.zeros(n_items + 1, dtype=np.int64)
    np.cumsum(inside.sum(axis=0), out=inside_row_offsets[1:])
    raw = {
        "inside": inside,
        "outside": outside,
        "inside_f": inside_f,
        "outside_f": outside_f,
        "pair_len": pair_len,
        "pair_neg": pair_neg,
        "gene_mask": gene_mask,
        "outside_counts": counts,
        "blackdot_mask": gene_mask & (uncull_counts == 0),
        "h_flat": h_ids.astype(np.int64),
        "h_offsets": h_offsets,
        "inside_rows": inside_rows.astype(np.int64),
        "inside_row_offsets": inside_row_offsets,
    }
    return _finish_class(raw, n_c, n_o, culled_refs)


def _gene_major_merge(
    old_flat: np.ndarray,
    old_counts: np.ndarray,
    new_flat: np.ndarray,
    new_counts: np.ndarray,
    n_items: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge two gene-major CSR id lists into one, per gene: old ids first
    (they are smaller — appended rows take the highest indices), then new.

    Returns ``(flat, counts, offsets)``: ``flat`` keeps ``old_flat``'s
    (possibly narrow) dtype unless the new ids outgrow it, and equals the
    list rebuilt from the stacked boolean blocks, at O(total entries) cost
    instead of an O(rows × genes) ``np.nonzero``: each new id is inserted
    at the end of its gene's old run.
    """
    counts = old_counts + new_counts
    offsets = np.zeros(n_items, dtype=np.int64)
    if n_items > 1:
        np.cumsum(counts[:-1], out=offsets[1:])
    if new_flat.size and new_flat.max() > np.iinfo(old_flat.dtype).max:
        old_flat = old_flat.astype(np.int64)
    old_ends = np.cumsum(old_counts)
    flat = np.insert(old_flat, np.repeat(old_ends, new_counts), new_flat)
    return flat, counts, offsets


def _raw_for_class_delta(
    base: PlanClass,
    new_inside: np.ndarray,
    new_outside: np.ndarray,
    n_items: int,
    arithmetization: str,
) -> _RawClass:
    """The delta counterpart of :func:`_raw_for_class`: rebuild one class's
    raw arena pieces from the base class views plus the appended row blocks.

    The base ``pair_len``/``pair_neg`` block is copied verbatim; only the
    ``old_c × new_h`` and ``new_c × all_h`` blocks run fresh matmuls.
    Appended rows take the highest indices, so the base per-gene CSR lists
    (culled outside ids, inside rows) are prefixes of the grown ones and
    merge in O(entries); only the appended blocks are scanned with
    ``np.nonzero``/``astype``, and the row-block fields are returned as
    ``(base view, new block)`` piece pairs so the stacked arrays are never
    materialized — :func:`_build_arena` copies each piece once, straight
    into the arena.  Byte-identical to :func:`_raw_for_class` over the
    stacked blocks (equivalence-gated in tests and bench_micro).

    The returned ``culled_refs`` is the *delta* contribution (references
    culled from the appended rows only); the caller adds the base plan's
    total, which the prefix-stable keep mask leaves unchanged.
    """
    n_c_old = int(base.inside.shape[0])
    n_o_old = int(base.outside.shape[0])
    n_c = n_c_old + int(new_inside.shape[0])
    n_o = n_o_old + int(new_outside.shape[0])
    new_inside_f = new_inside.astype(np.float32)
    new_outside_f = new_outside.astype(np.float32)
    pair_len = np.empty((n_c, n_o), dtype=np.float32)
    pair_neg = np.empty((n_c, n_o), dtype=bool)
    # Old block: verbatim reuse.  A float64 (wide) base arena holds exactly
    # the float32-computed source values upcast, so the round trip back to
    # float32 is lossless.
    pair_len[:n_c_old, :n_o_old] = base.pair_len
    pair_neg[:n_c_old, :n_o_old] = base.pair_neg
    # Fresh blocks, one GEMM per outside block so the stacked outside never
    # materializes.
    old_c, new_c = slice(None, n_c_old), slice(n_c_old, None)
    old_h, new_h = slice(None, n_o_old), slice(n_o_old, None)
    for rows, cols, inside_f, outside_f in (
        (old_c, new_h, base.inside_f, new_outside_f),
        (new_c, old_h, new_inside_f, base.outside_f),
        (new_c, new_h, new_inside_f, new_outside_f),
    ):
        pair_len[rows, cols], pair_neg[rows, cols] = _pair_weights(
            inside_f, outside_f
        )
    # The duplicate cull keeps first occurrences, so the grown keep mask
    # restricted to the old rows equals the base cull — which is what
    # makes reusing the base CSR lists below sound.  Only the new rows'
    # mask is needed; the old rows merely charge the seen-set.
    if arithmetization == "min" and n_o:
        keep_new = duplicate_row_keep_mask_blocks(
            (base.outside, new_outside)
        )[n_o_old:]
    else:
        keep_new = np.ones(new_outside.shape[0], dtype=bool)
    culled_new = new_outside & keep_new[:, None]
    counts_new = culled_new.sum(axis=0).astype(np.int64)
    gene_ids, h_new = np.nonzero(culled_new.T)
    del gene_ids
    h_flat, counts, h_offsets = _gene_major_merge(
        base.h_flat,
        base.outside_counts.astype(np.int64),
        h_new.astype(np.int64) + n_o_old,
        counts_new,
        n_items,
    )
    culled_refs = int(new_outside.sum()) - int(counts_new.sum())
    gene_mask = base.gene_mask | new_inside.any(axis=0)
    ins_gene_ids, ins_new = np.nonzero(new_inside.T)
    del ins_gene_ids
    old_ins_counts = np.diff(base.inside_row_offsets).astype(np.int64)
    new_ins_counts = new_inside.sum(axis=0).astype(np.int64)
    inside_rows, ins_counts, _ = _gene_major_merge(
        base.inside_rows,
        old_ins_counts,
        ins_new.astype(np.int64) + n_c_old,
        new_ins_counts,
        n_items,
    )
    inside_row_offsets = np.zeros(n_items + 1, dtype=np.int64)
    np.cumsum(ins_counts, out=inside_row_offsets[1:])
    # A gene's culled count is zero iff its uncull count is zero: every
    # culled row duplicates a kept row expressing the same genes, so the
    # cull never empties a gene's list — the blackdot test can read the
    # merged culled counts directly.
    raw = {
        "inside": (base.inside, new_inside),
        "outside": (base.outside, new_outside),
        "inside_f": (base.inside_f, new_inside_f),
        "outside_f": (base.outside_f, new_outside_f),
        "pair_len": pair_len,
        "pair_neg": pair_neg,
        "gene_mask": gene_mask,
        "outside_counts": counts,
        "blackdot_mask": gene_mask & (counts == 0),
        "h_flat": h_flat,
        "h_offsets": h_offsets,
        "inside_rows": inside_rows,
        "inside_row_offsets": inside_row_offsets,
    }
    return _finish_class(raw, n_c, n_o, culled_refs)


def _build_arena(
    classes: Sequence[Optional[_RawClass]],
    n_items: int,
    culled_refs: int = 0,
) -> EvaluationPlan:
    """Geometry, dtype guards and per-field concatenation: the shared
    arena-assembly tail of the cold compile and the delta recompile.
    ``culled_refs`` seeds the total with references culled before this
    compile (the base plan's, on a delta recompile)."""
    geometry = np.zeros((len(classes), GEOMETRY_COLUMNS), dtype=np.int64)
    raw: List[Dict[str, np.ndarray]] = []
    max_index = 0
    max_weight = 0.0
    for class_id, compiled in enumerate(classes):
        if compiled is None:
            continue
        pieces, geometry_row, cls_index, cls_weight, cls_culled = compiled
        geometry[class_id] = geometry_row
        max_index = max(max_index, cls_index)
        max_weight = max(max_weight, cls_weight)
        culled_refs += cls_culled
        raw.append(pieces)
    # Overflow guards: downcast only when the observed ranges permit.
    if max_index <= INT32_MAX:
        index_dtype = np.dtype(np.int32)
    else:
        index_dtype = np.dtype(np.int64)
        engine_counters.increment("plan_wide_index_fallbacks")
    if max_weight <= FLOAT32_EXACT_MAX:
        weight_dtype = np.dtype(np.float32)
    else:
        weight_dtype = np.dtype(np.float64)
        engine_counters.increment("plan_wide_float_fallbacks")
    index_fields = (
        "outside_counts", "h_flat", "h_offsets",
        "inside_rows", "inside_row_offsets",
    )
    arena: Dict[str, np.ndarray] = {}
    for name in ARENA_FIELDS:
        # The delta path hands row-block fields over as (base, new) piece
        # tuples so the stacked array is never built twice: flattened
        # here, each block is copied exactly once — into the arena.
        pieces = []
        for r in raw:
            value = r[name]
            if isinstance(value, tuple):
                pieces.extend(value)
            else:
                pieces.append(value)
        if name in index_fields:
            dtype = index_dtype
            pieces = [p.astype(dtype, copy=False) for p in pieces]
        elif name == "pair_len":
            dtype = weight_dtype
            pieces = [p.astype(dtype, copy=False) for p in pieces]
        elif name in ("inside_f", "outside_f"):
            dtype = np.dtype(np.float32)
        else:
            dtype = np.dtype(bool)
        arena[name] = _concat(pieces, dtype)
    engine_counters.increment("plan_compiles")
    if culled_refs:
        engine_counters.increment("plan_culled_refs", culled_refs)
    return plan_from_arena(
        arena, geometry, n_items, culled_refs=culled_refs
    )


def compile_plan(dataset, arithmetization: str = "min") -> EvaluationPlan:
    """Compile a dataset's evaluation plan straight from each class's
    inside and outside row blocks.

    ``dataset`` needs ``bool_matrix``, ``label_array`` and ``n_classes``
    (a :class:`~repro.datasets.dataset.RelationalDataset`).  A class
    without training samples gets a zero geometry row and no views.
    Deterministic: the same dataset always compiles to a byte-identical
    arena, and so does :func:`recompile_delta` over an append-only growth.
    """
    matrix = dataset.bool_matrix
    labels = dataset.label_array
    n_items = int(matrix.shape[1])
    classes: List[Optional[_RawClass]] = []
    for class_id in range(dataset.n_classes):
        member_mask = labels == class_id
        if not member_mask.any():
            classes.append(None)
            continue
        classes.append(
            _raw_for_class(
                matrix[member_mask], matrix[~member_mask], n_items,
                arithmetization,
            )
        )
    return _build_arena(classes, n_items)


def recompile_delta(
    base_plan: EvaluationPlan,
    dataset,
    base_n_samples: int,
    arithmetization: str = "min",
) -> EvaluationPlan:
    """Recompile a plan for ``dataset`` — the base plan's training data
    plus rows appended at the end — reusing the base arena's pair weights.

    The pair values for an old ``(c, h)`` pair depend only on the two
    rows' contents, never on dataset size, so the base plan's
    ``pair_len``/``pair_neg`` blocks are copied verbatim; only the
    ``old_c × new_h`` and ``new_c × all_h`` blocks run fresh matmuls.
    The dominant cost drops from O(n² × genes) to O(n × Δ × genes) for a
    Δ-row append, and the result is **byte-identical** to
    :func:`compile_plan` over the grown
    dataset (equivalence-gated in tests and ``bench_micro``): appended
    rows take the highest indices, so class member order, outside order,
    gene-major CSR order, and the duplicate-cull keep mask of old rows
    are all stable.

    ``dataset`` must extend the base plan's training data append-only —
    the first ``base_n_samples`` rows and the class vocabulary unchanged
    (what :meth:`RelationalDataset.append_samples` produces).  Both
    geometry and row *contents* are validated against the base arena's
    stored blocks (``ValueError`` on any mismatch), so a reordered or
    edited dataset cannot silently inherit the base weights.  A class
    absent from the base plan that gains its first samples is built cold
    — its matmul is already delta-sized.
    """
    matrix = dataset.bool_matrix
    labels = dataset.label_array
    n_items = int(matrix.shape[1])
    n_samples = int(matrix.shape[0])
    old_n = int(base_n_samples)
    if n_items != base_plan.n_items:
        raise ValueError(
            f"dataset has {n_items} items, base plan {base_plan.n_items}"
        )
    if dataset.n_classes != base_plan.n_classes:
        raise ValueError(
            f"dataset has {dataset.n_classes} classes, base plan"
            f" {base_plan.n_classes}"
        )
    if not 0 <= old_n <= n_samples:
        raise ValueError(
            f"base_n_samples {old_n} outside [0, {n_samples}]"
        )
    old_labels = labels[:old_n]
    new_rows = matrix[old_n:]
    new_labels = labels[old_n:]
    classes: List[Optional[_RawClass]] = []
    for class_id in range(base_plan.n_classes):
        pc = base_plan.classes[class_id]
        member_mask = new_labels == class_id
        new_inside = new_rows[member_mask]
        new_outside = new_rows[~member_mask]
        if pc is None:
            if (old_labels == class_id).any():
                raise ValueError(
                    f"class {class_id}: absent from the base plan but"
                    f" present in the first {old_n} dataset rows — dataset"
                    " is not an append-only extension of the plan's"
                    " training data"
                )
            if new_inside.shape[0] == 0:
                classes.append(None)
                continue
            # First samples of a previously-absent class: a cold build,
            # whose (Δ_c × genes) @ (genes × n_o) matmul is delta-sized.
            # It reports its full culled count (the base plan charged it 0).
            classes.append(
                _raw_for_class(
                    new_inside, matrix[labels != class_id], n_items,
                    arithmetization,
                )
            )
            continue
        n_c_old = int(pc.inside.shape[0])
        n_o_old = int(pc.outside.shape[0])
        if (
            n_c_old != int((old_labels == class_id).sum())
            or n_o_old != old_n - n_c_old
        ):
            raise ValueError(
                f"class {class_id}: base plan geometry does not match"
                f" the first {old_n} rows of the dataset"
            )
        # Content check: every class's stored member rows must equal the
        # dataset's prefix members verbatim (which, across all classes,
        # pins every old row and label — the outside blocks follow).  One
        # O(old rows × genes) memcmp-speed pass; without it a reordered or
        # edited dataset would silently inherit the base arena's weights.
        if not np.array_equal(
            pc.inside, matrix[:old_n][old_labels == class_id]
        ):
            raise ValueError(
                f"class {class_id}: the first {old_n} dataset rows do"
                " not reproduce the base plan's training rows — dataset"
                " is not an append-only extension of the plan's"
                " training data"
            )
        # Delta classes report only the references culled from their
        # appended rows; the prefix-stable cull leaves the base
        # contribution intact.
        classes.append(
            _raw_for_class_delta(
                pc, new_inside, new_outside, n_items, arithmetization
            )
        )
    engine_counters.increment("plan_delta_recompiles")
    return _build_arena(classes, n_items, base_plan.culled_refs)


def _field_size(name: str, n_c: int, n_o: int, h_len: int, ir_len: int,
                n_items: int) -> int:
    if name in ("inside", "inside_f"):
        return n_c * n_items
    if name in ("outside", "outside_f"):
        return n_o * n_items
    if name in ("pair_len", "pair_neg"):
        return n_c * n_o
    if name in ("gene_mask", "outside_counts", "blackdot_mask", "h_offsets"):
        return n_items
    if name == "h_flat":
        return h_len
    if name == "inside_rows":
        return ir_len
    if name == "inside_row_offsets":
        return n_items + 1
    raise KeyError(name)


def _field_shape(name: str, n_c: int, n_o: int, n_items: int
                 ) -> Optional[Tuple[int, int]]:
    if name in ("inside", "inside_f"):
        return (n_c, n_items)
    if name in ("outside", "outside_f"):
        return (n_o, n_items)
    if name in ("pair_len", "pair_neg"):
        return (n_c, n_o)
    return None  # already flat


def plan_from_arena(
    arena: Dict[str, np.ndarray],
    geometry: np.ndarray,
    n_items: int,
    *,
    culled_refs: int = 0,
) -> EvaluationPlan:
    """Rebuild the per-class views over a (possibly memory-mapped) arena.

    The inverse of the flattening in :func:`compile_plan` and
    the zero-copy load path behind artifact format v2: every
    :class:`PlanClass` array is a plain ``ndarray`` slice of the
    corresponding arena member, so a memory-mapped member is read in place
    by the kernels without a copy (``plan.arena`` keeps the maps).

    Raises :class:`ValueError` when the arena member lengths disagree with
    the geometry table — the artifact loader wraps that into a structured
    ``ArtifactError``.
    """
    geometry = np.asarray(geometry, dtype=np.int64)
    if geometry.ndim != 2 or geometry.shape[1] != GEOMETRY_COLUMNS:
        raise ValueError(
            f"plan geometry must be (n_classes, {GEOMETRY_COLUMNS}),"
            f" got {tuple(geometry.shape)}"
        )
    if (geometry < 0).any():
        raise ValueError("plan geometry entries must be non-negative")
    missing = [name for name in ARENA_FIELDS if name not in arena]
    if missing:
        raise ValueError(f"plan arena is missing members: {missing}")
    n_classes = geometry.shape[0]
    totals = {name: 0 for name in ARENA_FIELDS}
    for class_id in range(n_classes):
        n_c, n_o, h_len, ir_len = (int(v) for v in geometry[class_id])
        if n_c == 0:
            continue
        for name in ARENA_FIELDS:
            totals[name] += _field_size(name, n_c, n_o, h_len, ir_len,
                                        n_items)
    for name in ARENA_FIELDS:
        if int(arena[name].size) != totals[name]:
            raise ValueError(
                f"plan arena member {name!r} holds {int(arena[name].size)}"
                f" elements, geometry requires {totals[name]}"
            )
    # Plain ndarray views: still zero-copy over a memory-mapped member, but
    # the kernels index them without going through ``memmap.__getitem__``.
    plain = {name: arena[name].view(np.ndarray) for name in ARENA_FIELDS}
    offsets = {name: 0 for name in ARENA_FIELDS}
    classes: List[Optional[PlanClass]] = []
    for class_id in range(n_classes):
        n_c, n_o, h_len, ir_len = (int(v) for v in geometry[class_id])
        if n_c == 0:
            classes.append(None)
            continue
        views: Dict[str, np.ndarray] = {}
        for name in ARENA_FIELDS:
            size = _field_size(name, n_c, n_o, h_len, ir_len, n_items)
            flat = plain[name][offsets[name]:offsets[name] + size]
            offsets[name] += size
            shape = _field_shape(name, n_c, n_o, n_items)
            views[name] = flat if shape is None else flat.reshape(shape)
        classes.append(PlanClass(class_id=class_id, **views))
    return EvaluationPlan(
        n_items=n_items,
        n_classes=n_classes,
        index_dtype=arena["h_flat"].dtype,
        weight_dtype=arena["pair_len"].dtype,
        culled_refs=culled_refs,
        arena=arena,
        geometry=geometry,
        classes=classes,
    )


@dataclass(frozen=True)
class CellStream:
    """One class's query-independent cell stream, derived from its plan
    views (:func:`build_cell_stream`).

    A *cell* is a non-blank, non-black-dot ``(gene, inside row)`` pair;
    cells run gene-major (ascending gene, then the ``inside_rows`` order),
    and that *stream order* is the order their values are summed in.  Each
    cell's *elements* are the flat pair-value addresses ``cell_row·n_o + h``
    over the outside rows ``h`` expressing its gene, in the plan's (culled)
    ``h_flat`` order, so a query's cell values are gathers from its
    ``(n_c·n_o)`` pair values plus a reduction per cell.  A stream carries
    exactly one element layout, the one its arithmetization reduces over:

    * **folded** (``min``, ``product``): cells grouped into buckets by
      length rounded up to a power of two, each bucket laid out
      element-major as an ``(L, n_cells_L)`` address block, so one
      ``take`` and one ``reduce(axis=1)`` value a whole bucket.  A cell
      shorter than its bucket is padded with its own last element under
      ``min`` (idempotent) and with the identity sentinel address
      ``n_c·n_o`` (a pair-value slot holding ``1.0``) under ``product``.
      One precomputed permutation, ``restore``, puts the buckets' values
      back in stream order.
    * **flat** (``mean``): the cells' elements back to back in stream
      order, reduced with ``np.add.reduceat`` at ``cell_start``.

    Never stored in an artifact: an evaluator builds it from the plan the
    first time a block of queries takes the kernel's whole-stream method
    for the class.
    """

    cell_gene: np.ndarray   # int32 (n_cells,)
    cell_row: np.ndarray    # intp (n_cells,): each cell's bin in a query
    elem: np.ndarray        # address_dtype(n_c, n_o): the layout's addresses
    #: Flat layout only: first element and element count of each cell.
    cell_start: Optional[np.ndarray] = None
    cell_len: Optional[np.ndarray] = None
    #: Folded layout only: each bucket's ``(L, n)`` address block, by
    #: ascending ``L`` (views into ``elem``), and the permutation that
    #: takes the buckets' cells, back to back, to stream order.
    buckets: Tuple[np.ndarray, ...] = ()
    restore: Optional[np.ndarray] = None

    @property
    def n_elems(self) -> int:
        """Addresses in the layout, padding included."""
        return int(self.elem.size)

    @property
    def folded(self) -> bool:
        return self.cell_start is None


#: Arithmetizations whose cell reduction is a sequential left fold that an
#: element-major ``reduce(axis=1)`` reproduces bit for bit; ``mean`` sums
#: pairwise inside ``np.add.reduceat`` and keeps the flat layout.
_FOLDED_ARITHMETIZATIONS = ("min", "product")


def address_dtype(n_c: int, n_o: int) -> np.dtype:
    """Dtype of a flat ``row·n_o + h`` pair-value address: int32 unless
    the ``n_c·n_o`` slots plus the identity sentinel after them pass
    :data:`INT32_MAX`."""
    return np.dtype(np.int32 if n_c * n_o <= INT32_MAX else np.int64)


def _offsets(lengths: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums: where each of ``lengths``' runs starts."""
    starts = np.cumsum(lengths)
    starts -= lengths
    return starts


def _bucket_widths(cell_len: np.ndarray) -> np.ndarray:
    """Each cell length rounded up to a power of two (``1`` stays ``1``):
    the folded layout's bucket of that cell, padding it by less than its
    own length."""
    exponents = np.frexp(np.asarray(cell_len, dtype=np.int64) - 1)[1]
    return np.left_shift(1, exponents.astype(np.int64))


def build_cell_stream(pc: PlanClass, arithmetization: str = "min") -> CellStream:
    """Derive one class's :class:`CellStream` from its plan views, in one
    vectorised pass plus one gather per bucket, in the layout
    ``arithmetization`` reduces over.  Counted under
    ``plan_stream_builds``."""
    n_items = int(pc.gene_mask.size)
    n_c, n_o = int(pc.inside.shape[0]), int(pc.outside.shape[0])
    counts = np.asarray(pc.outside_counts, dtype=np.int64)
    entry_gene = np.repeat(np.arange(n_items, dtype=np.int64), pc.gene_rows)
    # Black-dot genes (no outside row) have no elements: they are valued
    # by the kernel's black-dot matmul, not by the stream.
    keep = counts[entry_gene] > 0
    cell_gene = entry_gene[keep]
    cell_row = np.asarray(pc.inside_rows)[keep].astype(np.intp)
    cell_len = counts[cell_gene]
    cell_start = _offsets(cell_len)
    # Element e of a cell reads h_flat at its gene's offset plus e's place
    # in the cell.
    h_base = np.asarray(pc.h_offsets, dtype=np.int64)[cell_gene] - cell_start
    pos = np.arange(int(cell_len.sum()), dtype=np.int64)
    pos += np.repeat(h_base, cell_len)
    elem = np.repeat(cell_row * n_o, cell_len)
    elem += np.asarray(pc.h_flat)[pos]
    elem = elem.astype(address_dtype(n_c, n_o), copy=False)
    engine_counters.increment("plan_stream_builds")
    cells = dict(cell_gene=cell_gene.astype(np.int32), cell_row=cell_row)
    if arithmetization not in _FOLDED_ARITHMETIZATIONS:
        return CellStream(
            elem=elem, cell_start=cell_start, cell_len=cell_len, **cells
        )
    width = _bucket_widths(cell_len)
    order = np.argsort(width, kind="stable")
    widths, firsts = np.unique(width[order], return_index=True)
    counts_per_bucket = np.diff(np.append(firsts, order.size))
    folded = np.empty(int(np.dot(widths, counts_per_bucket)), elem.dtype)
    buckets: List[np.ndarray] = []
    offset = 0
    for w, lo, n in zip(
        widths.tolist(), firsts.tolist(), counts_per_bucket.tolist()
    ):
        members = order[lo:lo + n]
        lens = cell_len[members]
        step = np.arange(w, dtype=np.int64)[:, None]
        # Element-major: row j holds every cell's j-th element; past a
        # cell's end, its last element again (min) or the sentinel.
        block = folded[offset:offset + w * n].reshape(w, n)
        np.take(elem, cell_start[members] + np.minimum(step, lens - 1),
                out=block)
        if arithmetization == "product":
            block[step >= lens] = n_c * n_o
        buckets.append(block)
        offset += w * n
    restore = np.empty_like(order)
    restore[order] = np.arange(order.size)
    return CellStream(
        elem=folded, buckets=tuple(buckets), restore=restore, **cells
    )
