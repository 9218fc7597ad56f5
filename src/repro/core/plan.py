"""Ahead-of-time compiled evaluation plans: one structure-of-arrays arena.

The batched BSTCE kernel (:mod:`repro.core.fast`) evaluates from a single
flat **structure-of-arrays arena** compiled at fit/save time straight from
each class's inside and outside row blocks (:func:`compile_plan`).  The
arena has four members (:data:`ARENA_FIELDS`):

* ``inside`` / ``outside`` — each class's boolean row blocks (its own
  samples and every other sample), one byte per ``(row, item)``;
* ``pair_len`` / ``pair_neg`` — the **fused pair weights**: each ``(c,
  h)`` pair stores the length of its shared exclusion list (``|h - c|``
  for the negated form, else the fallback ``|c - h|``; ``0`` marks the
  empty list) and which form was selected — 5 bytes per pair, computed
  by one helper (:func:`_pair_weights`) shared by the cold compile and
  the delta recompile.  Every length is a small-integer float32 count
  (exact below :data:`FLOAT32_EXACT_MAX`; a longer one falls back to
  float64 and increments ``plan_wide_float_fallbacks`` — never a silent
  rounding), so the kernel's single rounding operation is the final
  ``sat / len`` division.

Nothing else is stored: the kernel compacts each query's own columns out
of the row blocks and derives everything per query.  The compile also
checks the bound under which the ``min`` kernel's float64 cell sums are
exact (:data:`EXACT_SUM_BITS`) and counts a plan past it under
``plan_sum_bound_exceeded``.

Every per-class array is a **view** into one flat arena member per field,
so a model artifact stores one contiguous payload per field
(``arena_<field>``) plus a tiny int64 geometry table, and a memory-mapped
load rebuilds all views without copying a byte
(:func:`plan_from_arena`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..evaluation.timing import engine_counters

__all__ = [
    "ARENA_FIELDS",
    "EXACT_SUM_BITS",
    "EvaluationPlan",
    "FLOAT32_EXACT_MAX",
    "PlanClass",
    "compile_plan",
    "plan_from_arena",
    "recompile_delta",
]

#: Largest integer float32 represents exactly (2**24; 2**24 + 1 is the
#: first gap).  Pair-list lengths past it fall back to float64 (counted
#: under ``plan_wide_float_fallbacks``) instead of silently rounding.
FLOAT32_EXACT_MAX = 2**24

#: The ``min`` kernel's cell sums are exact float64 arithmetic while
#: ``n_items · 2**⌈log2 L⌉ ≤ 2**EXACT_SUM_BITS`` (``L`` the longest pair
#: list): every pair value is a float32 in ``{0} ∪ [1/L, 1]``, so every
#: value, product and partial sum is a multiple of ``2**-(⌈log2 L⌉ + 23)``
#: no larger than ``n_items``, which float64's 53-bit significand holds
#: exactly.  A plan past the bound is counted under
#: ``plan_sum_bound_exceeded``; its values stay deterministic and
#: identical on every path, only the exact-sum claim lapses.
EXACT_SUM_BITS = 30

#: Every arena member, in storage order.  ``inside``/``outside``/
#: ``pair_neg`` are bool; ``pair_len`` the plan's weight dtype.
ARENA_FIELDS: Tuple[str, ...] = ("inside", "outside", "pair_len", "pair_neg")

#: ``geometry`` columns: per class ``(n_c, n_o)``; a row of zeros marks an
#: absent class (no training samples).  Every member shape derives from
#: these plus ``n_items``.
GEOMETRY_COLUMNS = 2


@dataclass
class PlanClass:
    """One class's slice of the arena — every array a view, never a copy."""

    class_id: int
    inside: np.ndarray    # bool (n_c, n_items): rows of C_i
    outside: np.ndarray   # bool (n_o, n_items): rows of S - C_i
    pair_len: np.ndarray  # (n_c, n_o): selected list length, 0 = empty
    pair_neg: np.ndarray  # bool (n_c, n_o): negated form selected


@dataclass
class EvaluationPlan:
    """The compiled arena plus the per-class views over it."""

    n_items: int
    n_classes: int
    weight_dtype: np.dtype
    arena: Dict[str, np.ndarray]
    geometry: np.ndarray  # int64 (n_classes, GEOMETRY_COLUMNS)
    classes: List[Optional[PlanClass]] = field(default_factory=list)

    def hot_nbytes(self) -> int:
        """Bytes the batched kernel can touch per query block — the whole
        arena (every member is kernel-hot; there is no cold field)."""
        return sum(int(a.nbytes) for a in self.arena.values())


#: One class's compile output: its arena pieces by field (a row block may
#: be a ``(base view, appended block)`` pair) and its ``(n_c, n_o)``, or
#: ``None`` for a class without samples.
_RawClass = Tuple[Dict[str, object], Tuple[int, int]]


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


def _raw_for_class(inside: np.ndarray, outside: np.ndarray) -> _RawClass:
    """One class's arena pieces, compiled from its inside and outside row
    blocks (the cold path; also a previously absent class's first samples
    in :func:`recompile_delta`)."""
    pair_len, pair_neg = _pair_weights(
        inside.astype(np.float32), outside.astype(np.float32)
    )
    pieces = {
        "inside": inside,
        "outside": outside,
        "pair_len": pair_len,
        "pair_neg": pair_neg,
    }
    return pieces, (inside.shape[0], outside.shape[0])


def _raw_for_class_delta(
    base: PlanClass, new_inside: np.ndarray, new_outside: np.ndarray
) -> _RawClass:
    """The delta counterpart of :func:`_raw_for_class`: the base class views
    plus the appended row blocks.

    The base ``pair_len``/``pair_neg`` block is copied verbatim; only the
    ``old_c × new_h`` and ``new_c × all_h`` blocks run fresh matmuls.
    Appended rows take the highest indices, so the row blocks are returned
    as ``(base view, new block)`` piece pairs and the stacked arrays are
    never materialized — :func:`_build_arena` copies each piece once,
    straight into the arena.  Byte-identical to :func:`_raw_for_class`
    over the stacked blocks (equivalence-gated in tests and bench_micro).
    """
    n_c_old, n_o_old = base.pair_len.shape
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
        (old_c, new_h, base.inside.astype(np.float32), new_outside_f),
        (new_c, old_h, new_inside_f, base.outside.astype(np.float32)),
        (new_c, new_h, new_inside_f, new_outside_f),
    ):
        pair_len[rows, cols], pair_neg[rows, cols] = _pair_weights(
            inside_f, outside_f
        )
    pieces = {
        "inside": (base.inside, new_inside),
        "outside": (base.outside, new_outside),
        "pair_len": pair_len,
        "pair_neg": pair_neg,
    }
    return pieces, (n_c, n_o)


def _build_arena(
    classes: List[Optional[_RawClass]], n_items: int
) -> EvaluationPlan:
    """Geometry, the weight-dtype and exact-sum guards, and per-field
    concatenation: the shared arena-assembly tail of the cold compile and
    the delta recompile."""
    geometry = np.zeros((len(classes), GEOMETRY_COLUMNS), dtype=np.int64)
    pieces: Dict[str, List[np.ndarray]] = {name: [] for name in ARENA_FIELDS}
    max_weight = 0
    for class_id, compiled in enumerate(classes):
        if compiled is None:
            continue
        raw, (n_c, n_o) = compiled
        geometry[class_id] = (n_c, n_o)
        pair_len = raw["pair_len"]
        if pair_len.size:
            max_weight = max(max_weight, int(pair_len.max()))
        # The delta path hands row blocks over as (base, new) piece pairs
        # so the stacked array is never built twice: flattened here, each
        # block is copied exactly once — into the arena.
        for name in ARENA_FIELDS:
            value = raw[name]
            pieces[name].extend(value if isinstance(value, tuple) else (value,))
    if max_weight <= FLOAT32_EXACT_MAX:
        weight_dtype = np.dtype(np.float32)
    else:
        weight_dtype = np.dtype(np.float64)
        engine_counters.increment("plan_wide_float_fallbacks")
    # n_items · 2**⌈log2 L⌉ ≤ 2**EXACT_SUM_BITS, in integers.
    if n_items << max(max_weight - 1, 0).bit_length() > 1 << EXACT_SUM_BITS:
        engine_counters.increment("plan_sum_bound_exceeded")
    arena: Dict[str, np.ndarray] = {}
    for name in ARENA_FIELDS:
        dtype = weight_dtype if name == "pair_len" else np.dtype(bool)
        parts = [np.ravel(p).astype(dtype, copy=False) for p in pieces[name]]
        arena[name] = (
            np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)
        )
    engine_counters.increment("plan_compiles")
    return plan_from_arena(arena, geometry, n_items)


def compile_plan(dataset) -> EvaluationPlan:
    """Compile a dataset's evaluation plan straight from each class's
    inside and outside row blocks.

    ``dataset`` needs ``bool_matrix``, ``label_array`` and ``n_classes``
    (a :class:`~repro.datasets.dataset.RelationalDataset`).  A class
    without training samples gets a zero geometry row and no views.  The
    arena serves every arithmetization.  Deterministic: the same dataset
    always compiles to a byte-identical arena, and so does
    :func:`recompile_delta` over an append-only growth.
    """
    matrix = dataset.bool_matrix
    labels = dataset.label_array
    classes: List[Optional[_RawClass]] = []
    for class_id in range(dataset.n_classes):
        member_mask = labels == class_id
        if not member_mask.any():
            classes.append(None)
            continue
        classes.append(
            _raw_for_class(matrix[member_mask], matrix[~member_mask])
        )
    return _build_arena(classes, int(matrix.shape[1]))


def recompile_delta(
    base_plan: EvaluationPlan,
    dataset,
    base_n_samples: int,
) -> EvaluationPlan:
    """Recompile a plan for ``dataset`` — the base plan's training data
    plus rows appended at the end — reusing the base arena's pair weights.

    The pair values for an old ``(c, h)`` pair depend only on the two
    rows' contents, never on dataset size, so the base plan's
    ``pair_len``/``pair_neg`` blocks are copied verbatim; only the
    ``old_c × new_h`` and ``new_c × all_h`` blocks run fresh matmuls and
    the appended rows are added to the row blocks.
    The dominant cost drops from O(n² × genes) to O(n × Δ × genes) for a
    Δ-row append, and the result is **byte-identical** to
    :func:`compile_plan` over the grown
    dataset (equivalence-gated in tests and ``bench_micro``): appended
    rows take the highest indices, so class member order and outside
    order are stable.

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
            classes.append(
                _raw_for_class(new_inside, matrix[labels != class_id])
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
        classes.append(_raw_for_class_delta(pc, new_inside, new_outside))
    engine_counters.increment("plan_delta_recompiles")
    return _build_arena(classes, n_items)


def plan_from_arena(
    arena: Dict[str, np.ndarray],
    geometry: np.ndarray,
    n_items: int,
) -> EvaluationPlan:
    """Rebuild the per-class views over a (possibly memory-mapped) arena.

    The inverse of the flattening in :func:`compile_plan` and the
    zero-copy load path behind model artifacts: every :class:`PlanClass`
    array is a plain ``ndarray`` slice of the corresponding arena member,
    so a memory-mapped member is read in place by the kernel without a
    copy (``plan.arena`` keeps the maps).  Members not in
    :data:`ARENA_FIELDS` are ignored.

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
    # Per class, each member's (rows, columns); an absent class has none.
    shapes = [
        {
            "inside": (n_c, n_items),
            "outside": (n_o, n_items),
            "pair_len": (n_c, n_o),
            "pair_neg": (n_c, n_o),
        }
        if n_c else None
        for n_c, n_o in geometry.tolist()
    ]
    arena = {name: arena[name] for name in ARENA_FIELDS}
    for name in ARENA_FIELDS:
        total = sum(int(np.prod(s[name])) for s in shapes if s is not None)
        if int(arena[name].size) != total:
            raise ValueError(
                f"plan arena member {name!r} holds {int(arena[name].size)}"
                f" elements, geometry requires {total}"
            )
    # Plain ndarray views: still zero-copy over a memory-mapped member, but
    # the kernel indexes them without going through ``memmap.__getitem__``.
    plain = {name: arena[name].view(np.ndarray) for name in ARENA_FIELDS}
    offsets = {name: 0 for name in ARENA_FIELDS}
    classes: List[Optional[PlanClass]] = []
    for class_id, class_shapes in enumerate(shapes):
        if class_shapes is None:
            classes.append(None)
            continue
        views: Dict[str, np.ndarray] = {}
        for name, shape in class_shapes.items():
            size = shape[0] * shape[1]
            flat = plain[name][offsets[name]:offsets[name] + size]
            offsets[name] += size
            views[name] = flat.reshape(shape)
        classes.append(PlanClass(class_id=class_id, **views))
    return EvaluationPlan(
        n_items=n_items,
        n_classes=len(shapes),
        weight_dtype=arena["pair_len"].dtype,
        arena=arena,
        geometry=geometry,
        classes=classes,
    )
