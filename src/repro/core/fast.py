"""Vectorized BSTCE evaluation engine.

Computes exactly the Algorithm 5 classification values of
:mod:`repro.core.bstce` (their agreement is property-tested) without ever
materializing BST cells, by exploiting the structure of exclusion lists:

* The shared list for a pair ``(c, h)`` is ``items(h) - items(c)`` (negated)
  or the fallback ``items(c) - items(h)`` (positive), so for a query ``Q``
  its satisfied-literal count follows from three inner products:
  ``|h ∩ Q|``, ``|c ∩ Q|``, and ``|c ∩ h ∩ Q|``.
* The cell ``(g, c)`` combines the pair values ``V[c, h]`` over the outside
  samples ``h`` expressing ``g`` (a black dot is the empty case, valued 1).

Per query, the dominant cost is one dense matmul per class —
``(|C_i| x |G|) @ (|G| x |S - C_i|)`` — plus a chunked masked reduction over
the query's expressed genes.  :meth:`FastBSTCEvaluator.classification_values_batch`
amortizes both across a query batch.

Two kernel paths share this file:

* the **compiled plan** path (default): per-class state lives in one flat
  structure-of-arrays arena (:mod:`repro.core.plan`) with fused pair
  weights, downcast dtypes, duplicate-outside-row culling, and a
  per-query sparse matmul restriction — sparse serving queries only pay
  for their own expressed genes.  Its cell reduction runs over a per-class
  :class:`~repro.core.plan.CellStream` derived once, on the first batched
  query, so a query costs one gather, one segment reduction and one
  ``bincount``;
* the **legacy tables** path (``compile_plan=False``): the original
  :class:`_ClassTables` layout, kept as the bit-identity reference the
  plan kernel is property-tested and benchmarked against.

Both paths produce bit-identical values: every intermediate count is
small-integer float32 arithmetic (exact below 2**24), so fusing or
restricting the matmuls cannot change a bit, and the single rounding
operation — the final ``sat / len`` division — keeps identical operands.

Evaluators are cached process-wide by :func:`get_evaluator`, keyed on the
``(dataset fingerprint, arithmetization)`` pair, so repeated CV phases and
CLI invocations stop rebuilding identical per-class tables.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import AbstractSet, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..datasets.dataset import RelationalDataset
from ..evaluation.timing import engine_counters
from .arithmetization import get_combiner
from .plan import (
    CellStream,
    EvaluationPlan,
    PlanClass,
    build_cell_stream,
    compile_plan_from_tables,
    recompile_delta,
)

Query = Union[AbstractSet[int], np.ndarray]

_GENE_CHUNK = 256
#: Queries evaluated together inside one batched block.
_BATCH_BLOCK = 64
#: Element cap for the (block, n_c, n_o, genes) reduction working array.
_CELL_BUDGET = 1 << 23
#: Item-count floor for the sparse-column matmul restriction: below this the
#: pair-value matmuls are dispatch-bound and slicing only adds overhead.
_SPARSE_MIN_ITEMS = 256
#: Batch-density ceiling (as ``1 / _PER_QUERY_SPARSITY``) below which the
#: plan kernel computes each query's pair counts over only *its own*
#: expressed columns instead of one stacked full-width matmul.  Exact
#: either way (the skipped terms are exact ``+0.0``); purely a cost model.
_PER_QUERY_SPARSITY = 8
#: A block that selects at least ``1 / _WHOLE_STREAM_SHARE`` of its
#: ``block × stream`` elements gathers the whole cell stream and masks the
#: cells by query; a sparser block gathers only its genes' runs, one
#: ``take`` per run.  Both give the same cell values in the same order;
#: purely a cost model.  A third lies between the measured crossovers: the
#: whole stream wins from a share of ≈ 0.3 on ALL-profile queries (runs of
#: ~14 elements), and only from ≈ 0.5 on long-run (thousands of elements)
#: synthetic serving profiles.
_WHOLE_STREAM_SHARE = 3

#: Serializes the lazy cell-stream builds (module-level, so evaluators
#: stay picklable); a build happens once per evaluator.
_STREAM_LOCK = threading.Lock()


def _concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenated runs ``arange(s, s + n)`` for every ``(s, n)``
    pair (all ``n >= 1``): one scatter and one cumsum, no per-run work."""
    steps = np.ones(int(lengths.sum()), dtype=np.int64)
    jumps = starts.astype(np.int64)
    jumps[1:] -= starts[:-1] + lengths[:-1] - 1
    steps[np.cumsum(lengths) - lengths] = jumps
    return np.cumsum(steps, out=steps)


def _join(pieces: List[np.ndarray]) -> np.ndarray:
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


@dataclass
class _ClassTables:
    """Per-class precomputed matrices (the vectorized analogue of a BST).

    The legacy layout the compiled plan replaced; still built under
    ``compile_plan=False`` as the equivalence/benchmark reference and as
    the source material for v1 artifacts.
    """

    class_id: int
    inside: np.ndarray       # bool (n_c, n_items): rows of C_i
    outside: np.ndarray      # bool (n_o, n_items): rows of S - C_i
    inside_f: np.ndarray     # float32 view of ``inside`` (matmul operand)
    outside_f: np.ndarray    # float32 view of ``outside`` (matmul operand)
    len_neg: np.ndarray      # float32 (n_c, n_o): |h - c|
    len_pos: np.ndarray      # float32 (n_c, n_o): |c - h|
    negated: np.ndarray      # bool  (n_c, n_o): pair list is the negated form
    empty: np.ndarray        # bool  (n_c, n_o): identical rows -> empty list
    inside_sizes: np.ndarray  # float32 (n_c,)
    gene_mask: np.ndarray    # bool (n_items,): genes some inside row expresses
    outside_counts: np.ndarray  # int64 (n_items,): outside rows per gene
    blackdot_mask: np.ndarray   # bool (n_items,): relevant genes no h expresses
    h_flat: np.ndarray       # int64 (nnz,): outside-row ids, gene-major
    h_offsets: np.ndarray    # int64 (n_items,): start of each gene in h_flat
    inside_rows: np.ndarray  # int64 (nnz,): inside rows per gene, gene-major
    inside_row_offsets: np.ndarray  # int64 (n_items + 1,): CSR offsets


def _class_tables_for(
    class_id: int, inside: np.ndarray, outside: np.ndarray, n_items: int
) -> _ClassTables:
    """Build one class's legacy tables from its inside/outside row blocks."""
    ins = inside.astype(np.float32)
    outs = outside.astype(np.float32)
    inter = ins @ outs.T  # |c ∩ h|
    inside_sizes = ins.sum(axis=1)
    outside_sizes = outs.sum(axis=1)
    len_neg = outside_sizes[None, :] - inter
    len_pos = inside_sizes[:, None] - inter
    negated = len_neg > 0
    empty = (len_neg == 0) & (len_pos == 0)
    gene_mask = inside.any(axis=0)
    outside_counts = outside.sum(axis=0).astype(np.int64)
    # Gene-major CSR-style lists of the outside rows expressing each gene,
    # for the batched segment reduction.
    gene_ids, h_ids = np.nonzero(outside.T)
    del gene_ids  # np.nonzero order guarantees gene-major h_ids
    h_offsets = np.zeros(n_items, dtype=np.int64)
    np.cumsum(outside_counts[:-1], out=h_offsets[1:])
    # Gene-major CSR of ``inside`` — which class rows express each gene,
    # i.e. the non-blank cells the batched segment reduction visits.
    ins_gene_ids, inside_rows = np.nonzero(inside.T)
    del ins_gene_ids
    inside_row_offsets = np.zeros(n_items + 1, dtype=np.int64)
    np.cumsum(inside.sum(axis=0), out=inside_row_offsets[1:])
    return _ClassTables(
        class_id=class_id,
        inside=inside,
        outside=outside,
        inside_f=ins,
        outside_f=outs,
        len_neg=len_neg,
        len_pos=len_pos,
        negated=negated,
        empty=empty,
        inside_sizes=inside_sizes,
        gene_mask=gene_mask,
        outside_counts=outside_counts,
        blackdot_mask=gene_mask & (outside_counts == 0),
        h_flat=h_ids.astype(np.int64),
        h_offsets=h_offsets,
        inside_rows=inside_rows.astype(np.int64),
        inside_row_offsets=inside_row_offsets,
    )


class FastBSTCEvaluator:
    """Evaluates BSTCE classification values for every class of a dataset.

    Args:
        dataset: the (training) relational dataset.
        arithmetization: per-cell list combiner — ``min`` (Algorithm 5),
            ``product``, or ``mean`` (see :mod:`repro.core.arithmetization`).
        compile_plan: compile the per-class tables into the
            structure-of-arrays evaluation plan (the default and the path
            every artifact stores).  ``False`` keeps the legacy
            :class:`_ClassTables` layout — the bit-identity reference the
            plan kernel is tested and benchmarked against.
    """

    def __init__(
        self,
        dataset: RelationalDataset,
        arithmetization: str = "min",
        *,
        compile_plan: bool = True,
    ):
        get_combiner(arithmetization)  # shared validation + error message
        self.dataset = dataset
        self.arithmetization = arithmetization
        matrix = dataset.bool_matrix
        labels = dataset.label_array
        tables: List[Optional[_ClassTables]] = []
        with engine_counters.track("tables_build"):
            for class_id in range(dataset.n_classes):
                member_mask = labels == class_id
                inside = matrix[member_mask]
                outside = matrix[~member_mask]
                if inside.shape[0] == 0:
                    # No training sample of this class: its BST is empty and
                    # the classification value is 0 for every query.
                    tables.append(None)
                    continue
                tables.append(
                    _class_tables_for(
                        class_id, inside, outside, matrix.shape[1]
                    )
                )
            self._plan: Optional[EvaluationPlan] = None
            self._tables: Optional[List[Optional[_ClassTables]]] = None
            if compile_plan:
                self._plan = compile_plan_from_tables(
                    tables, matrix.shape[1], arithmetization
                )
            else:
                self._tables = tables
        #: Deferred artifact verification (set by ``load_artifact`` under
        #: ``verify="lazy"``); runs before the first query's kernel work.
        self._integrity_guard = None
        self._streams: Optional[List[Optional[CellStream]]] = None
        engine_counters.increment("evaluator_builds")
        engine_counters.increment(
            "class_tables_built", sum(t is not None for t in tables)
        )

    @classmethod
    def _from_plan(
        cls,
        dataset,
        arithmetization: str,
        plan: EvaluationPlan,
    ) -> "FastBSTCEvaluator":
        """Restore an evaluator around a prebuilt compiled plan.

        The zero-rebuild path behind :func:`repro.core.artifact.load_artifact`:
        nothing is recomputed, the arena views (typically memory-mapped) are
        adopted as-is.  ``dataset`` may be a full
        :class:`~repro.datasets.dataset.RelationalDataset` or the
        :class:`~repro.core.artifact.DatasetSummary` shim — the kernels only
        touch ``n_items``/``n_classes``/``fingerprint``.
        """
        get_combiner(arithmetization)
        self = cls.__new__(cls)
        self.dataset = dataset
        self.arithmetization = arithmetization
        self._plan = plan
        self._tables = None
        self._integrity_guard = None
        self._streams = None
        engine_counters.increment("evaluator_restores")
        return self

    @property
    def plan(self) -> Optional[EvaluationPlan]:
        """The compiled evaluation plan (``None`` on a legacy-tables
        evaluator that has not been asked to compile one)."""
        return self._plan

    def _ensure_plan(self) -> EvaluationPlan:
        """The compiled plan, compiling it on demand from the legacy tables
        (the save path for a ``compile_plan=False`` evaluator).  A legacy
        evaluator keeps dispatching through its tables afterwards — the
        plan is only materialized for export."""
        if self._plan is None:
            assert self._tables is not None
            self._plan = compile_plan_from_tables(
                self._tables, self.dataset.n_items, self.arithmetization
            )
        return self._plan

    def append_rows(self, dataset: RelationalDataset) -> "FastBSTCEvaluator":
        """An evaluator for ``dataset`` — this evaluator's training data
        plus rows appended at the end — via a delta plan recompile.

        The incremental-training entry point: old pair weights are copied
        from this evaluator's arena and only the blocks involving appended
        rows run fresh matmuls (:func:`repro.core.plan.recompile_delta`),
        so a small append costs O(n × Δ × genes) instead of the cold
        O(n² × genes) rebuild while producing a byte-identical plan.
        """
        if self._integrity_guard is not None:
            self._integrity_guard()
        plan = recompile_delta(
            self._ensure_plan(),
            dataset,
            int(self.dataset.n_samples),
            self.arithmetization,
        )
        return FastBSTCEvaluator._from_plan(
            dataset, self.arithmetization, plan
        )

    def _legacy_tables(self) -> List[Optional[_ClassTables]]:
        """Legacy per-class tables, rebuilt from the plan's row blocks when
        this evaluator only carries the compiled arena (the v1-artifact
        export path)."""
        if self._tables is not None:
            return self._tables
        assert self._plan is not None
        tables: List[Optional[_ClassTables]] = []
        for pc in self._plan.classes:
            if pc is None:
                tables.append(None)
                continue
            tables.append(
                _class_tables_for(
                    pc.class_id,
                    np.asarray(pc.inside, dtype=bool),
                    np.asarray(pc.outside, dtype=bool),
                    self.dataset.n_items,
                )
            )
        return tables

    def _cell_streams(self) -> List[Optional[CellStream]]:
        """The plan's per-class cell streams, built on the first batched
        query.  The build runs under a lock, so concurrent first queries
        build each stream once; a stream is never stored in an artifact."""
        streams = self._streams
        if streams is None:
            with _STREAM_LOCK:
                streams = self._streams
                if streams is None:
                    assert self._plan is not None
                    streams = [
                        None if pc is None else build_cell_stream(pc)
                        for pc in self._plan.classes
                    ]
                    self._streams = streams
        return streams

    def _per_class(self) -> Sequence[Optional[object]]:
        """The per-class kernel state: legacy tables when this evaluator
        was built with ``compile_plan=False``, plan views otherwise."""
        if self._tables is not None:
            return self._tables
        assert self._plan is not None
        return self._plan.classes

    # ------------------------------------------------------------------
    def _as_vector(self, query: Query) -> np.ndarray:
        if isinstance(query, np.ndarray):
            if query.shape != (self.dataset.n_items,):
                raise ValueError(
                    f"query vector has shape {query.shape}, expected"
                    f" ({self.dataset.n_items},)"
                )
            return query.astype(bool)
        vec = np.zeros(self.dataset.n_items, dtype=bool)
        items = [i for i in query if 0 <= i < self.dataset.n_items]
        if items:
            vec[items] = True
        return vec

    def _as_matrix(self, queries: Union[Sequence[Query], np.ndarray]) -> np.ndarray:
        """Stack a query batch into a dense ``(n_queries, n_items)`` bool
        matrix (accepts an already-stacked 2-D array or any sequence of
        item sets / indicator vectors)."""
        if isinstance(queries, np.ndarray) and queries.ndim == 2:
            if queries.shape[1] != self.dataset.n_items:
                raise ValueError(
                    f"query matrix has {queries.shape[1]} columns, expected"
                    f" {self.dataset.n_items}"
                )
            return queries.astype(bool)
        rows = [self._as_vector(q) for q in queries]
        if not rows:
            return np.zeros((0, self.dataset.n_items), dtype=bool)
        return np.stack(rows)

    @staticmethod
    def _sparse_columns(qmat: np.ndarray) -> Optional[np.ndarray]:
        """Expressed item columns of a (batch of) boolean queries, when
        restricting the pair-value matmuls to them saves real work.

        Every inner product behind the pair values only accumulates over
        items the query expresses (the other terms are exact ``+0.0``), so
        for sparse queries the dominant ``(n_c x |G|) @ (|G| x n_o)`` matmul
        shrinks to the expressed columns — the cold-start/single-query
        serving path stops paying for the full item vocabulary.  Returns
        ``None`` when the batch is dense enough (or the vocabulary small
        enough) that the full-width matmul is cheaper than slicing.
        """
        n_items = qmat.shape[-1]
        if n_items < _SPARSE_MIN_ITEMS:
            return None
        expressed = qmat.any(axis=0) if qmat.ndim == 2 else qmat
        cols = np.flatnonzero(expressed)
        if cols.size > n_items // 2:
            return None
        return cols

    # ------------------------------------------------------------------
    # Pair values: legacy tables path
    # ------------------------------------------------------------------
    def _pair_values(self, tables: _ClassTables, qvec: np.ndarray) -> np.ndarray:
        """V[c, h]: satisfied-literal fraction of each shared pair list."""
        cols = self._sparse_columns(qvec)
        if cols is not None:
            q = qvec[cols].astype(np.float32)
            inside_f = tables.inside_f[:, cols]
            outside_f = tables.outside_f[:, cols]
        else:
            q = qvec.astype(np.float32)
            inside_f = tables.inside_f
            outside_f = tables.outside_f
        hq = outside_f @ q                 # |h ∩ Q|
        cq = inside_f @ q                  # |c ∩ Q|
        masked_inside = inside_f * q[None, :]
        chq = masked_inside @ outside_f.T  # |c∩h∩Q|
        with np.errstate(divide="ignore", invalid="ignore"):
            sat_neg = tables.len_neg - (hq[None, :] - chq)
            v_neg = np.where(tables.len_neg > 0, sat_neg / tables.len_neg, 0.0)
            sat_pos = cq[:, None] - chq
            v_pos = np.where(tables.len_pos > 0, sat_pos / tables.len_pos, 0.0)
        values = np.where(tables.negated, v_neg, v_pos)
        values[tables.empty] = 0.0
        return values.astype(np.float32)

    def _pair_values_block(
        self, tables: _ClassTables, qmat: np.ndarray
    ) -> np.ndarray:
        """V[b, c, h] for a block of queries, via one stacked matmul.

        The per-query ``(n_c x |G|) @ (|G| x n_o)`` products collapse into a
        single ``(B·n_c x |G|) @ (|G| x n_o)`` matmul — the batched kernel's
        dominant-cost amortization.
        """
        cols = self._sparse_columns(qmat)
        if cols is not None:
            Qf = qmat[:, cols].astype(np.float32)           # (B, |cols|)
            inside_f = tables.inside_f[:, cols]
            outside_f = tables.outside_f[:, cols]
        else:
            Qf = qmat.astype(np.float32)                    # (B, |G|)
            inside_f = tables.inside_f
            outside_f = tables.outside_f
        hq = Qf @ outside_f.T                               # (B, n_o)
        cq = Qf @ inside_f.T                                # (B, n_c)
        n_b, n_width = Qf.shape
        n_c = tables.inside.shape[0]
        masked = inside_f[None, :, :] * Qf[:, None, :]
        chq = (masked.reshape(n_b * n_c, n_width) @ outside_f.T).reshape(
            n_b, n_c, -1
        )                                                   # (B, n_c, n_o)
        with np.errstate(divide="ignore", invalid="ignore"):
            sat_neg = tables.len_neg[None, :, :] - (hq[:, None, :] - chq)
            v_neg = np.where(
                tables.len_neg[None, :, :] > 0,
                sat_neg / tables.len_neg[None, :, :],
                0.0,
            )
            sat_pos = cq[:, :, None] - chq
            v_pos = np.where(
                tables.len_pos[None, :, :] > 0,
                sat_pos / tables.len_pos[None, :, :],
                0.0,
            )
        values = np.where(tables.negated[None, :, :], v_neg, v_pos)
        values[:, tables.empty] = 0.0
        return values.astype(np.float32)

    # ------------------------------------------------------------------
    # Pair values: compiled plan path
    # ------------------------------------------------------------------
    def _pair_values_plan(self, pc: PlanClass, qvec: np.ndarray) -> np.ndarray:
        """The fused-weight form of :meth:`_pair_values`: one selection on
        ``pair_neg`` and one guarded division by ``pair_len``.  Bit-identical
        — the satisfied-literal counts are exact small-integer float32
        arithmetic and the division operands are unchanged."""
        cols = self._sparse_columns(qvec)
        if cols is not None:
            q = qvec[cols].astype(np.float32)
            inside_f = pc.inside_f[:, cols]
            outside_f = pc.outside_f[:, cols]
        else:
            q = qvec.astype(np.float32)
            inside_f = pc.inside_f
            outside_f = pc.outside_f
        hq = outside_f @ q
        cq = inside_f @ q
        chq = (inside_f * q[None, :]) @ outside_f.T
        with np.errstate(divide="ignore", invalid="ignore"):
            sat = np.where(
                pc.pair_neg, pc.pair_len - (hq[None, :] - chq),
                cq[:, None] - chq,
            )
            values = np.where(pc.pair_len > 0, sat / pc.pair_len, 0.0)
        return values.astype(np.float32, copy=False)

    def _pair_values_block_plan(
        self, pc: PlanClass, qmat: np.ndarray
    ) -> np.ndarray:
        """V[b, c, h] for a block of queries: query-major, so query ``b``'s
        pair values are one contiguous ``n_c·n_o`` row the cell stream's
        element addresses index directly.

        For sparse batches each query's inner products are restricted to
        *its own* expressed columns — B small matmuls of width ``|Q_b|``
        instead of one stacked matmul over the batch union — which is
        exact (the skipped terms are exact ``+0.0``) and, on serving-shaped
        queries, cuts the dominant matmul cost by the sparsity factor.
        """
        n_b = qmat.shape[0]
        n_c, n_o = pc.inside.shape[0], pc.outside.shape[0]
        n_items = qmat.shape[1]
        per_query = (
            n_items >= _SPARSE_MIN_ITEMS
            and int(qmat.sum()) * _PER_QUERY_SPARSITY <= n_b * n_items
        )
        if per_query:
            hq = np.empty((n_b, n_o), dtype=np.float32)
            cq = np.empty((n_b, n_c), dtype=np.float32)
            chq = np.empty((n_b, n_c, n_o), dtype=np.float32)
            for b in range(n_b):
                cols = np.flatnonzero(qmat[b])
                ins = pc.inside_f[:, cols]
                outs = pc.outside_f[:, cols]
                hq[b] = outs.sum(axis=1)
                cq[b] = ins.sum(axis=1)
                chq[b] = ins @ outs.T
        else:
            cols = self._sparse_columns(qmat)
            if cols is not None:
                Qf = qmat[:, cols].astype(np.float32)
                inside_f = pc.inside_f[:, cols]
                outside_f = pc.outside_f[:, cols]
            else:
                Qf = qmat.astype(np.float32)
                inside_f = pc.inside_f
                outside_f = pc.outside_f
            hq = Qf @ outside_f.T                           # (B, n_o)
            cq = Qf @ inside_f.T                            # (B, n_c)
            n_width = Qf.shape[1]
            masked = Qf[:, None, :] * inside_f[None, :, :]  # (B, n_c, w)
            chq = (masked.reshape(n_b * n_c, n_width) @ outside_f.T).reshape(
                n_b, n_c, n_o
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            sat = np.where(
                pc.pair_neg[None, :, :],
                pc.pair_len[None, :, :] - (hq[:, None, :] - chq),
                cq[:, :, None] - chq,
            )
            values = np.where(
                pc.pair_len[None, :, :] > 0,
                sat / pc.pair_len[None, :, :],
                0.0,
            )
        return values.astype(np.float32, copy=False)

    # ------------------------------------------------------------------
    # Cell combination
    # ------------------------------------------------------------------
    def _combine_chunk(
        self,
        pair_values: np.ndarray,  # (n_c, n_o)
        outside_mask: np.ndarray,  # bool (n_o, b): which h express each gene
    ) -> np.ndarray:
        """Cell values (n_c, b) for a chunk of genes: combine each gene's
        expressing-outside-sample pair values; empty (black dot) -> 1."""
        n_c = pair_values.shape[0]
        if outside_mask.shape[0] == 0:
            # No outside samples at all: every non-blank cell is a black dot.
            return np.ones((n_c, outside_mask.shape[1]), dtype=np.float32)
        counts = outside_mask.sum(axis=0)  # (b,)
        mask3 = outside_mask[None, :, :]   # (1, n_o, b)
        expanded = pair_values[:, :, None]  # (n_c, n_o, 1)
        if self.arithmetization == "min":
            cells = np.where(mask3, expanded, np.float32(np.inf)).min(axis=1)
        elif self.arithmetization == "product":
            cells = np.where(mask3, expanded, np.float32(1.0)).prod(axis=1)
        else:  # mean
            sums = np.where(mask3, expanded, np.float32(0.0)).sum(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                cells = np.where(counts[None, :] > 0, sums / counts[None, :], 0.0)
        # Black dots: no outside sample expresses the gene.
        cells = np.where(counts[None, :] == 0, np.float32(1.0), cells)
        return cells.astype(np.float32)

    def _reduce_segments(
        self, gathered: np.ndarray, starts: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        """Combine contiguous pair-value segments (one per non-blank,
        non-black-dot cell) along the last axis of a gathered stream — the
        arithmetization applied without any dense masking."""
        if self.arithmetization == "min":
            return np.minimum.reduceat(gathered, starts, axis=-1)
        if self.arithmetization == "product":
            return np.multiply.reduceat(gathered, starts, axis=-1)
        sums = np.add.reduceat(gathered, starts, axis=-1)
        return sums / np.asarray(lengths, dtype=np.float32)

    def class_value(self, class_id: int, query: Query) -> float:
        """BSTCE(T(class_id), Q) — Algorithm 5's classification value."""
        if self._integrity_guard is not None:
            self._integrity_guard()
        entry = self._per_class()[class_id]
        if entry is None:
            return 0.0
        return self._class_value_from_vec(entry, self._as_vector(query))

    def _class_value_from_vec(self, entry, qvec: np.ndarray) -> float:
        """:meth:`class_value` on an already-converted indicator vector, so
        the per-class loop of :meth:`classification_values` converts the
        query once instead of once per class.  ``entry`` is a
        :class:`_ClassTables` or a :class:`~repro.core.plan.PlanClass` —
        the single-query combine only touches their shared row blocks, plus
        the matching pair-value kernel."""
        genes = np.flatnonzero(qvec & entry.gene_mask)
        if genes.size == 0:
            return 0.0
        if isinstance(entry, PlanClass):
            pair_values = self._pair_values_plan(entry, qvec)
        else:
            pair_values = self._pair_values(entry, qvec)
        n_c = entry.inside.shape[0]
        col_sum = np.zeros(n_c, dtype=np.float64)
        col_count = np.zeros(n_c, dtype=np.float64)
        for start in range(0, genes.size, _GENE_CHUNK):
            chunk = genes[start : start + _GENE_CHUNK]
            outside_mask = entry.outside[:, chunk]  # (n_o, b)
            cells = self._combine_chunk(pair_values, outside_mask)  # (n_c, b)
            exists = entry.inside[:, chunk]  # (n_c, b): cell non-blank
            col_sum += (cells * exists).sum(axis=1)
            col_count += exists.sum(axis=1)
        nonblank = col_count > 0
        if not nonblank.any():
            return 0.0
        column_means = col_sum[nonblank] / col_count[nonblank]
        return float(column_means.mean())

    # ------------------------------------------------------------------
    # Batched kernels
    # ------------------------------------------------------------------
    def _class_values_block(
        self, tables: _ClassTables, qmat: np.ndarray
    ) -> np.ndarray:
        """BSTCE values of one class for a block of stacked queries.

        Column counts and black-dot contributions are two batched boolean
        matmuls.  The remaining cells reduce over *only* the non-blank
        (query, gene, inside-row) combinations: each such cell is one
        contiguous segment — the outside rows expressing its gene — of a
        flat gathered pair-value stream, combined with a single ``reduceat``
        per chunk.  Blank cells (inside row lacks the gene) never enter the
        stream, so the reduction work scales with the matrix density instead
        of the full ``n_c`` height.  Cell values accumulate through one
        final ``bincount`` over the whole block (not one per chunk), so the
        result is invariant to where the stream-budget chunking lands — the
        property that keeps this path bit-identical to the plan kernel,
        whose culled stream chunks at different boundaries.
        """
        n_b = qmat.shape[0]
        values = np.zeros(n_b, dtype=np.float64)
        relevant = qmat & tables.gene_mask[None, :]  # (B, n_items)
        if not relevant.any():
            return values
        rel_f = relevant.astype(np.float32)
        # Non-blank cells per column: |Q_b ∩ items(c)|.
        col_count = (rel_f @ tables.inside_f.T).astype(np.float64)  # (B, n_c)
        # Black dots (no outside row expresses the gene) are valued 1.
        col_sum = (
            (relevant & tables.blackdot_mask).astype(np.float32)
            @ tables.inside_f.T
        ).astype(np.float64)
        n_c, n_o = tables.inside.shape[0], tables.outside.shape[0]
        b_idx, g_idx = np.nonzero(relevant & (tables.outside_counts > 0))
        if b_idx.size:
            pair_values = self._pair_values_block(tables, qmat)  # (B, n_c, n_o)
            flat_pairs = pair_values.transpose(1, 0, 2).reshape(n_c, n_b * n_o)
            flat1 = flat_pairs.ravel()
            # Gene-major CSR of ``inside`` (precomputed at fit time): which
            # class rows express each gene — exactly the non-blank cells of
            # each (query, gene) pair.
            ins_c = tables.inside_rows
            ins_offsets = tables.inside_row_offsets
            rows_per_seg = ins_offsets[g_idx + 1] - ins_offsets[g_idx]
            keep = rows_per_seg > 0
            if not keep.all():
                b_idx = b_idx[keep]
                g_idx = g_idx[keep]
                rows_per_seg = rows_per_seg[keep]
        if b_idx.size:
            seg_lengths = tables.outside_counts[g_idx]
            seg_stream = rows_per_seg * seg_lengths
            cum_stream = np.cumsum(seg_stream)
            n_segs = g_idx.size
            code_chunks: List[np.ndarray] = []
            val_chunks: List[np.ndarray] = []
            # Chunk segments so the flat stream (values + index temporaries)
            # respects the element budget.
            stream_budget = max(1, _CELL_BUDGET >> 2)
            start_seg = 0
            while start_seg < n_segs:
                base = int(cum_stream[start_seg]) - int(seg_stream[start_seg])
                end_seg = int(
                    np.searchsorted(cum_stream, base + stream_budget, "left")
                ) + 1
                end_seg = min(max(end_seg, start_seg + 1), n_segs)
                g_ch = g_idx[start_seg:end_seg]
                b_ch = b_idx[start_seg:end_seg]
                rc_ch = rows_per_seg[start_seg:end_seg]
                len_ch = seg_lengths[start_seg:end_seg]
                # One cell per (segment, expressing inside row).
                cum_rc = np.cumsum(rc_ch)
                n_cells = int(cum_rc[-1])
                cell_seg = np.repeat(np.arange(end_seg - start_seg), rc_ch)
                cell_row = ins_c[
                    np.arange(n_cells, dtype=np.int64)
                    - np.repeat(cum_rc - rc_ch, rc_ch)
                    + np.repeat(ins_offsets[g_ch], rc_ch)
                ]
                # Each cell's segment: the outside rows expressing its gene,
                # gathered from query b's slice of the flat pair values.
                cell_len = len_ch[cell_seg]
                cum_e = np.cumsum(cell_len)
                e_starts = cum_e - cell_len
                total_e = int(cum_e[-1])
                # h_flat positions: one shifted arange per cell, expanded in
                # a single repeat (cell-level math stays tiny).
                h_base = tables.h_offsets[g_ch][cell_seg]
                pos = np.arange(total_e, dtype=np.int64) + np.repeat(
                    h_base - e_starts, cell_len
                )
                cell_base = cell_row * (n_b * n_o) + b_ch[cell_seg] * n_o
                flat_idx = np.repeat(cell_base, cell_len) + tables.h_flat[pos]
                cell_vals = self._reduce_segments(
                    flat1[flat_idx], e_starts, cell_len.astype(np.float32)
                ).astype(np.float64)
                code_chunks.append(b_ch[cell_seg] * n_c + cell_row)
                val_chunks.append(cell_vals)
                start_seg = end_seg
            codes = (
                code_chunks[0]
                if len(code_chunks) == 1
                else np.concatenate(code_chunks)
            )
            vals = (
                val_chunks[0]
                if len(val_chunks) == 1
                else np.concatenate(val_chunks)
            )
            # Accumulate each cell onto its (query, class) column sum.
            col_sum += np.bincount(
                codes, weights=vals, minlength=n_b * n_c
            ).reshape(n_b, n_c)
        nonblank = col_count > 0
        safe_count = np.where(nonblank, col_count, 1.0)
        column_means = np.where(nonblank, col_sum / safe_count, 0.0)
        n_cols = nonblank.sum(axis=1)
        has_cols = n_cols > 0
        values[has_cols] = column_means.sum(axis=1)[has_cols] / n_cols[has_cols]
        return values

    def _class_values_block_plan(
        self, pc: PlanClass, stream: CellStream, qmat: np.ndarray
    ) -> np.ndarray:
        """The plan-kernel form of :meth:`_class_values_block`, over the
        class's precomputed :class:`~repro.core.plan.CellStream`.

        Per block the work is the pair values, one gather of the selected
        cells' elements, one segment reduction and one ``bincount``.  The
        values are bit-identical to the legacy kernel: a cell's elements
        are the same outside rows (culled only under the idempotent
        ``min``), and every (query, class) bin still adds its cells in
        ascending gene order, starting from zero.
        """
        n_b = qmat.shape[0]
        values = np.zeros(n_b, dtype=np.float64)
        relevant = qmat & pc.gene_mask[None, :]  # (B, n_items)
        if not relevant.any():
            return values
        rel_f = relevant.astype(np.float32)
        col_count = (rel_f @ pc.inside_f.T).astype(np.float64)  # (B, n_c)
        col_sum = (
            (relevant & pc.blackdot_mask).astype(np.float32)
            @ pc.inside_f.T
        ).astype(np.float64)
        n_c = pc.inside.shape[0]
        # Stream genes all lie inside gene_mask, so qmat selects them.
        b_idx, g_idx = np.nonzero(qmat & (stream.gene_cell_len > 0))
        if b_idx.size:
            pair_values = self._pair_values_block_plan(pc, qmat).reshape(
                n_b, -1
            )  # (B, n_c·n_o)
            selected = int(stream.gene_elem_len[g_idx].sum())
            if selected * _WHOLE_STREAM_SHARE >= n_b * stream.n_elems:
                codes, vals = self._stream_cells(
                    stream, pair_values, qmat, n_c
                )
            else:
                codes, vals = self._run_cells(
                    stream, pair_values, b_idx, g_idx, n_c
                )
            # Accumulate each cell onto its (query, class) column sum.
            col_sum += np.bincount(
                codes, weights=vals, minlength=n_b * n_c
            ).reshape(n_b, n_c)
        nonblank = col_count > 0
        safe_count = np.where(nonblank, col_count, 1.0)
        column_means = np.where(nonblank, col_sum / safe_count, 0.0)
        n_cols = nonblank.sum(axis=1)
        has_cols = n_cols > 0
        values[has_cols] = column_means.sum(axis=1)[has_cols] / n_cols[has_cols]
        return values

    def _stream_cells(
        self,
        stream: CellStream,
        pair_values: np.ndarray,
        qmat: np.ndarray,
        n_c: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(bin codes, cell values)`` of a block's selected cells, by
        gathering the whole stream for every query and masking cells by
        query.  Chunked over cells so one chunk's ``(B, elements)`` gather
        stays within the element budget."""
        n_b = qmat.shape[0]
        budget = max(1, (_CELL_BUDGET >> 2) // n_b)
        n_cells = stream.cell_gene.size
        codes: List[np.ndarray] = []
        vals: List[np.ndarray] = []
        first = 0
        while first < n_cells:
            e0 = int(stream.cell_start[first])
            last = int(np.searchsorted(stream.cell_start, e0 + budget, "right"))
            last = max(last, first + 1)
            e1 = (
                int(stream.cell_start[last]) if last < n_cells
                else stream.n_elems
            )
            gathered = np.take(pair_values, stream.elem[e0:e1], axis=1)
            cell_vals = self._reduce_segments(
                gathered,
                stream.cell_start[first:last] - e0,
                stream.cell_len[first:last],
            )  # (B, cells)
            picked = qmat[:, stream.cell_gene[first:last]]
            b_sel, c_sel = np.nonzero(picked)
            codes.append(b_sel * n_c + stream.cell_row[first:last][c_sel])
            vals.append(cell_vals[picked])
            first = last
        return _join(codes), _join(vals)

    def _run_cells(
        self,
        stream: CellStream,
        pair_values: np.ndarray,
        b_idx: np.ndarray,
        g_idx: np.ndarray,
        n_c: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(bin codes, cell values)`` of a block's selected cells, by
        gathering each selected ``(query, gene)`` run of the stream with its
        own ``take``.  Runs come query-major in ascending gene order
        (``np.nonzero``) and are chunked so one chunk's gathered elements
        stay within the element budget."""
        run_elems = stream.gene_elem_len[g_idx]
        run_cells = stream.gene_cell_len[g_idx]
        ends = np.cumsum(run_elems)
        budget = max(1, _CELL_BUDGET >> 2)
        codes: List[np.ndarray] = []
        vals: List[np.ndarray] = []
        first = 0
        while first < g_idx.size:
            base = int(ends[first]) - int(run_elems[first])
            last = int(np.searchsorted(ends, base + budget, "right"))
            last = max(last, first + 1)
            genes, queries = g_idx[first:last], b_idx[first:last]
            elems, cells = run_elems[first:last], run_cells[first:last]
            gathered = np.concatenate([
                pair_values[b].take(stream.elem[e0:e0 + n])
                for b, e0, n in zip(
                    queries.tolist(),
                    stream.gene_elems[genes].tolist(),
                    elems.tolist(),
                )
            ])
            cell_at = _concat_ranges(stream.gene_cells[genes], cells)
            # Each cell's start, moved from the stream to the gathered run.
            starts = stream.cell_start[cell_at]
            starts += np.repeat(
                np.cumsum(elems) - elems - stream.gene_elems[genes], cells
            )
            vals.append(
                self._reduce_segments(
                    gathered, starts, stream.cell_len[cell_at]
                )
            )
            codes.append(
                np.repeat(queries * n_c, cells) + stream.cell_row[cell_at]
            )
            first = last
        return _join(codes), _join(vals)

    def classification_values(self, query: Query) -> np.ndarray:
        """CV(i) for every class, as Algorithm 6 line 4 computes them."""
        if self._integrity_guard is not None:
            self._integrity_guard()
        qvec = self._as_vector(query)
        with engine_counters.track("query"):
            engine_counters.increment("query_calls")
            return np.array(
                [
                    0.0
                    if entry is None
                    else self._class_value_from_vec(entry, qvec)
                    for entry in self._per_class()
                ],
                dtype=np.float64,
            )

    def classification_values_batch(
        self, queries: Union[Sequence[Query], np.ndarray]
    ) -> np.ndarray:
        """CV(i) for every class of every query — shape ``(n_queries,
        n_classes)``.

        Equivalent to stacking :meth:`classification_values` over the batch
        (their agreement is property-tested) but computed with batched
        matmuls and a gene reduction shared across each block of
        ``_BATCH_BLOCK`` queries.
        """
        if self._integrity_guard is not None:
            self._integrity_guard()
        qmat = self._as_matrix(queries)
        n_q = qmat.shape[0]
        out = np.zeros((n_q, self.dataset.n_classes), dtype=np.float64)
        if n_q == 0:
            return out
        with engine_counters.track("batch"):
            engine_counters.increment("batch_calls")
            engine_counters.increment("batch_queries", n_q)
            engine_counters.observe_max("max_batch_size", n_q)
            per_class = self._per_class()
            streams = (
                self._cell_streams() if self._tables is None
                else [None] * len(per_class)
            )
            for start in range(0, n_q, _BATCH_BLOCK):
                block = qmat[start : start + _BATCH_BLOCK]
                for class_id, entry in enumerate(per_class):
                    if entry is None:
                        continue
                    if isinstance(entry, PlanClass):
                        rows = self._class_values_block_plan(
                            entry, streams[class_id], block
                        )
                    else:
                        rows = self._class_values_block(entry, block)
                    out[start : start + _BATCH_BLOCK, class_id] = rows
        return out


# ----------------------------------------------------------------------
# Process-wide evaluator cache
# ----------------------------------------------------------------------

_EVALUATOR_CACHE: "OrderedDict[Tuple[str, str], FastBSTCEvaluator]" = OrderedDict()
_EVALUATOR_CACHE_SIZE = 8
#: Guards every cache mutation — batched serving may hit the evaluator cache
#: from multiple threads, and an unguarded OrderedDict reorder corrupts it.
_EVALUATOR_LOCK = threading.Lock()


def _evict_over_capacity_locked() -> None:
    while len(_EVALUATOR_CACHE) > _EVALUATOR_CACHE_SIZE:
        _EVALUATOR_CACHE.popitem(last=False)
        engine_counters.increment("evaluator_cache_evictions")


def set_evaluator_cache_size(size: int) -> None:
    """Rebound the evaluator cache, evicting LRU entries if it shrank.

    Each cached evaluator holds dense per-class matrices, so the entry
    limit is the cache's memory ceiling; memory-constrained deployments
    lower it, CV sweeps over many datasets may raise it.
    """
    if size < 1:
        raise ValueError("cache size must be >= 1")
    global _EVALUATOR_CACHE_SIZE
    with _EVALUATOR_LOCK:
        _EVALUATOR_CACHE_SIZE = size
        _evict_over_capacity_locked()


def get_evaluator(
    dataset: RelationalDataset, arithmetization: str = "min"
) -> FastBSTCEvaluator:
    """The LRU-cached :class:`FastBSTCEvaluator` for a dataset.

    Keyed on ``(dataset.fingerprint, arithmetization)`` — a content hash,
    not object identity — so repeated cross-validation phases, ablations
    over arithmetizations, and CLI invocations on identical training data
    reuse one set of per-class tables.  Lookups and mutations are
    lock-guarded (thread-safe); the expensive table build runs outside the
    lock, so concurrent first requests may build twice but the cache never
    blocks on a build.  Hit/miss/evict counts feed the shared
    :data:`repro.evaluation.timing.engine_counters`.
    """
    get_combiner(arithmetization)  # validate before hashing the dataset
    key = (dataset.fingerprint, arithmetization)
    with _EVALUATOR_LOCK:
        cached = _EVALUATOR_CACHE.get(key)
        if cached is not None:
            _EVALUATOR_CACHE.move_to_end(key)
            engine_counters.increment("evaluator_cache_hits")
            return cached
    engine_counters.increment("evaluator_cache_misses")
    evaluator = FastBSTCEvaluator(dataset, arithmetization)
    with _EVALUATOR_LOCK:
        existing = _EVALUATOR_CACHE.get(key)
        if existing is not None:
            # A concurrent build won the race; keep the cached one.
            _EVALUATOR_CACHE.move_to_end(key)
            return existing
        _EVALUATOR_CACHE[key] = evaluator
        _evict_over_capacity_locked()
    return evaluator


def register_evaluator(evaluator: FastBSTCEvaluator) -> FastBSTCEvaluator:
    """Seed the cache with an already-built evaluator (e.g. one restored
    from a model artifact), keyed like :func:`get_evaluator`.

    Returns the canonical instance: if an evaluator for the same
    ``(fingerprint, arithmetization)`` is already cached, that one wins and
    is returned, so artifact loads and in-memory fits converge on one
    evaluator per model.
    """
    key = (evaluator.dataset.fingerprint, evaluator.arithmetization)
    with _EVALUATOR_LOCK:
        existing = _EVALUATOR_CACHE.get(key)
        if existing is not None:
            _EVALUATOR_CACHE.move_to_end(key)
            return existing
        _EVALUATOR_CACHE[key] = evaluator
        _evict_over_capacity_locked()
    return evaluator


def clear_evaluator_cache() -> None:
    """Drop every cached evaluator (tests and memory-sensitive callers)."""
    with _EVALUATOR_LOCK:
        _EVALUATOR_CACHE.clear()


def discard_evaluator(fingerprint: str, arithmetization: str = "min") -> bool:
    """Evict one cached evaluator, e.g. after its artifact failed integrity
    verification — a poisoned entry must not serve later ``get_evaluator``
    calls.  Returns whether an entry was dropped."""
    with _EVALUATOR_LOCK:
        if _EVALUATOR_CACHE.pop((fingerprint, arithmetization), None) is not None:
            engine_counters.increment("evaluator_cache_discards")
            return True
    return False


def evaluator_cache_info() -> Tuple[int, int]:
    """``(entries, capacity)`` of the evaluator cache."""
    with _EVALUATOR_LOCK:
        return len(_EVALUATOR_CACHE), _EVALUATOR_CACHE_SIZE
