"""Vectorized BSTCE evaluation engine.

Computes the Algorithm 5 classification values of :mod:`repro.core.bstce`
(the paper-literal oracle; their agreement is property-tested) without ever
materializing BST cells, by exploiting the structure of exclusion lists:

* The shared list for a pair ``(c, h)`` is ``items(h) - items(c)`` (negated)
  or the fallback ``items(c) - items(h)`` (positive), so for a query ``Q``
  its satisfied-literal count follows from three inner products:
  ``|h ∩ Q|``, ``|c ∩ Q|``, and ``|c ∩ h ∩ Q|``.
* The cell ``(g, c)`` combines the pair values ``V[c, h]`` over the outside
  samples ``h`` expressing ``g`` (a black dot is the empty case, valued 1).

There is one kernel, :meth:`FastBSTCEvaluator.classification_values_batch`.
Per-class state lives in the compiled plan's flat structure-of-arrays
arena (:mod:`repro.core.plan`): fused pair weights, downcast dtypes,
duplicate-outside-row culling.  Per block of queries the dominant cost is
one stacked pair-count matmul per class — restricted to each query's own
expressed genes for sparse serving queries — then gathers of the
selected cells' elements, their reduction and a ``bincount``.  Dense
blocks value the class's :class:`~repro.core.plan.CellStream` (built once,
the first time a dense block needs it) with one fold per cell-length
bucket under ``min``/``product``; sparse blocks gather run by run,
addressed straight from the plan's CSR lists, so a sparse query never
pays for the stream.
:meth:`~FastBSTCEvaluator.classification_values` and
:meth:`~FastBSTCEvaluator.class_value` are a batch of one.

A query's values do not depend on the batch it rides in: every pair count
is small-integer float32 arithmetic (exact below 2**24), the single
rounding operation is the final ``sat / len`` division, and each (query,
class) column sum adds its cells in ascending gene order.  So every
in-process path — single query, any batch size, memory-mapped, eager or
delta-refreshed artifact, the micro-batching service — returns the same
bits.  Against the oracle the values agree within 2**-24 under ``min``
(each pair value is the correctly rounded float32 quotient of two exact
integers) and within 1e-5 under ``product`` and ``mean``.

Evaluators are cached process-wide by :func:`get_evaluator`, keyed on the
``(dataset fingerprint, arithmetization)`` pair, so repeated CV phases and
CLI invocations stop recompiling identical plans.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..datasets.dataset import RelationalDataset
from ..evaluation.timing import engine_counters
from .arithmetization import get_combiner
from .plan import (
    CellStream,
    EvaluationPlan,
    PlanClass,
    address_dtype,
    build_cell_stream,
    compile_plan,
    recompile_delta,
)

Query = Union[AbstractSet[int], np.ndarray]

#: Queries evaluated together inside one batched block.
_BATCH_BLOCK = 64
#: Element cap for a block's working arrays; a quarter of it bounds the
#: cell-stream elements one chunk gathers.
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
#: ``take`` per run, addressed straight from the plan's CSR lists (no
#: stream needed).  Both give the same cell values in the same order;
#: purely a cost model.  A third lies between the measured crossovers: the
#: whole stream wins from a share of ≈ 0.3 on ALL-profile queries (runs of
#: ~14 elements), and only from ≈ 0.5 on long-run (thousands of elements)
#: synthetic serving profiles.
_WHOLE_STREAM_SHARE = 3

#: Serializes the lazy cell-stream builds (module-level, so evaluators
#: stay picklable); a class's stream is built at most once per evaluator.
_STREAM_LOCK = threading.Lock()


def _join(pieces: List[np.ndarray]) -> np.ndarray:
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


class FastBSTCEvaluator:
    """Evaluates BSTCE classification values for every class of a dataset.

    Args:
        dataset: the (training) relational dataset.
        arithmetization: per-cell list combiner — ``min`` (Algorithm 5),
            ``product``, or ``mean`` (see :mod:`repro.core.arithmetization`).
    """

    def __init__(
        self, dataset: RelationalDataset, arithmetization: str = "min"
    ):
        get_combiner(arithmetization)  # shared validation + error message
        self.dataset = dataset
        self.arithmetization = arithmetization
        with engine_counters.track("plan_build"):
            self._plan = compile_plan(dataset, arithmetization)
        #: Deferred artifact verification (set by ``load_artifact`` under
        #: ``verify="lazy"``); runs before the first query's kernel work.
        self._integrity_guard = None
        self._streams: Dict[int, CellStream] = {}
        engine_counters.increment("evaluator_builds")

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
        self._integrity_guard = None
        self._streams = {}
        engine_counters.increment("evaluator_restores")
        return self

    @property
    def plan(self) -> EvaluationPlan:
        """The compiled evaluation plan the kernel evaluates from."""
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
            self._plan,
            dataset,
            int(self.dataset.n_samples),
            self.arithmetization,
        )
        return FastBSTCEvaluator._from_plan(
            dataset, self.arithmetization, plan
        )

    def _cell_stream(self, class_id: int) -> CellStream:
        """Class ``class_id``'s cell stream, built the first time a block
        of its queries takes the whole-stream method — a sparse query never
        pays for it.  Built under a lock, so concurrent first queries build
        it once; a stream is never stored in an artifact."""
        stream = self._streams.get(class_id)
        if stream is None:
            with _STREAM_LOCK:
                stream = self._streams.get(class_id)
                if stream is None:
                    stream = build_cell_stream(
                        self._plan.classes[class_id], self.arithmetization
                    )
                    self._streams[class_id] = stream
        return stream

    # ------------------------------------------------------------------
    def _as_vector(self, query: Query) -> np.ndarray:
        if isinstance(query, np.ndarray):
            if query.shape != (self.dataset.n_items,):
                raise ValueError(
                    f"query vector has shape {query.shape}, expected"
                    f" ({self.dataset.n_items},)"
                )
            return query.astype(bool)
        n_items = self.dataset.n_items
        # One C-level conversion; out-of-range ids are dropped.  Anything
        # but machine integers (an empty set, floats, ids past int64) takes
        # the per-item filter, so a float id still fails as an index.
        ids = np.array(tuple(query))
        if ids.dtype.kind not in "iu":
            ids = [i for i in query if 0 <= i < n_items]
        elif ids.size and (ids.min() < 0 or ids.max() >= n_items):
            ids = ids[(ids >= 0) & (ids < n_items)]
        vec = np.zeros(n_items, dtype=bool)
        vec[ids] = True
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
        """Expressed item columns of a batch of boolean queries, when
        restricting the pair-value matmuls to them saves real work.

        Every inner product behind the pair values only accumulates over
        items the batch expresses (the other terms are exact ``+0.0``), so
        for sparse batches the dominant ``(n_c x |G|) @ (|G| x n_o)``
        matmul shrinks to the expressed columns.  Returns ``None`` when the
        batch is dense enough (or the vocabulary small enough) that the
        full-width matmul is cheaper than slicing.
        """
        n_items = qmat.shape[1]
        if n_items < _SPARSE_MIN_ITEMS:
            return None
        cols = np.flatnonzero(qmat.any(axis=0))
        if cols.size > n_items // 2:
            return None
        return cols

    # ------------------------------------------------------------------
    # The batched plan kernel
    # ------------------------------------------------------------------
    def _pair_matrix(self, pc: PlanClass, qmat: np.ndarray) -> np.ndarray:
        """V[b, c, h] for a block of queries, as ``(B, n_c·n_o + 1)``:
        query-major, so query ``b``'s pair values are one contiguous row
        the cell stream's element addresses index directly.  The last slot
        of each row is the identity sentinel ``1.0`` a ``product`` stream
        pads its short cells with.

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
        out = np.empty((n_b, n_c * n_o + 1), dtype=np.float32)
        out[:, :-1] = values.reshape(n_b, -1)
        out[:, -1] = 1.0
        return out

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

    def _class_block_values(
        self, class_id: int, pc: PlanClass, qmat: np.ndarray
    ) -> np.ndarray:
        """BSTCE values of one class for a block of stacked queries.

        Column counts and black-dot contributions are two batched boolean
        matmuls.  The remaining cells are the non-blank, non-black-dot
        ``(query, gene, inside row)`` combinations: per block the work is
        the pair values, the selected cells' values — from the class's
        :class:`~repro.core.plan.CellStream` or run by run — and their
        ``bincount`` onto the column sums.  Every (query, class)
        bin adds its cells in ascending gene order, starting from zero, so
        a query's value does not depend on its batchmates or on which cell
        selection method ran.
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
        # One run per (query, gene) with cells: the gene's inside rows,
        # each combining the gene's (culled) outside rows.
        b_idx, g_idx = np.nonzero(relevant & pc.has_outside)
        if b_idx.size:
            pair_values = self._pair_matrix(pc, qmat)
            run_rows = pc.gene_rows[g_idx]
            run_len = pc.outside_counts[g_idx].astype(np.int64)
            selected = int(np.dot(run_rows, run_len))
            if selected * _WHOLE_STREAM_SHARE >= n_b * pc.stream_elems:
                col_sum += self._stream_cells(
                    self._cell_stream(class_id), pair_values, qmat, n_c
                )
            else:
                col_sum += self._run_cells(
                    pc, pair_values, b_idx, g_idx, run_rows, run_len
                )
        nonblank = col_count > 0
        safe_count = np.where(nonblank, col_count, 1.0)
        column_means = np.where(nonblank, col_sum / safe_count, 0.0)
        n_cols = nonblank.sum(axis=1)
        has_cols = n_cols > 0
        values[has_cols] = column_means.sum(axis=1)[has_cols] / n_cols[has_cols]
        return values

    def _stream_values(
        self, stream: CellStream, pair_values: np.ndarray
    ) -> np.ndarray:
        """``(B, n_cells)`` value of every stream cell for every query of a
        block, in stream order.

        A folded stream takes one gather and one ``reduce(axis=1)`` per
        length bucket — the same sequential left fold ``reduceat`` runs,
        so the same bits — then one ``take`` through ``restore``; a flat
        one (``mean``) one gather and one ``reduceat``.  Either way the
        gathers are chunked so one chunk's ``(B, elements)`` array stays
        within the element budget, splitting a bucket's columns if need
        be.
        """
        n_b = pair_values.shape[0]
        budget = max(1, (_CELL_BUDGET >> 2) // n_b)
        if stream.folded:
            fold = np.minimum if self.arithmetization == "min" else np.multiply
            # Seeded with an empty part: a stream may have no buckets.
            parts = [np.empty((n_b, 0), dtype=np.float32)]
            for elem in stream.buckets:
                width, n_bucket = elem.shape
                step = max(1, budget // width)
                for lo in range(0, n_bucket, step):
                    gathered = np.take(
                        pair_values, elem[:, lo:lo + step], axis=1
                    )  # (B, width, cells)
                    parts.append(fold.reduce(gathered, axis=1))
            return np.concatenate(parts, axis=1).take(stream.restore, axis=1)
        n_cells = stream.cell_gene.size
        vals = np.empty((n_b, n_cells), dtype=np.float32)
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
            vals[:, first:last] = self._reduce_segments(
                gathered,
                stream.cell_start[first:last] - e0,
                stream.cell_len[first:last],
            )
            first = last
        return vals

    def _stream_cells(
        self,
        stream: CellStream,
        pair_values: np.ndarray,
        qmat: np.ndarray,
        n_c: int,
    ) -> np.ndarray:
        """``(B, n_c)`` sums of a block's selected cell values, by valuing
        the whole stream for every query (:meth:`_stream_values`).  Cells
        of genes a query does not express are multiplied to ``+0.0`` (cell
        values are finite and non-negative), which leaves every sum exact,
        and each query's cells are summed in stream order by one
        ``bincount``."""
        vals = self._stream_values(stream, pair_values)
        vals *= qmat[:, stream.cell_gene]
        sums = np.empty((qmat.shape[0], n_c), dtype=np.float64)
        for b in range(qmat.shape[0]):
            sums[b] = np.bincount(
                stream.cell_row, weights=vals[b], minlength=n_c
            )
        return sums

    def _run_cells(
        self,
        pc: PlanClass,
        pair_values: np.ndarray,
        b_idx: np.ndarray,
        g_idx: np.ndarray,
        run_rows: np.ndarray,
        run_len: np.ndarray,
    ) -> np.ndarray:
        """``(B, n_c)`` sums of a block's selected cell values, by
        gathering each ``(query, gene)`` run with its own ``take``.

        A run is the gene's inside rows times its culled outside rows, so
        its addresses are one outer sum ``row·n_o + h`` over the plan's CSR
        lists: row-major, each cell's elements stay contiguous and in
        ``h_flat`` order, exactly as in the cell stream.  Runs come
        query-major in ascending gene order (``np.nonzero``) and are
        chunked so one chunk's gathered elements stay within the element
        budget.
        """
        n_c, n_o = pc.inside.shape[0], pc.outside.shape[0]
        row_dtype = address_dtype(n_c, n_o)
        run_elems = run_rows * run_len
        ends = np.cumsum(run_elems)
        budget = max(1, _CELL_BUDGET >> 2)
        codes: List[np.ndarray] = []
        vals: List[np.ndarray] = []
        first = 0
        while first < g_idx.size:
            base = int(ends[first]) - int(run_elems[first])
            last = int(np.searchsorted(ends, base + budget, "right"))
            last = max(last, first + 1)
            genes = g_idx[first:last]
            gathered: List[np.ndarray] = []
            rows: List[np.ndarray] = []
            for b, r0, r1, h0, m in zip(
                b_idx[first:last].tolist(),
                pc.inside_row_offsets[genes].tolist(),
                pc.inside_row_offsets[genes + 1].tolist(),
                pc.h_offsets[genes].tolist(),
                run_len[first:last].tolist(),
            ):
                run = pc.inside_rows[r0:r1]
                addresses = np.add.outer(
                    run.astype(row_dtype) * n_o, pc.h_flat[h0:h0 + m]
                )
                gathered.append(pair_values[b].take(addresses.ravel()))
                rows.append(run)
            cells = run_rows[first:last]
            cell_len = np.repeat(run_len[first:last], cells)
            vals.append(
                self._reduce_segments(
                    _join(gathered), np.cumsum(cell_len) - cell_len, cell_len
                )
            )
            codes.append(
                np.repeat(b_idx[first:last] * n_c, cells) + _join(rows)
            )
            first = last
        n_b = pair_values.shape[0]
        return np.bincount(
            _join(codes), weights=_join(vals), minlength=n_b * n_c
        ).reshape(n_b, n_c)

    def class_value(self, class_id: int, query: Query) -> float:
        """BSTCE(T(class_id), Q) — Algorithm 5's classification value."""
        return float(self.classification_values(query)[class_id])

    def classification_values(self, query: Query) -> np.ndarray:
        """CV(i) for every class, as Algorithm 6 line 4 computes them — a
        batch of one through :meth:`classification_values_batch`."""
        with engine_counters.track("query"):
            engine_counters.increment("query_calls")
            return self.classification_values_batch([query])[0]

    def classification_values_batch(
        self, queries: Union[Sequence[Query], np.ndarray]
    ) -> np.ndarray:
        """CV(i) for every class of every query — shape ``(n_queries,
        n_classes)``.

        Computed with batched matmuls and a gene reduction shared across
        each block of ``_BATCH_BLOCK`` queries; each row is bit-identical
        to that query's batch of one.
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
            for start in range(0, n_q, _BATCH_BLOCK):
                block = qmat[start : start + _BATCH_BLOCK]
                for class_id, pc in enumerate(self._plan.classes):
                    if pc is None:
                        continue
                    out[start : start + _BATCH_BLOCK, class_id] = (
                        self._class_block_values(class_id, pc, block)
                    )
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
    reuse one compiled plan.  Lookups and mutations are
    lock-guarded (thread-safe); the expensive plan compile runs outside the
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
