"""Vectorized BSTCE evaluation engine.

Computes the Algorithm 5 classification values of :mod:`repro.core.bstce`
(the paper-literal oracle; their agreement is property-tested) without ever
materializing BST cells, by exploiting the structure of exclusion lists:

* The shared list for a pair ``(c, h)`` is ``items(h) - items(c)`` (negated)
  or the fallback ``items(c) - items(h)`` (positive), so for a query ``Q``
  its satisfied-literal count follows from three counts: ``|h ∩ Q|``,
  ``|c ∩ Q|`` and ``|c ∩ h ∩ Q|``, and its value is ``V[c, h] = sat / len``.
* The cell ``(g, c)`` combines ``V[c, h]`` over the outside samples ``h``
  expressing ``g`` (a black dot is the empty case, valued 1).

There is one kernel, :meth:`FastBSTCEvaluator.classification_values_batch`,
over the compiled plan's four-member arena (:mod:`repro.core.plan`).  Per
class and block of queries it compacts the row blocks to the queries' own
expressed columns, computes the three counts and ``V``, then one exact
method per arithmetization:

* ``min`` (the paper's Algorithm 5): sort each inside row's outside rows
  by ``V``.  A gene's cell value is ``V`` at the first sorted row that
  expresses it, so the row's cell sum is ``Σ_k V_(k) · new_k``, where
  ``new_k`` counts the query genes of ``c`` that row ``k`` covers first:
  one cumulative ``bitwise_or`` over the packed outside rows and one
  popcount per ``(c, k)``.  Duplicate outside rows change nothing.
* ``mean``: the cell values are ``(V @ O_Q) / cnt`` (``O_Q`` the outside
  rows on the query's columns, ``cnt`` their column counts).
* ``product``: ``exp(log V @ O_Q)``, zeroed where a zero-count matmul
  finds a ``V = 0`` factor.

:meth:`~FastBSTCEvaluator.classification_values` and
:meth:`~FastBSTCEvaluator.class_value` are a batch of one.

A query's values do not depend on the batch it rides in.  Every count is
small-integer arithmetic, the single rounding operation is the ``sat /
len`` division, and under ``min`` every float64 cell sum is exact (the
bound is :data:`~repro.core.plan.EXACT_SUM_BITS`), so any summation order
gives the same bits; ``product`` and ``mean`` run one query at a time,
with shapes that depend only on that query.  So every in-process path —
single query, any batch size, memory-mapped, eager or delta-refreshed
artifact, the micro-batching service — returns the same bits.  Against
the oracle the values agree within 2**-24 under ``min`` (each pair value
is the correctly rounded float32 quotient of two exact integers) and
within 1e-5 under ``product`` and ``mean``.

Evaluators are cached process-wide by :func:`get_evaluator`, keyed on the
``(dataset fingerprint, arithmetization)`` pair, so repeated CV phases and
CLI invocations stop recompiling identical plans.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import AbstractSet, Sequence, Tuple, Union

import numpy as np

from ..datasets.dataset import RelationalDataset
from ..evaluation.timing import engine_counters
from .arithmetization import get_combiner
from .bitset import popcount
from .plan import EvaluationPlan, PlanClass, compile_plan, recompile_delta

Query = Union[AbstractSet[int], np.ndarray]

#: Queries evaluated together inside one batched block.
_BATCH_BLOCK = 64
#: Word budget (8-byte elements) of a block's largest working arrays: a
#: block is split into groups of queries whose compacted row blocks and
#: gathered ``min`` words fit in it, and a group's gathered words are
#: split by inside rows.  Purely a memory bound; values never depend on it.
_WORD_BUDGET = 1 << 18


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
            self._plan = compile_plan(dataset)
        #: Deferred artifact verification (set by ``load_artifact`` under
        #: ``verify="lazy"``); runs before the first query's kernel work.
        self._integrity_guard = None
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
            self._plan, dataset, int(self.dataset.n_samples)
        )
        return FastBSTCEvaluator._from_plan(
            dataset, self.arithmetization, plan
        )

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

    # ------------------------------------------------------------------
    # The batched plan kernel
    # ------------------------------------------------------------------
    def _class_block_values(
        self, pc: PlanClass, columns: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """BSTCE values of one class for a block of stacked queries.

        Column ``c`` of the class's BST holds the query genes inside row
        ``c`` expresses: one per black dot plus the cell values.  The
        class value is the mean of the non-blank columns' means.  ``min``
        evaluates groups of queries together, as many as the word budget
        holds; ``product`` and ``mean`` one query at a time.  ``columns``
        and ``counts`` are :func:`_query_columns` of the block.
        """
        n_b = columns.shape[0]
        n_c, n_o = pc.pair_len.shape
        if self.arithmetization == "min":
            width = columns.shape[1]
            per_query = (n_c + n_o) * width // 2 + n_c * n_o * (width // 64)
            step = max(1, _WORD_BUDGET // max(per_query, 1))
        else:
            step = 1
        col_count = np.empty((n_b, n_c), dtype=np.float64)
        col_sum = np.empty((n_b, n_c), dtype=np.float64)
        for lo in range(0, n_b, step):
            hi = min(lo + step, n_b)
            width = _padded_width(int(counts[lo:hi].max()))
            ins, outs = _compact(pc, columns[lo:hi, :width], counts[lo:hi])
            values, cq = _pair_values(pc, ins, outs)
            col_count[lo:hi] = cq
            if self.arithmetization == "min":
                cells, covered = _min_cell_sums(values, ins, outs)
                # Genes of c no outside row expresses are black dots.
                col_sum[lo:hi] = (cq - covered) + cells
            else:
                col_sum[lo] = _closed_form_column_sums(
                    self.arithmetization, values[0], ins[0], outs[0]
                )
        nonblank = col_count > 0
        safe_count = np.where(nonblank, col_count, 1.0)
        column_means = np.where(nonblank, col_sum / safe_count, 0.0)
        n_cols = nonblank.sum(axis=1)
        has_cols = n_cols > 0
        values = np.zeros(n_b, dtype=np.float64)
        values[has_cols] = column_means.sum(axis=1)[has_cols] / n_cols[has_cols]
        return values

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

        Evaluated in blocks of ``_BATCH_BLOCK`` queries; each row is
        bit-identical to that query's batch of one.
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
                columns, counts = _query_columns(
                    qmat[start : start + _BATCH_BLOCK]
                )
                for class_id, pc in enumerate(self._plan.classes):
                    if pc is None:
                        continue
                    out[start : start + _BATCH_BLOCK, class_id] = (
                        self._class_block_values(pc, columns, counts)
                    )
        return out


# ----------------------------------------------------------------------
# Kernel stages
# ----------------------------------------------------------------------


def _padded_width(n_columns: int) -> int:
    """``n_columns`` rounded up to whole 64-bit words (at least one)."""
    return 64 * max(1, -(-n_columns // 64))


def _query_columns(qmat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(columns, counts)`` of a block of queries: each query's expressed
    item ids in ascending order, as a ``(B, width)`` index array padded
    past ``counts[b]`` (the padding is masked out by :func:`_compact`)."""
    counts = np.count_nonzero(qmat, axis=1)
    width = _padded_width(int(counts.max()))
    columns = np.zeros((qmat.shape[0], width), dtype=np.intp)
    columns[np.arange(width) < counts[:, None]] = np.nonzero(qmat)[1]
    return columns, counts


def _compact(
    pc: PlanClass, columns: np.ndarray, counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The class's row blocks on each query's own columns: ``(B, n_c, w)``
    and ``(B, n_o, w)`` C-ordered bool, every column past a query's count
    an all-false sentinel, so no count changes."""
    valid = (np.arange(columns.shape[1]) < counts[:, None])[:, None, :]
    blocks = []
    for rows in (pc.inside, pc.outside):
        block = np.ascontiguousarray(rows[:, columns].transpose(1, 0, 2))
        block &= valid
        blocks.append(block)
    return blocks[0], blocks[1]


def _pair_values(
    pc: PlanClass, ins: np.ndarray, outs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(V, |c ∩ Q|)``: every pair value ``V[b, c, h]`` as float32 and
    each inside row's query-gene count, ``(B, n_c)``.  The counts are
    small integers, exact in float32, so the single rounding is
    ``sat / len``."""
    ins_f = ins.astype(np.float32)
    outs_f = outs.astype(np.float32)
    chq = np.matmul(ins_f, outs_f.transpose(0, 2, 1))   # |c ∩ h ∩ Q|
    cq = ins_f.sum(axis=2)
    hq = outs_f.sum(axis=2)
    sat = np.where(
        pc.pair_neg, pc.pair_len - (hq[:, None, :] - chq), cq[:, :, None] - chq
    )
    values = np.divide(
        sat, pc.pair_len, out=np.zeros(sat.shape, dtype=sat.dtype),
        where=pc.pair_len > 0,
    )
    return values.astype(np.float32, copy=False), cq


def _pack(bits: np.ndarray) -> np.ndarray:
    """C-ordered bool rows of a whole number of 64-column words as
    ``uint64`` words (the bit order is immaterial: every row of a block
    packs the same way)."""
    return np.packbits(bits, axis=-1).view(np.uint64)


def _min_cell_sums(
    values: np.ndarray, ins: np.ndarray, outs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(cell sums, covered genes)`` per ``(query, inside row)`` under
    ``min``, both ``(B, n_c)``.

    Sorting row ``c``'s outside rows by ``V`` puts each gene's minimum at
    the first sorted row expressing it, so with ``cover_k`` the query
    genes of ``c`` the first ``k`` sorted rows express (one cumulative
    ``bitwise_or`` and a popcount), the cell sum is ``Σ_k V_(k) ·
    (cover_k - cover_(k-1))``.  Every term and partial sum is exact in
    float64 within :data:`~repro.core.plan.EXACT_SUM_BITS`, so neither
    the order of equal values nor the chunking changes a bit.  The
    gathered words are processed in chunks of inside rows within the word
    budget.
    """
    n_b, n_c, n_o = values.shape
    if n_o == 0:
        zeros = np.zeros((n_b, n_c), dtype=np.int64)
        return zeros.astype(np.float64), zeros
    n_rows = n_b * n_c
    outside_words = _pack(outs)                       # (B, n_o, words)
    n_words = outside_words.shape[2]
    outside_words = outside_words.reshape(n_b * n_o, n_words)
    inside_words = _pack(ins).reshape(n_rows, 1, n_words)
    # Each row's outside rows by ascending V, as rows of outside_words.
    order = np.argsort(values, axis=2).reshape(n_rows, n_o)
    if n_b > 1:
        order += np.repeat(np.arange(0, n_b * n_o, n_o), n_c)[:, None]
    sorted_values = np.sort(values, axis=2).reshape(n_rows, n_o)
    cells = np.empty(n_rows, dtype=np.float64)
    covered = np.empty(n_rows, dtype=np.int64)
    step = max(1, _WORD_BUDGET // (n_o * n_words))
    for lo in range(0, n_rows, step):
        rows = slice(lo, lo + step)
        words = outside_words.take(order[rows], axis=0)  # (rows, n_o, words)
        np.bitwise_or.accumulate(words, axis=1, out=words)
        words &= inside_words[rows]
        cover = popcount(words).sum(axis=2, dtype=np.int64)
        covered[rows] = cover[:, -1]
        cover[:, 1:] -= cover[:, :-1]                 # newly covered genes
        cells[rows] = (sorted_values[rows] * cover).sum(axis=1)
    return cells.reshape(n_b, n_c), covered.reshape(n_b, n_c)


def _closed_form_column_sums(
    arithmetization: str, values: np.ndarray, ins: np.ndarray,
    outs: np.ndarray,
) -> np.ndarray:
    """``(n_c,)`` column sums of one query under ``mean`` or ``product``,
    black dots included, in float64.

    With ``O`` the outside rows on the query's columns and ``cnt`` its
    column counts, a cell's ``mean`` is ``(V @ O) / cnt`` and its
    ``product`` ``exp(log V @ O)``, zeroed where ``(V = 0) @ O`` finds a
    zero factor; a column no outside row expresses is a black dot, 1.
    """
    o = outs.astype(np.float64)
    v = values.astype(np.float64)
    counts = o.sum(axis=0)
    if arithmetization == "mean":
        cells = np.divide(
            v @ o, counts, out=np.ones((v.shape[0], o.shape[1])),
            where=counts > 0,
        )
    else:
        zero = v == 0.0
        cells = np.exp(np.log(np.where(zero, 1.0, v)) @ o)
        cells[(zero.astype(np.float64) @ o) > 0] = 0.0
    return (cells * ins).sum(axis=1)


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
