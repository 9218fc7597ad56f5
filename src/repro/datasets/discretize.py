"""Entropy-minimized discretization (Fayyad–Irani MDLP).

Section 6 discretizes every dataset with "the entropy-minimized partition"
(the R ``dprep`` package's implementation of Fayyad & Irani's recursive MDL
partitioning).  This module implements it from scratch:

* per gene, candidate cut points are boundary midpoints of the sorted values;
* the cut minimizing class-information entropy is accepted iff its gain
  passes the MDL criterion, then both halves recurse;
* ``EntropyDiscretizer`` fits many genes at once in two stages, with the
  same cut points, to the bit, as the per-gene :func:`mdlp_cut_points`:
  stage 1 (``_mdlp_block``) takes column blocks (one unstable sort per
  gene row, integer prefix counts, depth-0 scores and one vectorised MDL
  test) and keeps the genes whose depth-0 cut is accepted; stage 2
  (``_deeper_cuts``) runs every deeper depth once per batch of kept genes
  gathered across blocks.  Every entropy either stage needs is read from
  one table per fit (``_depth_zero``);
* genes with no accepted cut carry no class information and are dropped —
  Table 3's "Genes After Discretization" column counts the survivors;
* every ``(gene, interval)`` pair becomes a boolean item; a sample expresses
  exactly the item of the interval containing its measurement.

Fitting happens on training data only; transforming a test sample reuses the
training cut points (Section 6.2's protocol).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    Callable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .dataset import DatasetError, ExpressionMatrix, RelationalDataset


def class_entropy(counts: np.ndarray) -> float:
    """Shannon entropy (bits) of a class-count vector."""
    total = counts.sum()
    if total == 0:
        return 0.0
    probs = counts[counts > 0] / total
    return float(-(probs * np.log2(probs)).sum())


# Genes fitted together by one pass of :func:`_mdlp_block`, and the most
# kept genes one pass of :func:`_deeper_cuts` takes.  A pass holds
# O(n_samples × _GENE_BLOCK) values (the sorted block, its depth-0 keys and
# score ranks, and n_classes − 1 rows of int16 prefix counts), which bounds
# the fit's peak memory whatever the gene count; the fit's table
# (_depth_zero) is never larger than one block's depth-0 keys.
_GENE_BLOCK = 512


def _side_entropy(counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Entropy (bits) of ranges holding ``sizes`` samples, ``counts[c]`` of
    class ``c`` (class axis first).

    The class terms are summed in class order by this loop, not by a numpy
    reduction whose order depends on the array's shape, so the per-gene
    reference and the block kernel score a cut to the same bits.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return -sum(
            np.where(c > 0, (c / sizes) * np.log2(c / sizes), 0.0)
            for c in counts
        )


def _cut_threshold(below, above):
    """Threshold between sorted neighbours ``below < above`` (scalar or array).

    The midpoint of two adjacent doubles can round up to ``above``; the
    split ``value <= threshold`` would then disagree with the partition that
    was scored, so ``below`` is used instead.
    """
    mid = (below + above) / 2.0
    return np.where(mid < above, mid, below)


def _mdl_accepts(
    n: int,
    parent_entropy: float,
    weighted: float,
    e_left: float,
    e_right: float,
    k: int,
    k1: int,
    k2: int,
) -> bool:
    """Fayyad & Irani's (1993) MDL acceptance test for the best cut of an
    ``n``-sample range with ``k`` classes (``k1``/``k2`` on each side)."""
    gain = parent_entropy - weighted
    if gain <= 0:
        return False
    # MDL criterion: gain must exceed (log2(n-1) + delta) / n.
    delta = math.log2(3**k - 2) - (
        k * parent_entropy - k1 * e_left - k2 * e_right
    )
    return gain > (math.log2(n - 1) + delta) / n


def _best_cut(
    values: np.ndarray, labels: np.ndarray, n_classes: int
) -> Optional[Tuple[float, int]]:
    """Best boundary cut of one (sub)range, or None when no cut exists.

    Returns ``(threshold, position)`` where samples with value <= threshold
    fall left.  Implements the MDL acceptance test of Fayyad & Irani (1993).
    """
    n = values.size
    if n < 2:
        return None
    order = np.argsort(values, kind="mergesort")
    sorted_values = values[order]
    sorted_labels = labels[order]

    # Prefix class counts: prefix[c, i] = class-c count of the first i + 1
    # samples.
    onehot = np.zeros((n_classes, n), dtype=np.float64)
    onehot[sorted_labels, np.arange(n)] = 1.0
    prefix = np.cumsum(onehot, axis=1)
    total = prefix[:, -1]

    # Candidate positions: between distinct adjacent values.
    distinct = sorted_values[1:] > sorted_values[:-1]
    candidates = np.flatnonzero(distinct) + 1  # cut before index `pos`
    if candidates.size == 0:
        return None

    left = prefix[:, candidates - 1]
    right = total[:, None] - left
    n_left = candidates.astype(np.float64)
    n_right = n - n_left
    e_left = _side_entropy(left, n_left)
    e_right = _side_entropy(right, n_right)
    weighted = (n_left * e_left + n_right * e_right) / n
    best = int(np.argmin(weighted))
    pos = int(candidates[best])

    if not _mdl_accepts(
        n,
        class_entropy(total),
        weighted[best],
        e_left[best],
        e_right[best],
        int((total > 0).sum()),
        int((left[:, best] > 0).sum()),
        int((right[:, best] > 0).sum()),
    ):
        return None
    threshold = _cut_threshold(sorted_values[pos - 1], sorted_values[pos])
    return float(threshold), pos


def mdlp_cut_points(
    values: Sequence[float], labels: Sequence[int], n_classes: int
) -> List[float]:
    """All accepted MDLP cut points for one gene, ascending.

    An empty result means the gene is dropped by the discretizer.  This is
    the per-gene recursion; :class:`EntropyDiscretizer` fits whole blocks of
    genes with :func:`_mdlp_block`, which returns the same cuts.
    """
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    cuts: List[float] = []

    def recurse(value_slice: np.ndarray, label_slice: np.ndarray) -> None:
        found = _best_cut(value_slice, label_slice, n_classes)
        if found is None:
            return
        threshold, _ = found
        cuts.append(threshold)
        left_mask = value_slice <= threshold
        recurse(value_slice[left_mask], label_slice[left_mask])
        recurse(value_slice[~left_mask], label_slice[~left_mask])

    recurse(values, labels)
    return sorted(cuts)


def _mdl_accepts_all(
    size: np.ndarray,
    parent: np.ndarray,
    weighted: np.ndarray,
    e_left: np.ndarray,
    e_right: np.ndarray,
    k: np.ndarray,
    k1: np.ndarray,
    k2: np.ndarray,
) -> np.ndarray:
    """:func:`_mdl_accepts` of every range at once, to the same bits.

    The arithmetic is float64 ``+ - * /`` in the order :func:`_mdl_accepts`
    uses, which IEEE rounds exactly as Python floats; the two logarithms
    come from ``math.log2``, one call per distinct ``size`` and per class
    count up to the largest ``k``.
    """
    sizes, at = np.unique(size, return_inverse=True)
    log2_n = np.array([math.log2(m - 1) for m in sizes.tolist()])[at]
    log2_k = np.array([math.log2(3**c - 2) for c in range(1, k.max() + 1)])
    gain = parent - weighted
    delta = log2_k[k - 1] - (k * parent - k1 * e_left - k2 * e_right)
    return (gain > 0) & (gain > (log2_n + delta) / size)


def _class_rows(head: np.ndarray, size) -> np.ndarray:
    """Class counts of ranges holding ``size`` samples, class axis first,
    from ``head``, the counts of every class but the last: the last class
    counts ``size − Σ head``.  The integers are exact."""
    last = (size - head.sum(axis=0)).astype(head.dtype)
    return np.concatenate([head, last[None]])


@dataclass(frozen=True)
class _DepthZero:
    """What every gene of one fit shares at depth 0, and the fit's table
    of entropies.

    At depth 0 each gene's range is its whole column, so all genes have
    the class totals ``totals``, the parent entropy ``parent``, and a cut
    whose scores depend only on its left class-count vector ``l``: one
    point of the box ``0 <= l[c] <= totals[c]``.  ``weighted``,
    ``e_left`` and ``e_right`` hold the scores of every point of the box
    at ``Σ_c l[c] · strides[c]`` (:meth:`keys`), and ``rank`` the rank of
    each ``weighted`` among them (equal scores share one).  All are None
    when the box has more points than one block's dense score array,
    ``(n − 1) · _GENE_BLOCK``; blocks then score every (gene, position)
    pair densely.

    ``e_left[key(v)]`` is ``_side_entropy(v, Σ v)`` for every point ``v``
    of the box, and the class counts of every range the recursion visits
    at any depth, and of either side of its cuts, lie in that box: the
    deeper depths read every entropy from it (:meth:`entropies`), or
    compute it when there is no table.
    """

    totals: np.ndarray
    parent: float
    strides: Optional[np.ndarray]
    weighted: Optional[np.ndarray]
    e_left: Optional[np.ndarray]
    e_right: Optional[np.ndarray]
    rank: Optional[np.ndarray]

    def keys(self, head: np.ndarray, size) -> np.ndarray:
        """Table index ``Σ_c v[c] · strides[c]`` of the count vectors ``v``
        holding ``size`` samples whose every class but the last counts
        ``head`` (class axis first).

        The last class's count is ``size − Σ head``, so its stride (1)
        folds into ``size`` and every other class's into ``stride − 1``.
        """
        key = np.multiply(head[0], self.strides[0] - 1)
        key += size
        for counts, stride in zip(head[1:], self.strides[1:-1]):
            key += counts * (stride - 1)
        return key

    def entropies(self, head: np.ndarray, size: np.ndarray) -> np.ndarray:
        """:func:`_side_entropy` of the count vectors of :meth:`keys`: one
        gather from the table, or computed when the fit has none."""
        if self.e_left is None:
            return _side_entropy(
                _class_rows(head, size), size.astype(np.float64)
            )
        return self.e_left[self.keys(head, size)]

    def best_cuts(
        self, prefix: np.ndarray, distinct: np.ndarray
    ) -> Tuple[np.ndarray, ...]:
        """``(gene, pos, weighted, e_left, e_right)``: the first minimum of
        every gene's whole row that has a candidate, with its scores."""
        n = prefix.shape[2] - 1
        if self.weighted is None:
            position = np.arange(1, n)
            left = _class_rows(prefix[:, :, 1:n], position)
            n_left = position.astype(np.float64)
            n_right = n - n_left
            e_left = _side_entropy(left, n_left)
            right = self.totals.astype(left.dtype)[:, None, None] - left
            del left
            e_right = _side_entropy(right, n_right)
            del right
            weighted = (n_left * e_left + n_right * e_right) / n
            order, worst = weighted, np.inf
        else:
            position = np.broadcast_to(np.arange(1, n), distinct.shape)
            key = self.keys(prefix[:, :, 1:n], position)
            order, worst = self.rank[key], self.rank.size
        order[~distinct] = worst
        gene = np.flatnonzero(distinct.any(axis=1))
        at = order.argmin(axis=1)[gene]  # first minimum, as in _best_cut
        if self.weighted is None:
            scores = weighted[gene, at], e_left[gene, at], e_right[gene, at]
        else:
            hit = key[gene, at]
            scores = self.weighted[hit], self.e_left[hit], self.e_right[hit]
        return (gene, at + 1, *scores)


def _depth_zero(labels: np.ndarray, n_classes: int) -> _DepthZero:
    """The :class:`_DepthZero` of a fit on ``labels``, built once per fit.

    Each table entry is scored by :func:`_side_entropy` and the weighted
    sum of :func:`_best_cut` on the same operand values as the dense
    scoring (integer counts, float64 sizes), so it holds the same bits.
    """
    n = labels.size
    totals = np.bincount(labels, minlength=n_classes)
    parent = class_entropy(totals)
    box = totals + 1
    if math.prod(box.tolist()) > (n - 1) * _GENE_BLOCK:
        return _DepthZero(totals, parent, None, None, None, None, None)
    left = np.indices(box).reshape(n_classes, -1)
    n_left = left.sum(axis=0).astype(np.float64)
    n_right = n - n_left
    e_left = _side_entropy(left, n_left)
    e_right = _side_entropy(totals[:, None] - left, n_right)
    weighted = (n_left * e_left + n_right * e_right) / n
    # C-order strides of np.indices' box: the last class's is 1.
    strides = np.append(np.cumprod(box[:0:-1])[::-1], 1)
    # Equal scores share a rank, so the first minimum of the ranks is the
    # first minimum of the scores.
    rank = np.unique(weighted, return_inverse=True)[1]
    rank = rank.astype(np.min_scalar_type(rank.size))
    return _DepthZero(totals, parent, strides, weighted, e_left, e_right, rank)


def _best_range_cuts(
    prefix: np.ndarray,
    distinct: np.ndarray,
    gene: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    depth_zero: _DepthZero,
) -> Tuple[np.ndarray, ...]:
    """Best cut of every sorted range ``[lo, hi)`` of ``gene``, in one flat
    pass over all (range, candidate position) pairs.

    Every entropy (each side of every pair, and each range's parent) is
    read from the fit's table, or computed when it has none
    (:meth:`_DepthZero.entropies`); no ``log2`` is taken per pair.  Returns
    ``(gene, lo, hi, pos, parent, weighted, e_left, e_right)`` for the
    ranges that have a candidate, with the scores taken at ``pos``.
    """
    n_heads, _, stride = prefix.shape
    width = hi - lo - 1
    seg = np.repeat(np.arange(gene.size), width)
    pos = np.arange(seg.size) - np.repeat(np.cumsum(width) - width, width)
    pos += lo[seg] + 1
    candidate = distinct[gene[seg], pos - 1]
    seg, pos = seg[candidate], pos[candidate]

    # Range counts are prefix differences, gathered from the flat prefix.
    counts = prefix.reshape(n_heads, -1)
    row = gene * stride
    base = counts[:, row + lo]
    total = counts[:, row + hi] - base
    size = hi - lo
    parent = depth_zero.entropies(total, size)
    head = counts[:, row[seg] + pos] - base[:, seg]
    in_left = pos - lo[seg]
    in_right = size[seg] - in_left
    e_left = depth_zero.entropies(head, in_left)
    e_right = depth_zero.entropies(total[:, seg] - head, in_right)
    weighted = (in_left * e_left + in_right * e_right) / size[seg]

    # First minimum per range, as np.argmin takes in _best_cut: the
    # lowest candidate position whose score equals the range's minimum.
    # ``seg`` ascends, so each range's candidates are one contiguous run.
    first = np.diff(seg, prepend=-1) != 0
    run = np.cumsum(first) - 1
    lowest = np.minimum.reduceat(weighted, np.flatnonzero(first))
    hit = np.flatnonzero(weighted == lowest[run])
    best = hit[np.diff(run[hit], prepend=-1) != 0]
    ranges = seg[best]
    return (
        gene[ranges],
        lo[ranges],
        hi[ranges],
        pos[best],
        parent[ranges],
        weighted[best],
        e_left[best],
        e_right[best],
    )


def _accepted(
    prefix: np.ndarray,
    gene: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    pos: np.ndarray,
    scores: Sequence[np.ndarray],
) -> np.ndarray:
    """:func:`_mdl_accepts_all` of the cut ``pos`` of every range
    ``[lo, hi)`` of ``gene``, with ``scores`` = ``(parent, weighted,
    e_left, e_right)`` and the class counts read from ``prefix``."""
    base = prefix[:, gene, lo]
    total = _class_rows(prefix[:, gene, hi] - base, hi - lo)
    left = _class_rows(prefix[:, gene, pos] - base, pos - lo)
    return _mdl_accepts_all(
        hi - lo,
        *scores,
        (total > 0).sum(axis=0),
        (left > 0).sum(axis=0),
        (total - left > 0).sum(axis=0),
    )


class _Kept(NamedTuple):
    """The genes of a block whose depth-0 cut passed the MDL test, with
    what the deeper depths read of them; gene axis first (``prefix``'s
    second).

    ``genes`` are column indices in the fit, ``pos``/``threshold`` the
    depth-0 cut, ``prefix``/``distinct``/``ordered`` the rows of the
    block's prefix counts, candidate mask and sorted values.
    """

    genes: np.ndarray
    pos: np.ndarray
    threshold: np.ndarray
    prefix: np.ndarray
    distinct: np.ndarray
    ordered: np.ndarray

    def take(self, rows) -> "_Kept":
        return _Kept(
            *(a[:, rows] if a.ndim == 3 else a[rows] for a in self)
        )

    @staticmethod
    def join(parts: Sequence["_Kept"]) -> "_Kept":
        return _Kept(
            *(
                np.concatenate(field, axis=1 if field[0].ndim == 3 else 0)
                for field in zip(*parts)
            )
        )


def _mdlp_block(
    values: np.ndarray,
    labels: np.ndarray,
    depth_zero: _DepthZero,
    first_gene: int,
) -> _Kept:
    """Stage 1 of the batched MDLP: the genes of ``values`` (samples ×
    genes, columns ``first_gene`` onwards) with an accepted depth-0 cut.

    ``labels`` are the class ids in the narrowest unsigned dtype, of at
    least two samples and two classes (a fit with fewer has no cut), and
    ``depth_zero`` (:func:`_depth_zero` of them) is built once per fit and
    serves every block of it.  The deeper depths run later, on batches of
    kept genes gathered across blocks (:func:`_deeper_cuts`); together
    they give every column the cuts of :func:`mdlp_cut_points`.

    Every range the recursion visits is a contiguous slice of the column's
    sort order: a cut falls only between *distinct* neighbours, and NaNs
    sort last, so ``value <= threshold`` is exactly a sorted prefix.  The
    sort need not be stable.  Each range ``[lo, hi)`` starts and ends at a
    distinct boundary (or the column's ends), so a tie group never
    straddles a candidate or a range end, and the class counts there do
    not depend on the order inside a tie.  The block is therefore
    transposed to gene rows, sorted once per row, and each range's class
    counts are differences of one integer prefix-count array.  The sorted
    values are the rows sorted in place: they equal the argsort's up to
    the sign of a zero, which neither the candidates nor the thresholds
    see.  Depth 0 reads every (gene, position) score from the fit's table
    (or scores densely, :meth:`_DepthZero.best_cuts`), and the MDL test
    of every gene's best cut is one vectorised pass
    (:func:`_mdl_accepts_all`).
    """
    n, n_genes = values.shape
    n_classes = depth_zero.totals.size
    rows = np.array(values.T, order="C")
    ranked = labels[np.argsort(rows, axis=1)]
    rows.sort(axis=1)
    # prefix[c, g, i] = class-c count of the first i sorted samples of gene
    # g, for every class but the last (_class_rows derives it).
    prefix = np.zeros(
        (n_classes - 1, n_genes, n + 1),
        dtype=np.int16 if n < 2**15 else np.int32,
    )
    for c in range(n_classes - 1):
        np.cumsum(ranked == c, axis=1, dtype=prefix.dtype, out=prefix[c, :, 1:])
    del ranked
    # distinct[g, i]: a cut may fall before sorted position i + 1 of gene g.
    distinct = rows[:, 1:] > rows[:, :-1]

    gene, pos, *scores = depth_zero.best_cuts(prefix, distinct)
    if gene.size:
        lo = np.zeros(gene.size, dtype=np.intp)
        hi = np.full(gene.size, n, dtype=np.intp)
        # Every depth-0 range is a whole column, with one parent entropy.
        parent = np.full(gene.size, depth_zero.parent)
        keep = _accepted(prefix, gene, lo, hi, pos, (parent, *scores))
        gene, pos = gene[keep], pos[keep]
    return _Kept(
        gene + first_gene,
        pos,
        _cut_threshold(rows[gene, pos - 1], rows[gene, pos]),
        prefix[:, gene],
        distinct[gene],
        rows[gene],
    )


def _deeper_cuts(
    batch: _Kept, depth_zero: _DepthZero
) -> Tuple[np.ndarray, np.ndarray]:
    """Stage 2 of the batched MDLP: ``(row, threshold)`` of every cut of
    the genes of ``batch``, ``row`` indexing them: the depth-0 cuts stage 1
    found, then those of every deeper depth.

    Each depth is one flat pass over all (range, candidate) pairs
    (:func:`_best_range_cuts`) and one vectorised MDL test.  A pass is cut
    into chunks of whole ranges holding about ``n · _GENE_BLOCK / 8``
    pairs, so that its per-pair arrays stay within one block's worth of
    float64s whatever the batch holds.
    """
    prefix, distinct, ordered = batch.prefix, batch.distinct, batch.ordered
    n = ordered.shape[1]
    budget = max(n * _GENE_BLOCK // 8, n)
    rows = np.arange(batch.genes.size)
    gene = np.concatenate([rows, rows])
    lo = np.concatenate([np.zeros_like(batch.pos), batch.pos])
    hi = np.concatenate([batch.pos, np.full_like(batch.pos, n)])
    cut_rows, thresholds = [rows], [batch.threshold]
    while gene.size:
        # Ranges whose pairs start in the same multiple of ``budget``.
        starts = np.cumsum(hi - lo - 1) - (hi - lo - 1)
        chunk = np.flatnonzero(np.diff(starts // budget, prepend=-1))
        found = [
            _best_range_cuts(
                prefix, distinct, gene[s], lo[s], hi[s], depth_zero
            )
            for s in map(slice, chunk, [*chunk[1:], None])
        ]
        gene, lo, hi, pos, *scores = map(np.concatenate, zip(*found))
        if not gene.size:
            break
        keep = _accepted(prefix, gene, lo, hi, pos, scores)
        gene, lo, hi, pos = gene[keep], lo[keep], hi[keep], pos[keep]
        cut_rows.append(gene)
        thresholds.append(
            _cut_threshold(ordered[gene, pos - 1], ordered[gene, pos])
        )
        # Both halves of every accepted range recurse at the next depth.
        gene = np.concatenate([gene, gene])
        lo, hi = np.concatenate([lo, pos]), np.concatenate([pos, hi])
    return np.concatenate(cut_rows), np.concatenate(thresholds)


@dataclass(frozen=True)
class GenePartition:
    """The accepted partition of one kept gene.

    ``cuts`` are ascending thresholds; interval ``j`` holds values in
    ``(cuts[j-1], cuts[j]]`` with open ends at the extremes, giving
    ``len(cuts) + 1`` intervals and as many boolean items.
    """

    gene_index: int
    gene_name: str
    cuts: Tuple[float, ...]

    @property
    def n_intervals(self) -> int:
        return len(self.cuts) + 1

    def interval_of(self, value: float) -> int:
        """Index of the interval containing ``value`` (side='left' keeps
        values equal to a cut in the lower interval, matching fit)."""
        return int(np.searchsorted(np.asarray(self.cuts), value, side="left"))

    def interval_name(self, j: int) -> str:
        lo = "-inf" if j == 0 else f"{self.cuts[j - 1]:.4g}"
        hi = "+inf" if j == len(self.cuts) else f"{self.cuts[j]:.4g}"
        return f"{self.gene_name}@({lo},{hi}]"


def _batch_partitions(
    batch: _Kept, depth_zero: _DepthZero, gene_names: Sequence[str]
) -> List[GenePartition]:
    """The partition of every gene of ``batch``, its cuts ascending."""
    rows, thresholds = _deeper_cuts(batch, depth_zero)
    cuts = thresholds[np.lexsort((thresholds, rows))].tolist()
    ends = np.cumsum(np.bincount(rows)).tolist()
    return [
        GenePartition(j, gene_names[j], tuple(cuts[start:end]))
        for j, start, end in zip(batch.genes.tolist(), [0, *ends], ends)
    ]


def _fit_partitions(
    blocks: Iterable[Tuple[int, np.ndarray]],
    labels: np.ndarray,
    n_classes: int,
    gene_names: Sequence[str],
    width: int,
) -> List[GenePartition]:
    """Partitions of the kept genes of ``blocks``, ``(first gene, samples ×
    genes columns)`` pairs in gene order.

    Stage 1 (:func:`_mdlp_block`) runs on every :data:`_GENE_BLOCK`
    columns.  Stage 2 (:func:`_deeper_cuts`) runs once per batch of
    ``width`` genes that stage 1 kept, gathered across blocks in gene
    order (the last batch smaller); only the genes of the batch being
    formed wait between the two.
    """
    depth_zero = _depth_zero(labels, n_classes)
    codes = labels.astype(np.min_scalar_type(max(n_classes - 1, 0)))
    # One class (or one sample) has no cut: every entropy is 0, no gain.
    cuttable = labels.size >= 2 and n_classes >= 2
    partitions: List[GenePartition] = []
    pending: List[_Kept] = []
    count = 0

    def run(parts: List[_Kept]) -> None:
        batch = _Kept.join(parts)
        parts.clear()  # the batch holds their genes now
        partitions.extend(_batch_partitions(batch, depth_zero, gene_names))

    for first, columns in blocks:
        starts = range(0, columns.shape[1], _GENE_BLOCK) if cuttable else ()
        for start in starts:
            part = _mdlp_block(
                columns[:, start : start + _GENE_BLOCK],
                codes,
                depth_zero,
                first + start,
            )
            pending.append(part)
            count += part.genes.size
            while count >= width:
                # The last part's genes past ``width`` wait for the next batch.
                split = part.genes.size - (count - width)
                pending[-1] = part.take(slice(None, split))
                part = part.take(slice(split, None))
                run(pending)
                pending, count = [part], part.genes.size
    if count:
        run(pending)
    return partitions


class EntropyDiscretizer:
    """Fit MDLP partitions on training data; transform any sample to items.

    Attributes (after :meth:`fit`):
        partitions: one :class:`GenePartition` per kept gene.
        item_names: display names of the boolean items.
        n_kept_genes: Table 3's "Genes After Discretization".
    """

    def __init__(self) -> None:
        self.partitions: List[GenePartition] = []
        self.item_names: Tuple[str, ...] = ()
        self._class_names: Tuple[str, ...] = ()
        self._n_genes = 0
        self._fitted = False

    @property
    def n_kept_genes(self) -> int:
        return len(self.partitions)

    @property
    def n_items(self) -> int:
        return len(self.item_names)

    def kept_gene_indices(self) -> List[int]:
        """Original column indices of the genes that survived (used to feed
        the same gene selection to SVM/random forest, as Section 6.1 does)."""
        return [p.gene_index for p in self.partitions]

    def fit(self, data: ExpressionMatrix) -> "EntropyDiscretizer":
        """Learn cut points per gene from labeled training measurements."""
        partitions = _fit_partitions(
            [(0, data.values)],
            data.label_array,
            data.n_classes,
            data.gene_names,
            _GENE_BLOCK,
        )
        return self._finish_fit(partitions, data.class_names, data.n_genes)

    def fit_streaming(
        self,
        chunks: Callable[[], Iterable[ExpressionMatrix]],
        gene_block: int = 64,
    ) -> "EntropyDiscretizer":
        """Fit from a re-iterable stream of row blocks, bounding peak memory.

        ``chunks`` is a zero-argument callable returning a fresh iterator of
        :class:`ExpressionMatrix` blocks (e.g. ``lambda:
        iter_expression_tsv(path)``) — the stream is consumed once per block
        of ``gene_block`` genes plus one label pass, so the full matrix is
        never materialized: peak memory is O(n_samples × gene_block +
        chunk_rows × n_genes).  Cut points are **bit-identical** to
        :meth:`fit` on the concatenated matrix: each gene's column is
        reassembled exactly and run through the same kernel, whose deeper
        depths take batches of at most ``gene_block`` kept genes.

        Chunks must share gene names, and each chunk's class vocabulary must
        be a prefix-consistent extension of the previous one (what
        :func:`~repro.datasets.io.iter_expression_tsv` yields).
        """
        if gene_block < 1:
            raise ValueError(f"gene_block must be >= 1, got {gene_block}")

        # Pass 0: labels, class vocabulary, geometry (no value columns kept).
        gene_names: Optional[Tuple[str, ...]] = None
        class_names: Tuple[str, ...] = ()
        label_parts: List[np.ndarray] = []
        for chunk in chunks():
            if gene_names is None:
                gene_names = chunk.gene_names
            elif chunk.gene_names != gene_names:
                raise DatasetError("chunk gene names disagree during fit")
            if chunk.class_names[: len(class_names)] != class_names:
                raise DatasetError(
                    "chunk class vocabularies are not cumulative"
                )
            class_names = chunk.class_names
            label_parts.append(chunk.label_array)
        if gene_names is None:
            raise DatasetError("empty chunk stream: nothing to fit")
        labels = np.concatenate(label_parts)
        n_genes = len(gene_names)

        def blocks() -> Iterator[Tuple[int, np.ndarray]]:
            # Reassemble a few full columns at a time.
            for start in range(0, n_genes, gene_block):
                stop = min(start + gene_block, n_genes)
                columns = np.concatenate(
                    [chunk.values[:, start:stop] for chunk in chunks()], axis=0
                )
                if columns.shape[0] != labels.size:
                    raise DatasetError(
                        "chunk stream changed size between passes"
                    )
                yield start, columns

        partitions = _fit_partitions(
            blocks(),
            labels,
            len(class_names),
            gene_names,
            min(gene_block, _GENE_BLOCK),
        )
        return self._finish_fit(partitions, class_names, n_genes)

    def _finish_fit(
        self,
        partitions: List[GenePartition],
        class_names: Tuple[str, ...],
        n_genes: int,
    ) -> "EntropyDiscretizer":
        self.partitions = partitions
        self._n_genes = n_genes
        self.item_names = tuple(
            part.interval_name(j)
            for part in partitions
            for j in range(part.n_intervals)
        )
        # _item_codes' tables: the kept columns, each gene's first and last
        # item in the narrowest dtype that holds every item id, and its cuts
        # padded to a matrix with +inf.
        n_cuts = np.array([len(part.cuts) for part in partitions], dtype=np.int64)
        self._kept = np.array(self.kept_gene_indices(), dtype=np.intp)
        code = np.min_scalar_type(max(self.n_items - 1, 0))
        self._last_item = (np.cumsum(n_cuts + 1) - 1).astype(code)
        self._first_item = (self._last_item - n_cuts).astype(code)
        width = n_cuts.max(initial=0)
        self._cut_matrix = np.full((n_cuts.size, width), np.inf)
        self._cut_matrix[np.arange(width) < n_cuts[:, None]] = [
            cut for part in partitions for cut in part.cuts
        ]
        self._class_names = class_names
        self._fitted = True
        return self

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("EntropyDiscretizer.fit must be called first")

    def _fitted_rows(self, values: np.ndarray) -> np.ndarray:
        """``values`` as a 2-D float batch of the fitted width."""
        self._require_fitted()
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        if values.shape[1] != self._n_genes:
            raise DatasetError(
                f"expected rows of {self._n_genes} gene values (the fitted "
                f"width), got {values.shape[1]}"
            )
        return values

    def transform_values(self, values: np.ndarray) -> List[frozenset]:
        """Map raw measurement rows to expressed item sets (the query form).

        Vectorized over the batch and the kept genes (see
        :meth:`_item_codes`), then one frozenset per row.  Bit-identical to
        :meth:`_transform_values_scalar` (the per-row reference, kept for
        the equivalence tests).  Rows must be as wide as the fitted data;
        any other width raises :class:`DatasetError`.
        """
        # Row by row: ``codes.tolist()`` would hold every row's list at once.
        return [frozenset(row.tolist()) for row in self._item_codes(values)]

    def _item_codes(self, values: np.ndarray) -> np.ndarray:
        """The expressed item of every (row, kept gene), as a code array.

        A value's interval is the number of its gene's cuts strictly below
        it, which is ``np.searchsorted(cuts, value, side="left")``, counted
        one column of the ``+inf``-padded cut matrix at a time.  NaN takes
        the last interval, where ``searchsorted`` puts it.  Codes use the
        narrowest unsigned dtype that holds every item id.
        """
        measured = self._fitted_rows(values)[:, self._kept]
        codes = np.where(np.isnan(measured), self._last_item, self._first_item)
        for cuts in self._cut_matrix.T:
            codes += cuts < measured
        return codes

    def _transform_values_scalar(self, values: np.ndarray) -> List[frozenset]:
        """Reference per-row implementation of :meth:`transform_values`."""
        values = self._fitted_rows(values)
        out: List[frozenset] = []
        for row in values:
            items = []
            for base, part in zip(self._first_item.tolist(), self.partitions):
                items.append(base + part.interval_of(row[part.gene_index]))
            out.append(frozenset(items))
        return out

    def transform(self, data: ExpressionMatrix) -> RelationalDataset:
        """Discretize a full expression matrix into a relational dataset.

        The item codes are scattered straight into the dataset's bool
        matrix; no per-row item set is built (the dataset derives
        ``samples`` only if a reader asks for them).  Labels are mapped by
        class name into the fitted vocabulary, so ``data`` may number its
        classes in another order; a row of a class the fit never saw raises
        :class:`DatasetError`.
        """
        labels = self._fitted_labels(data)
        codes = self._item_codes(data.values)
        matrix = np.zeros((codes.shape[0], self.n_items), dtype=bool)
        matrix[np.arange(codes.shape[0])[:, None], codes] = True
        return RelationalDataset._from_matrix(
            matrix,
            self.item_names,
            self._class_names,
            labels,
            data.sample_names,
        )

    def _fitted_labels(self, data: ExpressionMatrix) -> Sequence[int]:
        """``data``'s labels as ids of the fitted class vocabulary."""
        self._require_fitted()
        if data.class_names == self._class_names:
            return data.labels
        fitted = {name: c for c, name in enumerate(self._class_names)}
        used = [data.class_names[c] for c in np.unique(data.label_array)]
        unseen = [name for name in used if name not in fitted]
        if unseen:
            raise DatasetError(
                f"classes {unseen} were not seen by the fit (its classes "
                f"are {list(self._class_names)})"
            )
        ids = np.array([fitted.get(name, -1) for name in data.class_names])
        return ids[data.label_array]

    def fit_transform(self, data: ExpressionMatrix) -> RelationalDataset:
        return self.fit(data).transform(data)
