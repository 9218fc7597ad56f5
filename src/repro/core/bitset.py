"""Packed ``uint64`` bitset kernel — the columnar substrate for every
support-set computation.

Every layer of the reproduction manipulates two kinds of sets: *sample
supports* (which rows of the relation satisfy an antecedent) and *item sets*
(which genes a group of rows shares).  Both live in small fixed universes —
``n_samples`` and ``n_items`` — so they pack into arrays of 64-bit words
where intersection, union, complement, subset testing, and cardinality are
word-wise SIMD operations instead of hash-table walks.  Closed-itemset
miners (CHARM) and row enumerators (CARPENTER/FARMER, the paper's Top-k
baseline) owe their practical speed to exactly this representation; this
module makes it the shared kernel for the BST machinery (Algorithms 1-4),
the rule layers (CAR/BAR/IBRG), and the baselines alike.

Two types:

* :class:`BitSet` — an immutable set of integers drawn from a fixed universe
  ``[0, n)``, stored as ``ceil(n / 64)`` little-endian ``uint64`` words.
  Bit ``k`` lives in word ``k >> 6`` at position ``k & 63``.  Hashable, so
  it can key the candidate/dedup dictionaries the miners rely on.
* :class:`BitMatrix` — a stack of equal-universe rows (one packed bitset per
  row), the incidence form of a dataset: sample rows over the item universe
  and item columns over the sample universe.  Its :meth:`BitMatrix.reduce_and`
  is the one shared closure/intersection primitive that used to be
  copy-pasted across ``bst/mining.py``, ``baselines/charm.py``,
  ``rules/groups.py``, and ``baselines/topk.py``.

Population counts go through :func:`numpy.bitwise_count` when available
(numpy >= 2.0) and fall back to a vectorized SWAR popcount otherwise.
Setting the ``REPRO_FORCE_SWAR`` environment variable (to anything but
``""``/``"0"``) before import forces the SWAR path, so the numpy < 2
fallback stays testable on modern numpy.

The kernel keeps cheap module-level operation counters (set ops, popcounts,
row reductions); :func:`flush_kernel_counters` folds them into the
process-wide :data:`~repro.evaluation.timing.engine_counters` under
``bitset_*`` names so CLI runs report how much work the substrate did.
"""

from __future__ import annotations

import os
from typing import FrozenSet, Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

_WORD_BITS = 64
_U64 = np.uint64
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def _swar_popcount(words: np.ndarray) -> np.ndarray:
    """Vectorized SWAR popcount of every ``uint64`` word — the numpy < 2.0
    fallback, always defined so it stays testable (and forceable via
    ``REPRO_FORCE_SWAR``).  Never mutates ``words``."""
    x = np.asarray(words, dtype=_U64).copy()
    m1 = np.uint64(0x5555555555555555)
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    h01 = np.uint64(0x0101010101010101)
    x -= (x >> np.uint64(1)) & m1
    x = (x & m2) + ((x >> np.uint64(2)) & m2)
    x = (x + (x >> np.uint64(4))) & m4
    return (x * h01) >> np.uint64(56)


def _swar_popcount_words(words: np.ndarray) -> int:
    """Total set bits across an array of uint64 words (SWAR)."""
    return int(_swar_popcount(words).sum())


def _native_popcount_words(words: np.ndarray) -> int:
    """Total set bits across an array of uint64 words (numpy >= 2.0)."""
    return int(np.bitwise_count(words).sum())


_FORCE_SWAR = os.environ.get("REPRO_FORCE_SWAR", "") not in ("", "0")

if hasattr(np, "bitwise_count") and not _FORCE_SWAR:
    _popcount_words = _native_popcount_words
    #: Elementwise set-bit count of a ``uint64`` array: every packed
    #: popcount (bitset rows, the BSTCE kernel) goes through it, so
    #: ``REPRO_FORCE_SWAR`` switches all of them to the fallback at once.
    popcount = np.bitwise_count
else:
    _popcount_words = _swar_popcount_words
    popcount = _swar_popcount


class _KernelStats:
    """Cheap mutable counters for kernel operations (flushed on demand)."""

    __slots__ = ("set_ops", "popcounts", "row_reductions", "matrix_builds")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.set_ops = 0
        self.popcounts = 0
        self.row_reductions = 0
        self.matrix_builds = 0


_stats = _KernelStats()


def kernel_stats_snapshot() -> dict:
    """Current (unflushed) kernel operation counts."""
    return {
        "bitset_set_ops": _stats.set_ops,
        "bitset_popcounts": _stats.popcounts,
        "bitset_row_reductions": _stats.row_reductions,
        "bitset_matrix_builds": _stats.matrix_builds,
    }


def flush_kernel_counters(counters=None) -> None:
    """Fold the kernel's operation counts into an :class:`EngineCounters`
    (the process-wide :data:`~repro.evaluation.timing.engine_counters` by
    default) and zero the local tally."""
    if counters is None:
        from ..evaluation.timing import engine_counters as counters  # lazy: no cycle
    for name, value in kernel_stats_snapshot().items():
        if value:
            counters.increment(name, value)
    _stats.reset()


def _n_words(universe: int) -> int:
    return (universe + _WORD_BITS - 1) >> 6


def _tail_mask(universe: int) -> Optional[np.uint64]:
    """Mask for the valid bits of the final word (None when full)."""
    rem = universe & 63
    if rem == 0:
        return None
    return np.uint64((1 << rem) - 1)


def _clip_tail(words: np.ndarray, universe: int) -> np.ndarray:
    mask = _tail_mask(universe)
    if mask is not None and words.size:
        words[-1] &= mask
    return words


class BitSet:
    """An immutable set of integers in the fixed universe ``[0, n)``.

    Construct via :meth:`empty`, :meth:`full`, :meth:`from_indices`,
    :meth:`from_bool`, or set operations on existing bitsets.  Operations
    between bitsets require equal universes.
    """

    __slots__ = ("_words", "_n", "_count", "_hash", "_members")

    def __init__(self, words: np.ndarray, universe: int):
        # Internal: callers must hand over ownership of a clipped words array.
        words.flags.writeable = False
        self._words = words
        self._n = universe
        self._count: Optional[int] = None
        self._hash: Optional[int] = None
        self._members: Optional[Tuple[int, ...]] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def empty(universe: int) -> "BitSet":
        if universe < 0:
            raise ValueError("universe must be >= 0")
        return BitSet(np.zeros(_n_words(universe), dtype=_U64), universe)

    @staticmethod
    def full(universe: int) -> "BitSet":
        if universe < 0:
            raise ValueError("universe must be >= 0")
        words = np.full(_n_words(universe), _ALL_ONES, dtype=_U64)
        return BitSet(_clip_tail(words, universe), universe)

    @staticmethod
    def from_indices(universe: int, indices: Iterable[int]) -> "BitSet":
        idx = np.fromiter((int(i) for i in indices), dtype=np.int64)
        words = np.zeros(_n_words(universe), dtype=_U64)
        if idx.size:
            if idx.min() < 0 or idx.max() >= universe:
                raise ValueError(
                    f"index out of universe [0, {universe}): "
                    f"[{idx.min()}, {idx.max()}]"
                )
            bits = np.left_shift(_U64(1), (idx & 63).astype(_U64))
            np.bitwise_or.at(words, (idx >> 6).astype(np.intp), bits)
        return BitSet(words, universe)

    @staticmethod
    def single(universe: int, index: int) -> "BitSet":
        return BitSet.from_indices(universe, (index,))

    @staticmethod
    def from_range(universe: int, stop: int) -> "BitSet":
        """The prefix ``{0, 1, ..., stop - 1}`` of the universe."""
        stop = max(0, min(int(stop), universe))
        words = np.zeros(_n_words(universe), dtype=_U64)
        full = stop >> 6
        words[:full] = _ALL_ONES
        rem = stop & 63
        if rem:
            words[full] = np.uint64((1 << rem) - 1)
        return BitSet(words, universe)

    @staticmethod
    def from_bool(mask: np.ndarray) -> "BitSet":
        """Pack a dense boolean vector (index ``k`` -> bit ``k``)."""
        mask = np.ascontiguousarray(mask, dtype=bool)
        if mask.ndim != 1:
            raise ValueError("mask must be 1-dimensional")
        return BitSet(_pack_bool_rows(mask[None, :])[0].copy(), mask.shape[0])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def universe(self) -> int:
        """Size of the universe ``n`` (not the number of members)."""
        return self._n

    @property
    def words(self) -> np.ndarray:
        """The packed (read-only) uint64 word array."""
        return self._words

    def count(self) -> int:
        """Population count (number of members)."""
        if self._count is None:
            _stats.popcounts += 1
            self._count = _popcount_words(self._words)
        return self._count

    def __len__(self) -> int:
        return self.count()

    def __bool__(self) -> bool:
        if self._count is not None:
            return self._count > 0
        return bool(self._words.any())

    def __contains__(self, index: int) -> bool:
        if not 0 <= index < self._n:
            return False
        return bool((int(self._words[index >> 6]) >> (index & 63)) & 1)

    def members(self) -> Tuple[int, ...]:
        """All members in ascending order (cached)."""
        if self._members is None:
            self._members = tuple(int(i) for i in self.members_array())
        return self._members

    def members_array(self) -> np.ndarray:
        """Ascending member indices as an int64 array."""
        if self._n == 0 or not self._words.size:
            return np.empty(0, dtype=np.int64)
        as_bytes = self._words.astype("<u8", copy=False).view(np.uint8)
        bits = np.unpackbits(as_bytes, count=self._n, bitorder="little")
        return np.flatnonzero(bits).astype(np.int64)

    def to_frozenset(self) -> FrozenSet[int]:
        return frozenset(self.members())

    def to_bool(self) -> np.ndarray:
        """Dense boolean vector of length ``universe``."""
        out = np.zeros(self._n, dtype=bool)
        out[self.members_array()] = True
        return out

    def __iter__(self) -> Iterator[int]:
        return iter(self.members())

    def __repr__(self) -> str:
        shown = self.members()[:8]
        body = ",".join(str(i) for i in shown)
        more = "..." if self.count() > 8 else ""
        return f"BitSet({{{body}{more}}}/{self._n})"

    # ------------------------------------------------------------------
    # Set algebra
    # ------------------------------------------------------------------
    def _check(self, other: "BitSet") -> None:
        if not isinstance(other, BitSet):
            raise TypeError(f"expected BitSet, got {type(other).__name__}")
        if other._n != self._n:
            raise ValueError(
                f"universe mismatch: {self._n} vs {other._n}"
            )

    def __and__(self, other: "BitSet") -> "BitSet":
        self._check(other)
        _stats.set_ops += 1
        return BitSet(self._words & other._words, self._n)

    def __or__(self, other: "BitSet") -> "BitSet":
        self._check(other)
        _stats.set_ops += 1
        return BitSet(self._words | other._words, self._n)

    def __xor__(self, other: "BitSet") -> "BitSet":
        self._check(other)
        _stats.set_ops += 1
        return BitSet(self._words ^ other._words, self._n)

    def __sub__(self, other: "BitSet") -> "BitSet":
        self._check(other)
        _stats.set_ops += 1
        return BitSet(self._words & ~other._words, self._n)

    def __invert__(self) -> "BitSet":
        _stats.set_ops += 1
        return BitSet(_clip_tail(~self._words, self._n), self._n)

    def complement(self) -> "BitSet":
        return ~self

    def add(self, index: int) -> "BitSet":
        """A new bitset with ``index`` added."""
        if not 0 <= index < self._n:
            raise ValueError(f"index {index} outside universe [0, {self._n})")
        words = self._words.copy()
        words[index >> 6] |= _U64(1) << _U64(index & 63)
        return BitSet(words, self._n)

    def grow(self, universe: int) -> "BitSet":
        """The same members re-homed in a larger universe ``[0, universe)``.

        Bit positions are stable under growth (bit ``k`` stays in word
        ``k >> 6``), so this only pads zero words — O(words), no repacking.
        The incremental dataset-append path uses it to extend sample-indexed
        sets when new training rows arrive.
        """
        if universe < self._n:
            raise ValueError(
                f"cannot shrink universe {self._n} to {universe}"
            )
        if universe == self._n:
            return self
        words = np.zeros(_n_words(universe), dtype=_U64)
        words[: self._words.size] = self._words
        return BitSet(words, universe)

    def issubset(self, other: "BitSet") -> bool:
        self._check(other)
        _stats.set_ops += 1
        return not np.any(self._words & ~other._words)

    def __le__(self, other: "BitSet") -> bool:
        return self.issubset(other)

    def __lt__(self, other: "BitSet") -> bool:
        return self.issubset(other) and self != other

    def __ge__(self, other: "BitSet") -> bool:
        return other.issubset(self)

    def __gt__(self, other: "BitSet") -> bool:
        return other.issubset(self) and self != other

    def isdisjoint(self, other: "BitSet") -> bool:
        self._check(other)
        _stats.set_ops += 1
        return not np.any(self._words & other._words)

    def intersection_count(self, other: "BitSet") -> int:
        """``len(self & other)`` without materializing the intersection."""
        self._check(other)
        _stats.set_ops += 1
        _stats.popcounts += 1
        return _popcount_words(self._words & other._words)

    # ------------------------------------------------------------------
    # Equality / hashing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitSet):
            return NotImplemented
        return self._n == other._n and np.array_equal(self._words, other._words)

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        if eq is NotImplemented:
            return NotImplemented
        return not eq

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._n, self._words.tobytes()))
        return self._hash


def _pack_bool_rows(matrix: np.ndarray) -> np.ndarray:
    """Pack a dense boolean (rows x cols) matrix into (rows x n_words)
    uint64 words with bit ``k`` of a row in word ``k >> 6`` at ``k & 63``.

    Uses little-endian byte packing so the word values agree with the shift
    arithmetic on any host byte order.
    """
    n_rows, n_cols = matrix.shape
    n_words = _n_words(n_cols)
    if n_cols == 0:
        return np.zeros((n_rows, 0), dtype=_U64)
    packed = np.packbits(matrix, axis=1, bitorder="little")
    buf = np.zeros((n_rows, n_words * 8), dtype=np.uint8)
    buf[:, : packed.shape[1]] = packed
    return buf.view("<u8").astype(_U64, copy=False)


class BitMatrix:
    """A stack of packed bitsets sharing one universe (``n_cols``).

    Row ``i`` is the bitset of column indices incident to ``i`` — e.g. the
    items a sample expresses (sample rows) or the samples expressing an item
    (item columns).  The two views are transposes of each other.
    """

    __slots__ = ("_words", "_n_cols")

    def __init__(self, words: np.ndarray, n_cols: int):
        words.flags.writeable = False
        self._words = words
        self._n_cols = n_cols

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_bool(matrix: np.ndarray) -> "BitMatrix":
        matrix = np.ascontiguousarray(matrix, dtype=bool)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-dimensional")
        _stats.matrix_builds += 1
        return BitMatrix(_pack_bool_rows(matrix), matrix.shape[1])

    @staticmethod
    def from_sets(
        sets: Sequence[Iterable[int]], n_cols: int
    ) -> "BitMatrix":
        dense = np.zeros((len(sets), n_cols), dtype=bool)
        for row, members in enumerate(sets):
            idx = list(members)
            if idx:
                dense[row, idx] = True
        return BitMatrix.from_bool(dense)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return int(self._words.shape[0])

    @property
    def n_cols(self) -> int:
        """Universe size of every row."""
        return self._n_cols

    @property
    def words(self) -> np.ndarray:
        return self._words

    def row(self, index: int) -> BitSet:
        """Row ``index`` as an immutable :class:`BitSet` (zero-copy view)."""
        return BitSet(self._words[index], self._n_cols)

    def row_counts(self) -> np.ndarray:
        """Population count of every row (vectorized)."""
        _stats.popcounts += 1
        if not self._words.size:
            return np.zeros(self.n_rows, dtype=np.int64)
        return popcount(self._words).sum(axis=1, dtype=np.int64)

    def to_bool(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self._n_cols), dtype=bool)
        for i in range(self.n_rows):
            out[i, self.row(i).members_array()] = True
        return out

    def transpose(self) -> "BitMatrix":
        return BitMatrix.from_bool(self.to_bool().T)

    # ------------------------------------------------------------------
    # Incremental growth (append-only dataset maintenance)
    # ------------------------------------------------------------------
    def append_rows(self, rows: np.ndarray) -> "BitMatrix":
        """A new matrix with extra rows packed from a boolean block of
        shape ``(n_new, n_cols)`` — same universe, O(new rows) work."""
        rows = np.ascontiguousarray(rows, dtype=bool)
        if rows.ndim != 2 or rows.shape[1] != self._n_cols:
            raise ValueError(
                f"expected (*, {self._n_cols}) boolean block, "
                f"got {rows.shape}"
            )
        _stats.matrix_builds += 1
        return BitMatrix(
            np.vstack([self._words, _pack_bool_rows(rows)]), self._n_cols
        )

    def append_universe(self, extra: np.ndarray) -> "BitMatrix":
        """Grow every row's universe by appending new bit-columns.

        ``extra`` is a boolean block of shape ``(n_rows, n_extra)`` giving
        the appended bits of each row.  Existing bit positions are stable
        (bit ``k`` stays at word ``k >> 6``), so only the old tail word can
        receive new bits: the extra block is packed at the tail's bit
        offset and OR-ed in — O(n_rows × n_extra / 64) words touched, no
        repacking of the existing columns.
        """
        extra = np.ascontiguousarray(extra, dtype=bool)
        if extra.ndim != 2 or extra.shape[0] != self.n_rows:
            raise ValueError(
                f"expected ({self.n_rows}, *) boolean block, "
                f"got {extra.shape}"
            )
        n_extra = extra.shape[1]
        if n_extra == 0:
            return self
        new_universe = self._n_cols + n_extra
        tail_word = self._n_cols >> 6
        bit_offset = self._n_cols & 63
        padded = np.zeros((self.n_rows, bit_offset + n_extra), dtype=bool)
        padded[:, bit_offset:] = extra
        packed_tail = _pack_bool_rows(padded)
        words = np.zeros(
            (self.n_rows, _n_words(new_universe)), dtype=_U64
        )
        words[:, : self._words.shape[1]] = self._words
        words[:, tail_word] |= packed_tail[:, 0]
        if packed_tail.shape[1] > 1:
            words[:, tail_word + 1 :] = packed_tail[:, 1:]
        _stats.matrix_builds += 1
        return BitMatrix(words, new_universe)

    # ------------------------------------------------------------------
    # Bulk reductions — the shared closure/intersection primitive
    # ------------------------------------------------------------------
    def _selection_indices(
        self, selection: Union[BitSet, Iterable[int], None]
    ) -> Optional[np.ndarray]:
        if selection is None:
            return None
        if isinstance(selection, BitSet):
            if selection.universe != self.n_rows:
                raise ValueError(
                    f"selection universe {selection.universe} != "
                    f"row count {self.n_rows}"
                )
            return selection.members_array()
        return np.fromiter(
            (int(i) for i in selection), dtype=np.int64
        )

    def reduce_and(
        self, selection: Union[BitSet, Iterable[int], None] = None
    ) -> BitSet:
        """Word-wise AND of the selected rows (all rows when ``None``).

        This is the *closure* primitive: over sample rows it yields the
        items every selected sample shares; over item columns it yields the
        samples containing every selected item.  The empty selection
        returns the full universe (the intersection identity) — callers
        with an empty-means-empty convention must special-case it.
        """
        idx = self._selection_indices(selection)
        _stats.row_reductions += 1
        if idx is None:
            rows = self._words
        else:
            rows = self._words[idx]
        if rows.shape[0] == 0:
            return BitSet.full(self._n_cols)
        return BitSet(
            np.bitwise_and.reduce(rows, axis=0).copy(), self._n_cols
        )

    def reduce_or(
        self, selection: Union[BitSet, Iterable[int], None] = None
    ) -> BitSet:
        """Word-wise OR of the selected rows (empty selection -> empty)."""
        idx = self._selection_indices(selection)
        _stats.row_reductions += 1
        if idx is None:
            rows = self._words
        else:
            rows = self._words[idx]
        if rows.shape[0] == 0:
            return BitSet.empty(self._n_cols)
        return BitSet(
            np.bitwise_or.reduce(rows, axis=0).copy(), self._n_cols
        )

    def full_row(self) -> BitSet:
        """The all-ones bitset over this matrix's universe."""
        return BitSet.full(self._n_cols)

    def empty_row(self) -> BitSet:
        """The empty bitset over this matrix's universe."""
        return BitSet.empty(self._n_cols)


__all__ = [
    "BitSet",
    "BitMatrix",
    "flush_kernel_counters",
    "kernel_stats_snapshot",
    "popcount",
]
