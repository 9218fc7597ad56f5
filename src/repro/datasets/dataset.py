"""Relational and continuous microarray data models.

The paper (Table 1) represents a discretized microarray dataset as a relation
whose rows are samples, each expressing a subset of boolean *items* and
carrying a class label.  ``RelationalDataset`` is that representation.
``ExpressionMatrix`` holds the raw continuous measurements that the
entropy-minimized discretizer (``repro.datasets.discretize``) converts into a
``RelationalDataset``.

Items are opaque: with the paper's running example they are genes; after
entropy discretization they are ``(gene, interval)`` pairs.  The boolean
sample/item relationship is all that the BST machinery needs.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from itertools import chain
from typing import FrozenSet, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..core.bitset import BitMatrix, BitSet
from ..errors import ReproError


class DatasetError(ReproError, ValueError):
    """Raised when dataset construction arguments are inconsistent or a
    dataset file is malformed."""


def _incidence(
    samples: Sequence[Iterable[int]], n_items: int, first: int = 0
) -> np.ndarray:
    """The ``(len(samples), n_items)`` bool matrix of item-id rows, built in
    one scatter; an id outside ``0..n_items-1`` is reported as sample
    ``first + row``."""
    try:
        rows = [tuple(sample) for sample in samples]
    except TypeError as exc:
        raise DatasetError(
            f"a sample is not a collection of item ids ({exc})"
        ) from exc
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    items = np.array(list(chain.from_iterable(rows)))
    if not items.size:
        items = items.astype(np.int64)
    elif items.dtype.kind not in "iu":
        raise DatasetError(f"item ids must be integers, got {items.dtype}")
    owner = np.repeat(np.arange(len(rows)), lengths)
    bad = np.flatnonzero((items < 0) | (items >= n_items))
    if bad.size:
        k = bad[0]
        raise DatasetError(
            f"sample {first + owner[k]} expresses unknown item {items[k]}"
        )
    matrix = np.zeros((len(rows), n_items), dtype=bool)
    matrix[owner, items] = True
    return matrix


class RelationalDataset:
    """A discretized (boolean) gene expression dataset.

    The stored form is the item incidence: one read-only ``(n_samples,
    n_items)`` bool matrix.  The paper's Table 1 view — each sample's set
    of expressed items — is :attr:`samples`, derived from the matrix on
    first access and kept; the oracle, BST construction, the miners and the
    baselines read it, while the compiled plan, the packed-bitset views and
    :attr:`fingerprint` read the matrix.  The constructor scatters the
    item sets it is given into the matrix in one pass;
    :meth:`from_bool_matrix`, :meth:`subset`, :meth:`append_samples` and
    ``EntropyDiscretizer.transform`` work on matrix rows and build no item
    sets.

    Two datasets are equal when their vocabularies, labels, sample names
    and matrices are; the hash agrees through :attr:`fingerprint`.
    Instances are immutable.

    Attributes:
        item_names: display name of each boolean item, indexed by item id.
        class_names: display name of each class, indexed by class id.
        bool_matrix: the ``(n_samples, n_items)`` incidence; row ``i``
            marks the items sample ``i`` expresses.
        labels: class id of each sample.
        label_array: ``labels`` as an int64 array.
        sample_names: optional display names for samples.
    """

    item_names: Tuple[str, ...]
    class_names: Tuple[str, ...]
    bool_matrix: np.ndarray
    labels: Tuple[int, ...]
    label_array: np.ndarray
    sample_names: Optional[Tuple[str, ...]]

    def __init__(
        self,
        item_names: Sequence[str],
        class_names: Sequence[str],
        samples: Sequence[Iterable[int]],
        labels: Sequence[int],
        sample_names: Optional[Sequence[str]] = None,
    ) -> None:
        self._store(
            _incidence(samples, len(item_names)),
            item_names, class_names, labels, sample_names,
        )

    @classmethod
    def _from_matrix(
        cls,
        matrix: np.ndarray,
        item_names: Sequence[str],
        class_names: Sequence[str],
        labels: Sequence[int],
        sample_names: Optional[Sequence[str]] = None,
    ) -> "RelationalDataset":
        """Wrap a bool matrix the caller hands over (it is not copied)."""
        dataset = cls.__new__(cls)
        dataset._store(matrix, item_names, class_names, labels, sample_names)
        return dataset

    def _store(self, matrix, item_names, class_names, labels, sample_names):
        labels = tuple(int(v) for v in labels)
        if matrix.shape[0] != len(labels):
            raise DatasetError(
                f"{matrix.shape[0]} samples but {len(labels)} labels"
            )
        if matrix.shape[1] != len(item_names):
            raise DatasetError(
                f"{matrix.shape[1]} matrix columns but {len(item_names)} items"
            )
        if sample_names is not None:
            sample_names = tuple(sample_names)
            if len(sample_names) != len(labels):
                raise DatasetError("sample_names length does not match samples")
        label_array = np.asarray(labels, dtype=np.int64)
        bad = np.flatnonzero((label_array < 0) | (label_array >= len(class_names)))
        if bad.size:
            raise DatasetError(
                f"sample {bad[0]} has unknown class id {labels[bad[0]]}"
            )
        matrix.flags.writeable = False
        label_array.flags.writeable = False
        self.__dict__.update(
            item_names=tuple(item_names),
            class_names=tuple(class_names),
            bool_matrix=matrix,
            labels=labels,
            label_array=label_array,
            sample_names=sample_names,
        )

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationalDataset):
            return NotImplemented
        return (
            self.item_names == other.item_names
            and self.class_names == other.class_names
            and self.labels == other.labels
            and self.sample_names == other.sample_names
            and np.array_equal(self.bool_matrix, other.bool_matrix)
        )

    def __hash__(self) -> int:
        return hash(
            (self.item_names, self.class_names, self.sample_names,
             self.fingerprint)
        )

    def __repr__(self) -> str:
        return (
            f"RelationalDataset(n_samples={self.n_samples},"
            f" n_items={self.n_items}, class_names={self.class_names!r})"
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        return self.bool_matrix.shape[0]

    @property
    def n_items(self) -> int:
        return len(self.item_names)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @cached_property
    def samples(self) -> Tuple[FrozenSet[int], ...]:
        """For each sample, the frozen set of item ids it expresses."""
        return tuple(
            frozenset(np.flatnonzero(row).tolist()) for row in self.bool_matrix
        )

    def class_members(self, class_id: int) -> Tuple[int, ...]:
        """Sample indices belonging to ``class_id`` (the set C_i)."""
        return tuple(i for i, lab in enumerate(self.labels) if lab == class_id)

    def outside_members(self, class_id: int) -> Tuple[int, ...]:
        """Sample indices outside ``class_id`` (the set S - C_i)."""
        return tuple(i for i, lab in enumerate(self.labels) if lab != class_id)

    def class_sizes(self) -> Tuple[int, ...]:
        sizes = [0] * self.n_classes
        for lab in self.labels:
            sizes[lab] += 1
        return tuple(sizes)

    def majority_class(self) -> int:
        """The most populous class (smallest id wins ties)."""
        sizes = self.class_sizes()
        return int(np.argmax(sizes))

    def sample_name(self, index: int) -> str:
        if self.sample_names is not None:
            return self.sample_names[index]
        return f"s{index}"

    # ------------------------------------------------------------------
    # Packed-bitset views (the repro.core.bitset substrate)
    # ------------------------------------------------------------------
    @cached_property
    def sample_rows(self) -> BitMatrix:
        """Sample-major incidence: row ``i`` is the packed item set of
        sample ``i`` (universe = items).  ``sample_rows.reduce_and(rows)``
        is the closure of a row subset."""
        return BitMatrix.from_bool(self.bool_matrix)

    @cached_property
    def item_columns(self) -> BitMatrix:
        """Item-major incidence: row ``j`` is the packed set of samples
        expressing item ``j`` (universe = samples).
        ``item_columns.reduce_and(items)`` is an itemset's support set."""
        return BitMatrix.from_bool(self.bool_matrix.T)

    def sample_bits(self, index: int) -> BitSet:
        """Sample ``index``'s item set as a packed bitset."""
        return self.sample_rows.row(index)

    def item_bits(self, item: int) -> BitSet:
        """The samples expressing ``item`` as a packed bitset."""
        return self.item_columns.row(item)

    @cached_property
    def _class_bits(self) -> Tuple[BitSet, ...]:
        masks = self.label_array == np.arange(self.n_classes)[:, None]
        matrix = BitMatrix.from_bool(masks)
        return tuple(matrix.row(c) for c in range(self.n_classes))

    def class_bits(self, class_id: int) -> BitSet:
        """Samples of ``class_id`` (the set C_i) as a packed bitset."""
        return self._class_bits[class_id]

    def outside_bits(self, class_id: int) -> BitSet:
        """Samples outside ``class_id`` (the set S - C_i) as a bitset."""
        return ~self._class_bits[class_id]

    def support_bits_of_itemset(self, itemset: Iterable[int]) -> BitSet:
        """Packed support set: samples whose items contain ``itemset``
        (the empty itemset is contained by every sample)."""
        return self.item_columns.reduce_and(
            sorted(int(i) for i in set(itemset))
        )

    @cached_property
    def fingerprint(self) -> str:
        """Content hash of the boolean relation (items x samples x labels).

        Two datasets with identical expression matrices and labels share a
        fingerprint regardless of object identity — the key the fast-engine
        evaluator cache (:func:`repro.core.fast.get_evaluator`) uses to
        recognize repeated fits on the same training data.
        """
        import hashlib

        digest = hashlib.sha1()
        digest.update(np.asarray(self.bool_matrix.shape, dtype=np.int64).tobytes())
        digest.update(np.packbits(self.bool_matrix, axis=None).tobytes())
        digest.update(self.label_array.tobytes())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def append_samples(
        self,
        samples: Sequence[Iterable[int]],
        labels: Sequence[int],
        sample_names: Optional[Sequence[str]] = None,
    ) -> "RelationalDataset":
        """A new dataset with extra samples appended at the end.

        The append-only entry point of the incremental training plane: new
        rows take indices ``n_samples..n_samples+k-1``, so every existing
        sample keeps its index and every class keeps its member order — the
        invariant that lets :meth:`~repro.bst.table.BST.append_rows` and
        :func:`~repro.core.plan.recompile_delta` reuse old state verbatim.

        The new rows are stacked under the matrix.  Already-computed packed
        views (incidence bit matrices, class bitsets) are extended in
        O(new rows × items) via the bitset grow/append kernels instead of
        being recomputed from scratch; the result is indistinguishable from
        a cold construction.  Labels must reference existing classes.
        """
        new_bool = _incidence(samples, self.n_items, first=self.n_samples)
        new_labels = tuple(int(lab) for lab in labels)
        if not len(new_bool):
            return self
        if self.sample_names is not None:
            if sample_names is None:
                sample_names = tuple(
                    f"s{self.n_samples + k}" for k in range(len(new_bool))
                )
            appended_names: Optional[Tuple[str, ...]] = (
                self.sample_names + tuple(str(n) for n in sample_names)
            )
        elif sample_names is not None:
            raise DatasetError(
                "cannot append named samples to an unnamed dataset"
            )
        else:
            appended_names = None
        grown = RelationalDataset._from_matrix(
            np.vstack([self.bool_matrix, new_bool]),
            self.item_names,
            self.class_names,
            self.labels + new_labels,
            appended_names,
        )

        # Seed the packed views incrementally.  ``cached_property`` writes
        # straight into the instance ``__dict__``, so pre-populating the
        # same slots here is exactly equivalent to a cold first access.
        old_n, new_n = self.n_samples, grown.n_samples
        seeded = grown.__dict__
        if "sample_rows" in self.__dict__:
            seeded["sample_rows"] = self.sample_rows.append_rows(new_bool)
        if "item_columns" in self.__dict__:
            seeded["item_columns"] = self.item_columns.append_universe(
                new_bool.T
            )
        if "_class_bits" in self.__dict__:
            grown_bits = []
            for c, bits in enumerate(self._class_bits):
                extended = bits.grow(new_n)
                idx = [
                    old_n + k
                    for k, lab in enumerate(new_labels)
                    if lab == c
                ]
                if idx:
                    extended = extended | BitSet.from_indices(new_n, idx)
                grown_bits.append(extended)
            seeded["_class_bits"] = tuple(grown_bits)
        return grown

    def subset(self, indices: Sequence[int]) -> "RelationalDataset":
        """A new dataset containing only the given sample indices (in order)."""
        rows = np.asarray(list(indices), dtype=np.intp)
        return RelationalDataset._from_matrix(
            self.bool_matrix[rows],
            self.item_names,
            self.class_names,
            self.label_array[rows],
            (
                tuple(self.sample_names[i] for i in rows)
                if self.sample_names is not None
                else None
            ),
        )

    def support_of_itemset(self, itemset: Iterable[int]) -> FrozenSet[int]:
        """All sample indices whose expressed items contain ``itemset``."""
        return self.support_bits_of_itemset(itemset).to_frozenset()

    @staticmethod
    def from_bool_matrix(
        matrix: np.ndarray,
        labels: Sequence[int],
        item_names: Optional[Sequence[str]] = None,
        class_names: Optional[Sequence[str]] = None,
        sample_names: Optional[Sequence[str]] = None,
    ) -> "RelationalDataset":
        """Build from a dense boolean matrix (n_samples x n_items); the
        dataset keeps its own copy."""
        matrix = np.array(matrix, dtype=bool)
        if matrix.ndim != 2:
            raise DatasetError("matrix must be 2-dimensional")
        if item_names is None:
            item_names = [f"g{j + 1}" for j in range(matrix.shape[1])]
        if class_names is None:
            class_names = [str(c) for c in sorted(set(int(v) for v in labels))]
        return RelationalDataset._from_matrix(
            matrix,
            tuple(str(n) for n in item_names),
            tuple(str(n) for n in class_names),
            labels,
            tuple(str(n) for n in sample_names) if sample_names is not None else None,
        )


@dataclass(frozen=True)
class ExpressionMatrix:
    """Continuous microarray measurements prior to discretization.

    Attributes:
        gene_names: name of each gene (column).
        values: float matrix, shape (n_samples, n_genes).
        labels: class id per sample.
        class_names: display name per class id.
        sample_names: optional display names for samples.
    """

    gene_names: Tuple[str, ...]
    values: np.ndarray
    labels: Tuple[int, ...]
    class_names: Tuple[str, ...]
    sample_names: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise DatasetError("values must be 2-dimensional")
        if values.shape[0] != len(self.labels):
            raise DatasetError(
                f"{values.shape[0]} rows but {len(self.labels)} labels"
            )
        if values.shape[1] != len(self.gene_names):
            raise DatasetError(
                f"{values.shape[1]} columns but {len(self.gene_names)} gene names"
            )
        n_classes = len(self.class_names)
        for idx, label in enumerate(self.labels):
            if not 0 <= label < n_classes:
                raise DatasetError(f"sample {idx} has unknown class id {label}")

    @property
    def n_samples(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_genes(self) -> int:
        return int(self.values.shape[1])

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @cached_property
    def label_array(self) -> np.ndarray:
        return np.asarray(self.labels, dtype=np.int64)

    def class_members(self, class_id: int) -> Tuple[int, ...]:
        return tuple(i for i, lab in enumerate(self.labels) if lab == class_id)

    def class_sizes(self) -> Tuple[int, ...]:
        sizes = [0] * self.n_classes
        for lab in self.labels:
            sizes[lab] += 1
        return tuple(sizes)

    def subset(self, indices: Sequence[int]) -> "ExpressionMatrix":
        indices = list(indices)
        return ExpressionMatrix(
            gene_names=self.gene_names,
            values=self.values[indices],
            labels=tuple(self.labels[i] for i in indices),
            class_names=self.class_names,
            sample_names=(
                tuple(self.sample_names[i] for i in indices)
                if self.sample_names is not None
                else None
            ),
        )

    def select_genes(self, gene_indices: Sequence[int]) -> "ExpressionMatrix":
        gene_indices = list(gene_indices)
        return ExpressionMatrix(
            gene_names=tuple(self.gene_names[j] for j in gene_indices),
            values=self.values[:, gene_indices],
            labels=self.labels,
            class_names=self.class_names,
            sample_names=self.sample_names,
        )


def running_example() -> RelationalDataset:
    """The paper's Table 1 running example.

    Five samples over genes g1..g6 with classes Cancer (s1, s2, s3) and
    Healthy (s4, s5).  Item ids 0..5 correspond to genes g1..g6; class id 0 is
    Cancer and class id 1 is Healthy.
    """
    genes = ("g1", "g2", "g3", "g4", "g5", "g6")
    expressed = [
        {"g1", "g2", "g3", "g5"},  # s1  Cancer
        {"g1", "g3", "g6"},        # s2  Cancer
        {"g2", "g4", "g6"},        # s3  Cancer
        {"g2", "g3", "g5"},        # s4  Healthy
        {"g3", "g4", "g5", "g6"},  # s5  Healthy
    ]
    index = {name: i for i, name in enumerate(genes)}
    samples = tuple(frozenset(index[g] for g in row) for row in expressed)
    return RelationalDataset(
        item_names=genes,
        class_names=("Cancer", "Healthy"),
        samples=samples,
        labels=(0, 0, 0, 1, 1),
        sample_names=("s1", "s2", "s3", "s4", "s5"),
    )
