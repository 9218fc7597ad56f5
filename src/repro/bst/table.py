"""Boolean Structure Tables (Section 3.1, Algorithm 1).

A BST ``T(i)`` for class ``C_i`` is a two-dimensional table ``G x C_i``.  The
cell ``(g, c)`` is:

* *blank* when sample ``c`` does not express gene ``g``;
* a *black dot* when ``c`` expresses ``g`` and no sample outside ``C_i``
  expresses ``g``;
* otherwise a list of *exclusion lists*, one per outside sample ``h`` that
  also expresses ``g``.

The exclusion list for a pair ``(c, h)`` is computed once and shared by every
cell of ``c``'s column that needs it — this is Algorithm 1's pointer scheme
and what bounds BST space by ``O((|S| - |C_i|) * |G| * |C_i|)``.

A negative list ``(h: -g1, ..., -gn)`` holds the genes ``h`` expresses but
``c`` does not: a query resembling ``c`` is distinguished from ``h`` by *not*
expressing at least one of them.  When that set is empty (``h``'s genes are a
subset of ``c``'s) the fallback positive list ``(h: g1, ..., gn)`` holds the
genes ``c`` expresses but ``h`` does not.  If both sets are empty the two
samples express identical gene sets and the list is empty — the corresponding
cell rule is unsatisfiable (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..core.bitset import BitSet
from ..datasets.dataset import RelationalDataset
from ..rules.boolexpr import (
    FALSE,
    And,
    Expr,
    Var,
    any_expressed,
    any_not_expressed,
)


@dataclass(frozen=True)
class ExclusionList:
    """One exclusion list ``(h : [-]g1, ..., [-]gn)`` shared along a column.

    Attributes:
        outside_sample: global index of the excluded outside sample ``h``.
        items: the gene/item ids in the list, in ascending order.
        negated: True for a ``(h: -g1...)`` list (satisfied by *not*
            expressing a listed gene), False for the positive fallback.
    """

    outside_sample: int
    items: Tuple[int, ...]
    negated: bool

    @property
    def is_empty(self) -> bool:
        return not self.items

    def satisfied_literals(self, expressed: AbstractSet[int]) -> int:
        """Number of literals in the list a query satisfies.

        A negative literal ``-g`` is satisfied when the query does not express
        ``g``; a positive literal when it does (Section 2.1's ``s[-g]``).
        """
        hits = sum(1 for item in self.items if item in expressed)
        if self.negated:
            return len(self.items) - hits
        return hits

    def satisfaction(self, expressed: AbstractSet[int]) -> float:
        """BSTCE's ``V_e``: fraction of the list's literals the query
        satisfies (Algorithm 5 line 4).  Empty lists are unsatisfiable."""
        if not self.items:
            return 0.0
        return self.satisfied_literals(expressed) / len(self.items)

    def is_satisfied(self, expressed: AbstractSet[int]) -> bool:
        """Boolean satisfaction: at least one literal holds (the list is a
        disjunction in the cell rule)."""
        return self.satisfied_literals(expressed) > 0

    def clause(self) -> Expr:
        """The boolean clause this list contributes to a cell rule."""
        if self.negated:
            return any_not_expressed(self.items)
        return any_expressed(self.items)

    def render(self, dataset: RelationalDataset) -> str:
        sign = "-" if self.negated else ""
        body = ",".join(sign + dataset.item_names[i] for i in self.items)
        return f"({dataset.sample_name(self.outside_sample)}: {body})"


@dataclass(frozen=True)
class BSTCell:
    """A non-blank BST cell ``(gene, sample)`` and its atomic cell rule."""

    gene: int
    sample: int
    black_dot: bool
    exclusion_lists: Tuple[ExclusionList, ...]

    def rule_antecedent(self) -> Expr:
        """The cell rule's antecedent: ``g AND clause_1 AND ... AND clause_m``.

        A black-dot cell's rule is simply ``g`` — the gene alone excludes
        every outside sample.
        """
        parts: List[Expr] = [Var(self.gene)]
        for elist in self.exclusion_lists:
            parts.append(elist.clause())
        if len(parts) == 1:
            return parts[0]
        return And(tuple(parts)).simplify()

    def is_satisfied(self, expressed: AbstractSet[int]) -> bool:
        """Exact boolean satisfaction of the cell rule by a query."""
        if self.gene not in expressed:
            return False
        return all(e.is_satisfied(expressed) for e in self.exclusion_lists)


class BST:
    """The Boolean Structure Table for one class of a relational dataset.

    Build with :meth:`BST.build` (Algorithm 1).  Columns are the class's
    samples in dataset order; rows are genes.  ``cell(gene, sample)`` returns
    ``None`` for blank cells.
    """

    def __init__(
        self,
        dataset: RelationalDataset,
        class_id: int,
        columns: Tuple[int, ...],
        outside: Tuple[int, ...],
        cells: Dict[Tuple[int, int], BSTCell],
        pair_lists: Dict[Tuple[int, int], ExclusionList],
    ):
        self.dataset = dataset
        self.class_id = class_id
        self.columns = columns
        self.outside = outside
        self._cells = cells
        self._pair_lists = pair_lists

    # ------------------------------------------------------------------
    # Construction (Algorithm 1)
    # ------------------------------------------------------------------
    @staticmethod
    def build(dataset: RelationalDataset, class_id: int) -> "BST":
        """Create the BST for ``class_id`` per Algorithm 1."""
        if not 0 <= class_id < dataset.n_classes:
            raise ValueError(f"unknown class id {class_id}")
        columns = dataset.class_members(class_id)
        outside = dataset.outside_members(class_id)
        outside_bits = dataset.outside_bits(class_id)

        # Per gene, the outside samples expressing it: one word-wise AND of
        # the gene's packed sample column against the outside mask.
        outside_expressing: Dict[int, Tuple[int, ...]] = {}

        def expressing_outside(gene: int) -> Tuple[int, ...]:
            found = outside_expressing.get(gene)
            if found is None:
                found = (dataset.item_bits(gene) & outside_bits).members()
                outside_expressing[gene] = found
            return found

        # Algorithm 1 lines 10-20: one shared exclusion list per (c, h) pair.
        # The list contents are packed-bitset differences of the two samples'
        # item rows (members() yields them in ascending item order).
        pair_lists: Dict[Tuple[int, int], ExclusionList] = {}

        def pair_list(c: int, h: int) -> ExclusionList:
            key = (c, h)
            found = pair_lists.get(key)
            if found is not None:
                return found
            c_items = dataset.sample_bits(c)
            h_items = dataset.sample_bits(h)
            negatives = (h_items - c_items).members()
            if negatives:
                elist = ExclusionList(h, negatives, negated=True)
            else:
                positives = (c_items - h_items).members()
                elist = ExclusionList(h, positives, negated=not positives)
            pair_lists[key] = elist
            return elist

        cells: Dict[Tuple[int, int], BSTCell] = {}
        for c in columns:
            for gene in dataset.sample_bits(c).members():
                expressing = expressing_outside(gene)
                if not expressing:
                    cells[(gene, c)] = BSTCell(gene, c, True, ())
                else:
                    lists = tuple(pair_list(c, h) for h in expressing)
                    cells[(gene, c)] = BSTCell(gene, c, False, lists)
        return BST(dataset, class_id, columns, outside, cells, pair_lists)

    def append_rows(self, grown: RelationalDataset) -> "BST":
        """The BST for ``grown`` — this table's dataset plus appended rows —
        built incrementally from this table.

        ``grown`` must extend ``self.dataset`` append-only (same items and
        classes, identical sample prefix; what
        :meth:`RelationalDataset.append_samples` produces).  Appended rows
        take the highest indices, so existing column order, outside order,
        and each cell's ascending exclusion-list order are all stable; the
        result is **identical** to ``BST.build(grown, class_id)`` — same
        cells, same shared pair lists — at O(new rows × genes) pair-list
        cost instead of a full O(all rows × genes) rebuild:

        * old ``(c, h)`` pair lists depend only on the two rows' contents,
          never on dataset size, and are reused verbatim;
        * an old cell changes only when a *new outside* row expresses its
          gene (a black dot degrades to a list cell; a list cell appends
          the new pairs at its tail);
        * new class columns are built exactly as Algorithm 1 does.
        """
        base = self.dataset
        old_n = base.n_samples
        if (
            grown.item_names != base.item_names
            or grown.class_names != base.class_names
        ):
            raise ValueError("grown dataset has different vocabularies")
        if (
            grown.n_samples < old_n
            or grown.labels[:old_n] != base.labels
            or not np.array_equal(grown.bool_matrix[:old_n], base.bool_matrix)
        ):
            raise ValueError(
                "grown dataset is not an append-only extension of the base"
            )
        class_id = self.class_id
        new_columns = tuple(
            i for i in range(old_n, grown.n_samples)
            if grown.labels[i] == class_id
        )
        new_outside = tuple(
            i for i in range(old_n, grown.n_samples)
            if grown.labels[i] != class_id
        )
        columns = self.columns + new_columns
        outside = self.outside + new_outside
        cells = dict(self._cells)
        pair_lists = dict(self._pair_lists)

        def pair_list(c: int, h: int) -> ExclusionList:
            key = (c, h)
            found = pair_lists.get(key)
            if found is not None:
                return found
            c_items = grown.sample_bits(c)
            h_items = grown.sample_bits(h)
            negatives = (h_items - c_items).members()
            if negatives:
                elist = ExclusionList(h, negatives, negated=True)
            else:
                positives = (c_items - h_items).members()
                elist = ExclusionList(h, positives, negated=not positives)
            pair_lists[key] = elist
            return elist

        class_bits = grown.class_bits(class_id)

        # Old columns: only genes expressed by a new outside row change.
        # New outside rows have the highest indices, so appending their
        # lists keeps each cell's ascending outside order.
        gene_to_new_h: Dict[int, List[int]] = {}
        for h in new_outside:
            for gene in grown.samples[h]:
                gene_to_new_h.setdefault(gene, []).append(h)
        for gene, new_hs in gene_to_new_h.items():
            for c in (grown.item_bits(gene) & class_bits).members():
                if c >= old_n:
                    continue  # new class columns are built in full below
                old_cell = cells[(gene, c)]
                extra = tuple(pair_list(c, h) for h in new_hs)
                cells[(gene, c)] = BSTCell(
                    gene, c, False, old_cell.exclusion_lists + extra
                )

        # New class columns: Algorithm 1 verbatim, over the grown dataset.
        outside_bits = grown.outside_bits(class_id)
        outside_expressing: Dict[int, Tuple[int, ...]] = {}
        for c in new_columns:
            for gene in grown.sample_bits(c).members():
                expressing = outside_expressing.get(gene)
                if expressing is None:
                    expressing = (
                        grown.item_bits(gene) & outside_bits
                    ).members()
                    outside_expressing[gene] = expressing
                if not expressing:
                    cells[(gene, c)] = BSTCell(gene, c, True, ())
                else:
                    lists = tuple(pair_list(c, h) for h in expressing)
                    cells[(gene, c)] = BSTCell(gene, c, False, lists)
        return BST(grown, class_id, columns, outside, cells, pair_lists)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def class_label(self) -> str:
        return self.dataset.class_names[self.class_id]

    def cell(self, gene: int, sample: int) -> Optional[BSTCell]:
        """The cell at ``(gene, sample)`` or ``None`` when blank."""
        return self._cells.get((gene, sample))

    def column_cells(self, sample: int) -> List[BSTCell]:
        """All non-blank cells of one class sample's column."""
        return [
            self._cells[(gene, sample)]
            for gene in sorted(self.dataset.samples[sample])
        ]

    def row_cells(self, gene: int) -> List[BSTCell]:
        """All non-blank cells of one gene's row, in column order."""
        out = []
        for c in self.columns:
            cell = self._cells.get((gene, c))
            if cell is not None:
                out.append(cell)
        return out

    @property
    def class_bits(self) -> BitSet:
        """The class's sample set ``C_i`` as a packed bitset."""
        return self.dataset.class_bits(self.class_id)

    @property
    def outside_bits(self) -> BitSet:
        """The outside sample set ``S - C_i`` as a packed bitset."""
        return self.dataset.outside_bits(self.class_id)

    def row_support(self, gene: int) -> FrozenSet[int]:
        """Class samples supporting the gene-row BAR (those expressing g)."""
        return self.row_support_bits(gene).to_frozenset()

    def row_support_bits(self, gene: int) -> BitSet:
        """Packed row support: the gene's sample column ANDed with C_i."""
        return self.dataset.item_bits(gene) & self.class_bits

    def nonblank_genes(self) -> FrozenSet[int]:
        """Genes expressed by at least one class sample."""
        return frozenset(gene for gene, _ in self._cells)

    def pair_exclusion_list(self, c: int, h: int) -> Optional[ExclusionList]:
        """The shared exclusion list for class sample ``c`` vs outside ``h``
        (``None`` when never materialized: no gene is shared by both)."""
        return self._pair_lists.get((c, h))

    def n_cells(self) -> int:
        return len(self._cells)

    def space_cost(self) -> int:
        """Total stored exclusion-list references plus black dots — the
        quantity bounded by O((|S|-|C_i|) * |G| * |C_i|) in Section 3.1.1."""
        total = 0
        for cell in self._cells.values():
            total += 1 if cell.black_dot else len(cell.exclusion_lists)
        return total

    # ------------------------------------------------------------------
    # Rendering (Figure 1 style)
    # ------------------------------------------------------------------
    def render(self) -> str:
        """ASCII rendering of the table in the style of Figure 1."""
        ds = self.dataset
        lines = [f"BST for class {self.class_label}"]
        header = "      | " + " | ".join(ds.sample_name(c) for c in self.columns)
        lines.append(header)
        lines.append("-" * len(header))
        for gene in range(ds.n_items):
            row_parts = []
            any_cell = False
            for c in self.columns:
                cell = self._cells.get((gene, c))
                if cell is None:
                    row_parts.append("")
                elif cell.black_dot:
                    row_parts.append("*")
                    any_cell = True
                else:
                    row_parts.append(
                        " ".join(e.render(ds) for e in cell.exclusion_lists)
                    )
                    any_cell = True
            if any_cell:
                lines.append(
                    f"{ds.item_names[gene]:>5} | " + " | ".join(row_parts)
                )
        return "\n".join(lines)


def build_all_bsts(
    dataset: RelationalDataset, base: Optional[Sequence[BST]] = None
) -> List[BST]:
    """Construct the BSTs ``T(1), ..., T(N)`` for every class (Section 5.3).

    With ``base`` — the tables previously built for a prefix of ``dataset``
    — each class's table is extended via :meth:`BST.append_rows` instead of
    rebuilt, identical output at incremental cost.
    """
    if base is not None:
        if len(base) != dataset.n_classes:
            raise ValueError(
                f"base has {len(base)} tables for {dataset.n_classes} classes"
            )
        return [table.append_rows(dataset) for table in base]
    return [BST.build(dataset, class_id) for class_id in range(dataset.n_classes)]
