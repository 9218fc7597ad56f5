"""Boolean Structure Tables: construction, row BARs, and (MC)2BAR mining."""

from .mining import mine_mcmcbar, mine_mcmcbar_per_sample
from .row_bar import StructuredBAR, all_gene_row_bars, gene_row_bar, is_maximally_complex
from .table import BST, BSTCell, ExclusionList, build_all_bsts

__all__ = [
    "BST", "BSTCell", "ExclusionList", "build_all_bsts",
    "StructuredBAR", "gene_row_bar", "all_gene_row_bars", "is_maximally_complex",
    "mine_mcmcbar", "mine_mcmcbar_per_sample",
]

from .culling import (
    cull_bst,
    cull_cell_lists,
    culling_ratio,
)

__all__ += [
    "cull_bst",
    "cull_cell_lists",
    "culling_ratio",
]
