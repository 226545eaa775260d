"""Exact combinatorics of lattice paths between two boundaries."""

from .paths import (
    ContactStats,
    InvariantError,
    Path,
    PathError,
    Region,
    RegionError,
    contact_stats,
    contains,
    descent_set,
    noncontact_heights,
    north_index_set,
    parse_path,
)
from .polynomials import MultiPoly
from .words import factorize, switch, switch_inv
from .swaps import contact_word, swap, swap_inv, swapall
from .enumeration import (
    enumerate_paths,
    enumerate_tuples,
    lgv_count,
    path_distribution,
)
from .tuples import PathTuple, apply_perm_h, h_stats, transpose_h, u_stats, v_stats
from .matroids import (
    BasesOracle,
    activities,
    bltr_single_path,
    bltr_tuple_bijection,
    lpm_oracle,
    natural_order,
    phi_xy,
    reorder_bijection,
    reversed_order,
    tutte_poly,
    uniform_oracle,
)
from .tableaux import (
    Tableau,
    YoungShape,
    flagged_schur,
    psi,
    psi_inv,
    tab_of_tuple,
)
from .applications import (
    andre_barbier_count,
    conjecture_check,
    contact_formula_count,
    corollary_ij_check,
    path_of_perm,
    perm_of_path,
    perm_stats,
)
from .triangulations import (
    Triangulation,
    catalan_det,
    degree_sequence,
    enumerate_k_triangulations,
    nicolas_check,
    nontrivial_diagonals,
)

__all__ = [name for name in dir() if not name.startswith("_")]
