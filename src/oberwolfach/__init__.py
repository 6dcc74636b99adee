"""Constructive solver and certifier for the directed Oberwolfach problem
with bipartite factors, orders congruent to 2 mod 4."""

from .core import (
    Arc,
    CycleType,
    Digraph,
    DirectedCycle,
    DirectedPath,
    TwoRegularDigraph,
    Vertex,
    cycle_type_of,
    parse_cycle_type,
)
from .hosts import HostDescriptor, complete_symmetric, fold, h_star, j_star, w_star
from .caps import (
    AdmissibleDecomposition,
    external_pattern,
    is_admissible,
    j_decompose,
    splice,
    w_star_factorization,
)
from .checker import (
    Nonexistent,
    VerificationReport,
    brute_force_factorization,
    verify_admissible_decomposition,
    verify_cap_complementarity,
    verify_factorization,
)
from .hstar import HStarFactorization, factorize_h_star, haggkvist_undirected
from .solver import (
    DomainError,
    Factorization,
    round_robin_two_cycles,
    solve,
    wh_decompose,
)

__all__ = [
    "Arc",
    "CycleType",
    "Digraph",
    "DirectedCycle",
    "DirectedPath",
    "TwoRegularDigraph",
    "Vertex",
    "cycle_type_of",
    "parse_cycle_type",
    "HostDescriptor",
    "complete_symmetric",
    "fold",
    "h_star",
    "j_star",
    "w_star",
    "AdmissibleDecomposition",
    "external_pattern",
    "is_admissible",
    "j_decompose",
    "splice",
    "w_star_factorization",
    "Nonexistent",
    "VerificationReport",
    "brute_force_factorization",
    "verify_admissible_decomposition",
    "verify_cap_complementarity",
    "verify_factorization",
    "HStarFactorization",
    "factorize_h_star",
    "haggkvist_undirected",
    "DomainError",
    "Factorization",
    "round_robin_two_cycles",
    "solve",
    "wh_decompose",
]

__version__ = "0.1.0"
