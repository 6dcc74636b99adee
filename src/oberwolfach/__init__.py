"""Constructive solver and certifier for the directed Oberwolfach problem
with bipartite factors, orders congruent to 2 mod 4."""

from .core import CycleType, Vertex, parse_cycle_type
from .hosts import HostDescriptor
from .tables import AdmissibleDecomposition
from .caps import j_decompose
from .checker import (
    Nonexistent,
    VerificationReport,
    brute_force_factorization,
    verify_admissible_decomposition,
    verify_cap_complementarity,
    verify_id_factorization,
)
from .hstar import HStarFactorization, factorize_h_star
from .solver import (
    DomainError,
    Factorization,
    round_robin_two_cycles,
    solve,
    wh_decompose,
)

__all__ = [
    "CycleType",
    "Vertex",
    "parse_cycle_type",
    "HostDescriptor",
    "AdmissibleDecomposition",
    "j_decompose",
    "Nonexistent",
    "VerificationReport",
    "brute_force_factorization",
    "verify_admissible_decomposition",
    "verify_cap_complementarity",
    "verify_id_factorization",
    "HStarFactorization",
    "factorize_h_star",
    "DomainError",
    "Factorization",
    "round_robin_two_cycles",
    "solve",
    "wh_decompose",
]

__version__ = "0.4.0"
