"""Top-level pipeline: verified F-factorizations of the complete symmetric
digraph for orders n = 2 (mod 4) and bipartite F.

Three routes:

* F all 2-cycles: the circle-method round robin, every edge doubled.
* n = 6: exhaustive search (order 6 carries the single nonexistent type [6]).
* otherwise (n = 2m >= 10): split the host into one circulant blow-up plus
  (m-5)/2 cycle blow-ups along Hamiltonian block cycles, and factor each
  part.  At n = 10 there are no block cycles: the circulant blow-up on 5
  blocks is the whole host.  The block cycles are built deterministically:
  closed form for jumps coprime to m, square switching for the jump pairs
  of the remaining ones.

Every route builds the factors as tuples of vertex ids of the complete
host (``hosts.HostDescriptor`` numbering) in canonical form, and every
returned factorization carries the report of one final check on those ids.
"""

from __future__ import annotations

import math
from operator import sub
from dataclasses import dataclass
from functools import cached_property
from typing import Union

from .caps import w_star_id_factors
from .checker import (
    Nonexistent,
    VerificationReport,
    brute_force_factorization,
    verify_id_factorization,
)
from .core import CycleType, canonical_id_cycles, two_regular_from_ids
from .hosts import HostDescriptor, complete_symmetric
from .hstar import factorize_h_star


class DomainError(ValueError):
    """Input outside the solvable domain (not a nonexistence result)."""


# A certificate of order n holds n(n-1) arcs, and the final check gathers
# them all as integer codes.  Measured under CPython 3.11 on x86-64, solve
# plus to_json of [n] peaks near 84 bytes per arc (95 MB at n = 1002,
# 335 MB at n = 2002, one process each); at that rate n = 4002 (16 million
# arcs) would need about 1.3 GB and n = 10002 about 8 GB.  Larger orders
# are refused up front.
MAX_ORDER = 4002


def check_order(n: int) -> None:
    """Raise DomainError when order ``n`` is above ``MAX_ORDER``."""
    if n > MAX_ORDER:
        raise DomainError(
            f"n = {n} is above the largest supported order {MAX_ORDER} "
            f"(a certificate holds n(n-1) arcs)"
        )


@dataclass(frozen=True)
class WHDecomposition:
    """Split of the order-2m complete host: the jump-{1,2} circulant blow-up
    (implicit, identity labels) plus Hamiltonian block cycles at jumps >= 3,
    each to be blown up into a copy of the cycle blow-up host."""

    m: int
    h_block_cycles: tuple  # (m-5)/2 tuples over blocks 0..m-1


@dataclass(frozen=True)
class Factorization:
    """A verified factorization of the order-n complete symmetric digraph.

    ``id_factors`` holds the n-1 factors as tuples of cycles, each a tuple
    of the complete host's vertex ids (``hosts.HostDescriptor`` numbering)
    in canonical form; ``factors`` builds them as ``TwoRegularDigraph``s on
    the host's interned vertices on first access."""

    n: int
    ftype: CycleType
    id_factors: tuple
    report: VerificationReport

    @cached_property
    def factors(self) -> tuple:
        table = HostDescriptor("CompleteSymmetric", self.n).vertex_table
        return tuple(two_regular_from_ids(f, table) for f in self.id_factors)


def _pair_jumps(m: int, distances: list):
    """Split the jump set into coprime singles and connected pairs.

    Jumps d with gcd(d, m) > 1 have no single-jump Hamiltonian cycle, so
    each is paired with a partner e such that gcd(d, e, m) = 1 (the pair
    circulant is then connected, 4-regular, and Hamilton-decomposable).
    One pass in ascending order pairs each awkward jump with d-1 if that is
    still free, else with d+1 -- gcd(d, d+1) = 1, so either qualifies --
    else with any free coprime jump.  For wh_decompose's jumps 3..(m-1)/2
    the top jump is coprime to m, so d+1 always exists.
    """
    free = set(distances)
    pairs = []
    for d in sorted(distances):
        if d not in free or math.gcd(d, m) == 1:
            continue
        free.remove(d)
        if d - 1 in free:
            e = d - 1
        elif d + 1 in free:
            e = d + 1
        else:
            e = min((x for x in free if math.gcd(x, m) == 1), default=None)
            if e is None:
                raise RuntimeError(f"cannot pair jump {d} of {distances} for m={m}")
        free.remove(e)
        pairs.append((d, e))
    return [d for d in distances if d in free], pairs


def _decompose_pair_circulant(m: int, d: int, e: int):
    """Two Hamiltonian cycles partitioning the edges of the block circulant
    C_m(d, e), by square switching (after Bermond, Favaron & Maheo, JCTB 46,
    1989).

    Factor X starts with every d-edge {i, i+d} and factor Y with every
    e-edge {i, i+e}.  The square at i is the 4-cycle i, i+d, i+d+e, i+e; it
    is alternating when its two d-edges lie in one factor and its two
    e-edges in the other, and switching it swaps them over, so both factors
    stay 2-regular.  The first alternating square, in order of i, whose
    switch lowers the total cycle count without raising either factor's
    count is switched, until both factors are Hamilton cycles.  Cycle ids
    and positions make each candidate an O(1) test and are rebuilt in O(m)
    per switch, O(m^2) in all.  Deterministic; raises RuntimeError if no
    square qualifies.
    """
    side = ([0] * m, [1] * m)  # factor holding edge {i, i+d} / {i, i+e}

    def label(f: int):
        """Cycle id and position of every vertex in factor f, cycle lengths."""
        adj: list = [[] for _ in range(m)]
        for x, owners in zip((d, e), side):
            for i, owner in enumerate(owners):
                if owner == f:
                    adj[i].append((i + x) % m)
                    adj[(i + x) % m].append(i)
        cid, pos, lengths = [-1] * m, [0] * m, []
        for start in range(m):
            prev, v, k = adj[start][1], start, 0
            while cid[v] < 0:
                cid[v], pos[v], k = len(lengths), k, k + 1
                u, w = adj[v]
                prev, v = v, (w if u == prev else u)
            if k:
                lengths.append(k)
        return cid, pos, lengths

    def delta(lab, p: int, q: int, r: int, s: int) -> int:
        """Change in a factor's cycle count when its edges {p,q}, {r,s}
        give way to {p,r}, {q,s}."""
        cid, pos, lengths = lab
        if cid[p] != cid[r]:
            return -1
        size = lengths[cid[p]]
        return 0 if (pos[q] - pos[p]) % size == (pos[s] - pos[r]) % size else 1

    while True:
        labs = (label(0), label(1))
        if len(labs[0][2]) == len(labs[1][2]) == 1:
            return tuple(
                tuple(sorted(range(m), key=lab[1].__getitem__)) for lab in labs
            )
        for a in range(m):
            b, c, s = (a + d) % m, (a + e) % m, (a + d + e) % m
            f = side[0][a]
            if side[0][c] != f or side[1][a] == f or side[1][b] == f:
                continue
            dx, dy = delta(labs[f], a, b, c, s), delta(labs[1 - f], a, c, b, s)
            if max(dx, dy) <= 0 and dx + dy < 0:
                side[0][a] = side[0][c] = 1 - f
                side[1][a] = side[1][b] = f
                break
        else:
            raise RuntimeError(
                f"no square switch splits jumps {{{d},{e}}} on {m} blocks"
            )


def _hamilton_cycles_decomposition(m: int, distances: list) -> list:
    """Split the block circulant on the given jump set into Hamiltonian
    cycles, one per jump."""
    singles, pairs = _pair_jumps(m, distances)
    cycles = [tuple((i * d) % m for i in range(m)) for d in sorted(singles)]
    for d, e in pairs:
        cycles.extend(_decompose_pair_circulant(m, d, e))
    return cycles


def wh_decompose(m: int) -> WHDecomposition:
    """Reserve rungs and jumps 1, 2 for the circulant blow-up; split the
    remaining jumps 3..(m-1)/2 into Hamiltonian block cycles.

    Jumps coprime to m get the closed-form cycles i*d mod m; the rest are
    paired and each pair circulant is split by square switching in O(m^2),
    with no search, so the split depends on m alone.  At m = 5 there are no
    such jumps and no block cycles.
    """
    if m < 5 or m % 2 == 0:
        raise DomainError(f"need odd m >= 5, got {m}")
    distances = list(range(3, (m - 1) // 2 + 1))
    cycles = _hamilton_cycles_decomposition(m, distances)
    reserved = {0, 1, 2, m - 2, m - 1}
    for cyc in cycles:
        if len(set(cyc)) != m:
            raise RuntimeError("block cycle is not Hamiltonian")
        steps = set(map(sub, cyc[1:] + cyc[:1], cyc))
        if not reserved.isdisjoint(step % m for step in steps):
            raise RuntimeError("block cycle uses a reserved jump")
    return WHDecomposition(m, tuple(cycles))


def round_robin_two_cycles(n: int) -> Factorization:
    """Circle-method 1-factorization of the complete graph, each edge
    replaced by a directed 2-cycle: n-1 factors of type [2^(n/2)]."""
    if n < 2 or n % 2:
        raise DomainError(f"need even n >= 2, got {n}")
    host = HostDescriptor("CompleteSymmetric", n)
    pivot = n - 1  # the last id; the wheel is ids 0..n-2
    factors = []
    for r in range(n - 1):
        pairs = [(r, pivot)]
        for i in range(1, (n - 1) // 2 + 1):
            pairs.append(((r + i) % (n - 1), (r - i) % (n - 1)))
        factors.append(canonical_id_cycles(pairs))
    ftype = CycleType([2] * (n // 2))
    return _verified(host, factors, ftype, "round robin")


def _verified(host: HostDescriptor, factors: list, ftype: CycleType, route: str):
    """The factorization of id factors ``factors``, after the final check."""
    report = verify_id_factorization(host, factors, ftype)
    if not report.passed:
        raise RuntimeError(f"{route} failed verification: {report.failures()}")
    return Factorization(host.m_or_n, ftype, tuple(factors), report)


def _relabel(factor: list, image: list) -> tuple:
    """An H* factor's id cycles through the permutation ``image`` of ids."""
    return canonical_id_cycles([list(map(image.__getitem__, c)) for c in factor])


def solve(n: int, ftype: CycleType) -> Union[Factorization, Nonexistent]:
    """Verified F-factorization of the order-n complete symmetric digraph,
    or Nonexistent for the single impossible case (n, F) = (6, [6])."""
    check_order(n)
    if n % 4 != 2:
        raise DomainError(f"n = {n} is not 2 (mod 4)")
    if not ftype.is_bipartite():
        raise DomainError(f"{ftype} contains an odd cycle length")
    if ftype.order != n:
        raise DomainError(f"cycle lengths sum to {ftype.order}, not {n}")

    if set(ftype.lengths) == {2}:
        return round_robin_two_cycles(n)
    host = HostDescriptor("CompleteSymmetric", n)
    if n == 6:
        found = brute_force_factorization(complete_symmetric(n), ftype)
        if isinstance(found, Nonexistent):
            return found
        ids = host.vertex_ids.__getitem__
        factors = [
            canonical_id_cycles([list(map(ids, c.vertices)) for c in f.cycles])
            for f in found
        ]
    else:
        m = n // 2
        wh = wh_decompose(m)
        # W*, H* and the complete host of order 2m share one numbering
        # (x_i -> i, y_i -> m + i): the W* factors need no relabelling, and
        # the H* copy on block cycle b maps id i to image[i]
        factors = w_star_id_factors(ftype)
        if wh.h_block_cycles:
            hids = factorize_h_star(ftype, m).id_factors
            # one int object per id, shared by every copy's tuples
            number = list(range(n))
            for block_cycle in wh.h_block_cycles:
                image = [number[b] for b in block_cycle]
                image += [number[m + b] for b in block_cycle]
                factors.extend(_relabel(f, image) for f in hids)
    return _verified(host, factors, ftype, "solve")
