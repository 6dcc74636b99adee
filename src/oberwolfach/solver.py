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
host (``hosts.HostDescriptor`` numbering), as gathered, and every returned
factorization carries the report of one final check on those ids.
"""

from __future__ import annotations

import math
from itertools import starmap
from operator import itemgetter
from functools import lru_cache
from typing import NamedTuple, Union

from .caps import w_star_id_factors
from .checker import (
    Nonexistent,
    VerificationReport,
    brute_force_factorization,
    verify_id_factorization,
)
from .core import CycleType, relabelled
from .hosts import HostDescriptor
from .hstar import factorize_h_star


class DomainError(ValueError):
    """Input outside the solvable domain (not a nonexistence result)."""


# A certificate of order n holds n(n-1) arcs.  Measured under CPython 3.11
# on x86-64, one process each: at n = 4002 (16 million arcs) ``solve --out``
# of [n] took 4.0-4.8 s and peaked at 222 MB in every format, its final
# check holding one 32-bit successor table per factor.  Many short cycles
# peak higher: 362 MB for [6^667], 648 MB for [2^1997,8] and, the worst,
# 1,099 MB for [2^2001].  An in-process to_json of [n], which holds the
# factors' texts and the joined text at once, peaked at 664 MB.
# Larger orders are refused up front.
MAX_ORDER = 4002


def check_order(n: int) -> None:
    """Raise DomainError when order ``n`` is below 2 or above ``MAX_ORDER``.
    The least order is tested here, not left to ``n % 4``, which is 2 for
    n = -6 as well."""
    if n < 2:
        raise DomainError(f"n = {n} is below the least order 2")
    if n > MAX_ORDER:
        raise DomainError(
            f"n = {n} is above the largest supported order {MAX_ORDER} "
            f"(a certificate holds n(n-1) arcs)"
        )


class WHDecomposition(NamedTuple):
    """Split of the order-2m complete host: the jump-{1,2} circulant blow-up
    (implicit, identity labels) plus Hamiltonian block cycles at jumps >= 3,
    each to be blown up into a copy of the cycle blow-up host."""

    m: int
    h_block_cycles: tuple  # (m-5)/2 tuples over blocks 0..m-1


class Factorization(NamedTuple):
    """A verified factorization of the order-n complete symmetric digraph.

    ``id_factors`` holds the n-1 factors as built and checked: tuples of
    cycles, each a tuple of the complete host's vertex ids
    (``hosts.HostDescriptor`` numbering) as gathered; id i names the vertex
    ``HostDescriptor("CompleteSymmetric", n).vertex_table[i]``."""

    n: int
    ftype: CycleType
    id_factors: tuple
    report: VerificationReport


def _pair_jumps(m: int):
    """Split the jumps 3..(m-1)/2 of odd m into coprime singles and
    connected pairs.

    Jumps d with gcd(d, m) > 1 have no single-jump Hamiltonian cycle, so
    each is paired with a partner e such that gcd(d, e, m) = 1 (the pair
    circulant is then connected, 4-regular, and Hamilton-decomposable).
    One pass in ascending order pairs each awkward jump d with d-1 if that
    is still free, else with d+1; gcd(d, d±1) = 1, so either qualifies.

    The top jump (m-1)/2 is coprime to m, since gcd((m-1)/2, m) divides
    gcd(m-1, m) = 1.  So d+1 is always free when d is reached: d+1 is a
    jump, since d is awkward and so below the top; d+1 was not paired as
    an awkward jump, since those are taken in ascending order; and it was
    not taken as the partner d'-1 or d'+1 of an earlier awkward d' < d,
    since d'-1 < d + 1 and d'+1 = d+1 only for d' = d.
    """
    jumps = range(3, (m - 1) // 2 + 1)
    free = set(jumps)
    pairs = []
    for d in jumps:
        if d not in free or math.gcd(d, m) == 1:
            continue
        free.remove(d)
        e = d - 1 if d - 1 in free else d + 1
        free.remove(e)
        pairs.append((d, e))
    return [d for d in jumps if d in free], pairs


def _retag(nxt: list, prv: list, cid: list, v: int, tag: int, flip: bool) -> None:
    """Give the cycle through ``v`` the id ``tag``, reversing it if ``flip``."""
    u = v
    while True:
        cid[u] = tag
        w = nxt[u]
        if flip:
            nxt[u], prv[u] = prv[u], w
        u = w
        if u == v:
            return


def _reverse(nxt: list, prv: list, q: int, r: int) -> None:
    """Reverse the run of a cycle from ``q`` forward to ``r`` in place; the
    caller reconnects its two ends."""
    u = q
    while True:
        w = nxt[u]
        nxt[u], prv[u] = prv[u], w
        if u == r:
            return
        u = w


def _switch(cycles: tuple, p: int, q: int, r: int, s: int, merge: bool) -> None:
    """Replace the edges {p,q}, {r,s} of a factor by {p,r}, {q,s}.

    ``cycles`` is the factor's oriented cycles as flat lists (successor,
    predecessor, cycle id of each block; size of each id).  A merge joins
    two cycles: the smaller takes the larger's id, reversed first when
    their orientations disagree.  Otherwise the edges lie on one cycle in
    the same direction and the shorter of the two runs between them is
    reversed, found by walking both at once.  Either way the switch
    rewrites no more blocks than the smaller cycle or run holds.
    """
    nxt, prv, cid, sizes = cycles
    if nxt[p] != q:  # the same two edges, named so that p -> q
        p, q, r, s = q, p, s, r
    if merge:  # p -> q on one cycle, r - s on the other
        a, b = cid[p], cid[r]
        flip = nxt[r] == s  # the join needs s -> r
        if sizes[a] >= sizes[b]:
            _retag(nxt, prv, cid, r, a, flip)
        else:
            _retag(nxt, prv, cid, p, b, flip)
            a, b = b, a
            if flip:
                p, q, r, s = q, p, s, r
        sizes[a] += sizes[b]
        sizes[b] = 0
        # q -> ... -> p -> r -> ... -> s -> q
        nxt[p], prv[r], nxt[s], prv[q] = r, p, q, s
    else:  # p -> q -> ... -> r -> s -> ... -> p
        u, w = q, s
        while u != r and w != p:
            u, w = nxt[u], nxt[w]
        if u != r:
            p, q, r, s = r, s, p, q
        _reverse(nxt, prv, q, r)
        # p -> r -> ... -> q -> s
        nxt[p], prv[r], nxt[q], prv[s] = r, p, s, q


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
    count is switched, until both factors are Hamilton cycles.

    Each factor keeps its cycles in place as oriented successor and
    predecessor lists with a cycle id per block (see ``_switch``), so each
    candidate is an O(1) test: two edges on different cycles merge them,
    two edges on one cycle keep the count when they run the same way and
    split it otherwise.  Each switch lowers the total count, so there are
    at most gcd(d, m) + gcd(e, m) - 2 of them, and each rewrites the
    smaller merged cycle or the shorter reversed run, at most m/2 blocks.
    No switch splits a cycle, so blocks on one cycle stay on one cycle: a
    square whose four blocks lie on one cycle of each factor can never
    lower the count again, and the scan drops it for good instead of
    passing it after every switch.  Each cycle is returned from block 0
    toward its first neighbour among 0+d, 0-d, 0+e, 0-e in that order.
    Deterministic; raises RuntimeError if no square qualifies.
    """
    side = ([0] * m, [1] * m)  # factor holding edge {i, i+d} / {i, i+e}

    def start(x: int) -> tuple:
        """C_m(x) oriented i -> i + x: g cycles, block i on cycle i mod g."""
        g, ids = math.gcd(x, m), range(m)
        nxt = [*ids[x:], *ids[:x]]
        prv = [*ids[m - x :], *ids[: m - x]]
        return nxt, prv, list(range(g)) * (m // g), [m // g] * g

    def delta(cycles: tuple, p: int, q: int, r: int, s: int) -> int:
        """Change in a factor's cycle count when its edges {p,q}, {r,s}
        give way to {p,r}, {q,s}."""
        nxt, _, cid, _ = cycles
        if cid[p] != cid[r]:
            return -1
        return 0 if (nxt[p] == q) == (nxt[r] == s) else 1

    factors = (start(d), start(e))
    counts = [len(factors[0][3]), len(factors[1][3])]
    later = [*range(1, m + 1), 0]  # next square in play after i; m heads them
    while counts != [1, 1]:
        prev, a = m, later[m]
        while a < m:
            b, c, s = (a + d) % m, (a + e) % m, (a + d + e) % m
            f = side[0][a]
            if side[0][c] == f and side[1][a] != f and side[1][b] != f:
                dx = delta(factors[f], a, b, c, s)
                dy = delta(factors[1 - f], a, c, b, s)
                if max(dx, dy) <= 0 and dx + dy < 0:
                    _switch(factors[f], a, b, c, s, dx < 0)
                    _switch(factors[1 - f], a, c, b, s, dy < 0)
                    counts[f] += dx
                    counts[1 - f] += dy
                    side[0][a] = side[0][c] = 1 - f
                    side[1][a] = side[1][b] = f
                    break
                if min(dx, dy) >= 0:  # a, b, c, s share a cycle in both: drop
                    later[prev] = a = later[a]
                    continue
            prev, a = a, later[a]
        else:
            raise RuntimeError(
                f"no square switch splits jumps {{{d},{e}}} on {m} blocks"
            )
    out = []
    for f, (nxt, prv, _, _) in enumerate(factors):
        if side[0][0] == f:
            first = d
        elif side[0][m - d] == f:
            first = m - d
        else:
            first = e if side[1][0] == f else m - e
        step = nxt if nxt[0] == first else prv
        cycle, v = [0], step[0]
        while v:
            cycle.append(v)
            v = step[v]
        out.append(tuple(cycle))
    return tuple(out)


@lru_cache(maxsize=1)
def wh_decompose(m: int) -> WHDecomposition:
    """Reserve rungs and jumps 1, 2 for the circulant blow-up; split the
    remaining jumps 3..(m-1)/2 into Hamiltonian block cycles.

    Jumps coprime to m get the closed-form cycles i*d mod m; the rest are
    paired and each pair circulant is split by square switching
    (``_decompose_pair_circulant``), with no search, so the split depends
    on m alone, and the last order's is kept for the solves that follow.
    At m = 5 there are no such jumps and no block cycles.  The (m-5)/2
    Hamiltonian cycles cover each edge of jumps 3..(m-1)/2 of K_m once and
    none of jumps 0, 1, 2: ``tests/test_split_manifest.py`` checks this for
    every odd m <= 2001, and a split that breaks it fails ``solve``'s check.
    """
    if m < 5 or m % 2 == 0:
        raise DomainError(f"need odd m >= 5, got {m}")
    singles, pairs = _pair_jumps(m)
    # all cycles share one int object per block, so a kept split holds a
    # reference, not an int, per entry
    number = list(range(m))
    cycles = [tuple([number[(i * d) % m] for i in range(m)]) for d in singles]
    for d, e in pairs:
        for cycle in _decompose_pair_circulant(m, d, e):
            cycles.append(tuple(map(number.__getitem__, cycle)))
    return WHDecomposition(m, tuple(cycles))


def round_robin_two_cycles(n: int) -> Factorization:
    """Circle-method 1-factorization of the complete graph, each edge
    replaced by a directed 2-cycle: n-1 factors of type [2^(n/2)]."""
    if n < 2 or n % 2:
        raise DomainError(f"need even n >= 2, got {n}")
    host = HostDescriptor("CompleteSymmetric", n)
    w = n - 1  # the pivot, the last id; the wheel is ids 0..n-2
    # factor 0 pairs 0 with the pivot and i with -i; factor r turns it r steps
    first = [(0, w), *((i, w - i) for i in range(1, n // 2))]
    turns = ([*range(r, w), *range(r), w] for r in range(w))
    factors = list(relabelled([first], turns))
    ftype = CycleType([2] * (n // 2))
    return _verified(host, factors, ftype, "round robin")


def _verified(
    host: HostDescriptor, factors: list, ftype: CycleType, route: str, parts=()
):
    """The factorization of id factors ``factors``, after the final check.
    Only when it fails are ``parts``, (name, (kind, size), factors), checked
    in order, so that the error names the first that fails, else ``route``."""
    report = verify_id_factorization(host, factors, ftype)
    if not report.passed:
        for name, spec, part in parts:
            part_report = verify_id_factorization(HostDescriptor(*spec), part, ftype)
            if not part_report.passed:
                route, report = name, part_report
                break
        raise RuntimeError(f"{route} failed verification: {report.failures()}")
    return Factorization(host.m_or_n, ftype, tuple(factors), report)


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
    parts = []
    if n == 6:
        factors = brute_force_factorization(n, ftype)
        if isinstance(factors, Nonexistent):
            return factors
    else:
        m = n // 2
        wh = wh_decompose(m)
        # W*, H* and the complete host of order 2m share one numbering
        # (x_i -> i, y_i -> m + i): the W* factors need no relabelling, and
        # ``relabelled`` copies the H* factors onto block cycle b by the
        # image of its ids, gathered in one C-level call per side (a block
        # cycle has m >= 7 blocks, so the gather returns a tuple)
        try:
            factors = w_star_id_factors(ftype)
        except ValueError as exc:  # a table piece names an id off its blocks
            raise RuntimeError(f"W* failed verification: {exc}") from None
        parts.append(("W*", ("WStar", m), factors[:9]))
        if wh.h_block_cycles:
            hids = factorize_h_star(ftype, m).id_factors
            parts.append(("H*", ("HStar", m), hids))
            # one int object per id, shared by every copy's tuples
            number = list(range(n))
            xs, ys = number[:m], number[m:]
            picks = starmap(itemgetter, wh.h_block_cycles)
            factors.extend(relabelled(hids, (p(xs) + p(ys) for p in picks)))
    host = HostDescriptor("CompleteSymmetric", n)
    return _verified(host, factors, ftype, "solve", parts)
