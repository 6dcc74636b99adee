"""Four-factor decompositions of the doubled cycle blow-up host.

``factorize_h_star(F, m)`` produces four arc-disjoint directed 2-factors of
the H* host on m blocks (``HStar`` m), each of cycle type F, for any
bipartite F of order 2m.
Two routes, by the number s of 2-cycles in F:

* s = 1: an explicit four-family gadget construction: four directed
  2-cycles across the wrap junction plus four parallel chain cycles per
  remaining length.
* s != 1: the zig-zag two-factorization of the underlying graph
  (``_haggkvist``) for F with its s 2-cycles merged into one 2s-cycle;
  each undirected factor is directed both ways, and its 2s-cycle is split
  into two alternating matchings whose edges become directed 2-cycles.
  With s = 0 there is nothing to merge or split.

Every walk is written on ids of the ``HStar`` m numbering (x_i -> i,
y_i -> m + i, shared by the order-2m complete host).  The factors are
unchecked; ``checker.verify_id_factorization`` on ``HStar`` m checks them.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import CycleType


class HStarFactorization(NamedTuple):
    """Four factors of H* on m blocks: ``id_factors`` holds each as a tuple
    of id cycles in the ``HStar`` m numbering."""

    m: int
    ftype: CycleType
    id_factors: tuple


def _gadget_walks(m: int) -> list:
    """The four arc-disjoint 2-cycles across the wrap junction (m-1, 0):
    x0 x_{m-1}, y0 x_{m-1}, y0 y_{m-1} and x0 y_{m-1}, as ids."""
    last = m - 1
    return [[0, last], [m, last], [m, m + last], [0, m + last]]


def _chain_walks(a: int, k: int, m: int) -> list:
    """Four parallel length-2k cycles (k >= 2) spanning blocks a..a+k, as
    ids: x_j is j and y_j is m + j.

    The piece at offset 0 sits next to the wrap gadgets and takes its own
    shapes; a piece further on is two cycles, each walked both ways.  The
    parity of k picks the zig-zag shapes in both.
    """
    y = m.__add__
    if a == 0:
        c0 = [y(j) for j in range(k + 1)] + list(range(k - 1, 0, -1))
        if k % 2 == 0:
            c1 = (
                [0]
                + [j if j % 2 else y(j) for j in range(1, k + 1)]
                + [y(j) if j % 2 else j for j in range(k - 1, 0, -1)]
            )
            c2 = [0, y(1), *range(2, k + 1)] + [y(j) for j in range(k - 1, 1, -1)] + [1]
            c3 = (
                [y(0), 1]
                + [j if j % 2 == 0 else y(j) for j in range(2, k + 1)]
                + [j if j % 2 else y(j) for j in range(k - 1, 1, -1)]
                + [y(1)]
            )
        else:
            c1 = list(range(k)) + [y(j) for j in range(k, 0, -1)]
            c2 = (
                [0]
                + [y(j) if j % 2 else j for j in range(1, k)]
                + [k]
                + [y(j) if j % 2 == 0 else j for j in range(k - 1, 0, -1)]
            )
            c3 = (
                [y(0)]
                + [j if j % 2 else y(j) for j in range(1, k)]
                + [k]
                + [j if j % 2 == 0 else y(j) for j in range(k - 1, 0, -1)]
            )
        return [c0, c1, c2, c3]
    if k % 2 == 0:
        c0 = list(range(a, a + k)) + [y(a + d) for d in range(k, 0, -1)]
        c2 = (
            [y(a)]
            + [a + d if d % 2 else y(a + d) for d in range(1, k)]
            + [a + k]
            + [y(a + d) if d % 2 else a + d for d in range(k - 1, 0, -1)]
        )
    else:
        c0 = (
            [a, a + 1]
            + [y(a + d) if d % 2 == 0 else a + d for d in range(2, k)]
            + [y(a + k)]
            + [a + d if d % 2 == 0 else y(a + d) for d in range(k - 1, 0, -1)]
        )
        c2 = (
            [y(a)]
            + list(range(a + 1, a + k + 1))
            + [y(a + d) for d in range(k - 1, 0, -1)]
        )
    return [c0, c0[::-1], c2, c2[::-1]]


# ---------------------------------------------------------------------------
# Undirected route


def _segment_walks(ks: list, m: int) -> list:
    """The zig-zag 2-factor: one cycle per segment, wrapping mod m.  The
    ks add up to m, so a + k <= m and only the last segment's end block m
    wraps, to block 0: each cycle's x ids are a range and its y ids a
    slice of ``ys``."""
    ys = [*range(m, 2 * m), m]  # y_i for i = 0..m
    cycles = []
    a = 0
    for k in ks:
        cycles.append((*range(a, a + k), *ys[a + k : a : -1]))
        a += k
    return cycles


def _complement_walks(ks: list, m: int) -> list:
    """The complement of the zig-zag factor: per segment of blocks a..a+k
    the cycle y_a, then blocks a+1..a+k-1 alternating from x, x_{a+k}, then
    back through the other vertex of each of those blocks (indices mod m).

    Each cycle starts at its least id and goes on to the smaller of its two
    neighbours, and the cycles are sorted, as a walk of the complement's
    edges from its least unvisited vertex would give them."""
    cycles = []
    a = 0
    for k in ks:
        # out takes x from the odd blocks a + d and y from the even ones
        out = [(a + d) % m + m * (d % 2 == 0) for d in range(1, k)]
        back = [(a + d) % m + m * (d % 2) for d in range(1, k)]
        cyc = [m + a % m, *out, (a + k) % m, *reversed(back)]
        i = cyc.index(min(cyc))
        cyc = cyc[i:] + cyc[:i]
        if cyc[-1] < cyc[1]:
            cyc = cyc[:1] + cyc[:0:-1]
        cycles.append(tuple(cyc))
        a += k
    cycles.sort()
    return cycles


def _haggkvist(ftype: CycleType, m: int):
    """Two edge-disjoint undirected 2-factors of the cycle blow-up, both of
    type ``ftype``, partitioning its edge set (Haggkvist, Ann. Discrete
    Math. 27, 1985), as tuples of ids of the ``HStar`` m numbering.

    The first factor is the zig-zag one: a length 2k of F becomes the cycle
    x_a .. x_{a+k-1} y_{a+k} .. y_{a+1} on blocks a..a+k, and consecutive
    segments share their end block.  Its complement has the same type.  A
    segment uses x_a x_{a+1} and x_a y_{a+1} at junction (a, a+1), xx and
    yy at each inner junction, and x_{a+k-1} y_{a+k} and y_{a+k-1} y_{a+k}
    at junction (a+k-1, a+k).  The other two edges of those junctions form
    one cycle of length 2k: from y_a through both vertices of blocks
    a+1..a+k-1 to x_{a+k} and back to y_a (``_complement_walks``).  The
    argument needs m >= 3, so that the m junctions are distinct, and an
    even type of order 2m without 2-cycles, as ``factorize_h_star`` passes.
    """
    ks = [length // 2 for length in ftype.lengths]
    return _segment_walks(ks, m), _complement_walks(ks, m)


def factorize_h_star(ftype: CycleType, m: int) -> HStarFactorization:
    """Four directed 2-factors of H* on m blocks, each of type F, unchecked
    (``verify_id_factorization`` against ``HStar`` m checks them).

    s = 1: each length 2k but the 2-cycle gets four parallel chain cycles,
    whose zig-zag shapes (``_chain_walks``) need k >= 2; F is even with one
    2-cycle, so every other length is at least 4.  s != 1: the zig-zag
    factorization (``_haggkvist``) needs a type without 2-cycles, so it is
    taken of [2s, rest] with 2s >= 4 (s = 1 would merge into a 2-cycle,
    which the simple graph lacks).  Each of its undirected factors gives
    two directed ones, its other cycles forward plus one alternating
    matching of its 2s-cycle and those cycles reversed plus the other, each
    matching edge a directed 2-cycle: each arc of the factor once, both of
    type F.  With s = 0 both matchings are empty.
    """
    if not ftype.is_bipartite():
        raise ValueError(f"{ftype} has odd cycle lengths")
    if ftype.order != 2 * m:
        raise ValueError(f"length sum {ftype.order} != {2 * m}")
    if m < 3:
        # the m = 2 host degenerates to a doubled 4-cycle, which cannot carry
        # four arc-disjoint spanning factors without parallel arcs
        raise ValueError(f"host undefined for m = {m} (need m >= 3)")
    s = ftype.lengths.count(2)
    rest = [length for length in ftype.lengths if length != 2]
    if s == 1:
        factors = [[g] for g in _gadget_walks(m)]
        a = 0
        for length in rest:
            for fam, cyc in zip(factors, _chain_walks(a, length // 2, m)):
                fam.append(cyc)
            a += length // 2
    else:
        factors = []
        for und in _haggkvist(CycleType([2 * s, *rest]) if s else ftype, m):
            # split the first 2s-cycle (none when s = 0) into its matchings
            cyc = und.pop([len(c) for c in und].index(2 * s)) if s else ()
            edges = list(zip(cyc, cyc[1:] + cyc[:1]))
            factors.append([*und, *edges[0::2]])
            factors.append([c[::-1] for c in und] + edges[1::2])

    return HStarFactorization(m, ftype, tuple(tuple(map(tuple, f)) for f in factors))
