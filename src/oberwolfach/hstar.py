"""Four-factor decompositions of the doubled cycle blow-up host.

``factorize_h_star(F, m)`` produces four arc-disjoint directed 2-factors of
``hosts.h_star(m)``, each of cycle type F, for any bipartite F of order 2m.
Three routes, by the number s of 2-cycles in F:

* s = 0: an undirected F-factorization of the underlying graph into two
  2-factors, the zig-zag factor and its complement (``haggkvist_undirected``
  proves the complement has type F), each then directed both ways.
* s = 1: an explicit four-family gadget construction: four directed
  2-cycles across the wrap junction plus four parallel chain cycles per
  remaining length.
* s >= 2: the undirected route for [2s, rest]; the 2s-cycle of each
  undirected factor is split into two alternating matchings whose edges
  become directed 2-cycles.

Every output is re-verified against the host before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .checker import verify_factorization
from .core import CycleType, DirectedCycle, TwoRegularDigraph, Vertex
from .hosts import HostDescriptor


class ConstructionError(RuntimeError):
    """An internally-verified construction failed its own check."""


@dataclass(frozen=True)
class HStarFactorization:
    m: int
    ftype: CycleType
    factors: tuple  # 4 TwoRegularDigraph


def _x(i: int) -> Vertex:
    return Vertex("x", i)


def _y(i: int) -> Vertex:
    return Vertex("y", i)


def two_cycle_gadgets(m: int) -> list:
    """The four arc-disjoint 2-cycles across the wrap junction."""
    if m < 3:
        raise ValueError("need m >= 3")
    return [
        DirectedCycle([_x(0), _x(m - 1)]),
        DirectedCycle([_y(0), _x(m - 1)]),
        DirectedCycle([_y(0), _y(m - 1)]),
        DirectedCycle([_x(0), _y(m - 1)]),
    ]


def chain_cycles(position: str, a: int, k: int, congruence: str) -> list:
    """Four parallel length-2k cycles spanning blocks a..a+k.

    ``position`` is "second" (the piece adjacent to the wrap gadgets, always
    at offset 0) or "later"; ``congruence`` ("0mod4"/"2mod4") must match the
    parity of k and selects the zig-zag shapes.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    if congruence not in ("0mod4", "2mod4"):
        raise ValueError(f"bad congruence {congruence!r}")
    if (congruence == "0mod4") != (k % 2 == 0):
        raise ValueError(f"congruence {congruence} inconsistent with k={k}")
    if position == "second":
        if a != 0:
            raise ValueError("the second piece sits at offset 0")
        c0 = [_y(j) for j in range(k + 1)] + [_x(j) for j in range(k - 1, 0, -1)]
        if k % 2 == 0:
            c1 = (
                [_x(0)]
                + [_x(j) if j % 2 else _y(j) for j in range(1, k + 1)]
                + [_y(j) if j % 2 else _x(j) for j in range(k - 1, 0, -1)]
            )
            c2 = (
                [_x(0), _y(1)]
                + [_x(j) for j in range(2, k + 1)]
                + [_y(j) for j in range(k - 1, 1, -1)]
                + [_x(1)]
            )
            c3 = (
                [_y(0), _x(1)]
                + [_x(j) if j % 2 == 0 else _y(j) for j in range(2, k + 1)]
                + [_x(j) if j % 2 else _y(j) for j in range(k - 1, 1, -1)]
                + [_y(1)]
            )
        else:
            c1 = [_x(j) for j in range(k)] + [_y(j) for j in range(k, 0, -1)]
            c2 = (
                [_x(0)]
                + [_y(j) if j % 2 else _x(j) for j in range(1, k)]
                + [_x(k)]
                + [_y(j) if j % 2 == 0 else _x(j) for j in range(k - 1, 0, -1)]
            )
            c3 = (
                [_y(0)]
                + [_x(j) if j % 2 else _y(j) for j in range(1, k)]
                + [_x(k)]
                + [_x(j) if j % 2 == 0 else _y(j) for j in range(k - 1, 0, -1)]
            )
        return [DirectedCycle(c) for c in (c0, c1, c2, c3)]
    if position != "later":
        raise ValueError(f"bad position {position!r}")
    if k % 2 == 0:
        c0 = [_x(a + d) for d in range(k)] + [_y(a + d) for d in range(k, 0, -1)]
        c2 = (
            [_y(a)]
            + [_x(a + d) if d % 2 else _y(a + d) for d in range(1, k)]
            + [_x(a + k)]
            + [_y(a + d) if d % 2 else _x(a + d) for d in range(k - 1, 0, -1)]
        )
    else:
        c0 = (
            [_x(a), _x(a + 1)]
            + [_y(a + d) if d % 2 == 0 else _x(a + d) for d in range(2, k)]
            + [_y(a + k)]
            + [_x(a + d) if d % 2 == 0 else _y(a + d) for d in range(k - 1, 0, -1)]
        )
        c2 = (
            [_y(a)]
            + [_x(a + d) for d in range(1, k + 1)]
            + [_y(a + d) for d in range(k - 1, 0, -1)]
        )
    zero = DirectedCycle(c0)
    two = DirectedCycle(c2)
    return [
        zero,
        DirectedCycle(reversed(zero.vertices)),
        two,
        DirectedCycle(reversed(two.vertices)),
    ]


def _congruence(length: int) -> str:
    return "0mod4" if length % 4 == 0 else "2mod4"


# ---------------------------------------------------------------------------
# Undirected route


def _undirected_host_edges(m: int) -> set:
    """The four edges s_i t_{i+1} (s, t in {x, y}) at each of the m junctions."""
    return {
        frozenset((Vertex(s, i), Vertex(t, (i + 1) % m)))
        for i in range(m)
        for s in "xy"
        for t in "xy"
    }


def _cycles_from_edges(edges: set) -> list:
    """Split a 2-regular undirected edge set into vertex tuples.

    Adjacency lists are sorted so the traversal (and hence the chosen
    orientation of each cycle) is independent of set iteration order.
    """
    adj: dict = {}
    for e in edges:
        u, v = tuple(sorted(e))
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for v, nbrs in adj.items():
        if len(nbrs) != 2:
            raise ValueError(f"degree {len(nbrs)} at {v}")
        nbrs.sort()
    cycles = []
    todo = set(adj)
    while todo:
        start = min(todo)
        walk = [start]
        prev, cur = None, start
        while True:
            nxt = [w for w in adj[cur] if w != prev]
            step = nxt[0]
            if step == start:
                break
            walk.append(step)
            prev, cur = cur, step
        todo.difference_update(walk)
        cycles.append(tuple(walk))
    return cycles


def _segment_factor(ks: list, m: int) -> list:
    """The zig-zag 2-factor: one cycle per segment, wrapping mod m."""
    cycles = []
    a = 0
    for k in ks:
        cyc = [_x((a + d) % m) for d in range(k)]
        cyc += [_y((a + d) % m) for d in range(k, 0, -1)]
        cycles.append(tuple(cyc))
        a += k
    return cycles


def haggkvist_undirected(ftype: CycleType, m: int):
    """Two edge-disjoint undirected 2-factors of the cycle blow-up, both of
    type ``ftype``, partitioning its edge set (Haggkvist, Ann. Discrete
    Math. 27, 1985).

    The first factor is the zig-zag one: a length 2k of F becomes the cycle
    x_a .. x_{a+k-1} y_{a+k} .. y_{a+1} on blocks a..a+k, and consecutive
    segments share their end block.  Its complement has the same type.  A
    segment uses x_a x_{a+1} and x_a y_{a+1} at junction (a, a+1), xx and
    yy at each inner junction, and x_{a+k-1} y_{a+k} and y_{a+k-1} y_{a+k}
    at junction (a+k-1, a+k).  The other two edges of those junctions form
    one cycle of length 2k: from y_a through both vertices of blocks
    a+1..a+k-1 to x_{a+k} and back to y_a.  The argument needs m >= 3, so
    that the m junctions are distinct; the type check stays as a guard.
    """
    if not ftype.is_bipartite():
        raise ValueError(f"{ftype} has odd lengths")
    if ftype.order != 2 * m:
        raise ValueError(f"{ftype} has order {ftype.order}, expected {2 * m}")
    if 2 in ftype.lengths:
        raise ValueError("2-cycles are handled by the directed gadget route")
    if m < 3:
        raise ValueError(f"host undefined for m = {m} (need m >= 3)")
    ks = [x // 2 for x in ftype.lengths]
    a_cycles = _segment_factor(ks, m)
    a_edges = set()
    for cyc in a_cycles:
        n = len(cyc)
        a_edges.update(frozenset((cyc[i], cyc[(i + 1) % n])) for i in range(n))
    b_cycles = _cycles_from_edges(_undirected_host_edges(m) - a_edges)
    if CycleType(len(c) for c in b_cycles) != ftype:
        raise ConstructionError(f"zig-zag complement is not of type {ftype}")
    return a_cycles, b_cycles


def _direct_both_ways(cycles: list) -> tuple:
    fwd = TwoRegularDigraph(DirectedCycle(c) for c in cycles)
    bwd = TwoRegularDigraph(DirectedCycle(reversed(c)) for c in cycles)
    return fwd, bwd


def _split_two_s_cycle(cycles: list, s: int):
    """Pick one cycle of length 2s, return (its two alternating matchings,
    the remaining cycles)."""
    for idx, cyc in enumerate(cycles):
        if len(cyc) == 2 * s:
            rest = cycles[:idx] + cycles[idx + 1 :]
            edges = [(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))]
            return edges[0::2], edges[1::2], rest
    raise ConstructionError(f"no cycle of length {2 * s} to split")


def factorize_h_star(ftype: CycleType, m: int) -> HStarFactorization:
    """Four verified directed 2-factors of ``h_star(m)``, each of type F."""
    if not ftype.is_bipartite():
        raise ValueError(f"{ftype} has odd cycle lengths")
    if ftype.order != 2 * m:
        raise ValueError(f"length sum {ftype.order} != {2 * m}")
    if m < 3:
        # the m = 2 host degenerates to a doubled 4-cycle, which cannot carry
        # four arc-disjoint spanning factors without parallel arcs
        raise ValueError(f"host undefined for m = {m} (need m >= 3)")
    s = ftype.lengths.count(2)
    rest = [x for x in ftype.lengths if x != 2]

    if s == 0:
        a_cycles, b_cycles = haggkvist_undirected(ftype, m)
        factors = _direct_both_ways(a_cycles) + _direct_both_ways(b_cycles)
    elif s == 1:
        families = [[g] for g in two_cycle_gadgets(m)]
        second, later = rest[0], rest[1:]
        k2 = second // 2
        for fam, cyc in zip(families, chain_cycles("second", 0, k2, _congruence(second))):
            fam.append(cyc)
        a = k2
        for length in later:
            k = length // 2
            for fam, cyc in zip(
                families, chain_cycles("later", a, k, _congruence(length))
            ):
                fam.append(cyc)
            a += k
        factors = tuple(TwoRegularDigraph(fam) for fam in families)
    else:
        merged = CycleType([2 * s, *rest])
        out = []
        for und in haggkvist_undirected(merged, m):
            match1, match2, others = _split_two_s_cycle(und, s)
            fwd, bwd = _direct_both_ways(others)
            out.append(
                TwoRegularDigraph(
                    list(fwd.cycles) + [DirectedCycle(e) for e in match1]
                )
            )
            out.append(
                TwoRegularDigraph(
                    list(bwd.cycles) + [DirectedCycle(e) for e in match2]
                )
            )
        factors = tuple(out)

    report = verify_factorization(HostDescriptor("HStar", m), factors, ftype)
    if not report.passed:
        raise ConstructionError(
            f"four-factor construction failed for {ftype}, m={m}: {report.failures()}"
        )
    return HStarFactorization(m, ftype, tuple(factors))
