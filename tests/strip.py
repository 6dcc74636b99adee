"""Vertex-object forms of cycles and factors, the tests' references.

The package works on vertex ids only.  The tests keep arcs, cycles and
2-regular digraphs of ``Vertex`` objects to write examples readably, to
state properties of the objects, and to hold constructors that are
independent of the package's id code: ``DirectedCycle`` and
``TwoRegularDigraph`` refuse a bad cycle or factor with the messages the
certificate reader must match.  ``ids`` and ``strip_ids`` write such
examples as the J* ids the package works on; ``factor_objects`` and
``verify_objects`` go between the objects and a host's ids, and
``blow_up_outside`` asks a blow-up's out-neighbour rows about id pairs.
"""

import re
from itertools import chain
from operator import attrgetter
from typing import Iterable, NamedTuple

from oberwolfach.checker import verify_id_factorization
from oberwolfach.core import CycleType, Vertex, parse_vertex
from oberwolfach.hosts import out_neighbour_bytes, strip_id, strip_vertex


class Arc(NamedTuple):
    tail: Vertex
    head: Vertex

    def __repr__(self) -> str:
        return f"{self.tail.text()}->{self.head.text()}"


class DirectedCycle:
    """A directed cycle, stored in canonical rotation (least vertex first)."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: Iterable[Vertex]):
        vs = tuple(vertices)
        if len(vs) < 2:
            raise ValueError("cycle needs at least 2 vertices")
        if len(set(vs)) != len(vs):
            raise ValueError(f"repeated vertex in cycle {vs}")
        k = vs.index(min(vs))
        self.vertices = vs[k:] + vs[:k]

    @property
    def length(self) -> int:
        return len(self.vertices)

    def arcs(self) -> tuple:
        vs = self.vertices
        n = len(vs)
        return tuple(Arc(vs[i], vs[(i + 1) % n]) for i in range(n))

    def text(self) -> str:
        return "(" + ",".join(v.text() for v in self.vertices) + ")"

    def __eq__(self, other) -> bool:
        return isinstance(other, DirectedCycle) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(("C", self.vertices))

    def __repr__(self) -> str:
        return self.text()


_CYCLE_VERTICES = attrgetter("vertices")


class TwoRegularDigraph:
    """A vertex-disjoint union of directed cycles, sorted."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: Iterable[DirectedCycle]):
        cs = tuple(sorted(cycles, key=_CYCLE_VERTICES))
        seen: set = set()
        for v in chain.from_iterable(map(_CYCLE_VERTICES, cs)):
            if v in seen:
                raise ValueError(f"cycles share vertex {v}")
            seen.add(v)
        self.cycles = cs

    def vertices(self) -> frozenset:
        return frozenset(chain.from_iterable(map(_CYCLE_VERTICES, self.cycles)))

    def arcs(self) -> frozenset:
        return frozenset(a for c in self.cycles for a in c.arcs())

    @property
    def order(self) -> int:
        return sum(c.length for c in self.cycles)

    def text(self) -> str:
        return "{" + ", ".join(c.text() for c in self.cycles) + "}"

    def __eq__(self, other) -> bool:
        return isinstance(other, TwoRegularDigraph) and self.cycles == other.cycles

    def __hash__(self) -> int:
        return hash(("T", self.cycles))

    def __repr__(self) -> str:
        return self.text()


def cycle_type_of(d: TwoRegularDigraph) -> CycleType:
    """The multiset of cycle lengths of ``d`` in canonical order."""
    return CycleType(c.length for c in d.cycles)


def two_regular_from_ids(cycles: Iterable, vertices) -> TwoRegularDigraph:
    """The factor whose cycles are the id sequences ``cycles``, id i naming
    ``vertices[i]``, built by the constructors above."""
    return TwoRegularDigraph(
        [DirectedCycle(map(vertices.__getitem__, c)) for c in cycles]
    )


class DirectedPath:
    """A directed path given by its vertex sequence (no repeats)."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: Iterable[Vertex]):
        vs = tuple(vertices)
        if not vs:
            raise ValueError("empty path")
        if len(set(vs)) != len(vs):
            raise ValueError(f"repeated vertex in path {vs}")
        self.vertices = vs

    @property
    def source(self) -> Vertex:
        return self.vertices[0]

    @property
    def terminal(self) -> Vertex:
        return self.vertices[-1]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, DirectedPath) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(("P", self.vertices))

    def __repr__(self) -> str:
        return "<" + ",".join(v.text() for v in self.vertices) + ">"


def shift_vertex(v: Vertex, k: int) -> Vertex:
    j = v.index + k
    if j < 0:
        raise ValueError(f"shift of {v} by {k} gives negative index")
    return Vertex(v.side, j)


def _tokens(text: str, opening: str, closing: str) -> list:
    s = text.strip()
    if s.startswith(opening) and s.endswith(closing):
        s = s[1:-1]
    return [parse_vertex(t) for t in re.split(r"[,\s]+", s.strip()) if t]


def path_from_text(text: str) -> DirectedPath:
    """``"<x0,y1>"`` (or ``"x0 y1"``) as a path."""
    return DirectedPath(_tokens(text, "<", ">"))


def cycle_from_text(text: str) -> DirectedCycle:
    """``"(x0,y1)"`` (or ``"x0 y1"``) as a cycle."""
    return DirectedCycle(_tokens(text, "(", ")"))


def shift(g, k: int):
    """Translate every vertex index of a vertex, path, cycle or 2-regular
    digraph by ``k`` (absolute, no wraparound)."""
    if isinstance(g, Vertex):
        return shift_vertex(g, k)
    if isinstance(g, DirectedPath):
        return DirectedPath(shift_vertex(v, k) for v in g.vertices)
    if isinstance(g, DirectedCycle):
        return DirectedCycle(shift_vertex(v, k) for v in g.vertices)
    if isinstance(g, TwoRegularDigraph):
        return TwoRegularDigraph(shift(c, k) for c in g.cycles)
    raise TypeError(f"cannot shift {type(g).__name__}")


def concat(p: DirectedPath, q: DirectedPath):
    """Join two paths at t(p) = s(q).

    Returns a DirectedPath when that is the only shared vertex, and a
    DirectedCycle when additionally s(p) = t(q) with no other overlap.
    """
    if p.terminal != q.source:
        raise ValueError(f"cannot concatenate: t(p)={p.terminal} != s(q)={q.source}")
    shared = set(p.vertices) & set(q.vertices)
    closes = p.source == q.terminal
    expected = {p.terminal, p.source} if closes else {p.terminal}
    if shared != expected:
        raise ValueError(f"paths share unexpected vertices: {sorted(shared - expected)}")
    if closes:
        return DirectedCycle(p.vertices + q.vertices[1:-1])
    return DirectedPath(p.vertices + q.vertices[1:])


def two_regular_from_arcs(arcs) -> TwoRegularDigraph:
    """Assemble an arc set into vertex-disjoint cycles.

    Raises if any saturated vertex does not have in-degree = out-degree = 1.
    """
    succ: dict = {}
    heads: set = set()
    for a in arcs:
        if a.tail in succ:
            raise ValueError(f"out-degree > 1 at {a.tail}")
        if a.head in heads:
            raise ValueError(f"in-degree > 1 at {a.head}")
        succ[a.tail] = a.head
        heads.add(a.head)
    if set(succ) != heads:
        extra = set(succ) ^ heads
        raise ValueError(f"unbalanced degrees at {sorted(extra)}")
    cycles = []
    remaining = set(succ)
    while remaining:
        start = min(remaining)
        walk = [start]
        v = succ[start]
        while v != start:
            walk.append(v)
            v = succ[v]
        remaining.difference_update(walk)
        cycles.append(DirectedCycle(walk))
    return TwoRegularDigraph(cycles)


def ids(text: str) -> tuple:
    """``"(x0,y1)"``, ``"<x0,y1>"`` or ``"x0 y1"`` as a tuple of J* ids."""
    return tuple(map(strip_id, _tokens(text.strip("<>"), "(", ")")))


def strip_ids(d: TwoRegularDigraph) -> tuple:
    """The cycles of a 2-regular digraph on the strip as tuples of J* ids."""
    return tuple(tuple(map(strip_id, c.vertices)) for c in d.cycles)


def strip_factors(dec) -> tuple:
    """A decomposition's factors, cycles of J* ids, as 2-regular digraphs
    of strip vertices."""
    return tuple(
        TwoRegularDigraph(DirectedCycle(map(strip_vertex, c)) for c in f)
        for f in dec.id_factors
    )


def factor_objects(factors, vertices) -> tuple:
    """Factors given as cycles of ids as 2-regular digraphs, id i naming
    ``vertices[i]`` (a host's ``vertex_table``, or a document's
    ``vertices``)."""
    return tuple(two_regular_from_ids(f, vertices) for f in factors)


def verify_objects(host, factors, ftype):
    """``verify_id_factorization`` of ``TwoRegularDigraph`` factors: each
    vertex goes to its id in ``host.vertex_table``, a vertex outside the
    host to an id >= N, one per distinct vertex."""
    ids = {v: i for i, v in enumerate(host.vertex_table)}
    foreign: dict = {}

    def vid(v) -> int:
        i = ids.get(v)
        return foreign.setdefault(v, len(ids) + len(foreign)) if i is None else i

    id_factors = [[list(map(vid, c.vertices)) for c in f.cycles] for f in factors]
    return verify_id_factorization(host, id_factors, ftype)


def blow_up_outside(kind: str, pairs, m: int) -> list:
    """The host id pairs (a, b) in ``pairs`` that are not arcs of the
    blow-up ``kind`` (``"WStar"`` or ``"HStar"``) on m blocks, as its
    ``out_neighbour_bytes`` rows have them: an id outside 0..2m-1, or a
    head b not in row a."""
    rows = out_neighbour_bytes(kind, m)
    n = 2 * m
    return [
        (a, b) for a, b in pairs if not (0 <= a < n and 0 <= b < n and b in rows[a])
    ]
