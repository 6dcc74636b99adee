"""Builders for the four host digraphs and the fold map between two of them.

All hosts are symmetric digraphs (both arcs on every edge of an underlying
graph) over strip-labelled vertices:

* ``complete_symmetric(n)``  -- every ordered pair of distinct vertices.
* ``h_star(m)``    -- blow each vertex of an m-cycle into a pair {x_i, y_i};
  consecutive blocks are joined completely, there are no within-block arcs.
* ``w_star(m)``    -- same blow-up of the circulant with jumps {1, 2} mod m,
  plus both within-block (rung) arcs x_i <-> y_i.
* ``j_star(m)``    -- the opened, non-wrapping variant of ``w_star`` on
  blocks 0..m+1: jump-1 and jump-2 junctions for 0 <= i <= m-1 only, rungs
  only for 1 <= i <= m.

``fold`` closes ``j_star(m)`` back onto ``w_star(m)`` by reducing block
indices mod m; it is an arc bijection for m >= 5.  ``fold_ids`` folds a
factor straight to vertex ids of the order-2m numbering below, and ``fold``
rebuilds its objects from those ids.

The blow-up hosts have closed-form arc sets, so membership is tested in
constant time from the two endpoints, without building the host.  The
J*, W* and H* rules are each written once, in ``_outside_j_star``,
``_outside_w_star`` and ``_outside_h_star``, which scan many (tail, head)
pairs in one loop and return those outside the host; the single-arc tests
wrap them:

* ``in_j_star(arc, m)`` -- ``arc`` is an arc of ``j_star(m)``: a rung
  x_i <-> y_i with 1 <= i <= m, or a junction between blocks i and i+d,
  d in {1, 2}, with 0 <= i <= m-1.
* ``in_w_star(arc, m)`` -- ``arc`` is an arc of ``w_star(m)`` (m >= 5): both
  blocks in 0..m-1, and a rung, or blocks differing by +-1 or +-2 mod m.
* ``in_h_star(arc, m)`` -- ``arc`` is an arc of ``h_star(m)`` (m >= 3): both
  blocks in 0..m-1, differing by +-1 mod m.

A ``HostDescriptor`` names a factorization host by kind and size and is
what the checker verifies against, so no host arc set is built to check a
certificate.  It is also the one home of the vertex numbering: the host's
vertices are numbered x_i -> i and y_i -> a + i, with a = ceil(n/2) for the
complete host and a = m for the blow-ups, which is also their sort order.
``vertex_table`` holds one interned ``Vertex`` per id, ``vertex_ids`` is the
inverse and ``id_by_text`` maps the written form (``"x3"``) to the id.  The
tables are shared by every descriptor with the same x and y counts, so
``CompleteSymmetric`` n = 2m, ``HStar`` m and ``WStar`` m use one table.
Parsing resolves tokens to ids through it, the solver relabels onto it, and
the checker encodes an arc (a, b) of ids as the integer a*N + b, N the order.

Besides the numbering the descriptor gives ``arcs`` (a sized container:
``len`` is the arc count n(n-1), 8m or 18m, ``in`` the membership rule) and
``count_outside_codes``, the number of given arc codes that are not host
arcs.  For the complete host that is the number of loops, found by one
set intersection; the blow-up hosts decode the codes into vertex pairs and
scan them once with ``_outside_h_star``/``_outside_w_star``.  A built
``Digraph`` answers the same questions from its stored sets.  The
descriptor refuses the sizes the builders refuse, with their messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations, repeat, starmap
from typing import Iterable, Union

from .core import (
    Arc,
    Digraph,
    TwoRegularDigraph,
    Vertex,
    cycle_arcs,
    two_regular_from_ids,
)

# kind -> (builder, size letter, least size) for the hosts a factorization
# is checked against; JStar decompositions have their own checker.
_LEAST_SIZE = {
    "CompleteSymmetric": ("complete_symmetric", "n", 2),
    "HStar": ("h_star", "m", 3),
    "WStar": ("w_star", "m", 5),
}
DESCRIBED_KINDS = frozenset(_LEAST_SIZE)


@dataclass(frozen=True)
class HostDescriptor:
    """A host by kind and size: its vertex numbering, ``arcs`` (``len`` and
    ``in``) and ``count_outside_codes``, without building its arc set.
    JStar, checked by ``verify_admissible_decomposition``, is only named
    (and has an ``order``), not described."""

    kind: str  # CompleteSymmetric | HStar | WStar | JStar
    m_or_n: int

    def __post_init__(self) -> None:
        if self.kind in _LEAST_SIZE:
            builder, letter, least = _LEAST_SIZE[self.kind]
            if self.m_or_n < least:
                raise ValueError(
                    f"{builder} needs {letter} >= {least}, got {self.m_or_n}"
                )

    def to_json(self) -> dict:
        return {"kind": self.kind, "m": self.m_or_n}

    @property
    def order(self) -> int:
        """The host's vertex count, by arithmetic: n, 2m, or 2(m+2) for
        JStar (blocks 0..m+1); 0 for an unknown kind."""
        size = self.m_or_n
        if self.kind == "CompleteSymmetric":
            return size
        if self.kind in ("HStar", "WStar"):
            return 2 * size
        if self.kind == "JStar":
            return 2 * (size + 2)
        return 0

    def _described(self) -> None:
        if self.kind not in _LEAST_SIZE:
            raise ValueError(f"no arc rule for host kind {self.kind!r}")

    @cached_property
    def _numbering(self) -> tuple:
        self._described()
        size = self.m_or_n
        if self.kind == "CompleteSymmetric":
            return _vertex_numbering((size + 1) // 2, size // 2)
        return _vertex_numbering(size, size)

    @property
    def vertex_table(self) -> tuple:
        """The host's interned vertices in id order: x_0.., then y_0.."""
        return self._numbering[0]

    @property
    def vertex_ids(self) -> dict:
        """``Vertex -> id``, the inverse of ``vertex_table``."""
        return self._numbering[1]

    @property
    def id_by_text(self) -> dict:
        """``"x3" -> id``: each vertex's written form to its id."""
        return self._numbering[2]

    @cached_property
    def vertices(self) -> frozenset:
        return frozenset(self.vertex_table)

    @property
    def arcs(self) -> "DescribedArcs":
        self._described()
        return DescribedArcs(self)

    def count_outside_codes(self, codes: set) -> int:
        """How many arc codes a*N + b in ``codes`` (a, b vertex ids, N the
        order) are not host arcs."""
        table = self.vertex_table
        n = len(table)
        if self.kind == "CompleteSymmetric":
            # distinct host vertices are always joined, so only loops are outside
            return len(codes.intersection(range(0, n * n, n + 1)))
        outside = _outside_h_star if self.kind == "HStar" else _outside_w_star
        pairs = [(table[a], table[b]) for a, b in map(divmod, codes, repeat(n))]
        return len(outside(pairs, self.m_or_n))


@lru_cache(maxsize=4)
def _vertex_numbering(xs: int, ys: int) -> tuple:
    """Interned vertices x_0..x_{xs-1}, y_0..y_{ys-1} in id order, with the
    ``Vertex -> id`` and ``text -> id`` maps.  The result is shared by every
    caller with the same counts and must not be mutated."""
    table = tuple(
        [Vertex("x", i) for i in range(xs)] + [Vertex("y", i) for i in range(ys)]
    )
    ids = {v: i for i, v in enumerate(table)}
    by_text = {v.text(): i for i, v in enumerate(table)}
    return table, ids, by_text


class DescribedArcs:
    """The arc set of a described host, answering ``len`` and ``in`` only."""

    __slots__ = ("host",)

    def __init__(self, host: HostDescriptor):
        self.host = host

    def __len__(self) -> int:
        kind, size = self.host.kind, self.host.m_or_n
        if kind == "HStar":
            return 8 * size
        if kind == "WStar":
            return 18 * size
        return size * (size - 1)

    def __contains__(self, arc) -> bool:
        kind, size = self.host.kind, self.host.m_or_n
        if kind == "HStar":
            return in_h_star(arc, size)
        if kind == "WStar":
            return in_w_star(arc, size)
        tail, head = arc
        vertices = self.host.vertices
        return tail != head and tail in vertices and head in vertices


def _both(u: Vertex, v: Vertex) -> list:
    return [Arc(u, v), Arc(v, u)]


def complete_symmetric(n: int) -> Digraph:
    """K*_n: both arcs on every pair.  Even n uses blocks x_i, y_i, i < n/2."""
    vertices = HostDescriptor("CompleteSymmetric", n).vertices
    return Digraph(vertices, starmap(Arc, permutations(vertices, 2)))


def h_star(m: int) -> Digraph:
    """Doubled blow-up of the m-cycle: 4-in/out-regular, no rung arcs."""
    vertices = HostDescriptor("HStar", m).vertices
    arcs = []
    for i in range(m):
        j = (i + 1) % m
        for s in ("x", "y"):
            for t in ("x", "y"):
                arcs += _both(Vertex(s, i), Vertex(t, j))
    return Digraph(vertices, arcs)


def w_star(m: int) -> Digraph:
    """Doubled blow-up of the circulant with jumps {1,2} mod m, plus rungs."""
    vertices = HostDescriptor("WStar", m).vertices
    arcs = []
    for i in range(m):
        arcs += _both(Vertex("x", i), Vertex("y", i))
        for d in (1, 2):
            j = (i + d) % m
            for s in ("x", "y"):
                for t in ("x", "y"):
                    arcs += _both(Vertex(s, i), Vertex(t, j))
    return Digraph(vertices, arcs)


def _j_arcs(m: int) -> frozenset:
    """Arc set of the opened host on blocks 0..m+1 (valid for any m >= 1)."""
    arcs = []
    for i in range(1, m + 1):
        arcs += _both(Vertex("x", i), Vertex("y", i))
    for i in range(m):
        for d in (1, 2):
            for s in ("x", "y"):
                for t in ("x", "y"):
                    arcs += _both(Vertex(s, i), Vertex(t, i + d))
    return frozenset(arcs)


_SIDES = ("x", "y")


def _outside_j_star(pairs, m: int) -> list:
    """The pairs ((s, i), (t, j)) in ``pairs`` that are not arcs of
    ``j_star(m)``: a rung x_i <-> y_i needs 1 <= i <= m, a junction between
    blocks i and i+d, d in {1, 2}, needs 0 <= i <= m-1 (any m >= 1)."""
    sides = _SIDES
    out = []
    for a in pairs:
        (s, i), (t, j) = a
        if s in sides and t in sides and i >= 0 and j >= 0:
            if i == j:
                if s != t and 1 <= i <= m:
                    continue
            elif -2 <= i - j <= 2 and min(i, j) < m:
                continue
        out.append(a)
    return out


def _outside_w_star(pairs, m: int) -> list:
    """The pairs ((s, i), (t, j)) in ``pairs`` that are not arcs of
    ``w_star(m)`` (m >= 5): both blocks in 0..m-1, and a rung, or blocks
    differing by +-1 or +-2 mod m."""
    sides = _SIDES
    steps = (1, 2, m - 2, m - 1)
    out = []
    for a in pairs:
        (s, i), (t, j) = a
        if s in sides and t in sides and 0 <= i < m and 0 <= j < m:
            if i == j:
                if s != t:
                    continue
            elif (j - i) % m in steps:
                continue
        out.append(a)
    return out


def _outside_h_star(pairs, m: int) -> list:
    """The pairs ((s, i), (t, j)) in ``pairs`` that are not arcs of
    ``h_star(m)`` (m >= 3): both blocks in 0..m-1, differing by +-1 mod m."""
    sides = _SIDES
    steps = (1, m - 1)
    out = []
    for a in pairs:
        (s, i), (t, j) = a
        if s in sides and t in sides and 0 <= i < m and 0 <= j < m:
            if (j - i) % m in steps:
                continue
        out.append(a)
    return out


def in_j_star(arc: Arc, m: int) -> bool:
    """``arc in j_star(m).arcs``, by index arithmetic (valid for any m >= 1)."""
    return not _outside_j_star((arc,), m)


def in_h_star(arc: Arc, m: int) -> bool:
    """``arc in h_star(m).arcs``, by index arithmetic (m >= 3)."""
    return not _outside_h_star((arc,), m)


def in_w_star(arc: Arc, m: int) -> bool:
    """``arc in w_star(m).arcs``, by index arithmetic (m >= 5)."""
    return not _outside_w_star((arc,), m)


def j_star(m: int) -> Digraph:
    """Opened strip host on 2(m+2) vertices with 18m arcs."""
    if m < 3:
        raise ValueError(f"j_star needs m >= 3, got {m}")
    vertices = [Vertex(s, i) for i in range(m + 2) for s in ("x", "y")]
    return Digraph(vertices, _j_arcs(m))


def fold_ids(factors: Iterable[TwoRegularDigraph], m: int) -> tuple:
    """Fold 2-regular digraphs on the strip onto ``w_star(m)`` by reducing
    block indices mod m, as vertex ids: ``(folded, vertices)``.

    ``folded[j]`` lists the cycles of the j-th factor, in its order, as
    lists of ids in the numbering of ``w_star(m)`` (x_i -> i mod m,
    y_i -> m + (i mod m), shared with the order-2m complete host), and
    ``vertices[i]`` is the folded vertex of id i.  A vertex of a side other
    than x and y folds to one id 2m + k per distinct image, as the checker
    numbers vertices outside a host, and ``vertices`` lists those images
    after the table.  Nothing is checked here: a folded cycle may repeat an
    id or use arcs outside ``w_star(m)``.
    """
    vertices = list(_vertex_numbering(m, m)[0])
    # the opened host's vertices, blocks 0..m+1, straight to their ids
    lookup = {
        Vertex(side, i): base + i % m
        for side, base in (("x", 0), ("y", m))
        for i in range(m + 2)
    }
    foreign: dict = {}

    def fold_id(v: Vertex) -> int:
        side, index = v
        if side == "x" or side == "y":
            return (m if side == "y" else 0) + index % m
        image = Vertex(side, index % m)
        if image not in foreign:
            foreign[image] = len(vertices)
            vertices.append(image)
        return foreign[image]

    folded = []
    for g in factors:
        try:
            folded.append([list(map(lookup.__getitem__, c.vertices)) for c in g.cycles])
        except KeyError:  # a block outside 0..m+1, or another side
            folded.append([list(map(fold_id, c.vertices)) for c in g.cycles])
    return folded, vertices


def fold(g: Union[Digraph, TwoRegularDigraph], m: int):
    """Reduce block indices mod m, mapping the opened host into w_star(m).

    A factor is folded by ``fold_ids`` and rebuilt from the ids, so its
    vertices are the interned ones of ``w_star(m)``'s vertex table (shared
    with the order-2m complete host).  Raises ``ValueError`` for m < 5,
    where the arc correspondence breaks down, and if any folded arc is
    outside ``w_star(m)`` (malformed input).
    """
    if m < 5:
        raise ValueError(f"fold needs m >= 5, got {m}")

    def check(arcs) -> None:
        bad = _outside_w_star(arcs, m)
        if bad:
            raise ValueError(
                f"folded arcs outside host: {sorted(starmap(Arc, bad))[:3]}"
            )

    if isinstance(g, TwoRegularDigraph):
        (cycles,), vertices = fold_ids([g], m)
        folded = two_regular_from_ids(cycles, vertices)
        check(cycle_arcs(folded.cycles))
        return folded
    if isinstance(g, Digraph):
        def phi(v: Vertex) -> Vertex:
            return Vertex(v.side, v.index % m)

        arcs = frozenset(Arc(phi(a.tail), phi(a.head)) for a in g.arcs)
        check(arcs)
        return Digraph((phi(v) for v in g.vertices), arcs)
    raise TypeError(f"cannot fold {type(g).__name__}")
