"""The hosts' specification: the four host digraphs, their vertex
numberings, their membership rules, admissibility and the fold.

This module is the one the checker judges by; it imports nothing but
``core``.  All hosts are symmetric digraphs (both arcs on every edge of an
underlying graph) over strip-labelled vertices:

* ``complete_symmetric(n)``  -- every ordered pair of distinct vertices.
* ``h_star(m)``    -- blow each vertex of an m-cycle into a pair {x_i, y_i};
  consecutive blocks are joined completely, there are no within-block arcs.
* ``w_star(m)``    -- same blow-up of the circulant with jumps {1, 2} mod m,
  plus both within-block (rung) arcs x_i <-> y_i.
* ``j_star(m)``    -- the opened, non-wrapping variant of ``w_star`` on
  blocks 0..m+1: jump-1 and jump-2 junctions for 0 <= i <= m-1 only, rungs
  only for 1 <= i <= m.

Two vertex numberings are used, and everything below the library edge
works on their ids:

* **The host numbering**, owned by ``HostDescriptor``: x_i -> i and
  y_i -> a + i, with a = ceil(n/2) for the complete host and a = m for the
  blow-ups, which is also their sort order.  ``CompleteSymmetric`` n = 2m,
  ``HStar`` m and ``WStar`` m share it.  Ids >= the order name vertices
  outside the host.
* **The J* numbering** of the opened host: vertex (block b, side s) has id
  2b + s, x = 0 and y = 1 (``strip_id``, inverse ``strip_vertex``).  Every
  integer is a strip vertex, negative ones in negative blocks, so shifting
  a piece by k blocks adds 2k to each id.  ``BOUNDARY`` holds the ids of
  blocks 0 and 1: x0 = 0, y0 = 1, x1 = 2, y1 = 3.

``fold_ids`` closes ``j_star(m)`` onto ``w_star(m)`` by reducing block
indices mod m: in ids, ``(v >> 1) % m + (v & 1) * m``, a J* id to a host
id.  It is an arc bijection for m >= 5.

The blow-up hosts have closed-form arc sets, so membership is decided in
constant time from the two endpoint ids, without building the host.  Each
rule is written once, on id pairs, in ``_outside_j_star`` (J* numbering),
``_outside_w_star`` and ``_outside_h_star`` (host numbering); each scans
many (tail, head) pairs in one loop and returns those outside the host:

* J* (any m >= 1): both ids in 0..2m+3 (blocks 0..m+1), and a rung
  (ids 2i, 2i+1) with 1 <= i <= m, or a junction between blocks i and i+d,
  d in {1, 2}, with 0 <= i <= m-1.
* W* (m >= 5): both ids below 2m, and a rung (same block, other side), or
  blocks differing by +-1 or +-2 mod m.
* H* (m >= 3): both ids below 2m, blocks differing by +-1 mod m.

``admissible_ids`` decides, from the J* rule, whether cycles of J* ids are
an admissible factor of the opened host: 2m distinct ids, one of each
boundary pair {b, b + 2m}, every arc inside.  ``in_w_star`` and
``in_h_star`` ask the blow-up rules about an ``Arc`` of vertex objects; a
vertex with no id there is outside the host.

A ``HostDescriptor`` names a factorization host by kind and size and is
what the checker verifies against, so no host arc set is built to check a
certificate.  ``vertex_table`` holds one interned ``Vertex`` per host id,
``vertex_ids`` is the inverse and ``id_by_text`` maps ``"x3"`` to the id;
descriptors with the same x and y counts share them.  The checker encodes
an arc (a, b) of ids as the integer a*N + b, N the order.

Besides the numbering the descriptor gives ``arcs`` (a sized container:
``len`` is the arc count n(n-1), 8m or 18m, ``in`` the membership rule) and
``count_outside_codes``, the number of given arc codes that are not host
arcs.  For the complete host that is the number of loops, found by one
set intersection; the blow-up hosts decode each code with ``divmod`` into
an id pair and scan the pairs once with the host's rule, so a declared
size allocates nothing.  A built ``Digraph`` answers the same questions
from its stored sets.  The descriptor refuses the sizes the builders
refuse, with their messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations, repeat, starmap
from .core import Arc, Digraph, Vertex

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
        n = self.order
        if self.kind == "CompleteSymmetric":
            # distinct host vertices are always joined, so only loops are outside
            return len(codes.intersection(range(0, n * n, n + 1)))
        self._described()
        outside = _outside_h_star if self.kind == "HStar" else _outside_w_star
        return len(outside(map(divmod, codes, repeat(n)), self.m_or_n))


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
    """Arc set of the opened host on blocks 0..m+1 (any m >= 1): the pairs
    of J* ids at most two blocks apart (ids at most 5 apart) that the J*
    rule admits."""
    top = 2 * m + 4
    near = [(a, b) for a in range(top) for b in range(max(a - 5, 0), min(a + 6, top))]
    outside = set(_outside_j_star(near, m))
    return frozenset(
        Arc(strip_vertex(a), strip_vertex(b)) for a, b in near if (a, b) not in outside
    )


def strip_id(v: Vertex) -> int:
    """The J* id 2 * index + side of a vertex of side x (0) or y (1)."""
    side, index = v
    if side not in ("x", "y"):
        raise ValueError(f"{v!r} is not a strip vertex (side x or y)")
    return 2 * index + (side == "y")


def strip_vertex(i: int) -> Vertex:
    """The vertex of J* id ``i``, the inverse of ``strip_id``."""
    return Vertex("y" if i & 1 else "x", i >> 1)


def _outside_j_star(pairs, m: int) -> list:
    """The J* id pairs (a, b) in ``pairs`` that are not arcs of
    ``j_star(m)``: both ids in 0..2m+3, and a rung (same block i, other
    side) with 1 <= i <= m, or a junction between blocks i and i+d,
    d in {1, 2}, with 0 <= i <= m-1 (any m >= 1)."""
    top = 2 * m + 4
    out = []
    for a, b in pairs:
        if 0 <= a < top and 0 <= b < top:
            i = a >> 1
            j = b >> 1
            if i == j:
                if a != b and 0 < i <= m:
                    continue
            elif -2 <= i - j <= 2 and (i < m or j < m):
                continue
        out.append((a, b))
    return out


# The J* ids of the boundary blocks 0 and 1: x0 = 0, y0 = 1, x1 = 2, y1 = 3.
# Their twins across m blocks, in blocks m and m+1, are b + 2m.
BOUNDARY = frozenset(range(4))


def admissible_ids(cycles, m: int) -> bool:
    """Whether the cycles of J* ids ``cycles`` form an admissible factor on
    m blocks: 2m distinct ids, every arc in the opened host
    (``_outside_j_star``), one id of each boundary pair {b, b + 2m} for b in
    ``BOUNDARY``, all middle blocks saturated.

    With all 2m ids in 0..2m+3 and one of each boundary pair present, the
    other 2m - 4 lie in 4..2m-1, which has that many ids, so the middle
    blocks are saturated."""
    named: set = set()
    total = 0
    for c in cycles:
        named.update(c)
        total += len(c)
    if m < 1 or total != 2 * m or len(named) != total:
        return False
    if min(named) < 0 or max(named) > 2 * m + 3:
        return False
    for b in BOUNDARY:
        if (b in named) == (b + 2 * m in named):
            return False
    return not _outside_j_star([a for c in cycles for a in zip(c, c[1:] + c[:1])], m)


def _outside_w_star(pairs, m: int) -> list:
    """The host id pairs (a, b) in ``pairs`` that are not arcs of
    ``w_star(m)`` (m >= 5): both ids below 2m, and a rung (same block, other
    side), or blocks differing by +-1 or +-2 mod m."""
    n = 2 * m
    steps = (1, 2, m - 2, m - 1)
    out = []
    for a, b in pairs:
        if 0 <= a < n and 0 <= b < n:
            step = (b - a) % m  # y_i = m + i, so this is the block difference
            if step == 0:
                if a != b:
                    continue
            elif step in steps:
                continue
        out.append((a, b))
    return out


def _outside_h_star(pairs, m: int) -> list:
    """The host id pairs (a, b) in ``pairs`` that are not arcs of
    ``h_star(m)`` (m >= 3): both ids below 2m, blocks differing by +-1 mod m."""
    n = 2 * m
    steps = (1, m - 1)
    out = []
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n and (b - a) % m in steps):
            out.append((a, b))
    return out


def _host_id(v: Vertex, m: int) -> int:
    """The id of ``v`` in the numbering of the m-block blow-ups, or -1 when
    ``v`` is not one of their vertices."""
    side, index = v
    if 0 <= index < m and side in ("x", "y"):
        return index + (m if side == "y" else 0)
    return -1


def in_h_star(arc: Arc, m: int) -> bool:
    """``arc in h_star(m).arcs``, by the H* rule on ids (m >= 3)."""
    return not _outside_h_star(((_host_id(arc[0], m), _host_id(arc[1], m)),), m)


def in_w_star(arc: Arc, m: int) -> bool:
    """``arc in w_star(m).arcs``, by the W* rule on ids (m >= 5)."""
    return not _outside_w_star(((_host_id(arc[0], m), _host_id(arc[1], m)),), m)


def j_star(m: int) -> Digraph:
    """Opened strip host on 2(m+2) vertices with 18m arcs."""
    if m < 3:
        raise ValueError(f"j_star needs m >= 3, got {m}")
    vertices = [Vertex(s, i) for i in range(m + 2) for s in ("x", "y")]
    return Digraph(vertices, _j_arcs(m))


def fold_ids(factors, m: int) -> list:
    """Fold factors given as cycles of J* ids onto ``w_star(m)`` by reducing
    block indices mod m: J* id v becomes host id (v >> 1) % m + (v & 1) * m
    (x_i -> i mod m, y_i -> m + (i mod m), the numbering the order-2m
    complete host shares).  Each factor's cycles keep their order.  Nothing
    is checked here: a folded cycle may repeat an id or use arcs outside
    ``w_star(m)``."""
    return [
        [[(v >> 1) % m + (v & 1) * m for v in c] for c in f] for f in factors
    ]
