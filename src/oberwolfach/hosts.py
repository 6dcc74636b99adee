"""The hosts' specification: the four host digraphs, their vertex
numberings, their membership rules, admissibility and the fold.

This module is the one the checker judges by; it imports nothing but
``core``.  All hosts are symmetric digraphs (both arcs on every edge of an
underlying graph) over strip-labelled vertices, and each is known by its
kind and size only: no host's arcs are ever built as objects.

* ``CompleteSymmetric`` n -- every ordered pair of distinct vertices.
* ``HStar`` m (H*) -- blow each vertex of an m-cycle into a pair
  {x_i, y_i}; consecutive blocks are joined completely, there are no
  within-block arcs.
* ``WStar`` m (W*) -- same blow-up of the circulant with jumps {1, 2}
  mod m, plus both within-block (rung) arcs x_i <-> y_i.
* ``JStar`` m (J*) -- the opened, non-wrapping variant of W* on blocks
  0..m+1: jump-1 and jump-2 junctions for 0 <= i <= m-1 only, rungs only
  for 1 <= i <= m.

Two vertex numberings are used, and the package works on their ids:

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

``fold_image`` closes J* onto W* on the same m by reducing block
indices mod m: in ids, ``(v >> 1) % m + (v & 1) * m``, for the opened
host's ids only.  It is an arc bijection for m >= 5, and ``caps`` gathers
each spliced piece through its slice at the piece's offset.

The three strip hosts have closed-form arc sets, each written once, in
the form its one reader uses:

* J* (any m >= 1), on J* ids: both ids in 0..2m+3 (blocks 0..m+1), and a
  rung (ids 2i, 2i+1) with 1 <= i <= m, or a junction between blocks i
  and i+d, d in {1, 2}, with 0 <= i <= m-1.
* W* (m >= 5), on host ids: each block joined completely to the blocks
  +-1 and +-2 away mod m, plus the rung x_i <-> y_i inside each block.
* H* (m >= 3), on host ids: each block joined completely to the blocks
  +-1 away mod m.

J* is written as the ``range``s of its arc codes a * (2m+4) + b: every
family of arcs -- the rungs, or the junctions at one block difference
between one pair of sides -- moves both ids with its block, so its codes
are an arithmetic progression.  ``arc_codes(m)`` gathers these O(1)
ranges into one frozenset, in O(m) by C-level set calls, and keeps the
last eight: ``admissible_ids`` tests one superset of it per factor, and
``_outside`` returns the id pairs whose code it lacks.  W* and H* are
written as block shifts by ``out_neighbour_bytes(kind, m)``: for each
shift d, the successor tables x_i -> x_{i+d}, y_i -> y_{i+d} and
x_i -> y_{i+d}, y_i -> x_{i+d}, and on W* the rung table, joined as the
checker joins a factorization's tables, so that each id's row is its
out-neighbours: a byte per id up to ``BYTE_IDS`` = 256 ids, an unsigned
``array('I')`` above.  The checker's column kernel counts each
vertex's missing heads against these rows; the complete host needs none,
since every other id is an out-neighbour.  Only the certificate reader
asks ``byte_permutation`` whether cycles are a permutation of up to 256
ids.  ``successor_table``, in the same two widths, is the one builder of
a permutation's successor table, for the checker and the edge and DOT
writers; up to 256 ids it makes the same test itself (a join and a
``translate``), so that a factor costs it one call.  ``admissible_ids``
decides whether cycles of J* ids are an admissible factor of the opened
host: 2m distinct ids, one of each boundary pair {b, b + 2m}, every arc
inside.

A ``HostDescriptor`` names a factorization host by kind and size and is
what the checker verifies against, so no host arc set is built to check a
certificate.  ``vertex_table`` holds one interned ``Vertex`` per host id
and ``id_by_text`` maps ``"x3"`` to the id; descriptors with the same x
and y counts share them.  Besides the numbering it gives ``arc_count``
(n(n-1), 8m or 18m, by arithmetic); these two and ``out_neighbour_bytes``
are all that the checker asks of a host.  The descriptor refuses a size
below the host's least (n >= 2, H* m >= 3, W* m >= 5).
"""

from __future__ import annotations

from array import array
from collections import deque
from functools import cached_property, lru_cache
from itertools import chain, repeat
from operator import add, mul, setitem
from typing import NamedTuple

from .core import Vertex, id_arcs

# kind -> (name in the size error, size letter, least size) for the hosts a
# factorization is checked against; JStar decompositions have their own
# checker.  The names are the hosts' names in ``verify`` error text.
_LEAST_SIZE = {
    "CompleteSymmetric": ("complete_symmetric", "n", 2),
    "HStar": ("h_star", "m", 3),
    "WStar": ("w_star", "m", 5),
}
DESCRIBED_KINDS = frozenset(_LEAST_SIZE)


class _Host(NamedTuple):
    kind: str  # CompleteSymmetric | HStar | WStar | JStar
    m_or_n: int


class HostDescriptor(_Host):
    """A host by kind and size: its vertex numbering and ``arc_count``,
    without building its arc set.
    JStar, checked by ``verify_admissible_decomposition``, is only named
    (and has an ``order``), not described."""

    def __new__(cls, kind: str, m_or_n: int):
        if kind in _LEAST_SIZE:
            name, letter, least = _LEAST_SIZE[kind]
            if m_or_n < least:
                raise ValueError(f"{name} needs {letter} >= {least}, got {m_or_n}")
        return super().__new__(cls, kind, m_or_n)

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through here: a replaced size is refused too
        return cls(*iterable)

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
    def id_by_text(self) -> dict:
        """``"x3" -> id``: each vertex's written form to its id."""
        return self._numbering[1]

    @property
    def arc_count(self) -> int:
        """The host's arc count: n(n-1), 8m for HStar, 18m for WStar."""
        self._described()
        size = self.m_or_n
        if self.kind == "HStar":
            return 8 * size
        if self.kind == "WStar":
            return 18 * size
        return size * (size - 1)


@lru_cache(maxsize=4)
def _vertex_numbering(xs: int, ys: int) -> tuple:
    """Interned vertices x_0..x_{xs-1}, y_0..y_{ys-1} in id order, with the
    ``text -> id`` map.  The result is shared by every caller with the same
    counts and must not be mutated."""
    table = tuple(
        [Vertex("x", i) for i in range(xs)] + [Vertex("y", i) for i in range(ys)]
    )
    return table, {v.text(): i for i, v in enumerate(table)}


def strip_id(v: Vertex) -> int:
    """The J* id 2 * index + side of a vertex of side x (0) or y (1)."""
    side, index = v
    if side not in ("x", "y"):
        raise ValueError(f"{v!r} is not a strip vertex (side x or y)")
    return 2 * index + (side == "y")


def strip_vertex(i: int) -> Vertex:
    """The vertex of J* id ``i``, the inverse of ``strip_id``."""
    return Vertex("y" if i & 1 else "x", i >> 1)


def _run(step: int, first: int, last: int, offset: int) -> range:
    """The codes offset + i * step for first <= i < last: the arcs of one
    family of J*, whose ids both move as block i does."""
    return range(offset + first * step, offset + last * step, step)


@lru_cache(maxsize=8)
def arc_codes(m: int) -> frozenset:
    """The arc codes a * (2m+4) + b of J* on m blocks (any m >= 1), (a, b)
    an arc on J* ids: a rung 2i <-> 2i+1 for 1 <= i <= m, and a junction
    between blocks i and i+d, d in {1, 2}, for 0 <= i <= m-1, all four side
    pairs, both ways.  Id 2i + s moves two per block, so each family is a
    range stepping by 2 * (2m+5).  The last eight are kept, for the tests
    that follow and the widths a table audit alternates; they must not be
    mutated.  Each holds 18m codes (1.1 MB at m = 1001)."""
    top = 2 * m + 4
    step = 2 * (top + 1)
    out = [_run(step, 1, m + 1, 1), _run(step, 1, m + 1, top)]  # rungs x->y, y->x
    for d in (1, 2):
        for s in (0, 1):
            for t in (0, 1):
                out.append(_run(step, 0, m, s * top + 2 * d + t))  # block i -> i + d
                out.append(_run(step, 0, m, (2 * d + t) * top + s))  # block i + d -> i
    return frozenset(chain.from_iterable(out))


BYTE_IDS = 256  # the most ids a byte holds
_BYTE_IDS = bytes(range(BYTE_IDS))


def byte_permutation(cycles, n: int):
    """``cycles`` joined as one ``bytes`` when their ids are a permutation
    of 0..n-1, n <= ``BYTE_IDS``: n bytes whose deletion from
    ``bytes(range(n))`` leaves nothing; None otherwise.  The certificate
    reader's test; ``successor_table`` writes the same test out."""
    try:
        joined = b"".join(map(bytes, cycles))
    except (ValueError, TypeError):  # an id outside 0..255
        return None
    if len(joined) == n <= BYTE_IDS and not _BYTE_IDS[:n].translate(None, joined):
        return joined
    return None


# an unsigned slot's largest value: no host id, so it marks an empty slot
_FILL = (1 << 8 * array("I").itemsize) - 1


def successor_table(cycles, n: int):
    """The heads of ids 0..n-1 when the ids of ``cycles`` are a permutation
    of them, else None.  Up to ``BYTE_IDS`` ids: the test that
    ``byte_permutation`` makes, written out here so that a factor costs one
    call, then ``bytes.maketrans`` of the ids joined as one ``bytes``, each
    onto the id after it, and each cycle's last id sent back to its first.
    Above: each arc's head written at its tail in an unsigned
    ``array('I')`` of ``_FILL``, none of which a permutation leaves.  An
    id >= n fails as a tail, a negative one as a head."""
    if n <= BYTE_IDS:
        try:
            tails = b"".join(map(bytes, cycles))
        except (ValueError, TypeError):  # an id outside 0..255
            return None
        if len(tails) != n or _BYTE_IDS[:n].translate(None, tails):
            return None
        table = bytearray(bytes.maketrans(tails[:-1], tails[1:]))
        for c in cycles:
            if c:
                table[c[-1]] = c[0]
        del table[n:]
        return table
    tails, heads = id_arcs(cycles)
    if len(tails) != n:
        return None
    table = array("I", [_FILL]) * n
    try:
        deque(map(setitem, repeat(table), tails, heads), maxlen=0)
    except (IndexError, OverflowError):
        return None
    return None if _FILL in table else table


@lru_cache(maxsize=2)
def out_neighbour_bytes(kind: str, m: int) -> tuple:
    """Each host id's out-neighbours on the blow-up ``kind`` (``"WStar"``
    or ``"HStar"``) on m blocks, one row per id in id order: ``bytes`` when
    the 2m ids fit in a byte, an unsigned ``array('I')`` otherwise.

    The host is a union of successor tables over its ids ``xs`` then
    ``ys``: for each block shift d (+-1, and on W* +-2, mod m) the same-side
    table, x_i -> x_{i+d} and y_i -> y_{i+d}, and the cross table,
    x_i -> y_{i+d} and y_i -> x_{i+d}, and on W* the rung table
    x_i <-> y_i.  Joined, row a is ``grid[a::n]``, a's 9 (W*) or 4 (H*)
    heads.  One order's two hosts are kept; the result must not be
    mutated."""
    n = 2 * m
    ids = bytes(range(n)) if n <= BYTE_IDS else array("I", range(n))
    xs, ys = ids[:m], ids[m:]
    grid = ys + xs if kind == "WStar" else ids[:0]  # the rungs
    for d in (1, 2, m - 2, m - 1) if kind == "WStar" else (1, m - 1):
        rx, ry = xs[d:] + xs[:d], ys[d:] + ys[:d]
        grid += rx + ry + ry + rx  # same side, then across
    return tuple(grid[a::n] for a in range(n))


def _outside(pairs, m: int) -> list:
    """The J* id pairs (a, b) in ``pairs`` that are not arcs of J* on m
    blocks (any m >= 1): an id outside 0..2m+3, or a code a * (2m+4) + b
    not in ``arc_codes(m)``."""
    width = 2 * m + 4
    codes = arc_codes(m)
    return [
        (a, b)
        for a, b in pairs
        if not (0 <= a < width and 0 <= b < width and a * width + b in codes)
    ]


# The J* ids of the boundary blocks 0 and 1: x0 = 0, y0 = 1, x1 = 2, y1 = 3.
# Their twins across m blocks, in blocks m and m+1, are b + 2m.
BOUNDARY = frozenset(range(4))


def admissible_ids(cycles, m: int) -> bool:
    """Whether the cycles of J* ids ``cycles`` form an admissible factor on
    m blocks: 2m distinct ids, every arc in the opened host
    (``arc_codes(m)``), one id of each boundary pair {b, b + 2m}
    for b in ``BOUNDARY``, all middle blocks saturated.

    With all 2m ids in 0..2m+3 and one of each boundary pair present, the
    other 2m - 4 lie in 4..2m-1, which has that many ids, so the middle
    blocks are saturated."""
    tails, heads = id_arcs(cycles)
    named = set(tails)
    if m < 1 or len(tails) != 2 * m or len(named) != len(tails):
        return False
    if min(named) < 0 or max(named) > 2 * m + 3:
        return False
    for b in BOUNDARY:
        if (b in named) == (b + 2 * m in named):
            return False
    codes = map(add, map(mul, tails, repeat(2 * m + 4)), heads)
    return arc_codes(m).issuperset(codes)


@lru_cache(maxsize=1)  # one order's image is kept
def fold_image(m: int) -> tuple:
    """The fold of J* onto W* on m blocks, a tuple indexed by the opened
    host's ids 0..2m+3: v -> ``(v >> 1) % m + (v & 1) * m``, x_i -> i mod m
    and y_i -> m + (i mod m).  An id above 2m+3 raises ``IndexError``, and
    a negative one would wrap: only admissible pieces' ids are folded."""
    return tuple((v >> 1) % m + (v & 1) * m for v in range(2 * m + 4))
