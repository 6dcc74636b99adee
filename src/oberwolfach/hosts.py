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

``fold_ids`` closes J* onto W* on the same m by reducing block
indices mod m: in ids, ``(v >> 1) % m + (v & 1) * m``, a J* id to a host
id.  It is an arc bijection for m >= 5.

The three strip hosts have closed-form arc sets.  Each rule is written
once, as the ``range``s of its arc codes a * width + b: ``_j_star_ranges``
on J* ids (width 2m + 4), ``_blow_up_ranges`` on host ids (width 2m).
Every family of arcs -- the rungs, or the junctions at one block
difference between one pair of sides -- moves both ids with its block, so
its codes are an arithmetic progression, and a rule is O(1) ranges built
in O(1):

* J* (any m >= 1): both ids in 0..2m+3 (blocks 0..m+1), and a rung
  (ids 2i, 2i+1) with 1 <= i <= m, or a junction between blocks i and i+d,
  d in {1, 2}, with 0 <= i <= m-1.
* W* (m >= 5): both ids below 2m, and a rung (same block, other side), or
  blocks differing by +-1 or +-2 mod m.
* H* (m >= 3): both ids below 2m, blocks differing by +-1 mod m.

``arc_codes(kind, m)`` gathers a rule's ranges into one frozenset, in O(m)
by C-level set calls, and keeps the last eight: ``admissible_ids`` tests one
superset of it per factor, and ``_outside`` returns the id pairs whose code
it lacks.  ``out_neighbour_bytes(kind, m)`` writes W* or H* as one row of
out-neighbours per id, by one slice per range of the rule, so each rule is
still written once: a byte per id up to ``BYTE_IDS`` = 256 ids, an
unsigned ``array('I')`` above.  The checker's column kernel counts each
vertex's missing heads against these rows; the complete host needs none,
since every other id is an out-neighbour.  The certificate reader asks
``byte_permutation`` whether cycles are a permutation of up to 256 ids,
and ``successor_table``, in the same two widths, is the one builder of a
permutation's successor table.  ``admissible_ids`` decides whether cycles
of J* ids are an admissible factor of the opened host: 2m distinct ids,
one of each boundary pair {b, b + 2m}, every arc inside.

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
from operator import add, attrgetter, mul, setitem
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
    family of a rule, whose ids both move as block i does."""
    return range(offset + first * step, offset + last * step, step)


def _j_star_ranges(m: int) -> list:
    """The J* rule (any m >= 1) as ranges of codes a * (2m+4) + b of J* ids:
    a rung 2i <-> 2i+1 for 1 <= i <= m, and a junction between blocks i and
    i+d, d in {1, 2}, for 0 <= i <= m-1, all four side pairs, both ways.
    Id 2i + s moves two per block, so each family steps by 2 * (2m+5)."""
    top = 2 * m + 4
    step = 2 * (top + 1)
    out = [_run(step, 1, m + 1, 1), _run(step, 1, m + 1, top)]  # rungs x->y, y->x
    for d in (1, 2):
        for s in (0, 1):
            for t in (0, 1):
                out.append(_run(step, 0, m, s * top + 2 * d + t))  # block i -> i + d
                out.append(_run(step, 0, m, (2 * d + t) * top + s))  # block i + d -> i
    return out


def _blow_up_ranges(m: int, steps: tuple, rungs: bool) -> list:
    """A blow-up rule as ranges of codes a * 2m + b of host ids (x_i = i,
    y_i = m + i): block i joined to block (i + d) % m for d in ``steps``,
    all four side pairs, plus the rungs x_i <-> y_i when ``rungs``.  Id
    i + s*m moves one per block, so each family steps by 2m + 1, and a
    junction's codes split into two runs where its head block wraps."""
    n = 2 * m
    step = n + 1
    out = [_run(step, 0, m, m), _run(step, 0, m, m * n)] if rungs else []  # x->y, y->x
    for d in steps:
        for base in (0, m, m * n, m * n + m):  # x -> x, x -> y, y -> x, y -> y
            out.append(_run(step, 0, m - d, base + d))  # head block i + d
            out.append(_run(step, m - d, m, base + d - m))  # head block i + d - m
    return out


def _ranges(kind: str, m: int) -> list:
    """The rule of host ``kind`` ("JStar", "WStar" or "HStar") on m blocks,
    as ranges of arc codes: the one definition of each rule."""
    if kind == "JStar":
        return _j_star_ranges(m)
    if kind == "WStar":
        return _blow_up_ranges(m, (1, 2, m - 2, m - 1), True)
    return _blow_up_ranges(m, (1, m - 1), False)


@lru_cache(maxsize=8)
def arc_codes(kind: str, m: int) -> frozenset:
    """The arc codes of J* (``"JStar"``, J* ids, width 2m + 4), W*
    (``"WStar"``) or H* (``"HStar"``, host ids, width 2m) on m blocks:
    every a * width + b with (a, b) an arc, the union of the rule's ranges,
    gathered in O(m) by C-level set calls.  The last eight are kept, for
    the tests that follow and the widths a table audit alternates; they
    must not be mutated.  Each holds at most 18m codes (1.1 MB at m = 1001)."""
    return frozenset(chain.from_iterable(_ranges(kind, m)))


BYTE_IDS = 256  # the most ids a byte holds
_BYTE_IDS = bytes(range(BYTE_IDS))


def byte_permutation(cycles, n: int):
    """``cycles`` joined as one ``bytes`` when their ids are a permutation
    of 0..n-1, n <= ``BYTE_IDS``: n bytes whose deletion from
    ``bytes(range(n))`` leaves nothing; None otherwise."""
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
    of them, else None: up to ``BYTE_IDS`` ids, ``bytes.maketrans`` of the
    ids (``byte_permutation``) onto them shifted by one, each cycle's last
    sent back to its first; above, each arc's head written at its tail in
    an unsigned ``array('I')`` of ``_FILL``, none of which a permutation
    leaves.  An id >= n fails as a tail, a negative one as a head."""
    if n <= BYTE_IDS:
        tails = byte_permutation(cycles, n)
        if tails is None:
            return None
        table = bytearray(bytes.maketrans(tails, tails[1:] + tails[:1]))
        for c in cycles:
            if c:
                table[c[-1]] = c[0]
        return table[:n]
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
    or ``"HStar"``) on m blocks, one row per id in id order: a
    ``bytearray`` when the 2m ids fit in a byte, an unsigned ``array('I')``
    otherwise.

    A blow-up is out-regular, k = 9 (W*) or 4 (H*) heads per id, and both
    ids of a range's codes step by one, so a range is a run of tails
    a..a+L-1 with heads b..b+L-1.  The runs, taken in order of their first
    code, fill k rows of n heads indexed by tail: each run is one slice of
    ``ids`` written into the first row filled up to the run's first tail,
    and since every id has k heads, such a row always exists.  Column a of
    the joined rows, ``grid[a::n]``, is then a's k heads.  One order's two
    hosts are kept; the result must not be mutated."""
    n = _width(kind, m)
    runs = sorted(_ranges(kind, m), key=attrgetter("start"))
    ends = [0] * (sum(map(len, runs)) // n)  # each row's first tail not yet filled
    if n <= BYTE_IDS:
        ids, grid = bytes(range(n)), bytearray(len(ends) * n)
    else:
        ids, grid = array("I", range(n)), array("I", [0]) * (len(ends) * n)
    for run in runs:
        a, b = divmod(run.start, n)
        row = ends.index(a)
        grid[row * n + a : row * n + a + len(run)] = ids[b : b + len(run)]
        ends[row] += len(run)
    return tuple(grid[a::n] for a in range(n))


def _width(kind: str, m: int) -> int:
    """The id count of host ``kind`` on m blocks: codes are a * width + b."""
    return 2 * m + 4 if kind == "JStar" else 2 * m


def _outside(kind: str, pairs, m: int) -> list:
    """The id pairs (a, b) in ``pairs`` that are not arcs of host ``kind``
    on m blocks: an id outside 0..width-1, or a code a * width + b not in
    ``arc_codes(kind, m)`` (J* ids for "JStar" (any m >= 1), host ids for
    "WStar" (m >= 5) and "HStar" (m >= 3))."""
    width = _width(kind, m)
    codes = arc_codes(kind, m)
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
    (``arc_codes("JStar", m)``), one id of each boundary pair {b, b + 2m}
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
    codes = map(add, map(mul, tails, repeat(_width("JStar", m))), heads)
    return arc_codes("JStar", m).issuperset(codes)


class _FoldTable(dict):
    """J* id -> host id of W* on m blocks by ``__missing__``, stored for
    the opened host's ids 0..2m+3; any other id is folded when looked up,
    and not stored."""

    __slots__ = ("m",)

    def __init__(self, m: int):
        super().__init__()
        self.m = m
        ids = range(2 * m + 4)
        self.update(zip(ids, map(self.__missing__, ids)))

    def __missing__(self, v: int) -> int:
        return (v >> 1) % self.m + (v & 1) * self.m


_fold_table = lru_cache(maxsize=1)(_FoldTable)  # one order's table is kept


def fold_ids(factors, m: int) -> list:
    """Fold factors given as cycles of J* ids onto W* on m blocks by reducing
    block indices mod m: J* id v becomes host id (v >> 1) % m + (v & 1) * m
    (x_i -> i mod m, y_i -> m + (i mod m), the numbering the order-2m
    complete host shares), looked up in one table per m.  Each factor's
    cycles keep their order.  Nothing is checked here: a folded cycle may
    repeat an id or use arcs outside W*."""
    fold = _fold_table(m).__getitem__
    return [[list(map(fold, c)) for c in f] for f in factors]
