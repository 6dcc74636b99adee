"""Graph kernel: vertices, cycle types, and cycles of vertex ids.

Vertices live on a two-row strip: row ``x`` and row ``y``, each indexed by a
non-negative block number.  A ``Vertex`` and a ``CycleType`` are immutable
and hashable.  Everything else is vertex ids: a cycle is a sequence of
ints, a factor a list of cycles, and a host's numbering
(``hosts.HostDescriptor``) or a document's vertex list says which vertex an
id names; ``relabelled`` maps factors through any map of ids.  The text
forms used everywhere (serialisation, CLI, tables) are ``x3`` / ``y11`` for
vertices and ``(x0,x1,y2)`` for cycles.
"""

from __future__ import annotations

import re
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional


class Vertex(NamedTuple):
    """A labelled vertex; sorts by row (``x`` before ``y``), then index."""

    side: str
    index: int

    def text(self) -> str:
        return f"{self.side}{self.index}"

    def __repr__(self) -> str:
        return self.text()


_VERTEX_RE = re.compile(r"[xy](?:0|[1-9][0-9]*)")
# a block number, length or exponent written with more digits is refused
# before ``int()`` sees it (far below the interpreter's own 4300-digit
# conversion limit)
_MAX_SPEC_DIGITS = 300


def clip(text: str, limit: int = 60) -> str:
    """``text``, or its first ``limit`` characters and its length when it is
    longer: an error message that echoes input stays short."""
    if len(text) <= limit:
        return text
    return f"{text[:limit]}... ({len(text)} characters)"


def parse_vertex(token: str) -> Vertex:
    """The vertex a token names, accepting only the form ``Vertex.text``
    writes: no whitespace, no leading zeros, ASCII digits, and a block
    number of at most ``_MAX_SPEC_DIGITS`` digits."""
    if (
        not isinstance(token, str)
        or len(token) > _MAX_SPEC_DIGITS + 1
        or not _VERTEX_RE.fullmatch(token)
    ):
        raise ValueError(f"bad vertex token: {clip(repr(token))}")
    return Vertex(token[0], int(token[1:]))


def canonical_id_cycles(cycles: Iterable) -> tuple:
    """Cycles given as sequences of vertex ids in canonical form: each
    rotated to start at its least id, then the cycles sorted.  Where ids
    number vertices in sort order (as ``hosts.HostDescriptor`` does) this
    is the order of the vertices too.  Each cycle is made a tuple once (a
    tuple is kept as it is) and rotated by joining two of its slices."""
    out = []
    for c in cycles:
        c = tuple(c)
        k = c.index(min(c))
        out.append(c[k:] + c[:k] if k else c)
    out.sort()
    return tuple(out)


def relabelled(factors: Iterable, images: Iterable) -> Iterator[tuple]:
    """``factors`` (cycles of ids) relabelled through each image in
    ``images`` in turn, id v to ``image[v]``, each in canonical form.
    Each cycle is compiled once into an ``itemgetter``, which gathers its
    image out of any image, list or dict, in one C-level call; a cycle
    needs two ids or more, or the gather returns a bare int."""
    gathers = [[itemgetter(*c) for c in f] for f in factors]
    for image in images:
        for f in gathers:
            yield canonical_id_cycles([g(image) for g in f])


def id_arcs(cycles) -> tuple:
    """The arcs of cycles of ids as two parallel lists, tails and heads.
    The tails are the cycles' ids in order; the heads are the same list
    shifted by one, with the head of each cycle's last id set to its first
    id (a 1-cycle's arc is a loop, an empty cycle has none)."""
    tails = []
    for c in cycles:
        tails += c  # a block copy per cycle, faster than chaining the ids
    heads = tails[1:]
    heads += tails[:1]
    end = 0
    for k in map(len, cycles):
        if k:
            heads[end + k - 1] = tails[end]
            end += k
    return tails, heads


class CycleType:
    """Multiset of directed-cycle lengths, kept sorted non-decreasing."""

    __slots__ = ("lengths",)

    def __init__(self, lengths: Iterable[int]):
        ls = tuple(sorted(int(x) for x in lengths))
        if any(x < 2 for x in ls):
            raise ValueError(f"cycle lengths must be >= 2: {ls}")
        self.lengths = ls

    @property
    def order(self) -> int:
        return sum(self.lengths)

    def is_bipartite(self) -> bool:
        return all(x % 2 == 0 for x in self.lengths)

    def text(self) -> str:
        return cycle_type_text(self.lengths)

    def __eq__(self, other) -> bool:
        return isinstance(other, CycleType) and self.lengths == other.lengths

    def __hash__(self) -> int:
        return hash(("F", self.lengths))

    def __repr__(self) -> str:
        return self.text()


def cycle_type_text(lengths: Iterable[int]) -> str:
    """The written form ``[2^3,4]`` of a multiset of lengths, unvalidated,
    so the checker can name any cycle type it is shown."""
    parts = []
    for length, run in groupby(sorted(lengths)):
        mult = sum(1 for _ in run)
        parts.append(f"{length}^{mult}" if mult > 1 else str(length))
    return "[" + ",".join(parts) + "]"


_SPEC_PART_RE = re.compile(r"([0-9]+)(?:\^([0-9]+))?")


def _parse_counts(text: str) -> list:
    """Parse ``[2^3,4]`` into ``(length, exponent)`` pairs, nothing expanded."""
    s = text.strip()
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1]
    counts: list = []
    if s.strip():
        for part in s.split(","):
            m = _SPEC_PART_RE.fullmatch(part.strip())
            if not m or max(len(g or "") for g in m.groups()) > _MAX_SPEC_DIGITS:
                raise ValueError(f"bad factor spec component: {clip(repr(part))}")
            length = int(m.group(1))
            mult = int(m.group(2)) if m.group(2) else 1
            if mult < 1:
                raise ValueError(f"exponent must be >= 1 in {clip(repr(part))}")
            if length < 2:
                raise ValueError(f"cycle lengths must be >= 2: {clip(repr(part))}")
            counts.append((length, mult))
    return counts


def parse_cycle_type(text: str, n: Optional[int] = None) -> CycleType:
    """Parse ``[2^3,4]`` or ``[2,2,2,4]`` into a canonical CycleType.  Lengths
    and exponents are ASCII digits; an error echoes at most 60 characters.

    With ``n`` given, the order sum(length * exponent) must equal ``n``; it
    is checked before any ``2^k`` is expanded, so a huge exponent is
    rejected without allocating.
    """
    counts = _parse_counts(text)
    if n is not None:
        order = sum(length * mult for length, mult in counts)
        if order != n:
            raise ValueError(f"cycle lengths sum to {clip(str(order))}, not {n}")
    return CycleType(length for length, mult in counts for _ in range(mult))
