"""Embedded construction data for the cap/splice machinery, and the piece
classes that type it.

Everything in this module is a transcribed constant: the shared nine-entry
boundary pattern ``X_PATTERN``, the length-2 left cap and length-4 centre
piece, sixteen right-cap tables (four families, four anchor sizes each), and
thirteen small admissible decompositions.  Nothing here is trusted as
written: the decomposition loaders check every factor with
``hosts.admissible_ids`` and refuse a table that fails, and
``checker.verify_cap_complementarity`` and
``checker.verify_admissible_decomposition`` re-check every invariant of
every table, which the ``tables --check`` CLI command runs as an audit.

Table encoding: paths are strings like ``"y2 y1 x2"``, cycles are strings
like ``"(y1 x3)"``.  Each distinct token is parsed once per process
(``_token_id``), straight to its J* id (``hosts.strip_id``: block b, side
s -> 2b + s), so every piece below holds tuples of ids: ``LeftCap.paths``,
``RightCap.elements``, ``CentrePiece.pairs`` and
``AdmissibleDecomposition.id_factors``.  A path or cycle that repeats a
vertex is refused when it is parsed.  The loaders are cached, so each
table is read once per process.  The pieces are named tuples.

Patterns are frozensets of boundary ids (``hosts.BOUNDARY``: x0 = 0,
y0 = 1, x1 = 2, y1 = 3).  ``AdmissibleDecomposition.patterns`` and
``LeftCap.patterns`` give the boundary ids each factor or path meets; the
seam pattern of a cap or centre piece (``internal_patterns``) says where
its paths cross the seam with the next piece.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from .core import CycleType, parse_vertex
from .hosts import BOUNDARY, admissible_ids, strip_id


@lru_cache(maxsize=None)
def _token_id(token: str) -> int:
    """The J* id of one vertex token.  The tables name only 20 vertices, so
    each distinct token is parsed once per process; a bad token raises
    every time, since an exception is not cached."""
    return strip_id(parse_vertex(token))


def _strip_ids(tokens: list, least: int, what: str) -> tuple:
    """The J* ids of vertex tokens: at least ``least`` of them, no repeats."""
    ids = tuple(map(_token_id, tokens))
    if len(ids) < least or len(set(ids)) != len(ids):
        raise ValueError(f"bad {what}: {' '.join(tokens)!r}")
    return ids


def _p(text: str) -> tuple:
    return _strip_ids(text.split(), 1, "path")


def _c(text: str) -> tuple:
    return _strip_ids(text.strip("() ").split(), 2, "cycle")


def _pattern(text: str) -> frozenset:
    return frozenset(_p(text))


# The boundary pattern shared by every table: entry i is the subset of
# {x0, x1, y0, y1} that factor i meets.
X_PATTERN = tuple(
    _pattern(t)
    for t in (
        "y1",
        "x0 x1 y1",
        "x1 y0 y1",
        "x0 x1 y0 y1",
        "y1",
        "x0 x1 y0",
        "x1 y1",
        "x1",
        "x0 x1 y0 y1",
    )
)


class InternalPatternEntry(NamedTuple):
    """Normalised (source-end, terminal-end, absent-set) seam description,
    in boundary ids."""

    first: int
    second: int
    absent: frozenset


class LeftCap(NamedTuple):
    """Nine arc-disjoint paths whose union is the width-``ell`` opened host
    minus the arc x_ell -> y_ell; path endpoints sit in blocks ell, ell+1."""

    ell: int
    paths: tuple  # 9 id paths

    def patterns(self) -> tuple:
        """The boundary ids each path meets."""
        return tuple(BOUNDARY.intersection(p) for p in self.paths)

    def internal_patterns(self) -> tuple:
        """Path i's ends and the seam ids it passes through, moved back by
        ``ell`` blocks onto the boundary."""
        seam = set(range(2 * self.ell, 2 * self.ell + 4))
        back = -2 * self.ell
        return tuple(
            InternalPatternEntry(
                p[0] + back,
                p[-1] + back,
                frozenset(v + back for v in seam.intersection(p[1:-1])),
            )
            for p in self.paths
        )


class RightCap(NamedTuple):
    """Nine arc-disjoint path-plus-cycles pieces whose union is the
    width-``r`` opened host plus the arc x0 -> y0."""

    r: int
    side_lengths: tuple  # lengths of the side cycles
    elements: tuple  # 9 of (id path, tuple of id cycles)

    def internal_patterns(self) -> tuple:
        """Each path's terminal and source, and the boundary ids the element
        leaves out."""
        return tuple(
            InternalPatternEntry(p[-1], p[0], BOUNDARY.difference(p, *cycles))
            for p, cycles in self.elements
        )


class CentrePiece(NamedTuple):
    """Nine pairs of vertex-disjoint paths bridging ``c`` blocks; the union
    is the width-``c`` opened host plus x0 -> y0 minus x_c -> y_c."""

    c: int
    pairs: tuple  # 9 of (Q, U), id paths

    def internal_patterns(self) -> tuple:
        """Each U's terminal, Q's source, and the boundary ids the pair
        leaves out."""
        return tuple(
            InternalPatternEntry(u[-1], q[0], BOUNDARY.difference(q, u))
            for q, u in self.pairs
        )


class _Decomposition(NamedTuple):
    m: int
    id_factors: tuple  # 9 tuples of id tuples


class AdmissibleDecomposition(_Decomposition):
    """Nine admissible factors partitioning the arcs of the opened host on
    ``m`` blocks, each a tuple of cycles of J* ids."""

    def patterns(self) -> tuple:
        """The boundary ids each factor meets."""
        return self._patterns

    @cached_property
    def _patterns(self) -> tuple:
        # table pieces are shared and spliced again and again, so the
        # patterns of a decomposition are computed once
        return tuple(BOUNDARY.intersection(chain(*f)) for f in self.id_factors)

    @cached_property
    def gathers(self) -> tuple:
        """Per factor, an ``itemgetter`` per cycle: ``caps._splice`` gathers
        each cycle's image with it, and builds none per splice."""
        return tuple(tuple(itemgetter(*c) for c in f) for f in self.id_factors)

    def cycle_types(self) -> tuple:
        return tuple(CycleType(map(len, f)) for f in self.id_factors)


# Left cap of length 2: nine arc-disjoint paths whose union is the opened
# host on blocks 0..3 minus the arc x2->y2.
LEFT_CAP_PATHS = (
    "y2 y1 x2",
    "y2 x0 y1 x1 x3",
    "x3 y1 y0 x1 y2",
    "x3 x1 x0 y2 x2 y0 y1 y3",
    "x2 y1 y2",
    "y2 y0 x2 x0 x1 y3",
    "y3 x1 y1 x3",
    "y2 x1 x2",
    "y3 y1 x0 x2 x1 y0 y2",
)

# Centre piece of length 4: nine pairs (Q, U) of vertex-disjoint paths.  Q
# runs left-to-right (source in blocks 0/1, terminal four blocks later), U
# runs right-to-left.
CENTRE_PAIRS = (
    ("x0 y2 x2 x1 y3 x4", "y4 x3 y1 y0"),
    ("x1 x0 x2 x3 x5", "y4 y3 y1 y2 y0"),
    ("y0 y2 y1 y3 y4", "x5 x3 x2 x0 x1"),
    ("y1 x2 y4 x4 x3 y5", "x5 y3 y2 x1"),
    ("y0 x1 y2 x3 y4", "x4 y3 x2 y1 x0"),
    ("y1 x1 x3 y3 y5", "y4 y2 x4 x2 y0"),
    ("x1 x2 y3 x5", "y5 x3 y2 x0 y0 y1"),
    ("x0 y1 x3 x4", "y4 x2 y2 y3 x1 y0"),
    ("y0 x2 x4 y2 y4", "y5 y3 x3 x1 y1"),
)

# Right caps, keyed by (family, anchor).  family identifies the produced
# factor shape: "L" -> [2s]; "L2" -> [2s,2]; "L22" -> [2s,2,2];
# "L4" -> [2s,4].  anchor is the smallest admissible s in the family's
# residue class mod 4.  Each entry: (strip_length, side_cycle_lengths,
# nine (path, cycles...) rows).
RIGHT_CAPS = {
    ("L", 4): (
        2,
        (),
        (
            ("x0 y1 x3 x1 x2 y2 y0",),
            ("x1 x0 y2 y1 y0",),
            ("y0 y1 x0 x2 x1",),
            ("y1 x1",),
            ("y0 y2 x1 x3 y1 x2 x0",),
            ("y1 y3 x1 y0",),
            ("x1 y2 x0 y0 x2 y1",),
            ("x0 x1 y3 y1 y2 x2 y0",),
            ("y0 x1 y1",),
        ),
    ),
    ("L", 5): (
        3,
        (),
        (
            ("x0 x1 y1 x3 y3 x2 x4 y2 y0",),
            ("x1 y2 y3 y1 x0 x2 y0",),
            ("y0 x2 x3 y2 x0 y1 x1",),
            ("y1 y2 x2 x1",),
            ("y0 y2 x4 x2 y1 y3 x3 x1 x0",),
            ("y1 x2 y4 y2 x1 y0",),
            ("x1 y3 y2 x3 x2 x0 y0 y1",),
            ("x0 y2 y4 x2 y3 x1 x3 y1 y0",),
            ("y0 x1 x2 y2 y1",),
        ),
    ),
    ("L", 6): (
        4,
        (),
        (
            ("x0 x1 y1 x2 x3 x5 y3 x4 y4 y2 y0",),
            ("x1 x0 y1 y2 y3 x3 y4 x2 y0",),
            ("y0 y2 x0 x2 x4 x3 y3 y1 x1",),
            ("y1 y3 y2 x3 x2 x1",),
            ("y0 x1 y2 x4 x2 y4 y3 x5 x3 y1 x0",),
            ("y1 x3 y5 y3 x2 y2 x1 y0",),
            ("x1 y3 y4 x3 x4 y2 x2 x0 y0 y1",),
            ("x0 y2 y4 x4 y3 y5 x3 x1 x2 y1 y0",),
            ("y0 x2 y3 x1 x3 y2 y1",),
        ),
    ),
    ("L", 7): (
        5,
        (),
        (
            ("x0 x1 y1 x2 x3 y3 x5 y5 x4 x6 y4 y2 y0",),
            ("x1 x0 y1 y2 x3 x4 y3 y5 y4 x2 y0",),
            ("y0 y1 x0 x2 y2 y3 x4 x5 y4 x3 x1",),
            ("y1 x3 y4 x4 y2 x2 y3 x1",),
            ("y0 x2 y4 x6 x4 y5 x5 y3 x3 y1 x1 y2 x0",),
            ("y1 y3 y2 y4 y6 x4 x3 x2 x1 y0",),
            ("x1 y3 y4 y5 x3 x5 x4 x2 x0 y0 y2 y1",),
            ("x0 y2 x1 x2 x4 y6 y4 x5 x3 y5 y3 y1 y0",),
            ("y0 x1 x3 y2 x4 y4 y3 x2 y1",),
        ),
    ),
    ("L2", 4): (
        3,
        (2,),
        (
            ("x0 y1 x3 y3 x1 x2 y0", "(y2 x4)"),
            ("x1 y1 x0 y2 y0", "(x2 y3)"),
            ("y0 y1 y2 x3 x1", "(x0 x2)"),
            ("y1 x1", "(x2 y2)"),
            ("y0 x1 x3 y1 y3 y2 x0", "(x2 x4)"),
            ("y1 x2 x1 y0", "(y2 y4)"),
            ("x1 x0 y0 y2 y3 y1", "(x2 x3)"),
            ("x0 x1 y3 x3 y2 y1 y0", "(x2 y4)"),
            ("y0 x2 y1", "(x1 y2)"),
        ),
    ),
    ("L2", 5): (
        4,
        (2,),
        (
            ("x0 x1 y1 x2 x3 x4 y4 y2 y0", "(y3 x5)"),
            ("x1 x0 y1 y3 y2 x2 y0", "(x3 y4)"),
            ("y0 x2 x4 x3 y3 y1 x1", "(x0 y2)"),
            ("y1 y2 x3 x1", "(x2 y3)"),
            ("y0 x1 y3 x4 y2 y4 x2 y1 x0", "(x3 x5)"),
            ("y1 x3 x2 y2 x1 y0", "(y3 y5)"),
            ("x1 x3 y2 x4 x2 x0 y0 y1", "(y3 y4)"),
            ("x0 x2 y4 x4 y3 x1 y2 y1 y0", "(x3 y5)"),
            ("y0 y2 y3 x3 y1", "(x1 x2)"),
        ),
    ),
    ("L2", 6): (
        5,
        (2,),
        (
            ("x0 x1 y1 x2 x3 y3 x4 x6 y4 y2 y0", "(x5 y5)"),
            ("x1 x0 y1 y2 x3 x4 y3 x2 y0", "(y4 y5)"),
            ("y0 y1 x0 y2 x2 y3 x5 x3 x1", "(x4 y4)"),
            ("y1 x3 x2 y4 y3 x1", "(y2 x4)"),
            ("y0 y2 y4 x6 x4 x5 y3 y1 x1 x2 x0", "(x3 y5)"),
            ("y1 y3 x3 y4 x2 y2 x1 y0", "(x4 y6)"),
            ("x1 y3 y5 x4 x3 y2 x0 y0 x2 y1", "(y4 x5)"),
            ("x0 x2 x1 x3 x5 x4 y5 y3 y2 y1 y0", "(y4 y6)"),
            ("y0 x1 y2 y3 y4 x3 y1", "(x2 x4)"),
        ),
    ),
    ("L2", 7): (
        6,
        (2,),
        (
            ("x0 x1 y1 x2 x3 y3 x4 x5 x6 y6 y4 y2 y0", "(y5 x7)"),
            ("x1 x0 y1 y2 x3 x4 y3 x5 y4 x2 y0", "(y5 y6)"),
            ("y0 y1 x0 x2 y2 y3 y4 x5 x4 x3 x1", "(y5 x6)"),
            ("y1 x3 y2 y4 x4 x2 y3 x1", "(x5 y5)"),
            ("y0 y2 y1 x1 x3 y5 x4 y6 x6 y4 y3 x2 x0", "(x5 x7)"),
            ("y1 y3 y2 x4 y5 y4 x3 x2 x1 y0", "(x5 y7)"),
            ("x1 y3 y5 x3 y4 x6 x4 y2 x0 y0 x2 y1", "(x5 y6)"),
            ("x0 y2 x1 x2 y4 y6 x4 x6 x5 y3 x3 y1 y0", "(y5 y7)"),
            ("y0 x1 y2 x2 x4 y4 y5 y3 y1", "(x3 x5)"),
        ),
    ),
    ("L22", 4): (
        4,
        (2, 2),
        (
            ("x0 x1 y1 x2 x4 y2 y0", "(x3 y4)", "(y3 x5)"),
            ("x1 x0 y2 y1 y0", "(x2 x3)", "(y3 y4)"),
            ("y0 y2 x4 y3 x1", "(x0 x2)", "(y1 x3)"),
            ("y1 x1", "(x2 y3)", "(y2 x3)"),
            ("y0 x1 x2 y2 y3 y1 x0", "(x3 x5)", "(x4 y4)"),
            ("y1 y2 x2 y0", "(x1 x3)", "(y3 y5)"),
            ("x1 y3 y2 x0 y0 y1", "(x2 y4)", "(x3 x4)"),
            ("x0 y1 y3 x4 x2 x1 y0", "(y2 y4)", "(x3 y5)"),
            ("y0 x2 y1", "(x1 y2)", "(x3 y3)"),
        ),
    ),
    ("L22", 5): (
        5,
        (2, 2),
        (
            ("x0 x2 y3 y5 x4 x6 y4 y2 y0", "(x1 y1)", "(x3 x5)"),
            ("x1 y3 x4 y5 y4 x2 y0", "(x0 y1)", "(y2 x3)"),
            ("y0 y1 x2 x0 y2 y3 x1", "(x3 x4)", "(y4 x5)"),
            ("y1 y3 x2 x1", "(y2 x4)", "(x3 y4)"),
            ("y0 x2 y4 x6 x4 y3 y1 y2 x0", "(x1 x3)", "(x5 y5)"),
            ("y1 x3 x2 y2 x1 y0", "(y3 y4)", "(x4 y6)"),
            ("x1 x0 y0 y2 y4 y5 x3 y1", "(x2 x4)", "(y3 x5)"),
            ("x0 x1 x2 x3 y5 y3 y2 y1 y0", "(x4 x5)", "(y4 y6)"),
            ("y0 x1 y2 x2 y1", "(x3 y3)", "(x4 y4)"),
        ),
    ),
    ("L22", 6): (
        6,
        (2, 2),
        (
            ("x0 x2 x4 x5 x7 y5 x6 y6 y4 y2 y0", "(x1 y1)", "(x3 y3)"),
            ("x1 y3 x4 y5 y6 x5 y4 x2 y0", "(x0 y1)", "(y2 x3)"),
            ("y0 x2 y4 x5 x4 x6 y5 x3 x1", "(x0 y2)", "(y1 y3)"),
            ("y1 y2 x4 y3 x2 x1", "(x3 x5)", "(y4 y5)"),
            ("y0 y1 x3 x4 y6 y5 x7 x5 y3 x1 x0", "(x2 y2)", "(y4 x6)"),
            ("y1 x2 x3 y5 x4 y2 x1 y0", "(y3 y4)", "(x5 y7)"),
            ("x1 x2 x0 y0 y2 y4 y6 x4 x3 y1", "(y3 y5)", "(x5 x6)"),
            ("x0 x1 y2 y3 x5 y6 x6 x4 x2 y1 y0", "(x3 y4)", "(y5 y7)"),
            ("y0 x1 x3 x2 y3 y2 y1", "(x4 y4)", "(x5 y5)"),
        ),
    ),
    ("L22", 7): (
        7,
        (2, 2),
        (
            ("x0 x2 x4 x5 y5 x7 y7 x6 x8 y6 y4 y2 y0", "(x1 y1)", "(x3 y3)"),
            ("x1 y3 x4 y5 x5 y7 y6 x6 y4 x2 y0", "(x0 y1)", "(y2 x3)"),
            ("y0 x2 y4 x4 y6 x5 x7 x6 y5 y3 x1", "(x0 y2)", "(y1 x3)"),
            ("y1 y2 y4 x6 x4 y3 x2 x1", "(x3 x5)", "(y5 y6)"),
            ("y0 y1 y3 y4 y6 x8 x6 x7 x5 x4 x3 x2 x0", "(x1 y2)", "(y5 y7)"),
            ("y1 x2 y2 x4 y4 y3 y5 x3 x1 y0", "(x5 x6)", "(y6 y8)"),
            ("x1 x0 y0 y2 x2 x3 x4 x6 y7 x5 y3 y1", "(y4 y5)", "(y6 x7)"),
            ("x0 x1 x2 y3 x5 y6 y7 x7 y5 x4 y2 y1 y0", "(x3 y4)", "(x6 y8)"),
            ("y0 x1 x3 y5 x6 y6 x4 x2 y1", "(y2 y3)", "(y4 x5)"),
        ),
    ),
    ("L4", 5): (
        5,
        (4,),
        (
            ("x0 x1 y1 x2 x3 x5 y3 y2 y0", "(x4 y5 y4 x6)"),
            ("x1 x0 y1 y2 y4 x2 y0", "(x3 y3 y5 x4)"),
            ("y0 y2 x0 x2 y3 y1 x1", "(x3 x4 x5 y4)"),
            ("y1 y3 x3 x1", "(x2 y4 x4 y2)"),
            ("y0 x2 x1 y3 x5 y5 x3 y1 x0", "(y2 x4 x6 y4)"),
            ("y1 x3 x2 y2 x1 y0", "(y3 y4 y6 x4)"),
            ("x1 y2 y3 x4 x2 x0 y0 y1", "(x3 y4 y5 x5)"),
            ("x0 y2 x3 y5 y3 x1 x2 y1 y0", "(x4 y6 y4 x5)"),
            ("y0 x1 x3 y2 y1", "(x2 x4 y4 y3)"),
        ),
    ),
    ("L4", 6): (
        6,
        (4,),
        (
            ("x0 x1 y1 x2 x3 y3 x4 x6 y4 y2 y0", "(x5 y6 y5 x7)"),
            ("x1 x0 y1 y2 x3 x4 y3 x2 y0", "(y4 x5 y5 y6)"),
            ("y0 y1 x0 x2 y2 x4 y4 y3 x1", "(x3 y5 x6 x5)"),
            ("y1 x3 x5 x4 y2 x1", "(x2 y3 y5 y4)"),
            ("y0 y2 y1 x1 x3 y4 x6 y6 x4 x2 x0", "(y3 x5 x7 y5)"),
            ("y1 y3 y4 x3 y2 x2 x1 y0", "(x4 x5 y7 y5)"),
            ("x1 y3 y2 x0 y0 x2 y4 y5 x3 y1", "(x4 y6 x5 x6)"),
            ("x0 y2 y4 y6 x6 y5 y7 x5 y3 y1 y0", "(x1 x2 x4 x3)"),
            ("y0 x1 y2 y3 x3 x2 y1", "(x4 y5 x5 y4)"),
        ),
    ),
    ("L4", 7): (
        7,
        (4,),
        (
            ("x0 x1 y1 x2 x3 y3 x4 x5 x7 y5 y4 y2 y0", "(x6 y7 y6 x8)"),
            ("x1 x0 y1 y2 x3 x4 y3 x5 y4 x2 y0", "(y5 x6 y6 y7)"),
            ("y0 y1 x0 x2 y3 y4 x5 y5 x3 y2 x1", "(x4 x6 x7 y6)"),
            ("y1 y3 y2 x2 x4 y4 x3 x1", "(x5 x6 y5 y6)"),
            ("y0 y2 y1 x1 y3 y5 x7 y7 x5 x4 x3 x2 x0", "(y4 x6 x8 y6)"),
            ("y1 x3 y4 y5 x4 y2 y3 x2 x1 y0", "(x5 y6 y8 x6)"),
            ("x1 x3 x5 y7 x7 x6 y4 x4 y6 y5 y3 y1", "(x0 y0 x2 y2)"),
            ("x0 y2 x4 y5 y7 x6 y8 y6 x7 x5 x3 y1 y0", "(x1 x2 y4 y3)"),
            ("y0 x1 y2 y4 y6 x6 x4 x2 y1", "(x3 y5 x5 y3)"),
        ),
    ),
    ("L4", 8): (
        8,
        (4,),
        (
            ("x0 x1 y1 x2 x3 y3 x4 x5 y5 x6 x8 y6 y4 y2 y0", "(x7 y8 y7 x9)"),
            ("x1 x0 y1 y2 x3 x4 y3 x5 x6 y5 y4 x2 y0", "(y6 x7 y7 y8)"),
            ("y0 y1 x0 x2 y2 y3 y4 x4 x6 y6 x5 x3 x1", "(y5 x7 x8 y7)"),
            ("y1 x3 y4 x5 y6 x4 x2 y3 y2 x1", "(y5 y7 x6 x7)"),
            ("y0 x2 y4 y5 y6 y8 x7 x9 y7 x8 x6 x5 x4 y2 x0", "(x1 y3 x3 y1)"),
            ("y1 y3 y5 x5 y4 x6 x4 x3 y2 x2 x1 y0", "(y6 y7 y9 x7)"),
            ("x1 x3 x5 y7 y6 y5 x4 y4 y3 x2 x0 y0 y2 y1", "(x6 y8 x8 x7)"),
            ("x0 y2 x4 y6 x8 y8 x6 y4 x3 y5 y3 x1 x2 y1 y0", "(x5 x7 y9 y7)"),
            ("y0 x1 y2 y4 y6 x6 y7 x7 x5 y3 y1", "(x2 x4 y5 x3)"),
        ),
    ),
}

# Small admissible decompositions, keyed by cycle type (sorted tuple).  Each
# is nine factors, each factor a tuple of cycle strings; all carry the
# boundary pattern X_PATTERN.
SMALL_DECOMPS = {
    (2, 4): (
        ("(y1 x3)", "(x2 y3 y2 x4)"),
        ("(x0 y1)", "(x1 x2 y2 y3)"),
        ("(y0 y1)", "(x1 y2 x2 x3)"),
        ("(x0 x2)", "(y0 x1 y1 y2)"),
        ("(y1 y3)", "(x2 x4 y2 x3)"),
        ("(x2 y4)", "(x0 x1 y0 y2)"),
        ("(y1 x2)", "(x1 y3 x3 y2)"),
        ("(y2 y4)", "(x1 x3 y3 x2)"),
        ("(y0 x2)", "(x0 y2 y1 x1)"),
    ),
    (2, 6): (
        ("(y1 x2)", "(y2 x3 x5 y3 x4 y4)"),
        ("(x0 x1)", "(y1 y2 x2 x3 y4 y3)"),
        ("(y1 x3)", "(y0 x2 x4 y3 x1 y2)"),
        ("(x0 y1)", "(y0 y2 y3 x3 x2 x1)"),
        ("(x2 y4)", "(y1 y3 x5 x3 x4 y2)"),
        ("(x3 y5)", "(x0 x2 y0 x1 y3 y2)"),
        ("(x1 y1)", "(x2 y3 y4 x3 y2 x4)"),
        ("(y3 y5)", "(x1 x2 y2 y4 x4 x3)"),
        ("(y0 y1)", "(x0 y2 x1 x3 y3 x2)"),
    ),
    (2, 2, 4): (
        ("(y3 x5)", "(x4 y4)", "(y1 x2 y2 x3)"),
        ("(x2 y3)", "(x3 y4)", "(x0 x1 y2 y1)"),
        ("(x1 y1)", "(y3 x4)", "(y0 x2 x3 y2)"),
        ("(y0 x1)", "(y2 y3)", "(x0 y1 x3 x2)"),
        ("(x3 x5)", "(y3 y4)", "(y1 y2 x4 x2)"),
        ("(x1 y3)", "(x3 y5)", "(x0 x2 y0 y2)"),
        ("(y1 y3)", "(y2 y4)", "(x1 x2 x4 x3)"),
        ("(x2 y4)", "(y3 y5)", "(x1 x3 x4 y2)"),
        ("(y0 y1)", "(x3 y3)", "(x0 y2 x2 x1)"),
    ),
    (2, 2, 6): (
        ("(y1 x2)", "(y2 x3)", "(y3 x4 x6 y4 x5 y5)"),
        ("(x0 x1)", "(y1 y2)", "(x2 x3 y3 y4 y5 x4)"),
        ("(y0 y1)", "(x1 x2)", "(y2 y3 x5 x4 x3 y4)"),
        ("(x0 y1)", "(x1 x3)", "(y0 y2 y4 x4 y3 x2)"),
        ("(y1 y3)", "(x2 y2)", "(x3 y5 y4 x6 x4 x5)"),
        ("(x0 x2)", "(y4 y6)", "(y0 x1 y3 x3 x4 y2)"),
        ("(x1 y1)", "(x2 y4)", "(y2 x4 y5 x3 x5 y3)"),
        ("(x1 y2)", "(x4 y6)", "(x2 y3 y5 x5 y4 x3)"),
        ("(x0 y2)", "(y1 x3)", "(y0 x2 x4 y4 y3 x1)"),
    ),
    (2, 2, 4, 4): (
        ("(y1 x2)", "(y2 x3)", "(y3 x4 x6 y4)", "(x5 y6 y5 x7)"),
        ("(x0 x1)", "(y1 y2)", "(x2 x3 y3 y4)", "(x4 x5 y5 y6)"),
        ("(y0 x1)", "(y1 x3)", "(x2 x4 y3 y2)", "(y4 x6 y5 x5)"),
        ("(x1 x2)", "(x3 y4)", "(x0 y1 y0 y2)", "(y3 x5 x4 y5)"),
        ("(y1 y3)", "(y4 y6)", "(x2 y2 x4 x3)", "(x5 x7 y5 x6)"),
        ("(x1 x3)", "(x4 y4)", "(x0 y2 y0 x2)", "(y3 y5 y7 x5)"),
        ("(x1 y1)", "(x3 y5)", "(x2 y4 y2 y3)", "(x4 y6 x5 x6)"),
        ("(x1 y2)", "(x6 y6)", "(x2 y3 x3 x4)", "(y4 x5 y7 y5)"),
        ("(x1 y3)", "(x3 x5)", "(x0 x2 y0 y1)", "(y2 y4 y5 x4)"),
    ),
    (2, 2, 2): (
        ("(y1 x2)", "(y2 x4)", "(x3 y3)"),
        ("(x0 y1)", "(x1 x2)", "(y2 y3)"),
        ("(y0 x1)", "(y1 y2)", "(x2 x3)"),
        ("(x0 x2)", "(y0 y1)", "(x1 y2)"),
        ("(y1 y3)", "(x2 x4)", "(y2 x3)"),
        ("(x0 x1)", "(y0 y2)", "(x2 y4)"),
        ("(x1 y3)", "(y1 x3)", "(x2 y2)"),
        ("(x1 x3)", "(x2 y3)", "(y2 y4)"),
        ("(x0 y2)", "(y0 x2)", "(x1 y1)"),
    ),
    (2, 2, 2, 4): (
        ("(y1 x2)", "(y2 x3)", "(y3 x5)", "(x4 y5 y4 x6)"),
        ("(x0 x1)", "(y1 y2)", "(x2 x3)", "(y3 x4 y4 y5)"),
        ("(y0 x1)", "(y1 x3)", "(x2 y3)", "(y2 x4 x5 y4)"),
        ("(x0 y1)", "(y0 x2)", "(x3 x4)", "(x1 y2 y4 y3)"),
        ("(y1 y3)", "(x2 y2)", "(x3 y5)", "(x4 x6 y4 x5)"),
        ("(x0 x2)", "(y0 y2)", "(x4 y6)", "(x1 y3 y4 x3)"),
        ("(x1 y1)", "(x2 y4)", "(x3 x5)", "(y2 y3 y5 x4)"),
        ("(x2 x4)", "(y4 y6)", "(x5 y5)", "(x1 x3 y3 y2)"),
        ("(x0 y2)", "(y0 y1)", "(x1 x2)", "(x3 y4 x4 y3)"),
    ),
    (4, 4): (
        ("(y1 x2 x4 y2)", "(x3 y4 y3 x5)"),
        ("(x0 y2 x2 x1)", "(y1 y3 y4 x3)"),
        ("(y0 x1 y1 y2)", "(x2 x3 y3 x4)"),
        ("(x0 x1 y0 y1)", "(x2 y3 y2 x3)"),
        ("(y1 x3 x5 y3)", "(x2 y2 x4 y4)"),
        ("(x0 x2 y0 y2)", "(x1 x3 y5 y3)"),
        ("(x1 y3 x2 y1)", "(y2 y4 x4 x3)"),
        ("(x1 x2 y4 y2)", "(x3 x4 y3 y5)"),
        ("(x0 y1 y0 x2)", "(x1 y2 y3 x3)"),
    ),
    (4, 4, 4): (
        ("(y1 x2 y2 x3)", "(y3 x4 x6 y4)", "(x5 y6 y5 x7)"),
        ("(x0 x1 y2 y1)", "(x2 y3 y4 x4)", "(x3 y5 y6 x5)"),
        ("(y0 y1 y3 x1)", "(x2 x3 x4 y2)", "(y4 x6 x5 y5)"),
        ("(x0 y1 y0 y2)", "(x1 x2 y4 x3)", "(y3 y5 x5 x4)"),
        ("(y1 y2 y3 x2)", "(x3 x5 x7 y5)", "(x4 y4 y6 x6)"),
        ("(x0 x2 y0 x1)", "(y2 x4 x3 y4)", "(y3 x5 y7 y5)"),
        ("(x1 y1 x3 x2)", "(y2 y4 x5 y3)", "(x4 y5 x6 y6)"),
        ("(x1 y3 x3 y2)", "(x2 x4 y6 y4)", "(x5 x6 y5 y7)"),
        ("(x0 y2 y0 x2)", "(x1 x3 y3 y1)", "(x4 x5 y4 y5)"),
    ),
    (4, 6): (
        ("(y1 x2 y2 x3)", "(y3 x4 x6 y4 x5 y5)"),
        ("(x0 x1 y1 y2)", "(x2 x3 y3 y4 y5 x4)"),
        ("(y0 x2 y3 y1)", "(x1 x3 x4 x5 y4 y2)"),
        ("(x0 y1 x3 x2)", "(y0 y2 y4 x4 y3 x1)"),
        ("(x4 y5 y4 x6)", "(y1 y3 x5 x3 y2 x2)"),
        ("(x0 x2 y0 x1)", "(y2 y3 x3 y4 y6 x4)"),
        ("(x3 y5 x5 x4)", "(x1 x2 y4 y3 y2 y1)"),
        ("(x3 x5 y3 y5)", "(x1 y2 x4 y6 y4 x2)"),
        ("(x0 y2 y0 y1)", "(x1 y3 x2 x4 y4 x3)"),
    ),
    (4, 8): (
        ("(y1 x2 y2 x3)", "(y3 x4 y4 x6 y6 x5 x7 y5)"),
        ("(x0 x1 y1 y2)", "(x2 x3 y3 y4 x5 y5 y6 x4)"),
        ("(y0 x1 x2 y1)", "(y2 y3 x5 x4 x6 y5 y4 x3)"),
        ("(x0 x2 y0 y1)", "(x1 x3 y5 x4 x5 y4 y3 y2)"),
        ("(y1 x3 x2 y3)", "(y2 y4 y6 y5 x7 x5 x6 x4)"),
        ("(y3 y5 y7 x5)", "(x0 y2 y0 x2 y4 x4 x3 x1)"),
        ("(x1 y2 y1 y3)", "(x2 x4 y5 x3 x5 y6 x6 y4)"),
        ("(x5 y7 y5 x6)", "(x1 y3 x3 x4 y6 y4 y2 x2)"),
        ("(x3 y4 y5 x5)", "(x0 y1 x1 y0 y2 x4 y3 x2)"),
    ),
    (6,): (
        ("(y1 x2 x4 y2 x3 y3)",),
        ("(x0 x2 y3 x1 y2 y1)",),
        ("(y0 x1 y1 x3 x2 y2)",),
        ("(x0 y1 y0 y2 x1 x2)",),
        ("(y1 y3 x3 y2 x4 x2)",),
        ("(x0 x1 y0 x2 y4 y2)",),
        ("(x1 x3 y1 y2 y3 x2)",),
        ("(x1 y3 y2 y4 x2 x3)",),
        ("(x0 y2 x2 y0 y1 x1)",),
    ),
}

# The same [4,8] decomposition appears once more in figure form; it is kept
# as a separate table row so the audit cross-checks the two transcriptions.
FIGURE_4_8 = (
    ("(y1 x2 y2 x3)", "(y3 x4 y4 x6 y6 x5 x7 y5)"),
    ("(x0 x1 y1 y2)", "(x2 x3 y3 y4 x5 y5 y6 x4)"),
    ("(y0 x1 x2 y1)", "(y2 y3 x5 x4 x6 y5 y4 x3)"),
    ("(x0 x2 y0 y1)", "(x1 x3 y5 x4 x5 y4 y3 y2)"),
    ("(y1 x3 x2 y3)", "(y2 y4 y6 y5 x7 x5 x6 x4)"),
    ("(y3 y5 y7 x5)", "(x0 y2 y0 x2 y4 x4 x3 x1)"),
    ("(x1 y2 y1 y3)", "(x2 x4 y5 x3 x5 y6 x6 y4)"),
    ("(x5 y7 y5 x6)", "(x1 y3 x3 x4 y6 y4 y2 x2)"),
    ("(x3 y4 y5 x5)", "(x0 y1 x1 y0 y2 x4 y3 x2)"),
)

# Supplemental brick: an admissible [2,4,4]-decomposition with boundary
# pattern X_PATTERN.  Splicing cannot reach [2,4,4]: peeling [2,4] leaves a
# bare [4], whose order-4 strip is too short to host a decomposition.  Found
# by checker-gated backtracking search and frozen here; audited by the same
# routine as the other tables.
SUPPLEMENTAL_2_4_4 = (
    ("(x2 y2)", "(x3 x5 y3 y1)", "(x4 x6 y4 y5)"),
    ("(x0 x2)", "(x1 x3 y1 y2)", "(x4 y3 y5 y4)"),
    ("(x1 y0 y2 y1)", "(x2 y3 x3 y4)", "(x4 x5)"),
    ("(x0 y2 y0 y1)", "(x1 x2 x4 x3)", "(y3 y4)"),
    ("(x2 y1)", "(x3 y5 y3 x5)", "(x4 y2 y4 x6)"),
    ("(x0 x1 y3 y2)", "(x2 y0)", "(x3 x4 y6 y4)"),
    ("(x1 y1 y3 x2)", "(x3 y2 x4 y5)", "(x5 y4)"),
    ("(x1 y2 x3 y3)", "(x2 y4 y6 x4)", "(x5 y5)"),
    ("(x0 y1 y0 x1)", "(x2 x3)", "(x4 y4 y2 y3)"),
)

# Every embedded piece's rows by its cycle type: the small decompositions
# and the supplemental brick.
PIECES = {**SMALL_DECOMPS, (2, 4, 4): SUPPLEMENTAL_2_4_4}


@lru_cache(maxsize=None)
def left_cap() -> LeftCap:
    return LeftCap(2, tuple(map(_p, LEFT_CAP_PATHS)))


@lru_cache(maxsize=None)
def centre_piece() -> CentrePiece:
    return CentrePiece(4, tuple((_p(q), _p(u)) for q, u in CENTRE_PAIRS))


@lru_cache(maxsize=None)
def right_cap(family: str, anchor: int) -> RightCap:
    strip, side_lengths, rows = RIGHT_CAPS[(family, anchor)]
    elements = tuple((_p(row[0]), tuple(map(_c, row[1:]))) for row in rows)
    return RightCap(strip, tuple(side_lengths), elements)


def _decomposition_from_rows(rows: tuple, m: int) -> AdmissibleDecomposition:
    """The decomposition the rows spell, each factor checked with
    ``hosts.admissible_ids``; the loaders below cache it, so the check runs
    once per table and process."""
    factors = tuple(tuple(map(_c, row)) for row in rows)
    for i, factor in enumerate(factors, 1):
        if not admissible_ids(factor, m):
            raise ValueError(f"table row {i} is not admissible on {m} blocks")
    return AdmissibleDecomposition(m, factors)


@lru_cache(maxsize=None)
def small_decomposition(lengths: tuple) -> AdmissibleDecomposition:
    """The embedded piece of type ``lengths``: a small table or the
    supplemental [2,4,4] brick (``PIECES``)."""
    key = tuple(sorted(lengths))
    return _decomposition_from_rows(PIECES[key], sum(key) // 2)


@lru_cache(maxsize=None)
def figure_4_8_decomposition() -> AdmissibleDecomposition:
    return _decomposition_from_rows(FIGURE_4_8, 6)


def supplemental_2_4_4() -> AdmissibleDecomposition:
    return small_decomposition((2, 4, 4))


def small_types():
    return sorted(SMALL_DECOMPS.keys())
