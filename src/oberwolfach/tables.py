"""Embedded construction data for the cap/splice machinery.

Everything in this module is a transcribed constant: the shared nine-entry
boundary pattern ``X_PATTERN``, the length-2 left cap and length-4 centre
piece, sixteen right-cap tables (four families, four anchor sizes each), and
thirteen small admissible decompositions.  Nothing here is trusted as
written: the decomposition loaders read every factor as J* ids
(``hosts.strip_id``), check it with ``caps.admissible_ids`` and refuse a
table that fails, and ``checker.verify_cap_complementarity`` and
``checker.verify_admissible_decomposition`` re-check every invariant of
every table, which the ``tables --check`` CLI command runs as an audit.
The cap and centre loaders build ``DirectedPath``/``DirectedCycle`` pieces,
which convert themselves to J* ids once (``caps.LeftCap.id_paths`` and its
kin); the loaders are cached, so each table is read once per process.

Table encoding: paths are strings like ``"y2 y1 x2"``, cycles are strings
like ``"(y1 x3)"``; both parse through :mod:`oberwolfach.core`.
"""

from __future__ import annotations

from functools import lru_cache

from .core import DirectedCycle, DirectedPath, parse_vertex


def _p(text: str) -> DirectedPath:
    return DirectedPath(parse_vertex(t) for t in text.split())


def _c(text: str) -> DirectedCycle:
    return DirectedCycle(parse_vertex(t) for t in text.strip("() ").split())


def _pattern(text: str) -> frozenset:
    return frozenset(parse_vertex(t) for t in text.split())


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


@lru_cache(maxsize=None)
def left_cap():
    from .caps import LeftCap

    return LeftCap(2, tuple(_p(t) for t in LEFT_CAP_PATHS))


@lru_cache(maxsize=None)
def centre_piece():
    from .caps import CentrePiece

    return CentrePiece(4, tuple((_p(q), _p(u)) for q, u in CENTRE_PAIRS))


@lru_cache(maxsize=None)
def right_cap(family: str, anchor: int):
    from .caps import RightCap

    strip, side_lengths, rows = RIGHT_CAPS[(family, anchor)]
    elements = tuple(
        (_p(row[0]), tuple(_c(c) for c in row[1:])) for row in rows
    )
    return RightCap(strip, len(side_lengths), tuple(side_lengths), elements)


def _decomposition_from_rows(rows: tuple, m: int):
    """The decomposition the rows spell, in J* ids, each factor checked with
    ``caps.admissible_ids``; the loaders below cache it, so the check runs
    once per table and process."""
    from .caps import AdmissibleDecomposition, _id_cycles, admissible_ids

    factors = tuple(_id_cycles(map(_c, row)) for row in rows)
    for i, factor in enumerate(factors, 1):
        if not admissible_ids(factor, m):
            raise ValueError(f"table row {i} is not admissible on {m} blocks")
    return AdmissibleDecomposition(m, factors)


@lru_cache(maxsize=None)
def small_decomposition(lengths: tuple):
    key = tuple(sorted(lengths))
    return _decomposition_from_rows(SMALL_DECOMPS[key], sum(key) // 2)


@lru_cache(maxsize=None)
def figure_4_8_decomposition():
    return _decomposition_from_rows(FIGURE_4_8, 6)


@lru_cache(maxsize=None)
def supplemental_2_4_4():
    return _decomposition_from_rows(SUPPLEMENTAL_2_4_4, 5)


def small_types():
    return sorted(SMALL_DECOMPS.keys())
