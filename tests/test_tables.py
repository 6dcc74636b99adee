"""Audit of every embedded table, plus fixtures stated alongside the
figure-form cap pictures (boundary and seam patterns, piece lengths)."""

import pytest

from oberwolfach import tables
from oberwolfach.checker import (
    verify_admissible_decomposition,
    verify_cap_complementarity,
)
from oberwolfach.core import CycleType
from strip import ids, strip_factors


def entry(first, second, absent):
    """A seam pattern entry written with vertex names, as J* ids."""
    return (*ids(f"{first} {second}"), frozenset(ids(" ".join(absent))))


# The seam pattern stated for each of the nine cap elements.
STATED_INTERNAL = (
    entry("y0", "x0", ()),
    entry("y0", "x1", ()),
    entry("x1", "y0", ()),
    entry("x1", "y1", ("x0", "y0")),
    entry("x0", "y0", ()),
    entry("y0", "y1", ("x0",)),
    entry("y1", "x1", ()),
    entry("y0", "x0", ()),
    entry("y1", "y0", ("x0",)),
)


def test_left_cap_boundary_pattern_is_shared():
    assert tables.left_cap().patterns() == tables.X_PATTERN


def test_left_cap_internal_patterns_match_stated():
    assert tables.left_cap().internal_patterns() == STATED_INTERNAL


def test_centre_internal_patterns_match_stated():
    assert tables.centre_piece().internal_patterns() == STATED_INTERNAL


@pytest.mark.parametrize("family,anchor", sorted(tables.RIGHT_CAPS))
def test_right_cap_complementarity(family, anchor):
    report = verify_cap_complementarity(
        tables.left_cap(), tables.right_cap(family, anchor), tables.centre_piece()
    )
    assert report.passed, (family, anchor, report.failures())


@pytest.mark.parametrize("family,anchor", sorted(tables.RIGHT_CAPS))
def test_right_cap_joined_length_is_twice_anchor(family, anchor):
    left = tables.left_cap()
    cap = tables.right_cap(family, anchor)
    # path lengths in arcs
    m0 = {len(p) - 1 + len(e[0]) - 1 for p, e in zip(left.paths, cap.elements)}
    assert m0 == {2 * anchor}


def test_right_cap_side_cycles_as_declared():
    assert tables.right_cap("L", 4).side_lengths == ()
    assert tables.right_cap("L2", 5).side_lengths == (2,)
    assert tables.right_cap("L22", 6).side_lengths == (2, 2)
    assert tables.right_cap("L4", 7).side_lengths == (4,)


@pytest.mark.parametrize("key", tables.small_types())
def test_small_decompositions(key):
    dec = tables.small_decomposition(key)
    report = verify_admissible_decomposition(dec.m, dec, tables.X_PATTERN)
    assert report.passed, (key, report.failures())
    assert all(t == CycleType(key) for t in dec.cycle_types())


def test_small_decomposition_census():
    assert len(tables.small_types()) == 12
    assert len(tables.RIGHT_CAPS) == 16


def test_figure_4_8_decomposition():
    dec = tables.figure_4_8_decomposition()
    report = verify_admissible_decomposition(6, dec, tables.X_PATTERN)
    assert report.passed
    # the figure-form and list-form transcriptions describe the same object
    assert strip_factors(dec) == strip_factors(tables.small_decomposition((4, 8)))


def test_supplemental_2_4_4():
    dec = tables.supplemental_2_4_4()
    report = verify_admissible_decomposition(5, dec, tables.X_PATTERN)
    assert report.passed
    assert all(t == CycleType([2, 4, 4]) for t in dec.cycle_types())


def test_known_table_cells():
    # spot checks against the printed tables
    assert tables.RIGHT_CAPS[("L", 4)][2][3] == ("y1 x1",)
    assert tables.RIGHT_CAPS[("L4", 5)][2][0][1] == "(x4 y5 y4 x6)"
    assert tables.LEFT_CAP_PATHS[0] == "y2 y1 x2"


def test_corrupted_table_is_caught():
    from oberwolfach.tables import RightCap, _c, _p

    strip, side_lengths, rows = tables.RIGHT_CAPS[("L", 4)]
    rows = list(rows)
    rows[3] = ("y1 x0",)  # transpose one vertex
    bad = RightCap(
        strip,
        tuple(side_lengths),
        tuple((_p(row[0]), tuple(_c(c) for c in row[1:])) for row in rows),
    )
    report = verify_cap_complementarity(tables.left_cap(), bad)
    assert not report.passed


# -- one corrupted piece per audit clause -----------------------------------


def _edit(rows, i, row):
    """``rows`` with row ``i`` replaced."""
    return rows[:i] + (row,) + rows[i + 1 :]


def _moved(text, k):
    """A path text with every block index raised by ``k``."""
    return " ".join(f"{t[0]}{int(t[1:]) + k}" for t in text.split())


def _audit(
    left_paths=tables.LEFT_CAP_PATHS,
    ell=2,
    cap=("L", 4),
    cap_rows=None,
    centre_pairs=tables.CENTRE_PAIRS,
):
    """``verify_cap_complementarity`` of pieces built from table text by the
    loaders' own parsers, in the loaders' own piece classes."""
    strip, sides, rows = tables.RIGHT_CAPS[cap]
    left = type(tables.left_cap())(ell, tuple(map(tables._p, left_paths)))
    right = type(tables.right_cap(*cap))(
        strip,
        tuple(sides),
        tuple(
            (tables._p(row[0]), tuple(map(tables._c, row[1:])))
            for row in (rows if cap_rows is None else cap_rows)
        ),
    )
    centre = type(tables.centre_piece())(
        4, tuple((tables._p(q), tables._p(u)) for q, u in centre_pairs)
    )
    return verify_cap_complementarity(left, right, centre)


_L4 = tables.RIGHT_CAPS[("L", 4)][2]
_L5 = tables.RIGHT_CAPS[("L", 5)][2]
_L2_4 = tables.RIGHT_CAPS[("L2", 4)][2]
_LEFT = tables.LEFT_CAP_PATHS
_CENTRE = tables.CENTRE_PAIRS

# clause -> table edit that breaks it
_CLAUSE_BREAKERS = {
    # a terminal two blocks past the seam
    "left_endpoints": dict(left_paths=_edit(_LEFT, 0, "y2 y1 x2 x4")),
    # one block wider: y3 y2 x3 misses the middle vertex x2
    "left_middles": dict(ell=3, left_paths=tuple(_moved(p, 1) for p in _LEFT)),
    # the arcs y2 x1 x2 of path 8 twice
    "left_union": dict(left_paths=_edit(_LEFT, 0, "y2 x1 x2")),
    # the side cycle meets the path at x3
    "right_shapes": dict(cap=("L2", 4), cap_rows=_edit(_L2_4, 0, (_L2_4[0][0], "(y2 x3)"))),
    # x2, the outer twin of x0, where the pattern holds x0
    "right_boundary": dict(cap_rows=_edit(_L4, 3, ("y1 x2 x1",))),
    # the path starts in the middle block
    "right_endpoints": dict(cap=("L", 5), cap_rows=_edit(_L5, 3, ("y2 y1 x2 x1",))),
    # x2 dropped
    "right_middles": dict(cap=("L", 5), cap_rows=_edit(_L5, 3, ("y1 y2 x1",))),
    # the rung y1 x1 turned round
    "right_union": dict(cap_rows=_edit(_L4, 3, ("x1 y1",))),
    "patterns_match": dict(cap_rows=_edit(_L4, 3, ("x1 y1",))),
    # one path a vertex shorter
    "m0_constant": dict(cap_rows=_edit(_L4, 8, ("y0 y1",))),
    # U passes through y2, which Q holds
    "centre_disjoint_pairs": dict(centre_pairs=_edit(_CENTRE, 0, (_CENTRE[0][0], "y4 x3 y2 y0"))),
    "centre_lengths": dict(centre_pairs=_edit(_CENTRE, 0, (_CENTRE[0][0], "y4 x3 y0"))),
    # Q ends five blocks after it starts
    "centre_endpoints": dict(centre_pairs=_edit(_CENTRE, 0, ("x0 y2 x2 x1 y3 x5", _CENTRE[0][1]))),
    # neither x1 nor x5 present
    "centre_one_of_pair": dict(centre_pairs=_edit(_CENTRE, 0, ("x0 y2 x2 y3 x4", _CENTRE[0][1]))),
    # y2 in neither path
    "centre_middles": dict(centre_pairs=_edit(_CENTRE, 0, ("x0 x2 x1 y3 x4", _CENTRE[0][1]))),
    # x2 and y2 visited the other way round
    "centre_union": dict(centre_pairs=_edit(_CENTRE, 0, ("x0 x2 y2 x1 y3 x4", _CENTRE[0][1]))),
    # U ends at y1 instead of y0
    "centre_patterns_match": dict(centre_pairs=_edit(_CENTRE, 0, (_CENTRE[0][0], "y4 x3 y0 y1"))),
}


def test_every_audit_clause_has_a_breaker():
    report = _audit()
    assert report.passed, report.failures()
    assert sorted(name for name, _, _ in report.checks) == sorted(_CLAUSE_BREAKERS)


@pytest.mark.parametrize("clause", sorted(_CLAUSE_BREAKERS))
def test_each_audit_clause_catches_its_corruption(clause):
    report = _audit(**_CLAUSE_BREAKERS[clause])
    assert clause in [name for name, _ in report.failures()], report
