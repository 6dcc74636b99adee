from itertools import combinations_with_replacement

import pytest

import reference_checker

from oberwolfach import tables
from oberwolfach.caps import (
    _chain_centre,
    _family_of,
    _splice_all,
    assemble,
    general_factor,
    j_decompose,
    small_factor,
    w_star_id_factors,
)
from oberwolfach.checker import (
    verify_admissible_decomposition,
    verify_cap_complementarity,
    verify_id_factorization,
)
from oberwolfach.core import parse_cycle_type
from oberwolfach.hosts import BOUNDARY, HostDescriptor, admissible_ids
from oberwolfach.tables import (
    AdmissibleDecomposition,
    CentrePiece,
    LeftCap,
    RightCap,
)
from strip import (
    TwoRegularDigraph,
    concat,
    cycle_from_text,
    cycle_type_of,
    ids,
    path_from_text,
    shift,
    strip_factors,
)

X0, Y0, X1, Y1 = sorted(BOUNDARY)

# the two compatible pieces shown saturating the same boundary vertices, as
# cycles of J* ids
PIECE_2_6 = (ids("(x0,x1)"), ids("(y1,y2,x2,x3,y4,y3)"))
PIECE_6 = (ids("(x0,x2,y3,x1,y2,y1)"),)


def test_external_pattern_examples():
    def pattern(factor):
        return AdmissibleDecomposition(1, (factor,)).patterns()[0]

    assert pattern(PIECE_2_6) == {X0, X1, Y1}
    assert pattern(PIECE_6) == {X0, X1, Y1}
    assert pattern((ids("(x2,y3)"),)) == frozenset()
    assert tables.X_PATTERN[3] == {X0, X1, Y0, Y1} == BOUNDARY


def test_is_admissible():
    assert admissible_ids(PIECE_2_6, 4)
    assert admissible_ids(PIECE_6, 3)
    # adding x_{m+1} alongside x1 breaks the one-of-two rule
    too_big = PIECE_2_6 + (ids("(x5,y5)"),)
    assert not admissible_ids(too_big, 4)
    for factor in tables.figure_4_8_decomposition().id_factors:
        assert admissible_ids(factor, 6)


def test_splice_worked_example():
    a = AdmissibleDecomposition(4, (PIECE_2_6,) * 9)
    b = AdmissibleDecomposition(3, (PIECE_6,) * 9)
    spliced = _splice_all([a, b])
    assert spliced.m == 7
    assert admissible_ids(spliced.id_factors[0], 7)
    assert spliced.patterns()[0] == {X0, X1, Y1}
    factor = strip_factors(spliced)[0]
    assert cycle_type_of(factor).lengths == (2, 6, 6)
    assert cycle_from_text("(x4,x6,y7,x5,y6,y5)") in factor.cycles


def test_splice_all_two_cycles_with_itself():
    small = small_factor(parse_cycle_type("[2^3]"))
    doubled = _splice_all([small, small])
    report = verify_admissible_decomposition(6, doubled, tables.X_PATTERN)
    assert report.passed
    assert all(t.lengths == (2,) * 6 for t in doubled.cycle_types())


def test_splice_order_additivity_and_associativity():
    a = small_factor(parse_cycle_type("[2,4]"))
    b = small_factor(parse_cycle_type("[6]"))
    c = small_factor(parse_cycle_type("[4^2]"))
    left = _splice_all([_splice_all([a, b]), c])
    right = _splice_all([a, _splice_all([b, c])])
    flat = _splice_all([a, b, c])
    assert left.m == right.m == flat.m == a.m + b.m + c.m
    assert strip_factors(left) == strip_factors(right) == strip_factors(flat)


def test_splice_rejects_incompatible():
    a = AdmissibleDecomposition(4, (PIECE_2_6,) * 9)
    shuffled = AdmissibleDecomposition(
        3, (PIECE_6,) * 8 + ((ids("(y0,x2,x4,y3,x1,y2)"),),)
    )
    with pytest.raises(ValueError):
        _splice_all([a, shuffled])


def test_internal_pattern_worked_example():
    # the length-4/length-6 cap pair from the running example
    left = LeftCap(2, (ids("<y2,x0,y1,x1,x3>"),) * 9)
    entry = left.internal_patterns()[0]
    assert entry == (Y0, X1, frozenset())
    right = RightCap(3, (), ((ids("<x1,y2,y3,y1,x0,x2,y0>"), ()),) * 9)
    assert right.internal_patterns()[0] == entry


def test_worked_example_ten_cycle():
    left = path_from_text("<y2,x0,y1,x1,x3>")
    right = path_from_text("<x1,y2,y3,y1,x0,x2,y0>")
    joined = concat(left, shift(right, 2))
    assert joined.length == 10
    assert joined == cycle_from_text("(y2,x0,y1,x1,x3,y4,y5,y3,x2,x4)")


def _chained(piece, k):
    """``k`` chained copies of a length-4 centre piece, as a piece."""
    return CentrePiece(4 * k, tuple(map(tuple, _chain_centre(piece, k))))


def test_concat_centre():
    centre = tables.centre_piece()
    assert _chain_centre(centre, 1) == list(centre.pairs)
    doubled = _chained(centre, 2)
    assert doubled.c == 8
    assert all(len(q) + len(u) - 2 == 16 for q, u in doubled.pairs)
    tripled = _chained(centre, 3)
    assert tripled.internal_patterns() == centre.internal_patterns()


def test_concat_centre_k3_satisfies_all_conditions():
    # run every defining centre-piece clause against the chained piece
    tripled = _chained(tables.centre_piece(), 3)
    report = verify_cap_complementarity(
        tables.left_cap(), tables.right_cap("L", 4), tripled
    )
    centre_checks = [
        (n, ok) for n, ok, _ in report.checks if n.startswith("centre")
    ]
    assert centre_checks and all(ok for _, ok in centre_checks), report


def test_assemble_k0():
    dec = assemble(tables.left_cap(), None, 0, tables.right_cap("L", 4))
    report = verify_admissible_decomposition(4, dec, tables.X_PATTERN)
    assert report.passed
    assert all(t.lengths == (8,) for t in dec.cycle_types())


def test_assemble_k1_with_side_cycle():
    dec = assemble(
        tables.left_cap(), tables.centre_piece(), 1, tables.right_cap("L4", 5)
    )
    assert dec.m == 11
    report = verify_admissible_decomposition(11, dec, tables.X_PATTERN)
    assert report.passed
    assert all(t.lengths == (4, 18) for t in dec.cycle_types())


def _right_cap_with_row(i, row):
    """The ("L", 4) right cap with table row ``i`` replaced by ``row``."""
    strip, sides, rows = tables.RIGHT_CAPS[("L", 4)]
    rows = rows[:i] + (row,) + rows[i + 1 :]
    elements = tuple((tables._p(r[0]), tuple(map(tables._c, r[1:]))) for r in rows)
    return RightCap(strip, tuple(sides), elements)


@pytest.mark.parametrize(
    "clause, i, row",
    [
        ("patterns_match", 3, ("x1 y1",)),  # the rung y1 x1 turned round
        ("m0_constant", 8, ("y0 y1",)),  # one path a vertex shorter
    ],
)
def test_assemble_refuses_caps_that_fail_the_audit(clause, i, row):
    right = _right_cap_with_row(i, row)
    with pytest.raises(ValueError, match=f"cap audit: .*'{clause}'"):
        assemble(tables.left_cap(), None, 0, right)
    with pytest.raises(ValueError, match=f"cap audit: .*'{clause}'"):
        assemble(tables.left_cap(), tables.centre_piece(), 1, right)


def test_general_factor_examples():
    dec = general_factor(parse_cycle_type("[16,2]"))
    assert dec.m == 9
    assert all(t.lengths == (2, 16) for t in dec.cycle_types())
    dec = general_factor(parse_cycle_type("[10,4]"))
    assert cycle_from_text("(x6,y7,y6,x8)") in strip_factors(dec)[0].cycles
    with pytest.raises(ValueError, match="is not a cap-family shape"):
        general_factor(parse_cycle_type("[8,4]"))  # below the family threshold
    with pytest.raises(ValueError, match="is not a cap-family shape"):
        general_factor(parse_cycle_type("[6]"))


def _family_reference(lengths):
    """The cap-family rule written out by hand, length by length."""
    if len(lengths) == 1 and lengths[0] >= 8:
        return "L", lengths[0] // 2
    if len(lengths) == 2 and lengths[0] == 2 and lengths[1] >= 8:
        return "L2", lengths[1] // 2
    if len(lengths) == 3 and lengths[0] == lengths[1] == 2 and lengths[2] >= 8:
        return "L22", lengths[2] // 2
    if len(lengths) == 2 and lengths[0] == 4 and lengths[1] >= 10:
        return "L4", lengths[1] // 2
    return None


def test_family_of_matches_the_hand_written_rule():
    """Read off the right-cap table, the families are the shapes [2s]
    (s >= 4), [2, 2s] (s >= 4), [2, 2, 2s] (s >= 4) and [4, 2s] (s >= 5),
    on every sorted even type of at most 4 cycles of length up to 100."""
    fits = 0
    for parts in range(5):
        for lengths in combinations_with_replacement(range(2, 101, 2), parts):
            want = _family_reference(lengths)
            assert _family_of(lengths) == want, lengths
            fits += want is not None
    assert fits == 47 + 47 + 47 + 46  # long lengths 8..100, and 10..100 for [4, 2s]


def test_small_factor_examples():
    dec = small_factor(parse_cycle_type("[6]"))
    assert strip_factors(dec)[0] == TwoRegularDigraph([cycle_from_text("(y1,x2,x4,y2,x3,y3)")])
    dec = small_factor(parse_cycle_type("[4,8]"))
    assert strip_factors(dec)[0] == TwoRegularDigraph(
        [cycle_from_text("(y1,x2,y2,x3)"), cycle_from_text("(y3,x4,y4,x6,y6,x5,x7,y5)")]
    )
    dec = small_factor(parse_cycle_type("[2^3]"))
    assert all(
        t.lengths == (2, 2, 2) for t in dec.cycle_types()
    )
    with pytest.raises(ValueError):
        small_factor(parse_cycle_type("[2,8]"))


def test_j_decompose_examples():
    for spec in ("[2,6,6]", "[4,4,6]", "[2,2,2,8]", "[2,4,4]", "[2,2,2,2,4,4]"):
        ftype = parse_cycle_type(spec)
        dec = j_decompose(ftype)
        report = verify_admissible_decomposition(
            ftype.order // 2, dec, tables.X_PATTERN
        )
        assert report.passed, (spec, report.failures())
        assert all(t == ftype for t in dec.cycle_types())


def test_j_decompose_domain():
    with pytest.raises(ValueError):
        j_decompose(parse_cycle_type("[2^4]"))
    with pytest.raises(ValueError):
        j_decompose(parse_cycle_type("[3,5]"))
    with pytest.raises(ValueError):
        j_decompose(parse_cycle_type("[6]"))  # order 6 < 8


def test_w_star_factorization():
    for spec, m in [("[2,6,6]", 7), ("[14]", 7)]:
        ftype = parse_cycle_type(spec)
        factors = w_star_id_factors(ftype)
        assert len(factors) == 9
        host = HostDescriptor("WStar", m)
        assert verify_id_factorization(host, factors, ftype).passed
        # their arcs are the host's 18m arcs, one for one
        pairs = [(a, b) for f in factors for c in f for a, b in zip(c, c[1:] + c[:1])]
        assert len(pairs) == len(set(pairs)) == 18 * m
        assert not reference_checker.outside_w_star(pairs, m)
    factors = w_star_id_factors(parse_cycle_type("[14]"))
    assert sum(len(c) for f in factors for c in f) == 18 * 7


def test_w_star_factorization_m4_collapses():
    with pytest.raises(ValueError, match="folding needs m >= 5"):
        w_star_id_factors(parse_cycle_type("[4,4]"))
