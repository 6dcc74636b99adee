import pytest

from oberwolfach import tables
from oberwolfach.caps import (
    AdmissibleDecomposition,
    assemble,
    concat_centre,
    external_pattern,
    general_factor,
    internal_pattern,
    is_admissible,
    j_decompose,
    small_factor,
    splice,
    w_star_factorization,
)
from oberwolfach.checker import (
    verify_admissible_decomposition,
    verify_cap_complementarity,
    verify_factorization,
)
from oberwolfach.core import (
    TwoRegularDigraph,
    cycle_type_of,
    parse_cycle_type,
    parse_vertex,
)
from oberwolfach.hosts import w_star
from strip import concat, cycle_from_text, path_from_text, shift


def V(t):
    return parse_vertex(t)


# the two compatible pieces shown saturating the same boundary vertices
PIECE_2_6 = TwoRegularDigraph(
    [cycle_from_text("(x0,x1)"), cycle_from_text("(y1,y2,x2,x3,y4,y3)")]
)
PIECE_6 = TwoRegularDigraph([cycle_from_text("(x0,x2,y3,x1,y2,y1)")])


def test_external_pattern_examples():
    assert external_pattern(PIECE_2_6) == {V("x0"), V("x1"), V("y1")}
    assert external_pattern(PIECE_6) == {V("x0"), V("x1"), V("y1")}
    empty = TwoRegularDigraph([cycle_from_text("(x2,y3)")])
    assert external_pattern(empty) == frozenset()
    assert tables.X_PATTERN[3] == {V("x0"), V("x1"), V("y0"), V("y1")}


def test_is_admissible():
    assert is_admissible(PIECE_2_6, 4)
    assert is_admissible(PIECE_6, 3)
    # adding x_{m+1} alongside x1 breaks the one-of-two rule
    too_big = TwoRegularDigraph(
        list(PIECE_2_6.cycles) + [cycle_from_text("(x5,y5)")]
    )
    assert not is_admissible(too_big, 4)
    for factor in tables.figure_4_8_decomposition().factors:
        assert is_admissible(factor, 6)


def test_splice_worked_example():
    a = AdmissibleDecomposition.from_factors(4, (PIECE_2_6,) * 9)
    b = AdmissibleDecomposition.from_factors(3, (PIECE_6,) * 9)
    spliced = splice(a, b)
    assert spliced.m == 7
    factor = spliced.factors[0]
    assert cycle_type_of(factor).lengths == (2, 6, 6)
    assert is_admissible(factor, 7)
    assert external_pattern(factor) == {V("x0"), V("x1"), V("y1")}
    assert cycle_from_text("(x4,x6,y7,x5,y6,y5)") in factor.cycles


def test_splice_all_two_cycles_with_itself():
    small = small_factor(parse_cycle_type("[2^3]"))
    doubled = splice(small, small)
    report = verify_admissible_decomposition(6, doubled, tables.X_PATTERN)
    assert report.passed
    assert all(t.lengths == (2,) * 6 for t in doubled.cycle_types())


def test_splice_order_additivity_and_associativity():
    a = small_factor(parse_cycle_type("[2,4]"))
    b = small_factor(parse_cycle_type("[6]"))
    c = small_factor(parse_cycle_type("[4^2]"))
    left = splice(splice(a, b), c)
    right = splice(a, splice(b, c))
    assert left.m == right.m == a.m + b.m + c.m
    assert all(
        fa.arcs() == fb.arcs() for fa, fb in zip(left.factors, right.factors)
    )


def test_splice_rejects_incompatible():
    a = AdmissibleDecomposition.from_factors(4, (PIECE_2_6,) * 9)
    shuffled = AdmissibleDecomposition.from_factors(
        3, (PIECE_6,) * 8 + (TwoRegularDigraph([cycle_from_text("(y0,x2,x4,y3,x1,y2)")]),)
    )
    with pytest.raises(ValueError):
        splice(a, shuffled)


def test_internal_pattern_worked_example():
    # the length-4/length-6 cap pair from the running example
    from oberwolfach.caps import LeftCap, RightCap

    left = LeftCap(2, (path_from_text("<y2,x0,y1,x1,x3>"),) * 9)
    entry = internal_pattern(left, 1)
    assert entry == (V("y0"), V("x1"), frozenset())
    right = RightCap(
        3, 0, (), ((path_from_text("<x1,y2,y3,y1,x0,x2,y0>"), ()),) * 9
    )
    assert internal_pattern(right, 1) == entry


def test_worked_example_ten_cycle():
    left = path_from_text("<y2,x0,y1,x1,x3>")
    right = path_from_text("<x1,y2,y3,y1,x0,x2,y0>")
    joined = concat(left, shift(right, 2))
    assert joined.length == 10
    assert joined == cycle_from_text("(y2,x0,y1,x1,x3,y4,y5,y3,x2,x4)")


def test_concat_centre():
    centre = tables.centre_piece()
    assert concat_centre(centre, 1) is centre
    doubled = concat_centre(centre, 2)
    assert doubled.c == 8
    assert all(q.length + u.length == 16 for q, u in doubled.pairs)
    from oberwolfach.caps import internal_patterns

    tripled = concat_centre(centre, 3)
    assert internal_patterns(tripled) == internal_patterns(centre)


def test_concat_centre_k3_satisfies_all_conditions():
    # run every defining centre-piece clause against the chained piece
    tripled = concat_centre(tables.centre_piece(), 3)
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


def test_general_factor_examples():
    dec = general_factor(parse_cycle_type("[16,2]"))
    assert dec.m == 9
    assert all(t.lengths == (2, 16) for t in dec.cycle_types())
    dec = general_factor(parse_cycle_type("[10,4]"))
    assert cycle_from_text("(x6,y7,y6,x8)") in dec.factors[0].cycles
    with pytest.raises(ValueError):
        general_factor(parse_cycle_type("[8,4]"))  # below the family threshold
    with pytest.raises(ValueError):
        general_factor(parse_cycle_type("[6]"))


def test_small_factor_examples():
    dec = small_factor(parse_cycle_type("[6]"))
    assert dec.factors[0] == TwoRegularDigraph([cycle_from_text("(y1,x2,x4,y2,x3,y3)")])
    dec = small_factor(parse_cycle_type("[4,8]"))
    assert dec.factors[0] == TwoRegularDigraph(
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
        factors = w_star_factorization(ftype)
        assert len(factors) == 9
        report = verify_factorization(w_star(m), factors, ftype)
        assert report.passed
    assert sum(len(f.arcs()) for f in w_star_factorization(parse_cycle_type("[14]"))) == 18 * 7


def test_w_star_factorization_m4_collapses():
    with pytest.raises(ValueError):
        w_star_factorization(parse_cycle_type("[4,4]"))
