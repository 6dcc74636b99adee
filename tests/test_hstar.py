import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import construction_reference
import reference_checker
from oberwolfach.core import CycleType, parse_cycle_type
from oberwolfach.hosts import HostDescriptor
from oberwolfach.hstar import (
    _chain_walks,
    _gadget_walks,
    _haggkvist,
    factorize_h_star,
)
from strip import (
    TwoRegularDigraph,
    cycle_from_text,
    cycle_type_of,
    factor_objects,
    verify_objects,
)


def hids(text, m):
    """``"(x0,y1)"`` as a list of ids of the ``HStar`` m numbering."""
    by_text = HostDescriptor("HStar", m).id_by_text
    return [by_text[t] for t in text.strip("()").split(",")]


def arcs(cycles):
    return [a for c in cycles for a in zip(c, c[1:] + c[:1])]


def even_types(n):
    def parts(total, mx):
        if total == 0:
            yield ()
            return
        for p in range(min(mx, total), 1, -2):
            for rest in parts(total - p, p):
                yield (p,) + rest

    return [CycleType(t) for t in parts(n, n)]


def test_two_cycle_gadgets():
    gadgets = _gadget_walks(7)
    assert gadgets[0] == hids("(x0,x6)", 7)
    used = arcs(gadgets)
    assert len(used) == len(set(used)) == 8  # arc-disjoint, full wrap junction


def test_chain_second_small():
    c = _chain_walks(0, 2, 9)
    assert c[0] == hids("(y0,y1,y2,x1)", 9)
    assert all(len(x) == 4 for x in c)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_chain_later_disjoint_and_reversed(k):
    cycles = _chain_walks(3, k, 9)
    assert cycles[1] == cycles[0][::-1]
    assert cycles[3] == cycles[2][::-1]
    used = arcs(cycles)
    assert len(used) == len(set(used)) == 8 * k


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_chain_second_disjoint(k):
    used = arcs(_chain_walks(0, k, 9))
    assert len(used) == len(set(used)) == 8 * k


def test_one_two_cycle_route_matches_the_placed_chains():
    """The s = 1 route places each chain by its offset alone and gives the
    same walks as the route that was told each chain's position and residue
    mod 4, for every type with exactly one 2-cycle, m = 3..24."""
    count = 0
    for m in range(3, 25):
        for ftype in even_types(2 * m):
            if ftype.lengths.count(2) == 1:
                got = factorize_h_star(ftype, m).id_factors
                assert got == construction_reference.one_two_cycle_factors(ftype, m), ftype
                count += 1
    assert count == 1254


def test_factorize_2_4_explicit_factor():
    hf = factorize_h_star(parse_cycle_type("[2,4]"), 3)
    expected = TwoRegularDigraph(
        [cycle_from_text("(x0,x2)"), cycle_from_text("(y0,y1,y2,x1)")]
    )
    table = HostDescriptor("HStar", 3).vertex_table
    assert factor_objects(hf.id_factors, table)[0] == expected


def test_factorize_single_long_cycle():
    hf = factorize_h_star(parse_cycle_type("[10]"), 5)
    factors = factor_objects(hf.id_factors, HostDescriptor("HStar", 5).vertex_table)
    assert len(factors) == 4
    assert all(cycle_type_of(f).lengths == (10,) for f in factors)


def test_factorize_all_two_cycles():
    hf = factorize_h_star(parse_cycle_type("[2^4]"), 4)
    factors = factor_objects(hf.id_factors, HostDescriptor("HStar", 4).vertex_table)
    assert all(len(f.cycles) == 4 for f in factors)
    assert all(cycle_type_of(f).lengths == (2, 2, 2, 2) for f in factors)


def test_haggkvist_examples():
    for spec, m in [("[10]", 5), ("[4,6]", 5), ("[6]", 3)]:
        ftype = parse_cycle_type(spec)
        a, b = _haggkvist(ftype, m)
        assert CycleType(len(c) for c in a) == ftype
        assert CycleType(len(c) for c in b) == ftype
        edges_a = {
            frozenset((c[i], c[(i + 1) % len(c)])) for c in a for i in range(len(c))
        }
        edges_b = {
            frozenset((c[i], c[(i + 1) % len(c)])) for c in b for i in range(len(c))
        }
        assert not edges_a & edges_b
        assert len(edges_a) + len(edges_b) == 4 * m


@pytest.mark.parametrize("m", range(3, 9))
def test_both_orientations_are_arc_disjoint(m):
    for ftype in even_types(2 * m):
        if 2 in ftype.lengths:
            continue
        for und in _haggkvist(ftype, m):
            fwd = arcs(und)
            bwd = arcs([c[::-1] for c in und])
            assert len({v for c in und for v in c}) == 2 * m
            assert len(set(fwd)) == len(set(bwd)) == 2 * m
            assert not set(fwd) & set(bwd)
            assert CycleType(map(len, und)) == ftype


def test_zig_zag_complement_has_the_type_for_every_type():
    """The proof in ``_haggkvist``, checked: for every even type without
    2-cycles at m = 3..24, the zig-zag factor and its complement both have
    type F and together hold each edge of the cycle blow-up once."""
    checked = 0
    for m in range(3, 25):
        host = {
            frozenset((i + s, (i + 1) % m + t))  # x_i is i, y_i is m + i
            for i in range(m)
            for s in (0, m)
            for t in (0, m)
        }
        for ftype in even_types(2 * m):
            if 2 in ftype.lengths:
                continue
            edges = []
            for factor in _haggkvist(ftype, m):
                assert CycleType(len(c) for c in factor) == ftype
                assert len({v for c in factor for v in c}) == 2 * m
                edges += [
                    frozenset((c[i - 1], c[i])) for c in factor for i in range(len(c))
                ]
            assert len(edges) == len(set(edges)) == len(host)
            assert set(edges) == host
            checked += 1
    assert checked == 1573


@pytest.mark.parametrize("m", range(3, 11))
def test_factorize_h_star_sweep(m):
    host = HostDescriptor("HStar", m)
    for ftype in even_types(2 * m):
        hf = factorize_h_star(ftype, m)
        assert len(hf.id_factors) == 4
        factors = factor_objects(hf.id_factors, host.vertex_table)
        report = verify_objects(host, factors, ftype)
        assert report.passed, (m, ftype, report.failures())


def test_domain_errors():
    with pytest.raises(ValueError):
        factorize_h_star(parse_cycle_type("[3,3]"), 3)
    with pytest.raises(ValueError):
        factorize_h_star(parse_cycle_type("[4]"), 3)
    with pytest.raises(ValueError):
        factorize_h_star(parse_cycle_type("[2,2]"), 2)


@pytest.mark.parametrize("s", [0, 1, 2, 5])
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_random_types_to_m_2001_pass_the_reference_checker(s, data):
    """Random even types with s 2-cycles, m up to 2001, through both
    routes; each factorization passes the per-cycle reference checker."""
    m = data.draw(st.integers(max(3, s + 2), 2001))
    lengths = [2] * s
    left = 2 * m - 2 * s  # at least 4
    while left:
        half = data.draw(st.one_of(st.integers(2, 4), st.integers(2, left // 2)))
        k = left // 2 if left - 2 * half < 4 else half
        lengths.append(2 * k)
        left -= 2 * k
    ftype = CycleType(lengths)
    hf = factorize_h_star(ftype, m)
    report = reference_checker.verify_id_factorization("HStar", m, hf.id_factors, ftype)
    assert report.passed, (m, ftype, report.failures())
