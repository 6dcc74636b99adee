import pytest

from oberwolfach.checker import verify_factorization
from oberwolfach.core import (
    CycleType,
    DirectedCycle,
    TwoRegularDigraph,
    Vertex,
    cycle_type_of,
    parse_cycle_type,
)
from oberwolfach.hosts import h_star
from oberwolfach.hstar import (
    chain_cycles,
    factorize_h_star,
    haggkvist_undirected,
    two_cycle_gadgets,
)
from strip import cycle_from_text


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
    gadgets = two_cycle_gadgets(7)
    assert gadgets[0] == cycle_from_text("(x0,x6)")
    arcs = [a for g in gadgets for a in g.arcs()]
    assert len(arcs) == len(set(arcs)) == 8  # arc-disjoint, full wrap junction


def test_chain_second_small():
    c = chain_cycles("second", 0, 2, "0mod4")
    assert c[0] == cycle_from_text("(y0,y1,y2,x1)")
    assert all(x.length == 4 for x in c)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_chain_later_disjoint_and_reversed(k):
    congruence = "0mod4" if k % 2 == 0 else "2mod4"
    cycles = chain_cycles("later", 3, k, congruence)
    assert cycles[1] == DirectedCycle(reversed(cycles[0].vertices))
    assert cycles[3] == DirectedCycle(reversed(cycles[2].vertices))
    arcs = [a for c in cycles for a in c.arcs()]
    assert len(arcs) == len(set(arcs)) == 8 * k


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_chain_second_disjoint(k):
    congruence = "0mod4" if k % 2 == 0 else "2mod4"
    cycles = chain_cycles("second", 0, k, congruence)
    arcs = [a for c in cycles for a in c.arcs()]
    assert len(arcs) == len(set(arcs)) == 8 * k


def test_chain_validation():
    with pytest.raises(ValueError):
        chain_cycles("second", 1, 2, "0mod4")
    with pytest.raises(ValueError):
        chain_cycles("later", 0, 2, "2mod4")  # parity mismatch


def test_factorize_2_4_explicit_factor():
    hf = factorize_h_star(parse_cycle_type("[2,4]"), 3)
    expected = TwoRegularDigraph(
        [cycle_from_text("(x0,x2)"), cycle_from_text("(y0,y1,y2,x1)")]
    )
    assert hf.factors[0] == expected


def test_factorize_single_long_cycle():
    hf = factorize_h_star(parse_cycle_type("[10]"), 5)
    assert len(hf.factors) == 4
    assert all(cycle_type_of(f).lengths == (10,) for f in hf.factors)


def test_factorize_all_two_cycles():
    hf = factorize_h_star(parse_cycle_type("[2^4]"), 4)
    assert all(len(f.cycles) == 4 for f in hf.factors)
    assert all(cycle_type_of(f).lengths == (2, 2, 2, 2) for f in hf.factors)


def test_haggkvist_examples():
    for spec, m in [("[10]", 5), ("[4,6]", 5), ("[6]", 3)]:
        ftype = parse_cycle_type(spec)
        a, b = haggkvist_undirected(ftype, m)
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
        for und in haggkvist_undirected(ftype, m):
            fwd = TwoRegularDigraph(DirectedCycle(c) for c in und)
            bwd = TwoRegularDigraph(DirectedCycle(reversed(c)) for c in und)
            assert not fwd.arcs() & bwd.arcs()
            assert cycle_type_of(fwd) == cycle_type_of(bwd) == ftype


def test_zig_zag_complement_has_the_type_for_every_type():
    """The proof in ``haggkvist_undirected``, checked: for every even type
    without 2-cycles at m = 3..24, the zig-zag factor and its complement both
    have type F and together hold each edge of the cycle blow-up once."""
    checked = 0
    for m in range(3, 25):
        host = {
            frozenset((Vertex(s, i), Vertex(t, (i + 1) % m)))
            for i in range(m)
            for s in "xy"
            for t in "xy"
        }
        for ftype in even_types(2 * m):
            if 2 in ftype.lengths:
                continue
            edges = []
            for factor in haggkvist_undirected(ftype, m):
                assert CycleType(len(c) for c in factor) == ftype
                assert len({v for c in factor for v in c}) == 2 * m
                edges += [
                    frozenset((c[i - 1], c[i])) for c in factor for i in range(len(c))
                ]
            assert len(edges) == len(set(edges)) == len(host)
            assert set(edges) == host
            checked += 1
    assert checked == 1573
    with pytest.raises(ValueError):
        haggkvist_undirected(parse_cycle_type("[4]"), 2)


@pytest.mark.parametrize("m", range(3, 11))
def test_factorize_h_star_sweep(m):
    host = h_star(m)
    for ftype in even_types(2 * m):
        hf = factorize_h_star(ftype, m)
        assert len(hf.factors) == 4
        report = verify_factorization(host, hf.factors, ftype)
        assert report.passed, (m, ftype, report.failures())


def test_domain_errors():
    with pytest.raises(ValueError):
        factorize_h_star(parse_cycle_type("[3,3]"), 3)
    with pytest.raises(ValueError):
        factorize_h_star(parse_cycle_type("[4]"), 3)
    with pytest.raises(ValueError):
        factorize_h_star(parse_cycle_type("[2,2]"), 2)
