from array import array
from itertools import chain

import pytest

from oberwolfach import hosts
from oberwolfach.caps import w_star_id_factors
from oberwolfach.core import Arc, Vertex, parse_cycle_type, parse_vertex
from oberwolfach.hosts import (
    HostDescriptor,
    _outside,
    complete_symmetric,
    fold_ids,
    h_star,
    j_star,
    out_neighbour_bytes,
    strip_id,
    w_star,
)
from strip import ids


def V(t):
    return parse_vertex(t)


def A(t, h):
    return Arc(V(t), V(h))


def test_complete_symmetric_counts():
    assert len(complete_symmetric(2).arcs) == 2
    assert len(complete_symmetric(6).arcs) == 30
    k = complete_symmetric(6)
    assert A("x0", "y0") in k.arcs and A("y0", "x0") in k.arcs
    with pytest.raises(ValueError):
        complete_symmetric(1)


def test_h_star_shape():
    h = h_star(7)
    assert len(h.arcs) == 56
    assert A("x0", "y0") not in h.arcs  # no rungs
    assert A("x0", "y1") in h.arcs and A("y1", "x0") in h.arcs
    with pytest.raises(ValueError):
        h_star(2)


def test_w_star_shape():
    w = w_star(7)
    assert len(w.arcs) == 126
    for i in range(7):
        assert A(f"x{i}", f"y{i}") in w.arcs and A(f"y{i}", f"x{i}") in w.arcs
    assert A("x0", "y2") in w.arcs
    assert A("x0", "y3") not in w.arcs
    with pytest.raises(ValueError):
        w_star(4)


def test_j_star_shape():
    j = j_star(7)
    assert len(j.arcs) == 126
    assert len(j.vertices) == 18
    assert A("x0", "y0") not in j.arcs  # no rung at block 0
    assert A("x7", "y7") in j.arcs  # rung at block m
    assert A("x8", "y8") not in j.arcs  # none at block m+1
    assert A("x6", "x8") in j.arcs  # jump 2 from i = m-1
    with pytest.raises(ValueError):
        j_star(2)


def _undirected_edges_reference(kind, m):
    """Independent re-derivation of the three auxiliary edge sets."""
    edges = set()
    if kind == "h":
        for i in range(m):
            j = (i + 1) % m
            for s in "xy":
                for t in "xy":
                    edges.add(frozenset((V(f"{s}{i}"), V(f"{t}{j}"))))
    elif kind == "w":
        for i in range(m):
            edges.add(frozenset((V(f"x{i}"), V(f"y{i}"))))
            for d in (1, 2):
                j = (i + d) % m
                for s in "xy":
                    for t in "xy":
                        edges.add(frozenset((V(f"{s}{i}"), V(f"{t}{j}"))))
    else:
        for i in range(1, m + 1):
            edges.add(frozenset((V(f"x{i}"), V(f"y{i}"))))
        for i in range(m):
            for d in (1, 2):
                for s in "xy":
                    for t in "xy":
                        edges.add(frozenset((V(f"{s}{i}"), V(f"{t}{i + d}"))))
    return edges


@pytest.mark.parametrize("m", [3, 5, 8])
def test_h_star_matches_reference(m):
    expected = set()
    for e in _undirected_edges_reference("h", m):
        u, v = tuple(e)
        expected.update({Arc(u, v), Arc(v, u)})
    assert h_star(m).arcs == expected


@pytest.mark.parametrize("m", [5, 7, 10])
def test_w_star_matches_reference(m):
    expected = set()
    for e in _undirected_edges_reference("w", m):
        u, v = tuple(e)
        expected.update({Arc(u, v), Arc(v, u)})
    assert w_star(m).arcs == expected


@pytest.mark.parametrize("m", [3, 4, 7])
def test_j_star_matches_reference(m):
    expected = set()
    for e in _undirected_edges_reference("j", m):
        u, v = tuple(e)
        expected.update({Arc(u, v), Arc(v, u)})
    assert j_star(m).arcs == expected


def _degrees(g, v):
    """(out-degree, in-degree) of ``v`` in the digraph ``g``."""
    return (
        sum(1 for a in g.arcs if a.tail == v),
        sum(1 for a in g.arcs if a.head == v),
    )


def test_degree_profiles():
    h = h_star(6)
    assert all(_degrees(h, v) == (4, 4) for v in h.vertices)
    w = w_star(6)
    assert all(_degrees(w, v) == (9, 9) for v in w.vertices)
    j = j_star(6)
    for v in j.vertices:
        if 2 <= v.index <= 4:
            assert _degrees(j, v) == (9, 9)


@pytest.mark.parametrize("m", [5, 7])
def test_fold_is_arc_bijection(m):
    """The arithmetic fold maps the opened host's arcs one to one onto the
    circulant blow-up's."""
    j = j_star(m)
    w = w_star(m)
    (folded,) = fold_ids([[(strip_id(a.tail), strip_id(a.head)) for a in j.arcs]], m)
    table = HostDescriptor("WStar", m).vertex_table
    assert {Arc(table[a], table[b]) for a, b in folded} == w.arcs
    assert len(set(map(tuple, folded))) == len(j.arcs) == len(w.arcs) == 18 * m


def _folded_arcs(factor, m):
    """The arcs of a factor of J* id cycles folded onto w_star(m)."""
    ((*cycles,),) = fold_ids([factor], m)
    return [a for c in cycles for a in zip(c, c[1:] + c[:1])]


def test_fold_of_admissible_factor():
    # [2,6,6] subdigraph assembled from the two compatible pieces
    factor = [ids("(x0,x1)"), ids("(y1,y2,x2,x3,y4,y3)"), ids("(x4,x6,y7,x5,y6,y5)")]
    ((*folded,),) = fold_ids([factor], 7)
    assert sorted(v for c in folded for v in c) == list(range(14))  # w_star(7)'s ids
    assert HostDescriptor("WStar", 7).id_by_text["x3"] in folded[1]  # middle unchanged
    assert not _outside("WStar", _folded_arcs(factor, 7), 7)


def test_fold_rejects_garbage():
    # x0 -> x3 folds onto blocks three apart, which w_star(7) does not join
    assert _outside("WStar", _folded_arcs([ids("(x0,x3)")], 7), 7)


def _strip_arcs(m):
    """Every ordered pair of distinct vertices with sides x/y and indices
    -1..m+3, so out-of-range blocks on both ends are included."""
    vs = [Vertex(s, i) for s in "xy" for i in range(-1, m + 4)]
    return [Arc(u, v) for u in vs for v in vs if u != v]


def test_in_j_star_matches_host():
    for m in range(3, 31):
        arcs = j_star(m).arcs
        pairs = {(strip_id(a.tail), strip_id(a.head)): a for a in _strip_arcs(m)}
        outside = set(_outside("JStar", pairs, m))
        for pair, a in pairs.items():
            assert (pair not in outside) == (a in arcs), (m, a)


def _rule_matches_host(kind, host, m):
    """The blow-up rule of ``kind`` on host ids, asked by ``_outside``,
    against the built host on every pair of strip vertices; a vertex with no
    id in the host's numbering is outside it."""
    ids = HostDescriptor(kind, m).vertex_ids
    arcs = host.arcs
    for a in _strip_arcs(m):
        pair = (ids.get(a.tail, -1), ids.get(a.head, -1))
        assert (not _outside(kind, [pair], m)) == (a in arcs), (m, a)


def test_in_w_star_matches_host():
    for m in range(5, 31):
        _rule_matches_host("WStar", w_star(m), m)


def test_fold_below_m5_raises():
    # 72 opened-host arcs cannot fold one to one onto w_star(4)'s 56
    with pytest.raises(ValueError, match="folding needs m >= 5"):
        w_star_id_factors(parse_cycle_type("[8]"))
    with pytest.raises(ValueError, match="folding needs m >= 5"):
        w_star_id_factors(parse_cycle_type("[2,6]"))


def test_in_h_star_matches_host():
    for m in range(3, 31):
        _rule_matches_host("HStar", h_star(m), m)


def _described_and_built():
    for n in range(2, 41):
        yield HostDescriptor("CompleteSymmetric", n), complete_symmetric(n)
    for m in range(3, 31):
        yield HostDescriptor("HStar", m), h_star(m)
    for m in range(5, 31):
        yield HostDescriptor("WStar", m), w_star(m)


def test_descriptor_matches_built_host():
    """Vertex set and arc count agree with the built host.  The numbering
    is the sort order (x_i -> i, then y_i), onto one interned object per
    vertex, and each text names its vertex's id."""
    for desc, host in _described_and_built():
        assert desc.vertices == host.vertices, desc
        assert desc.arc_count == len(host.arcs), desc
        table = desc.vertex_table
        assert list(table) == sorted(host.vertices), desc
        assert desc.vertex_ids == {v: i for i, v in enumerate(table)}, desc
        assert desc.id_by_text == {v.text(): i for i, v in enumerate(table)}, desc
    assert HostDescriptor("HStar", 7).vertex_table is HostDescriptor(
        "CompleteSymmetric", 14
    ).vertex_table


def test_descriptor_refuses_the_sizes_builders_refuse():
    for kind, least, builder, letter in (
        ("CompleteSymmetric", 2, complete_symmetric, "n"),
        ("HStar", 3, h_star, "m"),
        ("WStar", 5, w_star, "m"),
    ):
        message = f"{builder.__name__} needs {letter} >= {least}, got {least - 1}"
        with pytest.raises(ValueError) as described:
            HostDescriptor(kind, least - 1)
        with pytest.raises(ValueError) as built:
            builder(least - 1)
        assert str(described.value) == str(built.value) == message
        assert HostDescriptor(kind, least).vertices == builder(least).vertices
    opened = HostDescriptor("JStar", 1)  # opened decompositions have their own checks
    assert opened.to_json() == {"kind": "JStar", "m": 1}
    with pytest.raises(ValueError):
        opened.vertices


def _per_arc_out_neighbours(kind, m):
    """The reference for ``out_neighbour_bytes`` on a blow-up: every code
    of the rule's ranges decoded into its tail and head, one arc at a
    time."""
    n = 2 * m
    heads = [[] for _ in range(n)]
    for code in chain.from_iterable(hosts._ranges(kind, m)):
        a, b = divmod(code, n)
        heads[a].append(b)
    return heads


@pytest.mark.parametrize("kind, least, k", [("WStar", 5, 9), ("HStar", 3, 4)])
def test_out_neighbour_bytes_match_the_per_arc_reference(kind, least, k):
    """Built by runs, each id's out-neighbours are the reference's head
    set, k distinct heads, for every order 2m up to 256 as bytes and for
    some larger orders as an unsigned ``array('I')``."""
    for m in [*range(least, 129), 129, 130, 257, 1001]:
        got = out_neighbour_bytes(kind, m)
        want = _per_arc_out_neighbours(kind, m)
        assert len(got) == len(want) == 2 * m, (kind, m)
        assert isinstance(got[0], array) == (m > 128), (kind, m)
        for a, (heads, expected) in enumerate(zip(got, want)):
            assert len(heads) == len(set(heads)) == k, (kind, m, a)
            assert set(heads) == set(expected), (kind, m, a)
