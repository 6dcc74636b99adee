import random
from array import array
from itertools import chain, permutations

import pytest

from oberwolfach import hosts
from oberwolfach.caps import w_star_id_factors
from oberwolfach.core import Vertex, parse_cycle_type, parse_vertex
from oberwolfach.hosts import (
    HostDescriptor,
    _outside,
    arc_codes,
    fold_ids,
    out_neighbour_bytes,
    strip_id,
    strip_vertex,
    successor_table,
)
from strip import Arc, ids

# each rule's kind and the letter ``_undirected_edges_reference`` names it by
LETTER = {"HStar": "h", "WStar": "w", "JStar": "j"}


def V(t):
    return parse_vertex(t)


def _host_ids(kind, m, vertices):
    """Each vertex's id on host ``kind`` on m blocks: its J* id on JStar,
    else its id in the host's numbering, or -1 for a vertex outside it."""
    if kind == "JStar":
        return [strip_id(v) for v in vertices]
    table = HostDescriptor(kind, m).id_by_text
    return [table.get(v.text(), -1) for v in vertices]


def _inside(kind, m, tail, head):
    """Whether the rule of ``kind`` on m blocks has the arc tail -> head."""
    return not _outside(kind, [tuple(_host_ids(kind, m, (V(tail), V(head))))], m)


def test_complete_symmetric_counts():
    assert HostDescriptor("CompleteSymmetric", 2).arc_count == 2
    assert HostDescriptor("CompleteSymmetric", 6).arc_count == 30
    with pytest.raises(ValueError):
        HostDescriptor("CompleteSymmetric", 1)


def test_h_star_shape():
    assert HostDescriptor("HStar", 7).arc_count == len(arc_codes("HStar", 7)) == 56
    assert not _inside("HStar", 7, "x0", "y0")  # no rungs
    assert _inside("HStar", 7, "x0", "y1") and _inside("HStar", 7, "y1", "x0")
    with pytest.raises(ValueError):
        HostDescriptor("HStar", 2)


def test_w_star_shape():
    assert HostDescriptor("WStar", 7).arc_count == len(arc_codes("WStar", 7)) == 126
    for i in range(7):
        assert _inside("WStar", 7, f"x{i}", f"y{i}")
        assert _inside("WStar", 7, f"y{i}", f"x{i}")
    assert _inside("WStar", 7, "x0", "y2")
    assert not _inside("WStar", 7, "x0", "y3")
    with pytest.raises(ValueError):
        HostDescriptor("WStar", 4)


def test_j_star_shape():
    assert len(arc_codes("JStar", 7)) == 126
    assert HostDescriptor("JStar", 7).order == 18
    assert not _inside("JStar", 7, "x0", "y0")  # no rung at block 0
    assert _inside("JStar", 7, "x7", "y7")  # rung at block m
    assert not _inside("JStar", 7, "x8", "y8")  # none at block m+1
    assert _inside("JStar", 7, "x6", "x8")  # jump 2 from i = m-1


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


def _reference_arcs(kind, m):
    """Both arcs on every edge of ``_undirected_edges_reference``."""
    edges = _undirected_edges_reference(kind, m)
    return {Arc(*pair) for e in edges for pair in permutations(e)}


def _rule_arcs(kind, m):
    """The arcs of ``arc_codes`` decoded into vertices: J* ids on JStar, the
    host's numbering on a blow-up."""
    if kind == "JStar":
        width, vertex = 2 * m + 4, strip_vertex
    else:
        width, vertex = 2 * m, HostDescriptor(kind, m).vertex_table.__getitem__
    return [Arc(vertex(c // width), vertex(c % width)) for c in arc_codes(kind, m)]


@pytest.mark.parametrize("m", [3, 5, 8])
def test_h_star_matches_reference(m):
    arcs = _rule_arcs("HStar", m)
    assert len(arcs) == len(set(arcs)) and set(arcs) == _reference_arcs("h", m)


@pytest.mark.parametrize("m", [5, 7, 10])
def test_w_star_matches_reference(m):
    arcs = _rule_arcs("WStar", m)
    assert len(arcs) == len(set(arcs)) and set(arcs) == _reference_arcs("w", m)


@pytest.mark.parametrize("m", [3, 4, 7])
def test_j_star_matches_reference(m):
    arcs = _rule_arcs("JStar", m)
    assert len(arcs) == len(set(arcs)) and set(arcs) == _reference_arcs("j", m)


def _degrees(arcs, v):
    """(out-degree, in-degree) of ``v`` among ``arcs``."""
    return (
        sum(1 for a in arcs if a.tail == v),
        sum(1 for a in arcs if a.head == v),
    )


def test_degree_profiles():
    for kind, k in (("HStar", 4), ("WStar", 9)):
        arcs = _rule_arcs(kind, 6)
        for v in HostDescriptor(kind, 6).vertex_table:
            assert _degrees(arcs, v) == (k, k)
    j = _rule_arcs("JStar", 6)
    for v in map(strip_vertex, range(HostDescriptor("JStar", 6).order)):
        if 2 <= v.index <= 4:
            assert _degrees(j, v) == (9, 9)


@pytest.mark.parametrize("m", [5, 7])
def test_fold_is_arc_bijection(m):
    """The arithmetic fold maps the opened host's arcs one to one onto the
    circulant blow-up's, both as the reference draws them."""
    opened = _reference_arcs("j", m)
    (folded,) = fold_ids([[(strip_id(a.tail), strip_id(a.head)) for a in opened]], m)
    table = HostDescriptor("WStar", m).vertex_table
    assert {Arc(table[a], table[b]) for a, b in folded} == _reference_arcs("w", m)
    assert len(set(map(tuple, folded))) == len(opened) == 18 * m


def _folded_arcs(factor, m):
    """The arcs of a factor of J* id cycles folded onto W* on m blocks."""
    ((*cycles,),) = fold_ids([factor], m)
    return [a for c in cycles for a in zip(c, c[1:] + c[:1])]


def test_fold_of_admissible_factor():
    # [2,6,6] subdigraph assembled from the two compatible pieces
    factor = [ids("(x0,x1)"), ids("(y1,y2,x2,x3,y4,y3)"), ids("(x4,x6,y7,x5,y6,y5)")]
    ((*folded,),) = fold_ids([factor], 7)
    assert sorted(v for c in folded for v in c) == list(range(14))  # W*'s ids, m = 7
    assert HostDescriptor("WStar", 7).id_by_text["x3"] in folded[1]  # middle unchanged
    assert not _outside("WStar", _folded_arcs(factor, 7), 7)


def test_fold_rejects_garbage():
    # x0 -> x3 folds onto blocks three apart, which W* on 7 blocks does not join
    assert _outside("WStar", _folded_arcs([ids("(x0,x3)")], 7), 7)


def _strip_arcs(m):
    """Every ordered pair of distinct vertices with sides x/y and indices
    -1..m+3, so out-of-range blocks on both ends are included."""
    vs = [Vertex(s, i) for s in "xy" for i in range(-1, m + 4)]
    return [Arc(u, v) for u in vs for v in vs if u != v]


def _rule_matches_reference(kind, m):
    """The rule of ``kind`` on m blocks, asked by ``_outside`` on ids,
    against the reference on every pair of strip vertices; a vertex with no
    id in a blow-up's numbering is outside it."""
    arcs = _reference_arcs(LETTER[kind], m)
    pairs = [(tuple(_host_ids(kind, m, a)), a) for a in _strip_arcs(m)]
    outside = set(_outside(kind, [p for p, _ in pairs], m))
    for pair, a in pairs:
        assert (pair not in outside) == (a in arcs), (m, a)


def test_in_j_star_matches_host():
    for m in range(3, 31):
        _rule_matches_reference("JStar", m)


def test_in_w_star_matches_host():
    for m in range(5, 31):
        _rule_matches_reference("WStar", m)


def test_fold_below_m5_raises():
    # 72 opened-host arcs cannot fold one to one onto W*'s 56 at m = 4
    with pytest.raises(ValueError, match="folding needs m >= 5"):
        w_star_id_factors(parse_cycle_type("[8]"))
    with pytest.raises(ValueError, match="folding needs m >= 5"):
        w_star_id_factors(parse_cycle_type("[2,6]"))


def test_in_h_star_matches_host():
    for m in range(3, 31):
        _rule_matches_reference("HStar", m)


def _described_and_reference():
    """Each described host with its reference vertices and arc count."""
    for n in range(2, 41):
        xs = {Vertex("x", i) for i in range((n + 1) // 2)}
        vertices = xs | {Vertex("y", i) for i in range(n // 2)}
        yield HostDescriptor("CompleteSymmetric", n), vertices, n * (n - 1)
    for kind, least in (("HStar", 3), ("WStar", 5)):
        for m in range(least, 31):
            arcs = _reference_arcs(LETTER[kind], m)
            yield HostDescriptor(kind, m), {a.tail for a in arcs}, len(arcs)


def test_descriptor_matches_built_host():
    """Vertex set and arc count agree with the reference host.  The
    numbering is the sort order (x_i -> i, then y_i), onto one interned
    object per vertex, and each text names its vertex's id."""
    for desc, vertices, arc_count in _described_and_reference():
        assert desc.arc_count == arc_count, desc
        table = desc.vertex_table
        assert list(table) == sorted(vertices), desc
        assert desc.id_by_text == {v.text(): i for i, v in enumerate(table)}, desc
    assert HostDescriptor("HStar", 7).vertex_table is HostDescriptor(
        "CompleteSymmetric", 14
    ).vertex_table


def test_descriptor_refuses_the_sizes_builders_refuse():
    """A size below a host's least is refused with the message ``verify``
    prints for it, also in a copy made with ``_replace``."""
    for kind, least, message in (
        ("CompleteSymmetric", 2, "complete_symmetric needs n >= 2, got 1"),
        ("HStar", 3, "h_star needs m >= 3, got 2"),
        ("WStar", 5, "w_star needs m >= 5, got 4"),
    ):
        with pytest.raises(ValueError) as described:
            HostDescriptor(kind, least - 1)
        assert str(described.value) == message
        host = HostDescriptor(kind, least)
        assert len(host.vertex_table) == host.order
        with pytest.raises(ValueError) as replaced:
            host._replace(m_or_n=least - 1)
        assert str(replaced.value) == message
    opened = HostDescriptor("JStar", 1)  # opened decompositions have their own checks
    assert opened.to_json() == {"kind": "JStar", "m": 1}
    with pytest.raises(ValueError):
        opened.vertex_table


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


def _successor_reference(cycles, n):
    """The successor table by a plain dict: each id's heads along the
    cycles, a table only when the tails are 0..n-1, each once."""
    heads = {}
    for c in cycles:
        for j, v in enumerate(c):
            heads.setdefault(v, []).append(c[(j + 1) % len(c)])
    if sorted(heads) != list(range(n)) or any(len(h) != 1 for h in heads.values()):
        return None
    return [heads[v][0] for v in range(n)]


def _factor_cases(n, rng):
    """(name, cycles) pairs at order n: permutations, and a factor that
    differs from one in a single way."""
    ids = list(range(n))
    rng.shuffle(ids)
    cut = sorted(rng.sample(range(1, n), min(n - 1, 3)))
    split = [ids[a:b] for a, b in zip([0, *cut], [*cut, n])]
    yield "one cycle", [ids]
    yield "split", split
    yield "tuples", [tuple(c) for c in split]
    yield "repeated id", [[ids[1], *ids[1:]]]
    yield "id = N", [[n, *ids[1:]]]
    yield "negative id", [[-1, *ids[1:]]]
    yield "huge id", [[2**64, *ids[1:]]]
    yield "1-cycle", [ids[:1], ids[1:]]
    yield "empty cycle", [ids[:1], [], ids[1:]]
    yield "empty factor", []
    yield "too few ids", [ids[1:]]
    yield "too many ids", [ids, [ids[0]]]
    if n <= 256:
        yield "bytes", [bytes(c) for c in split]


@pytest.mark.parametrize("n", [2, 255, 256, 257, 1002])
def test_successor_table_matches_a_dict_reference(n):
    """One builder at both widths: a ``bytearray`` up to 256 ids, an
    unsigned ``array('I')`` above, and None for exactly the factors whose
    ids are not a permutation of 0..n-1."""
    rng = random.Random(n)
    for name, cycles in _factor_cases(n, rng):
        want = _successor_reference(cycles, n)
        got = successor_table(cycles, n)
        assert (got is None) == (want is None), (name, n)
        if got is not None:
            assert list(got) == want, (name, n)
            assert isinstance(got, bytearray if n <= 256 else array), (name, n)
