"""The W* build on vertex ids against the object implementations it
replaced.

The former object membership rules, ``is_admissible``, ``fold``, pairwise
splice and ``concat``-based centre chaining are kept here as references;
the id rules, the id admissibility test, the arithmetic fold and the
one-pass splice must agree with them on random inputs, including blocks
outside the host and ids of no host vertex, and the whole build must do
work linear in the order.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oberwolfach import caps, tables
from oberwolfach.caps import (
    AdmissibleDecomposition,
    CentrePiece,
    _splice_all,
    admissible_ids,
    concat_centre,
    general_factor,
    is_admissible,
    splice,
    w_star_factorization,
)
from oberwolfach.core import (
    CycleType,
    DirectedCycle,
    DirectedPath,
    TwoRegularDigraph,
    Vertex,
    parse_cycle_type,
)
from oberwolfach.hosts import (
    HostDescriptor,
    _outside_h_star,
    _outside_j_star,
    _outside_w_star,
    fold,
    fold_ids,
    strip_id,
    strip_vertex,
)
from strip import concat, shift


def _ref_in_j_star(arc, m):
    (s, i), (t, j) = arc
    if s not in "xy" or t not in "xy" or i < 0 or j < 0:
        return False
    if i == j:
        return s != t and 1 <= i <= m
    return abs(i - j) <= 2 and min(i, j) <= m - 1


def _ref_in_w_star(arc, m):
    (s, i), (t, j) = arc
    if s not in "xy" or t not in "xy":
        return False
    if not (0 <= i < m and 0 <= j < m):
        return False
    if i == j:
        return s != t
    return (j - i) % m in (1, 2, m - 2, m - 1)


def _ref_in_h_star(arc, m):
    (s, i), (t, j) = arc
    if s not in "xy" or t not in "xy":
        return False
    if not (0 <= i < m and 0 <= j < m):
        return False
    return (j - i) % m in (1, m - 1)


def _ref_is_admissible(d, m):
    """The former per-arc, per-vertex admissibility test."""
    vs = d.vertices()
    if len(vs) != 2 * m:
        return False
    if not all(_ref_in_j_star(a, m) for c in d.cycles for a in c.arcs()):
        return False
    for side, i in (("x", 0), ("x", 1), ("y", 0), ("y", 1)):
        if len({Vertex(side, i), Vertex(side, i + m)} & vs) != 1:
            return False
    return all(
        Vertex("x", i) in vs and Vertex("y", i) in vs for i in range(2, m)
    )


def _ref_fold(g, m):
    """The former fold of a 2-regular digraph: a new vertex per position,
    then one membership call per folded arc."""
    if m < 5:
        raise ValueError(f"fold needs m >= 5, got {m}")
    folded = TwoRegularDigraph(
        DirectedCycle(Vertex(v.side, v.index % m) for v in c.vertices)
        for c in g.cycles
    )
    bad = [a for c in folded.cycles for a in c.arcs() if not _ref_in_w_star(a, m)]
    if bad:
        raise ValueError(f"folded arcs outside host: {sorted(bad)[:3]}")
    return folded


def _ref_splice(a, b):
    if a.patterns() != b.patterns():
        raise ValueError("decompositions are not compatible (patterns differ)")
    m = a.m + b.m
    factors = []
    for fa, fb in zip(a.factors, b.factors):
        factor = TwoRegularDigraph(tuple(fa.cycles) + tuple(shift(fb, a.m).cycles))
        if not _ref_is_admissible(factor, m):
            raise ValueError("spliced factor is not admissible")
        factors.append(factor)
    return AdmissibleDecomposition.from_factors(m, tuple(factors))


def _ref_splice_all(decs):
    """The former pairwise left fold, re-checking every prefix."""
    out = decs[0]
    for d in decs[1:]:
        out = _ref_splice(out, d)
    return out


def _ref_concat_centre(piece, k):
    """The former chaining by repeated ``concat`` of growing paths."""
    if k == 1:
        return piece
    pairs = []
    for q, u in piece.pairs:
        big_q = q
        for step in range(1, k):
            big_q = concat(big_q, shift(q, 4 * step))
        big_u = shift(u, 4 * (k - 1))
        for step in range(k - 2, -1, -1):
            big_u = concat(big_u, shift(u, 4 * step))
        if set(big_q.vertices) & set(big_u.vertices):
            raise ValueError("chained centre paths are not vertex-disjoint")
        pairs.append((big_q, big_u))
    return CentrePiece(4 * k, tuple(pairs))


def _outcome(fn, *args):
    """``("ok", result)`` or ``("ValueError", message)``."""
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "ValueError", str(exc)


def _host_vertex(i, m):
    """The vertex of host id ``i`` in the m-block blow-up numbering; an id
    of no host vertex (negative, or 2m and up) is a vertex of side z."""
    if 0 <= i < m:
        return Vertex("x", i)
    if m <= i < 2 * m:
        return Vertex("y", i - m)
    return Vertex("z", i)


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_id_host_rules_match_the_object_references(data):
    """The J*, W* and H* rules on id pairs agree with the object rules, on
    ids in and around each host: negative ids, blocks past the opened
    host's last block m+1 and ids of no blow-up vertex (2m and up)."""
    m = data.draw(st.integers(1, 13))
    ids = st.integers(-6, 2 * m + 10)
    pairs = data.draw(st.lists(st.tuples(ids, ids), max_size=40))
    pairs += [(a, b) for a in range(-2, 2 * m + 6) for b in (a - 5, a - 1, a, a + 1, a + 4)]
    j_out = set(_outside_j_star(pairs, m))
    for a, b in pairs:
        arc = (strip_vertex(a), strip_vertex(b))
        assert ((a, b) not in j_out) == _ref_in_j_star(arc, m), (m, a, b)
    if m >= 3:
        h_out = set(_outside_h_star(pairs, m))
        for a, b in pairs:
            arc = (_host_vertex(a, m), _host_vertex(b, m))
            assert ((a, b) not in h_out) == _ref_in_h_star(arc, m), (m, a, b)
    if m >= 5:
        w_out = set(_outside_w_star(pairs, m))
        for a, b in pairs:
            arc = (_host_vertex(a, m), _host_vertex(b, m))
            assert ((a, b) not in w_out) == _ref_in_w_star(arc, m), (m, a, b)


@settings(max_examples=100, deadline=None, database=None)
@given(m=st.integers(5, 13), size=st.integers(1, 60))
def test_descriptor_counts_outside_codes_by_the_rules(m, size):
    """``count_outside_codes`` of the blow-ups decodes each code and applies
    the rule: it agrees with the object references on codes spread over the
    order-2m square, every loop and rung included."""
    n = 2 * m
    codes = set(range(0, n * n, max(1, n * n // size)))
    codes |= {a * n + a for a in range(n)}  # loops
    codes |= {a * n + (a + m) % n for a in range(n)}  # rungs
    for kind, ref in (("WStar", _ref_in_w_star), ("HStar", _ref_in_h_star)):
        want = sum(
            not ref((_host_vertex(c // n, m), _host_vertex(c % n, m)), m)
            for c in codes
        )
        assert HostDescriptor(kind, m).count_outside_codes(codes) == want


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_admissible_ids_matches_the_object_reference(data):
    """Random id cycles, negative ids and blocks past m+1 included: the id
    test agrees with the former per-vertex test on the same vertices."""
    m = data.draw(st.integers(1, 10))
    chosen = data.draw(
        st.lists(st.integers(-4, 2 * m + 8), min_size=2, max_size=3 * m, unique=True)
    )
    cycles = []
    while chosen:
        size = data.draw(st.integers(2, len(chosen)))
        if len(chosen) - size == 1:
            size += 1
        cycles.append(tuple(chosen[:size]))
        chosen = chosen[size:]
    objects = TwoRegularDigraph(DirectedCycle(map(strip_vertex, c)) for c in cycles)
    for size in (m, sum(map(len, cycles)) // 2):
        assert admissible_ids(cycles, size) == _ref_is_admissible(objects, size)


@settings(max_examples=200, deadline=None, database=None)
@given(m=st.integers(5, 40), v=st.integers(-200, 200))
def test_arithmetic_fold_reduces_the_block_mod_m(m, v):
    """``fold_ids`` sends J* id v (any integer: negative blocks and blocks
    past m+1 too) to the host id of its vertex with block index mod m."""
    side, index = strip_vertex(v)
    image = Vertex(side, index % m)
    (((folded,),),) = fold_ids([[[v]]], m)
    assert _host_vertex(folded, m) == image
    assert strip_id(strip_vertex(v)) == v


# admissible pieces made where the build makes them: table loads and
# general_factor
_PIECES = (
    [tables.small_decomposition(key) for key in tables.small_types()]
    + [tables.supplemental_2_4_4(), tables.figure_4_8_decomposition()]
    + [
        general_factor(parse_cycle_type(spec))
        for spec in ("[8]", "[10]", "[2,8]", "[2,2,12]", "[4,10]", "[18]", "[26,2]")
    ]
)


def _real_factors():
    return [(f, dec.m) for dec in _PIECES for f in dec.factors]


_REAL_FACTORS = _real_factors()


@st.composite
def _two_regular(draw, m):
    """A random 2-regular digraph on vertices of sides x, y and a foreign
    z, blocks -1..m+3; or a real admissible factor, perhaps mutated."""
    if draw(st.booleans()):
        pool = [Vertex(s, i) for s in "xyz" for i in range(-1, m + 4)]
        chosen = draw(
            st.lists(st.sampled_from(pool), min_size=2, max_size=3 * m, unique=True)
        )
        cycles = []
        while chosen:
            size = draw(st.integers(2, len(chosen)))
            if len(chosen) - size == 1:
                size += 1  # no vertex may be left over alone
            cycles.append(DirectedCycle(chosen[:size]))
            chosen = chosen[size:]
        return TwoRegularDigraph(cycles)
    factor, _ = draw(st.sampled_from(_REAL_FACTORS))
    cycles = [list(c.vertices) for c in factor.cycles]
    op = draw(st.sampled_from(["none", "retarget", "drop", "foreign", "shift"]))
    c = draw(st.integers(0, len(cycles) - 1))
    if op == "retarget":
        i = draw(st.integers(0, len(cycles[c]) - 1))
        v = cycles[c][i]
        cycles[c][i] = Vertex(v.side, v.index + draw(st.integers(-3, 3)))
    elif op == "drop" and len(cycles) > 1:
        cycles.pop(c)
    elif op == "foreign":
        i = draw(st.integers(0, len(cycles[c]) - 1))
        cycles[c][i] = Vertex("z", cycles[c][i].index)
    elif op == "shift":
        k = draw(st.integers(0, 3))
        cycles = [[Vertex(v.side, v.index + k) for v in cyc] for cyc in cycles]
    try:
        return TwoRegularDigraph(DirectedCycle(cyc) for cyc in cycles)
    except ValueError:
        return None


@settings(max_examples=400, deadline=None, database=None)
@given(data=st.data())
def test_is_admissible_matches_reference(data):
    m = data.draw(st.integers(1, 12))
    d = data.draw(_two_regular(m))
    assume(d is not None)
    for size in (m, d.order // 2):
        assert is_admissible(d, size) == _ref_is_admissible(d, size), (d, size)


def test_is_admissible_reference_sees_both_answers():
    """The random inputs above include admissible ones: every real factor."""
    for factor, m in _REAL_FACTORS:
        assert is_admissible(factor, m) and _ref_is_admissible(factor, m)
        assert not is_admissible(factor, m + 1)


@settings(max_examples=400, deadline=None, database=None)
@given(data=st.data())
def test_fold_matches_reference(data):
    """The same folded factor or the same error message, for vertices of a
    side other than x and y too."""
    m = data.draw(st.integers(3, 12))
    d = data.draw(_two_regular(m))
    assume(d is not None)
    for size in {m, d.order // 2}:
        got, want = _outcome(fold, d, size), _outcome(_ref_fold, d, size)
        assert got == want, (d, size)


def test_fold_rejects_an_arc_outside_w_star_with_the_former_message():
    d = TwoRegularDigraph(
        [DirectedCycle([Vertex("x", 0), Vertex("x", 3), Vertex("y", 9)])]
    )
    got = _outcome(fold, d, 7)
    assert got == _outcome(_ref_fold, d, 7)
    assert got[0] == "ValueError" and "outside host" in got[1]


def _permuted(dec, shift_by):
    """The same factors in another order: admissible, other patterns."""
    fs = dec.id_factors[shift_by:] + dec.id_factors[:shift_by]
    return AdmissibleDecomposition(dec.m, fs)


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_splice_all_matches_pairwise_fold(data):
    decs = data.draw(st.lists(st.sampled_from(_PIECES), min_size=1, max_size=6))
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(decs) - 1))
        decs[i] = _permuted(decs[i], data.draw(st.integers(1, 8)))
    got, want = _outcome(_splice_all, decs), _outcome(_ref_splice_all, decs)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert got[1].m == want[1].m
        assert got[1].factors == want[1].factors


def test_splice_all_refuses_a_pattern_mismatch():
    dec = tables.small_decomposition((6,))
    with pytest.raises(ValueError, match="patterns differ"):
        _splice_all([dec, dec, _permuted(dec, 1)])


def test_splice_refuses_a_non_admissible_input():
    dec = tables.small_decomposition((2, 2, 2))
    bent = list(dec.factors)
    bent[0] = TwoRegularDigraph(
        [DirectedCycle([Vertex("y", 1), Vertex("x", 2)]),
         DirectedCycle([Vertex("y", 2), Vertex("x", 4)]),
         DirectedCycle([Vertex("x", 3), Vertex("y", 4)])]
    )
    bad = AdmissibleDecomposition.from_factors(dec.m, tuple(bent))
    with pytest.raises(ValueError):
        splice(dec, bad)
    with pytest.raises(ValueError):
        splice(bad, dec)


def test_a_non_admissible_table_row_is_refused_at_load():
    rows = list(tables.SMALL_DECOMPS[(2, 2, 2)])
    assert tables._decomposition_from_rows(tuple(rows), 3).m == 3
    rows[0] = ("(y1 x2)", "(y2 x4)", "(x3 y4)")  # y1 and y4, no y3
    with pytest.raises(ValueError, match="not admissible"):
        tables._decomposition_from_rows(tuple(rows), 3)


def _mutated_centre(piece, op, i):
    pairs = list(piece.pairs)
    q, u = pairs[i]
    if op == "short_q":
        q = DirectedPath(q.vertices[:-1])
    elif op == "short_u":
        u = DirectedPath(u.vertices[1:])
    elif op == "swap":
        q, u = u, q
    elif op == "touch":
        # move U's second vertex onto a vertex Q passes through
        vs = list(u.vertices)
        vs[1] = q.vertices[1]
        u = DirectedPath(vs)
    pairs[i] = (q, u)
    return CentrePiece(4, tuple(pairs))


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("op", ["none", "short_q", "short_u", "swap", "touch"])
def test_concat_centre_matches_repeated_concat(k, op):
    piece = tables.centre_piece()
    for i in range(9) if op != "none" else [0]:
        try:
            mutated = _mutated_centre(piece, op, i)
        except ValueError:
            continue  # the mutation itself repeats a vertex
        got = _outcome(concat_centre, mutated, k)
        want = _outcome(_ref_concat_centre, mutated, k)
        assert got[0] == want[0], (op, i, k, got, want)
        if got[0] == "ok":
            assert got[1] == want[1] or (k == 1 and got[1] is mutated)


def test_concat_centre_refuses_a_path_that_does_not_chain():
    mutated = _mutated_centre(tables.centre_piece(), "short_q", 0)
    with pytest.raises(ValueError, match="chain"):
        concat_centre(mutated, 2)


@pytest.mark.parametrize("spec, n", [("[6^167]", 1002), ("[1002]", 1002)])
def test_w_star_build_is_linear(monkeypatch, spec, n):
    """Admissibility is checked on O(n) ids in all and O(n) ids are shifted
    while chaining and splicing: no prefix is re-checked or re-shifted and
    no chain is rebuilt."""
    checked = []
    shifted = []
    chained = []
    real_admissible_ids = caps.admissible_ids
    real_shifted = caps._shifted
    real_chain_centre = caps._chain_centre

    def counting_admissible_ids(cycles, m):
        checked.append(sum(map(len, cycles)))
        return real_admissible_ids(cycles, m)

    def counting_shifted(ids, by):
        out = real_shifted(ids, by)
        shifted.append(len(out))
        return out

    def counting_chain_centre(piece, k, at=0):
        pairs = real_chain_centre(piece, k, at)
        chained.extend(len(p) for pair in pairs for p in pair)
        return pairs

    monkeypatch.setattr(caps, "admissible_ids", counting_admissible_ids)
    monkeypatch.setattr(caps, "_shifted", counting_shifted)
    monkeypatch.setattr(caps, "_chain_centre", counting_chain_centre)
    general_factor.cache_clear()
    factors = w_star_factorization(parse_cycle_type(spec, n))
    assert len(factors) == 9
    assert checked and sum(checked) <= 20 * n, sum(checked)
    assert shifted and sum(shifted) <= 20 * n, sum(shifted)
    if spec == "[1002]":
        assert chained and sum(chained) <= 20 * n, sum(chained)


@pytest.mark.parametrize(
    "spec", ["[10]", "[14]", "[2,6,6]", "[6^5]", "[2,4^4,8]", "[26,4]"]
)
def test_w_star_factors_are_interned(spec):
    ftype = parse_cycle_type(spec)
    host = HostDescriptor("CompleteSymmetric", ftype.order)
    table, ids = host.vertex_table, host.vertex_ids
    for f in w_star_factorization(ftype):
        for c in f.cycles:
            for v in c.vertices:
                assert table[ids[v]] is v, v


def test_general_factor_is_memoised_per_type():
    general_factor.cache_clear()
    a = general_factor(CycleType([22]))
    assert general_factor(CycleType([22])) is a
    assert general_factor.cache_info().hits == 1


@pytest.mark.parametrize("spec", ["[2,4,6,8,10]", "[4,6,8,12]"])
def test_a_nested_type_is_spliced_once(monkeypatch, spec):
    """``j_decompose`` splices the flat list of pieces in one call, so once
    the pieces are loaded each of the nine final factors is checked for
    admissibility once, and no inner splice re-checks its own factors."""
    ftype = parse_cycle_type(spec)
    caps.j_decompose(ftype)  # load the tables and the cap-family pieces
    checked = []
    real_admissible_ids = caps.admissible_ids

    def counting_admissible_ids(cycles, m):
        checked.append(m)
        return real_admissible_ids(cycles, m)

    monkeypatch.setattr(caps, "admissible_ids", counting_admissible_ids)
    caps.j_decompose(ftype)
    assert checked == [ftype.order // 2] * 9
