"""The linear-time W* build against the implementations it replaced.

The former ``is_admissible``, ``fold``, pairwise splice and ``concat``-based
centre chaining are kept here as references; the fast versions must agree
with them on random inputs, and the whole build must do work linear in the
order.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oberwolfach import caps, core, tables
from oberwolfach.caps import (
    AdmissibleDecomposition,
    CentrePiece,
    _splice_all,
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
    concat,
    parse_cycle_type,
    shift,
)
from oberwolfach.hosts import HostDescriptor, fold


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
    return AdmissibleDecomposition(m, tuple(factors))


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
    fs = dec.factors[shift_by:] + dec.factors[:shift_by]
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
    bad = AdmissibleDecomposition(dec.m, tuple(bent))
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
    """Admissibility is checked on O(n) vertices in all and O(n) vertices
    are shifted: no prefix is re-checked and no chain is rebuilt."""
    checked = []
    shifted = []
    real_is_admissible = caps.is_admissible
    real_shift_vertex = core.shift_vertex

    def counting_is_admissible(d, m):
        checked.append(d.order)
        return real_is_admissible(d, m)

    def counting_shift_vertex(v, k):
        shifted.append(1)
        return real_shift_vertex(v, k)

    monkeypatch.setattr(caps, "is_admissible", counting_is_admissible)
    monkeypatch.setattr(caps, "shift_vertex", counting_shift_vertex)
    monkeypatch.setattr(core, "shift_vertex", counting_shift_vertex)
    general_factor.cache_clear()
    factors = w_star_factorization(parse_cycle_type(spec, n))
    assert len(factors) == 9
    assert checked and sum(checked) <= 20 * n, sum(checked)
    assert shifted and len(shifted) <= 20 * n, len(shifted)


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
    real_is_admissible = caps.is_admissible

    def counting_is_admissible(d, m):
        checked.append(m)
        return real_is_admissible(d, m)

    monkeypatch.setattr(caps, "is_admissible", counting_is_admissible)
    caps.j_decompose(ftype)
    assert checked == [ftype.order // 2] * 9
