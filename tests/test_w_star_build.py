"""The W* build on vertex ids against the object implementations it
replaced.

The former object membership rules, ``is_admissible``, ``fold``, pairwise
splice and arc-union ``assemble`` over ``concat``-based centre chaining are
kept here as references; the id rules, ``admissible_ids``, the arithmetic
fold, the one-pass splice and ``assemble``'s direct concatenation must
agree with them on random inputs, including blocks outside the host and
ids of no host vertex, and the whole build must do work linear in the
order.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import construction_reference
from oberwolfach import caps, tables
from oberwolfach.caps import (
    _splice_all,
    general_factor,
    w_star_id_factors,
)
from oberwolfach.checker import verify_cap_complementarity
from oberwolfach.core import (
    CycleType,
    Vertex,
    canonical_id_cycles,
    parse_cycle_type,
    relabelled,
)
from oberwolfach.hosts import (
    HostDescriptor,
    _outside,
    admissible_ids,
    fold_image,
    strip_id,
    strip_vertex,
)
from oberwolfach.tables import AdmissibleDecomposition, CentrePiece
from strip import (
    Arc,
    blow_up_outside,
    DirectedCycle,
    DirectedPath,
    TwoRegularDigraph,
    ids,
    shift,
    shift_vertex,
    strip_factors,
    strip_ids,
    two_regular_from_arcs,
    two_regular_from_ids,
)


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
    for fa, fb in zip(strip_factors(a), strip_factors(b)):
        factor = TwoRegularDigraph(tuple(fa.cycles) + tuple(shift(fb, a.m).cycles))
        if not _ref_is_admissible(factor, m):
            raise ValueError("spliced factor is not admissible")
        factors.append(factor)
    return AdmissibleDecomposition(m, tuple(map(strip_ids, factors)))


def _ref_splice_all(decs):
    """The former pairwise left fold, re-checking every prefix."""
    out = decs[0]
    for d in decs[1:]:
        out = _ref_splice(out, d)
    return out


def _ref_assemble(left, centre, k, right):
    """The former ``assemble``: factor i is the arc union of the left path,
    the centre pair chained by repeated ``concat`` and shifted by ell
    blocks, and the right element shifted by ell + c*k blocks, walked back
    into cycles by ``two_regular_from_arcs``; each cycle starts at the tail
    of its first arc in that union, and the cycles come in that order."""
    chained = construction_reference.concat_centre(centre, k) if k else [()] * 9
    at = left.ell + (centre.c * k if k else 0)
    factors = []
    for path, pair, (rpath, rcycles) in zip(left.paths, chained, right.elements):
        walks = [tuple(map(strip_vertex, path))]
        walks += [shift(DirectedPath(p), left.ell).vertices for p in pair]
        walks.append(shift(DirectedPath(map(strip_vertex, rpath)), at).vertices)
        arcs = [Arc(*a) for w in walks for a in zip(w, w[1:])]
        for c in rcycles:
            c = [shift_vertex(strip_vertex(v), at) for v in c]
            arcs += map(Arc, c, c[1:] + c[:1])
        recovered = two_regular_from_arcs(arcs).cycles
        cycle_of = {v: c.vertices for c in recovered for v in c.vertices}
        ordered = {}
        for arc in arcs:
            c = cycle_of[arc.tail]
            if c not in ordered:
                i = c.index(arc.tail)
                ordered[c] = tuple(map(strip_id, c[i:] + c[:i]))
        factors.append(tuple(ordered.values()))
    return tuple(factors)


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
    j_out = set(_outside(pairs, m))
    for a, b in pairs:
        arc = (strip_vertex(a), strip_vertex(b))
        assert ((a, b) not in j_out) == _ref_in_j_star(arc, m), (m, a, b)
    if m >= 3:
        h_out = set(blow_up_outside("HStar", pairs, m))
        for a, b in pairs:
            arc = (_host_vertex(a, m), _host_vertex(b, m))
            assert ((a, b) not in h_out) == _ref_in_h_star(arc, m), (m, a, b)
    if m >= 5:
        w_out = set(blow_up_outside("WStar", pairs, m))
        for a, b in pairs:
            arc = (_host_vertex(a, m), _host_vertex(b, m))
            assert ((a, b) not in w_out) == _ref_in_w_star(arc, m), (m, a, b)


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
    """``fold_image`` sends each id u of the opened host, 0..2m+3, to the
    host id of its vertex with block index mod m, at index u of a tuple.
    Any id above 2m+3 raises ``IndexError``; a negative id is outside its
    domain too, and the tuple would wrap it onto another block, so only
    pieces whose ids lie in 0..2m+3 are folded
    (``test_every_piece_lies_in_the_fold_domain``)."""
    fold = fold_image(m)
    assert isinstance(fold, tuple) and len(fold) == 2 * m + 4
    for u, image in enumerate(fold):
        side, index = strip_vertex(u)
        assert _host_vertex(image, m) == Vertex(side, index % m)
    if v > 2 * m + 3:
        with pytest.raises(IndexError):
            fold[v]
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


def _per_id_fold(factors, m):
    """The reference fold: each J* id v mapped to (v >> 1) % m + (v & 1) * m
    one id at a time, each factor then put in canonical form."""
    return [
        canonical_id_cycles([[(v >> 1) % m + (v & 1) * m for v in c] for c in f])
        for f in factors
    ]


def _seeded_type(order, seed):
    """An even cycle type of the given order with a cycle longer than 2."""
    rng = random.Random(seed)
    parts = [2 * rng.randint(2, order // 2)]
    while sum(parts) < order:
        parts.append(2 * rng.randint(1, (order - sum(parts)) // 2))
    return CycleType(parts)


def test_fold_through_relabelled_matches_the_per_id_reference():
    """``core.relabelled`` through ``fold_image`` folds every table and
    cap-family piece of at least five blocks, at its own m, and one seeded
    type's decomposition at every m in 5..41, as the per-id reference does."""
    decs = [dec for dec in _PIECES if dec.m >= 5]
    decs += [caps.j_decompose(_seeded_type(2 * m, m)) for m in range(5, 42)]
    for dec in decs:
        got = list(relabelled(dec.id_factors, [fold_image(dec.m)]))
        assert got == _per_id_fold(dec.id_factors, dec.m), dec.m


def _real_factors():
    return [(f, dec.m) for dec in _PIECES for f in strip_factors(dec)]


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
    """Real factors, mutated or not, and random ones: ``admissible_ids``
    agrees with the reference.  A vertex of side z has no J* id; the
    reference never admits it."""
    m = data.draw(st.integers(1, 12))
    d = data.draw(_two_regular(m))
    assume(d is not None)
    try:
        cycles = strip_ids(d)
    except ValueError:
        assert not _ref_is_admissible(d, m)
        return
    for size in (m, d.order // 2):
        assert admissible_ids(cycles, size) == _ref_is_admissible(d, size), (d, size)


def test_is_admissible_reference_sees_both_answers():
    """The random inputs above include admissible ones: every real factor."""
    for factor, m in _REAL_FACTORS:
        cycles = strip_ids(factor)
        assert admissible_ids(cycles, m) and _ref_is_admissible(factor, m)
        assert not admissible_ids(cycles, m + 1)


@settings(max_examples=400, deadline=None, database=None)
@given(data=st.data())
def test_fold_matches_reference(data):
    """``fold_image`` through ``core.relabelled``, followed by the W* rule
    and a repeated-id count, accepts exactly what the former object fold
    accepted, with the same folded factor.  A vertex of side z has no J*
    id; the reference refuses it.  An id above the opened host's 0..2m+3
    has no image, and the fold raises ``IndexError``; a negative id, which
    the tuple would wrap, is outside the fold's domain, and no piece has
    one (``test_every_piece_lies_in_the_fold_domain``)."""
    m = data.draw(st.integers(5, 12))
    d = data.draw(_two_regular(m))
    assume(d is not None)
    for size in {m, d.order // 2} - set(range(5)):
        want = _outcome(_ref_fold, d, size)
        try:
            cycles = strip_ids(d)
        except ValueError:
            assert want[0] == "ValueError", (d, size)
            continue
        named = [v for c in cycles for v in c]
        if min(named) < 0:
            continue
        if max(named) > 2 * size + 3:
            with pytest.raises(IndexError):
                list(relabelled([cycles], [fold_image(size)]))
            continue
        (folded,) = relabelled([cycles], [fold_image(size)])
        named = [v for c in folded for v in c]
        arcs = [a for c in folded for a in zip(c, c[1:] + c[:1])]
        ok = len(set(named)) == len(named) and not blow_up_outside("WStar", arcs, size)
        assert ok == (want[0] == "ok"), (d, size, want)
        if ok:
            table = HostDescriptor("WStar", size).vertex_table
            assert two_regular_from_ids(folded, table) == want[1]


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
        assert strip_factors(got[1]) == strip_factors(want[1])


def test_splice_all_refuses_a_pattern_mismatch():
    dec = tables.small_decomposition((6,))
    with pytest.raises(ValueError, match="patterns differ"):
        _splice_all([dec, dec, _permuted(dec, 1)])


def test_splice_refuses_a_non_admissible_input():
    """A piece with the right patterns but an inadmissible factor (y1 and
    y4 on three blocks, no y3) makes the final factor inadmissible."""
    dec = tables.small_decomposition((2, 2, 2))
    bent = (ids("(y1,x2)"), ids("(y2,x4)"), ids("(x3,y4)"))
    bad = AdmissibleDecomposition(dec.m, (bent,) + dec.id_factors[1:])
    assert bad.patterns() == dec.patterns()
    with pytest.raises(ValueError, match="not admissible"):
        _splice_all([dec, bad])
    with pytest.raises(ValueError, match="not admissible"):
        _splice_all([bad, dec])


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
        q = q[:-1]
    elif op == "short_u":
        u = u[1:]
    elif op == "swap":
        q, u = u, q
    elif op == "touch":
        # move U's second vertex onto a vertex Q passes through
        u = (u[0], q[1], *u[2:])
    if any(len(set(p)) != len(p) for p in (q, u)):
        raise ValueError("a mutated path repeats a vertex")
    pairs[i] = (q, u)
    return CentrePiece(4, tuple(pairs))


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("op", ["none", "short_q", "short_u", "swap", "touch"])
def test_concat_centre_matches_repeated_concat(k, op):
    """Each piece goes through ``assemble``: one that fails the cap audit
    is refused there, before it is chained; one that passes assembles as
    the reference chaining by repeated ``concat`` does."""
    left, right = tables.left_cap(), tables.right_cap("L", 4)
    piece = tables.centre_piece()
    for i in range(9) if op != "none" else [0]:
        try:
            mutated = _mutated_centre(piece, op, i)
        except ValueError:
            continue  # the mutation itself repeats a vertex
        built = _outcome(caps.assemble, left, mutated, k, right)
        if not verify_cap_complementarity(left, right, mutated).passed:
            assert built[0] == "ValueError", (op, i, k)
            assert built[1].startswith("the pieces fail the cap audit"), built
            continue
        want = _outcome(_ref_assemble, left, mutated, k, right)
        assert built[0] == want[0] == "ok", (op, i, k, built, want)
        assert built[1].id_factors == want[1]


@pytest.mark.parametrize("k", range(9))
def test_assemble_matches_the_arc_union_reference(k):
    """For every right cap and k centre copies, ``assemble`` writes each
    factor down as the cycles, in the same order and from the same first
    id, that the former arc-union walk recovers."""
    left, centre = tables.left_cap(), tables.centre_piece()
    for family, anchor in tables.RIGHT_CAPS:
        right = tables.right_cap(family, anchor)
        got = caps.assemble(left, centre if k else None, k, right)
        assert got.id_factors == _ref_assemble(left, centre, k, right), (family, anchor)


@pytest.mark.parametrize("k", range(1, 5))
def test_a_doubled_centre_piece_chains_as_two_copies(k):
    """Two chained copies of the table centre piece make a piece of c = 8
    blocks; k copies of it are 2k copies of the table piece, in the
    reference chaining and in ``assemble``, which shifts copy j by c*j."""
    piece = tables.centre_piece()
    doubled = CentrePiece(
        8,
        tuple(
            tuple(tuple(map(strip_id, p)) for p in pair)
            for pair in construction_reference.concat_centre(piece, 2)
        ),
    )
    assert construction_reference.concat_centre(
        doubled, k
    ) == construction_reference.concat_centre(piece, 2 * k)
    left, right = tables.left_cap(), tables.right_cap("L2", 6)
    assert caps.assemble(left, doubled, k, right) == caps.assemble(
        left, piece, 2 * k, right
    )


def test_concat_centre_refuses_a_path_that_does_not_chain():
    """A centre Q that does not end four blocks after it starts is refused
    by the audit's endpoint clause before ``assemble`` chains it."""
    left, right = tables.left_cap(), tables.right_cap("L", 4)
    mutated = _mutated_centre(tables.centre_piece(), "short_q", 0)
    with pytest.raises(ValueError, match="centre_endpoints"):
        caps.assemble(left, mutated, 2, right)


@pytest.mark.parametrize("spec, n", [("[6^167]", 1002), ("[1002]", 1002)])
def test_w_star_build_is_linear(monkeypatch, spec, n):
    """The W* route gathers O(n) ids, each piece cycle once, straight onto
    host ids.  With ``general_factor`` warm it checks no admissibility and
    shifts nothing; cold, ``assemble`` checks each assembled factor once
    and shifts O(n) ids, the centre copies included, so no chain is
    rebuilt."""
    gathered, checked, shifted = [], [], []
    real_itemgetter = caps.itemgetter
    real_admissible_ids = caps.admissible_ids
    real_shifted = caps._shifted

    def counting_itemgetter(*ids):
        gathered.append(len(ids))
        return real_itemgetter(*ids)

    def counting_admissible_ids(cycles, m):
        checked.append(m)
        return real_admissible_ids(cycles, m)

    def counting_shifted(ids, by):
        out = real_shifted(ids, by)
        shifted.append(len(out))
        return out

    monkeypatch.setattr(caps, "itemgetter", counting_itemgetter)
    monkeypatch.setattr(caps, "admissible_ids", counting_admissible_ids)
    monkeypatch.setattr(caps, "_shifted", counting_shifted)
    ftype = parse_cycle_type(spec, n)
    general_factor.cache_clear()
    cold = w_star_id_factors(ftype)
    if spec == "[1002]":
        # one assembled piece of 501 blocks: s = 501 is 124 centre copies
        # above its anchor 5, each copy of each Q and U shifted once
        assert checked == [n // 2] * 9
        assert len(shifted) >= 9 * 2 * 124, len(shifted)
    else:
        assert checked == shifted == []  # six-cycle table pieces only
    assert sum(shifted) <= 20 * n, sum(shifted)
    for seen in (gathered, checked, shifted):
        seen.clear()
    assert w_star_id_factors(ftype) == cold
    assert checked == shifted == []
    assert len(cold) == 9 and sum(gathered) == 9 * n <= 20 * n, sum(gathered)


def test_w_star_factors_match_the_shift_and_fold_route():
    """Gathering each piece through the fold at its splice offset gives the
    nine W* factors, factor for factor, that shifting every piece into J*
    ids, splicing and then folding gave: every even type but the all-2s
    ones at n = 10, 14, ..., 38, and ten seeded types up to n = 1002."""
    types = [
        CycleType(key)
        for n in range(10, 39, 4)
        for key in _ascending_even_types(n)
        if key[-1] != 2
    ]
    assert len(types) == 1164
    types += [_seeded_type(n, n) for n in range(102, 1003, 100)]
    for ftype in types:
        want = construction_reference.w_star_id_factors(ftype)
        assert w_star_id_factors(ftype) == want, ftype


@pytest.mark.parametrize(
    "spec, message",
    [
        ("[8]", "folding needs m >= 5"),
        ("[3,7]", "has an odd cycle length"),
        ("[2^5]", "the all-2s type has no admissible decomposition here"),
    ],
)
def test_w_star_route_refuses_what_it_refused(spec, message):
    """The W* route no longer goes through ``j_decompose`` but refuses the
    same types with the same messages."""
    with pytest.raises(ValueError, match=message):
        w_star_id_factors(parse_cycle_type(spec))


def test_j_decompose_refuses_mismatched_and_overlapping_pieces(monkeypatch):
    """``j_decompose`` still checks what it splices: pieces with other
    boundary patterns, and a piece that meets both vertices of a boundary
    pair (y1 and y4 on three blocks), whose splice overlaps its
    neighbour's."""
    dec = tables.small_decomposition((2, 2, 2))
    bent = (ids("(y1,x2)"), ids("(y2,x4)"), ids("(x3,y4)"))
    bad = AdmissibleDecomposition(dec.m, (bent,) + dec.id_factors[1:])
    for pieces, message in (
        ([dec, _permuted(dec, 1)], "patterns differ"),
        ([dec, bad], "not admissible"),
        ([bad, dec], "not admissible"),
    ):
        monkeypatch.setattr(caps, "_decompose", lambda lengths: pieces)
        with pytest.raises(ValueError, match=message):
            caps.j_decompose(parse_cycle_type("[2^5,4]"))


def test_every_piece_lies_in_the_fold_domain():
    """The gather's only inputs, the table pieces and the ``general_factor``
    pieces of every cap-family type up to n = 62, have ids in
    0..2m+3 on their own m blocks, where a slice of the fold (or of the
    identity image) has an entry for each."""
    pieces = [tables.small_decomposition(key) for key in tables.PIECES]
    pieces.append(tables.figure_4_8_decomposition())
    shapes = [(2 * s, *side) for s in range(2, 32) for side in ((), (2,), (2, 2), (4,))]
    keys = [tuple(sorted(k)) for k in shapes if sum(k) <= 62]
    family = [k for k in keys if caps._family_of(k) is not None]
    assert len(family) == 28 + 27 + 26 + 25  # [8..62], [2,8..60], [2,2,8..58], [4,10..58]
    pieces += [general_factor(CycleType(k)) for k in family]
    for dec in pieces:
        named = [v for f in dec.id_factors for c in f for v in c]
        assert 0 <= min(named) and max(named) <= 2 * dec.m + 3, dec.m


@pytest.mark.parametrize(
    "spec", ["[10]", "[14]", "[2,6,6]", "[6^5]", "[2,4^4,8]", "[26,4]"]
)
def test_w_star_factors_are_interned(spec):
    """The W* factors are ids of the numbering the complete host of the
    same order shares, each vertex once, in canonical form: the library
    edge builds them on that host's interned vertices."""
    ftype = parse_cycle_type(spec)
    table = HostDescriptor("CompleteSymmetric", ftype.order).vertex_table
    for f in w_star_id_factors(ftype):
        assert sorted(v for c in f for v in c) == list(range(len(table)))
        assert f == canonical_id_cycles(f)


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


def _ascending_even_types(order: int):
    """Every type of ``order`` with even lengths, as ascending tuples."""
    def parts(total, least):
        if total == 0:
            yield ()
            return
        for p in range(least, total + 1, 2):
            for rest in parts(total - p, p):
                yield (p,) + rest

    return parts(order, 2)


def test_piece_plans_match_the_hand_picked_planner(monkeypatch):
    """``_decompose`` passes each head it peels back to itself and lets its
    first two tests pick table or cap family; it plans the same pieces, in
    the same order, as the planner that picked them by hand, for every even
    type of order 8..62 but the all-2s ones."""
    monkeypatch.setattr(tables, "small_decomposition", lambda key: ("table", key))
    monkeypatch.setattr(caps, "general_factor", lambda ft: ("family", ft.lengths))
    count = 0
    for order in range(8, 63, 2):
        for key in _ascending_even_types(order):
            if key[-1] == 2:
                continue
            assert caps._decompose(key) == construction_reference.decompose(key), key
            count += 1
    assert count == 35436
    assert caps._decompose(()) == []


def test_general_factor_takes_each_anchor_from_the_right_cap_table():
    """At s equal to a right cap's anchor the family piece is that cap on
    the left cap, with no centre blocks."""
    shapes = {"L": [], "L2": [2], "L22": [2, 2], "L4": [4]}
    for family, anchor in tables.RIGHT_CAPS:
        dec = general_factor(CycleType([2 * anchor, *shapes[family]]))
        bare = caps.assemble(tables.left_cap(), None, 0, tables.right_cap(family, anchor))
        assert dec == bare, (family, anchor)
