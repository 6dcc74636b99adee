
import sys
from itertools import chain
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relabel_split
from broken_stages import CASES, break_stage
from construction_reference import slice_canonical
from oberwolfach import checker, solver
from oberwolfach.checker import Nonexistent
from oberwolfach.core import (
    CycleType,
    canonical_id_cycles,
    parse_cycle_type,
    relabelled,
)
from oberwolfach.hosts import HostDescriptor
from oberwolfach.hstar import factorize_h_star
from oberwolfach.serialize import document_for_solution, to_json
from oberwolfach.solver import (
    DomainError,
    _decompose_pair_circulant,
    _pair_jumps,
    round_robin_two_cycles,
    solve,
    wh_decompose,
)
from strip import cycle_type_of, factor_objects


def _factors(result):
    """A solution's factors as 2-regular digraphs of the host's vertices."""
    table = HostDescriptor("CompleteSymmetric", result.n).vertex_table
    return factor_objects(result.id_factors, table)


def test_wh_decompose_m7():
    wh = wh_decompose(7)
    assert wh.h_block_cycles == ((0, 3, 6, 2, 5, 1, 4),)


def test_wh_decompose_m11_step_cycles():
    wh = wh_decompose(11)
    assert len(wh.h_block_cycles) == 3
    assert wh.h_block_cycles[0] == tuple((3 * i) % 11 for i in range(11))


def test_wh_decompose_m9_needs_search():
    """m = 9 has jumps 3 and 4 only; 3 divides 9, so the two are split as a
    pair by square switching (the test name predates that construction)."""
    wh = wh_decompose(9)
    assert len(wh.h_block_cycles) == 2
    seen = set()
    for cyc in wh.h_block_cycles:
        assert sorted(cyc) == list(range(9))
        for i in range(9):
            step = (cyc[(i + 1) % 9] - cyc[i]) % 9
            assert min(step, 9 - step) in (3, 4)
            seen.add(frozenset((cyc[i], cyc[(i + 1) % 9])))
    assert len(seen) == 18


@pytest.mark.parametrize("m", [15, 21])
def test_wh_decompose_composite_m(m):
    """Jump sets with several non-coprime members go through the pairing
    path; the result must still be a clean split into Hamiltonian cycles."""
    wh = wh_decompose(m)
    assert len(wh.h_block_cycles) == (m - 5) // 2
    seen = set()
    for cyc in wh.h_block_cycles:
        assert sorted(cyc) == list(range(m))
        for i in range(m):
            step = (cyc[(i + 1) % m] - cyc[i]) % m
            assert 3 <= min(step, m - step) <= (m - 1) // 2
            seen.add(frozenset((cyc[i], cyc[(i + 1) % m])))
    assert len(seen) == m * (m - 5) // 2


def _block_cycle_edges(m, cycles):
    """Undirected block edges of the given Hamiltonian cycles, as a list
    (duplicates kept), after checking each cycle visits every block once."""
    edges = []
    for cyc in cycles:
        assert sorted(cyc) == list(range(m))
        edges.extend(frozenset((cyc[i], cyc[(i + 1) % m])) for i in range(m))
    return edges


def test_wh_decompose_every_odd_m_to_201():
    """The split covers each jump 3..(m-1)/2 exactly once with (m-5)/2
    Hamiltonian block cycles, for every odd m up to 201, with no search."""
    for m in range(7, 202, 2):
        _assert_split_covers_jumps(m)


def _assert_split_covers_jumps(m):
    wh = wh_decompose(m)
    assert len(wh.h_block_cycles) == (m - 5) // 2, m
    edges = _block_cycle_edges(m, wh.h_block_cycles)
    expected = {
        frozenset((i, (i + d) % m))
        for d in range(3, (m - 1) // 2 + 1)
        for i in range(m)
    }
    assert len(edges) == len(set(edges)) == len(expected), m
    assert set(edges) == expected, m


def _connected_pairs(m):
    """Every ordered pair of distinct jumps d, e <= (m-1)/2 with
    gcd(d, e, m) = 1, each in both orders."""
    jumps = range(1, (m - 1) // 2 + 1)
    return [(d, e) for d in jumps for e in jumps if d != e and gcd(gcd(d, e), m) == 1]


def test_pair_circulant_every_connected_pair_to_41():
    """Square switching splits C_m(d, e) into two Hamilton cycles for every
    pair of jumps with gcd(d, e, m) = 1, not only the pairs the solver uses."""
    for m in range(7, 42, 2):
        for d, e in _connected_pairs(m):
            if d > e:
                continue
            cycles = _decompose_pair_circulant(m, d, e)
            assert len(cycles) == 2
            edges = _block_cycle_edges(m, cycles)
            expected = {
                frozenset((i, (i + x) % m)) for x in (d, e) for i in range(m)
            }
            assert len(edges) == 2 * m and set(edges) == expected, (m, d, e)


def test_pair_circulant_matches_the_relabelling_reference_to_41():
    """Keeping the cycles in place switches the same squares as relabelling
    both factors after every switch: the same two cycles, block for block,
    for every connected pair of jumps in either order."""
    for m in range(5, 42, 2):
        for d, e in _connected_pairs(m):
            expected = relabel_split.decompose_pair_circulant(m, d, e)
            assert _decompose_pair_circulant(m, d, e) == expected, (m, d, e)


@pytest.mark.parametrize(
    "orders", [range(7, 202, 2), [315]], ids=["odd-m-to-201", "m-315"]
)
def test_solver_pairs_match_the_relabelling_reference(orders):
    for m in orders:
        _, pairs = _pair_jumps(m)
        for d, e in pairs:
            expected = relabel_split.decompose_pair_circulant(m, d, e)
            assert _decompose_pair_circulant(m, d, e) == expected, (m, d, e)


def test_square_switches_rewrite_a_fraction_of_the_blocks(monkeypatch):
    """At m = 315 each switch rewrites the smaller of the two cycles it
    merges or the shorter of the two runs it could reverse, so never more
    than half the blocks, and in all under a quarter of the m blocks per
    factor and switch that relabelling both factors rewrote.  Counts blocks,
    not time."""
    m = 315
    wh_decompose.cache_clear()  # an earlier test's split of m would skip the count
    switched, rewritten = [], []
    real_switch, real_retag, real_reverse = (
        solver._switch,
        solver._retag,
        solver._reverse,
    )

    def run(nxt, v, stop):
        """Blocks from v forward to stop, both included."""
        k = 1
        while v != stop:
            v, k = nxt[v], k + 1
        return k

    def counting_switch(cycles, p, q, r, s, merge):
        switched.append(merge)
        real_switch(cycles, p, q, r, s, merge)

    def counting_retag(nxt, prv, cid, v, tag, flip):
        rewritten.append(run(nxt, nxt[v], v))
        real_retag(nxt, prv, cid, v, tag, flip)

    def counting_reverse(nxt, prv, q, r):
        rewritten.append(run(nxt, q, r))
        real_reverse(nxt, prv, q, r)

    monkeypatch.setattr(solver, "_switch", counting_switch)
    monkeypatch.setattr(solver, "_retag", counting_retag)
    monkeypatch.setattr(solver, "_reverse", counting_reverse)
    _assert_split_covers_jumps(m)
    assert switched.count(True) and switched.count(False)
    assert len(rewritten) == len(switched)
    assert max(rewritten) <= m // 2, max(rewritten)
    assert 4 * sum(rewritten) < m * len(switched), (sum(rewritten), len(switched))


@pytest.mark.parametrize("n", [78, 90, 102, 630])
def test_solve_single_cycle_needs_paired_jumps(n):
    """Orders whose block count m = n/2 has jumps sharing a factor with m
    (85 of the 155 jumps at m = 315)."""
    ftype = parse_cycle_type(f"[{n}]")
    result = solve(n, ftype)
    assert result.report.passed
    assert len(result.id_factors) == n - 1
    assert all(cycle_type_of(f) == ftype for f in _factors(result))


@pytest.mark.parametrize(
    "lengths", [lambda n: [n], lambda n: [2, 4, 8, n - 14] if n > 6 else [2, 4]]
)
def test_solve_and_export_build_no_objects_per_block_cycle(monkeypatch, lengths):
    """A warm solve stays on vertex ids to the certificate at n = 6 (the
    oracle, which also proves [6] nonexistent on ids), 30 and 62: it builds
    no ``Vertex``, nor does writing the result as json, text, edges or dot.
    Its factors are those of the certificate read back."""
    from oberwolfach import core
    from oberwolfach.serialize import from_json, render

    built = []

    def counting(cls, name):
        real = getattr(cls, name)

        def count(*args, **kwargs):
            built.append(cls.__name__)
            return real(*args, **kwargs)

        monkeypatch.setattr(cls, name, count)

    for n in (6, 30, 62):
        ftype = CycleType(lengths(n))
        solve(n, ftype)  # warm: tables and cap-family pieces loaded
        HostDescriptor("CompleteSymmetric", n).vertex_table  # and the numbering
        counting(core.Vertex, "__new__")
        result = solve(n, ftype)
        if isinstance(result, Nonexistent):
            assert result.reason == "exhaustive search over 37 nodes"
        else:
            doc = document_for_solution(result)
            texts = [render(doc, fmt) for fmt in ("json", "text", "edges", "dot")]
        assert built == [], (n, sorted(set(built)))
        monkeypatch.undo()
        if not isinstance(result, Nonexistent):
            back = from_json(texts[0])
            assert _factors(result) == factor_objects(back.factors, back.vertices)


def test_solve_refuses_orders_above_the_cap():
    import time

    from oberwolfach.solver import MAX_ORDER

    start = time.perf_counter()
    for n in (MAX_ORDER + 4, 1000000000000002):
        with pytest.raises(DomainError, match="above the largest supported order"):
            solve(n, CycleType([n]))
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("n", [-6, -2, 0])
def test_solve_refuses_orders_below_2(n):
    """n % 4 is 2 for n = -6 too, so the least order is tested first."""
    with pytest.raises(DomainError, match=f"^n = {n} is below the least order 2$"):
        solve(n, CycleType([2]))


def _per_id_relabel(hids, image):
    """The reference for ``core.relabelled``: each H* cycle mapped
    through ``image`` one id at a time, then the factor in canonical form."""
    return [slice_canonical([list(map(image.__getitem__, c)) for c in f]) for f in hids]


@st.composite
def _even_type(draw, order):
    """An even cycle type of the given order, 2-cycles drawn often."""
    parts = []
    while order:
        half = draw(st.one_of(st.just(1), st.integers(1, order // 2)))
        parts.append(2 * half)
        order -= 2 * half
    return CycleType(parts)


@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_gather_relabel_matches_the_per_id_reference(data):
    """The compiled gathers relabel the H* factors of random even types
    through random permutations as the per-id map does.  Every H* cycle
    has at least two ids, so each gather returns a tuple, not a bare int."""
    m = data.draw(st.integers(5, 63))
    ftype = data.draw(_even_type(2 * m))
    hids = factorize_h_star(ftype, m).id_factors
    assert min(map(len, chain.from_iterable(hids))) >= 2
    images = data.draw(
        st.lists(st.permutations(range(2 * m)).map(tuple), min_size=1, max_size=3)
    )
    got = list(relabelled(hids, images))
    want = [f for image in images for f in _per_id_relabel(hids, image)]
    assert [canonical_id_cycles(f) for f in got] == want
    assert all(type(c) is tuple for f in got for c in f)


# a cycle of ids below 40: mostly 2- and 4-cycles, some long ones, and
# some whose ids repeat
_CYCLE = st.one_of(st.sampled_from([2, 2, 3, 4, 4, 6]), st.integers(2, 300)).flatmap(
    lambda k: st.lists(st.integers(0, 39), min_size=k, max_size=k).map(tuple)
)
# an image of ids 0..39: a permutation, or a map onto a few ids, so that
# gathered cycles repeat their least id
_IMAGE = st.one_of(
    st.permutations(range(40)).map(tuple),
    st.lists(st.integers(0, 4), min_size=40, max_size=40).map(tuple),
)


def _gathered(cycles, image) -> list:
    """The plain gather: each cycle's image, one id at a time."""
    return [[image[v] for v in c] for c in cycles]


@settings(max_examples=200, deadline=None, database=None)
@given(
    factors=st.lists(st.lists(_CYCLE, max_size=8), min_size=1, max_size=4),
    images=st.lists(_IMAGE, min_size=1, max_size=3),
)
def test_relabel_gathers_and_the_helper_rotates_as_the_slice_reference(
    factors, images
):
    """``relabelled`` returns the plain gather, each cycle a tuple in its
    factor's order and rotation; ``canonical_id_cycles`` of it (a 2-cycle
    rotated by a comparison, a 4-cycle unpacked, a longer one by slices,
    the cycles sorted) is ``slice_canonical`` of it, repeated least ids
    included."""
    got = list(relabelled(factors, images))
    plain = [_gathered(f, image) for image in images for f in factors]
    assert got == [tuple(map(tuple, f)) for f in plain]
    assert [canonical_id_cycles(f) for f in got] == [slice_canonical(f) for f in plain]


@pytest.mark.parametrize(
    "cycle, rotated",
    [
        ((3, 5), (3, 5)),
        ((5, 3), (3, 5)),
        ((9, 8, 7, 1), (1, 9, 8, 7)),
        ((4, 1, 9, 8), (1, 9, 8, 4)),
        ((4, 9, 1, 8), (1, 8, 4, 9)),
        ((2, 2, 1, 1), (1, 1, 2, 2)),
        ((6, 5, 4, 3, 2, 1), (1, 6, 5, 4, 3, 2)),
        ((*range(300, 1, -1), 1), (1, *range(300, 1, -1))),
        ((7,), (7,)),
        ((), ()),
    ],
    ids=[
        "2-up", "2-down", "4-last", "4-second", "4-third", "4-ties", "6-last",
        "300-last", "one-id", "empty",
    ],
)
def test_each_cycle_is_rotated_to_its_first_least_id(cycle, rotated):
    """The least id first, its first occurrence where it repeats, whether
    it comes first, second, third or last; a cycle of one id or none is
    left as it is.  Tuples, lists and ``bytes`` give the same tuple."""
    forms = [cycle, list(cycle)]
    if all(v < 256 for v in cycle):
        forms.append(bytes(cycle))
    for c in forms:
        assert canonical_id_cycles([c]) == (rotated,)


def test_pair_jumps_validity():
    for m in range(7, 2002, 2):
        singles, pairs = _pair_jumps(m)
        jumps = sorted(singles + [x for p in pairs for x in p])
        assert jumps == list(range(3, (m - 1) // 2 + 1)), m
        assert all(gcd(d, m) == 1 for d in singles), m
        assert all(gcd(gcd(d, e), m) == 1 for d, e in pairs), m
        assert all(abs(d - e) == 1 for d, e in pairs), m


def test_wh_decompose_many_awkward_jumps():
    """m = 315 = 3^2 * 5 * 7: 85 of its 155 jumps share a factor with m."""
    _assert_split_covers_jumps(315)


@pytest.mark.parametrize("m", [7, 9, 11, 13])
def test_wh_arc_accounting(m):
    wh = wh_decompose(m)
    assert 18 * m + 8 * m * len(wh.h_block_cycles) == 2 * m * (2 * m - 1)
    assert len(wh.h_block_cycles) == (m - 5) // 2


def test_wh_domain():
    assert wh_decompose(5).h_block_cycles == ()  # n = 10: W* is the whole host
    with pytest.raises(DomainError):
        wh_decompose(3)
    with pytest.raises(DomainError):
        wh_decompose(8)


def test_round_robin_n2():
    result = round_robin_two_cycles(2)
    assert len(result.id_factors) == 1
    assert _factors(result)[0].text() == "{(x0,y0)}"


def test_round_robin_n6():
    result = round_robin_two_cycles(6)
    factors = _factors(result)
    assert len(factors) == 5
    assert all(len(f.cycles) == 3 for f in factors)
    assert sum(len(f.arcs()) for f in factors) == 30


def _circle_method(n):
    """The round robin as the circle method writes each factor: the pivot
    n - 1 with r, and r + i with r - i around the wheel of ids 0..n-2."""
    factors = []
    for r in range(n - 1):
        pairs = [(r, n - 1)]
        for i in range(1, (n - 1) // 2 + 1):
            pairs.append(((r + i) % (n - 1), (r - i) % (n - 1)))
        factors.append(canonical_id_cycles(pairs))
    return factors


def test_round_robin_turns_factor_0_as_the_circle_method_writes_each(monkeypatch):
    """Factor 0 relabelled through the wheel's turns is, factor for factor,
    the circle method's factor r in canonical form, for every even n up to
    398.  The final check is skipped here (the round robin tests above run
    it)."""
    monkeypatch.setattr(solver, "_verified", lambda host, factors, ftype, route: factors)
    for n in range(2, 399, 2):
        got = [canonical_id_cycles(f) for f in round_robin_two_cycles(n)]
        assert got == _circle_method(n), n


def test_small_order_nonexistent():
    result = solve(6, parse_cycle_type("[6]"))
    assert isinstance(result, Nonexistent)


def test_small_order_solves():
    result = solve(6, parse_cycle_type("[2,4]"))
    assert len(result.id_factors) == 5
    assert result.report.passed
    result = solve(10, parse_cycle_type("[4,6]"))
    assert len(result.id_factors) == 9
    assert result.report.passed


def test_solve_dispatch():
    cases = [(14, "[14]"), (18, "[2,4,4,8]"), (10, "[2,8]"), (6, "[2^3]"), (2, "[2]")]
    for n, spec in cases:
        result = solve(n, parse_cycle_type(spec))
        assert not isinstance(result, Nonexistent)
        assert len(result.id_factors) == n - 1
        assert result.report.passed


def test_solve_six_six_nonexistent():
    assert isinstance(solve(6, parse_cycle_type("[6]")), Nonexistent)


def test_solve_domain_errors():
    with pytest.raises(DomainError):
        solve(12, parse_cycle_type("[12]"))
    with pytest.raises(DomainError):
        solve(14, parse_cycle_type("[3,11]"))
    with pytest.raises(DomainError):
        solve(14, parse_cycle_type("[2,4]"))


def test_build_path_never_builds_a_blow_up_host(monkeypatch):
    """The W* route folds the opened host's factors, whose admissibility
    is the only arc code set built (``hosts.arc_codes`` takes no host kind),
    and the final checks run against host descriptions; the W* route is
    taken and every result passes."""
    from oberwolfach import caps

    folds = []
    real_fold_image = caps.fold_image

    def counting_fold_image(m):
        folds.append(m)
        return real_fold_image(m)

    monkeypatch.setattr(caps, "fold_image", counting_fold_image)
    for n, spec in ((14, "[14]"), (30, "[2,4,8,16]"), (38, "[2,2,2,4,28]")):
        ftype = parse_cycle_type(spec)
        result = solve(n, ftype)
        assert not isinstance(result, Nonexistent)
        assert result.report.passed
        assert len(result.id_factors) == n - 1
        assert all(cycle_type_of(f) == ftype for f in _factors(result))
    assert folds  # the W* route was taken


@pytest.mark.parametrize(
    "n, spec",
    [(6, "[2,4]"), (10, "[10]"), (14, "[14]"), (30, "[2,4,24]"), (14, "[2^7]")],
    ids=[
        "search", "no-block-cycles", "one-block-cycle", "five-block-cycles",
        "round-robin",
    ],
)
def test_every_route_checks_its_output_once(monkeypatch, n, spec):
    """``solve`` calls the factorization check once, on the final n-1
    factors, on every route: no builder checks its own part.  Every package
    module that binds ``verify_id_factorization`` is patched, so a builder
    that checked its part again would be counted."""
    real = checker.verify_id_factorization
    kinds = []

    def counting(host, factors, ftype):
        kinds.append(host.kind)
        return real(host, factors, ftype)

    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.startswith("oberwolfach") and vars(module).get(
            "verify_id_factorization"
        ) is real:
            monkeypatch.setattr(module, "verify_id_factorization", counting)
    result = solve(n, parse_cycle_type(spec))
    assert result.report.passed
    assert kinds == ["CompleteSymmetric"]


@pytest.mark.parametrize("case", CASES)
def test_a_broken_stage_fails_the_solve_and_is_named(monkeypatch, case):
    """A corrupted W* factor, H* factor or split (a block cycle twice, one
    that repeats a block or one on the reserved jump 1) fails the final
    check, and the error names the first stage whose own check fails:
    ``solve`` when the W* and H* parts both pass."""
    n, spec = break_stage(monkeypatch, case)
    with pytest.raises(RuntimeError) as failure:
        solve(n, parse_cycle_type(spec))
    assert str(failure.value).startswith(f"{CASES[case]} failed verification: ")


def test_solve_h_embeddings_keep_type():
    ftype = parse_cycle_type("[4,10]")
    result = solve(14, ftype)
    assert all(cycle_type_of(f) == ftype for f in _factors(result))


def test_determinism_bytes():
    a = solve(14, parse_cycle_type("[2,4,8]"))
    b = solve(14, parse_cycle_type("[2,4,8]"))
    assert to_json(document_for_solution(a)) == to_json(document_for_solution(b))


def test_determinism_across_processes():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import oberwolfach

    # The children import the same package as this process, whether it comes
    # from an install or from ``src/`` on PYTHONPATH; nothing else is inherited.
    # They run with -B, so they write no bytecode next to the sources.
    package_root = str(Path(oberwolfach.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    snippet = (
        "from oberwolfach.solver import solve;"
        "from oberwolfach.core import parse_cycle_type;"
        "from oberwolfach.serialize import document_for_solution, to_json;"
        "import sys;"
        "sys.stderr.write(str(hash('oberwolfach')));"
        "sys.stdout.write(to_json(document_for_solution("
        "solve(14, parse_cycle_type('[4,10]')))))"
    )
    outputs = set()
    string_hashes = set()
    for hashseed in ("1", "2", "40351"):
        proc = subprocess.run(
            [sys.executable, "-B", "-c", snippet],
            capture_output=True,
            text=True,
            env={
                "PYTHONHASHSEED": hashseed,
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": pythonpath,
            },
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
        string_hashes.add(proc.stderr)
    assert len(string_hashes) == 3, "the children did not run under distinct hash seeds"
    assert len(outputs) == 1, "output bytes depend on the process hash seed"
