import contextlib
import functools
import io
import json
import os
import random
import re
import tempfile
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_checker
from oberwolfach import checker, tables
from oberwolfach.caps import w_star_id_factors
from oberwolfach.checker import (
    BudgetExceeded,
    Nonexistent,
    VerificationReport,
    brute_force_factorization,
    factors_through_arc,
    verify_admissible_decomposition,
    verify_id_factorization,
)
from oberwolfach.cli import main
from oberwolfach.core import (
    CycleType,
    Vertex,
    canonical_id_cycles,
    id_arcs,
    parse_cycle_type,
    parse_vertex,
)
from oberwolfach.hosts import DESCRIBED_KINDS, HostDescriptor
from oberwolfach.hstar import factorize_h_star
from oberwolfach.serialize import from_json
from oberwolfach.solver import round_robin_two_cycles, solve
from strip import (
    Arc,
    DirectedCycle,
    TwoRegularDigraph,
    cycle_type_of,
    factor_objects,
    two_regular_from_arcs,
    two_regular_from_ids,
    verify_objects,
)

K6 = HostDescriptor("CompleteSymmetric", 6)


def test_round_robin_passes_verification():
    result = round_robin_two_cycles(6)
    report = verify_id_factorization(K6, result.id_factors, parse_cycle_type("[2^3]"))
    assert report.passed


def test_missing_factor_fails_coverage():
    result = round_robin_two_cycles(6)
    factors = list(result.id_factors)
    report = verify_id_factorization(
        K6, factors[:2] + factors[3:], parse_cycle_type("[2^3]")
    )
    assert not report.passed
    assert any(name == "coverage" for name, _ in report.failures())


def test_admissible_decomposition_named_failure():
    from strip import ids

    dec = tables.small_decomposition((6,))
    # a factor carrying both y0 and y3 violates the one-of-two rule
    bad_factor = (ids("(y0,x1,y3,x3,x2,y2)"),)
    report = verify_admissible_decomposition(
        3,
        type(dec)(3, (bad_factor,) + dec.id_factors[1:]),
        parse_cycle_type("[6]"),
        tables.X_PATTERN,
    )
    assert not report.passed
    assert "admissible" in [n for n, _ in report.failures()]


def test_report_determinism():
    result = round_robin_two_cycles(6)
    factors = factor_objects(result.id_factors, K6.vertex_table)
    r1 = verify_objects(K6, factors, parse_cycle_type("[2^3]"))
    r2 = verify_objects(K6, factors, parse_cycle_type("[2^3]"))
    assert r1.to_json() == r2.to_json()


def test_brute_force_tiny():
    result = brute_force_factorization(2, parse_cycle_type("[2]"))
    assert result == [((0, 1),)]


def test_brute_force_all_two_cycles_at_six():
    result = brute_force_factorization(6, parse_cycle_type("[2^3]"))
    assert not isinstance(result, Nonexistent)
    assert len(result) == 5
    assert all(f == canonical_id_cycles(f) for f in result)
    report = verify_id_factorization(K6, result, parse_cycle_type("[2^3]"))
    assert report.passed


def test_brute_force_confirms_six_cycle_nonexistence():
    result = brute_force_factorization(6, parse_cycle_type("[6]"))
    assert isinstance(result, Nonexistent)


def test_brute_force_matches_other_known_nonexistence_results():
    # two further classical impossible instances, independent of this domain
    assert isinstance(brute_force_factorization(4, parse_cycle_type("[4]")), Nonexistent)
    assert isinstance(
        brute_force_factorization(6, parse_cycle_type("[3,3]")), Nonexistent
    )
    # while the neighbouring solvable ones are found
    assert not isinstance(
        brute_force_factorization(4, parse_cycle_type("[2,2]")), Nonexistent
    )
    assert not isinstance(
        brute_force_factorization(7, parse_cycle_type("[3,4]")), Nonexistent
    )


def _complete_codes(n):
    """The arcs of the complete host of order n as codes a*n + b of ids."""
    return frozenset(a * n + b for a in range(n) for b in range(n) if a != b)


def test_factor_enumerator_complete_against_permutations():
    """Cross-check the oracle's factor enumerator, on ids, against a naive
    count over all permutations of the host's vertices with the requested
    cycle structure."""
    import itertools

    vertices = list(K6.vertex_table)
    assert vertices == sorted(vertices)
    first = min(Arc(u, v) for u, v in itertools.permutations(vertices, 2))
    code = vertices.index(first.tail) * 6 + vertices.index(first.head)
    assert code == min(_complete_codes(6))
    for spec in ("[2,4]", "[6]", "[2,2,2]", "[3,3]"):
        ftype = parse_cycle_type(spec)
        found = [
            frozenset(two_regular_from_ids(cycles, vertices).arcs())
            for cycles in factors_through_arc(_complete_codes(6), 6, ftype.lengths, code)
        ]
        assert len(found) == len(set(found)), spec  # each factor once
        found = set(found)
        naive = set()
        for perm in itertools.permutations(vertices):
            succ = dict(zip(vertices, perm))
            if any(u == v for u, v in succ.items()):
                continue
            arcs = frozenset(Arc(u, v) for u, v in succ.items())
            if first not in arcs:
                continue
            if cycle_type_of(two_regular_from_arcs(arcs)) == ftype:
                naive.add(arcs)
        assert found == naive, spec
        assert all(first in arcs for arcs in found)


def _plain_brute_force(n, ftype):
    """The oracle's search without the symmetry reduction at its root: at
    every node, every factor through the least arc left is tried."""

    def search(remaining, acc):
        if not remaining:
            return list(acc)
        for cycles in factors_through_arc(remaining, n, ftype.lengths, min(remaining)):
            tails, heads = id_arcs(cycles)
            used = {a * n + b for a, b in zip(tails, heads)}
            result = search(remaining - used, acc + [canonical_id_cycles(cycles)])
            if result is not None:
                return result
        return None

    result = search(_complete_codes(n), [])
    return Nonexistent("plain search") if result is None else result


def _cycle_types(n):
    def parts(total, largest):
        if total == 0:
            yield ()
            return
        for p in range(min(largest, total), 1, -1):
            for rest in parts(total - p, p):
                yield (p,) + rest

    return [CycleType(t) for t in parts(n, n)]


@pytest.mark.parametrize("n", [4, 6])
def test_symmetry_reduced_oracle_matches_the_plain_search(n):
    """For every cycle type of order 4 and 6 the reduced search returns
    what the plain search returns: the same factors in the same order, or
    nonexistence, after fewer nodes."""
    types = _cycle_types(n)
    assert len(types) == {4: 2, 6: 4}[n]
    for ftype in types:
        got = brute_force_factorization(n, ftype)
        want = _plain_brute_force(n, ftype)
        assert isinstance(got, Nonexistent) == isinstance(want, Nonexistent), ftype
        if not isinstance(want, Nonexistent):
            assert got == want, ftype
    nodes = brute_force_factorization(n, CycleType([n])).reason
    assert nodes == {4: "exhaustive search over 2 nodes", 6: "exhaustive search over 37 nodes"}[n]


def test_brute_force_budget(monkeypatch):
    monkeypatch.setattr(checker, "ORACLE_BUDGET", 2)
    with pytest.raises(BudgetExceeded):
        brute_force_factorization(6, parse_cycle_type("[2,4]"))


def test_brute_force_size_cap():
    with pytest.raises(ValueError):
        brute_force_factorization(14, parse_cycle_type("[14]"))
    with pytest.raises(ValueError, match="needs n >= 2, got 0"):
        brute_force_factorization(0, CycleType([]))


def test_oracle_solver_agreement_order_six():
    for spec in ("[6]", "[2,4]", "[2^3]"):
        ftype = parse_cycle_type(spec)
        oracle = brute_force_factorization(6, ftype)
        solved = solve(6, ftype)
        assert isinstance(oracle, Nonexistent) == isinstance(solved, Nonexistent)


def _mutate(factors, rng):
    """Random single-arc mutation: delete, move to another factor, or retarget."""
    factors = [set(f.arcs()) for f in factors]
    i = rng.randrange(len(factors))
    arc = rng.choice(sorted(factors[i]))
    op = rng.choice(["delete", "move", "retarget"])
    if op == "delete":
        factors[i].discard(arc)
    elif op == "move":
        j = (i + 1 + rng.randrange(len(factors) - 1)) % len(factors)
        factors[i].discard(arc)
        factors[j].add(arc)
    else:
        heads = sorted({a.head for f in factors for a in f} - {arc.head, arc.tail})
        factors[i].discard(arc)
        factors[i].add(Arc(arc.tail, rng.choice(heads)))
    return factors


def test_mutations_always_detected():
    result = round_robin_two_cycles(6)
    ftype = parse_cycle_type("[2^3]")
    rng = random.Random(7)
    factors = factor_objects(result.id_factors, K6.vertex_table)
    for _ in range(100):
        mutated = _mutate(factors, rng)
        try:
            rebuilt = [two_regular_from_arcs(arcs) for arcs in mutated]
        except ValueError:
            continue  # degree structure broken: detected at parse time
        report = verify_objects(K6, rebuilt, ftype)
        assert not report.passed


@functools.lru_cache(maxsize=None)
def _real_factorization(kind, spec):
    """Factors of a real ftype-factorization of the named host, as vertex lists."""
    ftype = parse_cycle_type(spec)
    if kind == "CompleteSymmetric":
        size = ftype.order
        id_factors = solve(size, ftype).id_factors
    elif kind == "HStar":
        size = ftype.order // 2
        id_factors = factorize_h_star(ftype, size).id_factors
    else:
        size = ftype.order // 2
        id_factors = w_star_id_factors(ftype)
    factors = factor_objects(id_factors, HostDescriptor(kind, size).vertex_table)
    return size, tuple(tuple(tuple(c.vertices) for c in f.cycles) for f in factors)


_INSTANCES = (
    [("CompleteSymmetric", f"[{n}]") for n in (10, 14, 18, 22, 26, 30)]
    + [("CompleteSymmetric", f"[2^{n // 2}]") for n in (6, 14, 30)]
    + [("CompleteSymmetric", "[2,4,8,16]"), ("CompleteSymmetric", "[4,6]")]
    + [("HStar", f"[{2 * m}]") for m in range(3, 13)]
    + [("HStar", f"[2,{2 * m - 2}]") for m in range(3, 13)]
    + [("HStar", f"[2,2,{2 * m - 4}]") for m in range(4, 13)]
    + [("WStar", f"[{2 * m}]") for m in range(5, 13)]
    + [("WStar", f"[2,4,{2 * m - 6}]") for m in range(5, 13)]
)
_CORRUPTIONS = ("swap", "drop", "duplicate", "retarget", "outside_vertex", "stray_arc")


def _corrupt(factors, op, data, size):
    """Apply one corruption to ``factors`` (a list of lists of vertex lists)."""
    i = data.draw(st.integers(0, len(factors) - 1))
    cycles = factors[i]
    if op == "drop":
        del factors[i]
    elif op == "duplicate":
        factors[data.draw(st.integers(0, len(factors) - 1))] = [list(c) for c in cycles]
    elif op == "stray_arc":
        # a lone 2-cycle: for a blow-up host often a rung or a far jump,
        # for any host possibly a vertex outside it
        ends = st.builds(Vertex, st.sampled_from("xy"), st.integers(-1, size + 2))
        u, v = data.draw(st.lists(ends, min_size=2, max_size=2, unique=True))
        factors.append([[u, v]])
    else:
        flat = [(c, k) for c in cycles for k in range(len(c))]
        c, k = flat[data.draw(st.integers(0, len(flat) - 1))]
        if op == "swap":
            j = (k + 1) % len(c)
            c[k], c[j] = c[j], c[k]
        elif op == "outside_vertex":
            side = data.draw(st.sampled_from("xy"))
            c[k] = Vertex(side, size + data.draw(st.integers(0, 3)))
        else:  # retarget to another position of the same factor
            d, j = flat[data.draw(st.integers(0, len(flat) - 1))]
            c[k], d[j] = d[j], c[k]


@functools.lru_cache(maxsize=None)
def _reference_host(kind, size):
    """The host's vertex set and arc set, each arc a pair of distinct host
    vertices that ``reference_checker``'s rule for ``kind`` keeps."""
    table = HostDescriptor(kind, size).vertex_table
    pairs = [(a, b) for a in range(len(table)) for b in range(len(table)) if a != b]
    if kind != "CompleteSymmetric":
        ref = reference_checker
        rule = ref.outside_h_star if kind == "HStar" else ref.outside_w_star
        outside = set(rule(pairs, size))
        pairs = [p for p in pairs if p not in outside]
    arcs = frozenset(Arc(table[a], table[b]) for a, b in pairs)
    return SimpleNamespace(vertices=frozenset(table), arcs=arcs)


def _reference_report(host, factors, ftype):
    """The report by plain set comparison with the reference host's arc
    set."""
    report = VerificationReport()
    all_arcs = [a for f in factors for a in f.arcs()]
    union = set(all_arcs)
    report.add(
        "arc_disjoint",
        len(all_arcs) == len(union),
        f"{len(all_arcs)} arcs used, {len(union)} distinct",
    )
    report.add(
        "coverage",
        union == host.arcs,
        f"missing {len(host.arcs - union)}, extra {len(union - host.arcs)}",
    )
    spanning = [i for i, f in enumerate(factors) if f.vertices() != host.vertices]
    report.add("spanning", not spanning, f"non-spanning factors: {spanning}")
    wrong = [
        (i, str(cycle_type_of(f)))
        for i, f in enumerate(factors)
        if cycle_type_of(f) != ftype
    ]
    report.add("cycle_type", not wrong, f"mismatches: {wrong}")
    return report


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_descriptor_and_built_host_give_identical_reports(data):
    """The checker's report against a host description equals, detail
    strings included, the report of a plain set comparison with the host's
    arc set as the reference rules build it, on real factorizations with
    random corruptions."""
    kind, spec = data.draw(st.sampled_from(_INSTANCES))
    size, clean = _real_factorization(kind, spec)
    factors = [[list(c) for c in f] for f in clean]
    for op in data.draw(st.lists(st.sampled_from(_CORRUPTIONS), max_size=3)):
        if factors:
            _corrupt(factors, op, data, size)
    try:
        fs = [TwoRegularDigraph(DirectedCycle(c) for c in f) for f in factors]
    except ValueError:
        return  # no longer a set of vertex-disjoint cycles
    ftype = parse_cycle_type(spec)
    expected = _reference_report(_reference_host(kind, size), fs, ftype).to_json()
    described = verify_objects(HostDescriptor(kind, size), fs, ftype)
    assert described.to_json() == expected


_LENIENT_TOKEN = re.compile(r"^([xy])(\d+)$")


def _lenient_vertex(token):
    """The former token parser: surrounding whitespace, leading zeros and
    any Unicode digits were accepted."""
    m = _LENIENT_TOKEN.match(token.strip())
    if not m:
        raise ValueError(f"bad vertex token: {token!r}")
    return Vertex(m.group(1), int(m.group(2)))


def _regex_parse(data):
    """The factors as the former parser read them: a regex match per token,
    validated by the cycle and factor constructors."""
    factors = tuple(
        TwoRegularDigraph(
            DirectedCycle(_lenient_vertex(t) for t in cyc) for cyc in factor
        )
        for factor in data["factors"]
    )
    host = data["host"]
    HostDescriptor(str(host["kind"]), int(host["m"]))
    return factors


def _object_path_factors(data):
    """The factors as the object path reads them: each token looked up in
    the host's text table (used when the document has at least as many
    tokens as the host has vertices) or parsed, each cycle and factor built
    by its constructor."""
    spec = data["host"]
    host = HostDescriptor(spec["kind"], spec["m"])
    table = {}
    if host.kind in DESCRIBED_KINDS and host.order <= sum(
        len(c) for f in data["factors"] for c in f
    ):
        table = {v.text(): v for v in host.vertex_table}

    def vertices(tokens):
        vs = list(map(table.get, tokens))
        return [parse_vertex(t) if v is None else v for v, t in zip(vs, tokens)]

    factors = tuple(
        TwoRegularDigraph(DirectedCycle(vertices(c)) for c in f)
        for f in data["factors"]
    )
    return host, factors


def _object_path_verify(text):
    """``verify`` of a schema-valid certificate of a described host, by the
    object path and a plain set comparison: ``(exit code, stdout, stderr)``."""
    try:
        data = json.loads(text)
        host, factors = _object_path_factors(data)
        ftype = CycleType(data["factor_type"])
    except (ValueError, TypeError) as exc:
        return 1, "", f"error: malformed input: {exc}\n"
    named = len({v for f in factors for c in f.cycles for v in c.vertices})
    kind, size = host.kind, host.m_or_n
    if host.order > named:
        return 1, "", (
            f"error: malformed input: {kind} host of size {size} has "
            f"{host.order} vertices, the factors name only {named}\n"
        )
    order = size if kind == "CompleteSymmetric" else 2 * size
    if not data["n"] == order == ftype.order:
        return 1, "", (
            f"error: malformed input: declared n = {data['n']} does not match the "
            f"{kind} host of size {size} (order {order}) and factor_type "
            f"{ftype.text()} (order {ftype.order})\n"
        )
    report = _reference_report(_reference_host(kind, size), factors, ftype)
    out = json.dumps(report.to_json(), indent=2) + "\n"
    return (0 if report.passed else 1), out, ""


def _cli_verify(text):
    """``cli.main(["verify", path])`` in process: ``(exit code, stdout, stderr)``."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cert.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", path])
    return code, out.getvalue(), err.getvalue()


# forms the regex parser accepted for a token, which the written form never has
_NON_CANONICAL = (
    lambda t: " " + t,
    lambda t: t + "\t",
    lambda t: t[:1] + "0" + t[1:],
    lambda t: t[:1] + "٣",  # an Arabic-Indic digit three
)
_MIX_INS = ("foreign", "non_canonical", "repeat", "shared", "non_string")


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_from_json_and_checker_match_a_regex_parse(data):
    """A corrupted certificate, written to JSON with foreign, non-canonical,
    repeated, shared and non-string tokens and too-short cycles mixed in, is
    refused by ``from_json`` exactly when the former regex parser refused it
    or it has a non-canonical token; otherwise it parses to the same
    factors, and the checker's report equals the plain set comparison's.
    ``from_json`` and ``verify`` agree with the object path on every input:
    the same factors or error, and the same exit code, stdout and stderr."""
    kind, spec = data.draw(st.sampled_from(_INSTANCES))
    size, clean = _real_factorization(kind, spec)
    factors = [[list(c) for c in f] for f in clean]
    for op in data.draw(st.lists(st.sampled_from(_CORRUPTIONS), max_size=3)):
        if factors:
            _corrupt(factors, op, data, size)
    tokens = [[[v.text() for v in c] for c in f] for f in factors]
    positions = [(f, c, k) for f in tokens for c in f for k in range(len(c))]
    picks = data.draw(
        st.lists(st.integers(0, len(positions) - 1), max_size=2, unique=True)
        if positions
        else st.just([])
    )
    non_canonical = False
    for f, c, k in (positions[p] for p in picks):
        how = data.draw(st.sampled_from(_MIX_INS))
        if how == "foreign":
            c[k] = c[k][:1] + str(size + data.draw(st.integers(0, 3)))
        elif how == "non_canonical":
            c[k] = data.draw(st.sampled_from(_NON_CANONICAL))(c[k])
            non_canonical = True
        elif how == "repeat":  # a vertex twice in one factor
            spots = [(d, j) for d in f for j in range(len(d))]
            d, j = data.draw(st.sampled_from(spots))
            c[k] = d[j]
        elif how == "shared":  # a vertex of another cycle of the factor
            spots = [(d, j) for d in f if d is not c for j in range(len(d))]
            if spots:
                d, j = data.draw(st.sampled_from(spots))
                c[k] = d[j]
        else:
            c[k] = data.draw(st.sampled_from((5, None, [c[k]])))
    cycles = [c for f in tokens for c in f]
    if cycles and data.draw(st.booleans()):  # a cycle cut below 2 vertices
        c = data.draw(st.sampled_from(cycles))
        del c[data.draw(st.integers(0, 1)) :]
    ftype = parse_cycle_type(spec)
    document = {
        "n": ftype.order,
        "factor_type": list(ftype.lengths),
        "host": {"kind": kind, "m": size},
        "factors": tokens,
        "verified": True,
        "seed": 0,
    }
    text = json.dumps(document)
    assert _cli_verify(text) == _object_path_verify(text)
    try:
        reference = _object_path_factors(json.loads(text))[1]
    except (ValueError, TypeError) as exc:
        reference = str(exc)
    try:
        doc = from_json(text)
    except (ValueError, TypeError) as exc:
        assert str(exc) == reference
        doc = None
    else:
        assert factor_objects(doc.factors, doc.vertices) == reference
    try:
        expected = _regex_parse(json.loads(text))
    except (ValueError, TypeError, AttributeError):
        expected = None
    assert (doc is None) == (expected is None or non_canonical)
    if doc is None:
        return
    assert factor_objects(doc.factors, doc.vertices) == expected
    reference = _reference_report(_reference_host(kind, size), expected, ftype).to_json()
    report = verify_id_factorization(doc.host, doc.factors, doc.ftype)
    assert report.to_json() == reference


def test_spanning_does_not_rest_on_the_constructors():
    """A factor of total length N whose cycles share a vertex, or whose
    cycle repeats one, does not span, though it names only host vertices:
    the checker counts each factor's distinct vertices itself."""
    factors = list(round_robin_two_cycles(6).id_factors)
    ftype = parse_cycle_type("[2^3]")
    x0, x1, x2, y0, y1 = map(K6.id_by_text.__getitem__, ("x0", "x1", "x2", "y0", "y1"))
    shared = [[x0, x1], [x1, x2], [y0, y1]]
    repeated = [[x0, x1], [x2, x2], [y0, y1]]
    for bad in (shared, repeated):
        report = verify_id_factorization(K6, [bad] + factors[1:], ftype)
        checks = {name: (ok, detail) for name, ok, detail in report.checks}
        assert checks["spanning"] == (False, "non-spanning factors: [0]")
