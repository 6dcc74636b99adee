"""The checker's column kernel, at both widths, and the host rules (J*'s
code sets, the blow-ups' out-neighbour rows) against the per-cycle,
per-arc reference in ``reference_checker.py``."""

import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_checker as ref
from oberwolfach.caps import w_star_id_factors
from oberwolfach.checker import verify_id_factorization
from oberwolfach.core import CycleType, parse_cycle_type
from oberwolfach.hosts import HostDescriptor, arc_codes, out_neighbour_bytes
from oberwolfach.hstar import factorize_h_star
from oberwolfach.solver import solve

_INSTANCES = (
    ("CompleteSymmetric", "[10]"),
    ("CompleteSymmetric", "[2^7]"),
    ("CompleteSymmetric", "[2,4,8]"),
    ("CompleteSymmetric", "[4,6,8]"),
    ("CompleteSymmetric", "[2,2,2,4,12]"),
    ("HStar", "[6]"),
    ("HStar", "[2,8]"),
    ("HStar", "[2,2,2,4,4]"),
    ("HStar", "[4,6,8]"),
    ("WStar", "[10]"),
    ("WStar", "[2,4,8]"),
    ("WStar", "[2,2,4,4,6]"),
)
_CORRUPTIONS = (
    "swap",
    "drop",
    "duplicate",
    "repeated_id",
    "foreign_id",
    "one_cycle",
    "empty_factor",
)


@functools.lru_cache(maxsize=None)
def _real(kind, spec):
    """The host size and a real factorization's id factors."""
    ftype = parse_cycle_type(spec)
    if kind == "CompleteSymmetric":
        return ftype.order, solve(ftype.order, ftype).id_factors
    m = ftype.order // 2
    if kind == "HStar":
        return m, factorize_h_star(ftype, m).id_factors
    return m, tuple(w_star_id_factors(ftype))


def _corrupt(factors, op, data, order):
    """Apply one corruption to ``factors``, a list of lists of id lists."""
    i = data.draw(st.integers(0, len(factors) - 1))
    if op == "drop":
        del factors[i]
        return
    if op == "duplicate":
        factors[data.draw(st.integers(0, len(factors) - 1))] = [
            list(c) for c in factors[i]
        ]
        return
    if op == "empty_factor":
        factors.insert(i, [])
        return
    cycles = factors[i]
    spots = [(c, k) for c in cycles for k in range(len(c))]
    if not spots:
        return
    c, k = spots[data.draw(st.integers(0, len(spots) - 1))]
    if op == "swap":
        j = (k + 1) % len(c)
        c[k], c[j] = c[j], c[k]
    elif op == "repeated_id":  # an id the factor already names elsewhere
        d, j = spots[data.draw(st.integers(0, len(spots) - 1))]
        c[k] = d[j]
    elif op == "foreign_id":  # above the host's ids or negative
        c[k] = data.draw(st.one_of(st.integers(order, order + 3), st.integers(-4, -1)))
    elif data.draw(st.booleans()):  # one_cycle: a cycle cut to one id
        del c[1:]
    else:  # one_cycle: a lone id added as a cycle of its own
        cycles.append([c[k]])


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_kernel_matches_the_per_cycle_reference(data):
    """On real factorizations of the complete host, W* and H* with random
    corruptions, the per-factor kernel gives the reference's checks, detail
    strings included, against the host's description."""
    kind, spec = data.draw(st.sampled_from(_INSTANCES))
    size, clean = _real(kind, spec)
    host = HostDescriptor(kind, size)
    factors = [[list(c) for c in f] for f in clean]
    for op in data.draw(st.lists(st.sampled_from(_CORRUPTIONS), max_size=3)):
        if factors:
            _corrupt(factors, op, data, host.order)
    ftype = parse_cycle_type(spec)
    expected = ref.verify_id_factorization(kind, size, factors, ftype).checks
    assert verify_id_factorization(host, factors, ftype).checks == expected


def _rule_codes(width, outside, m):
    """Every code a * width + b, over all id pairs, that the reference rule
    counts as an arc."""
    pairs = [(a, b) for a in range(width) for b in range(width)]
    out = set(outside(pairs, m))
    return {a * width + b for a, b in pairs if (a, b) not in out}


def _row_codes(kind, m):
    """Every code a * 2m + b with b in the blow-up's row of a."""
    rows = out_neighbour_bytes(kind, m)
    return {a * 2 * m + b for a, row in enumerate(rows) for b in row}


def test_code_sets_equal_the_rules_to_41():
    """J*'s cached code set, and each blow-up's out-neighbour rows read as
    codes, are the host's rule over every id pair and have its arc count:
    J* for 1 <= m <= 41, H* from m = 3, W* from m = 5."""
    for m in range(1, 42):
        codes = arc_codes(m)
        assert codes == _rule_codes(2 * m + 4, ref.outside_j_star, m), m
        assert len(codes) == 18 * m
        if m >= 3:
            codes = _row_codes("HStar", m)
            assert codes == _rule_codes(2 * m, ref.outside_h_star, m), m
            assert len(codes) == 8 * m
        if m >= 5:
            codes = _row_codes("WStar", m)
            assert codes == _rule_codes(2 * m, ref.outside_w_star, m), m
            assert len(codes) == 18 * m


def test_a_negative_id_is_foreign():
    """A negative id is a vertex outside the host, like an id above it: its
    arcs are extra and the host arcs it stands for are missing, in the
    kernel and in the reference alike, with byte and with wide tables.  A
    factor naming -1 in place of N - 1 has N tails that would fill every
    slot of a table indexed from its end; the unsigned wide table refuses
    -1 as a head, so the factor does not span."""
    ftype = parse_cycle_type("[2,2]")
    for n in (4, 258):
        host = HostDescriptor("CompleteSymmetric", n)
        for foreign in (-1, n + 1):
            factors = [[[0, foreign]], [[1, 2]]]
            report = verify_id_factorization(host, factors, ftype)
            detail = f"missing {n * (n - 1) - 2}, extra 2"
            assert report.checks[1] == ("coverage", False, detail)
            assert report.checks == ref.verify_id_factorization(
                "CompleteSymmetric", n, factors, ftype
            ).checks
    for n in (10, 258):
        host = HostDescriptor("CompleteSymmetric", n)
        factors = _shift_factors(n)
        factors[0] = [[*range(n - 1), -1]]
        ftype = CycleType([n])
        report = verify_id_factorization(host, factors, ftype)
        assert report.checks[2] == ("spanning", False, "non-spanning factors: [0]")
        assert report.checks == ref.verify_id_factorization(
            "CompleteSymmetric", n, factors, ftype
        ).checks


def test_a_host_with_no_arc_rule_is_refused():
    """The opened host and an unknown kind have no rule to count against:
    the check raises, as it always has, whatever the factors."""
    ftype = parse_cycle_type("[10]")
    for kind in ("JStar", "Nowhere"):
        host = HostDescriptor(kind, 3)
        for factors in ([], [[list(range(10))]]):
            with pytest.raises(ValueError, match=f"no arc rule for host kind '{kind}'"):
                verify_id_factorization(host, factors, ftype)


def _shift_factors(n):
    """The factorization of the complete host on ids 0..n-1 (any n >= 2)
    into the n - 1 shifts v -> v + d mod n, each as its gcd(n, d) cycles."""
    factors = []
    for d in range(1, n):
        g = math.gcd(n, d)
        factors.append([[(s + k * d) % n for k in range(n // g)] for s in range(g)])
    return factors


@functools.lru_cache(maxsize=None)
def _boundary(kind, size):
    """A factorization of a host of order near 256, where the kernel's
    tables change from bytes to ``array('I')``: the shifts on the complete
    host, the real W* and H* builds."""
    if kind == "CompleteSymmetric":
        return _shift_factors(size)
    ftype = parse_cycle_type(f"[4,{2 * size - 4}]")
    if kind == "HStar":
        return factorize_h_star(ftype, size).id_factors
    return tuple(w_star_id_factors(ftype))


_BOUNDARY = [("CompleteSymmetric", n) for n in (255, 256, 257)] + [
    (kind, m) for kind in ("WStar", "HStar") for m in (127, 128, 129)
]
# corruptions after which every factor is still a permutation of the host
# ids, and ones after which some factor is not
_PERMUTING = ("swap", "duplicate", "drop", "reorder", "split")
_LOOSE = ("repeated_id", "foreign_id", "one_cycle", "empty_factor")


@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_the_kernel_matches_the_reference_across_widths(data):
    """On hosts of order 254 to 258, on both sides of the change from byte
    to wide tables, the check equals the reference, under corruptions that
    keep every factor a permutation and under ones that do not."""
    kind, size = data.draw(st.sampled_from(_BOUNDARY))
    host = HostDescriptor(kind, size)
    clean = _boundary(kind, size)
    ftype = CycleType(map(len, clean[0]))
    factors = [[list(c) for c in f] for f in clean]
    ops = data.draw(st.lists(st.sampled_from(_PERMUTING + _LOOSE), max_size=3))
    for op in ops:
        if not factors:
            break
        if op == "reorder":  # the factors shuffled, each cycle rotated
            factors = data.draw(st.permutations(factors))
            factors = [[c[1:] + c[:1] for c in f] for f in factors]
        elif op == "split":  # one cycle cut in two, down to 1-cycles
            f = factors[data.draw(st.integers(0, len(factors) - 1))]
            if not f:
                continue
            c = f.pop(data.draw(st.integers(0, len(f) - 1)))
            k = data.draw(st.integers(0, len(c)))
            f += [c[:k], c[k:]]  # an empty part is an empty cycle
        else:
            _corrupt(factors, op, data, host.order)
    expected = ref.verify_id_factorization(kind, size, factors, ftype).checks
    assert verify_id_factorization(host, factors, ftype).checks == expected


def _corrupted_copies(clean, order):
    """``clean`` itself, then one copy per kind of corruption, each made
    the same way every run: a swap, a dropped and a repeated factor, the
    factors reordered and rotated, a 1-cycle split off a cycle, a repeated
    id, an id above the host and a negative one, an empty factor."""
    copy = [[list(c) for c in f] for f in clean]
    yield copy
    swap = [[list(c) for c in f] for f in clean]
    c = max(swap[1], key=len)
    c[0], c[1] = c[1], c[0]
    yield swap
    yield copy[1:]
    yield [copy[0], *copy[:-1]]
    yield [[c[1:] + c[:1] for c in f] for f in reversed(copy)]
    split = [[list(c) for c in f] for f in clean]
    c = split[2].pop()
    split[2] += [c[:1], c[1:]]
    yield split
    for old, new in ((1, 0), (order - 1, order + 2), (order - 1, -1)):
        bad = [[list(c) for c in f] for f in clean]
        bad[-1] = [[new if v == old else v for v in c] for c in bad[-1]]
        yield bad
    yield [*copy, []]


@pytest.mark.parametrize(
    "kind, size, spec",
    [
        ("CompleteSymmetric", 1002, None),
        ("WStar", 1001, "[4,6,1992]"),
        ("HStar", 1001, "[2002]"),
    ],
)
def test_the_kernel_matches_the_reference_at_n_1002_and_2002(kind, size, spec):
    """Far above 256 ids, on the shifts of the complete host of order 1002
    and on W* and H* of order 2002, every kind of corruption gives the
    reference's report."""
    if kind == "CompleteSymmetric":
        clean = _shift_factors(size)
    elif kind == "WStar":
        clean = w_star_id_factors(parse_cycle_type(spec))
    else:
        clean = factorize_h_star(parse_cycle_type(spec), size).id_factors
    host = HostDescriptor(kind, size)
    ftype = CycleType(map(len, clean[0]))
    for factors in _corrupted_copies(clean, host.order):
        expected = ref.verify_id_factorization(kind, size, factors, ftype).checks
        assert verify_id_factorization(host, factors, ftype).checks == expected


def _redirect(cycles, v, w):
    """The permutation ``cycles`` with v sent to w: v and w's old tail swap
    heads, so the factor stays a permutation of the same ids."""
    succ = {a: b for c in cycles for a, b in zip(c, c[1:] + c[:1])}
    u = next(a for a, b in succ.items() if b == w)
    succ[v], succ[u] = w, succ[v]
    out = []
    while succ:
        c = [next(iter(succ))]
        while succ[c[-1]] != c[0]:
            c.append(succ.pop(c[-1]))
        succ.pop(c[-1])
        out.append(c)
    return out


def test_heads_in_the_utf16_surrogate_range_stay_distinct():
    """On H* of order 57,400, whose ids cover 0xD800..0xDFFF, one column
    holds the heads 0xD800 and 0xDC00 from two factors that are still
    permutations.  They are two vertices; a column read as UTF-16 text
    would pair them into one character and count one head."""
    m = 28700
    clean = factorize_h_star(parse_cycle_type(f"[4,{2 * m - 4}]"), m).id_factors
    ftype = CycleType(map(len, clean[0]))
    factors = [[list(c) for c in f] for f in clean]
    factors[0] = _redirect(factors[0], 7, 0xD800)
    factors[1] = _redirect(factors[1], 7, 0xDC00)
    expected = ref.verify_id_factorization("HStar", m, factors, ftype).checks
    report = verify_id_factorization(HostDescriptor("HStar", m), factors, ftype)
    assert report.checks == expected
    assert not report.passed and "spanning" not in dict(report.failures())


# hosts of at most 256 vertices, by a type to build or a boundary size:
# solves of the complete host, its shifts at 256, small and boundary W* and
# H* builds
_COLUMN_HOSTS = (
    ("CompleteSymmetric", "[4,6]"),
    ("CompleteSymmetric", "[2,4,6,94]"),
    ("CompleteSymmetric", "[4,250]"),
    ("CompleteSymmetric", 256),
    ("WStar", "[2,4,8]"),
    ("HStar", "[4,6,8]"),
    ("WStar", 127),
    ("HStar", 128),
)


@pytest.mark.parametrize("op", _CORRUPTIONS)
@settings(max_examples=25, deadline=None, database=None)
@given(data=st.data())
def test_the_column_kernel_decides_every_corruption(op, data):
    """Up to 256 vertices, on byte tables, the report equals the
    reference's, also for factors with foreign, negative or repeated ids,
    1-cycles and empty factors."""
    kind, spec = data.draw(st.sampled_from(_COLUMN_HOSTS))
    if isinstance(spec, int):
        size, clean = spec, _boundary(kind, spec)
    else:
        size, clean = _real(kind, spec)
    host = HostDescriptor(kind, size)
    ftype = CycleType(map(len, clean[0]))
    factors = [[list(c) for c in f] for f in clean]
    for extra in [op] + data.draw(st.lists(st.sampled_from(_CORRUPTIONS), max_size=2)):
        if factors:
            _corrupt(factors, extra, data, host.order)
    expected = ref.verify_id_factorization(kind, size, factors, ftype).checks
    assert verify_id_factorization(host, factors, ftype).checks == expected


@pytest.mark.parametrize(
    "n, spec", [(10, "[4,6]"), (38, "[38]"), (106, "[2,4,6,94]"), (254, "[4,250]")]
)
def test_the_column_kernel_decides_clean_solves_and_permuting_corruptions(n, spec):
    """A solve up to n = 254 passes its one check, the final one, on byte
    tables, and its swap, drop and duplicate corruptions fail that check."""
    ftype = parse_cycle_type(spec)
    factors = solve(n, ftype).id_factors
    host = HostDescriptor("CompleteSymmetric", n)
    assert verify_id_factorization(host, factors, ftype).passed
    swapped = [[list(c) for c in f] for f in factors]
    cycle = max(swapped[0], key=len)
    cycle[0], cycle[1] = cycle[1], cycle[0]
    for corrupted in (swapped, factors[1:], [factors[0], *factors[:-1]]):
        assert not verify_id_factorization(host, corrupted, ftype).passed
