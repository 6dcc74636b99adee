"""The per-factor checker kernel and the host rules' code sets against the
per-cycle, per-arc reference in ``reference_checker.py``."""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_checker as ref
from oberwolfach.caps import w_star_id_factors
from oberwolfach.checker import verify_id_factorization
from oberwolfach.core import parse_cycle_type
from oberwolfach.hosts import (
    HostDescriptor,
    arc_codes,
    complete_symmetric,
    h_star,
    w_star,
)
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
_BUILDERS = {"CompleteSymmetric": complete_symmetric, "HStar": h_star, "WStar": w_star}


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


@functools.lru_cache(maxsize=None)
def _built(kind, size):
    return _BUILDERS[kind](size)


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
    elif op == "foreign_id":
        c[k] = order + data.draw(st.integers(0, 3))
    elif data.draw(st.booleans()):  # one_cycle: a cycle cut to one id
        del c[1:]
    else:  # one_cycle: a lone id added as a cycle of its own
        cycles.append([c[k]])


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_kernel_matches_the_per_cycle_reference(data):
    """On real factorizations of the complete host, W* and H* with random
    corruptions, the per-factor kernel gives the reference's checks, detail
    strings included, against the host's description and the built host."""
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
    assert verify_id_factorization(_built(kind, size), factors, ftype).checks == expected


def _rule_codes(width, outside, m):
    """Every code a * width + b, over all id pairs, that the reference rule
    counts as an arc."""
    pairs = [(a, b) for a in range(width) for b in range(width)]
    out = set(outside(pairs, m))
    return {a * width + b for a, b in pairs if (a, b) not in out}


def test_code_sets_equal_the_rules_to_41():
    """Each host's cached code set is its rule over every id pair, and has
    the host's arc count: J* for 1 <= m <= 41, H* from m = 3, W* from m = 5."""
    for m in range(1, 42):
        codes = arc_codes("JStar", m)
        assert codes == _rule_codes(2 * m + 4, ref.outside_j_star, m), m
        assert len(codes) == 18 * m
        if m >= 3:
            codes = arc_codes("HStar", m)
            assert codes == _rule_codes(2 * m, ref.outside_h_star, m), m
            assert len(codes) == 8 * m
        if m >= 5:
            codes = arc_codes("WStar", m)
            assert codes == _rule_codes(2 * m, ref.outside_w_star, m), m
            assert len(codes) == 18 * m
