"""The factorization checker and the host rules on id pairs as they were
written before the checker flattened each factor once and the rules became
code sets: one set update per cycle, and one Python loop per arc that
decodes each code and tests the rule.

The package no longer runs these; the tests keep them as the reference
that ``checker.verify_id_factorization`` must match check for check, with
byte and with wide tables, and that ``hosts.arc_codes`` must match pair
for pair.  An id
outside 0..N-1, a negative one too, names a vertex outside the host.
"""

from operator import add

from oberwolfach.checker import VerificationReport
from oberwolfach.core import cycle_type_text


def outside_j_star(pairs, m):
    """The J* id pairs (a, b) in ``pairs`` that are not arcs of J* on m
    blocks: both ids in 0..2m+3, and a rung (same block i, other
    side) with 1 <= i <= m, or a junction between blocks i and i+d,
    d in {1, 2}, with 0 <= i <= m-1 (any m >= 1)."""
    top = 2 * m + 4
    out = []
    for a, b in pairs:
        if 0 <= a < top and 0 <= b < top:
            i = a >> 1
            j = b >> 1
            if i == j:
                if a != b and 0 < i <= m:
                    continue
            elif -2 <= i - j <= 2 and (i < m or j < m):
                continue
        out.append((a, b))
    return out


def outside_w_star(pairs, m):
    """The host id pairs (a, b) in ``pairs`` that are not arcs of W* on m
    blocks (m >= 5): both ids below 2m, and a rung (same block, other
    side), or blocks differing by +-1 or +-2 mod m."""
    n = 2 * m
    steps = (1, 2, m - 2, m - 1)
    out = []
    for a, b in pairs:
        if 0 <= a < n and 0 <= b < n:
            step = (b - a) % m  # y_i = m + i, so this is the block difference
            if step == 0:
                if a != b:
                    continue
            elif step in steps:
                continue
        out.append((a, b))
    return out


def outside_h_star(pairs, m):
    """The host id pairs (a, b) in ``pairs`` that are not arcs of H* on m
    blocks (m >= 3): both ids below 2m, blocks differing by +-1 mod m."""
    n = 2 * m
    steps = (1, m - 1)
    out = []
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n and (b - a) % m in steps):
            out.append((a, b))
    return out


def _order_and_arcs(kind, size):
    """The host's vertex count and arc count, by arithmetic."""
    if kind == "CompleteSymmetric":
        return size, size * (size - 1)
    return 2 * size, (8 if kind == "HStar" else 18) * size


def _count_outside_codes(kind, size, codes):
    n, _ = _order_and_arcs(kind, size)
    if kind == "CompleteSymmetric":
        return len(codes.intersection(range(0, n * n, n + 1)))
    outside = outside_h_star if kind == "HStar" else outside_w_star
    return len(outside([divmod(c, n) for c in codes], size))


def _gather_foreign(cs, order, codes, pairs):
    for a, b in zip(cs, cs[1:] + cs[:1]):
        if 0 <= a < order and 0 <= b < order:
            codes.add(a * order + b)
        else:
            pairs.add((a, b))


def verify_id_factorization(kind, size, factors, ftype):
    """The report of the per-cycle checker on id factors of the host
    ``kind`` of size ``size``."""
    report = VerificationReport()
    order, arc_count = _order_and_arcs(kind, size)
    row = [a * order for a in range(order)].__getitem__
    codes = set()
    pairs = set()
    used = 0
    spanning = []
    wrong = []
    for i, cycles in enumerate(factors):
        lengths = list(map(len, cycles))
        size_i = sum(lengths)
        used += size_i
        named = set()
        for cs in cycles:
            named.update(cs)
        inside = not named or (min(named) >= 0 and max(named) < order)
        for cs in cycles:
            if inside:
                codes.update(map(add, map(row, cs), cs[1:] + cs[:1]))
            else:
                _gather_foreign(cs, order, codes, pairs)
        if size_i != order or len(named) != size_i or not inside:
            spanning.append(i)
        if tuple(sorted(lengths)) != ftype.lengths:
            wrong.append((i, cycle_type_text(lengths)))
    distinct = len(codes) + len(pairs)
    report.add("arc_disjoint", used == distinct, f"{used} arcs used, {distinct} distinct")
    outside = _count_outside_codes(kind, size, codes)
    extra = outside + len(pairs)
    missing = arc_count - (len(codes) - outside)
    report.add("coverage", missing == 0 and extra == 0, f"missing {missing}, extra {extra}")
    report.add("spanning", not spanning, f"non-spanning factors: {spanning}")
    report.add("cycle_type", not wrong, f"mismatches: {wrong}")
    return report
