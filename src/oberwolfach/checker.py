"""Independent verification of solver output, plus a brute-force oracle.

Every constructive routine in this package is re-checked from first
principles here: arc-disjointness, exact coverage, spanning, cycle types,
admissibility, boundary patterns, and the defining clauses of the cap and
centre-piece tables.

A factorization is checked by ``verify_id_factorization``, which sees only
vertex ids: each factor is a list of cycles, each cycle a sequence of ints
(a list, a tuple or ``bytes``), id i in 0..N-1 naming the host's vertex i
(``hosts.HostDescriptor`` numbering, N the order) and every other id,
negative ones too, a vertex outside the host.  It trusts nothing about
how the lists were made.  It reports four checks from four counts over
all factors: ``used`` arcs and ``distinct`` ones (disjoint when equal),
host arcs ``missing`` and ``extra`` arcs outside the host (coverage when
both are 0), plus the factors that do not span and those of the wrong
cycle type.  One kernel, ``_column_counts``, counts them at every order;
the order N picks only its table width.

A factor that is a permutation of 0..N-1 becomes its successor table,
the heads of ids 0..N-1 (``hosts.successor_table``): bytes up to N = 256,
an unsigned ``array('I')`` above.  Any other factor (a foreign, negative
or repeated id, a short or empty factor) is walked arc by arc, once: an
arc between host ids adds its head to column v of its tail v, and every
other arc goes into a set of (tail, head) pairs.  A permutation has
exactly one arc out of each v, to v's entry in its table, so column v of
the joined tables, with the loose heads, holds the head of every arc out
of v between host ids, with repeats.

The counts follow.  ``used`` counts every arc: N per permutation, a loose
factor's length.  v's distinct heads are the ids that deleting its column
from ``bytes(range(N))`` removes, or the size of the wide column's
``set``; ``distinct`` adds them up, and the pairs.  An arc out of v is
inside the host exactly when its head is one of v's out-neighbours: every
other id on the complete host, and on W* and H* the 9 or 4 heads of
``hosts.out_neighbour_bytes``, whose rows join that many successor
tables of 2m arcs each: the host's 18m or 8m arcs, its ``arc_count``.
The column misses N - 1 - distinct + (v in column) of the complete
host's arcs out of v, and the out-neighbours it lacks of a blow-up's;
those add up to ``missing``.  The distinct arcs inside then
number ``host.arc_count`` less ``missing``, and ``extra``, the distinct
arcs outside, is ``distinct`` less those.  A permutation spans, and a
loose factor does not: had it N distinct ids, all in 0..N-1, it would be
a permutation.  The cycle-type check compares each factor's sorted cycle
lengths with the type's.

Wide columns are read as ``set``s of ints; read as UTF-16 text, the heads
0xD800 and 0xDC00 would join into one character.  The kernel decides
a solve's one final check (and, only when that fails, the W* and H*
checks that name the broken stage) and ``verify`` on a described host.
It trusts no reader result: ``serialize.read_certificate`` has already
tested each byte factor with ``hosts.byte_permutation``, and
``successor_table`` makes the same test again, from the cycles the kernel
hands it, in the call that builds the table (about 3 ms of a ``certify``
benchmark pass), so that a fault in the reader cannot pass a
certificate.

Every host is a ``hosts.HostDescriptor``; no host arc set is built or
asked for.  ``solve`` builds its factors, and those of its W* and H*
stages, as such lists, and ``verify`` reads certificates straight into
them, into ``bytes`` cycles up to 256 vertices
(``serialize.read_certificate``), so all of them run the same core.
``verify_admissible_decomposition`` likewise checks a decomposition's J*
id cycles against the opened host's rule on ids, and
``verify_cap_complementarity`` checks the cap and centre tables' id paths
clause by clause, comparing their arc unions with the same rule by
counting.

The checker imports only ``core`` and ``hosts``, the numberings and rules
it judges by, and none of the modules that build what it judges; the
pieces and decompositions it is handed are read through their fields and
methods (``id_factors``, ``patterns``, ``internal_patterns``).

``brute_force_factorization`` is an exhaustive backtracking search over
the complete host of a tiny order, on its vertex ids, used to confirm
nonexistence claims and to cross-check the solver at order 6.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from typing import Iterable, NamedTuple, Optional

from .core import CycleType, canonical_id_cycles, cycle_type_text, id_arcs
from .hosts import (
    BOUNDARY,
    BYTE_IDS,
    HostDescriptor,
    _outside,
    admissible_ids,
    out_neighbour_bytes,
    successor_table,
)


class BudgetExceeded(RuntimeError):
    """Search stopped by its node budget; distinct from Nonexistent."""


class Nonexistent(NamedTuple):
    reason: str = ""


class VerificationReport:
    """The named checks of one verification, in order, as (name, ok,
    detail) triples; reports compare equal when their checks do."""

    __slots__ = ("checks",)

    def __init__(self, checks: Optional[list] = None) -> None:
        self.checks = [] if checks is None else checks

    def __eq__(self, other) -> bool:
        if not isinstance(other, VerificationReport):
            return NotImplemented
        return self.checks == other.checks

    def __repr__(self) -> str:
        return f"VerificationReport(checks={self.checks!r})"

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> list:
        return [(n, d) for n, ok, d in self.checks if not ok]

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": n, "ok": ok, "detail": d} for n, ok, d in self.checks
            ],
        }


def verify_id_factorization(
    host: HostDescriptor, factors: Iterable[list], ftype: CycleType
) -> VerificationReport:
    """Check that ``factors``, each a list of cycles given as sequences
    (lists, tuples or ``bytes``) of vertex ids, is an ftype-factorization of
    the described ``host``.

    Ids are integers; id i in 0..N-1 is the host's vertex i (N the order),
    and any other id, negative ones too, is a vertex outside it.  The arcs are
    counted by the column kernel (``_column_counts``); the module docstring
    says why its counts are the per-arc ones.  A host with no arc rule
    (``JStar``, an unknown kind) raises ``ValueError``.
    """
    return _report(*_column_counts(host, factors, list(ftype.lengths)))


def _add_arc_checks(report, used, distinct, missing, extra) -> None:
    """The ``arc_disjoint`` and ``coverage`` checks of four arc counts."""
    report.add(
        "arc_disjoint", used == distinct, f"{used} arcs used, {distinct} distinct"
    )
    report.add("coverage", missing == extra == 0, f"missing {missing}, extra {extra}")


def _report(used, distinct, missing, extra, spanning, wrong) -> VerificationReport:
    report = VerificationReport()
    _add_arc_checks(report, used, distinct, missing, extra)
    report.add("spanning", not spanning, f"non-spanning factors: {spanning}")
    report.add("cycle_type", not wrong, f"mismatches: {wrong}")
    return report


def _column_counts(host: HostDescriptor, factors: Iterable, want: list) -> tuple:
    """(used, distinct, missing, extra, spanning, wrong) of ``factors`` on a
    described host of order N, the cycle lengths compared with the sorted
    ``want``, counted as the module docstring says: each permutation's
    successor table (``successor_table``) is appended to ``grid``, whose
    column v, ``grid[v::N]``, gets ``loose[v]``, the heads of v's arcs in
    the other factors."""
    n = host.order
    arc_count = host.arc_count  # refuses a kind with no arc rule
    narrow = n <= BYTE_IDS
    ids = bytes(range(n)) if narrow else None
    grid = bytearray() if narrow else array("I")
    loose = None  # the heads of loose arcs by tail, once a loose factor is met
    pairs: set = set()
    used = 0
    spanning = []
    wrong = []
    for i, cycles in enumerate(factors):
        lengths = sorted(map(len, cycles))
        if lengths != want:
            wrong.append((i, cycle_type_text(lengths)))
        table = successor_table(cycles, n)
        if table is not None:
            grid += table
            used += n
            continue
        spanning.append(i)
        if loose is None:
            loose = [[] for _ in range(n)]
        tails, heads = id_arcs(cycles)
        used += len(tails)
        for a, b in zip(tails, heads):
            if 0 <= a < n and 0 <= b < n:
                loose[a].append(b)
            else:
                pairs.add((a, b))
    rows = None
    if host.kind != "CompleteSymmetric":
        rows = out_neighbour_bytes(host.kind, host.m_or_n)
    distinct = missing = 0
    for v in range(n):
        col = grid[v::n]
        if loose is not None:
            col.extend(loose[v])
        if narrow:  # the ids that deleting the column removes
            found = n - len(ids.translate(None, col))
        else:
            col = set(col)
            found = len(col)
        distinct += found
        if rows is None:  # every other id is an out-neighbour
            missing += n - 1 - found + (v in col)
        elif narrow:
            missing += len(rows[v].translate(None, col))
        else:
            missing += len(rows[v]) - len(col.intersection(rows[v]))
    # the distinct arcs inside the host number its arcs less the missing ones
    extra = distinct - (arc_count - missing) + len(pairs)
    return used, distinct + len(pairs), missing, extra, spanning, wrong


def verify_admissible_decomposition(
    m: int,
    dec,
    expected_patterns: Optional[tuple] = None,
) -> VerificationReport:
    """Check that ``dec`` (a ``tables.AdmissibleDecomposition``: ``m``,
    ``id_factors`` and ``patterns()``) has nine factors, cycles of J* ids,
    admissible on ``m`` blocks, that partition the arcs of the opened host:
    the distinct arcs, less those outside it (``hosts._outside``),
    must number its 18m arcs."""
    report = VerificationReport()
    factors = dec.id_factors
    report.add("nine_factors", len(factors) == 9, f"{len(factors)} factors")
    report.add("width", dec.m == m, f"declared {dec.m}, expected {m}")
    bad = [i for i, f in enumerate(factors) if not admissible_ids(f, m)]
    report.add("admissible", not bad, f"inadmissible factors: {bad}")
    arcs = [a for f in factors for a in zip(*id_arcs(f))]
    _add_arc_checks(report, *_opened_host_counts(arcs, m))
    if expected_patterns is not None:
        got = dec.patterns()
        diff = [
            i
            for i, (a, b) in enumerate(zip(got, tuple(expected_patterns)))
            if a != b
        ]
        report.add("pattern", not diff, f"pattern mismatch at entries {diff}")
    return report


def _opened_host_counts(arcs: list, m: int, plus=frozenset(), minus=frozenset()):
    """(used, distinct, missing, extra) of the J* id pairs ``arcs`` against
    the opened host on ``m`` blocks with the arcs ``plus`` (outside it)
    added and the arcs ``minus`` (inside it) taken away: an arc is extra
    when it is outside that host, and the distinct arcs less the extra ones
    number its 18m + |plus| - |minus| arcs less the missing ones."""
    union = set(arcs)
    extra = len(_outside(union - plus, m)) + len(union & minus)
    missing = 18 * max(m, 0) + len(plus) - len(minus) - (len(union) - extra)
    return len(arcs), len(union), missing, extra


def _is_opened_host(arcs: list, m: int, plus: set, minus: set) -> bool:
    """Whether the distinct J* id pairs ``arcs`` make up that host exactly."""
    used, distinct, missing, extra = _opened_host_counts(arcs, m, plus, minus)
    return used == distinct and missing == extra == 0


def verify_cap_complementarity(left, right, centre=None) -> VerificationReport:
    """Check every defining clause of the cap (and centre piece) tables:
    ``tables.LeftCap``, ``RightCap`` and ``CentrePiece`` pieces, whose paths
    and cycles are tuples of J* ids (vertex (s, j) is 2j + s)."""
    report = VerificationReport()
    x0y0 = {(0, 1)}

    # Left cap clauses.
    ell = left.ell
    seam = range(2 * ell, 2 * ell + 4)
    larcs: list = []
    ok = True
    for p in left.paths:
        larcs += zip(p, p[1:])
        if not (p[0] in seam and p[-1] in seam):
            ok = False
    report.add("left_endpoints", ok, "sources/terminals in the seam blocks")
    middles = set(range(4, 2 * ell))  # both sides of blocks 2..ell-1
    report.add("left_middles", all(middles <= set(p) for p in left.paths))
    report.add(
        "left_union",
        _is_opened_host(larcs, ell, set(), {(2 * ell, 2 * ell + 1)}),
        f"{len(larcs)} arcs vs {18 * ell - 1} expected",
    )

    # Right cap clauses.
    r = right.r
    middles = set(range(4, 2 * r))
    rarcs: list = []
    shapes_ok = True
    boundary_ok = True
    ends_ok = True
    middles_ok = True
    left_patterns = left.patterns()
    for idx, (path, cycles) in enumerate(right.elements):
        rarcs += zip(path, path[1:])
        rarcs += zip(*id_arcs(cycles))
        seen = set(path)
        for c in cycles:
            if seen.intersection(c):
                shapes_ok = False
            seen.update(c)
        if sorted(map(len, cycles)) != sorted(right.side_lengths):
            shapes_ok = False
        ext = left_patterns[idx]
        for inner in BOUNDARY:
            if (inner + 2 * r in seen) != (inner not in ext):
                boundary_ok = False
        if not (path[0] in BOUNDARY and path[-1] in BOUNDARY):
            ends_ok = False
        if not middles <= seen:
            middles_ok = False
    report.add("right_shapes", shapes_ok, "one path plus the declared side cycles")
    report.add("right_boundary", boundary_ok, "outer blocks complement the pattern")
    report.add("right_endpoints", ends_ok)
    report.add("right_middles", middles_ok)
    report.add(
        "right_union",
        _is_opened_host(rarcs, r, x0y0, set()),
        f"{len(rarcs)} arcs vs {18 * r + 1} expected",
    )

    # Matching seam patterns and the constant joined length.
    seams = left.internal_patterns()
    report.add(
        "patterns_match",
        seams == right.internal_patterns(),
        "left/right seam patterns",
    )
    m0s = {len(p) + len(e[0]) - 2 for p, e in zip(left.paths, right.elements)}
    report.add("m0_constant", len(m0s) == 1, f"m0 values {sorted(m0s)}")

    if centre is not None:
        c = centre.c
        carcs: list = []
        pair_ok = True
        length_ok = True
        ends_ok = True
        one_of_ok = True
        middles_ok = True
        for q, u in centre.pairs:
            carcs += zip(q, q[1:])
            carcs += zip(u, u[1:])
            if set(q) & set(u):
                pair_ok = False
            if len(q) + len(u) - 2 != 2 * c:
                length_ok = False
            # Q runs c blocks right from the boundary, U c blocks left to it,
            # each staying on its side
            if q[0] not in BOUNDARY or q[-1] != q[0] + 2 * c:
                ends_ok = False
            if u[0] - 2 * c not in BOUNDARY or u[-1] != u[0] - 2 * c:
                ends_ok = False
            present = set(q) | set(u)
            for w in BOUNDARY - {q[0], u[-1]}:
                if (w in present) == (w + 2 * c in present):
                    one_of_ok = False
            for v in range(4, 2 * c):  # both sides of blocks 2..c-1
                if (v in q) == (v in u):
                    middles_ok = False
        report.add("centre_disjoint_pairs", pair_ok)
        report.add("centre_lengths", length_ok, "len(Q)+len(U) = 2c")
        report.add("centre_endpoints", ends_ok)
        report.add("centre_one_of_pair", one_of_ok)
        report.add("centre_middles", middles_ok)
        report.add(
            "centre_union",
            _is_opened_host(carcs, c, x0y0, {(2 * c, 2 * c + 1)}),
            f"{len(carcs)} arcs vs {18 * c} expected",
        )
        report.add(
            "centre_patterns_match",
            centre.internal_patterns() == seams,
            "centre seam patterns",
        )
    return report


# ---------------------------------------------------------------------------
# Exhaustive oracle


def factors_through_arc(codes: frozenset, n: int, lengths: tuple, first: int):
    """Yield every spanning 2-regular subdigraph of the arcs ``codes``
    (codes a*n + b of ids 0..n-1) with the given cycle-length multiset that
    uses the arc of code ``first``, as a list of id cycles (tuples).

    Each factor is produced exactly once: the cycle through ``first`` comes
    first, rooted at its tail, and every other cycle at its least uncovered
    id.
    """
    if sum(lengths) != n or first not in codes:
        return
    adj = [[] for _ in range(n)]  # each id's heads, ascending
    for a, b in sorted(map(divmod, codes, repeat(n))):
        adj[a].append(b)
    ids = frozenset(range(n))

    def grow(path: list, target_len: int, used: set, rest: tuple, cycles: list):
        v = path[-1]
        if len(path) == target_len:
            if v * n + path[0] in codes:
                yield from next_cycle(used, rest, cycles + [tuple(path)])
            return
        for w in adj[v]:
            if w in used:
                continue
            used.add(w)
            path.append(w)
            yield from grow(path, target_len, used, rest, cycles)
            path.pop()
            used.remove(w)

    def next_cycle(used: set, rest: tuple, cycles: list):
        if not rest:
            if len(used) == n:
                yield cycles
            return
        anchor = min(ids - used)
        for length in sorted(set(rest)):
            remaining = list(rest)
            remaining.remove(length)
            used.add(anchor)
            yield from grow([anchor], length, used, tuple(remaining), cycles)
            used.remove(anchor)

    tail, head = divmod(first, n)
    for length in sorted(set(lengths)):
        remaining = list(lengths)
        remaining.remove(length)
        yield from grow([tail, head], length, {tail, head}, tuple(remaining), [])


ORACLE_BUDGET = 2_000_000  # the oracle's node budget
ORACLE_MAX_ORDER = 10  # the largest order it searches


def brute_force_factorization(n: int, ftype: CycleType):
    """Exhaustive search for an ftype-factorization of the complete
    symmetric digraph of a tiny order ``n``, on its vertex ids
    (``hosts.HostDescriptor`` numbering, which is the vertices' sort order)
    and its arcs as codes a*n + b.

    Returns the factors, each a tuple of id cycles in canonical form
    (``core.canonical_id_cycles``), on success and ``Nonexistent`` only
    after the whole search space is exhausted.  Raises BudgetExceeded if
    ``ORACLE_BUDGET`` nodes do not suffice.

    Each search node takes the least arc left, ``first``, and tries every
    factor through it (``factors_through_arc``).  At the root only one
    factor per orbit of the stabiliser of first's two ends (every
    permutation of the other vertices) is tried: the first one enumerated
    with each length L of the cycle through ``first``.  That loses nothing.
    Two factors through ``first`` of the same type whose cycle through it
    has the same length are mapped onto each other by a permutation fixing
    first's ends (cycle onto cycle, position by position, the first cycles
    from their tails).  Such a permutation is an automorphism of the
    complete host, so it maps a factorization whose factor through
    ``first`` is F onto one whose factor through ``first`` is the
    representative of F's orbit.  Hence the root has a factor that extends
    to a factorization exactly when a representative does, and the first
    root factor that extends, in enumeration order, is the first of its
    orbit: the search returns the same factorization as without the
    reduction, after fewer nodes.
    """
    HostDescriptor("CompleteSymmetric", n)  # refuses n < 2, as the builder does
    if n > ORACLE_MAX_ORDER:
        raise ValueError(f"host too large for the oracle ({n} > {ORACLE_MAX_ORDER})")
    if ftype.order != n:
        raise ValueError(f"type order {ftype.order} != host order {n}")
    nodes = 0

    def search(remaining: frozenset, acc: list):
        nonlocal nodes
        nodes += 1
        if nodes > ORACLE_BUDGET:
            raise BudgetExceeded(f"oracle budget {ORACLE_BUDGET} exhausted")
        if not remaining:
            return list(acc)
        tried: set = set()  # root orbits tried, by the length through first
        for cycles in factors_through_arc(remaining, n, ftype.lengths, min(remaining)):
            if not acc:
                if len(cycles[0]) in tried:
                    continue
                tried.add(len(cycles[0]))
            tails, heads = id_arcs(cycles)
            used = frozenset(a * n + b for a, b in zip(tails, heads))
            result = search(remaining - used, acc + [canonical_id_cycles(cycles)])
            if result is not None:
                return result
        return None

    arcs = frozenset(a * n + b for a in range(n) for b in range(n) if a != b)
    result = search(arcs, [])
    if result is None:
        return Nonexistent(f"exhaustive search over {nodes} nodes")
    return result
