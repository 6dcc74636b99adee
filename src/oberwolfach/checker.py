"""Independent verification of solver output, plus a brute-force oracle.

Every constructive routine in this package is re-checked from first
principles here: arc-disjointness, exact coverage, spanning, cycle types,
admissibility, boundary patterns, and the defining clauses of the cap and
centre-piece tables.

A factorization is checked by ``verify_id_factorization``, which sees only
vertex ids: each factor is a list of cycles, each cycle a list of ints, id i
< N naming the host's vertex i (``hosts.HostDescriptor`` numbering, N the
order) and ids >= N vertices outside the host.  It trusts nothing about how
the lists were made.  Every arc between host ids is encoded as one integer
a*N + b, so the arcs of all factors are gathered into one set of ints; an
arc touching an id >= N goes into a small separate set of pairs.  Coverage
is arc arithmetic -- the factors' distinct arcs, less those outside the
host, must number the host's arcs -- so no host arc set is materialised.  A
factor spans when its length is N, it names no id >= N, and its ids are
distinct, counted by one set per factor; so spanning no longer rests on the
cycle and factor constructors having refused repeated or shared vertices.
``solve``, the W* check and the H* self-check build their factors as such
lists and ``verify`` reads certificates straight into them
(``serialize.read_certificate``); ``verify_factorization`` is the adapter
for library callers holding ``TwoRegularDigraph`` objects, so all of them
run the same core.  ``verify_admissible_decomposition`` likewise checks a
decomposition's J* id cycles against the opened host's rule on ids.

``brute_force_factorization`` is an exhaustive backtracking search over
tiny hosts, used to confirm nonexistence claims and to cross-check the
solver at order 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add
from typing import Iterable, Optional, Union

from .caps import (
    BOUNDARY,
    AdmissibleDecomposition,
    CentrePiece,
    LeftCap,
    RightCap,
    admissible_ids,
    internal_patterns,
    left_cap_patterns,
)
from .core import (
    Arc,
    CycleType,
    Digraph,
    DirectedCycle,
    TwoRegularDigraph,
    Vertex,
    cycle_type_text,
)
from .hosts import HostDescriptor, _j_arcs, _outside_j_star


class BudgetExceeded(RuntimeError):
    """Search stopped by its node budget; distinct from Nonexistent."""


@dataclass(frozen=True)
class Nonexistent:
    reason: str = ""


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)  # (name, ok, detail)

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

    def __str__(self) -> str:
        lines = [f"passed={self.passed}"]
        for n, ok, d in self.checks:
            lines.append(f"  [{'ok' if ok else 'FAIL'}] {n}" + (f": {d}" if d else ""))
        return "\n".join(lines)


def verify_factorization(
    host: Union[HostDescriptor, Digraph],
    factors: Iterable[TwoRegularDigraph],
    ftype: CycleType,
) -> VerificationReport:
    """Check that ``factors`` is an ftype-factorization of ``host``: each
    factor's cycles are mapped through ``host.vertex_ids`` (a vertex outside
    the host to an id >= N, one per distinct vertex) and judged by
    :func:`verify_id_factorization`."""
    ids = host.vertex_ids
    foreign: dict = {}

    def vid(v) -> int:
        i = ids.get(v)
        return foreign.setdefault(v, len(ids) + len(foreign)) if i is None else i

    def id_cycles(f: TwoRegularDigraph) -> list:
        out = []
        for c in f.cycles:
            vs = c.vertices
            try:
                out.append(list(map(ids.__getitem__, vs)))
            except KeyError:
                out.append(list(map(vid, vs)))
        return out

    return verify_id_factorization(host, map(id_cycles, factors), ftype)


def verify_id_factorization(
    host: Union[HostDescriptor, Digraph],
    factors: Iterable[list],
    ftype: CycleType,
) -> VerificationReport:
    """Check that ``factors``, each a list of cycles given as lists of
    vertex ids, is an ftype-factorization of ``host``.

    ``host`` is a ``HostDescriptor`` or a built ``Digraph``: only its order
    N, ``len(host.arcs)`` and ``host.count_outside_codes`` are used, so the
    host's arc set is never built or copied here.  Ids are non-negative; id
    i < N is the host's vertex i, and ids >= N are vertices outside it.
    Each arc (a, b) between host ids is gathered as the code a*N + b, and
    each arc touching another id as an (a, b) pair; the arcs are disjoint
    when the distinct ones number the total cycle length, and they cover the
    host when none is outside it and the distinct ones number
    ``len(host.arcs)``.  A factor spans when its length and its count of
    distinct ids are both N and every id is below N.
    """
    report = VerificationReport()
    order = len(host.vertices)
    row = [a * order for a in range(order)].__getitem__
    codes: set = set()
    pairs: set = set()
    used = 0
    spanning = []
    wrong = []
    for i, cycles in enumerate(factors):
        lengths = list(map(len, cycles))
        size = sum(lengths)
        used += size
        named: set = set()
        for cs in cycles:
            named.update(cs)
        inside = not named or max(named) < order
        for cs in cycles:
            if inside:
                codes.update(map(add, map(row, cs), cs[1:] + cs[:1]))
            else:
                _gather_foreign(cs, order, codes, pairs)
        if size != order or len(named) != size or not inside:
            spanning.append(i)
        if tuple(sorted(lengths)) != ftype.lengths:
            wrong.append((i, cycle_type_text(lengths)))
    distinct = len(codes) + len(pairs)
    report.add(
        "arc_disjoint",
        used == distinct,
        f"{used} arcs used, {distinct} distinct",
    )
    outside = host.count_outside_codes(codes)
    extra = outside + len(pairs)
    missing = len(host.arcs) - (len(codes) - outside)
    report.add(
        "coverage",
        missing == 0 and extra == 0,
        f"missing {missing}, extra {extra}",
    )
    report.add("spanning", not spanning, f"non-spanning factors: {spanning}")
    report.add("cycle_type", not wrong, f"mismatches: {wrong}")
    return report


def _gather_foreign(cs: list, order: int, codes: set, pairs: set) -> None:
    """Add the arcs of cycle ``cs``, which may name ids >= ``order``: arcs
    between host ids as codes, the others as (tail, head) pairs."""
    for a, b in zip(cs, cs[1:] + cs[:1]):
        if a < order and b < order:
            codes.add(a * order + b)
        else:
            pairs.add((a, b))


def verify_admissible_decomposition(
    m: int,
    dec: AdmissibleDecomposition,
    expected_patterns: Optional[tuple] = None,
) -> VerificationReport:
    """Check that ``dec``'s nine factors, cycles of J* ids, are admissible
    on ``m`` blocks and partition the arcs of the opened host: the distinct
    arcs, less those outside it (``hosts._outside_j_star``), must number
    its 18m arcs."""
    report = VerificationReport()
    factors = dec.id_factors
    report.add("nine_factors", len(factors) == 9, f"{len(factors)} factors")
    report.add("width", dec.m == m, f"declared {dec.m}, expected {m}")
    bad = [i for i, f in enumerate(factors) if not admissible_ids(f, m)]
    report.add("admissible", not bad, f"inadmissible factors: {bad}")
    all_arcs = [a for f in factors for c in f for a in zip(c, c[1:] + c[:1])]
    union = set(all_arcs)
    extra = len(_outside_j_star(union, m))
    missing = 18 * max(m, 0) - (len(union) - extra)
    report.add(
        "arc_disjoint",
        len(all_arcs) == len(union),
        f"{len(all_arcs)} arcs used, {len(union)} distinct",
    )
    report.add(
        "coverage",
        missing == 0 and extra == 0,
        f"missing {missing}, extra {extra}",
    )
    if expected_patterns is not None:
        got = dec.patterns()
        diff = [
            i
            for i, (a, b) in enumerate(zip(got, tuple(expected_patterns)))
            if a != b
        ]
        report.add("pattern", not diff, f"pattern mismatch at entries {diff}")
    return report


def verify_cap_complementarity(
    left: LeftCap, right: RightCap, centre: Optional[CentrePiece] = None
) -> VerificationReport:
    """Check every defining clause of the cap (and centre piece) tables."""
    report = VerificationReport()
    x0y0 = Arc(Vertex("x", 0), Vertex("y", 0))

    # Left cap clauses.
    ell = left.ell
    seam = {Vertex(s, ell + j) for s in "xy" for j in (0, 1)}
    larcs: list = []
    ok = True
    for p in left.paths:
        larcs.extend(p.arcs())
        if not (p.source in seam and p.terminal in seam):
            ok = False
    report.add("left_endpoints", ok, "sources/terminals in the seam blocks")
    middles_ok = all(
        {Vertex("x", j), Vertex("y", j)} <= set(p.vertices)
        for p in left.paths
        for j in range(2, ell)
    )
    report.add("left_middles", middles_ok)
    expected_left = set(_j_arcs(ell)) - {Arc(Vertex("x", ell), Vertex("y", ell))}
    report.add(
        "left_union",
        len(larcs) == len(set(larcs)) and set(larcs) == expected_left,
        f"{len(larcs)} arcs vs {len(expected_left)} expected",
    )

    # Right cap clauses.
    r = right.r
    rarcs: list = []
    shapes_ok = True
    boundary_ok = True
    ends_ok = True
    middles_ok = True
    for idx, (path, cycles) in enumerate(right.elements):
        rarcs.extend(path.arcs())
        seen = set(path.vertices)
        for c in cycles:
            rarcs.extend(c.arcs())
            if set(c.vertices) & seen:
                shapes_ok = False
            seen.update(c.vertices)
        if tuple(sorted(c.length for c in cycles)) != tuple(
            sorted(right.side_lengths)
        ):
            shapes_ok = False
        ext = left_cap_patterns(left)[idx]
        for side, j in (("x", 0), ("x", 1), ("y", 0), ("y", 1)):
            inner = Vertex(side, j)
            outer = Vertex(side, r + j)
            if (outer in seen) != (inner not in ext):
                boundary_ok = False
        if not (path.source in set(BOUNDARY) and path.terminal in set(BOUNDARY)):
            ends_ok = False
        for j in range(2, r):
            if not {Vertex("x", j), Vertex("y", j)} <= seen:
                middles_ok = False
    report.add("right_shapes", shapes_ok, "one path plus the declared side cycles")
    report.add("right_boundary", boundary_ok, "outer blocks complement the pattern")
    report.add("right_endpoints", ends_ok)
    report.add("right_middles", middles_ok)
    expected_right = set(_j_arcs(r)) | {x0y0}
    report.add(
        "right_union",
        len(rarcs) == len(set(rarcs)) and set(rarcs) == expected_right,
        f"{len(rarcs)} arcs vs {len(expected_right)} expected",
    )

    # Matching seam patterns and the constant joined length.
    report.add(
        "patterns_match",
        internal_patterns(left) == internal_patterns(right),
        "left/right seam patterns",
    )
    m0s = {
        left.paths[i].length + right.elements[i][0].length for i in range(9)
    }
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
            carcs.extend(q.arcs())
            carcs.extend(u.arcs())
            if set(q.vertices) & set(u.vertices):
                pair_ok = False
            if q.length + u.length != 2 * c:
                length_ok = False
            if q.source not in set(BOUNDARY):
                ends_ok = False
            if q.terminal != Vertex(q.source.side, q.source.index + c):
                ends_ok = False
            if u.source not in {Vertex(s, c + j) for s in "xy" for j in (0, 1)}:
                ends_ok = False
            if u.terminal != Vertex(u.source.side, u.source.index - c):
                ends_ok = False
            present = set(q.vertices) | set(u.vertices)
            for w in BOUNDARY:
                if w in (q.source, u.terminal):
                    continue
                far = Vertex(w.side, w.index + c)
                if (w in present) == (far in present):
                    one_of_ok = False
            for j in range(2, c):
                for s in "xy":
                    if (Vertex(s, j) in set(q.vertices)) == (
                        Vertex(s, j) in set(u.vertices)
                    ):
                        middles_ok = False
        report.add("centre_disjoint_pairs", pair_ok)
        report.add("centre_lengths", length_ok, "len(Q)+len(U) = 2c")
        report.add("centre_endpoints", ends_ok)
        report.add("centre_one_of_pair", one_of_ok)
        report.add("centre_middles", middles_ok)
        expected_centre = (set(_j_arcs(c)) | {x0y0}) - {
            Arc(Vertex("x", c), Vertex("y", c))
        }
        report.add(
            "centre_union",
            len(carcs) == len(set(carcs)) and set(carcs) == expected_centre,
            f"{len(carcs)} arcs vs {len(expected_centre)} expected",
        )
        report.add(
            "centre_patterns_match",
            internal_patterns(centre) == internal_patterns(left),
            "centre seam patterns",
        )
    return report


# ---------------------------------------------------------------------------
# Exhaustive oracle


def _adjacency(arcs: Iterable[Arc]) -> dict:
    adj: dict = {}
    for a in arcs:
        adj.setdefault(a.tail, set()).add(a.head)
    return adj


def factors_through_arc(
    arcs: frozenset, vertices: frozenset, lengths: tuple, first: Arc
):
    """Yield every spanning 2-regular subdigraph of the given arc set with
    the given cycle-length multiset that uses ``first``.

    Each factor is produced exactly once: the cycle through ``first`` is
    rooted at its tail, every other cycle at its least uncovered vertex.
    """
    adj = _adjacency(arcs)
    n = len(vertices)
    if sum(lengths) != n:
        return

    def distinct(ls: tuple):
        return sorted(set(ls))

    def grow(path: list, target_len: int, used: set, rest: tuple, cycles: list):
        v = path[-1]
        if len(path) == target_len:
            if path[0] in adj.get(v, ()):
                yield from next_cycle(used, rest, cycles + [tuple(path)])
            return
        for w in sorted(adj.get(v, ())):
            if w in used:
                continue
            # anchoring: later cycles must start at the least vertex they use
            if cycles and w < path[0]:
                continue
            used.add(w)
            path.append(w)
            yield from grow(path, target_len, used, rest, cycles)
            path.pop()
            used.remove(w)

    def next_cycle(used: set, rest: tuple, cycles: list):
        if not rest:
            if len(used) == n:
                yield [DirectedCycle(c) for c in cycles]
            return
        anchor = min(vertices - used)
        for length in distinct(rest):
            remaining = list(rest)
            remaining.remove(length)
            used.add(anchor)
            yield from grow([anchor], length, used, tuple(remaining), cycles)
            used.remove(anchor)

    tail, head = first
    if tail not in vertices or head not in adj.get(tail, ()):
        return
    for length in distinct(lengths):
        remaining = list(lengths)
        remaining.remove(length)
        used = {tail, head}
        yield from grow([tail, head], length, used, tuple(remaining), [])


def brute_force_factorization(
    host: Digraph, ftype: CycleType, budget: int = 2_000_000, cap: int = 10
):
    """Exhaustive search for an ftype-factorization of a tiny host.

    Returns a list of TwoRegularDigraph on success and ``Nonexistent`` only
    after the whole search space is exhausted.  Raises BudgetExceeded if the
    node budget runs out first.

    Each search node takes the least arc left, ``first``, and tries every
    factor through it (``factors_through_arc``).  At the root of a complete
    host only one factor per orbit of the stabiliser of first's two ends
    (every permutation of the other vertices) is tried: the first one
    enumerated with each length L of the cycle through ``first``.  That
    loses nothing.  Two factors through ``first`` of the same type whose
    cycle through it has the same length are mapped onto each other by a
    permutation fixing first's ends (cycle onto cycle, position by
    position, the first cycles from their tails).  Such a permutation is an
    automorphism of the complete host, so it maps a factorization whose
    factor through ``first`` is F onto one whose factor through ``first``
    is the representative of F's orbit.  Hence the root has a factor that
    extends to a factorization exactly when a representative does, and the
    first root factor that extends, in enumeration order, is the first of
    its orbit: the search returns the same factorization as without the
    reduction, after fewer nodes.
    """
    order = len(host.vertices)
    if order > cap:
        raise ValueError(f"host too large for the oracle ({order} > {cap})")
    if ftype.order != order:
        raise ValueError(f"type order {ftype.order} != host order {order}")
    complete = len(host.arcs) == order * (order - 1)
    nodes = 0

    def search(remaining: frozenset, acc: list):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"oracle budget {budget} exhausted")
        if not remaining:
            return list(acc)
        first = min(remaining)
        tried: set = set()  # root orbits tried, by the length through first
        for cycles in factors_through_arc(
            remaining, host.vertices, ftype.lengths, first
        ):
            if complete and not acc:
                if cycles[0].length in tried:
                    continue
                tried.add(cycles[0].length)
            factor = TwoRegularDigraph(cycles)
            result = search(remaining - factor.arcs(), acc + [factor])
            if result is not None:
                return result
        return None

    result = search(frozenset(host.arcs), [])
    if result is None:
        return Nonexistent(f"exhaustive search over {nodes} nodes")
    return result
