"""Cap-and-splice machinery for admissible decompositions of the opened host.

An *admissible* 2-regular subdigraph of the opened host on blocks 0..m+1 has
order 2m, takes exactly one vertex from each boundary pair {x0,xm},
{x1,xm+1}, {y0,ym}, {y1,ym+1}, and therefore saturates every middle block
(``hosts.admissible_ids``).  Nine arc-disjoint admissible factors covering
all 18m arcs form an admissible decomposition; folding block indices mod m
turns such a decomposition into a 2-factorization of the circulant blow-up
host.

Decompositions are built from three kinds of nine-element path systems
(left caps, right caps, centre pieces; see :mod:`oberwolfach.tables`) glued
end to end with the index shift, and from splicing whole decompositions
whose boundary patterns agree entrywise.  The shapes the caps make are
read off ``tables.RIGHT_CAPS`` (``_family_of``), and a cycle's arcs are
``core.id_arcs``.

The build runs on J* ids (``hosts.strip_id``: block b, side s -> 2b + s),
so shifting by k blocks adds 2k.  The table pieces hold ids, and an
``AdmissibleDecomposition`` holds its factors as tuples of id cycles
(``id_factors``) and builds no vertex objects.

Check contract: every piece is checked once, where it is made, on ids.

* Table decompositions are checked factor by factor with
  ``admissible_ids`` when ``tables`` loads them (once per process, the
  loaders are cached).
* ``assemble`` runs the cap audit, ``checker.verify_cap_complementarity``,
  on its caps and centre piece, so the seam-pattern and constant-m0
  clauses are the audit's; it checks each factor's degrees, cycle type and
  admissibility, and ``general_factor`` its result's cycle types; it is
  memoised per type.
* ``_splice_all`` checks that every piece has the first piece's boundary
  patterns and that each final factor is admissible.  ``j_decompose``
  splices the flat list of pieces ``_decompose`` picks in one call, so no
  factor is checked twice.
* ``w_star_id_factors`` folds each factor to host ids in canonical form
  (``core.relabelled`` through ``hosts.fold_image``) and checks the nine
  folded factors together against the circulant blow-up
  host: arcs inside it, arc-disjoint and covering, spanning, and type.

Splice lemma: if A on a blocks and B on b blocks are admissible factors
with equal external patterns, then A plus B shifted by a is admissible on
a + b blocks.  A lies in blocks 0..a+1 and shifted B in a..a+b+1; in blocks
a and a+1 the pattern equality hands each boundary vertex to exactly one of
them, every arc stays in the larger opened host, and the new boundary
pairs take their first vertex from A and their second from B.  By
induction every prefix of a splice of admissible pieces with equal
patterns is admissible, so a splice of k pieces checks admissibility once
per factor, on the final factor, in time linear in its order.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from . import tables
from .checker import verify_cap_complementarity, verify_id_factorization
from .core import CycleType, id_arcs, relabelled
from .hosts import HostDescriptor, admissible_ids, fold_image
from .tables import AdmissibleDecomposition, CentrePiece, LeftCap, RightCap


def _chain_centre(piece: CentrePiece, k: int, at: int = 0) -> list:
    """The id paths (Q, U) of ``k`` >= 1 chained copies of a length-4 centre
    piece, placed ``at`` ids along the strip.

    Copy j of Q is shifted by 4j blocks (8j in ids) and starts where copy
    j-1 ends, so each Q must end four blocks after it starts,
    t(Q) = s(Q)+4; U runs the other way, t(U) = s(U)-4.  Those endpoints
    are the audit's ``centre_endpoints`` clause, which ``assemble`` runs
    first.  Each chained id list is built once; no id may repeat in Q and U
    together, which checks that the copies meet only at their junctions and
    that Q and U are disjoint.  One copy is the piece itself, unchecked."""
    if piece.c != 4:
        raise ValueError("only length-4 centre pieces are chained")
    if k == 1:
        return [(_shifted(q, at), _shifted(u, at)) for q, u in piece.pairs]
    pairs = []
    for q, u in piece.pairs:
        big_q = list(_shifted(q, at))
        for step in range(1, k):
            big_q += _shifted(q[1:], at + 8 * step)
        big_u = list(_shifted(u, at + 8 * (k - 1)))
        for step in range(k - 2, -1, -1):
            big_u += _shifted(u[1:], at + 8 * step)
        if len({*big_q, *big_u}) != len(big_q) + len(big_u):
            raise ValueError("chained centre paths repeat or share a vertex")
        pairs.append((big_q, big_u))
    return pairs


def _shifted(ids, by: int) -> tuple:
    """The J* ids ``ids`` moved ``by`` ids along the strip (2 per block);
    every shift made while chaining and splicing goes through here."""
    return tuple([v + by for v in ids])


def _cycles_of(arcs: list) -> tuple:
    """The cycles, as id tuples, of the (tail, head) id pairs ``arcs``,
    which must give every vertex they name one out-arc and one in-arc."""
    succ = dict(arcs)
    if len(succ) != len(arcs) or set(succ.values()) != succ.keys():
        raise ValueError("the arcs are not a union of vertex-disjoint cycles")
    cycles = []
    seen: set = set()
    for start in succ:
        if start not in seen:
            walk = [start]
            while succ[walk[-1]] != start:
                walk.append(succ[walk[-1]])
            seen.update(walk)
            cycles.append(tuple(walk))
    return tuple(cycles)


def assemble(
    left: LeftCap,
    centre: Optional[CentrePiece],
    k: int,
    right: RightCap,
) -> AdmissibleDecomposition:
    """Glue left cap + k centre blocks + right cap into a decomposition.

    Factor i is the arc union of the left path, the chained centre pair
    shifted by ell blocks, and the right element shifted by ell + 4k
    blocks, all in J* ids; the result is an admissible decomposition of the
    opened host on ell + 4k + r blocks whose factor i is one cycle of length
    m0 + 8k (m0 = len(L_i) + len(P_i)) together with the right cap's side
    cycles.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > 0 and centre is None:
        raise ValueError("k > 0 requires a centre piece")
    audit = verify_cap_complementarity(left, right, centre)
    if not audit.passed:
        raise ValueError(f"the pieces fail the cap audit: {audit.failures()}")
    m0 = len(left.paths[0]) + len(right.elements[0][0]) - 2  # constant, audited
    chained = _chain_centre(centre, k, 2 * left.ell) if k > 0 else [()] * 9
    m = left.ell + 4 * k + right.r
    expected = CycleType([m0 + 8 * k, *right.side_lengths])
    right_at = 2 * (left.ell + 4 * k)
    factors = []
    for i, (path, (rpath, rcycles)) in enumerate(
        zip(left.paths, right.elements), 1
    ):
        arcs = list(zip(path, path[1:]))
        for p in chained[i - 1]:
            arcs += zip(p, p[1:])
        rpath = _shifted(rpath, right_at)
        arcs += zip(rpath, rpath[1:])
        arcs += zip(*id_arcs([_shifted(c, right_at) for c in rcycles]))
        factor = _cycles_of(arcs)
        got = CycleType(map(len, factor))
        if got != expected:
            raise ValueError(f"factor {i} has type {got}, wanted {expected}")
        if not admissible_ids(factor, m):
            raise ValueError(f"factor {i} is not admissible")
        factors.append(factor)
    return AdmissibleDecomposition(m, tuple(factors))


# side cycles -> (family, least anchor, anchor per s mod 4), read off
# ``tables.RIGHT_CAPS``, which keys a family's caps by the least s of each
# class mod 4
_CAP_FAMILIES = {
    sides: (family, anchor, {a % 4: a for f, a in tables.RIGHT_CAPS if f == family})
    for (family, anchor), (_, sides, _) in tables.RIGHT_CAPS.items()
    if anchor == min(a for f, a in tables.RIGHT_CAPS if f == family)
}


def _family_of(lengths: tuple):
    """(family, s) when the sorted ``lengths`` are a cap family's side
    cycles and one longest cycle of length 2s (or 2s + 1) with s at least
    the family's least anchor (``_CAP_FAMILIES``); None otherwise."""
    fit = _CAP_FAMILIES.get(lengths[:-1]) if lengths else None
    if fit and fit[1] <= lengths[-1] // 2:
        return fit[0], lengths[-1] // 2
    return None


@lru_cache(maxsize=64)
def general_factor(ftype: CycleType) -> AdmissibleDecomposition:
    """Decomposition for one long cycle plus at most two short side cycles.

    Covers the shapes [2s] (s>=4), [2s,2] (s>=4), [2s,2,2] (s>=4) and
    [2s,4] (s>=5), via the embedded cap tables and centre chaining.  The
    result is immutable and checked when built, so it is memoised per type,
    like the tables it is built from.
    """
    fit = _family_of(ftype.lengths)
    if fit is None:
        raise ValueError(f"{ftype} is not a cap-family shape")
    family, s = fit
    # with s at least the family's least anchor, the one of s's class is <= s
    anchor = _CAP_FAMILIES[ftype.lengths[:-1]][2][s % 4]
    k = (s - anchor) // 4
    dec = assemble(
        tables.left_cap(),
        tables.centre_piece() if k > 0 else None,
        k,
        tables.right_cap(family, anchor),
    )
    if dec.cycle_types() != (ftype,) * 9:
        raise ValueError(f"assembled type mismatch for {ftype}")
    return dec


def _splice_all(decs: list) -> AdmissibleDecomposition:
    """Splice admissible pieces end to end in one pass: piece p shifted by
    the block count of the pieces before it, 2 per block in J* ids.

    Every piece must have the first piece's boundary patterns.  The pieces
    are admissible where they were made (see the module docstring), so by
    the splice lemma only each final factor is checked; ``admissible_ids``
    counts its distinct ids, so shifted pieces that overlap are refused.
    """
    if len(decs) == 1:
        return decs[0]
    pattern = decs[0].patterns()
    if any(d.patterns() != pattern for d in decs[1:]):
        raise ValueError("decompositions are not compatible (patterns differ)")
    offsets = []
    m = 0
    for d in decs:
        offsets.append(2 * m)
        m += d.m
    factors = []
    for j in range(9):
        cycles = []
        for d, offset in zip(decs, offsets):
            if offset:
                cycles += [_shifted(c, offset) for c in d.id_factors[j]]
            else:
                cycles += d.id_factors[j]
        if not admissible_ids(cycles, m):
            raise ValueError("spliced factor is not admissible")
        factors.append(tuple(cycles))
    return AdmissibleDecomposition(m, tuple(factors))


def j_decompose(ftype: CycleType) -> AdmissibleDecomposition:
    """Admissible decomposition of the opened host for any bipartite type of
    order >= 8 other than the all-2s type, with the shared boundary pattern."""
    if not ftype.is_bipartite():
        raise ValueError(f"{ftype} has an odd cycle length")
    if ftype.order % 2 != 0 or ftype.order < 8:
        raise ValueError(f"order {ftype.order} out of range (need >= 8)")
    if set(ftype.lengths) == {2}:
        raise ValueError("the all-2s type has no admissible decomposition here")
    dec = _splice_all(_decompose(ftype.lengths))
    if dec.patterns() != tables.X_PATTERN:
        raise ValueError("decomposition lost the shared boundary pattern")
    # sorted length tuples, compared without building a CycleType per factor
    if any(tuple(sorted(map(len, f))) != ftype.lengths for f in dec.id_factors):
        raise ValueError("decomposition has wrong cycle type")
    return dec


def _decompose(lengths: tuple) -> list:
    """The admissible pieces, in splice order, of a decomposition of type
    ``lengths``, as a flat list that ``j_decompose`` splices once.

    A type with a table or cap-family piece is that one piece.  Otherwise
    the smallest lengths are peeled off in heads, and each head goes back
    through here, where it is always one such piece: a lone length, [4, x],
    [2, x] or [2, 2, x] with x the next length, [2, 4, 4], [2, 2, 4, 4] or
    [2^3, 4].  Repeated [4, 4], [4^3] and [2^3] pieces are taken from the
    tables directly.  The empty type has no pieces, and the all-2s types,
    which ``j_decompose`` refuses, have no plan."""
    key = tuple(sorted(lengths))
    if not key:
        return []
    if key in tables.PIECES:
        return [tables.small_decomposition(key)]
    if _family_of(key) is not None:
        return [general_factor(CycleType(key))]

    smallest = key[0]
    mult = key.count(smallest)
    rest = key[mult:]

    if smallest >= 6:
        return [piece for x in key for piece in _decompose((x,))]

    if smallest == 4:
        if mult == 1:
            # one 4-cycle: peel a [4, next] brick
            return _decompose(key[:2]) + _decompose(key[2:])
        # two or more 4-cycles: 2*beta + 3*gamma copies
        gamma, beta = (1, (mult - 3) // 2) if mult % 2 else (0, mult // 2)
        decs = [tables.small_decomposition((4, 4))] * beta
        decs += [tables.small_decomposition((4, 4, 4))] * gamma
        return decs + _decompose(rest)

    # smallest == 2: [2^3] pieces, and the mult % 3 other 2-cycles peeled
    # with the next length, or with a bare [4] or [4, 4] rest whole, since
    # a lone [4] has no piece
    triples = [tables.small_decomposition((2, 2, 2))] * (mult // 3)
    twos = key[: mult % 3]
    if not twos:
        if rest == (4,):
            return _decompose((2, 2, 2, 4)) + triples[1:]
        return triples + _decompose(rest)
    head = 2 if rest == (4, 4) else 1
    return _decompose(twos + rest[:head]) + _decompose(rest[head:]) + triples


def w_star_id_factors(ftype: CycleType) -> list:
    """The 9 factors of an opened-host decomposition folded onto the
    circulant blow-up host of the same order, as vertex ids: each a tuple of
    cycles in canonical form (``core.relabelled``) over the
    ``WStar`` m numbering, which the order-2m complete host shares.

    One ``verify_id_factorization`` against ``WStar`` m checks the folded
    factors together: every arc in the host, arc-disjoint, covering its 18m
    arcs, each factor spanning, each of type ``ftype``."""
    m = ftype.order // 2
    if m < 5:
        raise ValueError(
            "folding needs m >= 5: below that the opened host has more arcs "
            "than the circulant blow-up and the arc correspondence collapses"
        )
    dec = j_decompose(ftype)
    folded = list(relabelled(dec.id_factors, [fold_image(m)]))
    report = verify_id_factorization(HostDescriptor("WStar", m), folded, ftype)
    if not report.passed:
        raise ValueError(f"folded factors fail the W* check: {report.failures()}")
    return folded

