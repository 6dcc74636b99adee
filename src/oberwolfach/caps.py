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
read off ``tables.RIGHT_CAPS`` (``_family_of``).

The build runs on J* ids (``hosts.strip_id``: block b, side s -> 2b + s),
so shifting by k blocks adds 2k.  The table pieces hold ids, and an
``AdmissibleDecomposition`` holds its factors as tuples of id cycles
(``id_factors``) and builds no vertex objects.

Check contract: the tables are checked once, and each result once.

* The tables are constant data, audited clause by clause by
  ``tables --check`` (``checker.verify_cap_complementarity`` and
  ``checker.verify_admissible_decomposition``) and by ``tests/test_tables.py``.
* ``assemble``, ``general_factor``, ``_splice`` and ``_splice_all`` build
  from audited pieces and check nothing: they refuse only bad arguments and
  shapes they have no piece for.
* ``j_decompose`` splices ``_decompose``'s pieces in one call and makes one
  ``verify_admissible_decomposition`` call on the result.
* ``w_star_id_factors`` gathers the same pieces through the fold:
  ``solve``'s one final check decides its output.

Splice lemma: if A on a blocks and B on b blocks are admissible factors
with equal external patterns, then A plus B shifted by a is admissible on
a + b blocks.  A lies in blocks 0..a+1 and shifted B in a..a+b+1; in blocks
a and a+1 the pattern equality hands each boundary vertex to exactly one of
them, every arc stays in the larger opened host, and the new boundary
pairs take their first vertex from A and their second from B.  By
induction every splice of admissible pieces with equal patterns is
admissible, so a splice of audited pieces needs no check of its own: the
one check of the result decides it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from . import tables
from .checker import verify_admissible_decomposition
from .core import CycleType, canonical_factors
from .hosts import fold_image
from .tables import AdmissibleDecomposition, CentrePiece, LeftCap, RightCap


def _shifted(ids, by: int) -> tuple:
    """The J* ids ``ids`` moved ``by`` ids along the strip (2 per block);
    every shift made while assembling goes through here."""
    return tuple([v + by for v in ids])


def assemble(
    left: LeftCap,
    centre: Optional[CentrePiece],
    k: int,
    right: RightCap,
) -> AdmissibleDecomposition:
    """Glue left cap + k centre blocks + right cap into a decomposition.

    Factor i is written straight down as one cycle: L_i, copies j = 0..k-1
    of Q_i, the right path P_i and copies j = k-1..0 of U_i, each less its
    last id, followed by the right cap's side cycles.  Copy j sits
    ell + c*j blocks along the strip (c = ``centre.c``) and the right
    element ell + c*k blocks along, in J* ids.  Nothing is checked here.
    For pieces that pass the cap audit (``tables --check``), its
    seam-pattern and ``centre_endpoints`` clauses make each path start
    where the one before it ends, its ``m0_constant``, ``centre_lengths``
    and ``right_shapes`` clauses give factor i the type [m0 + 2ck, side
    lengths] (m0 = len(L_i) + len(P_i) - 2), and the result is an
    admissible decomposition of the opened host on ell + c*k + r blocks.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > 0 and centre is None:
        raise ValueError("k > 0 requires a centre piece")
    at = 2 * left.ell
    step = 2 * centre.c if k else 0
    right_at = at + step * k
    pairs = centre.pairs if k else [((), ())] * 9
    factors = []
    for path, (q, u), (rpath, rcycles) in zip(left.paths, pairs, right.elements):
        cycle = list(path[:-1])
        for j in range(k):
            cycle += _shifted(q[:-1], at + step * j)
        cycle += _shifted(rpath[:-1], right_at)
        for j in range(k - 1, -1, -1):
            cycle += _shifted(u[:-1], at + step * j)
        factors.append((tuple(cycle), *[_shifted(c, right_at) for c in rcycles]))
    return AdmissibleDecomposition(right_at // 2 + right.r, tuple(factors))


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
    result is immutable, so it is memoised per type, like its tables.  It
    is not checked: the cap audit (``tables --check``, ``test_tables``)
    makes it admissible, of type [2*anchor + 8k, side cycles].
    """
    fit = _family_of(ftype.lengths)
    if fit is None:
        raise ValueError(f"{ftype} is not a cap-family shape")
    family, s = fit
    # with s at least the family's least anchor, the one of s's class is <= s
    anchor = _CAP_FAMILIES[ftype.lengths[:-1]][2][s % 4]
    k = (s - anchor) // 4
    return assemble(
        tables.left_cap(),
        tables.centre_piece() if k > 0 else None,
        k,
        tables.right_cap(family, anchor),
    )


def _splice(decs: list, image) -> list:
    """The nine factors of the pieces ``decs`` spliced end to end, written
    through ``image``: id v of a piece k blocks along is ``image[v + 2k]``.
    Each factor is given as (gathers, span) pairs, one per piece: the
    piece's cached ``gathers`` for that factor, one per cycle, and the
    slice of ``image`` from the piece's offset 2k to its own last id 2m+3,
    where an audited piece's ids lie, from which they gather.  The pieces'
    boundary patterns are not compared: the audit gives every table piece
    ``tables.X_PATTERN``, and the check of the result decides."""
    spans = []
    at = 0
    for d in decs:
        spans.append(image[at : at + 2 * d.m + 4])
        at += 2 * d.m
    return [list(zip(factor, spans)) for factor in zip(*[d.gathers for d in decs])]


def _splice_all(decs: list) -> AdmissibleDecomposition:
    """Admissible pieces spliced on J* ids (``_splice``, identity image),
    unchecked: by the splice lemma the result is admissible, and
    ``j_decompose`` checks it."""
    if len(decs) == 1:
        return decs[0]
    m = sum(d.m for d in decs)
    factors = tuple(
        tuple(g(span) for gathers, span in parts for g in gathers)
        for parts in _splice(decs, range(2 * m + 4))
    )
    return AdmissibleDecomposition(m, factors)


def _pieces(ftype: CycleType) -> list:
    """``_decompose``'s pieces for ``ftype``; a type without any is refused."""
    if not ftype.is_bipartite():
        raise ValueError(f"{ftype} has an odd cycle length")
    if ftype.order < 8:  # even, as every length is
        raise ValueError(f"order {ftype.order} out of range (need >= 8)")
    if set(ftype.lengths) == {2}:
        raise ValueError("the all-2s type has no admissible decomposition here")
    return _decompose(ftype.lengths)


def j_decompose(ftype: CycleType) -> AdmissibleDecomposition:
    """Admissible decomposition of the opened host for any bipartite type of
    order >= 8 other than the all-2s type, with the shared boundary pattern,
    after one ``verify_admissible_decomposition`` call; a result that fails
    it raises ``ValueError`` with the report's failures."""
    dec = _splice_all(_pieces(ftype))
    report = verify_admissible_decomposition(
        ftype.order // 2, dec, ftype, tables.X_PATTERN
    )
    if not report.passed:
        raise ValueError(f"J* failed verification: {report.failures()}")
    return dec


def _decompose(lengths: tuple) -> list:
    """The admissible pieces, in splice order, of a decomposition of type
    ``lengths``, as a flat list that ``j_decompose`` splices once.

    Lemma: every even type of order >= 6 but the all-2s ones has a plan,
    each piece a table piece or a cap-family one ([2s], [2s, 2] and
    [2s, 2, 2] for s >= 4, [2s, 4] for s >= 5: one anchor per residue of
    s mod 4, and each centre copy adds 4 to s), all with the boundary
    patterns ``tables.X_PATTERN``, so the splice lemma applies.  By cases
    on the sorted type, with t 2-cycles followed by ``rest``:

    * a table or cap-family type is that one piece;
    * every length >= 6: each alone, [6] or [2s] with s >= 4;
    * one 4-cycle: [4, x] with x >= 6 ([4, 6], [4, 8] or [2s, 4]), then
      lengths >= 6;
    * f >= 2 4-cycles: f = 2*beta + 3*gamma copies of [4, 4] and [4^3],
      then lengths >= 6;
    * t >= 3, t = 0 mod 3: t/3 [2^3] pieces, then ``rest``, a case above
      unless it is (4,), which has no piece: then [2^3, 4] replaces one
      [2^3];
    * t = 1 or 2 mod 3: those 2-cycles with ``rest`` whole when it is
      (4, 4) ([2, 4, 4], [2^2, 4^2]) and with its first length x otherwise
      ([2, x] or [2^2, x]: a table piece for x <= 6, a family for x >= 8),
      then the lengths left, never (4,), and the [2^3] pieces.

    Each head goes back through here and meets the first case; every other
    call has fewer lengths, so the plan ends.  The empty type has no
    pieces, and the all-2s types, which ``j_decompose`` refuses, have no
    plan."""
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
            return _decompose(key[:2]) + _decompose(key[2:])
        gamma, beta = (1, (mult - 3) // 2) if mult % 2 else (0, mult // 2)
        decs = [tables.small_decomposition((4, 4))] * beta
        decs += [tables.small_decomposition((4, 4, 4))] * gamma
        return decs + _decompose(rest)

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
    cycles in canonical form over the ``WStar`` m numbering, which the
    order-2m complete host shares: the pieces ``j_decompose`` splices,
    gathered through ``hosts.fold_image`` and each factor's tuples rotated
    as they are gathered and sorted by ``core.canonical_factors``.

    The folded factors are returned unchecked; ``verify_id_factorization``
    against ``WStar`` m checks them: every arc in the host, arc-disjoint,
    covering its 18m arcs, each factor spanning, each of type ``ftype``."""
    m = ftype.order // 2
    if m < 5:
        raise ValueError(
            "folding needs m >= 5: below that the opened host has more arcs "
            "than the circulant blow-up and the arc correspondence collapses"
        )
    return list(canonical_factors(_splice(_pieces(ftype), fold_image(m))))

