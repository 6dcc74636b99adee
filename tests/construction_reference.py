"""The W* piece planner, the centre chaining, the W* splice and fold and
the H* one-2-cycle route as they were written before they worked out their
own cases: ``_decompose`` chose table or cap family by hand for every head
it peeled, centre copies were chained by repeated ``concat`` of growing
object paths, every piece was copied shifted into J* ids, spliced and
checked before the nine factors were folded onto W*, and ``_chain_walks``
was told its position and its length's residue mod 4.

The package no longer runs this; the tests keep it as the reference that
``caps._decompose``, ``caps.assemble``, ``caps.w_star_id_factors`` and
``hstar.factorize_h_star`` must match piece for piece and walk for walk.
The planner calls ``tables.small_decomposition`` and ``caps.general_factor``
through their modules, so a test can patch both.
"""

from oberwolfach import caps, tables
from oberwolfach.core import CycleType, relabelled
from oberwolfach.hosts import admissible_ids, fold_image, strip_vertex
from oberwolfach.hstar import _gadget_walks
from strip import DirectedPath, concat, shift


def _single(length: int):
    if length == 6:
        return tables.small_decomposition((6,))
    return caps.general_factor(CycleType([length]))


def decompose(lengths: tuple) -> list:
    """The admissible pieces, in splice order, of a decomposition of type
    ``lengths``."""
    general_factor = caps.general_factor
    key = tuple(sorted(lengths))
    if key in tables.SMALL_DECOMPS or key == (2, 4, 4):
        return [tables.small_decomposition(key)]
    if caps._family_of(key) is not None:
        return [general_factor(CycleType(key))]

    smallest = key[0]
    mult = key.count(smallest)
    rest = key[mult:]

    if smallest >= 6:
        return [_single(x) for x in key]

    if smallest == 4:
        if mult == 1:
            nxt = rest[0]
            if nxt in (6, 8):
                head = tables.small_decomposition((4, nxt))
            else:
                head = general_factor(CycleType([4, nxt]))
            return [head] + (decompose(rest[1:]) if rest[1:] else [])
        gamma, beta = (1, (mult - 3) // 2) if mult % 2 else (0, mult // 2)
        decs = [tables.small_decomposition((4, 4))] * beta
        decs += [tables.small_decomposition((4, 4, 4))] * gamma
        if rest:
            decs += decompose(rest)
        return decs

    nxt = rest[0]
    residue = mult % 3
    if residue == 0:
        if rest == (4,):
            decs = [tables.small_decomposition((2, 2, 2, 4))]
            decs += [tables.small_decomposition((2, 2, 2))] * (mult // 3 - 1)
        else:
            decs = [tables.small_decomposition((2, 2, 2))] * (mult // 3)
            decs += decompose(rest)
        return decs
    if residue == 1:
        if rest == (4, 4):
            decs = [tables.small_decomposition((2, 4, 4))]
        else:
            head = (
                tables.small_decomposition((2, nxt))
                if nxt in (4, 6)
                else general_factor(CycleType([2, nxt]))
            )
            decs = [head] + (decompose(rest[1:]) if rest[1:] else [])
        decs += [tables.small_decomposition((2, 2, 2))] * ((mult - 1) // 3)
        return decs
    if rest == (4, 4):
        decs = [tables.small_decomposition((2, 2, 4, 4))]
    else:
        head = (
            tables.small_decomposition((2, 2, nxt))
            if nxt in (4, 6)
            else general_factor(CycleType([2, 2, nxt]))
        )
        decs = [head] + (decompose(rest[1:]) if rest[1:] else [])
    decs += [tables.small_decomposition((2, 2, 2))] * ((mult - 2) // 3)
    return decs


def w_star_id_factors(ftype: CycleType) -> list:
    """The nine W* factors by the former route: the planned pieces copied
    shifted into J* ids (``caps._shifted``, 2 per block before them) and
    spliced, each spliced factor checked admissible, then all nine folded
    onto W* and put in canonical form by ``core.relabelled``."""
    m = ftype.order // 2
    decs = decompose(ftype.lengths)
    offsets = [2 * sum(d.m for d in decs[:p]) for p in range(len(decs))]
    factors = []
    for j in range(9):
        cycles = []
        for d, offset in zip(decs, offsets):
            cycles += [caps._shifted(c, offset) for c in d.id_factors[j]]
        if not admissible_ids(cycles, m):
            raise ValueError("spliced factor is not admissible")
        factors.append(cycles)
    return list(relabelled(factors, [fold_image(m)]))


def concat_centre(piece, k: int) -> list:
    """The vertex sequences of ``k`` >= 1 chained copies of each (Q, U) of a
    centre piece of ``c`` blocks, by repeated ``concat``: copy j is shifted
    by c*j blocks, Q's copies joined in ascending order and U's in
    descending order; Q and U must not meet."""
    pairs = []
    for q, u in piece.pairs:
        q, u = (DirectedPath(map(strip_vertex, p)) for p in (q, u))
        if k == 1:
            pairs.append((q.vertices, u.vertices))
            continue
        big_q = q
        for step in range(1, k):
            big_q = concat(big_q, shift(q, piece.c * step))
        big_u = shift(u, piece.c * (k - 1))
        for step in range(k - 2, -1, -1):
            big_u = concat(big_u, shift(u, piece.c * step))
        if set(big_q.vertices) & set(big_u.vertices):
            raise ValueError("chained centre paths are not vertex-disjoint")
        pairs.append((big_q.vertices, big_u.vertices))
    return pairs


def _congruence(length: int) -> str:
    return "0mod4" if length % 4 == 0 else "2mod4"


def chain_walks(position: str, a: int, k: int, congruence: str, m: int) -> list:
    """Four parallel length-2k cycles spanning blocks a..a+k, as ids."""
    if k < 2:
        raise ValueError("need k >= 2")
    if congruence not in ("0mod4", "2mod4"):
        raise ValueError(f"bad congruence {congruence!r}")
    if (congruence == "0mod4") != (k % 2 == 0):
        raise ValueError(f"congruence {congruence} inconsistent with k={k}")
    y = m.__add__
    if position == "second":
        if a != 0:
            raise ValueError("the second piece sits at offset 0")
        c0 = [y(j) for j in range(k + 1)] + list(range(k - 1, 0, -1))
        if k % 2 == 0:
            c1 = (
                [0]
                + [j if j % 2 else y(j) for j in range(1, k + 1)]
                + [y(j) if j % 2 else j for j in range(k - 1, 0, -1)]
            )
            c2 = [0, y(1), *range(2, k + 1)] + [y(j) for j in range(k - 1, 1, -1)] + [1]
            c3 = (
                [y(0), 1]
                + [j if j % 2 == 0 else y(j) for j in range(2, k + 1)]
                + [j if j % 2 else y(j) for j in range(k - 1, 1, -1)]
                + [y(1)]
            )
        else:
            c1 = list(range(k)) + [y(j) for j in range(k, 0, -1)]
            c2 = (
                [0]
                + [y(j) if j % 2 else j for j in range(1, k)]
                + [k]
                + [y(j) if j % 2 == 0 else j for j in range(k - 1, 0, -1)]
            )
            c3 = (
                [y(0)]
                + [j if j % 2 else y(j) for j in range(1, k)]
                + [k]
                + [j if j % 2 == 0 else y(j) for j in range(k - 1, 0, -1)]
            )
        return [c0, c1, c2, c3]
    if position != "later":
        raise ValueError(f"bad position {position!r}")
    if k % 2 == 0:
        c0 = list(range(a, a + k)) + [y(a + d) for d in range(k, 0, -1)]
        c2 = (
            [y(a)]
            + [a + d if d % 2 else y(a + d) for d in range(1, k)]
            + [a + k]
            + [y(a + d) if d % 2 else a + d for d in range(k - 1, 0, -1)]
        )
    else:
        c0 = (
            [a, a + 1]
            + [y(a + d) if d % 2 == 0 else a + d for d in range(2, k)]
            + [y(a + k)]
            + [a + d if d % 2 == 0 else y(a + d) for d in range(k - 1, 0, -1)]
        )
        c2 = (
            [y(a)]
            + list(range(a + 1, a + k + 1))
            + [y(a + d) for d in range(k - 1, 0, -1)]
        )
    return [c0, c0[::-1], c2, c2[::-1]]


def one_two_cycle_factors(ftype: CycleType, m: int) -> tuple:
    """The four unchecked H* factors of a type with exactly one 2-cycle, as
    tuples of id tuples: the wrap gadgets, then the piece next to them,
    then one piece per later length."""
    rest = [length for length in ftype.lengths if length != 2]
    families = [[g] for g in _gadget_walks(m)]
    second, later = rest[0], rest[1:]
    k2 = second // 2
    walks = chain_walks("second", 0, k2, _congruence(second), m)
    for fam, cyc in zip(families, walks):
        fam.append(cyc)
    a = k2
    for length in later:
        k = length // 2
        walks = chain_walks("later", a, k, _congruence(length), m)
        for fam, cyc in zip(families, walks):
            fam.append(cyc)
        a += k
    return tuple(tuple(map(tuple, f)) for f in families)
