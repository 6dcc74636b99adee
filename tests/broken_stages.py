"""Monkeypatches that make ``solver.solve`` build one stage wrong, for the
tests that its one final check still fails and names the stage that broke,
and that ``tables --check`` reports a bad table.
"""

from functools import lru_cache

from oberwolfach import solver, tables

# each way to break a solve -> the stage its error names: a bad split
# leaves the W* and H* parts whole, so only the final check fails
CASES = {
    "W*": "W*",
    "table-row": "W*",
    "H*": "H*",
    "solve": "solve",
    "repeated-block": "solve",
    "jump-1": "solve",
}


# the [2^3] table with row 1 not admissible on its three blocks: y1 and
# y4, no y3
BENT_2_2_2 = (("(y1 x2)", "(y2 x4)", "(x3 y4)"), *tables.PIECES[(2, 2, 2)][1:])


def patch_table(monkeypatch, key: tuple, rows: tuple) -> None:
    """Make ``rows`` the table piece of type ``key``, loaded through a fresh
    cache, so that the real table's cached piece is untouched."""
    monkeypatch.setitem(tables.PIECES, key, rows)
    fresh = lru_cache(maxsize=None)(tables.small_decomposition.__wrapped__)
    monkeypatch.setattr(tables, "small_decomposition", fresh)


def _swapped(factors: list) -> list:
    """``factors`` with the first two ids of the first factor's first cycle
    swapped: still a permutation, but three of its arcs are now used by
    another factor or lie outside the host."""
    (head, *cycles), *rest = factors
    return [((head[1], head[0], *head[2:]), *cycles), *rest]


def break_stage(monkeypatch, case: str) -> tuple:
    """Make ``solve`` build one stage wrong, as ``case`` of ``CASES`` says,
    and return the (n, type text) whose solve then fails.

    "W*" and "H*" swap two ids in the stage's first factor at (14, [14]).
    "table-row" loads the [2^3] table as ``BENT_2_2_2``, which the W*
    build of (14, [2^3,8]) splices unchecked.  The others hand (18, [18]) a
    bad split of m = 9 (two block cycles), so the W* and H* factors each
    pass their own check but their union does not cover the host once: in
    "solve" the two block cycles are the same one; in "repeated-block" the
    first visits its second block twice and its first never; in "jump-1"
    the first is 0, 1, ..., 8, whose jump-1 edges W* already covers.
    """
    if case == "W*":
        build = solver.w_star_id_factors
        monkeypatch.setattr(solver, "w_star_id_factors", lambda t: _swapped(build(t)))
        return 14, "[14]"
    if case == "table-row":
        patch_table(monkeypatch, (2, 2, 2), BENT_2_2_2)
        return 14, "[2^3,8]"
    if case == "H*":
        build = solver.factorize_h_star

        def h_star(ftype, m):
            result = build(ftype, m)
            return result._replace(id_factors=tuple(_swapped(result.id_factors)))

        monkeypatch.setattr(solver, "factorize_h_star", h_star)
        return 14, "[14]"
    split = solver.wh_decompose

    def broken(m):
        wh = split(m)
        first, *rest = wh.h_block_cycles
        if case == "solve":
            rest = [first]
        elif case == "repeated-block":
            first = (first[1], *first[1:])
        else:
            first = tuple(range(m))
        return wh._replace(h_block_cycles=(first, *rest))

    monkeypatch.setattr(solver, "wh_decompose", broken)
    return 18, "[18]"
