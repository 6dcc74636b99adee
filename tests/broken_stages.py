"""Monkeypatches that make ``solver.solve`` build one stage wrong, for the
tests that its one final check still fails and names the stage that broke.
"""

from oberwolfach import solver

# each way to break a solve -> the stage its error names: a bad split
# leaves the W* and H* parts whole, so only the final check fails
CASES = {
    "W*": "W*",
    "H*": "H*",
    "solve": "solve",
    "repeated-block": "solve",
    "jump-1": "solve",
}


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
    The others hand (18, [18]) a bad split of m = 9 (two block cycles), so
    the W* and H* factors each pass their own check but their union does
    not cover the host once: in "solve" the two block cycles are the same
    one; in "repeated-block" the first visits its second block twice and
    its first never; in "jump-1" the first is 0, 1, ..., 8, whose jump-1
    edges W* already covers.
    """
    if case == "W*":
        build = solver.w_star_id_factors
        monkeypatch.setattr(solver, "w_star_id_factors", lambda t: _swapped(build(t)))
        return 14, "[14]"
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
