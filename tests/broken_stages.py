"""Monkeypatches that make ``solver.solve`` build one stage wrong, for the
tests that its one final check still fails and names the stage that broke.
"""

from oberwolfach import solver

STAGES = ("W*", "H*", "solve")


def _swapped(factors: list) -> list:
    """``factors`` with the first two ids of the first factor's first cycle
    swapped: still a permutation, but three of its arcs are now used by
    another factor or lie outside the host."""
    (head, *cycles), *rest = factors
    return [((head[1], head[0], *head[2:]), *cycles), *rest]


def break_stage(monkeypatch, stage: str) -> tuple:
    """Make ``solve`` build ``stage`` wrong and return the (n, type text)
    whose solve then fails.

    "W*" and "H*" swap two ids in the stage's first factor at (14, [14]).
    "solve" hands (18, [18]) a split whose two block cycles (m = 9 has two)
    are the same one, so the W* and H* factors each pass their own check
    but their union covers that cycle's arcs twice and the other's never.
    """
    if stage == "W*":
        build = solver.w_star_id_factors
        monkeypatch.setattr(solver, "w_star_id_factors", lambda t: _swapped(build(t)))
        return 14, "[14]"
    if stage == "H*":
        build = solver.factorize_h_star

        def h_star(ftype, m):
            result = build(ftype, m)
            return result._replace(id_factors=tuple(_swapped(result.id_factors)))

        monkeypatch.setattr(solver, "factorize_h_star", h_star)
        return 14, "[14]"
    split = solver.wh_decompose

    def doubled(m):
        wh = split(m)
        return wh._replace(h_block_cycles=wh.h_block_cycles[:1] * 2)

    monkeypatch.setattr(solver, "wh_decompose", doubled)
    return 18, "[18]"
