"""Plain-data recheck of exported certificates, and a seeded corruption
generator for them.

Nothing here imports the package: a certificate is judged with ``json`` and
set arithmetic over vertex-name strings, against the ``(n, F)`` the benchmark
itself asked for.  A change that weakens the package's own checker therefore
cannot pass a wrong certificate off as a speed-up.
"""

from __future__ import annotations

import copy
import json
from collections import Counter

OPERATIONS = ("swap", "drop", "duplicate", "retarget")


def vertex_names(n: int) -> list:
    """The host's vertices for even ``n``: ``x0..x{n/2-1}`` and ``y0..y{n/2-1}``."""
    return [f"{side}{i}" for side in "xy" for i in range(n // 2)]


def recheck(text: str, n: int, lengths) -> list:
    """Problems found in a certificate's JSON text; empty when it is an
    F-factorization of the complete symmetric digraph on ``n`` vertices:
    n-1 spanning factors with cycle lengths F whose arcs are pairwise
    disjoint and cover all n(n-1) arcs."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        return [f"not JSON: {exc}"]
    if not isinstance(data, dict):
        return ["top level is not an object"]
    problems = []
    want = sorted(lengths)
    if data.get("n") != n:
        problems.append(f"n is {data.get('n')!r}, expected {n}")
    declared = data.get("factor_type")
    if not (
        isinstance(declared, list)
        and all(isinstance(x, int) for x in declared)
        and sorted(declared) == want
    ):
        problems.append(f"factor_type is {declared!r}, expected {want}")
    factors = data.get("factors")
    if not isinstance(factors, list):
        return problems + ["factors is not a list"]
    if len(factors) != n - 1:
        problems.append(f"{len(factors)} factors, expected {n - 1}")

    names = vertex_names(n)
    universe = Counter(names)
    arcs: set = set()
    arc_count = 0
    for i, factor in enumerate(factors):
        if not isinstance(factor, list) or not all(
            isinstance(c, list) and len(c) >= 2 and all(isinstance(v, str) for v in c)
            for c in factor
        ):
            problems.append(f"factor {i} is not a list of vertex-name cycles")
            continue
        if sorted(len(c) for c in factor) != want:
            problems.append(f"factor {i} has cycle lengths {sorted(len(c) for c in factor)}")
        if Counter(v for c in factor for v in c) != universe:
            problems.append(f"factor {i} does not visit every vertex exactly once")
        for cyc in factor:
            for j, tail in enumerate(cyc):
                arcs.add((tail, cyc[(j + 1) % len(cyc)]))
                arc_count += 1
    if arc_count != len(arcs):
        problems.append(f"{arc_count - len(arcs)} arcs are used more than once")
    host = {(u, v) for u in names for v in names if u != v}
    if arcs != host:
        problems.append(
            f"arcs differ from the complete digraph: {len(host - arcs)} missing, "
            f"{len(arcs - host)} foreign"
        )
    return problems


def corrupt(data: dict, op: str, rng) -> dict:
    """A damaged copy of a certificate's plain data (the input is unchanged).

    * ``swap``: exchange two consecutive vertices of a cycle of length >= 3,
      which reverses one arc, so it now repeats an arc of another factor.
    * ``drop``: delete one factor.
    * ``duplicate``: overwrite one factor with a copy of another.
    * ``retarget``: point one cycle position at a vertex outside the host.
    """
    out = copy.deepcopy(data)
    factors = out["factors"]
    if op == "swap":
        spots = [
            (i, j) for i, f in enumerate(factors) for j, c in enumerate(f) if len(c) >= 3
        ]
        if not spots:
            raise ValueError("swap needs a cycle of length >= 3")
        i, j = rng.choice(spots)
        cyc = factors[i][j]
        k = rng.randrange(len(cyc))
        k2 = (k + 1) % len(cyc)
        cyc[k], cyc[k2] = cyc[k2], cyc[k]
    elif op == "drop":
        del factors[rng.randrange(len(factors))]
    elif op == "duplicate":
        src, dst = rng.sample(range(len(factors)), 2)
        factors[dst] = copy.deepcopy(factors[src])
    elif op == "retarget":
        cyc = rng.choice(rng.choice(factors))
        k = rng.randrange(len(cyc))
        cyc[k] = f"{cyc[k][0]}{out['n'] // 2 + rng.randrange(3)}"
    else:
        raise ValueError(f"unknown corruption {op!r}")
    return out


def dumps(data: dict) -> str:
    """The certificate layout the package writes: indented JSON plus newline."""
    return json.dumps(data, indent=2) + "\n"
