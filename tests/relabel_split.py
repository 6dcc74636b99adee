"""Square switching of a jump pair as it was built before each factor kept
its cycles in place: both factors' cycle ids and positions are rebuilt from
the edge owners after every switch, O(m) per switch.

The solver no longer runs this; the tests keep it as the reference that
``solver._decompose_pair_circulant`` must match block for block.
"""


def decompose_pair_circulant(m: int, d: int, e: int):
    """Two Hamiltonian cycles partitioning the edges of the block circulant
    C_m(d, e): the first alternating square, in order of i, whose switch
    lowers the total cycle count without raising either factor's count is
    switched, until both factors are Hamilton cycles.  Each cycle starts at
    block 0 and steps first to the neighbour ``label`` lists first."""
    side = ([0] * m, [1] * m)  # factor holding edge {i, i+d} / {i, i+e}

    def label(f: int):
        """Cycle id and position of every vertex in factor f, cycle lengths."""
        adj: list = [[] for _ in range(m)]
        for x, owners in zip((d, e), side):
            for i, owner in enumerate(owners):
                if owner == f:
                    adj[i].append((i + x) % m)
                    adj[(i + x) % m].append(i)
        cid, pos, lengths = [-1] * m, [0] * m, []
        for start in range(m):
            prev, v, k = adj[start][1], start, 0
            while cid[v] < 0:
                cid[v], pos[v], k = len(lengths), k, k + 1
                u, w = adj[v]
                prev, v = v, (w if u == prev else u)
            if k:
                lengths.append(k)
        return cid, pos, lengths

    def delta(lab, p: int, q: int, r: int, s: int) -> int:
        """Change in a factor's cycle count when its edges {p,q}, {r,s}
        give way to {p,r}, {q,s}."""
        cid, pos, lengths = lab
        if cid[p] != cid[r]:
            return -1
        size = lengths[cid[p]]
        return 0 if (pos[q] - pos[p]) % size == (pos[s] - pos[r]) % size else 1

    while True:
        labs = (label(0), label(1))
        if len(labs[0][2]) == len(labs[1][2]) == 1:
            return tuple(
                tuple(sorted(range(m), key=lab[1].__getitem__)) for lab in labs
            )
        for a in range(m):
            b, c, s = (a + d) % m, (a + e) % m, (a + d + e) % m
            f = side[0][a]
            if side[0][c] != f or side[1][a] == f or side[1][b] == f:
                continue
            dx, dy = delta(labs[f], a, b, c, s), delta(labs[1 - f], a, c, b, s)
            if max(dx, dy) <= 0 and dx + dy < 0:
                side[0][a] = side[0][c] = 1 - f
                side[1][a] = side[1][b] = f
                break
        else:
            raise RuntimeError(
                f"no square switch splits jumps {{{d},{e}}} on {m} blocks"
            )
