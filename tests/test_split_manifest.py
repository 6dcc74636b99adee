"""The block-cycle split of every odd m from 5 to 2001, replayed against a
committed manifest.

``solver.wh_decompose(m)`` depends on m alone, and ``solve`` splits the
complete host of order n = 2m, so running every odd m up to 2001 checks
the split on the whole supported range (n <= ``MAX_ORDER`` = 4002).
``fixtures/split_manifest.json`` records one SHA-256 per m of its block
cycles, written as compact JSON.  Every split is checked as it is hashed
(``wh_decompose`` does not check itself): (m-5)/2 Hamiltonian block
cycles that use none of the jumps 0, 1 and 2 and whose m(m-5)/2 edges are
distinct, so they are exactly the edges of jumps 3..(m-1)/2 of K_m.  A
change that alters any block cycle changes its order's digest.

The suite replays m <= 401; the whole manifest is too slow for it (about
six minutes) and is written or replayed by hand::

    PYTHONPATH=src python tests/test_split_manifest.py --write
    PYTHONPATH=src python tests/test_split_manifest.py --check
"""

import hashlib
import json
import sys
from collections import deque
from itertools import repeat
from operator import add, mul, setitem
from pathlib import Path

from oberwolfach.core import id_arcs
from oberwolfach.solver import MAX_ORDER, wh_decompose

PATH = Path(__file__).resolve().parent.parent / "fixtures" / "split_manifest.json"
TOP = MAX_ORDER // 2  # the largest m a solve splits
REPLAYED = 401  # the largest m the suite replays


def _split_digest(m: int) -> str:
    """The SHA-256 of the block cycles of ``wh_decompose(m)`` as compact
    JSON, once they are checked to split the edges of jumps 3..(m-1)/2:
    (m-5)/2 Hamiltonian cycles whose m(m-5) arcs, each edge both ways
    round, are distinct and none on the jumps 0, 1 and 2."""
    cycles = wh_decompose(m).h_block_cycles
    assert len(cycles) == (m - 5) // 2, m
    assert all(len(c) == len(set(c)) == m for c in cycles), m
    tails, heads = id_arcs(cycles)
    seen = bytearray(m * m)  # arc a -> b at a * m + b
    for a, b in ((tails, heads), (heads, tails)):
        codes = map(add, map(mul, a, repeat(m)), b)
        deque(map(setitem, repeat(seen), codes, repeat(1)), maxlen=0)
    assert seen.count(1) == m * (m - 5), m
    assert not any(seen[a * m + (a + d) % m] for a in range(m) for d in (0, 1, 2)), m
    text = json.dumps([list(c) for c in cycles], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def manifest(top: int = TOP) -> dict:
    return {
        "sha256": {str(m): _split_digest(m) for m in range(5, top + 1, 2)},
        "digest": "sha256 of wh_decompose(m).h_block_cycles as compact JSON",
    }


def test_manifest_covers_every_odd_m_to_2001():
    recorded = json.loads(PATH.read_text(encoding="utf-8"))
    assert list(recorded["sha256"]) == [str(m) for m in range(5, TOP + 1, 2)]
    assert TOP == 2001


def test_manifest_replays_to_401():
    recorded = json.loads(PATH.read_text(encoding="utf-8"))["sha256"]
    for m in range(5, REPLAYED + 1, 2):
        assert _split_digest(m) == recorded[str(m)], m


if __name__ == "__main__":
    mode = sys.argv[1:]
    if mode not in (["--write"], ["--check"]):
        sys.exit("usage: test_split_manifest.py --write|--check")
    got = manifest()
    if mode == ["--write"]:
        PATH.write_text(json.dumps(got, indent=2) + "\n", encoding="utf-8")
    elif got != json.loads(PATH.read_text(encoding="utf-8")):
        sys.exit(f"{PATH.name}: the block cycles differ from the manifest")
    else:
        print(f"{PATH.name}: {len(got['sha256'])} splits match")
