"""Every even cycle type of every order n = 2 (mod 4), replayed against a
committed manifest.

``fixtures/coverage_manifest_n22.json`` records, per order up to 22, the
number of even types, the types with no factorization (only ``(6, [6])``),
and one SHA-256 over the order's JSON certificates, sorted as text and
joined.  A change that alters any certificate byte of these 111 types
changes a digest; every certificate is also re-checked with the
package-free plain check.  ``fixtures/coverage_manifest_n62.json`` is the
same record for every order up to 62 (19,597 types); it is too slow for
the test suite and is replayed by hand.

Regenerate a manifest (only when the certificate bytes are meant to
change), or replay the n <= 62 one, with::

    PYTHONPATH=src python tests/test_coverage_manifest.py --write [62]
    PYTHONPATH=src python tests/test_coverage_manifest.py --check 62
"""

import hashlib
import json
import sys
from pathlib import Path

from oberwolfach.checker import Nonexistent
from oberwolfach.core import CycleType
from oberwolfach.serialize import document_for_solution, to_json
from oberwolfach.solver import solve

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_independent_recheck import _plain_check  # noqa: E402

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _manifest_path(top: int) -> Path:
    return FIXTURES / f"coverage_manifest_n{top}.json"


def _even_types(n: int) -> list:
    """Every multiset of even parts summing to ``n``, as ascending tuples."""

    def parts(total: int, largest: int):
        if total == 0:
            yield ()
            return
        for p in range(min(largest, total), 1, -2):
            for rest in parts(total - p, p):
                yield rest + (p,)

    return sorted(parts(n, n))


def _order_entry(n: int) -> dict:
    """The manifest entry of order ``n``; every certificate is plain-checked.

    The certificates are hashed one at a time, in text order, so no order
    holds more than one certificate in memory.  Two certificates of one
    order first differ in their ``factor_type`` lists, whose JSON compares
    like the lists of the parts' decimal strings; the assertion below
    holds that ordering to the sorted-text digest.
    """
    hasher, nonexistent, last = hashlib.sha256(), [], ""
    types = _even_types(n)
    for lengths in sorted(types, key=lambda t: [str(p) for p in t]):
        result = solve(n, CycleType(lengths))
        if isinstance(result, Nonexistent):
            nonexistent.append(list(lengths))
            continue
        text = to_json(document_for_solution(result))
        assert last < text, lengths
        _plain_check(json.loads(text))
        hasher.update(text.encode())
        last = text
    return {
        "n": n,
        "types": len(types),
        "nonexistent": sorted(nonexistent),
        "sha256": hasher.hexdigest(),
    }


def manifest(top: int) -> dict:
    return {
        "orders": [_order_entry(n) for n in range(6, top + 1, 4)],
        "digest": "sha256 of the order's to_json certificates, sorted, joined",
    }


def test_manifest_replays():
    recorded = json.loads(_manifest_path(22).read_text(encoding="utf-8"))
    assert [e["n"] for e in recorded["orders"]] == [6, 10, 14, 18, 22]
    assert sum(e["types"] for e in recorded["orders"]) == 111
    for want in recorded["orders"]:
        assert _order_entry(want["n"]) == want, want["n"]
    assert recorded["orders"][0]["nonexistent"] == [[6]]


if __name__ == "__main__":
    mode, top = sys.argv[1:2], sys.argv[2:] or ["22"]
    if mode not in (["--write"], ["--check"]) or len(top) > 1 or not top[0].isdigit():
        sys.exit("usage: test_coverage_manifest.py --write|--check [TOP_ORDER]")
    path = _manifest_path(int(top[0]))
    got = manifest(int(top[0]))
    if mode == ["--write"]:
        path.write_text(json.dumps(got, indent=2) + "\n", encoding="utf-8")
    elif got != json.loads(path.read_text(encoding="utf-8")):
        sys.exit(f"{path.name}: the certificates differ from the manifest")
    else:
        print(f"{path.name}: {sum(e['types'] for e in got['orders'])} types match")
