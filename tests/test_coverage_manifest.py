"""Every even cycle type of every order n = 2 (mod 4) up to 22, replayed
against a committed manifest.

``fixtures/coverage_manifest_n22.json`` records, per order, the number of
even types, the types with no factorization (only ``(6, [6])``), and one
SHA-256 over the order's JSON certificates, sorted as text and joined.  A
change that alters any certificate byte of these 111 types changes a
digest; every certificate is also re-checked with the package-free plain
check.

Regenerate the manifest (only when the certificate bytes are meant to
change) with::

    PYTHONPATH=src python tests/test_coverage_manifest.py --write
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

MANIFEST = (
    Path(__file__).resolve().parent.parent / "fixtures" / "coverage_manifest_n22.json"
)
ORDERS = (6, 10, 14, 18, 22)


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


def _order_entry(n: int) -> tuple:
    """The manifest entry of order ``n`` and its certificates."""
    texts, nonexistent = [], []
    types = _even_types(n)
    for lengths in types:
        result = solve(n, CycleType(lengths))
        if isinstance(result, Nonexistent):
            nonexistent.append(list(lengths))
        else:
            texts.append(to_json(document_for_solution(result)))
    texts.sort()
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    entry = {
        "n": n,
        "types": len(types),
        "nonexistent": nonexistent,
        "sha256": digest,
    }
    return entry, texts


def manifest() -> dict:
    return {
        "orders": [_order_entry(n)[0] for n in ORDERS],
        "digest": "sha256 of the order's to_json certificates, sorted, joined",
    }


def test_manifest_replays():
    recorded = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert [e["n"] for e in recorded["orders"]] == list(ORDERS)
    assert sum(e["types"] for e in recorded["orders"]) == 111
    for want in recorded["orders"]:
        got, texts = _order_entry(want["n"])
        assert got == want, want["n"]
        for text in texts:
            _plain_check(json.loads(text))
    assert recorded["orders"][0]["nonexistent"] == [[6]]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_coverage_manifest.py --write")
    MANIFEST.write_text(json.dumps(manifest(), indent=2) + "\n", encoding="utf-8")
