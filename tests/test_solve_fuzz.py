"""Fuzzing ``solve --factor`` with spec-like text and noise.

Cycle type specs such as ``[2^3,4]`` are drawn at n = 6, 10 and 14, then
characters are inserted, deleted or swapped for brackets, carets, signs,
whitespace and non-ASCII digits.  Whatever the text, ``solve`` exits 0, 1
or 2 with no exception and at most one short line on stderr; it exits 2
only for the nonexistent type (6, [6]), and a certificate it writes passes
``verify``.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import event, given, settings
from hypothesis import strategies as st

from oberwolfach.cli import main
from oberwolfach.core import parse_cycle_type

_NOISE = st.sampled_from(list("[]^,-+ 0123456789\t\n") + ["٤", "１", "²", "x", "2^"])


def _partitions(total, largest):
    """Every multiset of parts >= 2 summing to ``total``, odd parts included."""
    if total == 0:
        yield ()
    for p in range(min(largest, total), 1, -1):
        for rest in _partitions(total - p, p):
            yield (p,) + rest


_TYPES = {n: list(_partitions(n, n)) for n in (6, 10, 14)}


@st.composite
def _written(draw, lengths):
    """``lengths`` as a spec, in any order, runs written as L^k or not."""
    parts = []
    for length in draw(st.permutations(sorted(set(lengths)))):
        count = lengths.count(length)
        if count > 1 and draw(st.booleans()):
            parts.append(f"{length}^{count}")
        else:
            parts += [str(length)] * count
    return ",".join(parts)


@st.composite
def _spec(draw, n):
    """An even type of order n, any type of order n or random parts, as a
    spec with up to three noisy edits."""
    source = draw(st.sampled_from(["even", "any", "parts"]))
    if source == "parts":
        text = ",".join(draw(st.lists(st.integers(0, 16).map(str), max_size=5)))
    else:
        types = [t for t in _TYPES[n] if source == "any" or all(x % 2 == 0 for x in t)]
        text = draw(_written(draw(st.sampled_from(types))))
    if draw(st.booleans()):
        text = f"[{text}]"
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 1))
        text = text[:at] + draw(_NOISE) + text[at + cut :]
    return text


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data(), n=st.sampled_from(sorted(_TYPES)), joined=st.booleans())
def test_solve_survives_factor_specs(data, n, joined):
    factor = data.draw(_spec(n))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cert.json")
        flag = [f"--factor={factor}"] if joined else ["--factor", factor]
        code, err = _run(["solve", "--n", str(n), *flag, "--out", path])
        assert code in (0, 1, 2)
        event(f"exit {code}")
        assert err.count("\n") <= 1 and len(err.encode()) <= 400, err
        if code == 2:
            assert (n, parse_cycle_type(factor, n).lengths) == (6, (6,))
        if code == 0:
            assert not err
            assert _run(["verify", path]) == (0, "")
