"""Fuzzing ``verify`` with mutated certificates.

Scalars are swapped for values of other JSON types, nested lists and vertex
tokens are replaced by strings, numbers, nulls or objects, and the text is
cut short.  Whatever the input, ``verify`` exits 0 or 1 with no traceback
and at most one line on stderr, and it exits 0 only on a document that the
plain-data check of ``test_independent_recheck`` accepts as well.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from test_independent_recheck import _plain_check

from oberwolfach.cli import main
from oberwolfach.core import parse_cycle_type
from oberwolfach.serialize import document_for_solution, to_json
from oberwolfach.solver import solve

_CLEAN = [
    to_json(document_for_solution(solve(n, parse_cycle_type(spec))))
    for n, spec in ((6, "[2,4]"), (10, "[4,6]"), (14, "[4,10]"))
]

_OTHER_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 20),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1),
)
_REPLACEMENTS = st.one_of(
    st.text(max_size=4),
    st.integers(-3, 20),
    st.none(),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1),
)


def _places(node, out):
    """Every (container, key) under ``node``: the scalars, the nested lists
    and objects, and the vertex tokens."""
    keys = node if isinstance(node, dict) else range(len(node))
    for key in keys:
        out.append((node, key))
        if isinstance(node[key], (dict, list)):
            _places(node[key], out)
    return out


@st.composite
def _mutated(draw):
    data = json.loads(draw(st.sampled_from(_CLEAN)))
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(_places(data, [])))
        strategy = _OTHER_VALUES if isinstance(container, dict) else _REPLACEMENTS
        container[key] = draw(strategy)
    text = json.dumps(data, indent=2) + "\n"
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


@settings(max_examples=250, deadline=None, database=None)
@given(text=_mutated())
def test_verify_survives_mutated_certificates(text):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cert.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", path])
    assert code in (0, 1)
    assert err.getvalue().count("\n") <= 1, err.getvalue()
    if code == 0:
        assert not err.getvalue()
        _plain_check(json.loads(text))
