import dataclasses
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from oberwolfach.core import Vertex, parse_cycle_type
from oberwolfach.hosts import HostDescriptor
from oberwolfach.serialize import document_for_solution, to_json, to_json_dict
from oberwolfach.solver import solve

_DOCS = [
    document_for_solution(solve(n, parse_cycle_type(spec)))
    for n, spec in ((6, "[2^3]"), (10, "[4,6]"), (14, "[2,4,8]"), (18, "[18]"))
]

# sides a vertex may carry, foreign and awkward ones included: quotes,
# backslashes, control and non-ASCII characters, the "factors" key itself
_SIDES = st.sampled_from(["x", "y", "z", 'q"', "b\\", "t\n", "é", '"factors": 0,'])
_KINDS = st.sampled_from(
    ["CompleteSymmetric", "WStar", "JStar", 'odd "kind"', '\n  "factors": 0,\n']
)


@st.composite
def _documents(draw):
    doc = draw(st.sampled_from(_DOCS))
    factors = list(doc.factors)
    vertices = doc.vertices  # the host's own table until a foreign vertex joins
    for _ in range(draw(st.integers(0, 3))):
        op = draw(
            st.sampled_from(["empty_factor", "empty_cycle", "drop", "foreign", "none"])
        )
        if op == "empty_factor":
            factors.insert(draw(st.integers(0, len(factors))), [])
        elif op == "empty_cycle" and factors:
            at = draw(st.integers(0, len(factors) - 1))
            cycles = list(factors[at])
            cycles.insert(draw(st.integers(0, len(cycles))), [])
            factors[at] = cycles
        elif op == "drop" and factors:
            factors.pop(draw(st.integers(0, len(factors) - 1)))
        elif op == "foreign":
            index = draw(st.integers(0, 10**6))
            vertices = [*vertices, Vertex(draw(_SIDES), index), Vertex("x", index + 1)]
            factors.append([[len(vertices) - 2, len(vertices) - 1]])
    if draw(st.booleans()):
        factors = []
    host = doc.host
    if draw(st.booleans()):
        host = HostDescriptor(draw(_KINDS), host.m_or_n)
    return dataclasses.replace(
        doc,
        host=host,
        factors=factors,
        vertices=vertices,
        verified=draw(st.booleans()),
        seed=draw(st.integers(-5, 10**9)),
    )


@settings(max_examples=300, deadline=None, database=None)
@given(doc=_documents())
def test_to_json_equals_the_encoder(doc):
    """The joined text is exactly what the json encoder writes, for empty
    factor lists, empty factors, empty cycles and foreign vertices too."""
    assert to_json(doc) == json.dumps(to_json_dict(doc), indent=2) + "\n"
