import hashlib
import importlib
import io
import json
import pkgutil
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oberwolfach
from oberwolfach import core, serialize
from oberwolfach.cli import main
from oberwolfach.core import Vertex, parse_cycle_type
from oberwolfach.hosts import HostDescriptor
from oberwolfach.serialize import (
    FORMATS,
    document_for_solution,
    from_json,
    render,
    to_json,
)
from oberwolfach.solver import solve
from strip import factor_objects


def _canonical_on_ids(cycles) -> list:
    """Each cycle from its least id (the first, where it repeats), a cycle
    of one id or none as it is, then the cycles sorted."""
    out = []
    for c in map(tuple, cycles):
        k = c.index(min(c)) if c else 0
        out.append(c[k:] + c[:k])
    return sorted(out)


def to_json_dict(doc):
    """The document as the JSON object ``to_json`` writes: the reference
    ``to_json`` is checked against.  Each factor is in canonical form on its
    ids, which for a document with foreign vertices is not vertex order."""
    text = [v.text() for v in doc.vertices]
    return {
        "n": doc.n,
        "factor_type": list(doc.ftype.lengths),
        "host": doc.host.to_json(),
        "factors": [
            [[text[i] for i in c] for c in _canonical_on_ids(f)] for f in doc.factors
        ],
        "verified": doc.verified,
    }


def _ref_text(doc):
    """The text form written from the factor objects."""
    lines = [
        f"n={doc.n} type={doc.ftype.text()} host={doc.host.kind}({doc.host.m_or_n}) "
        f"verified={doc.verified}"
    ]
    for i, f in enumerate(factor_objects(doc.factors, doc.vertices), 1):
        lines.append(f"F{i}: " + " ".join(c.text() for c in f.cycles))
    return "\n".join(lines) + "\n"


def _ref_edges(doc):
    """The edge list written from the factor objects' sorted arcs."""
    lines = []
    for i, f in enumerate(factor_objects(doc.factors, doc.vertices), 1):
        for a in sorted(f.arcs()):
            lines.append(f"{i} {a.tail.text()} {a.head.text()}")
    return "\n".join(lines) + "\n"


def _ref_dot(doc):
    """The DOT form written from the factor objects' sorted arcs."""
    lines = [f"digraph factorization_{doc.n} {{"]
    for i, f in enumerate(factor_objects(doc.factors, doc.vertices), 1):
        for a in sorted(f.arcs()):
            lines.append(f'  "{a.tail.text()}" -> "{a.head.text()}" [factor={i}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


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
            st.sampled_from(
                ["empty_factor", "empty_cycle", "one_cycle", "drop", "foreign", "none"]
            )
        )
        if op == "empty_factor":
            factors.insert(draw(st.integers(0, len(factors))), [])
        elif op in ("empty_cycle", "one_cycle") and factors:
            at = draw(st.integers(0, len(factors) - 1))
            cycles = list(factors[at])
            short = [] if op == "empty_cycle" else [draw(st.integers(0, doc.n - 1))]
            cycles.insert(draw(st.integers(0, len(cycles))), short)
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
    return doc._replace(
        host=host,
        factors=factors,
        vertices=vertices,
        verified=draw(st.booleans()),
    )


@settings(max_examples=300, deadline=None, database=None)
@given(doc=_documents())
def test_to_json_equals_the_encoder(doc):
    """The joined text is exactly what the json encoder writes, for empty
    factor lists, empty factors, empty cycles, 1-cycles and foreign
    vertices too."""
    assert to_json(doc) == json.dumps(to_json_dict(doc), indent=2) + "\n"


_WIDE = document_for_solution(solve(258, parse_cycle_type("[2^121,16]")))


@pytest.mark.parametrize(
    "doc",
    [
        _DOCS[1]._replace(factors=[[[3]], *_DOCS[1].factors[1:]]),
        _DOCS[1]._replace(factors=[[[0, 1], [], [2, 3, 4]], [[5]], [[]]]),
        _WIDE,
        _WIDE._replace(factors=[[list(range(258))], [[257], list(range(257))]]),
    ],
    ids=["one-cycle", "empty-cycles", "wide-solution", "wide-256-plus"],
)
def test_to_json_of_hand_built_cycles_equals_the_encoder(doc):
    """Cycles of one id or none, which a cycle's one gather cannot write
    (the gather of one id is a bare string), and cycles of 256 ids and
    more on a wide host are written as the json encoder writes them."""
    assert to_json(doc) == json.dumps(to_json_dict(doc), indent=2) + "\n"


def test_the_other_writers_keep_one_id_and_empty_cycles():
    """The hand-built documents above with a cycle of one id or none: text
    writes such a cycle as it is, first in its factor where it sorts
    first, and edges and dot write a one-id cycle's loop and nothing for an
    empty one."""
    header = "n=10 type=[4,6] host=CompleteSymmetric(10) verified=True\n"
    empty = _DOCS[1]._replace(factors=[[[0, 1], [], [2, 3, 4]], [[5]], [[]]])
    assert render(empty, "text") == (
        header + "F1: () (x0,x1) (x2,x3,x4)\nF2: (y0)\nF3: ()\n"
    )
    arcs = [(1, "x0", "x1"), (1, "x1", "x0"), (1, "x2", "x3"), (1, "x3", "x4")]
    arcs += [(1, "x4", "x2"), (2, "y0", "y0")]
    assert render(empty, "edges") == "".join(f"{i} {a} {b}\n" for i, a, b in arcs)
    assert render(empty, "dot") == "digraph factorization_10 {\n" + "".join(
        f'  "{a}" -> "{b}" [factor={i}];\n' for i, a, b in arcs
    ) + "}\n"
    one = _DOCS[1]._replace(factors=[[[3]], *_DOCS[1].factors[1:]])
    whole = {fmt: render(_DOCS[1], fmt).splitlines(True) for fmt in FORMATS}
    assert render(one, "text") == "".join([header, "F1: (x3)\n", *whole["text"][2:]])
    rest = [line for line in whole["edges"] if not line.startswith("1 ")]
    assert render(one, "edges") == "".join(["1 x3 x3\n", *rest])
    rest = [line for line in whole["dot"] if "[factor=1]" not in line]
    assert render(one, "dot") == "".join(
        [rest[0], '  "x3" -> "x3" [factor=1];\n', *rest[1:]]
    )


def test_json_takes_canonical_form_on_ids_and_text_on_vertices():
    """A cycle through a host vertex (y4, id 9) and two foreign ones (x50
    and x7, ids 10 and 11 of the n = 10 host): json starts it at its least
    id, text at its least vertex."""
    vertices = [*_DOCS[1].vertices, Vertex("x", 50), Vertex("x", 7)]
    doc = _DOCS[1]._replace(factors=[[[11, 10, 9]]], vertices=vertices)
    assert json.loads(to_json(doc))["factors"] == [[["y4", "x7", "x50"]]]
    assert render(doc, "text").splitlines()[1] == "F1: (x7,x50,y4)"


# SHA-256 of ``solve --format text|edges|dot`` on stdout, fixed when the
# renderers wrote from factor objects; the id renderers must match them.
# The text hashes were fixed again in 0.3.0, whose header line has no seed.
_PINNED = {
    (6, "[2,4]", "text"): "8baba56b89a2eb1255f6e807883b47521f8aaeab8e141ea87693451f1cd76d15",
    (6, "[2,4]", "edges"): "433eab643511e47d27c268fb8374c5702f5523b9e72f854e3b305b1725b2c5cb",
    (6, "[2,4]", "dot"): "71cb69770302bb8e1987dcb74e45af0faeb47f03c007fb01af8dbef2a150b8dc",
    (6, "[2^3]", "text"): "3c1e45ee6389312063d6d8c2afb8387b6f0b1633df87d0de0d68a92a838f84f9",
    (6, "[2^3]", "edges"): "ebdc2b2a61fb3d6429b17cea4d0f9258dcaed98041570055d36b7754fd4412dd",
    (6, "[2^3]", "dot"): "e8a95175d5a38bf1d86e9ab1adc47e6ca27183169654fd51b36203b9335ad62a",
    (14, "[2,4,8]", "text"): "cab85284fd534f0d023e0f29702a5fe163e81906ec2bfefd4fdf7b494af09494",
    (14, "[2,4,8]", "edges"): "67b39b65ea3b2fd1f9ba21f67dcdde250872744f06429101819fa70c54be71e4",
    (14, "[2,4,8]", "dot"): "4427064b83cd91b47ec6f2cf19e4c3ec645c859a4cb5ce6e31e40a807f32c42b",
    (22, "[2^3,4^2,8]", "text"): "1fe3f97950260a629e80aae0cac0c49e0f08bf51692e526e0223539ce2cde42b",
    (22, "[2^3,4^2,8]", "edges"): "fc2e74e799fb7f6e78b000f837c6f9ae48c3a643187ff3fbc8ad2f3d3846798b",
    (22, "[2^3,4^2,8]", "dot"): "31bbc11da4137404b23f37bc27a943a19c2d34b92b473aa4fa6934785b13b754",
}


@pytest.mark.parametrize("n, spec, fmt", sorted(_PINNED))
def test_solve_renderings_are_pinned(capsys, n, spec, fmt):
    assert main(["solve", "--n", str(n), "--factor", spec, "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED[n, spec, fmt]


def _shuffled(doc, seed: int):
    """``doc`` with each factor's cycles shuffled and each cycle rotated."""
    rng = random.Random(seed)
    factors = []
    for f in doc.factors:
        cycles = []
        for c in f:
            k = rng.randrange(len(c))
            cycles.append(c[k:] + c[:k])
        rng.shuffle(cycles)
        factors.append(cycles)
    return doc._replace(factors=factors)


def _assert_the_writers_ignore_cycle_order(doc, seed: int) -> None:
    shuffled = _shuffled(doc, seed)
    for fmt in FORMATS:
        assert render(shuffled, fmt) == render(doc, fmt), fmt


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_the_writers_ignore_cycle_order(data):
    """Shuffling a solution's cycles within each factor and rotating each
    cycle changes no byte of any format, for a drawn even type at an order
    up to 62."""
    n = data.draw(st.sampled_from(range(6, 63, 4)))
    parts, left = [], n
    while left:
        part = 2 * data.draw(st.integers(1, left // 2))
        parts.append(part)
        left -= part
    result = solve(n, parse_cycle_type(str(parts), n))
    if hasattr(result, "id_factors"):  # (6, [6]) has none
        seed = data.draw(st.integers(0, 2**32))
        _assert_the_writers_ignore_cycle_order(document_for_solution(result), seed)


@pytest.mark.parametrize("seed", [1, 2])
def test_the_writers_ignore_cycle_order_on_a_wide_solution(seed):
    """The same on ``_WIDE``, of order 258, above the byte tables' 256."""
    _assert_the_writers_ignore_cycle_order(_WIDE, seed)


def test_canonical_form_is_made_once_by_the_writers(monkeypatch):
    """No route of ``solve`` makes canonical form; json and text make it
    once per factor as they write it, edges and dot never: every package
    module that binds ``canonical_id_cycles`` is patched to count.  A
    solution is on its host's own vertex table, so no writer sorts its
    vertices (``serialize`` calls no ``sorted``)."""
    calls = []
    real = core.canonical_id_cycles

    def counting(cycles):
        calls.append(None)
        return real(cycles)

    def no_sort(*args, **kwargs):
        raise AssertionError("a writer sorted a solution's vertices or arcs")

    for info in pkgutil.iter_modules(oberwolfach.__path__):
        module = importlib.import_module(f"oberwolfach.{info.name}")
        if hasattr(module, "canonical_id_cycles"):
            monkeypatch.setattr(module, "canonical_id_cycles", counting)
    monkeypatch.setattr(serialize, "sorted", no_sort, raising=False)
    round_robin = solve(14, parse_cycle_type("[2^7]"))
    assert calls == []
    split = solve(22, parse_cycle_type("[2^3,4^2,8]"))  # W* and two H* copies
    assert calls == []
    for result in (round_robin, split):
        doc = document_for_solution(result)
        for fmt, per_factor in (("json", 1), ("text", 1), ("edges", 0), ("dot", 0)):
            calls.clear()
            render(doc, fmt)
            assert len(calls) == per_factor * (result.n - 1), fmt


_SOLVED_TEXTS = [to_json(doc) for doc in _DOCS]


@st.composite
def _read_documents(draw):
    """A certificate read back by ``from_json`` after its cycles were
    rotated and reordered and some tokens were replaced by vertices outside
    the host (in either row, at indices sorting between or after its own),
    or after all but one cycle was dropped, so that the host's table is not
    used and ids follow the order in which vertices are first named."""
    data = json.loads(draw(st.sampled_from(_SOLVED_TEXTS)))
    factors = data["factors"]
    if draw(st.booleans()):  # fewer tokens than host vertices: all foreign
        del factors[1:]
        del factors[0][1:]
    for f in factors:
        for k, c in enumerate(f):
            r = draw(st.integers(0, len(c) - 1))
            f[k] = c[r:] + c[:r]
        if draw(st.booleans()):
            f.reverse()
    spots = [(c, k) for f in factors for c in f for k in range(len(c))]
    for _ in range(draw(st.integers(0, 4)) if spots else 0):
        c, k = draw(st.sampled_from(spots))
        c[k] = draw(st.sampled_from("xy")) + str(draw(st.integers(0, 40)))
    try:
        return from_json(json.dumps(data))
    except ValueError:
        return None  # a token now repeats in its factor


@settings(max_examples=200, deadline=None, database=None)
@given(doc=_read_documents())
def test_renderers_equal_the_object_reference(doc):
    """On read documents with foreign vertices and cycles out of canonical
    rotation, text, edges and dot equal their object-built references."""
    if doc is None:
        return
    assert render(doc, "text") == _ref_text(doc)
    assert render(doc, "edges") == _ref_edges(doc)
    assert render(doc, "dot") == _ref_dot(doc)


def test_edges_and_dot_keep_every_arc_of_a_repeated_tail():
    """Hand-built factors that repeat a tail, which neither the reader nor
    ``solve`` makes, one of them with every vertex as a tail, and one that
    misses vertices keep every arc, in sorted order."""
    factors = [[(0, 1), (0, 2, 1)], [(4, 3)], [(0, 1, 2, 3, 4, 5), (0, 1)]]
    doc = _DOCS[0]._replace(factors=factors)
    text = [v.text() for v in doc.vertices]
    arcs = [(1, 0, 1), (1, 0, 2), (1, 1, 0), (1, 1, 0), (1, 2, 1), (2, 3, 4), (2, 4, 3)]
    arcs += [(3, 0, 1), (3, 0, 1), (3, 1, 0), (3, 1, 2), (3, 2, 3), (3, 3, 4)]
    arcs += [(3, 4, 5), (3, 5, 0)]
    assert render(doc, "edges") == "".join(
        f"{i} {text[a]} {text[b]}\n" for i, a, b in arcs
    )
    assert render(doc, "dot") == "digraph factorization_6 {\n" + "".join(
        f'  "{text[a]}" -> "{text[b]}" [factor={i}];\n' for i, a, b in arcs
    ) + "}\n"


_SPEC_30 = "[2^3,4^2,16]"
_DOC_30 = document_for_solution(solve(30, parse_cycle_type(_SPEC_30)))


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_every_format_is_written_factor_by_factor(tmp_path, fmt):
    """Each writer yields a head, one chunk per factor (29 at n = 30) and a
    tail: the head, the first k factor chunks and the tail are the rendering
    of the document cut to its first k factors.  The chunks join to
    ``render``, and ``solve --out`` writes exactly those bytes."""
    chunks = list(FORMATS[fmt](_DOC_30))
    assert len(chunks) == 1 + 29 + 1
    for k in range(1, 30):
        cut = _DOC_30._replace(factors=_DOC_30.factors[:k])
        assert "".join(chunks[: k + 1]) + chunks[-1] == render(cut, fmt)
    assert "".join(chunks) == render(_DOC_30, fmt)
    path = tmp_path / f"out.{fmt}"
    argv = ["solve", "--n", "30", "--factor", _SPEC_30, "--format", fmt]
    assert main([*argv, "--out", str(path)]) == 0
    assert path.read_bytes() == "".join(chunks).encode()


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_solve_writes_each_chunk_before_making_the_next(monkeypatch, fmt):
    """``solve`` hands the writer's chunks to the output one at a time: when
    a chunk is made, every earlier one has been written."""
    out = io.StringIO()
    made = []
    writer = FORMATS[fmt]

    def watched(doc):
        for chunk in writer(doc):
            assert out.getvalue() == "".join(made)
            made.append(chunk)
            yield chunk

    monkeypatch.setitem(FORMATS, fmt, watched)
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["solve", "--n", "30", "--factor", _SPEC_30, "--format", fmt]) == 0
    assert len(made) == 31 and out.getvalue() == "".join(made)


@pytest.mark.parametrize(
    "factors, text",
    [([], ""), ([[], []], "F1: \nF2: \n")],
    ids=["no-factors", "empty-factors"],
)
def test_a_document_with_no_arcs_renders_as_before(factors, text):
    """Without arcs, text is its header (and a line per empty factor), dot
    an empty digraph and edges a lone line break."""
    doc = _DOCS[0]._replace(factors=factors)
    header = "n=6 type=[2^3] host=CompleteSymmetric(6) verified=True\n"
    assert render(doc, "text") == header + text
    assert render(doc, "edges") == "\n"
    assert render(doc, "dot") == "digraph factorization_6 {\n}\n"
