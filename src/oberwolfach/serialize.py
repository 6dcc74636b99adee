"""Serialisation of factorizations: JSON (round-trippable), DOT, edge list,
and a plain text form.

JSON schema::

    {"n": int, "factor_type": [int, ...], "host": {"kind": str, "m": int},
     "factors": [[["x0", "x1", ...], ...], ...], "verified": bool, "seed": int}

Cycles are vertex lists in canonical rotation, so serialisation is
deterministic and re-serialising a parsed file reproduces it byte for byte.

Parsing resolves each vertex token through the declared host's
``vertex_by_text`` table (``hosts.HostDescriptor``), so the common path runs
no regex and every parsed vertex is one of the host's interned objects.  A
token outside the table must still be written as ``Vertex.text`` writes it
(``x0``, ``y12``: no whitespace, no leading zeros) or the document is
malformed; such a token names a vertex outside the host, which the checker
then reports.  The table is used only when the document has at least as
many tokens as the host has vertices, so a huge declared size allocates
nothing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from .core import CycleType, DirectedCycle, TwoRegularDigraph, parse_vertex
from .hosts import DESCRIBED_KINDS, HostDescriptor


@dataclass(frozen=True)
class FactorizationDocument:
    n: int
    ftype: CycleType
    host: HostDescriptor
    factors: tuple  # TwoRegularDigraph
    verified: bool
    seed: int


def document_for_solution(solution) -> FactorizationDocument:
    """Wrap a solver result (over the complete host) for export."""
    return FactorizationDocument(
        n=solution.n,
        ftype=solution.ftype,
        host=HostDescriptor("CompleteSymmetric", solution.n),
        factors=tuple(solution.factors),
        verified=solution.report.passed,
        seed=solution.seed,
    )


def to_json_dict(doc: FactorizationDocument) -> dict:
    return _fields(
        doc,
        [[[v.text() for v in c.vertices] for c in f.cycles] for f in doc.factors],
    )


def _fields(doc: FactorizationDocument, factors) -> dict:
    return {
        "n": doc.n,
        "factor_type": list(doc.ftype.lengths),
        "host": doc.host.to_json(),
        "factors": factors,
        "verified": doc.verified,
        "seed": doc.seed,
    }


# how json.dumps(indent=2) writes the "factors" key with the value 0; its
# quotes are unescaped, so it cannot occur inside any string value
_FACTORS_SLOT = '\n  "factors": 0,\n'


def to_json(doc: FactorizationDocument) -> str:
    """``json.dumps(to_json_dict(doc), indent=2) + "\\n"``, byte for byte.

    Every field but ``"factors"`` goes through ``json.dumps``.  The factors,
    nearly all of the text, are written with ``str.join`` at the indents
    ``json.dumps`` uses, each distinct vertex quoted once by
    ``json.dumps(v.text())`` so the escaping is the encoder's own."""
    head, _, tail = json.dumps(_fields(doc, 0), indent=2).partition(_FACTORS_SLOT)
    named = set()
    for f in doc.factors:
        for c in f.cycles:
            named.update(c.vertices)
    quoted = {v: json.dumps(v.text()) for v in named}.__getitem__
    block = _json_list(
        [
            _json_list(
                [_json_list(list(map(quoted, c.vertices)), 3) for c in f.cycles], 2
            )
            for f in doc.factors
        ],
        1,
    )
    return f'{head}\n  "factors": {block},\n{tail}\n'


def _json_list(items: list, depth: int) -> str:
    """Already encoded ``items`` as ``json.dumps(indent=2)`` writes a list
    nested ``depth`` levels deep."""
    if not items:
        return "[]"
    indent = "\n" + "  " * (depth + 1)
    return "[" + indent + ("," + indent).join(items) + "\n" + "  " * depth + "]"


def _cycle_vertices(tokens, table: dict) -> list:
    """The vertices a cycle's tokens name, by table lookup; a token outside
    the table goes through ``parse_vertex``.  An unhashable token raises
    ``TypeError``."""
    vs = list(map(table.get, tokens))
    if None in vs:
        vs = [parse_vertex(t) if v is None else v for v, t in zip(vs, tokens)]
    return vs


def from_json_dict(data: dict) -> FactorizationDocument:
    raw = data["factors"]
    spec = data["host"]
    host = HostDescriptor(str(spec["kind"]), int(spec["m"]))
    table = {}
    if host.kind in DESCRIBED_KINDS and host.order <= sum(
        len(cyc) for factor in raw for cyc in factor
    ):
        table = host.vertex_by_text
    factors = tuple(
        TwoRegularDigraph(DirectedCycle(_cycle_vertices(cyc, table)) for cyc in factor)
        for factor in raw
    )
    return FactorizationDocument(
        n=int(data["n"]),
        ftype=CycleType(data["factor_type"]),
        host=host,
        factors=factors,
        verified=bool(data["verified"]),
        seed=int(data.get("seed", 0)),
    )


def from_json(text: str) -> FactorizationDocument:
    return from_json_dict(json.loads(text))


def to_text(doc: FactorizationDocument) -> str:
    lines = [
        f"n={doc.n} type={doc.ftype.text()} host={doc.host.kind}({doc.host.m_or_n}) "
        f"verified={doc.verified} seed={doc.seed}"
    ]
    for i, f in enumerate(doc.factors, 1):
        lines.append(f"F{i}: " + " ".join(c.text() for c in f.cycles))
    return "\n".join(lines) + "\n"


def to_edges(doc: FactorizationDocument) -> str:
    """One line per arc: ``<factor-index> <tail> <head>``."""
    lines = []
    for i, f in enumerate(doc.factors, 1):
        for a in sorted(f.arcs()):
            lines.append(f"{i} {a.tail.text()} {a.head.text()}")
    return "\n".join(lines) + "\n"


def to_dot(doc: FactorizationDocument) -> str:
    """A digraph with exactly one edge statement per arc, tagged by factor."""
    lines = [f'digraph factorization_{doc.n} {{']
    for i, f in enumerate(doc.factors, 1):
        for a in sorted(f.arcs()):
            lines.append(
                f'  "{a.tail.text()}" -> "{a.head.text()}" [factor={i}];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


FORMATS = {
    "json": to_json,
    "text": to_text,
    "edges": to_edges,
    "dot": to_dot,
}


def render(doc: FactorizationDocument, fmt: str) -> str:
    try:
        return FORMATS[fmt](doc)
    except KeyError:
        raise ValueError(f"unknown format {fmt!r}") from None
