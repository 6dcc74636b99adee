"""Serialisation of factorizations: JSON (round-trippable), DOT, edge list,
and a plain text form.

JSON schema::

    {"n": int, "factor_type": [int, ...], "host": {"kind": str, "m": int},
     "factors": [[["x0", "x1", ...], ...], ...], "verified": bool}

A certificate is one document type, ``FactorizationDocument``, on vertex
ids: the factors are lists of cycles of ids, and ``vertices`` maps each id
to its vertex.  Each format's writer in ``FORMATS`` yields a head, one
chunk per factor, then a tail, so a certificate is written one factor's
text at a time; ``render`` joins them.  The bytes depend only on each
factor's set of cycles: ``json_chunks`` (``to_json`` joins its text) and
``text_chunks`` put each factor in canonical form as they write it
(``core.canonical_id_cycles``), so re-serialising a canonical file
reproduces it byte for byte, and the edge-list and DOT writers sort the
arcs (a permutation's read off ``hosts.successor_table``).  Text, edges
and DOT rank the ids by vertex first, whatever order a read document's
ids are in.

Certificates are read by one reader, ``read_certificate`` (``from_json``
is it applied to text), and ``verify`` hands its cycles to the checker.

* **Schema first.**  Before anything is built, the field types are checked:
  ``n``, ``host.m`` and every ``factor_type`` entry are JSON integers (not
  booleans), ``verified`` is a boolean, ``host.kind`` a string and
  ``factors`` a list of lists of lists.  A violation raises ``ValueError``
  naming the field and the JSON type found.  Keys the schema does not name
  are ignored, as is the ``seed`` key of certificates before 0.3.0.
* **Tokens to ids.**  Each vertex token is resolved through the declared
  host's ``id_by_text`` table (``hosts.HostDescriptor``) to the vertex's id,
  so the common path runs no regex and builds no object.  A token outside
  the table must still be written as ``Vertex.text`` writes it (``x0``,
  ``y12``: no whitespace, no leading zeros) or the document is malformed;
  such a token names a vertex outside the host, which gets the id N + k,
  one per distinct vertex, and the checker then reports it.  The document
  keeps the host's own vertex table until the first such token, so that
  ``to_json`` writes it with the host's quoted tokens.  The table is
  used only when the document has at least as many tokens as the host has
  vertices, so a huge declared size allocates nothing; without it every
  token is outside, and ``verify`` refuses the document for naming too few
  vertices.
* **Bytes up to 256 vertices.**  On the table path of a host of order
  N <= ``hosts.BYTE_IDS`` each cycle is read as one ``bytes``, an id per
  byte, and a factor is a permutation of the host's ids when
  ``hosts.byte_permutation`` says so, the test that
  ``hosts.successor_table`` makes again for the checker's byte tables.
  Both tests stay: the reader's fixes, before any check runs, which
  factors it refuses and in what order, and ``named``; the checker's
  keeps the checker independent of the reader.  Above 256, and for a
  factor with a token outside the table, the cycles are lists of ids,
  which ``successor_table`` scatters into the checker's wide tables.
* **One set per other factor.**  A factor that is not such a permutation is
  distinct when its id set is as large as its total length.  A factor that
  fails this or has a cycle of fewer than 2 vertices is refused on its
  vertices (``_refuse_factor``): the first cycle in read order with fewer
  than 2 vertices (``cycle needs at least 2 vertices``) or a repeated one
  (``repeated vertex in cycle ...``), and only then the first vertex that
  two cycles share (``cycles share vertex ...``), met along the cycles'
  vertices in canonical form (``core.canonical_id_cycles``).  A token
  that does not resolve raises ``bad vertex token: ...`` unless an earlier
  cycle of its factor is bad.  A distinct factor of N ids, all resolved
  through the table, names all N ids at any width, as a permutation does,
  so only the other factors' sets are joined to count the vertices the
  factors name.
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache, partial
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import NamedTuple, Sequence

from .core import CycleType, Vertex, canonical_id_cycles, id_arcs, parse_vertex
from .hosts import (
    BYTE_IDS,
    DESCRIBED_KINDS,
    HostDescriptor,
    byte_permutation,
    successor_table,
)


class FactorizationDocument(NamedTuple):
    """A certificate on vertex ids: ``factors`` lists each factor's cycles,
    each a sequence of ids, and ``vertices[i]`` is the vertex of id i.  For
    a solution and for a document read with the host's table, ids below the
    host's order are its vertices (``hosts.HostDescriptor`` numbering), then
    come the foreign vertices.  ``named`` counts the distinct vertices the
    factors name."""

    n: int
    ftype: CycleType
    host: HostDescriptor
    factors: Sequence
    vertices: Sequence  # Vertex by id
    named: int
    verified: bool


def _cycle_vertices(cycles, vertices) -> list:
    """Each cycle's vertices as a tuple, id i naming ``vertices[i]``, in
    order; the first cycle of fewer than 2 vertices or with a repeated
    vertex raises its error."""
    out = []
    for c in cycles:
        vs = tuple(map(vertices.__getitem__, c))
        if len(vs) < 2:
            raise ValueError("cycle needs at least 2 vertices")
        if len(set(vs)) != len(vs):
            raise ValueError(f"repeated vertex in cycle {vs}")
        out.append(vs)
    return out


def _refuse_factor(cycles, vertices) -> None:
    """Raise the error of a factor whose cycles are not vertex-disjoint
    cycles: a bad cycle's (``_cycle_vertices``), and only then the first
    vertex repeated along the cycles' vertices in canonical form, sorted by
    vertex, never by id (a foreign vertex's id follows the host's, wherever
    the vertex sorts)."""
    seen: set = set()
    canonical = canonical_id_cycles(_cycle_vertices(cycles, vertices))
    for v in chain.from_iterable(canonical):
        if v in seen:
            raise ValueError(f"cycles share vertex {v}")
        seen.add(v)


def document_for_solution(solution) -> FactorizationDocument:
    """Wrap a solver result (over the complete host) for export, on its
    vertex ids and the host's vertex table."""
    host = HostDescriptor("CompleteSymmetric", solution.n)
    return FactorizationDocument(
        n=solution.n,
        ftype=solution.ftype,
        host=host,
        factors=solution.id_factors,
        vertices=host.vertex_table,
        named=solution.n,  # the solution's report checked that every factor spans
        verified=solution.report.passed,
    )


# json.dumps(indent=2) writes a non-empty list or object nested d = 0, 1, 2,
# 3 levels deep (the document, the factors, a factor, a cycle; the factor
# type and the host are at depth 1) as its bracket, a line break and the
# indent of depth d, the items joined by _SEP[d] (a comma, a line break and
# that indent), a line break, the indent of depth d - 1 and the closing
# bracket.  An empty list is "[]".
_SEP = tuple(",\n" + "  " * (d + 1) for d in range(4))


@lru_cache(maxsize=1)
def _quoted_tokens(host: HostDescriptor) -> list:
    """``_quoted`` of ``host``'s vertex table."""
    return _quoted(host.vertex_table)


def _quoted(vertices) -> list:
    """Each vertex's JSON string by its place in ``vertices``, its text
    quoted by the function ``json.dumps`` calls on a lone string."""
    return list(map(encode_basestring_ascii, map(Vertex.text, vertices)))


def json_chunks(doc: FactorizationDocument):
    """The text of ``to_json`` as strings in turn: the fields before the
    factors, each factor with the separator before it, then the rest.

    The text is joined with the fixed separators of ``_SEP``; only
    ``indent`` makes the encoder run in Python, so it is handed nothing.
    The other fields have the schema's types, so each scalar is written as
    ``json.dumps`` writes it: ``n``, ``host.m`` and the cycle lengths,
    ints, by ``str``, ``host.kind`` by the encoder's own string quoting and
    ``verified`` as ``true`` or ``false``.  The factors, nearly all of the
    text, are written from their ids by ``str.join``, each in canonical
    form on its ids (in a read document, foreign vertices after the
    host's, whatever their vertex order): a cycle's quoted vertices are
    gathered by one ``itemgetter`` call and joined, so a cycle costs two
    C-level calls.  A cycle of fewer than 2 ids, which only a hand-built
    document has, is read by ``map`` instead, since the gather of one id
    returns a bare string, which ``join`` would split.  Each vertex is
    quoted as ``json.dumps(v.text())`` quotes it; a document on its host's
    own vertex table (every solution) takes the quoted tokens kept for that
    host, one that names other vertices quotes its own."""
    s0, s1, s2, s3 = _SEP
    o1, o2, o3 = "[" + s1[1:], "[" + s2[1:], "[" + s3[1:]
    c1, c2, c3 = s0[1:] + "]", s1[1:] + "]", s2[1:] + "]"
    host = doc.host
    lengths = doc.ftype.lengths
    ftype = o1 + s1.join(map(str, lengths)) + c1 if lengths else "[]"
    kind = encode_basestring_ascii(host.kind)
    yield (
        f'{{\n  "n": {doc.n},\n  "factor_type": {ftype},\n'
        f'  "host": {{{s1[1:]}"kind": {kind},{s1[1:]}"m": {host.m_or_n}{s0[1:]}}},\n'
        f'  "factors": '
    )
    if _on_host_table(doc):
        table = _quoted_tokens(host)
    else:
        table = _quoted(doc.vertices)
    tokens = partial(map, table.__getitem__)  # a short cycle's quoted vertices
    between = c3 + s2 + o3  # closes a cycle and opens the next
    opened, closed = o2 + o3, c3 + c2  # around a factor's cycles
    gather = min(map(len, chain.from_iterable(doc.factors)), default=2) > 1
    lead = o1
    for f in map(canonical_id_cycles, doc.factors):
        if not f:
            yield lead + "[]"
        elif gather:
            text = between.join([s3.join(itemgetter(*c)(table)) for c in f])
            yield f"{lead}{opened}{text}{closed}"
        else:
            text = f"{lead}{opened}{between.join(map(s3.join, map(tokens, f)))}{closed}"
            # an empty cycle comes out opened and closed; the separators hold
            # line breaks, which no quoted token does, so nothing else matches
            yield text.replace(o3 + c3, "[]")
        lead = s1
    verified = "true" if doc.verified else "false"
    yield f'{c1 if doc.factors else "[]"},\n  "verified": {verified}\n}}\n'


def to_json(doc: FactorizationDocument) -> str:
    """The document as ``json.dumps(obj, indent=2) + "\\n"`` writes the
    schema's object ``obj`` (each vertex by its text), byte for byte: the
    join of ``json_chunks``."""
    return "".join(json_chunks(doc))


_JSON_TYPES = {
    dict: "an object",
    list: "an array",
    str: "a string",
    int: "an integer",
    float: "a number",
    bool: "a boolean",
    type(None): "null",
}


def _expect(value, want: type, name: str) -> None:
    """Refuse ``value`` unless its JSON type is ``want``'s (``bool`` is not
    an integer here)."""
    if type(value) is not want:
        raise ValueError(
            f"{name} must be {_JSON_TYPES[want]}, "
            f"not {_JSON_TYPES.get(type(value), type(value).__name__)}"
        )


def _field(data: dict, key: str, want: type, name: str):
    """``data[key]``, refused when missing or not of JSON type ``want``."""
    if key not in data:
        raise ValueError(f"missing field {name}")
    _expect(data[key], want, name)
    return data[key]


def _expect_items(values: list, want: type, name: str) -> None:
    """``_expect`` on every item of ``values``, by one pass over their types."""
    if not {*map(type, values)} <= {want}:
        for i, value in enumerate(values):
            _expect(value, want, f"{name}[{i}]")


def _check_schema(data) -> None:
    """Refuse a document whose fields do not have the schema's JSON types."""
    _expect(data, dict, "the document")
    _field(data, "n", int, "n")
    _expect_items(_field(data, "factor_type", list, "factor_type"), int, "factor_type")
    host = _field(data, "host", dict, "host")
    _field(host, "kind", str, "host.kind")
    _field(host, "m", int, "host.m")
    factors = _field(data, "factors", list, "factors")
    _expect_items(factors, list, "factors")
    if not {*map(type, chain.from_iterable(factors))} <= {list}:
        for i, factor in enumerate(factors):
            _expect_items(factor, list, f"factors[{i}]")
    _field(data, "verified", bool, "verified")


def read_certificate(data) -> FactorizationDocument:
    """Read a certificate's parsed JSON into vertex-id cycles, ``bytes`` or
    lists (see the module docstring); raise ``ValueError`` or ``TypeError``
    on malformed input."""
    _check_schema(data)
    spec = data["host"]
    host = HostDescriptor(spec["kind"], spec["m"])
    raw = data["factors"]
    table = {}
    vertices = []
    if host.kind in DESCRIBED_KINDS and host.order <= sum(
        map(len, chain.from_iterable(raw))
    ):
        table = host.id_by_text
        vertices = host.vertex_table  # copied at the first foreign token
    lookup = table.__getitem__
    foreign_ids = {}

    def foreign_id(token) -> int:
        nonlocal vertices
        i = foreign_ids.get(token)
        if i is None:
            vertex = parse_vertex(token)
            if isinstance(vertices, tuple):  # the host's table, shared
                vertices = list(vertices)
            vertices.append(vertex)
            i = foreign_ids[token] = len(vertices) - 1
        return i

    def resolve(factor: list) -> list:
        """The slow path, for a factor with a token outside the table."""
        cycles = []
        try:
            for tokens in factor:
                # all of a cycle's tokens are looked up before any is parsed:
                # an unhashable token's TypeError precedes a bad token's error
                ids = list(map(table.get, tokens))
                if None in ids:
                    ids = [
                        foreign_id(t) if i is None else i for i, t in zip(ids, tokens)
                    ]
                cycles.append(ids)
        except (ValueError, TypeError):
            _cycle_vertices(cycles, vertices)  # an earlier cycle's error is first
            raise
        return cycles

    pack = bytes if table and host.order <= BYTE_IDS else list
    spans = False  # some factor is a permutation of the host's ids
    factors = []
    named: set = set()
    for factor in raw:
        on_host = True  # every token resolved through the table
        try:
            cycles = [pack(map(lookup, tokens)) for tokens in factor]
        except (KeyError, TypeError):
            cycles = resolve(factor)
            on_host = False
        else:
            if (
                pack is bytes
                and byte_permutation(cycles, host.order) is not None
                and min(map(len, cycles)) >= 2
            ):
                spans = True
                factors.append(cycles)
                continue
        ids: set = set()
        for c in cycles:
            ids.update(c)
        total = sum(map(len, cycles))
        if len(ids) != total or min(map(len, cycles), default=2) < 2:
            _refuse_factor(cycles, vertices)  # raises
        if on_host and total == host.order:
            spans = True  # N distinct ids of the host: all of them
        else:
            named |= ids
        factors.append(cycles)
    if spans:
        named.update(range(host.order))
    return FactorizationDocument(
        n=data["n"],
        ftype=CycleType(data["factor_type"]),
        host=host,
        factors=factors,
        vertices=vertices,
        named=len(named),
        verified=data["verified"],
    )


def _bounded_int(literal: str) -> int:
    """A JSON integer literal, refused with a plain message when it is
    longer than the interpreter converts (``sys.get_int_max_str_digits``)."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit and len(literal.lstrip("-")) > limit:
        raise ValueError(f"an integer literal has more than {limit} digits")
    return int(literal)


def parse_json(text: str):
    """``json.loads(text)``, with integer literals read by ``_bounded_int``."""
    return json.loads(text, parse_int=_bounded_int)


def from_json(text: str) -> FactorizationDocument:
    return read_certificate(parse_json(text))


def _on_host_table(doc: FactorizationDocument) -> bool:
    """Whether ``doc``'s ids are its host's, in vertex order (a solution's)."""
    return doc.host.kind in DESCRIBED_KINDS and doc.vertices is doc.host.vertex_table


def _ranked(doc: FactorizationDocument) -> tuple:
    """The factors, each made when it is taken, with each id replaced by its
    vertex's place in the sort order of ``doc.vertices``, and the vertices'
    texts in that order.  On these ranks, id order is vertex order, also for
    a read document whose foreign vertices got ids after the host's; on its
    host's own table each id is its rank, and nothing is sorted."""
    vertices = doc.vertices
    if _on_host_table(doc):
        return doc.factors, list(map(Vertex.text, vertices))
    order = sorted(range(len(vertices)), key=vertices.__getitem__)
    rank = sorted(range(len(order)), key=order.__getitem__).__getitem__
    factors = ([list(map(rank, c)) for c in f] for f in doc.factors)
    return factors, [vertices[i].text() for i in order]


def text_chunks(doc: FactorizationDocument):
    """A header line, then one line per factor: its cycles, each from its
    least vertex, in sorted order; the tail is empty."""
    factors, texts = _ranked(doc)
    text = texts.__getitem__
    yield (
        f"n={doc.n} type={doc.ftype.text()} host={doc.host.kind}({doc.host.m_or_n}) "
        f"verified={doc.verified}\n"
    )
    for i, f in enumerate(factors, 1):
        cycles = ("(" + ",".join(map(text, c)) + ")" for c in canonical_id_cycles(f))
        yield f"F{i}: " + " ".join(cycles) + "\n"
    yield ""


def _arc_chunks(doc: FactorizationDocument, line):
    """Each factor's arcs, sorted by vertex, as lines ``first + tail + mid +
    head + last``, with ``(first, mid, last) = line(i)`` for factor i from 1:
    read from the successor table of a permutation (``successor_table``),
    sorted otherwise."""
    factors, texts = _ranked(doc)
    n = len(texts)
    for i, f in enumerate(factors, 1):
        table = successor_table(f, n)
        if table is not None:
            tails, heads = range(n), table
        else:
            tails, heads = id_arcs(f)
            if tails:
                tails, heads = zip(*sorted(zip(tails, heads)))
        first, mid, last = line(i)
        lines = [first, None, mid, None, last] * len(tails)
        lines[1::5] = map(texts.__getitem__, tails)
        lines[3::5] = map(texts.__getitem__, heads)
        yield "".join(lines)


def edges_chunks(doc: FactorizationDocument):
    """One line per arc, ``<factor-index> <tail> <head>``, after an empty
    head; the tail is a lone line break when no factor has an arc."""
    yield ""
    empty = True
    for chunk in _arc_chunks(doc, lambda i: (f"{i} ", " ", "\n")):
        empty = empty and not chunk
        yield chunk
    yield "\n" if empty else ""


def dot_chunks(doc: FactorizationDocument):
    """A digraph with exactly one edge statement per arc, tagged by factor."""
    yield f"digraph factorization_{doc.n} {{\n"
    yield from _arc_chunks(doc, lambda i: ('  "', '" -> "', f'" [factor={i}];\n'))
    yield "}\n"


# each format's writer: the head, one chunk per factor, then the tail
FORMATS = {
    "json": json_chunks,
    "text": text_chunks,
    "edges": edges_chunks,
    "dot": dot_chunks,
}


def render(doc: FactorizationDocument, fmt: str) -> str:
    """The document in format ``fmt``: the join of its chunks."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    return "".join(FORMATS[fmt](doc))
