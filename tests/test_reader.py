"""The certificate reader against the list-and-set reader kept in
``reference_reader.py``, on corrupted certificates either side of 256
vertices, where the reader switches from lists to ``bytes``.

Whatever the corruption, ``read_certificate`` raises the reference's
exception and message or returns the same ids, and ``verify`` run on the
file gives the exit code, stdout and stderr of a ``verify`` that reads with
the reference reader and checks with the reference checker.
"""

import contextlib
import functools
import io
import json
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_checker
import reference_reader
from oberwolfach import cli, serialize
from oberwolfach.caps import w_star_id_factors
from oberwolfach.core import parse_cycle_type
from oberwolfach.hosts import HostDescriptor
from oberwolfach.hstar import factorize_h_star
from oberwolfach.serialize import (
    FactorizationDocument,
    document_for_solution,
    read_certificate,
    to_json,
)
from oberwolfach.solver import solve

# (kind, size, type): complete hosts of order 254 and 258, H* and W* hosts
# of order 14, 254, 256 and 258
_DOCUMENTS = (
    ("CompleteSymmetric", 254, "[4,250]"),
    ("CompleteSymmetric", 258, "[2,4,252]"),
    ("WStar", 7, "[2,4,8]"),
    ("HStar", 127, "[4,250]"),
    ("WStar", 128, "[4,252]"),
    ("HStar", 129, "[2,4,252]"),
)


@functools.lru_cache(maxsize=None)
def _clean(kind, size, spec):
    """The certificate text of a real factorization of the host."""
    ftype = parse_cycle_type(spec)
    if kind == "CompleteSymmetric":
        factors = solve(size, ftype).id_factors
    elif kind == "HStar":
        factors = factorize_h_star(ftype, size).id_factors
    else:
        factors = w_star_id_factors(ftype)
    host = HostDescriptor(kind, size)
    doc = FactorizationDocument(
        ftype.order, ftype, host, factors, host.vertex_table, host.order, True
    )
    return to_json(doc)


def _spot(data, factors, factor=None):
    """A factor, one of its cycles and a place in it, drawn; None when the
    factor has no token."""
    f = factors[data.draw(st.integers(0, len(factors) - 1))] if factor is None else factor
    spots = [(c, k) for c in f for k in range(len(c))]
    if not spots:
        return None
    c, k = spots[data.draw(st.integers(0, len(spots) - 1))]
    return f, c, k


_OTHER_TOKENS = st.one_of(
    st.sampled_from(["x01", "z1", "", " x0", "X3", "y" + "9" * 301, "x-1"]),
    st.sampled_from([7, None, True, 1.5]),
)
_UNHASHABLE = st.sampled_from([[], {}, ["x0"], {"x": 0}])
_OPS = (
    "foreign",
    "malformed",
    "unhashable",
    "repeat_within",
    "repeat_across",
    "one_cycle",
    "empty_cycle",
    "empty_factor",
    "drop_token",
    "shared_foreign",
)


def _corrupt(data, factors, op, order):
    """Apply one corruption to ``factors``, lists of cycles of tokens."""
    if op == "empty_factor":
        factors.insert(data.draw(st.integers(0, len(factors))), [])
        return
    drawn = _spot(data, factors)
    if drawn is None:
        return
    f, c, k = drawn
    if op == "foreign":  # a well-formed vertex outside the host
        c[k] = data.draw(st.sampled_from("xy")) + str(order + data.draw(st.integers(0, 2)))
    elif op == "malformed":
        c[k] = data.draw(_OTHER_TOKENS)
    elif op == "unhashable":
        c[k] = data.draw(_UNHASHABLE)
    elif op == "repeat_within":  # a token again in its own cycle
        token = c[data.draw(st.integers(0, len(c) - 1))]
        if data.draw(st.booleans()):
            c.insert(k, token)
        else:
            c[k] = token
    elif op == "repeat_across":  # a token of another cycle, or another factor
        other = _spot(data, factors, None if data.draw(st.booleans()) else f)
        if other is not None:
            _, d, j = other
            if data.draw(st.booleans()):
                c.insert(k, d[j])
            else:
                c[k] = d[j]
    elif op == "one_cycle":
        choice = data.draw(st.integers(0, 2))
        if choice == 0:  # a cycle cut to one token
            del c[1:]
        elif choice == 1:  # a token moved out into a cycle of its own
            f.append([c.pop(k)])
        else:  # a token again, as a cycle of its own
            f.append([c[k]])
    elif op == "empty_cycle":
        f.insert(data.draw(st.integers(0, len(f))), [])
    elif op == "shared_foreign":
        # a new cycle: a foreign x, which sorts after the host's x and
        # before its y but gets an id after all of them, then two y of the
        # factor's other cycles, the greater first.  In vertex order the
        # cycle starts at the x and meets the greater y again first; in id
        # order it would start at the lesser y and meet that one first.
        ys = sorted({t for d in f for t in d if isinstance(t, str) and t[:1] == "y"})
        if len(ys) >= 2:
            two = st.lists(st.sampled_from(ys), min_size=2, max_size=2, unique=True)
            pair = sorted(data.draw(two), key=lambda t: int(t[1:]), reverse=True)
            f.append(["x" + str(order + data.draw(st.integers(0, 2))), *pair])
    else:  # drop_token
        del c[k]


def _read(reader, data):
    """What ``reader`` makes of ``data``: the exception and its message, or
    the document with its cycles as lists."""
    try:
        doc = reader(data)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    factors = [[list(c) for c in f] for f in doc.factors]
    return factors, list(doc.vertices), doc.named, doc.n, doc.ftype, doc.host


def _reference_check(host, factors, ftype):
    return reference_checker.verify_id_factorization(
        host.kind, host.m_or_n, factors, ftype
    )


def _verify(path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", path])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("op", _OPS)
@settings(max_examples=15, deadline=None, database=None)
@given(data=st.data())
def test_the_reader_matches_the_list_and_set_reader(op, data):
    kind, size, spec = data.draw(st.sampled_from(_DOCUMENTS))
    doc = json.loads(_clean(kind, size, spec))
    order = HostDescriptor(kind, size).order
    for extra in [op] + data.draw(st.lists(st.sampled_from(_OPS), max_size=2)):
        if doc["factors"]:
            _corrupt(data, doc["factors"], extra, order)
    text = json.dumps(doc, indent=2) + "\n"
    got = _read(read_certificate, json.loads(text))
    assert got == _read(reference_reader.read_certificate, json.loads(text))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cert.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        result = _verify(path)
        with mock.patch.object(
            serialize, "read_certificate", reference_reader.read_certificate
        ), mock.patch.object(cli, "verify_id_factorization", _reference_check):
            assert result == _verify(path)


def test_a_clean_certificate_is_read_into_bytes_up_to_256_vertices():
    """Each cycle of a clean certificate is one ``bytes`` up to 256
    vertices and a list above, holding the same ids either way."""
    for kind, size, spec in _DOCUMENTS:
        data = json.loads(_clean(kind, size, spec))
        doc = read_certificate(data)
        packed = bytes if doc.host.order <= 256 else list
        assert all(type(c) is packed for f in doc.factors for c in f)
        assert doc.named == doc.host.order
        assert _read(read_certificate, data) == _read(
            reference_reader.read_certificate, data
        )


def test_shared_vertex_is_found_in_vertex_order_not_id_order(tmp_path):
    """The foreign x7 gets id 10 on the order-10 host but sorts before y0,
    so the cycles, sorted by vertex, meet y4 again before y3; sorted by id
    they would meet y3 first."""
    result = solve(10, parse_cycle_type("[4,6]"))
    data = json.loads(to_json(document_for_solution(result)))
    data["factors"][0] = [["y1", "y3"], ["y4", "y0", "y2"], ["x7", "y3", "y4"]]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    error = "error: malformed input: cycles share vertex y4\n"
    assert _verify(str(path)) == (1, "", error)
