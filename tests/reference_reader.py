"""The certificate reader as it was written before cycles were read into
``bytes``: every cycle a list of ids, and one id set per factor to learn
whether the factor's ids are distinct.

The package no longer runs it; the tests keep it as the reference that
``serialize.read_certificate`` must match, message for message and id for
id.  The schema check, the host descriptor and the token parser are the
package's own, which both readers share.  A bad cycle or factor is refused
by the cycle and factor constructors of ``strip``, which the package does
not have: they judge the package's own refusal on ids.
"""

from itertools import chain

from oberwolfach.core import CycleType, parse_vertex
from oberwolfach.hosts import DESCRIBED_KINDS, HostDescriptor
from oberwolfach.serialize import FactorizationDocument, _check_schema
from strip import DirectedCycle, two_regular_from_ids


def read_certificate(data) -> FactorizationDocument:
    """A certificate's parsed JSON read into vertex-id lists; ``ValueError``
    or ``TypeError`` on malformed input."""
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
        vertices = list(host.vertex_table)
    lookup = table.__getitem__
    foreign_ids = {}

    def foreign_id(token) -> int:
        i = foreign_ids.get(token)
        if i is None:
            vertices.append(parse_vertex(token))
            i = foreign_ids[token] = len(vertices) - 1
        return i

    def resolve(factor: list) -> list:
        cycles = []
        try:
            for tokens in factor:
                ids = list(map(table.get, tokens))
                if None in ids:
                    ids = [
                        foreign_id(t) if i is None else i for i, t in zip(ids, tokens)
                    ]
                cycles.append(ids)
        except (ValueError, TypeError):
            for c in cycles:  # an earlier cycle's error is first
                DirectedCycle(map(vertices.__getitem__, c))
            raise
        return cycles

    factors = []
    named: set = set()
    for factor in raw:
        try:
            cycles = [list(map(lookup, tokens)) for tokens in factor]
        except (KeyError, TypeError):
            cycles = resolve(factor)
        ids: set = set()
        for c in cycles:
            ids.update(c)
        if len(ids) != sum(map(len, cycles)) or min(map(len, cycles), default=2) < 2:
            two_regular_from_ids(cycles, vertices)  # raises
        named |= ids
        factors.append(cycles)
    return FactorizationDocument(
        n=data["n"],
        ftype=CycleType(data["factor_type"]),
        host=host,
        factors=factors,
        vertices=vertices,
        named=len(named),
        verified=data["verified"],
    )
