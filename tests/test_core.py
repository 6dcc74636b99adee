import pytest

from oberwolfach.core import CycleType, Vertex, parse_cycle_type, parse_vertex
from strip import (
    Arc,
    DirectedCycle,
    DirectedPath,
    TwoRegularDigraph,
    concat,
    cycle_from_text,
    cycle_type_of,
    path_from_text,
    shift,
    two_regular_from_arcs,
)


def V(t):
    return parse_vertex(t)


def test_vertex_ordering_and_text():
    assert V("x3") < V("y0")
    assert V("x2") < V("x10")
    assert V("y11").text() == "y11"
    with pytest.raises(ValueError):
        parse_vertex("z3")


def test_cycle_canonical_rotation():
    c = cycle_from_text("(y3,x1,y2)")
    assert c.vertices[0] == V("x1")
    assert c == cycle_from_text("(x1,y2,y3)")
    assert c.text() == "(x1,y2,y3)"


def test_cycle_type_of_examples():
    six = cycle_from_text("(x0,x2,y3,x1,y2,y1)")
    assert cycle_type_of(TwoRegularDigraph([six])) == CycleType([6])
    assert cycle_type_of(TwoRegularDigraph([])) == CycleType([])
    mixed = TwoRegularDigraph(
        [
            cycle_from_text("(x0,x1)"),
            cycle_from_text("(y0,y1)"),
            cycle_from_text("(x2,y3,x3,y2)"),
        ]
    )
    assert cycle_type_of(mixed).lengths == (2, 2, 4)


def test_shift_examples():
    six = cycle_from_text("(x0,x2,y3,x1,y2,y1)")
    assert shift(six, 1) == cycle_from_text("(x1,x3,y4,x2,y3,y2)")
    p = path_from_text("<x0,y1>")
    assert shift(p, 0) == p
    assert shift(p, 2) == path_from_text("<x2,y3>")
    with pytest.raises(ValueError):
        shift(p, -1)


def test_shift_preserves_cycle_type():
    d = TwoRegularDigraph(
        [cycle_from_text("(x0,x1)"), cycle_from_text("(x2,y3,x3,y2)")]
    )
    assert cycle_type_of(shift(d, 5)) == cycle_type_of(d)


def test_reverse_cycle():
    def reverse_cycle(c):
        return DirectedCycle(reversed(c.vertices))

    c = cycle_from_text("(x0,x1,y2)")
    assert reverse_cycle(c) == cycle_from_text("(y2,x1,x0)")
    assert reverse_cycle(reverse_cycle(c)) == c
    assert reverse_cycle(c).length == c.length


def test_concat_path_and_cycle():
    joined = concat(path_from_text("<x0,x1>"), path_from_text("<x1,x2>"))
    assert isinstance(joined, DirectedPath)
    assert joined == path_from_text("<x0,x1,x2>")
    closed = concat(path_from_text("<x0,y1>"), path_from_text("<y1,x0>"))
    assert isinstance(closed, DirectedCycle)
    assert closed == cycle_from_text("(x0,y1)")


def test_concat_length_additivity():
    p = path_from_text("<x0,y1,x2>")
    q = path_from_text("<x2,y3>")
    assert concat(p, q).length == p.length + q.length


def test_concat_errors():
    with pytest.raises(ValueError):
        concat(path_from_text("<x0,x1>"), path_from_text("<x2,x3>"))
    with pytest.raises(ValueError):
        # shared internal vertex y1
        concat(path_from_text("<x0,y1,x1>"), path_from_text("<x1,y1,x2>"))


def test_two_regular_from_arcs():
    arcs = cycle_from_text("(x0,y1,x2)").arcs() + cycle_from_text("(y0,y2)").arcs()
    d = two_regular_from_arcs(arcs)
    assert cycle_type_of(d).lengths == (2, 3)
    with pytest.raises(ValueError):
        two_regular_from_arcs([Arc(V("x0"), V("x1"))])
    with pytest.raises(ValueError):
        two_regular_from_arcs(
            [Arc(V("x0"), V("x1")), Arc(V("x0"), V("x2")), Arc(V("x1"), V("x0")), Arc(V("x2"), V("x0"))]
        )


def test_type_order_equals_arc_count():
    d = TwoRegularDigraph(
        [cycle_from_text("(x0,x1)"), cycle_from_text("(x2,y3,x3,y2)")]
    )
    assert cycle_type_of(d).order == len(d.arcs()) == d.order


def test_cycle_type_parse_and_format():
    assert parse_cycle_type("[2^3,4]").lengths == (2, 2, 2, 4)
    assert parse_cycle_type("[2,2,2,4]") == parse_cycle_type("[2^3,4]")
    assert parse_cycle_type("[4,2]").lengths == (2, 4)
    assert parse_cycle_type("[2^3,4]").text() == "[2^3,4]"
    assert parse_cycle_type("[14]").text() == "[14]"
    with pytest.raises(ValueError):
        parse_cycle_type("[1,4]")
    with pytest.raises(ValueError):
        parse_cycle_type("[2^0,4]")
    with pytest.raises(ValueError):
        parse_cycle_type("bogus")


def test_cycle_type_invariant_under_relabeling():
    d = TwoRegularDigraph(
        [cycle_from_text("(x0,y1,x2,y0)"), cycle_from_text("(x1,y2)")]
    )
    relabeled = TwoRegularDigraph(
        DirectedCycle(Vertex("y" if v.side == "x" else "x", 7 - v.index) for v in c.vertices)
        for c in d.cycles
    )
    assert cycle_type_of(relabeled) == cycle_type_of(d)
