"""Property tests for `Graph` lookups and the edge-list format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiuskit.errors import ParseError
from radiuskit.graphs import Graph, parse_graph, serialize_graph

LABELS = st.text(alphabet="abxy019_^[],|", min_size=1, max_size=3)
EDGE_LISTS = st.lists(
    st.tuples(LABELS, LABELS).filter(lambda e: e[0] != e[1]),
    unique_by=frozenset, max_size=25)
PROPERTY = settings(max_examples=200, deadline=None)


@PROPERTY
@given(EDGE_LISTS)
def test_serialize_parse_round_trip(edges):
    g = Graph((), edges)
    back = parse_graph(serialize_graph(g))
    assert back == g
    assert back.edges == g.edges and back.vertices == g.vertices


@PROPERTY
@given(st.lists(LABELS, unique=True, max_size=6), EDGE_LISTS)
def test_lookups_agree_with_plain_edge_set(vertices, edges):
    g = Graph(vertices, edges)
    plain = {frozenset(e) for e in g.edges}
    assert g.edge_set() == plain
    for u in g.vertices:
        assert g.degree(u) == sum(u in e for e in plain)
        for v in g.vertices:
            assert g.has_edge(u, v) == g.has_edge(v, u)
            assert g.has_edge(u, v) == (frozenset((u, v)) in plain)
    assert not g.has_edge("missing", "labels")
    flipped = Graph(g.vertices[::-1], [(v, u) for u, v in g.edges[::-1]])
    assert flipped == g and hash(flipped) == hash(g)
    if g.edges:
        assert Graph(g.vertices, g.edges[1:]) != g
    assert Graph(g.vertices + ("isolated",), g.edges) != g


@PROPERTY
@given(EDGE_LISTS.filter(bool), st.integers(0, 3), st.data())
def test_parse_error_names_first_bad_line(edges, padding, data):
    """A repeated edge in either orientation, or a self-loop, is reported
    at its own line, after any blank and comment lines before it."""
    lines = ["", "# note", "  ", "#"][:padding]
    lines += [f"{u} {v}" for u, v in edges]
    at = data.draw(st.integers(padding + 1, len(lines)))
    u, v = data.draw(st.sampled_from(edges[:at - padding]))
    bad = data.draw(st.sampled_from([f"{u} {v}", f"{v} {u}", f"{u} {u}"]))
    lines.insert(at, bad)
    lines.append(bad)  # a later bad line must not be the one named
    with pytest.raises(ParseError) as err:
        parse_graph("\n".join(lines))
    assert err.value.line == at + 1
    a, b = bad.split()
    expected = (f"self-loop at {a!r}" if a == b
                else f"duplicate edge {a!r} {b!r}")
    assert str(err.value) == f"line {at + 1}: {expected}"
