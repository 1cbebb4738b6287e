"""Property tests for `Graph` lookups, its index core and the edge-list
format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiuskit.errors import ParseError
from radiuskit.graphs import (Graph, complete_bipartite, parse_graph,
                              serialize_graph)

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
@given(st.lists(LABELS, unique=True, max_size=6), EDGE_LISTS)
def test_index_core_matches_labels(vertices, edges):
    g = Graph(vertices, edges)
    assert list(g.index) == list(g.vertices)
    assert list(g.index.values()) == list(range(g.num_vertices))
    assert g.ends.shape == (g.num_edges, 2) and not g.ends.flags.writeable
    assert g.ends.tolist() == [[g.index[u], g.index[v]] for u, v in g.edges]
    assert g.edges == tuple((str(u), str(v)) for u, v in edges)
    # the lazily built adjacency against plain neighbour sets
    plain = {v: set() for v in g.vertices}
    for u, v in edges:
        plain[u].add(v)
        plain[v].add(u)
    for u in g.vertices:
        assert g.neighbors(u) == tuple(sorted(plain[u]))
        assert g.degree(u) == len(plain[u])
        for v in g.vertices:
            assert g.has_edge(u, v) == (v in plain[u])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9))
def test_complete_bipartite_equals_label_built(m, n):
    g = complete_bipartite(m, n)
    xs = [f"x{i}" for i in range(1, m + 1)]
    ys = [f"y{j}" for j in range(1, n + 1)]
    labelled = Graph(xs + ys, [(x, y) for x in xs for y in ys])
    assert g == labelled and hash(g) == hash(labelled)
    assert g.vertices == labelled.vertices and g.edges == labelled.edges
    assert g.index == labelled.index
    assert g.ends.tolist() == labelled.ends.tolist()
    assert g.ends.dtype == labelled.ends.dtype
    assert not g.ends.flags.writeable


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
