"""Tests for the graph type, generators, and edge-list I/O."""

import math
import random

import pytest
from helpers import line_graph_reference, random_graph

from radiuskit.errors import InputError, InvalidParameterError, ParseError
from radiuskit.graphs import (Graph, attach_pendants, circulant, complete,
                              complete_bipartite, cycle, edge_label,
                              line_graph, parse_graph, path, serialize_graph)


def test_generators():
    assert complete(4).num_edges == 6
    assert complete_bipartite(3, 4).num_edges == 12
    g = cycle(5)
    assert g.num_edges == 5
    assert all(g.degree(v) == 2 for v in g.vertices)
    assert path(3).edges == (("v1", "v2"), ("v2", "v3"))
    with pytest.raises(InvalidParameterError):
        cycle(2)
    with pytest.raises(InvalidParameterError):
        complete_bipartite(0, 3)


def test_graph_validation():
    with pytest.raises(InputError):
        Graph((), [("a", "a")])
    with pytest.raises(InputError):
        Graph((), [("a", "b"), ("b", "a")])
    with pytest.raises(InputError):
        Graph(("a b",), ())


def test_circulant():
    g = circulant(5, 2)
    assert g.num_edges == 10  # every pair within distance 2: K_5
    assert all(g.degree(v) == 4 for v in g.vertices)
    g = circulant(8, 2)
    assert g.num_edges == 16
    assert all(g.degree(v) == 4 for v in g.vertices)
    g = circulant(6, 1)
    assert g.num_edges == 6 and all(g.degree(v) == 2 for v in g.vertices)
    for k in (3, 7):  # k >= n/2: K_6
        g = circulant(6, k)
        assert g.num_edges == 15 and all(g.degree(v) == 5 for v in g.vertices)


def test_circulant_regularity_sweep():
    for n in range(5, 15):
        for k in range(1, (n - 1) // 2 + 1):
            g = circulant(n, k)
            assert g.num_edges == k * n
            assert all(g.degree(v) == 2 * k for v in g.vertices)


def test_line_graph():
    lg = line_graph(complete(3))
    assert (lg.num_vertices, lg.num_edges) == (3, 3)
    assert all(lg.degree(v) == 2 for v in lg.vertices)  # a triangle again
    lg = line_graph(path(4))
    assert (lg.num_vertices, lg.num_edges) == (3, 2)
    assert sorted(lg.degree(v) for v in lg.vertices) == [1, 1, 2]
    lg = line_graph(complete_bipartite(3, 3))
    assert (lg.num_vertices, lg.num_edges) == (9, 18)
    assert edge_label("y1", "x2") == "x2|y1"
    assert lg.vertices == tuple(edge_label(u, v) for u, v in
                                complete_bipartite(3, 3).edges)


def test_line_graph_handshake():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(2, 9)
        labels = [f"u{i}" for i in range(n)]
        edges = [(labels[i], labels[j]) for i in range(n)
                 for j in range(i + 1, n) if rng.random() < 0.5]
        if not edges:
            continue
        g = Graph(labels, edges)
        assert line_graph(g).num_edges == sum(
            math.comb(g.degree(v), 2) for v in g.vertices)


def test_line_graph_matches_pairwise_reference():
    rng = random.Random(11)
    graphs = [random_graph(rng, rng.randint(2, 12), rng.random())
              for _ in range(60)]
    graphs += [path(1500), complete_bipartite(6, 7), complete(9),
               attach_pendants(complete_bipartite(3, 3), 2)]
    for g in graphs:
        if g is None:
            continue
        lg, ref = line_graph(g), line_graph_reference(g)
        assert lg.vertices == ref.vertices
        assert lg.edges == ref.edges


def test_attach_pendants():
    g = attach_pendants(complete(3), 1)
    assert (g.num_vertices, g.num_edges) == (6, 6)
    g0 = complete(3)
    assert attach_pendants(g0, 0) == g0
    g = attach_pendants(complete_bipartite(3, 3), 1)
    assert (g.num_vertices, g.num_edges) == (12, 15)


def test_attach_pendants_preserves_original():
    base = cycle(5)
    g = attach_pendants(base, 2)
    for u, v in base.edges:
        assert g.has_edge(u, v)
    for v in base.vertices:
        assert g.degree(v) == base.degree(v) + 2


def test_parse_and_serialize():
    g = parse_graph("a b\nb c")
    assert g.edges == (("a", "b"), ("b", "c"))
    text = serialize_graph(complete(4))
    assert parse_graph(text) == complete(4)
    assert serialize_graph(parse_graph(text)) == text
    # CRLF and comments are accepted
    g = parse_graph("a b\r\n# full comment\r\nb c # trailing\r\n")
    assert g.num_edges == 2


def test_parse_errors():
    with pytest.raises(ParseError) as err:
        parse_graph("a a")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_graph("a b\na b c")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_graph("a b\nb a")
    assert err.value.line == 2
    with pytest.raises(InputError):
        serialize_graph(Graph(("lonely",), ()))


def test_graph_rejects_comment_labels():
    # serialize_graph would write 'a#1 b', which parses as the line 'a'
    for vertices, edges in [((), [("a#1", "b")]), (("#",), ())]:
        with pytest.raises(InputError, match="'#'"):
            Graph(vertices, edges)


def test_line_graph_rejects_separator_labels():
    # 'a|b c' and 'a b|c' would both be labelled 'a|b|c'
    g = Graph((), [("a|b", "c"), ("a", "b|c"), ("c", "a")])
    with pytest.raises(InputError):
        line_graph(g)


def test_bipartition_and_connectivity():
    assert complete_bipartite(2, 3).bipartition() is not None
    assert complete(3).bipartition() is None
    assert cycle(6).bipartition() is not None
    assert cycle(5).bipartition() is None
    assert path(4).is_connected()
    assert not Graph((), [("a", "b"), ("c", "d")]).is_connected()
