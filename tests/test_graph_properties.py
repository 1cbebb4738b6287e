"""Property tests for `Graph` lookups, its index core and the edge-list
format."""

import random

import pytest
from helpers import (bipartition_reference, graph_reference,
                     is_connected_reference, parse_graph_reference)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radiuskit.errors import InputError, ParseError
from radiuskit.graphs import (Graph, complete_bipartite, parse_graph,
                              serialize_graph)
from radiuskit.radius import parse_cover_sequence, parse_vertex_sequence

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


# Edge-list texts for the differential tests: labels that repeat often, a
# label holding '#' (the rest of its line is a comment), whitespace that
# `str.split` splits at but `str.splitlines` does not break at, and every
# line break of `str.splitlines`.
TOKENS = st.sampled_from(["a", "b", "c", "x1", "\u00e9", "a#b"])
SPACES = st.sampled_from([" ", "\t", "  ", "\x1f", "\xa0", "\u3000"])
BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d",
                          "\x1e", "\x85", "\u2028", "\u2029"])


@st.composite
def edge_list_texts(draw):
    text = ""
    for _ in range(draw(st.integers(0, 10))):
        count = draw(st.sampled_from([0, 1, 2, 2, 2, 2, 3]))
        text += "".join(draw(SPACES) + draw(TOKENS) for _ in range(count))
        if draw(st.booleans()):
            text += draw(st.sampled_from(["#", "# note", " # a b c"]))
        text += draw(BREAKS)
    if text and draw(st.booleans()):
        text = text[:-1]  # no break after the last line
    return text


def _outcome(build, *args):
    """The graph's labels, endpoints and edges, or the error's type,
    message and line."""
    try:
        g = build(*args)
    except (ParseError, InputError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return g.vertices, g.ends.dtype, g.ends.tolist(), g.edges


@settings(max_examples=500, deadline=None)
@given(edge_list_texts())
@example(" a b\r#\n\n a\n")  # a comment between CR and LF ends a line
def test_parse_graph_matches_reference(text):
    assert _outcome(parse_graph, text) == _outcome(parse_graph_reference, text)


@pytest.mark.parametrize("text, line, message", [
    ("a b\nb a\na b c\n", 2, "duplicate edge 'b' 'a'"),
    ("a b\n\nc c\nd\n", 3, "self-loop at 'c'"),
    ("a b\na b c\nb a\n", 2, "expected two labels, got 3"),
    ("a\r\nb b\n", 1, "expected two labels, got 1"),
], ids=["repeat-then-count", "loop-then-count", "count-then-repeat",
        "count-then-loop"])
def test_parse_graph_reports_the_first_fault(text, line, message):
    """An edge fault before the first line of a wrong label count wins;
    after it, the label count does."""
    for parse in (parse_graph, parse_graph_reference):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, str(err.value)) == (
            line, f"line {line}: {message}")


@pytest.mark.parametrize("vertices, edges, message", [
    (("a b",), [("x", "y"), ("y", "x")], "duplicate edge 'y' 'x'"),
    ((), [("a#", "b"), ("c", "c")], "self-loop at 'c'"),
    (("ok", "#"), [("ok", "x y")], "label '#' holds '#', which starts a "
                                   "comment"),
    (("",), [("p", "q")], "label '' must be a non-whitespace token"),
], ids=["repeat-before-label", "loop-before-label", "labels-in-order",
        "empty-label"])
def test_graph_edge_errors_win_over_labels(vertices, edges, message):
    for build in (Graph, graph_reference):
        with pytest.raises(InputError) as err:
            build(vertices, edges)
        assert str(err.value) == message


GRAPH_LABELS = st.sampled_from(["a", "b", "c", 1, "x y", "", "#", "q#"])


@PROPERTY
@given(st.lists(GRAPH_LABELS, max_size=4),
       st.lists(st.tuples(GRAPH_LABELS, GRAPH_LABELS), max_size=8))
def test_graph_matches_reference(vertices, edges):
    assert (_outcome(Graph, vertices, edges)
            == _outcome(graph_reference, vertices, edges))


def test_bipartition_and_connectivity_match_label_search():
    rng = random.Random(20)
    seen = set()
    for _ in range(400):
        n = rng.randint(0, 12)
        labels = [f"v{i}" for i in rng.sample(range(40), n)]
        p = rng.choice([0.05, 0.15, 0.3, 0.6])
        edges = [(labels[i], labels[j]) if rng.random() < 0.5
                 else (labels[j], labels[i])
                 for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        rng.shuffle(edges)
        g = Graph(labels, edges)
        colouring = g.bipartition()
        assert colouring == bipartition_reference(g)
        assert colouring is None or list(colouring) == list(g.vertices)
        assert g.is_connected() == is_connected_reference(g)
        seen.add((colouring is None, g.is_connected(),
                  any(g.degree(v) == 0 for v in g.vertices)))
    # odd cycles and bipartite graphs, connected and split, with and
    # without isolated vertices
    assert len(seen) >= 6, seen


@PROPERTY
@given(edge_list_texts())
@example("a\r#\n\nx1\n")  # a comment between CR and LF ends a line
def test_sequence_errors_name_the_line_of_the_first_unknown_label(text):
    """Labels outside {a, b, c} are unknown; the error names the first line,
    as `str.splitlines` numbers them, holding one."""
    g = Graph((), [("a", "b"), ("b", "c")])
    rows = [(n, raw.split("#", 1)[0].split())
            for n, raw in enumerate(text.splitlines(), start=1)]
    line = next((n for n, labels in rows
                 if not set(labels) <= {"a", "b", "c"}), None)
    parsers = [lambda t: parse_vertex_sequence(t, g)]
    if all(len(set(labels)) == len(labels) for _, labels in rows):
        parsers.append(lambda t: parse_cover_sequence(t, g, 1))
    for parse in parsers:
        if line is None:
            parse(text)
            continue
        with pytest.raises(InputError) as err:
            parse(text)
        assert str(err.value).startswith(f"line {line}: ")
