"""Simple undirected graphs with string labels, generators, and file I/O.

Labels are arbitrary non-whitespace tokens without '#' (which starts a
comment in every file format), so gadget provenance survives into
witnesses and error messages.  Graphs are immutable after construction
and preserve vertex/edge insertion order, which keeps serialization and all
downstream tie-breaks deterministic.
"""

import itertools
import re

import numpy as np

from .errors import InputError, InvalidParameterError, ParseError

# A comment runs from '#' to the end of its line; the class holds every
# line break of `str.splitlines`, each of which `str.split` also splits at.
_COMMENT = re.compile("#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*")


def _uncommented(text):
    """text with each comment replaced by a space, so its tokens and line
    breaks stay as they were: a comment removed outright between a CR and
    an LF would join two line breaks into one."""
    return _COMMENT.sub(" ", text)


def _token_line(text, position):
    """The 1-based line of token `position` (0-based) of text, counting
    tokens as every file format here does: whitespace-separated, after
    comments are removed."""
    counts = map(len, map(str.split, _uncommented(text).splitlines()))
    return next(line for line, total
                in enumerate(itertools.accumulate(counts), start=1)
                if total > position)


def _index_edges(vertices, labels):
    """The index core of the graph on `vertices` and the edges
    labels[0] labels[1], labels[2] labels[3], ... (`labels` a list).

    Returns (index, ends): index maps each label to its position in
    first-appearance order, vertices first; ends is the (E, 2) int64 array
    of endpoint indices.  Raises InputError at the first edge, in order,
    that is a self-loop or repeats an earlier edge in either orientation,
    carrying that edge's position.
    """
    index = dict(zip(dict.fromkeys(itertools.chain(vertices, labels)),
                     itertools.count()))
    ends = np.fromiter(map(index.__getitem__, labels), dtype=np.int64,
                       count=len(labels)).reshape(-1, 2)
    u, v = ends[:, 0], ends[:, 1]
    codes = np.minimum(u, v) * len(index)  # min*V + max: one int per pair
    codes += np.maximum(u, v)
    runs = np.sort(codes)
    if not (np.count_nonzero(u == v)
            or np.count_nonzero(runs[1:] == runs[:-1])):
        return index, ends
    # a stable sort keeps equal codes in edge order: each but the first of
    # a run of equal codes repeats an earlier edge
    order = np.argsort(codes, kind="stable")
    bad = u == v
    bad[order[1:][runs[1:] == runs[:-1]]] = True
    position = int(bad.argmax())
    a, b = labels[2 * position:2 * position + 2]
    if a == b:
        raise InputError(f"self-loop at {a!r}", position=position)
    raise InputError(f"duplicate edge {a!r} {b!r}", position=position)


class Graph:
    """An undirected graph without self-loops or multi-edges.

    Its core, built once and not to be modified, is the label tuple
    `vertices`, `index` (label -> position in `vertices`) and `ends`, the
    read-only (E, 2) int64 array of endpoint indices in edge order.  The
    label edge tuple and the sorted neighbour tuples are built from `ends`
    on first use.
    """

    __slots__ = ("vertices", "index", "ends", "_edges", "_adj")

    def __init__(self, vertices=(), edges=()):
        labels = list(map(str, itertools.chain.from_iterable(edges)))
        index, ends = _index_edges(map(str, vertices), labels)
        for v in index:
            if v.split() != [v]:  # empty or holding whitespace
                raise InputError(f"label {v!r} must be a non-whitespace token")
            if "#" in v:  # every file format reads '#' as a comment
                raise InputError(
                    f"label {v!r} holds '#', which starts a comment")
        self._set(index, ends)

    @classmethod
    def _from_index(cls, index, ends):
        """A graph on the valid labels of `index` (label -> position) and
        simple (E, 2) endpoints."""
        g = cls.__new__(cls)
        g._set(index, ends)
        return g

    def _set(self, index, ends):
        ends.flags.writeable = False
        self.vertices, self.index, self.ends = tuple(index), index, ends
        self._edges = self._adj = None

    @property
    def edges(self):
        if self._edges is None:
            at = self.vertices.__getitem__
            us, vs = self.ends.T.tolist()
            self._edges = tuple(zip(map(at, us), map(at, vs)))
        return self._edges

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_edges(self):
        return len(self.ends)

    def has_edge(self, u, v):
        return v in self._adjacency().get(u, ())

    def edge_set(self):
        """The edges as a frozenset of 2-element frozensets, built per call."""
        return frozenset(map(frozenset, self.edges))

    def _adjacency(self):
        """Label -> sorted neighbour labels, built on first use."""
        if self._adj is None:
            vs = self.vertices
            nbrs = [[] for _ in vs]
            for a, b in self.ends.tolist():
                nbrs[a].append(vs[b])
                nbrs[b].append(vs[a])
            self._adj = {v: tuple(sorted(ns)) for v, ns in zip(vs, nbrs)}
        return self._adj

    def neighbors(self, v):
        if v not in self.index:
            raise InputError(f"unknown vertex {v!r}")
        return self._adjacency()[v]

    def degree(self, v):
        return len(self.neighbors(v))

    def _bfs_forest(self):
        """Breadth-first search from each unreached vertex in turn, on
        integer neighbour lists grouped from `ends` by one argsort.

        Returns (parity, trees): parity[v] is 0 or 1 with v's depth in its
        tree, and trees counts the roots searched from.
        """
        size = self.num_vertices
        tails = self.ends.ravel()
        heads = self.ends[:, ::-1].ravel()[tails.argsort()].tolist()
        start = [0, *np.cumsum(np.bincount(tails, minlength=size)).tolist()]
        parity = [-1] * size
        trees = 0
        for root in range(size):
            if parity[root] >= 0:
                continue
            trees += 1
            parity[root] = 0
            queue = [root]
            for u in queue:  # grows while it is walked
                side = 1 - parity[u]
                for w in heads[start[u]:start[u + 1]]:
                    if parity[w] < 0:
                        parity[w] = side
                        queue.append(w)
        return parity, trees

    def bipartition(self):
        """A 2-colouring as a dict label -> 0/1 in vertex order, or None if
        the graph has an odd cycle.

        Each component's first vertex gets 0, so the colouring is the
        parity of the distance from it: the BFS forest's parity, which
        2-colours the graph when no edge joins two vertices of one parity.
        """
        parity, _ = self._bfs_forest()
        side = np.array(parity, dtype=np.int8)
        if (side[self.ends[:, 0]] == side[self.ends[:, 1]]).any():
            return None
        return dict(zip(self.vertices, parity))

    def is_connected(self):
        return self._bfs_forest()[1] <= 1

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.index.keys() == other.index.keys()
                and self.edge_set() == other.edge_set())

    def __hash__(self):
        return hash((frozenset(self.vertices), self.edge_set()))

    def __repr__(self):
        return (f"Graph({self.num_vertices} vertices, "
                f"{self.num_edges} edges)")


def complete(n):
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    vs = [f"v{i}" for i in range(1, n + 1)]
    return Graph(vs, [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(m, n):
    if m < 1 or n < 1:
        raise InvalidParameterError(f"need m, n >= 1, got {m}, {n}")
    xs = [f"x{i}" for i in range(1, m + 1)]
    ys = [f"y{j}" for j in range(1, n + 1)]
    ends = np.empty((m * n, 2), dtype=np.int64)
    ends[:, 0] = np.repeat(np.arange(m), n)
    ends[:, 1] = np.tile(np.arange(m, m + n), m)
    index = dict(zip(xs + ys, itertools.count()))
    return Graph._from_index(index, ends)


def path(n):
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    vs = [f"v{i}" for i in range(1, n + 1)]
    return Graph(vs, list(zip(vs, vs[1:])))


def cycle(n):
    if n < 3:
        raise InvalidParameterError(f"cycles need n >= 3, got {n}")
    vs = [f"v{i}" for i in range(1, n + 1)]
    return Graph(vs, list(zip(vs, vs[1:])) + [(vs[-1], vs[0])])


def circulant(n, k):
    """Cycle on 0..n-1 plus chords between vertices at cyclic distance <= k.

    For k >= n/2 every pair is within distance, so the graph is K_n.
    """
    if n < 3 or k < 1:
        raise InvalidParameterError(f"need n >= 3 and k >= 1, got {n}, {k}")
    vs = [str(i) for i in range(n)]
    edges = []
    span = min(k, (n - 1) // 2)
    for d in range(1, span + 1):
        edges.extend((vs[i], vs[(i + d) % n]) for i in range(n))
    if n % 2 == 0 and k >= n // 2:
        half = n // 2
        edges.extend((vs[i], vs[i + half]) for i in range(half))
    return Graph(vs, edges)


def edge_label(u, v):
    """Line-graph vertex label of edge uv: the sorted endpoints joined by '|'."""
    a, b = sorted((u, v))
    return f"{a}|{b}"


def line_graph(g):
    """Graph on g's edges, adjacent when the edges share an endpoint.

    Vertex labels are `edge_label` of each edge, in g's edge order, and
    edges come in (earlier, later) edge-index order, in O(sum of deg^2).  A
    vertex label containing '|' raises InputError, since two edges could
    then share a label.
    """
    if g.num_edges < 1:
        raise InvalidParameterError("line graph needs at least one edge")
    for v in g.vertices:
        if "|" in v:
            raise InputError(
                f"label {v!r} contains '|', which separates the endpoints "
                f"of line-graph labels")
    incident = [[] for _ in g.vertices]
    ends = g.ends.tolist()
    for i, (a, b) in enumerate(ends):
        incident[a].append(i)
        incident[b].append(i)
    pairs = []
    for i, (a, b) in enumerate(ends):
        # distinct edges share at most one endpoint, so no j is found twice
        later = sorted(j for w in (a, b) for j in incident[w] if j > i)
        pairs += ((i, j) for j in later)
    # no label holds '|', so each edge's label names its endpoints and the
    # labels are distinct
    index = dict(zip(itertools.starmap(edge_label, g.edges),
                     itertools.count()))
    return Graph._from_index(
        index, np.array(pairs, dtype=np.int64).reshape(-1, 2))


def pendant_label(v, j):
    """Label of the j-th pendant neighbor hung off vertex v."""
    return f"e_{v}^{j}"


def attach_pendants(g, count):
    """Hang `count` new degree-1 neighbors off every original vertex."""
    if count < 0:
        raise InvalidParameterError(f"pendant count must be >= 0, got {count}")
    leaves = [pendant_label(v, j) for v in g.vertices
              for j in range(1, count + 1)]
    for leaf in leaves:
        if leaf in g.index:
            raise InputError(f"pendant label {leaf!r} collides with a vertex")
    # distinct, as the count after the last '^' and the vertex before it
    # name each leaf
    n = g.num_vertices
    hung = np.column_stack((np.arange(n).repeat(count),
                            np.arange(n, n + len(leaves))))
    index = dict(zip(g.vertices + tuple(leaves), itertools.count()))
    return Graph._from_index(index, np.concatenate((g.ends, hung)))


def parse_graph(text):
    """Parse the edge-list format: one 'u v' per line, # comments.

    Errors name the line of the first fault: a line not holding two labels,
    or an edge on an earlier line that is a self-loop or a repeat.
    """
    body = _uncommented(text)
    labels = body.split()
    counts = list(map(len, map(str.split, body.splitlines())))
    bad = None
    if not {0, 2}.issuperset(counts):
        bad = next(i for i, c in enumerate(counts) if c not in (0, 2))
        del labels[sum(counts[:bad]):]
    try:
        index, ends = _index_edges((), labels)
    except InputError as exc:
        raise ParseError(str(exc), line=_token_line(text, 2 * exc.position)
                         ) from None
    if bad is not None:
        raise ParseError(f"expected two labels, got {counts[bad]}",
                         line=bad + 1)
    return Graph._from_index(index, ends)


def serialize_graph(g):
    """Edge list in insertion order; parse(serialize(g)) reproduces g.

    Isolated vertices are not expressible in this format and are rejected.
    """
    degrees = np.bincount(g.ends.ravel(), minlength=g.num_vertices)
    for v in np.flatnonzero(degrees == 0)[:1].tolist():
        raise InputError(f"vertex {g.vertices[v]!r} is isolated; the "
                         f"edge-list format cannot express it")
    return "".join(f"{u} {v}\n" for u, v in g.edges)
