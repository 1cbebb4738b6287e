"""Simple undirected graphs with string labels, generators, and file I/O.

Labels are arbitrary non-whitespace tokens without '#' (which starts a
comment in every file format), so gadget provenance survives into
witnesses and error messages.  Graphs are immutable after construction
and preserve vertex/edge insertion order, which keeps serialization and all
downstream tie-breaks deterministic.
"""

import numpy as np

from .errors import InputError, InvalidParameterError, ParseError


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
        index = {}
        for v in vertices:
            index.setdefault(str(v), len(index))
        ends = []
        pairs = set()
        for u, v in edges:
            u, v = str(u), str(v)
            if u == v:
                raise InputError(f"self-loop at {u!r}")
            a = index.setdefault(u, len(index))
            b = index.setdefault(v, len(index))
            # one int per unordered pair: lo < hi -> hi(hi - 1)/2 + lo
            pair = a * (a - 1) // 2 + b if a > b else b * (b - 1) // 2 + a
            if pair in pairs:
                raise InputError(f"duplicate edge {u!r} {v!r}")
            pairs.add(pair)
            ends += (a, b)
        for v in index:
            if v.split() != [v]:  # empty or holding whitespace
                raise InputError(f"label {v!r} must be a non-whitespace token")
            if "#" in v:  # every file format reads '#' as a comment
                raise InputError(
                    f"label {v!r} holds '#', which starts a comment")
        self._set(index, np.array(ends, dtype=np.int64).reshape(-1, 2))

    @classmethod
    def _from_ends(cls, vertices, ends):
        """A graph on distinct valid labels and simple (E, 2) endpoints."""
        g = cls.__new__(cls)
        g._set({v: i for i, v in enumerate(vertices)}, ends)
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

    def bipartition(self):
        """BFS 2-coloring as a dict label -> 0/1, or None if an odd cycle."""
        adj = self._adjacency()
        color = {}
        for root in self.vertices:
            if root in color:
                continue
            color[root] = 0
            queue = [root]
            while queue:
                u = queue.pop()
                for w in adj[u]:
                    if w not in color:
                        color[w] = 1 - color[u]
                        queue.append(w)
                    elif color[w] == color[u]:
                        return None
        return color

    def is_connected(self):
        if not self.vertices:
            return True
        adj = self._adjacency()
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

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
    return Graph._from_ends(xs + ys, ends)


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
    incident = {v: [] for v in g.vertices}
    for i, (u, v) in enumerate(g.edges):
        incident[u].append(i)
        incident[v].append(i)
    labels = [edge_label(u, v) for u, v in g.edges]
    edges = []
    for i, (u, v) in enumerate(g.edges):
        # distinct edges share at most one endpoint, so no j is found twice
        later = sorted(j for w in (u, v) for j in incident[w] if j > i)
        edges.extend((labels[i], labels[j]) for j in later)
    return Graph(labels, edges)


def pendant_label(v, j):
    """Label of the j-th pendant neighbor hung off vertex v."""
    return f"e_{v}^{j}"


def attach_pendants(g, count):
    """Hang `count` new degree-1 neighbors off every original vertex."""
    if count < 0:
        raise InvalidParameterError(f"pendant count must be >= 0, got {count}")
    vertices = list(g.vertices)
    edges = list(g.edges)
    for v in g.vertices:
        for j in range(1, count + 1):
            leaf = pendant_label(v, j)
            if leaf in g.index:
                raise InputError(f"pendant label {leaf!r} collides with a vertex")
            vertices.append(leaf)
            edges.append((v, leaf))
    return Graph(vertices, edges)


def parse_graph(text):
    """Parse the edge-list format: one 'u v' per line, # comments."""
    lineno = 0

    def edges():
        nonlocal lineno
        for lineno, raw in enumerate(text.splitlines(), start=1):
            tokens = raw.split("#", 1)[0].split()
            if not tokens:
                continue
            if len(tokens) != 2:
                raise ParseError(
                    f"expected two labels, got {len(tokens)}", line=lineno)
            yield tokens

    try:
        return Graph((), edges())
    except InputError as exc:
        raise ParseError(str(exc), line=lineno) from None


def serialize_graph(g):
    """Edge list in insertion order; parse(serialize(g)) reproduces g.

    Isolated vertices are not expressible in this format and are rejected.
    """
    degrees = np.bincount(g.ends.ravel(), minlength=g.num_vertices)
    for v in np.flatnonzero(degrees == 0)[:1].tolist():
        raise InputError(f"vertex {g.vertices[v]!r} is isolated; the "
                         f"edge-list format cannot express it")
    return "".join(f"{u} {v}\n" for u, v in g.edges)
