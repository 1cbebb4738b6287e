"""Shared test utilities."""

from fractions import Fraction

import numpy as np

from radiuskit import binseq, debruijn
from radiuskit.graphs import Graph, edge_label
from radiuskit.radius import CoverSequence


def random_graph(rng, n, edge_prob=0.5):
    labels = [f"w{i}" for i in range(n)]
    edges = [(labels[i], labels[j]) for i in range(n)
             for j in range(i + 1, n) if rng.random() < edge_prob]
    return Graph(labels, edges) if edges else None


def random_valid_cover(g, k, rng):
    """Random structurally valid swap walk, steered to cover every edge."""
    vertices = list(g.vertices)
    current = set(rng.sample(vertices, k + 1))
    sets = [frozenset(current)]
    edges = g.edge_set()
    covered = {e for e in edges if e <= current}

    def swap_in(v):
        out = rng.choice(sorted(current - {v}))
        current.remove(out)
        current.add(v)
        sets.append(frozenset(current))
        covered.update(e for e in edges if e <= current)

    for _ in range(rng.randrange(0, 8)):  # wander a bit first
        outside = [v for v in vertices if v not in current]
        if not outside:
            break
        swap_in(rng.choice(outside))
    while covered != edges:
        u, v = tuple(sorted(next(iter(edges - covered))))
        if u not in current:
            keep = current - {v} if v in current else current
            out = rng.choice(sorted(keep))
            current.remove(out)
            current.add(u)
            sets.append(frozenset(current))
        if v not in current:
            out = rng.choice(sorted(current - {u}))
            current.remove(out)
            current.add(v)
            sets.append(frozenset(current))
        covered.update(e for e in edges if e <= current)
    return CoverSequence(g, k, tuple(sets))


def karp_min_cycle(k, t=2):
    """Test oracle: the two-pass Karp minimum cycle mean DP, O(V*E).

    Pass 1 takes shortest walks of exactly V steps from vertex 0; pass 2
    replays walk lengths 0..V-1 and keeps, per vertex, the largest
    (D_V - D_m) / (V - m) by cross-multiplied compares; the minimum over
    vertices is the minimum cycle mean (Karp 1978).  The witness comes from
    the same tight-cycle extraction the library uses.  Returns (mean,
    symbols) with the symbols at their least rotation.
    """
    size = t ** k
    cnt = debruijn._digit_counts(k, t)
    idx = debruijn._pred_indices(k, t)
    inf = debruijn._INF

    dist = np.full(size, inf, dtype=np.int64)
    dist[0] = 0
    for _ in range(size):
        dist = debruijn._dp_step(dist, idx, cnt)
    d_final = dist

    # An unreached D_m stays near inf, so its candidate (about -inf) loses
    # to every finite one; products stay within 2^50 * V <= 2^62.
    assert size <= 1 << 12
    best_num = np.full(size, -inf, dtype=np.int64)
    best_den = np.ones(size, dtype=np.int64)
    dist = np.full(size, inf, dtype=np.int64)
    dist[0] = 0
    for m in range(size):
        cand = d_final - dist
        better = cand * best_den > best_num * (size - m)
        np.copyto(best_num, cand, where=better)
        np.copyto(best_den, size - m, where=better)
        dist = debruijn._dp_step(dist, idx, cnt)

    assert (best_num > -(inf >> 1)).all(), "source must reach every vertex"
    minimum = min(Fraction(int(n), int(d))
                  for n, d in zip(best_num, best_den))
    codes, _ = debruijn._extract_tight_cycle(k, t, cnt, idx, minimum)
    shift = t ** (k - 1)
    symbols = tuple(int(v // shift) for v in codes)
    return minimum, debruijn._least_rotation(symbols)


def wk_walk_all_starts(k, s, t=2):
    """Test oracle: w_k(s) as the closed-walk DP from every one of the t^k
    start vertices in turn, one rolling distance vector per start.

    `binseq.wk_walk` as it was before it restricted the starts to the "01"
    windows; the restricted search must return exactly what this returns.
    """
    size = t ** k
    weights = binseq._truncated_weight_tables(k, s, t)
    idx = debruijn._pred_indices(k, t)
    inf = debruijn._INF
    best = None
    for start in range(size):
        dist = np.full(size, inf, dtype=np.int64)
        dist[start] = 0
        for _ in range(s):
            dist = debruijn._dp_step(dist, idx, weights)
        value = int(dist[start])
        if value < inf and (best is None or value < best):
            best = value
    assert best is not None and best % 2 == 0
    return best // 2


def hamiltonian_path_reference(g):
    """Unpruned backtracking from every start in label order.

    `graphs.hamiltonian_path` as it was before its degree prunings; the
    pruned search must return exactly what this returns.
    """
    n = g.num_vertices
    for start in sorted(g.vertices):
        pathlist = [start]
        used = {start}
        stack = [iter(g.neighbors(start))]
        while stack:
            if len(pathlist) == n:
                return pathlist
            for w in stack[-1]:
                if w not in used:
                    used.add(w)
                    pathlist.append(w)
                    stack.append(iter(g.neighbors(w)))
                    break
            else:
                stack.pop()
                used.remove(pathlist.pop())
    return None


def line_graph_reference(g):
    """Line graph by comparing every pair of edges, O(E^2).

    `graphs.line_graph` as it was before it used incidence lists; the
    incidence-list version must return the same vertices and edges in the
    same order.
    """
    label = {frozenset(e): edge_label(*e) for e in g.edges}
    vs = [label[frozenset(e)] for e in g.edges]
    edges = []
    seen = set()
    for i, (u1, v1) in enumerate(g.edges):
        e1 = frozenset((u1, v1))
        for j in range(i + 1, g.num_edges):
            e2 = frozenset(g.edges[j])
            if e1 & e2:
                key = frozenset((label[e1], label[e2]))
                if key not in seen:
                    seen.add(key)
                    edges.append((label[e1], label[e2]))
    return Graph(vs, edges)
