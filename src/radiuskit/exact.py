"""Exhaustive solvers for shortest k-radius/k-cover sequences and max cut.

These are the ground-truth oracles for tiny instances.  Budgets are explicit
and an exceeded budget yields an `unknown` result carrying the proven
interval, never a wrong answer.
"""

import itertools
import math
import time
from dataclasses import dataclass, field
from operator import or_
from typing import Optional

import numpy as np

from .errors import BudgetError, InvalidParameterError
from .radius import (CYCLIC, LINEAR, CoverSequence, VertexSequence,
                     bounds, require_valid, verify_cover, verify_radius)

OPTIMAL = "optimal"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class SearchBudget:
    max_length: int = 64
    time_limit: float = 60.0
    node_limit: int = 5_000_000

    def __post_init__(self):
        if (self.max_length < 1 or not 0 < self.time_limit < math.inf
                or self.node_limit < 1):
            raise InvalidParameterError(
                "budget fields must be positive and time_limit finite")


@dataclass(frozen=True)
class ExactResult:
    status: str
    optimum: Optional[int]
    witness: Optional[object]
    lower: int  # proven lower bound (== optimum when optimal)
    upper: Optional[int]  # best incumbent, if any
    nodes: int = field(default=0, compare=False)  # steps, orbit search too
    # None when optimal, else "node limit", "time limit" or "max_length"
    stop: Optional[str] = field(default=None, compare=False)
    elapsed: float = field(default=0.0, compare=False)  # seconds

    @property
    def is_optimal(self):
        return self.status == OPTIMAL


class _Exhausted(Exception):
    pass


class _SearchState:
    """Shared node/time accounting for one solver run."""

    def __init__(self, budget):
        self.budget = budget
        self.nodes = 0
        self.start = time.monotonic()
        self.deadline = self.start + budget.time_limit

    def result(self, *fields, stop=None):
        """An ExactResult carrying this run's nodes and elapsed time."""
        return ExactResult(*fields, nodes=self.nodes, stop=stop,
                           elapsed=time.monotonic() - self.start)

    def tick(self):
        self.nodes += 1
        if self.nodes > self.budget.node_limit:
            raise _Exhausted("node limit")
        if self.nodes % 4096 == 0 and time.monotonic() > self.deadline:
            raise _Exhausted("time limit")


def _automorphism_orbits(nbrs, state, fixed_bits):
    """Each vertex's orbit root under the automorphisms fixing `fixed_bits`.

    The graph is given on the indices 0..n-1 by `nbrs`, each vertex's
    neighbour list, and `fixed_bits` is a set of vertices as bits.  The
    result lists per vertex the least member of its orbit under the
    pointwise stabilizer of that set (with no bit set, under the full
    automorphism group); a fixed vertex is its own root.  For each unfixed
    vertex v that no earlier vertex reaches, and each later unfixed vertex
    u of v's degree not yet known to share or to miss v's orbit, a
    backtracking search looks for an automorphism taking v to u; each one
    found merges the orbits along its cycles.  The search maps the vertices
    one at a time in breadth-first order from v, each to an unused vertex
    of equal degree whose adjacency to the vertices already mapped
    matches, a fixed vertex only to itself and no other vertex to a fixed
    one; a vertex with a mapped neighbour only tries the neighbours of
    that neighbour's image.  Every step ticks `state`, so the run's node
    and time budgets bound it.
    """
    n = len(nbrs)
    deg = [len(a) for a in nbrs]
    pinned = [bool(fixed_bits >> v & 1) for v in range(n)]
    parent = list(range(n))  # union-find; a root is its orbit's least vertex

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def bfs_order(start):
        seen = [False] * n
        order = []
        for root in [start, *range(n)]:
            if seen[root]:
                continue
            seen[root] = True
            order.append(root)
            head = len(order) - 1
            while head < len(order):
                for w in nbrs[order[head]]:
                    if not seen[w]:
                        seen[w] = True
                        order.append(w)
                head += 1
        return order

    def automorphism(order, u):
        """An automorphism taking order[0] to u, as an image list, or None."""
        pos = [0] * n
        for p, x in enumerate(order):
            pos[x] = p
        # back[p]: the positions before p adjacent to order[p], as bits
        back = [sum(1 << pos[w] for w in nbrs[x] if pos[w] < p)
                for p, x in enumerate(order)]
        image = [-1] * n  # by position
        mark = [0] * n  # mark[c]: the positions whose image neighbours c
        used = [False] * n

        def candidates(p):
            x = order[p]
            if p == 0:
                pool = (u,)
            elif pinned[x]:
                pool = (x,)
            elif back[p]:
                anchor = (back[p] & -back[p]).bit_length() - 1
                pool = nbrs[image[anchor]]
            else:
                pool = range(n)
            d, fix = deg[x], pinned[x]
            return iter([c for c in pool if not used[c] and deg[c] == d
                         and mark[c] == back[p] and pinned[c] == fix])

        stack = [candidates(0)]
        while stack:
            state.tick()
            p = len(stack) - 1
            c = image[p]
            if c >= 0:  # undo the previous choice at p
                used[c] = False
                for w in nbrs[c]:
                    mark[w] ^= 1 << p
                image[p] = -1
            c = next(stack[-1], None)
            if c is None:
                stack.pop()
                continue
            image[p] = c
            used[c] = True
            for w in nbrs[c]:
                mark[w] |= 1 << p
            if p + 1 == n:
                return [image[pos[i]] for i in range(n)]
            stack.append(candidates(p + 1))
        return None

    for v in range(n):
        if pinned[v] or find(v) != v:
            continue
        order = bfs_order(v)
        missed = []
        for u in range(v + 1, n):
            if pinned[u] or deg[u] != deg[v] or find(u) == v:
                continue
            if any(find(w) == find(u) for w in missed):
                continue
            image = automorphism(order, u)
            if image is None:
                missed.append(u)
                continue
            for i, j in enumerate(image):
                a, b = find(i), find(j)
                parent[max(a, b)] = min(a, b)
    return [find(i) for i in range(n)]


def exact_fk(g, k, mode=LINEAR, budget=None):
    """Length of a shortest (cyclic or linear) k-radius sequence.

    Iterative deepening from the analytic lower bound; depth-first extension
    with the counting prune (each remaining slot covers at most k new
    pairs, plus at most k(k+1)/2 wrap pairs in cyclic mode), the
    live-vertex prune below and a memory-capped table of suffix states
    known to fail.

    The search runs on the indices of the non-isolated vertices in
    `g.vertices` order, with the covered edges as an int bitmask (bit i is
    the i-th edge of `g.edges`) and memo keys of int tuples.  It tries
    the vertices in index order and returns the first witness it reaches.
    In linear mode the memo only drops states that cannot complete (a
    shorter completion pads to a longer one by repeating its last vertex),
    so that is the lexicographically first witness of the optimal length.

    At every position only the vertices that are least in their orbit
    under the automorphisms fixing each distinct vertex of the prefix (its
    pointwise stabilizer) are tried; at the first position that is the
    full group.  This keeps the first witness w: if some w[i] were not
    least in its orbit, an automorphism fixing w[0..i-1] would map w to a
    witness of the same length with the same prefix and a smaller i-th
    element, so w was not first.  It also keeps the memo sound: such an
    automorphism fixes the prefix's covered edges and maps each pruned
    child's completions onto those of a child that is tried, so a node
    still fails only if it has no completion.  The orbits are computed on
    the search's own indices and neighbour lists, and the choices are
    cached by the distinct prefix vertices as bits (capped as the memo
    is); once every orbit is a single vertex, every larger prefix set
    tries all vertices without a lookup.  The orbit searches tick the budget.

    A vertex is live while it has an uncovered edge.  A live vertex
    outside the window (the last k items; in cyclic mode also the first k)
    must occur again, as its occurrences so far pair with no later slot,
    wrap pairs included; distinct vertices need distinct slots.  So a node
    with more such vertices than remaining slots has no completion and is
    cut.  The cut reads only the memo key and the remaining slots, so the
    memo stays sound and the first witness is unchanged.  The vertices are
    kept as bits, `live`: a step covers pairs only at the appended vertex
    and the window, so a child's set is its parent's less the appended
    vertex, plus last[0], which leaves the window, if that keeps an open
    edge besides the one the child covers.
    """
    if g.num_edges < 1:
        raise InvalidParameterError("need at least one edge")
    if mode not in (LINEAR, CYCLIC):
        raise InvalidParameterError(f"unknown mode {mode!r}")
    budget = budget or SearchBudget()
    state = _SearchState(budget)
    report = bounds(g, k)
    cyclic = mode == CYCLIC
    # the non-isolated vertices get the indices 0..n-1 in g.vertices order
    active = np.bincount(g.ends.ravel(), minlength=g.num_vertices) > 0
    n = int(np.count_nonzero(active))
    num_edges = g.num_edges
    lower = max(report.fk_lower, n, 1)
    if cyclic:
        lower = max(math.ceil(num_edges / k), report.fk_lower - k, n, 1)
    if lower > budget.max_length:  # before the n x n table below
        return state.result(UNKNOWN, None, None, lower, None,
                            stop="max_length")
    labels = [v for v, on in zip(g.vertices, active.tolist()) if on]
    vertices = range(n)
    pairbit = [[0] * n for _ in vertices]
    nbrs = [[] for _ in vertices]
    for bit, (i, j) in enumerate((np.cumsum(active) - 1)[g.ends].tolist()):
        pairbit[i][j] = pairbit[j][i] = 1 << bit
        nbrs[i].append(j)
        nbrs[j].append(i)
    no_pairs = [0] * n
    edges_at = [sum(row) for row in pairbit]  # edges_at[v]: v's edge bits
    full_mask = (1 << num_edges) - 1
    wrap_bonus = k * (k + 1) // 2 if cyclic else 0

    tick = state.tick
    memo = {}
    tries = {}  # distinct prefix vertices as bits -> the vertices to try
    MEMO_CAP = 1 << 18

    def least_in_orbits(seen):
        """The least vertex of each orbit fixing the vertices in `seen`."""
        least = tries.get(seen)
        if least is None:
            root = _automorphism_orbits(nbrs, state, seen)
            least = [v for v in vertices if root[v] == v]
            if len(least) == n:
                least = vertices
            if len(tries) >= MEMO_CAP:
                tries.clear()
            tries[seen] = least
        return least

    def dfs(items, mask, length, seen, live):
        tick()
        pos = len(items)
        remaining = length - pos
        if (num_edges - mask.bit_count() > remaining * k + wrap_bonus
                or live.bit_count() > remaining):
            return None
        if pos == length:
            if cyclic:  # pairs across the wrap
                for d in range(1, min(k, length - 1) + 1):
                    for i in range(d):
                        mask |= pairbit[items[i]][items[length - d + i]]
            return list(items) if mask == full_mask else None
        last = tuple(items[-k:])
        first = tuple(items[:k]) if cyclic else ()
        key = (last, first, mask)
        known = memo.get(key)
        if known is not None and known >= remaining:
            return None
        fresh = no_pairs  # fresh[v]: the pairs v would cover next
        for w in last:
            fresh = list(map(or_, fresh, pairbit[w]))
        # last[0] leaves the window next: it joins each child's live set
        # if it keeps an open edge besides the one that child covers
        leaving, outside = 0, live
        if pos >= k and last[0] not in last[1:] and last[0] not in first:
            leaving = edges_at[last[0]] & ~mask
            outside = live | 1 << last[0]
        # seen is None once the stabilizer of a subset was trivial
        choices = vertices if seen is None else least_in_orbits(seen)
        for v in choices:
            items.append(v)
            found = dfs(items, mask | fresh[v], length,
                        None if choices is vertices else seen | 1 << v,
                        (outside if leaving & ~fresh[v] else live) & ~(1 << v))
            items.pop()
            if found:
                return found
        if len(memo) >= MEMO_CAP:
            memo.clear()
        memo[key] = remaining
        return None

    length = lower
    try:
        while length <= budget.max_length:
            memo.clear()
            witness = dfs([], 0, length, 0, (1 << n) - 1)
            if witness:
                seq = VertexSequence(
                    g, tuple(labels[i] for i in witness), mode=mode)
                require_valid(verify_radius(seq, k), "exact_fk witness")
                return state.result(OPTIMAL, length, seq, length, length)
            length += 1
        raise _Exhausted("max_length")
    except _Exhausted as exc:
        return state.result(UNKNOWN, None, None, length, None,
                            stop=exc.args[0])


def exact_ck(g, k, budget=None):
    """Minimum reads (length + k) of a k-cover sequence.

    Iterative deepening over the number of sets L, depth-first as in
    `exact_fk`.  A node is a cache set and its covered edges, as int
    bitmasks: cache bit i is the i-th vertex in sorted label order, covered
    bit i the i-th edge of `g.edges`.  For each L the start sets are taken
    lazily in `itertools.combinations` order and each node's children in
    (out, new) index order, swapping the member `out` for the non-member
    `new`; each start set and child is a node of the budget.  L starts at
    1 + max(ceil((E - C(k+1, 2)) / k), active - k - 1), as the first set
    covers at most C(k+1, 2) edges, each later set at most k new ones and
    one new vertex, and all `active` vertices with an edge must enter.  L
    rises by 1, so the witness is the first cover of the optimal length in
    (start set, out, new) order.

    A node is cut when h1 = ceil(uncovered / k), or h2, the live vertices
    (those with an uncovered edge) outside the cache, exceeds the sets
    left: a swap covers at most k new edges and lets in one vertex.  A
    capped memo maps (cache, covered) to the most sets left with which it
    failed; a node's completions depend on its key and sets left alone.
    The cuts and the memo drop only nodes with no completion, so they keep
    the first cover.  On a budget stop every cover has at least L sets
    (each exhausted L refutes all covers of at most L sets), so the optimum
    is at least min(L, max_length + 1) + k reads, and the edge bound.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if g.num_vertices <= k + 1:
        raise InvalidParameterError(
            f"need more than k+1 = {k + 1} vertices, got {g.num_vertices}")
    if g.num_edges < 1:
        raise InvalidParameterError("need at least one edge")
    budget = budget or SearchBudget()
    state = _SearchState(budget)
    labels = sorted(g.vertices)
    index = {v: i for i, v in enumerate(labels)}
    vertices = range(len(labels))
    incident = [[] for _ in vertices]  # (neighbour, edge bit) per edge at v
    for bit, (u, v) in enumerate(g.edges):
        incident[index[u]].append((index[v], 1 << bit))
        incident[index[v]].append((index[u], 1 << bit))
    edges_at = [sum(ebit for _, ebit in inc) for inc in incident]
    # a swap covers edges only at the entering vertex, so only it and its
    # neighbours can lose their last uncovered edge
    around = [[v, *(w for w, _ in incident[v])] for v in vertices]
    num_edges = g.num_edges
    full_mask = (1 << num_edges) - 1
    active = sum(1 << v for v in vertices if edges_at[v])

    tick = state.tick
    memo = {}
    MEMO_CAP = 1 << 18

    def dfs(cache, covered, live, left):
        """The caches of the first cover from this node within `left` more
        sets, last first, or None."""
        tick()
        if covered == full_mask:
            return [cache]
        if (num_edges - covered.bit_count() > left * k
                or (live & ~cache).bit_count() > left
                or memo.get((cache, covered), -1) >= left):
            return None
        others = [v for v in vertices if not cache >> v & 1]
        for out in [v for v in vertices if cache >> v & 1]:
            rest = cache ^ 1 << out
            for new in others:
                ncov = covered
                for w, ebit in incident[new]:
                    if rest >> w & 1:
                        ncov |= ebit
                nlive = live
                if ncov != covered:
                    nlive &= ~sum(1 << w for w in around[new]
                                  if not edges_at[w] & ~ncov)
                found = dfs(rest | 1 << new, ncov, nlive, left - 1)
                if found:
                    found.append(cache)
                    return found
        if len(memo) >= MEMO_CAP:
            memo.clear()
        memo[cache, covered] = left
        return None

    limit = 1 + max(0, -(-(num_edges - k * (k + 1) // 2) // k),
                    active.bit_count() - k - 1)
    try:
        while limit <= budget.max_length:
            memo.clear()
            for combo in itertools.combinations(vertices, k + 1):
                cache = sum(1 << i for i in combo)
                covered = sum(ebit for i in combo for w, ebit in incident[i]
                              if w > i and cache >> w & 1)
                live = active & ~sum(1 << i for i in combo
                                     if not edges_at[i] & ~covered)
                found = dfs(cache, covered, live, limit - 1)
                if found:
                    cov = CoverSequence(g, k, tuple(
                        frozenset(labels[i] for i in vertices if c >> i & 1)
                        for c in reversed(found)))
                    check = require_valid(verify_cover(cov),
                                          "exact_ck witness")
                    return state.result(OPTIMAL, check.reads, cov,
                                        check.reads, check.reads)
            limit += 1
        raise _Exhausted("max_length")
    except _Exhausted as exc:
        edge_bound = bounds(g, k).edge_bound
        lo = math.ceil(edge_bound) if edge_bound is not None else k + 1
        lo = max(lo, min(limit, budget.max_length + 1) + k)
        return state.result(UNKNOWN, None, None, lo, None, stop=exc.args[0])


def exact_maxcut(g):
    """Maximum cut size by enumerating bipartitions (n <= 24).

    Vertex 0 stays on side 0 and bit v - 1 of a code puts vertex v on side
    1.  The cut table cut[code] over vertices 0..m - 1 grows to vertex m by
    concatenating cut + s (m on side 0) and cut + (d - s) (m on side 1),
    where s counts m's lower neighbours on side 1 and d all of them: O(2^n)
    work in all.  The table stops at 2^18 codes (512 KB); each assignment
    of the at most 5 later vertices is added onto it the same way.  Cut
    sizes are at most E <= 276, so uint16 holds them, and the counts s
    and d are at most n - 1 <= 23, so they stay uint8.
    """
    n = g.num_vertices
    if n > 24:
        raise BudgetError(f"brute-force max cut supports n <= 24, got {n}")
    if n < 2 or g.num_edges == 0:
        return 0
    below = [0] * n  # below[v]: v's neighbours u < v as code bits
    degree = [0] * n  # degree[v]: how many they are, vertex 0 too
    for u, v in g.ends.tolist():
        u, v = min(u, v), max(u, v)
        below[v] |= 1 << u >> 1
        degree[v] += 1
    m = min(n, 19)  # the table's vertices: 0 and at most 18 free ones
    cut = np.zeros(1, dtype=np.uint16)
    for v in range(1, m):
        s = np.bitwise_count(np.arange(len(cut), dtype=np.uint32) & below[v])
        cut = np.concatenate((cut + s, cut + (degree[v] - s)))
    codes = np.arange(len(cut), dtype=np.uint32)
    low = (1 << (m - 1)) - 1
    # per code, each later vertex's table neighbours on side 1
    in_table = [np.bitwise_count(codes & (below[v] & low))
                for v in range(m, n)]
    best = 0
    for high in range(1 << (n - m)):  # bit j puts vertex m + j on side 1
        total = cut
        for j, s in enumerate(in_table):
            v = m + j
            s = s + (high & below[v] >> (m - 1)).bit_count()
            total = total + (degree[v] - s if high >> j & 1 else s)
        best = max(best, int(total.max()))
    return best
