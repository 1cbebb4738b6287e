"""Exhaustive solvers for shortest k-radius/k-cover sequences and max cut.

These are the ground-truth oracles for tiny instances.  Budgets are explicit
and an exceeded budget yields an `unknown` result carrying the proven
interval, never a wrong answer.
"""

import heapq
import itertools
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetError, InvalidParameterError, VerificationError
from .radius import (CYCLIC, LINEAR, CoverSequence, VertexSequence,
                     bounds, verify_cover, verify_radius)

OPTIMAL = "optimal"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class SearchBudget:
    max_length: int = 64
    time_limit: float = 60.0
    node_limit: int = 5_000_000

    def __post_init__(self):
        if self.max_length < 1 or self.time_limit <= 0 or self.node_limit < 1:
            raise InvalidParameterError("budget fields must be positive")


@dataclass(frozen=True)
class ExactResult:
    status: str
    optimum: Optional[int]
    witness: Optional[object]
    lower: int  # proven lower bound (== optimum when optimal)
    upper: Optional[int]  # best incumbent, if any

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
        self.deadline = time.monotonic() + budget.time_limit

    def tick(self):
        self.nodes += 1
        if self.nodes > self.budget.node_limit:
            raise _Exhausted("node limit")
        if self.nodes % 4096 == 0 and time.monotonic() > self.deadline:
            raise _Exhausted("time limit")


def _automorphism_orbits(g, cap=8):
    """Vertex orbits under the full automorphism group, for tiny graphs.

    Restricting the first sequence element to one representative per orbit
    only prunes isomorphic branches.  Above `cap` vertices the trivial
    partition is returned (no pruning).
    """
    vs = g.vertices
    n = len(vs)
    if n > cap:
        return [(v,) for v in vs]
    idx = {v: i for i, v in enumerate(vs)}
    adj = [[False] * n for _ in range(n)]
    for u, v in g.edges:
        adj[idx[u]][idx[v]] = adj[idx[v]][idx[u]] = True
    degs = [g.degree(v) for v in vs]
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for perm in itertools.permutations(range(n)):
        if any(degs[perm[i]] != degs[i] for i in range(n)):
            continue
        if all(adj[perm[i]][perm[j]] == adj[i][j]
               for i in range(n) for j in range(i + 1, n)):
            for i in range(n):
                a, b = find(i), find(perm[i])
                if a != b:
                    parent[b] = a
    orbits = {}
    for i in range(n):
        orbits.setdefault(find(i), []).append(vs[i])
    return [tuple(members) for members in orbits.values()]


def _cyclic_wrap_pairs(items, k):
    """Pairs covered across the wrap of a completed cyclic sequence."""
    s = len(items)
    pairs = set()
    for d in range(1, min(k, s - 1) + 1):
        for i in range(d):
            u, v = items[i], items[s - d + i]
            if u != v:
                pairs.add(frozenset((u, v)))
    return pairs


def exact_fk(g, k, mode=LINEAR, budget=None):
    """Length of a shortest (cyclic or linear) k-radius sequence.

    Iterative deepening from the analytic lower bound; depth-first extension
    with the counting prune (each remaining slot covers at most k new
    pairs, plus at most k(k+1)/2 wrap pairs in cyclic mode) and a
    memory-capped table of suffix states known to fail.
    """
    if g.num_edges < 1:
        raise InvalidParameterError("need at least one edge")
    if mode not in (LINEAR, CYCLIC):
        raise InvalidParameterError(f"unknown mode {mode!r}")
    budget = budget or SearchBudget()
    report = bounds(g, k)
    edge_ids = {e: i for i, e in enumerate(sorted(
        tuple(sorted(e)) for e in g.edges))}
    edge_bit = {frozenset(e): 1 << i for e, i in edge_ids.items()}
    full_mask = (1 << len(edge_ids)) - 1
    active = sum(1 for v in g.vertices if g.degree(v) > 0)

    lower = max(report.fk_lower, active, 1)
    if mode == CYCLIC:
        lower = max(math.ceil(g.num_edges / k), report.fk_lower - k, active, 1)
    wrap_bonus = k * (k + 1) // 2 if mode == CYCLIC else 0

    first_choices = [members[0] for members in _automorphism_orbits(g)]
    first_choices = [v for v in first_choices if g.degree(v) > 0]
    vertices = [v for v in g.vertices if g.degree(v) > 0]
    state = _SearchState(budget)
    memo = {}
    MEMO_CAP = 1 << 18

    def covered_bits(items, pos, v):
        bits = 0
        for back in range(1, min(k, pos) + 1):
            w = items[pos - back]
            if w != v:
                bit = edge_bit.get(frozenset((v, w)))
                if bit:
                    bits |= bit
        return bits

    def dfs(items, mask, length):
        state.tick()
        pos = len(items)
        remaining = length - pos
        uncovered = len(edge_ids) - bin(mask).count("1")
        if uncovered > remaining * k + (wrap_bonus if mode == CYCLIC else 0):
            return None
        if pos == length:
            if mode == CYCLIC:
                for e in _cyclic_wrap_pairs(items, k):
                    mask |= edge_bit.get(e, 0)
            return list(items) if mask == full_mask else None
        key = (tuple(items[max(0, pos - k):pos]),
               tuple(items[:k]) if mode == CYCLIC else None, mask)
        known = memo.get(key)
        if known is not None and known >= remaining:
            return None
        for v in vertices:
            items.append(v)
            found = dfs(items, mask | covered_bits(items, pos, v), length)
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
            for v in first_choices:
                witness = dfs([v], 0, length)
                if witness:
                    seq = VertexSequence(g, tuple(witness), mode=mode)
                    check = verify_radius(seq, k)
                    if not check.valid:
                        raise VerificationError(
                            f"exact_fk witness missed {check.uncovered}")
                    return ExactResult(OPTIMAL, length, seq, length, length)
            length += 1
        raise _Exhausted("max_length")
    except _Exhausted:
        return ExactResult(UNKNOWN, None, None, length, None)


def exact_ck(g, k, budget=None):
    """Minimum reads (length + k) of a k-cover sequence, by A* search.

    States are (current cache set, covered edges); the heuristic
    ceil(uncovered / k) is admissible since each swap creates at most k new
    co-resident pairs.
    """
    if g.num_vertices <= k + 1:
        raise InvalidParameterError(
            f"need more than k+1 = {k + 1} vertices, got {g.num_vertices}")
    if g.num_edges < 1:
        raise InvalidParameterError("need at least one edge")
    budget = budget or SearchBudget()
    state = _SearchState(budget)
    vertices = g.vertices
    all_edges = g.edge_set()

    def inside(cache):
        return frozenset(e for e in all_edges if e <= cache)

    heap = []
    best_g = {}
    parents = {}
    counter = itertools.count()
    for combo in itertools.combinations(sorted(vertices), k + 1):
        cache = frozenset(combo)
        covered = inside(cache)
        key = (cache, covered)
        h = math.ceil((len(all_edges) - len(covered)) / k)
        best_g[key] = 1
        parents[key] = None
        heapq.heappush(heap, (1 + h, 1, next(counter), key))

    try:
        while heap:
            state.tick()
            f, glen, _, key = heapq.heappop(heap)
            if glen > best_g.get(key, math.inf):
                continue
            cache, covered = key
            if len(covered) == len(all_edges):
                sets = []
                cur = key
                while cur is not None:
                    sets.append(cur[0])
                    cur = parents[cur]
                sets.reverse()
                cov = CoverSequence(g, k, tuple(sets))
                check = verify_cover(cov)
                if not check.valid:
                    raise VerificationError(
                        f"exact_ck witness missed {check.uncovered}")
                return ExactResult(OPTIMAL, check.reads, cov,
                                   check.reads, check.reads)
            if glen + 1 > budget.max_length:
                continue
            for out in sorted(cache):
                rest = cache - {out}
                for new in sorted(vertices):
                    if new in cache:
                        continue
                    nxt = rest | {new}
                    ncov = covered | frozenset(
                        e for e in all_edges
                        if new in e and e <= nxt)
                    nkey = (nxt, ncov)
                    ng = glen + 1
                    if ng < best_g.get(nkey, math.inf):
                        best_g[nkey] = ng
                        parents[nkey] = key
                        h = math.ceil((len(all_edges) - len(ncov)) / k)
                        heapq.heappush(heap, (ng + h, ng, next(counter), nkey))
        raise _Exhausted("search space exhausted without a cover")
    except _Exhausted:
        edge_bound = bounds(g, k).edge_bound
        lo = math.ceil(edge_bound) if edge_bound is not None else k + 1
        return ExactResult(UNKNOWN, None, None, lo, None)


def exact_maxcut(g):
    """Maximum cut size by enumerating bipartitions (n <= 24).

    Vertex 0 is pinned to one side; the rest is vectorized over chunks.
    """
    n = g.num_vertices
    if n > 24:
        raise BudgetError(f"brute-force max cut supports n <= 24, got {n}")
    if n < 2 or g.num_edges == 0:
        return 0
    idx = {v: i for i, v in enumerate(g.vertices)}
    pairs = [(idx[u], idx[v]) for u, v in g.edges]
    total = 1 << (n - 1)
    chunk = min(total, 1 << 18)
    best = 0
    for lo in range(0, total, chunk):
        codes = np.arange(lo, min(lo + chunk, total), dtype=np.uint32)
        cut = np.zeros(codes.shape, dtype=np.int64)
        for u, v in pairs:
            cut += ((codes >> np.uint32(u)) ^ (codes >> np.uint32(v))) & 1
        best = max(best, int(cut.max()))
    return best
