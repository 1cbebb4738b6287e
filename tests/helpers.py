"""Shared test utilities."""

import heapq
import itertools
import math
import random
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from radiuskit import debruijn
from radiuskit.errors import (InputError, InvalidParameterError, ParseError,
                              StructureError, VerificationError, WitnessError)
from radiuskit.exact import (OPTIMAL, UNKNOWN, ExactResult, SearchBudget,
                             _Exhausted, _SearchState)
from radiuskit.graphs import Graph, edge_label, line_graph
from radiuskit.hardness import CoverReductionInstance, _check_one_cover
from radiuskit.radius import (CYCLIC, LINEAR, CoverSequence, VertexSequence,
                              bounds, require_valid, verify_cover,
                              verify_radius)


def random_graph(rng, n, edge_prob=0.5):
    labels = [f"w{i}" for i in range(n)]
    edges = [(labels[i], labels[j]) for i in range(n)
             for j in range(i + 1, n) if rng.random() < edge_prob]
    return Graph(labels, edges) if edges else None


class ReferenceGraph(NamedTuple):
    vertices: tuple
    ends: np.ndarray
    edges: tuple


def graph_reference(vertices=(), edges=()):
    """`Graph(vertices, edges)` as it was before the index kernel: one pass
    over the edges, raising at the first self-loop or repeated edge, then
    the label checks.  Returns the ReferenceGraph of labels, (E, 2) int64
    endpoint indices and label edges."""
    index = {}
    for v in vertices:
        index.setdefault(str(v), len(index))
    ends = []
    labelled = []
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
        labelled.append((u, v))
    for v in index:
        if v.split() != [v]:  # empty or holding whitespace
            raise InputError(f"label {v!r} must be a non-whitespace token")
        if "#" in v:  # every file format reads '#' as a comment
            raise InputError(
                f"label {v!r} holds '#', which starts a comment")
    return ReferenceGraph(tuple(index),
                          np.array(ends, dtype=np.int64).reshape(-1, 2),
                          tuple(labelled))


def parse_graph_reference(text):
    """`parse_graph` as it was before the index kernel: a generator yields
    each line's two labels to `graph_reference`, which raises at the first
    bad edge; the generator's current line names it."""
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
        return graph_reference((), edges())
    except InputError as exc:
        raise ParseError(str(exc), line=lineno) from None


def bipartition_reference(g):
    """The label BFS 2-colouring (label -> 0/1, each component's first
    vertex 0), or None on an odd cycle; `Graph.bipartition` as it was."""
    color = {}
    for root in g.vertices:
        if root in color:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            u = queue.pop()
            for w in g.neighbors(u):
                if w not in color:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    return color


def is_connected_reference(g):
    """Whether a label search from the first vertex reaches every vertex."""
    if not g.vertices:
        return True
    seen = {g.vertices[0]}
    stack = [g.vertices[0]]
    while stack:
        for w in g.neighbors(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(g.vertices)


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


def digit_counts_reference(k, t, multiplicity=None):
    """Test oracle for `debruijn._digit_counts`: entry [b][v] sums
    multiplicity[pos] over the digits of v, read one at a time from the
    least significant (position k - 1), that equal b."""
    if multiplicity is None:
        multiplicity = [1] * k
    cnt = [[0] * t ** k for _ in range(t)]
    for v in range(t ** k):
        x = v
        for pos in reversed(range(k)):
            cnt[x % t][v] += multiplicity[pos]
            x //= t
    return np.array(cnt, dtype=np.int64)


def edge_word_weight(word):
    """De Bruijn edge weight: occurrences of the first symbol in the rest."""
    return word[1:].count(word[0])


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
    codes, _ = extract_tight_cycle_reference(k, t, cnt, idx, minimum)
    shift = t ** (k - 1)
    symbols = tuple(int(v // shift) for v in codes)
    return minimum, debruijn._least_rotation(symbols)


def howard_full_reference(k, t, cnt):
    """Test oracle: Howard policy iteration on the whole de Bruijn graph.

    `debruijn._howard_min_mean` as it was before it ran on the quotient by
    the symbol permutations: all t^k windows, with u's successor by symbol
    c at u % t^(k-1) * t + c and the policies evaluated by
    `debruijn._evaluate_policy`.  Returns the minimum cycle mean.
    """
    size = t ** k
    shift = t ** (k - 1)
    vertices = np.arange(size)
    base = vertices % shift * t
    # weights[c, u] = cnt[u // shift, base[u] + c]
    weights = np.moveaxis(cnt.reshape(t, shift, t), 2, 0).reshape(t, size)
    rounds = max(1, (size - 1).bit_length())
    sym = np.argmin(weights, axis=0)
    while True:
        p, q, x = debruijn._evaluate_policy(base + sym,
                                            weights[sym, vertices], rounds)
        # a successor of strictly lower mean, ties to the lowest symbol
        choice = np.zeros(size, dtype=np.int64)
        best_p, best_q = p[base], q[base]
        for c in range(1, t):
            cp, cq = p[base + c], q[base + c]
            lower = cp * best_q < best_p * cq
            choice[lower] = c
            best_p[lower] = cp[lower]
            best_q[lower] = cq[lower]
        move = best_p * q < p * best_q
        if not move.any():
            # else a same-mean successor of strictly lower potential
            choice = np.zeros(size, dtype=np.int64)
            best_x = x.copy()
            for c, weight in enumerate(weights):
                v = base + c
                value = x[v] + q * weight - p
                lower = (value < best_x) & (p[v] == p) & (q[v] == q)
                choice[lower] = c
                best_x[lower] = value[lower]
            move = best_x < x
        if not move.any():
            return Fraction(int(p[0]), int(q[0]))
        sym[move] = choice[move]


def canonical_window_reference(code, k, t):
    """Test oracle: the window's symbols renamed in order of first
    appearance, as a code."""
    names = {}
    out = 0
    for pos in range(k):
        digit = code // t ** (k - 1 - pos) % t
        out = out * t + names.setdefault(digit, len(names))
    return out


def quotient_graph_reference(k, t):
    """Test oracle: `debruijn._quotient_graph` as the level loop it runs
    for t >= 3, here for every alphabet (binary has a closed form there).

    The windows grow one symbol at a time, each new symbol at most one
    above the largest so far, `top`.  With each window u = 0 s the loop
    keeps the canonical form of s: 0 renamed low, 1..low renamed
    0..low - 1, where a 0 first appears in s after 1..low.  The successor
    s c is renamed the same way, a symbol c not in s taking the next free
    name.
    """
    # rows: code, the canonical code of s, top, low, whether s holds a 0
    state = np.zeros((5, 1), dtype=np.int64)
    for n in range(1, k):
        rows, d = np.nonzero(np.arange(min(t, n + 1)) <= state[2, :, None] + 1)
        state = state[:, rows]
        code, rest, top, low, zero = state
        np.maximum(top, d, out=top)
        np.copyto(low, top, where=zero == 0)
        first = d == 0
        zero |= first
        state[:2] *= t
        code += d
        rest += np.where(first, low, d - (d <= low))
    code, rest, top, low, zero = state
    c = np.arange(t)[:, None]
    name = np.where(c == 0, low, c - (c <= low))
    np.minimum(name, top + zero, out=name)
    name += rest * t
    return code, np.searchsorted(code, name)


def zk_loop_reference(k):
    """Test oracle: `debruijn.zk` as the loop over every run length
    ceil(k/2) <= t <= k + 1, ties to the smallest t."""
    best = None
    for t in range((k + 1) // 2, k + 2):
        value = Fraction(math.comb(t, 2) + math.comb(k - t + 1, 2), t)
        if best is None or value < best[0]:
            best = (value, t)
    return best


def extract_tight_cycle_reference(k, t, cnt, idx, mu):
    """Test oracle: a tight cycle by depth-first search over tight edges.

    `debruijn._extract_tight_cycle` as it was before it computed the walk
    this search takes: Bellman-Ford distances from vertex 0, then a DFS
    from each root in code order, trying successors in symbol order, that
    returns the stack from the first vertex it meets again.  Returns the
    cycle's vertex codes and the distances.
    """
    p, q = mu.numerator, mu.denominator
    size = t ** k
    wadj = [q * cnt[b] - p for b in range(t)]

    dist = np.full(size, debruijn._INF, dtype=np.int64)
    dist[0] = 0
    for _ in range(size + 1):
        new = np.minimum(dist, debruijn._dp_step(dist, idx, wadj))
        if np.array_equal(new, dist):
            break
        dist = new
    else:
        raise VerificationError("negative cycle in reweighted graph")

    shift = t ** (k - 1)
    mask = size // t

    def tight_successors(u):
        head = u // shift
        base = (u % mask) * t
        du = int(dist[u])
        for c in range(t):
            v = base + c
            if du + q * int(cnt[head][v]) - p == int(dist[v]):
                yield v

    color = bytearray(size)  # 0 new, 1 on stack, 2 done
    for root in range(size):
        if color[root]:
            continue
        stack = [(root, tight_successors(root))]
        color[root] = 1
        path = [root]
        pos = {root: 0}
        while stack:
            u, it = stack[-1]
            advanced = False
            for v in it:
                if color[v] == 1:
                    return path[pos[v]:], dist
                if color[v] == 0:
                    color[v] = 1
                    pos[v] = len(path)
                    path.append(v)
                    stack.append((v, tight_successors(v)))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                color[u] = 2
                pos.pop(u, None)
                path.pop()
    raise VerificationError("tight subgraph must contain a cycle")


def truncated_weight_tables_reference(k, s, t=2):
    """Test oracle: the doubled walk-DP weight tables by their formula.

    Digit positions below min(k, floor((s-1)/2)) weigh 2, and for even s
    with s/2 <= k the position s/2 - 1 weighs 1; `binseq`'s tables as they
    were built before they came from `_rotation_distances`.
    """
    dmax = min(k, (s - 1) // 2)
    half = s // 2 - 1 if s % 2 == 0 and s // 2 <= k else None
    size = t ** k
    codes = np.arange(size, dtype=np.int64)
    tables = np.zeros((t, size), dtype=np.int64)
    for pos in range(k):
        weight = 2 if pos < dmax else 1 if pos == half else 0
        digit = (codes // (t ** (k - 1 - pos))) % t
        for b in range(t):
            tables[b] += weight * (digit == b)
    return tables


def wk_walk_all_starts(k, s, t=2):
    """Test oracle: w_k(s) as the closed-walk DP from every one of the t^k
    start vertices in turn, one rolling distance vector per start.

    `binseq.wk_walk` as it was before it restricted its starts (see
    `binseq._walk_starts`); the restricted search must return exactly what
    this returns.
    """
    size = t ** k
    weights = truncated_weight_tables_reference(k, s, t)
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


def wk_brute_reference(k, s, t=2):
    """Test oracle: w_k(s) by enumerating every string, in 2^20-code chunks
    (binary: all 2^(s-1) with the top bit clear, complementing keeps the
    count; t-ary: all t^s as base-t digit arrays, 2^18-code chunks).

    `binseq.wk_brute` as it was before it enumerated one string per
    rotation-and-relabelling class; it must return exactly what this
    returns.
    """
    if s == 1:
        return 0
    distances = [(d, 2 if 2 * d == s else 1)
                 for d in range(1, min(k, s // 2) + 1)]
    best = None
    if t == 2:
        mask = np.uint64((1 << s) - 1)
        total = 1 << (s - 1)
        chunk = min(total, 1 << 20)
        for lo in range(0, total, chunk):
            codes = np.arange(lo, min(lo + chunk, total), dtype=np.uint64)
            bad = np.zeros(codes.shape, dtype=np.int64)
            for d, fold in distances:
                rot = ((codes >> np.uint64(d)) |
                       (codes << np.uint64(s - d))) & mask
                differ = np.bitwise_count((codes ^ rot) & mask)
                bad += (s - differ.astype(np.int64)) // fold
            m = int(bad.min())
            best = m if best is None else min(best, m)
        return best
    total = t ** s
    chunk = min(total, 1 << 18)
    powers = [t ** (s - 1 - j) for j in range(s)]
    for lo in range(0, total, chunk):
        codes = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        digits = [(codes // p) % t for p in powers]
        bad = np.zeros(codes.shape, dtype=np.int64)
        for d, fold in distances:
            agree = np.zeros(codes.shape, dtype=np.int64)
            for i in range(s):
                agree += digits[i] == digits[(i + d) % s]
            bad += agree // fold
        m = int(bad.min())
        best = m if best is None else min(best, m)
    return best


def hamiltonian_path_reference(g):
    """Some Hamiltonian path as a vertex list, or None.

    Plain backtracking from every start in label order, with an explicit
    stack of neighbor iterators; meant for the tiny graphs of the tests.
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


def find_one_cover(h):
    """A shortest 1-cover of h as an ordered edge list, or None.

    A Hamiltonian path of the line graph is an edge ordering in which
    consecutive edges share an endpoint.
    """
    path_labels = hamiltonian_path_reference(line_graph(h))
    if path_labels is None:
        return None
    edge_of = {edge_label(u, v): tuple(sorted((u, v))) for u, v in h.edges}
    return [edge_of[label] for label in path_labels]


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


def automorphism_orbits_reference(g, cap=8, fixed=()):
    """Vertex orbits under the automorphisms fixing each vertex of `fixed`.

    `exact._automorphism_orbits` as it was before its backtracking search:
    it tries all n! permutations, keeping those that map each label in
    `fixed` to itself.  The backtracking search must return the same
    orbits in the same order.

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
    pinned = [idx[v] for v in fixed]
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for perm in itertools.permutations(range(n)):
        if any(degs[perm[i]] != degs[i] for i in range(n)):
            continue
        if any(perm[i] != i for i in pinned):
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


def exact_fk_reference(g, k, mode=LINEAR, budget=None):
    """Length of a shortest (cyclic or linear) k-radius sequence.

    `exact.exact_fk` as it was before it ran on vertex indices and int
    bitmasks, with the n! orbit search (off above 8 vertices); the index
    search must return the same optimum and witness.

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

    first_choices = [members[0] for members in
                     automorphism_orbits_reference(g)]
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


def exact_ck_reference(g, k, budget=None):
    """Minimum reads (length + k) of a k-cover sequence, by A* search.

    `exact.exact_ck` as it was before it ran on int bitmasks and by
    iterative deepening; the index search must return the same optimum and
    interval.  Its witness is the first cover the heap pops, which may
    differ from the index search's first cover in (start set, out, new)
    order; `exact_ck_first_cover_reference` pins that one.

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


def exact_ck_first_cover_reference(g, k, budget=None):
    """The first k-cover of the fewest sets in (start set, out, new) order.

    `exact.exact_ck`'s witness rule on labels: for L = 1, 2, ... a plain
    depth-first search over (cache, covered) frozensets tries the start
    sets in `combinations` order of the sorted labels, then at each node
    swaps out each member and swaps in each non-member in sorted order,
    and returns the first cover of at most L sets.  Its only pruning is a
    memo of the (cache, covered) states that failed with at least as many
    sets left; it has no h1 or h2 cut and no closed-form first L.
    """
    budget = budget or SearchBudget()
    state = _SearchState(budget)
    vertices = sorted(g.vertices)
    all_edges = g.edge_set()
    memo = {}

    def dfs(cache, covered, left):
        state.tick()
        if len(covered) == len(all_edges):
            return [cache]
        key = (cache, covered)
        if left == 0 or memo.get(key, -1) >= left:
            return None
        for out in sorted(cache):
            rest = cache - {out}
            for new in vertices:
                if new in cache:
                    continue
                nxt = rest | {new}
                found = dfs(nxt, covered | frozenset(
                    e for e in all_edges if new in e and e <= nxt), left - 1)
                if found:
                    return [cache, *found]
        memo[key] = left
        return None

    length = 1
    try:
        while length <= budget.max_length:
            memo.clear()
            for combo in itertools.combinations(vertices, k + 1):
                cache = frozenset(combo)
                found = dfs(cache, frozenset(e for e in all_edges
                                             if e <= cache), length - 1)
                if found:
                    cov = CoverSequence(g, k, tuple(found))
                    reads = require_valid(verify_cover(cov),
                                          "first-cover witness").reads
                    return ExactResult(OPTIMAL, reads, cov, reads, reads)
            length += 1
        raise _Exhausted("max_length")
    except _Exhausted:
        return ExactResult(UNKNOWN, None, None,
                           min(length, budget.max_length + 1) + k, None)


def check_cover_structure(cov):
    """Test oracle: `verify_cover`'s structure check as it was on the label
    sets.  Raise StructureError naming the 1-based index of any violation."""
    for i, s in enumerate(cov.sets, start=1):
        if len(s) != cov.k + 1:
            raise StructureError(
                f"has {len(s)} elements, expected {cov.k + 1}", index=i)
    for i in range(1, len(cov.sets)):
        a, b = cov.sets[i - 1], cov.sets[i]
        if len(a - b) != 1 or len(b - a) != 1:
            raise StructureError(
                f"differs from its predecessor by {len(b - a)} elements, "
                f"expected exactly 1", index=i + 1)


def loss_count_reference(cov):
    """Test oracle: co-residency losses by rescanning every pair of every set.

    A pair of a set that was not inside the preceding set is a loss when it
    is not an edge or was co-resident strictly before the preceding set.
    """
    check_cover_structure(cov)
    edges = cov.graph.edge_set()
    losses = 0
    seen_before = set()  # pairs co-resident in sets up to index i-2
    previous = None
    for current in cov.sets:
        members = sorted(current)
        for a_i in range(len(members)):
            for b_i in range(a_i + 1, len(members)):
                pair = frozenset((members[a_i], members[b_i]))
                if previous is not None and pair <= previous:
                    continue
                if pair not in edges or pair in seen_before:
                    losses += 1
        if previous is not None:
            for a_i, a in enumerate(sorted(previous)):
                for b in sorted(previous)[a_i + 1:]:
                    seen_before.add(frozenset((a, b)))
        previous = current
    return losses


def cover_strategy_reference(m, n, k):
    """Test oracle: the sets of `radius.cover_strategy_bipartite` as it built
    them before it was written directly, with the same parameter errors."""
    if m < 1 or n < 1 or k < 1:
        raise InvalidParameterError("need m, n, k >= 1")
    if m + n <= k + 1:
        raise InvalidParameterError(
            f"need m + n > k + 1 (got {m}+{n} vs k={k})")
    xs = [f"x{i}" for i in range(1, m + 1)]
    ys = [f"y{j}" for j in range(1, n + 1)]
    sets = []
    if m < k:
        w = k + 1 - m
        sets.append(frozenset(xs) | frozenset(ys[:w]))
        for j in range(w, n):
            sets.append(frozenset(xs) | frozenset(ys[j - w + 1:j + 1]))
        return tuple(sets)
    held = None
    for r in range(math.ceil(m / k)):
        fresh = xs[r * k:(r + 1) * k]
        pad = [x for x in xs[:r * k] if x not in fresh]
        group = fresh + pad[:k - len(fresh)]
        if held is None:
            sets.append(frozenset(group) | {ys[0]})
            start_y = 1
        else:
            current = set(held)
            for x in group:
                if x in current:
                    continue
                out = next(v for v in sorted(current)
                           if v in held and v not in group)
                current.remove(out)
                current.add(x)
                sets.append(frozenset(current) | {last_y})
            start_y = 0
        for j in range(start_y, n):
            if sets and ys[j] in sets[-1]:
                continue
            sets.append(frozenset(group) | {ys[j]})
        held = set(group)
        last_y = ys[n - 1]
    return tuple(sets)


def construct_bipartite_reference(m, n, k, epsilon_hint=0.5, seed=0):
    """Test oracle: the vertex indices and block count of
    `radius.construct_bipartite` as it chose them before its slot scores
    were kept up to date: each slot sums the window's covered rows.

    Vertices are indices, x_i -> i-1 and y_j -> m+j-1; m, n >= 1.
    """
    opt = debruijn.min_normalized_cycle(debruijn.DeBruijnGraph(k))
    a = opt.normalized
    q = math.ceil(min((1 + epsilon_hint) / epsilon_hint * (k * (k + 1)) /
                      (opt.length * float(k - a)),
                      (2 * min(m, n)) // opt.length))
    pattern = None
    if q >= 1:
        zeros = opt.symbols.count(0)
        ones = opt.length - zeros
        while q >= 1 and (q * zeros > m or q * ones > n):
            q -= 1
        if q >= 1 and q * opt.length > 2 * k:
            phase = random.Random(seed).randrange(opt.length)
            pattern = (opt.symbols[phase:] + opt.symbols[:phase]) * q

    covered = np.zeros((m, n), dtype=bool)
    covered_t = np.zeros((n, m), dtype=bool)
    remaining = m * n
    items = []

    def append(v):
        nonlocal remaining
        for w in items[-k:]:
            if (v < m) == (w < m):
                continue
            i, j = (v, w - m) if v < m else (w, v - m)
            if not covered[i, j]:
                covered[i, j] = covered_t[j, i] = True
                remaining -= 1
        items.append(v)

    blocks_used = 0
    if pattern is not None:
        while remaining > 0:
            before = remaining
            used_x, used_y = np.zeros(m, dtype=bool), np.zeros(n, dtype=bool)
            for sym in pattern:
                window = items[-k:]
                if sym == 0:
                    others = list({w - m for w in window if w >= m})
                    rows, used, offset = covered_t, used_x, 0
                else:
                    others = list({w for w in window if w < m})
                    rows, used, offset = covered, used_y, m
                score = len(others) - rows[others].sum(axis=0)
                score[used] = -1
                best = int(score.argmax())
                if score[best] < 0:
                    break
                used[best] = True
                append(best + offset)
            blocks_used += 1
            if (before - remaining) * 2 < len(pattern):
                break

    open_x, open_y = np.nonzero(~covered)
    for i, j in zip(open_x.tolist(), open_y.tolist()):
        if covered[i, j]:
            continue
        x, y = i, m + j
        window = items[-k:]
        if x in window:
            append(y)
        elif y in window:
            append(x)
        else:
            append(x)
            append(y)
    return tuple(items), blocks_used


def exact_maxcut_reference(g):
    """Maximum cut size by enumerating bipartitions, one pass per edge.

    `exact.exact_maxcut` as it was before it grew its cut table one vertex
    at a time: the last vertex stays on side 0 and every edge adds its
    crossing bit over 2^18-code chunks.  The table must give the same cut.
    """
    n = g.num_vertices
    if n < 2 or g.num_edges == 0:
        return 0
    pairs = g.ends.tolist()
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


def _gadget_clique_reference(u, v, k):
    a, b = sorted((u, v))
    return [f"x[{a},{b}]^{i}" for i in range(1, k + 1)]


def _gadget_fans_reference(u, v, fan_size):
    a, b = sorted((u, v))
    return [f"y[{a},{b}]^{i}" for i in range(1, fan_size - 1)]


def reduce_cover1_to_coverk_reference(h, k):
    """`hardness.reduce_cover1_to_coverk` as it was before it built its
    target from vertex indices: gadget labels and label-pair edges sent
    through `Graph`, a collision found by catching its InputError or
    counting fewer vertices than labels."""
    if k < 2:
        raise InvalidParameterError(f"reduction needs k >= 2, got {k}")
    if h.num_edges < 1:
        raise InvalidParameterError("source graph needs at least one edge")
    if not h.is_connected():
        raise InputError("source graph must be connected")
    m = h.num_edges
    fan = math.comb(k, 2) * (m - 1) + math.comb(k + 1, 2) + 3
    vertices = list(h.vertices)
    edges = []
    for u, v in h.edges:
        clique = _gadget_clique_reference(u, v, k)
        fans = _gadget_fans_reference(u, v, fan)
        vertices.extend(clique)
        vertices.extend(fans)
        edges.extend((clique[i], clique[j])
                     for i in range(k) for j in range(i + 1, k))
        for x in clique:
            edges.append((x, u))
            edges.append((x, v))
            edges.extend((x, y) for y in fans)
    try:
        target = Graph(vertices, edges)
    except InputError:
        target = None
    if target is None or target.num_vertices != len(vertices):
        seen = set()
        label = next(v for v in vertices if v in seen or seen.add(v))
        raise InputError(f"gadget label {label!r} collides with a vertex")
    expected = m * (math.comb(k, 2) + fan * k)
    if target.num_edges != expected:
        raise VerificationError(
            f"gadget edge count {target.num_edges} != {expected}")
    return CoverReductionInstance(source=h, k=k, fan_size=fan, target=target,
                                  target_length=m * fan + (m - 1) * (k - 1))


def cover1_witness_to_coverk_reference(inst, one_cover):
    """`hardness.cover1_witness_to_coverk` as it was before it read the
    gadgets off the target's vertices: each gadget's labels regenerated
    from its edge's ends."""
    h, k, fan = inst.source, inst.k, inst.fan_size
    edges = _check_one_cover(h, one_cover)
    m = len(edges)
    walk = [min(a & b) for a, b in zip(edges, edges[1:])]
    if walk:
        walk = [min(edges[0] - {walk[0]}), *walk,
                min(edges[-1] - {walk[-1]})]
    else:
        walk = sorted(edges[0])
    sets = []
    for i, e in enumerate(edges):
        enter_v, exit_v = walk[i], walk[i + 1]
        if enter_v == exit_v:
            raise WitnessError(
                f"1-cover pivots on {enter_v!r} at step {i + 1}; the "
                f"edge walk must pass through each edge", position=i)
        u, v = tuple(e)
        clique = _gadget_clique_reference(u, v, k)
        fans = _gadget_fans_reference(u, v, fan)
        block = [frozenset(clique) | {enter_v}]
        block.extend(frozenset(clique) | {y} for y in fans)
        block.append(frozenset(clique) | {exit_v})
        sets.extend(block)
        if i < m - 1:
            nu, nv = tuple(edges[i + 1])
            new_clique = _gadget_clique_reference(nu, nv, k)
            current = set(clique) | {exit_v}
            for j in range(k - 1):
                current.remove(clique[j])
                current.add(new_clique[j])
                sets.append(frozenset(current))
    if len(sets) != inst.target_length:
        raise VerificationError(f"transformed witness has length "
                                f"{len(sets)}, expected {inst.target_length}")
    cov = CoverSequence(inst.target, k, tuple(sets))
    require_valid(verify_cover(cov),
                  f"transformed witness of length {len(sets)}")
    return cov
