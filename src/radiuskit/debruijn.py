"""Weighted de Bruijn graphs and exact minimum normalized cycle weights.

The graph for window length k over a t-symbol alphabet has all t^k words as
vertices and all t^(k+1) words as edges; the weight of an edge counts how
often its leading symbol recurs among the remaining k positions.  The least
normalized (weight over length) cycle weight is the constant that drives the
lower bound e(G)/(k - a_k) for bipartite graphs, so everything here is exact:
weights are integers and ratios are `fractions.Fraction`.

Vertices are encoded as integers with the first symbol most significant, so
lexicographic word order coincides with numeric order.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import BudgetError, InvalidParameterError

# Default cap on the vertex count of the exact minimum-cycle DP (the DP is
# O(V*E) = O(t^(2k+1)); 2^14 vertices keeps it around 2^29 elementary steps).
DEFAULT_MAX_VERTICES = 1 << 14

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def _render_symbols(symbols, alphabet):
    if alphabet <= len(_DIGITS):
        return "".join(_DIGITS[s] for s in symbols)
    return ",".join(str(s) for s in symbols)


def _parse_symbols(word, alphabet):
    """Turn a digit string (or iterable of ints) into a tuple of symbols."""
    if isinstance(word, str):
        try:
            symbols = tuple(_DIGITS.index(ch) for ch in word.lower())
        except ValueError:
            raise InvalidParameterError(f"invalid symbol in word {word!r}")
    else:
        symbols = tuple(int(s) for s in word)
    if any(s < 0 or s >= alphabet for s in symbols):
        raise InvalidParameterError(
            f"word {word!r} has symbols outside alphabet of size {alphabet}")
    return symbols


@dataclass(frozen=True)
class DeBruijnGraph:
    """All t-ary words of length k; edges are the (k+1)-ary words.

    Vertices and edges are implicit (integer-encoded), so building the graph
    is O(1) and k up to word-size limits encodes fine; only the exact cycle
    search below enforces a vertex budget.
    """

    k: int
    alphabet: int = 2

    def __post_init__(self):
        if self.k < 1:
            raise InvalidParameterError(f"window length k must be >= 1, got {self.k}")
        if self.alphabet < 2:
            raise InvalidParameterError(
                f"alphabet size must be >= 2, got {self.alphabet}")

    @property
    def num_vertices(self):
        return self.alphabet ** self.k

    @property
    def num_edges(self):
        return self.alphabet ** (self.k + 1)

    def vertex_word(self, code):
        return _render_symbols(self.vertex_symbols(code), self.alphabet)

    def vertex_symbols(self, code):
        t = self.alphabet
        out = []
        for _ in range(self.k):
            out.append(code % t)
            code //= t
        return tuple(reversed(out))

    def vertex_code(self, word):
        symbols = _parse_symbols(word, self.alphabet)
        if len(symbols) != self.k:
            raise InvalidParameterError(
                f"vertex word must have length {self.k}, got {len(symbols)}")
        code = 0
        for s in symbols:
            code = code * self.alphabet + s
        return code

    def edge_endpoints(self, edge_code):
        """Source and target vertex codes of an edge code in [0, t^(k+1))."""
        t = self.alphabet
        return edge_code // t, edge_code % (t ** self.k)

    def edge_weight(self, edge_word):
        """Occurrences of the first symbol among the remaining k positions."""
        symbols = _parse_symbols(edge_word, self.alphabet)
        if len(symbols) != self.k + 1:
            raise InvalidParameterError(
                f"edge word must have length {self.k + 1}, got {len(symbols)}")
        return sum(1 for s in symbols[1:] if s == symbols[0])

    def iter_edges(self):
        """Yield (edge_word, weight) in lexicographic order."""
        t = self.alphabet
        for code in range(self.num_edges):
            symbols = []
            c = code
            for _ in range(self.k + 1):
                symbols.append(c % t)
                c //= t
            symbols.reverse()
            weight = sum(1 for s in symbols[1:] if s == symbols[0])
            yield _render_symbols(symbols, t), weight


@dataclass(frozen=True)
class OptimalCycle:
    """A simple cycle attaining the minimum normalized weight.

    `symbols` is one period of the cyclic word, canonicalized to its
    lexicographically least rotation; the ell windows of the word are
    pairwise-distinct vertices.
    """

    k: int
    alphabet: int
    symbols: tuple
    length: int
    total_weight: int
    normalized: Fraction

    @property
    def word(self):
        return _render_symbols(self.symbols, self.alphabet)

    def window_codes(self):
        """Vertex codes of the cycle's k-windows, in traversal order."""
        t = self.alphabet
        doubled = self.symbols + self.symbols
        codes = []
        for i in range(self.length):
            code = 0
            for j in range(self.k):
                code = code * t + doubled[(i + j) % len(doubled)]
            codes.append(code)
        return codes


def build_debruijn(k, alphabet=2):
    """Construct the weighted de Bruijn graph for window length k."""
    return DeBruijnGraph(k=k, alphabet=alphabet)


def _digit_counts(k, t, num_digits=None, extra_digit=None):
    """Per-symbol digit-count tables over all t^k vertex codes.

    Returns an int64 array cnt of shape (t, t^k) where cnt[b][v] counts the
    symbol b among the first `num_digits` (most significant) digits of v,
    plus 1 more if digit position `extra_digit` (0-based from the most
    significant) equals b.  Defaults cover all k digits.
    """
    if num_digits is None:
        num_digits = k
    size = t ** k
    codes = np.arange(size, dtype=np.int64)
    cnt = np.zeros((t, size), dtype=np.int64)
    for pos in range(k):
        weight_positions = pos < num_digits
        extra = extra_digit is not None and pos == extra_digit
        if not weight_positions and not extra:
            continue
        digit = (codes // (t ** (k - 1 - pos))) % t
        bump = (1 if weight_positions else 0) + (1 if extra else 0)
        for b in range(t):
            cnt[b] += bump * (digit == b)
    return cnt


_INF = np.int64(1) << 50


def _dp_step(dist, idx, cnt):
    """One forward step of the walk DP: new[v] = min_b dist[pred_b(v)] + w."""
    best = dist[idx[0]] + cnt[0]
    for b in range(1, len(idx)):
        np.minimum(best, dist[idx[b]] + cnt[b], out=best)
    return best


def _pred_indices(k, t):
    size = t ** k
    base = np.arange(size, dtype=np.int64) // t
    shift = t ** (k - 1)
    return [b * shift + base for b in range(t)]


def min_normalized_cycle(g, max_vertices=DEFAULT_MAX_VERTICES):
    """Exact minimum normalized cycle weight of g, with a witness cycle.

    Runs the classic two-pass minimum cycle mean dynamic program (walk
    lengths 0..V from a fixed source, then a max-ratio sweep), followed by a
    potential-based extraction: reweight edges by q*w - p, compute shortest
    walk distances, and take any cycle of tight edges.  Every cycle found
    that way attains the minimum exactly.  Ties between optimal cycles are
    broken by a deterministic DFS (increasing vertex codes, then increasing
    appended symbols); any minimum cycle is acceptable downstream.

    Raises BudgetError when the vertex count exceeds `max_vertices`.
    """
    k, t = g.k, g.alphabet
    size = t ** k
    if size > max_vertices:
        raise BudgetError(
            f"minimum-cycle DP needs {size} vertices, over the budget of "
            f"{max_vertices}; raise max_vertices to force the computation")

    cnt = _digit_counts(k, t)
    idx = _pred_indices(k, t)

    # Pass 1: shortest walk of exactly V steps from source 0 to each vertex.
    dist = np.full(size, _INF, dtype=np.int64)
    dist[0] = 0
    for _ in range(size):
        dist = _dp_step(dist, idx, cnt)
    d_final = dist

    # Pass 2: recompute D_m for m = 0..V-1, maintaining per-vertex
    # max_m (D_V[v] - D_m[v]) / (V - m) with exact cross-multiplied compares.
    best_num = np.zeros(size, dtype=np.int64)
    best_den = np.zeros(size, dtype=np.int64)  # 0 marks "no finite D_m yet"
    dist = np.full(size, _INF, dtype=np.int64)
    dist[0] = 0
    for m in range(size):
        reachable = dist < (_INF >> 1)
        cand_num = np.where(reachable, d_final - dist, 0)
        cand_den = np.int64(size - m)
        fresh = reachable & (best_den == 0)
        better = reachable & (best_den > 0) & (
            cand_num * best_den > best_num * cand_den)
        update = fresh | better
        best_num[update] = cand_num[update]
        best_den[update] = cand_den
        dist = _dp_step(dist, idx, cnt)

    assert bool((best_den > 0).all()), "source must reach every vertex"
    minimum = None
    for v in range(size):
        value = Fraction(int(best_num[v]), int(best_den[v]))
        if minimum is None or value < minimum:
            minimum = value

    cycle_codes = _extract_tight_cycle(k, t, cnt, idx, minimum)
    shift = t ** (k - 1)
    symbols = tuple(int(v // shift) for v in cycle_codes)
    total = 0
    for i, v in enumerate(cycle_codes):
        w = cycle_codes[(i + 1) % len(cycle_codes)]
        total += int(cnt[v // shift][w])
    length = len(cycle_codes)
    assert Fraction(total, length) == minimum
    symbols = _least_rotation(symbols)
    return OptimalCycle(k=k, alphabet=t, symbols=symbols, length=length,
                        total_weight=total, normalized=minimum)


def _extract_tight_cycle(k, t, cnt, idx, mu):
    """Find a simple cycle all of whose edges are tight for cycle mean mu.

    With w'(e) = q*w(e) - p every cycle has nonnegative w'-weight and the
    optimal ones weigh exactly 0, so after computing shortest-walk potentials
    the zero-reduced-weight subgraph contains exactly the optimal cycles.
    """
    p, q = mu.numerator, mu.denominator
    size = t ** k
    wadj = [q * cnt[b] - p for b in range(t)]

    dist = np.full(size, _INF, dtype=np.int64)
    dist[0] = 0
    for _ in range(size + 1):
        new = np.minimum(dist, _dp_step(dist, idx, wadj))
        if np.array_equal(new, dist):
            break
        dist = new
    else:
        raise AssertionError("negative cycle in reweighted graph")

    shift = t ** (k - 1)
    mask = size // t  # == t^(k-1), modulus for suffix extraction

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
                    return path[pos[v]:]
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
    raise AssertionError("tight subgraph must contain a cycle")


def _least_rotation(symbols):
    """Booth's algorithm: lexicographically least rotation of a tuple."""
    s = symbols + symbols
    n = len(symbols)
    f = [-1] * len(s)
    start = 0
    for j in range(1, len(s)):
        sj = s[j]
        i = f[j - start - 1]
        while i != -1 and sj != s[start + i + 1]:
            if sj < s[start + i + 1]:
                start = j - i - 1
            i = f[i]
        if sj != s[start + i + 1]:
            if sj < s[start]:
                start = j
            f[j - start] = -1
        else:
            f[j - start] = i + 1
    return symbols[start:] + symbols[:start] if start < n else tuple(
        s[start:start + n])


class ZkValue(NamedTuple):
    """Normalized weight of the best alternating-run cycle, with its run t."""

    value: Fraction
    t: int


def zk(k):
    """Minimum over t of (C(t,2) + C(k-t+1,2)) / t, with the minimizing t.

    This is the normalized weight of the cycle of t zeros followed by t ones,
    minimized over ceil(k/2) <= t <= k+1; ties go to the smallest t.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    best = None
    for t in range((k + 1) // 2, k + 2):
        value = Fraction(math.comb(t, 2) + math.comb(k - t + 1, 2), t)
        if best is None or value < best.value:
            best = ZkValue(value, t)
    return best


class AkBounds(NamedTuple):
    lower: float
    upper: Fraction


def ak_bounds(k):
    """Analytic sandwich for the minimum cycle constant.

    lower = sqrt(2k(k-1)) - k as an IEEE double (about 16 significant
    digits), clamped at 0 since cycle weights are nonnegative (for k = 1 the
    raw expression is -1).  upper = zk(k), realized by an explicit cycle.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    lower = max(0.0, math.sqrt(2 * k * (k - 1)) - k)
    upper = zk(k).value
    assert lower <= upper, "analytic lower bound exceeded the cycle bound"
    return AkBounds(lower, upper)


def ak(k, alphabet=2, max_vertices=DEFAULT_MAX_VERTICES):
    """Exact minimum normalized cycle weight (the binary case by default)."""
    cycle = min_normalized_cycle(build_debruijn(k, alphabet), max_vertices)
    return cycle.normalized


def dk(k, max_vertices=DEFAULT_MAX_VERTICES):
    """Overhead constant k / (k - a_k), exact."""
    a = ak(k, max_vertices=max_vertices)
    return Fraction(k) / (k - a)
