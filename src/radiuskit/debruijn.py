"""Weighted de Bruijn graphs and exact minimum normalized cycle weights.

The graph for window length k over a t-symbol alphabet has all t^k words as
vertices and all t^(k+1) words as edges; the weight of an edge counts how
often its leading symbol recurs among the remaining k positions.  The least
normalized (weight over length) cycle weight is the constant that drives the
lower bound e(G)/(k - a_k) for bipartite graphs, so everything here is exact:
weights are integers and ratios are `fractions.Fraction`, and every minimum
ships with potentials and a witness cycle that `check_certificate` verifies
independently of the search that found them.

Vertices are encoded as integers with the first symbol most significant, so
lexicographic word order coincides with numeric order.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import BudgetError, InvalidParameterError, VerificationError

# Default cap on the vertex count of the exact minimum-cycle search.  Howard
# policy iteration takes about k rounds of O(E log V) vectorized work on the
# symbol-permutation quotient (2^(k-1) vertices when binary), and the
# witness and certificate run on all t^k: binary ak(k) takes about 0.05 s
# at the cap (k = 14, 12 rounds) on a 2-core shared Xeon, and about 8 s at
# 2^20 vertices when the cap is raised through `max_vertices`.
DEFAULT_MAX_VERTICES = 1 << 14

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def _render_symbols(symbols, alphabet):
    if alphabet <= len(_DIGITS):
        return "".join(_DIGITS[s] for s in symbols)
    return ",".join(str(s) for s in symbols)


def _power_exceeds(t, e, cap):
    """Whether t^e > cap, for t >= 2 and cap >= 0, without building t^e once
    e >= cap.bit_length(): from there t^e >= 2^e > cap.  A budget check
    that built t^e would run out of time and memory at large e first."""
    return e >= cap.bit_length() or t ** e > cap


def _check_alphabet(alphabet):
    if alphabet < 2:
        raise InvalidParameterError(
            f"alphabet size must be >= 2, got {alphabet}")


@dataclass(frozen=True)
class DeBruijnGraph:
    """All t-ary words of length k; edges are the (k+1)-ary words.

    Vertices and edges are implicit (integer-encoded), so building the graph
    is O(1) and k up to word-size limits encodes fine.  The vertex budget
    is enforced where the vertices are walked: by the exact cycle search
    below (DEFAULT_MAX_VERTICES unless `max_vertices` raises it) and by
    `binseq.wk_walk` (DEFAULT_MAX_VERTICES).
    """

    k: int
    alphabet: int = 2

    def __post_init__(self):
        if self.k < 1:
            raise InvalidParameterError(f"window length k must be >= 1, got {self.k}")
        _check_alphabet(self.alphabet)


@dataclass(frozen=True)
class OptimalCycle:
    """A simple cycle attaining the minimum normalized weight.

    `symbols` is one period of the cyclic word, canonicalized to its
    lexicographically least rotation; the ell windows of the word are
    pairwise-distinct vertices.  `potentials` (read-only int64, one per
    vertex code) certify the minimum: `check_certificate` accepts them
    with `normalized` and `symbols`.
    """

    k: int
    alphabet: int
    symbols: tuple
    length: int
    total_weight: int
    normalized: Fraction
    potentials: np.ndarray = field(compare=False, repr=False)

    @property
    def word(self):
        return _render_symbols(self.symbols, self.alphabet)

    def windows(self):
        """The cycle's k-windows as words, in traversal order (a window
        may wrap round a cycle shorter than k more than once)."""
        tiled = self.symbols * (self.k // self.length + 2)
        return [_render_symbols(tiled[i:i + self.k], self.alphabet)
                for i in range(self.length)]


def _digit_counts(k, t, multiplicity=None):
    """Per-symbol digit-count tables over all t^k vertex codes.

    Returns an int64 array cnt of shape (t, t^k) where cnt[b][v] sums
    multiplicity[pos] over the digit positions pos of v (0-based from the
    most significant) that hold the symbol b.  By default every position
    counts 1.
    """
    if multiplicity is None:
        multiplicity = [1] * k
    size = t ** k
    codes = np.arange(size, dtype=np.int64)
    cnt = np.zeros((t, size), dtype=np.int64)
    flat = cnt.reshape(-1)  # cnt[b][v] is flat[b * size + v]
    for pos, bump in enumerate(multiplicity):
        digit = (codes // (t ** (k - 1 - pos))) % t
        flat[digit * size + codes] += bump  # no index repeats within a pass
    return cnt


_INF = np.int64(1) << 50


def _dp_step(dist, idx, cnt):
    """One forward step of the walk DP: new[v] = min_b dist[pred_b(v)] + w.

    `dist` is either one distance vector of shape (V,) or a block of
    independent rows of shape (R, V); the step gathers along the last axis,
    so every row advances by one step and the result has the shape of
    `dist`.  `idx[b]` and `cnt[b]` are (V,) arrays shared by all rows.
    """
    best = dist.take(idx[0], axis=-1)
    best += cnt[0]
    for b in range(1, len(idx)):
        cand = dist.take(idx[b], axis=-1)
        cand += cnt[b]
        np.minimum(best, cand, out=best)
    return best


def _pred_indices(k, t):
    size = t ** k
    base = np.arange(size, dtype=np.int64) // t
    shift = t ** (k - 1)
    return [b * shift + base for b in range(t)]


def min_normalized_cycle(g, max_vertices=DEFAULT_MAX_VERTICES):
    """Exact minimum normalized cycle weight of g, with a certified witness.

    Finds the minimum mu = p/q by Howard policy iteration in exact int64
    arithmetic, on the graph's quotient by the symbol permutations, then
    extracts a witness on the graph itself from potentials: reweight edges
    by q*w - p, compute shortest walk distances, and take any cycle of
    tight edges.  Every cycle found that way attains the minimum exactly.  Ties
    between optimal cycles are broken by a fixed walk from vertex 0 that
    appends the least symbol still leading to a tight cycle (see
    `_extract_tight_cycle`); any minimum cycle is acceptable downstream.
    Before returning, `check_certificate` re-checks mu from the distances
    and the witness alone.

    Raises BudgetError when the vertex count exceeds `max_vertices` or the
    potentials could outgrow their int64 headroom, and VerificationError if
    the certificate fails (an internal fault, never a valid result).
    """
    k, t = g.k, g.alphabet
    if _power_exceeds(t, k, max_vertices):
        raise BudgetError(
            f"minimum-cycle DP needs {t}^{k} vertices, over the budget of "
            f"{max_vertices}; a library call can raise it through its "
            f"max_vertices argument")
    size = t ** k
    # Howard's scaled potentials stay within 2*k*V^2 in magnitude and the
    # tight-cycle distances within k*V^2; both must stay below the walk
    # sentinel _INF = 2^50, which leaves 2^13 of headroom below int64.
    if 2 * k * size * size >= _INF:
        raise BudgetError(
            f"minimum-cycle potentials for {size} vertices at k = {k} "
            f"would exceed the int64 headroom")

    cnt = _digit_counts(k, t)
    minimum = _howard_min_mean(k, t, cnt)
    idx = _pred_indices(k, t)
    cycle_codes, potentials = _extract_tight_cycle(k, t, cnt, idx, minimum)
    shift = t ** (k - 1)
    symbols = _least_rotation(tuple(int(v // shift) for v in cycle_codes))
    length = len(cycle_codes)
    # the certificate fails unless the witness weighs exactly minimum per edge
    check_certificate(k, t, minimum, potentials, symbols)
    potentials.setflags(write=False)
    return OptimalCycle(k=k, alphabet=t, symbols=symbols, length=length,
                        total_weight=int(minimum * length),
                        normalized=minimum, potentials=potentials)


def _howard_min_mean(k, t, cnt):
    """Minimum cycle mean by Howard policy iteration, as a Fraction.

    A policy picks one successor symbol per vertex (Cochet-Terrasson et al.
    1998); its graph is functional, so every vertex drains into one cycle.
    `_evaluate_policy` gives each vertex its cycle's mean and a potential,
    and `_improve_policy` switches vertices to better successors until none
    is better.

    Howard runs on the quotient of the graph by the permutations of the
    alphabet (see `_quotient_graph`), not on the graph itself.  A weight
    only compares symbols, so every permutation maps the graph onto itself
    and keeps every weight, and both graphs have the same least cycle mean:
    - a cycle of the graph maps, window by window, to a closed walk of the
      quotient with the same weight and length;
    - a closed walk of the quotient lifts, edge by edge, to a path of the
      same weight and length from a window u to sigma(u), for some
      permutation sigma; repeating it under sigma ord(sigma) times closes
      it at the same mean, and a closed walk splits into cycles, one of
      which is no heavier per edge.
    The quotient is strongly connected, as the image of a strongly
    connected graph, so at the end every vertex has the same mean: the
    minimum.
    """
    codes, succ = _quotient_graph(k, t)
    # weights[c, i] = cnt[0, codes[i]*t + c]: a canonical window starts
    # with 0, so its code is also the code of its last k - 1 symbols
    weights = cnt[0][codes * t + np.arange(t)[:, None]]
    size = len(codes)
    vertices = np.arange(size)
    rounds = max(1, (size - 1).bit_length())  # 2^rounds >= size

    # the lightest successors, ties to the highest symbol: in a canonical
    # window that is a symbol new to the window, if one is free
    sym = t - 1 - np.argmin(weights[::-1], axis=0)
    while True:
        p, q, x = _evaluate_policy(succ[sym, vertices],
                                   weights[sym, vertices], rounds)
        if not _improve_policy(sym, p, q, x, succ, weights):
            return Fraction(int(p[0]), int(q[0]))
        del p, q, x  # free them before the next evaluation


def _quotient_graph(k, t):
    """The de Bruijn graph's quotient by the permutations of the alphabet.

    Its vertices are the canonical windows, those whose symbols appear in
    the order 0, 1, 2, ... (each orbit's least word), in code order: the
    2^(k-1) windows that start with 0 when t = 2, and sum_{j <= t} S(k, j)
    in general (S: Stirling numbers of the second kind).  Returns their
    int64 codes and the (t, Q) table whose entry [c, i] is the index of the
    canonical form of codes[i] % t^(k-1) * t + c, the successor by symbol
    c.

    Binary has a closed form: the canonical windows are the codes below
    2^(k-1), each its own index.  The successor x = 2i + c of window i
    drops a leading 0, and x is canonical unless it starts with 1, when
    complementing its k bits renames it.

    For t >= 3 the windows grow one symbol at a time, each new symbol at
    most one above the largest so far, `top`.  With each window u = 0 s
    the loop keeps the canonical form of s.  The symbols 1..top first
    appear in s in that order, as in u, and a 0 in s first appears after
    1..low for some low (low = top before s holds a 0).  So s becomes
    canonical when 0 is renamed low, 1..low are renamed 0..low - 1 and
    the rest stay.  The successor s c is renamed the same way, except
    that a symbol c not in s takes the next free name: top + 1 if s holds
    a 0, else top.
    """
    if t == 2:
        codes = np.arange(1 << (k - 1), dtype=np.int64)
        x = codes * 2 + np.arange(2)[:, None]
        return codes, x ^ (x >> (k - 1)) * ((1 << k) - 1)
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


def _improve_policy(sym, p, q, x, succ, weights):
    """One improvement step on the policy `sym`, in place.

    Vertices move to a successor of strictly smaller mean when any vertex
    has one, else to a same-mean successor of strictly smaller potential.
    Each step lowers the (mean, X) pair of some vertex and raises none (a
    kept cycle keeps its anchor, so its potentials stay), so no policy
    repeats.  Returns False when no vertex moves: the policy is optimal.
    """
    choice, move = _lower_mean_moves(p, q, succ)
    if not move.any():
        choice, move = _lower_potential_moves(p, q, x, succ, weights)
    sym[move] = choice[move]
    return bool(move.any())


def _lower_mean_moves(p, q, succ):
    """Successor symbols of least mean, and where that mean is lower.

    Returns each vertex's successor of least mean (ties to the lowest
    symbol) and the mask of vertices whose own mean is strictly larger.
    """
    choice = np.zeros(succ.shape[1], dtype=np.int64)
    best_p, best_q = p[succ[0]], q[succ[0]]
    for c in range(1, len(succ)):
        cp, cq = p[succ[c]], q[succ[c]]
        lower = cp * best_q < best_p * cq
        choice[lower] = c
        best_p[lower] = cp[lower]
        best_q[lower] = cq[lower]
    return choice, best_p * q < p * best_q


def _lower_potential_moves(p, q, x, succ, weights):
    """Successor symbols of least potential, and where it is lower.

    Returns each vertex's same-mean successor of least q*w - p + X (ties
    to the lowest symbol) and the mask of vertices where that is below X.
    """
    choice = np.zeros(succ.shape[1], dtype=np.int64)
    best_x = x.copy()
    for c, (v, weight) in enumerate(zip(succ, weights)):
        value = x[v]
        value += q * weight - p
        lower = (value < best_x) & (p[v] == p) & (q[v] == q)
        choice[lower] = c
        best_x[lower] = value[lower]
    return choice, best_x < x


def _evaluate_policy(succ, weight, rounds):
    """Cycle mean and scaled potential of every vertex of a functional graph.

    Pointer doubling over `rounds` squarings of u -> succ[u] finds, for each
    vertex, a vertex on the cycle it drains into and that cycle's least
    code, its anchor.  Returns int64 arrays p, q, X: the cycle's mean p/q in
    lowest terms, and X = q*S - d*p with S the weight and d the step count
    of the path from the vertex to its anchor.
    """
    anchor, on_cycle = _cycle_anchors(succ, rounds)
    p, q = _cycle_means(anchor, on_cycle, weight)
    is_anchor = anchor == np.arange(len(succ))
    nxt = np.where(is_anchor, anchor, succ)
    s = np.where(is_anchor, 0, weight)
    d = (~is_anchor).astype(np.int64)
    for _ in range(rounds):
        s += s[nxt]
        d += d[nxt]
        nxt = nxt[nxt]
    s *= q
    d *= p
    s -= d
    return p, q, s


def _cycle_means(anchor, on_cycle, weight):
    """Each vertex's cycle mean as int64 arrays p, q in lowest terms."""
    cycle_anchor = anchor[on_cycle]
    total = np.zeros(len(anchor), dtype=np.int64)
    np.add.at(total, cycle_anchor, weight[on_cycle])
    p = total[anchor]
    q = np.bincount(cycle_anchor, minlength=len(anchor))[anchor]
    common = np.gcd(p, q)
    p //= common
    q //= common
    return p, q


def _cycle_anchors(succ, rounds):
    """Least code of each vertex's cycle, and the mask of cycle vertices."""
    jump, low = succ, np.arange(len(succ))
    for _ in range(rounds):
        low = np.minimum(low, low[jump])
        jump = jump[jump]
    # jump[u] is on u's cycle and low[jump[u]] spans 2^rounds >= cycle steps.
    on_cycle = np.zeros(len(succ), dtype=bool)
    on_cycle[jump] = True
    return low[jump], on_cycle


def check_certificate(k, alphabet, normalized, potentials, symbols):
    """Check that `normalized` is the least normalized cycle weight.

    Independent of how the value was found, with exact integers in O(k*E)
    (each edge weight is recomputed digit by digit):
    with p/q = normalized, every edge u -> v must satisfy
    q*w(u->v) - p + potentials[u] - potentials[v] >= 0, so every cycle
    weighs at least p/q per edge; and `symbols` must be one period of a
    cyclic word with pairwise-distinct k-windows (a simple cycle) weighing
    exactly p/q per edge.  Raises VerificationError on the first failure.
    """
    t = alphabet
    mu = Fraction(normalized)
    p, q = mu.numerator, mu.denominator
    size = t ** k
    pi = np.asarray(potentials)
    if pi.shape != (size,) or not np.issubdtype(pi.dtype, np.integer):
        raise VerificationError(
            f"potentials must be {size} integers, got shape {pi.shape} of "
            f"{pi.dtype}")
    # Keep every q*w - p + pi(u) - pi(v) below 2^63 in magnitude.
    limit = 1 << 61
    if (abs(p) >= limit or q * k >= limit
            or int(pi.min()) <= -limit or int(pi.max()) >= limit):
        raise VerificationError("certificate values exceed int64 headroom")
    pi = pi.astype(np.int64, copy=False)

    u = np.arange(size, dtype=np.int64)
    head = u // (size // t)
    for c in range(t):  # the edges u -> v that append symbol c
        v = u % (size // t) * t + c
        weight = np.zeros(size, dtype=np.int64)
        rest = v.copy()
        for _ in range(k):
            weight += rest % t == head
            rest //= t
        slack = q * weight - p + pi - pi[v]
        bad = np.flatnonzero(slack < 0)
        if len(bad):
            e = int(bad[0])
            raise VerificationError(
                f"edge {e}->{int(v[e])} has negative reduced weight "
                f"{int(slack[e])} for mu = {mu}")

    n = len(symbols)
    if n == 0 or any(s not in range(t) for s in symbols):
        raise VerificationError(f"witness {symbols!r} is not a word over "
                                f"{t} symbols")
    windows = {tuple(symbols[(i + j) % n] for j in range(k))
               for i in range(n)}
    if len(windows) != n:
        raise VerificationError("witness windows are not distinct")
    total = sum(symbols[(i + j) % n] == symbols[i]
                for i in range(n) for j in range(1, k + 1))
    if total * q != p * n:
        raise VerificationError(
            f"witness weighs {total}/{n} per edge, not {mu}")


def _extract_tight_cycle(k, t, cnt, idx, mu):
    """Find a simple cycle all of whose edges are tight for cycle mean mu.

    With w'(e) = q*w(e) - p every cycle has nonnegative w'-weight and the
    optimal ones weigh exactly 0, so after computing shortest-walk distances
    from vertex 0 the zero-reduced-weight (tight) subgraph contains exactly
    the optimal cycles.  Returns the cycle's vertex codes and the distances,
    which serve as potentials.

    The cycle is the one a depth-first search from vertex 0 closes when it
    tries successors in symbol order, computed without the search.  Peeling
    (dropping, round by round, every vertex with no tight edge to a vertex
    still left) leaves the vertices that reach a tight cycle.  The
    shortest-path tree is tight, so 0 reaches every vertex, and every
    optimal cycle, that way.  The search never returns from a vertex that
    reaches a tight cycle, and always finishes one that reaches none, so the
    stack it holds when it closes its cycle is the walk from 0 that takes,
    at each vertex, the least symbol whose successor is tight and left
    after peeling; the cycle runs from the walk's first repeated vertex.
    """
    p, q = mu.numerator, mu.denominator
    size = t ** k
    wadj = cnt * q
    wadj -= p

    dist = np.full(size, _INF, dtype=np.int64)
    dist[0] = 0
    for _ in range(size + 1):
        new = np.minimum(dist, _dp_step(dist, idx, wadj))
        if np.array_equal(new, dist):
            break
        dist = new
    else:
        raise VerificationError("negative cycle in reweighted graph")

    # The relaxation's terms dist[u] + w'(u -> v), in place, indexed by
    # predecessor symbol as in `_dp_step`: [b, j, c] is the edge from
    # u = b*shift + j to v = j*t + c, so tight[b, j] lists u's successors.
    shift = t ** (k - 1)
    terms = wadj.reshape(t, shift, t)
    terms += dist.reshape(t, shift, 1)
    tight = terms == dist.reshape(shift, t)
    alive = np.ones(size, dtype=bool)
    while True:
        tight &= alive.reshape(shift, t)  # alive only shrinks
        kept = tight.any(axis=2).ravel()
        if np.array_equal(kept, alive):
            break
        alive = kept
    if not alive[0]:
        raise VerificationError("tight subgraph must contain a cycle")

    walk, pos = [], {}
    u = 0
    while u not in pos:
        pos[u] = len(walk)
        walk.append(u)
        u = u % shift * t + int(tight[u // shift, u % shift].argmax())
    return walk[pos[u]:], dist


def _least_rotation(symbols):
    """Lexicographically least rotation of a tuple."""
    return min(symbols[i:] + symbols[:i] for i in range(len(symbols)))


class ZkValue(NamedTuple):
    """Normalized weight of the best alternating-run cycle, with its run t."""

    value: Fraction
    t: int


def zk(k):
    """Minimum over t of (C(t,2) + C(k-t+1,2)) / t, with the minimizing t.

    This is the normalized weight of the cycle of t zeros followed by t ones,
    minimized over ceil(k/2) <= t <= k+1; ties go to the smallest t.  The
    value equals t - k - 1 + (k^2 + k)/(2t), which is strictly convex in
    t > 0 with its least value at sqrt((k^2 + k)/2), so only the integers
    on either side of that root can win.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    root = math.isqrt((k * k + k) // 2)
    best = None
    for t in range(max(root, (k + 1) // 2), min(root + 1, k + 1) + 1):
        value = Fraction(math.comb(t, 2) + math.comb(k - t + 1, 2), t)
        if best is None or value < best.value:
            best = ZkValue(value, t)
    return best


def ak(k, alphabet=2, max_vertices=DEFAULT_MAX_VERTICES):
    """Exact minimum normalized cycle weight (the binary case by default)."""
    cycle = min_normalized_cycle(DeBruijnGraph(k, alphabet), max_vertices)
    return cycle.normalized

