"""Verifiers, lower bounds, and constructions for k-radius/k-cover sequences.

A k-radius sequence lists vertices (repetitions allowed) so that the two
endpoints of every edge appear within distance k; a k-cover sequence lists
(k+1)-element cache contents, consecutive sets differing by one swap, that
co-host every edge at some point.  Constructions here always re-verify their
own output before returning it.
"""

import itertools
import math
import random
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from . import binseq, debruijn
from .binseq import CYCLIC, LINEAR
from .errors import (BudgetError, InputError, InvalidParameterError,
                     ParseError, StructureError, VerificationError)
from .graphs import (Graph, _pair_codes, _token_line, _uncommented,
                     complete_bipartite)


@dataclass(frozen=True)
class VertexSequence:
    """An ordered vertex list over a graph, read linearly or cyclically."""

    graph: Graph
    items: tuple
    mode: str = LINEAR

    def __post_init__(self):
        if self.mode not in (LINEAR, CYCLIC):
            raise InvalidParameterError(f"unknown mode {self.mode!r}")
        items = tuple(map(str, self.items))
        object.__setattr__(self, "items", items)
        unknown = set(items).difference(self.graph.index)
        if unknown:
            at = next(i for i, x in enumerate(items) if x in unknown)
            raise InputError(f"sequence refers to unknown vertex "
                             f"{items[at]!r}", position=at)

    def __len__(self):
        return len(self.items)


@dataclass(frozen=True)
class CoverSequence:
    """An ordered list of (k+1)-sets; structure is checked by verify_cover."""

    graph: Graph
    k: int
    sets: tuple

    def __post_init__(self):
        if self.k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {self.k}")
        sets = tuple(frozenset(map(str, s)) for s in self.sets)
        unknown = frozenset().union(*sets).difference(self.graph.index)
        if unknown:
            # the first in the given order, whatever the string hash seed
            at, x = next((i, x) for i, s in enumerate(self.sets)
                         for x in map(str, s) if x in unknown)
            raise InputError(f"cover set refers to unknown vertex {x!r}",
                             position=at)
        object.__setattr__(self, "sets", sets)

    def __len__(self):
        return len(self.sets)

    @property
    def reads(self):
        """length + k: k+1 reads for the first set and one per later set;
        an empty sequence reads nothing."""
        return len(self.sets) + self.k if self.sets else 0


class RadiusCheck(NamedTuple):
    valid: bool
    uncovered: tuple


class CoverCheck(NamedTuple):
    valid: bool
    uncovered: tuple
    reads: int


# Edges coded per block in `_uncovered_edges`: its int64 temporaries stay
# at a few 8 MB arrays, whatever the edge count.
_EDGE_BLOCK = 1 << 20


def _uncovered_edges(graph, pairs):
    """Sorted edges of graph that no (u, v) index-array pair in pairs covers.

    Every pair's `_pair_codes` go into one array (u == v codes no edge, as
    graphs have no self-loops); edges are looked up in `_EDGE_BLOCK`s.
    """
    size = graph.num_vertices
    # the -1 sentinel lies below every code, so each edge code finds the
    # largest covered code not above it
    covered = np.empty(1 + sum(len(u) for u, _ in pairs), dtype=np.int64)
    covered[0] = -1
    start = 1
    for u, v in pairs:
        _pair_codes(u, v, size, out=covered[start:start + len(u)])
        start += len(u)
    covered.sort()
    missing = []
    for lo in range(0, graph.num_edges, _EDGE_BLOCK):
        ends = graph.ends[lo:lo + _EDGE_BLOCK]
        edge_codes = _pair_codes(ends[:, 0], ends[:, 1], size)
        found = covered[np.searchsorted(covered, edge_codes, side="right") - 1]
        missing += ends[found != edge_codes].tolist()
    vs = graph.vertices
    return tuple(sorted(tuple(sorted((vs[a], vs[b]))) for a, b in missing))


def verify_radius(seq, k):
    """Check that every edge's endpoints appear within distance k."""
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    s = len(seq.items)
    at = np.fromiter(map(seq.graph.index.__getitem__, seq.items),
                     dtype=np.int64, count=s)
    span = min(k, s - 1)
    pairs = [(at[:s - d], at[d:]) for d in range(1, span + 1)]
    if seq.mode == CYCLIC:
        # the pairs at distance d that wrap round the end
        pairs += [(at[s - d:], at[:d]) for d in range(1, span + 1)]
    uncovered = _uncovered_edges(seq.graph, pairs)
    return RadiusCheck(not uncovered, uncovered)


def verify_cover(cov):
    """Check structure, then that every edge lies inside some set."""
    width = cov.k + 1
    for i, s in enumerate(cov.sets, start=1):
        if len(s) != width:
            raise StructureError(
                f"has {len(s)} elements, expected {width}", index=i)
    members = np.fromiter(map(cov.graph.index.__getitem__,
                              itertools.chain.from_iterable(cov.sets)),
                          np.int64, len(cov.sets) * width).reshape(-1, width)
    new = width - np.count_nonzero(  # the members not in the set before
        members[:-1, :, None] == members[1:, None, :], axis=(1, 2))
    for i in np.flatnonzero(new != 1)[:1].tolist():
        raise StructureError(f"differs from its predecessor by {new[i]} "
                             f"elements, expected exactly 1", index=i + 2)
    pairs = [(members[:, a], members[:, b])
             for a, b in itertools.combinations(range(width), 2)]
    uncovered = _uncovered_edges(cov.graph, pairs)
    return CoverCheck(not uncovered, uncovered, cov.reads)


def require_valid(check, name):
    """The self-check of a computed sequence: `check` if it holds, else
    VerificationError("<name> missed <uncovered edges>")."""
    if not check.valid:
        raise VerificationError(f"{name} missed {check.uncovered}")
    return check


@dataclass(frozen=True)
class BoundsReport:
    """Lower bounds on the shortest k-radius sequence length.

    edge_bound = e/k + (k+1)/2 (cache-fill counting; needs more than k+1
    non-isolated vertices), bipartite_bound = e/(k - a_k) for bipartite graphs,
    degree_bound = sum of ceil(deg/2k).  fk_lower is the ceiling of the best
    applicable bound.  bipartite records whether the graph has a
    2-colouring, whatever its edge count.
    """

    edge_bound: Optional[Fraction]
    bipartite_bound: Optional[Fraction]
    degree_bound: int
    fk_lower: int
    bipartite: bool = field(compare=False)


def bounds(g, k):
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    e = g.num_edges
    degrees = np.bincount(g.ends.ravel(), minlength=g.num_vertices)
    edge_bound = None
    if np.count_nonzero(degrees) > k + 1:
        edge_bound = Fraction(e, k) + Fraction(k + 1, 2)
    bipartite = g.bipartition() is not None
    bipartite_bound = None
    if e > 0 and bipartite:
        try:
            a = debruijn.ak(k)
            bipartite_bound = Fraction(e) / (k - a)
        except BudgetError:
            bipartite_bound = None
    degree_bound = int((-(-degrees // (2 * k))).sum())  # sum of ceilings
    candidates = [b for b in (edge_bound, bipartite_bound,
                              Fraction(degree_bound)) if b is not None]
    best = max(candidates, default=Fraction(0))
    return BoundsReport(edge_bound=edge_bound,
                        bipartite_bound=bipartite_bound,
                        degree_bound=degree_bound,
                        fk_lower=math.ceil(best),
                        bipartite=bipartite)


def euler_radius1(g):
    """A shortest-style 1-radius sequence from an Euler circuit.

    Odd-degree vertices are paired up with auxiliary edges; the resulting
    multigraph has an Euler circuit, which is cut at an auxiliary edge when
    one exists.  The emitted walk has length m + n_o/2 for n_o > 0 odd
    vertices, and m + 1 for Eulerian inputs (a closed circuit needs its
    start repeated to cover the wrap edge linearly).
    """
    if g.num_edges < 1:
        raise InvalidParameterError("need at least one edge")
    if not g.is_connected():
        raise InputError("graph must be connected")

    # edge ids below g.num_edges are real; the rest pair up odd vertices
    real = g.num_edges
    odd = sorted(v for v in g.vertices if g.degree(v) % 2 == 1)
    adj = {v: [] for v in g.vertices}
    for eid, (u, v) in enumerate(g.edges + tuple(zip(odd[0::2], odd[1::2]))):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    for ns in adj.values():
        ns.sort()

    # Hierholzer, iterative; records the edge ids along the circuit.
    used = [False] * (real + len(odd) // 2)
    ptr = {v: 0 for v in adj}
    stack = [(g.vertices[0], None)]
    circuit = []  # (vertex, edge id leading into it)
    while stack:
        v = stack[-1][0]
        while ptr[v] < len(adj[v]):
            w, eid = adj[v][ptr[v]]
            ptr[v] += 1
            if not used[eid]:
                used[eid] = True
                stack.append((w, eid))
                break
        else:
            circuit.append(stack.pop())
    # (vertex, incoming edge id) in walk order; the first edge id is None
    verts, in_edge = zip(*reversed(circuit))
    if verts[0] != verts[-1] or len(verts) != len(used) + 1:
        raise VerificationError("euler circuit is not closed over every edge")

    cut = next((i for i in range(1, len(verts)) if in_edge[i] >= real), None)
    if cut is None:
        items = verts  # Eulerian: closed walk, start repeated; length m+1
    else:
        # drop the auxiliary edge at position `cut` and restart the walk there
        items = verts[cut:-1] + verts[:cut]
    seq = VertexSequence(g, tuple(items), mode=LINEAR)
    require_valid(verify_radius(seq, 1), "euler construction")
    return seq


def linearize_cyclic(seq, k):
    """Valid cyclic sequence of length s -> valid linear one of length s+k."""
    if seq.mode != CYCLIC:
        raise InvalidParameterError("expected a cyclic sequence")
    return VertexSequence(seq.graph, seq.items + seq.items[:k], mode=LINEAR)


class BipartiteConstruction(NamedTuple):
    sequence: VertexSequence
    length: int
    lower_bound: Fraction  # m*n/(k - a_k)
    ratio: float
    block: Optional[tuple]  # one period of the block pattern, 0 X / 1 Y
    blocks_used: int


# Cap on the m*n vertex pairs of K_{m,n} for both bipartite constructions,
# checked before anything is allocated; README times m = n = 5000.
MAX_BIPARTITE_PAIRS = 5000 * 5000


def _check_pair_budget(m, n):
    if m * n > MAX_BIPARTITE_PAIRS:
        raise BudgetError(
            f"K_{{{m},{n}}} has {m * n} vertex pairs, above the cap of "
            f"{MAX_BIPARTITE_PAIRS}")


# Cap on the estimated bytes of `cover_strategy_bipartite`, checked after
# the pair cap and before anything is built, of the order of the largest
# run README times (`construct bipartite` at m = n = 5000, 1,019 MB).  A
# set takes about 256 B per member (label frozensets) and 16 B per member
# pair (the pair code that verify_cover builds and sorts):
# (k + 1)(256 + 8k) B, against 544 B measured at k = 1, 1,553 at k = 4
# and 3,910 at k = 16.
MAX_COVER_BYTES = 1_600_000_000


def construct_bipartite(m, n, k, epsilon_hint=0.5, seed=0):
    """A verified k-radius sequence for the complete bipartite graph.

    Concatenates instantiations of an optimal-cycle block pattern, choosing
    vertices greedily (position by position, maximizing newly covered pairs,
    ties to the lowest vertex index), then finishes with a pair sweep that
    appends both endpoints of each still-uncovered pair.  The achieved
    length over the bipartite lower bound m*n/(k-a_k) is reported, never
    asserted.  The seed only rotates the phase at which the cyclic pattern
    is cut; the greedy itself is deterministic.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if m < 0 or n < 0:
        raise InvalidParameterError("m and n must be nonnegative")
    eps = float(epsilon_hint)
    if not 0 < eps < math.inf:
        raise InvalidParameterError(
            f"epsilon must be finite and > 0, got {epsilon_hint}")
    _check_pair_budget(m, n)
    if m == 0 or n == 0:
        vs = [f"x{i}" for i in range(1, m + 1)] + \
             [f"y{j}" for j in range(1, n + 1)]
        g = Graph(vs, ())
        seq = VertexSequence(g, (), mode=LINEAR)
        return BipartiteConstruction(seq, 0, Fraction(0), 0.0, None, 0)

    # a_k first: its vertex cap refuses a large k before K_{m,n} is built
    opt = debruijn.min_normalized_cycle(debruijn.DeBruijnGraph(k))
    g = complete_bipartite(m, n)
    a = opt.normalized
    lower = Fraction(m * n) / (k - a)

    # capped before rounding up: a tiny epsilon overflows the ratio to inf.
    # The cycle holds both symbols, as a constant word weighs k per edge and
    # a_k < k, so q periods need q * zeros <= m and q * ones <= n.
    zeros = opt.symbols.count(0)
    q = min(math.ceil(min((1 + eps) / eps * (k * (k + 1)) /
                          (opt.length * float(k - a)),
                          (2 * min(m, n)) // opt.length)),
            m // zeros, n // (opt.length - zeros))
    block = None
    if q >= 1 and q * opt.length > 2 * k:
        phase = random.Random(seed).randrange(opt.length)
        block = (opt.symbols[phase:] + opt.symbols[:phase]) * q

    # Vertices are indices x_i -> i-1, y_j -> m+j-1 (g.vertices order); side
    # 0 is X, side 1 is Y.  open_[v] is an int bitmask whose bit j is set
    # while v and vertex j of the other side (counted from offset) form an
    # open pair; covering a pair clears its bit in both masks.
    offset = (0, m)
    open_ = [(1 << n) - 1] * m + [(1 << m) - 1] * n
    remaining = m * n
    items = array("q")  # 8 bytes a slot, against 36 in a list of ints

    def append(v):
        """Append a vertex, marking pairs formed within the last k slots."""
        nonlocal remaining
        s = v >= m
        other = offset[not s]
        bit = 1 << (v - offset[s])
        row = open_[v]
        for w in items[-k:]:
            if (w >= m) != s:
                b = 1 << (w - other)
                if row & b:
                    row ^= b
                    open_[w] ^= bit
                    remaining -= 1
        open_[v] = row
        items.append(v)

    blocks_used = 0
    if block is not None:
        while remaining > 0:
            before = remaining
            unused = [(1 << m) - 1, (1 << n) - 1]
            for sym in block:
                # Bit-sliced counters (Knuth, TAOCP 4A, 7.1.3): bit i of
                # planes[p] is bit p of the number of distinct window
                # vertices open with vertex i of side sym.  Going down the
                # planes keeps the unused vertices of the highest count, and
                # the lowest of them wins; at most m 0s and n 1s per block
                # leave one unused.
                planes = []
                for w in {w for w in items[-k:] if (w >= m) != sym}:
                    carry = open_[w]
                    p = 0
                    for plane in planes:
                        planes[p] = plane ^ carry
                        carry &= plane
                        p += 1
                    if carry:
                        planes.append(carry)
                best = unused[sym]
                while planes:
                    plane = best & planes.pop()
                    if plane:
                        best = plane
                best &= -best
                unused[sym] ^= best
                append(best.bit_length() - 1 + offset[sym])
            blocks_used += 1
            # stop once a block stops beating the sweep's 1 pair per 2 slots
            if (before - remaining) * 2 < len(block):
                break

    # the open pairs in row-major order: a row's lowest open bit is always
    # the next, as covering a pair never opens one
    for x in range(m):
        while row := open_[x]:
            y = m + (row & -row).bit_length() - 1
            window = items[-k:]
            if x in window:
                append(y)
            elif y in window:
                append(x)
            else:
                append(x)
                append(y)

    seq = VertexSequence(g, tuple(map(g.vertices.__getitem__, items)),
                         mode=LINEAR)
    require_valid(verify_radius(seq, k), "bipartite construction")
    ratio = len(items) / float(lower) if lower else 0.0
    return BipartiteConstruction(seq, len(items), lower, ratio, block,
                                 blocks_used)


def cover_strategy_bipartite(m, n, k):
    """The cache strategy: hold k X-vertices, cycle through all of Y.

    Rounds pick k fresh X-vertices (the last round padded with already-used
    ones so sets keep k+1 elements); between rounds the X-vertices are
    swapped in one at a time.  When fewer than k X-vertices exist at all,
    one round slides a window of Y-vertices past the whole of X instead.
    """
    if m < 1 or n < 1 or k < 1:
        raise InvalidParameterError("need m, n, k >= 1")
    if m + n <= k + 1:
        raise InvalidParameterError(
            f"need m + n > k + 1 (got {m}+{n} vs k={k})")
    _check_pair_budget(m, n)
    most = n if m < k else -(-m // k) * (n + k)  # sets, at most
    need = most * (k + 1) * (256 + 8 * k)
    if need > MAX_COVER_BYTES:
        raise BudgetError(
            f"a {k}-cover of K_{{{m},{n}}} takes up to {most} sets, about "
            f"{need} bytes, above the cap of {MAX_COVER_BYTES}")
    g = complete_bipartite(m, n)
    xs, ys = g.vertices[:m], g.vertices[m:]

    if m < k:
        # Window of k+1-m Y-vertices slides while all of X stays resident.
        w = k + 1 - m
        sets = [frozenset(xs + ys[j - w + 1:j + 1]) for j in range(w - 1, n)]
    else:
        sets = []
        current = set(xs[:k])
        for r in range(math.ceil(m / k)):
            fresh = xs[r * k:(r + 1) * k]
            group = fresh + xs[:k - len(fresh)]
            held = frozenset(group)
            # swap the group in one member at a time while y_n stays
            for x in group:
                if x not in current:
                    current.remove(min(current - held))
                    current.add(x)
                    sets.append(frozenset(current) | {ys[-1]})
            # with n = 1 the last swap already holds the group and y_1
            if r == 0 or n > 1:
                sets.extend(held | {y} for y in ys)
    cov = CoverSequence(g, k, tuple(sets))
    require_valid(verify_cover(cov), "cover strategy")
    return cov


def maxcut_circulant(n, k):
    """Max cut of the distance-<=k circulant: k*n - w_k(n) for k < n/2.

    For 2k >= n the circulant is K_n, whose max cut is floor(n^2/4).
    """
    if n < 3 or k < 1:
        raise InvalidParameterError(f"need n >= 3 and k >= 1, got {n}, {k}")
    if 2 * k >= n:
        return n * n // 4
    return k * n - binseq.wk_exact(k, n)


def parse_vertex_sequence(text, graph, mode=LINEAR):
    """Whitespace-separated vertex labels."""
    try:
        return VertexSequence(graph, tuple(_uncommented(text).split()),
                              mode=mode)
    except InputError as exc:
        raise InputError(f"line {_token_line(text, exc.position)}: {exc}"
                         ) from None


def parse_cover_sequence(text, graph, k):
    """One set per line, labels space-separated."""
    rows = list(filter(None, map(str.split, _uncommented(text).splitlines())))

    def line(i):  # of row i, at the token position of its first label
        return _token_line(text, sum(map(len, rows[:i])))

    try:  # the rows keep the file order, so an error names the first label
        cov = CoverSequence(graph, k, rows)
        sets, unknown = cov.sets, None
    except InputError as exc:  # reported after a repeated label, if any
        sets, unknown = map(frozenset, rows), exc
    for i, (s, row) in enumerate(zip(sets, rows)):
        if len(s) != len(row):
            raise ParseError("repeated label inside a set", line=line(i))
    if unknown:
        raise InputError(f"line {line(unknown.position)}: {unknown}")
    return cov


def serialize_cover_sequence(cov):
    return "".join(" ".join(sorted(s)) + "\n" for s in cov.sets)
