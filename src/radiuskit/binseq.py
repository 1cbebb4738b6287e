"""Cyclic and linear t-ary sequences with exact bad-pair accounting.

A pair of positions i != j is bad when the symbols agree and the positions
are within distance k (cyclic distance min(|i-j|, s-|i-j|) in cyclic mode,
|i-j| in linear mode).  Every unordered pair is counted once, even when both
|i-j| <= k and s-|i-j| <= k.  w_k(s) is the minimum bad-pair count over all
cyclic strings of length s; it is computed either by enumerating strings or
by a minimum-weight closed-walk dynamic program over the de Bruijn graph,
and the two routes cross-check each other.
"""

import functools
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import debruijn
from .errors import (BudgetError, InputError, InvalidParameterError,
                     UnsupportedLengthError, VerificationError)

CYCLIC = "cyclic"
LINEAR = "linear"

# Enumeration cap for the brute-force route (t^s strings).
BRUTE_LIMIT = 1 << 26
# Codes per block of the enumeration: 2^16 uint32 is 256 KB per buffer.
_BRUTE_BLOCK = 1 << 16
# Below this many strings, the auto method runs both routes and cross-checks.
_CROSS_CHECK_LIMIT = 1 << 16
# Entries per (rows, t^k) block of the walk DP: 2^14 int64 is 128 KB.  At
# binary k = 10, blocks of 2^14 to 2^15 entries ran fastest; 2^16 and up
# ran slower.
_WALK_BLOCK = 1 << 14
# Work cap for the walk DP, in entries updated (see `_walk_work`).  Binary
# k = 10 may run to s = 1927, which takes 0.7-1.0 s on a 2-core Xeon;
# binary k = 14 is out of reach.
WALK_LIMIT = 1 << 29
# Length cap for `construct_low_bad`: s = 2^23 takes about 3.3 s and 350 MB
# on a 2-core Xeon, both linear in s.
LOWBAD_LIMIT = 1 << 23


@dataclass(frozen=True)
class CyclicBitString:
    """A t-ary string read cyclically or linearly."""

    symbols: tuple
    alphabet: int = 2
    mode: str = CYCLIC

    def __post_init__(self):
        debruijn._check_alphabet(self.alphabet)
        if self.mode not in (CYCLIC, LINEAR):
            raise InvalidParameterError(f"unknown mode {self.mode!r}")
        if any(not (0 <= s < self.alphabet) for s in self.symbols):
            raise InvalidParameterError(
                f"symbols must lie in [0, {self.alphabet})")
        object.__setattr__(self, "symbols", tuple(int(s) for s in self.symbols))

    def __len__(self):
        return len(self.symbols)

    def __str__(self):
        return debruijn._render_symbols(self.symbols, self.alphabet)


class BadPairReport(NamedTuple):
    bad_count: int
    good_count: int


def count_bad_pairs(seq, k):
    """Exact bad/good pair counts.

    Each distance d compares position i with i + d for the first `span`
    positions, which meets every within-distance pair exactly once: s - d
    positions in linear mode, s // fold cyclically (see
    `_rotation_distances`), there indexing the doubled string.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    s = len(seq)
    if s < 2:
        raise InvalidParameterError(f"need at least 2 symbols, got {s}")
    if seq.mode == LINEAR:
        spans = [(d, s - d) for d in range(1, min(k, s - 1) + 1)]
    else:
        spans = [(d, s // fold) for d, fold in _rotation_distances(k, s)[0]]
    x = seq.symbols
    xx = x + x
    bad = sum(sum(map(operator.eq, x[:span], xx[d:d + span]))
              for d, span in spans)
    return BadPairReport(bad, sum(span for _, span in spans) - bad)


def _rotation_distances(k, s):
    """The (d, fold) list of cyclic distances, and the constant string's count.

    Comparing each position with the one d ahead meets every pair at
    distance d once, except at d = s/2, where it meets each pair twice
    (fold 2).  The constant string has every one of these pairs bad.
    """
    distances = [(d, 2 if 2 * d == s else 1)
                 for d in range(1, min(k, s // 2) + 1)]
    return distances, sum(s // fold for _, fold in distances)


def _packed(values, count, t, b):
    """Base-t numbers below t^count (an int or an array), each digit moved
    to its own b-bit field, which for t = 2^b it already is."""
    if t == 1 << b:
        return values
    packed = values % t
    for j in range(1, count):
        packed |= values // t ** j % t << (j * b)
    return packed


def _wk_brute_fields(k, s, t):
    """Least bad-pair count over the codes t^(s-2) to 2*t^(s-2) - 1.

    Each symbol is a b-bit field of an unsigned code, most significant
    first, with b = (t-1).bit_length(), so a rotation by d positions
    rotates d*b bits.  A field differs from the one d ahead when any of its
    bits in code ^ rotated is set; ORing in b-1 right shifts flags it at
    its lowest bit, and popcount sums the flags (halved at d = s/2, where
    they have period s/2).  The answer is the constant string's count less
    the largest sum.  Blocks of t^m codes OR their high digits into one
    packed table of the m low digits, through reused buffers.  Codes are
    uint32 up to 32 bits (uint64 ran binary 1.6-1.8x slower); sums reach
    s*floor(s/2) <= 2048, so they fit uint16.
    """
    b = (t - 1).bit_length()
    width = s * b
    if width > 64:
        raise BudgetError(
            f"enumeration packs {s} symbols of {b} bits into uint64 codes, "
            f"so s*b <= 64; got {width}")
    dtype = np.uint32 if width <= 32 else np.uint64
    distances, constant = _rotation_distances(k, s)
    mask = (1 << width) - 1
    lowest = sum(1 << (j * b) for j in range(s))
    m = max(j for j in range(s - 1) if t ** j <= _BRUTE_BLOCK)
    table = _packed(np.arange(t ** m, dtype=dtype), m, t, b)
    lead = 1 << ((s - 2) * b)  # the leading digits 0, 1
    codes, rot, wrap = (np.empty_like(table) for _ in range(3))
    differ = np.empty(len(table), dtype=np.uint8)
    disagree = np.empty(len(table), dtype=np.uint16)
    best = 0  # the constant string disagrees nowhere
    for high in range(t ** (s - 2 - m)):
        np.bitwise_or(table, lead | _packed(high, s - 2 - m, t, b) << (m * b),
                      out=codes)
        disagree.fill(0)
        for d, fold in distances:
            np.right_shift(codes, d * b, out=rot)
            np.left_shift(codes, width - d * b, out=wrap)
            np.bitwise_or(rot, wrap, out=rot)
            np.bitwise_and(rot, mask, out=rot)
            np.bitwise_xor(rot, codes, out=rot)
            if b > 1:
                # x | x >> 1 | ... | x >> (b-1), by b-1 shift-and-ORs
                np.copyto(wrap, rot)
                for _ in range(b - 1):
                    np.right_shift(wrap, 1, out=wrap)
                    np.bitwise_or(wrap, rot, out=wrap)
                np.bitwise_and(wrap, lowest, out=rot)
            np.bitwise_count(rot, out=differ)
            if fold == 2:
                np.right_shift(differ, 1, out=differ)
            np.add(disagree, differ, out=disagree)
        best = max(best, int(disagree.max()))
    return constant - best


def _brute_refusal(s, t):
    """The error `wk_brute` raises past its cap, or None when it applies."""
    if debruijn._power_exceeds(t, s, BRUTE_LIMIT):
        return BudgetError(
            f"brute force over {t}^{s} strings exceeds the {BRUTE_LIMIT} cap")


def wk_brute(k, s, alphabet=2):
    """Brute-force w_k(s); requires alphabet**s <= BRUTE_LIMIT.

    Enumerates the constant string 0^s and the t^(s-2) strings that begin
    with the symbols 0, 1 (codes t^(s-2) to 2*t^(s-2) - 1, most significant
    digit first), which is exact: a string's bad-pair count depends only on
    which positions hold equal symbols, so rotating it or permuting its
    symbols keeps the count.  Any non-constant cyclic string has adjacent
    symbols x_i != x_{i+1}; rotating i to the front and sending x_i, x_{i+1}
    to 0, 1 gives an enumerated string.  `wk_walk` starts its walks from
    fewer windows by the same invariance (see `_walk_starts`).
    """
    debruijn._check_alphabet(alphabet)
    if s < 1:
        raise InvalidParameterError(f"length must be >= 1, got {s}")
    if refusal := _brute_refusal(s, alphabet):
        raise refusal
    if s == 1:
        return 0
    return _wk_brute_fields(k, s, alphabet)


def _truncated_weight_tables(k, s, t):
    """Doubled edge-weight tables that count each unordered pair twice.

    An edge compares the dropped symbol with the one d ahead at digit
    position d-1 of its target.  Over the cyclic distances of
    `_rotation_distances` that position weighs 2 // fold: 2, or 1 at
    d = s/2, where a closed walk meets each pair twice.  Offsets past s/2
    weigh 0, being the reverse offsets of pairs already counted.  The walk
    total is then exactly twice the bad-pair count of the cyclic string;
    for s > 2k these are twice the plain edge weights.
    """
    multiplicity = [0] * k
    for d, fold in _rotation_distances(k, s)[0]:
        multiplicity[d - 1] = 2 // fold
    return debruijn._digit_counts(k, t, multiplicity)


def _walk_work(k, s, t):
    """Entries the walk DP updates: s steps of each block of starts.

    A block counts as at least _WALK_BLOCK entries, because a step's fixed
    cost dominates small blocks (binary k = 2 ran 7 us per step).  The
    starts are charged as t^(k-2) + 1, the windows 0^k and 0 1 ... that
    the walk started from before `_walk_starts`.  Within the vertex budget
    no (k, t) has more real starts than that (a test checks them all), so
    this is an upper bound: 257 against 117 at binary k = 10.  Counting
    the real starts would move the cap and with it `wk_exact`'s choice:
    the walk would then apply at binary k = 14 for s <= 25, where 'auto'
    would pick it over enumeration.
    """
    size = t ** k
    starts = t ** (k - 2) + 1 if k >= 2 else 1
    rows = max(1, _WALK_BLOCK // size)
    return s * -(-starts // rows) * max(size, _WALK_BLOCK)


def _walk_refusal(k, s, t):
    """The error `wk_walk` raises for (k, s, t), or None when it applies."""
    if s < k + 1:
        return InvalidParameterError(
            f"walk method needs s >= k+1 (got s={s}, k={k})")
    if debruijn._power_exceeds(t, k, debruijn.DEFAULT_MAX_VERTICES):
        return BudgetError(
            f"walk DP needs {t}^{k} vertices, over the budget of "
            f"{debruijn.DEFAULT_MAX_VERTICES}")
    if (work := _walk_work(k, s, t)) > WALK_LIMIT:
        return BudgetError(
            f"walk DP for s = {s} updates {work} entries, over the "
            f"{WALK_LIMIT} cap")


# Cached, read-only: `wk_walk` asks for the same (k, t) on every call.  It
# asks only within the vertex budget, where no (k, t) has more than
# t^(k-2) + 1 <= 2^12 + 1 starts (see `_walk_work`), so an entry holds at
# most 33 KB and the cache at most about 2 MB.
@functools.lru_cache(maxsize=64)
def _walk_starts(k, t):
    """The canonical windows w with canon(w[j:]) >= w[:k-j] for 0 < j < k.

    canon renames symbols in order of first appearance, so the canonical
    windows are the quotient's codes (`debruijn._quotient_graph`).  The
    first k - j symbols of a window's canonical form depend only on those
    symbols up to renaming, so canon(w[j:]) is the code of v_j, w after j
    steps along the quotient's symbol-0 successors, less its last j digits.
    """
    codes, succ = debruijn._quotient_graph(k, t)
    chain = np.empty((k - 1, len(codes)), dtype=np.int64)
    v = np.arange(len(codes))
    for j in range(k - 1):
        v = chain[j] = succ[0, v]
    powers = t ** np.arange(1, k, dtype=np.int64)[:, None]
    starts = codes[(codes[chain] // powers >= codes // powers).all(axis=0)]
    starts.setflags(write=False)
    return starts


def wk_walk(k, s, alphabet=2):
    """w_k(s) as the minimum-weight closed walk of length s.

    Cyclic strings of length s >= k+1 correspond bijectively to closed
    s-walks in the de Bruijn graph, so minimizing walk weight minimizes the
    bad-pair count.  The walks start only from the windows of
    `_walk_starts`: the canonical windows w, symbols renamed in order of
    first appearance, with canon(w[j:]) >= w[:k-j] for every 0 < j < k
    (117 of the 1,024 binary windows at k = 10; for k = 1 only 0).  This
    is Fredricksen and Maiorana's reading of a necklace from its least
    rotation (1978), with renamings counted as well as rotations, and it
    is exact.  Rotating a cyclic string or renaming its symbols keeps its
    bad-pair count, since the doubled edge weights count only digits
    equal to the dropped symbol.  Take an optimal string and let x* be
    the least of all its rotations and renamings, read as length-s words;
    x* is optimal too, and its first window w is canonical.  Were canon(w[j:]) < w[:k-j] for some j, the
    renamed rotation of x* by j would begin with canon(w[j:]) and so be
    smaller than x*.  Hence w is a start, and the minimum over the starts
    is the minimum over all t^k of them.

    The starts run in blocks of rows, one independent DP row per start,
    each block a (rows, t^k) int64 array of at most _WALK_BLOCK entries
    advanced by `debruijn._dp_step`; the value is the least
    dist[row, start_row] after s steps.
    """
    debruijn._check_alphabet(alphabet)
    if refusal := _walk_refusal(k, s, alphabet):
        raise refusal
    t = alphabet
    size = t ** k
    weights = _truncated_weight_tables(k, s, t)
    idx = debruijn._pred_indices(k, t)
    starts = _walk_starts(k, t)
    rows = max(1, _WALK_BLOCK // size)
    best = debruijn._INF
    for lo in range(0, len(starts), rows):
        block = starts[lo:lo + rows]
        diagonal = (np.arange(len(block)), block)
        dist = np.full((len(block), size), debruijn._INF, dtype=np.int64)
        dist[diagonal] = 0
        for _ in range(s):
            dist = debruijn._dp_step(dist, idx, weights)
        best = min(best, int(dist[diagonal].min()))
    if best % 2:
        raise VerificationError(
            f"closed {s}-walk weight {best} is odd; doubled weights must "
            f"give an even total")
    return best // 2


def wk_exact(k, s, alphabet=2, method="auto"):
    """Minimum bad-pair count over all cyclic t-ary strings of length s.

    method 'brute' enumerates strings (t^s capped), 'walk' runs the closed
    walk DP (s >= k+1), 'auto' picks brute for small s and walk otherwise,
    cross-checking whenever both are cheap.
    """
    if k < 1 or s < 1:
        raise InvalidParameterError(f"need k >= 1 and s >= 1, got k={k} s={s}")
    debruijn._check_alphabet(alphabet)
    if method == "brute":
        return wk_brute(k, s, alphabet)
    if method == "walk":
        return wk_walk(k, s, alphabet)
    if method != "auto":
        raise InvalidParameterError(f"unknown method {method!r}")

    walk_applies = _walk_refusal(k, s, alphabet) is None
    brute_applies = _brute_refusal(s, alphabet) is None
    if not walk_applies and not brute_applies:
        raise BudgetError(
            f"w_{k}({s}) over alphabet {alphabet} fits neither enumeration "
            f"nor the walk DP")
    if brute_applies and (alphabet ** s <= _CROSS_CHECK_LIMIT or
                          not walk_applies):
        value = wk_brute(k, s, alphabet)
        if walk_applies:
            check = wk_walk(k, s, alphabet)
            if check != value:
                raise VerificationError(
                    f"walk/brute disagree for k={k} s={s}: "
                    f"{check} != {value}")
        return value
    return wk_walk(k, s, alphabet)


class LowBadConstruction(NamedTuple):
    sequence: CyclicBitString
    bad_count: int


def construct_low_bad(k, s):
    """Cyclic binary string of length s with close to a_k*s bad pairs.

    Repeats an optimal cycle word floor(s/ell) times and pads with the
    leftover number of zeros at position 0.  The measured bad count is
    always below a_k*s + k(2^k + k); when ell divides s and s > 2k it equals
    a_k*s exactly.  A length past LOWBAD_LIMIT raises BudgetError before any
    string is built.
    """
    if s < 1:
        raise InvalidParameterError(f"length must be >= 1, got {s}")
    if s > LOWBAD_LIMIT:
        raise BudgetError(
            f"low-bad string of length {s} is over the {LOWBAD_LIMIT} cap")
    cycle = debruijn.min_normalized_cycle(debruijn.DeBruijnGraph(k))
    ell = cycle.length
    if s < ell:
        raise UnsupportedLengthError(
            f"need s >= {ell} (the optimal cycle length for k={k}), got {s}")
    q, r = divmod(s, ell)
    symbols = (0,) * r + cycle.symbols * q
    seq = CyclicBitString(symbols, alphabet=2, mode=CYCLIC)
    bad = count_bad_pairs(seq, k).bad_count
    return LowBadConstruction(seq, bad)


def characteristic(items, sides, mode=CYCLIC):
    """Binary string with 0 wherever the item's side is class 0.

    `sides` maps every item to 0 or 1 (bipartition class X or Y); items
    without an assignment raise InputError.
    """
    symbols = []
    for item in items:
        if item not in sides:
            raise InputError(f"item {item!r} has no bipartition side")
        side = sides[item]
        if side not in (0, 1):
            raise InputError(f"side of {item!r} must be 0 or 1, got {side!r}")
        symbols.append(side)
    return CyclicBitString(tuple(symbols), alphabet=2, mode=mode)
