"""Tests for the weighted de Bruijn graph and minimum-cycle machinery."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from helpers import (canonical_window_reference, edge_word_weight,
                     extract_tight_cycle_reference, howard_full_reference,
                     karp_min_cycle, quotient_graph_reference,
                     zk_loop_reference)

from radiuskit import debruijn
from radiuskit.debruijn import (DeBruijnGraph, ak, check_certificate,
                                min_normalized_cycle, zk)
from radiuskit.errors import (BudgetError, InvalidParameterError,
                              VerificationError)


def all_cycle_min_mean(k, t=2):
    """Independent oracle: enumerate every simple cycle explicitly."""
    shift = t ** (k - 1)

    def wt(u, v):
        head = u // shift
        count, x = 0, v
        for _ in range(k):
            if x % t == head:
                count += 1
            x //= t
        return count

    best = None
    for root in range(t ** k):
        stack = [(root, 1, frozenset((root,)), 0)]
        while stack:
            u, length, used, w = stack.pop()
            base = (u % shift) * t
            for c in range(t):
                v = base + c
                if v == root:
                    mean = Fraction(w + wt(u, root), length)
                    if best is None or mean < best:
                        best = mean
                elif v > root and v not in used:
                    stack.append((v, length + 1, used | {v}, w + wt(u, v)))
    return best


def cycle_word_weight(word, k):
    """Weight of the cyclic word's closed walk, straight from edge words."""
    tiled = word * ((k + 1) // len(word) + 2)
    return sum(edge_word_weight(tiled[i:i + k + 1]) for i in range(len(word)))


def test_build_sizes():
    # one potential per vertex: t^k of them
    for k, t, size in [(1, 2, 2), (3, 2, 8), (2, 3, 9)]:
        g = DeBruijnGraph(k, t)
        assert (g.k, g.alphabet) == (k, t)
        assert min_normalized_cycle(g).potentials.shape == (size,)


def test_build_invalid():
    with pytest.raises(InvalidParameterError):
        DeBruijnGraph(0)
    with pytest.raises(InvalidParameterError):
        DeBruijnGraph(3, 1)


TABLE2 = {1: Fraction(0), 2: Fraction(1, 2), 3: Fraction(1),
          4: Fraction(4, 3), 5: Fraction(7, 4)}
TABLE2_UNIQUE_WORDS = {1: "01", 2: "0011", 4: "000111", 5: "00001111"}
TABLE2_K3_WORDS = ["01", "0011", "000111", "00011", "00111"]


def test_table2_values_and_witnesses():
    for k, expected in TABLE2.items():
        cycle = min_normalized_cycle(DeBruijnGraph(k))
        assert cycle.normalized == expected
        # re-verify the witness from scratch
        windows = cycle.windows()
        assert len(set(windows)) == cycle.length, "windows must be distinct"
        assert cycle_word_weight(cycle.word, k) == cycle.total_weight
        assert Fraction(cycle.total_weight, cycle.length) == expected


def test_table2_unique_witness_words():
    for k, word in TABLE2_UNIQUE_WORDS.items():
        assert min_normalized_cycle(DeBruijnGraph(k)).word == word


def test_k3_optimal_cycles_all_weigh_one():
    for word in TABLE2_K3_WORDS:
        weight = cycle_word_weight(word, 3)
        assert Fraction(weight, len(word)) == 1
    returned = min_normalized_cycle(DeBruijnGraph(3))
    assert returned.normalized == 1


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_exhaustive_cycle_oracle_binary(k):
    assert ak(k) == all_cycle_min_mean(k)


@pytest.mark.parametrize("k,t", [(1, 3), (2, 3), (1, 4)])
def test_exhaustive_cycle_oracle_tary(k, t):
    assert ak(k, alphabet=t) == all_cycle_min_mean(k, t)


# Every binary case through k = 12 and every t-ary one (t <= 10) with at
# most 1024 vertices.
KARP_CASES = [(k, 2) for k in range(1, 13)] + [
    (k, t) for t in range(3, 11) for k in range(1, 7) if t ** k <= 1024] + [
    (1, 64), (1, 100)]  # t >= 64: more successor arrays than np.choose takes


@pytest.mark.parametrize("k,t", KARP_CASES)
def test_howard_matches_karp_oracle(k, t):
    cycle = min_normalized_cycle(DeBruijnGraph(k, t))
    assert (cycle.normalized, cycle.symbols) == karp_min_cycle(k, t)


def test_howard_reads_weights_without_a_table():
    # a (t, V) int64 weight table, or its index, is 2 MB at t = 512, k = 1
    cnt = debruijn._digit_counts(1, 512)
    tracemalloc.start()
    try:
        assert debruijn._howard_min_mean(1, 512, cnt) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# Binary k <= 16, every 3 <= t <= 10 with t^k <= 6561, and large alphabets
# at k = 1, 2.  (512, 2) is left out: the full graph's count table alone
# is 512 x 512^2 int64 words, 1 GiB.
QUOTIENT_CASES = [(k, 2) for k in range(1, 17)] + [
    (k, t) for t in range(3, 11) for k in range(1, 9) if t ** k <= 6561] + [
    (1, 64), (2, 64), (1, 100), (2, 100), (1, 512)]


def test_howard_on_quotient_matches_full_graph():
    assert len(QUOTIENT_CASES) == 16 + 38 + 5
    for k, t in QUOTIENT_CASES:
        cnt = debruijn._digit_counts(k, t)
        assert (debruijn._howard_min_mean(k, t, cnt)
                == howard_full_reference(k, t, cnt)), (k, t)


def test_quotient_vertex_count():
    # sum_{j <= t} S(k, j) canonical windows: 2^(k-1) when t = 2
    for k, t, size in [(k, 2, 1 << (k - 1)) for k in range(1, 17)] + [
            (8, 3, 1094), (6, 4, 187), (5, 5, 52)]:
        codes, succ = debruijn._quotient_graph(k, t)
        assert len(codes) == size and succ.shape == (t, size), (k, t)


def test_quotient_successors_match_reference():
    """Every canonical window, and every successor table entry, against a
    renaming in first-appearance order of the full graph's windows."""
    for k, t in [(k, 2) for k in range(1, 9)] + [
            (3, 3), (5, 3), (4, 4), (3, 5), (2, 7), (1, 64), (2, 64)]:
        shift = t ** (k - 1)
        codes, succ = debruijn._quotient_graph(k, t)
        canonical = sorted({canonical_window_reference(v, k, t)
                            for v in range(t ** k)})
        assert codes.tolist() == canonical, (k, t)
        index = {v: i for i, v in enumerate(canonical)}
        expected = [[index[canonical_window_reference(u % shift * t + c, k, t)]
                     for u in canonical] for c in range(t)]
        assert succ.tolist() == expected, (k, t)


def test_quotient_graph_matches_level_loop():
    """The binary closed form, and the level loop for t >= 3, against the
    level loop: binary k <= 14 and every t >= 3 with t^k <= 6561."""
    cases = [(k, 2) for k in range(1, 15)] + [
        (k, t) for k in range(1, 9) for t in range(3, 6562) if t ** k <= 6561]
    for k, t in cases:
        codes, succ = debruijn._quotient_graph(k, t)
        ref_codes, ref_succ = quotient_graph_reference(k, t)
        assert codes.dtype == ref_codes.dtype == np.int64, (k, t)
        assert np.array_equal(codes, ref_codes), (k, t)
        assert succ.dtype == ref_succ.dtype, (k, t)
        assert np.array_equal(succ, ref_succ), (k, t)


def test_tight_cycle_matches_dfs_reference():
    """The witness walk closes the cycle the depth-first search closes, with
    the same distances, on binary k <= 12 and every 3 <= t <= 64 with
    t^k <= 4096."""
    cases = [(k, 2) for k in range(1, 13)] + [
        (k, t) for t in range(3, 65) for k in range(1, 8) if t ** k <= 4096]
    assert len(cases) == 162
    for k, t in cases:
        cnt = debruijn._digit_counts(k, t)
        idx = debruijn._pred_indices(k, t)
        mu = debruijn._howard_min_mean(k, t, cnt)
        codes, dist = debruijn._extract_tight_cycle(k, t, cnt, idx, mu)
        ref_codes, ref_dist = extract_tight_cycle_reference(k, t, cnt, idx,
                                                            mu)
        assert codes == ref_codes, (k, t)
        assert np.array_equal(dist, ref_dist), (k, t)


def test_least_rotation():
    assert debruijn._least_rotation((1, 0, 1, 0, 0)) == (0, 0, 1, 0, 1)
    assert debruijn._least_rotation((1, 1)) == (1, 1)
    assert debruijn._least_rotation((2, 0, 1)) == (0, 1, 2)


@pytest.mark.parametrize(
    "k,t", [(1, 2), (5, 2), (9, 2), (3, 3), (2, 7), (2, 64), (2, 100)])
def test_certificate_accepts_results(k, t):
    cycle = min_normalized_cycle(DeBruijnGraph(k, t))
    pi = cycle.potentials
    assert pi.dtype == np.int64 and pi.shape == (t ** k,)
    assert not pi.flags.writeable
    assert "potentials" not in repr(cycle)
    check_certificate(k, t, cycle.normalized, pi, cycle.symbols)


def test_certificate_rejects_tampering():
    k = 7
    cycle = min_normalized_cycle(DeBruijnGraph(k))
    mu, pi, symbols = cycle.normalized, cycle.potentials, cycle.symbols
    assert mu == Fraction(13, 5)
    # every vertex but the source 0 has a tight incoming edge, so raising
    # its potential breaks that edge
    bumped = pi.copy()
    bumped[37] += 1
    with pytest.raises(VerificationError, match="negative reduced weight"):
        check_certificate(k, 2, mu, bumped, symbols)
    # 12/5 keeps every edge's reduced weight >= 0 with the same potentials
    # (all rise by 1), so only the witness's weight can expose it
    with pytest.raises(VerificationError, match="per edge"):
        check_certificate(k, 2, Fraction(12, 5), pi, symbols)
    with pytest.raises(VerificationError, match="negative reduced weight"):
        check_certificate(k, 2, mu + Fraction(1, 100), pi, symbols)
    # twice around the same cycle: right weight per edge, but not simple
    with pytest.raises(VerificationError, match="not distinct"):
        check_certificate(k, 2, mu, pi, symbols + symbols)
    with pytest.raises(VerificationError):
        check_certificate(k, 2, mu, pi[:-1], symbols)
    with pytest.raises(VerificationError):
        check_certificate(k, 2, mu, pi, symbols[:-1] + (2,))


def test_potential_headroom_guard():
    # 2 * 23 * (2^23)^2 >= 2^50: refused before any array is built
    with pytest.raises(BudgetError, match="headroom"):
        min_normalized_cycle(DeBruijnGraph(23), max_vertices=1 << 23)


def test_zk_values():
    assert zk(1) == (Fraction(0), 1)
    assert zk(2) == (Fraction(1, 2), 2)
    assert zk(4) == (Fraction(4, 3), 3)
    assert zk(5) == (Fraction(7, 4), 4)


def test_zk_matches_loop_reference():
    for k in range(1, 2001):
        assert tuple(zk(k)) == zk_loop_reference(k), k


def test_zk_matches_explicit_cycle():
    # the formula value must equal the measured weight of the run cycle
    for k in range(1, 9):
        value, t = zk(k)
        word = "0" * t + "1" * t
        assert Fraction(cycle_word_weight(word, k), 2 * t) == value
        # and the run cycle must be simple: distinct windows
        tiled = word * (k // len(word) + 2)
        windows = {tiled[i:i + k] for i in range(2 * t)}
        assert len(windows) == 2 * t


def test_dk_values():
    # the overhead constant d_k = k / (k - a_k) of the bipartite bound
    for k, expected in [(1, 1), (2, Fraction(4, 3)), (5, Fraction(20, 13))]:
        assert k / (k - ak(k)) == expected


def test_analytic_invariants():
    for k in range(1, 11):
        a = ak(k)
        z = zk(k).value
        assert a <= Fraction(k, 2)
        # sqrt(2k(k-1)) - k <= a_k, exactly: 2k(k-1) <= (a_k + k)^2
        assert 2 * k * (k - 1) <= (a + k) ** 2
        # z_k <= sqrt(2(k+1)k + 1) - k - 1, exactly
        assert (z + k + 1) ** 2 <= 2 * (k + 1) * k + 1
        if k <= 5:
            assert a == z


def test_budget_error():
    with pytest.raises(BudgetError):
        min_normalized_cycle(DeBruijnGraph(20))
    with pytest.raises(BudgetError):
        ak(16)


def test_large_k_encodes_without_materializing():
    # building the graph is O(1), and the search refuses it before
    # allocating a vertex; past 4,300 digits t^k could not even be printed,
    # so the refusal names the power instead of computing it
    for k in (24, 20000, 10 ** 9):
        tracemalloc.start()
        try:
            g = DeBruijnGraph(k)
            with pytest.raises(BudgetError, match=rf"needs 2\^{k} vertices"):
                min_normalized_cycle(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (g.k, g.alphabet) == (k, 2) and peak < 1 << 16
