"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here; nothing is calibrated
elsewhere.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from helpers import (edge_word_weight, loss_count_reference, random_graph,
                     random_valid_cover)

from radiuskit import binseq, debruijn
from radiuskit.exact import exact_ck, exact_fk, exact_maxcut
from radiuskit.graphs import (circulant, complete, complete_bipartite, cycle,
                              path)
from radiuskit.hardness import (cover1_witness_to_coverk,
                                hampath_witness_to_sequence,
                                reduce_cover1_to_coverk,
                                reduce_hampath_to_radius)
from radiuskit.radius import (bounds, construct_bipartite,
                              cover_strategy_bipartite, euler_radius1,
                              verify_cover, verify_radius)

_AK_CACHE = {}


def ak(k):
    if k not in _AK_CACHE:
        _AK_CACHE[k] = debruijn.ak(k)
    return _AK_CACHE[k]


@contextmanager
def criterion(num, description, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num:2d} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, \
        f"criterion {num} took {elapsed:.1f}s, limit {limit_seconds}s"
    print(f"criterion {num:2d} PASS ({elapsed:.2f}s): {description}")


def test_criterion_1_table2_regression():
    expected = {1: Fraction(0), 2: Fraction(1, 2), 3: Fraction(1),
                4: Fraction(4, 3), 5: Fraction(7, 4)}
    with criterion(1, "small-k constants with re-verified witnesses", 1.0):
        for k, value in expected.items():
            cycle_ = debruijn.min_normalized_cycle(debruijn.DeBruijnGraph(k))
            assert cycle_.normalized == value
            # independent re-verification of the witness weight
            word = cycle_.word
            tiled = word * ((k + 1) // len(word) + 2)
            weight = sum(edge_word_weight(tiled[i:i + k + 1])
                         for i in range(cycle_.length))
            assert weight == cycle_.total_weight
            assert Fraction(weight, cycle_.length) == value
            assert len(set(cycle_.windows())) == cycle_.length


def test_criterion_2_conjecture_sweep():
    with criterion(2, "bounds sandwich and gap for k = 1..12", 60.0):
        for k in range(1, 13):
            a = ak(k)
            z = debruijn.zk(k).value
            lower = math.sqrt(2 * k * (k - 1)) - k
            # exact forms of the analytic sandwich
            assert 2 * k * (k - 1) <= (a + k) ** 2
            assert a <= z
            if k >= 4:
                assert float(z) - lower < 0.5 + 1e-9
            status = "=" if a == z else "!="
            print(f"  k={k}: a_k {status} z_k ({a} vs {z})")
            if k <= 5:
                assert a == z


def test_criterion_3_oracle_equivalence():
    with criterion(3, "brute force equals walk DP, k <= 4, s <= 16", 30.0):
        for k in range(1, 5):
            for s in range(k + 1, 17):
                brute = binseq.wk_brute(k, s)
                walk = binseq.wk_walk(k, s)
                assert brute == walk, (k, s, brute, walk)


def test_criterion_4_sandwich_and_divisible():
    # The pair-count lower bound a_k*s <= w_k(s) presumes s > 2k (below
    # that, pairs within distance on both arcs collapse and e.g.
    # w_4(6) = 6 < 8 = a_4*6), so the sweep starts at s = 2k+1.
    with criterion(4, "w_k(s) sandwich for k <= 4, 2k < s <= 40", 60.0):
        for k in range(1, 5):
            a = ak(k)
            opt = debruijn.min_normalized_cycle(debruijn.DeBruijnGraph(k))
            for s in range(2 * k + 1, 41):
                w = binseq.wk_exact(k, s)
                assert a * s <= w, (k, s)
                assert w < a * s + k * (2 ** k + k), (k, s)
                if s % opt.length == 0:
                    seq, bad = binseq.construct_low_bad(k, s)
                    assert bad == a * s, (k, s, bad)
                    assert binseq.count_bad_pairs(seq, k).bad_count == bad


def test_criterion_5_maxcut_identity():
    with criterion(5, "circulant max cut identity, n <= 18, k <= 4", 60.0):
        lengths = {k: debruijn.min_normalized_cycle(
            debruijn.DeBruijnGraph(k)).length for k in range(1, 5)}
        for n in range(5, 19):
            for k in range(1, 5):
                if 2 * k >= n:
                    continue
                mc = exact_maxcut(circulant(n, k))
                w = binseq.wk_exact(k, n)
                assert mc == k * n - w, (n, k, mc, w)
                if n % lengths[k] == 0:
                    assert Fraction(mc, n) == k - ak(k), (n, k)
        assert exact_maxcut(circulant(5, 2)) == 6
        assert exact_maxcut(circulant(6, 1)) == 6


def test_criterion_6_exact_ground_truths():
    with criterion(6, "tiny-instance exact optima and soundness", 30.0):
        k3, k4 = complete(3), complete(4)
        f1 = exact_fk(k3, 1)
        assert f1.optimum == 4 and verify_radius(f1.witness, 1).valid
        f2 = exact_fk(k4, 2)
        assert f2.optimum == 5 and verify_radius(f2.witness, 2).valid
        c1 = exact_ck(k3, 1)
        assert c1.optimum == 4 and verify_cover(c1.witness).valid
        c2 = exact_ck(k4, 2)
        assert c2.optimum == 5 and verify_cover(c2.witness).valid
        for g, k, linear in [(k3, 1, f1.optimum), (k4, 2, f2.optimum)]:
            cyc = exact_fk(g, k, mode="cyclic").optimum
            assert linear - k <= cyc <= linear
        for g, k, fk_opt, ck_opt in [(k3, 1, 4, 4), (k4, 2, 5, 5)]:
            report = bounds(g, k)
            for value in (report.edge_bound, report.bipartite_bound, report.degree_bound,
                          report.fk_lower):
                if value is not None:
                    assert fk_opt >= value
                    assert ck_opt >= value


def test_criterion_7_reduction_round_trips():
    with criterion(7, "reduction witnesses at exact lengths", 30.0):
        k33 = complete_bipartite(3, 3)
        ham = ["x1", "y1", "x2", "y2", "x3", "y3"]
        for k, expected in [(2, 13), (3, 19)]:
            inst = reduce_hampath_to_radius(k33, k)
            assert inst.threshold == k * 6 + 1 == expected
            seq = hampath_witness_to_sequence(inst, ham)
            assert len(seq) == expected
            assert verify_radius(seq, k).valid
        cases = [(path(3), [("v1", "v2"), ("v2", "v3")], 15),
                 (complete(3), [("v1", "v2"), ("v2", "v3"), ("v1", "v3")], 26)]
        for h, one_cover, expected in cases:
            inst = reduce_cover1_to_coverk(h, 2)
            m = h.num_edges
            assert inst.target.num_edges == m * (
                math.comb(2, 2) + inst.fan_size * 2)
            cov = cover1_witness_to_coverk(inst, one_cover)
            assert len(cov) == expected == inst.target_length
            assert verify_cover(cov).valid
            assert loss_count_reference(cov) == inst.witness_losses == \
                math.comb(2, 2) * (m - 1)


def test_criterion_8_loss_identity_randomized():
    with criterion(8, "loss identity on 500 random valid covers", 60.0):
        rng = random.Random(2024)
        done = 0
        while done < 500:
            n = rng.randint(4, 10)
            k = rng.randint(1, 3)
            if n <= k + 1:
                continue
            g = random_graph(rng, n)
            if g is None:
                continue
            cov = random_valid_cover(g, k, rng)
            assert verify_cover(cov).valid
            s = len(cov)
            assert g.num_edges + loss_count_reference(cov) == \
                k * (s - 1) + math.comb(k + 1, 2), (n, k, s)
            done += 1


def test_criterion_9_bipartite_constructions():
    with criterion(9, "bipartite construction validity and ratio", 60.0):
        for m, n, k in [(8, 8, 2), (12, 10, 2), (10, 10, 3)]:
            result = construct_bipartite(m, n, k)
            assert verify_radius(result.sequence, k).valid
            print(f"  ({m},{n},{k}): length {result.length}, "
                  f"bound {float(result.lower_bound):.2f}, "
                  f"ratio {result.ratio:.3f}")
            assert result.ratio <= 2.5, (m, n, k, result.ratio)
        for m, n, k in [(4, 5, 2), (5, 7, 3)]:
            cov = cover_strategy_bipartite(m, n, k)
            check = verify_cover(cov)
            assert check.valid
            assert check.reads <= m * n / k + 2 * (m + n) + k


def test_criterion_10_euler():
    with criterion(10, "Euler-circuit 1-radius lengths", 5.0):
        for g in [complete(4), complete_bipartite(3, 3), cycle(4), cycle(5)]:
            n_odd = sum(1 for v in g.vertices if g.degree(v) % 2 == 1)
            seq = euler_radius1(g)
            assert verify_radius(seq, 1).valid
            if n_odd > 0:
                assert len(seq) == g.num_edges + n_odd // 2
            else:
                assert len(seq) == g.num_edges + 1
        assert len(euler_radius1(complete(4))) == bounds(complete(4), 1).degree_bound
