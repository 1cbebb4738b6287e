"""Tests for bad-pair accounting and exact w_k(s)."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from helpers import (canonical_window_reference, edge_word_weight,
                     truncated_weight_tables_reference, wk_brute_reference,
                     wk_walk_all_starts)
from hypothesis import given, settings
from hypothesis import strategies as st

from radiuskit import binseq, debruijn
from radiuskit.binseq import (CyclicBitString, characteristic,
                              construct_low_bad, count_bad_pairs, wk_brute,
                              wk_exact, wk_walk)
from radiuskit.errors import (BudgetError, InputError, InvalidParameterError,
                              UnsupportedLengthError, VerificationError)


def naive_pair_count(symbols, k, mode):
    """Literal oracle: scan every index pair and apply the definition."""
    s = len(symbols)
    bad = good = 0
    for i in range(s):
        for j in range(i + 1, s):
            d = j - i if mode == "linear" else min(j - i, s - (j - i))
            if d <= k:
                if symbols[i] == symbols[j]:
                    bad += 1
                else:
                    good += 1
    return bad, good


def bits(text, mode="cyclic"):
    return CyclicBitString(tuple(map(int, text)), mode=mode)


def test_count_examples():
    assert count_bad_pairs(bits("0101"), 1).bad_count == 0
    report = count_bad_pairs(bits("0011"), 2)
    assert (report.bad_count, report.good_count) == (2, 4)
    assert count_bad_pairs(bits("00000"), 2).bad_count == 10


def test_pair_offsets_match_definition():
    """Every s <= 29 and k <= 31 in both modes, on a random string and on
    the constant one, whose pairs are all bad: each within-distance pair
    is counted exactly once."""
    rng = random.Random(7)
    for mode in ("cyclic", "linear"):
        for s in range(2, 30):
            for k in range(1, 32):
                for symbols in (tuple(rng.randint(0, 1) for _ in range(s)),
                                (0,) * s):
                    seq = CyclicBitString(symbols, mode=mode)
                    report = count_bad_pairs(seq, k)
                    assert (report.bad_count, report.good_count) == \
                        naive_pair_count(symbols, k, mode), (s, k, mode)


def test_count_against_naive_oracle():
    rng = random.Random(7)
    for _ in range(300):
        s = rng.randint(2, 20)
        k = rng.randint(1, 8)
        mode = rng.choice(["cyclic", "linear"])
        symbols = tuple(rng.randint(0, 1) for _ in range(s))
        seq = CyclicBitString(symbols, mode=mode)
        report = count_bad_pairs(seq, k)
        assert (report.bad_count, report.good_count) == \
            naive_pair_count(symbols, k, mode)


def test_cyclic_totals():
    rng = random.Random(11)
    for _ in range(100):
        k = rng.randint(1, 4)
        s = rng.randint(2 * k + 1, 30)
        t = rng.choice([2, 3])
        symbols = tuple(rng.randrange(t) for _ in range(s))
        report = count_bad_pairs(CyclicBitString(symbols, alphabet=t), k)
        assert report.bad_count + report.good_count == k * s
        assert report.bad_count >= 0


def test_walk_weight_correspondence():
    """Bad pairs equal the closed walk's weight when s > 2k."""
    rng = random.Random(13)
    for _ in range(200):
        k = rng.randint(1, 5)
        s = rng.randint(2 * k + 1, 24)
        word = "".join(rng.choice("01") for _ in range(s))
        doubled = word + word
        walk_weight = sum(edge_word_weight(doubled[i:i + k + 1])
                          for i in range(s))
        assert walk_weight == count_bad_pairs(bits(word), k).bad_count


def test_wk_examples():
    assert wk_exact(1, 7) == 1
    assert wk_exact(2, 4) == 2
    assert wk_exact(2, 5) == 4
    for s in (2, 4, 6, 10):
        assert wk_exact(1, s) == 0
    for s in (3, 5, 9):
        assert wk_exact(1, s) == 1


def test_wk_methods_agree():
    for k in (1, 2, 3):
        for s in range(k + 1, 13):
            assert wk_brute(k, s) == wk_walk(k, s)
    # t-ary agreement on a small grid
    for s in range(3, 9):
        assert wk_brute(2, s, alphabet=3) == wk_walk(2, s, alphabet=3)


def test_wk_brute_matches_reference():
    """One string per rotation-and-relabelling class gives the same minimum
    as enumerating every string."""
    cases = [(k, s, 2) for s in range(2, 21) for k in range(1, 12)]
    cases += [(k, s, t) for t, max_s in ((3, 10), (4, 7), (5, 6), (6, 5),
                                         (7, 5), (8, 5), (9, 4))
              for s in range(2, max_s + 1) for k in range(1, 8)]
    cases += [(k, 1, t) for t in (2, 3) for k in (1, 2)]
    for k, s, t in cases:
        assert wk_brute(k, s, alphabet=t) == wk_brute_reference(k, s, t), \
            (k, s, t)


def test_wk_brute_pinned_values():
    assert wk_brute(4, 24) == 32
    assert wk_brute(8, 20) == 64
    assert wk_brute(4, 26) == 36  # the 2^26 cap
    with pytest.raises(BudgetError, match="cap"):
        wk_brute(3, 27)


def test_wk_brute_uint64_codes():
    """t = 5, s = 11 packs 33 bits, the one case under the cap past uint32;
    the walk DP checks it, since the oracle would visit 5^11 strings."""
    for k in (1, 2, 3):
        assert wk_brute(k, 11, 5) == wk_walk(k, 11, 5), k


def test_wk_brute_binary_headroom():
    """Codes hold s symbols of b bits in at most 64 bits."""
    with pytest.raises(BudgetError, match="uint64"):
        binseq._wk_brute_fields(2, 65, 2)
    with pytest.raises(BudgetError, match="uint64"):
        binseq._wk_brute_fields(2, 22, 5)  # 66 bits


def test_wk_brute_set_covers_every_string():
    """Every cyclic string of length s has a rotation and a relabelling in
    {0^s} plus the codes t^(s-2) to 2*t^(s-2) - 1."""
    for t in (2, 3):
        for s in range(2, 10):
            low = t ** (s - 2)
            strings = np.array(list(itertools.product(range(t), repeat=s)))
            covered = np.zeros(len(strings), dtype=bool)
            for perm in itertools.permutations(range(t)):
                relabelled = np.array(perm)[strings]
                for i in range(s):
                    codes = sum(relabelled[:, (i + j) % s] * t ** (s - 1 - j)
                                for j in range(s))
                    covered |= (codes == 0) | ((low <= codes) &
                                               (codes < 2 * low))
            assert covered.all(), (s, t)


def test_wk_brute_peak_memory():
    """The binary kernel reuses 2^16-entry buffers: under 4 MB at s = 24,
    where 2^20-code uint64 chunks with int64 temporaries took about 49 MB."""
    tracemalloc.start()
    try:
        wk_brute(4, 24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5).flatmap(lambda t: st.tuples(
    st.lists(st.integers(0, t - 1), min_size=2, max_size=20),
    st.permutations(range(t)), st.just(t))),
    st.integers(0, 19), st.integers(1, 10))
def test_count_bad_pairs_rotation_relabelling_invariant(case, shift, k):
    symbols, perm, t = case
    shift %= len(symbols)
    moved = [perm[x] for x in symbols[shift:] + symbols[:shift]]
    before = count_bad_pairs(CyclicBitString(symbols, alphabet=t), k)
    after = count_bad_pairs(CyclicBitString(moved, alphabet=t), k)
    assert after.bad_count == before.bad_count
    assert after.good_count == before.good_count


def walk_oracle_cases():
    """(k, s, t) over the truncated range k+1 <= s <= 2k and both parities
    of s past it: s up to 3k+3 for binary k <= 6, up to 2k+2 elsewhere, so
    the all-starts oracle stays under half a second."""
    grid = [(2, k) for k in range(1, 9)] + [(3, k) for k in range(1, 5)]
    grid += [(t, k) for t in (4, 5) for k in range(1, 4)]
    return [(k, s, t) for t, k in grid for s in
            range(k + 1, 3 * k + 4 if t == 2 and k <= 6 else 2 * k + 3)]


def test_wk_walk_matches_all_starts():
    for k, s, t in walk_oracle_cases():
        assert wk_walk(k, s, alphabet=t) == wk_walk_all_starts(k, s, t), \
            (k, s, t)


def test_truncated_weight_tables_match_reference():
    for t, max_k in ((2, 10), (3, 6), (4, 5), (5, 4)):
        for k in range(1, max_k + 1):
            for s in range(k + 1, 3 * k + 4):
                assert np.array_equal(
                    binseq._truncated_weight_tables(k, s, t),
                    truncated_weight_tables_reference(k, s, t)), (k, s, t)


def least_renamed_rotations(strings, t):
    """Each row's least rotation-and-renaming, as a base-t code.

    A rotation is renamed in order of first appearance: a symbol's new
    name is the number of symbols that first appear before it.
    """
    n, s = strings.shape
    powers = t ** np.arange(s - 1, -1, -1)
    best = np.full(n, t ** s)
    for i in range(s):
        rotated = np.roll(strings, -i, axis=1)
        hit = rotated[:, None, :] == np.arange(t)[:, None]
        first = np.where(hit.any(axis=2), hit.argmax(axis=2), s)
        names = (first[:, None, :] < first[:, :, None]).sum(axis=2)
        renamed = np.take_along_axis(names, rotated, axis=1)
        np.minimum(best, renamed @ powers, out=best)
    return best


def test_wk_walk_start_set_covers_every_string():
    """Every cyclic string's least rotation-and-renaming begins with a
    k-window in `_walk_starts`."""
    for t, max_k in ((2, 6), (3, 4)):
        for s in range(2, 10):
            strings = np.array(list(itertools.product(range(t), repeat=s)))
            least = least_renamed_rotations(strings, t)
            for k in range(1, min(max_k, s - 1) + 1):
                starts = binseq._walk_starts(k, t)
                assert np.isin(least // t ** (s - k), starts).all(), (k, s, t)


def test_walk_starts_match_renamed_suffixes():
    """The start set against renaming each suffix w[j:] directly, and
    never more starts than `_walk_work` charges, within the vertex budget."""
    for t, max_k in ((2, 12), (3, 8), (4, 6), (5, 5)):
        for k in range(1, max_k + 1):
            expected = [w for w in range(t ** k)
                        if canonical_window_reference(w, k, t) == w
                        and all(canonical_window_reference(
                            w % t ** (k - j), k - j, t) >= w // t ** j
                            for j in range(1, k))]
            assert binseq._walk_starts(k, t).tolist() == expected, (k, t)
    assert [len(binseq._walk_starts(k, 2)) for k in (6, 8, 10, 12)] == [
        13, 38, 117, 380]
    for t in range(2, debruijn.DEFAULT_MAX_VERTICES + 1):
        for k in range(1, 15):
            if t ** k > debruijn.DEFAULT_MAX_VERTICES:
                break
            charged = t ** (k - 2) + 1 if k >= 2 else 1
            assert len(binseq._walk_starts(k, t)) <= charged, (k, t)


def test_wk_walk_matches_brute_at_large_k():
    """Binary k = 9-12, where the starts fill several blocks."""
    for k in range(9, 13):
        for s in range(k + 1, 19):
            assert wk_walk(k, s) == wk_brute(k, s), (k, s)


def test_wk_walk_pinned_values():
    """The walk-dp benchmark's golden values at its largest sizes."""
    assert wk_walk(9, 52) == 180
    assert wk_walk(10, 20) == 90
    assert wk_walk(10, 30) == 116


def test_wk_walk_work_budget():
    assert binseq._walk_work(10, 30, 2) < 1 << 23  # the benchmark's largest
    assert binseq._walk_work(2, 10 ** 5, 2) > binseq.WALK_LIMIT
    with pytest.raises(BudgetError, match="cap"):
        wk_walk(2, 10 ** 5)
    with pytest.raises(BudgetError, match="cap"):
        wk_walk(14, 20)
    # auto falls back to enumeration when the walk is over its cap
    assert wk_exact(14, 20) == wk_brute(14, 20)


@pytest.mark.parametrize("call", [
    lambda: wk_brute(2, 4 * 10 ** 9),
    lambda: wk_walk(20000, 20001),
    lambda: wk_exact(20000, 20001),
    lambda: wk_exact(2, 4 * 10 ** 9),
    lambda: construct_low_bad(20000, 50),
    lambda: construct_low_bad(2, binseq.LOWBAD_LIMIT + 1)])
def test_budgets_refuse_before_building(call):
    """Each budget check compares the exponent, not the power t^e, and the
    low-bad length before any string: a refusal costs no memory."""
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_wk_walk_rejects_odd_total(monkeypatch):
    true_tables = binseq._truncated_weight_tables
    monkeypatch.setattr(binseq, "_truncated_weight_tables",
                        lambda k, s, t: true_tables(k, s, t) + 1)
    with pytest.raises(VerificationError, match="odd"):
        wk_walk(2, 5)


def test_wk_domain_errors():
    with pytest.raises(InvalidParameterError):
        wk_walk(3, 3)  # s < k+1
    with pytest.raises(InvalidParameterError):
        wk_exact(0, 5)
    for alphabet in (1, 0, -2):
        for method in (wk_brute, wk_walk, wk_exact):
            with pytest.raises(InvalidParameterError, match=">= 2"):
                method(2, 5, alphabet)


def test_wk_tary_nonnegative_totals():
    rng = random.Random(17)
    for _ in range(50):
        k = rng.randint(1, 3)
        s = rng.randint(2 * k + 1, 10)
        t = rng.randint(3, 4)
        value = wk_exact(k, s, alphabet=t)
        assert 0 <= value <= k * s


def test_construct_low_bad():
    seq, bad = construct_low_bad(2, 8)
    assert str(seq) == "00110011" and bad == 4
    seq, bad = construct_low_bad(2, 9)
    assert bad <= 16
    assert count_bad_pairs(seq, 2).bad_count == bad
    seq, bad = construct_low_bad(1, 6)
    assert str(seq) == "010101" and bad == 0
    with pytest.raises(UnsupportedLengthError):
        construct_low_bad(2, 3)


def test_construct_low_bad_checks_length_before_the_dp(monkeypatch):
    def no_dp(g):
        raise AssertionError("the a_k DP ran before the length check")

    monkeypatch.setattr(debruijn, "min_normalized_cycle", no_dp)
    for s in (0, -3):
        with pytest.raises(InvalidParameterError,
                           match=f"length must be >= 1, got {s}"):
            construct_low_bad(2, s)


def test_construct_low_bad_bound_and_divisible():
    for k in (1, 2, 3, 4):
        a = debruijn.ak(k)
        cycle = debruijn.min_normalized_cycle(debruijn.DeBruijnGraph(k))
        for s in range(cycle.length, 41):
            seq, bad = construct_low_bad(k, s)
            assert count_bad_pairs(seq, k).bad_count == bad
            assert bad < a * s + k * (2 ** k + k)
            if s % cycle.length == 0 and s > 2 * k:
                assert bad == a * s


def test_string_rendering_is_the_ak_rule():
    # one rule for every alphabet, the one `ak --alphabet t` prints cycles
    # with: a digit or letter per symbol up to 36 symbols, commas beyond
    assert str(CyclicBitString((10, 3, 0, 11), alphabet=12)) == "a30b"
    assert str(CyclicBitString((10, 3, 0), alphabet=40)) == "10,3,0"
    assert str(CyclicBitString((1, 0, 0), alphabet=2)) == "100"
    for symbols, t in (((10, 3, 0, 11), 12), ((35, 0), 36), ((36, 1), 37)):
        assert (str(CyclicBitString(symbols, alphabet=t))
                == debruijn._render_symbols(symbols, t))
    cycle = debruijn.min_normalized_cycle(debruijn.DeBruijnGraph(2, 12))
    assert str(CyclicBitString(cycle.symbols, alphabet=12)) == cycle.word


def test_characteristic():
    seq = characteristic(["x1", "y1", "x2"], {"x1": 0, "x2": 0, "y1": 1})
    assert str(seq) == "010"
    assert str(characteristic([], {})) == ""
    assert str(characteristic(["y1", "y2"], {"y1": 1, "y2": 1})) == "11"
    with pytest.raises(InputError):
        characteristic(["x1", "z"], {"x1": 0})


def test_bitstring_validation():
    with pytest.raises(InvalidParameterError):
        CyclicBitString((0, 2), alphabet=2)
    with pytest.raises(InvalidParameterError):
        CyclicBitString((0, 1), mode="weird")


def test_sandwich_property():
    """a_k * s <= w_k(s) < a_k * s + k(2^k + k), valid for s > 2k."""
    for k in (1, 2, 3):
        a = debruijn.ak(k)
        for s in range(2 * k + 1, 20):
            w = wk_exact(k, s)
            assert a * s <= w < a * s + k * (2 ** k + k)
