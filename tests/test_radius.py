"""Tests for verifiers, bounds, and the constructive sequence builders."""

import dataclasses
import hashlib
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from helpers import (check_cover_structure, construct_bipartite_reference,
                     cover_strategy_reference)
from hypothesis import given, settings
from hypothesis import strategies as st

from radiuskit import debruijn, radius
from radiuskit.binseq import CyclicBitString, count_bad_pairs
from radiuskit.errors import (BudgetError, InputError, InvalidParameterError,
                              StructureError)
from radiuskit.exact import exact_fk, exact_maxcut
from radiuskit.graphs import (Graph, circulant, complete, complete_bipartite,
                              cycle, path)
from radiuskit.radius import (CoverSequence, VertexSequence, bounds,
                              construct_bipartite, cover_strategy_bipartite,
                              euler_radius1, linearize_cyclic,
                              maxcut_circulant, parse_cover_sequence,
                              parse_vertex_sequence,
                              serialize_cover_sequence, verify_cover,
                              verify_radius)


def test_verify_radius_examples():
    k4 = complete(4)
    assert verify_radius(VertexSequence(k4, "v1 v2 v3 v4 v1".split()), 2).valid
    k3 = complete(3)
    check = verify_radius(VertexSequence(k3, ("v1", "v2", "v3")), 1)
    assert not check.valid and check.uncovered == (("v1", "v3"),)
    cyc = VertexSequence(k3, ("v1", "v2", "v3"), mode="cyclic")
    assert verify_radius(cyc, 1).valid


def _uncovered_oracle(graph, together):
    """Sorted edges whose endpoints no pair of `together` holds."""
    return tuple(sorted(tuple(sorted(e)) for e in graph.edge_set()
                        if not any(e <= frozenset(p) for p in together)))


def _radius_oracle(seq, k):
    s = len(seq.items)
    pairs = []
    for i, j in itertools.combinations(range(s), 2):
        gap = j - i if seq.mode == "linear" else min(j - i, s - (j - i))
        if gap <= k:
            pairs.append((seq.items[i], seq.items[j]))
    return _uncovered_oracle(seq.graph, pairs)


def test_verify_radius_matches_pair_oracle():
    g = circulant(9, 2)
    seq = VertexSequence(g, "3 0 5 0 8 2 7 1".split())
    check = verify_radius(seq, 2)
    assert not check.valid and len(check.uncovered) >= 5
    assert check.uncovered == _radius_oracle(seq, 2)
    rng = random.Random(11)
    pool = [complete(5), cycle(7), path(4), complete_bipartite(3, 4), g,
            Graph(("a", "b", "c"), [("a", "b")])]
    for _ in range(150):
        graph = rng.choice(pool)
        items = rng.choices(graph.vertices, k=rng.randrange(12))
        seq = VertexSequence(graph, items, mode=rng.choice(("linear", "cyclic")))
        k = rng.randrange(1, 6)
        oracle = _radius_oracle(seq, k)
        assert verify_radius(seq, k) == (not oracle, oracle)


@pytest.mark.parametrize("block", [1, 3, 7])
def test_uncovered_edges_in_blocks(monkeypatch, block):
    # every graph here fits one block of the real size
    monkeypatch.setattr(radius, "_EDGE_BLOCK", block)
    rng = random.Random(block)
    for graph in (complete(6), circulant(9, 2), complete_bipartite(3, 4)):
        for _ in range(20):
            items = rng.choices(graph.vertices, k=rng.randrange(12))
            seq = VertexSequence(graph, items,
                                 mode=rng.choice(("linear", "cyclic")))
            k = rng.randrange(1, 4)
            oracle = _radius_oracle(seq, k)
            assert verify_radius(seq, k) == (not oracle, oracle)
    g = complete(7)
    sets = ({"v1", "v2", "v3"}, {"v2", "v3", "v4"}, {"v3", "v4", "v7"})
    assert verify_cover(CoverSequence(g, 2, sets)).uncovered == (
        _uncovered_oracle(g, sets))


@pytest.mark.parametrize("k", [4, 8])
@pytest.mark.parametrize("mode", ["linear", "cyclic"])
def test_verify_radius_keeps_one_code_array(mode, k):
    # the k * s covered codes, the s vertex indices and a temporary or two:
    # no per-distance copies
    s = 200_000
    seq = VertexSequence(Graph(("a", "b"), [("a", "b")]), ("a", "b") * (s // 2),
                         mode=mode)
    tracemalloc.start()
    try:
        assert verify_radius(seq, k).valid
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (k + 4) * s * 8


@st.composite
def radius_cases(draw):
    """A graph on 2..7 vertices, a sequence over it (often no longer than
    k, sometimes empty), a mode and k."""
    n = draw(st.integers(2, 7))
    labels = [f"v{i}" for i in range(n)]
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    items = draw(st.lists(st.sampled_from(labels), max_size=12))
    mode = draw(st.sampled_from(("linear", "cyclic")))
    return VertexSequence(Graph(labels, edges), items, mode), \
        draw(st.integers(1, 8))


@settings(max_examples=300, deadline=None)
@given(radius_cases())
def test_verify_radius_property(case):
    seq, k = case
    oracle = _radius_oracle(seq, k)
    assert verify_radius(seq, k) == (not oracle, oracle)


def test_verify_radius_unknown_vertex():
    with pytest.raises(InputError):
        VertexSequence(complete(3), ("v1", "zz"))


def _structure_fault(check, cov):
    """(message, index) of the StructureError check(cov) raises, or None."""
    try:
        check(cov)
    except StructureError as exc:
        return str(exc), exc.index
    return None


def _random_cover_rows(rng, vertices, k):
    """A list of label rows, mostly one swap apart, with the faults a cover
    can have: wrong sizes, a row equal to its predecessor, a double swap
    and a label repeated inside a row; 0, 1 or up to 11 rows."""
    current = rng.sample(vertices, k + 1)
    rows = []
    for _ in range(rng.choice([0, 1, rng.randrange(2, 12)])):
        outside = [v for v in vertices if v not in current]
        fault = rng.choice(["swap"] * 6 + ["same", "double"] * 2
                           + ["size", "label"])
        if fault == "swap":
            current = rng.sample(current, k) + rng.sample(outside, 1)
        elif fault == "double" and len(outside) >= 2:
            current = rng.sample(current, k - 1) + rng.sample(outside, 2)
        elif fault == "size":
            rows.append(rng.sample(vertices, rng.randrange(len(vertices))))
            continue
        elif fault == "label":  # collapses to a set of one member fewer
            rows.append(current[1:] + current[-1:])
            continue
        rows.append(list(current))
    return rows


def test_verify_cover_structure_matches_label_reference():
    # the index-matrix check against the label-set loops it replaced
    rng = random.Random(25)
    faults = set()
    for _ in range(3000):
        k = rng.randint(1, 4)
        g = complete(rng.randint(k + 2, 9))
        cov = CoverSequence(g, k, _random_cover_rows(rng, list(g.vertices),
                                                     k))
        expected = _structure_fault(check_cover_structure, cov)
        assert _structure_fault(verify_cover, cov) == expected, cov.sets
        faults.add(expected and expected[0].split()[2])
    assert faults == {None, "has", "differs"}


def test_verify_cover_examples():
    k3 = complete(3)
    check = verify_cover(CoverSequence(
        k3, 1, ({"v1", "v2"}, {"v2", "v3"}, {"v1", "v3"})))
    assert check.valid and check.reads == 4
    check = verify_cover(CoverSequence(k3, 1, ({"v1", "v2"}, {"v1", "v3"})))
    assert not check.valid and check.uncovered == (("v2", "v3"),)
    with pytest.raises(StructureError) as err:
        verify_cover(CoverSequence(
            complete(4), 1, ({"v1", "v2"}, {"v3", "v4"})))
    assert err.value.index == 2
    with pytest.raises(StructureError) as err:
        verify_cover(CoverSequence(complete(4), 2, ({"v1", "v2"},)))
    assert err.value.index == 1
    # no set, no reads
    check = verify_cover(CoverSequence(k3, 1, ()))
    assert not check.valid and check.reads == 0
    assert check.uncovered == (("v1", "v2"), ("v1", "v3"), ("v2", "v3"))
    # a cover needs k >= 1, as every command's --k does
    for k in (0, -1):
        with pytest.raises(InvalidParameterError, match=f"got {k}"):
            CoverSequence(k3, k, ({"v1"},))


def test_verify_cover_matches_pair_oracle():
    g = complete(7)
    cov = CoverSequence(g, 2, ({"v1", "v2", "v3"}, {"v2", "v3", "v4"},
                               {"v3", "v4", "v7"}, {"v4", "v7", "v6"}))
    check = verify_cover(cov)
    assert not check.valid and len(check.uncovered) == 21 - 9
    assert check.uncovered == _uncovered_oracle(g, cov.sets)
    assert check.reads == 6
    g = circulant(10, 3)
    sets = [{"0", "1", "2", "3"}]
    for new, old in [("4", "0"), ("5", "1"), ("9", "2"), ("8", "3")]:
        sets.append(sets[-1] - {old} | {new})
    check = verify_cover(CoverSequence(g, 3, sets))
    assert check.uncovered == _uncovered_oracle(g, sets)
    assert len(check.uncovered) >= 5


def test_bounds_examples():
    report = bounds(complete_bipartite(3, 3), 2)
    assert report.edge_bound == 6 and report.bipartite_bound == 6 and report.degree_bound == 6
    assert report.fk_lower == 6
    report = bounds(complete(4), 1)
    assert report.edge_bound == 7 and report.bipartite_bound is None and report.degree_bound == 8
    assert report.fk_lower == 8
    report = bounds(complete(4), 2)
    assert report.edge_bound == Fraction(9, 2) and report.fk_lower == 5
    assert bounds(complete_bipartite(3, 3), 2).bipartite
    assert not report.bipartite and not bounds(cycle(5), 1).bipartite
    edgeless = bounds(Graph(("a", "b", "c"), []), 1)
    assert edgeless.bipartite and edgeless.bipartite_bound is None
    # bipartite is read by the CLI, not part of the bounds' value
    assert report == dataclasses.replace(report, bipartite=True)


def test_bounds_edge_bound_applicability():
    # K_3 with k=2 has exactly k+1 non-isolated vertices: edge_bound is omitted
    report = bounds(complete(3), 2)
    assert report.edge_bound is None
    assert report.fk_lower >= report.degree_bound


def test_bounds_soundness_by_enumeration():
    """No valid sequence shorter than fk_lower exists (tiny instances)."""
    for g, k in [(complete(3), 1), (complete(4), 2), (path(3), 1),
                 (cycle(4), 1)]:
        lower = bounds(g, k).fk_lower
        for items in itertools.product(g.vertices, repeat=lower - 1):
            assert not verify_radius(VertexSequence(g, items), k).valid


def test_euler_examples():
    seq = euler_radius1(complete(4))
    assert len(seq) == 8 and verify_radius(seq, 1).valid
    assert len(seq) == bounds(complete(4), 1).degree_bound  # optimal for K_4
    seq = euler_radius1(cycle(4))
    assert len(seq) == 5 and verify_radius(seq, 1).valid
    seq = euler_radius1(path(3))
    assert len(seq) == 3 and verify_radius(seq, 1).valid
    seq = euler_radius1(complete_bipartite(3, 3))
    assert len(seq) == 12 and verify_radius(seq, 1).valid


def test_euler_length_envelope():
    pool = [complete(4), complete(5), complete_bipartite(2, 3),
            complete_bipartite(3, 3), cycle(5), cycle(6), path(5),
            circulant(7, 2)]
    for g in pool:
        n_odd = sum(1 for v in g.vertices if g.degree(v) % 2 == 1)
        seq = euler_radius1(g)
        assert verify_radius(seq, 1).valid
        assert len(seq) <= g.num_edges + n_odd // 2 + 1
        if n_odd > 0:
            assert len(seq) == g.num_edges + n_odd // 2
        else:
            assert len(seq) == g.num_edges + 1


def test_euler_errors():
    with pytest.raises(InputError):
        euler_radius1(Graph((), [("a", "b"), ("c", "d")]))
    with pytest.raises(InvalidParameterError):
        euler_radius1(Graph(("a",), ()))


def test_cyclic_linear_sandwich_constructive():
    for g, k in [(complete(3), 1), (complete(4), 2)]:
        result = exact_fk(g, k, mode="cyclic")
        linear = linearize_cyclic(result.witness, k)
        assert len(linear) == result.optimum + k
        assert verify_radius(linear, k).valid


def test_construct_bipartite_examples():
    result = construct_bipartite(1, 1, 1)
    assert result.length == 2 and list(result.sequence.items) == ["x1", "y1"]
    result = construct_bipartite(3, 3, 1)
    assert verify_radius(result.sequence, 1).valid
    assert result.length >= bounds(complete_bipartite(3, 3), 1).fk_lower == 12
    result = construct_bipartite(8, 8, 2)
    assert verify_radius(result.sequence, 2).valid
    assert result.lower_bound == Fraction(64) / Fraction(3, 2)
    assert result.ratio == result.length / float(result.lower_bound)


# (m, n, k, epsilon, seed, blocks_used, sha256 of " ".join(items)), recorded
# from the label-keyed greedy the index-based one replaced: byte-identical.
CONSTRUCT_PINS = [
    (1, 5, 2, 0.5, 0, 0,
     "7c4a24537147eb868d6a3a79005924ec783be5a6ae2cf5f06cb14fb3a52d81b7"),
    (5, 1, 3, 0.5, 0, 0,
     "bfe27533248b36171f7cfd87ce7772da02c824706fb50062658e5f613933b7f1"),
    (7, 3, 2, 0.5, 0, 0,
     "8283ed2a149f5cf1cba7d105ed11c71f0512f4ee8e5534281947b9162e2c5505"),
    (3, 7, 2, 0.5, 0, 0,
     "a13e7d2cabfd2a65e747371c0c10a903f15458a40e55db805357f6ad3ce277c0"),
    (30, 30, 1, 0.5, 0, 94,
     "66e955ea4e01ce400cf7c38cf1078d7673dc175ab4f8928147d9dff36fe78a85"),
    (40, 9, 4, 0.1, 1, 11,
     "61eb950b612028bc71e4f5d0120090786dd72d9594498b1da460d16b2e2aa12d"),
    (9, 40, 4, 1.0, 2, 11,
     "50884a40c7376985651f6e0227eb6dfce6d96a21af68e0ea31bea8ccd9c7c71e"),
    (20, 25, 3, 0.1, 3, 8,
     "52918ef6356ac1768887e47ace6c904bca172ccfe4021c4803ca9a45121557ed"),
    (25, 20, 5, 1.0, 4, 9,
     "fa9352ef139804d753dc0b74c6e61bfe6a9ee56e7aa17250ea8d62ac48a07a67"),
    (30, 24, 6, 0.5, 5, 8,
     "dc31c7e8d0a382527f01c3d6379ce282cf21bde40242ceed0c1e7531cda6be2d"),
    (24, 30, 6, 0.1, 0, 8,
     "c130ee0409e3b929ce648d8051621ce4bc56dbc61dea1dccc5361acb46aad1c9"),
    (12, 12, 2, 1.0, 1, 10,
     "79e25149be900b632bb290a07ae8d8b6ad6bca2d778f4b54dfb5ba305bb0766d"),
    (100, 90, 4, 0.5, 7, 149,
     "66f07a07b02d566cf38f9f3ab180195d9022f23e99a155d769f245ac607b35a0"),
]


def test_construct_bipartite_pinned_outputs():
    for m, n, k, eps, seed, blocks_used, digest in CONSTRUCT_PINS:
        result = construct_bipartite(m, n, k, epsilon_hint=eps, seed=seed)
        text = " ".join(result.sequence.items)
        assert (result.blocks_used, hashlib.sha256(text.encode()).hexdigest()
                ) == (blocks_used, digest), (m, n, k, eps, seed)


def test_construct_bipartite_matches_reference():
    # the slot scores kept up to date choose what summing the window's rows
    # chose: the pins plus 240 seeded shapes, a third of them lopsided
    rng = random.Random(14)
    cases = [pin[:5] for pin in CONSTRUCT_PINS]
    for i in range(240):
        m, n = rng.randint(1, 45), rng.randint(1, 45)
        if i % 3 == 0:
            m, n = (m, rng.randint(1, 4))[::rng.choice((1, -1))]
        cases.append((m, n, rng.randint(1, 7),
                      rng.choice((0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 3.0)),
                      rng.randrange(10)))
    with_blocks = 0
    for m, n, k, eps, seed in cases:
        result = construct_bipartite(m, n, k, epsilon_hint=eps, seed=seed)
        index = result.sequence.graph.index
        items = tuple(index[x] for x in result.sequence.items)
        assert (items, result.blocks_used) == construct_bipartite_reference(
            m, n, k, eps, seed), (m, n, k, eps, seed)
        if result.block is not None:
            with_blocks += 1
            # a block never runs out of unused vertices on either side, so
            # the reference's "all used" break cannot fire
            assert result.block.count(0) <= m and result.block.count(1) <= n
    assert with_blocks >= 100


def test_construct_bipartite_refuses_before_building(monkeypatch):
    def unreachable(*args):
        raise AssertionError("K_{m,n} was built")

    monkeypatch.setattr(radius, "complete_bipartite", unreachable)
    with pytest.raises(BudgetError, match="over the budget of 16384"):
        construct_bipartite(700, 700, 15)
    # past the int8 slot scores, with a stand-in a_k that never binds
    monkeypatch.setattr(debruijn, "min_normalized_cycle", lambda g: None)
    with pytest.raises(BudgetError, match="k = 64 overflows"):
        construct_bipartite(3, 3, 64)


def test_construct_bipartite_degenerate_and_seeded():
    result = construct_bipartite(0, 4, 2)
    assert result.length == 0
    a = construct_bipartite(6, 6, 2, seed=0)
    b = construct_bipartite(6, 6, 2, seed=0)
    assert a.sequence.items == b.sequence.items  # deterministic per seed
    c = construct_bipartite(6, 6, 2, seed=3)
    assert verify_radius(c.sequence, 2).valid


def test_construct_bipartite_tiny_epsilon():
    # the block-count ratio overflows to inf; the size cap still applies
    tiny = construct_bipartite(8, 8, 2, epsilon_hint=1e-308)
    small = construct_bipartite(8, 8, 2, epsilon_hint=1e-3)
    assert tiny.sequence.items == small.sequence.items


def test_pattern_block_good_pair_floor():
    for m, n, k in [(8, 8, 2), (10, 10, 3), (12, 10, 2)]:
        result = construct_bipartite(m, n, k)
        block = result.block
        assert block is not None
        a = debruijn.ak(k)
        length = len(block)
        assert block.count(0) + block.count(1) == length
        good = count_bad_pairs(CyclicBitString(block, mode="linear"),
                               k).good_count
        assert good >= (k - a) * length - Fraction(k * (k + 1), 2)


def test_cover_strategy_examples():
    cov = cover_strategy_bipartite(2, 3, 2)
    check = verify_cover(cov)
    assert check.valid and len(cov) == 3
    cov = cover_strategy_bipartite(4, 5, 2)
    assert verify_cover(cov).valid
    cov = cover_strategy_bipartite(1, 5, 2)
    assert verify_cover(cov).valid


def test_cover_strategy_reads_bound_sweep():
    for m in range(1, 8):
        for n in range(1, 8):
            for k in range(1, 5):
                if m + n <= k + 1:
                    continue
                cov = cover_strategy_bipartite(m, n, k)
                check = verify_cover(cov)
                assert check.valid
                assert check.reads <= m * n / k + 2 * (m + n) + k


def test_cover_strategy_budget_bounds_the_sets(monkeypatch):
    # the set count the budget charges is at least the sets built
    monkeypatch.setattr(radius, "MAX_COVER_BYTES", -1)
    for m, n, k in itertools.product(range(1, 9), range(1, 9), range(1, 6)):
        if m + n > k + 1:
            with pytest.raises(BudgetError) as err:
                cover_strategy_bipartite(m, n, k)
            charged = str(err.value).split(" takes up to ")[1].split()[0]
            assert len(cover_strategy_reference(m, n, k)) <= int(charged)


def test_cover_strategy_refuses_before_building_budget(monkeypatch):
    def unreachable(*args):
        raise AssertionError("built past the cover budget")

    monkeypatch.setattr(radius, "complete_bipartite", unreachable)
    with pytest.raises(BudgetError, match=(
            r"a 1-cover of K_\{5000,5000\} takes up to 25005000 sets, "
            r"about 13202640000 bytes, above the cap of 1600000000")):
        cover_strategy_bipartite(5000, 5000, 1)
    with pytest.raises(BudgetError, match="takes up to 5000 sets"):
        cover_strategy_bipartite(5000, 5000, 5001)  # m < k: at most n sets


def test_cover_strategy_matches_reference():
    for m in range(1, 13):
        for n in range(1, 13):
            for k in range(1, 9):
                try:
                    expected = cover_strategy_reference(m, n, k)
                except InvalidParameterError as exc:
                    with pytest.raises(InvalidParameterError) as err:
                        cover_strategy_bipartite(m, n, k)
                    assert str(err.value) == str(exc)
                    continue
                assert cover_strategy_bipartite(m, n, k).sets == expected, \
                    (m, n, k)


def test_cover_strategy_errors():
    with pytest.raises(InvalidParameterError):
        cover_strategy_bipartite(1, 1, 2)  # m + n <= k + 1
    with pytest.raises(InvalidParameterError):
        cover_strategy_bipartite(0, 5, 2)


def test_maxcut_circulant():
    assert maxcut_circulant(5, 2) == 6
    assert maxcut_circulant(5, 2) == exact_maxcut(circulant(5, 2))
    assert maxcut_circulant(8, 2) == exact_maxcut(circulant(8, 2))
    assert maxcut_circulant(6, 1) == 6
    # with 2k >= n the circulant is K_n, whose max cut is floor(n^2/4)
    assert maxcut_circulant(5, 3) == exact_maxcut(complete(5)) == 6
    for n in range(3, 13):
        for k in range((n + 1) // 2, n + 1):
            assert maxcut_circulant(n, k) == exact_maxcut(complete(n))
    assert maxcut_circulant(30, 15) == 225


def test_sequence_io():
    g = complete(4)
    seq = parse_vertex_sequence("v1 v2 # comment\n\nv3\n", g)
    assert seq.items == ("v1", "v2", "v3")
    cov = CoverSequence(g, 2, ({"v1", "v2", "v3"}, {"v2", "v3", "v4"}))
    text = serialize_cover_sequence(cov)
    assert parse_cover_sequence(text, g, 2).sets == cov.sets
