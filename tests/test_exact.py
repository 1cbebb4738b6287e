"""Tests for the exhaustive ground-truth solvers."""

import dataclasses
import itertools
import random
import tracemalloc

import pytest

from helpers import (automorphism_orbits_reference,
                     exact_ck_first_cover_reference, exact_ck_reference,
                     exact_fk_reference, exact_maxcut_reference, random_graph)
from radiuskit import exact
from radiuskit.binseq import wk_exact
from radiuskit.errors import BudgetError, InvalidParameterError
from radiuskit.exact import (SearchBudget, _automorphism_orbits, _SearchState,
                             exact_ck, exact_fk, exact_maxcut)
from radiuskit.graphs import (Graph, circulant, complete, complete_bipartite,
                              cycle, line_graph, parse_graph, path,
                              serialize_graph)
from radiuskit.hardness import (hampath_witness_to_sequence,
                                reduce_hampath_to_radius)
from radiuskit.radius import (bounds, serialize_cover_sequence, verify_cover,
                              verify_radius)


def test_exact_fk_examples():
    result = exact_fk(complete(3), 1)
    assert result.is_optimal and result.optimum == 4
    assert verify_radius(result.witness, 1).valid
    result = exact_fk(complete(4), 2)
    assert result.optimum == 5
    assert verify_radius(result.witness, 2).valid
    result = exact_fk(path(3), 1)
    assert result.optimum == 3


def test_exact_fk_cyclic_sandwich():
    for g, k in [(complete(3), 1), (complete(4), 2), (path(3), 1)]:
        linear = exact_fk(g, k).optimum
        cyclic = exact_fk(g, k, mode="cyclic").optimum
        assert linear - k <= cyclic <= linear


def test_exact_fk_ge_bounds():
    for g, k in [(complete(3), 1), (complete(4), 2),
                 (complete_bipartite(2, 2), 1)]:
        report = bounds(g, k)
        optimum = exact_fk(g, k).optimum
        assert optimum >= report.fk_lower
        for value in (report.edge_bound, report.bipartite_bound, report.degree_bound):
            if value is not None:
                assert optimum >= value


def test_exact_fk_errors_and_budget():
    with pytest.raises(InvalidParameterError):
        exact_fk(Graph(("a", "b"), ()), 1)
    result = exact_fk(complete(5), 1, budget=SearchBudget(node_limit=1))
    assert not result.is_optimal and result.optimum is None
    assert result.lower >= bounds(complete(5), 1).fk_lower


def test_exact_ck_examples():
    result = exact_ck(complete(3), 1)
    assert result.optimum == 4
    assert verify_cover(result.witness).valid
    result = exact_ck(complete(4), 2)
    assert result.optimum == 5
    assert verify_cover(result.witness).valid
    with pytest.raises(InvalidParameterError):
        exact_ck(complete(3), 2)  # |V| == k+1 is rejected


def test_exact_fk_ge_ck():
    for g, k in [(complete(3), 1), (complete(4), 2),
                 (complete_bipartite(2, 2), 1)]:
        assert exact_fk(g, k).optimum >= exact_ck(g, k).optimum


def test_exact_maxcut_examples():
    assert exact_maxcut(complete(5)) == 6
    assert exact_maxcut(cycle(5)) == 4
    assert exact_maxcut(complete_bipartite(3, 3)) == 9
    with pytest.raises(BudgetError):
        exact_maxcut(complete(25))


def _maxcut_brute_force(g):
    ends = g.ends.tolist()
    return max(sum(sides[u] != sides[v] for u, v in ends)
               for sides in itertools.product((0, 1), repeat=g.num_vertices))


def test_exact_maxcut_matches_brute_force():
    rng = random.Random(16)
    graphs = [Graph(("a", "b"), (("a", "b"),)),
              # isolated vertices first and in between
              Graph(("z", "a", "y", "b", "c", "x"),
                    (("a", "b"), ("b", "c"), ("a", "c"), ("c", "x")))]
    for _ in range(60):
        n = rng.randint(2, 10)
        labels = [f"v{i}" for i in range(n)]
        graphs.append(Graph(labels, [
            (labels[i], labels[j]) for i, j in itertools.combinations(range(n), 2)
            if rng.random() < rng.choice([0.2, 0.5, 0.8])]))
    for g in graphs:
        assert exact_maxcut(g) == _maxcut_brute_force(g), g.edges


def test_exact_maxcut_matches_reference_past_the_table():
    # more than 19 vertices: later vertices are enumerated over the table
    rng = random.Random(17)
    for n in (20, 21, 23):
        labels = [f"v{i}" for i in range(n)]
        edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(2 * n)}
        g = Graph(labels, [(labels[i], labels[j]) for i, j in sorted(edges)])
        assert exact_maxcut(g) == exact_maxcut_reference(g), n


def test_exact_maxcut_at_the_cap():
    # 23 free vertices: an 18-vertex table and 2^5 assignments over it
    tracemalloc.start()
    try:
        assert exact_maxcut(path(24)) == 23
        assert exact_maxcut(complete(24)) == 144
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


def test_maxcut_identity_small_sweep():
    for n in range(5, 13):
        for k in range(1, 4):
            if 2 * k >= n:
                continue
            g = circulant(n, k)
            assert exact_maxcut(g) == k * n - wk_exact(k, n)


def test_budget_validation():
    for limit in (0, -1, float("nan"), float("inf")):
        with pytest.raises(InvalidParameterError):
            SearchBudget(time_limit=limit)
    with pytest.raises(InvalidParameterError):
        SearchBudget(node_limit=0)


def test_exact_ck_rejects_k_below_one():
    for k in (0, -1):
        with pytest.raises(InvalidParameterError,
                           match=f"k must be >= 1, got {k}"):
            exact_ck(complete_bipartite(3, 3), k)


def brute_force_fk(g, k, mode):
    """Oracle: try every sequence of every length until one verifies."""
    import itertools
    from radiuskit.radius import VertexSequence
    length = 1
    while True:
        for items in itertools.product(g.vertices, repeat=length):
            seq = VertexSequence(g, items, mode=mode)
            if verify_radius(seq, k).valid:
                return length
        length += 1


def test_exact_fk_against_brute_force():
    import random
    rng = random.Random(23)
    cases = 0
    while cases < 12:
        n = rng.randint(2, 4)
        labels = [f"u{i}" for i in range(n)]
        edges = [(labels[i], labels[j]) for i in range(n)
                 for j in range(i + 1, n) if rng.random() < 0.7]
        if not edges:
            continue
        g = Graph(labels, edges)
        k = rng.randint(1, 2)
        mode = rng.choice(["linear", "cyclic"])
        assert exact_fk(g, k, mode=mode).optimum == brute_force_fk(g, k, mode)
        cases += 1


def _oracle_graphs(seed, count):
    rng = random.Random(seed)
    while count:
        g = random_graph(rng, rng.randint(3, 7), rng.choice([0.3, 0.5, 0.7]))
        if g is not None:
            count -= 1
            yield g


# Reference runs that need more nodes than this are skipped; the index
# searches must agree with every reference run that finishes.
ORACLE_BUDGET = SearchBudget(node_limit=2000)


def _hypercube(d):
    labels = [format(i, f"0{d}b") for i in range(1 << d)]
    return Graph(labels, [(labels[i], labels[i ^ b]) for i in range(1 << d)
                          for b in (1 << j for j in range(d)) if i < i ^ b])


# vertex- or edge-transitive graphs, where every position prunes the most
SYMMETRIC_GRAPHS = [cycle(6), cycle(8), complete_bipartite(2, 4),
                    complete_bipartite(3, 3), _hypercube(3), circulant(8, 2)]


def _compare_fk(graphs, budget):
    compared = 0
    for g in graphs:
        for k in (1, 2, 3):
            for mode in ("linear", "cyclic"):
                expected = exact_fk_reference(g, k, mode, budget)
                if not expected.is_optimal:
                    continue
                result = exact_fk(g, k, mode)
                assert result == expected, (g.edges, k, mode)
                assert result.witness.items == expected.witness.items
                compared += 1
    return compared


def test_exact_fk_matches_reference():
    assert _compare_fk(_oracle_graphs(11, 20), ORACLE_BUDGET) >= 80
    # the reference prunes the first position only: give it more nodes
    for g in SYMMETRIC_GRAPHS:
        assert _compare_fk([g], SearchBudget(node_limit=20_000)) >= 2, g.edges


def test_exact_fk_witness_ignores_edge_order():
    # the covered-edge bits follow edge order; the witness must not
    compared = 0
    for g in _oracle_graphs(11, 20):
        flipped = Graph(g.vertices, [(v, u) for u, v in reversed(g.edges)])
        for k in (1, 2, 3):
            for mode in ("linear", "cyclic"):
                result = exact_fk(g, k, mode, ORACLE_BUDGET)
                if not result.is_optimal:
                    continue
                again = exact_fk(flipped, k, mode, ORACLE_BUDGET)
                assert again == result, (g.edges, k, mode)
                assert again.witness.items == result.witness.items
                compared += 1
    assert compared >= 80


def test_k44_witness():
    # pruning at the first position only took 3.8 M nodes, pruning every
    # position by orbits 82,845, and the live-vertex prune 10,604
    result = exact_fk(complete_bipartite(4, 4), 2)
    assert result.optimum == 13 and result.nodes < 20_000
    assert " ".join(result.witness.items) == (
        "x1 y1 y2 x2 y3 y4 x3 y1 y2 x4 y3 y4 x1")


def _interval(result):
    return result.status, result.optimum, result.lower, result.upper


def _assert_ck_matches_references(g, k, budget=None):
    """The optimum of the A* label search and the witness of the plain
    first-cover search, byte for byte; False if the A* run stops."""
    expected = exact_ck_reference(g, k, budget)
    if not expected.is_optimal:
        return False
    result = exact_ck(g, k)
    assert _interval(result) == _interval(expected), (g.edges, k)
    first = exact_ck_first_cover_reference(g, k)
    assert result == first, (g.edges, k)
    assert (serialize_cover_sequence(result.witness)
            == serialize_cover_sequence(first.witness))
    return True


def test_exact_ck_matches_reference():
    compared = 0
    for g in _oracle_graphs(12, 20):
        for k in (1, 2, 3):
            if g.num_vertices > k + 1:
                compared += _assert_ck_matches_references(g, k, ORACLE_BUDGET)
    assert compared >= 20


def test_exact_ck_witness_ignores_input_order():
    rng = random.Random(13)
    compared = 0
    for g in _oracle_graphs(12, 20):
        vertices, edges = list(g.vertices), list(g.edges)
        rng.shuffle(vertices)
        rng.shuffle(edges)
        shuffled = Graph(vertices, edges)
        for k in (1, 2, 3):
            if g.num_vertices <= k + 1:
                continue
            result = exact_ck(g, k, ORACLE_BUDGET)
            if not result.is_optimal:
                continue
            again = exact_ck(shuffled, k, ORACLE_BUDGET)
            assert again == result, (g.edges, k)
            assert (serialize_cover_sequence(again.witness)
                    == serialize_cover_sequence(result.witness))
            compared += 1
    assert compared >= 20


@pytest.mark.parametrize("g,k", [(cycle(8), 3), (path(8), 2)])
def test_exact_ck_benchmark_witnesses(g, k):
    # beyond ORACLE_BUDGET: the A* reference runs with no node budget
    assert _assert_ck_matches_references(g, k)


def test_exact_ck_prunes_by_entry_count():
    # cutting by ceil(uncovered / k) alone takes 19,972 nodes here, and
    # with the entry count h2 too, 52
    result = exact_ck(cycle(10), 3, SearchBudget(node_limit=5000))
    assert result.is_optimal and result.optimum == 10


def test_exact_ck_success_skips_bounds(monkeypatch):
    def refuse(*args):
        raise AssertionError("bounds() called on a successful run")

    monkeypatch.setattr(exact, "bounds", refuse)
    for g, k in [(complete(5), 1), (cycle(8), 3), (path(8), 2)]:
        assert exact_ck(g, k).is_optimal


def _orbits(g, fixed=()):
    """`_automorphism_orbits` run on g's indices, as label orbits in the
    form of `automorphism_orbits_reference`."""
    nbrs = [[] for _ in g.vertices]
    for a, b in g.ends.tolist():
        nbrs[a].append(b)
        nbrs[b].append(a)
    fixed_bits = sum(1 << g.index[v] for v in fixed)
    root = _automorphism_orbits(nbrs, _SearchState(SearchBudget()), fixed_bits)
    orbits = {}
    for v, r in zip(g.vertices, root):
        orbits.setdefault(r, []).append(v)
    return [tuple(members) for members in orbits.values()]


def test_automorphism_orbits_match_reference():
    graphs = list(_oracle_graphs(13, 40))
    graphs += [cycle(7), path(6), complete_bipartite(3, 4),
               circulant(8, 2), Graph(("a", "b", "c", "d"),
                                            (("a", "b"), ("c", "d")))]
    for g in graphs:
        assert _orbits(g) == automorphism_orbits_reference(g), g.edges


def test_stabilizer_orbits_match_reference():
    rng = random.Random(14)
    graphs = list(_oracle_graphs(15, 40)) + SYMMETRIC_GRAPHS
    graphs += [path(6), complete_bipartite(3, 4),
               Graph(("a", "b", "c", "d", "e"), (("a", "b"), ("c", "d")))]
    for g in graphs:
        for _ in range(3):
            fixed = rng.sample(g.vertices, rng.randint(1, g.num_vertices))
            expected = automorphism_orbits_reference(g, fixed=fixed)
            assert _orbits(g, fixed) == expected, (g.edges, fixed)


def test_k33_target_witness_and_orbit():
    # The line graph of K_{3,3}: the 9-vertex rook's graph K3 x K3, which
    # is vertex-transitive; the n! reference switched off above 8 vertices.
    target = reduce_hampath_to_radius(complete_bipartite(3, 3), 2).target
    assert target == line_graph(complete_bipartite(3, 3))
    assert len(_orbits(target)) == 1
    assert len(automorphism_orbits_reference(target)) == 9
    for g in (target, parse_graph(serialize_graph(target))):
        result = exact_fk(g, 2)
        # 71,303 nodes before the live-vertex prune, 9,050 with it
        assert result.optimum == 13 and result.nodes < 15_000
        assert " ".join(result.witness.items) == (
            "x1|y1 x1|y2 x1|y3 x2|y3 x3|y3 x3|y1 x3|y2 x1|y2 x2|y2 x2|y3 "
            "x2|y1 x1|y1 x3|y1")


def test_q3_target_meets_the_threshold():
    # f_2 of the cube's ham-radius target is the reduction threshold
    # kn + 1 = 17: the Gray-code path gives a sequence of that length, and
    # exact_fk proves no shorter one (unknown >= 17 at 3 M nodes before
    # the live-vertex prune, 385,471 nodes with it)
    inst = reduce_hampath_to_radius(_hypercube(3), 2)
    gray = ["000", "001", "011", "010", "110", "111", "101", "100"]
    assert len(hampath_witness_to_sequence(inst, gray)) == inst.threshold
    result = exact_fk(inst.target, 2)
    assert result.optimum == inst.threshold == 17
    assert result.nodes < 500_000


def test_orbit_searches_stop_at_a_trivial_stabilizer(monkeypatch):
    searched = []

    def recording(nbrs, state, fixed_bits):
        root = _automorphism_orbits(nbrs, state, fixed_bits)
        fixed = frozenset(v for v in range(len(nbrs)) if fixed_bits >> v & 1)
        searched.append((fixed, root == list(range(len(nbrs)))))
        return root

    monkeypatch.setattr(exact, "_automorphism_orbits", recording)
    target = reduce_hampath_to_radius(complete_bipartite(3, 3), 2).target
    assert exact_fk(target, 2).optimum == 13
    trivial = dict(searched)
    assert len(trivial) == len(searched) and any(trivial.values())
    # each prefix set is searched once, and only below a prefix whose
    # stabilizer still moved some vertex
    for fixed in trivial:
        assert not fixed or any(trivial.get(fixed - {v}) is False
                                for v in fixed)


def test_orbit_search_counts_against_the_budget():
    # K_{5,5} takes 50 steps to find its one orbit
    result = exact_fk(complete_bipartite(5, 5), 2,
                      budget=SearchBudget(node_limit=20))
    assert result.stop == "node limit" and result.nodes == 21
    assert result.lower == bounds(complete_bipartite(5, 5), 2).fk_lower


@pytest.mark.parametrize("g,k", [(cycle(8), 3), (path(8), 2)])
def test_exact_ck_unknown_interval(g, k):
    # they solve in 27 and 16 nodes; stopped at 5, each still proves its
    # first L, 8 - k sets, which is 8 reads
    optimum = exact_ck(g, k).optimum
    for budget in (SearchBudget(node_limit=5), SearchBudget(max_length=2)):
        result = exact_ck(g, k, budget)
        edge_bound = exact_ck_reference(g, k, budget)
        assert not result.is_optimal and not edge_bound.is_optimal
        assert edge_bound.lower <= result.lower <= optimum
    assert exact_ck(g, k, SearchBudget(node_limit=5)).lower == 8
    # only covers of at least 3 sets remain: 3 + k reads
    assert exact_ck(cycle(8), 3, SearchBudget(max_length=2)).lower == 6


def test_elapsed_is_reported_and_not_compared():
    for solve in (exact_fk, exact_ck):
        for budget in (None, SearchBudget(node_limit=1)):
            result = solve(complete(5), 1, budget=budget)
            assert result.elapsed >= 0
            assert result == dataclasses.replace(
                result, elapsed=result.elapsed + 1)


def test_stop_reason_and_nodes():
    for solve in (exact_fk, exact_ck):
        result = solve(complete(5), 1, budget=SearchBudget(node_limit=1))
        assert result.stop == "node limit" and result.nodes == 2
        optimal = solve(complete(5), 1)
        assert optimal.stop is None and optimal.nodes > 1
        assert optimal == solve(complete(5), 1,
                                budget=SearchBudget(node_limit=10 ** 6))
    result = exact_fk(complete(5), 1, budget=SearchBudget(max_length=5))
    assert result.stop == "max_length" and result.lower > 5
    result = exact_ck(cycle(8), 3, SearchBudget(max_length=2))
    assert result.stop == "max_length"
    result = exact_fk(complete_bipartite(4, 4), 2,
                      budget=SearchBudget(time_limit=1e-9))
    assert result.stop == "time limit" and result.nodes == 4096


def test_exact_ck_start_sets_count_against_the_budget():
    # K_{5,5} at k = 2 has 120 start sets a length; the first time check
    # stops the search after L = 12 sets is refuted, which proves 13 + 2
    # reads, past the edge bound 25/2 + 3/2 = 14
    result = exact_ck(complete_bipartite(5, 5), 2,
                      SearchBudget(time_limit=1e-9))
    assert result.stop == "time limit" and result.nodes == 4096
    assert (result.status, result.lower) == ("unknown", 15)


def test_exact_ck_c40_within_the_node_budget():
    # C40 has 18.6 M start sets at k = 6; taken lazily, they cost no memory
    # and the first L, 34 sets, is the optimum
    tracemalloc.start()
    result = exact_ck(cycle(40), 6, SearchBudget(node_limit=100_000))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert (result.status, result.optimum) == ("optimal", 40)
    assert result.nodes < 10_000 and peak < 1 << 20


def test_exact_fk_max_length_stop_skips_the_tables_budget():
    # 3,000 vertices need 3,000 slots, past the default max_length of 64,
    # so no n x n pair table is built
    g = cycle(3000)
    tracemalloc.start()
    result = exact_fk(g, 2)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert (result.status, result.lower, result.stop, result.nodes) == (
        "unknown", 3000, "max_length", 0)
    assert peak < 1 << 20
