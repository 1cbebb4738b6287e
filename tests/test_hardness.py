"""Tests for the reduction constructions, witness transformers, and losses.

A loss is a co-residency that covers no new edge.  `loss_count_reference`
counts losses by rescanning every pair; `identity_losses` reads them off
`verify_cover` as k(s-1) + C(k+1,2) - (covered edges), the identity that
`CoverReductionInstance.witness_losses` evaluates in closed form.
"""

import math
import random

import pytest
from helpers import (cover1_witness_to_coverk_reference, find_one_cover,
                     loss_count_reference, reduce_cover1_to_coverk_reference)
from hypothesis import given, settings
from hypothesis import strategies as st

from radiuskit.errors import (BudgetError, InputError, InvalidParameterError,
                              WitnessError)
from radiuskit.exact import exact_ck
from radiuskit.graphs import (Graph, complete, complete_bipartite, cycle, path,
                              serialize_graph)
from radiuskit.hardness import (MAX_TARGET_EDGES, cover1_witness_to_coverk,
                                hampath_witness_to_sequence, instance_metadata,
                                reduce_cover1_to_coverk,
                                reduce_hampath_to_radius, serialize_metadata)
from radiuskit.radius import (CoverSequence, serialize_cover_sequence,
                              verify_cover, verify_radius)

HAM_PATH_K33 = ["x1", "y1", "x2", "y2", "x3", "y3"]


def identity_losses(cov):
    """Losses of a non-empty set sequence from the pairs it brings in: the
    first set C(k+1,2) and each later one k, less the covered edges."""
    covered = cov.graph.num_edges - len(verify_cover(cov).uncovered)
    return cov.k * (len(cov) - 1) + math.comb(cov.k + 1, 2) - covered


def test_reduce_hampath_examples():
    inst = reduce_hampath_to_radius(complete_bipartite(3, 3), 2)
    assert inst.target.num_vertices == 9 and inst.target.num_edges == 18
    assert inst.threshold == 13
    inst = reduce_hampath_to_radius(complete_bipartite(3, 3), 3)
    assert inst.target.num_vertices == 15 and inst.target.num_edges == 36
    assert inst.threshold == 19


def test_reduce_hampath_rejects():
    with pytest.raises(InputError):
        reduce_hampath_to_radius(complete(4), 2)  # triangles
    with pytest.raises(InputError):
        reduce_hampath_to_radius(cycle(5), 2)  # not cubic
    with pytest.raises(InvalidParameterError):
        reduce_hampath_to_radius(complete_bipartite(3, 3), 1)


def test_hampath_witness_lengths():
    for k, expected in [(2, 13), (3, 19)]:
        inst = reduce_hampath_to_radius(complete_bipartite(3, 3), k)
        seq = hampath_witness_to_sequence(inst, HAM_PATH_K33)
        assert len(seq) == expected == inst.threshold
        assert verify_radius(seq, k).valid


def test_hampath_witness_rejects():
    inst = reduce_hampath_to_radius(complete_bipartite(3, 3), 2)
    with pytest.raises(WitnessError, match="'x1' again") as info:
        hampath_witness_to_sequence(inst, ["x1", "y1", "x1", "y2", "x3", "y3"])
    assert info.value.position == 2
    # a missing vertex with no repeat has no position to name
    with pytest.raises(WitnessError, match="exactly once") as info:
        hampath_witness_to_sequence(inst, ["x1", "y1", "x2", "y2", "x3"])
    assert info.value.position is None
    with pytest.raises(WitnessError):
        hampath_witness_to_sequence(inst, ["x1", "x2", "y1", "y2", "x3", "y3"])


def test_reduce_cover_examples():
    inst = reduce_cover1_to_coverk(path(3), 2)
    assert inst.fan_size == 7
    assert inst.target_length == 15
    assert inst.target.num_edges == 30
    inst = reduce_cover1_to_coverk(complete(3), 2)
    assert inst.fan_size == 8 and inst.target_length == 26
    inst = reduce_cover1_to_coverk(path(3), 3)
    assert inst.fan_size == 12 and inst.target_length == 26


@pytest.mark.parametrize("edges, label", [
    # a source vertex named like a gadget vertex: merged, 16 of 17 vertices
    ([("a", "b"), ("b", "x[a,b]^1")], "x[a,b]^1"),
    # two gadgets named alike: edges p,q-r and p-q,r
    ([("p,q", "r"), ("r", "p"), ("p", "q,r")], "x[p,q,r]^1")])
def test_reduce_cover_refuses_label_collisions(edges, label):
    with pytest.raises(InputError) as err:
        reduce_cover1_to_coverk(Graph((), edges), 2)
    assert str(err.value) == f"gadget label {label!r} collides with a vertex"
    with pytest.raises(InputError) as ref:
        reduce_cover1_to_coverk_reference(Graph((), edges), 2)
    assert str(err.value) == str(ref.value)


def _transformed(transform, inst, one_cover):
    """The serialized witness, or the WitnessError's text and position."""
    try:
        return serialize_cover_sequence(transform(inst, one_cover))
    except WitnessError as exc:
        return str(exc), exc.position


def _random_sources(count, seed):
    """Connected graphs on 2..7 vertices with shuffled labels and edges."""
    rng = random.Random(seed)
    names = ["a", "b10", "b9", "u", "u,v", "v1", "x0", "z"]
    while count:
        n = rng.randint(2, 7)
        labels = rng.sample(names, n)
        pairs = [(labels[i], labels[j]) for i in range(n)
                 for j in range(i + 1, n) if rng.random() < 0.5]
        rng.shuffle(pairs)
        pairs = [p[::-1] if rng.random() < 0.5 else p for p in pairs]
        if not pairs:
            continue
        h = Graph((), pairs)
        if h.is_connected():
            count -= 1
            yield h


@pytest.mark.parametrize("family", [
    [cycle(n) for n in range(3, 31)],
    [path(n) for n in range(2, 10)],
    [complete(3), complete(4), complete(5), complete_bipartite(2, 3)],
    list(_random_sources(25, seed=24))], ids=["cycles", "paths", "dense",
                                             "random"])
def test_reduce_cover_matches_label_reference(family):
    for h in family:
        one_cover = find_one_cover(h)
        for k in (2, 3, 4):
            inst = reduce_cover1_to_coverk(h, k)
            ref = reduce_cover1_to_coverk_reference(h, k)
            assert inst.target.vertices == ref.target.vertices
            assert serialize_graph(inst.target) == serialize_graph(ref.target)
            assert serialize_metadata(inst) == serialize_metadata(ref)
            if one_cover is not None:
                assert _transformed(cover1_witness_to_coverk, inst,
                                    one_cover) == _transformed(
                    cover1_witness_to_coverk_reference, ref, one_cover)


@pytest.mark.parametrize("reduce, source, k, edges", [
    # C30 at k = 100: 30 (C(100,2) + 148,603 * 100) edges
    (reduce_cover1_to_coverk, cycle(30), 100, 445_957_500),
    # the least k over the cap on C30: 30 (C(22,2) + 6,955 * 22) edges
    (reduce_cover1_to_coverk, cycle(30), 22, 4_597_230),
    (reduce_hampath_to_radius, complete_bipartite(3, 3), 100_000,
     100_001 * 100_000 * 3)])
def test_reductions_refuse_targets_over_the_cap(reduce, source, k, edges):
    with pytest.raises(BudgetError) as err:
        reduce(source, k)
    assert str(err.value) == (f"target would have {edges} edges, above the "
                              f"cap of {MAX_TARGET_EDGES}")


def test_reduction_budget_follows_source_checks():
    with pytest.raises(InputError, match="connected"):
        reduce_cover1_to_coverk(Graph((), [("a", "b"), ("c", "d")]), 100)
    with pytest.raises(InputError, match="cubic"):
        reduce_hampath_to_radius(cycle(5), 100_000)


def test_gadget_edge_counts():
    for h in [path(3), path(4), complete(3), cycle(4)]:
        for k in (2, 3):
            inst = reduce_cover1_to_coverk(h, k)
            m = h.num_edges
            assert inst.target.num_edges == m * (
                math.comb(k, 2) + inst.fan_size * k)


def test_cover_witness_transforms():
    inst = reduce_cover1_to_coverk(path(3), 2)
    cov = cover1_witness_to_coverk(inst, [("v1", "v2"), ("v2", "v3")])
    assert len(cov) == 15
    assert verify_cover(cov).valid
    assert loss_count_reference(cov) == inst.witness_losses == 1
    inst = reduce_cover1_to_coverk(complete(3), 2)
    cov = cover1_witness_to_coverk(
        inst, [("v1", "v2"), ("v2", "v3"), ("v1", "v3")])
    assert len(cov) == 26
    assert verify_cover(cov).valid
    assert loss_count_reference(cov) == inst.witness_losses == 2


def test_cover_witness_loss_matches_formula():
    for h, k in [(path(3), 2), (path(3), 3), (complete(3), 2),
                 (path(4), 2), (cycle(4), 3)]:
        one_cover = find_one_cover(h)
        assert one_cover is not None
        inst = reduce_cover1_to_coverk(h, k)
        cov = cover1_witness_to_coverk(inst, one_cover)
        assert len(cov) == inst.target_length
        assert verify_cover(cov).valid
        assert loss_count_reference(cov) == inst.witness_losses == \
            math.comb(k, 2) * (h.num_edges - 1)


def test_cover_witness_rejects():
    inst = reduce_cover1_to_coverk(path(4), 2)
    with pytest.raises(WitnessError):
        cover1_witness_to_coverk(
            inst, [("v1", "v2"), ("v3", "v4"), ("v2", "v3")])
    with pytest.raises(WitnessError):
        cover1_witness_to_coverk(inst, [("v1", "v2"), ("v2", "v3")])
    with pytest.raises(WitnessError) as err:
        cover1_witness_to_coverk(
            inst, [("v1", "v2"), ("v2", "v2"), ("v2", "v3"), ("v3", "v4")])
    assert "'v2' 'v2' is not an edge" in str(err.value)


def test_cover_witness_rejects_pivot():
    # a star's 1-covers all pivot on the center; the gadget walk cannot
    # pass through the middle edge, so the witness is rejected
    star = complete_bipartite(1, 3)
    inst = reduce_cover1_to_coverk(star, 2)
    with pytest.raises(WitnessError) as err:
        cover1_witness_to_coverk(
            inst, [("x1", "y1"), ("x1", "y2"), ("x1", "y3")])
    assert "pivot" in str(err.value)


def test_loss_count_examples():
    k3 = complete(3)
    cov = CoverSequence(k3, 1, ({"v1", "v2"}, {"v2", "v3"}, {"v1", "v3"}))
    assert identity_losses(cov) == loss_count_reference(cov) == 0
    cov = exact_ck(complete(4), 2).witness
    s = len(cov)
    assert identity_losses(cov) == loss_count_reference(cov) == \
        2 * (s - 1) + 3 - 6 == 1
    # every pair of a clique first set is an edge: zero initial losses
    cov = CoverSequence(complete(4), 2, ({"v1", "v2", "v3"},))
    assert identity_losses(cov) == loss_count_reference(cov) == 0


def test_loss_identity_randomized():
    from helpers import random_graph, random_valid_cover
    rng = random.Random(99)
    done = 0
    while done < 120:
        n = rng.randint(4, 9)
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
            k * (s - 1) + math.comb(k + 1, 2)
        done += 1


def test_loss_count_matches_reference():
    """Random swap walks, covers or not, so sets hold non-edges and pairs
    that were co-resident long before."""
    from helpers import random_graph
    rng = random.Random(5)
    done = 0
    while done < 300:
        n = rng.randint(3, 9)
        k = rng.randint(1, min(4, n - 1))
        g = random_graph(rng, n, edge_prob=rng.random())
        if g is None:
            continue
        current = set(rng.sample(g.vertices, k + 1))
        sets = [frozenset(current)]
        for _ in range(rng.randint(0, 12)):
            outside = [v for v in g.vertices if v not in current]
            if not outside:
                break
            current.remove(rng.choice(sorted(current)))
            current.add(rng.choice(outside))
            sets.append(frozenset(current))
        cov = CoverSequence(g, k, tuple(sets))
        assert identity_losses(cov) == loss_count_reference(cov)
        done += 1


@pytest.mark.parametrize("n, k", [(13, 2), (20, 3), (30, 3)])
def test_loss_count_matches_reference_on_reduction_witness(n, k):
    inst = reduce_cover1_to_coverk(cycle(n), k)
    cov = cover1_witness_to_coverk(inst, find_one_cover(cycle(n)))
    assert loss_count_reference(cov) == inst.witness_losses == \
        math.comb(k, 2) * (n - 1)


@st.composite
def swap_walks(draw):
    """A graph on 2..8 vertices and a swap walk of (k+1)-sets over it."""
    n = draw(st.integers(2, 8))
    labels = [f"v{i}" for i in range(n)]
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    k = draw(st.integers(1, n - 1))
    current = set(draw(st.permutations(labels))[:k + 1])
    sets = [frozenset(current)]
    for _ in range(draw(st.integers(0, 15))):
        outside = [v for v in labels if v not in current]
        if not outside:
            break
        current.remove(draw(st.sampled_from(sorted(current))))
        current.add(draw(st.sampled_from(outside)))
        sets.append(frozenset(current))
    return CoverSequence(Graph(labels, edges), k, tuple(sets))


@settings(max_examples=300, deadline=None)
@given(swap_walks())
def test_loss_count_property(cov):
    assert identity_losses(cov) == loss_count_reference(cov)


def test_metadata():
    inst = reduce_cover1_to_coverk(path(3), 2)
    meta = instance_metadata(inst)
    assert meta["reduction"] == "cover1-coverk"
    assert meta["target_length"] == 15
    assert serialize_metadata(inst).endswith("\n")
    inst = reduce_hampath_to_radius(complete_bipartite(3, 3), 2)
    assert instance_metadata(inst)["threshold"] == 13
