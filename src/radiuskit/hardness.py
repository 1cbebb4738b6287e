"""Hardness-reduction instance builders and witness transformers.

Two reductions are constructed here: Hamiltonian path in a cubic
triangle-free graph to a threshold k-radius instance on a line graph with
pendant gadgets, and 1-cover to k-cover via edge gadgets with large
y-vertex fans.  The forward witness transformers emit sequences of exactly
the advertised lengths and are always re-verified.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (BudgetError, InputError, InvalidParameterError,
                     VerificationError, WitnessError)
from .graphs import (Graph, attach_pendants, edge_label, line_graph,
                     pendant_label)
from .radius import (CoverSequence, VertexSequence, require_valid,
                     verify_cover, verify_radius)

# Cap on the edges of either reduction's target, checked in closed form
# before anything is built.  It admits C30 at k = 21 (3,990,420 edges),
# where checking a witness builds about 44 M pair codes (about 350 MB).
MAX_TARGET_EDGES = 1 << 22


def _check_target_budget(edges):
    if edges > MAX_TARGET_EDGES:
        raise BudgetError(f"target would have {edges} edges, above the cap "
                          f"of {MAX_TARGET_EDGES}")


@dataclass(frozen=True)
class RadiusReductionInstance:
    """Threshold k-radius instance built from a cubic triangle-free graph."""

    source: Graph
    k: int
    target: Graph
    threshold: int  # sequence length to decide: k*n + 1


@dataclass(frozen=True)
class CoverReductionInstance:
    """k-cover instance with per-edge gadgets built from a 1-cover instance."""

    source: Graph
    k: int
    fan_size: int  # N: gadget stay length
    target: Graph
    target_length: int  # m*N + (m-1)(k-1)

    @property
    def witness_losses(self):
        """Losses of any valid cover `target_length` long: C(k,2)(m-1).

        A loss is a co-residency that covers no new edge.  The first set
        brings C(k+1,2) newly co-resident pairs and each later set k, and
        each edge is covered at exactly one of them, so a valid cover of s
        sets has e(G) + losses = k(s-1) + C(k+1,2).  This is that identity
        at s = target_length; `cover1_witness_to_coverk` returns only such
        covers.
        """
        return (self.k * (self.target_length - 1) + math.comb(self.k + 1, 2)
                - self.target.num_edges)


def check_cubic_triangle_free(g):
    """Raise InputError naming a witness vertex or triangle on violation."""
    for v in g.vertices:
        if g.degree(v) != 3:
            raise InputError(
                f"vertex {v!r} has degree {g.degree(v)}, graph must be cubic")
    for u, v in g.edges:
        common = set(g.neighbors(u)) & set(g.neighbors(v))
        if common:
            w = sorted(common)[0]
            raise InputError(f"triangle {u!r} {v!r} {w!r} found, "
                             f"graph must be triangle-free")


def reduce_hampath_to_radius(f, k):
    """Build the line graph of f with k-2 pendants per vertex, plus threshold.

    The target has (k+1)k n/2 edges, at most MAX_TARGET_EDGES (BudgetError
    otherwise), and the decision threshold is 2 e(target)/(k+1) + 1 = k n + 1.
    """
    if k < 2:
        raise InvalidParameterError(f"reduction needs k >= 2, got {k}")
    check_cubic_triangle_free(f)
    n = f.num_vertices
    expected_edges = (k + 1) * k * n // 2
    _check_target_budget(expected_edges)
    target = line_graph(attach_pendants(f, k - 2))
    threshold = 2 * target.num_edges // (k + 1) + 1
    if target.num_edges != expected_edges or threshold != k * n + 1:
        raise VerificationError(f"gadget has {target.num_edges} edges, "
                                f"expected {expected_edges}")
    return RadiusReductionInstance(source=f, k=k, target=target,
                                   threshold=threshold)


def hampath_witness_to_sequence(inst, path_vertices):
    """Turn a Hamiltonian path of the source into a threshold-length witness.

    Emits the spare edge at the first endpoint, then for each path vertex
    its non-path edge, its pendant edges, and the next path edge, ending
    with the spare edge at the last endpoint.  Non-path edges at the two
    endpoints are assigned in lexicographic label order.  A step between
    non-adjacent vertices raises a WitnessError carrying the position of
    the vertex it steps to, and a repeated vertex the position of its
    second visit.
    """
    f, k = inst.source, inst.k
    path_vertices = [str(v) for v in path_vertices]
    if sorted(path_vertices) != sorted(f.vertices):
        seen = set()
        for i, v in enumerate(path_vertices):
            if v in seen:
                raise WitnessError(f"path visits {v!r} again", position=i)
            seen.add(v)
        raise WitnessError("path must visit every vertex exactly once")
    for i, (a, b) in enumerate(zip(path_vertices, path_vertices[1:]), 1):
        if not f.has_edge(a, b):
            raise WitnessError(f"{a!r} and {b!r} are not adjacent",
                               position=i)
    n = len(path_vertices)
    path_edges = [frozenset((path_vertices[i], path_vertices[i + 1]))
                  for i in range(n - 1)]
    on_path = set(path_edges)

    def spare_edges(v):
        out = [frozenset((v, w)) for w in f.neighbors(v)]
        return sorted((e for e in out if e not in on_path),
                      key=lambda e: edge_label(*e))

    first_spares = spare_edges(path_vertices[0])
    last_spares = spare_edges(path_vertices[-1])
    e0, f1 = first_spares[0], first_spares[1]
    fn, en = last_spares[0], last_spares[1]

    items = [edge_label(*e0)]
    for i, v in enumerate(path_vertices):
        if i == 0:
            non_path = f1
        elif i == n - 1:
            non_path = fn
        else:
            non_path = spare_edges(v)[0]
        items.append(edge_label(*non_path))
        items.extend(edge_label(v, pendant_label(v, j))
                     for j in range(1, k - 1))
        if i < n - 1:
            items.append(edge_label(*path_edges[i]))
        else:
            items.append(edge_label(*en))
    if len(items) != inst.threshold:
        raise VerificationError(f"transformed witness has length "
                                f"{len(items)}, expected {inst.threshold}")
    seq = VertexSequence(inst.target, tuple(items))
    require_valid(verify_radius(seq, k),
                  f"transformed witness of length {len(items)}")
    return seq


def reduce_cover1_to_coverk(h, k):
    """Replace every source edge uv by a gadget: a k-clique joined to u, v
    and N-2 private fan vertices, with N = C(k,2)(m-1) + C(k+1,2) + 3.
    The target's vertices are h's, then each gadget's clique x[a,b]^i and
    fans y[a,b]^i (a < b its ends) in `h.edges` order.  A label repeating
    an earlier one raises InputError, and a target of more than
    MAX_TARGET_EDGES edges BudgetError."""
    if k < 2:
        raise InvalidParameterError(f"reduction needs k >= 2, got {k}")
    if h.num_edges < 1:
        raise InvalidParameterError("source graph needs at least one edge")
    if not h.is_connected():
        raise InputError("source graph must be connected")
    m, n = h.num_edges, h.num_vertices
    fan = math.comb(k, 2) * (m - 1) + math.comb(k + 1, 2) + 3
    expected = m * (math.comb(k, 2) + fan * k)
    _check_target_budget(expected)
    labels = list(h.vertices)
    for a, b in map(sorted, h.edges):
        labels += (f"x[{a},{b}]^{i}" for i in range(1, k + 1))
        labels += (f"y[{a},{b}]^{i}" for i in range(1, fan - 1))
    index = {v: i for i, v in enumerate(labels)}
    if len(index) != len(labels):
        seen = set()
        label = next(v for v in labels if v in seen or seen.add(v))
        raise InputError(f"gadget label {label!r} collides with a vertex")
    # One gadget's edges, numbered 0, 1 for its source edge's ends, 2..k+1
    # for its clique and on for its fans: the clique's pairs, then each
    # clique vertex's edges to both ends and to every fan.  Gadget labels
    # add no whitespace or '#' to the source's valid labels.
    pairs = np.column_stack(np.triu_indices(k, 1)) + 2
    spokes = np.column_stack((np.arange(2, k + 2).repeat(fan),
                              np.tile(np.r_[0, 1, k + 2:k + fan], k)))
    size = k + fan - 2  # vertices per gadget
    at = np.column_stack((h.ends, np.arange(n, n + m * size).reshape(m, size)))
    local = np.concatenate((pairs, spokes)).ravel()
    target = Graph._from_index(index, at[:, local].reshape(-1, 2))
    if target.num_edges != expected:
        raise VerificationError(
            f"gadget edge count {target.num_edges} != {expected}")
    return CoverReductionInstance(source=h, k=k, fan_size=fan, target=target,
                                  target_length=m * fan + (m - 1) * (k - 1))


def _check_one_cover(h, edge_list):
    """A 1-cover of length m: every edge exactly once, neighbors adjacent.
    An error about one step carries its position."""
    edges = []
    for i, (u, v) in enumerate(edge_list):
        u, v = str(u), str(v)
        if not h.has_edge(u, v):
            raise WitnessError(f"{u!r} {v!r} is not an edge of the source",
                               position=i)
        edges.append(frozenset((u, v)))
    if len(set(edges)) != len(edges) or len(edges) != h.num_edges:
        raise WitnessError("1-cover must list every source edge exactly once")
    for i in range(len(edges) - 1):
        if not edges[i] & edges[i + 1]:
            raise WitnessError(
                f"steps {i + 1} and {i + 2} share no endpoint", position=i + 1)
    return edges


def cover1_witness_to_coverk(inst, one_cover):
    """Concatenate gadget stay blocks with k-1 step connector swaps.

    Each edge's block enters at one endpoint, parks the clique through all
    fan vertices, and leaves at the endpoint shared with the next edge;
    connectors swap the old clique out for the new one while the shared
    vertex stays resident.
    """
    h, k, fan = inst.source, inst.k, inst.fan_size
    edges = _check_one_cover(h, one_cover)
    m = len(edges)

    # Edge i runs from walk[i] to walk[i + 1]: the vertices consecutive
    # edges share, between the first and last edges' other endpoints.  A
    # pivot (an edge entered and left at one endpoint) would never put the
    # far endpoint beside its gadget clique, so such witnesses are rejected.
    walk = [min(a & b) for a, b in zip(edges, edges[1:])]
    if walk:
        walk = [min(edges[0] - {walk[0]}), *walk,
                min(edges[-1] - {walk[-1]})]
    else:
        walk = sorted(edges[0])

    # each edge's gadget, its clique then its fans, in the target's vertices
    labels, size = inst.target.vertices, k + fan - 2
    gadget = {frozenset(e): labels[at:at + size] for e, at in
              zip(h.edges, range(h.num_vertices, len(labels), size))}
    sets = []
    for i, e in enumerate(edges):
        enter_v, exit_v = walk[i], walk[i + 1]
        if enter_v == exit_v:
            raise WitnessError(
                f"1-cover pivots on {enter_v!r} at step {i + 1}; the "
                f"edge walk must pass through each edge", position=i)
        clique = gadget[e][:k]
        resident = frozenset(clique)
        sets.append(resident | {enter_v})
        sets.extend(resident | {y} for y in gadget[e][k:])
        sets.append(resident | {exit_v})
        if i < m - 1:
            current = set(resident) | {exit_v}
            for old, new in zip(clique, gadget[edges[i + 1]][:k - 1]):
                current.remove(old)
                current.add(new)
                sets.append(frozenset(current))
    if len(sets) != inst.target_length:
        raise VerificationError(f"transformed witness has length "
                                f"{len(sets)}, expected {inst.target_length}")
    cov = CoverSequence(inst.target, k, tuple(sets))
    require_valid(verify_cover(cov),
                  f"transformed witness of length {len(sets)}")
    return cov


def instance_metadata(inst):
    """Sidecar metadata for a serialized instance (JSON-ready dict)."""
    if isinstance(inst, RadiusReductionInstance):
        meta = {"reduction": "ham-radius", "threshold": inst.threshold}
    elif isinstance(inst, CoverReductionInstance):
        meta = {"reduction": "cover1-coverk", "fan_size": inst.fan_size,
                "target_length": inst.target_length}
    else:
        raise InvalidParameterError(
            f"unknown instance type {type(inst).__name__}")
    return dict(meta, k=inst.k,
                source_vertices=inst.source.num_vertices,
                source_edges=inst.source.num_edges,
                target_vertices=inst.target.num_vertices,
                target_edges=inst.target.num_edges)


def serialize_metadata(inst):
    return json.dumps(instance_metadata(inst), sort_keys=True) + "\n"
