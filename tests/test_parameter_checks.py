"""Each public entry point refuses a bad parameter with its own error."""

from fractions import Fraction

import pytest

from radiuskit.binseq import (CyclicBitString, characteristic,
                              count_bad_pairs, wk_brute, wk_exact)
from radiuskit.debruijn import check_certificate, zk
from radiuskit.errors import (InputError, InvalidParameterError,
                              VerificationError)
from radiuskit.exact import exact_ck, exact_fk
from radiuskit.graphs import (Graph, attach_pendants, circulant, complete,
                              line_graph, path)
from radiuskit.hardness import instance_metadata, reduce_cover1_to_coverk
from radiuskit.radius import (VertexSequence, construct_bipartite,
                              linearize_cyclic, maxcut_circulant,
                              verify_radius)

EDGELESS = Graph(["a", "b", "c", "d"])
TRIANGLE = complete(3)

CASES = [
    (lambda: count_bad_pairs(CyclicBitString((0, 1)), 0),
     InvalidParameterError, "k must be >= 1"),
    (lambda: count_bad_pairs(CyclicBitString((0,)), 1),
     InvalidParameterError, "at least 2 symbols"),
    (lambda: wk_brute(1, 0), InvalidParameterError, "length must be >= 1"),
    (lambda: wk_exact(1, 4, method="greedy"),
     InvalidParameterError, "unknown method 'greedy'"),
    (lambda: characteristic(["a"], {"a": 2}), InputError, "must be 0 or 1"),
    # every other check passes: the potentials are 2 integers
    (lambda: check_certificate(1, 2, Fraction(1 << 61), [0, 0], [0, 1]),
     VerificationError, "int64 headroom"),
    (lambda: zk(0), InvalidParameterError, "k must be >= 1"),
    (lambda: exact_fk(TRIANGLE, 1, mode="spiral"),
     InvalidParameterError, "unknown mode 'spiral'"),
    (lambda: exact_ck(EDGELESS, 1),
     InvalidParameterError, "at least one edge"),
    (lambda: TRIANGLE.neighbors("v9"), InputError, "unknown vertex 'v9'"),
    (lambda: complete(0), InvalidParameterError, "need n >= 1"),
    (lambda: path(0), InvalidParameterError, "need n >= 1"),
    (lambda: circulant(2, 1), InvalidParameterError, "need n >= 3"),
    (lambda: line_graph(EDGELESS),
     InvalidParameterError, "line graph needs at least one edge"),
    (lambda: attach_pendants(TRIANGLE, -1),
     InvalidParameterError, "pendant count must be >= 0"),
    (lambda: reduce_cover1_to_coverk(TRIANGLE, 1),
     InvalidParameterError, "reduction needs k >= 2"),
    (lambda: reduce_cover1_to_coverk(EDGELESS, 2),
     InvalidParameterError, "source graph needs at least one edge"),
    (lambda: instance_metadata(TRIANGLE),
     InvalidParameterError, "unknown instance type Graph"),
    (lambda: VertexSequence(TRIANGLE, ("v1",), mode="spiral"),
     InvalidParameterError, "unknown mode 'spiral'"),
    (lambda: verify_radius(VertexSequence(TRIANGLE, ("v1", "v2")), 0),
     InvalidParameterError, "k must be >= 1"),
    (lambda: linearize_cyclic(VertexSequence(TRIANGLE, ("v1", "v2")), 1),
     InvalidParameterError, "expected a cyclic sequence"),
    (lambda: construct_bipartite(2, 2, 0),
     InvalidParameterError, "k must be >= 1"),
    (lambda: construct_bipartite(-1, 2, 1),
     InvalidParameterError, "m and n must be nonnegative"),
    (lambda: maxcut_circulant(2, 1), InvalidParameterError, "need n >= 3"),
]


@pytest.mark.parametrize("call,error,fragment", CASES)
def test_parameter_check(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()


def test_graph_equality_with_a_non_graph_is_not_implemented():
    assert TRIANGLE.__eq__("v1 v2") is NotImplemented
    assert TRIANGLE != "v1 v2"
