"""k-radius and k-cover sequence toolkit.

Exact minimum normalized cycle weights in weighted de Bruijn graphs, bad-pair
accounting for cyclic sequences, verifiers and constructions for k-radius and
k-cover sequences, tiny-instance exact solvers, circulant max cut, and the
two hardness-reduction instance builders.
"""

from .binseq import (BadPairReport, CyclicBitString, characteristic,
                     construct_low_bad, count_bad_pairs, wk_exact)
from .debruijn import (DeBruijnGraph, OptimalCycle, ak, check_certificate,
                       min_normalized_cycle, zk)
from .errors import (BudgetError, InputError, InvalidParameterError,
                     ParseError, RadiuskitError, StructureError,
                     UnsupportedLengthError, VerificationError, WitnessError)
from .exact import (ExactResult, SearchBudget, exact_ck, exact_fk,
                    exact_maxcut)
from .graphs import (Graph, attach_pendants, circulant, complete,
                     complete_bipartite, cycle, line_graph, parse_graph,
                     path, serialize_graph)
from .hardness import (CoverReductionInstance, RadiusReductionInstance,
                       cover1_witness_to_coverk, hampath_witness_to_sequence,
                       reduce_cover1_to_coverk, reduce_hampath_to_radius)
from .radius import (BoundsReport, CoverSequence, VertexSequence, bounds,
                     construct_bipartite, cover_strategy_bipartite,
                     euler_radius1, linearize_cyclic, maxcut_circulant,
                     verify_cover, verify_radius)

__version__ = "0.1.0"
