"""Simplify systems of difference constraints ``x_i - x_j <= c_ij``.

The package finds maximum sets of constraints that can be deleted without
changing the solution set, and synthesizes minimum-cardinality equivalent
systems, with exact rational arithmetic end to end and brute-force oracles
to certify results on small inputs.
"""

from .core import (
    DistanceMatrix,
    Edge,
    PrecedenceGraph,
    Walk,
    WalkDecomposition,
    as_weight,
    decompose_walk,
    implies,
    min_walk_weights,
    normalize,
    walk_weight,
)
from .decomposition import (
    Analysis,
    Condensation,
    EdgePartition,
    MresResult,
    analyze,
    condensation,
    condensation_redundant_pairs,
    max_redundant_edge_set,
    partition_edges,
    redundant_edges,
)
from .errors import (
    DcsError,
    ExactLimitExceeded,
    IndexOutOfRange,
    InfeasibleSystem,
    LimitExceeded,
    NegativeSelfLoop,
    NodeCountMismatch,
    NotASubset,
    NotAWalk,
    ParseError,
    SameNode,
    SelfLoopDropped,
    ZeroWeightCycle,
)
from .fileformat import dump, dumps, load, loads
from .meg import Digraph, meg_exact, meg_greedy, reachability, same_reachability
from .redundancy import (
    find_redundant_edges,
    has_zero_weight_cycle,
    is_redundant_edge_set,
    mres_no_zero_cycles,
)
from .reduction import ReductionResult, equivalent_reduction
from .verify import (
    EquivalenceReport,
    brute_force_max_redundant,
    brute_force_redundant_edges,
    systems_equivalent,
)

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "Condensation",
    "DcsError",
    "Digraph",
    "DistanceMatrix",
    "Edge",
    "EdgePartition",
    "EquivalenceReport",
    "ExactLimitExceeded",
    "IndexOutOfRange",
    "InfeasibleSystem",
    "LimitExceeded",
    "MresResult",
    "NegativeSelfLoop",
    "NodeCountMismatch",
    "NotASubset",
    "NotAWalk",
    "ParseError",
    "PrecedenceGraph",
    "ReductionResult",
    "SameNode",
    "SelfLoopDropped",
    "Walk",
    "WalkDecomposition",
    "ZeroWeightCycle",
    "analyze",
    "as_weight",
    "brute_force_max_redundant",
    "brute_force_redundant_edges",
    "condensation",
    "condensation_redundant_pairs",
    "decompose_walk",
    "dump",
    "dumps",
    "equivalent_reduction",
    "find_redundant_edges",
    "has_zero_weight_cycle",
    "implies",
    "is_redundant_edge_set",
    "load",
    "loads",
    "max_redundant_edge_set",
    "meg_exact",
    "meg_greedy",
    "min_walk_weights",
    "mres_no_zero_cycles",
    "normalize",
    "partition_edges",
    "reachability",
    "redundant_edges",
    "same_reachability",
    "systems_equivalent",
    "walk_weight",
]
