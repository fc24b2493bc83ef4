"""Simplify systems of difference constraints ``x_i - x_j <= c_ij``.

The package finds maximum sets of constraints that can be deleted without
changing the solution set, and synthesizes minimum-cardinality equivalent
systems, with exact rational arithmetic end to end and exact checks of
equivalence and redundancy.
"""

from .core import (
    DistanceMatrix,
    PrecedenceGraph,
    Walk,
    implies,
    min_walk_weights,
)
from .decomposition import (
    Analysis,
    MresResult,
    analyze,
    condensation,
    condensation_redundant_pairs,
    max_redundant_edge_set,
    redundant_edges,
)
from .errors import (
    DcsError,
    IndexOutOfRange,
    InfeasibleSystem,
    NegativeSelfLoop,
    NodeCountMismatch,
    NotASubset,
    ParseError,
    SameNode,
    SelfLoopDropped,
)
from .fileformat import dumps, load, loads
from .reduction import equivalent_reduction
from .verify import EquivalenceReport, is_redundant_edge_set, systems_equivalent

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "DcsError",
    "DistanceMatrix",
    "EquivalenceReport",
    "IndexOutOfRange",
    "InfeasibleSystem",
    "MresResult",
    "NegativeSelfLoop",
    "NodeCountMismatch",
    "NotASubset",
    "ParseError",
    "PrecedenceGraph",
    "SameNode",
    "SelfLoopDropped",
    "Walk",
    "analyze",
    "condensation",
    "condensation_redundant_pairs",
    "dumps",
    "equivalent_reduction",
    "implies",
    "is_redundant_edge_set",
    "load",
    "loads",
    "max_redundant_edge_set",
    "min_walk_weights",
    "redundant_edges",
    "systems_equivalent",
]
