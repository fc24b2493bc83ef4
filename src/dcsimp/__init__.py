"""Simplify systems of difference constraints ``x_i - x_j <= c_ij``.

The package finds maximum sets of constraints that can be deleted without
changing the solution set, and synthesizes minimum-cardinality equivalent
systems, with exact rational arithmetic end to end and exact checks of
equivalence and redundancy.
"""

from importlib import import_module

from .core import (
    DistanceMatrix,
    PrecedenceGraph,
    Walk,
    implies,
    min_walk_weights,
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

# The solvers' names, each with the submodule that defines it, are bound on
# first access (PEP 562), and so are those submodules: a command compiles
# only the modules it runs.  core, errors and fileformat stay eager, in this
# order, so that core.py compiles before cli.py: with all of them lazy,
# `import dcsimp.cli` without cached bytecode peaked at 15.69 MB against
# 15.10 (median of 12 child runs).
_LAZY = {
    "Analysis": "decomposition",
    "MresResult": "decomposition",
    "analyze": "decomposition",
    "condensation": "decomposition",
    "condensation_redundant_pairs": "decomposition",
    "max_redundant_edge_set": "decomposition",
    "redundant_edges": "decomposition",
    "equivalent_reduction": "decomposition",
    "EquivalenceReport": "verify",
    "is_redundant_edge_set": "verify",
    "systems_equivalent": "verify",
}
_SUBMODULES = ("decomposition", "meg", "verify")

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


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_SUBMODULES})
