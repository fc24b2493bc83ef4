"""Exceptions and warning categories shared across the package."""

from __future__ import annotations


class DcsError(Exception):
    """Base class for every error this package raises on purpose."""


class ParseError(DcsError):
    """The input text does not follow the constraint-file grammar."""


class IndexOutOfRange(DcsError):
    """A node id lies outside 1..n."""


class InfeasibleSystem(DcsError):
    """The constraints admit no solution: a negative-weight closed walk exists.

    When available, ``cycle`` carries a witness walk whose weight is negative.
    """

    def __init__(self, message: str, cycle=None):
        super().__init__(message)
        self.cycle = cycle


class NegativeSelfLoop(InfeasibleSystem):
    """A constraint x_i - x_i <= c with c < 0; unsatisfiable on its own."""


class SameNode(DcsError):
    """An implication query needs two distinct nodes."""


class NotAWalk(DcsError):
    """A node sequence steps over a pair that is not an edge of the graph."""


class ZeroWeightCycle(DcsError):
    """The fast redundancy criterion was asked to run on a graph with a
    zero-weight cycle, where it is unsound."""


class NotASubset(DcsError):
    """An edge (or arc) set refers to members outside the host graph."""


class NodeCountMismatch(DcsError):
    """Two systems can only be compared over the same node set."""


class LimitExceeded(DcsError):
    """An exhaustive search was asked to exceed its configured size limit."""


class ExactLimitExceeded(LimitExceeded):
    """An exact intra-class solve was refused and no fallback was allowed.

    When available, ``analysis`` carries the decomposition the refused solve
    came from, so a caller can still report what needed no solve.
    """

    def __init__(self, message: str, analysis=None):
        super().__init__(message)
        self.analysis = analysis


class SelfLoopDropped(UserWarning):
    """A vacuous self-loop constraint (0 <= c) was dropped during normalization."""
