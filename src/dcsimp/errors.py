"""Exceptions and warning categories shared across the package.  No solver
limit raises: a class the exact MEG search cannot finish gets the cover
fallback, graded certified only when it meets the matching bound
(:func:`~dcsimp.meg.minimum_equivalent`)."""

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


class NotASubset(DcsError):
    """An edge (or arc) set refers to members outside the host graph."""


class NodeCountMismatch(DcsError):
    """Two systems can only be compared over the same node set."""


class SelfLoopDropped(UserWarning):
    """A vacuous self-loop constraint (0 <= c) was dropped while parsing."""
