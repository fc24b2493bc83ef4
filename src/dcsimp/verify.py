"""Equivalence checking and the definitional redundancy check.

Two systems are equivalent when they admit exactly the same solutions, i.e.
each one's constraints are all implied by the other.  An edge set is
redundant when the graph without it still implies every deleted
constraint, that is when the graph and the graph without it are
equivalent, so :func:`is_redundant_edge_set` is one call of
:func:`systems_equivalent`, which, like :func:`~dcsimp.core.implies`,
answers by :meth:`~dcsimp.core.DistanceMatrix.unimplied`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .core import Edge, PrecedenceGraph, _potential, _Value, min_walk_weights
from .errors import InfeasibleSystem, NodeCountMismatch, NotASubset


class EquivalenceReport(_Value):
    """Outcome of an equivalence check.

    On failure ``witness`` names the first constraint, scanned in sorted
    order, that the other system does not imply, tagged with the side
    ("a" or "b") it came from.
    """

    __slots__ = ("equivalent", "witness")
    equivalent: bool
    witness: tuple[Edge, str] | None


def systems_equivalent(a: PrecedenceGraph, b: PrecedenceGraph) -> EquivalenceReport:
    """Check mutual implication of two feasible systems over the same nodes.

    Constraint (i,j) <= c of one side is implied by the other exactly when
    the other's minimum walk weight i ~> j exists and is at most c.
    Infeasible systems are refused with :class:`InfeasibleSystem`, the
    error :func:`~dcsimp.core.min_walk_weights` raises: every infeasible
    pair would otherwise be vacuously equivalent, which is never what a
    caller comparing artifacts wants.

    Each side's constraints are scanned in sorted order, and the first one
    not implied is the witness.  One the other side has as an edge at
    weight <= c is implied outright; the rest go to the other side's
    :meth:`~dcsimp.core.DistanceMatrix.unimplied`.

    a's distances are computed only to scan the b constraints that a does
    not hold outright.  When every constraint of a is implied by the
    feasible b, a is feasible too.  Otherwise, when a has a witness or b is
    infeasible, a's feasibility is decided by its Bellman-Ford pass alone,
    which builds no classes, so an infeasible a is refused with the same
    message and cycle and is reported before an infeasible b.  b's
    distances are let go first, so the two are never held at once.
    """
    if a.n != b.n:
        raise NodeCountMismatch(f"node counts differ: {a.n} vs {b.n}")
    try:
        db = min_walk_weights(b)
    except InfeasibleSystem:
        _potential(a)
        raise
    missing = db.unimplied(_not_held(a, b))
    del db
    if missing is not None:
        _potential(a)
        return EquivalenceReport(False, (missing[0], "a"))
    rest = _not_held(b, a)
    if rest and (missing := min_walk_weights(a).unimplied(rest)) is not None:
        return EquivalenceReport(False, (missing[0], "b"))
    return EquivalenceReport(True, None)


def _not_held(g: PrecedenceGraph, other: PrecedenceGraph) -> list[tuple[Edge, Fraction]]:
    """g's constraints that other does not hold as an edge at a weight <= c."""
    held = other.edges
    return [(e, c) for e, c in g.edges.items() if (w := held.get(e)) is None or w > c]


def is_redundant_edge_set(g: PrecedenceGraph, r: Iterable[Edge]) -> bool:
    """Decide redundancy of an edge set by the definition: g and g without
    it are equivalent, :func:`systems_equivalent` (g, g - r).

    Exponential nowhere, sound everywhere, zero cycles included.  The
    deleted edges are the only constraints of g that g - r does not hold,
    so they alone are checked, against g - r's distances; g holds every
    edge of g - r, so g's distances are never built.  An infeasible g is
    refused with its own negative cycle, whatever r is.
    """
    rset = frozenset(r)
    if not rset <= g.edges.keys():
        raise NotASubset(f"{sorted(rset - g.edges.keys())} are not edges of the graph")
    return systems_equivalent(g, g.without(rset)).equivalent
