"""Equivalence checking and the definitional redundancy check.

Two systems are equivalent when they admit exactly the same solutions, i.e.
each one's constraints are all implied by the other.  An edge set is
redundant when the graph without it still implies every deleted
constraint.  Both questions, like :func:`~dcsimp.core.implies`, are
answered by :meth:`~dcsimp.core.DistanceMatrix.unimplied`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .core import Edge, PrecedenceGraph, _Value, min_walk_weights
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
    Infeasible systems are refused (the distance computation raises): every
    infeasible pair would otherwise be vacuously equivalent, which is never
    what a caller comparing artifacts wants.

    Each side's constraints are scanned in sorted order, and the first one
    not implied is the witness.  One the other side has as an edge at
    weight <= c is implied outright; the rest go to the other side's
    :meth:`~dcsimp.core.DistanceMatrix.unimplied`.

    a's distances are computed only when that answer needs them: to scan
    the b constraints that a does not hold outright, or to refuse an
    infeasible a when a has a witness.  When every constraint of a is
    implied by the feasible b, a is feasible too.  An infeasible a is
    reported before an infeasible b.  b's distances are let go first, so
    the two are never held at once.
    """
    if a.n != b.n:
        raise NodeCountMismatch(f"node counts differ: {a.n} vs {b.n}")
    try:
        db = min_walk_weights(b)
    except InfeasibleSystem:
        min_walk_weights(a)
        raise
    missing = db.unimplied(_not_held(a, b))
    del db
    if missing is not None:
        min_walk_weights(a)
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
    """Decide redundancy of an edge set by recomputing distances without it.

    Every deleted edge (u,v) must keep a replacement walk u ~> v of weight
    at most c_uv in the remaining graph.  This is the definition itself:
    exponential nowhere, sound everywhere, zero cycles included.

    An infeasible g is refused, as :func:`systems_equivalent` refuses it:
    a system without solutions implies every constraint.  When every
    deleted edge is implied, g has the remaining graph's solutions, so only
    a negative answer needs g's own distance computation to check that.
    """
    rset = frozenset(r)
    if not rset <= g.edges.keys():
        raise NotASubset(f"{sorted(rset - g.edges.keys())} are not edges of the graph")
    d = min_walk_weights(g.without(rset))
    if d.unimplied((e, g.edges[e]) for e in rset) is None:
        return True
    min_walk_weights(g)
    return False
