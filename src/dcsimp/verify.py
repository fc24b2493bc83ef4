"""Equivalence checking and exhaustive certification oracles.

Two systems are equivalent when they admit exactly the same solutions, i.e.
each one's constraints are all implied by the other.  The brute-force
routines below are test references only, certifying the solvers on
desk-sized inputs: they enumerate rather than decompose, sharing only the
distance primitive and the definitional set check, never solver logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby

from .core import Edge, PrecedenceGraph, min_walk_weights
from .errors import LimitExceeded, NodeCountMismatch
from .redundancy import is_redundant_edge_set

DEFAULT_ORACLE_LIMIT = 16


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of an equivalence check.

    On failure ``witness`` names the first constraint, scanned in sorted
    order, that the other system does not imply, tagged with the side
    ("a" or "b") it came from.
    """

    equivalent: bool
    witness: tuple[Edge, str] | None


def systems_equivalent(a: PrecedenceGraph, b: PrecedenceGraph) -> EquivalenceReport:
    """Check mutual implication of two feasible systems over the same nodes.

    Constraint (i,j) <= c of one side is implied by the other exactly when
    the other's minimum walk weight i ~> j exists and is at most c.
    Infeasible systems are refused (the distance computation raises): every
    infeasible pair would otherwise be vacuously equivalent, which is never
    what a caller comparing artifacts wants.

    Each side's constraints are scanned in sorted order, grouped by tail i,
    and the first one not implied is the witness.  One the other side has
    as an edge at weight <= c is implied outright.  The others hold when the
    least reduced cost D from i's class to j's has D <= floor(c·scale) -
    potential[j] + potential[i]; one search from i's class settles them all.
    """
    if a.n != b.n:
        raise NodeCountMismatch(f"node counts differ: {a.n} vs {b.n}")
    da = min_walk_weights(a)
    db = min_walk_weights(b)
    for g, other, d, side in ((a, b, db, "a"), (b, a, da, "b")):
        p, of = d.potential, d.class_of
        for i, tail in groupby(sorted(g.edges.items()), key=lambda e: e[0][0]):
            bounds = {
                j: c.numerator * d.scale // c.denominator - p[j] + p[i]
                for (_, j), c in tail
                if other.edges.get((i, j), c + 1) > c
            }
            cost = d.settle(of[i], ((of[j], x) for j, x in bounds.items()))
            for j, x in bounds.items():
                if cost.get(of[j], x + 1) > x:
                    return EquivalenceReport(False, ((i, j), side))
    return EquivalenceReport(True, None)


def brute_force_redundant_edges(g: PrecedenceGraph) -> frozenset[Edge]:
    """Edges redundant on their own, each checked by deletion from scratch."""
    return frozenset(e for e in g.edges if is_redundant_edge_set(g, {e}))


def brute_force_max_redundant(
    g: PrecedenceGraph, limit: int = DEFAULT_ORACLE_LIMIT
) -> tuple[int, list[frozenset[Edge]]]:
    """All maximum redundant edge sets, by descending-cardinality enumeration.

    Any member of a redundant edge set is redundant as a singleton (subsets
    of redundant sets are redundant), so candidates are confined to the
    singleton survivors; within that universe every subset is tested, larger
    sizes first, and all hits at the first successful size are returned.
    The empty set always qualifies, so a graph with nothing redundant
    reports (0, [frozenset()]).
    """
    if g.m > limit:
        raise LimitExceeded(f"{g.m} edges exceed the oracle limit of {limit}")
    universe = sorted(brute_force_redundant_edges(g))
    for size in range(len(universe), -1, -1):
        hits = [
            frozenset(combo)
            for combo in combinations(universe, size)
            if is_redundant_edge_set(g, combo)
        ]
        if hits:
            return size, hits
    raise AssertionError("unreachable: the empty set is always redundant")
