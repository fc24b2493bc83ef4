"""Equivalent reduction: a minimum-size system with the same solutions.

Redundancy removal may only delete constraints, and with zero-weight cycles
the intra-class leftovers make it NP-hard to even find the best deletion.
Allowing *new* constraints sidesteps both problems: each multi-node class is
rewired into a single zero-weight cycle through its nodes, each surviving
class pair becomes one constraint between the classes' smallest members,
and the whole construction is polynomial while meeting the minimum
possible constraint count.  It reads only the minimum walk weights, which
the solution set fixes, so equivalent systems reduce to the same system.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Edge, PrecedenceGraph, min_walk_weights
from .decomposition import _rep_arcs, condensation_redundant_pairs


def equivalent_reduction(g: PrecedenceGraph) -> PrecedenceGraph:
    """Synthesize a minimum-cardinality system equivalent to g, the same one
    for every system equivalent to g.

    Per class with at least two nodes, a cycle through the members in
    ascending order, each edge weighted by the minimum walk weight between
    its endpoints; the class identities force those weights to telescope to
    exactly zero.  Then per condensation arc that is not redundant, one edge
    between the two classes' smallest members at their minimum walk weight,
    which is the arc's own: every detour through other classes costs more.
    The edge count is therefore sum of multi-class sizes plus surviving
    condensation edges, which is the minimum achievable.
    """
    d = min_walk_weights(g)
    p, classes = d.potential, d.classes
    edges: dict[Edge, Fraction] = {}
    for members in classes:
        if len(members) > 1:
            for i, j in zip(members, members[1:] + members[:1]):
                edges[(i, j)] = Fraction(p[j] - p[i], d.scale)
    for a, b, w in _rep_arcs(d, condensation_redundant_pairs(d)):
        edges[(classes[a][0], classes[b][0])] = w
    return PrecedenceGraph._checked(g.n, edges)
