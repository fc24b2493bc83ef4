"""Equivalent reduction: a minimum-size system with the same solutions.

Redundancy removal may only delete constraints, and with zero-weight cycles
the intra-class leftovers make it NP-hard to even find the best deletion.
Allowing *new* constraints sidesteps both problems: each multi-node class is
rewired into a single zero-weight cycle through its nodes, each surviving
class pair keeps one cheapest crossing edge, and the whole construction is
polynomial while meeting the minimum possible constraint count.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Edge, PrecedenceGraph, _Value
from .decomposition import Analysis, analyze


class ReductionResult(_Value):
    """The reduced system, how many constraints the rewrite saved (input
    count minus output count), and the analysis of the input it was built
    from, whose ``d.classes`` are the classes behind it; the analysis takes
    no part in ``==``, ``hash`` or the repr."""

    __slots__ = ("reduced", "removed_count", "analysis")
    _compared = ("reduced", "removed_count")
    reduced: PrecedenceGraph
    removed_count: int
    analysis: Analysis


def equivalent_reduction(g: PrecedenceGraph) -> ReductionResult:
    """Synthesize a minimum-cardinality system equivalent to g.

    Per class with at least two nodes, a cycle through the members in
    ascending order, each edge weighted by the minimum walk weight between
    its endpoints; the class identities force those weights to telescope to
    exactly zero.  Then the analysis's ``keep`` at its input weights: the
    representing edge of each class pair whose condensation edge survives.
    The edge count is therefore sum of multi-class sizes plus surviving
    condensation edges, which is the minimum achievable.
    """
    analysis = analyze(g)
    d = analysis.d
    edges: dict[Edge, Fraction] = {}
    for members in d.classes:
        if len(members) < 2:
            continue
        for q, i in enumerate(members):
            j = members[(q + 1) % len(members)]
            edges[(i, j)] = d.get(i, j)
    for e in analysis.keep:
        edges[e] = g.edges[e]
    reduced = PrecedenceGraph(g.n, edges)
    return ReductionResult(reduced, g.m - reduced.m, analysis)
