"""Equivalent reduction: a minimum-size system with the same solutions.

Redundancy removal may only delete constraints, and with zero-weight cycles
the intra-class leftovers make it NP-hard to even find the best deletion.
Allowing *new* constraints sidesteps both problems: each multi-node class is
rewired into a single zero-weight cycle through its nodes, each surviving
class pair keeps one cheapest crossing edge, and the whole construction is
polynomial while meeting the minimum possible constraint count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core import Edge, PrecedenceGraph
from .decomposition import Analysis, analyze


@dataclass(frozen=True)
class ReductionResult:
    """The reduced system, how many constraints the rewrite saved (input
    count minus output count), and the analysis of the input it was built
    from, whose ``d.classes`` are the classes behind it."""

    reduced: PrecedenceGraph
    removed_count: int
    analysis: Analysis = field(compare=False, repr=False)


def equivalent_reduction(g: PrecedenceGraph) -> ReductionResult:
    """Synthesize a minimum-cardinality system equivalent to g.

    Per class with at least two nodes, a cycle through the members in
    ascending order, each edge weighted by the minimum walk weight between
    its endpoints; the class identities force those weights to telescope to
    exactly zero.  Per ordered class pair whose condensation edge is not
    redundant, the pair's representing edge at its original weight.  The
    edge count is therefore sum of multi-class sizes plus surviving
    condensation edges, which is the minimum achievable.
    """
    analysis = analyze(g)
    d, ep = analysis.d, analysis.edges
    edges: dict[Edge, Fraction] = {}
    for members in d.classes:
        if len(members) < 2:
            continue
        for q, i in enumerate(members):
            j = members[(q + 1) % len(members)]
            edges[(i, j)] = d.get(i, j)
    for pair in ep.cross:
        if pair in analysis.removed_pairs:
            continue
        s, t = ep.cross_rep[pair]
        edges[(s, t)] = g.edges[(s, t)]
    reduced = PrecedenceGraph(g.n, edges)
    return ReductionResult(reduced, g.m - reduced.m, analysis)
