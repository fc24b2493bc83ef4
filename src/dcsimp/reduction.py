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
from .decomposition import (
    Analysis,
    Condensation,
    Partition,
    RepresentativePolicy,
    analyze,
)


@dataclass(frozen=True)
class ReductionResult:
    """The reduced system, the node partition behind it, how many
    constraints the rewrite saved (input count minus output count), and the
    analysis of the input it was built from."""

    reduced: PrecedenceGraph
    partition: Partition
    removed_count: int
    analysis: Analysis = field(compare=False, repr=False)


def equivalent_reduction(
    g: PrecedenceGraph, *, representative: RepresentativePolicy = "smallest"
) -> ReductionResult:
    """Synthesize a minimum-cardinality system equivalent to g.

    Per class with at least two nodes, a cycle through the members in
    ascending order, each edge weighted by the minimum walk weight between
    its endpoints; the class identities force those weights to telescope to
    exactly zero.  Per ordered class pair whose condensation edge is not
    redundant, the pair's representing edge at its original weight.  The
    edge count is therefore sum of multi-class sizes plus surviving
    condensation edges, which is the minimum achievable.
    """
    analysis = analyze(g, representative)
    d, p, ep = analysis.d, analysis.partition, analysis.edges
    edges: dict[Edge, Fraction] = {}
    for members in p.classes:
        if len(members) < 2:
            continue
        order = sorted(members)
        for q, i in enumerate(order):
            j = order[(q + 1) % len(order)]
            edges[(i, j)] = d.get(i, j)
    for pair in ep.cross:
        if pair in analysis.removed_pairs:
            continue
        s, t = ep.cross_rep[pair]
        edges[(s, t)] = g.edges[(s, t)]
    reduced = PrecedenceGraph(g.n, edges)
    return ReductionResult(reduced, p, g.m - reduced.m, analysis)


def er_condensation(r: ReductionResult) -> Condensation:
    """Condense a reduction onto the class representatives.

    Distances come from the analysis the reduction was built from, so they
    always belong to its input graph.  Each ordered class pair keeps at most
    one edge in the reduction, so the collapse is direct; the result equals
    the condensation of the original graph with its redundant edges
    deleted, node-, edge-, and weight-exact.
    """
    p, d = r.partition, r.analysis.d
    edges: dict[tuple[int, int], Fraction] = {}
    for (u, v), w in r.reduced.edges.items():
        ci, cj = p.class_of[u], p.class_of[v]
        if ci == cj:
            continue
        va, vb = p.reps[ci], p.reps[cj]
        edges[(va, vb)] = d.get(va, u) + w + d.get(v, vb)
    return Condensation(p.reps, edges)
