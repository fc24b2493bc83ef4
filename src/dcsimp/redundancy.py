"""Redundant edges and redundant edge sets.

An edge set R is *redundant* when deleting all of R leaves every deleted
constraint still implied by the remaining system, i.e. the two systems have
the same solutions.  :func:`is_redundant_edge_set` checks that definition
directly; :func:`find_redundant_edges` is the fast per-edge criterion that
is exact whenever every cycle weighs strictly more than zero.
"""

from __future__ import annotations

from typing import Iterable

from .core import DistanceMatrix, Edge, PrecedenceGraph, min_walk_weights
from .errors import NotASubset, ZeroWeightCycle


def has_zero_weight_cycle(d: DistanceMatrix) -> bool:
    """True when some zero-cycle class of ``d`` has two or more members.

    Under feasibility no closed walk weighs less than zero, and a zero-weight
    cycle (self-loops are excluded) joins at least two nodes into one class,
    so the test is an exact detector.
    """
    return any(len(c) > 1 for c in d.classes)


def find_redundant_edges(g: PrecedenceGraph, d: DistanceMatrix) -> frozenset[Edge]:
    """All redundant edges of a graph whose cycles all weigh more than zero.

    Edge (i,j) is redundant exactly when some other out-edge (i,k) starts a
    detour i -> k ~> j costing at most c_ij.  The distances d come from the
    full graph; with strictly positive cycles a cheapest detour never needs
    the edge under test, which is what makes the shortcut sound.  With a
    zero-weight cycle present it is not (the detour may secretly ride over
    (i,j) itself), so that case is refused.
    """
    if has_zero_weight_cycle(d):
        raise ZeroWeightCycle(
            "fast redundancy criterion is unsound here: the system has a "
            "zero-weight cycle; use the decomposition solver instead"
        )
    out = []
    for (i, j), cij in g.edges.items():
        best = None
        for k, cik in g.successors(i):
            if k == j:
                continue
            dkj = d.get(k, j)
            if dkj is None:
                continue
            cand = cik + dkj
            if best is None or cand < best:
                best = cand
        if best is not None and best <= cij:
            out.append((i, j))
    return frozenset(out)


def is_redundant_edge_set(g: PrecedenceGraph, r: Iterable[Edge]) -> bool:
    """Decide redundancy of an edge set by recomputing distances without it.

    Every deleted edge (u,v) must keep a replacement walk u ~> v of weight
    at most c_uv in the remaining graph.  This is the definition itself:
    exponential nowhere, sound everywhere, zero cycles included.
    """
    rset = frozenset(r)
    if not rset <= g.edges.keys():
        raise NotASubset(f"{sorted(rset - g.edges.keys())} are not edges of the graph")
    if not rset:
        return True
    d = min_walk_weights(g.without(rset))
    for u, v in rset:
        duv = d.get(u, v)
        if duv is None or duv > g.edges[(u, v)]:
            return False
    return True


def mres_no_zero_cycles(g: PrecedenceGraph) -> frozenset[Edge]:
    """The unique maximum redundant edge set of a positive-cycle graph.

    With every cycle weight strictly positive, the redundant edges can all
    be removed together and no larger redundant set exists.
    """
    d = min_walk_weights(g)
    return find_redundant_edges(g, d)
