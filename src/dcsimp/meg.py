"""Minimum equivalent graph of an unweighted digraph.

Keep the fewest arcs that preserve every reachability i ~> j.  The
intra-class subproblem of the decomposition reduces to exactly this.  The
problem is NP-hard in general (Moyles & Thompson 1969), so the exact solver
is a bounded search and a greedy maximal fallback is provided.  Every
function takes a node count n and a frozenset of arcs (i, j) on 1..n,
i != j, as :func:`dcsimp.decomposition._class_digraphs` builds them, and
none is exported: a digraph's MEG is what ``max_redundant_edge_set``
keeps of its zero-weight system.

Over the exact limit, or once :func:`meg_exact` passes its budget and
returns ``None``, the decomposition runs the greedy on a
strong-connectivity :func:`certificate` of the class's tight arcs, which
runs the class search (:func:`dcsimp.core._components`) again on those
arcs alone: at most 2(|C| - 1) arcs for a class C, a fraction of a dense
class's, so the greedy has fewer to test and to keep.  The greedy itself
keeps an arc that is its head's only live in-arc or its tail's only live
out-arc without a search, since no digraph can drop it.

Every solver works on successor bitsets: ``succ[i]`` is a Python int whose
bit j is set when the arc (i, j) is present.  Dropping or restoring an arc
flips one bit, and :func:`_reach` answers every reachability question by a
breadth-first search whose next frontier is the union of the current
frontier's successor sets, so no adjacency structure is rebuilt per query.
"""

from __future__ import annotations

from typing import Iterable

from .core import _components

Arc = tuple[int, int]

# Search nodes meg_exact may visit before it gives up.  The benchmark's
# planted classes (18 tight arcs each) need at most a few hundred; the
# whole budget takes about 4 s on a 1,454-arc class on a 2-vCPU Xeon.
SEARCH_BUDGET = 100_000


def _successors(n: int, arcs: Iterable[Arc]) -> list[int]:
    """Successor bitsets, indexed 0..n (entry 0 unused)."""
    succ = [0] * (n + 1)
    for i, j in arcs:
        succ[i] |= 1 << j
    return succ


def _reach(succ: list[int], src: int, stop: int = 0) -> int:
    """Bitset of the nodes a walk from src reaches, src included.

    The search ends early once it meets a bit of ``stop``; the result then
    holds that bit but may miss other reachable nodes.
    """
    seen = frontier = 1 << src
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= succ[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & ~seen
        seen |= frontier
        if seen & stop:
            break
    return seen


def meg_greedy(n: int, arcs: frozenset[Arc]) -> frozenset[Arc]:
    """Drop arcs in lexicographic order whenever reachability survives.

    Checking just the arc being dropped suffices: replacement walks for
    earlier drops can reroute any use of this arc through the walk found
    here, which avoids it.  The result is minimal (no single kept arc can
    still go) but not necessarily minimum.

    An arc that is its head's only live in-arc, or its tail's only live
    out-arc, can never go, so it is kept without a search.  A tail's live
    out-degree is the popcount of its successor set; in-degrees are
    counted.
    """
    arcs = sorted(arcs)
    succ = _successors(n, arcs)
    indeg = [0] * (n + 1)
    for _, j in arcs:
        indeg[j] += 1
    for i, j in arcs:
        if indeg[j] == 1 or succ[i].bit_count() == 1:
            continue
        succ[i] ^= 1 << j
        if _reach(succ, i, 1 << j) >> j & 1:
            indeg[j] -= 1
        else:
            succ[i] |= 1 << j
    return frozenset((i, j) for i, j in arcs if succ[i] >> j & 1)


def certificate(n: int, arcs: frozenset[Arc]) -> frozenset[Arc]:
    """At most 2(n' - 1) of the arcs, n' the nodes they touch, with the
    reachability of all of them, for arcs strongly connected on those nodes.

    The class search (:func:`dcsimp.core._components`) records it when run
    on the sorted arcs: from the smallest node with an arc, the depth-first
    tree plus per other node the first arc out of its subtree whose head
    comes earliest.  Raises ``ValueError`` when the arcs are not strongly
    connected on the nodes they touch.
    """
    comp, _, kept = _components(n, sorted(arcs))
    if len({comp[v] for arc in arcs for v in arc}) > 1:
        raise ValueError("the arcs are not strongly connected on the nodes they touch")
    return frozenset(kept)


def redundant_arcs(n: int, arcs: frozenset[Arc]) -> frozenset[Arc]:
    """Arcs (i, j) whose head j stays reachable from i over the other arcs,
    each tested alone (:func:`meg_greedy` tests them in drop order)."""
    succ = _successors(n, arcs)
    out = []
    for i, j in arcs:
        succ[i] ^= 1 << j
        if _reach(succ, i, 1 << j) >> j & 1:
            out.append((i, j))
        succ[i] |= 1 << j
    return frozenset(out)


def meg_exact(n: int, arcs: frozenset[Arc]) -> frozenset[Arc] | None:
    """A minimum-cardinality arc subset preserving all reachabilities, or
    ``None`` once the search would visit more than :data:`SEARCH_BUDGET`
    nodes, its one bound.

    Branch and bound over drop/keep decisions per arc in lexicographic
    order.  The drop branch is tried first and is pruned when the arc has
    no replacement walk through the kept and undecided arcs (more deletions
    only make that worse).  Every leaf is a solution, by the argument of
    :func:`meg_greedy`: each drop leaves a walk that avoids the arcs dropped
    so far, so it reroutes any earlier replacement walk that used the arc.
    The first descent drops every arc it can, in order, so its leaf is
    :func:`meg_greedy`'s (an arc greedy keeps without a search fails the
    reach test too), and the result is the first minimum leaf in search
    order: greedy's whenever greedy is minimum.

    A branch is cut when ``kept + max(uncovered heads, uncovered tails)``
    reaches the incumbent's size.  The bound holds on every digraph: a node
    with an in-arc is reached from some other node, so any solution keeps
    an in-arc into it, and likewise an out-arc out of every node with one;
    each arc covers one head and one tail, so a branch needs at least that
    many more arcs than it has kept.  Only subtrees without a strictly
    smaller solution are cut, so the search meets the same improvements in
    the same order as without the bound.  Once the first leaf meets the
    bound at the root (a Hamiltonian cycle of a strongly connected digraph,
    for instance), every branch left is cut on its first visit.

    The search runs on an explicit stack, so its depth (one level per arc)
    is bounded by memory rather than by the interpreter's recursion limit.
    The live arcs (kept or undecided) are one set of successor bitsets;
    the drop branch clears a bit and an undo entry on the stack restores it
    before the keep branch runs.
    """
    arcs = sorted(arcs)
    m = len(arcs)
    best: list[Arc] = []
    size = m + 1  # no leaf keeps more than every arc
    live = _successors(n, arcs)
    tails = heads = 0
    for i, j in arcs:
        tails |= 1 << i
        heads |= 1 << j
    # entries: (idx, kept, covered tails, covered heads) visits a node of
    # the search tree; an arc (i, j) restores that dropped arc
    stack: list[tuple[int, ...]] = [(0, 0, 0, 0)]
    visits = 0
    while stack:
        entry = stack.pop()
        if len(entry) == 2:
            i, j = entry
            live[i] |= 1 << j
            continue
        visits += 1
        if visits > SEARCH_BUDGET:
            return None
        idx, kept, t_cov, h_cov = entry
        uncovered = max((tails & ~t_cov).bit_count(), (heads & ~h_cov).bit_count())
        if kept + uncovered >= size:
            continue
        if idx == m:
            best = [(i, j) for i, j in arcs if live[i] >> j & 1]
            size = len(best)
            continue
        i, j = arcs[idx]
        stack.append((idx + 1, kept + 1, t_cov | 1 << i, h_cov | 1 << j))
        live[i] ^= 1 << j
        if _reach(live, i, 1 << j) >> j & 1:
            stack.append((i, j))
            stack.append((idx + 1, kept, t_cov, h_cov))
        else:
            live[i] |= 1 << j
    return frozenset(best)
