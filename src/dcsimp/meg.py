"""Minimum equivalent graph of an unweighted digraph.

Keep the fewest arcs that preserve every reachability i ~> j.  The
intra-class subproblem of the decomposition reduces to exactly this.  The
problem is NP-hard in general (Moyles & Thompson 1969).  A digraph is a
node count n and a frozenset of arcs (i, j) on 1..n, i != j, as
:func:`dcsimp.decomposition._class_digraphs` builds them.  Nothing here is
exported: a digraph's MEG is what ``max_redundant_edge_set`` keeps of its
zero-weight system.

Two routines answer it, and :func:`minimum_equivalent` alone picks which.
A class of at most :data:`EXACT_LIMIT` arcs gets the branch and bound over
its arcs (:func:`_search`) within :data:`SEARCH_BUDGET` visits, and its
answer is a minimum.  Any other class, or one whose search passes the
budget, gets the cycle cover of :mod:`dcsimp.cover`, which uses this
search's first descent; that module is compiled only when a class needs
it.  Its answer is minimal, and graded a minimum when it meets a matching
lower bound.

The search works on successor bitsets: ``succ[i]`` is a Python int whose
bit j is set when the arc (i, j) is present.  Dropping or restoring an arc
flips one bit, and :func:`_reach` answers every reachability question by a
breadth-first search whose next frontier is the union of the current
frontier's successor sets, so no adjacency structure is rebuilt per query.
"""

from __future__ import annotations

from typing import Iterable

Arc = tuple[int, int]

# Arcs of a class that the exact search may try.
EXACT_LIMIT = 20
# Search nodes the exact search may visit before it gives up.  The
# benchmark's planted classes (18 tight arcs each) need at most a few
# hundred; the whole budget takes about 4 s on a 1,454-arc class on a
# 2-vCPU Xeon.
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


def minimum_equivalent(n: int, arcs: frozenset[Arc]) -> tuple[frozenset[Arc], bool]:
    """The arcs to keep of a strongly connected digraph, and whether they
    are a minimum.

    A digraph of at most :data:`EXACT_LIMIT` arcs gets the whole search
    within :data:`SEARCH_BUDGET` visits.  Any other, or one whose search
    passes the budget, gets the cover fallback
    (:func:`dcsimp.cover.cycle_cover`): a minimal answer, graded a minimum
    only when it meets the matching bound.
    """
    if len(arcs) <= EXACT_LIMIT:
        kept, finished = _search(n, arcs, SEARCH_BUDGET)
        if finished:
            return kept, True
    from .cover import cycle_cover

    return cycle_cover(n, arcs)


def _search(
    n: int, arcs: frozenset[Arc], budget: int, last: frozenset[Arc] = frozenset()
) -> tuple[frozenset[Arc], bool]:
    """The first minimum-cardinality arc subset preserving all
    reachabilities in search order, and True; or, once the search would
    visit more than ``budget`` nodes, the best leaf found so far (every arc
    before the first) and False.

    Branch and bound over drop/keep decisions per arc in lexicographic
    order, the arcs of ``last``, a subset, after all others.  The drop
    branch is tried first and is pruned when the arc has no replacement
    walk through the kept and undecided arcs (more deletions only make
    that worse).  An arc that is its head's only live in-arc, or its
    tail's only live out-arc, has none, so it gets no drop branch and no
    search.  Every leaf is a solution: each drop leaves a walk that avoids
    the arcs dropped so far, so it reroutes any earlier replacement walk
    that used the arc.  The first descent drops every arc it can, in
    order, so its leaf is the lexicographic greedy's, a minimal solution
    (no single kept arc can still go), and the result is the first minimum
    leaf in search order: the greedy's whenever the greedy's is minimum.

    Once a leaf exists, a branch is cut when
    ``kept + max(uncovered heads, uncovered tails)`` reaches its size.
    The bound holds on every digraph: a node with an in-arc is reached
    from some other node, so any solution keeps an in-arc into it, and
    likewise an out-arc out of every node with one; each arc covers one
    head and one tail, so a branch needs at least that many more arcs than
    it has kept.  Only subtrees without a strictly smaller solution are
    cut, so the search meets the same improvements in the same order as
    without the bound.  Once the first leaf meets the bound at the root (a
    Hamiltonian cycle of a strongly connected digraph, for instance), every
    branch left is cut on its first visit.

    The search runs on an explicit stack, so its depth (one level per arc)
    is bounded by memory rather than by the interpreter's recursion limit.
    The live arcs (kept or undecided) are one set of successor bitsets, a
    tail's live out-degree their popcount, and ``indeg`` counts the live
    in-arcs; the drop branch clears a bit and an undo entry on the stack
    restores it before the keep branch runs.
    """
    arcs = sorted(arcs - last) + sorted(last)
    m = len(arcs)
    best, size = frozenset(arcs), m + 1  # no leaf yet, so nothing is cut
    live = _successors(n, arcs)
    indeg = [0] * (n + 1)
    tails = heads = 0
    for i, j in arcs:
        indeg[j] += 1
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
            indeg[j] += 1
            continue
        visits += 1
        if visits > budget:
            return best, False
        idx, kept, t_cov, h_cov = entry
        if size <= m:
            uncovered = max((tails & ~t_cov).bit_count(), (heads & ~h_cov).bit_count())
            if kept + uncovered >= size:
                continue
        if idx == m:
            best = frozenset((i, j) for i, j in arcs if live[i] >> j & 1)
            size = len(best)
            continue
        i, j = arcs[idx]
        bit = 1 << j
        stack.append((idx + 1, kept + 1, t_cov | 1 << i, h_cov | bit))
        if indeg[j] == 1 or live[i].bit_count() == 1:
            continue
        live[i] ^= bit
        if _reach(live, i, bit) & bit:
            indeg[j] -= 1
            stack.append((i, j))
            stack.append((idx + 1, kept, t_cov, h_cov))
        else:
            live[i] |= bit
    return best, True


def redundant_arcs(n: int, arcs: frozenset[Arc]) -> frozenset[Arc]:
    """Arcs (i, j) whose head j stays reachable from i over the other arcs,
    each tested alone (:func:`_search` tests them in drop order)."""
    succ = _successors(n, arcs)
    out = []
    for i, j in arcs:
        succ[i] ^= 1 << j
        if _reach(succ, i, 1 << j) >> j & 1:
            out.append((i, j))
        succ[i] |= 1 << j
    return frozenset(out)
