"""Minimum equivalent graph of an unweighted digraph.

Keep the fewest arcs that preserve every reachability i ~> j.  The
intra-class subproblem of the decomposition reduces to exactly this.  The
problem is NP-hard in general (Moyles & Thompson 1969), so the exact solver
is a bounded search and a greedy maximal fallback is provided.

Over the exact limit or the search budget, the decomposition runs the
greedy on a strong-connectivity :func:`certificate` of the class's tight
arcs, which runs the class search (:func:`dcsimp.core._components`) again
on those arcs alone: at most 2(|C| - 1) arcs for a class C, a fraction of
a dense class's, so the greedy has fewer to test and to keep.  The greedy
itself keeps an arc that is its head's only live in-arc or its tail's
only live out-arc without a search, since no digraph can drop it.

Every solver works on successor bitsets: ``succ[i]`` is a Python int whose
bit j is set when the arc (i, j) is present.  Dropping or restoring an arc
flips one bit, and :func:`_reach` answers every reachability question by a
breadth-first search whose next frontier is the union of the current
frontier's successor sets, so no adjacency structure is rebuilt per query.

The exact search cuts a branch with a degree-deficit bound: every node with
an in-arc (out-arc) must keep one, and one arc covers one head and one
tail, so a branch needs at least as many more arcs as the larger count of
nodes still lacking a kept in-arc or out-arc.  It runs on an explicit
stack, so deep searches do not depend on Python's recursion limit, and
it gives up after :data:`SEARCH_BUDGET` search nodes, so no input keeps it
running for hours; which classes it gets is the decomposition's choice.
"""

from __future__ import annotations

from typing import Iterable

from .core import _components, _Value
from .errors import LimitExceeded

Arc = tuple[int, int]

# Search nodes meg_exact may visit before it gives up.  The benchmark's
# planted classes (18 tight arcs each) need at most a few hundred; the
# whole budget takes about 4 s on a 1,454-arc class on a 2-vCPU Xeon.
SEARCH_BUDGET = 100_000


class Digraph(_Value):
    """Unweighted digraph on nodes 1..n without self-loops."""

    __slots__ = ("n", "arcs")
    n: int
    arcs: frozenset[Arc]

    def __post_init__(self):
        object.__setattr__(self, "arcs", frozenset(self.arcs))
        if self.n < 0:
            raise ValueError("node count must be nonnegative")
        for i, j in self.arcs:
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"arc ({i},{j}) outside nodes 1..{self.n}")
            if i == j:
                raise ValueError(f"self-loop ({i},{i}) not allowed")


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


def meg_greedy(h: Digraph) -> frozenset[Arc]:
    """Drop arcs in lexicographic order whenever reachability survives.

    Checking just the arc being dropped suffices: replacement walks for
    earlier drops can reroute any use of this arc through the walk found
    here, which avoids it.  The result is minimal (no single kept arc can
    still go) but not necessarily minimum.

    An arc that is its head's only live in-arc, or its tail's only live
    out-arc, can never go, so it is kept without a search.
    """
    arcs = sorted(h.arcs)
    succ = _successors(h.n, arcs)
    outdeg = [0] * (h.n + 1)
    indeg = [0] * (h.n + 1)
    for i, j in arcs:
        outdeg[i] += 1
        indeg[j] += 1
    for i, j in arcs:
        if outdeg[i] == 1 or indeg[j] == 1:
            continue
        succ[i] ^= 1 << j
        if _reach(succ, i, 1 << j) >> j & 1:
            outdeg[i] -= 1
            indeg[j] -= 1
        else:
            succ[i] |= 1 << j
    return frozenset((i, j) for i, j in arcs if succ[i] >> j & 1)


def certificate(h: Digraph) -> Digraph:
    """A subgraph of at most 2(n' - 1) arcs, n' the nodes h touches, with
    the reachability of h, for h strongly connected on those nodes.

    The class search (:func:`dcsimp.core._components`) records it when run
    on h's own sorted arcs: from the smallest node with an arc, the
    depth-first tree plus per other node the first arc out of its subtree
    whose head comes earliest.  Raises ``ValueError`` when h is not
    strongly connected on the nodes it touches.
    """
    comp, _, kept = _components(h.n, sorted(h.arcs))
    if len({comp[v] for arc in h.arcs for v in arc}) > 1:
        raise ValueError("the arcs are not strongly connected on the nodes they touch")
    return Digraph(h.n, frozenset(kept))


def redundant_arcs(h: Digraph) -> frozenset[Arc]:
    """Arcs (i, j) whose head j stays reachable from i over the other arcs,
    each tested alone (:func:`meg_greedy` tests them in drop order)."""
    succ = _successors(h.n, h.arcs)
    out = []
    for i, j in h.arcs:
        succ[i] ^= 1 << j
        if _reach(succ, i, 1 << j) >> j & 1:
            out.append((i, j))
        succ[i] |= 1 << j
    return frozenset(out)


def meg_exact(h: Digraph) -> frozenset[Arc]:
    """A minimum-cardinality arc subset preserving all reachabilities.

    Branch and bound over drop/keep decisions per arc in lexicographic
    order, seeded with the greedy solution.  The drop branch is tried first
    and is pruned when the arc has no replacement walk through the kept and
    undecided arcs (more deletions only make that worse).  Every leaf is a
    solution, by the argument of :func:`meg_greedy`: each drop leaves a walk
    that avoids the arcs dropped so far, so it reroutes any earlier
    replacement walk that used the arc.

    A branch is cut when ``kept + max(uncovered heads, uncovered tails)``
    reaches the incumbent's size.  The bound holds on every digraph: a node
    with an in-arc in h is reached from some other node, so any solution
    keeps an in-arc into it, and likewise an out-arc out of every node with
    one; each arc covers one head and one tail, so a branch needs at least
    that many more arcs than it has kept.  Only subtrees without a strictly
    smaller solution are cut, so the search meets the same improvements in
    the same order as without the bound.  At the root this returns greedy
    at once whenever greedy already meets the bound (a Hamiltonian cycle of
    a strongly connected digraph, for instance).

    The search runs on an explicit stack, so its depth (one level per arc)
    is bounded by memory rather than by the interpreter's recursion limit.
    The live arcs (kept or undecided) are one set of successor bitsets;
    the drop branch clears a bit and an undo entry on the stack restores it
    before the keep branch runs.  Raises :class:`LimitExceeded` when the
    search would visit more than :data:`SEARCH_BUDGET` nodes, its one bound.
    """
    arcs = sorted(h.arcs)
    m = len(arcs)
    best = meg_greedy(h)
    live = _successors(h.n, arcs)
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
            raise LimitExceeded(
                f"the exact search passed its budget of {SEARCH_BUDGET} nodes"
            )
        idx, kept, t_cov, h_cov = entry
        uncovered = max((tails & ~t_cov).bit_count(), (heads & ~h_cov).bit_count())
        if kept + uncovered >= len(best):
            continue
        if idx == m:
            best = [(i, j) for i, j in arcs if live[i] >> j & 1]
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
