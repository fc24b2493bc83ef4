"""Zero-cycle classes, edge partition, condensation, and the general
maximum redundant edge set.

Two nodes are equivalent when some zero-weight closed walk passes through
both.  Inside a class every minimum walk weight is pinned down rigidly
(d_ij = -d_ji, and d_ij = d_is + d_sj for any class member s), which is what
lets the redundancy problem split cleanly:

* slack intra-class edges (weight above the minimum walk weight) are always
  removable, all at once;
* between classes, everything except one cheapest crossing per ordered class
  pair is removable, and whether that last crossing goes too is decided on
  the condensation, whose cycles are all strictly positive, so the fast
  criterion applies;
* the tight intra-class edges form an unweighted reachability problem: which
  arcs of a strongly connected digraph can go while preserving reachability.
  That piece is NP-hard and goes to the MEG solver.

:func:`analyze` runs that split once per system; every solver and command
reads its distances, classes, edge buckets and condensation from there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .core import DistanceMatrix, Edge, PrecedenceGraph, min_walk_weights
from .errors import ExactLimitExceeded, LimitExceeded
from .meg import DEFAULT_EXACT_LIMIT, Digraph, meg_exact, meg_greedy, redundant_arcs


@dataclass(frozen=True)
class EdgePartition:
    """Edges routed by the zero-cycle classes.

    The edges inside class k split into ``intra_slack[k]`` (weight strictly
    above the minimum walk weight; always removable) and ``intra_tight[k]``
    (weight equal to it), each keyed only for classes that have such edges.
    ``cross[(a, b)]`` holds the edges from class a to class b, keyed only
    for nonempty pairs; ``cross_min[(a, b)]`` is the subset realizing the
    cheapest crossing, and ``cross_rep[(a, b)]`` its lexicographically
    smallest member, the pair's representing edge.
    """

    intra_slack: Mapping[int, frozenset[Edge]]
    intra_tight: Mapping[int, frozenset[Edge]]
    cross: Mapping[tuple[int, int], frozenset[Edge]]
    cross_min: Mapping[tuple[int, int], frozenset[Edge]]
    cross_rep: Mapping[tuple[int, int], Edge]


@dataclass(frozen=True)
class Condensation:
    """One node per class, its representative (smallest member); one edge
    per nonempty ordered class pair, weighted by the pair's cheapest
    rep-to-rep crossing: d(rep_a, s) + c_st + d(t, rep_b) at the cheapest
    crossing (s, t)."""

    reps: tuple[int, ...]
    edges: Mapping[tuple[int, int], Fraction]

    def as_graph(self) -> PrecedenceGraph:
        """The condensation renumbered onto nodes 1..K in class order."""
        index = {rep: k + 1 for k, rep in enumerate(self.reps)}
        return PrecedenceGraph(
            len(self.reps),
            {(index[a], index[b]): w for (a, b), w in self.edges.items()},
        )


@dataclass(frozen=True)
class Analysis:
    """Everything the decomposition derives from one system.

    ``d`` holds the system's minimum walk weights (a potential, the
    zero-cycle classes and the condensation's arcs), computed once; the
    edge buckets and the condensation are read off it, and
    ``removed_pairs`` holds the class-index pairs whose condensation edge
    is redundant.
    """

    d: DistanceMatrix
    edges: EdgePartition
    condensation: Condensation
    removed_pairs: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class MresResult:
    """A redundant edge set plus the strength of its guarantee.

    ``certified`` means every intra-class piece was solved exactly, so the
    set is a true maximum; otherwise it is maximal but possibly smaller
    than optimal.  ``analysis`` is the decomposition it was assembled from.
    """

    edges: frozenset[Edge]
    certified: bool
    analysis: Analysis = field(compare=False, repr=False)


def partition_edges(g: PrecedenceGraph, d: DistanceMatrix) -> EdgePartition:
    """Route every edge to its intra-class or cross-class bucket.

    ``d`` must be the distance matrix of ``g``: each edge is judged by its
    reduced cost r, exact only for that graph's weights.  Inside a class the
    minimum walk weight is a difference of potentials, so an edge is slack
    exactly when r > 0.  A crossing (s, t) of a class pair costs
    d(rep_a, s) + c_st + d(t, rep_b) = r_st + a term fixed by the pair, so
    the cheapest crossings are those whose r is the pair's
    ``d.class_arcs`` entry.
    """
    slack: dict[int, set[Edge]] = {}
    tight: dict[int, set[Edge]] = {}
    cross: dict[tuple[int, int], set[Edge]] = {}
    cheapest: dict[tuple[int, int], set[Edge]] = {}
    for (i, j), w in g.edges.items():
        r = d.reduced(i, j, w)
        a, b = d.class_of[i], d.class_of[j]
        if a == b:
            (slack if r > 0 else tight).setdefault(a, set()).add((i, j))
        else:
            cross.setdefault((a, b), set()).add((i, j))
            if r == d.class_arcs[(a, b)]:
                cheapest.setdefault((a, b), set()).add((i, j))
    return EdgePartition(
        intra_slack={k: frozenset(es) for k, es in slack.items()},
        intra_tight={k: frozenset(es) for k, es in tight.items()},
        cross={pair: frozenset(es) for pair, es in cross.items()},
        cross_min={pair: frozenset(es) for pair, es in cheapest.items()},
        cross_rep={pair: min(es) for pair, es in cheapest.items()},
    )


def condensation(d: DistanceMatrix) -> Condensation:
    """Collapse each class onto its smallest member.

    Every cycle of the result weighs strictly more than zero: a zero-weight
    closed walk through two representatives would have merged their
    classes.  The weight of pair (a, b) is its ``d.class_arcs`` cost
    r + potential[rep_b] - potential[rep_a], unscaled.  Another member as
    representative would shift every weight by a potential, which changes
    no cycle weight and no redundant pair.
    """
    reps = tuple(c[0] for c in d.classes)
    pot = d.potential
    edges = {
        (reps[a], reps[b]): Fraction(r + pot[reps[b]] - pot[reps[a]], d.scale)
        for (a, b), r in d.class_arcs.items()
    }
    return Condensation(reps, edges)


def condensation_redundant_pairs(d: DistanceMatrix) -> frozenset[tuple[int, int]]:
    """Class-index pairs whose condensation edge is redundant.

    The condensation has only strictly positive cycles, so the fast
    criterion gives its unique maximum redundant edge set: (a, b) goes when
    another out-edge (a, k) has c_ak + d(k, b) <= c_ab.  Classes are rigid,
    so the condensation's own minimum walk weights are those of ``d``.

    The test runs on the reduced costs r of ``d.class_arcs``, where the
    potentials cancel, and it is local: (a, b) goes when a class u other
    than a, at least reduced cost D from a, has an arc (u, b) with
    D + r_ub <= r_ab (no such walk to u uses (a, b): it would close a
    positive cycle through b).  One search from each class a settles it.
    """
    into: dict[int, list[tuple[int, int]]] = {}
    for (u, b), r in d.class_arcs.items():
        into.setdefault(b, []).append((u, r))
    removed = set()
    for a, arcs in d.class_succ.items():
        if len(arcs) < 2:
            continue
        detours = [(u, b, rab - rub) for b, rab in arcs for u, rub in into[b] if u != a]
        cost = d.settle(a, ((u, bound) for u, _, bound in detours))
        removed.update((a, b) for u, b, bound in detours if cost.get(u, bound + 1) <= bound)
    return frozenset(removed)


def analyze(g: PrecedenceGraph) -> Analysis:
    """Distances, edge partition, condensation and its redundant pairs of
    g, with one distance computation."""
    d = min_walk_weights(g)
    return Analysis(
        d, partition_edges(g, d), condensation(d), condensation_redundant_pairs(d)
    )


def redundant_edges(a: Analysis) -> frozenset[Edge]:
    """Every edge that the other edges imply, each judged alone: together
    they need not be removable (tied_optima's (1, 2) and (1, 3)).

    These are the slack intra-class edges; the tight arcs (s, t) whose head
    stays reachable over the other tight arcs (between class members, the
    walks of weight d_st are the walks over tight arcs); and the cross edges
    but the sole cheapest crossing of a pair whose condensation edge stays.
    """
    ep = a.edges
    tight = Digraph(a.d.n, frozenset().union(*ep.intra_tight.values()))
    out = set(redundant_arcs(tight)).union(*ep.intra_slack.values())
    for pair, edges in ep.cross.items():
        cheapest = ep.cross_min[pair]
        sole = len(cheapest) == 1 and pair not in a.removed_pairs
        out |= edges - cheapest if sole else edges
    return frozenset(out)


def max_redundant_edge_set(
    g: PrecedenceGraph,
    *,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
    allow_heuristic: bool = False,
) -> MresResult:
    """A maximum redundant edge set of an arbitrary feasible system.

    Assembled per the decomposition (see module docstring): all slack
    intra-class edges, all non-representing cross edges, the representing
    edges of pairs found redundant on the condensation, and per class the
    complement of a minimum equivalent graph of its tight edges.  A class
    with more than ``exact_limit`` tight edges, or whose exact search
    visits more than :data:`~dcsimp.meg.SEARCH_BUDGET` nodes, raises
    :class:`ExactLimitExceeded` unless ``allow_heuristic``, which solves it
    greedily instead.  With every class solved exactly the result is a
    certified maximum; the greedy fallback degrades it to maximal.
    """
    analysis = analyze(g)
    ep = analysis.edges
    out: set[Edge] = set()
    certified = True
    for pair, eij in ep.cross.items():
        if pair in analysis.removed_pairs:
            out |= eij
        else:
            out |= eij - {ep.cross_rep[pair]}
    out.update(*ep.intra_slack.values())
    for k in sorted(ep.intra_tight):
        members, tight = analysis.d.classes[k], ep.intra_tight[k]
        h = Digraph(g.n, tight)
        if len(tight) > exact_limit:
            over = f"over the exact limit of {exact_limit}"
        else:
            try:
                out |= tight - meg_exact(h, exact_limit)
                continue
            except LimitExceeded as exc:
                over = f"and {exc}"
        if not allow_heuristic:
            raise ExactLimitExceeded(
                f"the {len(members)}-node class of node {members[0]} has "
                f"{len(tight)} tight edges, {over}; allow the heuristic to "
                "accept a maximal (uncertified) result",
                analysis=analysis,
            )
        out |= tight - meg_greedy(h)
        certified = False
    return MresResult(frozenset(out), certified, analysis)
