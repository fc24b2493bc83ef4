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
from typing import Literal, Mapping

from .core import DistanceMatrix, Edge, PrecedenceGraph, min_walk_weights
from .errors import ExactLimitExceeded
from .meg import DEFAULT_EXACT_LIMIT, Digraph, meg_exact, meg_greedy, redundant_arcs

RepresentativePolicy = Literal["smallest", "largest"]


@dataclass(frozen=True)
class Partition:
    """Node classes of the zero-closed-walk relation.

    Classes are ordered by smallest member, so their indices do not depend
    on the representative policy.  ``class_of`` maps node -> class index.
    """

    classes: tuple[frozenset[int], ...]
    reps: tuple[int, ...]
    class_of: Mapping[int, int]


@dataclass(frozen=True)
class EdgePartition:
    """Edges routed by the node partition.

    ``intra[k]`` holds the edges inside class k, split into ``intra_slack[k]``
    (weight strictly above the minimum walk weight; always removable) and
    ``intra_tight[k]`` (weight equal to it).  ``cross[(a, b)]`` holds the
    edges from class a to class b, keyed only for nonempty pairs;
    ``cross_min[(a, b)]`` is the subset realizing the cheapest
    rep-to-rep crossing, and ``cross_rep[(a, b)]`` its lexicographically
    smallest member, the pair's representing edge.
    """

    intra: tuple[frozenset[Edge], ...]
    intra_slack: tuple[frozenset[Edge], ...]
    intra_tight: tuple[frozenset[Edge], ...]
    cross: Mapping[tuple[int, int], frozenset[Edge]]
    cross_min: Mapping[tuple[int, int], frozenset[Edge]]
    cross_rep: Mapping[tuple[int, int], Edge]

    @property
    def cross_all(self) -> frozenset[Edge]:
        return frozenset(e for es in self.cross.values() for e in es)

    @property
    def cross_min_all(self) -> frozenset[Edge]:
        return frozenset(e for es in self.cross_min.values() for e in es)

    @property
    def cross_rep_all(self) -> frozenset[Edge]:
        return frozenset(self.cross_rep.values())


@dataclass(frozen=True)
class Condensation:
    """One node per class (its representative); one edge per nonempty
    ordered class pair, weighted by the pair's cheapest rep-to-rep crossing:
    d(rep_a, s) + c_st + d(t, rep_b) at the representing edge (s, t)."""

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
    zero-cycle classes and the class-to-class matrix), computed once; the
    partition, edge buckets and condensation are read off it, and
    ``removed_pairs`` holds the class-index pairs whose condensation edge is
    redundant.
    """

    d: DistanceMatrix
    partition: Partition
    edges: EdgePartition
    condensation: Condensation
    removed_pairs: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the maximum redundant edge set solver.

    ``exact_limit`` bounds the arcs per intra-class exact MEG solve; above
    it the solve either falls back to greedy (``allow_heuristic``) or raises.
    The representative policy only matters for exercising independence
    properties; results are equivalent either way.
    """

    exact_limit: int = DEFAULT_EXACT_LIMIT
    allow_heuristic: bool = False
    representative: RepresentativePolicy = "smallest"


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


def equivalence_classes(
    d: DistanceMatrix, *, representative: RepresentativePolicy = "smallest"
) -> Partition:
    """Group nodes connected by zero-weight closed walks.

    These are the classes ``d`` already holds: a closed walk weighs the sum
    of its reduced costs, which are all non-negative, so it weighs zero
    exactly when every arc on it has reduced cost zero, and the classes are
    the strongly connected components of those arcs.
    """
    classes = tuple(frozenset(c) for c in d.classes)
    class_of = dict(zip(range(1, d.n + 1), d.class_of[1:]))
    if representative == "smallest":
        reps = tuple(c[0] for c in d.classes)
    elif representative == "largest":
        reps = tuple(c[-1] for c in d.classes)
    else:
        raise ValueError(f"unknown representative policy {representative!r}")
    return Partition(classes, reps, class_of)


def partition_edges(
    g: PrecedenceGraph, d: DistanceMatrix, p: Partition
) -> EdgePartition:
    """Route every edge to its intra-class or cross-class bucket.

    ``d`` must be the distance matrix of ``g``: each edge is judged by its
    reduced cost r, exact only for that graph's weights.  Inside a class the
    minimum walk weight is a difference of potentials, so an edge is slack
    exactly when r > 0.  A crossing (s, t) of a class pair costs
    d(rep_a, s) + c_st + d(t, rep_b) = r_st + a term fixed by the pair, so
    the cheapest crossings are those of least r.
    """
    k = len(p.classes)
    intra: list[set[Edge]] = [set() for _ in range(k)]
    slack: list[set[Edge]] = [set() for _ in range(k)]
    cross: dict[tuple[int, int], dict[Edge, int]] = {}
    for (i, j), w in g.edges.items():
        r = d.reduced(i, j, w)
        ci, cj = p.class_of[i], p.class_of[j]
        if ci == cj:
            intra[ci].add((i, j))
            if r > 0:
                slack[ci].add((i, j))
        else:
            cross.setdefault((ci, cj), {})[(i, j)] = r
    cross_min: dict[tuple[int, int], frozenset[Edge]] = {}
    cross_rep: dict[tuple[int, int], Edge] = {}
    for pair, edges in cross.items():
        least = min(edges.values())
        argmin = [e for e, r in edges.items() if r == least]
        cross_min[pair] = frozenset(argmin)
        cross_rep[pair] = min(argmin)
    return EdgePartition(
        intra=tuple(frozenset(s) for s in intra),
        intra_slack=tuple(frozenset(s) for s in slack),
        intra_tight=tuple(frozenset(a - b) for a, b in zip(intra, slack)),
        cross={pair: frozenset(es) for pair, es in cross.items()},
        cross_min=cross_min,
        cross_rep=cross_rep,
    )


def condensation(
    g: PrecedenceGraph, d: DistanceMatrix, p: Partition, ep: EdgePartition
) -> Condensation:
    """Collapse each class onto its representative.

    Every cycle of the result weighs strictly more than zero: a zero-weight
    closed walk through two representatives would have merged their classes.
    ``d`` must be the distance matrix of ``g``: the weight of the pair's
    representing edge (s, t) is r_st + potential[rep_b] - potential[rep_a],
    scaled.
    """
    pot = d.potential
    edges: dict[tuple[int, int], Fraction] = {}
    for (ci, cj), (s, t) in ep.cross_rep.items():
        va, vb = p.reps[ci], p.reps[cj]
        cost = d.reduced(s, t, g.edges[(s, t)]) + pot[vb] - pot[va]
        edges[(va, vb)] = Fraction(cost, d.scale)
    return Condensation(p.reps, edges)


def condensation_redundant_pairs(
    c: Condensation, d: DistanceMatrix
) -> frozenset[tuple[int, int]]:
    """Class-index pairs whose condensation edge is redundant.

    ``d`` must be the distance matrix of the graph the condensation came
    from.  The condensation has only strictly positive cycles, so the fast
    criterion gives its unique maximum redundant edge set: (a, b) goes when
    another out-edge (a, k) has c_ak + d(k, b) <= c_ab.  Classes are rigid,
    so the condensation's own minimum walk weights are d at the
    representatives and need no second all-pairs run.

    The test runs on reduced costs, where the potentials of a, k and b
    cancel: r_ak + D[k, b] <= r_ab, with D the class-to-class matrix of
    ``d`` (``d.class_reach[k, b]`` required), all scaled integers.
    """
    index = {rep: k for k, rep in enumerate(c.reps)}
    reduced = {(index[a], index[b]): d.reduced(a, b, w) for (a, b), w in c.edges.items()}
    out: dict[int, list[tuple[int, int]]] = {}
    for (a, k), r in reduced.items():
        out.setdefault(a, []).append((k, r))
    dist, reach = d.class_dist, d.class_reach
    removed = set()
    for (a, b), rab in reduced.items():
        for k, rak in out[a]:
            if k != b and reach[k, b] and rak + int(dist[k, b]) <= rab:
                removed.add((a, b))
                break
    return frozenset(removed)


def analyze(
    g: PrecedenceGraph, representative: RepresentativePolicy = "smallest"
) -> Analysis:
    """Distances, classes, edge partition, condensation and its redundant
    pairs of g, with one distance computation."""
    d = min_walk_weights(g)
    p = equivalence_classes(d, representative=representative)
    ep = partition_edges(g, d, p)
    cond = condensation(g, d, p, ep)
    return Analysis(d, p, ep, cond, condensation_redundant_pairs(cond, d))


def redundant_edges(a: Analysis) -> frozenset[Edge]:
    """Every edge that the other edges imply, each judged alone: together
    they need not be removable (tied_optima's (1, 2) and (1, 3)).

    These are the slack intra-class edges; the tight arcs (s, t) whose head
    stays reachable over the other tight arcs (between class members, the
    walks of weight d_st are the walks over tight arcs); and the cross edges
    but the sole cheapest crossing of a pair whose condensation edge stays.
    """
    ep = a.edges
    tight = Digraph(a.d.n, frozenset().union(*ep.intra_tight))
    out = set(redundant_arcs(tight)).union(*ep.intra_slack)
    for pair, edges in ep.cross.items():
        cheapest = ep.cross_min[pair]
        sole = len(cheapest) == 1 and pair not in a.removed_pairs
        out |= edges - cheapest if sole else edges
    return frozenset(out)


def max_redundant_edge_set(
    g: PrecedenceGraph, cfg: SolverConfig = SolverConfig()
) -> MresResult:
    """A maximum redundant edge set of an arbitrary feasible system.

    Assembled per the decomposition (see module docstring): all slack
    intra-class edges, all non-representing cross edges, the representing
    edges of pairs found redundant on the condensation, and per class the
    complement of a minimum equivalent graph of its tight edges.  With exact
    intra-class solves the result is a certified maximum; greedy fallback
    (opt-in) degrades the certificate to maximal.
    """
    analysis = analyze(g, cfg.representative)
    p, ep = analysis.partition, analysis.edges
    out: set[Edge] = set()
    certified = True
    for pair, eij in ep.cross.items():
        if pair in analysis.removed_pairs:
            out |= eij
        else:
            out |= eij - {ep.cross_rep[pair]}
    for k, members in enumerate(p.classes):
        out |= ep.intra_slack[k]
        tight = ep.intra_tight[k]
        if not tight:
            continue
        h = Digraph(g.n, tight)
        if len(tight) <= cfg.exact_limit:
            kept = meg_exact(h, cfg.exact_limit)
        elif cfg.allow_heuristic:
            kept = meg_greedy(h)
            certified = False
        else:
            raise ExactLimitExceeded(
                f"the {len(members)}-node class of node {min(members)} has "
                f"{len(tight)} tight edges, over the exact limit of "
                f"{cfg.exact_limit}; allow the heuristic to accept a "
                "maximal (uncertified) result",
                analysis=analysis,
            )
        out |= tight - kept
    return MresResult(frozenset(out), certified, analysis)
