"""Zero-cycle classes, the split of a system into independent pieces, and
the general maximum redundant edge set.

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
  That piece is NP-hard and goes to :mod:`dcsimp.meg` as an arc set on the
  class's members renumbered 1..|C|: exactly on a class of at most
  :data:`EXACT_LIMIT` tight arcs, greedily and uncertified otherwise.

:func:`analyze` runs that split once per system, and every solver that
deletes edges reads its distances, classes, edge pieces and kept crossings
from there.  :func:`condensation` builds the weighted condensation itself,
which only the ``condense`` command prints; the equivalent reduction takes
the same rep-to-rep weights from :func:`_rep_arcs`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping

from .core import DistanceMatrix, Edge, PrecedenceGraph, _Value, min_walk_weights
from .meg import Arc, certificate, meg_exact, meg_greedy, redundant_arcs

EXACT_LIMIT = 20  # tight arcs of a class that meg_exact may try


class Analysis(_Value):
    """The decomposition of one system into its independent pieces.

    ``d`` holds the system's minimum walk weights (a potential, the
    zero-cycle classes and the condensation's arcs), computed once, and
    every edge is routed once by it.  ``slack`` holds the intra-class edges
    above their minimum walk weight, always removable; ``tight[k]`` the
    arcs of class k at it, keyed only for classes that have some, the piece
    that goes to the MEG solver.  ``cross`` holds every edge between
    classes; ``keep`` the smallest cheapest crossing of each class pair
    whose condensation edge survives, the pair's representing edge; and
    ``tied`` the members of ``keep`` whose pair has another cheapest
    crossing.  So ``keep - tied`` are the cross edges that nothing else
    implies.
    """

    __slots__ = ("d", "slack", "tight", "cross", "keep", "tied")
    d: DistanceMatrix
    slack: frozenset[Edge]
    tight: Mapping[int, frozenset[Edge]]
    cross: frozenset[Edge]
    keep: frozenset[Edge]
    tied: frozenset[Edge]


class MresResult(_Value):
    """A redundant edge set plus the strength of its guarantee.

    ``certified`` means every intra-class piece was solved exactly, so the
    set is a true maximum; otherwise it is maximal but possibly smaller
    than optimal.  ``analysis`` is the decomposition it was assembled from;
    it takes no part in ``==``, ``hash`` or the repr.
    """

    __slots__ = ("edges", "certified", "analysis")
    _compared = ("edges", "certified")
    edges: frozenset[Edge]
    certified: bool
    analysis: Analysis


def condensation(d: DistanceMatrix) -> PrecedenceGraph:
    """The condensation on nodes 1..K, node k + 1 standing for class k.

    Each class is represented by its smallest member, and the arc of a
    class pair weighs the pair's cheapest rep-to-rep crossing
    d(rep_a, s) + c_st + d(t, rep_b) (:func:`_rep_arcs`).  Every cycle of
    the result weighs strictly more than zero: a zero-weight closed walk
    through two representatives would have merged their classes.  Another
    member as representative would shift every weight by a potential, which
    changes no cycle weight and no redundant pair.
    """
    return PrecedenceGraph(len(d.classes), {(a + 1, b + 1): w for a, b, w in _rep_arcs(d)})


def _rep_arcs(
    d: DistanceMatrix, skip: frozenset[tuple[int, int]] = frozenset()
) -> Iterator[tuple[int, int, Fraction]]:
    """Each condensation arc (a, b) outside ``skip`` with its weight between
    the classes' smallest members, as its ``d.class_succ`` cost r gives it:
    r + potential[rep_b] - potential[rep_a], unscaled."""
    pot = [d.potential[c[0]] for c in d.classes]
    for a, heads in d.class_succ.items():
        for b, r in heads.items():
            if (a, b) not in skip:
                yield a, b, Fraction(r + pot[b] - pot[a], d.scale)


def condensation_redundant_pairs(d: DistanceMatrix) -> frozenset[tuple[int, int]]:
    """Class-index pairs whose condensation edge is redundant.

    The condensation has only strictly positive cycles, so the fast
    criterion gives its unique maximum redundant edge set: (a, b) goes when
    another out-edge (a, k) has c_ak + d(k, b) <= c_ab.  Classes are rigid,
    so the condensation's own minimum walk weights are those of ``d``.

    The test runs on the reduced costs r of ``d.class_succ``, where the
    potentials cancel, and it is local: (a, b) goes when a class u other
    than a, at least reduced cost D from a, has an arc (u, b) with
    D + r_ub <= r_ab, a tie included (no such walk to u uses (a, b): it
    would close a positive cycle through b).  One search from each class a
    with two or more out-arcs, within its dearest one, settles each (a, b)
    when it first relaxes such an arc (u, b), or, once few arcs are left
    open, when a backward search from b over the in-arcs meets it.
    """
    removed = set()
    for a, arcs in d.class_succ.items():
        if len(arcs) < 2:
            continue
        want = {b: [r] for b, r in arcs.items()}
        d._reach(a, want)
        removed.update((a, b) for b in arcs if b not in want)
    return frozenset(removed)


def analyze(g: PrecedenceGraph) -> Analysis:
    """Split g into its independent pieces, with one distance computation.

    Each edge is judged by its reduced cost r.  Inside a class the minimum
    walk weight is a difference of potentials, so an edge is slack exactly
    when r > 0.  A crossing (s, t) of a class pair costs
    d(rep_a, s) + c_st + d(t, rep_b) = r_st + a term fixed by the pair, so
    the cheapest crossings are those whose r is the pair's
    ``d.class_succ`` entry.  Of a pair whose condensation edge survives,
    the smallest of them is kept, whatever the input order.
    """
    d = min_walk_weights(g)
    removed = condensation_redundant_pairs(d)
    slack: set[Edge] = set()
    tight: dict[int, set[Edge]] = {}
    cross: set[Edge] = set()
    keep: dict[tuple[int, int], Edge] = {}
    tied: set[tuple[int, int]] = set()
    for e, w in g.edges.items():
        i, j = e
        r = d.reduced(i, j, w)
        a, b = d.class_of[i], d.class_of[j]
        if a != b:
            cross.add(e)
            pair = (a, b)
            if r == d.class_succ[a][b] and pair not in removed:
                if pair in keep:
                    tied.add(pair)
                keep[pair] = min(keep.get(pair, e), e)
        elif r > 0:
            slack.add(e)
        else:
            tight.setdefault(a, set()).add(e)
    return Analysis(
        d,
        frozenset(slack),
        {k: frozenset(es) for k, es in tight.items()},
        frozenset(cross),
        frozenset(keep.values()),
        frozenset(keep[pair] for pair in tied),
    )


def _class_digraphs(a: Analysis) -> Iterator[tuple[tuple[int, ...], frozenset[Arc]]]:
    """Each class with tight arcs, in class order, as its members and its
    tight arcs on them, the MEG instance on nodes 1..|C|.

    The members become nodes 1..|C|, in order, so each question is sized by
    the class, not the system; the map is monotone, so no arc order changes.
    """
    for k in sorted(a.tight):
        members = a.d.classes[k]
        local = {v: q for q, v in enumerate(members, 1)}
        yield members, frozenset((local[s], local[t]) for s, t in a.tight[k])


def redundant_edges(a: Analysis) -> frozenset[Edge]:
    """Every edge that the other edges imply, each judged alone: together
    they need not be removable (tied_optima's (1, 2) and (1, 3)).

    These are the slack intra-class edges; the tight arcs (s, t) whose head
    stays reachable over the other tight arcs (between class members, the
    walks of weight d_st are the walks over tight arcs); and the cross edges
    outside ``keep - tied``, which drops the only cheapest crossing of a
    pair whose condensation edge survives and nothing else.
    """
    out = set(a.slack | (a.cross - (a.keep - a.tied)))
    for members, arcs in _class_digraphs(a):
        out |= {(members[s - 1], members[t - 1]) for s, t in redundant_arcs(len(members), arcs)}
    return frozenset(out)


def max_redundant_edge_set(g: PrecedenceGraph) -> MresResult:
    """A maximum redundant edge set of an arbitrary feasible system.

    Assembled per the decomposition (see module docstring): all slack
    intra-class edges, all non-representing cross edges, the representing
    edges of pairs found redundant on the condensation, and per class the
    complement of a minimum equivalent graph of its tight edges.  A class
    with more than :data:`EXACT_LIMIT` tight edges, or whose exact search
    visits more than :data:`~dcsimp.meg.SEARCH_BUDGET` nodes, is solved
    greedily instead.  With every class solved exactly the result is a
    certified maximum; the greedy fallback degrades it to maximal.
    """
    a = analyze(g)
    out = set(a.slack | (a.cross - a.keep))
    certified = True
    for members, arcs in _class_digraphs(a):
        n = len(members)
        kept = meg_exact(n, arcs) if len(arcs) <= EXACT_LIMIT else None
        if kept is None:  # an empty set is an answer
            kept = meg_greedy(n, certificate(n, arcs))
            certified = False
        out |= {(members[s - 1], members[t - 1]) for s, t in arcs - kept}
    return MresResult(frozenset(out), certified, a)
