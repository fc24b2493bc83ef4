"""Zero-cycle classes, the split of a system into independent pieces, and
both of the paper's answers on them: the general maximum redundant edge set
and the equivalent reduction.

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
  class's members renumbered 1..|C|, whose one entry point,
  :func:`~dcsimp.meg.minimum_equivalent`, solves it exactly or by a cycle
  cover and says whether the answer is a minimum.  The module is loaded at the
  first class with tight arcs, so a system without one never compiles it.

:func:`analyze` runs that split once per system, and every solver that
deletes edges reads its distances, classes, edge pieces and dropped crossings
from there.  :func:`condensation` builds the weighted condensation itself,
which only the ``condense`` command prints; :func:`equivalent_reduction`
takes the same rep-to-rep weights from :func:`_rep_arcs`.

Redundancy removal may only delete constraints, and with zero-weight cycles
the intra-class leftovers make it NP-hard to even find the best deletion.
Allowing *new* constraints sidesteps both problems: each multi-node class is
rewired into a single zero-weight cycle through its nodes, each surviving
class pair becomes one constraint between the classes' smallest members,
and the whole construction is polynomial while meeting the minimum
possible constraint count.  It reads only the minimum walk weights, which
the solution set fixes, so equivalent systems reduce to the same system.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping

from .core import DistanceMatrix, Edge, PrecedenceGraph, _Value, min_walk_weights


class Analysis(_Value):
    """The decomposition of one system into its independent pieces.

    ``d`` holds the system's minimum walk weights (a potential, the
    zero-cycle classes and the condensation's arcs), computed once, and
    every edge is routed once by it.  ``slack`` holds the intra-class edges
    above their minimum walk weight, always removable; ``tight[k]`` the
    arcs of class k at it, keyed only for classes that have some, the piece
    that goes to the MEG solver.  Of the edges between classes, each class
    pair whose condensation edge survives has one representing edge, its
    smallest cheapest crossing; ``drop`` holds every other crossing, all
    removable together, and ``tied`` the representing edges whose pair has
    another cheapest crossing, each implied by the others on its own.
    """

    __slots__ = ("d", "slack", "tight", "drop", "tied")
    d: DistanceMatrix
    slack: frozenset[Edge]
    tight: Mapping[int, frozenset[Edge]]
    drop: frozenset[Edge]
    tied: frozenset[Edge]


class MresResult(_Value):
    """A redundant edge set plus the strength of its guarantee.

    ``certified`` means every intra-class piece was solved to a proven
    minimum, so the set is a true maximum; otherwise it is maximal but
    possibly smaller than optimal.  ``analysis`` is the decomposition it
    was assembled from; it takes no part in ``==``, ``hash`` or the repr.
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


def equivalent_reduction(g: PrecedenceGraph) -> PrecedenceGraph:
    """Synthesize a minimum-cardinality system equivalent to g, the same one
    for every system equivalent to g.

    Per class with at least two nodes, a cycle through the members in
    ascending order, each edge weighted by the minimum walk weight between
    its endpoints; the class identities force those weights to telescope to
    exactly zero.  Then per condensation arc that is not redundant, one edge
    between the two classes' smallest members at their minimum walk weight,
    which is the arc's own: every detour through other classes costs more.
    The edge count is therefore sum of multi-class sizes plus surviving
    condensation edges, which is the minimum achievable.
    """
    d = min_walk_weights(g)
    p, classes = d.potential, d.classes
    edges: dict[Edge, Fraction] = {}
    for members in classes:
        if len(members) > 1:
            for i, j in zip(members, members[1:] + members[:1]):
                edges[(i, j)] = Fraction(p[j] - p[i], d.scale)
    for a, b, w in _rep_arcs(d, condensation_redundant_pairs(d)):
        edges[(classes[a][0], classes[b][0])] = w
    return PrecedenceGraph._checked(g.n, edges)


def analyze(g: PrecedenceGraph) -> Analysis:
    """Split g into its independent pieces, with one distance computation.

    Each edge is judged by its reduced cost r = c_ij·scale + potential[i]
    - potential[j], an int, as scale is a multiple of every denominator.
    Inside a class the minimum walk weight is a difference of potentials,
    so an edge is slack exactly when r > 0.  A crossing (s, t) of a class
    pair costs d(rep_a, s) + c_st + d(t, rep_b) = r_st + a term fixed by
    the pair, so the cheapest crossings are those whose r is the pair's
    ``d.class_succ`` entry.  A crossing goes to ``drop`` when it is dearer
    than that, when its pair's condensation edge is redundant, or when a
    smaller cheapest crossing of its pair turns up, whatever the input
    order; the one left of a surviving pair represents it.
    """
    d = min_walk_weights(g)
    scale, p = d.scale, d.potential
    removed = condensation_redundant_pairs(d)
    slack: set[Edge] = set()
    tight: dict[int, set[Edge]] = {}
    drop: set[Edge] = set()
    rep: dict[tuple[int, int], Edge] = {}
    tied: set[tuple[int, int]] = set()
    for e, w in g.edges.items():
        i, j = e
        r = w.numerator * (scale // w.denominator) + p[i] - p[j]
        a, b = d.class_of[i], d.class_of[j]
        if a == b:
            if r > 0:
                slack.add(e)
            else:
                tight.setdefault(a, set()).add(e)
        elif r != d.class_succ[a][b] or (a, b) in removed:
            drop.add(e)
        else:
            pair = (a, b)
            first = rep.setdefault(pair, e)
            if first != e:
                tied.add(pair)
                rep[pair] = min(first, e)
                drop.add(max(first, e))
    return Analysis(
        d,
        frozenset(slack),
        {k: frozenset(es) for k, es in tight.items()},
        frozenset(drop),
        frozenset(rep[pair] for pair in tied),
    )


def _class_digraphs(a: Analysis) -> Iterator[tuple[tuple[int, ...], frozenset[Edge]]]:
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
    walks of weight d_st are the walks over tight arcs); and the crossings
    in ``drop`` or ``tied``, every one but the only cheapest crossing of a
    pair whose condensation edge survives.
    """
    out = set(a.slack | a.drop | a.tied)
    for members, arcs in _class_digraphs(a):
        from .meg import redundant_arcs

        out |= {(members[s - 1], members[t - 1]) for s, t in redundant_arcs(len(members), arcs)}
    return frozenset(out)


def max_redundant_edge_set(g: PrecedenceGraph) -> MresResult:
    """A maximum redundant edge set of an arbitrary feasible system.

    Assembled per the decomposition (see module docstring): all slack
    intra-class edges, every crossing in ``drop`` (all but the
    representing edge of each pair that survives on the condensation), and
    per class the complement of a minimum equivalent graph of its tight
    edges, from :func:`~dcsimp.meg.minimum_equivalent`.  A class with more
    than :data:`~dcsimp.meg.EXACT_LIMIT` tight edges, or whose exact search
    visits more than :data:`~dcsimp.meg.SEARCH_BUDGET` nodes, gets the
    cover fallback instead.  With every class's answer a proven minimum,
    by the exact search or by meeting the fallback's matching bound, the
    result is a certified maximum; otherwise it is maximal.
    """
    a = analyze(g)
    out = set(a.slack | a.drop)
    certified = True
    for members, arcs in _class_digraphs(a):
        from .meg import minimum_equivalent

        kept, exact = minimum_equivalent(len(members), arcs)
        certified &= exact
        out |= {(members[s - 1], members[t - 1]) for s, t in arcs - kept}
    return MresResult(frozenset(out), certified, a)
