"""Value types and core analyses for precedence graphs.

A precedence relation system is a finite set of difference constraints
``x_i - x_j <= c_ij`` over variables ``x_1 .. x_n``.  The same data is a
weighted digraph: one node per variable, one edge ``(i, j)`` of weight
``c_ij`` per constraint.  Everything in this package works on that view.

Weights are exact rationals (:class:`fractions.Fraction`).  Exactness is not
a nicety here: the decomposition machinery keys on cycle weights being
*exactly* zero, a question floating point cannot answer.  Distances are
therefore kept as Python integers, on the weights rescaled by the lcm of
their denominators, and a Fraction is made only when a caller reads an
entry through :meth:`DistanceMatrix.get`.  They are stored factored: a
potential from one Bellman-Ford pass makes every reduced cost
non-negative, the arcs of reduced cost zero split the nodes into the
zero-cycle classes, and a distance between classes is found by a Dijkstra
search over the condensation, one node per class, on demand.

Feasibility is a walk statement: the system has a solution precisely when no
closed walk has negative weight, and then the tightest derivable bound on
``x_u - x_v`` is the minimum weight over all walks ``u ~> v``.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from heapq import heappop, heappush
from math import lcm
from typing import Iterable, Iterator, Mapping, Union

from .errors import (
    IndexOutOfRange,
    InfeasibleSystem,
    NegativeSelfLoop,
    NotAWalk,
    SameNode,
    SelfLoopDropped,
)

Edge = tuple[int, int]
WeightLike = Union[Fraction, int, str]

# [+-]digits[.digits] or [+-]digits/digits with a nonzero denominator, and
# nothing else: no exponent, which lets ten bytes ask for millions of digits
_WEIGHT = re.compile(r"([+-]?[0-9]+)(?:\.([0-9]+)|/(0*[1-9][0-9]*))?")


def _int(digits: str) -> int:
    """``int(digits)``, also past Python's limit on decimal digits."""
    try:
        return int(digits)
    except ValueError:  # over the limit, which Decimal does not have
        return int(Decimal(digits))


def weight_text(w: Fraction) -> str:
    """``w`` as ``p`` or ``p/q``, also past Python's limit on decimal digits."""
    try:
        return str(w)
    except ValueError:  # over the limit, which Decimal does not have
        text = str(Decimal(w.numerator))
        return text if w.denominator == 1 else f"{text}/{Decimal(w.denominator)}"


def as_weight(value: WeightLike) -> Fraction:
    """Coerce an int, Fraction, or decimal/rational string to an exact weight.

    Strings are ``[+-]digits[.digits]`` or ``[+-]digits/digits``.  Floats are
    rejected on purpose: a binary float rarely equals the decimal the caller
    had in mind, and the error would surface much later as a misclassified
    zero-weight cycle.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("weights must be rational numbers, not bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        m = _WEIGHT.fullmatch(value)
        if m is None:
            raise ValueError(f"not a rational constant: {value!r}")
        whole, frac, den = m.groups("")
        if den:
            return Fraction(_int(whole), _int(den))
        return Fraction(_int(whole + frac), 10 ** len(frac))
    if isinstance(value, float):
        raise TypeError(
            f"refusing float weight {value!r}; pass a string or Fraction instead"
        )
    raise TypeError(f"cannot interpret {type(value).__name__} as a weight")


@dataclass(frozen=True)
class PrecedenceGraph:
    """A difference constraint system viewed as a weighted digraph.

    Nodes are ``1..n``.  ``edges`` maps ordered pairs ``(i, j)`` to exact
    weights; self-loops and parallel edges are excluded by construction
    (collapse raw input through :func:`normalize` first).  Instances are
    immutable; the edge mapping is copied defensively.
    """

    n: int
    edges: Mapping[Edge, Fraction]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("node count must be nonnegative")
        clean: dict[Edge, Fraction] = {}
        for (i, j), w in self.edges.items():
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise IndexOutOfRange(f"edge ({i},{j}) outside nodes 1..{self.n}")
            if i == j:
                raise ValueError(
                    f"self-loop ({i},{i}); feed raw constraints through normalize()"
                )
            clean[(i, j)] = as_weight(w)
        object.__setattr__(self, "edges", clean)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _out(self) -> dict[int, tuple[tuple[int, Fraction], ...]]:
        out: dict[int, list[tuple[int, Fraction]]] = {
            i: [] for i in range(1, self.n + 1)
        }
        for (i, j), w in sorted(self.edges.items()):
            out[i].append((j, w))
        return {i: tuple(v) for i, v in out.items()}

    def successors(self, i: int) -> tuple[tuple[int, Fraction], ...]:
        """Out-edges of node i as (target, weight) pairs, sorted by target."""
        return self._out[i]

    def without(self, remove: Iterable[Edge]) -> "PrecedenceGraph":
        """A copy with the given edges deleted; node set unchanged."""
        gone = set(remove)
        return PrecedenceGraph(
            self.n, {e: w for e, w in self.edges.items() if e not in gone}
        )


@dataclass(frozen=True)
class Walk:
    """A node sequence ``(i_0, .., i_m)``; each consecutive pair must be an edge.

    A single node is the degenerate walk of weight zero.
    """

    nodes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if not self.nodes:
            raise ValueError("a walk visits at least one node")

    @property
    def steps(self) -> tuple[Edge, ...]:
        return tuple(zip(self.nodes, self.nodes[1:]))

    @property
    def closed(self) -> bool:
        return len(self.nodes) > 1 and self.nodes[0] == self.nodes[-1]


@dataclass(frozen=True, repr=False, eq=False)
class DistanceMatrix:
    """Minimum walk weights of a feasible system, factored through its
    zero-cycle classes.

    ``potential`` is a solution of the scaled system (``potential[0]`` is
    padding): every reduced cost ``c_ij·scale + potential[i] - potential[j]``
    is non-negative.  ``classes`` are the strongly connected components of
    the arcs of reduced cost zero, ordered by smallest member, with sorted
    members; ``class_of[v]`` is the index of v's class (``class_of[0]`` is
    padding).  ``class_arcs`` is the condensation: for each ordered pair
    (a, b) of class indices that some edge crosses, the least reduced cost
    of such a crossing.  ``class_succ[a]`` lists the same arcs out of class
    a as (b, cost) pairs, cheapest first, keyed only for classes with arcs.

    Inside a class every walk costs at least zero and the class's zero arcs
    connect it, so for i in class a and j in class b the least weight over
    all walks ``i ~> j`` is exactly
    ``(potential[j] - potential[i] + D) / scale``, with D the least reduced
    cost of a walk from class a to class b over the condensation arcs, as
    :meth:`search` finds it.
    """

    n: int
    scale: int
    potential: tuple[int, ...]
    class_of: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    class_arcs: Mapping[tuple[int, int], int]
    class_succ: Mapping[int, list[tuple[int, int]]]
    _rows: dict[int, dict[int, int]] = field(default_factory=dict, init=False)

    def search(self, a: int, radius: int) -> Iterator[tuple[int, int]]:
        """Each class reachable from class a at a least reduced cost of at
        most ``radius``, as (class, cost), in cost order, class a itself
        first at cost 0.

        A Dijkstra search, as reduced costs are non-negative (Johnson 1977),
        whose heap holds each tentative cost once with the list of classes
        reached at it, since many walks tie on small costs.  A caller stops
        consuming it once it has its answer.
        """
        succ = self.class_succ
        beyond = radius + 1
        best = {a: 0}
        reached = {0: [a]}
        costs = [0]
        while costs:
            cost = heappop(costs)
            for u in reached.pop(cost):
                if best[u] != cost:
                    continue
                yield u, cost
                for v, r in succ.get(u, ()):
                    c = cost + r
                    if c >= beyond:
                        break
                    if c < best.get(v, beyond):
                        best[v] = c
                        if c in reached:
                            reached[c].append(v)
                        else:
                            reached[c] = [v]
                            heappush(costs, c)

    def settle(self, a: int, bounds: Iterable[tuple[int, int]]) -> dict[int, int]:
        """The least reduced cost from class a of each class named in
        ``bounds``, (class, bound) pairs, that is at most the largest bound
        given for that class.  The search stops once every class named is
        settled or past the largest bound still pending."""
        pending: dict[int, int] = {}
        for b, bound in bounds:
            pending[b] = max(bound, pending.get(b, bound))
        found = {}
        radius = max(pending.values(), default=-1)
        for u, cost in self.search(a, radius):
            if cost > radius:
                break
            bound = pending.pop(u, -1)
            if cost <= bound:
                found[u] = cost
            if bound == radius:
                radius = max(pending.values(), default=-1)
        return found

    def get(self, i: int, j: int) -> Fraction | None:
        """The minimum walk weight ``i ~> j``, or None when no walk exists.

        Within a class it is a difference of potentials.  Across classes
        the first call from class a searches everything a reaches and keeps
        the costs, so a sweep over many pairs pays one search per class.
        """
        a, b = self.class_of[i], self.class_of[j]
        p = self.potential
        if a == b:
            return Fraction(p[j] - p[i], self.scale)
        row = self._rows.get(a)
        if row is None:
            # all the arcs together cost at least any cheapest walk
            row = self._rows[a] = dict(self.search(a, sum(self.class_arcs.values())))
        cost = row.get(b)
        return None if cost is None else Fraction(p[j] - p[i] + cost, self.scale)

    def reduced(self, i: int, j: int, w: Fraction) -> int:
        """The reduced cost of a weight-w constraint (i, j), scaled, for w a
        multiple of ``1 / scale``, as every weight of the graph measured is."""
        p = self.potential
        return w.numerator * (self.scale // w.denominator) + p[i] - p[j]

    def __repr__(self) -> str:
        return f"DistanceMatrix(n={self.n}, classes={len(self.classes)})"


@dataclass(frozen=True)
class WalkDecomposition:
    """A walk split into a simple path plus simple cycles (order of peeling)."""

    path: Walk
    cycles: tuple[Walk, ...]


def normalize(
    n: int, raw_edges: Iterable[tuple[int, int, WeightLike]]
) -> PrecedenceGraph:
    """Collapse raw constraint entries into a precedence graph.

    Parallel constraints on the same pair keep the tightest (minimum) weight,
    since every one of them must hold.  A self-loop with nonnegative weight
    says nothing (``0 <= c``) and is dropped with a :class:`SelfLoopDropped`
    warning; a negative self-loop is unsatisfiable outright.
    """
    edges: dict[Edge, Fraction] = {}
    for i, j, raw in raw_edges:
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexOutOfRange(f"constraint ({i},{j}) outside nodes 1..{n}")
        w = as_weight(raw)
        if i == j:
            if w < 0:
                raise NegativeSelfLoop(
                    f"constraint x_{i} - x_{i} <= {weight_text(w)} is unsatisfiable"
                )
            warnings.warn(
                f"dropping vacuous self-loop ({i},{i}) of weight {weight_text(w)}",
                SelfLoopDropped,
                stacklevel=2,
            )
            continue
        cur = edges.get((i, j))
        if cur is None or w < cur:
            edges[(i, j)] = w
    return PrecedenceGraph(n, edges)


def _bellman_ford(n: int, scaled: dict[Edge, int]) -> tuple[list[int], Walk | None]:
    """A potential of the scaled system, or a negative closed walk.

    Every node starts at distance 0, which plays the role of a virtual
    source, and the edges are relaxed in sorted order, each round reusing
    the values the round already lowered.  A round that lowers nothing
    leaves a potential: ``dist[i] + w >= dist[j]`` for every edge.  A
    shortest path from the source has at most n - 1 real edges, so a
    feasible system settles within n rounds; a node still lowered in round
    n leads back, through the predecessors, onto a negative cycle, which is
    the witness.
    """
    dist = [0] * (n + 1)
    pred = [0] * (n + 1)
    order = sorted(scaled.items())
    touched = 0
    for _ in range(n):
        touched = 0
        for (u, v), w in order:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                pred[v] = u
                touched = v
        if not touched:
            break
    if not touched:
        return dist, None
    x = touched
    for _ in range(n):
        x = pred[x]
    cycle = [x]
    cur = pred[x]
    while cur != x:
        cycle.append(cur)
        cur = pred[cur]
    cycle.append(x)
    cycle.reverse()
    return dist, Walk(tuple(cycle))


def _components(n: int, arcs: Iterable[Edge]) -> tuple[list[int], int]:
    """Strongly connected components of the arcs on nodes 1..n (Tarjan 1972),
    as a class index per node (``[0]`` is padding) and the class count.

    Classes are numbered by smallest member.  The depth-first search keeps
    its own stack of (node, next successor position), so it needs no
    recursion.  A node is on Tarjan's stack exactly while it has a visit
    number and no class yet.  A root without arcs is its own class at once,
    so a system of isolated nodes costs one pass.
    """
    succ: dict[int, list[int]] = {}
    for i, j in arcs:
        succ.setdefault(i, []).append(j)
    comp = [-1] * (n + 1)
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    count = 0
    for root in range(1, n + 1):
        if comp[root] >= 0:
            continue
        if root not in succ:
            comp[root] = count
            count += 1
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, 0)]
        while work:
            v, pos = work[-1]
            out = succ.get(v, ())
            while pos < len(out):
                w = out[pos]
                pos += 1
                if comp[w] >= 0:
                    continue
                if w in index:
                    low[v] = min(low[v], index[w])
                else:
                    work[-1] = (v, pos)
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, 0))
                    break
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = count
                        if w == v:
                            break
                    count += 1
    # renumber by smallest member
    order = [-1] * count
    k = 0
    for v in range(1, n + 1):
        c = comp[v]
        if order[c] < 0:
            order[c] = k
            k += 1
        comp[v] = order[c]
    return comp, count


def min_walk_weights(g: PrecedenceGraph) -> DistanceMatrix:
    """Minimum walk weights of every pair, factored through the zero-cycle classes.

    Raises :class:`InfeasibleSystem` (carrying a witness cycle) when a
    negative-weight closed walk exists and the system has no solution.

    Weights are rescaled to integers by the lcm of their denominators.  One
    Bellman-Ford pass gives a potential (or the witness), and with it every
    reduced cost is non-negative (Johnson 1977).  The arcs of reduced cost
    zero form the zero-weight closed walks, so their strongly connected
    components are the classes, and inside a class every minimum walk
    weight is a difference of potentials.  Between classes only the
    condensation is kept, one node per class and one arc per class pair at
    its least crossing reduced cost (``class_arcs``); a distance across
    classes is a search over it, on Python ints, so the result is exact
    whatever the size of the weights.
    """
    n = g.n
    scale = lcm(*(w.denominator for w in g.edges.values())) if g.edges else 1
    scaled = {e: w.numerator * (scale // w.denominator) for e, w in g.edges.items()}
    potential, witness = _bellman_ford(n, scaled)
    if witness is not None:
        raise InfeasibleSystem(
            "no solution: negative-weight closed walk "
            f"{'-'.join(map(str, witness.nodes))} "
            f"has weight {weight_text(walk_weight(g, witness))}",
            cycle=witness,
        )
    zero = [(i, j) for (i, j), w in scaled.items() if w + potential[i] == potential[j]]
    class_of, k = _components(n, zero)
    crossing: dict[tuple[int, int], int] = {}
    for (i, j), w in scaled.items():
        a, b = class_of[i], class_of[j]
        if a != b:
            r = w + potential[i] - potential[j]
            if r < crossing.get((a, b), r + 1):
                crossing[(a, b)] = r
    succ: dict[int, list[tuple[int, int]]] = {}
    for (a, b), r in sorted(crossing.items(), key=lambda arc: (arc[1], arc[0])):
        succ.setdefault(a, []).append((b, r))
    classes: list[list[int]] = [[] for _ in range(k)]
    for v in range(1, n + 1):
        classes[class_of[v]].append(v)
    return DistanceMatrix(
        n,
        scale,
        tuple(potential),
        tuple(class_of),
        tuple(map(tuple, classes)),
        crossing,
        succ,
    )


def _check_walk(g: PrecedenceGraph, walk: Walk) -> None:
    for node in walk.nodes:
        if not (1 <= node <= g.n):
            raise NotAWalk(f"node {node} outside 1..{g.n}")
    for i, j in walk.steps:
        if (i, j) not in g.edges:
            raise NotAWalk(f"({i},{j}) is not an edge")


def walk_weight(g: PrecedenceGraph, walk: Walk) -> Fraction:
    """Total weight of a walk; the degenerate single-node walk weighs zero."""
    _check_walk(g, walk)
    total = Fraction(0)
    for step in walk.steps:
        total += g.edges[step]
    return total


def implies(d: DistanceMatrix, u: int, v: int, bound: WeightLike) -> bool:
    """Does the system force ``x_u - x_v <= bound``?

    Under feasibility the tightest derivable bound on ``x_u - x_v`` is the
    minimum walk weight ``u ~> v``; no walk means no finite bound at all.
    """
    if u == v:
        raise SameNode(f"implication needs two distinct nodes, got {u} twice")
    if not (1 <= u <= d.n and 1 <= v <= d.n):
        raise IndexOutOfRange(f"nodes ({u},{v}) outside 1..{d.n}")
    duv = d.get(u, v)
    return duv is not None and duv <= as_weight(bound)


def decompose_walk(g: PrecedenceGraph, walk: Walk) -> WalkDecomposition:
    """Split a walk into a simple path plus simple cycles.

    Scans the walk once, keeping a stack of nodes not yet known to repeat.
    Whenever the next node already sits on the stack, the segment from its
    earlier occurrence is peeled off as a cycle; stack nodes are pairwise
    distinct, so every peeled cycle is simple, and the surviving stack is a
    simple path from first to last node (degenerate when they coincide).
    Each input edge lands in exactly one output piece, so total weight and
    the edge multiset are both conserved.
    """
    _check_walk(g, walk)
    stack = [walk.nodes[0]]
    pos = {walk.nodes[0]: 0}
    cycles: list[Walk] = []
    for x in walk.nodes[1:]:
        at = pos.get(x)
        if at is None:
            pos[x] = len(stack)
            stack.append(x)
            continue
        cycles.append(Walk(tuple(stack[at:]) + (x,)))
        for y in stack[at + 1 :]:
            del pos[y]
        del stack[at + 1 :]
    return WalkDecomposition(Walk(tuple(stack)), tuple(cycles))
