"""Value types and core analyses for precedence graphs.

A precedence relation system is a finite set of difference constraints
``x_i - x_j <= c_ij`` over variables ``x_1 .. x_n``.  The same data is a
weighted digraph: one node per variable, one edge ``(i, j)`` of weight
``c_ij`` per constraint.  Everything in this package works on that view.

Weights are exact rationals (:class:`fractions.Fraction`).  Exactness is not
a nicety here: the decomposition machinery keys on cycle weights being
*exactly* zero, a question floating point cannot answer.  Distances are
therefore kept as integers, on the weights rescaled by the lcm of their
denominators, and a Fraction is made only when a caller reads an entry
through :meth:`DistanceMatrix.get`.  They are stored factored: a potential
from one Bellman-Ford pass makes every reduced cost non-negative, the arcs
of reduced cost zero split the nodes into the zero-cycle classes, and the
Floyd-Warshall kernel runs only on the condensation, one node per class,
in int64 when its costs fit and in Python ints otherwise.

Feasibility is a walk statement: the system has a solution precisely when no
closed walk has negative weight, and then the tightest derivable bound on
``x_u - x_v`` is the minimum weight over all walks ``u ~> v``.
"""

from __future__ import annotations

import os
import re
import sys
import warnings
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping, Union

import numpy as np

from .errors import (
    DcsError,
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
    of such a crossing.  ``class_dist`` and ``class_reach`` are K x K, for
    K classes: where ``class_reach[a, b]``, ``class_dist[a, b]`` is the
    least reduced cost of a walk from class a to class b; elsewhere no such
    walk exists and ``class_dist`` holds a sentinel that is not a weight.
    It is int64 when the reduced costs fit and Python ints otherwise.

    Inside a class every walk costs at least zero and the class's zero arcs
    connect it, so for i in class a and j in class b the least weight over
    all walks ``i ~> j`` is exactly
    ``(potential[j] - potential[i] + class_dist[a, b]) / scale``.  ``get``
    is the one place a :class:`~fractions.Fraction` is made, and it reports
    unreachability as ``None``, so the sentinel never leaks into exact
    arithmetic.
    """

    n: int
    feasible: bool
    scale: int
    potential: tuple[int, ...]
    class_of: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    class_arcs: Mapping[tuple[int, int], int]
    class_dist: np.ndarray
    class_reach: np.ndarray

    def get(self, i: int, j: int) -> Fraction | None:
        a, b = self.class_of[i], self.class_of[j]
        if not self.class_reach[a, b]:
            return None
        p = self.potential
        return Fraction(p[j] - p[i] + int(self.class_dist[a, b]), self.scale)

    def scaled(self, w: Fraction) -> int:
        """``w * scale`` as an int, for w a multiple of ``1 / scale``: every
        weight and minimum walk weight of the graph measured is one."""
        return w.numerator * (self.scale // w.denominator)

    def reduced(self, i: int, j: int, w: Fraction) -> int:
        """The reduced cost of a weight-w constraint (i, j), scaled."""
        return self.scaled(w) + self.potential[i] - self.potential[j]

    def reachable(self, i: int, j: int) -> bool:
        return bool(self.class_reach[self.class_of[i], self.class_of[j]])

    def __repr__(self) -> str:
        return f"DistanceMatrix(n={self.n}, feasible={self.feasible})"


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


def _scaled_integer_edges(g: PrecedenceGraph) -> tuple[dict[Edge, int], int]:
    """Rescale all weights to integers by the lcm of their denominators."""
    scale = lcm(*(w.denominator for w in g.edges.values())) if g.edges else 1
    return {e: w.numerator * (scale // w.denominator) for e, w in g.edges.items()}, scale


def _fw_numpy(n: int, scaled: dict[Edge, int]) -> tuple[np.ndarray, np.ndarray]:
    """Floyd-Warshall on integer weights: the matrix and its reach mask.

    Row and column 0 are padding.  The unreachable sentinel ``inf`` is more
    than twice the weight of any simple path: a sum that touches it may
    fall below it but stays above ``inf // 2``, and every walk weight lies
    below, so an entry is a walk weight exactly when it is under
    ``inf // 2``.  The matrix is int64 when sums of two entries (at most
    ``2 * inf``) fit; otherwise it holds Python ints, and each round then
    updates only the rows that reach k and the columns k reaches, since
    Python-int arithmetic costs per entry.

    The relaxation stops after the first round that leaves a negative
    diagonal entry.  Up to that round no negative closed walk has entered
    any entry, so none falls below ``-2 * (n - 1) * maxabs`` and int64
    arithmetic cannot wrap.

    Raises :class:`DcsError` before allocating when the kernel would not
    fit in the machine's physical memory: the matrix, one round's
    ``np.add.outer`` temporary of the same shape, and the boolean reach
    mask, where each entry of a Python-int matrix also holds an int object.
    """
    maxabs = max(map(abs, scaled.values()), default=0)
    inf = 2 * (n + 1) * (maxabs + 1)
    wide = inf >= 1 << 61
    dtype = np.dtype(object if wide else np.int64)
    cell = dtype.itemsize + (sys.getsizeof(inf) if wide else 0)
    need = (n + 1) ** 2 * (2 * cell + 1)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise DcsError(
            f"the {n + 1} x {n + 1} distance matrix needs {need} bytes, "
            f"more than the {have} bytes of physical memory"
        )
    a = np.full((n + 1, n + 1), inf, dtype=dtype)
    np.fill_diagonal(a, 0)
    for (i, j), w in scaled.items():
        a[i, j] = w
    half = inf // 2
    for k in range(1, n + 1):
        if wide:
            rows = np.flatnonzero(a[:, k] < half)
            cols = np.flatnonzero(a[k] < half)
            block = np.ix_(rows, cols)
            a[block] = np.minimum(a[block], np.add.outer(a[rows, k], a[k, cols]))
        else:
            np.minimum(a, np.add.outer(a[:, k], a[k]), out=a)
        if (a.diagonal() < 0).any():
            break
    return a, a < half


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
    """All-pairs minimum walk weights, factored through the zero-cycle classes.

    Raises :class:`InfeasibleSystem` (carrying a witness cycle) when a
    negative-weight closed walk exists and the system has no solution.

    Weights are rescaled to integers by the lcm of their denominators.  One
    Bellman-Ford pass gives a potential (or the witness), and with it every
    reduced cost is non-negative (Johnson 1977).  The arcs of reduced cost
    zero form the zero-weight closed walks, so their strongly connected
    components are the classes, and inside a class every minimum walk
    weight is a difference of potentials.  Only the condensation, one node
    per class and one arc per class pair at its least crossing reduced
    cost (kept as ``class_arcs``), goes to the Floyd-Warshall kernel
    :func:`_fw_numpy`, in int64 or Python ints as the costs require; either
    way the result is exact.
    """
    n = g.n
    scaled, scale = _scaled_integer_edges(g)
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
    dist, reach = _fw_numpy(k, {(a + 1, b + 1): r for (a, b), r in crossing.items()})
    classes: list[list[int]] = [[] for _ in range(k)]
    for v in range(1, n + 1):
        classes[class_of[v]].append(v)
    return DistanceMatrix(
        n,
        True,
        scale,
        tuple(potential),
        tuple(class_of),
        tuple(map(tuple, classes)),
        crossing,
        dist[1:, 1:],
        reach[1:, 1:],
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
