"""Value types and core analyses for precedence graphs.

A precedence relation system is a finite set of difference constraints
``x_i - x_j <= c_ij`` over variables ``x_1 .. x_n``.  The same data is a
weighted digraph: one node per variable, one edge ``(i, j)`` of weight
``c_ij`` per constraint.  Everything in this package works on that view.

Weights are exact rationals (:class:`fractions.Fraction`).  Exactness is not
a nicety here: the decomposition machinery keys on cycle weights being
*exactly* zero, a question floating point cannot answer.  Distances are
therefore kept as integers: one Floyd-Warshall kernel runs on the weights
rescaled by the lcm of their denominators, in int64 when they fit and in
Python ints otherwise, and a Fraction is made only when a caller reads an
entry through :meth:`DistanceMatrix.get`.

Feasibility is a walk statement: the system has a solution precisely when no
closed walk has negative weight, and then the tightest derivable bound on
``x_u - x_v`` is the minimum weight over all walks ``u ~> v``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping, Union

import numpy as np

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


def as_weight(value: WeightLike) -> Fraction:
    """Coerce an int, Fraction, or decimal/rational string to an exact weight.

    Floats are rejected on purpose: a binary float rarely equals the decimal
    the caller had in mind, and the error would surface much later as a
    misclassified zero-weight cycle.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("weights must be rational numbers, not bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational constant: {value!r}") from exc
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
    """Minimum walk weights of a feasible system, as scaled integers.

    Where ``reach[i, j]``, the least weight over all walks ``i ~> j`` is
    exactly ``dist[i, j] / scale``; elsewhere no such walk exists and
    ``dist`` holds a sentinel that is not a weight.  ``dist`` is int64 when
    the weights fit and Python ints otherwise.  Both arrays are 1-indexed
    with a padding row/column 0.  ``get`` is the one place a
    :class:`~fractions.Fraction` is made, and it reports unreachability as
    ``None``, so the sentinel never leaks into exact arithmetic.
    """

    n: int
    feasible: bool
    scale: int
    dist: np.ndarray
    reach: np.ndarray

    def get(self, i: int, j: int) -> Fraction | None:
        if not self.reach[i, j]:
            return None
        return Fraction(int(self.dist[i, j]), self.scale)

    def scaled(self, w: Fraction) -> int:
        """``w * scale`` as an int, for w a multiple of ``1 / scale``: every
        weight and minimum walk weight of the graph behind ``dist`` is one."""
        return w.numerator * (self.scale // w.denominator)

    def reachable(self, i: int, j: int) -> bool:
        return bool(self.reach[i, j])

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
                    f"constraint x_{i} - x_{i} <= {w} is unsatisfiable"
                )
            warnings.warn(
                f"dropping vacuous self-loop ({i},{i}) of weight {w}",
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
    """
    maxabs = max(map(abs, scaled.values()), default=0)
    inf = 2 * (n + 1) * (maxabs + 1)
    wide = inf >= 1 << 61
    a = np.full((n + 1, n + 1), inf, dtype=object if wide else np.int64)
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


def _negative_cycle_witness(n: int, scaled: dict[Edge, int]) -> Walk:
    """Extract one negative-weight closed walk via Bellman-Ford predecessors.

    Only called when a negative cycle is known to exist.  Starting every
    node at distance 0 plays the role of a virtual source, so any negative
    cycle keeps relaxing through round n.
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
        raise AssertionError("caller promised a negative cycle")
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
    return Walk(tuple(cycle))


def min_walk_weights(g: PrecedenceGraph) -> DistanceMatrix:
    """All-pairs minimum walk weights by Floyd-Warshall.

    Raises :class:`InfeasibleSystem` (carrying a witness cycle) when the
    relaxation drives some diagonal entry below zero, i.e. a negative-weight
    closed walk exists and the system has no solution.

    Weights are rescaled to integers by the lcm of their denominators and
    the one kernel, :func:`_fw_numpy`, runs on int64 or on Python ints as
    their size requires; either way the result is exact.
    """
    n = g.n
    scaled, scale = _scaled_integer_edges(g)
    dist, reach = _fw_numpy(n, scaled)
    if (dist.diagonal() < 0).any():
        witness = _negative_cycle_witness(n, scaled)
        raise InfeasibleSystem(
            "no solution: negative-weight closed walk "
            f"{'-'.join(map(str, witness.nodes))} "
            f"has weight {walk_weight(g, witness)}",
            cycle=witness,
        )
    return DistanceMatrix(n, True, scale, dist, reach)


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
