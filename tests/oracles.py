"""Independent brute-force oracles and random-input builders for the tests.

Everything here enumerates (simple paths, simple cycles, arc subsets) or
runs a dense Floyd-Warshall over every node.  Only the graph containers
are imported from the package, and no solver module, so agreement between
an oracle and a solver is a real check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from random import Random

from dcsimp.core import Edge, PrecedenceGraph, Walk, normalize


def _out_neighbors(g: PrecedenceGraph) -> dict[int, list[tuple[int, Fraction]]]:
    out: dict[int, list[tuple[int, Fraction]]] = {i: [] for i in range(1, g.n + 1)}
    for (i, j), w in sorted(g.edges.items()):
        out[i].append((j, w))
    return out


def min_simple_path_weight(g: PrecedenceGraph, u: int, v: int) -> Fraction | None:
    """Cheapest simple path u ~> v by depth-first enumeration.

    With no negative cycles this equals the minimum walk weight; u == v
    gives the degenerate answer 0.
    """
    if u == v:
        return Fraction(0)
    out = _out_neighbors(g)
    best: list[Fraction | None] = [None]

    def walk(node: int, seen: set[int], cost: Fraction) -> None:
        for nxt, w in out[node]:
            if nxt == v:
                total = cost + w
                if best[0] is None or total < best[0]:
                    best[0] = total
            elif nxt not in seen:
                seen.add(nxt)
                walk(nxt, seen, cost + w)
                seen.remove(nxt)

    walk(u, {u}, Fraction(0))
    return best[0]


def dense_min_walk_weights(
    g: PrecedenceGraph,
) -> dict[Edge, Fraction | None] | None:
    """Minimum walk weight of every ordered pair (i, j), i == j included, by
    Floyd-Warshall over all n nodes; None for an unreachable pair, and None
    in place of the whole table when a closed walk weighs less than zero.

    It runs on the weights scaled to integers by the lcm of their
    denominators, one dict of reached nodes per row, and stops at the first
    negative diagonal entry.
    """
    scale = lcm(*(w.denominator for w in g.edges.values())) if g.edges else 1
    nodes = range(1, g.n + 1)
    rows: dict[int, dict[int, int]] = {i: {i: 0} for i in nodes}
    for (i, j), w in g.edges.items():
        rows[i][j] = w.numerator * (scale // w.denominator)
    for k in nodes:
        row_k = rows[k]
        for i in nodes:
            row_i = rows[i]
            dik = row_i.get(k)
            if dik is None or i == k:
                continue
            for j, dkj in row_k.items():
                if dik + dkj < row_i.get(j, dik + dkj + 1):
                    row_i[j] = dik + dkj
            if row_i[i] < 0:
                return None
    return {
        (i, j): None if (dij := rows[i].get(j)) is None else Fraction(dij, scale)
        for i in nodes
        for j in nodes
    }


def simple_cycle_weights(g: PrecedenceGraph) -> list[Fraction]:
    """Weights of every simple cycle, one entry per cycle.

    Cycles are rooted at their smallest node to enumerate each exactly once.
    """
    out = _out_neighbors(g)
    weights: list[Fraction] = []

    def walk(root: int, node: int, seen: set[int], cost: Fraction) -> None:
        for nxt, w in out[node]:
            if nxt == root:
                weights.append(cost + w)
            elif nxt > root and nxt not in seen:
                seen.add(nxt)
                walk(root, nxt, seen, cost + w)
                seen.remove(nxt)

    for root in range(1, g.n + 1):
        walk(root, root, {root}, Fraction(0))
    return weights


def min_cycle_weight(g: PrecedenceGraph) -> Fraction | None:
    """Smallest simple-cycle weight, or None for an acyclic graph."""
    weights = simple_cycle_weights(g)
    return min(weights) if weights else None


def closure(n: int, arcs: frozenset[Edge] | set[Edge]) -> frozenset[Edge]:
    """All ordered pairs (i, j), i != j, with a walk i ~> j over the arcs."""
    adj: dict[int, list[int]] = {}
    for i, j in arcs:
        adj.setdefault(i, []).append(j)
    pairs = set()
    for s in range(1, n + 1):
        seen = {s}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj.get(u, ()):
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        pairs.update((s, t) for t in seen if t != s)
    return frozenset(pairs)


def transitive_reduction_dag(n: int, arcs: frozenset[Edge]) -> frozenset[Edge]:
    """The unique minimum arc set of a DAG with the same closure.

    An arc (u, v) is droppable exactly when a path of length >= 2 also goes
    u ~> v; on a DAG dropping all such arcs at once is safe.
    """
    reach = closure(n, arcs)
    kept = set()
    for u, v in arcs:
        detour = any((w, v) in reach for (x, w) in arcs if x == u and w != v)
        if not detour:
            kept.add((u, v))
    return frozenset(kept)


def brute_meg_size(n: int, arcs: frozenset[Edge]) -> int:
    """Minimum arcs preserving the closure, by ascending-size enumeration."""
    want = closure(n, arcs)
    ordered = sorted(arcs)
    for size in range(len(ordered) + 1):
        for combo in combinations(ordered, size):
            if closure(n, frozenset(combo)) == want:
                return size
    raise AssertionError("unreachable: the full arc set always qualifies")


def lex_greedy_meg(n: int, arcs: frozenset[Edge]) -> frozenset[Edge]:
    """Drop arcs in lexicographic order while the whole closure stays put."""
    want = closure(n, arcs)
    kept = set(arcs)
    for a in sorted(arcs):
        kept.remove(a)
        if closure(n, kept) != want:
            kept.add(a)
    return frozenset(kept)


def random_system(
    rng: Random,
    max_n: int = 5,
    max_m: int = 10,
    weights: tuple[int, int] = (-2, 3),
) -> PrecedenceGraph:
    """A random digraph with integer weights; feasibility not guaranteed."""
    n = rng.randint(2, max_n)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    m = rng.randint(1, min(max_m, len(pairs)))
    chosen = rng.sample(pairs, m)
    return normalize(n, [(i, j, rng.randint(*weights)) for i, j in chosen])


def positive_cycle_suite(seed: int, count: int) -> list[PrecedenceGraph]:
    """Random systems rejection-sampled until every simple cycle weighs > 0."""
    rng = Random(seed)
    out = []
    while len(out) < count:
        g = random_system(rng)
        mc = min_cycle_weight(g)
        if mc is None or mc > 0:
            out.append(g)
    return out


def feasible_suite(seed: int, count: int) -> list[PrecedenceGraph]:
    """Random systems rejection-sampled to feasibility; zero cycles welcome."""
    rng = Random(seed)
    out = []
    while len(out) < count:
        g = random_system(rng)
        mc = min_cycle_weight(g)
        if mc is None or mc >= 0:
            out.append(g)
    return out


def random_walk(rng: Random, g: PrecedenceGraph, max_steps: int = 25) -> Walk:
    """Follow random out-edges from a random start until stuck or long enough."""
    out = _out_neighbors(g)
    starts = [i for i in range(1, g.n + 1) if out[i]]
    node = rng.choice(starts) if starts else 1
    nodes = [node]
    for _ in range(rng.randint(0, max_steps)):
        nxt = out[nodes[-1]]
        if not nxt:
            break
        nodes.append(rng.choice(nxt)[0])
    return Walk(tuple(nodes))


def random_potential_system(
    rng: Random,
    n: int,
    m: int,
    zero_slack_share: float = 0.5,
) -> PrecedenceGraph:
    """A feasible system built from a potential: c_ij = x_i - x_j + slack.

    Every cycle weight telescopes to the sum of its slacks, so slack >= 0
    guarantees feasibility and zero-slack edges breed zero-weight cycles.
    """
    x = [0] + [rng.randint(-50, 50) for _ in range(n)]
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    chosen = rng.sample(pairs, min(m, len(pairs)))
    entries = []
    for i, j in chosen:
        slack = 0 if rng.random() < zero_slack_share else rng.randint(1, 10)
        entries.append((i, j, x[i] - x[j] + slack))
    return normalize(n, entries)
