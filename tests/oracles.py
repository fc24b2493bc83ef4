"""Independent brute-force oracles and random-input builders for the tests.

Everything here enumerates (simple paths, simple cycles, arc and edge
subsets), runs a dense Floyd-Warshall over every node, or runs one plain
forward Dijkstra search per class over a distance matrix's condensation
arcs, read as data.  Only the graph containers and the text format are
imported from the package, and no solver module, so agreement between an
oracle and a solver is a real check.

The walk tools price a walk edge by edge and split it into a simple path
plus simple cycles, the step the paper's proofs take from walks to simple
paths; the tests use them on the solver's infeasibility witnesses and on
random walks.
"""

from __future__ import annotations

from collections.abc import Collection, Iterator
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations
from math import factorial, lcm, prod
from random import Random

from dcsimp.core import Edge, PrecedenceGraph, Walk, weight_text
from dcsimp.fileformat import loads

DEFAULT_ORACLE_LIMIT = 16


class OracleLimit(Exception):
    """An enumerating oracle refuses an input too large to enumerate."""


def normalize(n: int, entries) -> PrecedenceGraph:
    """The system of raw ``(i, j, weight)`` entries, written out as file
    text and parsed, so a test graph takes the path a file does."""
    entries = list(entries)
    body = "".join(f"e {i} {j} {weight_text(w)}\n" for i, j, w in entries)
    return loads(f"p dcs {n} {len(entries)}\n{body}")


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


def _implied_without(g: PrecedenceGraph, r: Collection[Edge]) -> bool:
    """Does g without the edges r still imply each of them: a walk i ~> j
    over the other edges, of weight at most c_ij, for every (i, j) in r?"""
    d = dense_min_walk_weights(g.without(r))  # feasible, as the callers check g
    return all(d[e] is not None and d[e] <= g.edges[e] for e in r)


def brute_force_redundant_edges(g: PrecedenceGraph) -> frozenset[Edge]:
    """Edges redundant on their own, each checked by deleting it and
    recomputing every distance; refuses an infeasible g."""
    if dense_min_walk_weights(g) is None:
        raise ValueError("the oracle refuses an infeasible system")
    return frozenset(e for e in g.edges if _implied_without(g, {e}))


def brute_force_max_redundant(
    g: PrecedenceGraph, limit: int = DEFAULT_ORACLE_LIMIT
) -> tuple[int, list[frozenset[Edge]]]:
    """All maximum redundant edge sets, by descending-cardinality enumeration.

    Any member of a redundant edge set is redundant as a singleton (subsets
    of redundant sets are redundant), so candidates are confined to the
    singleton survivors; within that universe every subset is tested, larger
    sizes first, and all hits at the first successful size are returned.
    The empty set always qualifies, so a graph with nothing redundant
    reports (0, [frozenset()]).
    """
    if g.m > limit:
        raise OracleLimit(f"{g.m} edges exceed the oracle limit of {limit}")
    universe = sorted(brute_force_redundant_edges(g))
    for size in range(len(universe), -1, -1):
        hits = [
            frozenset(combo)
            for combo in combinations(universe, size)
            if _implied_without(g, combo)
        ]
        if hits:
            return size, hits
    raise AssertionError("unreachable: the empty set is always redundant")


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
    """Minimum arcs preserving the closure, by ascending-size enumeration.

    A subset with the closure keeps an in-arc of every head and an out-arc
    of every tail, since some walk must still end or start there; so the
    sizes start at the larger of the two counts, and a subset missing one
    is passed over without computing its closure.
    """
    want = closure(n, arcs)
    ordered = sorted(arcs)
    heads = {j for _, j in ordered}
    tails = {i for i, _ in ordered}
    for size in range(max(len(heads), len(tails)), len(ordered) + 1):
        for combo in combinations(ordered, size):
            if (
                {j for _, j in combo} == heads
                and {i for i, _ in combo} == tails
                and closure(n, frozenset(combo)) == want
            ):
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


def class_arcs(d) -> Iterator[tuple[Edge, int]]:
    """Each condensation arc ((a, b), r) of a distance matrix ``d``: r is
    the least reduced cost of an edge from class a to class b, read from
    the store ``d.class_succ`` in its own order."""
    for a, heads in d.class_succ.items():
        for b, r in heads.items():
            yield (a, b), r


def _out_arcs(d) -> dict[int, list[tuple[int, int]]]:
    """The (head, cost) pairs of each tail class, from :func:`class_arcs`."""
    out: dict[int, list[tuple[int, int]]] = {}
    for (a, b), r in class_arcs(d):
        out.setdefault(a, []).append((b, r))
    return out


def class_distances(d, a: int) -> dict[int, int]:
    """The least reduced cost from class a to every class it reaches over
    the condensation arcs of ``d`` (:func:`class_arcs`, read as data), by
    one forward Dijkstra search with no bound and no early stop."""
    succ = _out_arcs(d)
    dist = {a: 0}
    heap = [(0, a)]
    while heap:
        du, u = heappop(heap)
        if du > dist[u]:
            continue
        for v, r in succ.get(u, ()):
            if du + r < dist.get(v, du + r + 1):
                dist[v] = du + r
                heappush(heap, (du + r, v))
    return dist


def forward_redundant_pairs(d) -> frozenset[Edge]:
    """The condensation arcs (a, b) of ``d`` that some walk a ~> u -> b
    with u != a prices at most at the arc's own cost, from one unbounded
    forward search per class with two or more out-arcs."""
    arcs = dict(class_arcs(d))
    succ = _out_arcs(d)
    out = set()
    for a, heads in succ.items():
        if len(heads) < 2:
            continue
        for u, du in class_distances(d, a).items():
            for b, r in succ.get(u, ()) if u != a else ():
                if (a, b) in arcs and du + r <= arcs[(a, b)]:
                    out.add((a, b))
    return frozenset(out)


def forward_unimplied(d, constraints) -> tuple[Edge, Fraction] | None:
    """The first constraint ((i, j), c), in sorted order, whose scaled bound
    floor(c·scale) - potential[j] + potential[i] lies below the least
    reduced cost from i's class to j's class, or which has no walk at all;
    None when there is none.  Each tail class gets one unbounded forward
    search."""
    rows: dict[int, dict[int, int]] = {}
    for (i, j), c in sorted(constraints):
        a, b = d.class_of[i], d.class_of[j]
        if a not in rows:
            rows[a] = class_distances(d, a)
        x = c.numerator * d.scale // c.denominator - d.potential[j] + d.potential[i]
        if rows[a].get(b, x + 1) > x:
            return (i, j), c
    return None


def potential_faults(g: PrecedenceGraph, d, dense: dict[Edge, Fraction | None]) -> list[Edge]:
    """The edges of g, in order, that the potential of a distance matrix
    ``d``, read as data, prices wrongly: at a reduced cost
    c_ij·scale + potential[i] - potential[j] below zero, or above zero on a
    zero-weight cycle, which the dense distances ``dense`` of g show as
    c_ij + D(j, i) = 0.  The cost is a Fraction, so a scale that misses a
    denominator shows too."""
    out = []
    for (i, j), w in sorted(g.edges.items()):
        r = w * d.scale + d.potential[i] - d.potential[j]
        back = dense[(j, i)]
        if r < 0 or r > 0 and back is not None and w + back == 0:
            out.append((i, j))
    return out


def sample_minimum_equivalent(rng: Random, d, surviving) -> PrecedenceGraph:
    """A random member of the paper's family of minimum equivalent systems
    of the system whose distance matrix is ``d``, read as data.

    Each class of two or more nodes becomes a cycle through its members in
    a random order, each edge at the difference of their potentials.  Each
    class pair (a, b) in ``surviving``, the condensation arcs that are not
    redundant, becomes one edge (u, v) with u drawn from class a and v from
    class b, at D(u, v): the arc's reduced cost, which no detour meets,
    plus potential[v] - potential[u], unscaled.
    """
    p, scale = d.potential, d.scale
    edges: dict[Edge, Fraction] = {}
    for members in d.classes:
        if len(members) > 1:
            order = rng.sample(members, len(members))
            for i, j in zip(order, order[1:] + order[:1]):
                edges[(i, j)] = Fraction(p[j] - p[i], scale)
    for a, b in sorted(surviving):
        u, v = rng.choice(d.classes[a]), rng.choice(d.classes[b])
        edges[(u, v)] = Fraction(d.class_succ[a][b] + p[v] - p[u], scale)
    return PrecedenceGraph(d.n, edges)


def count_minimum_equivalent(d, surviving) -> int:
    """The number of members of the family :func:`sample_minimum_equivalent`
    draws from: (|C| - 1)! cycle orders per class C of two or more nodes,
    times |A|·|B| edges (u, v) per surviving class pair (A, B)."""
    count = prod(factorial(len(members) - 1) for members in d.classes)
    return count * prod(len(d.classes[a]) * len(d.classes[b]) for a, b in surviving)


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


def _check_walk(g: PrecedenceGraph, walk: Walk) -> None:
    for node in walk.nodes:
        if not (1 <= node <= g.n):
            raise ValueError(f"node {node} outside 1..{g.n}")
    for i, j in walk.steps:
        if (i, j) not in g.edges:
            raise ValueError(f"({i},{j}) is not an edge")


def walk_weight(g: PrecedenceGraph, walk: Walk) -> Fraction:
    """Total weight of a walk; the degenerate single-node walk weighs zero.
    ValueError when the walk leaves 1..n or steps over a non-edge."""
    _check_walk(g, walk)
    return sum((g.edges[step] for step in walk.steps), Fraction(0))


def decompose_walk(g: PrecedenceGraph, walk: Walk) -> tuple[Walk, tuple[Walk, ...]]:
    """Split a walk into a simple path plus simple cycles (order of peeling).

    Scans the walk once, keeping a stack of nodes not yet known to repeat.
    Whenever the next node already sits on the stack, the segment from its
    earlier occurrence is peeled off as a cycle; stack nodes are pairwise
    distinct, so every peeled cycle is simple, and the surviving stack is a
    simple path from first to last node (degenerate when they coincide).
    Each input edge lands in exactly one output piece, so total weight and
    the edge multiset are both conserved.  ValueError as for
    :func:`walk_weight`.
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
    return Walk(tuple(stack)), tuple(cycles)


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


def project_system(
    rng: Random,
    n: int,
    width: int = 10,
    maxlag_share: float = 0.3,
    fixed_share: float = 0.5,
) -> PrecedenceGraph:
    """A project network with time windows (Bartusch, Möhring & Radermacher
    1988): n activities at topological positions 0..n-1, under a random
    permutation of the ids, each with a duration p of 1..10.

    Each position past the first takes 1..3 predecessors among the
    ``width`` positions before it.  A precedence (q, k) is the constraint
    x_q - x_k <= -p_q.  A ``maxlag_share`` of them also bound the lag the
    other way, x_k - x_q <= S_k - S_q + s, with S the earliest start times;
    s is 0 on a ``fixed_share`` of those, which closes a zero cycle when the
    precedence is critical, and 1..20 otherwise.  S meets every constraint,
    so the system is feasible, and its classes form a layered condensation.
    """
    ids = rng.sample(range(1, n + 1), n)
    p = [rng.randint(1, 10) for _ in range(n)]
    start = [0] * n
    precedences = []
    for k in range(1, n):
        earlier = range(max(0, k - width), k)
        preds = rng.sample(earlier, min(rng.randint(1, 3), len(earlier)))
        start[k] = max(start[q] + p[q] for q in preds)
        precedences += [(q, k) for q in preds]
    entries = []
    for q, k in precedences:
        entries.append((ids[q], ids[k], -p[q]))
        if rng.random() < maxlag_share:
            slack = 0 if rng.random() < fixed_share else rng.randint(1, 20)
            entries.append((ids[k], ids[q], start[k] - start[q] + slack))
    return normalize(n, entries)
