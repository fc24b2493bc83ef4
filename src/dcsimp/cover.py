"""The minimum equivalent graph fallback: a cycle cover of a strongly
connected digraph, its pieces joined, for a class the exact search of
:mod:`dcsimp.meg` does not finish.

:func:`cycle_cover` takes a digraph as :mod:`dcsimp.meg` does, a node count
n and a frozenset of arcs on 1..n, and its steps pass per-node lists
between them: ``out[i]`` and ``inn[j]``, the heads of i and the tails of j
in order, and the matching as ``nxt[i] = j`` and ``prv[j] = i`` per matched
arc (i, j), 0 where a node has none.  Nothing here depends on the order
of a set or dict, so the answer is the same under every string-hash seed.
"""

from __future__ import annotations

from .core import _components
from .meg import Arc, _search


def cycle_cover(n: int, arcs: frozenset[Arc]) -> tuple[frozenset[Arc], bool]:
    """The fallback: a cover of the digraph's nodes by cycles and paths of
    its arcs, the arcs that join them, and whether that meets the bound.

    Every node of a strongly connected answer needs an in-arc and an
    out-arc, so as a subgraph of the tail/head bipartite graph the answer
    covers all 2|C| nodes and holds at least L = 2|C| - nu arcs by
    Gallai's edge-cover identity (Vetta, SODA 2001), nu the size of a
    maximum matching; L >= |C|.  The matching's arcs form vertex-disjoint
    cycles and paths through every node (:func:`_matching`), paths as
    short as :func:`_shed` makes them; :func:`_merge` joins cycles by
    Karp's 2-exchange, and :func:`_connect` adds what joins the pieces
    (Khuller, Raghavachari & Young, SIAM J. Comput. 1995, contract cycles
    the same way).  An answer of L arcs, a Hamiltonian cycle for one, is a
    minimum.  Raises ``ValueError`` when the arcs are not strongly
    connected on the nodes they touch.
    """
    order = sorted(arcs)
    out: list[list[int]] = [[] for _ in range(n + 1)]
    inn: list[list[int]] = [[] for _ in range(n + 1)]
    for i, j in order:
        out[i].append(j)
        inn[j].append(i)
    nodes = [v for v in range(1, n + 1) if out[v] or inn[v]]
    nxt, prv = _matching(out)
    lower = 2 * len(nodes) - sum(map(bool, nxt))
    _shed(nodes, out, inn, nxt, prv)
    label = _merge(nodes, order, arcs, nxt, prv)
    kept = _connect(order, nodes, nxt, prv, label)
    return kept, len(kept) == lower


def _matching(out: list[list[int]]) -> tuple[list[int], list[int]]:
    """A maximum matching of the tail/head bipartite graph of the arcs
    ``out[i]``, each list sorted: ``nxt[i] = j`` and ``prv[j] = i`` per
    matched arc (i, j), 0 where a node has none.

    Each tail in node order first takes its first free head.  Then rounds
    of augmenting-path searches (Kuhn 1955) start from the free tails in
    node order, depth first on an explicit stack, each round entering a
    head at most once.  A round that augments nothing ends them: no
    augmenting path is left, so the matching is maximum (Berge 1957).
    """
    nxt = [0] * len(out)
    prv = [0] * len(out)
    for i, heads in enumerate(out):
        for j in heads:
            if not prv[j]:
                nxt[i], prv[j] = j, i
                break
    augmented = True
    while augmented:
        augmented = False
        seen = [False] * len(out)
        for s, heads in enumerate(out):
            if nxt[s] or not heads:
                continue
            stack = [(s, iter(heads))]
            path: list[int] = []  # the head each stack entry was reached by
            while stack:
                for j in stack[-1][1]:
                    if not seen[j]:
                        seen[j] = True
                        path.append(j)
                        break
                else:
                    stack.pop()
                    if path:
                        path.pop()
                    continue
                if prv[j]:
                    stack.append((prv[j], iter(out[prv[j]])))
                    continue
                for (i, _), j in zip(stack, path):
                    nxt[i], prv[j] = j, i
                augmented = True
                break
    return nxt, prv


def _shed(
    nodes: list[int], out: list[list[int]], inn: list[list[int]], nxt: list[int], prv: list[int]
) -> None:
    """Cut cycles off the matching's paths; the matching stays as large.

    An arc from a path's end e back to its node p closes the cycle p ~> e
    in place of the matched arc into p, and an arc from its node p to its
    start s closes s ~> p in place of the matched arc out of p.  Each cut
    takes the longest such cycle, and the cuts go on from both ends until
    none applies.  No arc joins the end to the start: it would augment.
    """
    line: list[int] = []  # the paths, one after another
    at = [-1] * len(nxt)  # a path node's index in line
    for v in nodes:
        if prv[v]:
            continue
        lo = len(line)
        while v:
            at[v] = len(line)
            line.append(v)
            v = nxt[v]
        hi = len(line)  # what is left of the path is line[lo:hi]
        while hi - lo > 2:
            end, start = line[hi - 1], line[lo]
            a = min((at[w] for w in out[end] if lo < at[w] < hi - 1), default=0)
            if a:
                nxt[end], prv[line[a]], nxt[line[a - 1]] = line[a], end, 0
                hi = a
                continue
            a = max((at[u] for u in inn[start] if lo < at[u] < hi - 1), default=0)
            if not a:
                break
            nxt[line[a]], prv[start], prv[line[a + 1]] = start, line[a], 0
            lo = a + 1


def _merge(
    nodes: list[int], order: list[Arc], arcs: frozenset[Arc], nxt: list[int], prv: list[int]
) -> list[int]:
    """Merge the matching's cycles by Karp's 2-exchange (SIAM J. Comput.
    1979), and label each node by its cycle, 1 up, or its path, -1 down.

    Matched arcs (u, v1) and (u2, v2) of two cycles give way to (u, v2) and
    (u2, v1) when both are arcs, and the two cycles become one.  The scan
    meets each arc (u, v2) between two cycles in sorted order, and repeats
    until a pass merges nothing; a merge relabels the smaller cycle.
    """
    label = [0] * len(nxt)
    paths = 0
    for v in nodes:
        if not prv[v]:
            paths -= 1
            while v:
                label[v] = paths
                v = nxt[v]
    size = [0]
    for v in nodes:
        if not label[v]:
            size.append(0)
            while not label[v]:
                label[v] = len(size) - 1
                size[-1] += 1
                v = nxt[v]
    merged = True
    while merged:
        merged = False
        for u, v2 in order:
            a, b = label[u], label[v2]
            if a > 0 and b > 0 and a != b and (prv[v2], nxt[u]) in arcs:
                v = u if size[a] < size[b] else v2
                a, b = label[v], a + b - label[v]
                while label[v] == a:
                    label[v] = b
                    v = nxt[v]
                size[b] += size[a]
                u2, v1 = prv[v2], nxt[u]
                nxt[u], prv[v2], nxt[u2], prv[v1] = v2, u, v1, u2
                merged = True
    return label


def _connect(
    order: list[Arc], nodes: list[int], nxt: list[int], prv: list[int], label: list[int]
) -> frozenset[Arc]:
    """The cover, the matched arcs, plus the arcs that join its pieces, no
    arc of it redundant.

    Each cycle contracts to one node, and so does each path, entered only
    at its start and left only at its end, so that its inner nodes stay
    reached and reaching.  When that contraction is not strongly connected
    (an inner node of a path holds the only arc between two pieces), each
    path node stands alone instead: the certificate's search follows the
    paths' arcs first, so its tree holds most of them, and they go last in
    drop order.  Each contracted arc stands for its first arc in sorted
    order, and the first descent on the contraction's :func:`certificate`
    keeps those that join the pieces; none of them can go.  A cycle arc can, when
    a joining walk bypasses it, so a last descent over the whole answer,
    the cover's arcs last in drop order, drops those; most of them are
    their head's only in-arc and cost no search.
    """
    n = len(nxt) - 1
    cover = frozenset((i, nxt[i]) for i in nodes if nxt[i])
    comp = [0] * (n + 1)
    for whole in (True, False):
        # a cycle's key is its label, a whole path's its negative label, a
        # lone path node v's n + v, above every cycle label
        ids: dict[int, int] = {}
        for v in nodes:
            c = label[v]
            comp[v] = ids.setdefault(c if c > 0 or whole else n + v, len(ids) + 1)
        count = len(ids)
        if count == 1 and label[nodes[0]] > 0:
            return cover
        rep: dict[Arc, Arc] = {}
        for u, w in order:
            a, b = comp[u], comp[w]
            if a != b and not (whole and (label[u] < 0 < nxt[u] or label[w] < 0 < prv[w])):
                rep.setdefault((a, b), (u, w))
        path_arcs = [] if whole else [(u, nxt[u]) for u in nodes if label[u] < 0 < nxt[u]]
        chains = frozenset((comp[u], comp[v]) for u, v in path_arcs)
        try:
            cert = certificate(count, frozenset(rep), chains)
        except ValueError:
            continue
        if len({v for arc in cert for v in arc}) == count:
            break
    else:
        raise ValueError("the arcs are not strongly connected on the nodes they touch")
    top = chains.union(cert)
    joined = _search(count, top, len(top) + 1, chains)[0]
    kept = cover.union(rep[arc] for arc in joined)
    return _search(n, kept, len(kept) + 1, cover)[0]


def certificate(
    n: int, arcs: frozenset[Arc], first: frozenset[Arc] = frozenset()
) -> frozenset[Arc]:
    """At most 2(n' - 1) of the arcs, n' the nodes they touch, with the
    reachability of all of them, for arcs strongly connected on those nodes.

    The class search (:func:`dcsimp.core._components`) records it when run
    on the sorted arcs, those of ``first`` first out of each node: from the
    smallest node with an arc, the depth-first tree plus per other node the
    first arc out of its subtree whose head comes earliest.  Raises
    ``ValueError`` when the arcs are not strongly connected on the nodes
    they touch.
    """
    comp, _, kept = _components(n, sorted(arcs, key=lambda a: (a[0], a not in first, a[1])))
    if len({comp[v] for arc in arcs for v in arc}) > 1:
        raise ValueError("the arcs are not strongly connected on the nodes they touch")
    return frozenset(kept)
