"""Minimum equivalent graph: reachability, the search, its first descent,
the cover fallback and the one entry point."""

from __future__ import annotations

from random import Random

import pytest

import oracles
from dcsimp import cover, meg
from dcsimp.cover import certificate, cycle_cover
from dcsimp.decomposition import _class_digraphs, analyze
from dcsimp.meg import minimum_equivalent, redundant_arcs

# a digraph as the meg functions take it: a node count n and a frozenset
# of arcs on 1..n
Instance = tuple[int, frozenset]


def _same_closure(h: Instance, kept: frozenset) -> bool:
    """Does keeping only ``kept``, arcs of h, preserve every reachability of h?"""
    n, arcs = h
    assert kept <= arcs
    return oracles.closure(n, kept) == oracles.closure(n, arcs)


def _reachability(h: Instance) -> list[list[bool]]:
    """Entry [i-1][j-1] says ``meg._reach`` finds a walk i ~> j."""
    n, arcs = h
    succ = meg._successors(n, arcs)
    return [[bool(meg._reach(succ, s) >> t & 1) for t in range(1, n + 1)] for s in range(1, n + 1)]


def _exact(n: int, arcs: frozenset) -> frozenset:
    """The search run to its end."""
    kept, finished = meg._search(n, arcs, meg.SEARCH_BUDGET)
    assert finished
    return kept


def _first_descent(n: int, arcs: frozenset) -> frozenset:
    """The search's first leaf: one visit per arc, then the leaf."""
    return meg._search(n, arcs, len(arcs) + 1)[0]


def _counting_reach(monkeypatch) -> list:
    """Record the arguments of every ``meg._reach`` call from now on."""
    searches = []
    reach = meg._reach

    def counted(*args):
        searches.append(args)
        return reach(*args)

    monkeypatch.setattr(meg, "_reach", counted)
    return searches


def _random_digraph(rng: Random, max_n: int = 7, max_m: int = 16) -> Instance:
    n = rng.randint(0, max_n)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    m = rng.randint(0, min(max_m, len(pairs)))
    return n, frozenset(rng.sample(pairs, m))


# shapes random sampling rarely hits: no nodes, no arcs, isolated nodes,
# classes joined one way only, a sink class fed by a chain
_SHAPES = [
    (0, frozenset()),
    (4, frozenset()),
    (5, frozenset({(1, 2), (2, 1), (4, 5)})),
    (6, frozenset({(1, 2), (2, 3), (3, 1), (1, 3), (3, 4), (4, 5), (5, 6), (6, 4), (2, 5)})),
    (7, frozenset({(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 4), (5, 6), (6, 5), (4, 6)})),
]


def _digraphs(seed: int, count: int) -> list[Instance]:
    rng = Random(seed)
    return _SHAPES + [_random_digraph(rng) for _ in range(count)]


def _strongly_connected(rng: Random) -> tuple[Instance, int]:
    """A Hamiltonian cycle plus random chords on k of n nodes, the others
    isolated, as a class's tight arcs sit among the system's nodes."""
    k = rng.randint(2, 9)
    n = k + rng.randint(0, 3)
    nodes = rng.sample(range(1, n + 1), k)
    cycle = {(nodes[t], nodes[(t + 1) % k]) for t in range(k)}
    pairs = [(i, j) for i in nodes for j in nodes if i != j and (i, j) not in cycle]
    chords = rng.sample(pairs, rng.randint(0, len(pairs)))
    return (n, frozenset(cycle.union(chords))), k


def _strong(rng: Random) -> Instance:
    """A strongly connected digraph on k of n nodes, 2 <= k <= 9, built by
    ears: a cycle, then paths through new nodes between placed ones, then up
    to four more arcs.  An ear that starts and ends at one node closes a
    cycle through it, so some of these digraphs have no perfect matching."""
    k = rng.randint(2, 9)
    n = k + rng.randint(0, 2)
    nodes = rng.sample(range(1, n + 1), k)
    c = rng.randint(2, k)
    arcs = {(nodes[t], nodes[(t + 1) % c]) for t in range(c)}
    placed = nodes[:c]
    while len(placed) < k:
        ear = nodes[len(placed) : len(placed) + rng.randint(1, k - len(placed))]
        walk = [rng.choice(placed), *ear, rng.choice(placed)]
        arcs.update(zip(walk, walk[1:]))
        placed += ear
    others = [(i, j) for i in nodes for j in nodes if i != j and (i, j) not in arcs]
    arcs.update(rng.sample(others, min(len(others), rng.randint(0, 4))))
    return n, frozenset(arcs)


def _out(n: int, arcs: frozenset) -> list[list[int]]:
    """Each node's heads in order, as ``cover._matching`` takes them."""
    out: list[list[int]] = [[] for _ in range(n + 1)]
    for i, j in sorted(arcs):
        out[i].append(j)
    return out


def _matched(n: int, *walks: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """``nxt`` and ``prv`` of a matching made of the given cycles."""
    nxt, prv = [0] * (n + 1), [0] * (n + 1)
    for walk in walks:
        for i, j in zip(walk, walk[1:] + walk[:1]):
            nxt[i], prv[j] = j, i
    return nxt, prv


def _check_fallback(h: Instance, kept: frozenset, exact: bool) -> bool:
    """The fallback's answer against the oracles; whether it met the bound."""
    n, arcs = h
    assert _same_closure(h, kept)
    assert not redundant_arcs(n, kept)
    size = oracles.brute_meg_size(n, arcs)
    assert len(kept) >= size
    assert not exact or len(kept) == size
    return exact


class TestReachability:
    def test_three_cycle_reaches_everything(self):
        h = (3, frozenset({(1, 2), (2, 3), (3, 1)}))
        assert _reachability(h) == [[True] * 3] * 3

    def test_no_arcs_reaches_only_self(self):
        assert _reachability((2, frozenset())) == [
            [True, False],
            [False, True],
        ]

    def test_chain_is_upper_triangular(self):
        h = (3, frozenset({(1, 2), (2, 3)}))
        assert _reachability(h) == [
            [True, True, True],
            [False, True, True],
            [False, False, True],
        ]

    def test_matches_oracle_closure(self):
        rng = Random(88)
        for _ in range(40):
            n, arcs = h = _random_digraph(rng)
            mat = _reachability(h)
            pairs = {
                (i, j)
                for i in range(1, n + 1)
                for j in range(1, n + 1)
                if i != j and mat[i - 1][j - 1]
            }
            assert pairs == oracles.closure(n, arcs)

    def test_stops_once_it_meets_a_wanted_node(self):
        # the search from 1 along the chain 1 -> 2 -> .. -> 6 ends at 3
        succ = meg._successors(6, [(i, i + 1) for i in range(1, 6)])
        assert meg._reach(succ, 1, 1 << 3) == 0b1110
        assert meg._reach(succ, 1) == 0b1111110


class TestRedundantArcs:
    def test_triangle_with_shortcut(self):
        assert redundant_arcs(3, frozenset({(1, 2), (2, 3), (1, 3)})) == {(1, 3)}

    def test_matches_closure_comparison(self):
        # an arc is redundant alone exactly when the closure survives its loss
        for h in _digraphs(89, 80):
            arcs = h[1]
            assert redundant_arcs(*h) == {a for a in arcs if _same_closure(h, arcs - {a})}


class TestMegExact:
    def test_cycle_with_chord_drops_the_chord(self):
        h = (4, frozenset({(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)}))
        assert _exact(*h) == {(1, 2), (2, 3), (3, 4), (4, 1)}

    def test_complete_digraph_keeps_a_hamiltonian_cycle(self):
        h = (3, frozenset((i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j))
        kept = _exact(*h)
        assert len(kept) == 3
        assert _same_closure(h, kept)

    def test_single_arc(self):
        assert _exact(2, frozenset({(1, 2)})) == {(1, 2)}

    def test_no_arcs_keeps_none(self):
        assert meg._search(3, frozenset(), 1) == (frozenset(), True)
        assert minimum_equivalent(3, frozenset()) == (frozenset(), True)

    def test_budget(self, monkeypatch):
        # the search visits 5 nodes here, its first leaf on the 4th; before
        # any leaf its best answer keeps every arc
        h = (3, frozenset({(1, 2), (2, 3), (1, 3)}))
        leaf = frozenset({(1, 2), (2, 3)})
        assert meg._search(*h, 5) == (leaf, True)
        assert meg._search(*h, 4) == (leaf, False)
        assert meg._search(*h, 0) == (h[1], False)
        # over its budget the entry point answers by the cover, here a
        # Hamiltonian cycle, which meets the bound and is graded minimum
        monkeypatch.setattr(meg, "SEARCH_BUDGET", 0)
        cycle = frozenset({(1, 2), (2, 3), (3, 1)})
        assert minimum_equivalent(3, cycle | {(1, 3)}) == (cycle, True)
        assert minimum_equivalent(3, frozenset()) == (frozenset(), True)

    def test_matches_brute_force_size(self):
        for h in _digraphs(90, 80):
            kept = _exact(*h)
            assert _same_closure(h, kept)
            assert len(kept) == oracles.brute_meg_size(*h)

    def test_returns_greedy_whenever_greedy_is_minimum(self):
        # the search returns its first minimum leaf, and its first leaf is
        # the lexicographic greedy's
        minimum = 0
        for h in _digraphs(96, 150):
            greedy = oracles.lex_greedy_meg(*h)
            if len(greedy) == oracles.brute_meg_size(*h):
                minimum += 1
                assert _exact(*h) == greedy
        assert minimum > 100

    def test_hamiltonian_strongly_connected_needs_exactly_n(self):
        # a Hamiltonian cycle plus chords: the optimum is n arcs
        rng = Random(91)
        for _ in range(25):
            n = rng.randint(3, 6)
            cycle = {(i, i % n + 1) for i in range(1, n + 1)}
            pairs = [
                (i, j)
                for i in range(1, n + 1)
                for j in range(1, n + 1)
                if i != j and (i, j) not in cycle
            ]
            chords = set(rng.sample(pairs, rng.randint(0, min(4, len(pairs)))))
            assert len(_exact(n, frozenset(cycle | chords))) == n

    def test_complete_six_node_digraph_keeps_six_arcs(self):
        nodes = range(1, 7)
        h = (6, frozenset((i, j) for i in nodes for j in nodes if i != j))
        kept = _exact(*h)
        assert len(kept) == 6
        assert _same_closure(h, kept)


class TestMegGreedy:
    """The search's first descent is the lexicographic greedy."""

    def test_scans_lexicographically(self):
        # both (1,3) and one cycle arc are droppable alone; lexicographic
        # order meets (1,2) first (essential), then drops (1,3)
        h = (4, frozenset({(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)}))
        assert _first_descent(*h) == {(1, 2), (2, 3), (3, 4), (4, 1)}

    def test_never_beats_exact_and_always_valid(self):
        for h in _digraphs(92, 80):
            greedy = _first_descent(*h)
            assert _same_closure(h, greedy)
            assert len(greedy) >= len(_exact(*h))
            # minimality: no kept arc can still be dropped
            for a in sorted(greedy):
                assert not _same_closure(h, greedy - {a})

    def test_matches_plain_lexicographic_greedy(self):
        for h in _digraphs(93, 200):
            assert _first_descent(*h) == oracles.lex_greedy_meg(*h)

    def test_keeps_sole_arcs_without_a_search(self, monkeypatch):
        searches = _counting_reach(monkeypatch)
        for n in range(2, 10):
            cycle = frozenset((i, i % n + 1) for i in range(1, n + 1))
            assert _first_descent(n, cycle) == cycle
        assert searches == []
        graphs = _digraphs(93, 200)
        for h in graphs:
            assert _first_descent(*h) == oracles.lex_greedy_meg(*h)
        assert 0 < len(searches) < sum(len(arcs) for _, arcs in graphs)


class TestMinimumEquivalent:
    def test_exact_path_searches_no_sole_arc(self, monkeypatch):
        # every arc of a Hamiltonian cycle is its head's only in-arc, so the
        # exact search proves the cycle minimum without one reachability search
        searches = _counting_reach(monkeypatch)
        for n in range(2, 10):
            cycle = frozenset((i, i % n + 1) for i in range(1, n + 1))
            assert minimum_equivalent(n, cycle) == (cycle, True)
        assert searches == []

    def test_over_the_limit_takes_the_cover(self, monkeypatch):
        # the complete digraph on 6 nodes: the cover is a Hamiltonian cycle,
        # certified like the exact search's
        nodes = range(1, 7)
        h = (6, frozenset((i, j) for i in nodes for j in nodes if i != j))
        assert len(h[1]) > meg.EXACT_LIMIT
        kept, exact = minimum_equivalent(*h)
        assert (kept, exact) == cycle_cover(*h)
        assert exact and len(kept) == 6 and _same_closure(h, kept)
        monkeypatch.setattr(meg, "EXACT_LIMIT", len(h[1]))
        assert minimum_equivalent(*h) == (_exact(*h), True)

    def test_classes_the_search_finishes_keep_its_answer(self):
        # the cover never runs while the exact search finishes
        for h in _digraphs(99, 80):
            if len(h[1]) <= meg.EXACT_LIMIT:
                assert minimum_equivalent(*h) == (_exact(*h), True)


class TestCover:
    """The fallback: a matching's cycles and paths, merged and connected."""

    def test_matches_the_oracles_on_strongly_connected_digraphs(self, monkeypatch):
        monkeypatch.setattr(meg, "EXACT_LIMIT", 0)
        rng = Random(97)
        certified = deficient = 0
        for _ in range(1000):
            n, arcs = h = _strong(rng)
            certified += _check_fallback(h, *minimum_equivalent(*h))
            nodes = len({v for arc in arcs for v in arc})
            deficient += sum(map(bool, cover._matching(_out(n, arcs))[0])) < nodes
        assert 850 < certified < 1000 and deficient > 300

    def test_matches_the_oracles_on_the_feasible_suite(self, monkeypatch):
        # every class with tight arcs goes to the fallback
        monkeypatch.setattr(meg, "EXACT_LIMIT", 0)
        sizes = []
        for g in oracles.feasible_suite(98, 800):
            for members, arcs in _class_digraphs(analyze(g)):
                sizes.append(len(members))
                _check_fallback((len(members), arcs), *minimum_equivalent(len(members), arcs))
        assert len(sizes) > 80 and sum(size > 2 for size in sizes) > 15

    def test_the_matching_is_maximum(self):
        nx = pytest.importorskip("networkx")
        rng = Random(100)
        for n, arcs in _digraphs(101, 200) + [_strong(rng) for _ in range(300)]:
            nxt, prv = cover._matching(_out(n, arcs))
            matched = {(i, nxt[i]) for i in range(1, n + 1) if nxt[i]}
            assert matched <= arcs
            assert all(prv[j] == i for i, j in matched)
            assert sum(map(bool, prv)) == len(matched)
            bipartite = nx.Graph()
            tails = [("tail", i) for i in range(1, n + 1)]
            bipartite.add_nodes_from(tails)
            bipartite.add_nodes_from(("head", j) for j in range(1, n + 1))
            bipartite.add_edges_from((("tail", i), ("head", j)) for i, j in arcs)
            maximum = nx.bipartite.hopcroft_karp_matching(bipartite, top_nodes=tails)
            assert len(matched) == len(maximum) // 2

    def test_no_perfect_matching_meets_the_bound(self):
        # two 2-cycles through node 1: nu = 2 of 3 nodes, so L = 4, all of it
        h = (3, frozenset({(1, 2), (2, 1), (1, 3), (3, 1)}))
        assert cycle_cover(*h) == (h[1], True)

    @pytest.mark.parametrize(
        "cycles, extra, merged",
        [
            # the scan meets (1, 4), out of the first cycle, and its partner
            # (3, 2) is an arc: 1 -> 4 -> 3 -> 2 -> 1
            (((1, 2), (3, 4)), {(1, 4), (3, 2)}, (1, 4, 3, 2)),
            # the scan meets (2, 1), into the first cycle, from the smaller
            # one, whose nodes take the larger one's label
            (((1, 5, 6), (2, 3)), {(2, 1), (6, 3)}, (1, 5, 6, 3, 2)),
        ],
        ids=["out-of-the-first", "into-the-first"],
    )
    def test_two_exchange_merges_two_cycles(self, cycles, extra, merged):
        n = max(map(max, cycles))
        nxt, prv = _matched(n, *cycles)
        arcs = frozenset(extra).union(*(zip(c, c[1:] + c[:1]) for c in cycles))
        nodes = sorted({v for c in cycles for v in c})
        label = cover._merge(nodes, sorted(arcs), arcs, nxt, prv)
        assert (nxt, prv) == _matched(n, merged)
        assert len({label[v] for v in nodes}) == 1 and label[1] > 0
        assert cycle_cover(n, arcs) == (frozenset(zip(merged, merged[1:] + merged[:1])), True)

    def test_no_exchange_without_both_arcs(self):
        # two 4-node complete digraphs joined by (1, 5) and (5, 1): no pair
        # of arcs swaps their cycles, so the cover keeps 4 + 4 + 2 arcs, a
        # minimum above L = 8, graded not minimum
        k4 = [(i, j) for i in range(4) for j in range(4) if i != j]
        arcs = frozenset([(b + i, b + j) for b in (1, 5) for i, j in k4] + [(1, 5), (5, 1)])
        kept, exact = cycle_cover(8, arcs)
        assert len(kept) == 10 == len(_exact(8, arcs))
        assert not exact and _same_closure((8, arcs), kept)

    @pytest.mark.parametrize(
        "extra, cycle, path",
        [
            # the end 5 has an arc back to 3: cycle 3 -> 4 -> 5, path 1 -> 2
            ((5, 3), (3, 4, 5), (1, 2)),
            # 3 has an arc back to the start 1: cycle 1 -> 2 -> 3, path 4 -> 5
            ((3, 1), (1, 2, 3), (4, 5)),
        ],
        ids=["at-the-end", "at-the-start"],
    )
    def test_a_path_sheds_a_cycle(self, extra, cycle, path):
        n = 5
        nxt, prv = [0, 2, 3, 4, 5, 0], [0, 0, 1, 2, 3, 4]  # the path 1 -> .. -> 5
        arcs = frozenset({(1, 2), (2, 3), (3, 4), (4, 5), extra})
        inn = _out(n, {(j, i) for i, j in arcs})
        cover._shed(list(range(1, n + 1)), _out(n, arcs), inn, nxt, prv)
        want_nxt, want_prv = _matched(n, cycle)
        want_nxt[path[0]], want_prv[path[1]] = path[1], path[0]
        assert (nxt, prv) == (want_nxt, want_prv)

    def test_a_path_whose_inner_node_joins_two_pieces(self, monkeypatch):
        # contracted whole, the path 3 -> 9 -> 5 -> 8 leaves the piece it
        # feeds unreached, so each of its nodes stands alone
        h = (9, frozenset({
            (1, 2), (2, 1), (2, 4), (3, 4), (3, 9), (4, 1), (4, 2), (4, 5),
            (5, 1), (5, 3), (5, 8), (8, 4), (8, 5), (9, 1), (9, 2), (9, 5),
        }))
        sizes = []

        def recorded(n, arcs, first):
            sizes.append(n)
            return certificate(n, arcs, first)

        monkeypatch.setattr(cover, "certificate", recorded)
        kept, exact = cycle_cover(*h)
        assert len(sizes) == 2 and sizes[0] < sizes[1]
        assert not _check_fallback(h, kept, exact)

    def test_refuses_what_is_not_strongly_connected(self):
        for arcs in (
            {(1, 2), (2, 3)},
            {(1, 2), (2, 1), (3, 4), (4, 3)},
            {(3, 1), (1, 2), (2, 1)},
            {(1, 2), (2, 1), (2, 3)},
        ):
            with pytest.raises(ValueError):
                cycle_cover(4, frozenset(arcs))

    def test_keeps_no_arc_the_digraph_can_spare(self, monkeypatch):
        # dense digraphs, a Hamiltonian cycle plus chords, isolated nodes
        # among them: no kept arc can go
        monkeypatch.setattr(meg, "EXACT_LIMIT", 0)
        rng = Random(95)
        for _ in range(300):
            h, k = _strongly_connected(rng)
            kept, exact = minimum_equivalent(*h)
            assert _same_closure(h, kept)
            for a in sorted(kept):
                assert not _same_closure(h, kept - {a})
            assert exact == (len(kept) == k)


class TestCertificate:
    def test_sparse_subgraph_with_the_same_reachability(self):
        rng = Random(94)
        for _ in range(300):
            h, k = _strongly_connected(rng)
            cert = certificate(*h)
            assert type(cert) is frozenset
            assert cert <= h[1]
            assert _same_closure(h, cert)
            assert len(cert) <= 2 * (k - 1)

    @pytest.mark.parametrize(
        "n, arcs, kept",
        [
            # ties: every subtree reaches node 1, over its first arc found
            (
                4,
                {(i, j) for i in range(1, 5) for j in range(1, 5) if i != j},
                {(1, 2), (2, 1), (2, 3), (3, 1), (3, 4), (4, 1)},
            ),
            # the search roots at node 2, the smallest with an arc, not at
            # node 1 (isolated) nor at node 5, the first tail as listed here
            (
                6,
                {(5, 3), (3, 5), (3, 4), (4, 2), (2, 3), (5, 4)},
                {(2, 3), (3, 4), (3, 5), (4, 2), (5, 3)},
            ),
            # node 3 keeps (3, 2), into a finished sibling subtree, over its
            # child's (4, 2), which ties and is found later
            (
                4,
                {(1, 2), (2, 1), (1, 3), (3, 2), (3, 4), (4, 2), (4, 3)},
                {(1, 2), (1, 3), (2, 1), (3, 2), (3, 4), (4, 2)},
            ),
            # node 2 meets node 4 first through its child's (3, 4), then over
            # its own (2, 4); the tie keeps (3, 4), so (2, 4) goes
            (
                4,
                {(1, 4), (4, 1), (4, 2), (2, 3), (3, 4), (2, 4)},
                {(1, 4), (2, 3), (3, 4), (4, 1), (4, 2)},
            ),
        ],
        ids=["complete-4", "isolated-smallest", "cross-arc-tie", "own-arc-tie"],
    )
    def test_exact_arcs(self, n, arcs, kept):
        assert certificate(n, frozenset(arcs)) == kept

    def test_no_arcs_gives_no_arcs(self):
        assert certificate(3, frozenset()) == frozenset()

    def test_the_search_follows_the_first_arcs(self):
        # on the complete digraph, (1, 3), (3, 2), (2, 4) first out of their
        # tails become the tree, and (4, 1) closes it: a Hamiltonian cycle
        complete = frozenset((i, j) for i in range(1, 5) for j in range(1, 5) if i != j)
        first = frozenset({(1, 3), (3, 2), (2, 4)})
        assert certificate(4, complete, first) == first | {(4, 1)}

    def test_refuses_what_is_not_strongly_connected(self):
        # a path: node 3 has no arc back; two 2-cycles: the search from
        # node 1 never meets 3 and 4; a source feeding a 2-cycle
        for arcs in (
            {(1, 2), (2, 3)},
            {(1, 2), (2, 1), (3, 4), (4, 3)},
            {(3, 1), (1, 2), (2, 1)},
        ):
            with pytest.raises(ValueError):
                certificate(4, frozenset(arcs))
