"""Minimum equivalent graph: reachability, greedy, exact search."""

from __future__ import annotations

from random import Random

import pytest

import oracles
from dcsimp import meg
from dcsimp.errors import LimitExceeded
from dcsimp.meg import Digraph, certificate, meg_exact, meg_greedy, redundant_arcs


def _same_closure(h: Digraph, kept: frozenset) -> bool:
    """Does keeping only ``kept``, arcs of h, preserve every reachability of h?"""
    assert kept <= h.arcs
    return oracles.closure(h.n, kept) == oracles.closure(h.n, h.arcs)


def _reachability(h: Digraph) -> list[list[bool]]:
    """Entry [i-1][j-1] says ``meg._reach`` finds a walk i ~> j."""
    succ = meg._successors(h.n, h.arcs)
    return [
        [bool(meg._reach(succ, s) >> t & 1) for t in range(1, h.n + 1)]
        for s in range(1, h.n + 1)
    ]


def _random_digraph(rng: Random, max_n: int = 7, max_m: int = 16) -> Digraph:
    n = rng.randint(0, max_n)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    m = rng.randint(0, min(max_m, len(pairs)))
    return Digraph(n, frozenset(rng.sample(pairs, m)))


# shapes random sampling rarely hits: no nodes, no arcs, isolated nodes,
# classes joined one way only, a sink class fed by a chain
_SHAPES = [
    Digraph(0, frozenset()),
    Digraph(4, frozenset()),
    Digraph(5, frozenset({(1, 2), (2, 1), (4, 5)})),
    Digraph(6, frozenset({(1, 2), (2, 3), (3, 1), (1, 3), (3, 4), (4, 5), (5, 6), (6, 4), (2, 5)})),
    Digraph(7, frozenset({(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 4), (5, 6), (6, 5), (4, 6)})),
]


def _digraphs(seed: int, count: int) -> list[Digraph]:
    rng = Random(seed)
    return _SHAPES + [_random_digraph(rng) for _ in range(count)]


def _strongly_connected(rng: Random) -> tuple[Digraph, int]:
    """A Hamiltonian cycle plus random chords on k of n nodes, the others
    isolated, as a class's tight arcs sit among the system's nodes."""
    k = rng.randint(2, 9)
    n = k + rng.randint(0, 3)
    nodes = rng.sample(range(1, n + 1), k)
    cycle = {(nodes[t], nodes[(t + 1) % k]) for t in range(k)}
    pairs = [(i, j) for i in nodes for j in nodes if i != j and (i, j) not in cycle]
    chords = rng.sample(pairs, rng.randint(0, len(pairs)))
    return Digraph(n, frozenset(cycle.union(chords))), k


class TestReachability:
    def test_three_cycle_reaches_everything(self):
        h = Digraph(3, frozenset({(1, 2), (2, 3), (3, 1)}))
        assert _reachability(h) == [[True] * 3] * 3

    def test_no_arcs_reaches_only_self(self):
        assert _reachability(Digraph(2, frozenset())) == [
            [True, False],
            [False, True],
        ]

    def test_chain_is_upper_triangular(self):
        h = Digraph(3, frozenset({(1, 2), (2, 3)}))
        assert _reachability(h) == [
            [True, True, True],
            [False, True, True],
            [False, False, True],
        ]

    def test_matches_oracle_closure(self):
        rng = Random(88)
        for _ in range(40):
            h = _random_digraph(rng)
            mat = _reachability(h)
            pairs = {
                (i, j)
                for i in range(1, h.n + 1)
                for j in range(1, h.n + 1)
                if i != j and mat[i - 1][j - 1]
            }
            assert pairs == oracles.closure(h.n, h.arcs)

    def test_stops_once_it_meets_a_wanted_node(self):
        # the search from 1 along the chain 1 -> 2 -> .. -> 6 ends at 3
        succ = meg._successors(6, [(i, i + 1) for i in range(1, 6)])
        assert meg._reach(succ, 1, 1 << 3) == 0b1110
        assert meg._reach(succ, 1) == 0b1111110


class TestRedundantArcs:
    def test_triangle_with_shortcut(self):
        h = Digraph(3, frozenset({(1, 2), (2, 3), (1, 3)}))
        assert redundant_arcs(h) == {(1, 3)}

    def test_matches_closure_comparison(self):
        # an arc is redundant alone exactly when the closure survives its loss
        for h in _digraphs(89, 80):
            assert redundant_arcs(h) == {
                a for a in h.arcs if _same_closure(h, h.arcs - {a})
            }


class TestMegExact:
    def test_cycle_with_chord_drops_the_chord(self):
        h = Digraph(
            4, frozenset({(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)})
        )
        assert meg_exact(h) == {(1, 2), (2, 3), (3, 4), (4, 1)}

    def test_complete_digraph_keeps_a_hamiltonian_cycle(self):
        h = Digraph(3, frozenset((i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j))
        kept = meg_exact(h)
        assert len(kept) == 3
        assert _same_closure(h, kept)

    def test_single_arc(self):
        assert meg_exact(Digraph(2, frozenset({(1, 2)}))) == {(1, 2)}

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(meg, "SEARCH_BUDGET", 0)
        h = Digraph(3, frozenset({(1, 2), (2, 3), (1, 3)}))
        with pytest.raises(LimitExceeded):
            meg_exact(h)

    def test_matches_brute_force_size(self):
        for h in _digraphs(90, 80):
            kept = meg_exact(h)
            assert _same_closure(h, kept)
            assert len(kept) == oracles.brute_meg_size(h.n, h.arcs)

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
            h = Digraph(n, frozenset(cycle | chords))
            assert len(meg_exact(h)) == n

    def test_complete_six_node_digraph_keeps_six_arcs(self):
        nodes = range(1, 7)
        h = Digraph(6, frozenset((i, j) for i in nodes for j in nodes if i != j))
        kept = meg_exact(h)
        assert len(kept) == 6
        assert _same_closure(h, kept)


class TestMegGreedy:
    def test_scans_lexicographically(self):
        # both (1,3) and one cycle arc are droppable alone; lexicographic
        # order meets (1,2) first (essential), then drops (1,3)
        h = Digraph(
            4, frozenset({(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)})
        )
        assert meg_greedy(h) == {(1, 2), (2, 3), (3, 4), (4, 1)}

    def test_never_beats_exact_and_always_valid(self):
        for h in _digraphs(92, 80):
            greedy = meg_greedy(h)
            assert _same_closure(h, greedy)
            assert len(greedy) >= len(meg_exact(h))
            # minimality: no kept arc can still be dropped
            for a in sorted(greedy):
                assert not _same_closure(h, greedy - {a})

    def test_matches_plain_lexicographic_greedy(self):
        for h in _digraphs(93, 200):
            assert meg_greedy(h) == oracles.lex_greedy_meg(h.n, h.arcs)

    def test_keeps_sole_arcs_without_a_search(self, monkeypatch):
        searches = []
        reach = meg._reach

        def counted(*args):
            searches.append(args)
            return reach(*args)

        monkeypatch.setattr(meg, "_reach", counted)
        for n in range(2, 10):
            cycle = frozenset((i, i % n + 1) for i in range(1, n + 1))
            assert meg_greedy(Digraph(n, cycle)) == cycle
        assert searches == []
        graphs = _digraphs(93, 200)
        for h in graphs:
            assert meg_greedy(h) == oracles.lex_greedy_meg(h.n, h.arcs)
        assert 0 < len(searches) < sum(len(h.arcs) for h in graphs)


class TestCertificate:
    def test_sparse_subgraph_with_the_same_reachability(self):
        rng = Random(94)
        for _ in range(300):
            h, k = _strongly_connected(rng)
            cert = certificate(h)
            assert cert.n == h.n
            assert cert.arcs <= h.arcs
            assert _same_closure(h, cert.arcs)
            assert len(cert.arcs) <= 2 * (k - 1)

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
        assert certificate(Digraph(n, frozenset(arcs))) == Digraph(n, frozenset(kept))

    def test_no_arcs_gives_no_arcs(self):
        assert certificate(Digraph(3, frozenset())) == Digraph(3, frozenset())

    def test_refuses_what_is_not_strongly_connected(self):
        # a path: node 3 has no arc back; two 2-cycles: the search from
        # node 1 never meets 3 and 4; a source feeding a 2-cycle
        for arcs in (
            {(1, 2), (2, 3)},
            {(1, 2), (2, 1), (3, 4), (4, 3)},
            {(3, 1), (1, 2), (2, 1)},
        ):
            with pytest.raises(ValueError):
                certificate(Digraph(4, frozenset(arcs)))

    def test_greedy_on_it_is_minimal_against_h(self):
        rng = Random(95)
        for _ in range(300):
            h, _ = _strongly_connected(rng)
            kept = meg_greedy(certificate(h))
            assert _same_closure(h, kept)
            for a in sorted(kept):
                assert not _same_closure(h, kept - {a})
