"""Minimum equivalent graph: reachability, greedy, exact search."""

from __future__ import annotations

from random import Random

import pytest

import oracles
from dcsimp.errors import LimitExceeded, NotASubset
from dcsimp.meg import Digraph, meg_exact, meg_greedy, reachability, same_reachability


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


class TestReachability:
    def test_three_cycle_reaches_everything(self):
        h = Digraph(3, frozenset({(1, 2), (2, 3), (3, 1)}))
        assert reachability(h) == [[True] * 3] * 3

    def test_no_arcs_reaches_only_self(self):
        assert reachability(Digraph(2, frozenset())) == [
            [True, False],
            [False, True],
        ]

    def test_chain_is_upper_triangular(self):
        h = Digraph(3, frozenset({(1, 2), (2, 3)}))
        assert reachability(h) == [
            [True, True, True],
            [False, True, True],
            [False, False, True],
        ]

    def test_matches_oracle_closure(self):
        rng = Random(88)
        for _ in range(40):
            h = _random_digraph(rng)
            mat = reachability(h)
            pairs = {
                (i, j)
                for i in range(1, h.n + 1)
                for j in range(1, h.n + 1)
                if i != j and mat[i - 1][j - 1]
            }
            assert pairs == oracles.closure(h.n, h.arcs)


class TestSameReachability:
    def test_triangle_with_shortcut(self):
        h = Digraph(3, frozenset({(1, 2), (2, 3), (1, 3)}))
        assert same_reachability(h, {(1, 2), (2, 3)})
        assert not same_reachability(h, {(1, 3), (2, 3)})

    def test_rejects_foreign_arcs(self):
        h = Digraph(2, frozenset({(1, 2)}))
        with pytest.raises(NotASubset):
            same_reachability(h, {(2, 1)})

    def test_matches_closure_comparison(self):
        rng = Random(89)
        for _ in range(40):
            h = _random_digraph(rng)
            arcs = sorted(h.arcs)
            want = oracles.closure(h.n, h.arcs)
            for _ in range(6):
                kept = frozenset(rng.sample(arcs, rng.randint(0, len(arcs))))
                assert same_reachability(h, kept) == (
                    oracles.closure(h.n, kept) == want
                )


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
        assert same_reachability(h, kept)

    def test_single_arc(self):
        assert meg_exact(Digraph(2, frozenset({(1, 2)}))) == {(1, 2)}

    def test_limit(self):
        h = Digraph(3, frozenset({(1, 2), (2, 3), (1, 3)}))
        with pytest.raises(LimitExceeded):
            meg_exact(h, limit=2)

    def test_matches_brute_force_size(self):
        for h in _digraphs(90, 80):
            kept = meg_exact(h)
            assert same_reachability(h, kept)
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
        kept = meg_exact(h, limit=30)
        assert len(kept) == 6
        assert same_reachability(h, kept)


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
            assert same_reachability(h, greedy)
            assert len(greedy) >= len(meg_exact(h))
            # minimality: no kept arc can still be dropped
            for a in sorted(greedy):
                assert not same_reachability(h, greedy - {a})

    def test_matches_plain_lexicographic_greedy(self):
        for h in _digraphs(93, 200):
            assert meg_greedy(h) == oracles.lex_greedy_meg(h.n, h.arcs)
