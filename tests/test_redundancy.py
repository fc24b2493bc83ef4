"""Redundant edges: the fast criterion, the definitional check, closure laws."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

import oracles
from dcsimp.core import min_walk_weights, normalize
from dcsimp.errors import NotASubset, ZeroWeightCycle
from dcsimp.redundancy import (
    find_redundant_edges,
    has_zero_weight_cycle,
    is_redundant_edge_set,
    mres_no_zero_cycles,
)
from shipped import load_fixture


def _oracle_is_redundant(g, r):
    """Re-implementation of the set check from simple-path enumeration only."""
    rest = g.without(r)
    for u, v in r:
        best = oracles.min_simple_path_weight(rest, u, v)
        if best is None or best > g.edges[(u, v)]:
            return False
    return True


class TestHasZeroWeightCycle:
    def test_fixtures(self):
        assert has_zero_weight_cycle(min_walk_weights(load_fixture("two_classes")))
        assert has_zero_weight_cycle(min_walk_weights(load_fixture("shortcut_trap")))
        assert has_zero_weight_cycle(min_walk_weights(load_fixture("tied_optima")))
        assert not has_zero_weight_cycle(min_walk_weights(load_fixture("weight_sensitive")))

    def test_agrees_with_cycle_enumeration(self):
        for g in oracles.feasible_suite(210, 80):
            d = min_walk_weights(g)
            mc = oracles.min_cycle_weight(g)
            assert has_zero_weight_cycle(d) == (mc == 0)


class TestFindRedundantEdges:
    def test_simple_detour(self):
        g = normalize(3, [(1, 2, 5), (1, 3, 2), (3, 2, 2)])
        d = min_walk_weights(g)
        assert find_redundant_edges(g, d) == {(1, 2)}

    def test_nothing_redundant_when_weights_matter(self):
        g = load_fixture("weight_sensitive")
        assert find_redundant_edges(g, min_walk_weights(g)) == frozenset()

    def test_refuses_zero_weight_cycles(self):
        g = load_fixture("shortcut_trap")
        d = min_walk_weights(g)
        with pytest.raises(ZeroWeightCycle):
            find_redundant_edges(g, d)
        # ... and rightly so: the detour bound for (1,2) matches its weight
        assert g.edges[(1, 3)] + d.get(3, 2) == g.edges[(1, 2)]
        # yet the edge is not redundant
        assert not is_redundant_edge_set(g, {(1, 2)})


class TestIsRedundantEdgeSet:
    def test_fixture_sets(self):
        g = load_fixture("tied_optima")
        assert is_redundant_edge_set(g, {(1, 2)})
        assert is_redundant_edge_set(g, {(1, 3)})
        assert not is_redundant_edge_set(g, {(1, 2), (1, 3)})
        assert is_redundant_edge_set(g, set())

    def test_not_a_subset(self):
        with pytest.raises(NotASubset):
            is_redundant_edge_set(load_fixture("tied_optima"), {(2, 1)})

    def test_agrees_with_path_enumeration(self):
        rng = Random(61)
        for g in oracles.feasible_suite(62, 60):
            edges = sorted(g.edges)
            for _ in range(6):
                r = frozenset(rng.sample(edges, rng.randint(0, min(4, len(edges)))))
                assert is_redundant_edge_set(g, r) == _oracle_is_redundant(g, r)

    def test_subsets_of_redundant_sets_are_redundant(self):
        rng = Random(63)
        accepted = []
        for g in oracles.feasible_suite(64, 60):
            edges = sorted(g.edges)
            for _ in range(4):
                r = frozenset(rng.sample(edges, rng.randint(0, min(4, len(edges)))))
                if is_redundant_edge_set(g, r):
                    accepted.append((g, r))
        assert len(accepted) > 40
        for g, r in accepted:
            for size in range(len(r)):
                for sub in combinations(sorted(r), size):
                    assert is_redundant_edge_set(g, frozenset(sub))


class TestMresNoZeroCycles:
    def test_fixtures(self):
        # the two-node condensation of the main fixture, as its own system
        g = normalize(2, [(1, 2, 1), (2, 1, 0)])
        assert mres_no_zero_cycles(g) == frozenset()
        g = normalize(3, [(1, 2, 5), (1, 3, 2), (3, 2, 2)])
        assert mres_no_zero_cycles(g) == {(1, 2)}
        assert mres_no_zero_cycles(load_fixture("weight_sensitive")) == frozenset()

    def test_union_of_redundant_sets_stays_redundant(self):
        # holds with strictly positive cycles (it fails on tied_optima above)
        rng = Random(71)
        for g in oracles.positive_cycle_suite(72, 50):
            edges = sorted(g.edges)
            found = []
            for _ in range(8):
                r = frozenset(rng.sample(edges, rng.randint(1, min(3, len(edges)))))
                if is_redundant_edge_set(g, r):
                    found.append(r)
            for a in found:
                for b in found:
                    assert is_redundant_edge_set(g, a | b)

    def test_is_the_unique_brute_force_maximum(self):
        from dcsimp.verify import brute_force_max_redundant

        for g in oracles.positive_cycle_suite(73, 40):
            ours = mres_no_zero_cycles(g)
            size, sets = brute_force_max_redundant(g)
            assert sets == [ours] and size == len(ours)

    def test_removal_preserves_equivalence(self):
        from dcsimp.verify import systems_equivalent

        for g in oracles.positive_cycle_suite(74, 40):
            r = mres_no_zero_cycles(g)
            assert systems_equivalent(g, g.without(r)).equivalent


def test_edges_never_redundant_without_support():
    # a redundant edge needs some other out-edge at its tail
    for g in oracles.positive_cycle_suite(75, 30):
        d = min_walk_weights(g)
        red = find_redundant_edges(g, d)
        out_degree = {i: 0 for i in range(1, g.n + 1)}
        for i, _ in g.edges:
            out_degree[i] += 1
        for i, j in red:
            assert out_degree[i] >= 2
        # every fast-criterion hit passes the definitional check one by one
        for e in red:
            assert is_redundant_edge_set(g, {e})
