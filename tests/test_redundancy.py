"""Redundant edges: the per-edge criterion, the definitional check, closure laws.

The per-edge criterion is what ``redundant_edges(analyze(g))`` reports, and
with every cycle strictly positive it is also the unique maximum redundant
set, which ``max_redundant_edge_set`` must return.
"""

from __future__ import annotations

from itertools import combinations
from random import Random

import pytest

import oracles
from dcsimp.core import min_walk_weights
from dcsimp.decomposition import analyze, max_redundant_edge_set, redundant_edges
from dcsimp.errors import NotASubset
from dcsimp.verify import is_redundant_edge_set
from oracles import normalize
from shipped import load_fixture


def _oracle_is_redundant(g, r):
    """Re-implementation of the set check from simple-path enumeration only."""
    rest = g.without(r)
    for u, v in r:
        best = oracles.min_simple_path_weight(rest, u, v)
        if best is None or best > g.edges[(u, v)]:
            return False
    return True


def _has_zero_weight_cycle(g):
    # what `info` prints as its "zero-weight cycle:" line
    return any(len(c) > 1 for c in min_walk_weights(g).classes)


def _per_edge_and_maximum(g):
    return redundant_edges(analyze(g)), max_redundant_edge_set(g).edges


class TestHasZeroWeightCycle:
    """Some class has two or more members, as `info` reports it."""

    def test_fixtures(self):
        assert _has_zero_weight_cycle(load_fixture("two_classes"))
        assert _has_zero_weight_cycle(load_fixture("shortcut_trap"))
        assert _has_zero_weight_cycle(load_fixture("tied_optima"))
        assert not _has_zero_weight_cycle(load_fixture("weight_sensitive"))

    def test_agrees_with_cycle_enumeration(self):
        for g in oracles.feasible_suite(210, 80):
            mc = oracles.min_cycle_weight(g)
            assert _has_zero_weight_cycle(g) == (mc == 0)


class TestFindRedundantEdges:
    """The per-edge criterion, edge by edge."""

    def test_simple_detour(self):
        g = normalize(3, [(1, 2, 5), (1, 3, 2), (3, 2, 2)])
        assert _per_edge_and_maximum(g) == ({(1, 2)}, {(1, 2)})

    def test_nothing_redundant_when_weights_matter(self):
        g = load_fixture("weight_sensitive")
        assert _per_edge_and_maximum(g) == (frozenset(), frozenset())

    def test_refuses_zero_weight_cycles(self):
        # the detour bound for (1,2) matches its weight, but the detour
        # rides the zero cycle back over (1,2) itself
        g = load_fixture("shortcut_trap")
        d = min_walk_weights(g)
        assert g.edges[(1, 3)] + d.get(3, 2) == g.edges[(1, 2)]
        assert not is_redundant_edge_set(g, {(1, 2)})
        per_edge, maximum = _per_edge_and_maximum(g)
        assert (1, 2) not in per_edge and (1, 2) not in maximum


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
    """With every cycle positive, the per-edge set is the unique maximum."""

    def test_fixtures(self):
        # the two-node condensation of the main fixture, as its own system
        g = normalize(2, [(1, 2, 1), (2, 1, 0)])
        assert _per_edge_and_maximum(g) == (frozenset(), frozenset())
        g = normalize(3, [(1, 2, 5), (1, 3, 2), (3, 2, 2)])
        assert _per_edge_and_maximum(g) == ({(1, 2)}, {(1, 2)})
        g = load_fixture("weight_sensitive")
        assert _per_edge_and_maximum(g) == (frozenset(), frozenset())

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
        for g in oracles.positive_cycle_suite(73, 40):
            per_edge, maximum = _per_edge_and_maximum(g)
            size, sets = oracles.brute_force_max_redundant(g)
            assert sets == [per_edge] and size == len(per_edge)
            assert maximum == per_edge

    def test_removal_preserves_equivalence(self):
        from dcsimp.verify import systems_equivalent

        for g in oracles.positive_cycle_suite(74, 40):
            per_edge, maximum = _per_edge_and_maximum(g)
            assert maximum == per_edge
            assert systems_equivalent(g, g.without(per_edge)).equivalent


def test_edges_never_redundant_without_support():
    # a redundant edge needs some other out-edge at its tail
    for g in oracles.positive_cycle_suite(75, 30):
        red = redundant_edges(analyze(g))
        out_degree = {i: 0 for i in range(1, g.n + 1)}
        for i, _ in g.edges:
            out_degree[i] += 1
        for i, j in red:
            assert out_degree[i] >= 2
        # every per-edge hit passes the definitional check one by one
        for e in red:
            assert is_redundant_edge_set(g, {e})
