"""Classes, edge partition, condensation, and the general solver."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

import oracles
from dcsimp.core import PrecedenceGraph, Walk, min_walk_weights, normalize, walk_weight
from dcsimp.decomposition import (
    analyze,
    condensation,
    condensation_redundant_pairs,
    max_redundant_edge_set,
    partition_edges,
    redundant_edges,
)
from dcsimp.errors import ExactLimitExceeded
from dcsimp.meg import Digraph, reachability
from dcsimp.redundancy import (
    find_redundant_edges,
    is_redundant_edge_set,
    mres_no_zero_cycles,
)
from dcsimp.verify import (
    brute_force_max_redundant,
    brute_force_redundant_edges,
    systems_equivalent,
)
from shipped import NAMES, load_fixture

# P / 3 for the prime P = 10**25 + 13: scaled weights far beyond int64
WIDE = Fraction(10**25 + 13, 3)


def _pipeline(g):
    d = min_walk_weights(g)
    return d, partition_edges(g, d), condensation(d)


class TestEquivalenceClasses:
    def test_two_classes_fixture(self):
        d = min_walk_weights(load_fixture("two_classes"))
        assert d.classes == ((1,), (2, 3, 4, 5))
        assert d.class_of[4] == 1 and d.class_of[1] == 0

    def test_shortcut_trap_fixture(self):
        d = min_walk_weights(load_fixture("shortcut_trap"))
        assert d.classes == ((1, 3), (2,))

    def test_positive_cycles_mean_singletons(self):
        for g in oracles.positive_cycle_suite(301, 30):
            assert all(len(c) == 1 for c in min_walk_weights(g).classes)

    def test_classes_agree_with_zero_cycle_membership(self):
        # the pair relation d_ij + d_ji = 0 is already transitive, so taking
        # components must not merge any pair beyond the directly related ones
        rng = Random(302)
        for _ in range(40):
            g = oracles.random_potential_system(rng, rng.randint(2, 6), rng.randint(2, 12))
            d = min_walk_weights(g)
            together = {
                (i, j)
                for i in range(1, g.n + 1)
                for j in range(1, g.n + 1)
                if i != j and d.class_of[i] == d.class_of[j]
            }
            assert together == {
                (i, j)
                for i in range(1, g.n + 1)
                for j in range(1, g.n + 1)
                if i != j
                and d.get(i, j) is not None
                and d.get(j, i) is not None
                and d.get(i, j) + d.get(j, i) == 0
            }


class TestPartitionEdges:
    def test_two_classes_fixture(self):
        g = load_fixture("two_classes")
        d, ep, _ = _pipeline(g)
        assert ep.intra_slack == {1: {(3, 2)}}
        assert ep.intra_tight == {1: {(2, 5), (5, 3), (3, 4), (4, 2)}}
        assert ep.cross == {(0, 1): frozenset({(1, 2)}), (1, 0): frozenset({(3, 1)})}
        assert ep.cross_min == ep.cross
        assert ep.cross_rep == {(0, 1): (1, 2), (1, 0): (3, 1)}

    def test_tied_optima_has_two_cheapest_crossings(self):
        g = load_fixture("tied_optima")
        d, ep, _ = _pipeline(g)
        assert ep.cross_min[(0, 1)] == {(1, 2), (1, 3)}
        assert ep.cross_rep[(0, 1)] == (1, 2)

    def test_slack_never_below_distance(self):
        for g in oracles.feasible_suite(303, 50):
            d, ep, _ = _pipeline(g)
            for bucket, tight in ((ep.intra_tight, True), (ep.intra_slack, False)):
                for k, edges in bucket.items():
                    assert edges
                    for i, j in edges:
                        assert d.class_of[i] == d.class_of[j] == k
                        assert (g.edges[(i, j)] == d.get(i, j)) == tight
                        assert g.edges[(i, j)] >= d.get(i, j)

    def test_pinned_distances_inside_classes(self):
        # d_ij = -d_ji and d_ij = d_is + d_sj for class members
        for g in oracles.feasible_suite(304, 50):
            d = min_walk_weights(g)
            for nodes in d.classes:
                for i in nodes:
                    for j in nodes:
                        if i == j:
                            continue
                        assert d.get(i, j) == -d.get(j, i)
                        for s in nodes:
                            assert d.get(i, j) == d.get(i, s) + d.get(s, j)

    def test_tight_subgraph_strongly_connected(self):
        for g in oracles.feasible_suite(305, 50):
            d, ep, _ = _pipeline(g)
            for k, order in enumerate(d.classes):
                if len(order) < 2:
                    continue
                local = {v: q + 1 for q, v in enumerate(order)}
                h = Digraph(
                    len(order),
                    frozenset((local[s], local[t]) for s, t in ep.intra_tight[k]),
                )
                assert all(all(row) for row in reachability(h))


class TestCondensation:
    def test_two_classes_fixture(self):
        g = load_fixture("two_classes")
        d, _, cond = _pipeline(g)
        assert cond.reps == (1, 2)
        assert cond.edges == {(1, 2): Fraction(1), (2, 1): Fraction(0)}
        assert condensation_redundant_pairs(d) == frozenset()

    def test_shortcut_trap_fixture(self):
        _, _, cond = _pipeline(load_fixture("shortcut_trap"))
        assert cond.reps == (1, 2)
        assert cond.edges == {(1, 2): Fraction(3)}

    def test_all_singletons_is_isomorphic_to_input(self):
        for g in oracles.positive_cycle_suite(306, 20):
            _, _, cond = _pipeline(g)
            assert cond.reps == tuple(range(1, g.n + 1))
            assert dict(cond.edges) == dict(g.edges)
            assert cond.as_graph() == g

    def test_cycles_strictly_positive(self):
        # zero-weight walks never straddle classes, so the condensed system
        # must pass the fast criterion's precondition every time
        for g in oracles.feasible_suite(307, 60):
            _, _, cond = _pipeline(g)
            kg = cond.as_graph()
            mc = oracles.min_cycle_weight(kg)
            assert mc is None or mc > 0

    def test_redundant_pairs_match_fast_criterion_on_condensation(self):
        # the condensation's own distances, recomputed, are the reference;
        # the copy with every weight times P / 3 has reduced costs far past
        # int64 whenever a condensation arc has a nonzero one
        python_int_runs = 0
        for g in oracles.feasible_suite(313, 60):
            wide = PrecedenceGraph(g.n, {e: w * WIDE for e, w in g.edges.items()})
            for h in (g, wide):
                d, _, cond = _pipeline(h)
                python_int_runs += h is wide and any(d.class_arcs.values())
                want = {(a - 1, b - 1) for a, b in mres_no_zero_cycles(cond.as_graph())}
                assert condensation_redundant_pairs(d) == want
        assert python_int_runs >= 40

    def test_weights_are_cheapest_crossings(self):
        for g in oracles.feasible_suite(308, 40):
            d, ep, cond = _pipeline(g)
            for (ci, cj), edges in ep.cross.items():
                va, vb = cond.reps[ci], cond.reps[cj]
                want = min(d.get(va, s) + g.edges[(s, t)] + d.get(t, vb) for s, t in edges)
                assert cond.edges[(va, vb)] == want


class TestMaxRedundantEdgeSet:
    def test_fixture_solutions(self):
        assert max_redundant_edge_set(load_fixture("two_classes")).edges == {(3, 2)}
        assert max_redundant_edge_set(load_fixture("two_classes")).certified
        assert max_redundant_edge_set(load_fixture("tied_optima")).edges == {(1, 3)}
        assert max_redundant_edge_set(load_fixture("shortcut_trap")).edges == frozenset()
        assert max_redundant_edge_set(load_fixture("weight_sensitive")).edges == frozenset()

    def test_output_is_redundant_and_equivalent(self):
        for g in oracles.feasible_suite(309, 60):
            res = max_redundant_edge_set(g)
            assert res.certified
            assert is_redundant_edge_set(g, res.edges)
            assert systems_equivalent(g, g.without(res.edges)).equivalent

    def test_matches_brute_force_maximum(self):
        for g in oracles.feasible_suite(310, 60):
            res = max_redundant_edge_set(g)
            size, _ = brute_force_max_redundant(g)
            assert len(res.edges) == size

    def test_exact_limit_raises_without_heuristic(self):
        g = load_fixture("two_classes")  # 4 tight intra-class edges
        with pytest.raises(ExactLimitExceeded):
            max_redundant_edge_set(g, exact_limit=3)

    def test_heuristic_fallback_flags_result(self):
        g = load_fixture("two_classes")
        res = max_redundant_edge_set(g, exact_limit=3, allow_heuristic=True)
        assert not res.certified
        assert res.edges == {(3, 2)}  # greedy finds the optimum here
        assert is_redundant_edge_set(g, res.edges)

    def test_class_preservation(self):
        # removing the set keeps the node partition intact
        for g in oracles.feasible_suite(312, 40):
            res = max_redundant_edge_set(g)
            d0 = min_walk_weights(g)
            d1 = min_walk_weights(g.without(res.edges))
            assert d0.classes == d1.classes


class TestRedundantEdges:
    def test_fixtures_match_brute_force(self):
        for name in NAMES:
            g = load_fixture(name)
            assert redundant_edges(analyze(g)) == brute_force_redundant_edges(g)

    def test_feasible_suite_matches_brute_force(self):
        for g in oracles.feasible_suite(314, 80):
            assert redundant_edges(analyze(g)) == brute_force_redundant_edges(g)

    def test_many_tight_arcs_match_brute_force(self):
        # zero-slack share 0.8 leaves large classes full of tight arcs; every
        # fourth system also runs scaled by P / 3, far past int64
        rng = Random(315)
        python_int_runs = 0
        for q in range(100):
            g = oracles.random_potential_system(
                rng, rng.randint(6, 7), rng.randint(2, 25), zero_slack_share=0.8
            )
            want = brute_force_redundant_edges(g)
            assert redundant_edges(analyze(g)) == want
            if q % 4 == 0 and any(g.edges.values()):
                a = analyze(PrecedenceGraph(g.n, {e: w * WIDE for e, w in g.edges.items()}))
                python_int_runs += any(a.d.class_arcs.values())
                assert redundant_edges(a) == want
        assert python_int_runs >= 10

    def test_positive_cycles_match_fast_criterion(self):
        for g in oracles.positive_cycle_suite(316, 60):
            assert redundant_edges(analyze(g)) == find_redundant_edges(g, min_walk_weights(g))
