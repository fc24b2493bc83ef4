"""Classes, the analysis's edge pieces, condensation, and the general solver."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction
from random import Random

import pytest

import oracles
from dcsimp import decomposition, meg
from dcsimp.core import PrecedenceGraph, Walk, min_walk_weights
from dcsimp.decomposition import (
    analyze,
    condensation,
    condensation_redundant_pairs,
    max_redundant_edge_set,
    redundant_edges,
)
from dcsimp.meg import redundant_arcs
from dcsimp.verify import is_redundant_edge_set, systems_equivalent
from oracles import brute_force_max_redundant, brute_force_redundant_edges, normalize
from shipped import NAMES, load_fixture

# P / 3 for the prime P = 10**25 + 13: scaled weights far beyond int64
WIDE = Fraction(10**25 + 13, 3)


def _pipeline(g):
    a = analyze(g)
    return a.d, a, condensation(a.d)


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
        d, a, _ = _pipeline(g)
        assert a.slack == {(3, 2)} and d.class_of[3] == d.class_of[2] == 1
        assert a.tight == {1: {(2, 5), (5, 3), (3, 4), (4, 2)}}
        assert a.cross == {(1, 2), (3, 1)} and d.class_of[1] == 0
        # one crossing each way, and neither condensation edge is redundant
        assert a.keep == a.keep - a.tied == {(1, 2), (3, 1)}

    def test_tied_optima_has_two_cheapest_crossings(self):
        g = load_fixture("tied_optima")
        d, a, _ = _pipeline(g)
        # (1, 2) and (1, 3) tie: the smaller represents the pair, and
        # neither is the pair's only cheapest crossing
        assert d.classes == ((1,), (2, 3)) and a.cross == {(1, 2), (1, 3)}
        assert a.keep == {(1, 2)} and a.keep - a.tied == frozenset()

    def test_every_edge_in_exactly_one_piece(self):
        for g in oracles.feasible_suite(318, 50):
            d, a, _ = _pipeline(g)
            pieces = [a.slack, *a.tight.values(), a.cross]
            assert sum(map(len, pieces)) == g.m
            assert frozenset().union(*pieces) == g.edges.keys()
            arcs = dict(oracles.class_arcs(d))
            assert {(d.class_of[s], d.class_of[t]) for s, t in a.cross} == arcs.keys()
            assert a.tied <= a.keep <= a.cross
            # one representing edge per pair at most
            assert len({(d.class_of[s], d.class_of[t]) for s, t in a.keep}) == len(a.keep)

    def test_peak_memory_at_one_class_per_node(self):
        # K = n: nearly every edge crosses its own class pair, and the
        # routing holds flat edge sets, not a container per pair
        g = oracles.random_potential_system(Random(7), 500, 5000, zero_slack_share=0.0)
        tracemalloc.start()
        try:
            a = analyze(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(a.d.classes) == g.n
        assert peak < 4 * 2**20

    def test_peak_memory_holds_each_condensation_arc_once(self):
        # K = n: 2.61 MiB when each arc was also kept in a flat pair map and
        # the unique cheapest crossings in a second copy of ``keep``, 1.92
        # MiB with one arc store and ``tied``
        g = oracles.random_potential_system(Random(1), 500, 5000, zero_slack_share=0.0)
        tracemalloc.start()
        try:
            a = analyze(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(a.d.classes) == g.n
        assert peak < 2.3 * 2**20

    def test_slack_never_below_distance(self):
        for g in oracles.feasible_suite(303, 50):
            d, a, _ = _pipeline(g)
            buckets = [(k, edges, True) for k, edges in a.tight.items()]
            buckets += [(d.class_of[i], {(i, j)}, False) for i, j in a.slack]
            for k, edges, tight in buckets:
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
            d, a, _ = _pipeline(g)
            for k, order in enumerate(d.classes):
                if len(order) < 2:
                    continue
                local = {v: q + 1 for q, v in enumerate(order)}
                n = len(order)
                arcs = frozenset((local[s], local[t]) for s, t in a.tight[k])
                assert len(oracles.closure(n, arcs)) == n * (n - 1)


class TestCondensation:
    def test_two_classes_fixture(self):
        g = load_fixture("two_classes")
        d, _, cond = _pipeline(g)
        assert cond.n == 2 and [c[0] for c in d.classes] == [1, 2]
        assert cond.edges == {(1, 2): Fraction(1), (2, 1): Fraction(0)}
        assert condensation_redundant_pairs(d) == frozenset()

    def test_shortcut_trap_fixture(self):
        d, _, cond = _pipeline(load_fixture("shortcut_trap"))
        # class 1 is {1, 3}, represented by node 1; class 2 is node 2
        assert cond.n == 2 and [c[0] for c in d.classes] == [1, 2]
        assert cond.edges == {(1, 2): Fraction(3)}

    def test_all_singletons_is_isomorphic_to_input(self):
        for g in oracles.positive_cycle_suite(306, 20):
            d, _, cond = _pipeline(g)
            assert d.classes == tuple((v,) for v in range(1, g.n + 1))
            assert dict(cond.edges) == dict(g.edges)
            assert cond == g

    def test_cycles_strictly_positive(self):
        # zero-weight walks never straddle classes, so the condensed system
        # must pass the fast criterion's precondition every time
        for g in oracles.feasible_suite(307, 60):
            _, _, cond = _pipeline(g)
            mc = oracles.min_cycle_weight(cond)
            assert mc is None or mc > 0

    def test_redundant_pairs_match_fast_criterion_on_condensation(self):
        # deleting each condensation edge and recomputing is the reference;
        # the copy with every weight times P / 3 has reduced costs far past
        # int64 whenever a condensation arc has a nonzero one
        python_int_runs = 0
        for g in oracles.feasible_suite(313, 60):
            wide = PrecedenceGraph(g.n, {e: w * WIDE for e, w in g.edges.items()})
            for h in (g, wide):
                d, _, cond = _pipeline(h)
                python_int_runs += h is wide and any(r for _, r in oracles.class_arcs(d))
                want = {(a - 1, b - 1) for a, b in brute_force_redundant_edges(cond)}
                assert condensation_redundant_pairs(d) == want
        assert python_int_runs >= 40

    # Hand-made condensations, each pinning one case of the search.  Every
    # cycle weighs more than zero, so node k + 1 is class k and the
    # potential is zero: the reduced costs are the weights.

    def test_a_detour_that_ties_the_edge_removes_it(self):
        d = min_walk_weights(normalize(3, [(1, 2, 5), (1, 3, 2), (3, 2, 3)]))
        assert condensation_redundant_pairs(d) == {(0, 1)}
        d = min_walk_weights(normalize(3, [(1, 2, 5), (1, 3, 2), (3, 2, 4)]))
        assert condensation_redundant_pairs(d) == frozenset()

    def test_zero_cost_condensation_arcs(self):
        d = min_walk_weights(normalize(4, [(1, 2, 0), (2, 3, 0), (1, 3, 0), (3, 4, 0), (1, 4, 1)]))
        assert len(d.classes) == 4 and {r for _, r in oracles.class_arcs(d)} == {0, 1}
        assert condensation_redundant_pairs(d) == {(0, 2), (0, 3)}

    def test_a_target_out_of_reach_stays(self):
        # class 1's other in-arc comes from class 3, which class 0 never reaches
        d = min_walk_weights(normalize(4, [(1, 2, 9), (1, 3, 1), (4, 2, 0), (3, 1, 1)]))
        assert d.get(1, 4) is None
        assert condensation_redundant_pairs(d) == frozenset()

    def test_a_sole_out_arc_is_not_searched(self):
        # class 0's only out-arc has no alternative; class 1's dearer arc
        # has the detour 2 -> 3 -> 4
        d = min_walk_weights(normalize(4, [(1, 2, 1), (2, 3, 1), (2, 4, 5), (3, 4, 1)]))
        assert [(b, r) for (a, b), r in oracles.class_arcs(d) if a == 0] == [(1, 1)]
        assert condensation_redundant_pairs(d) == {(1, 3)}

    def test_redundant_pairs_match_networkx_dijkstra(self):
        # K = n = 150, where the brute-force oracles are too slow: (a, b)
        # goes when some out-neighbour k != b of a has r_ak + D(k, b) <= r_ab,
        # with D from networkx's Dijkstra on the reduced costs
        nx = pytest.importorskip("networkx")
        rng = Random(319)
        for zero_slack in (0.0, 0.1):
            g = oracles.random_potential_system(rng, 150, 1500, zero_slack)
            d = min_walk_weights(g)
            assert len(d.classes) > 100
            h = nx.DiGraph()
            arcs = dict(oracles.class_arcs(d))
            h.add_weighted_edges_from((a, b, r) for (a, b), r in arcs.items())
            dist = {k: nx.single_source_dijkstra_path_length(h, k) for k in h}
            want = {
                (a, b)
                for (a, b), rab in arcs.items()
                for k in h.successors(a)
                if k != b and arcs[(a, k)] + dist[k].get(b, rab + 1) <= rab
            }
            assert want and condensation_redundant_pairs(d) == want

    def test_weights_are_cheapest_crossings(self):
        # the condensation weighs each class pair at its cheapest crossing,
        # and of a surviving pair ``keep`` holds the smallest such crossing,
        # and ``keep - tied`` it too when no other crossing ties it
        for g in oracles.feasible_suite(308, 40):
            d, a, cond = _pipeline(g)
            removed = condensation_redundant_pairs(d)
            crossings = {}
            for s, t in g.edges:
                if d.class_of[s] != d.class_of[t]:
                    crossings.setdefault((d.class_of[s], d.class_of[t]), []).append((s, t))
            assert cond.n == len(d.classes) and cond.m == len(crossings)
            keep, sole = set(), set()
            for (ci, cj), edges in crossings.items():
                va, vb = d.classes[ci][0], d.classes[cj][0]
                cost = {(s, t): d.get(va, s) + g.edges[(s, t)] + d.get(t, vb) for s, t in edges}
                want = min(cost.values())
                assert cond.edges[(ci + 1, cj + 1)] == want
                cheapest = sorted(e for e in edges if cost[e] == want)
                if (ci, cj) not in removed:
                    keep.add(cheapest[0])
                    if len(cheapest) == 1:
                        sole.add(cheapest[0])
            assert a.keep == keep and a.keep - a.tied == sole


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

    def test_heuristic_fallback_flags_result(self, monkeypatch):
        g = load_fixture("two_classes")  # 4 tight intra-class edges
        monkeypatch.setattr(decomposition, "EXACT_LIMIT", 3)
        res = max_redundant_edge_set(g)
        assert not res.certified
        assert res.edges == {(3, 2)}  # greedy finds the optimum here
        assert is_redundant_edge_set(g, res.edges)

    def test_heuristic_fallback_on_a_giant_class(self):
        # 1500-odd zero-slack arcs over 300 nodes: one class far over the
        # exact limit, solved by greedy on a strong-connectivity certificate
        g = oracles.random_potential_system(Random(317), 300, 3000, 0.5)
        res = max_redundant_edge_set(g)
        assert not res.certified
        assert is_redundant_edge_set(g, res.edges)
        pieces = res.analysis.tight
        assert max(map(len, pieces.values())) > 1000
        for tight in pieces.values():
            kept = tight - res.edges
            assert oracles.closure(g.n, kept) == oracles.closure(g.n, tight)
            # each kept tight arc is essential: its head is unreachable
            # from its tail over the other kept arcs
            assert not redundant_arcs(g.n, kept)

    def test_heuristic_fallback_is_maximal_on_the_feasible_suite(self, monkeypatch):
        # every class goes greedy: no edge of what is left can go, and the
        # set is no larger than the maximum; only a system without tight
        # arcs keeps its certificate
        monkeypatch.setattr(decomposition, "EXACT_LIMIT", 0)
        for g in oracles.feasible_suite(318, 80):
            res = max_redundant_edge_set(g)
            assert is_redundant_edge_set(g, res.edges)
            assert not redundant_edges(analyze(g.without(res.edges)))
            assert len(res.edges) <= brute_force_max_redundant(g)[0]
            assert res.certified == (not res.analysis.tight)

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
                python_int_runs += any(r for _, r in oracles.class_arcs(a.d))
                assert redundant_edges(a) == want
        assert python_int_runs >= 10

    def test_positive_cycles_match_fast_criterion(self):
        for g in oracles.positive_cycle_suite(316, 60):
            assert redundant_edges(analyze(g)) == brute_force_redundant_edges(g)


def test_no_meg_question_is_sized_by_the_system(monkeypatch):
    # 60 nodes, most of them isolated, and three small zero-weight classes
    # joined by crossings: each MEG instance is built on one class's nodes
    g = normalize(
        60,
        [
            (3, 4, 0), (4, 3, 0),
            (10, 11, 0), (11, 12, 0), (12, 10, 0), (10, 12, 0),
            (20, 21, 1), (21, 20, -1), (21, 22, 2), (22, 20, -3),
            (4, 10, 2), (12, 20, 5), (3, 20, 1), (22, 50, 0),
        ],
    )
    sizes = []  # (function, n) per call into the meg module

    def recording(solve):
        def solve_and_record(n, arcs):
            sizes.append((solve.__name__, n))
            return solve(n, arcs)

        return solve_and_record

    for solve in (meg.redundant_arcs, meg.meg_exact, meg.meg_greedy, meg.certificate):
        monkeypatch.setattr(decomposition, solve.__name__, recording(solve))
    largest = max(map(len, min_walk_weights(g).classes))
    assert largest == 3
    redundant_edges(analyze(g))
    max_redundant_edge_set(g)
    monkeypatch.setattr(decomposition, "EXACT_LIMIT", 0)  # greedy on a certificate
    max_redundant_edge_set(g)
    assert {name for name, _ in sizes} == {
        "redundant_arcs", "meg_exact", "meg_greedy", "certificate"
    }
    assert max(n for _, n in sizes) <= largest
