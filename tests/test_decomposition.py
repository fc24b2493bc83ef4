"""Classes, the analysis's edge pieces, condensation, and the general solver."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction
from random import Random

import pytest

import oracles
from dcsimp import cover, meg
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


def _crossings(g, d):
    """The edges of g between two classes of d."""
    return {(s, t) for s, t in g.edges if d.class_of[s] != d.class_of[t]}


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
        assert _crossings(g, d) == {(1, 2), (3, 1)} and d.class_of[1] == 0
        # one crossing each way, and neither condensation edge is redundant:
        # each represents its pair, alone
        assert a.drop == a.tied == frozenset()

    def test_tied_optima_has_two_cheapest_crossings(self):
        g = load_fixture("tied_optima")
        d, a, _ = _pipeline(g)
        # (1, 2) and (1, 3) tie: the smaller represents the pair, and
        # neither is the pair's only cheapest crossing
        assert d.classes == ((1,), (2, 3)) and _crossings(g, d) == {(1, 2), (1, 3)}
        assert a.drop == {(1, 3)} and a.tied == {(1, 2)}

    def test_every_edge_in_exactly_one_piece(self):
        for g in oracles.feasible_suite(318, 50):
            d, a, _ = _pipeline(g)
            cross = _crossings(g, d)
            pieces = [a.slack, *a.tight.values(), cross]
            assert sum(map(len, pieces)) == g.m
            assert frozenset().union(*pieces) == g.edges.keys()
            arcs = dict(oracles.class_arcs(d))
            assert {(d.class_of[s], d.class_of[t]) for s, t in cross} == arcs.keys()
            assert a.drop <= cross and a.tied <= cross - a.drop
            # one representing edge per pair at most
            reps = cross - a.drop
            assert len({(d.class_of[s], d.class_of[t]) for s, t in reps}) == len(reps)

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
        # the unique cheapest crossings in a second copy of the representing
        # edges, 1.93 MiB with one arc store and ``tied`` beside sets of
        # every crossing and of the representing ones, 1.09 MiB with only
        # the dropped crossings stored
        g = oracles.random_potential_system(Random(1), 500, 5000, zero_slack_share=0.0)
        tracemalloc.start()
        try:
            a = analyze(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(a.d.classes) == g.n
        assert peak < 1.4 * 2**20

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
    # cycle weighs more than zero, so node k + 1 is class k.

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
        # the condensation weighs each class pair at its cheapest crossing;
        # of a surviving pair the smallest such crossing represents it, and
        # ``drop`` holds every other crossing; ``tied`` holds the
        # representing edges that another crossing ties
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
            cross = {e for edges in crossings.values() for e in edges}
            assert a.drop == cross - keep and a.tied <= keep and keep - a.tied == sole
            pieces = [a.slack, *a.tight.values(), a.drop, keep]
            assert sum(map(len, pieces)) == g.m
            assert frozenset().union(*pieces) == g.edges.keys()


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

    def test_matches_brute_force_on_small_project_networks(self):
        # layered precedences with maximum time lags, zero cycles where a lag
        # is fixed; the seeds whose network fits the oracle's edge limit
        checked = 0
        for n in (6, 7):
            for seed in range(20):
                g = oracles.project_system(Random(seed), n, maxlag_share=0.5)
                if g.m > oracles.DEFAULT_ORACLE_LIMIT:
                    continue
                res = max_redundant_edge_set(g)
                size, maxima = brute_force_max_redundant(g)
                assert res.certified and len(res.edges) == size
                assert res.edges in maxima
                checked += 1
        assert checked >= 20

    def test_heuristic_fallback_flags_result(self, monkeypatch):
        g = load_fixture("two_classes")  # 4 tight intra-class edges
        monkeypatch.setattr(meg, "EXACT_LIMIT", 3)
        res = max_redundant_edge_set(g)
        # the cover keeps the 4-cycle, which meets the bound L = 4
        assert res.certified
        assert res.edges == {(3, 2)}
        assert is_redundant_edge_set(g, res.edges)
        # two complete 4-node zero classes joined by (1, 5) and (5, 1): the
        # cover keeps a minimum, 10 arcs, but cannot prove it against L = 8
        k4 = [(i, j) for i in range(4) for j in range(4) if i != j]
        joins = [(1, 5, 0), (5, 1, 0)]
        h = normalize(8, [(b + i, b + j, 0) for b in (1, 5) for i, j in k4] + joins)
        res = max_redundant_edge_set(h)
        assert not res.certified and len(res.edges) == 16
        assert is_redundant_edge_set(h, res.edges)

    def test_heuristic_fallback_on_a_giant_class(self):
        # 1500-odd zero-slack arcs over 300 nodes: one class far over the
        # exact limit, solved by the cover fallback: 299 arcs on 294 nodes
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

    @pytest.mark.parametrize("seed", [1, 2, 4])
    def test_a_giant_class_keeps_about_one_arc_per_node(self, seed):
        # the giant class of these systems goes to the cover fallback, which
        # keeps 3 to 6 tight arcs above |C| on them
        g = oracles.random_potential_system(Random(seed), 300, 3000, 0.5)
        res = max_redundant_edge_set(g)
        k = max(res.analysis.tight, key=lambda k: len(res.analysis.tight[k]))
        kept = res.analysis.tight[k] - res.edges
        assert len(kept) <= len(res.analysis.d.classes[k]) + 15

    def test_heuristic_fallback_is_maximal_on_the_feasible_suite(self, monkeypatch):
        # every class goes to the cover: no edge of what is left can go, and
        # the set is no larger than the maximum; certified, it is the maximum
        monkeypatch.setattr(meg, "EXACT_LIMIT", 0)
        certified = 0
        for g in oracles.feasible_suite(318, 80):
            res = max_redundant_edge_set(g)
            assert is_redundant_edge_set(g, res.edges)
            assert not redundant_edges(analyze(g.without(res.edges)))
            size = brute_force_max_redundant(g)[0]
            assert len(res.edges) <= size
            assert not res.certified or len(res.edges) == size
            certified += res.certified and bool(res.analysis.tight)
        assert certified > 5

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
    # 60 nodes, most of them isolated, and four small zero-weight classes,
    # three joined by crossings: each MEG instance is built on one class's
    # nodes; the last class, two 2-cycles through node 30, has no perfect
    # matching, so its cover needs the certificate too
    g = normalize(
        60,
        [
            (3, 4, 0), (4, 3, 0),
            (10, 11, 0), (11, 12, 0), (12, 10, 0), (10, 12, 0),
            (20, 21, 1), (21, 20, -1), (21, 22, 2), (22, 20, -3),
            (4, 10, 2), (12, 20, 5), (3, 20, 1), (22, 50, 0),
            (30, 31, 0), (31, 30, 0), (30, 32, 0), (32, 30, 0),
        ],
    )
    sizes = []  # (function, n) per call into the meg module and inside it

    def recording(solve):
        def solve_and_record(first, *rest):
            # a node count, or the per-node lists of _matching
            sizes.append((solve.__name__, first if isinstance(first, int) else len(first) - 1))
            return solve(first, *rest)

        return solve_and_record

    for module, solve in (
        (meg, meg.redundant_arcs),
        (meg, meg.minimum_equivalent),
        (meg, meg._search),
        (cover, cover._search),
        (cover, cover.cycle_cover),
        (cover, cover._matching),
        (cover, cover.certificate),
    ):
        monkeypatch.setattr(module, solve.__name__, recording(solve))
    largest = max(map(len, min_walk_weights(g).classes))
    assert largest == 3
    redundant_edges(analyze(g))
    max_redundant_edge_set(g)
    monkeypatch.setattr(meg, "EXACT_LIMIT", 0)  # the cover on every class
    max_redundant_edge_set(g)
    assert {name for name, _ in sizes} == {
        "redundant_arcs", "minimum_equivalent", "_search", "cycle_cover", "_matching", "certificate"
    }
    assert max(n for _, n in sizes) <= largest
