"""Acceptance scorecard: one test per published criterion.

Every test prints "[acceptance] criterion N: PASS/FAIL - summary" straight
to the terminal, bypassing capture, so a plain pytest run shows the full
scorecard.  Criteria with a stated time budget assert it.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from random import Random

import pytest

from dcsimp import (
    PrecedenceGraph,
    analyze,
    condensation,
    condensation_redundant_pairs,
    equivalent_reduction,
    is_redundant_edge_set,
    max_redundant_edge_set,
    min_walk_weights,
    redundant_edges,
    systems_equivalent,
)
from oracles import (
    brute_force_max_redundant,
    brute_force_redundant_edges,
    brute_meg_size,
    decompose_walk,
    feasible_suite,
    normalize,
    positive_cycle_suite,
    random_potential_system,
    random_system,
    random_walk,
    transitive_reduction_dag,
    walk_weight,
)
from shipped import load_fixture


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def run(label, summary):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"[acceptance] criterion {label}: FAIL - {summary}")
            raise
        with capsys.disabled():
            print(f"[acceptance] criterion {label}: PASS - {summary}")

    return run


@pytest.fixture(scope="module")
def suite_positive():
    return positive_cycle_suite(seed=41, count=200)


@pytest.fixture(scope="module")
def suite_feasible():
    return feasible_suite(seed=43, count=200)


def test_criterion_01_fixture_pipeline(criterion):
    with criterion(1, "fixture pipeline: classes, condensation, removal, reduction"):
        start = time.perf_counter()
        g = load_fixture("two_classes")
        a = analyze(g)
        assert a.d.classes == ((1,), (2, 3, 4, 5))
        assert condensation(a.d).edges == {(1, 2): 1, (2, 1): 0}
        res = max_redundant_edge_set(g)
        assert res.edges == {(3, 2)} and res.certified
        r = equivalent_reduction(g)
        assert r.m == 6
        cycle = [(2, 3), (3, 4), (4, 5), (5, 2)]
        assert all(e in r.edges for e in cycle)
        assert sum(r.edges[e] for e in cycle) == 0
        assert time.perf_counter() - start < 1.0


def test_criterion_02_zero_cycle_guard(criterion):
    with criterion(2, "zero-weight cycle: the tied detour is never taken as redundancy"):
        g = load_fixture("shortcut_trap")
        d = min_walk_weights(g)
        # The detour bound matches the weight exactly, yet removal changes
        # the solution set: the only path back to node 2 used the edge.
        assert g.edges[(1, 3)] + d.get(3, 2) == g.edges[(1, 2)]
        assert not is_redundant_edge_set(g, {(1, 2)})
        assert (1, 2) not in redundant_edges(analyze(g))
        assert (1, 2) not in max_redundant_edge_set(g).edges


def test_criterion_03_tied_maxima(criterion):
    with criterion(3, "both tied maximum sets found; their union is rejected"):
        g = load_fixture("tied_optima")
        size, sets = brute_force_max_redundant(g)
        assert size == 1
        assert set(sets) == {frozenset({(1, 2)}), frozenset({(1, 3)})}
        assert len(sets) == 2
        assert not is_redundant_edge_set(g, {(1, 2), (1, 3)})


def test_criterion_04_unique_maximum_positive_cycles(criterion, suite_positive):
    with criterion(4, "per-edge criterion is the unique maximum on 200 systems"):
        start = time.perf_counter()
        for g in suite_positive:
            per_edge = redundant_edges(analyze(g))
            size, sets = brute_force_max_redundant(g)
            assert size == len(per_edge)
            assert sets == [per_edge]
        assert time.perf_counter() - start < 60.0


def test_criterion_05_certified_maximum_general(criterion, suite_feasible):
    with criterion(5, "exact solver hits the brute-force maximum on 200 systems"):
        start = time.perf_counter()
        for g in suite_feasible:
            res = max_redundant_edge_set(g)
            assert res.certified
            size, _ = brute_force_max_redundant(g)
            assert len(res.edges) == size
            assert is_redundant_edge_set(g, res.edges)
        assert time.perf_counter() - start < 300.0


def test_criterion_06_equivalence_preserved(criterion, suite_positive, suite_feasible):
    with criterion(6, "removal and reduction both preserve the solution set"):
        for g in suite_positive + suite_feasible:
            res = max_redundant_edge_set(g)
            assert systems_equivalent(g, g.without(res.edges)).equivalent
            assert systems_equivalent(g, equivalent_reduction(g)).equivalent


def test_criterion_07_reduction_size_and_condensation(criterion, suite_feasible):
    with criterion(7, "reduction edge-count formula and condensation agreement"):
        for g in suite_feasible:
            d = min_walk_weights(g)
            cond, removed = condensation(d), condensation_redundant_pairs(d)
            r = equivalent_reduction(g)
            multi = sum(len(c) for c in d.classes if len(c) >= 2)
            assert r.m == multi + len(cond.edges) - len(removed)
            survivors = {
                (u, v): w
                for (u, v), w in cond.edges.items()
                if (u - 1, v - 1) not in removed
            }
            dr = min_walk_weights(r)
            assert dr.classes == d.classes
            assert condensation(dr) == PrecedenceGraph(cond.n, survivors)


def test_criterion_08_zero_weight_specializations(criterion):
    with criterion(8, "all-zero weights: transitive reduction and minimum graph"):
        rng = Random(47)
        for _ in range(100):
            n = rng.randint(2, 7)
            order = list(range(1, n + 1))
            rng.shuffle(order)
            rank = {v: q for q, v in enumerate(order)}
            pool = [
                (i, j)
                for i in range(1, n + 1)
                for j in range(1, n + 1)
                if i != j and rank[i] < rank[j]
            ]
            arcs = frozenset(rng.sample(pool, rng.randint(1, len(pool))))
            g = normalize(n, [(i, j, 0) for i, j in arcs])
            r = equivalent_reduction(g)
            assert set(r.edges) == set(transitive_reduction_dag(n, arcs))
            assert all(w == 0 for w in r.edges.values())
        for _ in range(100):
            n = rng.randint(2, 5)
            pool = [
                (i, j)
                for i in range(1, n + 1)
                for j in range(1, n + 1)
                if i != j
            ]
            m = rng.randint(1, min(10, len(pool)))
            g = normalize(n, [(i, j, 0) for i, j in rng.sample(pool, m)])
            res = max_redundant_edge_set(g)
            assert res.certified
            assert g.m - len(res.edges) == brute_meg_size(g.n, frozenset(g.edges))


def test_criterion_09_representative_independence(criterion, suite_feasible):
    with criterion(9, "results do not depend on the class representative"):
        # weight each class pair at a random member per class; the edges of
        # that condensation redundant on their own must be the analysis's pairs
        rng = Random(61)
        for g in suite_feasible:
            a = analyze(g)
            d = a.d
            pick = [rng.choice(c) for c in d.classes]
            weights = {}
            for (s, t), c in g.edges.items():
                x, y = d.class_of[s], d.class_of[t]
                if x != y:
                    w = d.get(pick[x], s) + c + d.get(t, pick[y])
                    weights[(x + 1, y + 1)] = min(w, weights.get((x + 1, y + 1), w))
            kg = PrecedenceGraph(len(d.classes), weights)
            found = brute_force_redundant_edges(kg)
            assert {(x - 1, y - 1) for x, y in found} == condensation_redundant_pairs(d)


def test_criterion_10_walk_decomposition(criterion):
    with criterion(10, "1000 walks split into a simple path plus simple cycles"):
        rng = Random(53)
        for _ in range(1000):
            g = random_system(rng)
            w = random_walk(rng, g)
            path, cycles = decompose_walk(g, w)
            parts = [path, *cycles]
            assert walk_weight(g, w) == sum(walk_weight(g, p) for p in parts)
            assert Counter(w.steps) == sum(
                (Counter(p.steps) for p in parts), Counter()
            )
            assert path.nodes[0] == w.nodes[0]
            assert path.nodes[-1] == w.nodes[-1]
            assert len(set(path.nodes)) == len(path.nodes)
            for c in cycles:
                assert c.nodes[0] == c.nodes[-1]
                assert len(set(c.nodes)) == len(c.nodes) - 1


def test_smoke_large_reduction(criterion):
    with criterion("smoke", "500-node, 5000-edge reduction inside 30 s"):
        g = random_potential_system(Random(59), 500, 5000)
        start = time.perf_counter()
        r = equivalent_reduction(g)
        assert time.perf_counter() - start < 30.0
        assert r.m <= g.m
        assert systems_equivalent(g, r).equivalent
