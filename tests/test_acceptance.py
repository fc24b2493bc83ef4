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
    Condensation,
    PrecedenceGraph,
    ZeroWeightCycle,
    analyze,
    brute_force_max_redundant,
    decompose_walk,
    equivalent_reduction,
    find_redundant_edges,
    is_redundant_edge_set,
    max_redundant_edge_set,
    min_walk_weights,
    normalize,
    systems_equivalent,
    walk_weight,
)
from oracles import (
    brute_meg_size,
    feasible_suite,
    positive_cycle_suite,
    random_potential_system,
    random_system,
    random_walk,
    transitive_reduction_dag,
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
        assert a.condensation.edges == {(1, 2): 1, (2, 1): 0}
        res = max_redundant_edge_set(g)
        assert res.edges == {(3, 2)} and res.certified
        r = equivalent_reduction(g)
        assert r.reduced.m == 6
        cycle = [(2, 3), (3, 4), (4, 5), (5, 2)]
        assert all(e in r.reduced.edges for e in cycle)
        assert sum(r.reduced.edges[e] for e in cycle) == 0
        assert time.perf_counter() - start < 1.0


def test_criterion_02_zero_cycle_guard(criterion):
    with criterion(2, "zero-weight cycle guard blocks the unsound fast criterion"):
        g = load_fixture("shortcut_trap")
        d = min_walk_weights(g)
        with pytest.raises(ZeroWeightCycle):
            find_redundant_edges(g, d)
        # The detour bound matches the weight exactly, yet removal changes
        # the solution set: the only path back to node 2 used the edge.
        assert g.edges[(1, 3)] + d.get(3, 2) == g.edges[(1, 2)]
        assert not is_redundant_edge_set(g, {(1, 2)})


def test_criterion_03_tied_maxima(criterion):
    with criterion(3, "both tied maximum sets found; their union is rejected"):
        g = load_fixture("tied_optima")
        size, sets = brute_force_max_redundant(g)
        assert size == 1
        assert set(sets) == {frozenset({(1, 2)}), frozenset({(1, 3)})}
        assert len(sets) == 2
        assert not is_redundant_edge_set(g, {(1, 2), (1, 3)})


def test_criterion_04_unique_maximum_positive_cycles(criterion, suite_positive):
    with criterion(4, "fast criterion is the unique maximum on 200 systems"):
        start = time.perf_counter()
        for g in suite_positive:
            fast = find_redundant_edges(g, min_walk_weights(g))
            size, sets = brute_force_max_redundant(g)
            assert size == len(fast)
            assert sets == [fast]
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
            r = equivalent_reduction(g)
            assert systems_equivalent(g, r.reduced).equivalent


def test_criterion_07_reduction_size_and_condensation(criterion, suite_feasible):
    with criterion(7, "reduction edge-count formula and condensation agreement"):
        for g in suite_feasible:
            a = analyze(g)
            cond, removed = a.condensation, a.removed_pairs
            r = equivalent_reduction(g)
            multi = sum(len(c) for c in a.d.classes if len(c) >= 2)
            assert r.reduced.m == multi + len(cond.edges) - len(removed)
            index = {rep: k for k, rep in enumerate(cond.reps)}
            survivors = {
                (u, v): w
                for (u, v), w in cond.edges.items()
                if (index[u], index[v]) not in removed
            }
            assert analyze(r.reduced).condensation == Condensation(cond.reps, survivors)


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
            assert set(r.reduced.edges) == set(transitive_reduction_dag(n, arcs))
            assert all(w == 0 for w in r.reduced.edges.values())
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
        # weight each class pair at a random member per class; the fast
        # criterion on that condensation must drop the analysis's pairs
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
            found = find_redundant_edges(kg, min_walk_weights(kg))
            assert {(x - 1, y - 1) for x, y in found} == a.removed_pairs


def test_criterion_10_walk_decomposition(criterion):
    with criterion(10, "1000 walks split into a simple path plus simple cycles"):
        rng = Random(53)
        for _ in range(1000):
            g = random_system(rng)
            w = random_walk(rng, g)
            dec = decompose_walk(g, w)
            parts = [dec.path, *dec.cycles]
            assert walk_weight(g, w) == sum(walk_weight(g, p) for p in parts)
            assert Counter(w.steps) == sum(
                (Counter(p.steps) for p in parts), Counter()
            )
            assert dec.path.nodes[0] == w.nodes[0]
            assert dec.path.nodes[-1] == w.nodes[-1]
            assert len(set(dec.path.nodes)) == len(dec.path.nodes)
            for c in dec.cycles:
                assert c.closed
                assert len(set(c.nodes)) == len(c.nodes) - 1


def test_smoke_large_reduction(criterion):
    with criterion("smoke", "500-node, 5000-edge reduction inside 30 s"):
        g = random_potential_system(Random(59), 500, 5000)
        start = time.perf_counter()
        r = equivalent_reduction(g)
        assert time.perf_counter() - start < 30.0
        assert r.reduced.m <= g.m
        assert systems_equivalent(g, r.reduced).equivalent
