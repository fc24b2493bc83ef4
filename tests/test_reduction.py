"""Equivalent reduction and its condensation (the ER condensation)."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import oracles
from dcsimp.core import PrecedenceGraph, Walk, min_walk_weights
from dcsimp.decomposition import condensation, condensation_redundant_pairs
from dcsimp.fileformat import dumps
from dcsimp.reduction import equivalent_reduction
from dcsimp.verify import systems_equivalent
from oracles import normalize
from shipped import load_fixture


def _er_condensation(reduced):
    """The classes and the condensation of the reduced system."""
    d = min_walk_weights(reduced)
    return d.classes, condensation(d)


def _with_implied(rng, g):
    """g plus an implied constraint on about half its reachable pairs, each
    at the pair's minimum walk weight plus 0 or 1: a system equivalent to g."""
    dist = oracles.dense_min_walk_weights(g)
    extra = [
        (i, j, w + rng.randint(0, 1))
        for (i, j), w in sorted(dist.items())
        if i != j and w is not None and rng.random() < 0.5
    ]
    return normalize(g.n, [(i, j, w) for (i, j), w in g.edges.items()] + extra)


def _canonical_suite():
    """60 seeded systems of 30 nodes and 75 constraints rich in zero-weight
    cycles, each with the generator that built it."""
    for seed in range(60):
        rng = Random(seed)
        yield rng, oracles.random_potential_system(rng, 30, 75, zero_slack_share=0.6)


class TestEquivalentReduction:
    def test_two_classes_fixture_exact_output(self):
        g = load_fixture("two_classes")
        reduced = equivalent_reduction(g)
        assert reduced.edges == {
            (2, 3): Fraction(-2),
            (3, 4): Fraction(1),
            (4, 5): Fraction(0),
            (5, 2): Fraction(1),
            (1, 2): Fraction(1),
            (2, 1): Fraction(0),
        }
        assert g.m - reduced.m == 1
        assert min_walk_weights(g).classes == ((1,), (2, 3, 4, 5))

    def test_nothing_to_do_when_weights_matter(self):
        g = load_fixture("weight_sensitive")
        assert equivalent_reduction(g) == g

    def test_complete_zero_digraph_becomes_one_cycle(self):
        g = normalize(3, [(i, j, 0) for i in (1, 2, 3) for j in (1, 2, 3) if i != j])
        reduced = equivalent_reduction(g)
        assert reduced.edges == {
            (1, 2): Fraction(0),
            (2, 3): Fraction(0),
            (3, 1): Fraction(0),
        }
        assert g.m - reduced.m == 3

    def test_intra_class_cycles_weigh_zero(self):
        for g in oracles.feasible_suite(401, 60):
            reduced = equivalent_reduction(g)
            for order in min_walk_weights(g).classes:
                if len(order) < 2:
                    continue
                cycle = Walk(order + (order[0],))
                assert oracles.walk_weight(reduced, cycle) == 0

    def test_preserves_equivalence_both_ways(self):
        for g in oracles.feasible_suite(402, 60):
            assert systems_equivalent(g, equivalent_reduction(g)).equivalent

    def test_edge_count_formula(self):
        for g in oracles.feasible_suite(403, 60):
            d = min_walk_weights(g)
            want = sum(len(c) for c in d.classes if len(c) >= 2)
            want += len(list(oracles.class_arcs(d))) - len(condensation_redundant_pairs(d))
            assert equivalent_reduction(g).m == want

    def test_specializes_to_transitive_reduction_on_zero_dags(self):
        rng = Random(404)
        for _ in range(30):
            n = rng.randint(2, 7)
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            m = rng.randint(1, len(pairs))
            arcs = frozenset(rng.sample(pairs, m))
            g = normalize(n, [(i, j, 0) for i, j in arcs])
            reduced = equivalent_reduction(g)
            assert set(reduced.edges) == oracles.transitive_reduction_dag(n, arcs)
            assert all(w == 0 for w in reduced.edges.values())



class TestErCondensation:
    def test_two_classes_fixture(self):
        g = load_fixture("two_classes")
        classes, erc = _er_condensation(equivalent_reduction(g))
        assert classes == ((1,), (2, 3, 4, 5)) and erc.n == 2
        assert erc.edges == {(1, 2): Fraction(1), (2, 1): Fraction(0)}

    def test_single_class_collapses_to_one_bare_node(self):
        g = normalize(3, [(i, j, 0) for i in (1, 2, 3) for j in (1, 2, 3) if i != j])
        classes, erc = _er_condensation(equivalent_reduction(g))
        assert classes == ((1, 2, 3),) and erc.n == 1 and erc.edges == {}

    def test_all_singletons_matches_reduced_graph(self):
        for g in oracles.positive_cycle_suite(406, 20):
            reduced = equivalent_reduction(g)
            classes, erc = _er_condensation(reduced)
            assert classes == tuple((v,) for v in range(1, g.n + 1))
            assert dict(erc.edges) == dict(reduced.edges)

    def test_equals_condensation_minus_redundant_pairs(self):
        for g in oracles.feasible_suite(407, 60):
            d = min_walk_weights(g)
            cond, removed = condensation(d), condensation_redundant_pairs(d)
            survivors = {
                (x + 1, y + 1): cond.edges[(x + 1, y + 1)]
                for (x, y), _ in oracles.class_arcs(d)
                if (x, y) not in removed
            }
            got = _er_condensation(equivalent_reduction(g))
            assert got == (d.classes, PrecedenceGraph(cond.n, survivors))


class TestCanonicalOutput:
    """The reduction depends only on the solution set."""

    def test_equivalent_inputs_reduce_to_the_same_bytes(self):
        for rng, g in _canonical_suite():
            h = _with_implied(rng, g)
            assert h.m > g.m and systems_equivalent(g, h).equivalent
            assert dumps(equivalent_reduction(h)) == dumps(equivalent_reduction(g))

    def test_reducing_a_reduction_changes_nothing(self):
        for _, g in _canonical_suite():
            reduced = equivalent_reduction(g)
            assert equivalent_reduction(reduced) == reduced

    def test_equal_bytes_decide_equivalence(self):
        # a third oracle for check, beside the distances and the walks: two
        # systems are equivalent exactly when their reductions print alike
        for rng, g in _canonical_suite():
            reduced = equivalent_reduction(g)
            e = rng.choice(sorted(reduced.edges))
            loosened = PrecedenceGraph(g.n, {**reduced.edges, e: reduced.edges[e] + 1})
            for h in (_with_implied(rng, g), loosened):
                same = dumps(equivalent_reduction(h)) == dumps(reduced)
                assert systems_equivalent(g, h).equivalent == same
