"""Equivalent reduction and its condensation (the ER condensation)."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import oracles
from dcsimp.core import Walk, normalize, walk_weight
from dcsimp.decomposition import Condensation, analyze
from dcsimp.reduction import equivalent_reduction
from dcsimp.verify import systems_equivalent
from shipped import load_fixture


def _er_condensation(rr):
    """The condensation of the reduced system."""
    return analyze(rr.reduced).condensation


class TestEquivalentReduction:
    def test_two_classes_fixture_exact_output(self):
        rr = equivalent_reduction(load_fixture("two_classes"))
        assert rr.reduced.edges == {
            (2, 3): Fraction(-2),
            (3, 4): Fraction(1),
            (4, 5): Fraction(0),
            (5, 2): Fraction(1),
            (1, 2): Fraction(1),
            (3, 1): Fraction(2),
        }
        assert rr.removed_count == 1
        assert rr.analysis.d.classes == ((1,), (2, 3, 4, 5))

    def test_nothing_to_do_when_weights_matter(self):
        g = load_fixture("weight_sensitive")
        rr = equivalent_reduction(g)
        assert rr.reduced == g and rr.removed_count == 0

    def test_complete_zero_digraph_becomes_one_cycle(self):
        g = normalize(3, [(i, j, 0) for i in (1, 2, 3) for j in (1, 2, 3) if i != j])
        rr = equivalent_reduction(g)
        assert rr.reduced.edges == {
            (1, 2): Fraction(0),
            (2, 3): Fraction(0),
            (3, 1): Fraction(0),
        }
        assert rr.removed_count == 3

    def test_intra_class_cycles_weigh_zero(self):
        for g in oracles.feasible_suite(401, 60):
            rr = equivalent_reduction(g)
            for order in rr.analysis.d.classes:
                if len(order) < 2:
                    continue
                cycle = Walk(order + (order[0],))
                assert walk_weight(rr.reduced, cycle) == 0

    def test_preserves_equivalence_both_ways(self):
        for g in oracles.feasible_suite(402, 60):
            rr = equivalent_reduction(g)
            assert systems_equivalent(g, rr.reduced).equivalent

    def test_edge_count_formula(self):
        for g in oracles.feasible_suite(403, 60):
            rr = equivalent_reduction(g)
            a = rr.analysis
            want = sum(len(c) for c in a.d.classes if len(c) >= 2)
            want += len(a.condensation.edges) - len(a.removed_pairs)
            assert rr.reduced.m == want
            assert rr.removed_count == g.m - rr.reduced.m

    def test_specializes_to_transitive_reduction_on_zero_dags(self):
        rng = Random(404)
        for _ in range(30):
            n = rng.randint(2, 7)
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            m = rng.randint(1, len(pairs))
            arcs = frozenset(rng.sample(pairs, m))
            g = normalize(n, [(i, j, 0) for i, j in arcs])
            rr = equivalent_reduction(g)
            assert set(rr.reduced.edges) == oracles.transitive_reduction_dag(n, arcs)
            assert all(w == 0 for w in rr.reduced.edges.values())



class TestErCondensation:
    def test_two_classes_fixture(self):
        g = load_fixture("two_classes")
        rr = equivalent_reduction(g)
        erc = _er_condensation(rr)
        assert erc.reps == (1, 2)
        assert erc.edges == {(1, 2): Fraction(1), (2, 1): Fraction(0)}

    def test_single_class_collapses_to_one_bare_node(self):
        g = normalize(3, [(i, j, 0) for i in (1, 2, 3) for j in (1, 2, 3) if i != j])
        erc = _er_condensation(equivalent_reduction(g))
        assert erc.reps == (1,) and erc.edges == {}

    def test_all_singletons_matches_reduced_graph(self):
        for g in oracles.positive_cycle_suite(406, 20):
            rr = equivalent_reduction(g)
            erc = _er_condensation(rr)
            assert erc.reps == tuple(range(1, g.n + 1))
            assert dict(erc.edges) == dict(rr.reduced.edges)

    def test_equals_condensation_minus_redundant_pairs(self):
        for g in oracles.feasible_suite(407, 60):
            rr = equivalent_reduction(g)
            a = rr.analysis
            reps, cond = a.condensation.reps, a.condensation
            survivors = {
                (reps[x], reps[y]): cond.edges[(reps[x], reps[y])]
                for (x, y) in a.edges.cross
                if (x, y) not in a.removed_pairs
            }
            assert _er_condensation(rr) == Condensation(reps, survivors)
