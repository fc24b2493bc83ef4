"""Equivalent reduction and its condensation (the ER condensation)."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import oracles
from dcsimp.core import PrecedenceGraph, Walk
from dcsimp.decomposition import analyze, condensation, condensation_redundant_pairs
from dcsimp.reduction import equivalent_reduction
from dcsimp.verify import systems_equivalent
from oracles import normalize
from shipped import load_fixture


def _er_condensation(rr):
    """The classes and the condensation of the reduced system."""
    d = analyze(rr.reduced).d
    return d.classes, condensation(d)


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
                assert oracles.walk_weight(rr.reduced, cycle) == 0

    def test_preserves_equivalence_both_ways(self):
        for g in oracles.feasible_suite(402, 60):
            rr = equivalent_reduction(g)
            assert systems_equivalent(g, rr.reduced).equivalent

    def test_edge_count_formula(self):
        for g in oracles.feasible_suite(403, 60):
            rr = equivalent_reduction(g)
            a = rr.analysis
            want = sum(len(c) for c in a.d.classes if len(c) >= 2)
            want += len(a.d.class_arcs) - len(condensation_redundant_pairs(a.d))
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
        classes, erc = _er_condensation(rr)
        assert classes == ((1,), (2, 3, 4, 5)) and erc.n == 2
        assert erc.edges == {(1, 2): Fraction(1), (2, 1): Fraction(0)}

    def test_single_class_collapses_to_one_bare_node(self):
        g = normalize(3, [(i, j, 0) for i in (1, 2, 3) for j in (1, 2, 3) if i != j])
        classes, erc = _er_condensation(equivalent_reduction(g))
        assert classes == ((1, 2, 3),) and erc.n == 1 and erc.edges == {}

    def test_all_singletons_matches_reduced_graph(self):
        for g in oracles.positive_cycle_suite(406, 20):
            rr = equivalent_reduction(g)
            classes, erc = _er_condensation(rr)
            assert classes == tuple((v,) for v in range(1, g.n + 1))
            assert dict(erc.edges) == dict(rr.reduced.edges)

    def test_equals_condensation_minus_redundant_pairs(self):
        for g in oracles.feasible_suite(407, 60):
            rr = equivalent_reduction(g)
            a = rr.analysis
            cond, removed = condensation(a.d), condensation_redundant_pairs(a.d)
            survivors = {
                (x + 1, y + 1): cond.edges[(x + 1, y + 1)]
                for (x, y) in a.d.class_arcs
                if (x, y) not in removed
            }
            assert _er_condensation(rr) == (a.d.classes, PrecedenceGraph(cond.n, survivors))
