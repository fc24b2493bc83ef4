"""Equivalence reports and the exhaustive oracles."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

import oracles
from dcsimp.core import PrecedenceGraph, min_walk_weights, normalize
from dcsimp.errors import InfeasibleSystem, LimitExceeded, NodeCountMismatch
from dcsimp.redundancy import find_redundant_edges, is_redundant_edge_set
from dcsimp.verify import (
    brute_force_max_redundant,
    brute_force_redundant_edges,
    systems_equivalent,
)
from shipped import load_fixture


class TestSystemsEquivalent:
    def test_fixture_pairs(self):
        g = load_fixture("two_classes")
        assert systems_equivalent(g, g.without({(3, 2)})).equivalent
        ws = load_fixture("weight_sensitive")
        report = systems_equivalent(ws, ws.without({(1, 2)}))
        assert not report.equivalent
        assert report.witness == (((1, 2)), "a")

    def test_direction_of_witness(self):
        # b gains a constraint a cannot derive
        a = normalize(2, [(1, 2, 3)])
        b = normalize(2, [(1, 2, 3), (2, 1, -1)])
        report = systems_equivalent(a, b)
        assert not report.equivalent
        assert report.witness == (((2, 1)), "b")

    def test_tightening_a_weight_breaks_equivalence(self):
        a = normalize(2, [(1, 2, 3)])
        b = normalize(2, [(1, 2, 2)])
        report = systems_equivalent(a, b)
        assert not report.equivalent
        assert report.witness == (((1, 2)), "b")

    def test_node_count_mismatch(self):
        with pytest.raises(NodeCountMismatch):
            systems_equivalent(normalize(2, [(1, 2, 0)]), normalize(3, [(1, 2, 0)]))

    def test_infeasible_inputs_refused(self):
        bad = normalize(2, [(1, 2, -1), (2, 1, 0)])
        with pytest.raises(InfeasibleSystem):
            systems_equivalent(bad, normalize(2, [(1, 2, 0)]))
        with pytest.raises(InfeasibleSystem):
            systems_equivalent(normalize(2, [(1, 2, 0)]), bad)

    def test_reflexive_and_detects_tightening(self):
        # strictly tightening a constraint below the minimum walk weight
        # either breaks equivalence or tips the system into infeasibility
        # (when the edge sits on a cycle that the cut drives negative)
        rng = Random(501)
        for g in oracles.feasible_suite(502, 40):
            assert systems_equivalent(g, g).equivalent
            (i, j), _ = sorted(g.edges.items())[rng.randrange(g.m)]
            d = min_walk_weights(g)
            tightened = dict(g.edges)
            tightened[(i, j)] = d.get(i, j) - 1
            b = type(g)(g.n, tightened)
            mc = oracles.min_cycle_weight(b)
            if mc is not None and mc < 0:
                with pytest.raises(InfeasibleSystem):
                    systems_equivalent(g, b)
            else:
                report = systems_equivalent(g, b)
                assert not report.equivalent
                assert report.witness == (((i, j)), "b")

    def test_witness_matches_the_dense_oracle(self):
        # b moves some of a's weights by fractions of other denominators, so
        # a bound often falls strictly between two of the other side's walk
        # weights; the witness is the first constraint, a's and then b's in
        # sorted order, whose minimum walk weight on the other side is
        # missing or above its bound
        rng = Random(505)
        steps = [Fraction(k, q) for q in (1, 2, 3, 7) for k in (-2, -1, 1, 2)]
        checked = unequal = 0
        while checked < 200:
            a = oracles.random_system(rng, max_n=6, max_m=12)
            b = PrecedenceGraph(
                a.n,
                {
                    e: w + rng.choice(steps) if rng.random() < 0.3 else w
                    for e, w in a.edges.items()
                    if rng.random() < 0.9
                },
            )
            da, db = oracles.dense_min_walk_weights(a), oracles.dense_min_walk_weights(b)
            if da is None or db is None:
                continue
            want = next(
                (
                    (e, side)
                    for g, d, side in ((a, db, "a"), (b, da, "b"))
                    for e, c in sorted(g.edges.items())
                    if d[e] is None or d[e] > c
                ),
                None,
            )
            report = systems_equivalent(a, b)
            assert (report.equivalent, report.witness) == (want is None, want)
            checked += 1
            unequal += want is not None
        assert 50 < unequal < 190


class TestBruteForceRedundantEdges:
    def test_fixtures(self):
        assert brute_force_redundant_edges(load_fixture("shortcut_trap")) == frozenset()
        assert brute_force_redundant_edges(load_fixture("two_classes")) == {(3, 2)}
        assert brute_force_redundant_edges(load_fixture("tied_optima")) == {(1, 2), (1, 3)}

    def test_matches_fast_criterion_without_zero_cycles(self):
        for g in oracles.positive_cycle_suite(503, 50):
            d = min_walk_weights(g)
            assert brute_force_redundant_edges(g) == find_redundant_edges(g, d)


class TestBruteForceMaxRedundant:
    def test_tied_optima_reports_both_sets(self):
        size, sets = brute_force_max_redundant(load_fixture("tied_optima"))
        assert size == 1
        assert sorted(sets, key=sorted) == [
            frozenset({(1, 2)}),
            frozenset({(1, 3)}),
        ]

    def test_two_classes(self):
        assert brute_force_max_redundant(load_fixture("two_classes")) == (
            1,
            [frozenset({(3, 2)})],
        )

    def test_nothing_redundant_reports_empty_set(self):
        assert brute_force_max_redundant(load_fixture("weight_sensitive")) == (
            0,
            [frozenset()],
        )

    def test_limit(self):
        g = normalize(
            5, [(i, j, 3) for i in range(1, 6) for j in range(1, 6) if i != j][:17]
        )
        with pytest.raises(LimitExceeded):
            brute_force_max_redundant(g)

    def test_every_reported_set_is_maximum_and_valid(self):
        for g in oracles.feasible_suite(504, 30):
            size, sets = brute_force_max_redundant(g)
            for r in sets:
                assert len(r) == size
                assert is_redundant_edge_set(g, r)
            # no set of size+1 anywhere: spot-check by extending each hit
            for r in sets:
                for e in sorted(set(g.edges) - r):
                    assert not is_redundant_edge_set(g, r | {e})