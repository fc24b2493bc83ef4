"""Equivalence reports and the exhaustive oracles."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction
from random import Random

import pytest

import oracles
from dcsimp.core import DistanceMatrix, PrecedenceGraph, implies, min_walk_weights
from dcsimp.decomposition import equivalent_reduction, max_redundant_edge_set
from dcsimp.errors import IndexOutOfRange, InfeasibleSystem, NodeCountMismatch
from dcsimp.verify import is_redundant_edge_set, systems_equivalent
from oracles import OracleLimit, brute_force_max_redundant, brute_force_redundant_edges, normalize
from shipped import load_fixture

# P / 3 for the prime P = 10**25 + 13: scaled weights far beyond int64
WIDE = Fraction(10**25 + 13, 3)


def _wide(g):
    return PrecedenceGraph(g.n, {e: w * WIDE for e, w in g.edges.items()})


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
        # the feasible side holds a looser (1, 2), no edge, or bad's (2, 1)
        for good in (normalize(2, [(1, 2, 0)]), normalize(2, []), normalize(2, [(2, 1, 0)])):
            for a, b in ((bad, good), (good, bad)):
                with pytest.raises(InfeasibleSystem) as info:
                    systems_equivalent(a, b)
                assert info.value.cycle.nodes == (1, 2, 1)
        # every subset, the empty one included: an infeasible system implies
        # every constraint, so no answer about its edges would be meaningful
        for r in (set(), {(1, 2)}, {(2, 1)}, {(1, 2), (2, 1)}):
            with pytest.raises(InfeasibleSystem):
                is_redundant_edge_set(bad, r)

    def test_both_infeasible_names_the_cycle_of_a(self):
        a = normalize(3, [(1, 2, -1), (2, 1, 0), (3, 1, 4)])
        b = normalize(3, [(2, 3, -2), (3, 2, 1), (1, 3, 4)])
        for g, h in ((a, b), (b, a)):
            with pytest.raises(InfeasibleSystem) as alone:
                min_walk_weights(g)
            with pytest.raises(InfeasibleSystem) as info:
                systems_equivalent(g, h)
            assert str(info.value) == str(alone.value)
            assert info.value.cycle == alone.value.cycle

    def test_a_subset_pair_computes_one_distance_matrix(self, replace):
        # every constraint of the reduced b is held outright by a, so once
        # b implies a only b's distances are needed
        calls = []

        def counted(g):
            calls.append(g)
            return min_walk_weights(g)

        replace(min_walk_weights, counted)
        g = oracles.random_potential_system(Random(508), 40, 400, 0.0)
        fixture = load_fixture("two_classes")
        for a in (g, fixture, _wide(g)):
            b = a.without(max_redundant_edge_set(a).edges)
            assert b.m < a.m
            calls.clear()
            assert systems_equivalent(a, b).equivalent
            assert calls == [b]
            # the other way round, the reduced a implies the dropped edges
            calls.clear()
            assert systems_equivalent(b, a).equivalent
            assert calls == [a, b]

    def test_an_infeasible_system_is_refused_by_its_potential_alone(self, replace):
        # the refusal runs Bellman-Ford on the infeasible side and builds no
        # distance matrix for it: min_walk_weights runs once, for b (or for
        # the remainder), and the error is the one min_walk_weights raises
        calls = []

        def counted(g):
            calls.append(g)
            return min_walk_weights(g)

        def refusal(g):
            with pytest.raises(InfeasibleSystem) as alone:
                min_walk_weights(g)
            return str(alone.value), alone.value.cycle

        # cycle 1-2-1 of weight -1; b and the remainder lack a's (2, 1) and
        # (1, 3), which nothing in them implies
        bad = normalize(3, [(1, 2, -1), (2, 1, 0), (1, 3, 5)])
        also_bad = normalize(3, [(2, 3, -2), (3, 2, 1)])
        good = normalize(3, [(1, 2, -1)])
        cases = [
            (bad, good, bad),  # a has a witness in the feasible b
            (bad, also_bad, bad),  # b is infeasible, and a is reported first
            (good, also_bad, also_bad),  # b is infeasible, a is not
        ]
        replace(min_walk_weights, counted)
        for a, b, refused in cases:
            want = refusal(refused)
            calls.clear()
            with pytest.raises(InfeasibleSystem) as info:
                systems_equivalent(a, b)
            assert (str(info.value), info.value.cycle) == want
            assert calls == [b]
        r = {(2, 1)}
        want = refusal(bad)
        calls.clear()
        with pytest.raises(InfeasibleSystem) as info:
            is_redundant_edge_set(bad, r)
        assert (str(info.value), info.value.cycle) == want
        assert calls == [bad.without(r)]

    def test_a_not_equivalent_pair_holds_one_distance_matrix_at_a_time(self):
        # K = n, b the reduction of a with one constraint loosened by 1: b
        # misses a constraint of a, and a's feasibility, checked only to
        # refuse an infeasible a, comes after b's distances are let go: 0.83
        # MiB, 0.95 MiB with a's whole distance matrix built there, 1.36 MiB
        # with both held, 2.39 MiB with both held and each arc stored twice
        a = oracles.random_potential_system(Random(1), 500, 5000, zero_slack_share=0.0)
        r = equivalent_reduction(a)
        e = min(r.edges)
        b = PrecedenceGraph(r.n, {**r.edges, e: r.edges[e] + 1})
        tracemalloc.start()
        try:
            report = systems_equivalent(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not report.equivalent and report.witness[1] == "a"
        assert peak < 1.15 * 2**20

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


class TestUnimplied:
    # hand-made condensations, each pinning one case of the search

    def test_refuses_a_node_id_outside_the_range_or_not_an_int(self):
        # 0 would read the padding class_of[0] = -1, the last class; True
        # equals node 1; 7 would raise a bare IndexError, and 1.0 a bare
        # TypeError.  Behind a valid constraint, each lands in its run, and
        # a str or None id, which does not compare with an int, fails the
        # sort: that too names the id.
        d = min_walk_weights(load_fixture("two_classes"))
        for e, c, error, message in (
            ((0, 2), 100, IndexOutOfRange, r"\(0,2\) outside 1\.\.5"),
            ((2, 0), -100, IndexOutOfRange, r"\(2,0\) outside 1\.\.5"),
            ((True, 2), 100, TypeError, "node id must be an int, not bool"),
            ((1, 7), 0, IndexOutOfRange, r"\(1,7\) outside 1\.\.5"),
            ((7, 1), 0, IndexOutOfRange, r"\(7,1\) outside 1\.\.5"),
            ((1.0, 2), 100, TypeError, "node id must be an int, not float"),
            (("1", 2), 100, TypeError, "node id must be an int, not str"),
            ((None, 2), 100, TypeError, "node id must be an int, not NoneType"),
            ((1, "2"), 100, TypeError, "node id must be an int, not str"),
            ((1, None), 100, TypeError, "node id must be an int, not NoneType"),
        ):
            for constraints in ([(e, Fraction(c))], [((1, 2), Fraction(100)), (e, Fraction(c))]):
                with pytest.raises(error, match=message):
                    d.unimplied(constraints)

    def test_refuses_a_bound_that_is_neither_a_fraction_nor_an_int(self):
        # True would stand for 1 and 1.5 has no numerator: each raises the
        # TypeError of as_weight, as implies does for it, alone, behind a
        # valid constraint, and on the pair of one, where a str or None
        # bound fails the sort; an int bound reads as its Fraction
        d = min_walk_weights(load_fixture("two_classes"))
        for c, message in (
            (True, "weights must be rational numbers, not bool"),
            (1.5, r"refusing float weight 1\.5"),
            ("1", "cannot interpret str as a weight"),
            (None, "cannot interpret NoneType as a weight"),
        ):
            for constraints in (
                [((1, 2), c)],
                [((1, 2), Fraction(100)), ((3, 4), c)],
                [((1, 2), Fraction(100)), ((1, 2), c)],
            ):
                with pytest.raises(TypeError, match=message):
                    d.unimplied(constraints)
        for c in (True, 1.5):
            with pytest.raises(TypeError, match=str(type(c).__name__)):
                implies(d, 1, 2, c)
        assert d.unimplied([((1, 2), 1), ((3, 4), 0)]) == d.unimplied(
            [((1, 2), Fraction(1)), ((3, 4), Fraction(0))]
        )

    def test_a_detour_that_ties_the_bound_forces_it(self):
        d = min_walk_weights(normalize(3, [(1, 2, 5), (1, 3, 2), (3, 2, 3)]))
        assert d.unimplied([((1, 2), Fraction(5))]) is None
        assert d.unimplied([((1, 2), Fraction(9, 2))]) == ((1, 2), Fraction(9, 2))

    def test_zero_cost_arcs(self):
        d = min_walk_weights(normalize(4, [(1, 2, 0), (2, 3, 0), (3, 4, 0)]))
        assert d.unimplied([((1, 3), Fraction(0)), ((1, 4), Fraction(0))]) is None
        assert d.unimplied([((1, 4), Fraction(-1, 3))]) == ((1, 4), Fraction(-1, 3))

    def test_a_head_out_of_reach(self):
        d = min_walk_weights(normalize(4, [(1, 2, 1), (2, 3, 1), (4, 3, 0)]))
        constraints = [((1, 3), Fraction(2)), ((1, 4), Fraction(10**9))]
        assert d.unimplied(constraints) == ((1, 4), Fraction(10**9))
        assert not implies(d, 3, 1, 10**9)

    def test_a_sole_out_arc_meets_its_bound_directly(self):
        # built by hand at potential zero: class k is node k + 1
        d = DistanceMatrix(3, 1, (0, 0, 0, 0), (-1, 0, 1, 2), ((1,), (2,), (3,)), {0: {1: 4}, 1: {2: 1}})
        assert [(b, r) for (a, b), r in oracles.class_arcs(d) if a == 0] == [(1, 4)]
        assert d.unimplied([((1, 2), Fraction(4)), ((1, 3), Fraction(5))]) is None
        assert d.unimplied([((1, 2), Fraction(7, 2))]) == ((1, 2), Fraction(7, 2))
        assert d.unimplied([((1, 3), Fraction(9, 2))]) == ((1, 3), Fraction(9, 2))

    def test_the_tighter_of_two_bounds_into_one_class_is_the_witness(self):
        # class {2, 3} is reached from 1 at 2 through node 4, and at 5 over
        # the direct arc; the bound 2 on (1, 2) is met, the bound 1 on
        # (1, 3), later in sorted order, is not
        g = normalize(4, [(1, 3, 5), (1, 4, 1), (2, 3, 0), (3, 2, 0), (4, 2, 1)])
        d = min_walk_weights(g)
        assert d.class_of[2] == d.class_of[3] != d.class_of[4]
        loose, tight = ((1, 2), Fraction(2)), ((1, 3), Fraction(1))
        assert d.unimplied([loose, tight]) == tight
        assert d.unimplied([loose, ((1, 3), Fraction(2))]) is None

    def test_matches_the_dense_oracle(self):
        # bounds at, just below and just above each pair's minimum walk
        # weight, several on one tail and pair, on each system and its copy
        # scaled by P / 3; the witness is the first unmet one in sorted order
        rng = Random(506)
        unmet = 0
        for _ in range(60):
            g = oracles.random_potential_system(rng, rng.randint(2, 9), rng.randint(1, 24), 0.4)
            pairs = [(i, j) for i in range(1, g.n + 1) for j in range(1, g.n + 1) if i != j]
            for h, unit in ((g, Fraction(1, 7)), (_wide(g), WIDE / 7)):
                dense = oracles.dense_min_walk_weights(h)
                constraints = []
                for _ in range(rng.randint(1, 12)):
                    e = rng.choice(pairs)
                    base = dense[e] if dense[e] is not None else rng.randint(-5, 5) * unit
                    constraints.append((e, base + rng.randint(-1, 1) * unit))
                want = next(
                    ((e, c) for e, c in sorted(constraints) if dense[e] is None or dense[e] > c),
                    None,
                )
                assert min_walk_weights(h).unimplied(constraints) == want
                unmet += want is not None
        assert 30 < unmet < 110

    def test_get_across_classes_matches_the_dense_oracle(self):
        rng = Random(507)
        for q in range(12):
            g = oracles.random_potential_system(rng, rng.randint(10, 30), rng.randint(10, 90), 0.3)
            h = _wide(g) if q % 3 == 0 else g
            dense = oracles.dense_min_walk_weights(h)
            d = min_walk_weights(h)
            for (i, j), dij in dense.items():
                assert d.get(i, j) == dij


class TestBruteForceRedundantEdges:
    def test_fixtures(self):
        assert brute_force_redundant_edges(load_fixture("shortcut_trap")) == frozenset()
        assert brute_force_redundant_edges(load_fixture("two_classes")) == {(3, 2)}
        assert brute_force_redundant_edges(load_fixture("tied_optima")) == {(1, 2), (1, 3)}

    def test_matches_fast_criterion_without_zero_cycles(self):
        # with every cycle positive, (i, j) is redundant exactly when another
        # out-edge (i, k) starts a detour no dearer, c_ik + d(k, j) <= c_ij,
        # with d the dense oracle's distances over the whole graph
        for g in oracles.positive_cycle_suite(503, 50):
            d = oracles.dense_min_walk_weights(g)
            fast = {
                (i, j)
                for (i, j), c in g.edges.items()
                for (t, k), cik in g.edges.items()
                if t == i and k != j and d[(k, j)] is not None and cik + d[(k, j)] <= c
            }
            assert brute_force_redundant_edges(g) == fast


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
        with pytest.raises(OracleLimit):
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