"""The bounded search over the condensation, checked against a plain forward
Dijkstra search (``oracles.forward_redundant_pairs`` and
``oracles.forward_unimplied``), and the work it does.

A search settles its last open classes from their own side, by one
backward search each, so each input family here is also checked to have
taken that finish."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

import oracles
from dcsimp.core import DistanceMatrix, PrecedenceGraph, _components, min_walk_weights
from dcsimp.decomposition import analyze, condensation_redundant_pairs
from oracles import normalize


def _record(monkeypatch, name: str) -> list[int]:
    """The class each call of ``DistanceMatrix.<name>`` searches from, in
    call order, for the rest of the test."""
    seen: list[int] = []
    method = getattr(DistanceMatrix, name)

    def recorded(self, k, *args):
        seen.append(k)
        return method(self, k, *args)

    monkeypatch.setattr(DistanceMatrix, name, recorded)
    return seen


@pytest.fixture
def finishes(monkeypatch) -> list[int]:
    """The classes settled backward so far, one entry per backward search."""
    return _record(monkeypatch, "_finish")


@pytest.fixture
def searches(monkeypatch) -> list[int]:
    """The classes searched from so far, one entry per forward search."""
    return _record(monkeypatch, "_reach")


def _small_weights(rng: Random, n: int, m: int) -> PrecedenceGraph:
    """A feasible system over a potential in 0..3 whose slacks are 0, 1 or
    2: zero-cycle classes, zero-cost condensation arcs and many ties."""
    x = [0] + [rng.randint(0, 3) for _ in range(n)]
    edges = {}
    while len(edges) < m:
        i, j = rng.randint(1, n), rng.randint(1, n)
        if i != j:
            edges[(i, j)] = x[i] - x[j] + rng.choice((0, 0, 1, 2))
    return normalize(n, [(i, j, w) for (i, j), w in edges.items()])


def _planted(rng: Random, classes: int, size: int, m: int) -> PrecedenceGraph:
    """``classes`` zero-cycle classes of ``size`` nodes, each a cycle of
    slack 0, and m edges of slack 1..3 between them."""
    n = classes * size
    x = [0] + [rng.randint(-20, 20) for _ in range(n)]
    edges = {}
    for k in range(classes):
        members = list(range(k * size + 1, (k + 1) * size + 1))
        for i, j in zip(members, members[1:] + members[:1]):
            edges[(i, j)] = x[i] - x[j]
    while len(edges) < classes * size + m:
        i, j = rng.randint(1, n), rng.randint(1, n)
        if (i - 1) // size != (j - 1) // size:
            edges[(i, j)] = x[i] - x[j] + rng.randint(1, 3)
    return normalize(n, [(i, j, w) for (i, j), w in edges.items()])


def _constraints(rng: Random, d: DistanceMatrix, pairs: int) -> list:
    """Bounds on random node pairs at the least walk weight between them,
    one unit of 1/scale over or under it, or on a pair with no walk."""
    out = []
    rows = {}
    while len(out) < pairs:
        i, j = rng.randint(1, d.n), rng.randint(1, d.n)
        if i == j:
            continue
        a, b = d.class_of[i], d.class_of[j]
        if a not in rows:
            rows[a] = oracles.class_distances(d, a)
        cost = rows[a].get(b)
        if cost is None:
            out.append(((i, j), Fraction(rng.randint(-50, 50))))
            continue
        weight = Fraction(d.potential[j] - d.potential[i] + cost, d.scale)
        out.append(((i, j), weight + Fraction(rng.choice((-1, 0, 0, 1)), d.scale)))
    return out


def _assert_matches_forward(d: DistanceMatrix, rng: Random) -> None:
    assert condensation_redundant_pairs(d) == oracles.forward_redundant_pairs(d)
    for _ in range(10):
        cs = _constraints(rng, d, rng.randint(1, 40))
        assert d.unimplied(cs) == oracles.forward_unimplied(d, cs)
        forced = [con for con in cs if oracles.forward_unimplied(d, [con]) is None]
        assert d.unimplied(forced) is None


class TestAgainstForwardSearch:
    def test_one_class_per_node(self, finishes):
        rng = Random(2501)
        for n in (40, 120, 250):
            g = oracles.random_potential_system(rng, n, 10 * n, zero_slack_share=0)
            d = min_walk_weights(g)
            assert len(d.classes) == n
            _assert_matches_forward(d, rng)
        assert len(finishes) > 100

    def test_small_weights_tie_and_cost_nothing(self, finishes):
        rng = Random(2502)
        ties = zero_arcs = 0
        for _ in range(30):
            n = rng.randint(8, 60)
            d = min_walk_weights(_small_weights(rng, n, rng.randint(n, 4 * n)))
            zero_arcs += 0 in d.class_arcs.values()
            pairs = oracles.forward_redundant_pairs(d)
            ties += any(
                du + r == d.class_arcs[(a, b)]
                for a, b in pairs
                for u, du in oracles.class_distances(d, a).items()
                if u != a
                for v, r in d.class_succ.get(u, ())
                if v == b
            )
            _assert_matches_forward(d, rng)
        assert zero_arcs > 20 and ties > 20 and finishes

    def test_planted_classes(self, finishes):
        rng = Random(2503)
        for classes in (10, 40):
            d = min_walk_weights(_planted(rng, classes, 5, 30 * classes))
            assert len(d.classes) == classes
            _assert_matches_forward(d, rng)
        assert finishes

    def test_project_networks(self, finishes):
        # layered classes, where the order of the first constraints and the
        # order of the classes differ most, and a condensation of more than
        # one strongly connected component
        rng = Random(2504)
        for n in (60, 300):
            d = min_walk_weights(oracles.project_system(rng, n))
            arcs = [(a + 1, b + 1) for a, b in d.class_arcs]
            assert len(_components(len(d.classes), arcs)[1]) > 1
            _assert_matches_forward(d, rng)
        assert finishes

    def test_small_project_networks_against_the_dense_kernel(self):
        rng = Random(2505)
        for n in (10, 25, 40):
            g = oracles.project_system(rng, n)
            d = min_walk_weights(g)
            dense = oracles.dense_min_walk_weights(g)
            for _ in range(10):
                cs = _constraints(rng, d, rng.randint(1, 40))
                loose = [(e, c) for e, c in sorted(cs) if dense[e] is None or dense[e] > c]
                assert d.unimplied(cs) == (loose[0] if loose else None)


class TestTiesAtTheSwitch:
    # every node its own class and no negative weight: the potential is
    # zero, class k is node k + 1, and the reduced costs are the weights

    def test_a_backward_detour_that_ties_the_arc_removes_it(self, finishes):
        # from class 0 the search settles class 2 at 1, then turns at 5 with
        # only class 1 open: from it, class 3 lies 5 back, at the radius,
        # and was reached at 5, so the detour costs 10, the arc's own cost
        d = min_walk_weights(normalize(4, [(1, 2, 10), (1, 3, 1), (3, 4, 4), (4, 2, 5)]))
        assert condensation_redundant_pairs(d) == {(0, 1)}
        assert finishes == [1]
        finishes.clear()
        d = min_walk_weights(normalize(4, [(1, 2, 10), (1, 3, 1), (3, 4, 4), (4, 2, 6)]))
        assert condensation_redundant_pairs(d) == frozenset()
        assert finishes == [1]

    def test_a_zero_cost_arc_at_the_turning_cost(self, finishes):
        # the search turns at 10, the bound of both open classes, so the
        # backward radius is 0; class 2 was reached at 10 and its zero-cost
        # arc into class 1 ties the arc (0, 1)
        d = min_walk_weights(normalize(3, [(1, 2, 10), (1, 3, 10), (3, 2, 0)]))
        assert condensation_redundant_pairs(d) == {(0, 1)}
        assert sorted(finishes) == [1, 2]

    def test_a_backward_detour_that_ties_the_bound_forces_it(self, finishes):
        d = min_walk_weights(normalize(5, [(1, 3, 1), (3, 4, 4), (4, 2, 5), (1, 5, 9)]))
        assert d.unimplied([((1, 2), Fraction(10))]) is None
        assert d.unimplied([((1, 2), Fraction(19, 2))]) == ((1, 2), Fraction(19, 2))
        assert finishes == [1, 1]


class TestUnimpliedGroupsByTailClass:
    def test_one_search_per_tail_class(self, searches):
        # nodes 1, 2 and 3 form one class: their bounds into 4 and 5 take
        # one search, and the first unforced constraint is still the witness
        cycle = [(1, 2, 0), (2, 3, 0), (3, 1, 0)]
        g = normalize(6, cycle + [(1, 6, 1), (6, 4, 1), (3, 5, 7), (2, 4, 3)])
        d = min_walk_weights(g)
        assert d.class_of[1] == d.class_of[2] == d.class_of[3]
        forced = [((1, 4), Fraction(2)), ((2, 4), Fraction(2)), ((3, 4), Fraction(2))]
        assert d.unimplied(forced) is None
        assert searches == [0]
        loose = [((1, 5), Fraction(6)), ((3, 4), Fraction(1)), ((2, 4), Fraction(3, 2))]
        assert d.unimplied(loose) == ((1, 5), Fraction(6))
        assert d.unimplied(loose[1:]) == ((2, 4), Fraction(3, 2))
        assert searches == [0, 0, 0]

    def test_classes_go_in_the_order_of_their_first_constraint(self):
        # classes {1, 5}, {2, 9} and {3} are 0, 1 and 2, and no walk reaches
        # node 4: the witness is the constraint on (3, 4), though its class
        # comes last, and a scan in class order would stop at (5, 4)
        g = normalize(9, [(1, 5, 0), (5, 1, 0), (2, 9, 0), (9, 2, 0)])
        d = min_walk_weights(g)
        assert [d.class_of[v] for v in (5, 9, 3)] == [0, 1, 2]
        constraints = [((v, 4), Fraction(-100)) for v in (5, 9, 3)]
        assert d.unimplied(constraints) == ((3, 4), Fraction(-100))

    def test_a_later_class_reads_only_constraints_before_the_witness(self):
        # classes {1, 9} and {2, 10}: the first finds (9, 4) unforced; the
        # second still comes next, as (2, 3) sorts before that, but its own
        # unforced (10, 4) sorts after it
        g = normalize(10, [(1, 9, 0), (9, 1, 0), (2, 10, 0), (10, 2, 0), (1, 3, 1), (2, 3, 1)])
        d = min_walk_weights(g)
        loose = ((9, 4), Fraction(-100))
        constraints = [((1, 3), Fraction(1)), loose, ((2, 3), Fraction(5)), ((10, 4), Fraction(-100))]
        assert d.unimplied(constraints) == loose

    def test_a_later_class_is_not_searched_past_the_witness(self, searches):
        # the bound on (1, 2) is not met, and the next class's first
        # constraint, on (3, 4), sorts after it
        d = min_walk_weights(normalize(4, [(1, 2, 5), (3, 4, 5), (3, 1, 1), (1, 4, 1)]))
        assert d.unimplied([((3, 4), Fraction(1)), ((1, 2), Fraction(4))]) == ((1, 2), Fraction(4))
        assert searches == [0]


def test_the_searches_expand_few_classes_at_one_class_per_node(replace):
    # A search expands a class when it looks up the class's arcs, forward
    # in class_succ or backward in the in-arc lists.  On this system
    # (K = n = 1000) searching forward alone expands 511,772 classes; the
    # backward finish expands 121,091.  No wall clock: the count is the same
    # on every machine
    g = oracles.random_potential_system(Random(1), n=1000, m=10000, zero_slack_share=0)
    expanded = [0]

    class Counting(dict):
        def get(self, key, default=None):
            expanded[0] += 1
            return super().get(key, default)

    def counted(h):
        d = min_walk_weights(h)
        for name in ("class_succ", "_pred"):
            object.__setattr__(d, name, Counting(getattr(d, name, {})))
        return d

    replace(min_walk_weights, counted)
    assert len(analyze(g).d.classes) == 1000
    assert expanded[0] <= 0.6 * 511_772
