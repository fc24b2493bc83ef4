"""Core types: distances, implication, walks."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction
from random import Random

import pytest

import oracles
from dcsimp.core import (
    PrecedenceGraph,
    Walk,
    _components,
    as_weight,
    implies,
    min_walk_weights,
)
from dcsimp.errors import IndexOutOfRange, InfeasibleSystem, SameNode
from dcsimp.fileformat import loads
from oracles import normalize
from shipped import load_fixture

# P / 3 for the prime P = 10**25 + 13: scaled weights far beyond int64
WIDE = Fraction(10**25 + 13, 3)


def _scaled_copy(g: PrecedenceGraph, factor: Fraction) -> PrecedenceGraph:
    return PrecedenceGraph(g.n, {e: w * factor for e, w in g.edges.items()})


class TestAsWeight:
    def test_parses_decimals_and_rationals(self):
        assert as_weight("0.5") == Fraction(1, 2)
        assert as_weight("-3/2") == Fraction(-3, 2)
        assert as_weight("-2") == Fraction(-2)
        assert as_weight(7) == Fraction(7)

    def test_rejects_floats_and_garbage(self):
        with pytest.raises(TypeError):
            as_weight(0.5)
        with pytest.raises(ValueError):
            as_weight("abc")
        with pytest.raises(ValueError):
            as_weight("1/0")
        for text in ("1e5", "1E-3", "1_0", "0x10", "inf", "nan", " 1", "2.", "1/2/3"):
            with pytest.raises(ValueError):
                as_weight(text)

    def test_every_other_type_keeps_its_answer(self):
        w = Fraction(-3, 7)
        assert as_weight(w) is w
        with pytest.raises(TypeError, match=r"^weights must be rational numbers, not bool$"):
            as_weight(True)
        with pytest.raises(
            TypeError, match=r"^refusing float weight 0\.5; pass a string or Fraction instead$"
        ):
            as_weight(0.5)
        with pytest.raises(TypeError, match=r"^cannot interpret object as a weight$"):
            as_weight(object())


class TestNormalize:
    """Raw entries collapse in ``loads`` (see test_fileformat); the
    constructor takes only the collapsed mapping."""

    def test_graph_constructor_rejects_self_loop(self):
        with pytest.raises(ValueError):
            PrecedenceGraph(2, {(1, 1): Fraction(1)})


class TestMinWalkWeights:
    def test_two_classes_distances(self):
        d = min_walk_weights(load_fixture("two_classes"))
        # around the zero cycle both directions are pinned
        assert d.get(2, 3) == Fraction(-2)
        assert d.get(3, 2) == Fraction(2)
        assert d.get(1, 2) == Fraction(1)
        assert d.get(4, 5) == Fraction(0)
        assert d.get(5, 2) == Fraction(1)
        for i in range(1, 6):
            assert d.get(i, i) == 0

    def test_shortcut_trap_distances(self):
        d = min_walk_weights(load_fixture("shortcut_trap"))
        assert d.get(3, 2) == Fraction(7)
        assert d.get(1, 2) == Fraction(3)
        assert d.get(2, 1) is None

    def test_unreachable_is_none_not_a_number(self):
        g = normalize(3, [(1, 2, 1)])
        d = min_walk_weights(g)
        assert d.get(2, 1) is None
        assert d.get(1, 3) is None
        assert d.get(3, 1) is None

    def test_get_refuses_a_node_outside_the_range(self):
        # -1 would read node 3's entry, as Python indexes from the end; 0
        # the padding; and 4 would raise a bare IndexError
        d = min_walk_weights(normalize(3, [(3, 2, 5), (2, 1, 1)]))
        assert d.get(3, 2) == 5 and d.get(3, 1) == 6 and d.get(1, 3) is None
        for i, j in ((-1, 2), (0, 2), (0, 0), (4, 1), (1, 4), (2, -1)):
            with pytest.raises(IndexOutOfRange, match=r"outside 1\.\.3"):
                d.get(i, j)

    def test_negative_cycle_raises_with_witness(self):
        g = normalize(2, [(1, 2, -1), (2, 1, 0)])
        with pytest.raises(InfeasibleSystem) as info:
            min_walk_weights(g)
        cycle = info.value.cycle
        assert cycle is not None and cycle.closed
        assert oracles.walk_weight(g, cycle) < 0

    def test_rational_weights_stay_exact(self):
        g = normalize(3, [(1, 2, "1/3"), (2, 3, "1/6"), (1, 3, "2/3")])
        d = min_walk_weights(g)
        assert d.get(1, 3) == Fraction(1, 2)

    def test_edge_weight_upper_bounds_distance(self):
        for g in oracles.feasible_suite(902, 40):
            d = min_walk_weights(g)
            for (i, j), c in g.edges.items():
                assert d.get(i, j) is not None and d.get(i, j) <= c

    def test_agrees_with_simple_path_oracle(self):
        # with no negative cycle, some cheapest walk is a simple path
        for g in oracles.feasible_suite(101, 60):
            d = min_walk_weights(g)
            for u in range(1, g.n + 1):
                for v in range(1, g.n + 1):
                    if u == v:
                        continue
                    assert d.get(u, v) == oracles.min_simple_path_weight(g, u, v)

    def test_infeasibility_agrees_with_cycle_oracle(self):
        rng = Random(77)
        seen_infeasible = 0
        for _ in range(120):
            g = oracles.random_system(rng)
            mc = oracles.min_cycle_weight(g)
            if mc is not None and mc < 0:
                seen_infeasible += 1
                with pytest.raises(InfeasibleSystem):
                    min_walk_weights(g)
            else:
                min_walk_weights(g)
        assert seen_infeasible > 10

    def test_python_int_kernel_is_exact(self):
        # scaling every weight by P / 3 (P prime near 1e25) puts every scaled
        # weight far past int64; distances must scale exactly, match the path
        # oracle, and infeasibility must not change
        rng = Random(55)
        verdicts = set()
        for _ in range(80):
            g = oracles.random_system(rng, max_n=6, max_m=14)
            wide = _scaled_copy(g, WIDE)
            mc = oracles.min_cycle_weight(g)
            feasible = mc is None or mc >= 0
            verdicts.add(feasible)
            if not feasible:
                for h in (g, wide):
                    with pytest.raises(InfeasibleSystem):
                        min_walk_weights(h)
                continue
            d, dw = min_walk_weights(g), min_walk_weights(wide)
            for u in range(1, g.n + 1):
                for v in range(1, g.n + 1):
                    duv = d.get(u, v)
                    assert dw.get(u, v) == (None if duv is None else duv * WIDE)
                    if u != v:
                        assert dw.get(u, v) == oracles.min_simple_path_weight(wide, u, v)
        assert verdicts == {True, False}

    def test_weights_past_the_int64_limit_stay_exact(self):
        # weights of 2^59: a fixed-width sum of a few of them would wrap past
        # 2^63, so distances must stay exact on unbounded ints
        big = 1 << 59
        d = min_walk_weights(normalize(3, [(1, 2, big), (2, 3, -big)]))
        assert d.get(1, 3) == 0 and d.get(1, 2) == big
        assert d.get(2, 1) is None and d.get(3, 1) is None

    def test_dense_negative_digraph_stops_before_overflow(self):
        # every pair of the complete -1 digraph closes a negative cycle; the
        # witness must be a negative closed walk, on int-sized and on wide
        # weights alike
        n = 100
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        dense = normalize(n, [(i, j, -1) for i, j in pairs])
        for g in (dense, _scaled_copy(dense, WIDE)):
            with pytest.raises(InfeasibleSystem) as info:
                min_walk_weights(g)
            assert oracles.walk_weight(g, info.value.cycle) < 0


class TestAgainstDenseKernel:
    """The factored distances against Floyd-Warshall over every node."""

    @staticmethod
    def _assert_matches_dense(g: PrecedenceGraph) -> None:
        want = oracles.dense_min_walk_weights(g)
        d = min_walk_weights(g)
        for (i, j), w in want.items():
            assert d.get(i, j) == w
        nodes = range(1, g.n + 1)
        rings = {
            frozenset(
                j
                for j in nodes
                if want[(i, j)] is not None
                and want[(j, i)] is not None
                and want[(i, j)] + want[(j, i)] == 0
            )
            for i in nodes
        }
        assert set(map(frozenset, d.classes)) == rings
        assert [c[0] for c in d.classes] == sorted(c[0] for c in d.classes)
        assert all(list(c) == sorted(c) for c in d.classes)
        assert sum(map(len, d.classes)) == g.n and len(d.class_of) == g.n + 1
        for k, members in enumerate(d.classes):
            assert all(d.class_of[v] == k for v in members)
        assert d.class_of[0] not in range(len(d.classes))  # padding

    def test_random_potential_systems(self):
        # zero-slack share 0: no classes; 0.9: a few large ones.  m below n
        # leaves isolated nodes; copies with every weight times P / 3 are far
        # past int64
        rng = Random(906)
        for share in (0, 0.5, 0.9):
            for _ in range(4):
                n = rng.randint(20, 120)
                g = oracles.random_potential_system(rng, n, rng.randint(n // 2, 6 * n), share)
                self._assert_matches_dense(g)
                if n <= 60:
                    self._assert_matches_dense(_scaled_copy(g, WIDE))

    def test_degenerate_systems(self):
        for g in (
            normalize(0, []),
            normalize(7, []),
            normalize(6, [(1, 2, 1), (2, 1, -1), (4, 5, 3)]),
            normalize(4, [(2, 3, "1/3"), (3, 2, "-1/3"), (3, 4, "1/7")]),
        ):
            self._assert_matches_dense(g)
            self._assert_matches_dense(_scaled_copy(g, WIDE))

    def test_classes_do_not_depend_on_arc_order(self):
        # Tarjan's search pops a class's members, and finds the classes, in
        # an order that follows the arcs; the handover sorts both away
        rng = Random(908)
        for _ in range(40):
            n = rng.randint(2, 40)
            pairs = {(rng.randint(1, n), rng.randint(1, n)) for _ in range(2 * n)}
            arcs = sorted((i, j) for i, j in pairs if i != j)
            class_of, classes, _ = _components(n, arcs)
            assert (class_of, classes) == _components(n, arcs[::-1])[:2]
            assert sorted(v for c in classes for v in c) == list(range(1, n + 1))

    def test_peak_memory_at_one_class_per_node(self):
        # one class per node: each costs its one-node tuple and its slots
        # in the flat arrays, about 156 bytes
        g = loads("p dcs 20000 0\n")
        tracemalloc.start()
        try:
            d = min_walk_weights(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(d.classes) == g.n
        assert peak < 4_000_000

    def test_infeasible_systems_raise_with_a_negative_witness(self):
        rng = Random(907)
        infeasible = []
        while len(infeasible) < 30:
            g = oracles.random_system(rng, max_n=7, max_m=18)
            if oracles.dense_min_walk_weights(g) is None:
                infeasible.append(g)
        # medium systems made infeasible by one edge closing a negative cycle
        for _ in range(6):
            g = oracles.random_potential_system(rng, rng.randint(20, 80), 400, 0.5)
            d = min_walk_weights(g)
            i, j = next(
                (i, j) for i in range(1, g.n + 1) for j in range(1, g.n + 1)
                if i != j and d.get(i, j) is not None and (j, i) not in g.edges
            )
            bad = dict(g.edges)
            bad[(j, i)] = -d.get(i, j) - Fraction(1, 5)
            infeasible.append(PrecedenceGraph(g.n, bad))
        for g in infeasible:
            for h in (g, _scaled_copy(g, WIDE)):
                assert oracles.dense_min_walk_weights(h) is None
                with pytest.raises(InfeasibleSystem) as info:
                    min_walk_weights(h)
                cycle = info.value.cycle
                assert cycle.closed and oracles.walk_weight(h, cycle) < 0


class TestImplies:
    def test_fixture_implications(self):
        d = min_walk_weights(load_fixture("two_classes"))
        assert implies(d, 3, 2, 2)
        assert not implies(d, 1, 2, 0)
        trap = min_walk_weights(load_fixture("shortcut_trap"))
        # the minimum weight 1 ~> 2 rides the zero cycle but still equals 3
        assert implies(trap, 1, 2, 3)
        assert not implies(trap, 2, 1, 100)

    def test_same_node_refused(self):
        d = min_walk_weights(load_fixture("two_classes"))
        with pytest.raises(SameNode):
            implies(d, 2, 2, 0)

    def test_agrees_with_path_oracle(self):
        rng = Random(333)
        for g in oracles.feasible_suite(31, 30):
            d = min_walk_weights(g)
            # the same system on a grid of 1/3
            third = min_walk_weights(_scaled_copy(g, Fraction(1, 3)))
            for _ in range(10):
                u, v = rng.sample(range(1, g.n + 1), 2)
                bounds = [Fraction(rng.randint(-6, 6))]
                best = oracles.min_simple_path_weight(g, u, v)
                # off the integer grid too, negative ones and next to best
                bounds += [Fraction(k, 7) for k in range(-43, 44, 6)]
                if best is not None:
                    bounds += [best - Fraction(1, 7), best + Fraction(1, 7)]
                for b in bounds:
                    want = best is not None and best <= b
                    assert implies(d, u, v, b) == want
                    assert implies(third, u, v, b / 3) == want


class TestWalkWeight:
    def test_fixture_walks(self):
        g = load_fixture("two_classes")
        assert oracles.walk_weight(g, Walk((3, 4, 2, 5, 3))) == 0
        assert oracles.walk_weight(g, Walk((2,))) == 0
        assert oracles.walk_weight(g, Walk((1, 2, 5))) == 0

    def test_not_a_walk(self):
        g = load_fixture("two_classes")
        with pytest.raises(ValueError):
            oracles.walk_weight(g, Walk((1, 5)))
        with pytest.raises(ValueError):
            oracles.walk_weight(g, Walk((9,)))


class TestDecomposeWalk:
    def test_fixture_decompositions(self):
        g = load_fixture("two_classes")
        path, cycles = oracles.decompose_walk(g, Walk((1, 2, 5, 3, 1, 2)))
        assert path == Walk((1, 2))
        assert cycles == (Walk((1, 2, 5, 3, 1)),)

        path, cycles = oracles.decompose_walk(g, Walk((2, 5, 3, 4, 2)))
        assert path == Walk((2,))
        assert cycles == (Walk((2, 5, 3, 4, 2)),)

        path, cycles = oracles.decompose_walk(g, Walk((1, 2)))
        assert path == Walk((1, 2)) and cycles == ()

    def test_validates_walk(self):
        with pytest.raises(ValueError):
            oracles.decompose_walk(load_fixture("two_classes"), Walk((2, 1)))

    def test_conservation_on_random_walks(self):
        rng = Random(4242)
        checked = 0
        while checked < 300:
            g = oracles.random_system(rng, max_n=6, max_m=14)
            for _ in range(5):
                w = oracles.random_walk(rng, g)
                path, cycles = oracles.decompose_walk(g, w)
                pieces = [path, *cycles]
                # weight and edge multiset conserved
                assert sum(
                    (oracles.walk_weight(g, p) for p in pieces), Fraction(0)
                ) == oracles.walk_weight(g, w)
                multiset = sorted(s for p in pieces for s in p.steps)
                assert multiset == sorted(w.steps)
                # path simple, endpoints preserved
                assert len(set(path.nodes)) == len(path.nodes)
                assert path.nodes[0] == w.nodes[0]
                assert path.nodes[-1] == w.nodes[-1]
                # cycles simple
                for c in cycles:
                    assert c.closed
                    assert len(set(c.nodes)) == len(c.nodes) - 1
                checked += 1
