"""Value semantics of the package's result and container types: keyword
construction, immutability, equality, hashing, reprs and validation."""

from __future__ import annotations

import pickle
import warnings
from fractions import Fraction
from random import Random

import pytest

import oracles

from dcsimp.core import (
    DistanceMatrix,
    PrecedenceGraph,
    Walk,
    min_walk_weights,
)
from dcsimp.decomposition import (
    Analysis,
    MresResult,
    analyze,
    equivalent_reduction,
    max_redundant_edge_set,
)
from dcsimp.errors import IndexOutOfRange, InfeasibleSystem
from dcsimp.fileformat import dumps, loads
from dcsimp.verify import EquivalenceReport, systems_equivalent
from shipped import FIXTURE_DIR, NAMES, load_fixture


@pytest.fixture
def values():
    """One instance of every value type, from the two_classes pipeline."""
    g = load_fixture("two_classes")
    a = analyze(g)
    walk = Walk((3, 4, 2, 5, 3, 2, 5))
    return {
        PrecedenceGraph: g,
        Walk: walk,
        DistanceMatrix: a.d,
        Analysis: a,
        MresResult: max_redundant_edge_set(g),
        EquivalenceReport: systems_equivalent(g, equivalent_reduction(g)),
    }


def test_keyword_construction_matches_positional():
    assert PrecedenceGraph(n=2, edges={(1, 2): 3}) == PrecedenceGraph(2, {(1, 2): 3})
    assert Walk(nodes=[1, 2]) == Walk((1, 2))
    assert EquivalenceReport(witness=None, equivalent=True) == EquivalenceReport(True, None)
    for bad in (
        lambda: PrecedenceGraph(2),
        lambda: PrecedenceGraph(2, {}, 3),
        lambda: PrecedenceGraph(2, {}, n=2),
        lambda: PrecedenceGraph(2, edges={}, m=0),
    ):
        with pytest.raises(TypeError):
            bad()


def test_assigning_or_deleting_a_field_raises(values):
    for value in values.values():
        field = type(value).__match_args__[0]
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1


def test_small_values_hash_by_value():
    assert hash(Walk([1, 2, 1])) == hash(Walk((1, 2, 1)))
    assert len({Walk((1, 2)), Walk([1, 2]), Walk((2, 1))}) == 2
    assert len({EquivalenceReport(True, None), EquivalenceReport(True, None)}) == 1
    assert EquivalenceReport(True, None) != (True, None)
    with pytest.raises(TypeError):
        hash(PrecedenceGraph(2, {(1, 2): 1}))


def test_distance_matrix_compares_by_identity(values):
    g, d = values[PrecedenceGraph], values[DistanceMatrix]
    assert d == d and d != min_walk_weights(g)
    assert len({d, d}) == 1
    assert repr(d) == f"DistanceMatrix(n={g.n}, classes={len(d.classes)})"


def test_results_ignore_their_analysis(values):
    m = values[MresResult]
    assert m == MresResult(m.edges, m.certified, None)
    assert hash(m) == hash(MresResult(m.edges, m.certified, None))
    assert m != MresResult(m.edges, not m.certified, m.analysis)
    assert repr(m) == f"MresResult(edges={m.edges!r}, certified={m.certified!r})"


def test_reprs_name_every_compared_field():
    g = PrecedenceGraph(2, {(1, 2): "1/2"})
    assert repr(g) == "PrecedenceGraph(n=2, edges={(1, 2): Fraction(1, 2)})"
    assert repr(Walk([3])) == "Walk(nodes=(3,))"
    assert repr(EquivalenceReport(False, ((1, 2), "a"))) == (
        "EquivalenceReport(equivalent=False, witness=((1, 2), 'a'))"
    )


def test_validation_rejects_bad_nodes_and_self_loops():
    with pytest.raises(IndexOutOfRange):
        PrecedenceGraph(2, {(1, 3): 1})
    with pytest.raises(ValueError, match="self-loop"):
        PrecedenceGraph(2, {(2, 2): 1})
    with pytest.raises(ValueError):
        PrecedenceGraph(-1, {})
    with pytest.raises(ValueError):
        Walk(())
    with pytest.raises(TypeError):
        PrecedenceGraph(2, {(1, 2): 0.5})
    # a node count is an int: not a float, which dumps would write as a
    # header loads refuses, nor a bool
    for n in (2.5, 2.0, True, False, "2"):
        with pytest.raises(TypeError, match="node count"):
            PrecedenceGraph(n, {})
    # so is a node id: dumps would write True or 1.0, which loads refuses,
    # and the solver indexes lists by node id
    for i in (True, False, 1.0, 2.0, "1", None):
        for edge in ((i, 2), (2, i)):
            with pytest.raises(TypeError, match="node id"):
                PrecedenceGraph(2, {edge: 1})


def test_fields_are_coerced_and_copied():
    raw = {(1, 2): "3/4"}
    g = PrecedenceGraph(2, raw)
    raw[(2, 1)] = 1
    assert g.edges == {(1, 2): Fraction(3, 4)} and g.m == 1
    assert Walk([1, 2]).nodes == (1, 2)


def _raw_text(rng: Random, n: int, m: int) -> str:
    """m constraint lines on n nodes: pairs repeated, self-loops of weight
    >= 0, and weights from small integers to wide rationals, each spelled
    as an integer, a decimal or a fraction."""
    lines = [f"p dcs {n} {m}"]
    for _ in range(m):
        i, j = rng.randint(1, n), rng.randint(1, n)
        num = rng.choice((rng.randint(-5, 9), rng.randint(-(10**30), 10**30)))
        if i == j:
            num = abs(num)
        den = rng.choice((3, 7, 10**25 + 13))
        lines.append(f"e {i} {j} " + rng.choice((f"{num}", f"{num}/{den}", f"{num}.{rng.randint(0, 99)}")))
    return "\n".join(lines) + "\n"


def test_graphs_the_package_builds_equal_checked_ones():
    # loads, without and equivalent_reduction hand the graph edge maps they
    # built and checked themselves, which it takes unchecked; the public
    # constructor, which checks and copies, must build the same graph
    rng = Random(31)
    texts = [(FIXTURE_DIR / f"{name}.dcs").read_text() for name in NAMES]
    # on 2 nodes, 6 lines must repeat a pair or hold a self-loop
    texts += [_raw_text(rng, n, m) for n, m in ((2, 6), (6, 40), (30, 200)) for _ in range(4)]
    for k in range(3):
        g = oracles.random_potential_system(Random(k), 25, 120)
        texts += [dumps(g), dumps(PrecedenceGraph(g.n, {e: w * Fraction(10**25 + 13, 3) for e, w in g.edges.items()}))]
    graphs = []
    for text in texts:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = loads(text)
        graphs.append(g)
        r = set(rng.sample(sorted(g.edges), g.m // 2)) | {(1, 1)}
        graphs.append(g.without(r))
        assert g.without(r).edges.keys() == g.edges.keys() - r
        assert g.without(()).edges is not g.edges
        try:
            graphs.append(equivalent_reduction(g))
        except InfeasibleSystem:
            pass
    for g in graphs:
        assert g == PrecedenceGraph(g.n, dict(g.edges))
        assert all(type(i) is int and type(j) is int and type(w) is Fraction for (i, j), w in g.edges.items())
        for field in ("n", "edges"):
            with pytest.raises(AttributeError):
                setattr(g, field, getattr(g, field))


def test_pickle_round_trip(values):
    for t, value in values.items():
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is t and repr(copy) == repr(value)
