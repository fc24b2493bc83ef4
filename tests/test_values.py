"""Value semantics of the package's result and container types: keyword
construction, immutability, equality, hashing, reprs and validation."""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

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
    max_redundant_edge_set,
)
from dcsimp.errors import IndexOutOfRange
from dcsimp.meg import Digraph
from dcsimp.reduction import equivalent_reduction
from dcsimp.verify import EquivalenceReport, systems_equivalent
from shipped import load_fixture


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
        Digraph: Digraph(3, frozenset({(1, 2), (2, 3)})),
        EquivalenceReport: systems_equivalent(g, equivalent_reduction(g)),
    }


def test_keyword_construction_matches_positional():
    assert PrecedenceGraph(n=2, edges={(1, 2): 3}) == PrecedenceGraph(2, {(1, 2): 3})
    assert Walk(nodes=[1, 2]) == Walk((1, 2))
    assert Digraph(arcs={(1, 2)}, n=2) == Digraph(2, frozenset({(1, 2)}))
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
    assert len({Digraph(2, frozenset({(1, 2)})), Digraph(2, {(1, 2)})}) == 1
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
    with pytest.raises(ValueError, match="outside"):
        Digraph(2, {(0, 1)})
    with pytest.raises(ValueError, match="self-loop"):
        Digraph(2, {(1, 1)})
    with pytest.raises(ValueError):
        Walk(())
    with pytest.raises(TypeError):
        PrecedenceGraph(2, {(1, 2): 0.5})
    # a node count is an int: not a float, which dumps would write as a
    # header loads refuses, nor a bool
    for n in (2.5, 2.0, True, False, "2"):
        with pytest.raises(TypeError, match="node count"):
            PrecedenceGraph(n, {})
        with pytest.raises(TypeError, match="node count"):
            Digraph(n, set())


def test_fields_are_coerced_and_copied():
    raw = {(1, 2): "3/4"}
    g = PrecedenceGraph(2, raw)
    raw[(2, 1)] = 1
    assert g.edges == {(1, 2): Fraction(3, 4)} and g.m == 1
    assert Walk([1, 2]).nodes == (1, 2)
    assert type(Digraph(2, {(1, 2)}).arcs) is frozenset


def test_pickle_round_trip(values):
    for t, value in values.items():
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is t and repr(copy) == repr(value)
