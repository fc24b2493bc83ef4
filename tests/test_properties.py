"""Property tests of the text format and the solver, with generated graphs
and texts; the solver is checked against the brute-force oracles."""

from __future__ import annotations

import warnings
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dcsimp.core import PrecedenceGraph, min_walk_weights  # noqa: E402
from dcsimp.decomposition import (  # noqa: E402
    analyze,
    condensation,
    condensation_redundant_pairs,
    equivalent_reduction,
    max_redundant_edge_set,
    redundant_edges,
)
from dcsimp.errors import NegativeSelfLoop, ParseError  # noqa: E402
from dcsimp.fileformat import dumps, loads  # noqa: E402
from dcsimp.verify import systems_equivalent  # noqa: E402
from oracles import (  # noqa: E402
    brute_force_max_redundant,
    brute_force_redundant_edges,
    class_arcs,
    dense_min_walk_weights,
    forward_redundant_pairs,
    forward_unimplied,
)

SETTINGS = settings(deadline=None, database=None)

# past Python's 4300-digit limit on int() and str(), on either side of the line
_long = st.builds(
    lambda k, r: 10**k + r, st.integers(4300, 6000), st.integers(-(10**6), 10**6)
)
_weights = st.one_of(
    st.integers().map(Fraction),
    st.fractions(),
    st.builds(Fraction, st.one_of(_long, st.integers()), st.one_of(_long, st.integers(1))),
)


@st.composite
def _graphs(draw) -> PrecedenceGraph:
    n = draw(st.integers(0, 6))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return PrecedenceGraph(n, {e: draw(_weights) for e in chosen})


@SETTINGS
@given(_graphs())
def test_loads_inverts_dumps(g):
    text = dumps(g)
    h = loads(text)
    assert (h.n, h.edges) == (g.n, g.edges)
    assert dumps(h) == text


_tokens = st.one_of(
    st.sampled_from(
        ["p", "dcs", "e", "#", "x", "-1", "+2", "0.5", "3/2", "1/0", "1e5", "1_0", "١", "-0"]
    ),
    st.integers(-2, 5).map(str),
    st.text(max_size=4),
)
_lines = st.lists(_tokens, max_size=5).map(" ".join)
_edge_lines = st.builds(
    "e {} {} {}".format, st.integers(-1, 5), st.integers(-1, 5), _tokens
)
_texts = st.one_of(
    st.text(),
    st.lists(_lines, max_size=6).map("\n".join),
    st.builds(
        lambda n, m, lines: f"p dcs {n} {m}\n" + "\n".join(lines),
        st.integers(-1, 5),
        st.integers(-1, 5),
        st.lists(st.one_of(_edge_lines, _lines), max_size=5),
    ),
)


@SETTINGS
@given(_texts)
def test_any_text_parses_or_raises_parse_error(text):
    # a well-formed negative self-loop is not malformed but infeasible, and
    # surfaces as such (test_negative_self_loop_surfaces_as_infeasible)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            loads(text)
        except (ParseError, NegativeSelfLoop):
            pass


# distinct primes, so the scale of a system is their product, far past int64
_DENOMINATORS = (1, 2, 3, 999983, 1000003, 2**61 - 1, 2**89 - 1)


@st.composite
def _feasible_systems(draw) -> PrecedenceGraph:
    """c_ij = x_i - x_j + slack over a potential x and slack >= 0, so x is a
    solution.  Zero slack (drawn about half the time) breeds zero-weight
    cycles, and a node that no edge touches stays isolated; n and m may be
    0.  At most 10 edges keep the brute-force maximum small."""
    n = draw(st.integers(0, 6))
    den = st.sampled_from(_DENOMINATORS)
    x = [Fraction(0)] + [Fraction(draw(st.integers(-9, 9)), draw(den)) for _ in range(n)]
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10)) if pairs else []
    slack = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(1, 3), den))
    return PrecedenceGraph(n, {(i, j): x[i] - x[j] + draw(slack) for i, j in chosen})


@SETTINGS
@given(_feasible_systems())
def test_redundant_edges_match_brute_force(g):
    assert redundant_edges(analyze(g)) == brute_force_redundant_edges(g)


@SETTINGS
@given(_feasible_systems())
def test_max_redundant_edge_set_is_a_certified_maximum(g):
    res = max_redundant_edge_set(g)
    size, maxima = brute_force_max_redundant(g)
    assert res.certified
    assert len(res.edges) == size and res.edges in maxima


@SETTINGS
@given(_feasible_systems())
def test_equivalent_reduction_is_equivalent_and_minimum(g):
    r = equivalent_reduction(g)
    d = min_walk_weights(g)
    assert dense_min_walk_weights(r) == dense_min_walk_weights(g)
    multi = sum(len(c) for c in d.classes if len(c) >= 2)
    assert r.m == multi + len(list(class_arcs(d))) - len(condensation_redundant_pairs(d))


@SETTINGS
@given(_feasible_systems())
def test_reduction_condenses_to_the_surviving_pairs(g):
    d = min_walk_weights(g)
    survivors = condensation(d).without((x + 1, y + 1) for x, y in condensation_redundant_pairs(d))
    assert condensation(min_walk_weights(equivalent_reduction(g))) == survivors


@SETTINGS
@given(_feasible_systems(), st.data())
def test_reduction_is_canonical(g, data):
    # h adds to g a constraint on every pair with a walk, at the pair's
    # minimum walk weight plus 0 or 1, so it is equivalent to g; the other
    # system compared is g's reduction with one constraint loosened by 1
    reduced = equivalent_reduction(g)
    assert equivalent_reduction(reduced) == reduced
    edges = dict(g.edges)
    for (i, j), w in sorted(dense_min_walk_weights(g).items()):
        if i != j and w is not None:
            w += data.draw(st.integers(0, 1))
            edges[(i, j)] = min(edges.get((i, j), w), w)
    h = PrecedenceGraph(g.n, edges)
    assert dumps(equivalent_reduction(h)) == dumps(reduced)
    others = [h]
    if reduced.edges:
        e = data.draw(st.sampled_from(sorted(reduced.edges)))
        others.append(PrecedenceGraph(g.n, {**reduced.edges, e: reduced.edges[e] + 1}))
    for other in others:
        same = dumps(equivalent_reduction(other)) == dumps(reduced)
        assert systems_equivalent(g, other).equivalent == same


@st.composite
def _tied_systems(draw) -> PrecedenceGraph:
    """Up to 12 nodes over a potential in 0..3 with slacks 0, 1 or 2: walks
    tie often, and some condensation arcs cost nothing."""
    n = draw(st.integers(2, 12))
    x = [0] + draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=40))
    return PrecedenceGraph(n, {(i, j): x[i] - x[j] + draw(st.integers(0, 2)) for i, j in chosen})


@SETTINGS
@given(_tied_systems(), st.data())
def test_the_condensation_search_matches_a_forward_search(g, data):
    d = min_walk_weights(g)
    assert condensation_redundant_pairs(d) == forward_redundant_pairs(d)
    pairs = st.tuples(st.integers(1, g.n), st.integers(1, g.n)).filter(lambda e: e[0] != e[1])
    bounds = st.lists(st.tuples(pairs, st.integers(-4, 4).map(Fraction)), max_size=12)
    constraints = data.draw(bounds)
    assert d.unimplied(constraints) == forward_unimplied(d, constraints)
