"""Text format: parsing and canonical serialization."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

import oracles
from dcsimp.core import PrecedenceGraph
from dcsimp.errors import NegativeSelfLoop, ParseError, SelfLoopDropped
from dcsimp.fileformat import dumps, loads
from shipped import load_fixture


def test_parses_comments_decimals_and_rationals():
    g = loads(
        """
        # a three node system
        p dcs 3 3   # header: nodes, constraints
        e 1 2 0.5
        e 2 3 -3/2
        e 1 3 2
        """
    )
    assert g.n == 3
    assert g.edges == {
        (1, 2): Fraction(1, 2),
        (2, 3): Fraction(-3, 2),
        (1, 3): Fraction(2),
    }


def test_parallel_and_self_loop_entries_normalize():
    with pytest.warns(SelfLoopDropped):
        g = loads("p dcs 2 3\ne 1 2 4\ne 1 2 2\ne 2 2 0\n")
    assert g.edges == {(1, 2): Fraction(2)}


def test_negative_self_loop_surfaces_as_infeasible():
    with pytest.raises(NegativeSelfLoop):
        loads("p dcs 1 1\ne 1 1 -1\n")


@pytest.mark.parametrize(
    "text",
    [
        "e 1 2 3\n",                      # header missing
        "p dcs 2\ne 1 2 3\n",             # short header
        "p sat 2 1\ne 1 2 3\n",           # wrong tag
        "p dcs 2 2\ne 1 2 3\n",           # count mismatch
        "p dcs 2 1\ne 1 2\n",             # short edge line
        "p dcs 2 1\ne 1 2 x\n",           # bad weight
        "p dcs 2 1\ne 1 2 1/0\n",         # zero denominator
        "p dcs 2 1\nq 1 2 3\n",           # unknown line type
        "p dcs 2 1\ne 1 3 0\n",           # node out of range
        "p dcs -1 0\n",                   # negative size
        "p dcs 2 1\ne 1 2 1e5000000\n",   # exponent: millions of digits
        "p dcs 2 1\ne 1 2 1_000\n",       # digit separator
        "p dcs 2 1\ne 1 2 .5\n",          # no integer part
        "p dcs 2 1\ne 1 2 1/-2\n",        # signed denominator
    ],
)
def test_rejects_malformed_input(text):
    with pytest.raises(ParseError):
        loads(text)


def test_serialization_is_canonical_and_round_trips():
    g = load_fixture("two_classes")
    text = dumps(g)
    lines = text.splitlines()
    assert lines[0] == "p dcs 5 7"
    assert lines[1:] == sorted(lines[1:], key=lambda s: tuple(map(int, s.split()[1:3])))
    assert dumps(loads(text)) == text
    # decimal input renders as p/q
    assert "e 1 2 1/2" in dumps(loads("p dcs 2 1\ne 1 2 0.5\n"))


def test_round_trip_on_random_graphs():
    rng = Random(12)
    for _ in range(25):
        g = oracles.random_system(rng, max_n=6, max_m=12)
        assert loads(dumps(g)) == g


def test_weights_past_the_digit_limit_round_trip():
    # Python refuses int <-> str conversions past 4300 digits by default
    w = Fraction(7**6000, 11**5000)
    g = PrecedenceGraph(2, {(1, 2): w, (2, 1): -w})
    text = dumps(g)
    assert len(text) > 10_000
    assert loads(text) == g
    assert dumps(loads(text)) == text
