"""Text format: parsing and canonical serialization."""

from __future__ import annotations

import re
import time
import warnings
from fractions import Fraction
from random import Random

import pytest

import oracles
from dcsimp import fileformat
from dcsimp.core import PrecedenceGraph
from dcsimp.errors import NegativeSelfLoop, ParseError, SelfLoopDropped
from dcsimp.fileformat import dumps, load, loads
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
    # a self-loop between them does not end the pair's collapse
    with pytest.warns(SelfLoopDropped):
        g = loads("p dcs 2 3\ne 1 2 1\ne 2 2 3\ne 1 2 0\n")
    assert g.edges == {(1, 2): Fraction(0)}


def test_negative_self_loop_surfaces_as_infeasible():
    with pytest.raises(NegativeSelfLoop):
        loads("p dcs 1 1\ne 1 1 -1\n")


def test_each_distinct_weight_token_is_converted_once(monkeypatch):
    seen = []

    def counting(value):
        seen.append(value)
        return fileformat.core.as_weight(value)

    monkeypatch.setattr(fileformat, "as_weight", counting)
    tokens = ["1/2", "-3", "1/2", "0.5", "-3", "1/2", "7"]
    pairs = [(1, 2), (2, 3), (3, 1), (1, 3), (3, 2), (2, 1), (1, 4)]
    text = "p dcs 4 7\n" + "".join(f"e {i} {j} {c}\n" for (i, j), c in zip(pairs, tokens))
    g = loads(text)
    assert sorted(seen) == sorted(set(tokens))
    assert g.edges == {(i, j): Fraction(c) for (i, j), c in zip(pairs, tokens)}


def test_edges_that_share_a_weight_token_share_one_fraction():
    g = loads("p dcs 3 4\ne 1 2 -5/3\ne 2 3 -5/3\ne 3 1 10/3\ne 3 2 -10/6\n")
    assert g.edges[(1, 2)] is g.edges[(2, 3)]
    # an equal value spelled otherwise is its own token
    assert g.edges[(3, 2)] == g.edges[(1, 2)]


def test_one_value_spelled_many_ways_collapses_to_the_tightest():
    lines = [f"e 1 2 {c}\n" for c in ("1", "+1", "01", "1.0", "2/2")]
    assert loads("p dcs 2 5\n" + "".join(lines)).edges == {(1, 2): 1}
    # a tighter weight wins whether it comes after them or before
    for body in (lines + ["e 1 2 3/4\n"], ["e 1 2 3/4\n"] + lines):
        assert loads("p dcs 2 6\n" + "".join(body)).edges == {(1, 2): Fraction(3, 4)}


@pytest.mark.parametrize(
    "bad, message",
    [
        ("e 1 2 x", "not a rational constant: 'x'"),
        ("e 2 1 1/0", "not a rational constant: '1/0'"),
        ("e 1 3 1", "node id out of range 1..2"),
        ("e 3 2 1", "node id out of range 1..2"),
        ("e 1 x 1", "non-integer node id"),
    ],
)
def test_a_bad_token_repeated_is_reported_at_its_first_line(bad, message):
    text = f"p dcs 2 4\ne 1 2 1\n{bad}\ne 2 1 1\n{bad}\n"
    with pytest.raises(ParseError, match=rf"^line 3: {re.escape(message)}$"):
        loads(text)


def test_self_loops_warn_in_file_order():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = loads("p dcs 3 5\ne 2 2 1\ne 1 2 0\ne 1 1 3/2\ne 2 2 1\ne 3 3 0\n")
    assert g.edges == {(1, 2): 0}
    assert [str(w.message) for w in caught] == [
        f"dropping vacuous self-loop ({i},{i}) of weight {c}"
        for i, c in [(2, "1"), (1, "3/2"), (2, "1"), (3, "0")]
    ]
    assert {w.category for w in caught} == {SelfLoopDropped}


@pytest.mark.parametrize(
    "text",
    [
        "e 1 2 3\n",                      # header missing
        "p dcs 2\ne 1 2 3\n",             # short header
        "p sat 2 1\ne 1 2 3\n",           # wrong tag
        "p dcs 2 2\ne 1 2 3\n",           # count mismatch
        "p dcs 2 3\ne 1 1 -1\ne 1 2 1\n",  # count mismatch ahead of a negative self-loop
        "p dcs 2 3\ne 1 1 -1\ne 1 2 x\n",  # bad weight ahead of a negative self-loop
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
        "p dcs 1_0 1\ne 1 2 3\n",         # digit separator in a size
        "p dcs 20 1\ne 1_0 2 3\n",        # digit separator in a node id
        "p dcs 2 1\ne \u0661 +2 3\n",     # non-ASCII digit in a node id
        "p dcs \uff12 1\ne 1 2 3\n",      # fullwidth digit in a size
        "p dcs 1" + "0" * 19 + " 0\n",     # a size no list can hold
        "p dcs 2 1\ne 1 " + "9" * 5001 + " 3\n",  # node id past the digit limit
    ],
)
def test_rejects_malformed_input(text):
    with pytest.raises(ParseError):
        loads(text)


def test_sizes_and_node_ids_read_any_number_of_digits():
    # zeros in front, past Python's 4300-digit limit on int()
    zeros = "0" * 5000
    g = loads(f"p dcs {zeros}2 {zeros}1\ne {zeros}1 +{zeros}2 0\n")
    assert g == PrecedenceGraph(2, {(1, 2): 0})


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


def test_long_weights_round_trip():
    # 300,000 digits, far past Python's 4300-digit limit on int(): read in
    # halves and written by halves of its bits, it parses and serializes in
    # well under a second each, where one conversion of the whole string
    # (or Decimal) takes seconds
    text = f"p dcs 2 1\ne 1 2 -{'9' * 300_000}/1024\n"
    start = time.perf_counter()
    g = loads(text)
    took = time.perf_counter() - start
    assert g.edges == {(1, 2): Fraction(1 - 10**300_000, 1024)}
    assert took < 2.0
    start = time.perf_counter()
    out = dumps(g)
    took = time.perf_counter() - start
    assert out == text
    assert took < 2.0


def test_load_names_the_first_byte_that_is_not_utf8(tmp_path):
    f = tmp_path / "bad.dcs"
    f.write_bytes(b"p dcs 2 1\ne 1 2 \xff\n")
    with pytest.raises(ParseError, match=r"^line 2: invalid UTF-8 at byte offset 16$"):
        load(f)
    # the offset counts from the start of the file, however far in it is
    f.write_bytes(b"# " + b"x" * 20000 + b"\np dcs 0 0\n# \xc3(\n")
    with pytest.raises(ParseError, match=r"^line 3: invalid UTF-8 at byte offset 20015$"):
        load(f)
    f.write_text("# caf\u00e9\np dcs 1 0\n", encoding="utf-8")
    assert load(f) == PrecedenceGraph(1, {})


def test_lines_break_only_at_newline_and_carriage_return(tmp_path):
    # str.splitlines would also break at \f, \x1c-\x1e, U+0085, U+2028 and
    # U+2029, which would end a comment early and parse its tail
    text = "# note\u2028 more\np dcs 2 1 # form\x0cfeed\x85\ne 1 2 3 # \u2029tail\n"
    assert loads(text) == PrecedenceGraph(2, {(1, 2): 3})
    assert loads(text.replace("\n", "\r\n")) == loads(text.replace("\n", "\r")) == loads(text)
    # the error names the line an editor shows, the same one load counts
    bad = "p dcs 2 1\n# a\x1c b\x1d\r\ne 1 2\n"
    with pytest.raises(ParseError, match=r"^line 3: expected 'e <i> <j> <c>'$"):
        loads(bad)
    f = tmp_path / "bad.dcs"
    f.write_bytes(b"p dcs 2 1\r# a\x1c b\re 1 2 \xff\n")
    with pytest.raises(ParseError, match=r"^line 3: invalid UTF-8 at byte offset 23$"):
        load(f)


def test_load_skips_a_leading_byte_order_mark(tmp_path):
    f = tmp_path / "bom.dcs"
    f.write_bytes(b"\xef\xbb\xbfp dcs 2 1\ne 1 2 3\n")
    assert load(f) == PrecedenceGraph(2, {(1, 2): 3})
    # the offset of a bad byte still counts the mark's three bytes
    f.write_bytes(b"\xef\xbb\xbfp dcs 2 1\ne 1 2 \xff\n")
    with pytest.raises(ParseError, match=r"^line 2: invalid UTF-8 at byte offset 19$"):
        load(f)
    # only one mark, and only at the start
    f.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbfp dcs 2 1\ne 1 2 3\n")
    with pytest.raises(ParseError, match=r"^line 1: expected 'p dcs <n> <m>' header$"):
        load(f)
