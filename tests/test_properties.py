"""Property tests of the text format, with generated graphs and texts."""

from __future__ import annotations

import warnings
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dcsimp.core import PrecedenceGraph  # noqa: E402
from dcsimp.errors import NegativeSelfLoop, ParseError  # noqa: E402
from dcsimp.fileformat import dumps, loads  # noqa: E402

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
