"""Plain-text exchange format for constraint systems.

One system per file::

    # anything from '#' to end of line is comment
    p dcs <n> <m>
    e <i> <j> <c>

with exactly m constraint lines, 1-based node ids, and weights written as
decimals (``-2``, ``0.5``) or rationals (``-3/2``): digits with an optional
sign, and either a fraction part or a nonzero denominator, of any length.
Sizes and node ids are ASCII digits with an optional sign; a size must
be below ``sys.maxsize``.  Lines end at ``\n``, ``\r\n`` or ``\r`` only,
so a form feed or U+2028 in a comment stays in the comment.
Serialization is canonical: header first, edges sorted by ``(i, j)``, each
weight rendered as an integer when whole and ``p/q`` otherwise.  Parsing a
canonical file and serializing it again reproduces the bytes exactly.
"""

from __future__ import annotations

import re
import sys
import warnings
from fractions import Fraction
from pathlib import Path

from . import core
from .core import Edge, PrecedenceGraph, as_weight, weight_text
from .errors import NegativeSelfLoop, ParseError, SelfLoopDropped


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _int(field: str) -> int:
    """``int(field)`` for ASCII ``[+-]digits`` only, of any length, else
    ValueError.

    ``int`` alone also takes digit separators (``1_0``), non-ASCII digits
    (``١``) and surrounding whitespace, and refuses more digits than
    Python's limit.
    """
    if _INTEGER.fullmatch(field):
        return core._int(field)
    raise ValueError(f"not an integer: {field!r}")


def loads(text: str) -> PrecedenceGraph:
    """Parse a constraint system from text, one inequality per ordered pair.

    Parallel constraints on a pair keep the tightest (minimum) weight, since
    every one of them must hold.  A self-loop ``x_i - x_i <= c`` with c >= 0
    says nothing and is dropped with a :class:`SelfLoopDropped` warning; one
    with c < 0 is unsatisfiable and raises :class:`NegativeSelfLoop`.  The
    self-loops are judged in file order once every line has parsed and the
    header's count has matched.

    Each distinct node id or weight token is converted once per call, and
    equal weight tokens share one ``Fraction``.  The lines and those memos
    are freed before the graph is built, and the graph takes the edge map
    as parsed: every id, range, self-loop and weight is checked here once.
    """
    n, edges, loops = _parse(text)
    for i, w in loops:
        if w < 0:
            raise NegativeSelfLoop(
                f"constraint x_{i} - x_{i} <= {weight_text(w)} is unsatisfiable"
            )
        warnings.warn(
            f"dropping vacuous self-loop ({i},{i}) of weight {weight_text(w)}",
            SelfLoopDropped,
            stacklevel=2,
        )
    return PrecedenceGraph._checked(n, edges)


def _parse(text: str) -> tuple[int, dict[Edge, Fraction], list[tuple[int, Fraction]]]:
    """The node count, the tightest weight per ordered pair and the
    self-loops in file order; the first bad line raises :class:`ParseError`.

    A function of its own so that the lines and the memos die on return,
    before the caller builds the graph: held longer, they raise peak memory.
    """
    # str.splitlines would also break at \f, \x1c-\x1e, U+0085, U+2028, U+2029
    lines = enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1)
    for lineno, raw in lines:
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if len(fields) != 4 or fields[0] != "p" or fields[1] != "dcs":
            raise ParseError(f"line {lineno}: expected 'p dcs <n> <m>' header")
        try:
            n, m = _int(fields[2]), _int(fields[3])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer size in header") from None
        if n < 0 or m < 0:
            raise ParseError(f"line {lineno}: sizes must be nonnegative")
        if max(n, m) >= sys.maxsize:  # n + 1 list entries must fit
            raise ParseError(f"line {lineno}: size too large in header")
        break
    else:
        raise ParseError("missing 'p dcs <n> <m>' header")
    count = 0
    edges: dict[Edge, Fraction] = {}
    loops: list[tuple[int, Fraction]] = []
    ids: dict[str, int] = {}  # token -> node id, once it passed the range check
    weights: dict[str, Fraction] = {}
    for lineno, raw in lines:
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if fields[0] != "e":
            raise ParseError(f"line {lineno}: unknown line type {fields[0]!r}")
        if len(fields) != 4:
            raise ParseError(f"line {lineno}: expected 'e <i> <j> <c>'")
        _, a, b, c = fields
        i, j = ids.get(a), ids.get(b)
        if i is None or j is None:
            try:
                i, j = _int(a), _int(b)
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer node id") from None
            if not (1 <= i <= n and 1 <= j <= n):
                raise ParseError(f"line {lineno}: node id out of range 1..{n}")
            ids[a], ids[b] = i, j
        w = weights.get(c)
        if w is None:
            try:
                w = weights[c] = as_weight(c)
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
        count += 1
        if i == j:
            loops.append((i, w))
        elif (i, j) not in edges or w < edges[(i, j)]:
            edges[(i, j)] = w
    if count != m:
        raise ParseError(f"header promises {m} constraints, found {count}")
    return n, edges, loops


def dumps(g: PrecedenceGraph) -> str:
    """Canonical text for a graph (see module docstring)."""
    lines = [f"p dcs {g.n} {g.m}"]
    for (i, j), w in sorted(g.edges.items()):
        lines.append(f"e {i} {j} {weight_text(w)}")
    return "\n".join(lines) + "\n"


def load(path: str | Path) -> PrecedenceGraph:
    """Parse a UTF-8 file, with or without a leading byte-order mark; any
    other bytes raise :class:`ParseError`."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        line = head.count(b"\n") + 1  # the breaks loads counts
        raise ParseError(f"line {line}: invalid UTF-8 at byte offset {exc.start}") from None
    # a leading byte-order mark is skipped after decoding, so that an offset
    # above still counts the mark's 3 bytes ("utf-8-sig" would not)
    return loads(text.removeprefix("\ufeff"))
