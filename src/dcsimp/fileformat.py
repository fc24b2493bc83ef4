"""Plain-text exchange format for constraint systems.

One system per file::

    # anything from '#' to end of line is comment
    p dcs <n> <m>
    e <i> <j> <c>

with exactly m constraint lines, 1-based node ids, and weights written as
decimals (``-2``, ``0.5``) or rationals (``-3/2``): digits with an optional
sign, and either a fraction part or a nonzero denominator, of any length.
Serialization is canonical: header first, edges sorted by ``(i, j)``, each
weight rendered as an integer when whole and ``p/q`` otherwise.  Parsing a
canonical file and serializing it again reproduces the bytes exactly.
"""

from __future__ import annotations

from pathlib import Path

from .core import PrecedenceGraph, as_weight, normalize, weight_text
from .errors import IndexOutOfRange, ParseError


def loads(text: str) -> PrecedenceGraph:
    """Parse a constraint system from text; raw entries are normalized."""
    n = m = None
    entries = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 4 or fields[0] != "p" or fields[1] != "dcs":
                raise ParseError(f"line {lineno}: expected 'p dcs <n> <m>' header")
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer size in header") from None
            if n < 0 or m < 0:
                raise ParseError(f"line {lineno}: sizes must be nonnegative")
            continue
        if fields[0] != "e":
            raise ParseError(f"line {lineno}: unknown line type {fields[0]!r}")
        if len(fields) != 4:
            raise ParseError(f"line {lineno}: expected 'e <i> <j> <c>'")
        try:
            i, j = int(fields[1]), int(fields[2])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer node id") from None
        try:
            w = as_weight(fields[3])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        entries.append((i, j, w))
    if n is None:
        raise ParseError("missing 'p dcs <n> <m>' header")
    if len(entries) != m:
        raise ParseError(f"header promises {m} constraints, found {len(entries)}")
    try:
        return normalize(n, entries)
    except IndexOutOfRange as exc:
        raise ParseError(str(exc)) from None


def dumps(g: PrecedenceGraph) -> str:
    """Canonical text for a graph (see module docstring)."""
    lines = [f"p dcs {g.n} {g.m}"]
    for (i, j), w in sorted(g.edges.items()):
        lines.append(f"e {i} {j} {weight_text(w)}")
    return "\n".join(lines) + "\n"


def load(path: str | Path) -> PrecedenceGraph:
    return loads(Path(path).read_text(encoding="utf-8"))


def dump(g: PrecedenceGraph, path: str | Path) -> None:
    Path(path).write_text(dumps(g), encoding="utf-8")
