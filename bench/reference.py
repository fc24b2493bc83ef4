"""Reference checker for dcsimp outputs, sharing no code with dcsimp.

All checks work on reduced costs ``r_ij = c_ij - (x_i - x_j)`` under the
generator's known potential ``x``.  Each system compared here has ``x`` as a
solution, so its reduced costs are non-negative, and a constraint of
negative reduced cost proves an output wrong at once.  Walk weights in
reduced costs differ from true ones by ``x_i - x_j``, a constant per pair,
so two feasible systems are equivalent exactly when their all-pairs
reduced-cost distance matrices are equal.  Those come from a dense
Floyd-Warshall over int64, exact because every reduced cost here is a small
integer (rational ones are scaled to a common integer grid first).

Zero-weight cycles are the cycles of zero reduced cost, so the zero-cycle
classes are the strongly connected pieces of the zero-cost subgraph: pairs
at reduced distance 0 both ways.  The minimum size of an equivalent system
is the sum of the sizes of classes with two or more nodes plus the number
of condensation edges no detour dominates.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from generate import Edge, Instance, format_system

_INF = 1 << 40  # above any reduced walk weight the checker accepts


class Rejected(Exception):
    """An output failed a check; the message says which."""


def parse(text: str) -> tuple[int, dict[Edge, Fraction]]:
    """Read ``.dcs`` text strictly: header, then ``e i j c`` lines, no repeats."""
    n = m = None
    edges: dict[Edge, Fraction] = {}
    for raw in text.splitlines():
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        try:
            if n is None:
                if fields[:2] != ["p", "dcs"] or len(fields) != 4:
                    raise Rejected(f"bad header {raw!r}")
                n, m = int(fields[2]), int(fields[3])
                continue
            if fields[0] != "e" or len(fields) != 4:
                raise Rejected(f"bad line {raw!r}")
            i, j, w = int(fields[1]), int(fields[2]), Fraction(fields[3])
        except (ValueError, ZeroDivisionError):
            raise Rejected(f"bad line {raw!r}") from None
        if not (1 <= i <= n and 1 <= j <= n) or i == j or (i, j) in edges:
            raise Rejected(f"bad or repeated edge ({i},{j})")
        edges[(i, j)] = w
    if n is None or len(edges) != m:
        raise Rejected("missing header or wrong edge count")
    return n, edges


def _floyd_warshall(n: int, arcs: dict[Edge, int]) -> np.ndarray:
    """Dense all-pairs distances on 0-based nodes; ``_INF`` marks no walk."""
    a = np.full((n, n), _INF, dtype=np.int64)
    np.fill_diagonal(a, 0)
    for (i, j), w in arcs.items():
        a[i - 1, j - 1] = w
    for k in range(n):
        np.minimum(a, a[:, k, None] + a[None, k, :], out=a)
    np.minimum(a, _INF, out=a)
    return a


class Reference:
    """The facts about one generated input that every check compares against."""

    def __init__(self, inst: Instance):
        self.n = inst.n
        self.x = inst.x
        self.edges = inst.edges
        self.rc = self.reduced_costs(inst.edges)
        self.scale = lcm(*(r.denominator for r in self.rc.values()))
        self.dist = self._distances(self.rc, self.scale)

    def reduced_costs(self, edges: dict[Edge, Fraction]) -> dict[Edge, Fraction]:
        x = self.x
        rc = {(i, j): w - (x[i] - x[j]) for (i, j), w in edges.items()}
        bad = [e for e, r in rc.items() if r < 0]
        if bad:
            raise Rejected(f"constraint {min(bad)} cuts off the known solution")
        return rc

    def _distances(self, rc: dict[Edge, Fraction], scale: int) -> np.ndarray:
        arcs = {e: int(r * scale) for e, r in rc.items()}
        if max(arcs.values(), default=0) * self.n >= _INF:
            raise Rejected("reduced costs too wide for the checker")
        return _floyd_warshall(self.n, arcs)

    def equivalent(self, n: int, edges: dict[Edge, Fraction]) -> bool:
        """Does the system have the same solutions as the input?"""
        if n != self.n:
            raise Rejected(f"node count {n}, expected {self.n}")
        rc = self.reduced_costs(edges)
        scale = lcm(self.scale, *(r.denominator for r in rc.values()))
        mine = self.dist if scale == self.scale else self._distances(self.rc, scale)
        theirs = self._distances(rc, scale)
        return bool(np.array_equal(mine, theirs))

    def classes(self) -> list[int]:
        """Class label of each node (0-based): its smallest zero-cost partner."""
        zero = (self.dist == 0) & (self.dist.T == 0)
        return np.argmax(zero, axis=1).tolist()

    def condensation(self) -> dict[tuple[int, int], Edge]:
        """Per ordered pair of classes, a cheapest edge crossing from one to the other."""
        label = self.classes()
        best: dict[tuple[int, int], Edge] = {}
        for (i, j), r in sorted(self.rc.items()):
            pair = (label[i - 1], label[j - 1])
            if pair[0] != pair[1] and (pair not in best or r < self.rc[best[pair]]):
                best[pair] = (i, j)
        return best

    def kept_crossings(self) -> list[Edge]:
        """Crossing edges of the condensation that no detour dominates.

        Every cycle of the condensation costs more than zero, so a pair's
        edge can go exactly when another first hop reaches the same class
        at no greater cost, and all such edges can go together.
        """
        best = self.condensation()
        nodes = sorted({c for pair in best for c in pair})
        index = {c: q + 1 for q, c in enumerate(nodes)}
        arcs = {(index[a], index[b]): int(self.rc[e] * self.scale) for (a, b), e in best.items()}
        d = _floyd_warshall(len(nodes), arcs)
        out: dict[int, list[tuple[int, int]]] = {}
        for (a, b), w in arcs.items():
            out.setdefault(a, []).append((b, w))
        kept = []
        for (a, b), w in arcs.items():
            detour = min(
                (wk + int(d[k - 1, b - 1]) for k, wk in out[a] if k != b),
                default=_INF,
            )
            if detour > w:
                kept.append(best[(nodes[a - 1], nodes[b - 1])])
        return kept

    def minimum_system(self) -> dict[Edge, Fraction]:
        """One minimum equivalent system: a zero cycle per class, kept crossings."""
        label = self.classes()
        members: dict[int, list[int]] = {}
        for v, c in enumerate(label, 1):
            members.setdefault(c, []).append(v)
        x = self.x
        edges = {}
        for ring in members.values():
            if len(ring) > 1:
                for i, j in zip(ring, ring[1:] + ring[:1]):
                    edges[(i, j)] = x[i] - x[j]
        for e in self.kept_crossings():
            edges[e] = self.edges[e]
        return edges

    def check_simplify(self, text: str) -> int:
        """Accept a subset of the input, same weights, same solutions; return its size."""
        n, edges = parse(text)
        extra = [e for e, w in edges.items() if self.edges.get(e) != w]
        if extra:
            raise Rejected(f"constraint {min(extra)} is not an input constraint")
        if not self.equivalent(n, edges):
            raise Rejected("not equivalent to the input")
        return len(edges)

    def check_reduce(self, text: str) -> int:
        """Accept an equivalent system of minimum size; return its size."""
        n, edges = parse(text)
        if not self.equivalent(n, edges):
            raise Rejected("not equivalent to the input")
        want = len(self.minimum_system())
        if len(edges) != want:
            raise Rejected(f"{len(edges)} constraints, the minimum is {want}")
        return len(edges)


def check_verdict(equivalent: bool, exit_code: int, text: str) -> None:
    """Accept a ``check`` result that agrees with the reference verdict."""
    if equivalent and (exit_code != 0 or text != "equivalent\n"):
        raise Rejected(f"check said {text.strip()!r} (exit {exit_code}) on an equivalent pair")
    if not equivalent and (exit_code != 3 or not text.startswith("not equivalent")):
        raise Rejected(f"check said {text.strip()!r} (exit {exit_code}) on a non-equivalent pair")


def loosen(text: str, pick: int) -> str:
    """The system with its ``pick``-th constraint (mod m) loosened by 1."""
    n, edges = parse(text)
    if not edges:
        raise Rejected("nothing to loosen in an empty system")
    e = sorted(edges)[pick % len(edges)]
    edges[e] += 1
    return format_system(n, edges)
