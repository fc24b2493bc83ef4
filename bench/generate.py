"""Seeded generators for the benchmark's constraint files.

Every system is built from a known potential ``x``: each constraint is
``x_i - x_j <= x_i - x_j + slack`` with an integer ``slack >= 0``.  The
potential is a solution, so every system is feasible, and the reduced cost
``c_ij - (x_i - x_j)`` of each constraint is its small non-negative integer
slack.  The reference checker relies on that; it never needs dcsimp.

Only Python's ``random.Random`` seeded by the caller is used, so the same
seed writes byte-identical files on every machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

Edge = tuple[int, int]

# Denominators of the wide-rational potentials.  Their product (~2^80) is the
# lcm of the weights, far over dcsimp's 2^40 guard for its int64 kernel.
WIDE_PRIMES = (999983, 1000003, 1000033, 1000037)


@dataclass(frozen=True)
class Instance:
    """A feasible system plus the potential it was built from (``x[0]`` unused)."""

    n: int
    x: tuple[Fraction, ...]
    edges: dict[Edge, Fraction]

    def text(self) -> str:
        return format_system(self.n, self.edges)


def format_system(n: int, edges: dict[Edge, Fraction]) -> str:
    """The canonical ``.dcs`` text: header, then edges sorted by (i, j)."""
    lines = [f"p dcs {n} {len(edges)}"]
    lines.extend(f"e {i} {j} {w}" for (i, j), w in sorted(edges.items()))
    return "\n".join(lines) + "\n"


def potential_system(
    rng: Random, n: int, m: int, zero_slack_share: float, wide: bool = False
) -> Instance:
    """Random pairs over a random potential, the generator the ROADMAP names.

    With ``wide=False`` this draws exactly as ``random_potential_system`` in
    the test oracles does.  With ``wide=True`` each potential gets one of the
    ``WIDE_PRIMES`` as its denominator.
    """
    if wide:
        x = [Fraction(0)]
        for _ in range(n):
            p = rng.choice(WIDE_PRIMES)
            x.append(Fraction(rng.randint(-50 * p, 50 * p), p))
    else:
        x = [Fraction(0)] + [Fraction(rng.randint(-50, 50)) for _ in range(n)]
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    chosen = rng.sample(pairs, min(m, len(pairs)))
    edges = {}
    for i, j in chosen:
        slack = 0 if rng.random() < zero_slack_share else rng.randint(1, 10)
        edges[(i, j)] = x[i] - x[j] + slack
    return Instance(n, tuple(x), edges)


def planted_classes(
    rng: Random, classes: int, size: int, tight_arcs: int, m: int
) -> Instance:
    """``classes`` zero-cycle classes of ``size`` nodes, slack edges between.

    Each class gets a random Hamiltonian cycle plus random extra arcs, all of
    slack 0, for ``tight_arcs`` arcs in total.  Every edge between classes has
    slack 1..10, so the planted groups are exactly the zero-cycle classes.
    """
    n = classes * size
    nodes = list(range(1, n + 1))
    rng.shuffle(nodes)
    x = [Fraction(0)] + [Fraction(rng.randint(-50, 50)) for _ in range(n)]
    group = {}
    edges: dict[Edge, Fraction] = {}
    for k in range(classes):
        members = nodes[k * size : (k + 1) * size]
        for v in members:
            group[v] = k
        ring = list(zip(members, members[1:] + members[:1]))
        others = [(a, b) for a in members for b in members if a != b and (a, b) not in ring]
        for i, j in ring + rng.sample(others, tight_arcs - size):
            edges[(i, j)] = x[i] - x[j]
    while len(edges) < m:
        i, j = rng.randint(1, n), rng.randint(1, n)
        if group[i] != group[j] and (i, j) not in edges:
            edges[(i, j)] = x[i] - x[j] + rng.randint(1, 10)
    return Instance(n, tuple(x), edges)
