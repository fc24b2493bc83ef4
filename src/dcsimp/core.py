"""Value types and core analyses for precedence graphs.

A precedence relation system is a finite set of difference constraints
``x_i - x_j <= c_ij`` over variables ``x_1 .. x_n``.  The same data is a
weighted digraph: one node per variable, one edge ``(i, j)`` of weight
``c_ij`` per constraint.  Everything in this package works on that view.

Weights are exact rationals (:class:`fractions.Fraction`).  Exactness is not
a nicety here: the decomposition machinery keys on cycle weights being
*exactly* zero, a question floating point cannot answer.  Distances are
therefore kept as Python integers, on the weights rescaled by the lcm of
their denominators, and a Fraction is made only when a caller reads an
entry through :meth:`DistanceMatrix.get`.  They are stored factored: a
potential from one Bellman-Ford pass makes every reduced cost
non-negative, the arcs of reduced cost zero split the nodes into the
zero-cycle classes, and a distance between classes is found on demand by
one Dijkstra search over the condensation, one node per class.  Each
class's potential is then shifted as one, to balance its cheapest in-arc
against its cheapest out-arc: the costs stay non-negative, and many arcs
that Bellman-Ford's shortest-path tree left at cost zero lose it, so that
each search floods fewer classes.  That
search is bounded by the costs the caller asks about and settles each of
them when it relaxes an arc into its class; once few are left open, it
settles those by one backward search each over the in-arcs, which meets
it from the far side.  The search for the classes
can also record a sparse strong-connectivity certificate; the MEG fallback
runs it again on the sorted arcs of a contracted cycle cover to get one.

Feasibility is a walk statement: the system has a solution precisely when no
closed walk has negative weight, and then the tightest derivable bound on
``x_u - x_v`` is the minimum weight over all walks ``u ~> v``.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left, insort
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Decimal, Inexact, localcontext
from fractions import Fraction
from heapq import heappop, heappush
from math import inf, lcm
from operator import add, itemgetter, sub
from typing import Iterable, Mapping, Union

from .errors import IndexOutOfRange, InfeasibleSystem, SameNode

Edge = tuple[int, int]
WeightLike = Union[Fraction, int, str]

# [+-]digits[.digits] or [+-]digits/digits with a nonzero denominator, and
# nothing else: no exponent, which lets ten bytes ask for millions of digits
_WEIGHT = re.compile(r"([+-]?[0-9]+)(?:\.([0-9]+)|/(0*[1-9][0-9]*))?")

# A bounded search from one class settles its open classes backward once
# their count times the cost left to the largest bound is at most this many
# times the cost covered (DistanceMatrix._reach).  Chosen by time at K = n
# with balanced class potentials (2-vCPU Xeon): 4, 8 and 16 expand 53,049,
# 60,431 and 100,756 classes at n = 1000, where condensation_redundant_pairs
# takes 0.081, 0.071 and 0.092 s (0.176, 0.157 and 0.200 s at n = 2000).
_FINISH_RATIO = 8

# Gauss-Seidel sweeps of the class shifts (_balance).  After 0 to 3 sweeps
# the condensation searches expand 121,082, 72,652, 60,431 and 56,254
# classes at K = n = 1000, and equivalent_reduction takes 25.7, 21.1, 19.8
# and 19.7 ms on the positive-cycles bench files and 6.0, 6.0, 6.2 and 6.2
# ms on planted-classes (2-vCPU Xeon).
_BALANCE_SWEEPS = 2

# The arcs of a class without any; shared and never written
_NO_ARCS: Mapping[int, int] = {}


def _int(digits: str) -> int:
    """``int(digits)`` for ``[+-]digits``, also past Python's limit on
    decimal digits: a longer string is read in halves, as
    ``int(hi) * 10**k + int(lo)``, which takes subquadratic time where one
    conversion of the whole string takes quadratic."""
    limit = sys.get_int_max_str_digits()
    if not limit or len(digits) <= limit:
        return int(digits)
    if digits[0] in "+-":
        value = _int(digits[1:])
        return -value if digits[0] == "-" else value
    k = len(digits) // 2
    return _int(digits[:-k]) * 10**k + _int(digits[-k:])


def _decimal(value: int) -> Decimal:
    """``Decimal(value)`` in subquadratic time: the halves of its bits are
    converted alone and recombined as ``hi * 2**k + lo`` in exact decimal
    arithmetic, each power of two once (as CPython's ``_pylong`` does)."""
    powers: dict[int, Decimal] = {}

    def power(k: int) -> Decimal:
        p = powers.get(k)
        if p is None:
            half = k >> 1
            p = Decimal(2) ** k if k <= 128 else power(half) * power(k - half)
            powers[k] = p
        return p

    def convert(x: int, bits: int) -> Decimal:
        if bits <= 128:
            return Decimal(x)
        half = bits >> 1
        hi = x >> half
        return convert(x - (hi << half), half) + convert(hi, bits - half) * power(half)

    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = MAX_PREC, MAX_EMAX, MIN_EMIN
        ctx.traps[Inexact] = True
        result = convert(abs(value), value.bit_length())
        return -result if value < 0 else result


def weight_text(w: Fraction) -> str:
    """``w`` as ``p`` or ``p/q``, also past Python's limit on decimal digits."""
    try:
        return str(w)
    except ValueError:  # over the limit, which Decimal does not have
        text = str(_decimal(w.numerator))
        return text if w.denominator == 1 else f"{text}/{_decimal(w.denominator)}"


def as_weight(value: WeightLike) -> Fraction:
    """Coerce an int, Fraction, or decimal/rational string to an exact weight.

    Strings are ``[+-]digits[.digits]`` or ``[+-]digits/digits``.  Floats are
    rejected on purpose: a binary float rarely equals the decimal the caller
    had in mind, and the error would surface much later as a misclassified
    zero-weight cycle.
    """
    if isinstance(value, str):  # first: the parser's case, and Fraction's is an ABC check
        m = _WEIGHT.fullmatch(value)
        if m is None:
            raise ValueError(f"not a rational constant: {value!r}")
        whole, frac, den = m.groups("")
        if den:
            return Fraction(_int(whole), _int(den))
        if not frac:
            return Fraction(_int(whole))
        return Fraction(_int(whole + frac), 10 ** len(frac))
    return _rational(value)


def _rational(value: Fraction | int) -> Fraction:
    """``value`` as a weight if it is a ``Fraction`` or an int, else ``TypeError``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("weights must be rational numbers, not bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError(
            f"refusing float weight {value!r}; pass a string or Fraction instead"
        )
    raise TypeError(f"cannot interpret {type(value).__name__} as a weight")


class _Value:
    """Base of the package's immutable value types.

    A subclass's fields are the public names of its ``__slots__``, in
    constructor order; a private slot is a cache that ``__post_init__`` may
    fill.  Instances are built from the fields by position or keyword, then
    ``__post_init__`` validates them.  They compare, hash and print by the
    fields named in ``_compared`` (every field unless a subclass narrows
    it), and assigning an attribute raises ``AttributeError``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = cls.__match_args__ = tuple(
            name for name in cls.__slots__ if not name.startswith("_")
        )
        if "_compared" not in vars(cls):
            cls._compared = cls._fields

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        values = dict(zip(fields, args), **kwargs)
        if len(args) + len(kwargs) != len(fields) or values.keys() != set(fields):
            raise TypeError(
                f"{type(self).__name__}() takes each of {', '.join(fields)} once"
            )
        for key in fields:
            object.__setattr__(self, key, values[key])
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


def _check_nodes(n: int, i: int, j: int) -> None:
    """Raise ``TypeError`` unless node ids i and j are ints (a bool is
    not), and :class:`IndexOutOfRange` unless both lie in 1..n."""
    if type(i) is not int or type(j) is not int:  # plain ints skip isinstance
        for v in (i, j):
            if isinstance(v, bool) or not isinstance(v, int):
                raise TypeError(f"node id must be an int, not {type(v).__name__}")
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexOutOfRange(f"nodes ({i},{j}) outside 1..{n}")


class PrecedenceGraph(_Value):
    """A difference constraint system viewed as a weighted digraph.

    Nodes are ``1..n``.  ``edges`` maps ordered pairs ``(i, j)`` to exact
    weights; self-loops and parallel edges are excluded by construction
    (:func:`~dcsimp.fileformat.loads` collapses raw constraints).
    Instances are immutable.  The constructor checks every node id, edge
    and weight and copies the edge mapping; maps that the package built and
    checked itself skip both (:meth:`_checked`).
    """

    __slots__ = ("n", "edges")
    n: int
    edges: Mapping[Edge, Fraction]

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int):
            raise TypeError(f"node count must be an int, not {type(self.n).__name__}")
        if self.n < 0:
            raise ValueError("node count must be nonnegative")
        clean: dict[Edge, Fraction] = {}
        for (i, j), w in self.edges.items():
            _check_nodes(self.n, i, j)
            if i == j:
                raise ValueError(
                    f"self-loop ({i},{i}); feed raw constraints through loads()"
                )
            clean[(i, j)] = as_weight(w)
        object.__setattr__(self, "edges", clean)

    @property
    def m(self) -> int:
        return len(self.edges)

    @classmethod
    def _checked(cls, n: int, edges: dict[Edge, Fraction]) -> "PrecedenceGraph":
        """A graph on an edge map that the package built and checked itself:
        int node ids in 1..n, no self-loop, ``Fraction`` weights, and no
        other holder.  It takes the map as it is, without the public
        constructor's checks and copy."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        return g

    def without(self, remove: Iterable[Edge]) -> "PrecedenceGraph":
        """A copy with the given edges deleted; node set unchanged."""
        gone = set(remove)
        return PrecedenceGraph._checked(
            self.n, {e: w for e, w in self.edges.items() if e not in gone}
        )


class Walk(_Value):
    """A node sequence ``(i_0, .., i_m)``; each consecutive pair must be an edge.

    A single node is the degenerate walk of weight zero.
    """

    __slots__ = ("nodes",)
    nodes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if not self.nodes:
            raise ValueError("a walk visits at least one node")

    @property
    def steps(self) -> tuple[Edge, ...]:
        return tuple(zip(self.nodes, self.nodes[1:]))


class DistanceMatrix(_Value):
    """Minimum walk weights of a feasible system, factored through its
    zero-cycle classes.

    ``potential`` is a solution of the scaled system (``potential[0]`` is
    padding): every reduced cost ``c_ij·scale + potential[i] - potential[j]``
    is non-negative.  It is balanced per class: the cheapest arcs into and
    out of a class cost about the same (:func:`_balance`).  ``classes`` are
    the strongly connected components of the arcs of reduced cost zero,
    ordered by smallest member, with sorted members; ``class_of[v]`` is the
    index of v's class (``class_of[0]`` is padding).  ``class_succ`` is the
    condensation, each arc held once: ``class_succ[a][b]`` is the least
    reduced cost of an edge from class a to class b, for each ordered pair
    of class indices that some edge crosses.  Each ``class_succ[a]`` holds
    its arcs cheapest first, ties by head, and only classes with out-arcs
    are keyed.

    Inside a class every walk costs at least zero and the class's zero arcs
    connect it, so for i in class a and j in class b the least weight over
    all walks ``i ~> j`` is exactly
    ``(potential[j] - potential[i] + D) / scale``, with D the least reduced
    cost of a walk from class a to class b over the condensation arcs.  One
    bounded Dijkstra search finds D for :meth:`get`, answers
    :meth:`unimplied`, and decides condensation redundancy; the last two
    may finish it backward, over the in-arcs that ``_pred`` maps in the
    same shape (``_pred[b][a]``, cheapest first, ties by tail), built the
    first time one does.  Instances compare by identity.
    """

    __slots__ = (
        "n",
        "scale",
        "potential",
        "class_of",
        "classes",
        "class_succ",
        "_rows",
        "_pred",
    )
    n: int
    scale: int
    potential: tuple[int, ...]
    class_of: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    class_succ: Mapping[int, dict[int, int]]
    _rows: dict[int, dict[int, int]]
    _pred: dict[int, dict[int, int]]

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __post_init__(self):
        object.__setattr__(self, "_rows", {})
        object.__setattr__(self, "_pred", {})

    def _reach(self, a: int, want: dict[int, list[int]]) -> dict[int, int]:
        """The least reduced cost from class a of each class it settles:
        every class a reaches when ``want`` is empty, else only as far as
        the bounds in it ask.

        ``want`` maps a class b to its pending bounds, ascending, none above
        the direct arc (a, b)'s cost when there is one, and the search
        updates it in place.  A Dijkstra search, as reduced costs are
        non-negative (Johnson 1977), whose heap holds each tentative cost
        once with the list of classes reached at it, since many walks tie on
        small costs.  Each arc (u, b) relaxed from a settled class u other
        than a, at cost c = D(a, u) + r_ub, meets every bound of b that is
        at least c: those leave ``want``, and b too once it has none.  The
        search reaches no further than the largest bound still pending,
        ``tops[-1]``, and ends once none is.  So a bound left in ``want``
        has no walk to its class within it but, perhaps, the direct arc
        (a, b).  ``class_succ`` holds arcs cheapest first, so a relaxation
        stops at the first arc past the radius.

        At each new cost ℓ past level 0, only the k classes with a bound of
        at least ℓ are still open.  Once k·(radius - ℓ) <= ``_FINISH_RATIO``·ℓ,
        the reach left to the backward searches weighed against the reach
        covered, :meth:`_finish` settles each open class from its own side,
        and the classes returned are those settled until then.
        """
        succ = self.class_succ
        tops = sorted(bounds[-1] for bounds in want.values())
        radius = tops[-1] if tops else inf
        beyond = radius + 1
        best = {a: 0}
        settled = {}
        reached = {0: [a]}
        costs = [0]
        while costs:
            cost = heappop(costs)
            if cost > radius:
                break
            if cost and tops:
                k = len(tops) - bisect_left(tops, cost)
                if k * (radius - cost) <= _FINISH_RATIO * cost:
                    for b in [b for b, bs in want.items() if bs[-1] >= cost]:
                        self._finish(b, want[b], best, settled, cost)
                        if not want[b]:
                            del want[b]
                    return settled
            for u in reached.pop(cost):
                if best[u] != cost:
                    continue
                settled[u] = cost
                for v, r in succ.get(u, _NO_ARCS).items():
                    c = cost + r
                    if c > radius:
                        break
                    if v in want and u != a:
                        bounds = want[v]
                        top = bounds[-1]
                        if top >= c:
                            del bounds[bisect_left(bounds, c) :]
                            del tops[bisect_left(tops, top)]
                            if bounds:
                                insort(tops, bounds[-1])
                            else:
                                del want[v]
                                if not want:
                                    return settled
                            radius = tops[-1]
                    if c < best.get(v, beyond):
                        best[v] = c
                        if c in reached:
                            reached[c].append(v)
                        else:
                            reached[c] = [v]
                            heappush(costs, c)
        return settled

    def _finish(
        self, b: int, bounds: list[int], best: dict[int, int], settled: dict[int, int], low: int
    ) -> None:
        """Take class b's ``bounds`` down to those no walk from class a
        meets, after :meth:`_reach` from a stopped at cost ``low``: every
        class below it in ``settled``, the tentative costs in ``best``.

        One Dijkstra search from b over the in-arcs, through the classes
        not settled, within x - ``low`` for the largest bound x.  When it
        relaxes an in-arc into a class u at cost c, a walk a ~> u ~> b of
        cost best[u] + c, whose last arc is not from a (a is settled),
        meets every bound at least that.  This is exact: a walk a ~> b of
        cost at most x whose last arc is not from a has a last settled
        class w before b, and then a class u that is not settled.  So
        best[u] is at most u's prefix cost, which is at least ``low``, and
        the rest of the walk runs outside the settled classes within
        x - ``low``.  u is not b: if w is a, the walk would close a cycle
        through b after the direct arc and cost more than it; if w is not
        a, the forward search met x when it relaxed (w, b).  The in-arc
        maps are built on first need, each cheapest first.
        """
        pred = self._pred
        if not pred:
            succ = self.class_succ
            for tail in sorted(succ):  # so that the stable sort ties by tail
                for head, r in succ[tail].items():
                    if head in pred:
                        pred[head].append((tail, r))
                    else:
                        pred[head] = [(tail, r)]
            for head, arcs in pred.items():
                arcs.sort(key=itemgetter(1))
                pred[head] = dict(arcs)
        radius = bounds[-1] - low
        beyond = radius + 1
        dist = {b: 0}
        reached: dict[int, list[int]] = {}
        costs: list[int] = []
        e, level = 0, [b]
        while True:
            for v in level:
                if dist[v] != e:
                    continue
                for u, r in pred.get(v, _NO_ARCS).items():
                    c = e + r
                    if c > radius:
                        break
                    if c < dist.get(u, beyond) and u not in settled:
                        f = best.get(u)
                        if f is not None and f + c <= bounds[-1]:
                            del bounds[bisect_left(bounds, f + c) :]
                            if not bounds:
                                return
                            radius = bounds[-1] - low
                        dist[u] = c
                        if c in reached:
                            reached[c].append(u)
                        else:
                            reached[c] = [u]
                            heappush(costs, c)
            if not costs:
                return
            e = heappop(costs)
            if e > radius:
                return
            level = reached.pop(e)

    def unimplied(
        self, constraints: Iterable[tuple[Edge, Fraction]]
    ) -> tuple[Edge, Fraction] | None:
        """The first constraint ((i, j), c), in sorted order, that the
        system does not force, or None when it forces them all.  A node id
        that is not an int raises ``TypeError``, and one outside 1..n
        :class:`IndexOutOfRange`, as in :meth:`get`; a bound c that is
        neither a ``Fraction`` nor an int (a bool is not) raises the
        ``TypeError`` of :func:`as_weight`.

        ``x_i - x_j <= c`` is forced exactly when some walk i ~> j weighs at
        most c, that is when the least reduced cost D from i's class a to
        j's class b has D <= x = floor(c·scale) - potential[j] + potential[i].
        Inside a class D = 0, and across classes the direct arc settles
        x >= ``class_succ[a][b]`` without a search.  The other bounds of
        every tail in class a go to one search from a, which settles each
        when it relaxes an arc into its class.  One pass over the sorted
        constraints gathers them by tail class, one dict lookup per run of
        a tail, in the order of each class's first constraint.  So the scan
        ends once the next class's first constraint sorts after the witness
        found, and a class's constraints past that witness are skipped.
        """
        p, of, succ, scale, n = self.potential, self.class_of, self.class_succ, self.scale, self.n
        ordered = list(constraints)
        try:
            ordered.sort()
        except TypeError:  # items that do not compare: name the id or bound at fault
            for (i, j), c in ordered:
                _check_nodes(n, i, j)
                _rational(c)
            raise
        by_class: dict[int, list[tuple[Edge, Fraction]]] = {}
        v = None  # the tail of the run being gathered
        for q in ordered:
            (i, j), c = q
            if type(i) is not int or type(j) is not int or not (0 < i <= n and 0 < j <= n):
                _check_nodes(n, i, j)
            if c.__class__ is not Fraction:  # an attribute, not a call, on the hot path
                _rational(c)
            if i != v:
                v = i
                tail = by_class.setdefault(of[v], [])
            tail.append(q)
        found = None
        for a, tail in by_class.items():
            if found is not None:
                if found < tail[0]:
                    break
                del tail[bisect_left(tail, found) :]
            left = []  # constraints that neither test meets, in order
            want: dict[int, list[int]] = {}
            arcs = succ.get(a, _NO_ARCS)
            for (i, j), c in tail:
                b = of[j]
                x = c.numerator * scale // c.denominator - p[j] + p[i]
                if x < (0 if b == a else arcs.get(b, x + 1)):
                    left.append(((i, j), c, b, x))
                    if b == a:  # unforced, so nothing after it can come first
                        break
                    want.setdefault(b, []).append(x)
            if want:
                for xs in want.values():
                    xs.sort()
                self._reach(a, want)
            for e, c, b, x in left:  # all before any witness found so far
                if b == a or b in want and x <= want[b][-1]:
                    found = e, c
                    break
        return found

    def get(self, i: int, j: int) -> Fraction | None:
        """The minimum walk weight ``i ~> j``, or None when no walk exists;
        a node id that is not an int raises ``TypeError``, and one outside
        1..n :class:`IndexOutOfRange`.

        Within a class it is a difference of potentials.  Across classes
        the first call from class a searches everything a reaches and keeps
        the costs, so a sweep over many pairs pays one search per class.
        """
        _check_nodes(self.n, i, j)
        a, b = self.class_of[i], self.class_of[j]
        p = self.potential
        if a == b:
            return Fraction(p[j] - p[i], self.scale)
        row = self._rows.get(a)
        if row is None:
            row = self._rows[a] = self._reach(a, {})
        cost = row.get(b)
        return None if cost is None else Fraction(p[j] - p[i] + cost, self.scale)

    def __repr__(self) -> str:
        return f"DistanceMatrix(n={self.n}, classes={len(self.classes)})"


def _bellman_ford(n: int, scaled: dict[Edge, int]) -> tuple[list[int], Walk | None]:
    """A potential of the scaled system, or a negative closed walk.

    Every node starts at distance 0, which plays the role of a virtual
    source, and the edges are relaxed in sorted order, each round reusing
    the values the round already lowered.  A round that lowers nothing
    leaves a potential: ``dist[i] + w >= dist[j]`` for every edge.  A
    shortest path from the source has at most n - 1 real edges, so a
    feasible system settles within n rounds; a node still lowered in round
    n leads back, through the predecessors, onto a negative cycle, which is
    the witness.
    """
    dist = [0] * (n + 1)
    pred = [0] * (n + 1)
    order = sorted(scaled.items())
    touched = 0
    for _ in range(n):
        touched = 0
        for (u, v), w in order:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                pred[v] = u
                touched = v
        if not touched:
            break
    if not touched:
        return dist, None
    x = touched
    for _ in range(n):
        x = pred[x]
    cycle = [x]
    cur = pred[x]
    while cur != x:
        cycle.append(cur)
        cur = pred[cur]
    cycle.append(x)
    cycle.reverse()
    return dist, Walk(tuple(cycle))


def _components(n: int, arcs: Iterable[Edge]) -> tuple[list[int], list[tuple], list[Edge]]:
    """Strongly connected components of the arcs on nodes 1..n (Tarjan 1972),
    as a class index per node (``[0]`` is padding), the classes and the
    arcs of a strong-connectivity certificate of every component.

    Each class is the members the search pops off its stack, sorted; the
    classes are ordered by smallest member and then fill ``class_of``,
    which until then reads 0 for a node with a class.  The depth-first
    search keeps its own stack of (node, iterator over its successors), so
    it needs no recursion and resumes a node where it left off.  A node is
    on Tarjan's stack exactly while it has a visit number and no class yet.
    A root without arcs is its own class ``(root,)`` at once, so a system
    of isolated nodes costs one pass.

    The certificate is the tree arcs plus, per node v that does not root
    its component, ``back[v]``: the first arc found out of v's subtree with
    the earliest-visited head, which set v's low link.  That head precedes
    v in v's component, so by induction every node reaches its root over
    the kept arcs: at most 2(|C| - 1) arcs inside a component C.
    """
    succ: dict[int, list[int]] = {}
    for i, j in arcs:
        succ.setdefault(i, []).append(j)
    comp = [-1] * (n + 1)
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    back: dict[int, Edge] = {}
    kept: list[Edge] = []
    stack: list[int] = []
    classes: list[tuple[int, ...]] = []
    for root in range(1, n + 1):
        if comp[root] >= 0:
            continue
        if root not in succ:
            comp[root] = 0
            classes.append((root,))
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, out = work[-1]
            for w in out:
                if comp[w] >= 0:
                    continue
                if w in index:
                    if index[w] < low[v]:
                        low[v] = index[w]
                        back[v] = (v, w)
                else:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(succ.get(w, ()))))
                    kept.append((v, w))
                    break
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                        back[u] = back[v]
                if low[v] == index[v]:
                    members = [stack.pop()]
                    while members[-1] != v:
                        members.append(stack.pop())
                    for w in members:
                        comp[w] = 0
                    classes.append(tuple(sorted(members)))
                else:
                    kept.append(back[v])
    classes.sort()
    for k, members in enumerate(classes):
        for v in members:
            comp[v] = k
    return comp, classes, kept


def _potential(g: PrecedenceGraph) -> tuple[int, dict[Edge, int], list[int]]:
    """The lcm of g's weight denominators, the weights scaled by it to
    integers, and a potential of the scaled system from one Bellman-Ford
    pass.

    Raises :class:`InfeasibleSystem`, carrying the witness cycle, when g has
    no solution.  So it alone decides feasibility: a caller that only has to
    refuse an infeasible system calls this and builds no classes.
    """
    scale = lcm(*(w.denominator for w in g.edges.values())) if g.edges else 1
    scaled = {e: w.numerator * (scale // w.denominator) for e, w in g.edges.items()}
    potential, witness = _bellman_ford(g.n, scaled)
    if witness is not None:
        weight = Fraction(sum(map(scaled.get, witness.steps)), scale)
        raise InfeasibleSystem(
            "no solution: negative-weight closed walk "
            f"{'-'.join(map(str, witness.nodes))} "
            f"has weight {weight_text(weight)}",
            cycle=witness,
        )
    return scale, scaled, potential


def min_walk_weights(g: PrecedenceGraph) -> DistanceMatrix:
    """Minimum walk weights of every pair, factored through the zero-cycle classes.

    Raises :class:`InfeasibleSystem` (carrying a witness cycle) when a
    negative-weight closed walk exists and the system has no solution.

    Weights are rescaled to integers by the lcm of their denominators.  One
    Bellman-Ford pass gives a potential (or the witness; :func:`_potential`
    does both), and with it every reduced cost is non-negative (Johnson
    1977).  The arcs of reduced cost
    zero form the zero-weight closed walks, so their strongly connected
    components are the classes, and inside a class every minimum walk
    weight is a difference of potentials.  Between classes only the
    condensation is kept, one node per class and one arc per class pair at
    its least crossing reduced cost (``class_succ``); a distance across
    classes is a search over it, on Python ints, so the result is exact
    whatever the size of the weights.

    Any potential that keeps every cost non-negative gives the same
    distances, and shifting a whole class moves no cost inside it, so the
    classes stay as found.  :func:`_balance` shifts each class to balance
    its cheapest in-arc and out-arc; then each class's arcs are sorted by
    their shifted cost, ties by head.
    """
    n = g.n
    scale, scaled, potential = _potential(g)
    zero = [(i, j) for (i, j), w in scaled.items() if w + potential[i] == potential[j]]
    class_of, classes, _ = _components(n, zero)
    succ: dict[int, dict[int, int]] = {}
    for (i, j), w in scaled.items():
        a, b = class_of[i], class_of[j]
        if a != b:
            r = w + potential[i] - potential[j]
            heads = succ.get(a)
            if heads is None:
                succ[a] = {b: r}
            elif r < heads.get(b, r + 1):
                heads[b] = r
    shift = _balance(succ)
    for a, heads in succ.items():
        t = shift[a]
        succ[a] = {b: r + t for r, b in sorted([(r - shift[b], b) for b, r in heads.items()])}
    for k, t in shift.items():
        for v in classes[k]:
            potential[v] += t
    return DistanceMatrix(n, scale, tuple(potential), tuple(class_of), tuple(classes), succ)


def _balance(succ: dict[int, dict[int, int]]) -> dict[int, int]:
    """A shift of the potential, ``shift[c]``, for each class c with a
    condensation arc, that evens out c's cheapest in-arc and cheapest
    out-arc.

    Adding t to the potential of every member of class c lowers the cost of
    each arc into c by t and raises that of each arc out of c by t, and
    moves no cost inside a class.  With A the least of r + shift[x] over
    the in-arcs (x, c) and B the least of r - shift[y] over the out-arcs
    (c, y), t = (A - B) // 2 leaves c's cheapest arcs on both sides at
    about (A + B) / 2, and A + B >= 0 while every cost is, so no cost goes
    below zero.  Each sweep sets t for every class with arcs on both sides,
    in class order, each from the shifts already set (Gauss-Seidel).
    """
    into: dict[int, tuple[list[int], list[int]]] = {}
    for a, heads in succ.items():
        for b, r in heads.items():
            if b in into:
                into[b][0].append(a)
                into[b][1].append(r)
            else:
                into[b] = ([a], [r])
    shift = dict.fromkeys(into.keys() | succ.keys(), 0)
    at = shift.__getitem__
    both = [(c, *into[c], succ[c]) for c in sorted(succ) if c in into]
    for _ in range(_BALANCE_SWEEPS):
        for c, tails, costs, out in both:
            shift[c] = (min(map(add, costs, map(at, tails))) - min(map(sub, out.values(), map(at, out)))) // 2
    return shift


def implies(d: DistanceMatrix, u: int, v: int, bound: WeightLike) -> bool:
    """Does the system force ``x_u - x_v <= bound``?

    Under feasibility the tightest derivable bound on ``x_u - x_v`` is the
    minimum walk weight ``u ~> v``; no walk means no finite bound at all.
    The node ids are checked as :meth:`DistanceMatrix.get` checks them.
    """
    _check_nodes(d.n, u, v)
    if u == v:
        raise SameNode(f"implication needs two distinct nodes, got {u} twice")
    return d.unimplied([((u, v), as_weight(bound))]) is None
