"""Per-layer spans for the traced run, installed from outside the package.

Each public function of a dcsimp module (plus the two Floyd-Warshall
kernels) gets one wrapper, and that same wrapper replaces the function in
every dcsimp module namespace that holds it, so a call through
``from .core import min_walk_weights`` is timed by the same span as a call
inside ``core``.  A span's self time is its duration minus the durations
of the spans it encloses, so the self times of all spans under a root add
up to the root's duration.

A function that a module no longer has is simply absent: its metrics read
0 and nothing else changes, so the trace survives renames and deletions.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

PACKAGE = "dcsimp"
LAYERS = ("fileformat", "core", "decomposition", "redundancy", "meg", "reduction", "verify", "cli")
PRIVATE = {"core": ("_fw_numpy", "_fw_python")}


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)


def _fw(args, result, parent):
    return {"fw_relaxations": args[0] ** 3}


def _meg(args, result, parent):
    # Only whole solves count; a greedy run that seeds the exact search is
    # part of that search.
    if parent is not None and parent.startswith("meg."):
        return {}
    return {"arcs": len(args[0].arcs), "kept": len(result)}


def _classes(args, result, parent):
    sizes = [len(c) for c in result.classes]
    return {"classes": len(sizes), "largest_class": max(sizes, default=0)}


def _tight(args, result, parent):
    return {"tight_arcs": sum(len(t) for t in result.intra_tight)}


def _bytes(args, result, parent):
    return {"bytes": len(args[0].encode())}


# Counts taken from a call's arguments, result and calling span, summed over
# calls.  A hook that no longer fits the function's signature is skipped.
COUNTERS: dict[str, Callable] = {
    "core._fw_numpy": _fw,
    "core._fw_python": _fw,
    "meg.meg_exact": _meg,
    "meg.meg_greedy": _meg,
    "decomposition.equivalence_classes": _classes,
    "decomposition.partition_edges": _tight,
    "fileformat.loads": _bytes,
}


class Tracer:
    """Wraps dcsimp's functions while installed; accumulates a ``Stat`` each."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[list] = []  # [time inside child spans, key] per open span
        self._patches: list[tuple[object, str, object]] = []

    def _targets(self) -> dict[str, Callable]:
        found = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue
            for name, obj in vars(mod).items():
                wanted = not name.startswith("_") or name in PRIVATE.get(layer, ())
                if wanted and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    found[f"{layer}.{name}"] = obj
        return found

    def _wrap(self, key: str, fn: Callable) -> Callable:
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack
        counter = COUNTERS.get(key)

        def span(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            stack.append([0.0, key])
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = stack.pop()[0]
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - inner
                if stack:
                    stack[-1][0] += dt
            if counter is not None:
                try:
                    extra = counter(args, result, parent)
                except (TypeError, AttributeError, IndexError, ValueError):
                    extra = {}
                for name, value in extra.items():
                    stat.counts[name] = stat.counts.get(name, 0) + value
            return result

        span.__wrapped__ = fn
        return span

    def install(self) -> None:
        targets = self._targets()
        wrappers = {id(fn): self._wrap(key, fn) for key, fn in targets.items()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and obj is wrapper.__wrapped__:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def get(self, key: str) -> Stat:
        """The stat of ``key``, or an empty one if no such function was seen."""
        return self.stats.get(key, Stat())
