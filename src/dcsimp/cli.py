"""Command-line interface.

commands:
  info FILE            summary statistics of a system
  redundant FILE       list every edge the others imply, each judged alone
  simplify FILE        delete a maximum redundant edge set
  reduce FILE          synthesize the minimum equivalent system
  condense FILE        condensation of the system, node k for the k-th
                       class, represented by its smallest member
  check FILE_A FILE_B  are two systems equivalent?

options:
  --out FILE           write results here instead of stdout (or --out=FILE)
  -h, --help           print this help and exit
  --                   read every later argument as an input file

Options may come before, between or after the input files.  Summaries and
diagnostics go to stderr.  Weights are written exactly, however many
digits they need.  Exit codes: 0 success, 1 parse or usage error (or
memory ran out), 2 infeasible system, 3 systems not equivalent.  info and
simplify always answer: a class too large for the exact search is solved
greedily and the result graded "not certified".
"""

from __future__ import annotations

import gc
import sys
import warnings
from itertools import groupby

from . import fileformat
from .core import PrecedenceGraph, min_walk_weights
from .decomposition import analyze, condensation, max_redundant_edge_set, redundant_edges
from .errors import DcsError, InfeasibleSystem
from .reduction import equivalent_reduction
from .verify import systems_equivalent

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INFEASIBLE = 2
EXIT_NOT_EQUIVALENT = 3


def _emit(out: str | None, text: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _load(path: str) -> PrecedenceGraph:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = fileformat.load(path)
    for w in caught:
        _note(f"warning: {w.message}")
    return g


def _cmd_info(out: str | None, path: str) -> int:
    g = _load(path)
    res = max_redundant_edge_set(g)
    a = res.analysis
    classes = a.d.classes
    zero_cycle = any(len(c) > 1 for c in classes)
    # one string per run of equal sizes, not one per class
    sizes = "".join(f" {size}" * sum(1 for _ in run) for size, run in groupby(map(len, classes)))
    lines = [
        f"nodes: {g.n}",
        f"constraints: {g.m}",
        "feasible: yes",
        f"zero-weight cycle: {'yes' if zero_cycle else 'no'}",
        f"classes: {len(classes)}",
        f"class sizes: {sizes[1:]}",
        f"slack intra-class edges: {len(a.slack)}",
        f"condensation edges: {sum(map(len, a.d.class_succ.values()))}",
        f"removable edges (max): {len(res.edges)}",
        f"certified maximum: {'yes' if res.certified else 'no'}",
    ]
    _emit(out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_redundant(out: str | None, path: str) -> int:
    edges = redundant_edges(analyze(_load(path)))
    _emit(out, "".join(f"{i} {j}\n" for i, j in sorted(edges)))
    return EXIT_OK


def _cmd_simplify(out: str | None, path: str) -> int:
    g = _load(path)
    res = max_redundant_edge_set(g)
    _emit(out, fileformat.dumps(g.without(res.edges)))
    grade = "certified" if res.certified else "maximal (not certified)"
    _note(f"removed {len(res.edges)}, {grade}")
    return EXIT_OK


def _cmd_reduce(out: str | None, path: str) -> int:
    g = _load(path)
    reduced = equivalent_reduction(g)
    _emit(out, fileformat.dumps(reduced))
    _note(f"reduced to {reduced.m} constraints ({g.m - reduced.m} fewer)")
    return EXIT_OK


def _cmd_condense(out: str | None, path: str) -> int:
    d = min_walk_weights(_load(path))
    _emit(out, fileformat.dumps(condensation(d)))
    for k, members in enumerate(d.classes, 1):
        _note(f"class {k}: rep {members[0]}, nodes {' '.join(map(str, members))}")
    return EXIT_OK


def _cmd_check(out: str | None, path_a: str, path_b: str) -> int:
    report = systems_equivalent(_load(path_a), _load(path_b))
    if report.equivalent:
        _emit(out, "equivalent\n")
        return EXIT_OK
    (i, j), side = report.witness
    origin = path_a if side == "a" else path_b
    _emit(
        out,
        f"not equivalent: constraint ({i},{j}) of {origin} "
        "is not implied by the other system\n",
    )
    return EXIT_NOT_EQUIVALENT


# Each command: its handler, the names of its input files and the flags it
# takes.  --allow-heuristic is accepted and ignored, unlisted in the help:
# the greedy fallback always runs.  Each command computes the distances once
# per input; reduce, condense and check route no edge beyond that, and only
# condense builds the weighted condensation.
_COMMANDS = {
    "info": (_cmd_info, ("FILE",), ("--out", "--allow-heuristic")),
    "redundant": (_cmd_redundant, ("FILE",), ("--out",)),
    "simplify": (_cmd_simplify, ("FILE",), ("--out", "--allow-heuristic")),
    "reduce": (_cmd_reduce, ("FILE",), ("--out",)),
    "condense": (_cmd_condense, ("FILE",), ("--out",)),
    "check": (_cmd_check, ("FILE_A", "FILE_B"), ("--out",)),
}
_HELP = ("-h", "--help")


class _UsageError(Exception):
    """An argument list that the command table does not accept."""


def _usage(command: str | None) -> str:
    if command not in _COMMANDS:
        return "usage: dcsimp COMMAND FILE... [--out FILE]"
    return f"usage: dcsimp {command} {' '.join(_COMMANDS[command][1])} [--out FILE]"


def _parse(argv: list[str]) -> tuple[str, list[str], str | None] | None:
    """The command, its input files and its ``--out`` value, or None for a
    help request.  Options are matched whole, never by a prefix."""
    if not argv:
        raise _UsageError("missing command")
    command, *rest = argv
    if command in _HELP:
        return None
    if command not in _COMMANDS:
        raise _UsageError(f"unknown command {command!r} (choose from {', '.join(_COMMANDS)})")
    names, flags = _COMMANDS[command][1:]
    inputs: list[str] = []
    out = None
    tokens = iter(rest)
    for token in tokens:
        if token == "--":
            inputs += tokens
        elif token in _HELP:
            return None
        elif not token.startswith("-") or token == "-":
            inputs.append(token)
        elif token.startswith("--out=") and "--out" in flags:
            out = token[len("--out=") :]
            if not out:
                raise _UsageError("--out expects a file name")
        elif token == "--out" and "--out" in flags:
            out = next(tokens, "")
            if not out or (out.startswith("-") and out != "-"):
                raise _UsageError("--out expects a file name")
        elif token not in flags:
            raise _UsageError(f"unrecognized argument {token!r}")
    if len(inputs) != len(names):
        plural = "s" * (len(names) > 1)
        raise _UsageError(f"{command} takes {len(names)} input file{plural}, got {len(inputs)}")
    return command, inputs, out


def run(command: str, inputs: list[str], out: str | None) -> int:
    """Execute one parsed command, mapping library errors to exit codes."""
    try:
        return _COMMANDS[command][0](out, *inputs)
    except InfeasibleSystem as exc:
        _note(f"error: {exc}")
        return EXIT_INFEASIBLE
    except (DcsError, OSError) as exc:
        _note(f"error: {exc}")
        return EXIT_PARSE
    except MemoryError as exc:
        _note(f"error: out of memory: {str(exc) or 'the input is too large'}")
        return EXIT_PARSE


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv else None
    try:
        parsed = _parse(argv)
    except _UsageError as exc:
        _note(f"{_usage(command)}\ndcsimp: error: {exc}")
        return EXIT_PARSE
    if parsed is None:
        # the module docstring, past its title line, is the command listing
        body = (__doc__ or "").partition("\n\n")[2]
        sys.stdout.write(f"{_usage(command)}\n\n{body}")
        return EXIT_OK
    return run(*parsed)


def entry() -> int:
    """The process entry: ``python -m dcsimp.cli`` and the ``dcsimp`` script."""
    # The process ends after this one command, so nothing the imports built
    # turns into garbage before exit.  Frozen, those objects are skipped by
    # every collection, the ones at interpreter exit included.  main() must
    # not freeze: callers that run it in-process would pin their heap for good.
    gc.freeze()
    return main()


if __name__ == "__main__":
    raise SystemExit(entry())
