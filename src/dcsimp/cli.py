"""Command-line interface.

Commands:

* ``info FILE``       summary statistics of a system
* ``redundant FILE``  list every edge the others imply, each judged alone
* ``simplify FILE``   delete a maximum redundant edge set
* ``reduce FILE``     synthesize the minimum equivalent system
* ``condense FILE``   condensation of the system (or of its reduction), one
                      node per class, represented by its smallest member
* ``check A B``       are two systems equivalent?

Results go to stdout (or ``--out FILE``); summaries and diagnostics go to
stderr.  Weights are written exactly, however many digits they need.  Exit
codes: 0 success, 1 parse or usage error (or memory ran out), 2 infeasible
system, 3 systems not equivalent, 4 exact limit or exact search budget
exceeded without --allow-heuristic (``info`` still prints every line that
needs no exact solve first).
"""

from __future__ import annotations

import argparse
import sys
import warnings

from . import fileformat
from .core import PrecedenceGraph
from .decomposition import (
    Analysis,
    Condensation,
    analyze,
    max_redundant_edge_set,
    redundant_edges,
)
from .errors import DcsError, ExactLimitExceeded, InfeasibleSystem
from .meg import DEFAULT_EXACT_LIMIT
from .reduction import equivalent_reduction
from .verify import systems_equivalent

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INFEASIBLE = 2
EXIT_NOT_EQUIVALENT = 3
EXIT_LIMIT = 4


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
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


def _summary(g: PrecedenceGraph, a: Analysis) -> list[str]:
    """The ``info`` lines that need no MEG solve."""
    classes = a.d.classes
    zero_cycle = any(len(c) > 1 for c in classes)
    return [
        f"nodes: {g.n}",
        f"constraints: {g.m}",
        "feasible: yes",
        f"zero-weight cycle: {'yes' if zero_cycle else 'no'}",
        f"classes: {len(classes)}",
        f"class sizes: {' '.join(str(len(c)) for c in classes)}",
        f"slack intra-class edges: {sum(map(len, a.edges.intra_slack.values()))}",
        f"condensation edges: {len(a.condensation.edges)}",
    ]


def _cmd_info(args: argparse.Namespace) -> int:
    g = _load(args.input)
    try:
        res = max_redundant_edge_set(
            g, exact_limit=args.exact_limit, allow_heuristic=args.allow_heuristic
        )
    except ExactLimitExceeded as exc:
        _emit(args, "\n".join(_summary(g, exc.analysis)) + "\n")
        raise
    lines = _summary(g, res.analysis) + [
        f"removable edges (max): {len(res.edges)}",
        f"certified maximum: {'yes' if res.certified else 'no'}",
    ]
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_redundant(args: argparse.Namespace) -> int:
    edges = redundant_edges(analyze(_load(args.input)))
    _emit(args, "".join(f"{i} {j}\n" for i, j in sorted(edges)))
    return EXIT_OK


def _cmd_simplify(args: argparse.Namespace) -> int:
    g = _load(args.input)
    res = max_redundant_edge_set(
        g, exact_limit=args.exact_limit, allow_heuristic=args.allow_heuristic
    )
    _emit(args, fileformat.dumps(g.without(res.edges)))
    grade = "certified" if res.certified else "maximal (not certified)"
    _note(f"removed {len(res.edges)}, {grade}")
    return EXIT_OK


def _cmd_reduce(args: argparse.Namespace) -> int:
    g = _load(args.input)
    rr = equivalent_reduction(g)
    _emit(args, fileformat.dumps(rr.reduced))
    _note(f"reduced to {rr.reduced.m} constraints ({rr.removed_count} fewer)")
    return EXIT_OK


def _cmd_condense(args: argparse.Namespace) -> int:
    a = analyze(_load(args.input))
    cond = a.condensation
    if args.of_reduction:
        # the reduction keeps exactly the condensation edges that stay
        reps = cond.reps
        gone = {(reps[x], reps[y]) for x, y in a.removed_pairs}
        cond = Condensation(reps, {e: w for e, w in cond.edges.items() if e not in gone})
    _emit(args, fileformat.dumps(cond.as_graph()))
    for k, members in enumerate(a.d.classes, 1):
        _note(f"class {k}: rep {members[0]}, nodes {' '.join(map(str, members))}")
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    report = systems_equivalent(_load(args.input_a), _load(args.input_b))
    if report.equivalent:
        _emit(args, "equivalent\n")
        return EXIT_OK
    (i, j), side = report.witness
    origin = args.input_a if side == "a" else args.input_b
    _emit(
        args,
        f"not equivalent: constraint ({i},{j}) of {origin} "
        "is not implied by the other system\n",
    )
    return EXIT_NOT_EQUIVALENT


_COMMANDS = {
    "info": _cmd_info,
    "redundant": _cmd_redundant,
    "simplify": _cmd_simplify,
    "reduce": _cmd_reduce,
    "condense": _cmd_condense,
    "check": _cmd_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcsimp",
        description="Simplify difference-constraint (precedence) systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, limit: bool = False) -> None:
        p.add_argument("--out", metavar="FILE", help="write results here instead of stdout")
        if limit:
            p.add_argument(
                "--exact-limit",
                type=int,
                default=DEFAULT_EXACT_LIMIT,
                metavar="N",
                help="max arcs per exact intra-class solve (default %(default)s)",
            )
            p.add_argument(
                "--allow-heuristic",
                action="store_true",
                help="fall back to a greedy (maximal, uncertified) solve over the limit",
            )

    p_info = sub.add_parser("info", help="summary statistics")
    p_info.add_argument("input")
    common(p_info, limit=True)

    p_red = sub.add_parser("redundant", help="list every edge the others imply")
    p_red.add_argument("input")
    common(p_red)

    p_simp = sub.add_parser("simplify", help="delete a maximum redundant edge set")
    p_simp.add_argument("input")
    common(p_simp, limit=True)

    p_reduce = sub.add_parser("reduce", help="synthesize the minimum equivalent system")
    p_reduce.add_argument("input")
    common(p_reduce)

    p_cond = sub.add_parser("condense", help="condense each class onto its smallest member")
    p_cond.add_argument("input")
    p_cond.add_argument(
        "--of-reduction",
        action="store_true",
        help="condense the equivalent reduction instead of the input",
    )
    common(p_cond)

    p_check = sub.add_parser("check", help="are two systems equivalent?")
    p_check.add_argument("input_a")
    p_check.add_argument("input_b")
    common(p_check)

    return parser


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command, mapping library errors to exit codes."""
    try:
        return _COMMANDS[args.command](args)
    except InfeasibleSystem as exc:
        _note(f"error: {exc}")
        return EXIT_INFEASIBLE
    except ExactLimitExceeded as exc:
        _note(f"error: {exc}")
        return EXIT_LIMIT
    except (DcsError, OSError) as exc:
        _note(f"error: {exc}")
        return EXIT_PARSE
    except MemoryError as exc:
        _note(f"error: out of memory: {str(exc) or 'the input is too large'}")
        return EXIT_PARSE


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 for --help, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_PARSE
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
