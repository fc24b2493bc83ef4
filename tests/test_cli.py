"""End-to-end command-line behavior, exit codes included."""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import pytest

import oracles
from dcsimp import cli, meg
from dcsimp.cli import build_parser, main
from dcsimp.core import min_walk_weights
from dcsimp.decomposition import analyze
from dcsimp.fileformat import dumps, loads
from shipped import NAMES, load_fixture


@pytest.fixture
def paths(fixture_dir):
    return {name: str(fixture_dir / f"{name}.dcs") for name in NAMES}


def test_info_summary(paths, capsys):
    assert main(["info", paths["two_classes"]]) == 0
    out = capsys.readouterr().out
    assert "nodes: 5" in out
    assert "constraints: 7" in out
    assert "feasible: yes" in out
    assert "zero-weight cycle: yes" in out
    assert "classes: 2" in out
    assert "class sizes: 1 4" in out
    assert "removable edges (max): 1" in out
    assert "certified maximum: yes" in out


def test_redundant_without_zero_cycle(paths, capsys, tmp_path):
    assert main(["redundant", paths["weight_sensitive"]]) == 0
    assert capsys.readouterr().out == ""
    f = tmp_path / "detour.dcs"
    f.write_text("p dcs 3 3\ne 1 2 5\ne 1 3 2\ne 3 2 2\n")
    assert main(["redundant", str(f)]) == 0
    assert capsys.readouterr().out == "1 2\n"


def test_redundant_with_zero_cycles(paths, capsys):
    assert main(["redundant", paths["two_classes"]]) == 0
    assert capsys.readouterr().out == "3 2\n"
    # each of the two edges can go alone, but not both (criterion 3)
    assert main(["redundant", paths["tied_optima"]]) == 0
    assert capsys.readouterr().out == "1 2\n1 3\n"


def test_simplify(paths, capsys):
    assert main(["simplify", paths["two_classes"]]) == 0
    captured = capsys.readouterr()
    assert captured.out == dumps(load_fixture("two_classes").without({(3, 2)}))
    assert "removed 1, certified" in captured.err


def test_simplify_exact_limit_and_heuristic(paths, capsys):
    assert main(["simplify", "--exact-limit", "3", paths["two_classes"]]) == 4
    assert "exact limit" in capsys.readouterr().err
    rc = main(
        ["simplify", "--exact-limit", "3", "--allow-heuristic", paths["two_classes"]]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert "removed 1, maximal (not certified)" in captured.err


def test_reduce_then_check_round_trip(paths, capsys, tmp_path):
    reduced = tmp_path / "reduced.dcs"
    assert main(["reduce", paths["two_classes"], "--out", str(reduced)]) == 0
    captured = capsys.readouterr()
    assert "reduced to 6 constraints (1 fewer)" in captured.err
    assert loads(reduced.read_text()).m == 6
    assert main(["check", paths["two_classes"], str(reduced)]) == 0
    assert capsys.readouterr().out == "equivalent\n"


def test_condense(paths, capsys):
    assert main(["condense", paths["two_classes"]]) == 0
    captured = capsys.readouterr()
    assert captured.out == "p dcs 2 2\ne 1 2 1\ne 2 1 0\n"
    assert "class 1: rep 1, nodes 1" in captured.err
    assert "class 2: rep 2, nodes 2 3 4 5" in captured.err


def test_condense_of_reduction(paths, capsys, tmp_path):
    assert main(["condense", "--of-reduction", paths["two_classes"]]) == 0
    assert capsys.readouterr().out == "p dcs 2 2\ne 1 2 1\ne 2 1 0\n"
    # the detour drops the condensation edge (1, 2); the reduction's own
    # condensation agrees
    f = tmp_path / "detour.dcs"
    f.write_text("p dcs 3 3\ne 1 2 5\ne 1 3 2\ne 3 2 2\n")
    assert main(["condense", "--of-reduction", str(f)]) == 0
    out = capsys.readouterr().out
    assert out == "p dcs 3 2\ne 1 3 2\ne 3 2 2\n"
    reduced = tmp_path / "reduced.dcs"
    assert main(["reduce", str(f), "--out", str(reduced)]) == 0
    assert out == dumps(analyze(loads(reduced.read_text())).condensation.as_graph())


def test_check_not_equivalent(paths, capsys, tmp_path):
    weaker = tmp_path / "weaker.dcs"
    weaker.write_text(dumps(load_fixture("weight_sensitive").without({(1, 2)})))
    assert main(["check", paths["weight_sensitive"], str(weaker)]) == 3
    out = capsys.readouterr().out
    assert "not equivalent" in out and "(1,2)" in out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.dcs"
    bad.write_text("p dcs 2 1\ne 1 2\n")
    assert main(["info", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err
    # an exponent would ask for five million digits
    bad.write_text("p dcs 2 1\ne 1 2 1e5000000\n")
    assert main(["simplify", str(bad)]) == 1
    assert capsys.readouterr().err == "error: line 2: not a rational constant: '1e5000000'\n"


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["info", str(tmp_path / "nope.dcs")]) == 1
    assert "error:" in capsys.readouterr().err


def test_infeasible_exit_code(tmp_path, capsys):
    bad = tmp_path / "infeasible.dcs"
    bad.write_text("p dcs 2 2\ne 1 2 -1\ne 2 1 0\n")
    assert main(["info", str(bad)]) == 2
    assert "negative-weight closed walk" in capsys.readouterr().err


@pytest.mark.parametrize(
    "arcs",
    [
        [(i, j) for i in range(1, 7) for j in range(1, 7) if i != j],
        # a 60-node zero cycle: listing its members alone would outgrow the line
        [(i, i % 60 + 1) for i in range(1, 61)],
    ],
    ids=["complete-6", "cycle-60"],
)
def test_exact_limit_error_is_one_short_line(arcs, tmp_path, capsys):
    f = tmp_path / "class.dcs"
    n = max(i for i, _ in arcs)
    f.write_text(f"p dcs {n} {len(arcs)}\n" + "".join(f"e {i} {j} 0\n" for i, j in arcs))
    assert main(["info", str(f)]) == 4
    err = capsys.readouterr().err
    assert "exact limit" in err
    assert err.count("\n") == 1 and len(err) < 200


def test_info_over_the_exact_limit_prints_the_summary_first(tmp_path, capsys):
    f = tmp_path / "complete.dcs"
    arcs = [(i, j) for i in range(1, 7) for j in range(1, 7) if i != j]
    f.write_text(f"p dcs 6 {len(arcs)}\n" + "".join(f"e {i} {j} 0\n" for i, j in arcs))
    assert main(["info", str(f)]) == 4
    captured = capsys.readouterr()
    assert captured.out == (
        "nodes: 6\n"
        "constraints: 30\n"
        "feasible: yes\n"
        "zero-weight cycle: yes\n"
        "classes: 1\n"
        "class sizes: 6\n"
        "slack intra-class edges: 0\n"
        "condensation edges: 0\n"
    )
    assert captured.err.startswith("error: the 6-node class") and captured.err.count("\n") == 1


def test_a_million_isolated_nodes_are_a_million_classes(tmp_path, capsys):
    # a million classes, each costing a few list entries and no edge set
    f = tmp_path / "wide.dcs"
    f.write_text("p dcs 1000000 0\n")
    assert main(["info", str(f)]) == 0
    assert "classes: 1000000\n" in capsys.readouterr().out


def test_giant_class_reduce_and_check_stay_fast(tmp_path):
    # one zero-cycle class of 3000 nodes: a tight ring plus chords of slack
    # 0-10.  Floyd-Warshall over every node would take about a minute here;
    # on the condensation it has a handful of nodes
    rng = Random(3000)
    n = 3000
    x = [0] + [rng.randint(-50, 50) for _ in range(n)]
    edges = {(i, i % n + 1): 0 for i in range(1, n + 1)}
    while len(edges) < 10 * n:
        i, j = rng.randint(1, n), rng.randint(1, n)
        if i != j and (i, j) not in edges:
            edges[(i, j)] = rng.randint(0, 10)
    f, reduced = tmp_path / "ring.dcs", tmp_path / "reduced.dcs"
    f.write_text(
        f"p dcs {n} {len(edges)}\n"
        + "".join(f"e {i} {j} {x[i] - x[j] + s}\n" for (i, j), s in sorted(edges.items()))
    )
    start = time.perf_counter()
    assert main(["reduce", str(f), "--out", str(reduced)]) == 0
    assert main(["check", str(f), str(reduced)]) == 0
    assert time.perf_counter() - start < 10.0


def test_path_of_classes_reduce_and_check_stay_fast(tmp_path):
    # 3000 nodes, each its own class, on the path i -> i+1 of weight -1:
    # K = n, so an all-pairs table over the condensation would have 9
    # million entries.  The edges point the way Bellman-Ford relaxes, so its
    # pass settles in two rounds
    n = 3000
    f, reduced = tmp_path / "path.dcs", tmp_path / "reduced.dcs"
    f.write_text(f"p dcs {n} {n - 1}\n" + "".join(f"e {i} {i + 1} -1\n" for i in range(1, n)))
    start = time.perf_counter()
    assert main(["reduce", str(f), "--out", str(reduced)]) == 0
    assert main(["check", str(f), str(reduced)]) == 0
    assert time.perf_counter() - start < 10.0


def test_deep_exact_search_is_certified(tmp_path, capsys):
    # a 600-node zero path in both directions: all 1198 tight arcs are
    # essential, and the exact search goes one level deeper per arc
    n = 600
    f = tmp_path / "path.dcs"
    f.write_text(
        f"p dcs {n} {2 * (n - 1)}\n"
        + "".join(f"e {i} {i + 1} 0\ne {i + 1} {i} 0\n" for i in range(1, n))
    )
    assert main(["simplify", str(f), "--exact-limit", "2000"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "removed 0, certified\n"
    assert loads(captured.out) == loads(f.read_text())


def test_exact_search_over_its_budget(tmp_path, monkeypatch, capsys):
    # a 5-node zero class: the exact search visits 17 nodes to keep 5 arcs,
    # where greedy keeps 6
    arcs = [(1, 2), (1, 4), (2, 1), (2, 3), (2, 4), (3, 4), (4, 3), (4, 5), (5, 1)]
    f = tmp_path / "class.dcs"
    f.write_text(f"p dcs 5 {len(arcs)}\n" + "".join(f"e {i} {j} 0\n" for i, j in arcs))
    assert main(["simplify", str(f)]) == 0
    assert capsys.readouterr().err == "removed 4, certified\n"
    monkeypatch.setattr(meg, "SEARCH_BUDGET", 5)
    assert main(["simplify", str(f)]) == 4
    assert capsys.readouterr().err == (
        "error: the 5-node class of node 1 has 9 tight edges, and the exact "
        "search passed its budget of 5 nodes; allow the heuristic to accept "
        "a maximal (uncertified) result\n"
    )
    assert main(["simplify", str(f), "--allow-heuristic"]) == 0
    assert capsys.readouterr().err.startswith("removed 3, maximal (not certified)")


def test_long_computed_weights_round_trip(tmp_path, capsys):
    # a zero-cycle chain over 1201 nodes with weights -1/p and 1/p for the
    # 1200 primes p from 10007: each input weight is short, but the weight
    # that closes the reduced cycle, the sum of all 1/p, has some 5000
    # digits above and below the line, past Python's 4300-digit limit.  The
    # negative weights point up the chain, the order in which Bellman-Ford
    # relaxes, so the potential settles in two rounds, not 1200
    primes = []
    k = 10007
    while len(primes) < 1200:
        if all(k % q for q in range(2, int(k**0.5) + 1)):
            primes.append(k)
        k += 1
    f, reduced = tmp_path / "chain.dcs", tmp_path / "reduced.dcs"
    f.write_text(
        f"p dcs {len(primes) + 1} {2 * len(primes)}\n"
        + "".join(f"e {i} {i + 1} -1/{p}\ne {i + 1} {i} 1/{p}\n" for i, p in enumerate(primes, 1))
    )
    assert main(["reduce", str(f), "--out", str(reduced)]) == 0
    assert max(len(line) for line in reduced.read_text().splitlines()) > 2 * 4300
    assert main(["check", str(f), str(reduced)]) == 0
    assert capsys.readouterr().out == "equivalent\n"


def _every_command(paths, tmp_path):
    """The argv of every command, on two_classes and on a generated 60-node
    system, ``check`` against each one's reduction."""
    g = oracles.random_potential_system(Random(60), 60, 600)
    generated = tmp_path / "generated.dcs"
    generated.write_text(dumps(g))
    for name, inp in (("two_classes", paths["two_classes"]), ("generated", str(generated))):
        reduced = tmp_path / f"{name}.reduced.dcs"
        assert main(["reduce", inp, "--out", str(reduced)]) == 0
        for command in (
            ["info", inp, "--allow-heuristic"],
            ["redundant", inp],
            ["simplify", inp, "--allow-heuristic"],
            ["reduce", inp],
            ["condense", inp],
            ["condense", "--of-reduction", inp],
            ["check", inp, str(reduced)],
        ):
            yield command


def test_same_output_under_every_hash_seed(paths, tmp_path):
    # every command, each in its own process, under two string-hash seeds
    src = str(Path(cli.__file__).resolve().parent.parent)
    for command in _every_command(paths, tmp_path):
        runs = [
            subprocess.Popen(
                [sys.executable, "-m", "dcsimp.cli", *command],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
            for seed in ("0", "1")
        ]
        (out0, err0), (out1, err1) = (run.communicate(timeout=60) for run in runs)
        assert [run.returncode for run in runs] == [0, 0], (command, err0, err1)
        assert out0 == out1 and err0 == err1, command


def test_every_command_runs_without_numpy(paths, tmp_path, capsys):
    # numpy set to None in sys.modules makes any import of it fail; the
    # output must be that of a run in this process
    src = str(Path(cli.__file__).resolve().parent.parent)
    script = (
        "import sys; sys.modules['numpy'] = None\n"
        "from dcsimp.cli import main\n"
        "raise SystemExit(main(sys.argv[1:]))\n"
    )
    capsys.readouterr()
    for command in _every_command(paths, tmp_path):
        code = main(command)
        want = capsys.readouterr().out
        run = subprocess.run(
            [sys.executable, "-c", script, *command],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (run.returncode, run.stdout) == (code, want), (command, run.stderr)


def test_out_of_memory_is_one_error_line(paths, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "max_redundant_edge_set", exhausted)
    assert main(["info", paths["two_classes"]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1


def test_self_loop_warning_reaches_stderr(tmp_path, capsys):
    f = tmp_path / "loop.dcs"
    f.write_text("p dcs 2 2\ne 1 1 0\ne 1 2 1\n")
    assert main(["redundant", str(f)]) == 0
    assert "warning:" in capsys.readouterr().err


def test_out_flag_writes_file(paths, tmp_path, capsys):
    out = tmp_path / "result.txt"
    assert main(["redundant", paths["two_classes"], "--out", str(out)]) == 0
    assert out.read_text() == "3 2\n"
    assert capsys.readouterr().out == ""



@pytest.mark.parametrize(
    "command",
    [
        "bogus",
        "",
        "check two_classes",
        "reduce --exact-limit 3 two_classes",
        "condense --allow-heuristic two_classes",
        "redundant --oracle two_classes",
        "simplify --representative largest two_classes",
    ],
)
def test_usage_error_exit_code(command, paths, capsys):
    # exit 2 is reserved for infeasible input
    assert main([paths.get(a, a) for a in command.split()]) == 1
    assert "error:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, calls",
    [
        ("info two_classes", 1),
        ("simplify two_classes", 1),
        ("reduce two_classes", 1),
        ("condense two_classes", 1),
        ("condense --of-reduction two_classes", 1),
        ("redundant weight_sensitive", 1),
        ("redundant two_classes", 1),
        ("check two_classes two_classes", 2),
    ],
)
def test_distances_computed_once_per_input(command, calls, paths, monkeypatch, capsys):
    seen = []

    def counting(g):
        seen.append(g)
        return min_walk_weights(g)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dcsimp" and getattr(module, "min_walk_weights", None) is min_walk_weights:
            monkeypatch.setattr(module, "min_walk_weights", counting)
    assert main([paths.get(a, a) for a in command.split()]) == 0
    assert len(seen) == calls


def test_readme_common_flags_match_parser():
    # each "Common flags" bullet names a flag and the commands that take it,
    # as "`--flag ...` (`cmd`, ...)" or "`cmd --flag`"; --out is on every command
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("Common flags:", 1)[1].split("```", 1)[0]
    documented = {}
    for bullet in section.split("\n- ")[1:]:
        bullet = " ".join(bullet.split())
        m = re.match(r"`(?:(\w+) )?(--[\w-]+)[^`]*`(?: \(([^)]*)\))?", bullet)
        assert m, bullet
        cmd, flag, listed = m.groups()
        documented[flag] = {cmd} if cmd else set(re.findall(r"`(\w+)`", listed))
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = {}
    for cmd, p in sub.choices.items():
        assert "--out" in p._option_string_actions
        for flag in p._option_string_actions:
            if flag not in ("-h", "--help", "--out"):
                accepted.setdefault(flag, set()).add(cmd)
    assert documented == accepted
