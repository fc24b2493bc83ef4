"""End-to-end command-line behavior, exit codes included."""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from random import Random

import pytest

import dcsimp
import oracles
from dcsimp import cli, decomposition, meg
from dcsimp.cli import main
from dcsimp.core import PrecedenceGraph, min_walk_weights
from dcsimp.decomposition import analyze, condensation, condensation_redundant_pairs
from dcsimp.errors import InfeasibleSystem
from dcsimp.fileformat import dumps, loads
from shipped import FIXTURE_DIR, NAMES, load_fixture


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


def test_simplify_exact_limit_and_heuristic(paths, monkeypatch, capsys):
    # over the limit the class goes to the cover fallback, flag or no flag;
    # its answer, the 4-cycle, meets the bound L = 4 and is certified
    exact = main(["simplify", paths["two_classes"]]), capsys.readouterr()
    monkeypatch.setattr(meg, "EXACT_LIMIT", 3)
    assert main(["simplify", paths["two_classes"]]) == 0
    captured = capsys.readouterr()
    assert (0, captured) == exact
    assert captured.err == "removed 1, certified\n"
    assert main(["simplify", "--allow-heuristic", paths["two_classes"]]) == 0
    assert capsys.readouterr() == captured


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
    reduced = tmp_path / "reduced.dcs"
    assert main(["reduce", paths["two_classes"], "--out", str(reduced)]) == 0
    assert main(["condense", str(reduced)]) == 0
    assert capsys.readouterr().out == "p dcs 2 2\ne 1 2 1\ne 2 1 0\n"
    # the detour drops the condensation edge (1, 2) from the reduction's
    # condensation, which is the input's without its redundant pairs
    f = tmp_path / "detour.dcs"
    f.write_text("p dcs 3 3\ne 1 2 5\ne 1 3 2\ne 3 2 2\n")
    assert main(["reduce", str(f), "--out", str(reduced)]) == 0
    assert main(["condense", str(reduced)]) == 0
    out = capsys.readouterr().out
    assert out == "p dcs 3 2\ne 1 3 2\ne 3 2 2\n"
    a = analyze(loads(f.read_text()))
    removed = condensation_redundant_pairs(a.d)
    assert out == dumps(condensation(a.d).without((x + 1, y + 1) for x, y in removed))


@pytest.mark.parametrize("command", ["reduce", "simplify", "redundant"])
def test_tied_crossings_do_not_depend_on_input_order(command, paths, capsys, tmp_path):
    # tied_optima's class pair has two cheapest crossings, (1, 2) and
    # (1, 3): the smallest one represents it, whichever the file lists first
    lines = Path(paths["tied_optima"]).read_text().splitlines(keepends=True)
    edges = [line for line in lines if line.startswith("e ")]
    flipped = tmp_path / "flipped.dcs"
    flipped.write_text("".join(line for line in lines if line not in edges) + "".join(edges[::-1]))
    outputs = []
    for inp in (paths["tied_optima"], str(flipped)):
        assert main([command, inp]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


def test_check_not_equivalent(paths, capsys, tmp_path):
    weaker = tmp_path / "weaker.dcs"
    weaker.write_text(dumps(load_fixture("weight_sensitive").without({(1, 2)})))
    assert main(["check", paths["weight_sensitive"], str(weaker)]) == 3
    out = capsys.readouterr().out
    assert "not equivalent" in out and "(1,2)" in out


def test_check_on_minimum_equivalent_systems_other_than_the_reduction(capsys, tmp_path):
    # members of the paper's family drawn by the oracle on project networks:
    # each is equivalent to the input, and one with an edge loosened by 1 is
    # not, the loosened constraint of the member its witness
    for seed in range(4):
        rng = Random(seed)
        g = oracles.project_system(rng, 40, maxlag_share=0.5)
        d = min_walk_weights(g)
        surviving = {pair for pair, _ in oracles.class_arcs(d)} - oracles.forward_redundant_pairs(d)
        member = oracles.sample_minimum_equivalent(rng, d, surviving)
        (i, j) = e = rng.choice(sorted(member.edges))
        loosened = PrecedenceGraph(g.n, {**member.edges, e: member.edges[e] + 1})
        files = {}
        for name, h in (("input", g), ("member", member), ("loosened", loosened)):
            files[name] = str(tmp_path / f"{name}.dcs")
            Path(files[name]).write_text(dumps(h))
        assert main(["check", files["input"], files["member"]]) == 0
        assert capsys.readouterr().out == "equivalent\n"
        assert main(["check", files["member"], files["loosened"]]) == 3
        assert capsys.readouterr().out == (
            f"not equivalent: constraint ({i},{j}) of {files['member']} "
            "is not implied by the other system\n"
        )


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.dcs"
    bad.write_text("p dcs 2 1\ne 1 2\n")
    assert main(["info", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err
    # an exponent would ask for five million digits
    bad.write_text("p dcs 2 1\ne 1 2 1e5000000\n")
    assert main(["simplify", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: line 2: not a rational constant: '1e5000000'\n"
    # int() alone reads "1_0" as 10 and the Arabic-Indic digit one as 1
    for text, message in [
        ("p dcs 1_0 1\ne 1 2 3\n", "line 1: non-integer size in header"),
        ("p dcs 2 1\ne \u0661 +2 3\n", "line 2: non-integer node id"),
    ]:
        bad.write_text(text, encoding="utf-8")
        assert main(["info", str(bad)]) == 1
        assert capsys.readouterr() == ("", f"error: {bad}: {message}\n")
    # a size no list can hold, and a node id past Python's digit limit,
    # end in one error line from every command, not a traceback; a node id
    # out of range names its own line, ahead of a later bad line
    huge = "9" * 5001
    for text, message in [
        ("p dcs 100000000000000000000 0\n", "line 1: size too large in header"),
        (f"p dcs 2 {huge}\n", "line 1: size too large in header"),
        (f"p dcs 2 1\ne {huge} 1 0\n", "line 2: node id out of range 1..2"),
        (f"p dcs 2 1\ne 1 -{huge} 0\n", "line 2: node id out of range 1..2"),
        ("p dcs 2 1\ne 1 3 0\n", "line 2: node id out of range 1..2"),
        ("p dcs 2 2\ne 1 3 1\ne 1 2 x\n", "line 2: node id out of range 1..2"),
        ("p dcs 0 1\ne 1 1 0\n", "line 2: node id out of range 1..0"),
        # every line parses and the count matches before a self-loop is judged
        ("p dcs 2 3\ne 1 1 -1\ne 1 2 x\n", "line 3: not a rational constant: 'x'"),
        ("p dcs 2 3\ne 1 1 -1\ne 1 2 1\n", "header promises 3 constraints, found 2"),
    ]:
        bad.write_text(text)
        single = [[c, str(bad)] for c in ("info", "simplify", "reduce", "redundant", "condense")]
        for argv in single + [["check", str(bad), str(bad)]]:
            assert main(argv) == 1
            assert capsys.readouterr() == ("", f"error: {bad}: {message}\n")
    # bytes that are not UTF-8 end in one error line, not a traceback
    bad.write_bytes(b"p dcs 2 1\ne 1 2 \xff\n")
    assert main(["info", str(bad)]) == 1
    assert capsys.readouterr() == ("", f"error: {bad}: line 2: invalid UTF-8 at byte offset 16\n")


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["info", str(tmp_path / "nope.dcs")]) == 1
    assert "error:" in capsys.readouterr().err


def test_infeasible_exit_code(tmp_path, capsys):
    bad = tmp_path / "infeasible.dcs"
    bad.write_text("p dcs 2 2\ne 1 2 -1\ne 2 1 0\n")
    assert main(["info", str(bad)]) == 2
    assert "negative-weight closed walk" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("p dcs 3 3\ne 1 2 -1\ne 2 3 -1\ne 3 1 1\n", "walk 1-2-3-1 has weight -1"),
        (
            "p dcs 4 5\ne 1 2 -1/3\ne 2 3 -1/7\ne 3 1 1/3\ne 3 4 1\ne 4 2 5\n",
            "walk 3-1-2-3 has weight -1/7",
        ),
    ],
)
def test_infeasible_message_prices_the_witness(text, message, tmp_path, capsys):
    bad = tmp_path / "infeasible.dcs"
    bad.write_text(text)
    single = [[c, str(bad)] for c in ("info", "simplify", "reduce", "redundant", "condense")]
    for argv in single:
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "",
            f"error: no solution: negative-weight closed {message}\n",
        )
    # of two inputs, check names the one without a solution
    assert main(["check", str(bad), str(bad)]) == 2
    assert capsys.readouterr() == (
        "",
        f"error: {bad}: no solution: negative-weight closed {message}\n",
    )
    # the weight is the witness's own, priced edge by edge
    g = loads(text)
    with pytest.raises(InfeasibleSystem) as info:
        min_walk_weights(g)
    weight = oracles.walk_weight(g, info.value.cycle)
    assert weight < 0 and str(info.value).endswith(f" has weight {weight}")


# a complete zero class on 6 nodes: 30 tight arcs, over the exact limit
COMPLETE_6 = [(i, j) for i in range(1, 7) for j in range(1, 7) if i != j]


def _zero_class(path, arcs):
    """Write the arcs, each of weight 0, as a system on nodes 1..max tail."""
    n = max(i for i, _ in arcs)
    path.write_text(f"p dcs {n} {len(arcs)}\n" + "".join(f"e {i} {j} 0\n" for i, j in arcs))
    return str(path)


# two complete zero classes on 4 nodes each, joined by (1, 5) and (5, 1):
# 26 tight arcs, whose minimum of 10 lies above the bound L = 8
TWO_COMPLETE_4 = [
    (b + i, b + j) for b in (1, 5) for i in range(4) for j in range(4) if i != j
] + [(1, 5), (5, 1)]


@pytest.mark.parametrize(
    "arcs, kept, certified",
    [
        (COMPLETE_6, 6, "yes"),
        # a 60-node zero cycle: already minimal, and its own cover
        ([(i, i % 60 + 1) for i in range(1, 61)], 60, "yes"),
        # the cover finds the minimum but cannot prove it
        (TWO_COMPLETE_4, 10, "no"),
    ],
    ids=["complete-6", "cycle-60", "two-complete-4"],
)
def test_info_over_the_exact_limit_prints_the_graded_summary(
    arcs, kept, certified, tmp_path, capsys
):
    # one class over the exact limit: solved by the cover fallback, graded
    # certified when the cover meets the bound L (both Hamiltonian cases)
    n = max(i for i, _ in arcs)
    assert main(["info", _zero_class(tmp_path / "class.dcs", arcs)]) == 0
    assert capsys.readouterr() == (
        f"nodes: {n}\n"
        f"constraints: {len(arcs)}\n"
        "feasible: yes\n"
        "zero-weight cycle: yes\n"
        "classes: 1\n"
        f"class sizes: {n}\n"
        "slack intra-class edges: 0\n"
        "condensation edges: 0\n"
        f"removable edges (max): {len(arcs) - kept}\n"
        f"certified maximum: {certified}\n",
        "",
    )


def test_info_over_the_exact_limit_prints_the_summary_first(tmp_path, monkeypatch, capsys):
    # the summary comes first and does not depend on the limit: raised so the
    # exact search certifies, only the last line, the grade, changes
    f = _zero_class(tmp_path / "two.dcs", TWO_COMPLETE_4)
    assert main(["info", f]) == 0
    cover = capsys.readouterr()
    monkeypatch.setattr(meg, "EXACT_LIMIT", len(TWO_COMPLETE_4))
    assert main(["info", f]) == 0
    exact = capsys.readouterr()
    assert cover.err == exact.err == ""
    summary, grade = cover.out.rsplit("certified maximum: ", 1)
    assert summary.startswith("nodes: 8\nconstraints: 26\n")
    assert exact.out == summary + "certified maximum: yes\n"
    assert grade == "no\n"


@pytest.mark.parametrize("name", ["two_classes", "complete-6"])
@pytest.mark.parametrize("command", ["info", "simplify"])
def test_allow_heuristic_is_accepted_and_ignored(name, command, paths, tmp_path, capsys):
    # benchmark scripts still pass the flag; it must neither fail nor change a byte
    f = paths.get(name) or _zero_class(tmp_path / "complete.dcs", COMPLETE_6)
    assert main([command, f]) == 0
    captured = capsys.readouterr()
    assert main([command, f, "--allow-heuristic"]) == 0
    assert capsys.readouterr() == captured


def test_a_million_isolated_nodes_are_a_million_classes(tmp_path, capsys):
    # a million classes, each costing a few list entries and no edge set
    f = tmp_path / "wide.dcs"
    f.write_text("p dcs 1000000 0\n")
    assert main(["info", str(f)]) == 0
    assert "classes: 1000000\n" in capsys.readouterr().out


# Runs argv and prints its peak RSS in KiB.  A fresh launcher per command,
# so that no earlier child's peak is counted in RUSAGE_CHILDREN.
_PEAK_RSS = (
    "import resource, subprocess, sys\n"
    "subprocess.run(sys.argv[1:], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, check=True)\n"
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_isolated_nodes_peak_memory_in_a_child_process(tmp_path):
    # 200,000 one-node classes, above the interpreter and imports that
    # info on an empty system peaks at: 30 and 56 MB on a 2-vCPU Xeon.
    # info prints every class's size but holds no string per class, so it
    # peaks with simplify, which solves the same system
    src = str(Path(cli.__file__).resolve().parent.parent)
    wide, empty = tmp_path / "wide.dcs", tmp_path / "empty.dcs"
    wide.write_text("p dcs 200000 0\n")
    empty.write_text("p dcs 0 0\n")

    def peak_mb(*command):
        run = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "dcsimp.cli", *command],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert run.returncode == 0, run.stderr
        return int(run.stdout) / 1024

    base = peak_mb("info", str(empty))
    info = peak_mb("info", str(wide))
    assert info - base < 48
    assert info - peak_mb("simplify", str(wide)) < 2
    assert peak_mb("check", str(wide), str(wide)) - base < 64


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


def test_many_small_classes_simplify_stays_fast(tmp_path, capsys):
    # 20,000 nodes in 10,000 zero-weight 2-cycles: each class's MEG
    # question, in simplify and in redundant, is asked on its own two
    # nodes, not on bitsets over all 20,000
    n = 20_000
    f = tmp_path / "pairs.dcs"
    f.write_text(
        f"p dcs {n} {n}\n"
        + "".join(f"e {k} {k + 1} 1\ne {k + 1} {k} -1\n" for k in range(1, n, 2))
    )
    start = time.perf_counter()
    assert main(["simplify", str(f), "--out", str(tmp_path / "out.dcs")]) == 0
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().err == "removed 0, certified\n"
    start = time.perf_counter()
    assert main(["redundant", str(f)]) == 0
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr() == ("", "")


def test_deep_exact_search_is_certified(tmp_path, monkeypatch, capsys):
    # a 600-node zero path in both directions: all 1198 tight arcs are
    # essential, and the exact search goes one level deeper per arc
    n = 600
    f = tmp_path / "path.dcs"
    f.write_text(
        f"p dcs {n} {2 * (n - 1)}\n"
        + "".join(f"e {i} {i + 1} 0\ne {i + 1} {i} 0\n" for i in range(1, n))
    )
    monkeypatch.setattr(meg, "EXACT_LIMIT", 2000)
    assert main(["simplify", str(f)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "removed 0, certified\n"
    assert loads(captured.out) == loads(f.read_text())


def test_exact_search_over_its_budget(tmp_path, monkeypatch, capsys):
    # a 5-node zero class: the exact search visits 17 nodes to keep 5 arcs;
    # past a budget of 5 the cover fallback finds the same Hamiltonian
    # cycle, which meets the bound L = 5 and is certified too
    arcs = [(1, 2), (1, 4), (2, 1), (2, 3), (2, 4), (3, 4), (4, 3), (4, 5), (5, 1)]
    f = _zero_class(tmp_path / "class.dcs", arcs)
    assert main(["simplify", f]) == 0
    exact = capsys.readouterr()
    assert exact.err == "removed 4, certified\n"
    monkeypatch.setattr(meg, "SEARCH_BUDGET", 5)
    assert main(["simplify", f]) == 0
    captured = capsys.readouterr()
    assert captured == exact
    assert main(["simplify", f, "--allow-heuristic"]) == 0
    assert capsys.readouterr() == captured


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
            ["info", inp],
            ["redundant", inp],
            ["simplify", inp],
            ["reduce", inp],
            ["condense", inp],
            ["condense", str(reduced)],
            ["check", inp, str(reduced)],
        ):
            yield command


def test_main_leaves_the_heap_unfrozen(paths, tmp_path, capsys):
    # tests and the bench's traced mode call main() in-process, over and
    # over; a freeze there would pin each caller's heap for good
    before = gc.get_freeze_count()
    for command in _every_command(paths, tmp_path):
        assert main(command) == 0, command
        assert gc.get_freeze_count() == before, command


def test_the_process_entry_freezes_the_import_heap(paths):
    src = str(Path(cli.__file__).resolve().parent.parent)
    script = (
        "import gc, runpy\n"
        "try:\n"
        "    runpy.run_module('dcsimp.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, gc.get_freeze_count())\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", script, "info", paths["two_classes"]],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    summary, _, last = run.stdout.rstrip("\n").rpartition("\n")
    assert "nodes: 5" in summary, run.stderr
    code, frozen = map(int, last.split())
    assert code == 0 and frozen > 0


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


def test_no_command_loads_dataclasses_or_inspect(paths, tmp_path):
    # dataclasses and inspect cost tens of milliseconds to import, argparse
    # with gettext and locale a few, paid by every invocation, help and
    # usage errors included; compared against the modules loaded before, as
    # site may load some
    src = str(Path(cli.__file__).resolve().parent.parent)
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "from dcsimp.cli import main\n"
        "for command in json.loads(sys.argv[1]):\n"
        "    main(command)\n"
        "banned = {'dataclasses', 'inspect', 'argparse', 'gettext', 'locale'}\n"
        "print(sorted(banned & (set(sys.modules) - before)))\n"
    )
    commands = json.dumps([*_every_command(paths, tmp_path), ["--help"], ["check", "--bogus"]])
    run = subprocess.run(
        [sys.executable, "-c", script, commands],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


def test_each_command_loads_only_its_modules(paths, tmp_path):
    # each command in a process of its own, so that every dcsimp module
    # loaded is one the command asked for: check reads only distances, only
    # check verifies, reduce and condense solve no MEG, only a class with
    # tight arcs loads meg (weight_sensitive has no zero-weight cycle, the
    # empty system no node), and only a class over the exact limit loads
    # the cover
    src = str(Path(cli.__file__).resolve().parent.parent)
    script = (
        "import json, sys\n"
        "from dcsimp.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(json.dumps([code, [m for m in sys.modules if m.startswith('dcsimp.')]]))\n"
    )
    reduced = str(tmp_path / "reduced.dcs")
    assert main(["reduce", paths["two_classes"], "--out", reduced]) == 0
    complete = _zero_class(tmp_path / "complete.dcs", COMPLETE_6)  # over the exact limit
    empty = tmp_path / "empty.dcs"
    empty.write_text("p dcs 0 0\n")
    meg_only = {"dcsimp.decomposition", "dcsimp.meg"}
    solvers = meg_only | {"dcsimp.cover", "dcsimp.verify"}
    expected = {
        ("check", paths["two_classes"], reduced): {"dcsimp.verify"},
        ("info", paths["two_classes"]): meg_only,
        ("redundant", paths["two_classes"]): meg_only,
        ("simplify", paths["two_classes"]): meg_only,
        ("simplify", complete): meg_only | {"dcsimp.cover"},
        ("redundant", complete): meg_only,
        ("reduce", paths["two_classes"]): {"dcsimp.decomposition"},
        ("condense", paths["two_classes"]): {"dcsimp.decomposition"},
    }
    for source in (paths["weight_sensitive"], str(empty)):
        for command in ("info", "simplify", "redundant"):
            expected[(command, source)] = {"dcsimp.decomposition"}
    for command, wanted in expected.items():
        run = subprocess.run(
            [sys.executable, "-c", script, *command, "--out", str(tmp_path / "out.txt")],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert run.returncode == 0, run.stderr
        code, loaded = json.loads(run.stdout)
        assert code == 0
        assert solvers & set(loaded) == wanted, command


def test_the_package_resolves_solver_names_on_first_access():
    # before any name resolves: a fresh process, where import dcsimp loads no
    # solver module and dir() already lists every export
    src = str(Path(cli.__file__).resolve().parent.parent)
    script = (
        "import json, sys, dcsimp\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.startswith('dcsimp.')),"
        " sorted(set(dcsimp.__all__) - set(dir(dcsimp)))]))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [["dcsimp.core", "dcsimp.errors", "dcsimp.fileformat"], []]
    lazy = dcsimp._LAZY
    assert set(lazy) < set(dcsimp.__all__)
    for name in dcsimp.__all__:
        value = getattr(dcsimp, name)
        module = importlib.import_module(f"dcsimp.{lazy[name]}" if name in lazy else value.__module__)
        assert value is getattr(module, name), name
        if name in lazy:
            assert dcsimp.__getattr__(name) is value, name
    for name in ("core", "decomposition", "errors", "fileformat", "meg", "verify"):
        assert getattr(dcsimp, name) is importlib.import_module(f"dcsimp.{name}"), name
        assert name in dir(dcsimp)
    star: dict = {}
    exec("from dcsimp import *", star)
    assert set(dcsimp.__all__) <= set(star) and set(dcsimp.__all__) <= set(dir(dcsimp))
    assert all(star[name] is getattr(dcsimp, name) for name in dcsimp.__all__)
    for unknown in ("nothing", "_LAZY_", "redundancy", "reduction"):
        with pytest.raises(AttributeError, match=unknown):
            getattr(dcsimp, unknown)


GOLDEN = Path(__file__).with_name("golden_cli.json")


def _cli_outputs(paths, tmp_path):
    """Exit code, stdout and stderr of every command, plus ``check`` of each
    input against its reduction with the first constraint loosened by 1,
    keyed by the argv, with each file named by its base name there and in
    the output."""
    commands = list(_every_command(paths, tmp_path))
    for inp in (paths["two_classes"], str(tmp_path / "generated.dcs")):
        reduced = loads((tmp_path / f"{Path(inp).stem}.reduced.dcs").read_text())
        (i, j), w = min(reduced.edges.items())
        tampered = tmp_path / f"{Path(inp).stem}.tampered.dcs"
        tampered.write_text(dumps(PrecedenceGraph(reduced.n, {**reduced.edges, (i, j): w + 1})))
        commands.append(["check", inp, str(tampered)])
    runs = {}
    for command in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(command)
        out, err = out.getvalue(), err.getvalue()
        for arg in command[1:]:  # a message names a file by the path it was given
            out, err = out.replace(arg, Path(arg).name), err.replace(arg, Path(arg).name)
        argv = " ".join([command[0]] + [Path(arg).name for arg in command[1:]])
        runs[argv] = {"exit": code, "stdout": out, "stderr": err}
    return runs


def _record_golden() -> None:
    """Rewrite ``golden_cli.json`` from the current code, after a deliberate
    change of output: ``PYTHONPATH=src:tests python -c "import test_cli;
    test_cli._record_golden()"``."""
    paths = {name: str(FIXTURE_DIR / f"{name}.dcs") for name in NAMES}
    with tempfile.TemporaryDirectory() as tmp:
        runs = _cli_outputs(paths, Path(tmp))
    GOLDEN.write_text(json.dumps(runs, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")


def test_every_command_prints_the_recorded_bytes(paths, tmp_path):
    # a change of speed must not change a byte of any command's output
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = _cli_outputs(paths, tmp_path)
    assert list(got) == list(want)
    for argv in want:
        assert got[argv] == want[argv], argv
    assert [run["exit"] for argv, run in got.items() if "tampered" in argv] == [3, 3]


def test_out_of_memory_is_one_error_line(paths, replace, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError()

    # patched in decomposition, where info's handler imports it from
    replace(decomposition.max_redundant_edge_set, exhausted)
    assert main(["info", paths["two_classes"]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1


def test_self_loop_warning_reaches_stderr(tmp_path, capsys):
    f = tmp_path / "loop.dcs"
    f.write_text("p dcs 2 3\ne 1 1 0\ne 1 2 1\ne 1 1 0\n")
    assert main(["redundant", str(f)]) == 0
    assert capsys.readouterr().err == f"warning: {f}: dropping vacuous self-loop (1,1) of weight 0\n" * 2


def test_a_failed_load_still_prints_its_warnings(tmp_path, capsys):
    # each vacuous self-loop warns until the first negative one fails
    f = tmp_path / "loops.dcs"
    f.write_text("p dcs 3 2\ne 1 1 0\ne 2 2 -1\n")
    assert main(["info", str(f)]) == 2
    assert capsys.readouterr() == (
        "",
        f"warning: {f}: dropping vacuous self-loop (1,1) of weight 0\n"
        f"error: {f}: constraint x_2 - x_2 <= -1 is unsatisfiable\n",
    )


def test_check_names_the_infeasible_file(tmp_path, capsys):
    # ok has the arcs of bad's cycle, at weights that sum to zero
    ok = tmp_path / "ok.dcs"
    ok.write_text("p dcs 2 2\ne 1 2 1\ne 2 1 -1\n")
    bad = tmp_path / "bad.dcs"
    bad.write_text("p dcs 2 2\ne 1 2 -1\ne 2 1 0\n")
    worse = tmp_path / "worse.dcs"
    worse.write_text("p dcs 2 2\ne 1 2 -2\ne 2 1 0\n")
    # when both have no solution, FILE_A's cycle is the one reported
    for a, b, named, weight in (
        (ok, bad, bad, -1), (bad, ok, bad, -1), (bad, worse, bad, -1), (worse, bad, worse, -2)
    ):
        assert main(["check", str(a), str(b)]) == 2
        assert capsys.readouterr() == (
            "",
            f"error: {named}: no solution: negative-weight closed walk 1-2-1 has weight {weight}\n",
        )


def test_check_names_the_file_a_load_error_or_warning_came_from(paths, tmp_path, capsys):
    # of two inputs, the message says which one it is about
    good = paths["two_classes"]
    bad = tmp_path / "bad.dcs"
    bad.write_text("p dcs 5 1\ne 1 x 3\n")
    for argv in (["check", good, str(bad)], ["check", str(bad), good]):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {bad}: line 2: non-integer node id\n")
    # a negative self-loop is infeasible on its own, exit code 2
    bad.write_text("p dcs 5 1\ne 2 2 -1\n")
    assert main(["check", good, str(bad)]) == 2
    assert capsys.readouterr() == ("", f"error: {bad}: constraint x_2 - x_2 <= -1 is unsatisfiable\n")
    loop = tmp_path / "loop.dcs"
    loop.write_text(Path(good).read_text().replace("p dcs 5 7", "p dcs 5 8") + "e 4 4 0\n")
    assert main(["check", good, str(loop)]) == 0
    assert capsys.readouterr() == (
        "equivalent\n",
        f"warning: {loop}: dropping vacuous self-loop (4,4) of weight 0\n",
    )


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
        "simplify --exact-limit -1 two_classes",
        "simplify --exact-limit 3 two_classes",
        "condense --of-reduction two_classes",
        # options are matched whole, never by a prefix
        "redundant two_classes --ou out.txt",
        "redundant two_classes --out",
        "redundant two_classes --out=",
        "redundant two_classes --out ''",
        "simplify two_classes --out --allow-heuristic",
        "info --bogus two_classes",
        "check two_classes two_classes two_classes",
        "reduce --allow-heuristic two_classes",
    ],
)
def test_usage_error_exit_code(command, paths, tmp_path, monkeypatch, capsys):
    # exit 2 is reserved for infeasible input
    monkeypatch.chdir(tmp_path)
    assert main([paths.get(a, a) for a in shlex.split(command)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err
    assert list(tmp_path.iterdir()) == []


def test_help_exits_zero(capsys):
    helps = ("-h", "--help")
    for argv in [[h] for h in helps] + [[cmd, h] for cmd in cli._COMMANDS for h in helps]:
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert out.startswith(f"usage: dcsimp {argv[0] if len(argv) > 1 else 'COMMAND'} ")
        assert err == ""


def test_accepted_argv_forms_match_the_plain_form(paths, tmp_path, monkeypatch, capsys):
    # the exit code, stdout, stderr and written files of each form equal the
    # plain form's: --out=FILE, --out before or between the inputs, the last
    # of two --out, and -- before an input whose name starts with -
    monkeypatch.chdir(tmp_path)
    two, a = paths["two_classes"], paths["weight_sensitive"]
    Path("weaker.dcs").write_text(dumps(load_fixture("weight_sensitive").without({(1, 2)})))
    Path("-x.dcs").write_text(Path(two).read_text())

    def result(argv):
        for old in Path().glob("*.txt"):
            old.unlink()
        code = main(argv)
        return code, capsys.readouterr(), sorted((f.name, f.read_text()) for f in Path().glob("*.txt"))

    forms = {
        ("redundant", two, "--out", "out.txt"): [
            ["redundant", two, "--out=out.txt"],
            ["redundant", "--out", "out.txt", two],
            ["redundant", two, "--out", "first.txt", "--out", "out.txt"],
            ["redundant", "--out", "out.txt", "--", "-x.dcs"],
        ],
        ("check", a, "weaker.dcs", "--out", "out.txt"): [
            ["check", a, "--out", "out.txt", "weaker.dcs"],
            ["check", "--out=out.txt", a, "--", "weaker.dcs"],
        ],
        ("info", two): [["info", "--", "-x.dcs"]],
        ("simplify", two): [["simplify", "--allow-heuristic", "--", "-x.dcs"]],
    }
    for plain, variants in forms.items():
        want = result(list(plain))
        assert want[0] == (3 if plain[0] == "check" else 0)
        for argv in variants:
            assert result(argv) == want, argv


@pytest.mark.parametrize(
    "command, calls",
    [
        ("info two_classes", 1),
        ("simplify two_classes", 1),
        ("reduce two_classes", 1),
        ("condense two_classes", 1),
        ("redundant weight_sensitive", 1),
        ("redundant two_classes", 1),
        # each file holds the other's edges, so the second file's distances
        # answer alone
        ("check two_classes two_classes", 1),
    ],
)
def test_distances_computed_once_per_input(command, calls, paths, replace, capsys):
    seen = []

    def counting(g):
        seen.append(g)
        return min_walk_weights(g)

    replace(min_walk_weights, counting)
    assert main([paths.get(a, a) for a in command.split()]) == 0
    assert len(seen) == calls


@pytest.mark.parametrize(
    "command, calls",
    [
        ("info", 0),
        ("simplify", 0),
        ("reduce", 0),
        ("redundant", 0),
        ("check", 0),
        ("condense", 1),
    ],
)
def test_only_condense_builds_the_condensation(command, calls, paths, replace, capsys):
    seen = []

    def guarded(d):
        seen.append(d)
        if len(seen) > calls:
            raise AssertionError(f"{command} built the condensation")
        return condensation(d)

    replace(condensation, guarded)
    for path in paths.values():
        seen.clear()
        inputs = [path, path] if command == "check" else [path]
        assert main([*command.split(), *inputs]) == 0
        assert len(seen) == calls


@pytest.mark.parametrize(
    "command, calls",
    [
        ("info", 1),
        ("simplify", 1),
        ("reduce", 1),
        ("redundant", 1),
        ("check", 0),
        ("condense", 0),
    ],
)
def test_only_the_solving_commands_judge_condensation_arcs(command, calls, paths, replace, capsys):
    # condense prints the distances' classes and arcs, check compares
    # distances: neither needs the redundant condensation pairs
    seen = []

    def counting(d):
        seen.append(d)
        return condensation_redundant_pairs(d)

    replace(condensation_redundant_pairs, counting)
    for path in paths.values():
        seen.clear()
        inputs = [path, path] if command == "check" else [path]
        assert main([command, *inputs]) == 0
        assert len(seen) == calls


@pytest.mark.parametrize(
    "command, calls",
    [
        ("info", 1),
        ("simplify", 1),
        ("redundant", 1),
        ("reduce", 0),
        ("check", 0),
        ("condense", 0),
    ],
)
def test_only_the_deleting_commands_route_edges(command, calls, paths, replace, capsys):
    # reduce writes each class pair's constraint from the distances, so
    # only the commands that keep or drop input edges route them
    seen = []

    def counting(g):
        seen.append(g)
        return analyze(g)

    replace(analyze, counting)
    for path in paths.values():
        seen.clear()
        inputs = [path, path] if command == "check" else [path]
        assert main([command, *inputs]) == 0
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
    accepted = {}
    for cmd, (_, _, flags) in cli._COMMANDS.items():
        assert "--out" in flags
        for flag in flags:
            if flag != "--out":
                accepted.setdefault(flag, set()).add(cmd)
    assert documented == accepted


def test_readme_library_example_runs(monkeypatch):
    # the fenced python block of the Library section, run from the repo root
    root = Path(__file__).resolve().parent.parent
    library = (root / "README.md").read_text().split("## Library", 1)[1]
    block = library.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(root)
    exec(compile(block, "README.md", "exec"), {})
