"""dcsimp benchmark: the real CLI on generated constraint files.

    python3 bench/run.py --workload planted-classes --seed 1 --seconds 30 --trace 0

Run from the repository root.  For each generated input file the same four
operations run in a closed loop, one invocation in flight at a time:

    simplify FILE --allow-heuristic     (timed as simplify_s)
    reduce FILE                         (reduce_s)
    check FILE REDUCED                  (check_s; must exit 0)
    check FILE TAMPERED                 (check_neq_s; must exit 3)

A step is these four on one file, preceded in the end-to-end run by
``info`` on an empty system (setup_s: interpreter start, imports, argument
parsing).  Each is timed by its wall time, from start to reaping the child.
Steps cycle over the files until the next one would end past ``--seconds``.

The host lends this machine a varying share of its speed: on a shared VM
identical work runs up to twice as fast for a few seconds and then slows
again, and the mix of fast and slow phases drifts over minutes.  That moves
every wall time of a run together.  So a fixed piece of work that does not
involve dcsimp, the speed probe, is timed in this process after every
invocation, and each reported time is the mean wall time of its operation
(averaged per file, then over the files) times ``PROBE_REF_S`` over the
run's mean probe time: wall seconds at the host speed at which the probe
takes ``PROBE_REF_S``.  Means, not medians, because the mean slowdown over a
run is what both sides share; the median of a two-speed mix jumps between
the two.  The run keeps itself and its children on one CPU, so the probe
samples the CPU that the children run on.  The raw wall and CPU seconds are
printed beside the metrics.

REDUCED is the first ``reduce`` output and TAMPERED is REDUCED with one
constraint loosened by 1, which breaks equivalence because a minimum system
has no implied constraint.  Every output is checked by ``reference.py``,
which shares no code with dcsimp; each distinct output is checked once,
after the measured window.

``--trace 0`` runs each command as a child ``python -m dcsimp.cli`` with
``src`` on the path and prints the end-to-end metrics.  ``--trace 1`` runs
the same operations in this process through ``dcsimp.cli.main``, each file's
once plain and once traced, and prints the per-layer metrics (see spans.py).
The last line of output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import mmap
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from random import Random
from time import perf_counter, process_time

import numpy

import generate
from reference import Reference, Rejected, check_verdict, loosen, parse

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Why each workload exists, its generator and its size.  Sizes keep a step
# (five invocations) near 3.5 s on a 2-core Xeon, so a 30 s run times each
# operation about eight times; at n=500 or more one simplify takes seconds,
# which leaves too few samples for a steady median, and much smaller inputs
# leave interpreter start-up most of each time.  giant-class and
# wide-rational share the ROADMAP generator at its default zero-slack share
# (one giant class); the first runs the numpy kernel, the second the
# pure-Python one.
WORKLOADS = {
    "giant-class": {
        "why": "one zero-cycle class holds every node: dense distances, equivalence_classes and meg_greedy on the numpy kernel",
        "generator": "potential_system",
        "params": {"n": 300, "m": 3000, "zero_slack_share": 0.5},
    },
    "positive-cycles": {
        "why": "no zero cycles, meg idle; condensation redundancy reruns all-pairs over the whole graph",
        "generator": "potential_system",
        "params": {"n": 250, "m": 2500, "zero_slack_share": 0.0},
    },
    "planted-classes": {
        "why": "many small classes under the exact limit: meg_exact in play and every result certified",
        "generator": "planted_classes",
        "params": {"classes": 40, "size": 6, "tight_arcs": 18, "m": 2400},
    },
    "wide-rational": {
        "why": "coprime denominators fail the int64 guard: pure-Python Floyd-Warshall, Fraction parsing, one giant class for meg_greedy",
        "generator": "potential_system",
        "params": {"n": 150, "m": 1500, "zero_slack_share": 0.5, "wide": True},
    },
}
# Input files generated per run; steps cycle over them.
FILES = 2

OPS = ("simplify", "reduce", "check", "check_neq")
# The end-to-end run also times ``info`` on an empty system once per step:
# interpreter start, imports and argument parsing, with no solver work.
SETUP = "setup"
TIMEOUT_S = 60.0
EMPTY = "p dcs 0 0\n"

# The speed probe: the three kinds of work an invocation does.  Fraction
# differences stored in a dict (parsing and the distance matrix build),
# min-plus relaxation on an int64 matrix (the numpy Floyd-Warshall kernel),
# and a first touch of fresh memory pages (a new process importing numpy).
# It takes about 60 ms on a 2-core Xeon, long enough that the probes of a
# run sample several seconds of the host's speed; PROBE_REF_S is about its
# time there in a fast phase.
_probe_rng = Random(0)
PROBE_FRACTIONS = [Fraction(_probe_rng.randint(-10**8, 10**8), _probe_rng.choice(generate.WIDE_PRIMES)) for _ in range(128)]
PROBE_MATRIX = numpy.array([[_probe_rng.randint(0, 1000) for _ in range(240)] for _ in range(240)], dtype=numpy.int64)
PROBE_BYTES = 16 << 20
PROBE_REF_S = 0.06

# Invocation times are mean wall seconds scaled by the speed probe (see
# above).  The raw wall seconds and the child's CPU seconds (user + system, from
# wait4) are printed beside them: those two agree, since dcsimp runs on one
# thread, so a gap between them means something else took the CPU.
END_TO_END_UNITS = {
    "setup_s": "s",
    "simplify_s": "s",
    "reduce_s": "s",
    "check_s": "s",
    "check_neq_s": "s",
    "peak_rss_mb": "MB",
    "kept_constraints": "count",
    "ok_share": "ratio",
}

# Per-layer metric -> (unit, traced function, field).  Times and counts are
# per input file, all four operations traced; see layer_metrics for the rest.
PER_LAYER = {
    "core.min_walk_weights.calls": ("count", "core.min_walk_weights", "calls"),
    "core.min_walk_weights.self_s": ("s", "core.min_walk_weights", "self_s"),
    "core._fw_numpy.self_s": ("s", "core._fw_numpy", "self_s"),
    "core._fw_python.self_s": ("s", "core._fw_python", "self_s"),
    "decomposition.equivalence_classes.self_s": ("s", "decomposition.equivalence_classes", "self_s"),
    "decomposition.partition_edges.self_s": ("s", "decomposition.partition_edges", "self_s"),
    "decomposition.condensation.self_s": ("s", "decomposition.condensation", "self_s"),
    "decomposition.max_redundant_edge_set.self_s": ("s", "decomposition.max_redundant_edge_set", "self_s"),
    "decomposition.condensation_redundant_pairs.total_s": ("s", "decomposition.condensation_redundant_pairs", "total_s"),
    "redundancy.mres_no_zero_cycles.self_s": ("s", "redundancy.mres_no_zero_cycles", "self_s"),
    "redundancy.find_redundant_edges.self_s": ("s", "redundancy.find_redundant_edges", "self_s"),
    "redundancy.has_zero_weight_cycle.self_s": ("s", "redundancy.has_zero_weight_cycle", "self_s"),
    "meg.meg_greedy.calls": ("count", "meg.meg_greedy", "calls"),
    "meg.meg_greedy.arcs": ("count", "meg.meg_greedy", "arcs"),
    "meg.meg_greedy.self_s": ("s", "meg.meg_greedy", "self_s"),
    "meg.meg_exact.calls": ("count", "meg.meg_exact", "calls"),
    "meg.meg_exact.arcs": ("count", "meg.meg_exact", "arcs"),
    "meg.meg_exact.self_s": ("s", "meg.meg_exact", "self_s"),
    "meg.same_reachability.calls": ("count", "meg.same_reachability", "calls"),
    "reduction.equivalent_reduction.self_s": ("s", "reduction.equivalent_reduction", "self_s"),
    "verify.systems_equivalent.self_s": ("s", "verify.systems_equivalent", "self_s"),
    "fileformat.loads.self_s": ("s", "fileformat.loads", "self_s"),
    "fileformat.loads.bytes": ("bytes", "fileformat.loads", "bytes"),
    "fileformat.dumps.self_s": ("s", "fileformat.dumps", "self_s"),
    "cli.main.self_s": ("s", "cli.main", "self_s"),
}
DERIVED_LAYER_UNITS = {
    "core.fw_relaxations": "count",
    "decomposition.classes": "count",
    "decomposition.largest_class": "count",
    "decomposition.tight_arcs": "count",
    "meg.kept_ratio": "ratio",
    "cli.simplify.certified_share": "ratio",
    "cli.main.simplify.total_s": "s",
    "cli.main.reduce.total_s": "s",
    "cli.main.check.total_s": "s",
    "cli.main.check_neq.total_s": "s",
    "trace.unattributed_share": "ratio",
    "trace.overhead": "ratio",
}


@dataclass
class Result:
    """What one invocation returned."""

    wall_s: float
    cpu_s: float
    exit_code: int
    out: str
    err: str
    rss_mb: float = 0.0


@dataclass
class Session:
    """The inputs of one run, every invocation's result, and their verdicts."""

    workload: str
    seed: int
    work: Path
    insts: list[generate.Instance] = field(default_factory=list)
    refs: list[Reference] = field(default_factory=list)
    wall: dict[str, list[float]] = field(default_factory=lambda: {op: [] for op in (SETUP, *OPS)})
    cpu: dict[str, list[float]] = field(default_factory=lambda: {op: [] for op in (SETUP, *OPS)})
    file: dict[str, list[int]] = field(default_factory=lambda: {op: [] for op in (SETUP, *OPS)})
    results: list[tuple[str, int, Result]] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)

    def build(self) -> None:
        spec = WORKLOADS[self.workload]
        make = getattr(generate, spec["generator"])
        for k in range(FILES):
            inst = make(Random(f"{self.workload}:{self.seed}:{k}"), **spec["params"])
            self.insts.append(inst)
            self.refs.append(Reference(inst))
            self.path(k, "input").write_text(inst.text())
        (self.work / "empty.dcs").write_text(EMPTY)

    def path(self, k: int, kind: str) -> Path:
        return self.work / f"f{k}.{kind}.dcs"

    def argv(self, op: str, k: int) -> list[str]:
        inp = str(self.path(k, "input"))
        out = ["--out", str(self.path(k, f"{op}.out"))]
        if op == SETUP:
            return ["info", str(self.work / "empty.dcs"), *out]
        if op == "simplify":
            return ["simplify", inp, "--allow-heuristic", *out]
        if op == "reduce":
            return ["reduce", inp, *out]
        other = self.path(k, "reduced" if op == "check" else "tampered")
        return ["check", inp, str(other), *out]

    def run_step(self, k: int, invoke, ops: tuple[str, ...] = OPS) -> None:
        """Each of ``ops`` once on file k, in order."""
        for op in ops:
            res = invoke(self.argv(op, k))
            self.wall[op].append(res.wall_s)
            self.cpu[op].append(res.cpu_s)
            self.file[op].append(k)
            self.results.append((op, k, res))
            self.peak_rss_mb = max(self.peak_rss_mb, res.rss_mb)
            if op == "reduce" and not self.path(k, "reduced").exists():
                self._derive_checks(k, res)

    def file_mean(self, op: str) -> float:
        """Mean wall seconds of ``op`` per file, averaged over the files, so
        that a file timed once more than another weighs no more."""
        by_file: dict[int, list[float]] = {}
        for k, wall in zip(self.file[op], self.wall[op]):
            by_file.setdefault(k, []).append(wall)
        return statistics.fmean(statistics.fmean(walls) for walls in by_file.values())

    def loop(self, seconds: float, step) -> int:
        """Call ``step(k)`` on the files in turn while the next call should end
        within ``seconds``, and at least once per file; return the step count."""
        files = len(self.insts)
        t0 = perf_counter()
        steps = 0
        while steps < files or (perf_counter() - t0) * (steps + 1) / steps <= seconds:
            step(steps % files)
            steps += 1
        return steps

    def _derive_checks(self, k: int, res: Result) -> None:
        """REDUCED and TAMPERED from the first reduce output (the input if it failed)."""
        reduced = res.out if res.exit_code == 0 else self.insts[k].text()
        pick = Random(f"tamper:{self.workload}:{self.seed}:{k}").randrange(1 << 30)
        try:
            tampered = loosen(reduced, pick)
        except Rejected:
            reduced = self.insts[k].text()
            tampered = loosen(reduced, pick)
        self.path(k, "reduced").write_text(reduced)
        self.path(k, "tampered").write_text(tampered)

    def verify(self) -> tuple[int, list[int]]:
        """Check every distinct result once; return (failed count, kept per file)."""
        verdicts: dict[tuple, str | None] = {}
        pair_equal: dict[tuple[int, str], bool] = {}
        kept = [len(inst.edges) for inst in self.insts]
        kept_seen = [False] * len(self.insts)
        failed = 0
        for op, k, res in self.results:
            key = (op, k, res.exit_code, hashlib.sha256(res.out.encode()).hexdigest())
            if key not in verdicts:
                verdicts[key] = self._judge(op, k, res, pair_equal)
                if verdicts[key] is None and op == "simplify" and not kept_seen[k]:
                    kept[k], kept_seen[k] = len(parse(res.out)[1]), True
            if verdicts[key] is not None:
                failed += 1
                self.problems.append(f"{op} on file {k}: {verdicts[key]}")
        return failed, kept

    def _judge(self, op: str, k: int, res: Result, pair_equal: dict) -> str | None:
        ref = self.refs[k]
        try:
            if op == SETUP:
                if res.exit_code != 0 or "nodes: 0" not in res.out:
                    return f"info on an empty system: exit {res.exit_code}, {res.out.strip()!r}"
            elif op in ("check", "check_neq"):
                kind = "reduced" if op == "check" else "tampered"
                if (k, kind) not in pair_equal:
                    other = parse(self.path(k, kind).read_text())
                    pair_equal[(k, kind)] = ref.equivalent(*other)
                check_verdict(pair_equal[(k, kind)], res.exit_code, res.out)
                if op == "check_neq" and pair_equal[(k, kind)]:
                    return "the tampered system is still equivalent"
            elif res.exit_code != 0:
                return f"exit {res.exit_code}: {res.err.strip()[-200:]}"
            elif op == "simplify":
                ref.check_simplify(res.out)
            else:
                ref.check_reduce(res.out)
        except Rejected as exc:
            return str(exc)
        return None


def child_env() -> dict[str, str]:
    """The environment of every child: ``src`` first on the path, one BLAS thread.

    numpy's OpenBLAS starts a worker thread per core on import, and each
    spins for a while before it sleeps.  dcsimp makes no BLAS call, so those
    threads only take CPU from the process being timed: about 0.12 s per
    invocation on 2 cores, more when the host lends the VM less than both.
    """
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""), OPENBLAS_NUM_THREADS="1")


class Launcher:
    """Runs ``python -m dcsimp.cli ARGV`` children through launch.py, so that
    each reports its own peak RSS; kills a child after TIMEOUT_S."""

    def __init__(self, work: Path):
        self.work = work
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launch.py"), str(TIMEOUT_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=work, env=child_env(), text=True,
        )

    def invoke(self, argv: list[str]) -> Result:
        out_path = Path(argv[argv.index("--out") + 1])
        out_path.unlink(missing_ok=True)
        err_path = self.work / "stderr.txt"
        request = {"argv": [sys.executable, "-m", "dcsimp.cli", *argv], "stderr": str(err_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launch.py exited with code {self.proc.wait()}")
        reply = json.loads(line)
        out = out_path.read_text() if out_path.exists() else ""
        return Result(reply["wall_s"], reply["cpu_s"], reply["exit_code"], out, err_path.read_text(), reply["rss_mb"])

    def close(self) -> None:
        """Stop the launcher and any child it is running, and wait for both."""
        self.proc.stdin.close()
        self.proc.terminate()
        self.proc.wait()
        self.proc.stdout.close()


def probe() -> float:
    """Seconds the speed probe takes now."""
    t0 = perf_counter()
    diffs = {}
    for i, a in enumerate(PROBE_FRACTIONS):
        for j, b in enumerate(PROBE_FRACTIONS):
            diffs[i, j] = a - b
    dist = PROBE_MATRIX.copy()
    for k in range(len(dist)):
        numpy.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :], out=dist)
    with mmap.mmap(-1, PROBE_BYTES) as pages:
        for offset in range(0, PROBE_BYTES, mmap.PAGESIZE):
            pages[offset] = 1
    return perf_counter() - t0


def invoke_inprocess(main, argv: list[str]) -> Result:
    """Call ``dcsimp.cli.main(ARGV)`` here, capturing stderr and the exit code."""
    out_path = Path(argv[argv.index("--out") + 1])
    out_path.unlink(missing_ok=True)
    err = io.StringIO()
    t0, c0 = perf_counter(), process_time()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed operation, not a dead benchmark
            err.write(f"{type(exc).__name__}: {exc}\n")
            code = 99
    wall, cpu = perf_counter() - t0, process_time() - c0
    out = out_path.read_text() if out_path.exists() else ""
    return Result(wall, cpu, code, out, err.getvalue())


def spread(values: list[float]) -> str:
    """Median, quartiles, and the highest percentile with >= 10 samples above it."""
    values = sorted(values)
    n = len(values)
    if n == 0:
        return "no samples"
    text = f"median {statistics.median(values):.4f}"
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f"  q1 {q1:.4f}  q3 {q3:.4f}"
    if n > 10:
        text += f"  p{100 * (n - 10) / n:.0f} {values[n - 11]:.4f}"
    else:
        text += "  (too few samples for a tail percentile)"
    return text + f"  n={n}"


def machine() -> dict:
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def certified_share(session: Session) -> float:
    runs = [res for op, _, res in session.results if op == "simplify"]
    good = [res for res in runs if res.err.rstrip().endswith(", certified")]
    return len(good) / len(runs) if runs else 0.0


def run_plain(session: Session, seconds: float) -> tuple[dict, int, int]:
    """End-to-end run: child processes, tracing off."""
    launcher = Launcher(session.work)
    probes = []

    def invoke(argv):
        res = launcher.invoke(argv)
        probes.append(probe())
        return res

    try:
        # One untimed call first, so bytecode and file caches are warm.
        session.results.append((SETUP, 0, invoke(session.argv(SETUP, 0))))
        t0 = perf_counter()
        steps = session.loop(seconds, lambda k: session.run_step(k, invoke, (SETUP, *OPS)))
        elapsed = perf_counter() - t0
    finally:
        launcher.close()
    failed, kept = session.verify()
    attempted = len(session.results)

    scale = PROBE_REF_S / statistics.fmean(probes)
    print(f"# {steps} steps over {len(session.insts)} files in {elapsed:.1f} s")
    print(f"# speed probe s: mean {statistics.fmean(probes):.4f}, {spread(probes)}; times below are not scaled; metrics are scaled by {scale:.4f}")
    for op in (SETUP, *OPS):
        for kind, samples in (("wall", session.wall[op]), ("cpu", session.cpu[op])):
            print(f"# {op} {kind} s: {spread(samples)}")
            print(f"# {op} {kind} s samples: {json.dumps([round(v, 5) for v in samples])}")
    print(f"# certified share of simplify results: {certified_share(session):.3f}")
    metrics = {f"{op}_s": scale * session.file_mean(op) for op in (SETUP, *OPS)}
    metrics.update(
        peak_rss_mb=session.peak_rss_mb,
        kept_constraints=sum(kept),
        ok_share=(attempted - failed) / attempted,
    )
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, attempted, failed


def run_traced(session: Session, seconds: float) -> tuple[dict, int, int]:
    """Per-layer run: in-process, each file's operations plain, then traced."""
    sys.path.insert(0, str(SRC))
    import dcsimp.cli as cli
    from spans import Tracer

    tracer = Tracer()
    plain = {op: [] for op in OPS}
    traced = {op: [] for op in OPS}

    def invoke(argv):
        return invoke_inprocess(cli.main, argv)

    def step(k):
        for tracing, into in ((False, plain), (True, traced)):
            before = {op: len(session.wall[op]) for op in OPS}
            if tracing:
                tracer.install()
            try:
                session.run_step(k, invoke)
            finally:
                tracer.uninstall()
            for op in OPS:
                into[op].extend(session.wall[op][before[op]:])

    steps = session.loop(seconds, step)
    failed, _ = session.verify()
    attempted = len(session.results)

    metrics = layer_metrics(tracer, steps, plain, traced, certified_share(session))
    print(f"# {steps} steps over {len(session.insts)} files, each run plain and traced")
    for op in OPS:
        print(f"# {op}: plain {spread(plain[op])}; traced {spread(traced[op])}")
    print("# per file (all four operations, traced):")
    print("# function                                        calls       self_s      total_s")
    for key, st in sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_s):
        if st.calls:
            print(f"# {key:<48}{st.calls / steps:>6.1f}{st.self_s / steps:>13.5f}{st.total_s / steps:>13.5f}")
    return metrics, attempted, failed


def layer_metrics(tracer, steps: int, plain: dict, traced: dict, certified: float) -> dict:
    """Per-layer metrics.  Sums over traced calls are per file (one traced
    step); classes, largest class and tight arcs are means per call.  MEG
    arcs and the kept ratio count whole solves, not the greedy run that
    seeds an exact search."""
    out = {}
    for name, (unit, key, fld) in PER_LAYER.items():
        st = tracer.get(key)
        value = getattr(st, fld) if fld in ("calls", "self_s", "total_s") else st.counts.get(fld, 0)
        out[name] = (value / steps, unit)
    fw = [tracer.get(k).counts.get("fw_relaxations", 0) for k in ("core._fw_numpy", "core._fw_python")]
    ec = tracer.get("decomposition.equivalence_classes")
    pe = tracer.get("decomposition.partition_edges")
    megs = [tracer.get("meg.meg_exact"), tracer.get("meg.meg_greedy")]
    arcs = sum(s.counts.get("arcs", 0) for s in megs)
    root = tracer.get("cli.main")
    med_plain = sum(statistics.median(plain[op]) for op in OPS)
    med_traced = sum(statistics.median(traced[op]) for op in OPS)
    derived = {
        "core.fw_relaxations": sum(fw) / steps,
        "decomposition.classes": ec.counts.get("classes", 0) / max(ec.calls, 1),
        "decomposition.largest_class": ec.counts.get("largest_class", 0) / max(ec.calls, 1),
        "decomposition.tight_arcs": pe.counts.get("tight_arcs", 0) / max(pe.calls, 1),
        "meg.kept_ratio": sum(s.counts.get("kept", 0) for s in megs) / arcs if arcs else 0.0,
        "cli.simplify.certified_share": certified,
        "cli.main.simplify.total_s": statistics.median(traced["simplify"]),
        "cli.main.reduce.total_s": statistics.median(traced["reduce"]),
        "cli.main.check.total_s": statistics.median(traced["check"]),
        "cli.main.check_neq.total_s": statistics.median(traced["check_neq"]),
        "trace.unattributed_share": root.self_s / root.total_s if root.total_s else 0.0,
        "trace.overhead": med_traced / med_plain - 1,
    }
    for name, value in derived.items():
        out[name] = (value, DERIVED_LAYER_UNITS[name])
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A terminated run still kills its child and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "dcsimp" / "cli.py").is_file():
        print(f"error: no dcsimp sources under {SRC}", file=sys.stderr)
        return 2
    print("# machine: " + json.dumps(machine()))
    # One CPU for this process, the launcher and every child, so that the
    # speed probe samples the CPU the children run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        session = Session(args.workload, args.seed, work)
        session.build()
        ops = OPS if args.trace else (SETUP, *OPS)
        argvs = {op: " ".join(session.argv(op, 0)).replace(f"{work}{os.sep}", "") for op in ops}
        print("# workload: " + json.dumps({"name": args.workload, "seed": args.seed, **WORKLOADS[args.workload], "ops": argvs}))
        run = run_traced if args.trace else run_plain
        metrics, attempted, failed = run(session, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in session.problems[:20]:
        print(f"# FAILED {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
