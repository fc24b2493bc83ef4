"""Self-test of the benchmark's generators and reference checker.

    python3 bench/selftest.py

Needs no dcsimp.  It feeds the checker outputs known to be right, which it
must accept, and known-bad ones, which it must reject: a simplify result
missing one non-redundant constraint, a reduce result with one constraint
too many, and a flipped check verdict.  It also confirms that each workload's
generator writes byte-identical files for a fixed seed.  Exits 1 on the
first wrong answer.
"""

from __future__ import annotations

import json
import sys
from random import Random

import generate
from reference import Reference, Rejected, check_verdict, loosen, parse
from run import DERIVED_LAYER_UNITS, END_TO_END_UNITS, PER_LAYER, ROOT, WORKLOADS

# Small versions of each workload's generator, so the test runs in seconds.
SMALL = {
    "potential_system": [
        {"n": 40, "m": 300, "zero_slack_share": 0.5},
        {"n": 40, "m": 300, "zero_slack_share": 0.0},
        {"n": 30, "m": 200, "zero_slack_share": 0.5, "wide": True},
    ],
    "planted_classes": [{"classes": 6, "size": 6, "tight_arcs": 18, "m": 250}],
}


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def must_reject(what: str, check) -> None:
    try:
        check()
    except Rejected:
        return
    raise AssertionError(f"the checker accepted {what}")


def check_instance(inst: generate.Instance) -> None:
    ref = Reference(inst)
    text = inst.text()
    expect(ref.check_simplify(text) == len(inst.edges), "rejected the input as its own simplification")

    best = ref.minimum_system()
    best_text = generate.format_system(inst.n, best)
    expect(ref.check_reduce(best_text) == len(best), "rejected a minimum equivalent system")
    expect(len(best) < len(inst.edges), "instance has nothing to reduce")

    needed = next(e for e in sorted(inst.edges) if not ref.equivalent(inst.n, _without(inst.edges, e)))
    short = generate.format_system(inst.n, _without(inst.edges, needed))
    must_reject("a simplification missing a non-redundant constraint", lambda: ref.check_simplify(short))

    extra = next(e for e in sorted(inst.edges) if e not in best)
    bigger = generate.format_system(inst.n, {**best, extra: inst.edges[extra]})
    expect(ref.equivalent(*parse(bigger)), "adding an input constraint broke equivalence")
    must_reject("a reduction with one constraint too many", lambda: ref.check_reduce(bigger))

    moved = dict(inst.edges)
    e = min(moved)
    moved[e] -= 1
    must_reject("a constraint tighter than the input's", lambda: ref.check_simplify(generate.format_system(inst.n, moved)))

    tampered = loosen(best_text, 12345)
    expect(not ref.equivalent(*parse(tampered)), "loosening a minimum system kept it equivalent")
    check_verdict(True, 0, "equivalent\n")
    check_verdict(False, 3, "not equivalent: constraint (1,2) of A is not implied by the other system\n")
    must_reject("'not equivalent' on an equivalent pair", lambda: check_verdict(True, 3, "not equivalent: x\n"))
    must_reject("'equivalent' on a tampered pair", lambda: check_verdict(False, 0, "equivalent\n"))


def _without(edges: dict, e) -> dict:
    return {f: w for f, w in edges.items() if f != e}


def check_determinism() -> None:
    for name, spec in WORKLOADS.items():
        make = getattr(generate, spec["generator"])
        a = make(Random(f"{name}:7:0"), **spec["params"]).text()
        b = make(Random(f"{name}:7:0"), **spec["params"]).text()
        c = make(Random(f"{name}:8:0"), **spec["params"]).text()
        expect(a == b, f"{name}: the same seed wrote different files")
        expect(a != c, f"{name}: different seeds wrote the same file")


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names differ")
    for w in spec["workloads"]:
        expect(w["why"] == WORKLOADS[w["name"]]["why"], f"{w['name']}: reason differs")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS, "end-to-end metrics differ")
    layer = {name: unit for name, (unit, *_) in PER_LAYER.items()} | DERIVED_LAYER_UNITS
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == layer, "per-layer metrics differ")


def main() -> int:
    try:
        for generator, variants in SMALL.items():
            for seed, params in enumerate(variants):
                check_instance(getattr(generate, generator)(Random(seed), **params))
        check_determinism()
        check_benchmark_json()
    except AssertionError as exc:
        print(f"selftest FAILED: {exc}", file=sys.stderr)
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
