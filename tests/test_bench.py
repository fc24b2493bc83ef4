"""The benchmark's self-test, so drift between BENCHMARK.json, the input
generators and the reference checker fails the suite."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    # -B: the self-test writes nothing, not even bytecode caches
    proc = subprocess.run(
        [sys.executable, "-B", "bench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
