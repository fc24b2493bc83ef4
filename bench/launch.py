"""Starts the end-to-end run's child processes from a small process of its own.

    python3 bench/launch.py TIMEOUT_S

run.py starts this once per run, in the run's work directory and with the
children's environment, and sends one JSON request per line on stdin:
``{"argv": [...], "stderr": PATH}``.  For each it runs ``ARGV`` with stdin and
stdout closed and stderr to PATH, kills it after TIMEOUT_S seconds, and
answers with one JSON line: ``wall_s``, ``cpu_s``, ``exit_code``, ``rss_mb``.
It exits at the end of its input, and on SIGTERM kills and reaps the child
it is running first.

Why a process of its own: Linux reports as a child's peak RSS (``ru_maxrss``
from wait4) at least the peak of the memory that its exec replaced, which
for a child started by run.py is run.py's own, with numpy, the inputs and
the reference checker loaded.  This process loads none of those, so the
peak it reports is the child's.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
from time import perf_counter

running: subprocess.Popen | None = None


def stop(signum, frame):
    if running is not None:
        running.kill()
        with contextlib.suppress(ChildProcessError):
            os.waitpid(running.pid, 0)
    sys.exit(128 + signum)


def run(argv: list[str], stderr: str, timeout_s: float) -> dict:
    global running
    with open(stderr, "w") as err:
        t0 = perf_counter()
        running = proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            running = None
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "exit_code": proc.returncode,
        "rss_mb": usage.ru_maxrss / 1024,
    }


def main() -> int:
    timeout_s = float(sys.argv[1])
    signal.signal(signal.SIGTERM, stop)
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(run(request["argv"], request["stderr"], timeout_s)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
