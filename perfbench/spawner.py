"""Start processes for run.py and report how each one ran.

    python3 perfbench/spawner.py

Reads one JSON request per line on stdin, {"cmd": [...], "out": path,
"err": path, "pin": bool}, runs the command to completion with stdout and
stderr in those files, and answers with one JSON line {"code", "wall", "cpu",
"rss_mb", "cal"}.  Wall time runs from spawn to exit; CPU time and max-RSS
come from wait4 and include the children the process waited for (the pool
workers).

This process keeps to one CPU, and so does a command with "pin": true.  It
times a calibration, a fixed piece of exact rational arithmetic, before the
first command and after each one; "cal" is the mean of the two that bracket
the command.  Other tenants of a shared host slow that CPU by up to 60 %, for
seconds to minutes, and the calibration slows with it, so run.py scales a
run's times by the median of its calibrations.  On a machine with 2 CPUs a
process left free to migrate ran on the other CPU half of the time, and then
its time did not follow the calibration.

This is a separate, small process because a child's max-RSS starts from the
high-water RSS of the process that started it, carried over the exec:
run.py grows when it parses a 10k-row report, this process does not.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction

TIMEOUT_S = 150  # one process; a benchmark run must end within 180 s


def calibrate() -> float:
    """Seconds for a fixed sum of rationals with growing denominators, the
    kind of work padichyp does; about 0.1 s on a 2.0 GHz Xeon."""
    t0 = time.perf_counter()
    for _ in range(10):
        s = Fraction(0)
        for k in range(1, 1200):
            s += Fraction((-1) ** k, k * k + 1)
    return time.perf_counter() - t0


def run(cmd: list[str], out: str, err: str, cpus: set[int] | None) -> dict:
    """Runs cmd; cpus, when given, is the CPU affinity the command gets."""
    with open(out, "wb") as fo, open(err, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, preexec_fn=cpus and (
            lambda: os.sched_setaffinity(0, cpus)))
        timer = threading.Timer(TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        # wait without reaping, so the pid cannot be reused before the timer is gone
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - t0
        timer.cancel()
        timer.join()
        _, status, ru = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall": wall, "cpu": ru.ru_utime + ru.ru_stime,
            "rss_mb": ru.ru_maxrss / 1024}


def main() -> int:
    all_cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(all_cpus)})
    cal = calibrate()
    for line in sys.stdin:
        req = json.loads(line)
        r = run(req["cmd"], req["out"], req["err"], None if req["pin"] else all_cpus)
        before, cal = cal, calibrate()
        r["cal"] = (before + cal) / 2
        print(json.dumps(r), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
