"""Gate for the lifetime of the per-prime memos: a check's peak memory must
not grow with its prime range.

For each claim below it runs `check CLAIM --p-range LO..HALF` and
`check CLAIM --p-range LO..FULL`, each in a fresh
`python -B -m padichyp.cli ... --format json` with stdout and stderr sent
to devnull, and reads the max-RSS of the process from os.wait4.  The full
range must peak at most RATIO times the half range.  Both ranges share the
prime bound, so the forms and tables of one prime grow only slightly; the
tables of every prime kept to the end of the run grow with the range.

It prints the eight peaks and exits 1 if a claim exceeds the ratio.  It
also runs `check lemmas --p 499 --format json` and exits 1 if that peaks
above LEMMAS_MB: lemma P and Q read one harmonic table per order at a
prime, and the section-3 suites read Gamma_p at one precision.  It also
prints, with no bound, the peak of `check-all --format json`, of
`check-all --format json --jobs 2` and of a process that only imports
`padichyp.cli` (`python -B -c "import padichyp.cli"`), so every Python it
runs on logs the numbers the README's Memory section quotes.  The max-RSS
os.wait4 gives includes the children the process waited for, so the
`--jobs 2` peak is the largest of the parent and its pool workers, each of
which holds the pickled reports of its tasks.  Run it from the repository
root:

    python tests/memory_gate.py

It imports nothing of padichyp, since a child's max-RSS starts from the
high-water RSS of the process that started it.  Its name keeps pytest from
collecting it; a full run takes about fifteen seconds, most of it the
lemmas run.
"""

from __future__ import annotations

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
RATIO = 1.05
HALF, FULL = 250, 499
CLAIMS = (("conj1.3", 3), ("thm2.7", 3), ("prop2.2", 7), ("thm2.4", 7))
LEMMAS_MB = 64.0


def peak_mb(*args: str) -> float:
    """Max-RSS in MB of one fresh `python -B ARGS`; exits 1 if it fails."""
    argv = [sys.executable, "-B", *args]
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=quiet)
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        print(f"FAILED: {' '.join(argv[1:])} exited {os.waitstatus_to_exitcode(status)}")
        sys.exit(1)
    return usage.ru_maxrss / 1024


def check_peak_mb(claim: str, lo: int, hi: int) -> float:
    """Max-RSS in MB of one fresh check over lo..hi."""
    return peak_mb("-m", "padichyp.cli", "check", claim, "--p-range", f"{lo}..{hi}",
                   "--format", "json")


def main() -> int:
    worst = 0.0
    for claim, lo in CLAIMS:
        half, full = check_peak_mb(claim, lo, HALF), check_peak_mb(claim, lo, FULL)
        worst = max(worst, full / half)
        print(f"{claim:<8} {lo}..{HALF}: {half:6.2f} MB   {lo}..{FULL}: {full:6.2f} MB"
              f"   ratio {full / half:.3f}")
    lemmas = peak_mb("-m", "padichyp.cli", "check", "lemmas", "--p", str(FULL), "--format", "json")
    print(f"lemmas --p {FULL}: {lemmas:6.2f} MB (bound {LEMMAS_MB:.0f} MB)")
    imports = peak_mb("-c", "import padichyp.cli")
    check_all = peak_mb("-m", "padichyp.cli", "check-all", "--format", "json")
    print(f"import padichyp.cli: {imports:6.2f} MB   check-all --format json: {check_all:6.2f} MB"
          f"   difference {check_all - imports:.2f} MB (no bound)")
    jobs2 = peak_mb("-m", "padichyp.cli", "check-all", "--format", "json", "--jobs", "2")
    print(f"check-all --format json --jobs 2: {jobs2:6.2f} MB, the process or a worker (no bound)")
    failed = 0
    if worst > RATIO:
        print(f"FAIL: peak memory grows with the prime range (ratio {worst:.3f} > {RATIO})")
        failed = 1
    if lemmas > LEMMAS_MB:
        print(f"FAIL: check lemmas --p {FULL} peaks above {LEMMAS_MB:.0f} MB")
        failed = 1
    if not failed:
        print(f"peak memory stays flat over the prime range (every ratio <= {RATIO}), and"
              f" check lemmas --p {FULL} peaks at or below {LEMMAS_MB:.0f} MB")
    return failed


if __name__ == "__main__":
    sys.exit(main())
