"""Gate for the G-function kernel: the reflection-paired index plan against
the residue j-sum oracle.

For every argument set of the acceptance grid (the default grids of the
claims that evaluate G: prop2.2, thm2.4-thm2.7 and conj1.3, which include
the (1/2)^4 set of ao) at every prime 5..199 that divides none of its
denominators, at the claim's working precision, it checks

- every Gamma_p value of the plan's columns, the reflected ones included,
  against gamma_residue at the same residue, and
- the G value against oracles.g_function.

First, before the gate's own work raises its memory (a child's max-RSS
starts from the high-water RSS of the process that spawned it), it runs
`padichyp gamma 1/2 --p 3 --precision 800` once in a fresh process: its
stdout must hash to HIGH_PRECISION_SHA256, and it must finish within
HIGH_PRECISION_WALL_S seconds and HIGH_PRECISION_RSS_MB of max-RSS, which
holds the table build at small p to a cost polynomial in N of low degree.

It prints the cost, one line per prime, and exits 1 on the first mismatch.
Run it from the repository root:

    PYTHONPATH=src python tests/kernel_gate.py

Its name keeps pytest from collecting it; a full run takes a few seconds.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import time

import oracles
from padichyp.checks import CLAIMS, GUARD, primes_in
from padichyp.gamma import gamma_residue
from padichyp.gfunction import GArguments, _gamma_columns, g_function

G_CLAIMS = ("prop2.2", "thm2.4", "thm2.5", "thm2.6", "thm2.7", "conj1.3")
HIGH_PRECISION = ("gamma", "1/2", "--p", "3", "--precision", "800")
HIGH_PRECISION_SHA256 = "4033005e9398cea56d5630a60a97d1f8e131c4e4dc8c684713055acab98d1832"
HIGH_PRECISION_WALL_S, HIGH_PRECISION_RSS_MB = 6.0, 40.0


def high_precision_cost() -> bool:
    """Run HIGH_PRECISION in a fresh process; print its wall time and max-RSS
    and say whether its output and both costs hold."""
    argv = [sys.executable, "-B", "-m", "padichyp.cli", *HIGH_PRECISION]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall, rss = time.perf_counter() - t0, usage.ru_maxrss / 1024
    sha = hashlib.sha256(out).hexdigest()
    print(f"padichyp {' '.join(HIGH_PRECISION)}: {wall:.2f} s wall, {rss:.1f} MB max-RSS "
          f"(bounds {HIGH_PRECISION_WALL_S} s, {HIGH_PRECISION_RSS_MB} MB)")
    if os.waitstatus_to_exitcode(status) != 0 or sha != HIGH_PRECISION_SHA256:
        print(f"MISMATCH: exit {os.waitstatus_to_exitcode(status)}, stdout SHA-256 {sha}")
        return False
    if wall > HIGH_PRECISION_WALL_S or rss > HIGH_PRECISION_RSS_MB:
        print("FAIL: the high-precision Gamma_p value costs more than its bounds")
        return False
    return True


def argument_sets() -> list[tuple[tuple, int]]:
    """(arguments, precision N) of every G evaluation of the acceptance grid."""
    out = {}
    for cid in G_CLAIMS:
        claim = CLAIMS[cid]
        for q in claim.grid:
            out[tuple(claim.args(q))] = claim.mod + GUARD
    return list(out.items())


def main() -> int:
    if not high_precision_cost():
        return 1
    t0 = time.perf_counter()
    sets = argument_sets()
    values = rows = 0
    for p in primes_in(5, 199):
        for args, N in sets:
            if any(a.denominator % p == 0 for a in args):
                continue
            pN = p**N
            L = math.lcm(*(a.denominator for a in args))
            D = L * (p - 1)
            inv_D = pow(D, -1, pN)
            classes = {0, *(a.numerator * (L // a.denominator) * (p - 1) % L for a in args)}
            for rho, (nums, dens) in _gamma_columns(classes, L, p, N).items():
                for k, num, den in zip(range(rho, D, L), nums, dens):
                    v = num * pow(den, -1, pN) % pN
                    want = gamma_residue(k * inv_D % pN, p, N)
                    if v != want:
                        print(f"MISMATCH p={p} N={N} Gamma_p({k}/{D}): plan {v}, block {want}")
                        return 1
                values += len(nums)
            ga = GArguments(p, args, N)
            got, want = g_function(ga), oracles.g_function(ga)
            if got != want:
                print(f"MISMATCH p={p} N={N} G{tuple(map(str, args))}: {got} != {want}")
                return 1
            rows += 1
        print(f"p={p:<3} G values equal")
    print(f"all {rows} G values and {values} Gamma_p values equal "
          f"in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
