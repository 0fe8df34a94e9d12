"""Gate for the two G-function plans: the reflection-paired index plan and
the column plan of closed argument sets, against the residue j-sum oracle.

For every argument set of the acceptance grid (the default grids of the
claims that evaluate G: prop2.2, thm2.4-thm2.7 and conj1.3, which include
the (1/2)^4 set of ao) at every prime 5..199 that divides none of its
denominators, at the claim's working precision, it checks

- every Gamma_p value of the index plan's columns, the reflected ones
  included, against gamma_residue at the same residue, and
- the index plan's G value against oracles.g_function.

For every closed set among them, and for the 14 Rodriguez-Villegas families
at N = 4, it also checks

- every entry of column 0, C[k] = Gamma_p(k/(p-1)), and of each twisted row
  T_m[j] = omega(m)^k C[k], k = -m j mod (p-1), against gamma_residue and
  omega(m) = m^(p^(N-1)) mod p^N, and
- the column plan's G value, which g_function returns, against
  oracles.g_function.

First, before the gate's own work raises its memory (a child's max-RSS
starts from the high-water RSS of the process that spawned it), it runs two
calls in fresh processes, each once: `padichyp gamma 1/2 --p 3 --precision
800`, which holds the table build at small p to a cost polynomial in N of
low degree, and `padichyp gfun --args 1/5,2/5,3/5,4/5 --p 499 --precision
100`, the G of a closed set at high precision.  Each stdout must hash to its
SHA-256, and each call must finish within its wall and max-RSS bounds.

It prints the costs, one line per prime, and exits 1 on the first mismatch.
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
from fractions import Fraction

import oracles
from padichyp.checks import CLAIMS, GUARD, primes_in
from padichyp.gamma import gamma_residue
from padichyp.gfunction import GArguments, _closed_form, _closed_rows, _g_sum, _gamma_columns

G_CLAIMS = ("prop2.2", "thm2.4", "thm2.5", "thm2.6", "thm2.7", "conj1.3")
# (argv, stdout SHA-256, wall bound s, max-RSS bound MB) of each fresh-process
# call.  The gfun call took 0.36 s and 21.7 MB (best of 3 on a 2-core host,
# CPython 3.11.7), 1.31 s by the index plan alone; its bounds hold a margin
# of about 5x in time and 1.8x in memory, as the gamma call's hold 7x and 2.3x.
COSTS = [
    (("gamma", "1/2", "--p", "3", "--precision", "800"),
     "4033005e9398cea56d5630a60a97d1f8e131c4e4dc8c684713055acab98d1832", 6.0, 40.0),
    (("gfun", "--args", "1/5,2/5,3/5,4/5", "--p", "499", "--precision", "100"),
     "448511e8b6f8adb12147c0e3ce32587e3b6ba2aec9c374bbc6c2c9d3a2dd08aa", 2.0, 40.0),
]


def fresh_process_cost(args, want_sha: str, wall_bound: float, rss_bound: float) -> bool:
    """Run `padichyp ARGS` in a fresh process; print its wall time and
    max-RSS and say whether its output and both costs hold."""
    argv = [sys.executable, "-B", "-m", "padichyp.cli", *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall, rss = time.perf_counter() - t0, usage.ru_maxrss / 1024
    sha = hashlib.sha256(out).hexdigest()
    print(f"padichyp {' '.join(args)}: {wall:.2f} s wall, {rss:.1f} MB max-RSS "
          f"(bounds {wall_bound} s, {rss_bound} MB)")
    if os.waitstatus_to_exitcode(status) != 0 or sha != want_sha:
        print(f"MISMATCH: exit {os.waitstatus_to_exitcode(status)}, stdout SHA-256 {sha}")
        return False
    if wall > wall_bound or rss > rss_bound:
        print("FAIL: the call costs more than its bounds")
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


def index_plan_values(args, p: int, N: int) -> int:
    """Check the index plan's columns against gamma_residue; return how many
    values it read, or -1 after printing the first mismatch."""
    pN = p**N
    L = math.lcm(*(a.denominator for a in args))
    D = L * (p - 1)
    inv_D = pow(D, -1, pN)
    classes = {0, *(a.numerator * (L // a.denominator) * (p - 1) % L for a in args)}
    values = 0
    for rho, (nums, dens) in _gamma_columns(classes, L, p, N).items():
        for k, num, den in zip(range(rho, D, L), nums, dens):
            v = num * pow(den, -1, pN) % pN
            want = gamma_residue(k * inv_D % pN, p, N)
            if v != want:
                print(f"MISMATCH p={p} N={N} Gamma_p({k}/{D}): plan {v}, block {want}")
                return -1
        values += len(nums)
    return values


def column_plan_values(p: int, N: int) -> int:
    """Check column 0 and every twisted row the column plan keeps at (p, N)
    against gamma_residue and the Teichmuller lift; return how many entries
    it read, or -1 after printing the first mismatch."""
    pN, P = p**N, p - 1
    inv_P = pow(P, -1, pN)
    column = [gamma_residue(k * inv_P % pN, p, N) for k in range(P)]
    values = 0
    for m, (nums, dens) in _closed_rows[p, N].items():
        w = pow(m, p ** (N - 1), pN)
        for j, num, den in zip(range(P), nums, dens):
            k = j if m == 0 else -m * j % P
            want = column[k] if m == 0 else pow(w, k, pN) * column[k] % pN
            if num * pow(den, -1, pN) % pN != want:
                print(f"MISMATCH p={p} N={N} row {m} at j={j}: plan {num}/{den}, block {want}")
                return -1
        values += P
    return values


def main() -> int:
    if not all(fresh_process_cost(*cost) for cost in COSTS):
        return 1
    t0 = time.perf_counter()
    sets = argument_sets()
    sets += [(tuple(map(Fraction, s.split(","))), 4) for s in oracles.RV_FAMILIES]
    values = rows = closed = 0
    for p in primes_in(5, 199):
        for args, N in sets:
            if any(a.denominator % p == 0 for a in args):
                continue
            ga = GArguments(p, args, N)
            want = oracles.g_function(ga)
            exponents = _closed_form(args)
            plans = [(None, "index plan")] + [(exponents, "column plan")] * (exponents is not None)
            for e, plan in plans:
                got = _g_sum(ga, e)
                if got != want:
                    print(f"MISMATCH p={p} N={N} G{tuple(map(str, args))} by the {plan}: "
                          f"{got} != {want}")
                    return 1
            v = index_plan_values(args, p, N)
            if v < 0:
                return 1
            values += v
            rows += 1
            closed += exponents is not None
        for N in sorted(N for q, N in _closed_rows if q == p):
            v = column_plan_values(p, N)
            if v < 0:
                return 1
            values += v
        print(f"p={p:<3} G values equal")
    print(f"all {rows} G values ({closed} of them by both plans) and {values} Gamma_p "
          f"values equal in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
