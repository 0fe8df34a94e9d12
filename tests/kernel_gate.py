"""Gate for the G-function kernel: the reflection-paired index plan against
the residue j-sum oracle.

For every argument set of the acceptance grid (the default grids of the
claims that evaluate G: prop2.2, thm2.4-thm2.7 and conj1.3, which include
the (1/2)^4 set of ao) at every prime 5..199 that divides none of its
denominators, at the claim's working precision, it checks

- every Gamma_p value of the plan's columns, the reflected ones included,
  against gamma_residue at the same residue, and
- the G value against oracles.g_function.

It prints one line per prime and exits 1 on the first mismatch.  Run it from
the repository root:

    PYTHONPATH=src python tests/kernel_gate.py

Its name keeps pytest from collecting it; a full run takes a few seconds.
"""

from __future__ import annotations

import math
import sys
import time

import oracles
from padichyp.checks import CLAIMS, GUARD, primes_in
from padichyp.gamma import gamma_residue
from padichyp.gfunction import GArguments, _gamma_columns, g_function

G_CLAIMS = ("prop2.2", "thm2.4", "thm2.5", "thm2.6", "thm2.7", "conj1.3")


def argument_sets() -> list[tuple[tuple, int]]:
    """(arguments, precision N) of every G evaluation of the acceptance grid."""
    out = {}
    for cid in G_CLAIMS:
        claim = CLAIMS[cid]
        for q in claim.grid:
            out[tuple(claim.args(q))] = claim.mod + GUARD
    return list(out.items())


def main() -> int:
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
