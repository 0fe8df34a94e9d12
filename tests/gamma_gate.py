"""Gate for the Gamma_p block formula: every residue against the sweep oracle.

Compares the block-formula kernel with one cumulative sweep of the defining
product on every residue r < p^N at (3, N <= 13), (5, N <= 9) and
(7, N <= 7), where N runs well past p - 1 and the tables carry guard digits.
It prints one line per (p, N) and exits 1 on the first mismatch.  Run it from
the repository root:

    PYTHONPATH=src python tests/gamma_gate.py

Its name keeps pytest from collecting it; a full run takes tens of seconds.
"""

from __future__ import annotations

import sys
import time

from oracles import gamma_sweep
from padichyp.gamma import _gamma_blocks

GRID = [(3, 13), (5, 9), (7, 7)]
CHUNK = 1 << 16  # residues per kernel call, to bound the memory in use


def main() -> int:
    t0 = time.perf_counter()
    total = 0
    for p, top in GRID:
        for N in range(1, top + 1):
            pN = p**N
            sweep = gamma_sweep(p, N)
            for lo in range(0, pN, CHUNK):
                hi = min(lo + CHUNK, pN)
                got = _gamma_blocks(range(lo, hi), p, N)
                if got != sweep[lo:hi]:
                    r = next(lo + i for i, (a, b) in enumerate(zip(got, sweep[lo:hi])) if a != b)
                    print(f"MISMATCH p={p} N={N} r={r}: block {got[r - lo]}, sweep {sweep[r]}")
                    return 1
            total += pN
            print(f"p={p:<2} N={N:<2} {pN:>9} residues equal")
    print(f"all {total} residues equal in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
