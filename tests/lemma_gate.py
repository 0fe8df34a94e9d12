"""Gate for the section-3 suites: every report row against the per-point oracles.

Compares lemma_check_gamma_suite (Lemmas 3.9-3.13) and check_gamma_properties
(Props 3.1-3.3, 3.8, Cors 3.4-3.5), which run over integer residues, with
their per-(x, j) Fraction oracles in tests/oracles.py, row by row, at every
prime 7..61 (the `check lemmas --p-range 7..61` grid).  It prints one line per
prime with its row count and exits 1 on the first mismatch.  Run it from the
repository root:

    PYTHONPATH=src python tests/lemma_gate.py

Its name keeps pytest from collecting it; a full run takes about ten seconds.
"""

from __future__ import annotations

import sys
import time

import oracles
from padichyp.checks import primes_in
from padichyp.gamma import check_gamma_properties, lemma_check_gamma_suite

SUITES = [(lemma_check_gamma_suite, oracles.lemma_check_gamma_suite),
          (check_gamma_properties, oracles.check_gamma_properties)]


def main() -> int:
    t0 = time.perf_counter()
    total = 0
    for p in primes_in(7, 61):
        rows = 0
        for fast, slow in SUITES:
            got, want = fast(p), slow(p)
            if got != want:
                i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                         min(len(got), len(want)))
                print(f"MISMATCH p={p} {fast.__name__} row {i}: "
                      f"{got[i] if i < len(got) else None} != {want[i] if i < len(want) else None}")
                return 1
            rows += len(got)
        total += rows
        print(f"p={p:<2} {rows:>5} rows equal")
    print(f"all {total} rows equal in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
