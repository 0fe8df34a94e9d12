"""Gate for the section-3 suites: every report row against the per-point oracles.

Turns the rows of lemma_check_gamma_suite (Lemmas 3.9-3.13) and
check_gamma_properties (Props 3.1-3.3, 3.8, Cors 3.4-3.5), which run over
integer residues, into reports through checks._evaluate, the one evaluator of
every claim, and compares them with the reports of their per-(x, j) Fraction
oracles in tests/oracles.py, row by row (report ==), at every prime 7..61.  At
each prime it compares the lemma suite on off_grid(p) too: x values off the
default grid, p/2 and 2p/3 among them, whose numerators p divides (rep(x) =
p).  It prints one line per prime with its row count.  Then it runs each
argv of LEMMAS_PINS in process, `check lemmas --p-range 7..61 --format json`
and `check lemmas --p 499 --format json`, and compares the SHA-256 of its
output with the pinned one: together they pin every lemmas row from the
bottom to the top of the prime range, the power sums (3.2) and lemma P and Q
among them.  It exits 1 on the first mismatch.  Run it from the repository
root:

    PYTHONPATH=src python tests/lemma_gate.py

Its name keeps pytest from collecting it; a full run takes fifteen to thirty
seconds, six to nine of them at p = 499.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import time
from fractions import Fraction

import oracles
from padichyp import cli
from padichyp.checks import _evaluate, primes_in
from padichyp.gamma import check_gamma_properties, lemma_check_gamma_suite

SUITES = [(lemma_check_gamma_suite, oracles.lemma_check_gamma_suite),
          (check_gamma_properties, oracles.check_gamma_properties)]


def off_grid(p: int) -> list[Fraction]:
    """x values for the lemma suite beyond default_x_grid(p)."""
    return [Fraction(1, 3), Fraction(8, 9), Fraction(2), Fraction(-5, 4), Fraction(7, 12),
            Fraction(p, 2), Fraction(2 * p, 3)]


LEMMAS_PINS = [
    (["check", "lemmas", "--p-range", "7..61", "--format", "json"],
     "92796505febad86f691a4ee3c55c89464ca3a59ae359c9cf18b10ec3c9a1f4fc"),
    (["check", "lemmas", "--p", "499", "--format", "json"],
     "f85de3063b30abd27a3df4dbf6480c3d3399c9b484df19bd82689702811f3929"),
]


def main() -> int:
    t0 = time.perf_counter()
    total = 0
    for p in primes_in(7, 61):
        rows = 0
        xs = off_grid(p)
        compared = [(fast.__name__, _evaluate(p, fast(p)), slow(p)) for fast, slow in SUITES]
        compared.append(("lemma_check_gamma_suite off the grid",
                         _evaluate(p, lemma_check_gamma_suite(p, xs)),
                         oracles.lemma_check_gamma_suite(p, xs)))
        for name, got, want in compared:
            if got != want:
                i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                         min(len(got), len(want)))
                print(f"MISMATCH p={p} {name} row {i}: "
                      f"{got[i] if i < len(got) else None} != {want[i] if i < len(want) else None}")
                return 1
            rows += len(got)
        total += rows
        print(f"p={p:<2} {rows:>5} rows equal")
    print(f"all {total} rows equal in {time.perf_counter() - t0:.1f} s")
    for argv, want in LEMMAS_PINS:
        t0 = time.perf_counter()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if code != 0 or digest != want:
            print(f"MISMATCH {' '.join(argv)}: exit {code}, sha256 {digest}, "
                  f"want exit 0, sha256 {want}")
            return 1
        print(f"{' '.join(argv)}: sha256 {digest} in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
