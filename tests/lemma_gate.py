"""Gate for the section-3 suites: every report row against the per-point oracles.

Turns the rows of lemma_check_gamma_suite (Lemmas 3.9-3.13) and
check_gamma_properties (Props 3.1-3.3, 3.8, Cors 3.4-3.5), which run over
integer residues, into reports through checks._evaluate, the one evaluator of
every claim, and compares them with the reports of their per-(x, j) Fraction
oracles in tests/oracles.py, row by row (report ==), at every prime 7..61.  At
each prime it compares the lemma suite on off_grid(p) too: x values off the
default grid, p/2 and 2p/3 among them, whose numerators p divides (rep(x) =
p).  It prints one line per prime with its row count.  Then it runs
`check lemmas --p-range 7..61 --format json` in process and compares the
SHA-256 of its output with LEMMAS_SHA256, which pins every lemmas row on that
grid, the power sums (3.2) and lemma P and Q among them.  It exits 1 on the
first mismatch.  Run it from the repository root:

    PYTHONPATH=src python tests/lemma_gate.py

Its name keeps pytest from collecting it; a full run takes ten to fifteen seconds.
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


LEMMAS_ARGV = ["check", "lemmas", "--p-range", "7..61", "--format", "json"]
LEMMAS_SHA256 = "92796505febad86f691a4ee3c55c89464ca3a59ae359c9cf18b10ec3c9a1f4fc"


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
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(LEMMAS_ARGV)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    if code != 0 or digest != LEMMAS_SHA256:
        print(f"MISMATCH {' '.join(LEMMAS_ARGV)}: exit {code}, sha256 {digest}, "
              f"want exit 0, sha256 {LEMMAS_SHA256}")
        return 1
    print(f"{' '.join(LEMMAS_ARGV)}: sha256 {digest} in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
