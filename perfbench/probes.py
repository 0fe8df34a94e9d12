"""Time one padichyp kernel on one grid point, in a fresh interpreter.

    python3 perfbench/probes.py FUNCTION P N

Prints one JSON object: {"s": seconds, "failed": bool, "error": str|null,
"value": residue or null}.  Each probe runs in its own process so that no
value cache or table built by an earlier probe is warm; the import is not
timed.  The arguments are the Apery-route parameters (1/2)^4 used by the
`ao` claim, which are admissible at every odd prime.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

from padichyp import combinatorics, gamma, gfunction, hyp, qseries
from padichyp.characters import Character, greene_series_scaled

HALF4 = (Fraction(1, 2),) * 4


def g_function_residues(args, p: int, N: int) -> list[int]:
    """The Gamma_p arguments of the G-function j-sum, as residues mod p^N."""
    pN = p**N

    def residue(q: Fraction) -> int:
        return q.numerator * pow(q.denominator, -1, pN) % pN

    out = {residue(a) for a in args}
    for j in range(p - 1):
        xj = Fraction(j, p - 1)
        out.add(residue(xj))
        out.update(residue((a - xj) % 1) for a in args)
    return sorted(out)


def _gamma_p(p, N):
    residues = g_function_residues(HALF4, p, N)
    t0 = time.perf_counter()
    for r in residues:
        gamma.gamma_p(r, p, N)
    return time.perf_counter() - t0, None


def _g_function(p, N):
    t0 = time.perf_counter()
    v = gfunction.g_function(gfunction.GArguments(p, HALF4, N))
    return time.perf_counter() - t0, v


def _greene_series_scaled(p, N):
    t0 = time.perf_counter()
    v = greene_series_scaled([Character.quadratic(p)] * 4, [Character.trivial(p)] * 3, 1, N)
    return time.perf_counter() - t0, v


def _truncated_hyp(p, N):
    t0 = time.perf_counter()
    v = hyp.truncated_hyp(hyp.HypParams(HALF4, (Fraction(1),) * 3, Fraction(1), p - 1), p, N)
    return time.perf_counter() - t0, v


def _rv_form_coeffs(p, N):
    t0 = time.perf_counter()
    qseries.rv_form_coeffs(p)
    return time.perf_counter() - t0, None


def _bin_harmonic_id1(p, N):
    t0 = time.perf_counter()
    nonzero = [(m, n) for m in range(1, 31) for n in range(1, m + 1)
               if combinatorics.bin_harmonic_id1(m, n) != 0]
    dt = time.perf_counter() - t0
    if nonzero:
        raise AssertionError(f"identity 1 is not zero at {nonzero[:3]}")
    return dt, None


PROBES = {
    "gamma_p": _gamma_p,
    "g_function": _g_function,
    "greene_series_scaled": _greene_series_scaled,
    "truncated_hyp": _truncated_hyp,
    "rv_form_coeffs": _rv_form_coeffs,
    "bin_harmonic_id1": _bin_harmonic_id1,
}


def main(argv: list[str]) -> int:
    name, p, N = argv[0], int(argv[1]), int(argv[2])
    t0 = time.perf_counter()
    try:
        dt, v = PROBES[name](p, N)
    except ArithmeticError as exc:  # PrecisionError and friends: a recorded failure
        out = {"s": time.perf_counter() - t0, "failed": True,
               "error": f"{type(exc).__name__}: {exc}", "value": None}
    else:
        value = None if v is None else [v.valuation, v.unit, v.abs_prec]
        out = {"s": dt, "failed": False, "error": None, "value": value}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
