"""Command-line harness: evaluate the core functions and run named
congruence checks over prime ranges with machine-readable reports.

Exit codes: 0 all reports pass, 1 any failure, 2 usage/precondition error
(an output file that cannot be written, and a stdout closed by its reader,
included).
"""

from __future__ import annotations

import argparse
import errno
import os
import re
import sys
from fractions import Fraction

from . import checks
from .gamma import gamma_p
from .hyp import HypParams, truncated_hyp, truncated_hyp_exact
from .padic import PadicValue, PrecisionError, check_prime
from .qseries import eta_product, gamma_coeffs, rv_form_coeffs, write_coefficients_csv
from .report import write_reports

def _render_value(v: PadicValue) -> str:
    if v.is_zero:
        return f"0 + O({v.prime}^{v.abs_prec})"
    return f"{v.unit} * {v.prime}^{v.valuation} + O({v.prime}^{v.abs_prec})"


def _fraction(text: str, name: str) -> Fraction:
    """The one fraction m/d of argument name; anything else is a usage error."""
    try:
        (q,) = checks.parse_fractions(text, name)
        return q
    except ValueError:
        raise ValueError(f"{name} wants one fraction m/d; got {text!r}") from None


# argparse reads an argument that starts with "-" as an option unless it
# matches this; argparse's own pattern takes integers and decimals, this one
# every negative number Fraction reads (1/3, 0.5, .5, 1e3) and comma lists
# and ranges of them, so "gamma -1/3" and "--z -1/2" parse
_NEGATIVE_ARG = re.compile(r"^-\.?\d[\d.,/eE+-]*$")


def _prime_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"want A..B with integers A, B; got {text!r}")


def _add_run_flags(sp) -> None:
    """Output and run flags, shared by check and check-all."""
    sp.add_argument("--format", choices=["json", "csv", "human"], default="human")
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--seed", type=int, default=checks.DEFAULT_SEED,
                    help="seed of the lemmas claim's lemma P/Q tuples and extra binharm.id2 "
                         "pairs; no other claim reads it")
    sp.add_argument("--out", help="write the report to FILE instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="padichyp",
        description="p-adic hypergeometric function evaluation and "
                    "supercongruence checking")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gamma", help="evaluate the p-adic gamma function")
    g.add_argument("x", help="argument, a rational like 1/3")
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--precision", type=int, default=3, help="digits N")

    gf = sub.add_parser("gfun", help="evaluate the G function")
    gf.add_argument("--args", required=True, help="comma list m1/d1,m2/d2,...")
    gf.add_argument("--p", type=int, required=True)
    gf.add_argument("--precision", type=int, default=3, help="digits N")

    gr = sub.add_parser("greene", help="evaluate the scaled Gaussian series")
    gr.add_argument("--args", required=True,
                    help="fractions m_i/d_i defining the top characters")
    gr.add_argument("--p", type=int, required=True)
    gr.add_argument("--x", type=int, default=1)
    gr.add_argument("--precision", type=int, default=3, help="digits N")

    t = sub.add_parser("trunc", help="truncated hypergeometric series, exact")
    t.add_argument("--args", required=True, help="top parameters")
    t.add_argument("--bottom", help="bottom parameters (default: all 1)")
    t.add_argument("--z", default="1")
    t.add_argument("-m", "--truncation", type=int, help="default p-1")
    t.add_argument("--p", type=int, help="also reduce mod p^precision")
    t.add_argument("--precision", type=int, help="digits of the reduction (default 3)")

    q = sub.add_parser("qexp", help="eta-product q-expansions")
    series = q.add_mutually_exclusive_group()
    series.add_argument("--form", choices=["gamma", "rv"],
                        help="one of the two built-in weight-4 forms")
    series.add_argument("--eta", help="custom product, e.g. 1^24 or 2^4,4^4")
    q.add_argument("--truncation", type=int, default=50)
    q.add_argument("--csv", help="write n,coefficient rows to FILE")

    c = sub.add_parser("check", help="verify one named claim over a prime grid")
    c.add_argument("claim", choices=list(checks.CLAIMS))
    for name in checks.PARAMS:
        takers = [claim.id for claim in checks.CLAIMS.values() if name in claim.accepts]
        c.add_argument(f"--{name}", type=str if name == "args" else int,
                       help="taken by " + ", ".join(takers))
    # prime range and modulus: check only, since check-all runs fixed grids
    primes = c.add_mutually_exclusive_group()
    primes.add_argument("--p", type=int, help="single prime")
    primes.add_argument("--p-range", type=_prime_range, help="inclusive prime range A..B")
    c.add_argument("--precision", type=int, help="override the asserted modulus exponent k")
    _add_run_flags(c)

    ca = sub.add_parser("check-all", help="run the full acceptance grid")
    _add_run_flags(ca)
    for parser in (ap, *sub.choices.values()):
        parser._negative_number_matcher = _NEGATIVE_ARG
    return ap


def _check_out(path: str) -> None:
    """Raise the error open(path, "w") would raise for an empty path, a
    missing directory, a path that is a directory, or an unwritable file (or,
    for a file yet to be made, directory), without creating the file."""
    parent = os.path.dirname(path) or "."
    if not path:
        code = errno.ENOENT
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _emit_reports(reports, skipped, ns) -> int:
    # opened only now, so a failed run leaves no empty file behind; newline=""
    # writes the text as given, as the csv module needs: without it Windows
    # would write \r\r\n CSV row ends and \r\n in the other formats
    if ns.out is not None:
        with open(ns.out, "w", encoding="utf-8", newline="") as fh:
            write_reports(reports, ns.format, fh)
    else:
        write_reports(reports, ns.format, sys.stdout)
    lines = []
    for kind, q, p in skipped:
        ps = ",".join(f"{k}={v}" for k, v in q.items())
        lines.append(f"skipped p={p} for {kind} ({ps}): precondition not met\n")
    sys.stderr.write("".join(lines))  # one write, not one per line
    failing = sorted({r.claim for r in reports if not r.passed})
    if failing:
        print("FAILING claims: " + " ".join(failing), file=sys.stderr)
        return 1
    return 0


def _run_checks(ns) -> int:
    if ns.command == "check":
        lo, hi = (ns.p, ns.p) if ns.p is not None else ns.p_range or (None, None)
        cfg = checks.RunConfig(claim=ns.claim, p_min=lo, p_max=hi, mod_power=ns.precision,
                               params={name: getattr(ns, name) for name in checks.PARAMS},
                               jobs=ns.jobs, seed=ns.seed)
    else:
        cfg = checks.RunConfig(jobs=ns.jobs, seed=ns.seed)
    cfg.plan()  # raises on any usage error before a check runs
    if ns.out is not None:
        _check_out(ns.out)
    reports, skipped = checks.run_config(cfg)
    return _emit_reports(reports, skipped, ns)


def _command(ns) -> int:
    if ns.command == "gamma":
        v = gamma_p(_fraction(ns.x, "x"), ns.p, ns.precision)
        print(_render_value(v))
        return 0
    if ns.command == "gfun":
        print(_render_value(checks._g(checks.parse_args(ns.args), ns.p, ns.precision)))
        return 0
    if ns.command == "greene":
        args = checks.parse_args(ns.args)
        print(_render_value(checks._greene(args, ns.p, ns.precision, ns.x)))
        return 0
    if ns.command == "trunc":
        if ns.p is not None:
            check_prime(ns.p)  # before --p fixes the truncation
        top = checks.parse_fractions(ns.args, "--args")
        bottom = (checks.parse_fractions(ns.bottom, "--bottom") if ns.bottom is not None
                  else [Fraction(1)] * (len(top) - 1))
        m = ns.truncation if ns.truncation is not None else (
            ns.p - 1 if ns.p is not None else None)
        if m is None:
            raise ValueError("give -m or --p to fix the truncation")
        if ns.precision is not None and ns.p is None:
            raise ValueError("--precision is the digits of the reduction mod p: give --p too")
        params = HypParams(tuple(top), tuple(bottom), _fraction(ns.z, "--z"), m)
        exact = truncated_hyp_exact(params)
        N = 3 if ns.precision is None else ns.precision
        reduced = truncated_hyp(params, ns.p, N) if ns.p is not None else None
        print(exact)  # only once both values are valid: no partial output
        if reduced is not None:
            print(_render_value(reduced))
        return 0
    if ns.command == "qexp":
        if ns.csv is not None:
            _check_out(ns.csv)  # before any coefficient is computed
        if ns.form == "gamma":
            series = gamma_coeffs(ns.truncation)
        elif ns.form == "rv":
            series = rv_form_coeffs(ns.truncation)
        elif ns.eta is not None:
            factors = []
            for i, part in enumerate(ns.eta.split(","), 1):
                base, caret, expo = part.partition("^")
                try:
                    factors.append((int(base), int(expo if caret else 1)))
                except ValueError:
                    raise ValueError(f"--eta wants s1^e1,...; field {i} is {part!r}") from None
            series = eta_product(factors, ns.truncation)
        else:
            raise ValueError("give --form or --eta")
        if ns.csv is not None:
            with open(ns.csv, "w", encoding="utf-8", newline="") as fh:
                write_coefficients_csv(series, fh)
        else:
            for n in range(series.offset, series.truncation + 1):
                print(n, series.coefficient(n))
        return 0
    if ns.command in ("check", "check-all"):
        return _run_checks(ns)
    raise AssertionError("unreachable")


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    if hasattr(sys, "set_int_max_str_digits"):
        # CPython >= 3.10.7 converts int <-> str only up to 4300 digits by
        # default, a guard for untrusted text; this process reads argv alone,
        # and prints the exact values it computes at any size
        sys.set_int_max_str_digits(0)
    try:
        code = _command(ns)
        sys.stdout.flush()  # a reader that closed stdout fails here, not at exit
        return code
    except BrokenPipeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # Python flushes stdout again at exit: point it at devnull, so what
        # is still buffered goes nowhere instead of failing a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    except (ValueError, PrecisionError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
