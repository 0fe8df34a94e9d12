"""Named, reproducible congruence checks over prime ranges.

Each claim family is one entry of the CLAIMS registry: admissibility (the
congruence-class preconditions of the theorems), accepted parameters, default
grid, prime range and modulus, and checker.  Planning, validation, check-all
and the CLI all read it.  Every form row (a sequence side against the p-th
coefficient of a modular form) is one entry of FORMS, which check_form reads.
Every result is a congruence at one prime, so a Task is one claim on one
parameter set at one prime p, and every row builder takes that one p.
Every run reports the primes it skipped rather than silently narrowing a
range; the defaults reproduce the acceptance suite.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

from . import combinatorics as comb
from ._record import FrozenRecord, Record
from .characters import Character, characters_for_arguments, greene_series_scaled
from .gamma import check_gamma_properties, lemma_check_gamma_suite
from .gfunction import GArguments, g_function, s_factor, theorem26_sign
from .hyp import HypParams, truncated_hyp
from .padic import PRIME_BOUND, PadicValue, check_prime, primes_in, rational_to_padic
from .qseries import gamma_coeffs, hecke_bound_ok, rv_form_coeffs  # noqa: F401 (FORMS)
from .report import CongruenceReport, sort_reports

DEFAULT_SEED = 20260810

# guard digit on top of the asserted modulus, everywhere
GUARD = 1

# every claim parameter the CLI can pass; each claim accepts a subset
PARAMS = ("d", "d2", "r", "args")


def _pm1(p: int, d: int) -> bool:
    return p % d in (1 % d, (d - 1) % d)


def _thm27_class_ok(p: int, d: int, r: int) -> bool:
    if _pm1(p, d):
        return True
    if r * r % d in (1 % d, (d - 1) % d):
        return p % d in (r % d, (d - r) % d)
    return False


@lru_cache(maxsize=None)
def _form(builder, horizon: int):
    """builder(horizon): a form's coefficients through q^horizon, built once
    per process for each (builder, horizon).  The checkers ask for the larger
    of their task's horizon and its prime, so every task of a plan
    shares one form.  Code that perturbs a form clears the memo with
    _form.cache_clear()."""
    return builder(horizon)


@lru_cache(maxsize=None)
def _truncated(args: tuple, p: int, N: int) -> PadicValue:
    """{n+1}F_n(args; 1, ..., 1 | 1) truncated at p - 1, mod p^N; cached, since
    conj1.3 and its framework row share one series per prime."""
    bottom = (Fraction(1),) * (len(args) - 1)
    return truncated_hyp(HypParams(args, bottom, Fraction(1), p - 1), p, N)


def parse_fractions(text: str, flag: str) -> list[Fraction]:
    """The comma-separated fractions of a flag; a field that is empty or not a
    fraction is a usage error that names it."""
    out = []
    for i, part in enumerate(str(text).split(","), 1):
        try:
            out.append(Fraction(part))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{flag} wants fractions m1/d1,...; field {i} is {part!r}") from None
    return out


def parse_args(text: str) -> list[Fraction]:
    """G-function arguments m1/d1,...: at least two, each strictly inside (0, 1)."""
    args = parse_fractions(text, "--args")
    if len(args) < 2:
        raise ValueError("--args needs at least two fractions")
    for a in args:
        if not 0 < a < 1:
            raise ValueError(f"argument {a} is not strictly inside (0, 1)")
    return args


def _pair(d: int) -> list[Fraction]:
    if d < 2:
        raise ValueError(f"d={d}: need d >= 2")
    return [Fraction(1, d), Fraction(d - 1, d)]


def _thm23_args(q: dict) -> list[Fraction]:
    args = parse_args(q["args"])
    if sum(args) < len(args) - 2:
        raise ValueError("theorem 2.3 requires the argument sum to be >= n - 1")
    return args


def _thm27_args(q: dict) -> list[Fraction]:
    d, r = q["d"], q["r"]
    if not (2 <= r <= d - 2 and math.gcd(r, d) == 1):
        raise ValueError(f"d={d}, r={r}: need 2 <= r <= d-2 with gcd(r, d) = 1")
    return [Fraction(1, d), Fraction(r, d), Fraction(d - r, d), Fraction(d - 1, d)]


# ---------------------------------------------------------------------------
# claim checkers
# ---------------------------------------------------------------------------


def check_prop22(args, p: int, mod_power: int = 4) -> CongruenceReport:
    """G function against the scaled Gaussian series at p, exactly mod p^mod_power."""
    args = [Fraction(a) for a in args]
    params = {"d": [a.denominator for a in args], "args": ",".join(map(str, args))}
    N = mod_power + GUARD
    lhs = g_function(GArguments(p, tuple(args), N))
    top = characters_for_arguments(args, p)
    rhs = greene_series_scaled(top, [Character.trivial(p)] * (len(args) - 1), 1, N)
    return CongruenceReport.from_sides("prop2.2", p, params, mod_power, lhs, rhs)


def check_g_vs_trunc(claim: str, params: dict, args, p: int, k: int) -> CongruenceReport:
    """The Theorem 2.3 shape shared by Theorems 2.3-2.7 and the
    Rodriguez-Villegas framework row:

        G(args)_p = truncated series + s(p) p [sum(args) = n - 1]  (mod p^k),

    with s(p) = prod Gamma_p(1 - a) over the arguments, at p."""
    args = [Fraction(a) for a in args]
    n = len(args) - 1
    S = sum(args)
    if S < n - 1:
        raise ValueError("theorem requires the argument sum to be >= n - 1")
    N = k + GUARD
    lhs = g_function(GArguments(p, tuple(args), N))
    rhs = _truncated(tuple(args), p, N)
    if S == n - 1:
        rhs = rhs + s_factor([1 - a for a in args], p, N) * rational_to_padic(p, p, N)
    return CongruenceReport.from_sides(claim, p, params, k, lhs, rhs)


_FIFTHS = (Fraction(1, 5), Fraction(2, 5), Fraction(3, 5), Fraction(4, 5))


def _apery_side(p: int, N: int) -> tuple[dict, PadicValue]:
    a = comb.apery((p - 1) // 2)
    return {"A": str(a)}, rational_to_padic(a, p, N)


def _greene_minus_p(p: int, N: int) -> tuple[dict, PadicValue]:
    """The scaled Gaussian series at (phi, phi, phi, phi; eps, eps, eps | 1), minus p."""
    phi, eps = Character.quadratic(p), Character.trivial(p)
    series = greene_series_scaled([phi] * 4, [eps] * 3, 1, N)
    return {}, series - rational_to_padic(p, p, N)


class Form(NamedTuple):
    """One row of FORMS: a sequence side against the p-th coefficient of a
    weight-4 form.  Each check looks the builder up by name in this module."""

    builder: str  # the name, so that a builder patched here is the one used
    key: str  # the params key of the coefficient
    mod: int  # default modulus
    side: Callable[[int, int], tuple[dict, PadicValue]]  # (p, N) -> (params, side mod p^N)
    deligne: bool = False  # add deligne_ok, |a(p)| <= 2 p^(3/2); a failed bound fails the row


FORMS = {
    # Apery numbers A((p-1)/2) against the level-8 form
    "beukers": Form("gamma_coeffs", "gamma", 2, _apery_side),
    # the scaled Gaussian series minus p against the level-8 form: both are
    # integers bounded by 2p^(3/2) + p, so agreement mod p^4 certifies equality
    "thm1.2": Form("gamma_coeffs", "gamma", 4, _greene_minus_p, deligne=True),
    # Rodriguez-Villegas: truncated 4F3(1/5, 2/5, 3/5, 4/5) against the level-25 form
    "conj1.3": Form("rv_form_coeffs", "c", 3, lambda p, N: ({}, _truncated(_FIFTHS, p, N))),
}


def check_form(claim: str, p: int, horizon: int | None = None, mod: int | None = None,
               side: tuple[dict, PadicValue] | None = None) -> CongruenceReport:
    """The FORMS row claim at p: its sequence side against the p-th
    coefficient of its form, mod p^mod (by default the entry's modulus).  The
    form is built through q^max(horizon, p), once per process; side is the
    entry's side at (p, mod + GUARD), when the caller has computed it."""
    f = FORMS[claim]
    mod = f.mod if mod is None else mod
    N = mod + GUARD
    params, lhs = side or f.side(p, N)
    form = _form(globals()[f.builder], max(horizon or 0, p))
    c = form.coefficient(p)
    params = {**params, f.key: c}
    if f.deligne:
        params["deligne_ok"] = hecke_bound_ok(form, p)
    row = CongruenceReport.from_sides(claim, p, params, mod, lhs, rational_to_padic(c, p, N))
    row.passed = row.passed and params.get("deligne_ok", True)
    return row


# ---------------------------------------------------------------------------
# section-3 grids: power sums, lemma sums and the rational identities
# ---------------------------------------------------------------------------


def _pq_tuples(p: int, seed: int, count: int = 100) -> list[tuple[int, ...]]:
    """Seeded a-tuples with T <= 2(p-1), always including boundary cases."""
    import random

    rng = random.Random(seed * 1_000_003 + p)
    tuples = [(2 * (p - 1),), (p - 1, p - 1), (2 * p - 3, 1),
              (p - 1, p - 2, 1), (1,), (1, 1, 1)]
    while len(tuples) < count:
        n = rng.randint(1, 6)
        budget = 2 * (p - 1)
        a = []
        for i in range(n):
            hi = budget - (n - i - 1)
            if hi < 1:
                break
            v = rng.randint(1, hi)
            a.append(v)
            budget -= v
        if a:
            tuples.append(tuple(a))
    return tuples


def check_power_sums(p: int) -> list[CongruenceReport]:
    out = []
    for k in range(1, 2 * (p - 1) + 1):
        s = sum(pow(j, k, p) for j in range(1, p)) % p
        expected = -1 if k % (p - 1) == 0 else 0
        out.append(CongruenceReport.from_sides(
            "eq3.2", p, {"k": k}, 1,
            rational_to_padic(s, p, 2), rational_to_padic(expected, p, 2)))
    return out


def check_lemma_pq(p: int, seed: int = DEFAULT_SEED) -> list[CongruenceReport]:
    return [CongruenceReport.from_sides(claim, p, {"a": list(a)}, 1,
                                        value, rational_to_padic(expected, p, 2))
            for a in _pq_tuples(p, seed)
            for claim, value, expected in zip(("lemmaP", "lemmaQ"), comb._pq_sums(a, p),
                                              comb.lemma_PQ_expected(a, p))]


def check_bin_harmonic_ids(seed: int = DEFAULT_SEED) -> list[CongruenceReport]:
    """Both identities, exactly zero over Q on their full grids."""
    import random

    out = []
    for m in range(1, 31):
        for n in range(1, m + 1):
            out.append(CongruenceReport.exact_rational(
                "binharm.id1", {"m": m, "n": n}, comb.bin_harmonic_id1(m, n)))
    rng = random.Random(seed)
    extras = [(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(3)]
    pairs = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))] + extras
    for l in range(2, 21):
        for m in range((l + 1) // 2, l):
            for n in range((l + 1) // 2, m + 1):
                if 2 * n < l:
                    continue
                for c1, c2 in pairs:
                    out.append(CongruenceReport.exact_rational(
                        "binharm.id2",
                        {"l": l, "m": m, "n": n, "c1": str(c1), "c2": str(c2)},
                        comb.bin_harmonic_id2(l, m, n, c1, c2)))
    return out


def check_lemma_suites(p: int, seed: int = DEFAULT_SEED) -> list[CongruenceReport]:
    """The section-3 grids of criterion 9 at p."""
    return (lemma_check_gamma_suite(p) + check_gamma_properties(p)
            + check_power_sums(p) + check_lemma_pq(p, seed))


# ---------------------------------------------------------------------------
# the claim registry, planning and the runner
# ---------------------------------------------------------------------------


class Task(NamedTuple):
    """One unit of work: a claim's checker on one parameter set at one prime
    p (None only for the prime-free task of a claim).  The horizon is the
    largest prime of the task's plan, the truncation the form-based checkers
    build their q-expansions to."""

    claim: str
    params: dict
    p: int | None
    mod: int | None
    seed: int
    horizon: int | None = None


class Claim(FrozenRecord):
    """One claim family of the registry:
    - admissible(p, params): the precondition holds at p;
    - accepts: a subset of PARAMS, which a run gives all of or none of;
    - grid: the parameter sets run when none are given;
    - primes: the default prime range;
    - mod: the default modulus, or None where the checker fixes its moduli;
    - check(task, args): the rows of a task;
    - args(params): the G-function arguments of a parameter set, raising
      ValueError on an invalid one;
    - prime_free: also plan one task with no prime."""

    __slots__ = ("id", "admissible", "accepts", "grid", "primes", "mod", "check",
                 "args", "prime_free")

    def __init__(self, id: str, admissible: Callable[[int, dict], bool],
                 accepts: tuple[str, ...], grid: tuple[dict, ...], primes: tuple[int, int],
                 mod: int | None, check: Callable[[Task, list[Fraction]], list[CongruenceReport]],
                 args: Callable[[dict], list[Fraction]] = lambda q: [],
                 prime_free: bool = False) -> None:
        for name, value in zip(self.__slots__, (id, admissible, accepts, grid, primes, mod,
                                                check, args, prime_free)):
            object.__setattr__(self, name, value)

    def plan(self, lo: int | None = None, hi: int | None = None,
             params: dict | None = None, mod: int | None = None,
             seed: int = DEFAULT_SEED):
        """(tasks, skipped) over the primes in [lo, hi], by default the
        claim's range; raises ValueError on any input it cannot honour."""
        given = {k: v for k, v in (params or {}).items() if v is not None}
        for key in given:
            if key not in self.accepts:
                raise ValueError(f"{self.id} does not accept --{key}")
        flags = " and ".join(f"--{k}" for k in self.accepts)
        if given and len(given) < len(self.accepts):
            raise ValueError(f"{self.id} takes {flags} together")
        if not (given or self.grid):
            raise ValueError(f"{self.id} needs {flags}")
        grid = [{k: given[k] for k in self.accepts}] if given else self.grid
        for q in grid:
            self.args(q)
        if mod is None:
            mod = self.mod
        elif self.mod is None:
            raise ValueError(f"{self.id} checks fixed moduli and takes no --precision")
        elif mod < 1:
            raise ValueError(f"--precision must be >= 1, got {mod}")
        lo = self.primes[0] if lo is None else lo
        hi = self.primes[1] if hi is None else hi
        if lo > hi:
            raise ValueError(f"empty prime range {lo}..{hi}")
        if lo == hi:
            check_prime(lo)
        elif hi > PRIME_BOUND:
            raise ValueError(f"prime range {lo}..{hi} exceeds the prime bound {PRIME_BOUND}")
        runs, skipped = [], []
        for q in grid:
            for p in primes_in(max(lo, 3), hi):
                if self.admissible(p, q):
                    runs.append((q, p))
                else:
                    skipped.append((self.id, q, p))
        if not runs:
            raise ValueError(f"no prime in {lo}..{hi} satisfies the preconditions of {self.id}")
        horizon = max(p for _, p in runs)
        tasks = [Task(self.id, q, p, mod, seed, horizon) for q, p in runs]
        if self.prime_free:
            tasks.append(Task(self.id, {}, None, mod, seed, horizon))
        return tasks, skipped


def _check_trunc(t: Task, args) -> list[CongruenceReport]:
    return [check_g_vs_trunc(t.claim, t.params, args, t.p, t.mod)]


def _check_ao(t: Task, _) -> list[CongruenceReport]:
    """thm1.1, truncated 4F3(1/2, 1/2, 1/2, 1/2) = scaled Gaussian series - p
    mod p^2, and the thm1.2 form row, from one series."""
    p, N = t.p, FORMS["thm1.2"].mod + GUARD
    side = _greene_minus_p(p, N)
    return [CongruenceReport.from_sides(
                "thm1.1", p, {}, 2, _truncated((Fraction(1, 2),) * 4, p, N), side[1]),
            check_form("thm1.2", p, t.horizon, side=side)]


def _check_conj13(t: Task, args) -> list[CongruenceReport]:
    """The conj1.3 form row, plus the framework congruence at its arguments."""
    return [check_form("conj1.3", t.p, t.horizon, t.mod),
            check_g_vs_trunc("conj1.3-framework", {"d": 5, "r": 2}, args, t.p, t.mod)]


def _check_thm26(t: Task, args) -> list[CongruenceReport]:
    """Theorem 2.6, plus a companion row: the gamma product s(p) is the floor sign."""
    p, d1, d2 = t.p, t.params["d"], t.params["d2"]
    N = t.mod + GUARD
    sign = theorem26_sign(p, d1, d2)
    return [check_g_vs_trunc("thm2.6", {"d1": d1, "d2": d2}, args, p, t.mod),
            CongruenceReport.from_sides(
                "thm2.6-sign", p, {"d1": d1, "d2": d2, "sign": sign}, N,
                s_factor(args, p, N), rational_to_padic(sign, p, N))]


def _denominators_split(p: int, q: dict) -> bool:
    return all(p % a.denominator == 1 for a in parse_args(q["args"]))


# p = +-1 (mod d) with d >= 2 already rules out p | d
CLAIMS = {c.id: c for c in (
    Claim("prop2.2", _denominators_split, ("args",),
          tuple({"args": a} for a in ("1/2,1/2", "1/3,2/3", "1/2,1/3,2/3",
                                      "1/2,1/2,1/2,1/2", "1/5,2/5,3/5,4/5")),
          (7, 61), 4, lambda t, args: [check_prop22(args, t.p, t.mod)],
          args=lambda q: parse_args(q["args"])),
    Claim("thm2.3", _denominators_split, ("args",), (), (7, 61), 2,
          lambda t, args: [check_g_vs_trunc(
              "thm2.3", {"args": ",".join(map(str, args)), "S": str(sum(args))},
              args, t.p, t.mod)],
          args=_thm23_args),
    Claim("thm2.4", lambda p, q: _pm1(p, q["d"]), ("d",),
          ({"d": 3}, {"d": 4}, {"d": 5}, {"d": 6}), (7, 97), 2,
          _check_trunc, args=lambda q: _pair(q["d"])),
    Claim("thm2.5", lambda p, q: _pm1(p, q["d"]), ("d",),
          ({"d": 3}, {"d": 4}, {"d": 5}, {"d": 6}), (7, 97), 2,
          _check_trunc, args=lambda q: [Fraction(1, 2), *_pair(q["d"])]),
    Claim("thm2.6", lambda p, q: _pm1(p, q["d"]) and _pm1(p, q["d2"]), ("d", "d2"),
          ({"d": 2, "d2": 2}, {"d": 2, "d2": 3}, {"d": 3, "d2": 4}, {"d": 2, "d2": 5}),
          (3, 97), 3, _check_thm26, args=lambda q: _pair(q["d"]) + _pair(q["d2"])),
    Claim("thm2.7", lambda p, q: _thm27_class_ok(p, q["d"], q["r"]), ("d", "r"),
          ({"d": 5, "r": 2}, {"d": 8, "r": 3}, {"d": 12, "r": 5}), (3, 97), 3,
          _check_trunc, args=_thm27_args),
    Claim("beukers", lambda p, q: True, (), ({},), (3, 97), FORMS["beukers"].mod,
          lambda t, _: [check_form("beukers", t.p, t.horizon, t.mod)]),
    Claim("ao", lambda p, q: True, (), ({},), (7, 61), None, _check_ao),
    Claim("conj1.3", lambda p, q: p != 5, (), ({},), (3, 97), FORMS["conj1.3"].mod,
          _check_conj13, args=lambda q: list(_FIFTHS)),
    Claim("lemmas", lambda p, q: p >= 7, (), ({},), (7, 13), None,
          lambda t, _: (check_bin_harmonic_ids(t.seed) if t.p is None
                        else check_lemma_suites(t.p, t.seed)),
          prime_free=True),
)}


def run_task(task: Task) -> list[CongruenceReport]:
    claim = CLAIMS[task.claim]
    return claim.check(task, claim.args(task.params))


def run_tasks(tasks, jobs: int = 1) -> list[CongruenceReport]:
    """Execute tasks (optionally in a process pool) and return reports in the
    canonical (claim, prime, params) order, independent of the jobs count.
    The pool never outnumbers the tasks or the CPUs."""
    jobs = min(jobs, len(tasks), os.cpu_count() or 1)
    if jobs <= 1:
        chunks = map(run_task, tasks)
    else:
        # imported here: a --jobs 1 run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(run_task, tasks, chunksize=1))
    return sort_reports([r for ch in chunks for r in ch])


class RunConfig(Record):
    """One reproducible harness run; the defaults reproduce the shipped
    acceptance grids (claim None means check-all), and params holds values
    for PARAMS."""

    __slots__ = ("claim", "p_min", "p_max", "mod_power", "params", "jobs", "seed")

    def __init__(self, claim: str | None = None, p_min: int | None = None,
                 p_max: int | None = None, mod_power: int | None = None,
                 params: dict | None = None, jobs: int = 1, seed: int = DEFAULT_SEED) -> None:
        self.claim = claim
        self.p_min = p_min
        self.p_max = p_max
        self.mod_power = mod_power
        self.params = {} if params is None else params
        self.jobs = jobs
        self.seed = seed

    def plan(self):
        """(tasks, skipped); raises ValueError on any input the run cannot honour."""
        if self.jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {self.jobs}")
        if self.claim is not None:
            if self.claim not in CLAIMS:
                raise ValueError(f"unknown claim id: {self.claim}")
            return CLAIMS[self.claim].plan(self.p_min, self.p_max, self.params,
                                           self.mod_power, self.seed)
        if (self.p_min, self.p_max, self.mod_power) != (None, None, None) \
                or any(v is not None for v in self.params.values()):
            raise ValueError("check-all takes no prime range, modulus or claim parameter")
        tasks, skipped = [], []
        for claim in CLAIMS.values():
            if claim.grid:  # thm2.3 has no default grid
                t, s = claim.plan(seed=self.seed)
                tasks.extend(t)
                skipped.extend(s)
        return tasks, skipped


def run_config(cfg: RunConfig):
    """(reports, skipped) for a config; deterministic for a fixed config."""
    tasks, skipped = cfg.plan()
    return run_tasks(tasks, cfg.jobs), skipped
