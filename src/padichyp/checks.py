"""Named, reproducible congruence checks over prime ranges.

Each claim family is one entry of the CLAIMS registry: accepted parameters,
default grid, prime range and modulus, rows, and admissibility.  Planning,
validation, check-all and the CLI all read it.  A claim runs at the primes
where its own arguments are p-stable (_p_stable), the one rule of every
claim but prop2.2 (split primes) and lemmas (p >= 7).  Every result is a
congruence at one prime, so a Task is one claim on one parameter set at one
prime p.  Every claim lists its rows (claim, params, k, lhs, rhs): the
side-pair claims from a few side functions (G, the Greene series, the
truncated series + s(p) p, a form coefficient), the lemmas tasks from
_lemma_rows (at p the power sums, lemma P and Q and the section-3 Gamma_p
suites of gamma; with no prime the exact rational identities).  run_task
makes every report, through the one function _evaluate.  Every run reports
the primes it skipped rather than silently narrowing a range; the defaults
reproduce the acceptance suite.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from . import combinatorics as comb
from ._record import FrozenRecord, Record
from .characters import Character, characters_for_arguments, greene_series_scaled
from .gamma import section3_rows
from .gfunction import GArguments, g_function, s_factor, theorem26_sign
from .hyp import HypParams, truncated_hyp
from .padic import (PRIME_BOUND, PadicValue, _at_prime, _per_prime, _ratio_to_padic,
                    check_prime, primes_in, rational_to_padic)
from .qseries import gamma_coeffs, hecke_bound_ok, rv_form_coeffs
from .report import CongruenceReport, sort_reports

DEFAULT_SEED = 20260810

# guard digit on top of the asserted modulus, everywhere
GUARD = 1

# every claim parameter the CLI can pass; each claim accepts a subset
PARAMS = ("d", "d2", "r", "args")


def _p_stable(p: int, args) -> bool:
    """p divides no denominator of args, and a -> <p a> permutes the multiset
    args: the p-local form of "defined over Q" (Beukers-Cohen-Mellit), on
    which the G-function congruences rest.  The default admissibility."""
    pairs = sorted((a.numerator, a.denominator) for a in args)
    return all(d % p for _, d in pairs) and pairs == sorted((m * p % d, d) for m, d in pairs)


@lru_cache(maxsize=None)
def _form(builder, horizon: int):
    """builder(horizon): a form's coefficients through q^horizon, built once
    per process for each (builder, horizon), so that every task of a plan,
    called with its horizon, shares one form.  Each claim names its builder
    at call time, so a builder patched in this module is the one used; code
    that perturbs a form clears the memo with _form.cache_clear()."""
    return builder(horizon)


@_per_prime
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
# the sides of the congruences, and the one path from rows to reports
# ---------------------------------------------------------------------------


def _g(args, p: int, N: int) -> PadicValue:
    """McCarthy's G(args)_p mod p^N."""
    return g_function(GArguments(p, args, N))


def _greene(args, p: int, N: int, x: int = 1) -> PadicValue:
    """The scaled Gaussian series at the characters of args over trivial
    ones, at x, mod p^N: at x = 1 the Proposition 2.2 side of G(args)."""
    top = characters_for_arguments(args, p)
    return greene_series_scaled(top, [Character.trivial(p)] * (len(args) - 1), x, N)


def _truncated_sp(args: tuple, p: int, N: int) -> PadicValue:
    """The Theorem 2.3 side of G(args), shared by Theorems 2.3-2.7 and the
    Rodriguez-Villegas framework row, mod p^N:

        truncated series + s(p) p [sum(args) = n - 1],

    with s(p) = prod Gamma_p(1 - a) over the arguments, at p."""
    side = _truncated(args, p, N)
    if sum(args) == len(args) - 2:
        side = side + s_factor([1 - a for a in args], p, N) * rational_to_padic(p, p, N)
    return side


def _evaluate(p: int | None, rows) -> list[CongruenceReport]:
    """The reports of rows (claim, params, k, lhs, rhs), each the congruence
    lhs = rhs mod p^k at p; every report of every claim is made here.  A
    side is a PadicValue or an integer, which is read mod p^(k + GUARD); a
    params deligne_ok of False fails its row.  At p None a row is lhs = rhs
    exactly over Q."""
    out = []
    for claim, params, k, lhs, rhs in rows:
        if p is None:
            out.append(CongruenceReport.exact_rational(claim, params, lhs - rhs))
            continue
        lhs = _ratio_to_padic(lhs, 1, p, k + GUARD) if isinstance(lhs, int) else lhs
        rhs = _ratio_to_padic(rhs, 1, p, k + GUARD) if isinstance(rhs, int) else rhs
        row = CongruenceReport.from_sides(claim, p, params, k, lhs, rhs)
        row.passed = row.passed and params.get("deligne_ok", True)
        out.append(row)
    return out


def _g_row(claim: str, params: dict, t, side=_truncated_sp) -> tuple:
    """The row G(args) = side(args) mod p^mod at the task's arguments, prime
    and modulus, the side by default the Theorem 2.3 one."""
    N = t.mod + GUARD
    return (claim, params, t.mod, _g(t.args, t.p, N), side(t.args, t.p, N))


def _ao(t) -> list[tuple]:
    """thm1.1, truncated 4F3(1/2, 1/2, 1/2, 1/2) = scaled Gaussian series - p
    mod p^2, and thm1.2, that series - p = gamma(p) mod p^4: both integers
    bounded by 2p^(3/2) + p, so agreement mod p^4 certifies equality.  One
    series at 4 + GUARD digits serves both rows."""
    p, N = t.p, 4 + GUARD
    side = _greene(t.args, p, N) - rational_to_padic(p, p, N)
    form = _form(gamma_coeffs, t.horizon)
    c = form.coefficient(p)
    return [("thm1.1", {}, 2, _truncated(t.args, p, N), side),
            ("thm1.2", {"gamma": c, "deligne_ok": hecke_bound_ok(form, p)}, 4, side, c)]


def _beukers(t) -> list[tuple]:
    """The Apery number A((p-1)/2) against gamma(p) of the level-8 form."""
    a, c = comb.apery((t.p - 1) // 2), _form(gamma_coeffs, t.horizon).coefficient(t.p)
    return [("beukers", {"A": str(a), "gamma": c}, t.mod, a, c)]


def _conj13(t) -> list[tuple]:
    """Rodriguez-Villegas: the truncated 4F3(1/5, 2/5, 3/5, 4/5) against c(p)
    of the level-25 form, and the framework congruence at those arguments,
    from one truncated series."""
    p, N = t.p, t.mod + GUARD
    c = _form(rv_form_coeffs, t.horizon).coefficient(p)
    return [("conj1.3", {"c": c}, t.mod, _truncated(t.args, p, N), c),
            _g_row("conj1.3-framework", {"d": 5, "r": 2}, t)]


def _thm26(t) -> list[tuple]:
    """Theorem 2.6, and a companion row: the gamma product s(p) is the floor
    sign, at all N digits."""
    p, N, d1, d2 = t.p, t.mod + GUARD, t.params["d"], t.params["d2"]
    sign = theorem26_sign(p, d1, d2)
    return [_g_row("thm2.6", {"d1": d1, "d2": d2}, t),
            ("thm2.6-sign", {"d1": d1, "d2": d2, "sign": sign}, N,
             s_factor(t.args, p, N), rational_to_padic(sign, p, N))]


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


def _lemma_rows(p: int | None, seed: int):
    """The rows of a lemmas task at p: the power sums (3.2) over
    k = 1..2(p-1), lemma P and Q at the seeded a-tuples, then the section-3
    Gamma_p suites, which need p >= 7.  With no prime: both binomial-harmonic
    identities on their full grids, each a value that is 0 over Q."""
    if p is None:
        yield from _bin_harmonic_rows(seed)
        return
    for k in range(1, 2 * (p - 1) + 1):
        yield ("eq3.2", {"k": k}, 1, sum(pow(j, k, p) for j in range(1, p)) % p,
               -1 if k % (p - 1) == 0 else 0)
    for a in _pq_tuples(p, seed):
        params = {"a": list(a)}
        for claim, value, expected in zip(("lemmaP", "lemmaQ"), comb.lemma_PQ_sums(a, p),
                                          comb.lemma_PQ_expected(a, p)):
            yield claim, params, 1, value, expected
    yield from section3_rows(p)


def _bin_harmonic_rows(seed: int):
    import random

    for m in range(1, 31):
        for n in range(1, m + 1):
            yield "binharm.id1", {"m": m, "n": n}, 0, comb.bin_harmonic_id1(m, n), 0
    rng = random.Random(seed)
    extras = [(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(3)]
    # a row's value: c1 X + c2 Y over one positive denominator, an integer, 0 iff it holds
    pairs = [(c1.numerator * c2.denominator, c2.numerator * c1.denominator, str(c1), str(c2))
             for c1, c2 in [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))] + extras]
    for l in range(2, 21):
        for m in range((l + 1) // 2, l):
            for n in range((l + 1) // 2, m + 1):
                x, y = comb.bin_harmonic_id2(l, m, n)
                u, w = x.numerator * y.denominator, y.numerator * x.denominator
                for a1, a2, t1, t2 in pairs:
                    yield ("binharm.id2", {"l": l, "m": m, "n": n, "c1": t1, "c2": t2},
                           0, a1 * u + a2 * w, 0)


# ---------------------------------------------------------------------------
# the claim registry, planning and the runner
# ---------------------------------------------------------------------------


Task = namedtuple("Task", "claim params args p mod seed horizon")
Task.__doc__ = """One unit of work: a claim's rows on one parameter set at one prime
p (None only for the prime-free task of a claim).  args is the tuple of
G-function arguments the plan derived from params, one object shared by the
tasks of that parameter set, and () for a claim without arguments and for
the prime-free task.  The horizon is the largest prime of the task's plan,
the truncation the form rows build their q-expansions to."""


class Claim(FrozenRecord):
    """One claim family of the registry:
    - accepts: a subset of PARAMS, which a run gives all of or none of;
    - grid: the parameter sets run when none are given;
    - primes: the default prime range;
    - mod: the default modulus, or None where the rows fix their moduli;
    - rows(task): the rows of a task, which run_task turns into its
      reports; a task carries its parameters and their arguments;
    - args(params): the G-function arguments of a parameter set, raising
      ValueError on an invalid one; plan calls it once per parameter set;
    - admissible(p, args): the precondition holds at p for those arguments,
      by default _p_stable;
    - prime_free: also plan one task with no prime."""

    __slots__ = ("id", "accepts", "grid", "primes", "mod", "rows", "args", "admissible",
                 "prime_free")

    def __init__(self, id: str, accepts: tuple[str, ...], grid: tuple[dict, ...],
                 primes: tuple[int, int], mod: int | None, rows, args=lambda q: [],
                 admissible=_p_stable, prime_free: bool = False) -> None:
        for name, value in zip(self.__slots__, (id, accepts, grid, primes, mod, rows, args,
                                                admissible, prime_free)):
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
        # the plan's own copy of each grid dict, which _g_vs_trunc gives its reports
        grid = [{k: given[k] for k in self.accepts}] if given else [dict(q) for q in self.grid]
        grid = [(q, tuple(self.args(q))) for q in grid]
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
        for q, args in grid:
            for p in primes_in(lo, hi):  # every claim needs an odd prime
                if p > 2 and self.admissible(p, args):
                    runs.append((q, args, p))
                else:
                    skipped.append((self.id, q, p))
        if not runs:
            raise ValueError(f"no prime in {lo}..{hi} satisfies the preconditions of {self.id}")
        horizon = max(p for *_, p in runs)
        tasks = [Task(self.id, q, args, p, mod, seed, horizon) for q, args, p in runs]
        if self.prime_free:
            tasks.append(Task(self.id, {}, (), None, mod, seed, horizon))
        return tasks, skipped


def _g_vs_trunc(t) -> list[tuple]:
    """The one row of Theorems 2.4, 2.5 and 2.7, labelled with the task's params."""
    return [_g_row(t.claim, t.params, t)]


CLAIMS = {c.id: c for c in (
    Claim("prop2.2", ("args",),
          tuple({"args": a} for a in ("1/2,1/2", "1/3,2/3", "1/2,1/3,2/3",
                                      "1/2,1/2,1/2,1/2", "1/5,2/5,3/5,4/5")),
          (7, 61), 4,
          lambda t: [_g_row("prop2.2", {"d": [a.denominator for a in t.args],
                                        "args": ",".join(map(str, t.args))}, t, _greene)],
          args=lambda q: parse_args(q["args"]),
          # Greene's characters of order d exist only at p = 1 mod d
          admissible=lambda p, args: all(p % a.denominator == 1 for a in args)),
    Claim("thm2.3", ("args",), (), (7, 61), 2,
          lambda t: [_g_row("thm2.3", {"args": ",".join(map(str, t.args)),
                                       "S": str(sum(t.args))}, t)],
          args=_thm23_args),
    Claim("thm2.4", ("d",), ({"d": 3}, {"d": 4}, {"d": 5}, {"d": 6}), (7, 97), 2,
          _g_vs_trunc, args=lambda q: _pair(q["d"])),
    Claim("thm2.5", ("d",), ({"d": 3}, {"d": 4}, {"d": 5}, {"d": 6}), (7, 97), 2,
          _g_vs_trunc, args=lambda q: [Fraction(1, 2), *_pair(q["d"])]),
    Claim("thm2.6", ("d", "d2"),
          ({"d": 2, "d2": 2}, {"d": 2, "d2": 3}, {"d": 3, "d2": 4}, {"d": 2, "d2": 5}),
          (3, 97), 3, _thm26, args=lambda q: _pair(q["d"]) + _pair(q["d2"])),
    Claim("thm2.7", ("d", "r"), ({"d": 5, "r": 2}, {"d": 8, "r": 3}, {"d": 12, "r": 5}),
          (3, 97), 3, _g_vs_trunc, args=_thm27_args),
    Claim("beukers", (), ({},), (3, 97), 2, _beukers),
    Claim("ao", (), ({},), (7, 61), None, _ao, args=lambda q: [Fraction(1, 2)] * 4),
    Claim("conj1.3", (), ({},), (3, 97), 3, _conj13,
          args=lambda q: [Fraction(k, 5) for k in range(1, 5)]),
    Claim("lemmas", (), ({},), (7, 13), None, lambda t: _lemma_rows(t.p, t.seed),
          admissible=lambda p, args: p >= 7, prime_free=True),
)}


def run_task(task: Task) -> list[CongruenceReport]:
    """The reports of a task, made from its claim's rows by _evaluate once
    _at_prime has scoped the per-prime memos to the task's prime."""
    _at_prime(task.p)
    return _evaluate(task.p, CLAIMS[task.claim].rows(task))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS has
    one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_unit(tasks) -> list[CongruenceReport]:
    """The reports of the tasks of one prime, run in order in one process."""
    return [r for t in tasks for r in run_task(t)]


def run_tasks(tasks, jobs: int = 1) -> list[CongruenceReport]:
    """Execute tasks (optionally in a process pool) and return reports in the
    canonical (claim, prime, params) order, independent of the jobs count.
    The tasks are grouped into one unit per prime, the prime-free unit first
    and then ascending p, each in the plan's order, and every unit runs in
    one process: there every claim at the prime shares its tables, built once
    per run, until _at_prime drops them.  The pool never outnumbers the units
    or the CPUs the process may run on."""
    units = {}
    for t in sorted(tasks, key=lambda t: -1 if t.p is None else t.p):
        units.setdefault(t.p, []).append(t)
    units = list(units.values())
    jobs = min(jobs, len(units), _usable_cpus())
    if jobs <= 1:
        chunks = map(_run_unit, units)
    else:
        # imported here: a --jobs 1 run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_run_unit, units))
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
