"""Claim registry: admissibility filters, report schema, runner determinism
and the CLI surface."""

import argparse
import concurrent.futures
import contextlib
import copy
import functools
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from unittest.mock import patch

import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padichyp import characters, checks, cli, combinatorics, gamma, gfunction, padic, qseries, report
from padichyp.hyp import HypParams, truncated_hyp_exact
from padichyp.padic import PadicValue, rational_to_padic, valuation_of_int
from padichyp.qseries import QSeries
from padichyp.report import CSV_COLUMNS, CongruenceReport, sort_reports, write_reports


@pytest.fixture(autouse=True)
def _drop_patched_memos(request):
    """A test that monkeypatches may leave per-prime memos built by the
    patched code, such as the column-plan rows of gfunction; they are
    dropped when it ends."""
    yield
    if "monkeypatch" in request.fixturenames:
        padic._at_prime(None)


def _task(claim, primes, **params):
    """Reports of the claim's registry tasks, one per prime, at its default
    modulus; the arguments are derived as a plan derives them, once."""
    c = checks.CLAIMS[claim]
    args = tuple(c.args(params))
    return [r for p in primes for r in checks.run_task(
        checks.Task(claim, params, args, p, c.mod, checks.DEFAULT_SEED, max(primes)))]


def _text(reports, fmt):
    """The reports as write_reports writes them in format fmt."""
    buf = io.StringIO()
    write_reports(reports, fmt, buf)
    return buf.getvalue()


def _split(claim, params, lo, hi):
    """(admissible, skipped) odd primes in [lo, hi], read off the claim's plan."""
    tasks, skipped = checks.CLAIMS[claim].plan(lo, hi, params)
    return [t.p for t in tasks], [s[2] for s in skipped]


def test_prime_filter_prop22():
    ok, skipped = _split("prop2.2", {"args": "1/3,2/3"}, 7, 61)
    assert ok == [7, 13, 19, 31, 37, 43, 61]
    assert 11 in skipped
    ok, _ = _split("prop2.2", {"args": "1/5,2/5,3/5,4/5"}, 7, 61)
    assert ok == [11, 31, 41, 61]


def test_prime_filter_pm1():
    ok, _ = _split("thm2.4", {"d": 3}, 7, 30)
    assert ok == [7, 11, 13, 17, 19, 23, 29]
    ok, skipped = _split("thm2.4", {"d": 5}, 7, 30)
    assert ok == [11, 19, 29]
    assert skipped == [7, 13, 17, 23]


def test_prime_filter_thm26_excludes_divisors():
    ok, _ = _split("thm2.6", {"d": 2, "d2": 5}, 3, 97)
    assert ok == [11, 19, 29, 31, 41, 59, 61, 71, 79, 89]
    assert 5 not in ok


def test_prime_filter_thm27_quadratic_residue_classes():
    # r^2 = -1 mod 5: every prime coprime to 5 is admissible
    ok, skipped = _split("thm2.7", {"d": 5, "r": 2}, 3, 50)
    assert ok == [3, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    assert skipped == [5]  # p | d is recorded, not silently dropped
    # r^2 = 1 mod 8: all odd primes admissible
    ok, skipped = _split("thm2.7", {"d": 8, "r": 3}, 3, 30)
    assert ok == [3, 5, 7, 11, 13, 17, 19, 23, 29] and not skipped
    # r^2 = 4 not +-1 mod 7: only p = +-1 mod 7 runs, others are recorded
    ok, skipped = _split("thm2.7", {"d": 7, "r": 2}, 3, 50)
    assert ok == [13, 29, 41, 43]
    assert skipped == [3, 5, 7, 11, 17, 19, 23, 31, 37, 47]


def test_prime_filter_conj13_skips_five():
    ok, skipped = _split("conj1.3", {}, 3, 20)
    assert ok == [3, 7, 11, 13, 17, 19]
    assert skipped == [5]


def test_only_prop22_and_lemmas_override_the_p_stable_rule():
    # every other claim runs where its own arguments are p-stable: a new
    # claim states no congruence-class rule of its own
    assert {c.id for c in checks.CLAIMS.values()
            if c.admissible is not checks._p_stable} == {"prop2.2", "lemmas"}


def test_p_stability_equals_the_congruence_class_rules_it_replaced():
    sets = [(c, {"d": d}) for c in ("thm2.4", "thm2.5") for d in range(2, 41)]
    sets += [("thm2.6", {"d": d, "d2": d2}) for d in range(2, 25) for d2 in range(2, 25)]
    sets += [("thm2.7", {"d": d, "r": r}) for d in range(4, 41) for r in range(2, d - 1)
             if math.gcd(r, d) == 1]
    sets += [(c, {}) for c in ("conj1.3", "ao", "beukers")]
    primes = padic.primes_in(3, 499)
    differ = []
    for cid, q in sets:
        c = checks.CLAIMS[cid]
        args = c.args(q)
        differ += [(cid, q, p) for p in primes
                   if c.admissible(p, args) != oracles.congruence_class_rule(cid, p, q)]
    assert len(sets) * len(primes) == 96_068
    assert differ == []


def test_g_rows_fail_at_coprime_primes_that_are_not_p_stable():
    # the rule is needed, not only safe: at the primes it rejects, though p
    # divides no denominator, the congruence fails in all rows but one
    sets = [(cid, q) for cid in ("thm2.4", "thm2.5", "thm2.6", "thm2.7")
            for q in checks.CLAIMS[cid].grid]
    sets += [(cid, {"d": d}) for cid in ("thm2.4", "thm2.5") for d in (8, 10)]
    sets += [("thm2.7", {"d": 7, "r": 2})]
    rows = []
    for cid, q in sets:
        c = checks.CLAIMS[cid]
        args = tuple(c.args(q))
        for _, _, p in c.plan(7, 97, q)[1]:
            if all(p % a.denominator for a in args):
                task = checks.Task(cid, dict(q), args, p, c.mod, checks.DEFAULT_SEED, 97)
                rows += [r for r in checks.run_task(task) if r.claim == cid]
    assert len(rows) == 96
    assert [(r.claim, r.params, r.p) for r in rows if r.passed] == [("thm2.4", {"d": 10}, 7)]


# the 14 Rodriguez-Villegas families, then six closed sets of two and three
CLOSED_SETS = oracles.RV_FAMILIES + ["1/2,1/2", "1/3,2/3", "1/4,3/4", "1/6,5/6", "1/2,1/3,2/3",
                                     "1/2,1/4,3/4"]


@pytest.mark.parametrize("args", CLOSED_SETS)
def test_thm23_runs_at_every_prime_of_a_closed_set(args):
    # a set closed under every a -> <k a> is p-stable at every p prime to its
    # denominators: all 22 primes of 7..97, split or not
    tasks, skipped = checks.CLAIMS["thm2.3"].plan(7, 97, {"args": args})
    assert len(tasks) == 22 and skipped == []
    assert all(r.passed for r in checks.run_tasks(tasks))


def test_cli_thm23_skips_only_the_primes_where_its_set_is_not_p_stable():
    code, out, err = _main("check", "thm2.3", "--args", "1/3,2/3", "--p-range", "7..97",
                           "--format", "json")
    assert code == 0 and err == ""
    assert [row["p"] for row in json.loads(out)] == padic.primes_in(7, 97)
    # {1/3, 1/2, 5/6} is p-stable only at p = 1 mod 6, the split primes
    code, out, err = _main("check", "thm2.3", "--args", "1/3,1/2,5/6", "--p-range", "7..97",
                           "--format", "json")
    assert code == 0
    assert [row["p"] for row in json.loads(out)] == [p for p in padic.primes_in(7, 97)
                                                     if p % 6 == 1]
    assert len(err.splitlines()) == 11


# every multiset of n + 1 = 2, 3 or 4 fractions with denominators <= 4 and
# sum >= n - 1, the hypothesis of theorem 2.3
SMALL_SETS = [s for size in (2, 3, 4) for s in itertools.combinations_with_replacement(
    [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4)], size)
    if sum(s) >= size - 2]


def _thm23_verdicts(mod):
    """(sum == n - 1, passed) for every thm2.3 row mod p^mod on SMALL_SETS, at
    the p-stable primes in 7..31."""
    tasks = []
    for args in SMALL_SETS:
        tasks += checks.CLAIMS["thm2.3"].plan(7, 31, {"args": ",".join(map(str, args))}, mod)[0]
    # the args text has n commas
    return [(Fraction(r.params["S"]) == r.params["args"].count(",") - 1, r.passed)
            for r in checks.run_tasks(tasks)]


def test_thm23_negative_controls_on_the_small_sets(monkeypatch):
    assert len(SMALL_SETS) == 85
    edge, above = {}, {}
    for k in (2, 3, 4):
        verdicts = _thm23_verdicts(k)
        edge[k] = [ok for at_edge, ok in verdicts if at_edge]
        above[k] = [ok for at_edge, ok in verdicts if not at_edge]
    # sum = n - 1: the congruence holds one power more, mod p^3, and not mod p^4
    assert edge[2] == edge[3] == [True] * 55
    assert len(edge[4]) == 55 and edge[4].count(False) >= 54
    # sum > n - 1: p^2 is sharp
    assert above[2] == [True] * 222
    assert len(above[3]) == 222 and above[3].count(False) >= 211
    # sum = n - 1 without s(p) p: every row fails mod p^2
    monkeypatch.setattr(checks, "s_factor", lambda fracs, p, N: PadicValue.zero(p))
    dropped = [ok for at_edge, ok in _thm23_verdicts(2) if at_edge]
    assert len(dropped) == 55 and dropped.count(False) >= 55


def test_prime_filter_records_two_as_skipped():
    ok, skipped = _split("beukers", {}, 2, 7)
    assert ok == [3, 5, 7]
    assert skipped == [2]  # every claim needs an odd prime: 2 is recorded, not dropped


def test_default_args_for_dlists():
    # the prop2.2 default grid: canonical numerators for each d-list shape
    cases = {
        (2, 2): [Fraction(1, 2), Fraction(1, 2)],
        (3, 3): [Fraction(1, 3), Fraction(2, 3)],
        (2, 3, 3): [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)],
        (2, 2, 2, 2): [Fraction(1, 2)] * 4,
        (5, 5, 5, 5): [Fraction(k, 5) for k in (1, 2, 3, 4)],
    }
    grid = [checks.parse_args(q["args"]) for q in checks.CLAIMS["prop2.2"].grid]
    assert len(grid) == len(cases)
    for args, (ds, expect) in zip(grid, cases.items()):
        assert tuple(a.denominator for a in args) == ds
        assert args == expect


def test_theorem23_delta_branches():
    # two halves: argument sum 1 > n-1 = 0, correction inactive
    reports = _task("thm2.3", [5, 13], args="1/2,1/2")
    assert len(reports) == 2 and all(r.passed for r in reports)
    # four halves: argument sum 2 = n-1, correction p * prod(Gamma) required
    reports = _task("thm2.3", [11], args="1/2,1/2,1/2,1/2")
    assert len(reports) == 1 and all(r.passed for r in reports)
    # without the correction the congruence must fail
    from padichyp.gfunction import GArguments, g_function
    from padichyp.hyp import HypParams, truncated_hyp
    from padichyp.padic import congruent_mod
    p = 11
    g = g_function(GArguments(p, (Fraction(1, 2),) * 4, 3))
    t = truncated_hyp(HypParams((Fraction(1, 2),) * 4, (Fraction(1),) * 3,
                                Fraction(1), p - 1), p, 3)
    assert not congruent_mod(g, t, 2)


@pytest.mark.parametrize("claim, primes, params", [
    ("thm2.6", [7, 13, 31], {"d": 2, "d2": 3}),
    ("thm2.7", [11, 19, 29], {"d": 5, "r": 2}),
])
def test_g_vs_trunc_fails_without_the_sp_term(monkeypatch, claim, primes, params):
    # argument sum n - 1: the congruence needs s(p) p, whose valuation is 1
    args = checks.CLAIMS[claim].args(params)
    assert sum(args) == len(args) - 2
    rows = [r for r in _task(claim, primes, **params) if r.claim == claim]
    assert len(rows) == len(primes) and all(r.passed for r in rows)
    monkeypatch.setattr(checks, "s_factor", lambda fracs, p, N: PadicValue.zero(p))
    rows = [r for r in _task(claim, primes, **params) if r.claim == claim]
    assert len(rows) == len(primes)
    assert all(not r.passed and r.diff_valuation == 1 for r in rows)


def _grid_rows(claim, row_claim):
    """The row_claim rows of claim's default grid."""
    tasks, _ = checks.CLAIMS[claim].plan()
    return [r for t in tasks for r in checks.run_task(t) if r.claim == row_claim]


@pytest.mark.parametrize("claim", ["thm2.4", "thm2.5"])
def test_g_vs_trunc_fails_with_p_to_the_k_minus_1_on_the_truncated_side(monkeypatch, claim):
    k = checks.CLAIMS[claim].mod
    base = _grid_rows(claim, claim)
    assert base and all(r.passed for r in base)
    truncated = checks._truncated
    monkeypatch.setattr(checks, "_truncated", lambda args, p, N: (
        truncated(args, p, N) + rational_to_padic(p ** (k - 1), p, N)))
    rows = _grid_rows(claim, claim)
    assert len(rows) == len(base)
    assert all(not r.passed and r.diff_valuation == k - 1 for r in rows)


def test_thm26_sign_rows_fail_with_the_sign_negated(monkeypatch):
    base = _grid_rows("thm2.6", "thm2.6-sign")
    assert base and all(r.passed for r in base)
    sign = checks.theorem26_sign
    monkeypatch.setattr(checks, "theorem26_sign", lambda p, d1, d2: -sign(p, d1, d2))
    rows = _grid_rows("thm2.6", "thm2.6-sign")
    assert len(rows) == len(base)
    assert all(not r.passed and r.diff_valuation == 0 for r in rows)


def test_prop22_fails_with_a_shifted_greene_table_entry(monkeypatch):
    tasks, _ = checks.CLAIMS["prop2.2"].plan()
    assert all(r.passed for t in tasks for r in checks.run_task(t))
    build = characters.binomial_table

    def shifted(A, B, N):
        table = build(A, B, N)
        return (table[0] + 1, *table[1:])

    monkeypatch.setattr(characters, "binomial_table", shifted)
    rows = [r for t in tasks for r in checks.run_task(t)]
    assert len(rows) == len(tasks)
    assert all(not r.passed for r in rows)


def test_thm11_fails_without_its_minus_p_term(monkeypatch):
    primes = checks.primes_in(7, 61)
    series = checks.greene_series_scaled
    # the Greene series plus p, so that series - p is the bare series
    monkeypatch.setattr(checks, "greene_series_scaled", lambda top, bottom, x, N: (
        series(top, bottom, x, N) + rational_to_padic(top[0].prime, top[0].prime, N)))
    rows = [r for r in _task("ao", primes) if r.claim == "thm1.1"]
    assert len(rows) == len(primes)
    assert all(not r.passed and r.diff_valuation == 1 for r in rows)


@pytest.fixture
def perturb_form(monkeypatch):
    """monkeypatch.setattr for a change to a modular form.  It also clears
    the per-process form memo, so that no form built before the change is
    reused after it, and clears it again when the test ends."""
    def perturb(target, name, value):
        monkeypatch.setattr(target, name, value)
        checks._form.cache_clear()
    yield perturb
    checks._form.cache_clear()


def test_thm12_and_beukers_fail_with_shifted_form_coefficients(perturb_form):
    form = checks.gamma_coeffs
    perturb_form(checks, "gamma_coeffs", lambda M: QSeries(
        form(M).offset, [c + 1 for c in form(M).coeffs], M))
    primes = checks.primes_in(7, 61)
    ao = _task("ao", primes)
    assert [r.passed for r in ao if r.claim == "thm1.1"] == [True] * len(primes)
    rows = [r for r in ao if r.claim == "thm1.2"] + _task("beukers", checks.primes_in(3, 97))
    assert len(rows) == len(primes) + len(checks.primes_in(3, 97))
    assert all(not r.passed and r.diff_valuation == 0 for r in rows)


def test_thm12_fails_when_the_deligne_bound_fails(perturb_form):
    # a coefficient past |a(p)| <= 2 p^(3/2) fails its row even where the
    # congruence holds; the thm1.1 rows read no form
    perturb_form(checks, "hecke_bound_ok", lambda form, p: False)
    rows = _grid_rows("ao", "thm1.2")
    assert len(rows) == len(checks.primes_in(7, 61)) == 15
    assert all(not r.passed and r.diff_valuation is None and r.params["deligne_ok"] is False
               for r in rows)
    rows = _grid_rows("ao", "thm1.1")
    assert len(rows) == 15 and all(r.passed for r in rows)


def test_conj13_fails_with_a_changed_form_weight(perturb_form):
    primes = [p for p in checks.primes_in(3, 97) if p != 5]
    assert all(r.passed for r in _task("conj1.3", primes))
    perturb_form(qseries, "_RV_WEIGHTS", (2, 5, 20, 25, 25))
    rows = _task("conj1.3", primes)
    main = [r for r in rows if r.claim == "conj1.3"]
    assert len(main) == len(primes) and all(not r.passed for r in main)
    assert all(r.passed for r in rows if r.claim == "conj1.3-framework")


@pytest.mark.parametrize("i", [1, 2, 3])
def test_conj13_fails_with_another_wrong_weight(perturb_form, i):
    # f5 = q^5 (...)(q^5) has no coefficient at a prime p != 5, so its weight
    # cannot show; each of f2..f4 moves c(p) at some primes of the grid
    primes = [p for p in checks.primes_in(3, 97) if p != 5]
    weights = list(qseries._RV_WEIGHTS)
    weights[i] += 1
    perturb_form(qseries, "_RV_WEIGHTS", tuple(weights))
    rows = _task("conj1.3", primes)
    assert any(not r.passed for r in rows if r.claim == "conj1.3")
    assert all(r.passed for r in rows if r.claim == "conj1.3-framework")


@pytest.mark.parametrize("claim, row_claim", [
    ("prop2.2", "prop2.2"), ("thm2.4", "thm2.4"), ("conj1.3", "conj1.3-framework")])
def test_g_rows_fail_with_the_reflection_sign_flipped(monkeypatch, claim, row_claim):
    base = _grid_rows(claim, row_claim)
    assert base and all(r.passed for r in base)
    signs = gfunction._reflection_signs
    monkeypatch.setattr(gfunction, "_reflection_signs", lambda reps: signs([r + 1 for r in reps]))
    rows = _grid_rows(claim, row_claim)
    assert len(rows) == len(base)
    assert any(not r.passed for r in rows)
    if claim == "prop2.2":
        # with every argument 1/2 the flipped signs cancel in pairs; any
        # other argument set fails at every prime
        for r in rows:
            assert r.passed == (set(r.params["args"].split(",")) == {"1/2"}), r.params


def test_g_rows_fail_without_the_teichmuller_twist(monkeypatch):
    # omega(m)^k read as 1 in every twisted row of the column plan: the closed
    # sets of thm2.4 and the quintic set of conj1.3-framework fail at all
    # primes but one or two, and thm2.4's pair (1/5, 4/5), which is not
    # closed and goes by the index plan, still passes everywhere
    padic._at_prime(None)
    monkeypatch.setattr(gfunction, "_teichmuller", lambda m, p, N: 1)
    rows = _grid_rows("thm2.4", "thm2.4")
    for d in (3, 4, 6):
        assert [r.passed for r in rows if r.params["d"] == d].count(False) == 21 == \
            len(checks.primes_in(7, 97)) - 1, d
    assert all(r.passed for r in rows if r.params["d"] == 5)
    rows = _grid_rows("conj1.3", "conj1.3-framework")
    assert len(rows) == 23 and [r.passed for r in rows].count(False) == 21


def test_power_sum_rows_fail_when_the_sum_is_perturbed(monkeypatch):
    rows = [r for r in _task("lemmas", [7, 11]) if r.claim == "eq3.2"]
    assert len(rows) == 2 * (6 + 10) and all(r.passed for r in rows)
    # one more than each true power sum: pow is looked up in the checks module
    monkeypatch.setattr(checks, "pow", lambda j, k, p: pow(j, k, p) + (j == 1), raising=False)
    rows = [r for r in _task("lemmas", [7, 11]) if r.claim == "eq3.2"]
    assert len(rows) == 2 * (6 + 10)
    assert all(not r.passed and r.diff_valuation == 0 for r in rows)


def test_theorem23_precondition():
    with pytest.raises(ValueError):  # argument sum < n-1, when the arguments are derived
        _task("thm2.3", [7], args=",".join(["1/9"] * 6))
    with pytest.raises(ValueError):  # rejected when planned, before any check runs
        checks.CLAIMS["thm2.3"].plan(params={"args": ",".join(["1/9"] * 6)})


def test_ao_agrees_with_quartic_halves_route():
    # same claim reached through the character sum and through the G function
    from padichyp.characters import Character, greene_series_scaled
    from padichyp.gfunction import GArguments, g_function
    from padichyp.padic import congruent_mod
    for p in (7, 13):
        phi, eps = Character.quadratic(p), Character.trivial(p)
        series = greene_series_scaled([phi] * 4, [eps] * 3, 1, 5)
        g = g_function(GArguments(p, (Fraction(1, 2),) * 4, 5))
        assert congruent_mod(series, g, 5)
    reports = _task("ao", [7, 13]) + _task("thm2.6", [7, 13], d=2, d2=2)
    assert all(r.passed for r in reports)


def test_beukers_hand_instances():
    reports = _task("beukers", [3, 5])
    by_p = {r.p: r for r in reports}
    assert by_p[3].params == {"A": "5", "gamma": -4}
    assert (5 - (-4)) % 9 == 0
    assert by_p[5].params == {"A": "73", "gamma": -2}
    assert (73 - (-2)) % 25 == 0
    assert all(r.passed for r in reports)


def test_report_schema_and_pass_recomputable():
    reports = _task("thm2.6", [7], d=2, d2=3)
    d = json.loads(_text(reports, "json"))[0]
    assert list(d.keys()) == ["schema", "claim", "p", "params", "mod_power",
                              "lhs", "rhs", "diff_valuation", "pass", "ms"]
    assert d["schema"] == 1 and d["ms"] is None
    for r in reports:
        if r.mod_power == 0:
            continue
        lhs = Fraction(r.lhs_unit) * Fraction(r.p) ** (r.lhs_val or 0) \
            if r.lhs_val is not None else Fraction(0)
        rhs = Fraction(r.rhs_unit) * Fraction(r.p) ** (r.rhs_val or 0) \
            if r.rhs_val is not None else Fraction(0)
        diff = lhs - rhs
        if diff == 0:
            recomputed = True
        else:
            v = valuation_of_int(diff.numerator, r.p) - valuation_of_int(diff.denominator, r.p)
            recomputed = v >= r.mod_power
        assert recomputed == r.passed


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-10**30, 10**30), st.text(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.fractions(max_denominator=10**6))
_flat_params = st.dictionaries(
    st.text(), st.one_of(st.none(), st.booleans(), st.integers(-10**30, 10**30), st.text()))
_any_params = st.dictionaries(
    st.one_of(st.text(), st.integers(), st.booleans(), st.none()),
    st.recursive(_scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.tuples(inner, inner),
        st.dictionaries(st.text(), inner, max_size=4)), max_leaves=12),
    max_size=5)
_reports = st.builds(
    CongruenceReport, st.text(), st.integers(-10**30, 10**30),
    st.one_of(_flat_params, _any_params, st.lists(st.integers()).map(lambda v: {"v": v})),
    st.integers(-10**30, 10**30), st.none() | st.integers(-10**30, 10**30),
    st.integers(-10**30, 10**30), st.none() | st.integers(-10**30, 10**30),
    st.integers(-10**30, 10**30), st.none() | st.integers(-10**30, 10**30), st.booleans())


@given(st.lists(_reports, max_size=4))
@settings(max_examples=200, deadline=None)
@example([])
@example([CongruenceReport('c"\\\n\x00é', 7, {"x": '1/2"\t', "j": -10**25, "t": True,
                                                 "f": False, "n": None, "é": "😀"},
                           4, None, 0, -1, 5, None, False)])
@example([CongruenceReport("c", 7, {"l": [1, -2], "q": Fraction(-1, 3),
                                    "f": [float("nan"), float("inf"), -float("inf"), 0.1],
                                    "d": {"a": {"b": [], "c": {}}}, "t": (1, "2")},
                           1, 0, 1, 0, 1, 3, True),
          CongruenceReport("c", 7, {}, 1, 0, 1, 0, 1, 3, True),
          CongruenceReport("c", 7, {1: "int key", None: 2, 2.5: 3, False: 4}, 1, 0, 1, 0, 1, 3, True)])
def test_json_writer_equals_the_json_dumps_oracle(reports):
    assert _text(reports, "json") == oracles.reports_to_json(reports)


@given(st.lists(_reports, max_size=4))
@settings(max_examples=200, deadline=None)
@example([CongruenceReport("c", 7, {"x": '1/2"\t', "j": -10**25, "t": True, "n": None,
                                    "é": "😀"}, 4, None, 0, -1, 5, None, False)])
def test_csv_and_human_writers_equal_their_oracles(reports):
    assert _text(reports, "human") == oracles.reports_to_human(reports)
    try:
        want = oracles.reports_to_csv(reports)
    except TypeError:  # json.dumps cannot sort keys of mixed types
        with pytest.raises(TypeError):
            _text(reports, "csv")
    else:
        assert _text(reports, "csv") == want


# params whose keys json.dumps(sort_keys=True) can sort: all str or all int
_sort_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-12, 12), st.text("1/2 é😀\"", max_size=3),
              st.floats(allow_nan=True, allow_infinity=True)),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.tuples(inner, inner),
                            st.dictionaries(st.text("ab", max_size=2), inner, max_size=3)),
    max_leaves=6)
_sort_params = st.one_of(
    st.dictionaries(st.sampled_from(["j", "d", "d2", "x", "é", "A"]),
                    st.one_of(st.integers(-12, 12), st.text("1/20 é", max_size=3), _sort_values),
                    max_size=4),
    st.dictionaries(st.integers(-3, 3), _sort_values, max_size=3))
_sortable_reports = st.builds(
    lambda claim, p, params: CongruenceReport(claim, p, params, 1, 0, 1, 0, 1, None, True),
    st.sampled_from(["thm2.4", "thm2.6", "é"]), st.sampled_from([0, 7, 11]), _sort_params)


@given(st.lists(_sortable_reports, max_size=12))
@settings(max_examples=300, deadline=None)
@example([CongruenceReport("c", 7, params, 1, 0, 1, 0, 1, None, True)
          for params in ({"j": 10}, {"j": 2}, {"j": "2"}, {"j": "10"}, {"j": 2}, {},
                         {"j": True}, {"j": None}, {"j": [2]}, {"j": (10,)},
                         {"j": {"b": 1, "a": 2}}, {2: 1}, {10: 1}, {"j": "é"}, {"j": "z"})])
def test_sort_order_equals_the_json_dumps_oracle(reports):
    assert all(report._params_text(r.params) == json.dumps(r.params, sort_keys=True, default=str)
               for r in reports)
    want = [id(r) for r in sorted(reports, key=oracles.sort_key)]
    assert [id(r) for r in sort_reports(list(reports))] == want  # ties keep their order


def test_csv_columns_mirror_schema():
    reports = _task("thm2.4", [7], d=3)
    text = _text(reports, "csv")
    header = text.splitlines()[0].split(",")
    assert header == CSV_COLUMNS


def test_unknown_report_format_raises():
    buf = io.StringIO()
    with pytest.raises(KeyError):
        write_reports(_task("thm2.4", [7], d=3), "xml", buf)
    assert buf.getvalue() == ""


def test_runner_is_deterministic_across_jobs():
    tasks, _ = checks.CLAIMS["thm2.4"].plan(7, 31, {"d": 3})
    serial = checks.run_tasks(tasks, jobs=1)
    parallel = checks.run_tasks(tasks, jobs=2)
    assert _text(serial, "json") == _text(parallel, "json")


def _held():
    """What each per-prime memo holds: an lru_cache's size, a dict's entries."""
    return [m.cache_info().currsize if hasattr(m, "cache_info")
            else {k: dict(v) for k, v in m.items()} for m in padic._PRIME_MEMOS]


def test_reports_do_not_alias_the_registry_grids():
    # reports keep their rows' params dicts; a plan gives its tasks its own
    # copies of the grid dicts, so no report holds one of the registry's
    grids = {cid: copy.deepcopy(c.grid) for cid, c in checks.CLAIMS.items()}
    reports, _ = checks.run_config(checks.RunConfig())
    for r in reports:
        r.params["written after the run"] = True
    assert {cid: c.grid for cid, c in checks.CLAIMS.items()} == grids


def test_the_per_prime_memos_are_the_seven_prime_scoped_tables():
    # six keyed by a prime, and the harmonic tables, whose lengths a task's
    # prime sets
    memos = (gamma._value_cache, gamma._horner_data, characters._dlog_table,
             characters._omega_powers, checks._truncated, combinatorics._scaled_harmonic,
             gfunction._closed_rows)
    assert sorted(map(id, padic._PRIME_MEMOS)) == sorted(map(id, memos))


@pytest.mark.parametrize("claim, lo, hi", [("conj1.3", 3, 97), ("ao", 7, 61)])
def test_a_run_leaves_the_tables_of_its_last_prime_alone(claim, lo, hi):
    checks.run_tasks(checks.CLAIMS[claim].plan(lo, hi)[0])
    after_range = _held()
    assert all(key[0] == hi for key in gamma._value_cache)
    assert checks._truncated.cache_info().currsize == 1
    padic._at_prime(None)
    assert not any(_held())
    checks.run_tasks(checks.CLAIMS[claim].plan(hi, hi)[0])
    assert _held() == after_range


def test_run_tasks_goes_prime_by_prime_with_the_prime_free_task_first(monkeypatch):
    tasks, _ = checks.RunConfig().plan()
    seen = []
    monkeypatch.setattr(checks, "run_task", lambda t: seen.append(t) or [])
    assert checks.run_tasks(tasks, jobs=1) == []
    assert sorted(seen, key=id) == sorted(tasks, key=id)
    assert seen[0].p is None and all(t.p is not None for t in seen[1:])
    primes = [t.p for t in seen[1:]]
    assert primes == sorted(primes)
    for p in set(primes):  # stable: the plan's order at each prime
        assert [t for t in seen if t.p == p] == [t for t in tasks if t.p == p]


def test_a_pool_runs_all_the_tasks_of_one_prime_in_one_worker(monkeypatch):
    # one unit per prime, so no two workers build the tables of one prime;
    # the patched functions reach the workers through fork
    import multiprocessing
    tasks, _ = checks.RunConfig().plan()
    monkeypatch.setattr(checks, "run_task", lambda t: [(t.p, os.getpid())])
    monkeypatch.setattr(checks, "sort_reports", lambda rows: rows)
    monkeypatch.setattr(checks, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
        concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
    ran = checks.run_tasks(tasks, jobs=2)
    assert len(ran) == len(tasks) == 416
    pids = {}
    for p, pid in ran:
        pids.setdefault(p, set()).add(pid)
    assert len(pids) == 25 and all(len(s) == 1 for s in pids.values())
    assert os.getpid() not in set().union(*pids.values())


def test_run_tasks_derives_no_arguments(monkeypatch):
    # a plan derives each grid point's arguments once, and its tasks carry
    # them: running the check-all plan calls no claim's args
    calls = []
    for cid, c in checks.CLAIMS.items():
        fields = dict(zip(c.__slots__, c._values()))
        fields["args"] = lambda q, args=c.args: calls.append(q) or args(q)
        monkeypatch.setitem(checks.CLAIMS, cid, checks.Claim(**fields))
    tasks, _ = checks.RunConfig().plan()
    assert len(calls) == sum(len(c.grid) for c in checks.CLAIMS.values())
    for q in {id(t.params): t.params for t in tasks}.values():
        assert len({id(t.args) for t in tasks if t.params is q}) == 1
    calls.clear()
    assert len(checks.run_tasks(tasks)) == 10_343
    assert calls == []


@pytest.mark.parametrize("argv", [["check", "thm2.4", "--p-range", "7..13"], ["check-all"]],
                         ids=["check", "check-all"])
def test_cli_runs_its_checks_through_run_config(monkeypatch, argv):
    # perfbench/run.py times the CLI's set-up with checks.run_config stubbed
    # out like this; a CLI that ran its tasks another way would time a check
    calls = []
    monkeypatch.setattr(checks, "run_config", lambda cfg: calls.append(cfg) or ([], []))
    monkeypatch.setattr(checks, "run_tasks", lambda *a: pytest.fail("a check ran"))
    code, out, _ = _main(*argv, "--format", "json")
    assert (code, json.loads(out), len(calls)) == (0, [], 1)


def test_run_config_plan_and_override():
    cfg = checks.RunConfig(claim="thm2.4", p_min=7, p_max=13,
                           params={"d": 3}, mod_power=1)
    reports, skipped = checks.run_config(cfg)
    assert [r.p for r in reports] == [7, 11, 13]
    assert all(r.mod_power == 1 and r.passed for r in reports)
    defaults = checks.RunConfig()
    tasks, _ = defaults.plan()
    assert {t[0] for t in tasks} >= {"prop2.2", "thm2.6", "conj1.3", "lemmas"}


@pytest.mark.parametrize("call, message", [
    (lambda: checks.RunConfig(claim="nope").plan(), "unknown claim id: nope"),
    (lambda: checks.RunConfig(p_min=7).plan(),
     "check-all takes no prime range, modulus or claim parameter"),
    (lambda: combinatorics.apery(-1), "Apery numbers need n >= 0"),
], ids=["unknown-claim", "check-all-range", "apery"])
def test_api_rejects_bad_input_with_a_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_lemma_tasks_include_rational_identities():
    tasks, skipped = checks.CLAIMS["lemmas"].plan()
    assert {t.claim for t in tasks} == {"lemmas"}
    # one task per prime, then the prime-independent rational identities
    assert [t.p for t in tasks] == [7, 11, 13, None]
    tasks, skipped = checks.CLAIMS["lemmas"].plan(3, 13)
    assert any(s[2] in (3, 5) for s in skipped)  # p < 7 recorded, not run


def test_every_lemma_report_comes_out_of_evaluate(monkeypatch):
    made = []
    evaluate = checks._evaluate

    def recorded(p, rows):
        out = evaluate(p, rows)
        made.extend(out)
        return out

    monkeypatch.setattr(checks, "_evaluate", recorded)
    reports = _task("lemmas", [7])
    assert {r.claim for r in reports} >= {"eq3.2", "lemmaP", "lemmaQ", "lemma3.9", "prop3.8"}
    assert len(made) == len(reports) and all(a is b for a, b in zip(made, reports))


def test_run_task_makes_its_reports_by_one_evaluate_call(monkeypatch):
    calls = []
    evaluate = checks._evaluate

    def recorded(p, rows):
        out = evaluate(p, rows)
        calls.append((p, out))
        return out

    monkeypatch.setattr(checks, "_evaluate", recorded)
    for claim in checks.CLAIMS.values():
        if not claim.grid:  # thm2.3
            continue
        tasks, _ = claim.plan()
        for task in tasks[:1] + [t for t in tasks if t.p is None]:
            calls.clear()
            reports = checks.run_task(task)
            assert [p for p, _ in calls] == [task.p], (claim.id, task.p)
            assert type(reports) is list and reports is calls[0][1], (claim.id, task.p)


# -- CLI ---------------------------------------------------------------------


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "padichyp.cli", *args],
                          capture_output=True, text=True)


def test_cli_gamma_value():
    r = _cli("gamma", "1/3", "--p", "7", "--precision", "2")
    assert r.returncode == 0
    assert "25 * 7^0" in r.stdout


def test_cli_check_pass_and_json_schema():
    r = _cli("check", "thm2.4", "--d", "3", "--p", "7", "--format", "json")
    assert r.returncode == 0
    rows = json.loads(r.stdout)
    assert len(rows) == 1
    assert rows[0]["claim"] == "thm2.4" and rows[0]["pass"] is True
    assert rows[0]["ms"] is None


def test_cli_check_failure_exit_code():
    # the quadratic congruence genuinely fails one power higher
    r = _cli("check", "thm2.4", "--d", "3", "--p", "7", "--precision", "3")
    assert r.returncode == 1
    assert "thm2.4" in r.stderr


def test_cli_inadmissible_single_prime_is_usage_error():
    r = _cli("check", "conj1.3", "--p", "5")
    assert r.returncode == 2
    r = _cli("check", "thm2.4", "--d", "5", "--p", "7")
    assert r.returncode == 2


def test_cli_skipped_primes_are_reported():
    r = _cli("check", "thm2.7", "--d", "7", "--r", "2", "--p-range", "3..30",
             "--format", "json")
    assert r.returncode == 0
    assert "skipped p=3" in r.stderr
    assert "skipped p=5" in r.stderr


def test_cli_prime_range_holding_two_reports_it_skipped():
    r = _cli("check", "beukers", "--p-range", "2..7", "--format", "json")
    assert r.returncode == 0
    assert [x["p"] for x in json.loads(r.stdout)] == [3, 5, 7]
    assert r.stderr == "skipped p=2 for beukers (): precondition not met\n"
    for p_range, message in [("1..2", "no prime in 1..2 satisfies the preconditions of beukers"),
                             ("2..2", "p=2 is not an odd prime")]:
        r = _cli("check", "beukers", "--p-range", p_range)
        assert r.returncode == 2 and message in r.stderr, p_range


def test_cli_unknown_claim_is_usage_error():
    r = _cli("check", "thm9.9")
    assert r.returncode == 2


def test_cli_csv_output():
    r = _cli("check", "beukers", "--p", "7", "--format", "csv")
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == ",".join(CSV_COLUMNS)


def test_cli_trunc_exact_value():
    r = _cli("trunc", "--args", "1/2,1/2", "-m", "2")
    assert r.returncode == 0
    assert r.stdout.strip() == "89/64"


def test_cli_trunc_prints_its_exact_value_past_4300_digits():
    # CPython caps int -> str at 4300 digits by default; the CLI lifts the
    # cap for its process, which in-process runs share
    code, out, err = _main("trunc", "--args", "1/2,1/2,1/2,1/2", "-m", "2500")
    exact = truncated_hyp_exact(HypParams((Fraction(1, 2),) * 4, (Fraction(1),) * 3,
                                          Fraction(1), 2500))
    assert code == 0 and err == ""
    assert len(str(exact.denominator)) > 4300 and out == f"{exact}\n"


@pytest.mark.parametrize("argv, message", [
    (["-m", "600"], "truncation beyond p - 1 is outside the guaranteed range"),
    (["--z", "1/7"], "parameters must be p-integral"),
])
def test_cli_trunc_rejects_its_reduction_before_the_exact_sum(monkeypatch, argv, message):
    # the reduction's checks come first: a rejected --p costs no exact sum
    def exact(params):
        raise AssertionError("the exact sum ran before the reduction was checked")

    monkeypatch.setattr(cli, "truncated_hyp_exact", exact)
    code, out, err = _main("trunc", "--args", "1/2,1/2", "--p", "7", *argv)
    assert code == 2 and out == "" and message in err


def test_cli_trunc_reduces_to_three_digits_by_default():
    code, out, _ = _main("trunc", "--args", "1/2,1/2", "--p", "7")
    assert code == 0
    assert out.splitlines()[1].endswith("+ O(7^3)")


@pytest.mark.parametrize("argv, stdout", [
    (["gfun", "--args", "1/2,1/2", "--p", "7", "--precision", "4"], "2400 * 7^0 + O(7^4)\n"),
    (["greene", "--args", "1/3,2/3", "--p", "7", "--x", "7"], "0 + O(7^inf)\n"),  # exact zero
    # eta(q)^24 = Delta: Ramanujan's tau(1..5)
    (["qexp", "--eta", "1^24", "--truncation", "5"], "1 1\n2 -24\n3 252\n4 -1472\n5 4830\n"),
    (["qexp", "--form", "gamma", "--truncation", "9"],
     "1 1\n2 0\n3 -4\n4 0\n5 -2\n6 0\n7 24\n8 0\n9 -11\n"),
    # a negative fraction or comma list is an argument, not an option
    (["gamma", "-1/3", "--p", "7"], "141 * 7^0 + O(7^3)\n"),
    (["trunc", "--args", "1/2,1/2", "-m", "3", "--z", "-1/2"], "1839/2048\n"),
    (["trunc", "--args", "-1/2,1/2", "-m", "3"], "175/256\n"),
    (["trunc", "--args", "1/2,1/2", "-m", "3", "--z", "-1e3"], "-97515874\n"),
], ids=["gfun", "greene-zero", "qexp-eta", "qexp-form-gamma", "gamma-negative-x",
        "trunc-negative-z", "trunc-negative-args", "trunc-negative-exponent-z"])
def test_cli_value_commands_print_their_values(argv, stdout):
    assert _main(*argv) == (0, stdout, "")


def test_cli_check_parameter_help_names_the_claims_that_take_it():
    ap = cli.build_parser()
    (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {a.dest: a.help for a in sub.choices["check"]._actions}
    for name in checks.PARAMS:
        takers = [c.id for c in checks.CLAIMS.values() if name in c.accepts]
        assert helps[name] == "taken by " + ", ".join(takers)
    assert helps["d2"] == "taken by thm2.6"
    code, out, _ = _main("check", "--help")
    assert code == 0 and "taken by prop2.2, thm2.3" in out


def test_cli_seed_moves_only_the_lemmas_claim():
    # what the --seed help says
    def run(seed, *argv):
        return _main(*argv, "--format", "json", "--seed", str(seed))

    for argv in (["check", "ao", "--p", "7"], ["check", "thm2.4", "--d", "3", "--p", "7"]):
        assert run(1, *argv) == run(2, *argv)
    assert run(1, "check", "lemmas", "--p", "7")[1] != run(2, "check", "lemmas", "--p", "7")[1]


def test_cli_qexp_csv(tmp_path):
    out = tmp_path / "coeffs.csv"
    r = _cli("qexp", "--form", "gamma", "--truncation", "9", "--csv", str(out))
    assert r.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,coefficient" and lines[1] == "1,1"


def _main(*argv):
    """In-process CLI run: (exit code, stdout, stderr); argparse usage errors
    arrive as SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, message", [
    (["check", "prop2.2", "--d", "2"], "prop2.2 does not accept --d"),
    (["check", "thm2.6", "--d", "3"], "thm2.6 takes --d and --d2 together"),
    (["check", "thm2.7", "--d", "5"], "thm2.7 takes --d and --r together"),
    (["check", "thm2.4", "--args", "1/2,1/2"], "thm2.4 does not accept --args"),
    (["check", "beukers", "--d", "3"], "beukers does not accept --d"),
    (["check", "ao", "--precision", "3"], "takes no --precision"),
    (["check", "lemmas", "--precision", "3"], "takes no --precision"),
    (["check", "thm2.4", "--precision", "0"], "--precision must be >= 1"),
    (["check", "thm2.4", "--p-range", "30..3"], "empty prime range 30..3"),
    (["check", "thm2.4", "--p-range", "7"], "want A..B"),
    (["check", "thm2.4", "--p", "9"], "p=9 is not an odd prime"),
    (["check", "thm2.4", "--p", "503"], "exceeds the prime bound"),
    (["check", "thm2.4", "--p", "7", "--p-range", "3..9"], "not allowed with"),
    (["check", "thm2.4", "--jobs", "0"], "--jobs must be >= 1, got 0"),
    (["check-all", "--jobs", "-4"], "--jobs must be >= 1, got -4"),
    (["check", "thm2.4", "--n", "2"], "unrecognized arguments: --n"),
    (["check", "thm2.4", "--d", "1"], "need d >= 2"),
    (["check", "thm2.4", "--d", "5", "--p-range", "7..7"], "no prime in 7..7 satisfies"),
    (["check", "thm2.4", "--d", "1000"], "no prime in 7..97 satisfies"),
    (["check", "thm2.3"], "thm2.3 needs --args"),
    (["check", "thm2.3", "--args", "1/2,1/0"], "--args wants fractions"),
    (["check", "thm2.7", "--d", "6", "--r", "2"], "gcd(r, d) = 1"),
    (["check", "lemmas", "--p", "5"], "no prime in 5..5 satisfies"),
    (["check-all", "--p", "3"], "unrecognized arguments: --p"),
    (["check-all", "--p-range", "3..7"], "unrecognized arguments: --p-range"),
    (["check-all", "--precision", "3"], "unrecognized arguments: --precision"),
    (["check-all", "--sweep-bound", "100"], "unrecognized arguments: --sweep-bound"),
    (["check", "thm2.4", "--timing"], "unrecognized arguments: --timing"),
    (["gamma", "1/3", "--p", "7", "--precision", "0"], "need at least one digit, got N=0"),
    (["gamma", "1/3", "--p", "7", "--precision", "-1"], "need at least one digit, got N=-1"),
    (["gamma", "1/7", "--p", "7", "--precision", "3"],
     "1/7 is not in Z_7: p=7 divides its denominator"),
    (["greene", "--args", "1/2,1/2", "--p", "7", "--precision", "0"],
     "need at least one digit, got N=0"),
    (["qexp", "--form", "rv", "--truncation", "0"], "truncation must be >= 1"),
    (["trunc", "--args", "1/2,1/2", "--p", "7", "--precision", "0"],
     "need at least one digit, got N=0"),
    (["trunc", "--args", "1/2,1/2", "-m", "3", "--precision", "7"], "give --p"),
    (["qexp", "--form", "gamma", "--eta", "1^24"], "--eta: not allowed with argument --form"),
    (["trunc", "--args", "1/2,1/2", "-m", "3", "--p", "0"], "p=0 is not an odd prime"),
    (["trunc", "--args", "1/2,1/2", "-m", "3", "--p", "-7"], "p=-7 is not an odd prime"),
    (["trunc", "--args", "1/2,1/2", "-m", "3", "--p", "9"], "p=9 is not an odd prime"),
    (["trunc", "--args", "1/2,1/2", "--p", "-7"], "p=-7 is not an odd prime"),
    (["gamma", "1/2", "--p", "2"], "p=2 is not an odd prime"),
    (["gamma", "1/2", "--p", "1"], "p=1 is not an odd prime"),
    (["gamma", "1/2", "--p", "0"], "p=0 is not an odd prime"),
    (["gamma", "1/3", "--p", "9"], "p=9 is not an odd prime"),
    (["greene", "--args", "1/2,0", "--p", "7"], "argument 0 is not strictly inside (0, 1)"),
    (["greene", "--args", "1/2,3/2", "--p", "7"], "argument 3/2 is not strictly inside (0, 1)"),
    (["greene", "--args", "1/2,-1/2", "--p", "7"],
     "argument -1/2 is not strictly inside (0, 1)"),
    (["trunc", "--args", ",", "-m", "3"], "--args wants fractions m1/d1,...; field 1 is ''"),
    (["trunc", "--args", "1/2,,1/2", "-m", "3"],
     "--args wants fractions m1/d1,...; field 2 is ''"),
    (["trunc", "--args", "1/0,1/2", "-m", "3"],
     "--args wants fractions m1/d1,...; field 1 is '1/0'"),
    (["trunc", "--args", "1/2,1/2", "--bottom", "x", "-m", "3"],
     "--bottom wants fractions m1/d1,...; field 1 is 'x'"),
    (["gfun", "--args", "1/2,1/2", "--p", "7", "--precision", "0"],
     "need at least one digit, got N=0"),
    (["gamma", "1/0", "--p", "7"], "x wants one fraction m/d; got '1/0'"),
    (["gamma", "x", "--p", "7"], "x wants one fraction m/d; got 'x'"),
    (["gamma", "1/3,1/2", "--p", "7"], "x wants one fraction m/d; got '1/3,1/2'"),
    (["gamma", "", "--p", "7"], "x wants one fraction m/d; got ''"),
    (["trunc", "--args", "1/2,1/2", "-m", "3", "--z", "1/0"],
     "--z wants one fraction m/d; got '1/0'"),
    (["trunc", "--args", "1/2,1/2", "-m", "3", "--z", "x"], "--z wants one fraction m/d; got 'x'"),
    (["trunc", "--args", "1/2,1/2", "-m", "3", "--z", ""], "--z wants one fraction m/d; got ''"),
    (["trunc", "--args", "1/2,1/2", "-m", "3", "--z", "1,2"],
     "--z wants one fraction m/d; got '1,2'"),
    (["qexp", "--eta", "2^x"], "--eta wants s1^e1,...; field 1 is '2^x'"),
    (["qexp", "--eta", "1^24,^4"], "--eta wants s1^e1,...; field 2 is '^4'"),
    (["qexp", "--eta", ""], "--eta wants s1^e1,...; field 1 is ''"),
    (["qexp", "--eta", "1^22,2^"], "--eta wants s1^e1,...; field 2 is '2^'"),
    (["greene", "--args", "1/2,1/2", "--p", "7", "--x", "14", "--precision", "-2"],
     "need at least one digit, got N=-2"),
    (["check", "thm2.4", "--d", "3", "--p", "7", "--format", "csv", "--out", ""],
     "error: [Errno 2] No such file or directory: ''"),
    (["qexp", "--form", "gamma", "--truncation", "3", "--csv", ""],
     "error: [Errno 2] No such file or directory: ''"),
    (["check", "thm2.4", "--p-range", "7..600"],
     "prime range 7..600 exceeds the prime bound 500"),
    (["gfun", "--args", "1/2", "--p", "7"], "--args needs at least two fractions"),
    (["qexp", "--eta", "0^24"], "eta scale must be a positive integer"),
    (["trunc", "--args", "1/2,1/2", "-m", "-1"], "truncation must be >= 0"),
    (["gfun", "--args", "-1/2,1/2", "--p", "7"], "argument -1/2 is not strictly inside (0, 1)"),
    (["trunc", "--args", "1/2,1/2"], "give -m or --p to fix the truncation"),
    (["qexp", "--truncation", "5"], "give --form or --eta"),
])
def test_cli_usage_errors_exit_2(argv, message):
    with patch.object(checks, "run_config") as run:
        code, out, err = _main(*argv)
    assert code == 2
    assert message in err
    assert out == ""  # no partial output before the error
    run.assert_not_called()  # rejected when planned, before any check runs


@pytest.mark.parametrize("argv", [
    ["check", "thm2.4", "--p", "7", "--format", "json", "--out"],
    ["qexp", "--form", "rv", "--truncation", "9", "--csv"],
])
def test_cli_unwritable_output_file_exits_2(tmp_path, argv):
    path = tmp_path / "missing" / "x.out"
    code, out, err = _main(*argv, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "No such file or directory" in err
    assert not path.parent.exists()


@pytest.mark.parametrize("argv", [["check", "lemmas", "--p-range", "7..61"], ["check-all"]],
                         ids=["check", "check-all"])
@pytest.mark.parametrize("where", ["missing dir", "a directory", "under a file"])
def test_cli_out_path_is_checked_before_any_task(tmp_path, argv, where):
    path, opened = _bad_path(tmp_path, where)
    with patch.object(checks, "run_config") as run:
        code, out, err = _main(*argv, "--format", "json", "--out", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {opened}\n"  # the error open() gives
    run.assert_not_called()
    assert sorted(os.listdir(tmp_path)) == ["file"]


@pytest.mark.parametrize("where", ["missing dir", "a directory", "under a file"])
def test_cli_qexp_csv_path_is_checked_before_any_coefficient(tmp_path, where):
    path, opened = _bad_path(tmp_path, where)
    with patch.object(cli, "rv_form_coeffs") as build:
        code, out, err = _main("qexp", "--form", "rv", "--truncation", "20000",
                               "--csv", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {opened}\n"
    build.assert_not_called()
    assert sorted(os.listdir(tmp_path)) == ["file"]


def _bad_path(tmp_path, where):
    """A path that open(path, "w") refuses, next to a file named "file", and
    the error it raises."""
    (tmp_path / "file").write_text("")
    path = {"missing dir": tmp_path / "missing" / "x.out", "a directory": tmp_path,
            "under a file": tmp_path / "file" / "x.out"}[where]
    with pytest.raises(OSError) as opened:
        open(path, "w")
    return path, opened.value


def test_cli_out_in_an_unwritable_directory_exits_2(tmp_path):
    path = tmp_path / "x.json"
    with patch.object(cli.os, "access", lambda p, mode: False), \
            patch.object(checks, "run_config") as run:
        code, out, err = _main("check-all", "--out", str(path))
    assert code == 2 and out == ""
    assert err == f"error: [Errno 13] Permission denied: '{path}'\n"
    run.assert_not_called()
    assert not path.exists()


def test_cli_out_to_a_writable_file_in_an_unwritable_directory(tmp_path):
    # open(path, "w") on an existing file needs write permission on the file only
    path = tmp_path / "r.json"
    path.write_text("old")
    access = {str(tmp_path): False, str(path): True}
    with patch.object(cli.os, "access", lambda p, mode: access[str(p)]):
        code, out, err = _main("check", "thm2.4", "--d", "3", "--p", "7",
                               "--format", "json", "--out", str(path))
    assert (code, out, err) == (0, "", "")
    assert json.loads(path.read_text())[0]["claim"] == "thm2.4"


@pytest.mark.parametrize("fmt", ["json", "csv", "human"])
def test_cli_out_file_holds_the_bytes_stdout_gets(tmp_path, fmt):
    # no newline translation: the CSV's \r\n row ends and the \n of the
    # others reach the file as the writers give them, on every platform
    argv = ["check", "thm2.4", "--d", "3", "--p-range", "7..61", "--format", fmt]
    code, out, err = _main(*argv)
    assert (code, err) == (0, "")
    path = tmp_path / f"r.{fmt}"
    assert _main(*argv, "--out", str(path)) == (0, "", "")
    assert path.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize("fmt", ["json", "csv", "human"])
def test_cli_out_is_opened_with_no_newline_translation(tmp_path, monkeypatch, fmt):
    calls = []

    def recording_open(*args, **kwargs):
        calls.append(kwargs)
        return open(*args, **kwargs)

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    path = tmp_path / f"r.{fmt}"
    assert _main("check", "thm2.4", "--d", "3", "--p", "7", "--format", fmt,
                 "--out", str(path)) == (0, "", "")
    assert [kw.get("newline") for kw in calls] == [""]


@pytest.mark.parametrize("argv, read", [
    # 1.3 MB of JSON, far more than the pipe holds: the break comes mid-write
    (["check", "lemmas", "--p", "7", "--format", "json"], 10),
    # one buffered line into a pipe closed before the run: the break comes
    # at the last flush
    (["gamma", "1/3", "--p", "7"], 0),
], ids=["mid-write", "last-flush"])
def test_cli_closed_stdout_exits_2_with_one_error_line(argv, read):
    # stdout block-buffered, as it is in a shell pipeline
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    r, w = os.pipe()
    if not read:
        os.close(r)
    proc = subprocess.Popen([sys.executable, "-m", "padichyp.cli", *argv], env=env,
                            stdout=w, stderr=subprocess.PIPE)
    os.close(w)
    if read:
        with open(r, "rb") as reader:
            assert len(reader.read(read)) == read
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 2
    proc.stderr.close()
    assert err == "error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("argv", [
    ["check", "ao", "--p", "1000000000000000003"],
    ["gamma", "1/2", "--p", "1000000000000000003"],
])
def test_cli_huge_prime_exits_2_at_once(argv):
    # the prime bound is tested before any trial division
    t0 = time.perf_counter()
    with patch.object(checks, "run_config") as run:
        code, out, err = _main(*argv)
    assert time.perf_counter() - t0 < 1
    assert code == 2 and out == ""
    assert "p=1000000000000000003 exceeds the prime bound 500" in err
    run.assert_not_called()


@pytest.mark.parametrize("p, N", [(7, 8), (3, 14)])
def test_cli_gamma_past_p_minus_1_digits(p, N):
    # Gamma_p(1/2)^2 = (-1)^rep(1/2) = (-1)^((p+1)/2) by reflection
    code, out, err = _main("gamma", "1/2", "--p", str(p), "--precision", str(N))
    assert code == 0 and err == ""
    unit = int(out.split(" * ")[0])
    assert out.strip().endswith(f"* {p}^0 + O({p}^{N})")
    assert unit**2 % p**N == (-1) ** ((p + 1) // 2) % p**N


@pytest.mark.parametrize("args", ["1/2,1/2", "1/2,1/2,1/2,1/2"])
def test_prop22_passes_at_every_small_prime_and_high_precision(args):
    # an exact identity whose Greene side uses no Gamma_p; p = 3, 5 need
    # more digits than p - 1
    code, out, err = _main("check", "prop2.2", "--args", args, "--p-range", "3..13",
                           "--precision", "12", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [(r["p"], r["mod_power"], r["pass"]) for r in rows] == \
        [(p, 12, True) for p in (3, 5, 7, 11, 13)]


def test_check_all_takes_only_the_run_flags():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {o for a in sub.choices["check-all"]._actions for o in a.option_strings}
    assert options - {"-h", "--help"} == {"--format", "--jobs", "--seed", "--out"}


def test_worker_pool_is_capped_by_tasks_and_cpus(monkeypatch):
    sizes = []

    class SerialPool:  # records the pool size and starts no process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    # 28 tasks at 8 primes: one unit per prime, and no more workers than units
    tasks, _ = checks.CLAIMS["thm2.4"].plan(7, 31)
    assert (len(tasks), len({t.p for t in tasks})) == (28, 8)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    serial = checks.run_tasks(tasks, jobs=1)
    usable_cpus = checks._usable_cpus
    for cpus, expected in [(64, [8]), (2, [2]), (1, [])]:
        sizes.clear()
        monkeypatch.setattr(checks, "_usable_cpus", lambda: cpus)
        assert checks.run_tasks(tasks, jobs=10_000) == serial
        assert sizes == expected
    monkeypatch.setattr(checks, "_usable_cpus", usable_cpus)
    monkeypatch.setattr(checks.os, "cpu_count", lambda: 64)
    # pinned to one CPU of 64: no pool starts
    sizes.clear()
    monkeypatch.setattr(checks.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert checks.run_tasks(tasks, jobs=2) == serial
    assert sizes == []
    # without an affinity call the machine's count caps the pool
    monkeypatch.delattr(checks.os, "sched_getaffinity")
    for cpus, expected in [(64, [2]), (None, [])]:
        sizes.clear()
        monkeypatch.setattr(checks.os, "cpu_count", lambda: cpus)
        assert checks.run_tasks(tasks, jobs=2) == serial
        assert sizes == expected


def test_plan_gives_every_task_its_largest_prime_as_horizon():
    tasks, _ = checks.CLAIMS["thm2.4"].plan(7, 31)
    assert {t.horizon for t in tasks} == {31}
    tasks, _ = checks.CLAIMS["lemmas"].plan()
    assert [t.horizon for t in tasks] == [13] * 4  # the prime-free task too


def test_cli_import_does_not_load_the_process_pool():
    code = ("import sys, padichyp.cli; "
            "print([m for m in ('concurrent.futures.process', 'multiprocessing') "
            "if m in sys.modules])")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_conj13_builds_one_truncated_series_per_prime():
    checks._truncated.cache_clear()
    with patch.object(checks, "truncated_hyp", wraps=checks.truncated_hyp) as trunc:
        reports = _task("conj1.3", [7, 11, 13])
    assert trunc.call_count == 3
    assert len(reports) == 6 and all(r.passed for r in reports)


def test_ao_builds_one_greene_series_per_prime():
    # thm1.1 and thm1.2 share one series, the cost of ao at large primes
    primes = [7, 11, 13]
    with patch.object(checks, "greene_series_scaled", wraps=checks.greene_series_scaled) as greene:
        reports = _task("ao", primes)
    assert greene.call_count == len(primes)
    assert len(reports) == 6 and all(r.passed for r in reports)


def test_cli_prop22_args_give_one_labelled_row():
    code, out, _ = _main("check", "prop2.2", "--args", "1/2,1/2", "--p", "13",
                         "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [(r["p"], r["params"]) for r in rows] == [(13, {"d": [2, 2], "args": "1/2,1/2"})]


ARGS = ["1/2,1/2", "1/3,2/3", "2/4,1/2", "1/2,1/2,1/2,1/2", "1/5,2/5,3/5,4/5",
        "1/2", "3/2,1/2", ",".join(["1/9"] * 6), "1/0,1/2", "x,1/2"]


LEMMA_CLAIMS = ("lemma3.9", "lemma3.10", "lemma3.11", "lemma3.12", "lemma3.13",
                "prop3.1.1", "prop3.1.2", "prop3.1.3", "prop3.2.1", "prop3.2.2",
                "prop3.2.3", "prop3.2.4", "prop3.3.2", "prop3.8", "cor3.4", "cor3.5",
                "eq3.2", "lemmaP", "lemmaQ")


def _label(claim, q):
    """The report params a parameter set must produce."""
    if "args" in q:
        a = [Fraction(x) for x in q["args"].split(",")]
        text = ",".join(str(x) for x in a)
        if claim == "prop2.2":
            return {"d": [x.denominator for x in a], "args": text}
        return {"args": text, "S": str(sum(a))}
    if claim == "thm2.6":
        return {"d1": q["d"], "d2": q["d2"]}
    return q


@settings(max_examples=60, deadline=None)
@given(claim=st.sampled_from(list(checks.CLAIMS)),
       d=st.none() | st.integers(-1, 13), d2=st.none() | st.integers(-1, 13),
       r=st.none() | st.integers(-1, 13), args=st.none() | st.sampled_from(ARGS),
       precision=st.none() | st.integers(-1, 4),
       p=st.sampled_from([3, 5, 7, 9, 11, 13]))
@example("prop2.2", None, None, None, "2/4,1/3", None, 7)
@example("thm2.3", None, None, None, "1/2,1/2,1/2,1/2", 1, 13)
@example("thm2.4", 3, None, None, None, 3, 7)   # fails one power higher: exit 1
@example("thm2.5", 4, None, None, None, None, 13)
@example("thm2.6", 3, 4, None, None, 2, 13)
@example("thm2.7", 8, None, 3, None, None, 11)
@example("beukers", None, None, None, None, 1, 5)
@example("ao", None, None, None, None, None, 7)
@example("conj1.3", None, None, None, None, None, 3)
@example("lemmas", None, None, None, None, None, 11)
def test_cli_inputs_exit_2_or_give_labelled_rows(claim, d, d2, r, args, precision, p):
    c = checks.CLAIMS[claim]
    requested = {k: v for k, v in (("d", d), ("d2", d2), ("r", r), ("args", args))
                 if v is not None}
    argv = ["check", claim, "--p", str(p), "--format", "json"]
    for k, v in requested.items():
        argv += [f"--{k}", str(v)]
    if precision is not None:
        argv += ["--precision", str(precision)]
    code, out, err = _main(*argv)
    if (requested and set(requested) != set(c.accepts)) or p == 9 \
            or (precision is not None and (c.mod is None or precision < 1)):
        assert code == 2
    if code == 2:
        assert "error" in err
        return
    assert code in (0, 1), err
    rows = json.loads(out)
    if claim == "lemmas":  # the section-3 rows at p, the rational identities at p = 0
        assert {(row["claim"], row["p"]) for row in rows} == (
            {(c, p) for c in LEMMA_CLAIMS} | {("binharm.id1", 0), ("binharm.id2", 0)})
        return
    assert rows and all(row["p"] == p for row in rows)
    if precision is not None:
        assert {row["mod_power"] for row in rows} <= {precision, precision + checks.GUARD}
    expected = [_label(claim, q) for q in ([requested] if requested else c.grid)]
    for row in rows:
        if c.accepts and row["claim"] == claim:
            assert row["params"] in expected, row
