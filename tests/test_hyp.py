"""Rising factorials and truncated hypergeometric evaluation."""

import math
import random
from fractions import Fraction

import pytest

import oracles
from padichyp.checks import CLAIMS, GUARD
from padichyp.combinatorics import apery
from padichyp import hyp
from padichyp.hyp import HypParams, rising_factorial, truncated_hyp, truncated_hyp_exact
from padichyp.padic import congruent_mod, rational_to_padic


def test_rising_factorial_basics():
    assert rising_factorial(Fraction(5, 9), 0) == 1
    assert rising_factorial(Fraction(1, 2), 2) == Fraction(3, 4)
    for n in range(8):
        assert rising_factorial(1, n) == math.factorial(n)
    with pytest.raises(ValueError):
        rising_factorial(Fraction(1, 2), -1)


def test_rising_factorial_equals_the_per_factor_oracle():
    for a in (Fraction(1, 3), Fraction(-7, 4), Fraction(9, 10), 0, -3, 5, Fraction(22, 7)):
        for n in range(30):
            assert rising_factorial(a, n) == oracles.rising_factorial(a, n), (a, n)


def test_zero_truncation_is_one():
    p = HypParams((Fraction(1, 2),), (), Fraction(1), 0)
    assert truncated_hyp_exact(p) == 1


def test_gauss_value_89_over_64():
    p = HypParams((Fraction(1, 2), Fraction(1, 2)), (Fraction(1),), Fraction(1), 2)
    assert truncated_hyp_exact(p) == Fraction(89, 64)
    v = truncated_hyp(p, 3, 2)
    assert v.residue(2) == 8


def test_quartic_halves_match_apery_mod_p2():
    for p in (7, 11, 13):
        params = HypParams((Fraction(1, 2),) * 4, (Fraction(1),) * 3, Fraction(1), p - 1)
        lhs = truncated_hyp(params, p, 3)
        rhs = rational_to_padic(apery((p - 1) // 2), p, 3)
        assert congruent_mod(lhs, rhs, 2)


def test_frozen_quartic_value():
    params = HypParams((Fraction(1, 2),) * 4, (Fraction(1),) * 3, Fraction(1), 6)
    t = truncated_hyp_exact(params)
    assert t == Fraction(1213486850785, 1099511627776)
    assert truncated_hyp(params, 7, 3).residue(3) == 24


def test_degenerate_geometric_collapse():
    # single top parameter 1, no bottoms: every term is 1
    for m in (0, 1, 5, 20):
        params = HypParams((Fraction(1),), (), Fraction(1), m)
        assert truncated_hyp_exact(params) == m + 1


def test_term_recurrence_matches_from_scratch_terms():
    # recompute every term independently via rising factorials
    rng = random.Random(11)
    for _ in range(8):
        r, s = rng.randint(1, 3), rng.randint(0, 2)
        top = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(r))
        bottom = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(s))
        z = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        m = rng.randint(0, 50)
        params = HypParams(top, bottom, z, m)
        direct = Fraction(0)
        for k in range(m + 1):
            num = Fraction(1)
            for a in top:
                num *= rising_factorial(a, k)
            den = Fraction(math.factorial(k))
            for b in bottom:
                den *= rising_factorial(b, k)
            direct += num * z**k / den
        assert truncated_hyp_exact(params) == direct


def test_partial_sums_integral_for_theorem_shapes():
    for p in (7, 11):
        for args in [(Fraction(1, 3), Fraction(2, 3)),
                     (Fraction(1, 5), Fraction(2, 5), Fraction(3, 5), Fraction(4, 5))]:
            for m in range(p):
                params = HypParams(args, (Fraction(1),) * (len(args) - 1), Fraction(1), m)
                v = truncated_hyp(params, p, 2)
                assert v.is_zero or v.valuation >= 0


def test_validation():
    with pytest.raises(ValueError):
        HypParams((Fraction(1, 2),), (Fraction(-1),), Fraction(1), 3)
    with pytest.raises(ValueError):
        HypParams((Fraction(1, 2),), (Fraction(0),), Fraction(1), 3)
    params = HypParams((Fraction(1, 7),), (), Fraction(1), 3)
    with pytest.raises(ValueError):
        truncated_hyp(params, 7, 2)  # parameter not p-integral
    params = HypParams((Fraction(1, 2),), (), Fraction(1), 7)
    with pytest.raises(ValueError):
        truncated_hyp(params, 7, 2)  # truncation past p - 1


def _evaluated_series():
    """(args, p, N) of every truncated series that check-all and the
    large-prime runs (ao and conj1.3 over 449..499) evaluate, at the
    precision each checker reduces it to."""
    out = set()
    for cid in ("thm2.4", "thm2.5", "thm2.6", "thm2.7"):
        claim = CLAIMS[cid]
        for t in claim.plan()[0]:
            out.add((tuple(claim.args(t.params)), t.p, t.mod + GUARD))
    half = (Fraction(1, 2),) * 4
    quint = tuple(Fraction(i, 5) for i in range(1, 5))
    for lo, hi in [(None, None), (449, 499)]:
        out.update((half, t.p, 5) for t in CLAIMS["ao"].plan(lo, hi)[0])
        out.update((quint, t.p, CLAIMS["conj1.3"].mod + GUARD)
                   for t in CLAIMS["conj1.3"].plan(lo, hi)[0])
    return sorted(out)


def test_every_checked_series_matches_oracle():
    series = _evaluated_series()
    assert len(series) > 100 and max(p for _, p, _ in series) == 499
    for args, p, N in series:
        params = HypParams(args, (Fraction(1),) * (len(args) - 1), Fraction(1), p - 1)
        exact = oracles.truncated_hyp_exact(params)
        assert exact != 0
        assert truncated_hyp_exact(params) == exact, (args, p)
        assert truncated_hyp(params, p, N) == rational_to_padic(exact, p, N), (args, p)


def test_random_series_match_oracle_exactly_and_mod_p():
    # negative z, rational bottoms, p-divisible factors, terminating and
    # vanishing series; reductions of nonzero and zero values
    rng = random.Random(5)
    cases = [HypParams((Fraction(-1),), (), Fraction(1), 1),  # 1 - 1 = 0
             HypParams((Fraction(-3),), (Fraction(1, 2),), Fraction(-2), 6),
             HypParams((Fraction(1, 2),) * 2, (Fraction(3, 2),), Fraction(1), 6)]
    for _ in range(40):
        top = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                    for _ in range(rng.randint(1, 4)))
        bottom = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 6))
                       for _ in range(rng.randint(0, 3)))
        z = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        cases.append(HypParams(top, bottom, z, rng.randint(0, 12)))
    zero_seen = nonzero_seen = 0
    for params in cases:
        exact = oracles.truncated_hyp_exact(params)
        assert truncated_hyp_exact(params) == exact, params
        for p in (7, 11, 13):
            qs = (*params.top, *params.bottom, params.z)
            if params.truncation > p - 1 or any(q.denominator % p == 0 for q in qs):
                continue
            v = truncated_hyp(params, p, 4)
            assert v == rational_to_padic(exact, p, 4), (params, p)
            zero_seen += v.is_zero
            nonzero_seen += not v.is_zero
    assert zero_seen and nonzero_seen > 50


F = Fraction
ONES = (F(1),) * 3


@pytest.mark.parametrize("params, p, exact_pair", [
    # a p-adic unit, and valuation 1: the pair mod p^(N+r), r top
    # parameters, keeps N digits
    (HypParams((F(1, 5),) * 4, ONES, F(1), 10), 11, False),
    (HypParams((F(1, 2),) * 2, ONES[:1], F(1), 1), 5, False),  # 5/4
    # z with p in its numerator: term k carries p^k, the ratios stay units
    (HypParams((F(1, 2), F(1, 3)), ONES[:1], F(7, 2), 6), 7, False),
    # valuations 2 and 3 with r = 3 and 4: still N digits mod p^(N+r)
    (HypParams((F(1, 3),) * 3, ONES[:2], F(1), 3), 5, False),
    (HypParams((F(1, 4),) * 4, ONES, F(1), 5), 7, False),
    # valuation 2 with r = 1: fewer than N digits survive mod p^(N+1)
    (HypParams((F(1, 6),), (), F(1), 4), 5, True),
    # an exactly zero series, 1 - 1
    (HypParams((F(-1),), (), F(1), 1), 7, True),
    # a bottom factor divisible by p: 1/2 + 3 = 7/2 at k = 4
    (HypParams((F(1, 3),), (F(1, 2),), F(1), 6), 7, True),
], ids=["unit", "valuation-1", "p-in-z", "valuation-2", "valuation-3",
        "valuation-past-headroom", "zero", "p-in-bottom"])
def test_mod_pm_pair_and_the_exact_fallback_match_the_oracle(monkeypatch, params, p, exact_pair):
    exact = oracles.truncated_hyp_exact(params)
    moduli = []
    series_pair = hyp._series_pair
    monkeypatch.setattr(hyp, "_series_pair",
                        lambda params, modulus=None: moduli.append(modulus)
                        or series_pair(params, modulus))
    for N in (1, 2, 3, 5):
        moduli.clear()
        assert truncated_hyp(params, p, N) == rational_to_padic(exact, p, N), N
        # the exact pair is taken when _series_pair runs with no modulus
        assert (None in moduli) == exact_pair, N


def test_reduction_checks_the_prime_first():
    params = HypParams((F(1, 2),) * 2, ONES[:1], F(1), 3)
    for p in (0, -7, 9, 1):
        with pytest.raises(ValueError, match=f"p={p} is not an odd prime"):
            truncated_hyp(params, p, 3)
