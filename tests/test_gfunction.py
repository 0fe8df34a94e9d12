"""The G function: hand-expanded values, the character-sum cross-oracle,
argument validation and the s(p) unit factors."""

import itertools
import math
import random
from fractions import Fraction

import oracles
import pytest

from padichyp import gamma, padic
from padichyp.characters import Character, characters_for_arguments, greene_series_scaled
from padichyp.checks import CLAIMS, primes_in
from padichyp.gamma import gamma_residue, rep
from padichyp.gfunction import (GArguments, _closed_form, _g_sum, _reflection_signs, g_function,
                                s_factor, theorem26_sign)
from padichyp.hyp import HypParams, truncated_hyp
from padichyp.padic import congruent_mod, rational_to_padic


def test_two_halves_at_three():
    # two j-terms, each equal to 1, times -1/(p-1) = -1/2
    g = g_function(GArguments(3, (Fraction(1, 2), Fraction(1, 2)), 4))
    assert congruent_mod(g, rational_to_padic(-1, 3, 4), 4)


def test_frozen_values():
    g = g_function(GArguments(7, (Fraction(1, 3), Fraction(2, 3)), 4))
    assert g.residue(4) == 1
    g = g_function(GArguments(7, (Fraction(1, 2),) * 4, 4))
    assert g.residue(4) == 31
    g = g_function(GArguments(13, (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)), 3))
    assert g.residue(3) == 2175


def test_character_sum_cross_oracle():
    # independent evaluation routes agree to full precision
    cases = [
        ((Fraction(1, 3), Fraction(2, 3)), 7, 4),
        ((Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)), 13, 4),
        ((Fraction(1, 5), Fraction(2, 5), Fraction(3, 5), Fraction(4, 5)), 11, 4),
    ]
    for args, p, N in cases:
        lhs = g_function(GArguments(p, args, N))
        top = characters_for_arguments(args, p)
        rhs = greene_series_scaled(top, [Character.trivial(p)] * (len(args) - 1), 1, N)
        assert congruent_mod(lhs, rhs, N), (args, p)


def test_quartic_halves_congruence_with_correction_term():
    # 4-argument value = truncated series + p, mod p^3, at p = 7
    p, N = 7, 4
    g = g_function(GArguments(p, (Fraction(1, 2),) * 4, N))
    trunc = truncated_hyp(
        HypParams((Fraction(1, 2),) * 4, (Fraction(1),) * 3, Fraction(1), p - 1), p, N)
    rhs = trunc + rational_to_padic(p, p, N)
    assert congruent_mod(g, rhs, 3)
    assert not congruent_mod(g, trunc, 3)  # the +p term is really needed


def test_permutation_invariance():
    p, N = 11, 3
    args = (Fraction(1, 5), Fraction(2, 5), Fraction(3, 5), Fraction(4, 5))
    base = g_function(GArguments(p, args, N))
    for perm in itertools.islice(itertools.permutations(args), 0, 24, 5):
        assert congruent_mod(base, g_function(GArguments(p, perm, N)), N)


def test_result_is_integral():
    for args, p in [((Fraction(1, 4), Fraction(3, 4)), 7),
                    ((Fraction(1, 6), Fraction(5, 6)), 11),
                    ((Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)), 7)]:
        v = g_function(GArguments(p, args, 3))
        assert v.is_zero or v.valuation >= 0


def test_argument_validation():
    with pytest.raises(ValueError):
        GArguments(7, (Fraction(1, 7), Fraction(6, 7)), 3)  # p divides d
    with pytest.raises(ValueError):
        GArguments(7, (Fraction(3, 2), Fraction(1, 2)), 3)  # outside (0,1)
    with pytest.raises(ValueError):
        GArguments(7, (Fraction(1, 2),), 3)  # n = 0
    with pytest.raises(ValueError):
        GArguments(8, (Fraction(1, 2), Fraction(1, 2)), 3)  # composite p


def test_s_factor_halves_squared_is_one():
    for p in (5, 7, 11, 13):
        s = s_factor([Fraction(1, 2)] * 4, p, 3)
        assert congruent_mod(s, rational_to_padic(1, p, 3), 3)
        assert theorem26_sign(p, 2, 2) == 1


def test_s_factor_sign_identity_2_3():
    # floor arithmetic: p = 7 gives (-1)^(3+2) = -1, matching the gamma product
    assert theorem26_sign(7, 2, 3) == -1
    s = s_factor([Fraction(1, 2), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)], 7, 3)
    assert congruent_mod(s, rational_to_padic(-1, 7, 3), 3)


def test_s_factor_sign_identity_across_primes():
    for p in (5, 7, 11, 13, 17, 19, 23):
        for d1, d2 in [(2, 2), (2, 3), (3, 4), (2, 5)]:
            if p % d1 not in (1 % d1, d1 - 1) or p % d2 not in (1 % d2, d2 - 1):
                continue
            fr = [Fraction(1, d1), Fraction(d1 - 1, d1),
                  Fraction(1, d2), Fraction(d2 - 1, d2)]
            s = s_factor(fr, p, 3)
            sign = theorem26_sign(p, d1, d2)
            assert congruent_mod(s, rational_to_padic(sign, p, 3), 3), (p, d1, d2)


def test_quintic_s_factor_is_a_sign_from_pairing():
    # d = 5, r = 2: the product pairs into (-1)^(rep(1/5) + rep(2/5))
    p, N = 7, 3
    fr = [Fraction(1, 5), Fraction(2, 5), Fraction(3, 5), Fraction(4, 5)]
    s = s_factor(fr, p, N)
    sign = (-1) ** (rep(Fraction(1, 5), p) + rep(Fraction(2, 5), p))
    assert congruent_mod(s, rational_to_padic(sign, p, N), N)


# -- the reflection-paired index plan against the residue j-sum oracle

F = Fraction
ORACLE_SETS = [
    (F(1, 2), F(1, 2)),                                  # self-paired 1/2
    (F(1, 2), F(1, 2), F(1, 2)),                         # odd n + 1
    (F(1, 2),) * 4,
    (F(1, 3), F(2, 3)),
    (F(1, 2), F(1, 3), F(2, 3)),
    (F(1, 5), F(2, 5), F(3, 5), F(4, 5)),
    (F(1, 12), F(5, 12), F(7, 12), F(11, 12)),
    (F(1, 4), F(1, 2), F(5, 7)),                         # not closed under a -> 1 - a
    (F(1, 3), F(1, 3), F(3, 4)),
    (F(2, 9), F(1, 11)),
]


def _admissible(args, p):
    return all(a.denominator % p for a in args)


def test_g_function_equals_the_jsum_oracle_at_every_small_prime():
    split = unsplit = 0
    for p in primes_in(3, 97):
        for args in ORACLE_SETS:
            if not _admissible(args, p):
                continue
            L = math.lcm(*(a.denominator for a in args))
            split += (p - 1) % L == 0
            unsplit += (p - 1) % L != 0
            for N in range(1, 6):
                ga = GArguments(p, args, N)
                assert g_function(ga) == oracles.g_function(ga), (p, args, N)
    assert split > 100 and unsplit > 100  # every d | p - 1, and some d not


@pytest.mark.parametrize("p, top", [(3, 11), (5, 9), (7, 7)])
def test_g_function_equals_the_oracle_past_p_minus_1_digits(p, top):
    # the Gamma_p tables carry guard digits here
    for args in ORACLE_SETS:
        if _admissible(args, p):
            for N in range(1, top + 1):
                ga = GArguments(p, args, N)
                assert g_function(ga) == oracles.g_function(ga), (p, args, N)


@pytest.mark.parametrize("p", [449, 461, 499])
def test_g_function_equals_the_oracle_at_large_primes(p):
    for args in [ORACLE_SETS[2], ORACLE_SETS[5], ORACLE_SETS[7]]:
        ga = GArguments(p, args, 4)
        assert g_function(ga) == oracles.g_function(ga), (p, args)


def test_reflection_rule_and_its_sign():
    # Gamma_p(1 - x) = (-1)^rep(x) / Gamma_p(x), with rep(x) in {1, ..., p}
    rng = random.Random(3)
    for p, N in [(3, 6), (7, 3), (11, 4), (499, 4)]:
        pN = p**N
        xs = [0, 1, p, pN - 1, *rng.sample(range(pN), 30)]
        signs = _reflection_signs([x % p or p for x in xs])
        got = [s * pow(gamma_residue(x, p, N), -1, pN) % pN for s, x in zip(signs, xs)]
        assert got == [gamma_residue((1 - x) % pN, p, N) for x in xs], p


# -- the column plan of closed sets against the index plan

QUINTIC = (F(1, 5), F(2, 5), F(3, 5), F(4, 5))


def _closed_sets():
    """Every closed argument set of the default grids of the claims that
    evaluate G, the 14 Rodriguez-Villegas families, (1/6, 5/6) and
    (1/12, 5/12, 7/12, 11/12)."""
    sets = {tuple(CLAIMS[cid].args(q)) for cid in ("prop2.2", "thm2.4", "thm2.5", "thm2.6",
                                                    "thm2.7", "conj1.3")
            for q in CLAIMS[cid].grid}
    sets = {args for args in sets if _closed_form(args) is not None}
    sets |= {tuple(map(F, s.split(","))) for s in oracles.RV_FAMILIES}
    return sorted(sets | {(F(1, 6), F(5, 6)), ORACLE_SETS[6]})


def test_closed_forms_and_sets_that_are_not_closed():
    # the exponents (m, e_m) of the twisted rows: gamma_m for m > 1, and
    # e_1 = -sum gamma_m
    assert _closed_form(QUINTIC) == ((1, -1), (5, 1))
    assert _closed_form(ORACLE_SETS[6]) == ((2, 1), (4, -1), (6, -1), (12, 1))
    assert _closed_form((F(1, 6), F(5, 6))) == ((1, 1), (2, -1), (3, -1), (6, 1))
    for args in [(F(1, 5), F(4, 5)), (F(1, 2), F(1, 5), F(4, 5)), (F(1, 3), F(1, 2))]:
        assert _closed_form(args) is None, args


def test_the_column_plan_equals_the_index_plan_on_every_closed_set():
    sets = _closed_sets()
    grid = [(p, N) for p in primes_in(5, 97) for N in (1, 4, 7)]
    grid += [(p, 4) for p in primes_in(449, 499)]
    cases = 0
    for args in sets:
        exponents = _closed_form(args)
        assert exponents is not None, args
        for p, N in grid:
            if _admissible(args, p):
                ga = GArguments(p, args, N)
                assert _g_sum(ga, exponents) == _g_sum(ga, None), (p, args, N)
                cases += 1
    assert (len(sets), cases) == (21, 1632)


def test_g_of_the_quintic_set_reads_column_0_only(monkeypatch):
    # from empty memos, (p+1)/2 Gamma_p values at p = 499, N = 4, where the
    # index plan read five columns of them
    evaluated = []
    blocks = gamma._gamma_blocks
    monkeypatch.setattr(gamma, "_gamma_blocks",
                        lambda rs, p, N: evaluated.extend(rs) or blocks(rs, p, N))
    padic._at_prime(None)
    g_function(GArguments(499, QUINTIC, 4))
    padic._at_prime(None)
    assert len(evaluated) <= (499 + 1) // 2
