"""Character values, the scaled binomial sums and the scaled Gaussian series.

The single character values and binomial sums are the oracles of the
binomial tables (tests/oracles.py); the first tests pin them by hand."""

import random
from fractions import Fraction

import oracles
import pytest
from oracles import char_binomial_scaled, char_value

from padichyp import checks
from padichyp.characters import (
    Character,
    _dlog_table,
    binomial_table,
    characters_for_arguments,
    greene_series_scaled,
)
from padichyp.gfunction import GArguments, g_function
from padichyp.padic import (
    PRIME_BOUND,
    PrecisionError,
    congruent_mod,
    primes_in,
    rational_to_padic,
)
from padichyp.qseries import gamma_coeffs


def test_dlog_table_is_the_least_primitive_root_and_its_logs():
    def order(g, p):
        k, acc = 1, g
        while acc != 1:
            k, acc = k + 1, acc * g % p
        return k

    for p in primes_in(3, PRIME_BOUND):
        g, table = _dlog_table(p)
        assert g == next(b for b in range(2, p) if order(b, p) == p - 1), p
        assert all(pow(g, table[x], p) == x for x in range(1, p)), p


def test_trivial_character_values():
    eps = Character.trivial(5)
    for x in range(1, 5):
        assert char_value(eps, x, 2).unit == 1
    assert char_value(eps, 0, 2).is_zero


def test_quadratic_character_at_minus_one():
    # phi(-1) = (-1)^((p-1)/2)
    assert char_value(Character.quadratic(5), -1, 1).unit == 1
    v = char_value(Character.quadratic(7), -1, 1)
    assert v.unit == 6  # = -1 mod 7


def test_every_character_fixes_one():
    for p in (5, 7, 13):
        for e in range(p - 1):
            assert char_value(Character(p, e), 1, 2).unit == 1


def test_character_values_are_roots_of_unity():
    p, N = 13, 3
    pN = p**N
    for e in (1, 3, 6):
        chi = Character(p, e)
        for x in range(1, p):
            u = char_value(chi, x, N).unit
            assert pow(u, p - 1, pN) == 1
            assert u % p == pow(x, (p - 1 - e) % (p - 1), p) % p


def test_binomial_examples_p5():
    p, N = 5, 3
    eps, phi = Character.trivial(p), Character.quadratic(p)
    assert char_binomial_scaled(eps, eps, N).residue(N) == 3  # p - 2
    m1 = rational_to_padic(-1, p, N)
    assert congruent_mod(char_binomial_scaled(phi, eps, N), m1, N)
    assert congruent_mod(char_binomial_scaled(eps, phi, N), m1, N)
    # entry 0 of a table is beta(A, B) itself
    assert [binomial_table(A, B, N)[0] for A, B in ((eps, eps), (phi, eps), (eps, phi))] \
        == [3, p**N - 1, p**N - 1]


def test_binomials_stay_integral():
    p, N = 13, 3
    for ea in range(p - 1):
        for eb in range(0, p - 1, 3):
            v = char_binomial_scaled(Character(p, ea), Character(p, eb), N)
            assert v.is_zero or v.valuation >= 0


def test_series_vanishes_at_argument_zero():
    p = 7
    phi, eps = Character.quadratic(p), Character.trivial(p)
    assert greene_series_scaled([phi, phi], [eps], 0, 3).is_zero


@pytest.mark.parametrize("x, N", [(0, 0), (14, -2), (1, 0)])
def test_series_checks_the_precision_at_any_argument(x, N):
    phi, eps = Character.quadratic(7), Character.trivial(7)
    with pytest.raises(PrecisionError, match=f"need at least one digit, got N={N}"):
        greene_series_scaled([phi, phi], [eps], x, N)


def test_series_matches_two_term_g_value():
    # scaled 2F1 with both characters quadratic equals the two-argument G at
    # one half, which is -1 at p = 3
    p, N = 3, 4
    phi, eps = Character.quadratic(p), Character.trivial(p)
    s = greene_series_scaled([phi, phi], [eps], 1, N)
    assert congruent_mod(s, rational_to_padic(-1, p, N), N)
    g = g_function(GArguments(p, (Fraction(1, 2), Fraction(1, 2)), N))
    assert congruent_mod(s, g, N)


def test_series_permutation_invariance():
    p, N = 13, 3
    rng = random.Random(5)
    top = characters_for_arguments(
        [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)], p)
    bottom = [Character(p, 2), Character.trivial(p)]
    base = greene_series_scaled(top, bottom, 3, N)
    for _ in range(3):
        pairs = list(zip(top[1:], bottom))
        rng.shuffle(pairs)
        shuffled_top = [top[0]] + [a for a, _ in pairs]
        shuffled_bottom = [b for _, b in pairs]
        assert congruent_mod(
            base, greene_series_scaled(shuffled_top, shuffled_bottom, 3, N), N)


def test_quartic_quadratic_series_hits_form_coefficient():
    # scaled 4F3 at phi^4 minus p equals the q^p coefficient of the level-8 form
    for p in (7, 11, 13):
        N = 5
        phi, eps = Character.quadratic(p), Character.trivial(p)
        s = greene_series_scaled([phi] * 4, [eps] * 3, 1, N)
        val = s - rational_to_padic(p, p, N)
        coeff = gamma_coeffs(p).coefficient(p)
        assert congruent_mod(val, rational_to_padic(coeff, p, N), 4)


def test_mixed_primes_rejected():
    with pytest.raises(ValueError):
        greene_series_scaled(
            [Character.quadratic(7), Character.quadratic(5)],
            [Character.trivial(7)], 1, 2)
    with pytest.raises(ValueError, match="^mixed primes$"):
        binomial_table(Character(7, 1), Character(11, 1), 3)


def test_series_needs_a_bottom_character():
    with pytest.raises(ValueError,
                       match=r"^need n\+1 top characters and n >= 1 bottom characters$"):
        greene_series_scaled([Character(7, 3)], [], 1, 3)


def test_characters_need_full_order():
    with pytest.raises(ValueError):
        characters_for_arguments([Fraction(1, 5)], 7)


# -- the chirp-correlation tables against the per-entry oracle

# the `greene` CLI invocations of the README and of the CLI tests
GREENE_CLI_ARGS = ("1/2,1/2", "1/3,2/3")


def _evaluated_tables():
    """Every (A, B) table that prop2.2 and ao build at their check-all primes
    and over 449..499 (read off the claim plans), and that the greene CLI
    examples build at p = 7."""
    runs = []
    for lo, hi in ((None, None), (449, 499)):
        tasks, _ = checks.CLAIMS["prop2.2"].plan(lo, hi)
        runs += [(checks.parse_args(t.params["args"]), t.p) for t in tasks]
        tasks, _ = checks.CLAIMS["ao"].plan(lo, hi)
        runs += [([Fraction(1, 2)] * 4, t.p) for t in tasks]
    runs += [(checks.parse_args(a), 7) for a in GREENE_CLI_ARGS]
    pairs = {(a, Character.trivial(p)) for args, p in runs
             for a in characters_for_arguments(args, p)}
    return sorted(pairs, key=lambda ab: (ab[0].prime, ab[0].exponent))


def test_evaluated_binomial_tables_match_per_entry_oracle():
    pairs = _evaluated_tables()
    assert {A.prime for A, _ in pairs} >= {7, 61, 449, 461, 491, 499}
    for A, B in pairs:
        for N in (1, 3, 5):
            assert binomial_table(A, B, N) == oracles.binomial_table(A, B, N), (A, B, N)


def test_random_binomial_tables_match_per_entry_oracle():
    rng = random.Random(20260810)
    for p in (3, 5, 7, 13, 61, 251):
        for N in range(1, 9):
            for _ in range(2):
                A, B = Character(p, rng.randrange(p - 1)), Character(p, rng.randrange(p - 1))
                assert binomial_table(A, B, N) == oracles.binomial_table(A, B, N), (A, B, N)
