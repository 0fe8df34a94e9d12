"""Valuation-tracked p-adic arithmetic: examples and ring properties."""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles

from padichyp import padic
from padichyp.characters import Character, greene_series_scaled
from padichyp.gamma import g1, gamma_p
from padichyp.gfunction import GArguments
from padichyp.hyp import HypParams, truncated_hyp
from padichyp.padic import (
    PadicValue,
    PrecisionError,
    PRIME_BOUND,
    check_prime,
    congruent_mod,
    primes_in,
    rational_to_padic,
    valuation_of_int,
)

PRIMES = [3, 5, 7, 13, 97]


def test_embed_one_third_mod_49():
    v = rational_to_padic(Fraction(1, 3), 7, 2)
    assert (v.valuation, v.unit) == (0, 33)  # 3*33 = 99 = 1 mod 49
    assert 3 * 33 % 49 == 1


def test_embed_zero_is_exact():
    v = rational_to_padic(0, 7, 2)
    assert v.is_zero and v.abs_prec == float("inf")


def test_embed_p_power_denominator():
    v = rational_to_padic(Fraction(1, 7), 7, 2)
    assert (v.valuation, v.unit) == (-1, 1)


def test_embed_rejects_even_and_composite_p():
    with pytest.raises(ValueError):
        rational_to_padic(1, 2, 2)
    with pytest.raises(ValueError):
        rational_to_padic(1, 9, 2)


def test_mul_valuations_add():
    a = PadicValue(5, 0, 3, 2)
    b = PadicValue(5, 1, 2, 2)
    c = a * b
    assert (c.valuation, c.unit) == (1, 6)


def test_add_of_value_and_negation_is_zero():
    x = rational_to_padic(Fraction(3, 4), 7, 3)
    z = x + -x
    assert z.is_zero
    assert z.abs_prec >= 3


def test_inv_of_33_mod_49():
    v = PadicValue(7, 0, 33, 2).inverse()
    assert (v.valuation, v.unit) == (0, 3)


def test_inv_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        PadicValue.zero(7).inverse()


def test_mixed_primes_raise():
    with pytest.raises(ValueError):
        PadicValue(5, 0, 1, 2) + PadicValue(7, 0, 1, 2)
    with pytest.raises(ValueError, match="mixed primes"):
        PadicValue(5, 0, 1, 2) - PadicValue(7, 0, 1, 2)
    with pytest.raises(ValueError, match="mixed primes"):
        PadicValue(7, 0, 1, 2) * PadicValue(11, 0, 1, 2)


@pytest.mark.parametrize("call, error, message", [
    (lambda: valuation_of_int(0, 7), ValueError, "valuation of 0 is undefined"),
    (lambda: PadicValue(7, None, 1, 3), ValueError, "zero value must have unit 0"),
    (lambda: PadicValue(7, 0, 1, 0), PrecisionError, "relative precision fell below 1"),
    (lambda: PadicValue(7, 0, 343, 3), ValueError, "unit out of range for stated precision"),
    (lambda: PadicValue(7, 0, 14, 3), ValueError, "unit must be coprime to p"),
    (lambda: PadicValue(7, -1, 1, 2).residue(1), ValueError,
     "negative valuation has no integer residue"),
], ids=["valuation-of-0", "zero-unit", "no-digit", "unit-range", "unit-not-coprime",
        "negative-residue"])
def test_invalid_values_raise_with_their_message(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_primes_in_a_range_below_2_is_empty():
    assert primes_in(0, 1) == []


def test_congruent_mod_reflexive():
    v = rational_to_padic(Fraction(5, 3), 7, 3)
    for k in range(0, 4):
        assert congruent_mod(v, v, k)


def test_congruent_mod_89_over_64_is_8_mod_9():
    a = PadicValue(3, 0, 8, 2)
    b = rational_to_padic(Fraction(89, 64), 3, 2)
    assert congruent_mod(a, b, 2)


def test_congruent_mod_valuation_threshold():
    v = PadicValue(7, 1, 1, 1)
    z = PadicValue.zero(7)
    assert congruent_mod(v, z, 1)
    assert not congruent_mod(v, z, 2)


def test_congruent_mod_insufficient_precision_is_an_error():
    a = rational_to_padic(1, 7, 2)
    b = rational_to_padic(1, 7, 5)
    with pytest.raises(PrecisionError):
        congruent_mod(a, b, 3)


def test_report_sides_need_the_precision_congruent_mod_needs():
    from padichyp.report import CongruenceReport
    cases = [(rational_to_padic(1, 7, 2), rational_to_padic(1, 7, 5), 3),
             (rational_to_padic(1, 7, 5), rational_to_padic(8, 7, 2), 3),
             (PadicValue.zero(7, 1), PadicValue.zero(7), 2)]
    for a, b, k in cases:
        with pytest.raises(PrecisionError) as want:
            congruent_mod(a, b, k)
        with pytest.raises(PrecisionError) as got:
            CongruenceReport.from_sides("c", 7, {}, k, a, b)
        assert str(got.value) == str(want.value)
    with pytest.raises(ValueError, match="mixed primes"):
        CongruenceReport.from_sides("c", 7, {}, 1, rational_to_padic(1, 7, 2),
                                    rational_to_padic(1, 11, 2))
    for a, b, k in [(rational_to_padic(1, 7, 3), rational_to_padic(50, 7, 3), 2),
                    (rational_to_padic(1, 7, 3), rational_to_padic(50, 7, 3), 3),
                    (rational_to_padic(1, 7, 3), rational_to_padic(1, 7, 3), 3)]:
        row = CongruenceReport.from_sides("c", 7, {}, k, a, b)
        assert row.passed == congruent_mod(a, b, k)


def test_cancellation_zero_keeps_finite_precision():
    a = rational_to_padic(1, 7, 3)
    b = rational_to_padic(1 + 7**3, 7, 3)  # same digits to precision 3
    d = a - b
    assert d.is_zero and d.abs_prec == 3
    with pytest.raises(PrecisionError):
        congruent_mod(d, PadicValue.zero(7), 4)


def test_partial_cancellation_reduces_relative_precision():
    a = rational_to_padic(1, 7, 3)
    b = rational_to_padic(-(1 + 7), 7, 3)
    s = a + b  # = -7 + O(7^3)
    assert s.valuation == 1 and s.rel_prec == 2


def test_teichmuller_fixed_point_and_example():
    assert oracles.teichmuller(1, 7, 3).unit == 1
    t = oracles.teichmuller(3, 7, 2)
    assert t.unit == 31  # 3^7 = 2187 = 31 mod 49
    assert pow(3, 7, 49) == 31


def test_teichmuller_rejects_multiples_of_p():
    with pytest.raises(ValueError):
        oracles.teichmuller(14, 7, 2)


def test_is_odd_prime():
    """check_prime accepts exactly the odd primes up to the bound, by the
    trial-division oracle, and gives each of its two messages."""
    for p in range(-2, PRIME_BOUND + 21):
        if p > PRIME_BOUND:
            with pytest.raises(ValueError, match=f"p={p} exceeds the prime bound {PRIME_BOUND}"):
                check_prime(p)
        elif oracles.is_odd_prime(p):
            check_prime(p)
        else:
            with pytest.raises(ValueError, match=f"p={p} is not an odd prime"):
                check_prime(p)
    # a huge p is rejected by the bound, with no primality test to run
    with pytest.raises(ValueError, match="exceeds the prime bound"):
        check_prime(10**30)


# -- property tests ---------------------------------------------------------

small_rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=30)


@given(st.sampled_from(PRIMES), small_rationals, small_rationals)
@settings(max_examples=60, deadline=None)
def test_embedding_is_a_ring_homomorphism(p, q1, q2):
    N = 4
    e1, e2 = rational_to_padic(q1, p, N), rational_to_padic(q2, p, N)
    for op in (operator.add, operator.mul):
        combined = rational_to_padic(op(q1, q2), p, N)
        direct = op(e1, e2)
        k = min(combined.abs_prec, direct.abs_prec)
        if k > -10:
            assert congruent_mod(combined, direct, int(min(k, N)) if k != float("inf") else N)


@given(st.sampled_from(PRIMES), small_rationals, small_rationals)
@settings(max_examples=60, deadline=None)
def test_valuation_additivity(p, q1, q2):
    if q1 == 0 or q2 == 0:
        return
    a, b = rational_to_padic(q1, p, 3), rational_to_padic(q2, p, 3)
    assert (a * b).valuation == a.valuation + b.valuation


@given(st.sampled_from(PRIMES), st.integers(min_value=1, max_value=96),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=80, deadline=None)
def test_teichmuller_is_a_root_of_unity(p, a, N):
    if a % p == 0:
        return
    t = oracles.teichmuller(a, p, N)
    pN = p**N
    assert t.unit % p == a % p
    assert pow(t.unit, p - 1, pN) == 1
    # omega = wbar^(-1), the character whose powers the Greene tables use
    assert oracles.char_value(Character(p, -1), a, N) == t


@given(st.sampled_from(PRIMES), small_rationals, small_rationals,
       st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_congruence_is_symmetric_and_shift_invariant(p, q1, q2, k):
    N = 5
    a, b = rational_to_padic(q1, p, N), rational_to_padic(q2, p, N)
    if min(a.abs_prec, b.abs_prec) < k:
        return
    ab = congruent_mod(a, b, k)
    assert ab == congruent_mod(b, a, k)
    diff = a - b
    if diff.abs_prec >= k:
        assert ab == congruent_mod(diff, PadicValue.zero(p), k)


@st.composite
def padic_pairs(draw):
    """(a, b) of one prime: each side zero (exact or to a finite, possibly
    negative, absolute precision) or a unit times p^v, with b often sharing
    a's leading digits so that a - b cancels in part or in full."""
    p = draw(st.sampled_from([3, 5, 7]))

    def value(v=None, unit=None):
        if v is None and draw(st.integers(0, 4)) == 0:
            return PadicValue.zero(p, draw(st.sampled_from([math.inf, -2, 0, 1, 3, 6])))
        v = draw(st.integers(-3, 4)) if v is None else v
        n = draw(st.integers(1, 6))
        if unit is None:
            unit = draw(st.integers(1, p**n - 1))
        unit %= p**n
        if unit % p == 0:
            unit += 1
        return PadicValue(p, v, unit, n)

    a = value()
    if a.is_zero or draw(st.booleans()):
        return a, value()
    # b = a + c p^(v + m): equal to a in its first m digits (or in all, c = 0)
    m, c = draw(st.integers(0, 6)), draw(st.integers(0, p**3))
    return a, value(a.valuation, a.unit + c * p**m)


@given(padic_pairs())
@settings(max_examples=400, deadline=None)
@example((PadicValue(7, 0, 1, 3), PadicValue(7, 0, 1, 3)))
@example((PadicValue(7, 0, 1, 3), PadicValue(7, 0, 1, 5)))
@example((PadicValue(7, 1, 2, 2), PadicValue.zero(7, 2)))
@example((PadicValue.zero(7, 4), PadicValue(7, -1, 3, 2)))
@example((PadicValue.zero(7), PadicValue.zero(7, -1)))
def test_sub_equals_add_of_negation(pair):
    a, b = pair
    want = a + -b
    got = a - b
    assert (got.prime, got.valuation, got.unit, got.rel_prec) == \
        (want.prime, want.valuation, want.unit, want.rel_prec)


def _fields(v):
    return v.prime, v.valuation, v.unit, v.rel_prec


@given(padic_pairs())
@settings(max_examples=400, deadline=None)
@example((PadicValue(7, 0, 1, 3), PadicValue(7, 0, 1, 3)))
@example((PadicValue(7, 0, 1, 3), PadicValue(7, 0, 1, 5)))
@example((PadicValue(7, 1, 2, 2), PadicValue.zero(7, 2)))
@example((PadicValue.zero(7, 4), PadicValue(7, -1, 3, 2)))
@example((PadicValue.zero(7), PadicValue.zero(7, -1)))
def test_sum_matches_the_branchwise_oracle(pair):
    # the one sum rule against the zero branches and digit sum it replaced
    a, b = pair
    assert _fields(a + b) == _fields(oracles.padic_sum(a, b, 1))
    assert _fields(a - b) == _fields(oracles.padic_sum(a, b, -1))
    assert _fields(b - a) == _fields(oracles.padic_sum(b, a, -1))



def _outcome(f, *args):
    """f(*args), or the type and message of the error it raises."""
    try:
        return f(*args)
    except (ValueError, PrecisionError) as e:
        return type(e), str(e)


@given(padic_pairs(), st.integers(-4, 8))
@settings(max_examples=400, deadline=None)
@example((PadicValue.zero(7), PadicValue.zero(7)), 3)
@example((PadicValue(7, 0, 1, 3), PadicValue(7, 0, 1, 3)), 2)
@example((PadicValue(7, -2, 3, 2), PadicValue(7, 0, 1, 4)), -1)
@example((PadicValue(7, 1, 2, 2), PadicValue.zero(7, 1)), 1)
def test_diff_valuation_matches_the_difference_value(pair, k):
    # the digit rule against the valuation of the difference value it replaced
    a, b = pair
    assert _outcome(padic._diff_valuation, a, b, k) == _outcome(oracles.diff_valuation, a, b, k)
    assert _outcome(padic._diff_valuation, b, a, k) == _outcome(oracles.diff_valuation, b, a, k)


@pytest.mark.parametrize("a, b, k, want", [
    (PadicValue.zero(7), PadicValue.zero(7), 50, None),  # exact zeros
    (PadicValue(7, 0, 1, 3), PadicValue(7, 0, 1 + 7**3, 5), 3, None),  # zero to p^3
    (PadicValue(7, 0, 1, 3), PadicValue(7, 0, 8, 3), 1, 1),
    (PadicValue(7, -2, 3, 2), PadicValue(7, 0, 1, 4), -2, -2),  # negative valuation
    (PadicValue(7, -2, 3, 2), PadicValue(7, -2, 3 + 7, 2), -2, -1),
    (PadicValue(7, 1, 2, 2), PadicValue.zero(7, 1), 1, None),  # n <= 0: a bound at v
    (PadicValue.zero(7, -1), PadicValue(7, 0, 1, 2), -1, None),  # n < 0
], ids=["exact-zeros", "finite-zero", "unit", "negative", "negative-cancel", "n-zero",
        "n-negative"])
def test_diff_valuation_branches(a, b, k, want):
    assert padic._diff_valuation(a, b, k) == want == oracles.diff_valuation(a, b, k)


def test_diff_valuation_raises_mixed_primes_before_precision():
    a, b = PadicValue(7, 0, 1, 1), PadicValue(11, 0, 1, 1)
    with pytest.raises(ValueError, match="mixed primes"):
        padic._diff_valuation(a, b, 5)  # k past both operands' precision
    with pytest.raises(PrecisionError, match=r"mod p\^5 requested .* mod p\^1 and p\^3"):
        padic._diff_valuation(a, PadicValue(7, 0, 1, 3), 5)


def test_report_verdict_builds_no_difference_value(monkeypatch):
    from padichyp.report import CongruenceReport
    a, b = PadicValue(7, 0, 1, 3), PadicValue(7, 0, 8, 3)
    made = []
    init = PadicValue.__init__
    monkeypatch.setattr(PadicValue, "__init__", lambda self, *args: (
        made.append(args), init(self, *args))[1])
    row = CongruenceReport.from_sides("c", 7, {}, 2, a, b)
    assert (row.diff_valuation, row.passed, made) == (1, False, [])


HALF = Fraction(1, 2)

# every entry point that takes a digit count N, called with N = 0
NO_DIGIT = {
    "from_residue": lambda: PadicValue.from_residue(3, 7, 0),
    "rational_to_padic": lambda: rational_to_padic(Fraction(1, 3), 7, 0),
    "truncated_hyp": lambda: truncated_hyp(HypParams((HALF, HALF), (Fraction(1),), 1, 6), 7, 0),
    "g1": lambda: g1(Fraction(1, 3), 7, 0),
    "GArguments": lambda: GArguments(7, (HALF, HALF), 0),
    "gamma_p": lambda: gamma_p(Fraction(1, 3), 7, 0),
    "greene_series_scaled": lambda: greene_series_scaled(
        [Character.quadratic(7)] * 2, [Character.trivial(7)], 1, 0),
}


@pytest.mark.parametrize("entry", list(NO_DIGIT))
def test_no_digit_raises_the_one_modulus_error(entry):
    """At N = 0 every entry point stops at padic._modulus, with its one message."""
    with pytest.raises(PrecisionError, match=r"^need at least one digit, got N=0$"):
        NO_DIGIT[entry]()
