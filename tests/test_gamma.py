"""Gamma function values, the blockwise evaluator against the sweep oracle,
shift/derivative machinery and the shifted-gamma congruence families (the
per-(x, j) family functions are the oracles of the residue-level suite)."""

import math
import random
import re
from fractions import Fraction

import pytest

import oracles
from padichyp import gamma, padic
from padichyp.checks import _evaluate
from padichyp.gamma import (
    _gamma_blocks,
    _horner_data,
    default_x_grid,
    g1,
    g2,
    gamma_p,
    gamma_residue,
    gamma_residues,
    rep,
    section3_rows,
)
from oracles import (
    paired_g1_harmonic,
    paired_gamma_binomial,
    shifted_g1_harmonic,
    shifted_g1g2_harmonic,
    shifted_gamma_factorial,
    split_by_rep,
)
from padichyp.padic import (PadicValue, PrecisionError, congruent_mod, primes_in,
                            rational_to_padic)


def test_value_at_zero_and_one():
    assert gamma_p(0, 7, 3).unit == 1
    assert gamma_p(1, 7, 3).unit == 7**3 - 1


def test_small_integer_value():
    assert gamma_p(4, 7, 1).unit == 6  # (-1)^4 * 1*2*3 = 6


def test_half_via_representative():
    assert rep(Fraction(1, 2), 7) == 4
    assert gamma_p(Fraction(1, 2), 7, 1).unit == 6  # = -1 mod 7


def test_frozen_fractional_values():
    # frozen from the defining-product sweep
    assert gamma_p(Fraction(1, 3), 7, 4).unit == 613
    assert gamma_p(Fraction(1, 2), 7, 4).unit == 2400
    assert gamma_p(Fraction(2, 5), 11, 3).unit == 677
    assert gamma_p(1, 13, 2).unit == 168


def test_factorial_formula_at_single_digit():
    import math
    for p in (7, 11, 13):
        for r in range(1, p + 1):
            expect = (-1) ** r * math.factorial(r - 1) % p
            assert gamma_p(r, p, 1).unit == expect  # r = p wraps to Gamma_p(0)


def test_block_evaluation_matches_sweep_oracle():
    rng = random.Random(7)
    for p, N in [(3, 2), (5, 4), (7, 2), (7, 5), (7, 6), (11, 3), (13, 4), (13, 5)]:
        pN = p**N
        points = {0, 1, 2, p - 1, p, p + 1, pN - 1}
        points.update(rng.randrange(pN) for _ in range(25))
        sweep = oracles.gamma_sweep(p, N)
        for r in points:
            assert gamma_residue(r, p, N) == sweep[r], (p, N, r)


def test_every_residue_matches_sweep_oracle():
    # N > p - 1 from (3, 3) and (5, 5) on: the tables carry guard digits
    for p, top in [(3, 9), (5, 6), (7, 6)]:
        for N in range(1, top + 1):
            assert _gamma_blocks(range(p**N), p, N) == oracles.gamma_sweep(p, N), (p, N)


def test_seeded_samples_match_sweep_oracle():
    # one sweep per (p, N); N + 1 digits reduce to the same table by continuity,
    # and (3, 14), (7, 8) were past the bound of the deleted runtime sweep
    rng = random.Random(13)
    for p, N in [(3, 13), (5, 9), (7, 7)]:
        pN = p**N
        sweep = oracles.gamma_sweep(p, N)
        rs = [0, 1, pN - 1] + [rng.randrange(pN) for _ in range(1500)]
        assert gamma_residues(rs, p, N) == [sweep[r] for r in rs], (p, N)
        rs = [0, 1, pN, p * pN - 1] + [rng.randrange(p * pN) for _ in range(1500)]
        assert [v % pN for v in gamma_residues(rs, p, N + 1)] == \
            [sweep[r % pN] for r in rs], (p, N + 1)


def test_block_kernel_matches_per_value_oracle_on_every_residue():
    for p, top in [(7, 6), (11, 4)]:
        for N in range(1, top + 1):
            rs = range(p**N)
            assert _gamma_blocks(rs, p, N) == [oracles.gamma_block(r, p, N) for r in rs], (p, N)


def test_block_kernel_matches_per_value_oracle_at_large_primes():
    rng = random.Random(11)
    for p in (251, 491):
        for N in range(1, 6):
            pN = p**N
            rs = [0, 1, 2, p - 1, p, p + 1, pN - p, pN - 1]
            rs += [rng.randrange(pN) for _ in range(300)]
            assert _gamma_blocks(rs, p, N) == [oracles.gamma_block(r, p, N) for r in rs], (p, N)


def test_block_kernel_matches_faulhaber_oracle_at_high_precision():
    # past every sweep and per-value oracle: the falling-factorial tables
    # against the Bernoulli/Faulhaber ones, with their own guard digits
    rng = random.Random(29)
    for p, N in [(3, 30), (3, 60), (3, 120), (3, 200), (5, 60), (7, 30), (17, 17), (491, 40)]:
        rs = [rng.randrange(p**N) for _ in range(200)]
        assert _gamma_blocks(rs, p, N) == [oracles.gamma_faulhaber(r, p, N) for r in rs], (p, N)


def test_batched_residues_equal_single_residues(monkeypatch):
    rng = random.Random(5)
    # (3, 4) and (5, 6) have N > p - 1 and carry guard digits
    for p, N in [(3, 4), (5, 6), (7, 3), (13, 4), (491, 5)]:
        pN = p**N
        rs = [rng.randrange(pN) for _ in range(200)] + [0, 1, pN - 1, 0, 1]
        monkeypatch.setattr(gamma, "_value_cache", {})
        batch = gamma_residues(rs, p, N)
        monkeypatch.setattr(gamma, "_value_cache", {})
        assert batch == [gamma_residue(r, p, N) for r in rs], (p, N)
        assert gamma_residues([], p, N) == []


@pytest.mark.parametrize("r, p, N", [
    (7**3, 7, 3), (-1, 7, 3),  # residue out of range
    (0, 7, 0), (0, 7, -1),  # no digit
    (0, 9, 2), (0, 2, 2), (0, 503, 2),  # not an odd prime, past the bound
])
def test_batched_residues_raise_like_single_residues(r, p, N):
    with pytest.raises((ValueError, PrecisionError)) as single:
        gamma_residue(r, p, N)
    with pytest.raises(type(single.value), match=re.escape(str(single.value))):
        gamma_residues([0, r], p, N)


def test_small_primes_match_sweep_oracle():
    # (3, 4) has N > p - 1 and carries guard digits; (5, 3) needs none
    for p, N in [(3, 4), (5, 3)]:
        sweep = oracles.gamma_sweep(p, N)
        for r in range(p**N):
            assert gamma_residue(r, p, N) == sweep[r]


def test_values_are_units():
    rng = random.Random(1)
    for _ in range(40):
        r = rng.randrange(11**3)
        assert gamma_residue(r, 11, 3) % 11 != 0


def test_negative_valuation_rejected():
    with pytest.raises(ValueError):
        gamma_p(Fraction(1, 7), 7, 2)


@pytest.mark.parametrize("caller", ["gamma_p", "rep", "g1", "g2", "s_factor"])
def test_an_argument_outside_z_p_names_itself_for_every_caller(caller):
    """Every function that reduces an argument into Z_p gives the same
    message, which is worded for none of them in particular."""
    from padichyp.gamma import g1, g2
    from padichyp.gfunction import s_factor
    call = {"gamma_p": lambda x: gamma_p(x, 7, 2), "rep": lambda x: rep(x, 7),
            "g1": lambda x: g1(x, 7, 2), "g2": lambda x: g2(x, 7, 2),
            "s_factor": lambda x: s_factor([Fraction(1, 2), x], 7, 2)}[caller]
    with pytest.raises(ValueError, match=r"^1/7 is not in Z_7: p=7 divides its denominator$"):
        call(Fraction(1, 7))
    with pytest.raises(ValueError, match=r"^a 7-adic value of valuation -1 is not in Z_7$"):
        call(rational_to_padic(Fraction(1, 7), 7, 3))


def test_reflection():
    for p in (7, 11, 13):
        for x in default_x_grid(p):
            prod = gamma_p(x, p, 4) * gamma_p(1 - x, p, 4)
            assert congruent_mod(prod, rational_to_padic((-1) ** rep(x, p), p, 4), 4)


def test_functional_equation():
    p, N = 11, 4
    for x in default_x_grid(p):
        lhs = gamma_p(x + 1, p, N)
        if Fraction(x).numerator % p == 0:
            rhs = -gamma_p(x, p, N)
        else:
            rhs = -(rational_to_padic(x, p, N) * gamma_p(x, p, N))
        assert congruent_mod(lhs, rhs, N)


def test_continuity():
    # evaluate above the congruence level so the two arguments genuinely
    # differ as residues
    p = 7
    for n in (1, 2, 3):
        for x in (Fraction(1, 3), Fraction(4, 5), Fraction(9, 10)):
            y = x + p**n
            a = gamma_p(y, p, n + 2)
            b = gamma_p(x, p, n + 2)
            # the arguments are distinct residues at working precision
            assert rational_to_padic(y, p, n + 2).unit != \
                rational_to_padic(x, p, n + 2).unit
            assert congruent_mod(a, b, n)


def test_gauss_multiplication_formula_at_every_prime():
    # prod_{h<m} Gamma_p((y+h)/m) = eps_m m^(1-R) (m^-(p-1))^(y_1) Gamma_p(y) mod p^5,
    # with R = rep(y), y = R + p y_1 and eps_m = prod_{h<m} Gamma_p(h/m), for
    # m <= 12 prime to p at two seeded y; two controls, the y_1 factor dropped
    # and m^(1-R) read as m^-R, must each fail at every point
    N, rng = 5, random.Random(30)
    points, failed = 0, [0, 0]
    padic._at_prime(None)
    for p in primes_in(5, 499):
        padic._at_prime(p)
        pN = p**N
        for m in range(2, 13):
            if m % p == 0:
                continue
            mi = pow(m, -1, pN)
            eps = math.prod(gamma_residues([h * mi % pN for h in range(m)], p, N))
            for y in (rng.randrange(pN), rng.randrange(pN)):
                R = y % p or p
                lhs = math.prod(gamma_residues([(y + h) * mi % pN for h in range(m)], p, N)) % pN
                base = eps * gamma_residue(y, p, N)
                twist = pow(m, (1 - p) * ((y - R) // p), pN)
                assert lhs == base * pow(m, 1 - R, pN) * twist % pN, (p, m, y)
                failed[0] += lhs != base * pow(m, 1 - R, pN) % pN
                failed[1] += lhs != base * pow(m, -R, pN) * twist % pN
                points += 1
    padic._at_prime(None)
    assert points == 2038 and failed == [points, points]


def test_multiplication_formula_factor_at_k_over_p_minus_1_is_a_teichmuller_power():
    # at y = k/(p-1) the factor m^(1-R) (m^-(p-1))^(y_1) of the formula is
    # omega(m)^k mod p^5, omega(m) = m^(p^4) the Teichmuller lift: the form the
    # column plan of gfunction reads, for every k < p - 1, m <= 12 prime to p
    # and p in 5..97; the control, omega(m) read as m, holds at k = 0 alone
    N = 5
    points, failed = 0, []
    for p in primes_in(5, 97):
        pN = p**N
        inv = pow(p - 1, -1, pN)
        for m in range(2, 13):
            if m % p == 0:
                continue
            w = pow(m, p ** (N - 1), pN)
            for k in range(p - 1):
                y = k * inv % pN
                R = y % p or p
                factor = pow(m, 1 - R, pN) * pow(m, (1 - p) * ((y - R) // p), pN) % pN
                assert factor == pow(w, k, pN), (p, m, k)
                if factor != pow(m, k, pN):
                    failed.append(k)
                points += 1
    assert points == 11_328 and len(failed) == 11_079 and 0 not in failed


def test_batch_sentinels_and_consistency():
    assert gamma_residue(0, 7, 3) == 1 and gamma_residue(1, 7, 3) == 7**3 - 1
    rng = random.Random(3)
    qs = [rng.randrange(11**3) for _ in range(20)]
    for r in qs:
        assert gamma_residue(r, 11, 3) == gamma_p(r, 11, 3).unit


def test_batch_range_and_bound_errors():
    with pytest.raises(ValueError):
        gamma_residue(7**3, 7, 3)
    for N in (0, -1):
        with pytest.raises(PrecisionError, match="at least one digit"):
            gamma_residue(0, 7, N)
        with pytest.raises(PrecisionError, match="at least one digit"):
            gamma_p(Fraction(1, 3), 7, N)


def test_block_path_beyond_the_old_bounds():
    # N = 14 > 13 Bernoulli numbers, and 491^5 > 10^12: both take the block path
    for p, N in [(17, 14), (491, 5)]:
        for x in (Fraction(1, 3), Fraction(2, 7), Fraction(1, 2)):
            gx = gamma_p(x, p, N)
            assert gamma_p(x + 1, p, N) == -(rational_to_padic(x, p, N) * gx)
            assert gx * gamma_p(1 - x, p, N) == rational_to_padic((-1) ** rep(x, p), p, N)


def test_rep_examples_and_reflection_rule():
    assert rep(1, 7) == 1
    assert rep(Fraction(1, 3), 7) == 5
    assert rep(Fraction(2, 3), 7) == 3
    assert rep(Fraction(1, 3), 7) + rep(Fraction(2, 3), 7) == 8  # p + 1
    for p in (7, 11, 13):
        for x in default_x_grid(p):
            assert rep(1 - x, p) == p + 1 - rep(x, p)


@pytest.mark.parametrize("p", [7, 11, 499])
def test_rep_is_the_residue_mod_p_or_p(p):
    def outcome(f, x):
        try:
            return f(x)
        except (ValueError, PrecisionError) as exc:
            return type(exc)

    def via_residue(x):
        return gamma._as_residue(x, p, 1) or p

    good = [0, 1, -1, p, -p, 2 * p + 3, 10**20 + 7, Fraction(1, 2), Fraction(-3, 5),
            Fraction(p - 1, p + 1), Fraction(5 * p, 3), PadicValue.zero(p),
            PadicValue.zero(p, 1), rational_to_padic(Fraction(2, 3), p, 3),
            rational_to_padic(p * p, p, 2), rational_to_padic(Fraction(-1, 4), p, 1)]
    bad = [Fraction(1, p), Fraction(3, p * p), rational_to_padic(Fraction(1, p), p, 3),
           PadicValue.zero(p, 0), PadicValue.zero(5)]
    for x in good:
        r = rep(x, p)
        assert r == via_residue(x) and 1 <= r <= p, x
        if type(x) is int:
            assert r == (x % p or p)
    for x in bad:
        err = outcome(lambda y: rep(y, p), x)
        assert err in (ValueError, PrecisionError) and err is outcome(via_residue, x), x


def test_rep_floor_formula():
    # p = a mod d with 0 < a < d: rep(a/d) = p - floor((p-1)/d)
    for p in (7, 11, 13, 19):
        for d in range(2, 11):
            if d % p == 0:
                continue
            a = p % d
            if a == 0:
                continue
            assert rep(Fraction(a, d), p) == p - (p - 1) // d
            assert rep(Fraction(d - a, d), p) == (p - 1) // d + 1


def _lemmas(p, xs=None):
    """The rows of Lemmas 3.9-3.13 in section3_rows(p, xs), in its order."""
    return [row for row in section3_rows(p, xs) if row[0].startswith("lemma")]


def _properties(p, xs=None):
    """The rows of Props 3.1-3.3, 3.8 and Cors 3.4-3.5 in section3_rows(p, xs),
    in its order."""
    return [row for row in section3_rows(p, xs) if not row[0].startswith("lemma")]


def _shift(x, j, p, N):
    """Gamma_p(x + j) by the Prop 3.8 shift of section3_rows."""
    shifts = gamma._shift(gamma._as_residue(x, p, N), rep(x, p), gamma_p(x, p, N).unit, p, N)
    return list(shifts)[j]


def test_shift_formula_matches_direct_evaluation():
    for p in (7, 11):
        for x in (Fraction(1, 3), Fraction(1, 2), Fraction(7, 8), Fraction(9, 10)):
            if x.denominator % p == 0:
                continue
            for j in range(0, p + 1):
                assert congruent_mod(
                    _shift(x, j, p, 4), gamma_p(x + j, p, 4), 4), (p, x, j)
                assert _shift(x, j, p, 4) == oracles.gamma_shift(x, j, p, 4), (p, x, j)


class _Factor(int):
    """A factor a + j of the shift product: multiplying by it is counted."""

    products = 0

    def __mul__(self, other):
        _Factor.products += 1
        return int(self) * other

    __rmul__ = __mul__


class _CountedResidue(int):
    """The residue a of x, whose sums a + j are counted factors."""

    def __add__(self, other):
        return _Factor(int(self) + other)


@pytest.mark.parametrize("p", [7, 11, 13, 31])
def test_shift_rows_take_one_factor_product_per_step(monkeypatch, p):
    # a running product: at most p products for the p + 1 shifts of a point,
    # not (x)_j from scratch for every j
    as_residue = gamma._as_residue
    monkeypatch.setattr(gamma, "_as_residue", lambda x, q, N: _CountedResidue(as_residue(x, q, N)))
    monkeypatch.setattr(_Factor, "products", 0)
    rows = [row for row in section3_rows(p) if row[0] == "prop3.8"]
    points = len(default_x_grid(p))
    assert len(rows) == points * (p + 1)
    assert points * (p - 1) <= _Factor.products <= points * p
    assert all(r.passed for r in _evaluate(p, rows))


def test_shift_branches_explicitly():
    # x = 1/3, p = 7: rep = 5, so j <= 2 is the plain branch, j >= 3 divides
    # out the p-divisible factor x + p - rep(x) = 7/3
    from padichyp.hyp import rising_factorial
    p, x, N = 7, Fraction(1, 3), 4
    g0 = gamma_p(x, p, N)
    for j in (1, 2):
        expect = g0 * rational_to_padic(rising_factorial(x, j), p, N)
        if j % 2:
            expect = -expect
        assert congruent_mod(_shift(x, j, p, N), expect, N)
    j = 3
    expect = -(g0 * rational_to_padic(rising_factorial(x, j), p, N)
               * rational_to_padic(x + p - 5, p, N).inverse())
    assert congruent_mod(_shift(x, j, p, N), expect, N)


# -- Gross-Koblitz: Jacobi sums against Gamma_p(k/(p-1)) ---------------------


def _gross_koblitz(p, N, pairs, pole=True):
    """[-Gamma_p(a/(p-1)) Gamma_p(b/(p-1)) / Gamma_p(c/(p-1)) mod p^N for (a, b)
    in pairs], c = (a + b) mod (p - 1), times -p when a + b > p - 1 (pole
    False drops that factor, a negative control)."""
    pN = p**N
    inv = pow(p - 1, -1, pN)
    col = gamma_residues([k * inv % pN for k in range(p - 1)], p, N)
    out = []
    for a, b in pairs:
        v = -col[a] * col[b] * pow(col[(a + b) % (p - 1)], -1, pN)
        out.append((v * -p if pole and a + b > p - 1 else v) % pN)
    return out


def _jacobi_pairs(p, ks=None):
    """The pairs (a, b) of ks (by default 1..p-2) with a + b != 0 mod p - 1."""
    ks = range(1, p - 1) if ks is None else ks
    return [(a, b) for a in ks for b in ks if (a + b) % (p - 1)]


def _large_prime_ks(p):
    """The a, b sampled at a large prime: the ends and the middle of 1..p-2."""
    return sorted({1, 2, 3, (p - 1) // 2, (p + 1) // 2, p - 3, p - 2})


def _jacobi_failures(primes, ks=lambda p: None, power=-1, pole=True):
    """(pairs, pairs whose Jacobi sum differs from Gross-Koblitz mod p^4)."""
    pairs = failed = 0
    for p in primes:
        ab = _jacobi_pairs(p, ks(p))
        got = oracles.jacobi_sums(p, 4, ab, power)
        want = _gross_koblitz(p, 4, ab, pole)
        pairs += len(ab)
        failed += sum(g != w for g, w in zip(got, want))
    return pairs, failed


def test_jacobi_sums_equal_gross_koblitz():
    # Gamma_p(k/(p-1)) against character sums: no Gamma_p code on the left
    assert _jacobi_failures(primes_in(5, 61)) == (18080, 0)
    assert _jacobi_failures(primes_in(449, 499), _large_prime_ks) == (396, 0)


@pytest.mark.parametrize("control, failed", [
    ({"pole": False}, 9040),   # the -p factor dropped at a + b > p - 1
    ({"power": 1}, 18080),     # omega in place of wbar
])
def test_jacobi_controls_fail(control, failed):
    assert _jacobi_failures(primes_in(5, 61), **control) == (18080, failed)


# -- logarithmic derivatives -------------------------------------------------


def test_g1_step_is_one_over_x():
    for p in (7, 11, 13):
        d = g1(2, p, 2) - g1(1, p, 2)
        assert congruent_mod(d, rational_to_padic(1, p, 2), 2)
        x = Fraction(1, 3)
        d = g1(x + 1, p, 2) - g1(x, p, 2)
        assert congruent_mod(d, rational_to_padic(1 / x, p, 2), 2)


def test_g1_symmetry_includes_half():
    for p in (7, 11):
        for x in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(7, 8)):
            assert congruent_mod(g1(x, p, 2), g1(1 - x, p, 2), 2)


def test_g1_squared_minus_g2_antisymmetry():
    for p in (7, 11):
        for x in (Fraction(1, 3), Fraction(2, 5), Fraction(3, 4)):
            a = g1(x, p, 2) * g1(x, p, 2) - g2(x, p, 2)
            b = -(g1(1 - x, p, 2) * g1(1 - x, p, 2)) + g2(1 - x, p, 2)
            assert congruent_mod(a, b, 2)


def test_derivatives_stable_under_p_adic_perturbation():
    p = 11
    for x in (Fraction(1, 3), Fraction(4, 7)):
        for t in (1, 2, p):
            assert congruent_mod(g1(x + t * p, p, 1), g1(x, p, 1), 1)
            assert congruent_mod(g2(x + t * p, p, 1), g2(x, p, 1), 1)


def test_g1_second_order_update():
    p = 13
    for x in (Fraction(1, 3), Fraction(2, 9)):
        for t in (1, 2):
            z = Fraction(t * p)
            a1 = g1(x + z, p, 2)
            a2 = g2(x + z, p, 2)
            rhs = a1 + rational_to_padic(z, p, 3) * (a1 * a1 - a2)
            assert congruent_mod(g1(x, p, 2), rhs, 2)


def test_taylor_law_with_independent_derivatives():
    # third-order expansion, tested with difference-quotient G1/G2
    for p in (7, 11):
        for x in (Fraction(1, 3), Fraction(3, 5)):
            for t in (1, 2):
                z = Fraction(t * p)
                u1, u2 = g1(x, p, 2), g2(x, p, 2)
                rhs = gamma_p(x, p, 4) * (
                    rational_to_padic(1, p, 4)
                    + rational_to_padic(z, p, 4) * u1
                    + rational_to_padic(z * z / 2, p, 4) * u2)
                assert congruent_mod(gamma_p(x + z, p, 4), rhs, 3)


def test_derivatives_require_p_at_least_7():
    for call in (lambda: g1(1, 5, 1), lambda: g2(1, 5, 1),
                 lambda: list(section3_rows(5))):
        with pytest.raises(ValueError, match="require p >= 7"):
            call()


@pytest.mark.parametrize("p", [0, 1, 2, 9])
def test_the_prime_is_checked_before_the_argument(p):
    # 1/2 and 1/3 are not p-integral or not invertible mod p^N at these p
    for call in (gamma_p, g1, g2):
        for x in (Fraction(1, 2), Fraction(1, 3)):
            with pytest.raises(ValueError, match=f"p={p} is not an odd prime"):
                call(x, p, 2)
    with pytest.raises(ValueError, match=f"p={p} is not an odd prime"):
        list(section3_rows(p))


# -- shifted-gamma congruence families ---------------------------------------


def test_factorial_family_at_j_zero():
    # Gamma_p(x) = (rep(x)-1)! (-1)^rep(x) mod p
    import math
    for p in (7, 11):
        for x in (Fraction(1, 3), Fraction(5, 6), Fraction(1, 2)):
            lhs, rhs, k = shifted_gamma_factorial(x, 0, p)
            assert congruent_mod(lhs, rhs, k)
            r = rep(x, p)
            direct = rational_to_padic(math.factorial(r - 1) * (-1) ** r, p, 2)
            assert congruent_mod(lhs, direct, 1)


def test_harmonic_family_collapses_at_one():
    # x = 1: rep = 1 and both sides vanish for every j
    p = 7
    for j in range(0, p):
        lhs, rhs, k = shifted_g1_harmonic(Fraction(1), j, p)
        assert congruent_mod(lhs, rhs, k)
        if j <= p - 1:
            assert congruent_mod(lhs, PadicValue.zero(p, 1), 1)


def test_paired_families_full_grid_p7():
    p = 7
    for x in (Fraction(1, 3), Fraction(1, 2), Fraction(7, 8)):
        r1 = rep(split_by_rep(x, p)[0], p)
        for j in range(r1):
            lhs, rhs, k = paired_gamma_binomial(x, j, p)
            assert congruent_mod(lhs, rhs, k), (x, j, "binomial")
            lhs, rhs, k = paired_g1_harmonic(x, j, p)
            assert congruent_mod(lhs, rhs, k), (x, j, "g1-pair")


def test_rep_tie_happens_and_both_choices_work():
    # ties occur exactly when x = 1/2 mod p; both assignments must satisfy
    # the paired congruences
    p = 7
    x = Fraction(8, 9)
    assert rep(x, p) == rep(1 - x, p) == (p + 1) // 2
    for j in range(rep(x, p)):
        for y in (x, 1 - x):
            lhs, rhs, k = paired_gamma_binomial(y, j, p)
            assert congruent_mod(lhs, rhs, k)


def test_second_order_harmonic_family_spot():
    p = 11
    for x in (Fraction(1, 4), Fraction(9, 10)):
        for j in range(0, p):
            lhs, rhs, k = shifted_g1g2_harmonic(x, j, p)
            assert congruent_mod(lhs, rhs, k), (x, j)


def test_suite_runs_clean_and_reports_per_point():
    reports = _evaluate(7, _lemmas(7, xs=[Fraction(1, 3), Fraction(1, 2)]))
    assert all(r.passed for r in reports)
    claims = {r.claim for r in reports}
    assert claims == {"lemma3.9", "lemma3.10", "lemma3.11", "lemma3.12", "lemma3.13"}
    # one report per (family, x, j)
    l9 = [r for r in reports if r.claim == "lemma3.9"]
    assert len(l9) == 2 * (7 + 1)


def test_block_log_series_matches_power_series_oracle():
    # the falling-factorial log table, Horner-evaluated as u = L(K)/p, against
    # the oracle's L(K) summed from exact Fraction tables and power sums S_i(K)
    rng = random.Random(17)
    for p, N in [(3, 2), (3, 13), (5, 4), (5, 9), (7, 6), (7, 12), (11, 5),
                 (17, 14), (61, 5), (61, 30), (491, 5), (491, 40)]:
        pN, logpairs = _horner_data(p, N)[:2]
        for K in [0, 1, 2, p, p ** (N - 1) - 1] + [rng.randrange(p ** (N - 1)) for _ in range(8)]:
            u = 0
            for m, c in logpairs:
                u = (u * (K - m) + c) % pN
            assert p * u * K % pN == oracles.block_log(K, p, N), (p, N, K)


# -- the residue-level suites against the per-(x, j) oracles -----------------


@pytest.mark.parametrize("p", [7, 11, 13, 17, 19])
def test_suites_equal_the_per_point_oracles(p):
    # 7, 11, 13 are the check-all grid; the golden SHA does not reach 17, 19
    for fast, slow in ((_lemmas, oracles.lemma_check_gamma_suite),
                       (_properties, oracles.check_gamma_properties)):
        rows = _evaluate(p, fast(p))
        assert rows and rows == slow(p), (fast.__name__, p)


def test_section3_suites_evaluate_gamma_p_mod_p5_only(monkeypatch):
    # one precision for every Gamma_p value of both suites, G_1 and G_2 mod p^2
    # among them; each prime starts from empty memos
    evaluated = []
    blocks = gamma._gamma_blocks

    def counted(rs, p, N):
        rs = list(rs)
        evaluated.append((N, len(rs)))
        return blocks(rs, p, N)

    monkeypatch.setattr(gamma, "_gamma_blocks", counted)
    padic._at_prime(None)
    for p in (7, 11, 13):
        padic._at_prime(p)
        assert list(section3_rows(p))
    assert {N for N, _ in evaluated} == {5}
    assert sum(n for _, n in evaluated) <= 4235


def test_section3_rows_gather_each_point_in_three_batches(monkeypatch):
    # one gamma_residues batch per point each for Gamma_p, G_1 and G_2, the
    # lemmas' and the properties' values together, and one each for G_1 and
    # G_2 at 1 + j per prime
    calls = []
    residues = gamma.gamma_residues

    def counted(rs, p, N):
        calls.append(p)
        return residues(rs, p, N)

    monkeypatch.setattr(gamma, "gamma_residues", counted)
    for p in (7, 11, 13):
        assert list(section3_rows(p))
        assert calls.count(p) == 3 * len(default_x_grid(p)) + 2, p


def test_suite_takes_any_x_list_like_the_oracle():
    xs = [Fraction(1, 3), Fraction(8, 9), 2, Fraction(-5, 4), Fraction(7, 12)]
    for p in (7, 11):
        assert _evaluate(p, _lemmas(p, xs)) == oracles.lemma_check_gamma_suite(p, xs)
        assert _evaluate(p, _properties(p, xs)) == oracles.check_gamma_properties(p, xs)


def test_suites_read_every_side_from_an_integer(monkeypatch):
    # each side is one from_residue or _ratio_to_padic: no PadicValue arithmetic
    def no_arithmetic(*args):
        raise AssertionError("PadicValue arithmetic in a section-3 suite")

    for name in ("__add__", "__sub__", "__mul__", "__neg__", "inverse"):
        monkeypatch.setattr(PadicValue, name, no_arithmetic)
    for p in (7, 11, 13):
        rows = list(section3_rows(p))
        assert rows and all(isinstance(s, PadicValue) for row in rows for s in row[3:])


def test_derivatives_equal_the_difference_quotient_oracles():
    for p in (7, 11, 13):
        xs = [0, 1, 5, -3, Fraction(1, 3), Fraction(-2, 5), Fraction(p, 2),
              rational_to_padic(Fraction(2, 3), p, 12), rational_to_padic(p**2, p, 12)]
        for M in (1, 2, 3, 4):
            for x in xs:
                assert g1(x, p, M) == oracles.g1(x, p, M), (p, M, x)
                assert g2(x, p, M) == oracles.g2(x, p, M), (p, M, x)
    with pytest.raises(PrecisionError):
        g1(Fraction(1, 3), 7, 0)
    with pytest.raises(PrecisionError):
        g2(Fraction(1, 3), 7, 0)


# -- negative controls: each family fails when its right-hand side is perturbed


def _entry_weight(row, p, order, n):
    """The coefficient of H^(order)_n in the right-hand side of a lemma row."""
    x, j = Fraction(row.params["x"]), row.params["j"]
    m1, m2 = split_by_rep(x, p)
    r, r1, r2 = rep(x, p), rep(m1, p), rep(m2, p)
    reads = {
        ("lemma3.10", 1): [(r - 1 + j, 1), (j, -1)],
        ("lemma3.11", 2): [(r - 1 + j, 1), (j, -1)],
        ("lemma3.13", 1): [(r1 - 1 + j, 1), (r1 - 1 - j, 1), (j, -2)],
        ("lemma3.13", 2): [(r1 - 1 + j, r1 - m1), (r2 - 1 + j, m1 - r1)],
    }.get((row.claim, order), [])
    return sum(c for i, c in reads if i == n)


@pytest.mark.parametrize("order, n", [(1, 9), (1, 10), (2, 12), (2, 5)])
def test_harmonic_families_fail_with_a_shifted_prefix_entry(monkeypatch, order, n):
    p = 11
    base = _evaluate(p, _lemmas(p))
    assert all(r.passed for r in base)
    scaled = gamma._scaled_harmonic

    def shifted(top, i):
        S, t = scaled(top, i)
        return (S, t[:n] + (t[n] + 1,) + t[n + 1:]) if i == order else (S, t)

    monkeypatch.setattr(gamma, "_scaled_harmonic", shifted)
    rows = _evaluate(p, _lemmas(p))
    assert len(rows) == len(base)
    failed = set()
    for old, new in zip(base, rows):
        if order == 1 and new.claim == "lemma3.12":
            continue  # reads H^(1) only times r1 - m1, which p divides
        if _entry_weight(new, p, order, n):
            assert not new.passed and new.diff_valuation < new.mod_power, new
            failed.add(new.claim)
        else:
            assert new == old
    assert failed == _PREFIX_FAILING[order]


# the families that fail when an entry of the H^(order) prefix table shifts
_PREFIX_FAILING = {1: {"lemma3.10", "lemma3.13"}, 2: {"lemma3.11", "lemma3.13"}}


def _plus_one(rhs):
    def plus_one(r, j, q):
        num, den = rhs(r, j, q)
        return num + den, den
    return plus_one


def test_factorial_family_fails_with_its_rhs_plus_one(monkeypatch):
    p = 11
    monkeypatch.setattr(gamma, "_factorial_rhs", _plus_one(gamma._factorial_rhs))
    rows = [r for r in _evaluate(p, _lemmas(p)) if r.claim == "lemma3.9"]
    assert len(rows) == len(default_x_grid(p)) * (p + 1)
    assert all(not r.passed and r.diff_valuation == 0 for r in rows)


def _pole_sign_flipped(diff):
    def flipped(table, a, b, pole):
        # H_a - H_b + 1/pole for H_a - H_b - 1/pole
        num, den = diff(table, a, b, pole)
        return (num + 2 * table[0] if pole else num), den
    return flipped


# Each row is (function of the gamma module, its perturbation as a function of
# the original, the families with FAIL rows) at the check-all primes.  With
# the shifted prefix entries above they cover every lemma family.
_LEMMA_CONTROLS = [
    ("_factorial_rhs", _plus_one, {"lemma3.9"}),
    ("_harmonic_diff", _pole_sign_flipped, {"lemma3.10", "lemma3.11", "lemma3.12", "lemma3.13"}),
]


@pytest.mark.parametrize("name, perturb, failing", _LEMMA_CONTROLS)
def test_lemma_families_fail_when_perturbed(monkeypatch, name, perturb, failing):
    primes = (7, 11, 13)
    base = [r for p in primes for r in _evaluate(p, _lemmas(p))]
    assert all(r.passed for r in base)
    monkeypatch.setattr(gamma, name, perturb(getattr(gamma, name)))
    rows = [r for p in primes for r in _evaluate(p, _lemmas(p))]
    assert [(r.claim, r.params) for r in rows] == [(r.claim, r.params) for r in base]
    failed = [r for r in rows if not r.passed]
    assert all(r.diff_valuation < r.mod_power for r in failed)
    assert {r.claim for r in failed} == failing


def test_every_lemma_family_has_a_negative_control():
    claims = {claim for claim, *_ in _lemmas(7)}
    covered = set().union(*_PREFIX_FAILING.values(), *(f for _, _, f in _LEMMA_CONTROLS))
    assert covered == claims


def _plus_last_digit(shift):
    return lambda a, r, gx, p, N: [
        s + rational_to_padic(p ** (N - 1), p, N) for s in shift(a, r, gx, p, N)]


def _plus_digit_one(derivs):
    # a term that changes when the argument moves by p, which Cor 3.4 forbids mod p
    return lambda rs, p, M: [(g + r // p) % p**M for r, g in zip(rs, derivs(rs, p, M))]


_DERIVATIVE_FAMILIES = {"prop3.2.1", "prop3.2.2", "prop3.2.3", "prop3.2.4", "prop3.3.2", "cor3.5"}
# Each row is (function of the gamma module, its perturbation as a function of
# the original, the families with FAIL rows, the families whose every row
# fails), at the check-all primes.  Together they cover every property family
# of section3_rows.
_PROPERTY_CONTROLS = [
    ("_shift", _plus_last_digit, {"prop3.8"}, {"prop3.8"}),
    # the (-1)^r of the definition dropped: Gamma_p(x + 1) and Gamma_p(x + p^n)
    # change sign against Gamma_p(x); the residues of x and 1 - x sum to p^N + 1,
    # so they have one parity and the reflection rows still pass
    ("gamma_residues",
     lambda gr: lambda rs, p, N: [-u % p**N if r % 2 else u for r, u in zip(rs, gr(rs, p, N))],
     {"prop3.1.1", "prop3.1.3", "prop3.3.2", "prop3.8", "prop3.2.1", "prop3.2.2",
      "prop3.2.4", "cor3.4", "cor3.5"},
     {"prop3.1.1", "prop3.1.3"}),
    # every value doubled: only the reflection rows see the normalisation
    ("gamma_residues", lambda gr: lambda rs, p, N: [2 * u % p**N for u in gr(rs, p, N)],
     {"prop3.1.2"}, {"prop3.1.2"}),
    ("_g1s", lambda g1s: lambda rs, p, M: g1s([r + 1 for r in rs], p, M),
     _DERIVATIVE_FAMILIES, {"prop3.2.1"}),
    ("_g2s", lambda g2s: lambda rs, p, M: g2s([r + 1 for r in rs], p, M),
     _DERIVATIVE_FAMILIES - {"prop3.2.1", "prop3.2.3"}, set()),
    ("_g1s", _plus_digit_one, _DERIVATIVE_FAMILIES | {"cor3.4"}, {"prop3.2.4", "cor3.5"}),
    ("_g2s", _plus_digit_one, {"prop3.2.2", "prop3.2.4", "prop3.3.2", "cor3.4", "cor3.5"},
     set()),
]


@pytest.mark.parametrize("name, perturb, failing, all_fail", _PROPERTY_CONTROLS)
def test_property_families_fail_when_perturbed(monkeypatch, name, perturb, failing, all_fail):
    primes = (7, 11, 13)
    base = [r for p in primes for r in _evaluate(p, _properties(p))]
    assert all(r.passed for r in base)
    monkeypatch.setattr(gamma, name, perturb(getattr(gamma, name)))
    rows = [r for p in primes for r in _evaluate(p, _properties(p))]
    assert [(r.claim, r.params) for r in rows] == [(r.claim, r.params) for r in base]
    failed = [r for r in rows if not r.passed]
    assert all(r.diff_valuation < r.mod_power for r in failed)
    assert {r.claim for r in failed} == failing
    for claim in all_fail:
        assert all(not r.passed for r in rows if r.claim == claim), claim
    if name == "_shift":
        assert all(r.diff_valuation == r.mod_power - 1 for r in failed)


def test_every_property_family_has_a_negative_control():
    claims = {claim for claim, *_ in _properties(7)}
    assert set().union(*(failing for _, _, failing, _ in _PROPERTY_CONTROLS)) == claims

