"""Eta-product q-expansions against a naive polynomial-product oracle,
plus the classical coefficient facts used by the congruence checks."""

import io
import math

import oracles
import pytest

from padichyp.qseries import (
    QSeries,
    eta_product,
    gamma_coeffs,
    hecke_bound_ok,
    rv_form_coeffs,
    write_coefficients_csv,
)


def _naive_eta(factors, M):
    """Independent expansion: binomial-theorem factors, full convolution."""
    off = sum(s * e for s, e in factors)
    assert off % 24 == 0
    off //= 24
    L = M - off + 1
    poly = [1] + [0] * (L - 1)
    for s, e in factors:
        n = 1
        while s * n < L:
            k = s * n
            factor = [0] * L
            for j in range(0, min(e, (L - 1) // k) + 1):
                factor[k * j] = (-1) ** j * math.comb(e, j)
            out = [0] * L
            for i, a in enumerate(poly):
                if a:
                    for jj in range(L - i):
                        if factor[jj]:
                            out[i + jj] += a * factor[jj]
            poly = out
            n += 1
    return off, poly


def test_discriminant_leading_coefficients():
    d = eta_product([(1, 24)], 6)
    assert d.offset == 1
    assert [d.coefficient(n) for n in (1, 2, 3)] == [1, -24, 252]


def test_empty_product_is_one():
    s = eta_product([], 5)
    assert s.offset == 0 and s.coefficient(0) == 1
    assert all(s.coefficient(n) == 0 for n in range(1, 6))


def test_level8_form_values():
    g = gamma_coeffs(20)
    assert g.coefficient(1) == 1
    assert g.coefficient(3) == -4
    assert g.coefficient(5) == -2
    assert [g.coefficient(n) for n in (7, 9, 11, 13)] == [24, -11, -44, 22]


def test_level8_form_even_coefficients_vanish():
    g = gamma_coeffs(200)
    assert all(g.coefficient(n) == 0 for n in range(2, 201, 2))


def test_level25_form_values():
    f = rv_form_coeffs(13)
    assert f.coefficient(1) == 1
    assert [f.coefficient(n) for n in (2, 3, 4, 5, 6, 7, 11)] == [1, 7, -7, 0, 7, 6, -43]


def test_level25_multiplicativity_spot_checks():
    f = rv_form_coeffs(60)
    assert f.coefficient(6) == f.coefficient(2) * f.coefficient(3)
    assert f.coefficient(14) == f.coefficient(2) * f.coefficient(7)
    assert f.coefficient(21) == f.coefficient(3) * f.coefficient(7)


def test_weight4_coefficient_bounds():
    g = gamma_coeffs(200)
    f = rv_form_coeffs(200)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 97, 101, 199):
        assert hecke_bound_ok(g, p)
        assert hecke_bound_ok(f, p)


def test_expansion_matches_naive_oracle_to_200():
    for factors in [[(1, 24)], [(2, 4), (4, 4)], [(1, 4), (5, 4), (25, 0)],
                    [(1, 1), (5, 4), (25, 3)]]:
        off, poly = _naive_eta(factors, 200)
        s = eta_product(factors, 200)
        assert s.offset == off
        assert s.coeffs == poly


def test_component_offsets_of_level25_form():
    for i in range(1, 6):
        fi = eta_product([(1, 5 - i), (5, 4), (25, i - 1)], 30)
        assert fi.offset == i


def test_fractional_leading_power_rejected():
    with pytest.raises(ValueError):
        eta_product([(1, 1)], 10)  # q^(1/24) alone


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        eta_product([(1, -4), (2, 5)], 10)


def test_series_rejects_a_window_that_misses_its_truncation():
    with pytest.raises(ValueError, match="^coefficient window does not match truncation$"):
        QSeries(1, [1, 2], 5)


def test_product_needs_a_positive_truncation():
    with pytest.raises(ValueError, match="^truncation must be >= 1$"):
        eta_product([(1, 24)], 0)


def test_coefficient_window():
    s = QSeries(2, [5, 6], 3)
    assert s.coefficient(1) == 0
    assert s.coefficient(2) == 5
    with pytest.raises(IndexError):
        s.coefficient(4)


def test_csv_export():
    buf = io.StringIO()
    write_coefficients_csv(gamma_coeffs(5), buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "n,coefficient"
    assert lines[1] == "1,1"
    assert lines[3] == "3,-4"
    assert len(lines) == 6


# -- the pentagonal-series expansion against the one-binomial-at-a-time oracle

LEVEL8 = [(2, 4), (4, 4)]
LEVEL25 = [[(1, 5 - i), (5, 4), (25, i - 1)] for i in range(1, 6)]
TRUNCATIONS = [*range(1, 31), 499]


def _offset(factors):
    return sum(s * e for s, e in factors) // 24


def test_expansion_matches_binomial_oracle():
    for factors in [LEVEL8, *LEVEL25]:
        for M in TRUNCATIONS:
            if M < _offset(factors):
                with pytest.raises(ValueError):
                    eta_product(factors, M)
                continue
            s = eta_product(factors, M)
            assert (s.offset, s.coeffs) == oracles.eta_product(factors, M), (factors, M)


def test_forms_match_binomial_oracle():
    weights = (1, 5, 20, 25, 25)
    for M in TRUNCATIONS:
        assert gamma_coeffs(M).coeffs == oracles.eta_product(LEVEL8, M)[1], M
        expected = [0] * M
        for w, factors in zip(weights, LEVEL25):
            if _offset(factors) <= M:
                off, poly = oracles.eta_product(factors, M)
                for k, c in enumerate(poly):
                    expected[off + k - 1] += w * c
        assert rv_form_coeffs(M).coeffs == expected, M


@pytest.mark.parametrize("M", [1, 2, 3, 4, 5, 6, 600])
def test_shared_level25_build_equals_the_per_form_sum(M):
    f = rv_form_coeffs(M)
    assert (f.offset, f.truncation) == (1, M)
    assert f.coeffs == oracles.rv_form_coeffs(M)
