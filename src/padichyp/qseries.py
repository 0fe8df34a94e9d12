"""Integer q-expansions of Dedekind eta products.

eta(z) = q^(1/24) prod_(n>=1) (1 - q^n), so a product prod eta(s_i z)^(e_i)
starts at q^(sum s_i e_i / 24) (which must be an integer) and its tail is
prod_i (prod_n (1 - q^(s_i n)))^(e_i).  By Euler's pentagonal theorem each
inner product is the sparse series sum_k (-1)^k q^(s k (3k-1)/2), k in Z,
with about 2 sqrt(2L/(3s)) terms below q^L; the expansion multiplies by it
e_i times in place, O(e L^1.5 / sqrt(s)) work per factor up to q^L.
Coefficients are exact integers throughout.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record


class QSeries(Record):
    """Truncated integer q-series: coeffs[k] is the coefficient of
    q^(offset + k), valid through q^truncation inclusive (by default, the
    last coefficient given)."""

    __slots__ = ("offset", "coeffs", "truncation")

    def __init__(self, offset: int, coeffs: list[int], truncation: int = -1) -> None:
        if truncation < 0:
            truncation = offset + len(coeffs) - 1
        if len(coeffs) != truncation - offset + 1:
            raise ValueError("coefficient window does not match truncation")
        self.offset = offset
        self.coeffs = coeffs
        self.truncation = truncation

    def coefficient(self, n: int) -> int:
        if n > self.truncation:
            raise IndexError(f"coefficient of q^{n} is beyond truncation {self.truncation}")
        if n < self.offset:
            return 0
        return self.coeffs[n - self.offset]


def eta_product(factors, truncation: int) -> QSeries:
    """prod_i eta(scale_i * z)^(exponent_i) up to q^truncation.

    The combined leading exponent sum(scale*exponent)/24 must be an integer;
    negative exponents are rejected (never needed here).
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    factors = [(int(s), int(e)) for s, e in factors]
    for s, e in factors:
        if s < 1:
            raise ValueError("eta scale must be a positive integer")
        if e < 0:
            raise ValueError("negative eta exponents are not supported")
    lead = sum(Fraction(s * e, 24) for s, e in factors)
    if lead.denominator != 1:
        raise ValueError(f"leading exponent {lead} is not an integer")
    offset = int(lead)
    length = truncation - offset + 1
    if length < 1:
        raise ValueError("truncation is below the leading term")
    co = [0] * length
    co[0] = 1
    for s, e in factors:
        _times_eta(co, s, e)
    return QSeries(offset, co, truncation)


def _times_eta(co: list[int], s: int, e: int) -> None:
    """Multiply the power series co (through q^(len(co) - 1)) in place by
    prod_(n>=1) (1 - q^(s n))^e: e pentagonal passes."""
    terms = _euler_terms(s, len(co))
    for _ in range(e):
        for i in range(len(co) - 1, 0, -1):
            acc = co[i]
            for d, sign in terms:
                if d > i:
                    break
                acc += sign * co[i - d]
            co[i] = acc


def _euler_terms(s: int, length: int) -> list[tuple[int, int]]:
    """(exponent, sign) of the terms of prod_(n>=1) (1 - q^(s n)) below
    q^length other than the constant 1, by ascending exponent.  By Euler's
    pentagonal theorem they are (-1)^k q^(s k (3k -+ 1) / 2) for k >= 1."""
    terms = []
    k = 1
    while s * k * (3 * k - 1) // 2 < length:
        sign = -1 if k % 2 else 1
        for m in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if s * m < length:
                terms.append((s * m, sign))
        k += 1
    return terms


def gamma_coeffs(truncation: int) -> QSeries:
    """The weight-4 level-8 form q prod (1-q^(2n))^4 (1-q^(4n))^4."""
    return eta_product([(2, 4), (4, 4)], truncation)


# the weights of f1..f5 in the level-25 form
_RV_WEIGHTS = (1, 5, 20, 25, 25)


def rv_form_coeffs(truncation: int) -> QSeries:
    """The weight-4 level-25 combination f1 + 5 f2 + 20 f3 + 25 f4 + 25 f5
    with f_i = eta(z)^(5-i) eta(5z)^4 eta(25z)^(i-1); f_i starts at q^i.

    The tails eta(5z)^4 eta(z)^k are built once, for k = 0..4 in turn, and
    each f_i multiplies its power of eta(25z) into a copy: 18 pentagonal
    passes instead of 40."""
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    out = [0] * truncation  # the coefficients of q^1..q^truncation
    base = [1] + [0] * (truncation - 1)
    _times_eta(base, 5, 4)
    for i in range(5, 0, -1):
        if i < 5:
            _times_eta(base, 1, 1)  # now the tail of eta(z)^(5-i) eta(5z)^4
        if i <= truncation:
            fi = base[:truncation - i + 1]
            _times_eta(fi, 25, i - 1)
            w = _RV_WEIGHTS[i - 1]
            for k, c in enumerate(fi, i - 1):
                out[k] += w * c
    return QSeries(1, out, truncation)


def hecke_bound_ok(series: QSeries, p: int) -> bool:
    """Deligne bound for a weight-4 form: |a(p)| <= 2 p^(3/2)."""
    return series.coefficient(p) ** 2 <= 4 * p**3


def write_coefficients_csv(series: QSeries, fileobj) -> None:
    """Two columns n, coefficient from the leading power to the truncation."""
    import csv

    w = csv.writer(fileobj)
    w.writerow(["n", "coefficient"])
    for n in range(series.offset, series.truncation + 1):
        w.writerow([n, series.coefficient(n)])
