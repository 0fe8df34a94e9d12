"""Exact oracles for the fast kernels.

These are the straightforward per-term Fraction (and truncated-power-series)
evaluations that the package replaced by integer num/den kernels for speed,
the per-entry Greene binomial table replaced by one chirp correlation, the
one-binomial-at-a-time eta-product expansion replaced by Euler's pentagonal
series, and the per-value Gamma_p block evaluation (one Faulhaber polynomial
per log coefficient) replaced by one folded log polynomial.  They stay here so that every fast kernel is compared
with an independent exact evaluation of the same quantity.
"""

from __future__ import annotations

import math
from fractions import Fraction

from padichyp.characters import Character, _beta_residue
from padichyp.combinatorics import harmonic
from padichyp.gamma import _block_data
from padichyp.hyp import HypParams, rising_factorial
from padichyp.padic import PadicValue, rational_to_padic


def id1_lhs(m: int, n: int) -> Fraction:
    """The left-hand side of the first binomial/harmonic identity."""
    total = Fraction(0)
    for k in range(n + 1):
        w = (math.comb(m + k, k) * math.comb(m, k)
             * math.comb(n + k, k) * math.comb(n, k))
        h = (harmonic(m + k, 1) + harmonic(m - k, 1)
             + harmonic(n + k, 1) + harmonic(n - k, 1) - 4 * harmonic(k, 1))
        total += w * (1 + k * h)
    for k in range(n + 1, m + 1):
        w = Fraction(math.comb(m + k, k) * math.comb(m, k) * math.comb(n + k, k),
                     math.comb(k - 1, n))
        total += (-1) ** (k - n) * w
    return total


def bin_harmonic_id1(m: int, n: int) -> Fraction:
    """LHS - RHS of the first identity, RHS = (-1)^(m+n)."""
    return id1_lhs(m, n) - (-1) ** (m + n)


def bin_harmonic_id2(l: int, m: int, n: int, c1, c2) -> Fraction:
    """LHS of the second identity."""
    c1, c2 = Fraction(c1), Fraction(c2)
    total = Fraction(0)
    for k in range(n + 1):
        w = (math.comb(m + k, k) * math.comb(m, k)
             * math.comb(n + k, k) * math.comb(n, k))
        h = (harmonic(m + k, 1) + harmonic(m - k, 1)
             + harmonic(n + k, 1) + harmonic(n - k, 1) - 4 * harmonic(k, 1))
        lin1 = (c1 * (harmonic(k + n, 1) - harmonic(k + l - n - 1, 1))
                + c2 * (harmonic(k + m, 1) - harmonic(k + l - m - 1, 1)))
        lin2 = (c1 * (harmonic(k + n, 2) - harmonic(k + l - n - 1, 2))
                + c2 * (harmonic(k + m, 2) - harmonic(k + l - m - 1, 2)))
        total += w * ((1 + k * h) * lin1 - k * lin2)
    for k in range(n + 1, m + 1):
        w = Fraction(math.comb(m + k, k) * math.comb(m, k) * math.comb(n + k, k),
                     math.comb(k - 1, n))
        lin1 = (c1 * (harmonic(k + n, 1) - harmonic(k + l - n - 1, 1))
                + c2 * (harmonic(k + m, 1) - harmonic(k + l - m - 1, 1)))
        total += (-1) ** (k - n) * w * lin1
    return total


def pq_sum(a, p: int, second_order: bool) -> PadicValue:
    """lemma_P_sum (first order) or lemma_Q_sum (second order), mod p^2."""
    total = Fraction(0)
    for j in range(p):
        prod = Fraction(1)
        for ai in a:
            prod *= rising_factorial(j + 1, ai)
        h1 = sum((harmonic(ai + j, 1) - harmonic(j, 1)) for ai in a)
        if not second_order:
            total += prod * (1 + j * h1)
        else:
            h2 = sum((harmonic(ai + j, 2) - harmonic(j, 2)) for ai in a)
            total += prod * (j * h1 + Fraction(j * j, 2) * (h1 * h1 - h2))
    return rational_to_padic(total, p, 2)


def truncated_hyp_exact(params: HypParams) -> Fraction:
    """The truncated series by the forward term recurrence over Fractions."""
    total = Fraction(1)
    term = Fraction(1)
    for k in range(1, params.truncation + 1):
        num = Fraction(1)
        for a in params.top:
            num *= a + k - 1
        den = Fraction(k)
        for b in params.bottom:
            den *= b + k - 1
        term = term * num * params.z / den
        total += term
    return total


def _poly_mul_trunc(a: list[int], b: list[int], N: int, pN: int) -> list[int]:
    out = [0] * N
    for i, ai in enumerate(a):
        if ai:
            for k in range(N - i):
                out[i + k] = (out[i + k] + ai * b[k]) % pN
    return out


def log_one_plus(g: list[int], N: int, pN: int) -> list[int]:
    """log(1 + g) mod p^N truncated to degree < N, for g[0] = 0, as the sum of
    (-1)^(j+1) g^j / j over j < N by repeated truncated multiplication."""
    lam = [0] * N
    gj = [1] + [0] * (N - 1)
    for j in range(1, N):
        gj = _poly_mul_trunc(gj, g, N, pN)
        c = pow(j, -1, pN) * (1 if j % 2 else -1)
        for i in range(N):
            lam[i] = (lam[i] + c * gj[i]) % pN
    return lam


def binomial_table(A: Character, B: Character, N: int) -> tuple[int, ...]:
    """beta(A chi, B chi) mod p^N for every chi = wbar^e, one O(p) character
    sum per entry."""
    p = A.prime
    return tuple(
        _beta_residue(p, (A.exponent + e) % (p - 1), (B.exponent + e) % (p - 1), N)
        for e in range(p - 1)
    )


def eta_product(factors, truncation: int) -> tuple[int, list[int]]:
    """(leading power, coefficients through q^truncation) of prod_i
    eta(s_i z)^(e_i), multiplying by one binomial (1 - q^(s n)) at a time."""
    offset = sum(s * e for s, e in factors) // 24
    length = truncation - offset + 1
    co = [0] * length
    co[0] = 1
    for s, e in factors:
        n = 1
        while s * n < length:
            k = s * n
            for _ in range(e):
                for i in range(length - 1, k - 1, -1):
                    co[i] -= co[i - k]
            n += 1
    return offset, co


def gamma_block(r: int, p: int, N: int) -> int:
    """Gamma_p(r) mod p^N by the block formula, for N <= p - 1, evaluating
    each Faulhaber polynomial S_i(K) and its log coefficient separately."""
    pN, polys, lam, ell0, faul, inv_fact = _block_data(p, N)
    if r == 0:
        return 1
    K, s = divmod(r - 1, p)
    K %= pN
    lam_total = K * ell0 % pN
    pi = 1
    for i in range(1, N):
        pi = pi * p
        si, acc = 0, 1
        for c in faul[i - 1]:
            si = (si + c * acc) % pN
            acc = acc * K % pN
        lam_total = (lam_total + lam[i] * pi % pN * si) % pN
    # exp(lam_total), lam_total in pZ_p
    expo, t = 0, 1
    for j in range(N):
        expo = (expo + t * inv_fact[j]) % pN
        t = t * lam_total % pN
    # partial block Q_s(Kp)
    y = K * p % pN
    q, acc = 0, 1
    for c in polys[s]:
        q = (q + c * acc) % pN
        acc = acc * y % pN
    val = expo * q % pN
    if (r + K) % 2:
        val = -val % pN
    return val
