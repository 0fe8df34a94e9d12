"""Exact oracles for the fast kernels.

These are the straightforward per-term Fraction (and truncated-power-series)
evaluations that the package replaced by integer num/den kernels for speed,
the per-entry Greene binomial table replaced by one chirp correlation, the
one-binomial-at-a-time eta-product expansion replaced by Euler's pentagonal
series, and two evaluations of Gamma_p: the defining product, swept once over
every residue, and the block formula with exact tables and every S_i(K), log
and exp term taken separately.  They stay here so that every fast kernel is
compared with an independent exact evaluation of the same quantity."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from padichyp.characters import Character, _beta_residue
from padichyp.combinatorics import harmonic
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


def gamma_sweep(p: int, N: int) -> list[int]:
    """[Gamma_p(r) mod p^N for r in range(p^N)] by the defining product
    (-1)^r prod_{0<j<r, p !| j} j, in one cumulative pass."""
    pN = p**N
    out, acc = [1], 1
    for r in range(1, pN):
        if (r - 1) % p:
            acc = acc * (r - 1) % pN
        out.append(-acc % pN if r % 2 else acc)
    return out


def _residue(q: Fraction, pN: int) -> int:
    return q.numerator * pow(q.denominator, -1, pN) % pN


@lru_cache(maxsize=None)
def _block_tables(p: int, N: int):
    """ell0 = log(-(p-1)!) and c_i = lambda_i p^i mod p^N from exact
    Fractions, and the Stirling numbers S2(i, m), for i < 2N: past that
    every log and exp term has valuation >= N, as v_p(i) < i/2 and
    v_p(j!) < j/2."""
    pN, T = p**N, 2 * N
    z = -math.factorial(p - 1) - 1
    den = math.lcm(*range(1, T))
    ell0 = Fraction(sum((-1) ** (j + 1) * z**j * (den // j) for j in range(1, T)), den)
    # lambda_i = (-1)^(i+1) sum_{t<p} t^(-i) / i over the denominator lcm(1..p-1)^i
    lcm = math.lcm(*range(1, p))
    base = [lcm // t for t in range(1, p)]
    powers, c = [1] * (p - 1), [0]
    for i in range(1, T):
        powers = [a * b for a, b in zip(powers, base)]
        lam = Fraction((-1) ** (i + 1) * sum(powers), i * lcm**i)
        c.append(_residue(lam * p**i, pN))
    stirling = [[1]]
    for i in range(1, T):
        prev = stirling[-1] + [0]
        stirling.append([0] + [m * prev[m] + prev[m - 1] for m in range(1, i + 1)])
    return _residue(ell0, pN), c, stirling


def block_log(K: int, p: int, N: int) -> int:
    """L(K) = K ell0 + sum_i c_i S_i(K) mod p^N, the log of the product of the
    first K complete blocks, each power sum S_i(K) = sum_{k<K} k^i evaluated
    exactly as sum_m S2(i, m) m! C(K, m+1)."""
    ell0, c, stirling = _block_tables(p, N)
    sums = [math.factorial(m) * math.comb(K, m + 1) for m in range(len(c))]
    total = K * ell0
    for i in range(1, len(c)):
        total += c[i] * sum(st * s for st, s in zip(stirling[i], sums))
    return total % p**N


@lru_cache(maxsize=None)
def _complete_blocks(K: int, p: int, N: int) -> int:
    """exp(L(K)) mod p^N, summed term by term over exact Fractions."""
    t = block_log(K, p, N)
    return _residue(sum(Fraction(t**j, math.factorial(j)) for j in range(2 * N)), p**N)


def gamma_block(r: int, p: int, N: int) -> int:
    """Gamma_p(r) mod p^N by the block formula: (-1)^(r+K) exp(L(K)) times the
    partial block prod_{t<=s} (Kp + t), for r - 1 = Kp + s."""
    if r == 0:
        return 1
    pN = p**N
    K, s = divmod(r - 1, p)
    val = _complete_blocks(K, p, N) * math.prod(range(K * p + 1, K * p + s + 1)) % pN
    return -val % pN if (r + K) % 2 else val
