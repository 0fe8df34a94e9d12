"""Morita's p-adic gamma function and its logarithmic derivatives.

For a positive integer n,

    Gamma_p(n) = (-1)^n * prod_{0 < j < n, p !| j} j,

extended continuously to Z_p (Gamma_p(0) = 1).  A value at any x in Z_p is
obtained by reducing x modulo p^N and evaluating at the integer
representative, which is exact mod p^N by the continuity property
Gamma_p(x) = Gamma_p(y) mod p^n whenever x = y mod p^n.

Evaluation strategy.  The defining product up to r < p^N factors into
complete blocks of p consecutive integers and one partial block:

    prod_{0<j<=m, p!|j} j = prod_{k=0}^{K-1} P(kp) * Q_s(Kp),
    P(y) = prod_{t=1}^{p-1} (y+t),   Q_s(y) = prod_{t=1}^{s} (y+t),

with K = m // p, s = m % p.  Modulo p^N only the first N coefficients of P
matter, and P(kp)/P(0) lies in 1 + pZ_p, so the complete-block product is

    P(0)^K * exp( sum_{i>=1} lambda_i p^i S_i(K) ),

where lambda_i are the coefficients of log(P(y)/P(0)) and
S_i(K) = sum_{k<K} k^i is a Faulhaber polynomial in K.  The exponent
K log(-P(0)) + sum_i lambda_i p^i S_i(K) is folded into one polynomial of
degree N in K, so after an O(pN + N^2) precomputation per (p, N) each value
costs three Horner passes mod p^N (the log, the exp and the partial block),
and sweeping to p^N is never required.  gamma_residues evaluates a batch of
residues with the checks done once.  The series manipulations are
p-integral as long as N <= p - 1 (middle coefficients of P vanish mod p since
P(y) = y^(p-1) - 1 over F_p, and no Bernoulli denominator can contain p), so
the path depends on (p, N) alone: the block formula for N <= p - 1, else the
naive sweep while p^N <= _NAIVE_SWEEP_MAX, else a PrecisionError.  The sweep
doubles as an independent test oracle for the block formula.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .combinatorics import harmonic
from .hyp import rising_factorial
from .padic import (
    PadicValue,
    PrecisionError,
    check_prime,
    rational_to_padic,
)

# the only bound: the naive sweep is the one path whose cost is p^N
_NAIVE_SWEEP_MAX = 2_000_000

# memo of computed values, keyed (p, N) -> {residue: unit}
_value_cache: dict[tuple[int, int], dict[int, int]] = {}


def _modulus(p: int, N: int) -> int:
    """p^N, for N >= 1 digits."""
    if N < 1:
        raise PrecisionError(f"need at least one digit, got N={N}")
    return p**N


def gamma_residue_by_sweep(r: int, p: int, N: int) -> int:
    """Reference evaluation by the defining product; cost O(p^N)."""
    pN = p**N
    if not 0 <= r < pN:
        raise ValueError("residue out of range")
    acc = 1
    for j in range(1, r):
        if j % p:
            acc = acc * j % pN
    if r % 2:
        acc = -acc % pN
    return acc if r else 1


@lru_cache(maxsize=None)
def _block_data(p: int, N: int):
    """Per-(p, N) tables: partial-block polynomials, log coefficients,
    Faulhaber polynomials and inverse factorials, all mod p^N."""
    pN = p**N
    # prefix polynomials Q_s(y), truncated to degree < N
    polys = [[1] + [0] * (N - 1)]
    cur = polys[0]
    for s in range(1, p):
        nxt = [0] * N
        for i in range(N):
            nxt[i] = (cur[i] * s + (cur[i - 1] if i else 0)) % pN
        polys.append(nxt)
        cur = nxt
    e = polys[p - 1]  # P(y) = prod_{t=1}^{p-1}(y+t) truncated
    e0 = e[0]
    e0_inv = pow(e0, -1, pN)
    g = [c * e0_inv % pN for c in e]
    g[0] = 0
    # lam = log(1 + g) truncated, from (1 + g) lam' = g':
    # lam_k = g_k - (1/k) sum_{0<i<k} i lam_i g_(k-i), a unit k < N <= p-1
    lam = [0] * N
    for k in range(1, N):
        acc = sum(i * lam[i] * g[k - i] for i in range(1, k))
        lam[k] = (g[k] - acc * pow(k, -1, pN)) % pN
    # ell0 = log(-e0); -(p-1)! = 1 mod p by Wilson, so the series converges
    z = (-e0 - 1) % pN
    ell0, zj = 0, 1
    for j in range(1, N + 1):
        zj = zj * z % pN
        ell0 = (ell0 + (1 if j % 2 else -1) * zj * pow(j, -1, pN)) % pN
    # Bernoulli numbers B_0..B_(N-1) (B_1 = -1/2): sum_{j<=m} C(m+1, j) B_j = 0
    bern = [Fraction(1)]
    for m in range(1, N):
        bern.append(-sum(math.comb(m + 1, j) * b for j, b in enumerate(bern)) / (m + 1))
    # Faulhaber: S_i(K) = sum_{k<K} k^i as polynomials in K
    faul = []
    for i in range(1, N):
        coeffs = [Fraction(0)] * (i + 2)
        for j in range(i + 1):
            coeffs[i + 1 - j] += Fraction(math.comb(i + 1, j)) * bern[j] / (i + 1)
        row = []
        for c in coeffs:
            if c.denominator % p == 0:
                raise PrecisionError("power-sum coefficients not p-integral")
            row.append(c.numerator * pow(c.denominator, -1, pN) % pN)
        faul.append(tuple(row))
    inv_fact = tuple(pow(math.factorial(j), -1, pN) for j in range(N))
    return pN, tuple(tuple(q) for q in polys), tuple(lam), ell0, tuple(faul), inv_fact


@lru_cache(maxsize=None)
def _horner_data(p: int, N: int):
    """The tables of _block_data folded for Horner evaluation, highest degree
    first: the log of the complete-block product as one polynomial in K,

        L(K) = K ell0 + sum_{0<i<N} lam_i p^i S_i(K)   (degree N),

    the truncated exp series, and the partial-block polynomials Q_s."""
    pN, polys, lam, ell0, faul, inv_fact = _block_data(p, N)
    logpoly = [0] * (N + 1)
    logpoly[1] = ell0
    pi = 1
    for i in range(1, N):
        pi *= p
        c = lam[i] * pi % pN
        for k, f in enumerate(faul[i - 1]):
            logpoly[k] = (logpoly[k] + c * f) % pN
    return (pN, tuple(logpoly[::-1]), inv_fact[::-1],
            tuple(q[::-1] for q in polys))


def _gamma_blocks(rs, p: int, N: int) -> list[int]:
    """Gamma_p(r) mod p^N for each residue r by the block formula: three
    Horner passes per value, for the log, the exp and the partial block."""
    pN, logpoly, expc, qpolys = _horner_data(p, N)
    out = []
    for r in rs:
        if r == 0:
            out.append(1)
            continue
        K, s = divmod(r - 1, p)
        t = 0
        for c in logpoly:
            t = (t * K + c) % pN
        e = 0
        for c in expc:
            e = (e * t + c) % pN
        y = K * p
        q = 0
        for c in qpolys[s]:
            q = (q * y + c) % pN
        v = e * q % pN
        out.append(-v % pN if (r + K) % 2 else v)
    return out


def _evaluate(rs, p: int, N: int) -> list[int]:
    """Gamma_p(r) mod p^N for residues r not yet cached, by the path (p, N)
    selects."""
    pN = p**N
    if N <= p - 1:
        return _gamma_blocks(rs, p, N)
    if pN <= _NAIVE_SWEEP_MAX:
        return [gamma_residue_by_sweep(r, p, N) for r in rs]
    raise PrecisionError(
        f"p={p}, N={N}: N > p-1 leaves only the naive sweep, and "
        f"p^N = {pN} exceeds its bound {_NAIVE_SWEEP_MAX}")


def gamma_residue(r: int, p: int, N: int) -> int:
    """Gamma_p(r) mod p^N as a unit residue, for 0 <= r < p^N."""
    check_prime(p)
    pN = _modulus(p, N)
    if not 0 <= r < pN:
        raise ValueError("residue out of range")
    cache = _value_cache.setdefault((p, N), {})
    v = cache.get(r)
    if v is None:
        v = cache[r] = _evaluate((r,), p, N)[0]
    return v


def gamma_residues(rs, p: int, N: int) -> list[int]:
    """[gamma_residue(r, p, N) for r in rs], with the prime and the modulus
    checked once and the values missing from the cache computed in one batch."""
    check_prime(p)
    pN = _modulus(p, N)
    rs = list(rs)
    if not all(0 <= r < pN for r in rs):
        raise ValueError("residue out of range")
    cache = _value_cache.setdefault((p, N), {})
    missing = [r for r in dict.fromkeys(rs) if r not in cache]
    if missing:
        cache.update(zip(missing, _evaluate(missing, p, N)))
    return [cache[r] for r in rs]


def _as_residue(x, p: int, N: int) -> int:
    """Reduce x (int, Fraction or PadicValue in Z_p) to its residue mod p^N."""
    pN = _modulus(p, N)
    if isinstance(x, PadicValue):
        if x.prime != p:
            raise ValueError("mixed primes")
        if not x.is_zero and x.valuation < 0:
            raise ValueError("gamma requires valuation >= 0")
        return x.residue(N)
    q = Fraction(x)
    if q.denominator % p == 0:
        raise ValueError("gamma requires a p-integral argument")
    return q.numerator * pow(q.denominator, -1, pN) % pN


def gamma_p(x, p: int, N: int) -> PadicValue:
    """Gamma_p(x) mod p^N for x in Z_p; always a unit."""
    u = gamma_residue(_as_residue(x, p, N), p, N)
    return PadicValue(p, 0, u, N)


def rep(x, p: int) -> int:
    """The representative of x in {1, ..., p} congruent to x mod p."""
    check_prime(p)
    if isinstance(x, PadicValue):
        if x.prime != p:
            raise ValueError("mixed primes")
        if x.is_zero:
            r = 0
        else:
            if x.valuation < 0:
                raise ValueError("rep requires valuation >= 0")
            r = x.residue(1)
    else:
        q = Fraction(x)
        if q.denominator % p == 0:
            raise ValueError("rep requires a p-integral argument")
        r = q.numerator * pow(q.denominator, -1, p) % p
    return r if r else p


def gamma_shift(x, j: int, p: int, N: int) -> PadicValue:
    """Gamma_p(x + j) from Gamma_p(x) and a rising factorial.

    For 0 <= j <= p - rep(x) the shift is (-1)^j Gamma_p(x) (x)_j; past the
    unique p-divisible step the extra factor (x + p - rep(x)) is divided out.
    """
    if not 0 <= j <= p:
        raise ValueError("shift index must satisfy 0 <= j <= p")
    x = Fraction(x)
    r = rep(x, p)
    out = gamma_p(x, p, N)
    if j == 0:
        return out
    rf = rational_to_padic(rising_factorial(x, j), p, N)
    out = out * rf
    if j > p - r:
        out = out * rational_to_padic(x + p - r, p, N).inverse()
    if j % 2:
        out = -out
    return out


def g1(x, p: int, M: int) -> PadicValue:
    """First logarithmic derivative Gamma_p'(x)/Gamma_p(x), certified mod p^M.

    Computed as the forward difference quotient (Gamma_p(x+h)/Gamma_p(x)-1)/h
    with step h = p^M; the discarded terms start at (h/2)G_2(x), so the
    quotient is exact to M digits by integrality of G_2 (valid for p >= 7).
    """
    if p < 7:
        raise ValueError("logarithmic derivatives require p >= 7")
    if M < 1:
        raise PrecisionError("need at least one certified digit")
    Ng = 2 * M + 1
    pN = p**Ng
    h = p**M
    r = _as_residue(x, p, Ng)
    g0 = gamma_residue(r, p, Ng)
    gh = gamma_residue((r + h) % pN, p, Ng)
    q = (gh * pow(g0, -1, pN) - 1) % pN
    return PadicValue.from_residue(q // h % p**M, p, M)


def g2(x, p: int, M: int) -> PadicValue:
    """Second logarithmic derivative Gamma_p''(x)/Gamma_p(x), certified mod p^M.

    Symmetric second difference with step h = p^ceil(M/2): the leading error
    2 h^2 Gamma_p''''(x)/(4! Gamma_p(x)) is p-integral for p >= 7, giving
    2*ceil(M/2) >= M certified digits.
    """
    if p < 7:
        raise ValueError("logarithmic derivatives require p >= 7")
    if M < 1:
        raise PrecisionError("need at least one certified digit")
    m = (M + 1) // 2
    Ng = 2 * m + M + 1
    pN = p**Ng
    h = p**m
    r = _as_residue(x, p, Ng)
    g0 = gamma_residue(r, p, Ng)
    num = (gamma_residue((r + h) % pN, p, Ng) - 2 * g0
           + gamma_residue((r - h) % pN, p, Ng)) % pN
    return PadicValue.from_residue(num // (h * h) * pow(g0, -1, pN) % p**M, p, M)


# ---------------------------------------------------------------------------
# Paired-representative machinery and the shifted-gamma congruence formulas.
# Each checker returns (lhs, rhs, k) with both sides as PadicValue and the
# congruence asserted modulo p^k; the suite below wraps them into reports.
# ---------------------------------------------------------------------------


def split_by_rep(x: Fraction, p: int) -> tuple[Fraction, Fraction]:
    """(m1, m2) with {m1, m2} = {x, 1-x} and rep(m1) maximal.

    rep(x) + rep(1-x) = p + 1, so a tie means both equal (p+1)/2, which
    happens exactly when x = 1/2 mod p; either choice is then valid and we
    keep m1 = x.
    """
    rx, ry = rep(x, p), rep(1 - x, p)
    return (x, 1 - x) if rx >= ry else (1 - x, x)


def shifted_gamma_factorial(x: Fraction, j: int, p: int):
    """Gamma_p(x+j) = (rep(x)+j-1)! (-1)^(rep(x)+j) * delta  (mod p),
    delta = 1 below the p-divisible step and 1/p at or past it."""
    if not 0 <= j <= p:
        raise ValueError("j out of range")
    x = Fraction(x)
    r = rep(x, p)
    lhs = gamma_p(x + j, p, 2)
    delta = Fraction(1) if j <= p - r else Fraction(1, p)
    rhs = Fraction(math.factorial(r + j - 1)) * (-1) ** (r + j) * delta
    return lhs, rational_to_padic(rhs, p, 3), 1


def shifted_g1_harmonic(x: Fraction, j: int, p: int):
    """G_1(x+j) - G_1(1+j) = H^(1)_(rep(x)-1+j) - H^(1)_j - delta  (mod p)."""
    if not 0 <= j <= p - 1:
        raise ValueError("j out of range")
    x = Fraction(x)
    r = rep(x, p)
    lhs = g1(x + j, p, 1) - g1(1 + j, p, 1)
    delta = Fraction(0) if j <= p - r else Fraction(1, p)
    rhs = harmonic(r - 1 + j, 1) - harmonic(j, 1) - delta
    return lhs, rational_to_padic(rhs, p, 3), 1


def shifted_g1g2_harmonic(x: Fraction, j: int, p: int):
    """Second-order version of the same comparison, with H^(2) sums and a
    1/p^2 singular part."""
    if not 0 <= j <= p - 1:
        raise ValueError("j out of range")
    x = Fraction(x)
    r = rep(x, p)
    la = g1(x + j, p, 1)
    lb = g1(1 + j, p, 1)
    lhs = la * la - g2(x + j, p, 1) - lb * lb + g2(1 + j, p, 1)
    delta = Fraction(0) if j <= p - r else Fraction(1, p**2)
    rhs = harmonic(r - 1 + j, 2) - harmonic(j, 2) - delta
    return lhs, rational_to_padic(rhs, p, 4), 1


def paired_gamma_binomial(x: Fraction, j: int, p: int):
    """Gamma_p(x+j)Gamma_p(1-x+j) / (Gamma_p(x)Gamma_p(1-x) j!^2) against the
    binomial-coefficient form, mod p^2, for 0 <= j < rep(m1)."""
    x = Fraction(x)
    m1, m2 = split_by_rep(x, p)
    r1, r2 = rep(m1, p), rep(m2, p)
    if not 0 <= j < r1:
        raise ValueError("j out of range")
    N = 5
    num = gamma_p(x + j, p, N) * gamma_p(1 - x + j, p, N)
    den = gamma_p(x, p, N) * gamma_p(1 - x, p, N)
    fact = rational_to_padic(Fraction(math.factorial(j)) ** 2, p, N)
    lhs = num * den.inverse() * fact.inverse()
    if j <= r2 - 1:
        alpha, beta = Fraction(1), Fraction(0)
    else:
        alpha, beta = Fraction(1, p), Fraction(1, p)
    rhs = (
        Fraction((-1) ** j)
        * math.comb(r1 - 1 + j, j)
        * math.comb(r1 - 1, j)
        * alpha
        * (1 - (r1 - m1) * (harmonic(r1 - 1 + j, 1) - harmonic(r2 - 1 + j, 1) - beta))
    )
    return lhs, rational_to_padic(rhs, p, N), 2


def paired_g1_harmonic(x: Fraction, j: int, p: int):
    """G_1(x+j) + G_1(1-x+j) - 2 G_1(1+j) against harmonic sums, mod p^2,
    for 0 <= j < rep(m1)."""
    x = Fraction(x)
    m1, m2 = split_by_rep(x, p)
    r1, r2 = rep(m1, p), rep(m2, p)
    if not 0 <= j < r1:
        raise ValueError("j out of range")
    lhs = g1(x + j, p, 2) + g1(1 - x + j, p, 2) - g1(1 + j, p, 2) - g1(1 + j, p, 2)
    if j <= r2 - 1:
        alpha, beta = Fraction(0), Fraction(0)
    else:
        alpha, beta = Fraction(1, p), Fraction(1, p**2)
    rhs = (
        harmonic(r1 - 1 + j, 1)
        + harmonic(r1 - 1 - j, 1)
        - 2 * harmonic(j, 1)
        - alpha
        + (r1 - m1) * (harmonic(r1 - 1 + j, 2) - harmonic(r2 - 1 + j, 2) - beta)
    )
    return lhs, rational_to_padic(rhs, p, 5), 2


def default_x_grid(p: int, max_den: int = 10) -> list[Fraction]:
    """Reduced fractions a/b with 0 < a < b, 2 <= b <= max_den, p !| b."""
    out = []
    for b in range(2, max_den + 1):
        if b % p == 0:
            continue
        for a in range(1, b):
            if math.gcd(a, b) == 1:
                out.append(Fraction(a, b))
    return out


def lemma_check_gamma_suite(p: int, xs=None) -> list:
    """Run the five shifted-gamma congruence families over full (x, j) grids.

    Returns one CongruenceReport per (family, x, j).
    """
    from .report import CongruenceReport

    if p < 7:
        raise ValueError("the derivative-based families require p >= 7")
    if xs is None:
        xs = default_x_grid(p)
    families = [
        ("lemma3.9", shifted_gamma_factorial, lambda x: range(0, p + 1)),
        ("lemma3.10", shifted_g1_harmonic, lambda x: range(0, p)),
        ("lemma3.11", shifted_g1g2_harmonic, lambda x: range(0, p)),
        ("lemma3.12", paired_gamma_binomial,
         lambda x: range(0, rep(split_by_rep(Fraction(x), p)[0], p))),
        ("lemma3.13", paired_g1_harmonic,
         lambda x: range(0, rep(split_by_rep(Fraction(x), p)[0], p))),
    ]
    reports = []
    for claim, fn, jrange in families:
        for x in xs:
            for j in jrange(x):
                lhs, rhs, k = fn(x, j, p)
                reports.append(CongruenceReport.from_sides(
                    claim, p, {"x": str(Fraction(x)), "j": j}, k, lhs, rhs))
    return reports
