"""Harmonic sums, Apery numbers, rising-factorial lemma sums and the
binomial-coefficient / harmonic-sum identities.

Everything here is exact rational (or integer) arithmetic; congruence
reduction happens only at the very end where a caller asks for it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .hyp import rising_factorial
from .padic import PadicValue, check_prime, rational_to_padic


# H^(i)_0, H^(i)_1, ... for each order i, grown on demand
_caches: dict[int, list[Fraction]] = {}


def harmonic(n: int, i: int = 1) -> Fraction:
    """Generalized harmonic sum H^(i)_n = sum_{j<=n} 1/j^i, with H^(i)_0 = 0."""
    t = _caches.get(i)
    if t is None:
        if i < 1:
            raise ValueError("harmonic order must be >= 1")
        t = _caches[i] = [Fraction(0)]
    if n < 0:
        raise ValueError("harmonic index must be >= 0")
    while len(t) <= n:
        t.append(t[-1] + Fraction(1, len(t) ** i))
    return t[n]


def apery(n: int) -> int:
    """A(n) = sum_j C(n+j, j)^2 C(n, j)^2."""
    if n < 0:
        raise ValueError("Apery numbers need n >= 0")
    return sum(math.comb(n + j, j) ** 2 * math.comb(n, j) ** 2 for j in range(n + 1))


def _pq_sum(a, p: int, second_order: bool) -> PadicValue:
    a = tuple(int(x) for x in a)
    check_prime(p)
    if any(x < 1 for x in a):
        raise ValueError("entries must be positive integers")
    if sum(a) > 2 * (p - 1):
        raise ValueError("T out of range")
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


def lemma_P_sum(a, p: int) -> PadicValue:
    """First-derivative rising-factorial sum over j = 0..p-1, reduced mod p.

    For T = sum(a_i) <= 2(p-1) the value is 0 mod p, except exactly 1 at the
    boundary T = 2(p-1).
    """
    return _pq_sum(a, p, False)


def lemma_Q_sum(a, p: int) -> PadicValue:
    """Second-derivative companion of :func:`lemma_P_sum`; boundary value -1."""
    return _pq_sum(a, p, True)


def lemma_PQ_expected(a, p: int) -> tuple[int, int]:
    """(P, Q) target values: (0, 0) strictly inside, (1, -1) at T = 2(p-1)."""
    boundary = sum(a) == 2 * (p - 1)
    return (1, -1) if boundary else (0, 0)


def bin_harmonic_id1(m: int, n: int) -> Fraction:
    """LHS - RHS of the first binomial/harmonic identity; exactly 0 for m >= n >= 1.

    LHS = sum_{k=0}^n C(m+k,k)C(m,k)C(n+k,k)C(n,k)
            [1 + k(H_(m+k) + H_(m-k) + H_(n+k) + H_(n-k) - 4H_k)]
          + sum_{k=n+1}^m (-1)^(k-n) C(m+k,k)C(m,k)C(n+k,k)/C(k-1,n),
    RHS = (-1)^(m+n).
    """
    if not m >= n >= 1:
        raise ValueError("need m >= n >= 1")
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
    return total - (-1) ** (m + n)


def bin_harmonic_id2(l: int, m: int, n: int, c1, c2) -> Fraction:
    """LHS of the second identity (which equals 0) for l > m >= n >= l/2."""
    if not (l > m >= n and 2 * n >= l):
        raise ValueError("need l > m >= n >= l/2")
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
