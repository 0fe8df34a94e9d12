"""Harmonic sums, Apery numbers, rising-factorial lemma sums and the
binomial-coefficient / harmonic-sum identities.

The kernels run over integers: harmonic prefix sums are scaled by
L = lcm(1..top index) into integer tables, memoised per (top, order) for one
prime (a task's prime sets the tops: 3(p-1) for lemma P and Q, 2p-2 for the
gamma lemma suites, which share them); the C(k-1, n) denominators are cleared
with one lcm, and every sum is one integer num/den pair.  The second identity
is linear in (c1, c2), so its kernel returns the two coefficients of that
linear form from one pass.  A Fraction is built only at the API boundary (the
identity values), and congruence reduction happens once, at the end.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .padic import PadicValue, _per_prime, _ratio_to_padic, check_prime


@_per_prime
@lru_cache(maxsize=None)
def _scaled_harmonic(top: int, i: int) -> tuple[int, tuple[int, ...]]:
    """(S, t): S = lcm(1..top)^i and t[j] = S * H^(i)_j for j <= top, integers,
    with H^(i)_j = sum_{u<=j} 1/u^i.  Memoised, so the table is a tuple."""
    L = math.lcm(*range(1, top + 1))
    t = [0]
    for u in range(1, top + 1):
        t.append(t[-1] + (L // u) ** i)
    return L**i, tuple(t)


def apery(n: int) -> int:
    """A(n) = sum_j C(n+j, j)^2 C(n, j)^2."""
    if n < 0:
        raise ValueError("Apery numbers need n >= 0")
    return sum(math.comb(n + j, j) ** 2 * math.comb(n, j) ** 2 for j in range(n + 1))


def lemma_PQ_sums(a, p: int) -> tuple[PadicValue, PadicValue]:
    """(P, Q), the first- and second-derivative rising-factorial sums at a,
    from one pass over j = 0..p-1, each mod p^2.  For T = sum(a_i) <= 2(p-1)
    both are 0 mod p, except (1, -1) exactly at the boundary T = 2(p-1)."""
    a = tuple(int(x) for x in a)
    check_prime(p)
    if any(x < 1 for x in a):
        raise ValueError("entries must be positive integers")
    if sum(a) > 2 * (p - 1):
        raise ValueError("T out of range")
    # h1 scaled by L, h2 by L^2 (tables to 3(p-1) >= max(a)+p-1); prod is the
    # integer prod_i (j+1)_(a_i), stepped by (j+2)_a = (j+1)_a (j+1+a)/(j+1)
    L, H1 = _scaled_harmonic(3 * (p - 1), 1)
    _, H2 = _scaled_harmonic(3 * (p - 1), 2)
    P = Q = 0
    prod = math.prod(map(math.factorial, a))
    for j in range(p):
        h1 = sum(H1[ai + j] for ai in a) - len(a) * H1[j]
        h2 = sum(H2[ai + j] for ai in a) - len(a) * H2[j]
        P += prod * (L + j * h1)  # L * prod (1 + j h1)
        # 2 L^2 * prod (j h1 + j^2/2 (h1^2 - h2))
        Q += prod * (2 * L * j * h1 + j * j * (h1 * h1 - h2))
        for ai in a:
            prod = prod * (j + 1 + ai) // (j + 1)
    return _ratio_to_padic(P, L, p, 2), _ratio_to_padic(Q, 2 * L * L, p, 2)


def lemma_PQ_expected(a, p: int) -> tuple[int, int]:
    """(P, Q) target values: (0, 0) strictly inside, (1, -1) at T = 2(p-1)."""
    boundary = sum(a) == 2 * (p - 1)
    return (1, -1) if boundary else (0, 0)


def _head(m: int, n: int, L: int, H: list[int]):
    """(k, w_k, L(1 + k h_k)) for k = 0..n: w_k = C(m+k,k)C(m,k)C(n+k,k)C(n,k),
    h_k = H_(m+k) + H_(m-k) + H_(n+k) + H_(n-k) - 4H_k, with H = L * H^(1)."""
    for k in range(n + 1):
        w = (math.comb(m + k, k) * math.comb(m, k)
             * math.comb(n + k, k) * math.comb(n, k))
        yield k, w, L + k * (H[m + k] + H[m - k] + H[n + k] + H[n - k] - 4 * H[k])


def _tail(m: int, n: int) -> tuple[int, list[tuple[int, int]]]:
    """(D, [(k, D t_k)]) for k = n+1..m, t_k = (-1)^(k-n) C(m+k,k)C(m,k)C(n+k,k)/C(k-1,n)
    and D the lcm of the C(k-1, n), so every D t_k is an integer."""
    ks = range(n + 1, m + 1)
    D = math.lcm(*(math.comb(k - 1, n) for k in ks))
    return D, [(k, (-1) ** (k - n) * math.comb(m + k, k) * math.comb(m, k)
                * math.comb(n + k, k) * (D // math.comb(k - 1, n))) for k in ks]


def _id1_rhs(m: int, n: int) -> int:
    """The right-hand side (-1)^(m+n) of the first identity."""
    return (-1) ** (m + n)


def bin_harmonic_id1(m: int, n: int) -> Fraction:
    """LHS - RHS of the first binomial/harmonic identity; exactly 0 for m >= n >= 1.

    LHS = sum_{k=0}^n C(m+k,k)C(m,k)C(n+k,k)C(n,k)
            [1 + k(H_(m+k) + H_(m-k) + H_(n+k) + H_(n-k) - 4H_k)]
          + sum_{k=n+1}^m (-1)^(k-n) C(m+k,k)C(m,k)C(n+k,k)/C(k-1,n),
    RHS = (-1)^(m+n).
    """
    if not m >= n >= 1:
        raise ValueError("need m >= n >= 1")
    L, H = _scaled_harmonic(m + n, 1)
    head = sum(w * b for _, w, b in _head(m, n, L, H))  # scale L
    D, tail = _tail(m, n)
    rest = sum(t for _, t in tail)  # scale D
    return Fraction(head * D + rest * L - _id1_rhs(m, n) * L * D, L * D)


def bin_harmonic_id2(l: int, m: int, n: int) -> tuple[Fraction, Fraction]:
    """(X, Y) for l > m >= n >= l/2: the LHS of the second identity (which
    equals 0) at (c1, c2) is c1 X + c2 Y, X its value at (1, 0) and Y at (0, 1)."""
    if not (l > m >= n and 2 * n >= l):
        raise ValueError("need l > m >= n >= l/2")
    L, H1 = _scaled_harmonic(2 * m, 1)
    _, H2 = _scaled_harmonic(2 * m, 2)

    def lin(H, k, s):  # scale(H) * (H_(k+s) - H_(k+l-s-1)), s = n for X and m for Y
        return H[k + s] - H[k + l - s - 1]

    hx = hy = rx = ry = 0
    for k, w, b in _head(m, n, L, H1):  # w (1 + k h) lin1 - w k lin2, scaled by L^2
        hx += w * (b * lin(H1, k, n) - k * lin(H2, k, n))
        hy += w * (b * lin(H1, k, m) - k * lin(H2, k, m))
    D, tail = _tail(m, n)
    for k, t in tail:  # scale L D
        rx += t * lin(H1, k, n)
        ry += t * lin(H1, k, m)
    return Fraction(hx * D + rx * L, L * L * D), Fraction(hy * D + ry * L, L * L * D)
