"""Multiplicative characters of F_p* embedded p-adically, Greene's scaled
character binomial and the scaled Gaussian hypergeometric series.

Characters are powers of the inverse Teichmuller character: chi = wbar^e with
e in [0, p-2], so chi(x) = omega(x)^(-e) is a (p-1)-th root of unity in Z_p*
and chi(0) = 0 by convention (including the trivial character).  Working with
Teichmuller roots of unity instead of complex ones turns every identity into
an exact congruence mod p^N.

The scaled binomial absorbs the 1/p of Greene's definition:

    beta(A, B) = p * (A over B) = B(-1) * sum_{x in F_p} A(x) Bbar(1-x),

an honest element of Z_p.  The scaled series computed here is

    (-1)^n p^n {n+1}F_n(A_0,...,A_n; B_1,...,B_n | x)
        = (-1)^n/(p-1) * sum_chi beta(A_0 chi, chi) prod_i beta(A_i chi, B_i chi) chi(x),

which is exactly the left-hand side appearing in the G-function identity and
the theorem statements, so no negative valuations ever materialize.

Only whole tables are computed: beta(A chi, B chi) over all p - 1
characters chi is a length-(p-1) DFT of Teichmuller roots, evaluated as a
Bluestein chirp correlation by one big-integer product (Kronecker
substitution): O(p) Python steps plus one multiplication of O(p N log p)-bit
integers, not one O(p) character sum per entry (that sum, and single
character values, are oracles in tests/oracles.py).  The series builds each
distinct table once and then costs O(n p).  Nothing here uses Gamma_p, so
the series stays an independent check of the G function.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from ._record import FrozenRecord
from .padic import PadicValue, _modulus, _per_prime, check_prime


@_per_prime
@lru_cache(maxsize=None)
def _dlog_table(p: int) -> tuple[int, tuple[int, ...]]:
    """(least primitive root g, index table) with table[x] = log_g(x) for x in
    [1, p-1], from one walk over the powers of each candidate g: the walk of
    g fills the table, and a return to 1 before p - 1 steps rejects g (the
    primitive root's walk then overwrites every entry)."""
    check_prime(p)
    order = p - 1
    table = [0] * p
    for g in range(2, p):
        acc = 1
        for k in range(order):
            table[acc] = k
            acc = acc * g % p
            if acc == 1:
                break
        if k == order - 1:
            return g, tuple(table)


@_per_prime
@lru_cache(maxsize=None)
def _omega_powers(p: int, N: int) -> tuple[int, ...]:
    """omega(g)^k mod p^N for k in [0, p-2], g the cached primitive root."""
    pN = _modulus(p, N)
    g, _ = _dlog_table(p)
    zeta = pow(g, p ** (N - 1), pN)
    out = [1] * (p - 1)
    for k in range(1, p - 1):
        out[k] = out[k - 1] * zeta % pN
    return tuple(out)


class Character(FrozenRecord):
    """chi = wbar^exponent on F_p*, extended by chi(0) = 0; the exponent is
    stored mod p - 1."""

    __slots__ = ("prime", "exponent")

    def __init__(self, prime: int, exponent: int) -> None:
        check_prime(prime)
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "exponent", exponent % (prime - 1))

    @classmethod
    def trivial(cls, p: int) -> "Character":
        return cls(p, 0)

    @classmethod
    def quadratic(cls, p: int) -> "Character":
        return cls(p, (p - 1) // 2)


def _pack(coeffs, width: int) -> int:
    """sum_i coeffs[i] 2^(8 width i), for coefficients below 2^(8 width)."""
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coeffs), "little")


def binomial_table(A: Character, B: Character, N: int) -> tuple[int, ...]:
    """beta(A chi, B chi) mod p^N for every chi = wbar^e, indexed by e.

    With A = wbar^a, B = wbar^b, z = omega(g) and k = dlog((1-x)/x),
    entry e is B(-1) chi(-1) sum_k W[k] z^(e k), where
    W[k] = z^(-a dlog x + b dlog(1-x)); x -> (1-x)/x is a bijection from
    F_p minus {0, 1} onto F_p minus {0, -1}, so W has one term per k.  The
    chirp e k = C(e+k, 2) - C(e, 2) - C(k, 2) turns this length-(p-1) DFT
    into a correlation of u[k] = W[k] z^(-C(k, 2)) with v[m] = z^(C(m, 2)),
    computed as one integer product by Kronecker substitution.
    """
    if A.prime != B.prime:
        raise ValueError("mixed primes")
    p = A.prime
    order = p - 1
    pN = p**N
    _, dlog = _dlog_table(p)
    pw = _omega_powers(p, N)
    a, b = A.exponent, B.exponent
    u = [0] * order
    for x in range(2, p):  # x = 0 and x = 1 drop out via chi(0) = 0
        lx, l1x = dlog[x], dlog[p + 1 - x]
        k = (l1x - lx) % order
        u[k] = pw[(-a * lx + b * l1x - k * (k - 1) // 2) % order]
    v = [pw[m * (m - 1) // 2 % order] for m in range(2 * order - 1)]
    # each correlation sum is below (p-1) p^(2N); whole bytes per slot
    width = ((2 * pN.bit_length() + order.bit_length()) + 7) // 8
    raw = (_pack(reversed(u), width) * _pack(v, width)).to_bytes(
        width * (3 * order - 2), "little")
    h = dlog[p - 1]
    out = []
    for e in range(order):
        start = width * (order - 1 + e)
        corr = int.from_bytes(raw[start:start + width], "little")
        out.append(pw[(-(b + e) * h - e * (e - 1) // 2) % order] * corr % pN)
    return tuple(out)


def greene_series_scaled(top, bottom, x: int, N: int) -> PadicValue:
    """(-1)^n p^n {n+1}F_n(top; bottom | x)_p, entirely inside Z_p.

    top is A_0..A_n, bottom is B_1..B_n; all characters must share one prime.
    """
    top = list(top)
    bottom = list(bottom)
    if len(top) != len(bottom) + 1 or not bottom:
        raise ValueError("need n+1 top characters and n >= 1 bottom characters")
    p = top[0].prime
    for c in (*top, *bottom):
        if c.prime != p:
            raise ValueError("mixed primes")
    pN = _modulus(p, N)
    x %= p
    if x == 0:
        return PadicValue.zero(p)
    order = p - 1
    pairs = [(top[0], Character.trivial(p)), *zip(top[1:], bottom)]
    built = {pair: binomial_table(*pair, N) for pair in set(pairs)}
    tables = [built[pair] for pair in pairs]
    _, dlog = _dlog_table(p)
    pw = _omega_powers(p, N)
    h = dlog[x]
    twist = [pw[-e * h % order] for e in range(order)]
    # one product per term and one reduction, as G's j-sum does
    total = sum(map(math.prod, zip(twist, *tables))) * pow(order, -1, pN) % pN
    n = len(bottom)
    if n % 2:
        total = -total % pN
    return PadicValue.from_residue(total, p, N)


def characters_for_arguments(args, p: int) -> list[Character]:
    """rho_i^(m_i) for fractions m_i/d_i, i.e. wbar^(m_i (p-1)/d_i).

    Requires p = 1 mod d_i for every i.
    """
    out = []
    for q in args:
        q = Fraction(q)
        if (p - 1) % q.denominator != 0:
            raise ValueError(f"p={p} is not 1 mod {q.denominator}")
        out.append(Character(p, q.numerator * ((p - 1) // q.denominator)))
    return out
