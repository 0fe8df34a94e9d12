"""Rising factorials and truncated generalized hypergeometric series.

The truncated series

    rFs[a_1,...,a_r; b_1,...,b_s | z]_m = sum_{k=0}^m prod (a_i)_k / prod (b_j)_k * z^k / k!

is accumulated as one integer num/den pair: with the term ratios
u_k/v_k = prod(a_i + k - 1) * z / (k * prod(b_j + k - 1)) over integers, a
backward Horner pass num, den = v_k*den + u_k*num, v_k*den needs no gcd per
term.  A Fraction appears only at the API boundary: :func:`truncated_hyp_exact`
and :func:`rising_factorial`.

Reduction mod p^N.  :func:`truncated_hyp` runs the same pass with num and den
reduced mod p^(N+r), r spare digits for the r top parameters.  When every v_k
is a p-adic unit (den mod p != 0; always so for bottom parameters of 1 at
truncation <= p - 1), the series is num/den with num known mod p^(N+r): a
nonzero num of valuation v <= r leaves N relative digits.  In check-all every
series that vanishes mod p does so to order at most r - 1 (mod p^2 for the
three-parameter series of thm2.5, mod p^3 for the four-parameter series of
thm2.6 at (d1, d2) = (3, 4)), so each takes this one pass.  Only as the last
resort (a p in some v_k, num = 0 mod p^(N+r), or v > r) does the exact pair
decide, so p-divisible factors along the way cost nothing.  Either pair goes
through the one unit path, _ratio_to_padic, which reads the valuations off
num and den and reduces the unit once.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import FrozenRecord
from .padic import PadicValue, _modulus, _ratio_to_padic, check_prime, valuation_of_int


def rising_factorial(a, n: int) -> Fraction:
    """(a)_0 = 1 and (a)_n = a(a+1)...(a+n-1)."""
    if n < 0:
        raise ValueError("rising factorial needs n >= 0")
    # prod (num + k den) / den^n: one integer product, one gcd
    a = Fraction(a)
    num, den = a.numerator, a.denominator
    return Fraction(math.prod(num + k * den for k in range(n)), den**n)


class HypParams(FrozenRecord):
    """The parameters of a truncated series; top and bottom are stored as
    tuples of Fractions, z as a Fraction."""

    __slots__ = ("top", "bottom", "z", "truncation")

    def __init__(self, top, bottom, z, truncation: int) -> None:
        top = tuple(Fraction(a) for a in top)
        bottom = tuple(Fraction(b) for b in bottom)
        z = Fraction(z)
        if truncation < 0:
            raise ValueError("truncation must be >= 0")
        for b in bottom:
            if b <= 0 and b.denominator == 1:
                raise ValueError("bottom parameters may not be zero or negative integers")
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "bottom", bottom)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "truncation", truncation)


def _series_pair(params: HypParams, modulus: int | None = None) -> tuple[int, int]:
    """(num, den), integers with num/den the truncated series (not reduced);
    with a modulus, both are reduced mod it after every step."""
    # a + k - 1 = (a.num + (k-1) a.den) / a.den: the parameter denominators
    # come out of every ratio as the constants ca and cb
    top = [(a.numerator, a.denominator) for a in params.top]
    bottom = [(b.numerator, b.denominator) for b in params.bottom]
    ca = math.prod(d for _, d in top)
    cb = math.prod(d for _, d in bottom)
    zn, zd = params.z.numerator, params.z.denominator
    num = den = 1
    for k in range(params.truncation, 0, -1):
        u = zn * cb
        for an, ad in top:
            u *= an + (k - 1) * ad
        v = k * zd * ca
        for bn, bd in bottom:
            v *= bn + (k - 1) * bd
        num, den = v * den + u * num, v * den  # 1 + (u/v) * (num/den)
        if modulus:
            num, den = num % modulus, den % modulus
    return num, den


def truncated_hyp_exact(params: HypParams) -> Fraction:
    """The truncated series as an exact rational."""
    return Fraction(*_series_pair(params))


def truncated_hyp(params: HypParams, p: int, N: int) -> PadicValue:
    """The truncated series reduced into Z_p mod p^N.

    Requires p-integral parameters and truncation <= p - 1 so that no k!
    picks up a factor of p.
    """
    check_prime(p)
    for q in (*params.top, *params.bottom, params.z):
        if q.denominator % p == 0:
            raise ValueError("parameters must be p-integral")
    if params.truncation > p - 1:
        raise ValueError("truncation beyond p - 1 is outside the guaranteed range")
    r = len(params.top)
    num, den = _series_pair(params, _modulus(p, N) * p**r)
    if not (num and den % p and valuation_of_int(num, p) <= r):
        num, den = _series_pair(params)
    return _ratio_to_padic(num, den, p, N)
