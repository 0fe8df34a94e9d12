"""Fixed-relative-precision p-adic numbers over exact rationals.

A value of ``Q_p`` is stored in the canonical decomposition ``u * p^v`` where
``u`` is a unit known modulo ``p^N``; ``N`` is the *relative* precision and
``v + N`` the *absolute* precision (the value is pinned down modulo
``p^(v+N)``).  Zero is a distinguished state: ``valuation is None`` together
with an absolute precision bound, which is ``math.inf`` for exact zeros and
finite for zeros produced by cancelling additions.  Keeping the finite bound
is what makes :func:`congruent_mod` sound: it can never certify a congruence
past what the inputs actually determine.

Only the odd primes up to PRIME_BOUND = 500 are supported, so that downstream
table builders stay desk-sized; check_prime reads them from one table.

Memos keyed by a prime are registered with _per_prime where they are
defined; _at_prime(p), called by checks.run_task, empties them all when the
prime changes, since no entry is read again once its prime is done.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

from ._record import FrozenRecord

PRIME_BOUND = 500


class PrecisionError(ArithmeticError):
    """A computation or comparison was requested past certified precision."""


def primes_in(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi]."""
    if hi < 2:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(hi**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return [i for i in range(max(lo, 2), hi + 1) if sieve[i]]


_ODD_PRIMES = frozenset(primes_in(3, PRIME_BOUND))


def check_prime(p: int) -> None:
    if p not in _ODD_PRIMES:
        if p > PRIME_BOUND:
            raise ValueError(f"p={p} exceeds the prime bound {PRIME_BOUND}")
        raise ValueError(f"p={p} is not an odd prime")


_PRIME_MEMOS = []  # the registered memos: lru_cache functions and dicts
_prime = None  # the prime of the work at hand, None before any or prime-free


def _per_prime(memo):
    """Register memo, an lru_cache function or a dict whose keys hold a
    prime, to be emptied by _at_prime; returns memo unchanged."""
    _PRIME_MEMOS.append(memo)
    return memo


def _at_prime(p: int | None) -> None:
    """Start work at prime p, None for prime-free work: a new prime empties every memo."""
    global _prime
    if p != _prime:
        _prime = p
        for memo in _PRIME_MEMOS:
            (memo.cache_clear if hasattr(memo, "cache_clear") else memo.clear)()


def valuation_of_int(n: int, p: int) -> int:
    """Exponent of the largest power of p dividing n (n must be nonzero)."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _modulus(p: int, N: int) -> int:
    """p^N, for N >= 1 digits: the one guard against a request for no digit."""
    if N < 1:
        raise PrecisionError(f"need at least one digit, got N={N}")
    return p**N


class PadicValue(FrozenRecord):
    """An element of Q_p known to fixed relative precision.

    ``valuation is None`` encodes zero; then ``unit == 0`` and ``rel_prec``
    holds the absolute precision to which the value is known to vanish.
    """

    __slots__ = ("prime", "valuation", "unit", "rel_prec")

    def __init__(self, prime: int, valuation: int | None, unit: int,
                 rel_prec: int | float) -> None:
        check_prime(prime)
        if valuation is None:
            if unit != 0:
                raise ValueError("zero value must have unit 0")
            # rel_prec holds the absolute precision here; it may be negative
            # (a cancelled sum of negative-valuation values) or infinite
        else:
            if rel_prec < 1:
                raise PrecisionError("relative precision fell below 1")
            if not 0 < unit < prime**rel_prec:
                raise ValueError("unit out of range for stated precision")
            if unit % prime == 0:
                raise ValueError("unit must be coprime to p")
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "rel_prec", rel_prec)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int, abs_prec: int | float = math.inf) -> "PadicValue":
        return cls(p, None, 0, abs_prec)

    @classmethod
    def from_residue(cls, r: int, p: int, N: int) -> "PadicValue":
        """Interpret an integer known modulo p^N as a p-adic value."""
        r %= _modulus(p, N)
        if r == 0:
            return cls.zero(p, N)
        v = valuation_of_int(r, p)
        return cls(p, v, (r // p**v) % p ** (N - v), N - v)

    # -- inspectors --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.valuation is None

    @property
    def abs_prec(self) -> int | float:
        if self.valuation is None:
            return self.rel_prec
        return self.valuation + self.rel_prec

    def residue(self, k: int) -> int:
        """The integer in [0, p^k) congruent to the value mod p^k.

        Requires valuation >= 0 and absolute precision >= k.
        """
        if self.abs_prec < k:
            raise PrecisionError(f"residue mod p^{k} exceeds absolute precision")
        if self.is_zero:
            return 0
        if self.valuation < 0:
            raise ValueError("negative valuation has no integer residue")
        return (self.unit * self.prime**self.valuation) % self.prime**k

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "PadicValue") -> "PadicValue":
        return _sum(self, other, 1)

    def __sub__(self, other: "PadicValue") -> "PadicValue":
        return _sum(self, other, -1)

    def __mul__(self, other: "PadicValue") -> "PadicValue":
        if self.prime != other.prime:
            raise ValueError("mixed primes")
        p = self.prime
        if self.is_zero or other.is_zero:
            # val(xy) >= bound(x) + val(y); exact zeros stay exact
            za = self.abs_prec if self.is_zero else self.valuation
            zb = other.abs_prec if other.is_zero else other.valuation
            return PadicValue.zero(p, za + zb)
        n = min(self.rel_prec, other.rel_prec)
        return PadicValue(p, self.valuation + other.valuation, self.unit * other.unit % p**n, n)

    def __neg__(self) -> "PadicValue":
        if self.is_zero:
            return self
        return PadicValue(self.prime, self.valuation, -self.unit % self.prime**self.rel_prec,
                          self.rel_prec)

    def inverse(self) -> "PadicValue":
        if self.is_zero:
            raise ZeroDivisionError("inversion of p-adic zero")
        n = self.rel_prec
        return PadicValue(self.prime, -self.valuation, pow(self.unit, -1, self.prime**n), n)


def rational_to_padic(q: Rational | int, p: int, N: int) -> PadicValue:
    """Embed a rational into Q_p with unit known mod p^N.

    p may divide numerator or denominator; both contribute to the valuation.
    """
    q = Fraction(q)
    return _ratio_to_padic(q.numerator, q.denominator, p, N)


def _ratio_to_padic(num: int, den: int, p: int, N: int) -> PadicValue:
    """num/den into Q_p with unit known mod p^N, for integers num and den != 0
    in any form: nothing needs the pair in lowest terms."""
    check_prime(p)
    pN = _modulus(p, N)
    if num == 0:
        return PadicValue.zero(p)
    vn = valuation_of_int(num, p)
    vd = valuation_of_int(den, p)
    unit = num // p**vn * pow(den // p**vd, -1, pN) % pN
    return PadicValue(p, vn - vd, unit, N)


def _digits(a: PadicValue, b: PadicValue, sign: int) -> tuple:
    """(v, s, absprec): a + sign*b (sign = 1 or -1) is s p^v, s known mod
    p^(absprec - v) and 0 when every known digit cancels, the one digit rule of
    _sum and _diff_valuation.  A zero operand adds no digit, only its bound."""
    if a.prime != b.prime:
        raise ValueError("mixed primes")
    p = a.prime
    absprec = min(a.abs_prec, b.abs_prec)
    va, vb = a.valuation, b.valuation
    if va is None:
        if vb is None:
            return 0, 0, absprec
        va = vb  # a's unit is 0: any valuation adds nothing
    elif vb is None:
        vb = va
    v = min(va, vb)
    n = absprec - v  # >= 1 unless a zero's bound lies at or below v
    if n <= 0:
        return v, 0, absprec
    return v, (a.unit * p ** (va - v) + sign * b.unit * p ** (vb - v)) % p**n, absprec


def _sum(a: PadicValue, b: PadicValue, sign: int) -> PadicValue:
    """a + sign*b for sign = 1 or -1, from the digits of _digits: a - b builds no -b."""
    v, s, absprec = _digits(a, b, sign)
    p = a.prime
    if s == 0:
        # all known digits cancelled; the sum vanishes to absolute precision
        return PadicValue.zero(p, absprec)
    t = valuation_of_int(s, p)  # t < absprec - v, since 0 < s < p^(absprec - v)
    return PadicValue(p, v + t, s // p**t, absprec - v - t)


def congruent_mod(a: PadicValue, b: PadicValue, k: int) -> bool:
    """True iff valuation(a - b) >= k.

    Both operands must carry absolute precision >= k; anything less is a hard
    :class:`PrecisionError`, never a silent pass or fail.
    """
    v = _diff_valuation(a, b, k)
    return v is None or v >= k


def _diff_valuation(a: PadicValue, b: PadicValue, k: int) -> int | None:
    """The valuation of a - b, None if it vanishes to working precision, read
    from the digits _digits gives a - b: no difference value is built.  Mixed
    primes raise first, then a PrecisionError if a or b is known below p^k."""
    v, s, absprec = _digits(a, b, -1)
    if absprec < k:
        raise PrecisionError(f"congruence mod p^{k} requested but operands are only known "
                             f"mod p^{a.abs_prec} and p^{b.abs_prec}")
    return None if s == 0 else v + valuation_of_int(s, a.prime)
