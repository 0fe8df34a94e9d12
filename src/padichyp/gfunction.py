"""The p-adic G function: the gamma-quotient sum extending the scaled
Gaussian hypergeometric series to all primes coprime to the parameter
denominators.

For arguments m_1/d_1, ..., m_(n+1)/d_(n+1) in (0,1) with d_i coprime to p,

    G = -1/(p-1) * sum_{j=0}^{p-2} ((-1)^j Gamma_p(j/(p-1)))^(n+1)
        * prod_i Gamma_p(<m_i/d_i - j/(p-1)>) / Gamma_p(m_i/d_i)
          * (-p)^(-floor(m_i/d_i - j/(p-1))),

with <.> the fractional part.  Both m_i/d_i and j/(p-1) lie in [0, 1), so
every floor is -1 or 0 and the (-p) factor only ever multiplies by 1 or -p;
the whole sum stays inside Z_p and is computed here in plain residue
arithmetic mod p^N, each distinct gamma value evaluated once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .gamma import gamma_residues
from .padic import PadicValue, check_prime


@dataclass(frozen=True)
class GArguments:
    """Validated argument pack for :func:`g_function`."""

    prime: int
    args: tuple[Fraction, ...]
    precision: int

    def __post_init__(self) -> None:
        check_prime(self.prime)
        args = tuple(Fraction(a) for a in self.args)
        object.__setattr__(self, "args", args)
        if len(args) < 2:
            raise ValueError("need at least two arguments (n >= 1)")
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        for a in args:
            if not 0 < a < 1:
                raise ValueError(f"argument {a} is not strictly inside (0, 1)")
            if a.denominator % self.prime == 0:
                raise ValueError(f"p={self.prime} divides the denominator of {a}")


def g_function(ga: GArguments) -> PadicValue:
    """Evaluate the G function; the result lies in Z_p (asserted)."""
    p, N = ga.prime, ga.precision
    pN = p**N
    P = p - 1

    # a = m/d and j/(p-1) give a - j/(p-1) = (m(p-1) - jd) / (d(p-1)): its floor
    # is -1 exactly when m(p-1) < jd, and the residue of its fractional part is
    # an integer numerator times the inverse of d(p-1)
    fracs = [(a.numerator, a.denominator, pow(a.denominator * P, -1, pN))
             for a in ga.args]
    inv_P = pow(P, -1, pN)
    queries = set()
    plan = []  # per j: (residue of j/(p-1), [(frac residue, floor == -1)])
    for j in range(P):
        rj = j * inv_P % pN
        row = []
        for m, d, inv in fracs:
            t = m * P - j * d
            row.append((t % (d * P) * inv % pN, t < 0))
        plan.append((rj, row))
        queries.add(rj)
        queries.update(r for r, _ in row)
    denom_res = [m * pow(d, -1, pN) % pN for m, d, _ in fracs]
    queries.update(denom_res)
    queries = list(queries)
    table = dict(zip(queries, gamma_residues(queries, p, N)))

    denom = 1
    for r in denom_res:
        denom = denom * table[r] % pN
    denom_inv = pow(denom, -1, pN)

    n1 = len(ga.args)
    total = 0
    for j, (rj, row) in enumerate(plan):
        t = table[rj]
        if j % 2:
            t = -t % pN
        term = pow(t, n1, pN)
        for r, below in row:
            term = term * table[r] % pN
            if below:
                term = term * (pN - p) % pN
        total = (total + term) % pN
    total = total * denom_inv % pN
    total = -total * inv_P % pN
    out = PadicValue.from_residue(total, p, N)
    assert out.is_zero or out.valuation >= 0
    return out


def s_factor(fracs, p: int, N: int) -> PadicValue:
    """prod Gamma_p(f) over the given fractions; a Z_p unit.

    The theorem instances use [1/d1, (d1-1)/d1, 1/d2, (d2-1)/d2] and
    [1/d, r/d, (d-r)/d, (d-1)/d]; reflection pairs each product into +-1.
    """
    pN = p**N
    rs = [f.numerator * pow(f.denominator, -1, pN) % pN for f in map(Fraction, fracs)]
    return PadicValue.from_residue(math.prod(gamma_residues(rs, p, N)) % pN, p, N)


def theorem26_sign(p: int, d1: int, d2: int) -> int:
    """(-1)^(floor((p-1)/d1) + floor((p-1)/d2))."""
    return -1 if ((p - 1) // d1 + (p - 1) // d2) % 2 else 1
