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
arithmetic mod p^N.

Index plan.  Every Gamma_p argument of the sum is k/D for an integer index
0 <= k < D, D = lcm(d_i) (p-1) = L (p-1): j/(p-1) is index jL, m_i/d_i is
index c_i = m_i (L/d_i) (p-1), and <m_i/d_i - j/(p-1)> is index
(c_i - jL) mod D, whose floor is -1 exactly when c_i < jL.  With
c_i = rho_i + L q_i, that index is rho_i + L ((q_i - j) mod (p-1)): as j
runs, argument i walks the whole column rho_i (the indices congruent to
rho_i mod L) backwards from q_i, and j/(p-1) walks column 0.  So the sum needs the
columns {0} and {rho_i}, each a list of p - 1 values; each argument's row is
two slices of its column, and a term with N or more factors -p is 0 mod p^N
and is dropped.  Only the column entries are reduced mod p^N (k times the
inverse of D), with no per-(j, argument) modular product.

Reflection.  Index k and index D - k are x and 1 - x.  Only the member with
2k <= D goes through gamma_residues; the other follows from

    Gamma_p(1 - x) = (-1)^rep(x) / Gamma_p(x),   rep(x) in {1, ..., p},
    rep(x) = x mod p as in gamma.rep,

and is kept as the fraction (-1)^rep(x) / Gamma_p(x).  The partner of column
rho is column L - rho (column 0 for rho = 0), read backwards.  This halves
the block evaluations whenever the arguments are closed under a -> 1 - a, as
every argument set of the claims is.  Each term of the sum is then a
fraction whose denominator is the product of its reflected values, and the
terms add up as one running fraction mod p^N, so the whole sum takes one
inversion.  The identity holds exactly in Z_p, so each value is the residue
gamma_residues would give.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import FrozenRecord
from .gamma import _as_residue, gamma_residues
from .padic import PadicValue, _modulus, check_prime


class GArguments(FrozenRecord):
    """Validated argument pack for :func:`g_function`; args are stored as a
    tuple of Fractions."""

    __slots__ = ("prime", "args", "precision")

    def __init__(self, prime: int, args, precision: int) -> None:
        check_prime(prime)
        args = tuple(Fraction(a) for a in args)
        if len(args) < 2:
            raise ValueError("need at least two arguments (n >= 1)")
        _modulus(prime, precision)
        for a in args:
            if not 0 < a < 1:
                raise ValueError(f"argument {a} is not strictly inside (0, 1)")
            if a.denominator % prime == 0:
                raise ValueError(f"p={prime} divides the denominator of {a}")
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "precision", precision)


def g_function(ga: GArguments) -> PadicValue:
    """Evaluate the G function; the result lies in Z_p."""
    p, N = ga.prime, ga.precision
    P = p - 1
    L = math.lcm(*(a.denominator for a in ga.args))
    # argument i is index c_i = rho_i + L q_i (0 <= rho_i < L), so <a_i - j/(p-1)>
    # is index rho_i + L ((q_i - j) mod (p-1)): the indices of argument i fill
    # column rho_i, and those of j/(p-1) fill column 0
    tops = sorted(divmod(a.numerator * (L // a.denominator) * P, L) for a in ga.args)
    column = _gamma_columns({0, *(rho for _, rho in tops)}, L, p, N)
    # term j: ((-1)^j Gamma_p(j/(p-1)))^(n+1) (-p)^b_j prod_i Gamma_p(<a_i - j/(p-1)>),
    # b_j the number of arguments with q_i < j (floor -1); b_j steps up past
    # each q_i.  Terms with b_j >= N vanish mod p^N, so scale stops before them
    # and so does the zip below.
    n1 = len(ga.args)
    scale = []
    for b, end in enumerate(([q + 1 for q, _ in tops] + [P])[:N]):
        scale += [(-p) ** b] * (end - len(scale))
    if n1 % 2:
        scale[1::2] = [-x for x in scale[1::2]]
    # each value is a fraction num/den (den 1 unless it is a reflection), so
    # term j is a/b with a = scale_j times the nums and b the product of the
    # dens; the sum runs as one fraction with one inversion at the end
    rows = [[values[q::-1] + values[:q:-1] for values in column[rho]] for q, rho in tops]
    nums0, dens0 = column[0]
    pN = p**N
    total, den = 0, 1
    for a, b in zip(map(math.prod, zip(scale, *[nums0] * n1, *(r[0] for r in rows))),
                    map(math.prod, zip(*[dens0] * n1, *(r[1] for r in rows)))):
        total = (total * b + a * den) % pN
        den = den * b % pN
    # divided by prod_i Gamma_p(a_i), the value at t = q_i of column rho_i
    gnum = math.prod(column[rho][0][q] for q, rho in tops)
    gden = math.prod(column[rho][1][q] for q, rho in tops)
    total = -total * gden * pow(den * gnum * P, -1, pN) % pN
    return PadicValue.from_residue(total, p, N)


def _gamma_columns(classes, L: int, p: int, N: int) -> dict[int, tuple[list[int], list[int]]]:
    """{rho: (nums, dens)} with Gamma_p(k/D) = nums[t] / dens[t] mod p^N for
    k = rho + L t, t = 0, ..., p-2, D = L(p-1), for each rho in classes.  Each
    k <= D/2 goes through gamma_residues (den 1); each other k is the
    reflection of D - k, which is in column L - rho (column 0 for rho = 0):
    num (-1)^rep((D-k)/D), den Gamma_p((D-k)/D)."""
    pN = p**N
    P = p - 1
    D = L * P
    inv_D = pow(D, -1, pN)
    partner = {rho: -rho % L for rho in classes}
    # the residues of k/D for k = rho, rho + L, ... <= D/2, by steps of L/D
    step = L * inv_D
    low = {rho: [x % pN for x in range(rho * inv_D, (D // 2 + 1) * inv_D, step)]
           for rho in {*classes, *partner.values()}}
    values = gamma_residues([r for rs in low.values() for r in rs], p, N)
    gammas, at = {}, 0
    for rho, rs in low.items():
        gammas[rho] = values[at:at + len(rs)]
        at += len(rs)
    # column rho at t > T (T + 1 = its low count) reflects column rho' at
    # P - t (rho = 0) or P - 1 - t (rho > 0): a reversed slice of rho''s low part
    out = {}
    for rho in classes:
        cut = slice(P - len(low[rho]) - (rho > 0), None if rho else 0, -1)
        part = partner[rho]
        out[rho] = (gammas[rho] + _reflection_signs([r % p or p for r in low[part][cut]]),
                    [1] * len(low[rho]) + gammas[part][cut])
    return out


def _reflection_signs(reps) -> list[int]:
    """(-1)^rep(x) for each rep(x) in {1, ..., p}: the numerator of
    Gamma_p(1 - x) = (-1)^rep(x) / Gamma_p(x)."""
    return [-1 if r % 2 else 1 for r in reps]


def s_factor(fracs, p: int, N: int) -> PadicValue:
    """prod Gamma_p(f) over the given fractions; a Z_p unit.

    The theorem instances use [1/d1, (d1-1)/d1, 1/d2, (d2-1)/d2] and
    [1/d, r/d, (d-r)/d, (d-1)/d]; reflection pairs each product into +-1.
    """
    rs = [_as_residue(f, p, N) for f in fracs]
    return PadicValue.from_residue(math.prod(gamma_residues(rs, p, N)), p, N)


def theorem26_sign(p: int, d1: int, d2: int) -> int:
    """(-1)^(floor((p-1)/d1) + floor((p-1)/d2))."""
    return -1 if ((p - 1) // d1 + (p - 1) // d2) % 2 else 1
