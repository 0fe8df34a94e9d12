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

Two plans evaluate the sum: the column plan for closed argument sets and
the index plan for the others.  Which one runs follows from the arguments
alone.

Closed sets.  With S_m = {h/m : 0 < h < m}, an argument multiset is closed
when it is sum_m gamma_m S_m for integers gamma_m (the gamma vectors of
Beukers, Cohen and Mellit, "Finite hypergeometric functions", 2015): every
h/d in lowest terms occurs as often as every other one of denominator d.
For example, (1/5, 2/5, 3/5, 4/5) is S_5 and (1/12, 5/12, 7/12, 11/12) is
S_12 - S_6 - S_4 + S_2.  Let x = j/(p-1), C[k] = Gamma_p(k/(p-1)) (column 0)
and k_m = -m j mod (p-1).  The set {<h/m - x> : h < m} is
{(y + h)/m : h < m} with y = <-m x> = k_m/(p-1), and the Gauss
multiplication formula for Gamma_p (Robert, "A Course in p-adic Analysis",
GTM 198) reads at y = k/(p-1)

    prod_{h<m} Gamma_p((y + h)/m) = eps_m omega(m)^k Gamma_p(y),
    eps_m = prod_{0<h<m} Gamma_p(h/m),

with omega(m) = m^(p^(N-1)) mod p^N the Teichmuller lift of m.  Therefore

    prod_a Gamma_p(<a - x>) / prod_a Gamma_p(a)
        = prod_m (omega(m)^(k_m) C[k_m] / C[-j mod (p-1)])^(gamma_m):

the eps_m cancel the normalisation.  Term j is ((-1)^j C[j])^(n+1) (-p)^b_j
prod_m T_m[j]^(e_m), with the twisted row T_m[j] = omega(m)^(k_m) C[k_m],
e_m = gamma_m for m > 1, and T_1[j] = C[-j mod (p-1)] to the power
e_1 = -sum_m gamma_m.  _closed_form finds the e_m of an argument tuple once
per process, in integers; column 0 and the twisted rows are kept per (p, N)
in _closed_rows, shared by the calls at a prime.  The column plan reads
(p+1)/2 values through gamma_residues whatever the set, where the index plan
reads about (p+1)/2 per index class.

Index plan.  For a set that is not closed (in check-all, the pair
(1/5, 4/5) of thm2.4 and thm2.5 at d = 5 and of thm2.6 at (2, 5)) every
Gamma_p argument of the sum is k/D for an integer index
0 <= k < D, D = lcm(d_i) (p-1) = L (p-1): j/(p-1) is index jL, m_i/d_i is
index c_i = m_i (L/d_i) (p-1), and <m_i/d_i - j/(p-1)> is index
(c_i - jL) mod D, whose floor is -1 exactly when c_i < jL.  With
c_i = rho_i + L q_i, that index is rho_i + L ((q_i - j) mod (p-1)): as j
runs, argument i walks the whole column rho_i (the indices congruent to
rho_i mod L) backwards from q_i, and j/(p-1) walks column 0.  So the sum needs the
columns {0} and {rho_i}, each a list of p - 1 values; each argument's row is
two slices of its column, and a term with N or more factors -p is 0 mod p^N
and is dropped.  Only the column entries are reduced mod p^N (k times the
inverse of D), with no per-(j, argument) modular product.  The column plan
is checked against this plan in the tests and in tests/kernel_gate.py.

Reflection.  Index k and index D - k are x and 1 - x.  Only the member with
2k <= D goes through gamma_residues; the other follows from

    Gamma_p(1 - x) = (-1)^rep(x) / Gamma_p(x),   rep(x) in {1, ..., p},
    rep(x) = x mod p as in gamma.rep,

and is kept as the fraction (-1)^rep(x) / Gamma_p(x).  The partner of column
rho is column L - rho (column 0 for rho = 0), read backwards.  This halves
the block evaluations of column 0, which is its own partner, and of the index
plan whenever the arguments are closed under a -> 1 - a, as the pair
(1/5, 4/5) is.  Each term of the sum is then a
fraction whose denominator is the product of its reflected values, and the
terms add up as one running fraction mod p^N, so the whole sum takes one
inversion.  The identity holds exactly in Z_p, so each value is the residue
gamma_residues would give.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from ._record import FrozenRecord
from .gamma import _as_residue, gamma_residues
from .padic import PadicValue, _modulus, _per_prime, check_prime


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
    return _g_sum(ga, _closed_form(ga.args))


def _g_sum(ga: GArguments, exponents) -> PadicValue:
    """G by the column plan when exponents are those of a closed set (see
    _closed_form), by the index plan when exponents is None."""
    p, N = ga.prime, ga.precision
    P = p - 1
    # term j: ((-1)^j Gamma_p(j/(p-1)))^(n+1) (-p)^b_j prod_i Gamma_p(<a_i - j/(p-1)>)
    # / Gamma_p(a_i), b_j the number of arguments with q_i = floor(a_i (p-1)) < j
    # (floor -1); b_j steps up past each q_i.  Terms with b_j >= N vanish mod
    # p^N, so scale stops before them and so does the zip below.
    qs = sorted(a.numerator * P // a.denominator for a in ga.args)
    scale = []
    for b, end in enumerate(([q + 1 for q in qs] + [P])[:N]):
        scale += [(-p) ** b] * (end - len(scale))
    if len(qs) % 2:
        scale[1::2] = [-x for x in scale[1::2]]
    if exponents is None:
        rows, (gnum, gden) = _index_plan(ga.args, p, N)
    else:
        rows, gnum, gden = _column_plan(exponents, len(qs), p, N), 1, 1
    # each value is a fraction num/den (den 1 unless it is a reflection), so
    # term j is a/b with a = scale_j times the nums of the rows at j and b the
    # product of their dens; the sum runs as one fraction with one inversion
    # at the end, divided by gnum/gden
    pN = p**N
    total, den = 0, 1
    for a, b in zip(map(math.prod, zip(scale, *(nums for nums, _ in rows))),
                    map(math.prod, zip(*(dens for _, dens in rows)))):
        total = (total * b + a * den) % pN
        den = den * b % pN
    total = -total * gden * pow(den * gnum * P, -1, pN) % pN
    return PadicValue.from_residue(total, p, N)


def _index_plan(args, p: int, N: int):
    """The rows (nums, dens), indexed by j, of the index plan: column 0 once
    per argument, then argument i's row Gamma_p(<a_i - j/(p-1)>); and
    prod_i Gamma_p(a_i) as (num, den)."""
    P = p - 1
    L = math.lcm(*(a.denominator for a in args))
    # argument i is index c_i = rho_i + L q_i (0 <= rho_i < L), so <a_i - j/(p-1)>
    # is index rho_i + L ((q_i - j) mod (p-1)): the indices of argument i fill
    # column rho_i, and those of j/(p-1) fill column 0
    tops = [divmod(a.numerator * (L // a.denominator) * P, L) for a in args]
    column = _gamma_columns({0, *(rho for _, rho in tops)}, L, p, N)
    rows = [column[0]] * len(args)
    rows += [tuple(values[q::-1] + values[:q:-1] for values in column[rho]) for q, rho in tops]
    # Gamma_p(a_i) is the value at t = q_i of column rho_i
    return rows, (math.prod(column[rho][0][q] for q, rho in tops),
                  math.prod(column[rho][1][q] for q, rho in tops))


@lru_cache(maxsize=None)
def _closed_form(args: tuple) -> tuple[tuple[int, int], ...] | None:
    """The exponents ((m, e_m), ...) of the twisted rows T_m of a closed
    argument multiset, sum_m gamma_m S_m: e_m = gamma_m for m > 1 and
    e_1 = -sum_m gamma_m, the zeros left out; None if args is not closed."""
    counts = Counter(args)
    c = {}  # the count of every h/d in lowest terms, one number per denominator d
    for a, k in counts.items():
        if c.setdefault(a.denominator, k) != k:
            return None
    for d, n in Counter(a.denominator for a in counts).items():
        # phi(d) >= sqrt(d/2), so a d past 2 n^2 has an h/d missing
        if d > 2 * n * n or n != sum(math.gcd(h, d) == 1 for h in range(1, d)):
            return None
    # c_d = sum of gamma_m over the multiples m of d, inverted from the top
    gamma = {}
    for m in sorted({m for d in c for m in range(2, d + 1) if d % m == 0}, reverse=True):
        gamma[m] = c.get(m, 0) - sum(g for M, g in gamma.items() if M % m == 0)
    gamma[1] = -sum(gamma.values())
    return tuple((m, e) for m, e in sorted(gamma.items()) if e)


# the rows of the column plan at one prime, keyed (p, N) -> {0: column 0,
# m: T_m}, each a pair (nums, dens) indexed by j
_closed_rows: dict[tuple[int, int], dict[int, tuple[list[int], list[int]]]] = _per_prime({})


def _column_plan(exponents, n1: int, p: int, N: int) -> list[tuple[list[int], list[int]]]:
    """The rows (nums, dens), indexed by j, of the column plan: column 0 n1
    times, then each T_m e_m times (its inverse, nums and dens swapped, -e_m
    times)."""
    table = _closed_rows.setdefault((p, N), {})
    if 0 not in table:
        table[0] = _gamma_columns({0}, 1, p, N)[0]
    rows = [table[0]] * n1
    for m, e in exponents:
        if m not in table:
            table[m] = _twisted_row(table[0], m, p, N)
        nums, dens = table[m]
        rows += [(nums, dens)] * e if e > 0 else [(dens, nums)] * -e
    return rows


def _twisted_row(column, m: int, p: int, N: int) -> tuple[list[int], list[int]]:
    """T_m[j] = omega(m)^k C[k] as (nums, dens), k = -m j mod (p-1), from
    column 0 C as (nums, dens); omega(m) = m^(p^(N-1)) mod p^N is the
    Teichmuller lift of m."""
    pN, P = p**N, p - 1
    nums, dens = column
    w = _teichmuller(m, p, N)
    powers = [1] * P
    for k in range(1, P):
        powers[k] = powers[k - 1] * w % pN
    ks = [-m * j % P for j in range(P)]
    return [powers[k] * nums[k] % pN for k in ks], [dens[k] for k in ks]


def _teichmuller(m: int, p: int, N: int) -> int:
    """omega(m) = m^(p^(N-1)) mod p^N, the (p-1)-th root of unity = m mod p."""
    return pow(m, p ** (N - 1), p**N)


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
