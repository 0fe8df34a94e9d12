"""Exact oracles for the fast kernels.

These are the straightforward per-term Fraction (and truncated-power-series)
evaluations that the package replaced by integer num/den kernels for speed,
the Jacobi sums that Gross-Koblitz writes by Gamma_p(k/(p-1)),
the p-adic sum with its own branches for zero operands, which one sum rule
replaced, the valuation of a difference read from the difference value,
which the digit rule replaced, the per-entry Greene binomial table (one character sum per entry)
replaced by one chirp correlation, the one-binomial-at-a-time eta-product expansion
replaced by Euler's pentagonal series, three evaluations of Gamma_p (the
defining product, swept once over every residue, the block formula with
exact tables and every S_i(K), log and exp term taken separately, and the
block formula on the Bernoulli/Faulhaber log table that the falling-factorial
one replaced), the
section-3 suites evaluated one (x, j) point at a time with Fraction harmonic
sums (the (m1, m2) split of x, 1 - x by rep included), trial division for
the prime table, the Teichmuller lift by one power, json.dumps of each report's schema-1 dict, which the row writer
replaced, the one-string CSV and human writers the streamed ones replaced,
the report sort key through json.dumps, and the congruence-class
admissibility rules of the G-function claims, which the one p-stable rule
replaced.  They stay here so that every fast kernel is compared with an
independent exact evaluation of it."""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

from padichyp import qseries
from padichyp.characters import Character, _dlog_table, _omega_powers
from padichyp.gamma import (_as_residue, default_x_grid, gamma_p, gamma_residue, gamma_residues,
                            rep)
from padichyp.hyp import HypParams
from padichyp.padic import PadicValue, PrecisionError, rational_to_padic, valuation_of_int
from padichyp.report import CongruenceReport


# the 14 Rodriguez-Villegas families, as --args strings: the closed sets the
# tests and tests/kernel_gate.py evaluate G on beside the claims' own
RV_FAMILIES = ["1/5,2/5,3/5,4/5", "1/10,3/10,7/10,9/10", "1/2,1/2,1/2,1/2", "1/3,1/3,2/3,2/3",
               "1/4,1/4,3/4,3/4", "1/6,1/6,5/6,5/6", "1/8,3/8,5/8,7/8", "1/12,5/12,7/12,11/12",
               "1/2,1/2,1/3,2/3", "1/2,1/2,1/4,3/4", "1/2,1/2,1/6,5/6", "1/3,2/3,1/4,3/4",
               "1/3,2/3,1/6,5/6", "1/4,3/4,1/6,5/6"]


def is_odd_prime(p: int) -> bool:
    """Trial division, the oracle of the prime table behind padic.check_prime."""
    if p < 3 or p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def padic_sum(a: PadicValue, b: PadicValue, sign: int) -> PadicValue:
    """a + sign*b for sign = 1 or -1, by the rule PadicValue's one sum
    replaced: a - b with a zero operand as a + (-b), a zero operand through
    its own branches, and two nonzero ones by a digit sum that checks each
    bound."""
    if a.prime != b.prime:
        raise ValueError("mixed primes")
    p = a.prime
    if a.is_zero or b.is_zero:
        if sign == -1:
            b = -b
        if a.is_zero and b.is_zero:
            return PadicValue.zero(p, min(a.abs_prec, b.abs_prec))
        if a.is_zero:
            a, b = b, a
        if b.abs_prec >= a.abs_prec:
            return a
        if b.abs_prec <= a.valuation:
            return PadicValue.zero(p, b.abs_prec)
        return PadicValue(p, a.valuation, a.unit % p ** (b.abs_prec - a.valuation),
                          b.abs_prec - a.valuation)
    absprec = min(a.abs_prec, b.abs_prec)
    v = min(a.valuation, b.valuation)
    n = absprec - v
    if n <= 0:
        return PadicValue.zero(p, absprec)
    pn = p**n
    s = (a.unit * p ** (a.valuation - v) + sign * b.unit * p ** (b.valuation - v)) % pn
    if s == 0:
        return PadicValue.zero(p, absprec)
    t = valuation_of_int(s, p)
    if v + t >= absprec:
        return PadicValue.zero(p, absprec)
    return PadicValue(p, v + t, (s // p**t) % p ** (n - t), n - t)


def diff_valuation(a: PadicValue, b: PadicValue, k: int) -> int | None:
    """The valuation of a - b as reports read it before padic._diff_valuation
    read it from the digits: the difference built as a value (mixed primes
    raise there), then a PrecisionError if a or b is known below p^k."""
    d = a - b
    if a.abs_prec < k or b.abs_prec < k:
        raise PrecisionError(f"congruence mod p^{k} requested but operands are only known "
                             f"mod p^{a.abs_prec} and p^{b.abs_prec}")
    return d.valuation


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
    """The P (first order) or Q (second order) of lemma_PQ_sums, mod p^2."""
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


def teichmuller(a: int, p: int, N: int) -> PadicValue:
    """The Teichmuller lift omega(a), the (p-1)-th root of unity congruent to
    a mod p, as a^(p^(N-1)) mod p^N: the value the characters' omega powers
    must take."""
    if a % p == 0:
        raise ValueError("Teichmuller lift requires gcd(a, p) = 1")
    return PadicValue(p, 0, pow(a, p ** (N - 1), p**N), N)


def char_value(chi: Character, x: int, N: int) -> PadicValue:
    """chi(x) as a PadicValue: a (p-1)-th root of unity, or zero at x = 0."""
    p = chi.prime
    x %= p
    if x == 0:
        return PadicValue.zero(p)
    _, dlog = _dlog_table(p)
    return PadicValue(p, 0, _omega_powers(p, N)[(-chi.exponent * dlog[x]) % (p - 1)], N)


def _beta_residue(p: int, ea: int, eb: int, N: int) -> int:
    """beta(wbar^ea, wbar^eb) = wbar^eb(-1) * sum_x wbar^ea(x) wbar^(-eb)(1-x)."""
    _, dlog = _dlog_table(p)
    pw = _omega_powers(p, N)
    order = p - 1
    pN = p**N
    total = 0
    for x in range(2, p):  # x = 0 and x = 1 drop out via chi(0) = 0
        total += pw[(-ea * dlog[x] + eb * dlog[(1 - x) % p]) % order]
    total = total * pw[(-eb * dlog[p - 1]) % order]
    return total % pN


def jacobi_sums(p: int, N: int, pairs, power: int = -1) -> list[int]:
    """[sum_{x=2}^{p-1} wbar^a(x) wbar^b(1-x) mod p^N for (a, b) in pairs],
    from the index table and the Teichmuller powers alone, with no Gamma_p;
    power 1 puts omega in place of wbar (a negative control)."""
    _, dlog = _dlog_table(p)
    pw = _omega_powers(p, N)
    logs = [(dlog[x], dlog[p + 1 - x]) for x in range(2, p)]
    return [sum(pw[power * (a * u + b * v) % (p - 1)] for u, v in logs) % p**N
            for a, b in pairs]


def char_binomial_scaled(A: Character, B: Character, N: int) -> PadicValue:
    """The scaled Greene binomial beta(A, B) = B(-1) sum_x A(x) Bbar(1-x)."""
    if A.prime != B.prime:
        raise ValueError("mixed primes")
    r = _beta_residue(A.prime, A.exponent, B.exponent, N)
    return PadicValue.from_residue(r, A.prime, N)


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


def rv_form_coeffs(truncation: int) -> list[int]:
    """The coefficients of q^1..q^truncation of the level-25 form
    f1 + 5 f2 + 20 f3 + 25 f4 + 25 f5, each f_i expanded by itself from its
    three eta factors (the sum the shared build in qseries replaced)."""
    out = [0] * truncation
    for i, w in zip(range(1, 6), (1, 5, 20, 25, 25)):
        if i > truncation:
            break
        fi = qseries.eta_product([(1, 5 - i), (5, 4), (25, i - 1)], truncation)
        assert fi.offset == i
        for k, c in enumerate(fi.coeffs):
            out[i - 1 + k] += w * c
    return out


def g_function(ga) -> PadicValue:
    """The G function by the j-sum over residues: each Gamma_p argument is
    reduced mod p^N per (j, argument), and every distinct residue, 1 - x as
    well as x, is evaluated by the block formula (no reflection)."""
    p, N = ga.prime, ga.precision
    pN = p**N
    P = p - 1
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
    total = 0
    for j, (rj, row) in enumerate(plan):
        t = table[rj]
        if j % 2:
            t = -t % pN
        term = pow(t, len(ga.args), pN)
        for r, below in row:
            term = term * table[r] % pN
            if below:
                term = term * (pN - p) % pN
        total = (total + term) % pN
    total = total * pow(denom, -1, pN) % pN
    total = -total * inv_P % pN
    return PadicValue.from_residue(total, p, N)


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


@lru_cache(maxsize=None)
def faulhaber_tables(p: int, N: int):
    """(p^N, L(K)/p mod p^N as a polynomial in K highest degree first, the exp
    coefficients p^j/j! mod p^N highest first), with L(K) = K ell0 + sum_i c_i
    S_i(K) built as the kernel built it before its falling-factorial form:
    Bernoulli numbers, Faulhaber rows S_i(K) = sum_j C(i+1, j) B_j K^(i+1-j) /
    (i+1) over Fractions, and G guard digits that clear their p-denominators
    (at most p^(1 + v_p(i+1)), von Staudt-Clausen).  The c_i come from the
    coefficients of P(y) = prod_{t<p} (y + t) by Newton's identities."""
    pN = p**N
    I = 1 + max((i for i in range(1, 2 * N) if i - valuation_of_int(i, p) < N), default=0)
    bern = [Fraction(1)]
    for m in range(1, I):
        bern.append(-sum(math.comb(m + 1, j) * b for j, b in enumerate(bern)) / (m + 1))
    faul = [[math.comb(i + 1, j) * bern[j] / (i + 1) for j in range(i + 1)]
            for i in range(1, I)]
    G = max((valuation_of_int(c.denominator, p) for row in faul for c in row), default=0)
    M, pG = p ** (N + G), p**G

    def over(num: int, den: int) -> int:
        """num / den mod p^(N+G), for num divisible by p^v_p(den)."""
        v = valuation_of_int(den, p)
        return num // p**v * pow(den // p**v, -1, M) % M

    P = [1] + [0] * (I - 1)  # prod_{t<p} (y + t) mod (p^(N+G), y^I), low degree first
    for t in range(1, p):
        P = [(a * t + b) % M for a, b in zip(P, [0] + P[:-1])]
    g = [a * pow(P[0], -1, M) % M for a in P]
    w = [0] * I
    for k in range(1, I):
        w[k] = (k * g[k] - sum(g[k - i] * w[i] for i in range(1, k))) % M
    logpoly = [0] * (I + 1)
    for i, row in enumerate(faul, 1):
        c = over(p**i * w[i], i)
        for j, f in enumerate(row):
            logpoly[i + 1 - j] += c * over(f.numerator * pG, f.denominator)
    z, zj = (-P[0] - 1) % M, 1
    for j in range(1, I):
        zj = zj * z % M
        logpoly[1] += (1 if j % 2 else -1) * pG * over(zj, j)
    logpoly = [a % M // (p * pG) for a in logpoly]
    expc = [_residue(Fraction(p**j, math.factorial(j)), pN) for j in range(2 * N)]
    return pN, logpoly[::-1], expc[::-1]


def gamma_faulhaber(r: int, p: int, N: int) -> int:
    """Gamma_p(r) mod p^N from faulhaber_tables: u = L(K)/p and exp(p u) by
    Horner, times the partial block prod_{t<=s} (Kp + t), for r - 1 = Kp + s."""
    if r == 0:
        return 1
    pN, logpoly, expc = faulhaber_tables(p, N)
    K, s = divmod(r - 1, p)
    u = e = 0
    for c in logpoly:
        u = (u * K + c) % pN
    for c in expc:
        e = (e * u + c) % pN
    for t in range(K * p + 1, K * p + s + 1):
        e = e * t % pN
    return -e % pN if (r + K) % 2 else e


# -- the section-3 suites as they were evaluated per (x, j) ------------------
#
# Every argument is a Fraction reduced separately, G_1 and G_2 call
# gamma_residue once per Gamma_p value, the sides are combined by PadicValue
# arithmetic and the right-hand sides are Fraction harmonic sums.
# lemma_check_gamma_suite and check_gamma_properties here give the report rows
# that the lemma and the property rows of the package's gamma.section3_rows,
# turned into reports by checks._evaluate, must equal.

_harmonic_cache: dict[int, list[Fraction]] = {}


def harmonic(n: int, i: int = 1) -> Fraction:
    """Generalized harmonic sum H^(i)_n = sum_{j<=n} 1/j^i, with H^(i)_0 = 0."""
    t = _harmonic_cache.get(i)
    if t is None:
        if i < 1:
            raise ValueError("harmonic order must be >= 1")
        t = _harmonic_cache[i] = [Fraction(0)]
    if n < 0:
        raise ValueError("harmonic index must be >= 0")
    while len(t) <= n:
        t.append(t[-1] + Fraction(1, len(t) ** i))
    return t[n]


def rising_factorial(a, n: int) -> Fraction:
    """(a)_n = a(a+1)...(a+n-1), one Fraction product per factor."""
    a = Fraction(a)
    out = Fraction(1)
    for k in range(n):
        out *= a + k
    return out


def gamma_shift(x, j: int, p: int, N: int) -> PadicValue:
    """Gamma_p(x + j) = (-1)^j Gamma_p(x) (x)_j, past the p-divisible step
    divided by x + p - rep(x)."""
    x = Fraction(x)
    r = rep(x, p)
    out = gamma_p(x, p, N)
    if j == 0:
        return out
    out = out * rational_to_padic(rising_factorial(x, j), p, N)
    if j > p - r:
        out = out * rational_to_padic(x + p - r, p, N).inverse()
    if j % 2:
        out = -out
    return out


def g1(x, p: int, M: int) -> PadicValue:
    """(Gamma_p(x+h)/Gamma_p(x) - 1)/h mod p^M, h = p^M."""
    Ng = 2 * M + 1
    pN = p**Ng
    h = p**M
    r = _as_residue(x, p, Ng)
    g0 = gamma_residue(r, p, Ng)
    gh = gamma_residue((r + h) % pN, p, Ng)
    q = (gh * pow(g0, -1, pN) - 1) % pN
    return PadicValue.from_residue(q // h % p**M, p, M)


def g2(x, p: int, M: int) -> PadicValue:
    """(Gamma_p(x+h) - 2 Gamma_p(x) + Gamma_p(x-h)) / (h^2 Gamma_p(x)) mod p^M,
    h = p^ceil(M/2)."""
    m = (M + 1) // 2
    Ng = 2 * m + M + 1
    pN = p**Ng
    h = p**m
    r = _as_residue(x, p, Ng)
    g0 = gamma_residue(r, p, Ng)
    num = (gamma_residue((r + h) % pN, p, Ng) - 2 * g0
           + gamma_residue((r - h) % pN, p, Ng)) % pN
    return PadicValue.from_residue(num // (h * h) * pow(g0, -1, pN) % p**M, p, M)


def split_by_rep(x: Fraction, p: int) -> tuple[Fraction, Fraction]:
    """(m1, m2) with {m1, m2} = {x, 1-x} and rep(m1) maximal.

    rep(x) + rep(1-x) = p + 1, so a tie means both equal (p+1)/2, which
    happens exactly when x = 1/2 mod p; either choice is then valid and we
    keep m1 = x.
    """
    rx, ry = rep(x, p), rep(1 - x, p)
    return (x, 1 - x) if rx >= ry else (1 - x, x)


def shifted_gamma_factorial(x: Fraction, j: int, p: int):
    """Lemma 3.9 at (x, j): (lhs, rhs, k)."""
    x = Fraction(x)
    r = rep(x, p)
    lhs = gamma_p(x + j, p, 2)
    delta = Fraction(1) if j <= p - r else Fraction(1, p)
    rhs = Fraction(math.factorial(r + j - 1)) * (-1) ** (r + j) * delta
    return lhs, rational_to_padic(rhs, p, 3), 1


def shifted_g1_harmonic(x: Fraction, j: int, p: int):
    """Lemma 3.10 at (x, j): (lhs, rhs, k)."""
    x = Fraction(x)
    r = rep(x, p)
    lhs = g1(x + j, p, 1) - g1(1 + j, p, 1)
    delta = Fraction(0) if j <= p - r else Fraction(1, p)
    rhs = harmonic(r - 1 + j, 1) - harmonic(j, 1) - delta
    return lhs, rational_to_padic(rhs, p, 3), 1


def shifted_g1g2_harmonic(x: Fraction, j: int, p: int):
    """Lemma 3.11 at (x, j): (lhs, rhs, k)."""
    x = Fraction(x)
    r = rep(x, p)
    la = g1(x + j, p, 1)
    lb = g1(1 + j, p, 1)
    lhs = la * la - g2(x + j, p, 1) - lb * lb + g2(1 + j, p, 1)
    delta = Fraction(0) if j <= p - r else Fraction(1, p**2)
    rhs = harmonic(r - 1 + j, 2) - harmonic(j, 2) - delta
    return lhs, rational_to_padic(rhs, p, 4), 1


def paired_gamma_binomial(x: Fraction, j: int, p: int):
    """Lemma 3.12 at (x, j), 0 <= j < rep(m1): (lhs, rhs, k)."""
    x = Fraction(x)
    m1, m2 = split_by_rep(x, p)
    r1, r2 = rep(m1, p), rep(m2, p)
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
    """Lemma 3.13 at (x, j), 0 <= j < rep(m1): (lhs, rhs, k)."""
    x = Fraction(x)
    m1, m2 = split_by_rep(x, p)
    r1, r2 = rep(m1, p), rep(m2, p)
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


def lemma_check_gamma_suite(p: int, xs=None) -> list[CongruenceReport]:
    """One report per (family, x, j), point by point and family by family at
    each point."""
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
    for x in xs:
        for claim, fn, jrange in families:
            for j in jrange(x):
                lhs, rhs, k = fn(x, j, p)
                reports.append(CongruenceReport.from_sides(
                    claim, p, {"x": str(Fraction(x)), "j": j}, k, lhs, rhs))
    return reports


def check_gamma_properties(p: int, xs=None) -> list[CongruenceReport]:
    """Props 3.1-3.3, 3.8 and Cors 3.4-3.5 over xs, by default the default x
    grid, point by point."""
    N, M = 4, 2
    out = []
    if xs is None:
        xs = default_x_grid(p)
    one = rational_to_padic(1, p, N)
    for x in xs:
        gx = gamma_p(x, p, N)
        gx1 = gamma_p(x + 1, p, N)
        if Fraction(x).numerator % p == 0:
            rhs = -gx
        else:
            rhs = -(rational_to_padic(x, p, N) * gx)
        out.append(CongruenceReport.from_sides(
            "prop3.1.1", p, {"x": str(x)}, N, gx1, rhs))
        refl = gx * gamma_p(1 - x, p, N)
        out.append(CongruenceReport.from_sides(
            "prop3.1.2", p, {"x": str(x)}, N, refl,
            rational_to_padic((-1) ** rep(x, p), p, N)))
        for n in (1, 2, 3):
            y = x + p**n
            out.append(CongruenceReport.from_sides(
                "prop3.1.3", p, {"x": str(x), "n": n}, n,
                gamma_p(y, p, n + 2), gamma_p(x, p, n + 2)))
        for j in range(0, p + 1):
            out.append(CongruenceReport.from_sides(
                "prop3.8", p, {"x": str(x), "j": j}, N,
                gamma_shift(x, j, p, N), gamma_p(x + j, p, N)))
        u1 = g1(x, p, M)
        u2 = g2(x, p, M)
        v1 = g1(x + 1, p, M)
        v2 = g2(x + 1, p, M)
        xv = Fraction(x)
        unit = xv.numerator % p != 0
        rhs = rational_to_padic(1 / xv, p, M) if unit else PadicValue.zero(p, M)
        out.append(CongruenceReport.from_sides(
            "prop3.2.1", p, {"x": str(x)}, M, v1 - u1, rhs))
        rhs = rational_to_padic(1 / xv**2, p, M) if unit else PadicValue.zero(p, M)
        out.append(CongruenceReport.from_sides(
            "prop3.2.2", p, {"x": str(x)}, M,
            v1 * v1 - v2 - u1 * u1 + u2, rhs))
        w1 = g1(1 - x, p, M)
        w2 = g2(1 - x, p, M)
        out.append(CongruenceReport.from_sides(
            "prop3.2.3", p, {"x": str(x)}, M, u1, w1))
        out.append(CongruenceReport.from_sides(
            "prop3.2.4", p, {"x": str(x)}, M,
            u1 * u1 - u2, -(w1 * w1) + w2))
        for t in (1, 2):
            z = Fraction(t * p)
            zx1 = g1(x + z, p, M)
            zx2 = g2(x + z, p, M)
            out.append(CongruenceReport.from_sides(
                "cor3.4", p, {"x": str(x), "z": str(z), "which": "g1"}, 1, zx1, u1))
            out.append(CongruenceReport.from_sides(
                "cor3.4", p, {"x": str(x), "z": str(z), "which": "g2"}, 1, zx2, u2))
            ze = rational_to_padic(z, p, M + 1)
            out.append(CongruenceReport.from_sides(
                "cor3.5", p, {"x": str(x), "z": str(z)}, 2,
                u1, zx1 + ze * (zx1 * zx1 - zx2)))
            taylor = gamma_p(x, p, N) * (
                one + ze * u1
                + rational_to_padic(z * z / 2, p, N) * u2)
            out.append(CongruenceReport.from_sides(
                "prop3.3.2", p, {"x": str(x), "z": str(z)}, 3,
                gamma_p(x + z, p, N), taylor))
    return out


def to_dict(r: CongruenceReport) -> dict:
    """The schema-1 dict of a report."""
    return {
        "schema": 1,
        "claim": r.claim,
        "p": r.p,
        "params": r.params,
        "mod_power": r.mod_power,
        "lhs": {"val": r.lhs_val, "unit": r.lhs_unit},
        "rhs": {"val": r.rhs_val, "unit": r.rhs_unit},
        "diff_valuation": r.diff_valuation,
        "pass": r.passed,
        "ms": None,
    }


def reports_to_json(reports) -> str:
    """The report list through json.dumps: every row's to_dict, indent 2."""
    rows = [to_dict(r) for r in reports]
    return json.dumps(rows, indent=2, default=str) + "\n"


def reports_to_csv(reports) -> str:
    """The CSV writer the streamed one replaced: every row from to_dict,
    params through json.dumps, into one buffer."""
    import csv
    import io

    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["schema", "claim", "p", "params", "mod_power",
                "lhs_val", "lhs_unit", "rhs_val", "rhs_unit",
                "diff_valuation", "pass", "ms"])
    for r in reports:
        d = to_dict(r)
        w.writerow([d["schema"], d["claim"], d["p"],
                    json.dumps(d["params"], sort_keys=True, default=str),
                    d["mod_power"], d["lhs"]["val"], d["lhs"]["unit"],
                    d["rhs"]["val"], d["rhs"]["unit"],
                    d["diff_valuation"], d["pass"], d["ms"]])
    return buf.getvalue()


def reports_to_human(reports) -> str:
    """The human writer the streamed one replaced: every line, then the pass
    count, joined once."""
    lines = [r.human_line() for r in reports]
    n_pass = sum(r.passed for r in reports)
    lines.append(f"-- {n_pass}/{len(reports)} passed")
    return "\n".join(lines) + "\n"


def sort_key(r: CongruenceReport) -> tuple:
    """The report order: claim, prime, then params through json.dumps."""
    return (r.claim, r.p, json.dumps(r.params, sort_keys=True, default=str))


def pm1(p: int, d: int) -> bool:
    """p = +-1 (mod d); with d >= 2 this rules out p | d."""
    return p % d in (1 % d, (d - 1) % d)


def congruence_class_rule(claim: str, p: int, q: dict) -> bool:
    """The admissibility each claim stated by hand for its parameters q before
    the p-stable rule: p = +-1 mod d for thm2.4 and thm2.5, and mod d1 and d2
    for thm2.6; for thm2.7 p = +-1 mod d, or p = +-r when r^2 = +-1 mod d;
    p != 5 for conj1.3; every odd prime for ao and beukers."""
    if claim in ("thm2.4", "thm2.5"):
        return pm1(p, q["d"])
    if claim == "thm2.6":
        return pm1(p, q["d"]) and pm1(p, q["d2"])
    if claim == "thm2.7":
        d, r = q["d"], q["r"]
        if pm1(p, d):
            return True
        return r * r % d in (1 % d, (d - 1) % d) and p % d in (r % d, (d - r) % d)
    if claim == "conj1.3":
        return p != 5
    assert claim in ("ao", "beukers"), claim
    return True
