"""Morita's p-adic gamma function and its logarithmic derivatives.

For a positive integer n,

    Gamma_p(n) = (-1)^n * prod_{0 < j < n, p !| j} j,

extended continuously to Z_p (Gamma_p(0) = 1).  A value at any x in Z_p is
obtained by reducing x modulo p^N and evaluating at the integer
representative, which is exact mod p^N by the continuity property
Gamma_p(x) = Gamma_p(y) mod p^n whenever x = y mod p^n.

Evaluation.  One formula serves every (p, N).  The defining product up to
m = r - 1 factors into complete blocks of p consecutive integers and one
partial block:

    prod_{0<j<=m, p!|j} j = prod_{k=0}^{K-1} P(kp) * Q_s(Kp),
    P(y) = prod_{t=1}^{p-1} (y+t),   Q_s(y) = prod_{t=1}^{s} (y+t),

with K = m // p, s = m % p.  P(kp)/P(0) lies in 1 + pZ_p and
-P(0) = -(p-1)! = 1 mod p (Wilson), so the complete-block product is
(-1)^K exp(L(K)), L(K) = sum_{k<K} log(-P(kp)).  In falling factorials
k^(j) = k (k-1) ... (k-j+1), with S(i, j) the Stirling numbers of the second
kind and sum_{k<K} k^(j) = K^(j+1) / (j+1),

    log(-P(kp)) = ell0 + sum_{i>=1} c_i k^i = sum_{j>=0} b_j k^(j),
    ell0 = log(-(p-1)!),   c_i = (-1)^(i+1) p^i sum_{t<p} t^(-i) / i,
    b_0 = ell0,   b_j = sum_{i>=j} c_i S(i, j),
    L(K) = sum_{j>=0} b_j / (j+1) * K (K-1) ... (K-j).

L(K) lies in pZ_p.  A value costs three Horner passes mod p^N: u = L(K)/p
by u = u (K - m) + c, then u K; exp(p u) = sum_j (p^j/j!) u^j; and Q_s(Kp).
_horner_data builds the tables once per (p, N) from integers alone:

- Log terms.  c_i k^i has valuation >= i - v_p(i), so only i < I count,
  I the least index with i - v_p(i) >= N for every i >= I (no i >= 2N
  counts, as v_p(i) < i/2).  The sums w_i = i c_i / p^i come from P's
  coefficients by Newton's identities, with no division; c_i is
  p^(i - v_p(i)) w_i over the unit i / p^v_p(i), and ell0 = log(1 + z),
  z = -(p-1)! - 1, is summed to the same cutoff.  Horner in k turns the c_i
  into the b_j, as k k^(j) = k^(j+1) + j k^(j) (the Stirling recurrence).
- Guard digits.  The only divisions are by i, j < I and by p (j+1), so
  G = max v_p(m) over m <= I digits cover them: the b_j (j >= 1) are exact
  mod p^(N+G), ell0 mod p^N and each b_j / (p (j+1)) mod p^(N-1), all that
  exp(p u) mod p^N depends on.  The divisions are exact: ell0 = 0 mod p by
  Wilson, and for j >= 1 each term of b_j has valuation at least
  min_{i>=j} (i - v_p(i)) >= 1 + v_p(j+1) (odd p; checked by brute force
  for p <= 13, j < 5950), so b_j / (j+1) lies in pZ_p.
- Exp series.  v_p(j!) <= (j-1)/(p-1), so the coefficients p^j/j! are
  p-integral and vanish mod p^N from J on, J the least j with
  j - (j-1)//(p-1) >= N.  Each is p^(j-v) over the unit j!/p^v, with
  v = v_p(j!) = sum_{k>=1} floor(j/p^k) (Legendre).

For N < p, I = J = N and G = 0.  The table prep takes O(p I) operations for
the partial blocks, O(I^2) for the log and J factorials for the exp.
gamma_residues is the one path to a value: it checks the prime, the modulus
and the range once per batch and computes the residues missing from the
value cache in one batch; gamma_residue is its one-residue view.  The value
cache and the tables live for one prime (padic._per_prime).  _as_residue
reduces an argument into Z/p^k; rep(x) is its residue mod p, or p for 0.

Suites.  Both section-3 suites live here and work on integer residues:
check_gamma_properties (Props 3.1-3.3 and 3.8, Cors 3.4-3.5) and
lemma_check_gamma_suite (Lemmas 3.9-3.13).  Each yields rows (claim, params,
k, lhs, rhs), the congruence lhs = rhs mod p^k with each side a PadicValue,
and builds no report: checks._evaluate turns the rows into reports, as it
does for every other claim.  They share one per-x preparation (_points: the
label, the residue a of x mod p^5, rep(x) = a mod p or p and the point's row
params {"x": label, "j": j}, j = 0..p) and one p >= 7 check, and go point by
point at one precision, p^5, as Lemma 3.12 and G_1, G_2 mod p^2 (_g1s, _g2s
at M = 2) need: a point's Gamma_p values come from one gamma_residues batch
per suite, its G_1 and G_2 values (mod p^2 only; Lemmas 3.10-3.11 read them
mod p, and Lemma 3.13 reuses Lemma 3.10's G_1 list) from one call each of
the batch functions _g1s and _g2s, which return residues mod p^M.  The
residues of x + j, 1 - x + j and 1 + j are integer sums, and Lemmas
3.12-3.13 split x, 1 - x by rep(1 - x) = p + 1 - rep(x).  A point's params
are built once: its rows share its {"x": label} and each {"x": label,
"z": z}, and section3_rows, which checks runs, gives both suites one list
of points, so Lemmas 3.9-3.13 and Prop 3.8 share each {"x", "j"} dict.

Every side is read once from an integer: a Gamma_p or G side is one
PadicValue.from_residue of an integer expression in the residues, a rational
side one _ratio_to_padic of an integer (num, den) pair, the harmonic ones from
the scaled prefix tables of combinatorics (L H^(1) and L^2 H^(2), L =
lcm(1..2p-2)).  These are the digits PadicValue arithmetic would fix: a G
value has absolute precision exactly M, a sum the least of its terms' and a
product of G values at least M, so each G side is known mod p^M = p^k; the
Taylor side Gamma_p(x)(1 + z G_1 + (z^2/2) G_2) is known mod p^3, as z G_1
is.  gamma imports only combinatorics and padic; tests/oracles.py keeps the
per-(x, j) Fraction evaluation by PadicValue arithmetic, whose reports the
evaluated rows must equal row for row.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .combinatorics import _scaled_harmonic
from .padic import (
    PadicValue,
    _modulus,
    _per_prime,
    _ratio_to_padic,
    check_prime,
    valuation_of_int,
)

# memo of computed values at one prime, keyed (p, N) -> {residue: unit}
_value_cache: dict[tuple[int, int], dict[int, int]] = _per_prime({})


@_per_prime
@lru_cache(maxsize=None)
def _horner_data(p: int, N: int):
    """Per-(p, N) tables mod p^N, highest degree first: L(K)/p as (m, c) pairs
    of a falling-factorial Horner pass, the exp series in u and the
    partial-block polynomials."""
    pN = p**N
    I = 1 + max((i for i in range(1, 2 * N) if i - valuation_of_int(i, p) < N), default=0)
    J = N
    while J - (J - 1) // (p - 1) < N:
        J += 1
    M = p ** (N + max(valuation_of_int(m, p) for m in range(1, I + 1)))  # p^(N+G)

    def over(num: int, den: int) -> int:
        """num / den mod p^(N+G), for num divisible by p^v_p(den)."""
        v = valuation_of_int(den, p)
        return num // p**v * pow(den // p**v, -1, M) % M

    # prefix polynomials Q_s(y) mod p^(N+G), truncated to degree < I
    cur = [1] + [0] * (I - 1)
    polys = [cur]
    for s in range(1, p):
        nxt, b = [], 0
        for a in cur:
            nxt.append((a * s + b) % M)
            b = a
        polys.append(nxt)
        cur = nxt
    # P(y)/P(0) = 1 + sum g_k y^k; Newton: w_k = k g_k - sum_{0<i<k} g_(k-i) w_i
    e0 = cur[0]
    e0_inv = pow(e0, -1, M)
    g = [c * e0_inv % M for c in cur]
    w = [0] * I
    for k in range(1, I):
        w[k] = (k * g[k] - sum(g[k - i] * w[i] for i in range(1, k))) % M
    # log(-P(kp)) = ell0 + sum_i c_i k^i, ell0 = log(1 + z), c_i = p^i w_i / i
    z, zj, ell0 = (-e0 - 1) % M, 1, 0
    for j in range(1, I):
        zj = zj * z % M
        ell0 += (1 if j % 2 else -1) * over(zj, j)
    c = [ell0] + [over(p**i * w[i], i) for i in range(1, I)]
    # b_j = sum_i c_i S(i, j) by Horner in k, as k * k^(j) = k^(j+1) + j k^(j)
    b = []
    for ci in reversed(c):
        b = [ci] + [(x + j * y) % M for j, (x, y) in enumerate(zip(b, b[1:] + [0]), 1)]
    logpairs = [(j + 1, over(bj, p * (j + 1)) % pN) for j, bj in enumerate(b)]
    expc = []
    for j in range(J):
        v = sum(j // p**k for k in range(1, j.bit_length() + 1))  # v_p(j!), Legendre
        expc.append(p ** (j - v) * pow(math.factorial(j) // p**v, -1, pN) % pN)
    return pN, tuple(logpairs[::-1]), tuple(expc[::-1]), tuple(q[N - 1::-1] for q in polys)


def _gamma_blocks(rs, p: int, N: int) -> list[int]:
    """Gamma_p(r) mod p^N for each residue r by the block formula: three
    Horner passes per value, for the log, the exp and the partial block."""
    pN, logpairs, expc, qpolys = _horner_data(p, N)
    out = []
    for r in rs:
        if r == 0:
            out.append(1)
            continue
        K, s = divmod(r - 1, p)
        u = 0
        for m, c in logpairs:
            u = (u * (K - m) + c) % pN
        u = u * K % pN
        e = 0
        for c in expc:
            e = (e * u + c) % pN
        y = K * p
        q = 0
        for c in qpolys[s]:
            q = (q * y + c) % pN
        v = e * q % pN
        out.append(-v % pN if (r + K) % 2 else v)
    return out


def gamma_residue(r: int, p: int, N: int) -> int:
    """Gamma_p(r) mod p^N as a unit residue, for 0 <= r < p^N."""
    return gamma_residues((r,), p, N)[0]


def gamma_residues(rs, p: int, N: int) -> list[int]:
    """[Gamma_p(r) mod p^N for r in rs], each 0 <= r < p^N, with the prime and
    the modulus checked once and the values missing from the cache computed in
    one batch."""
    check_prime(p)
    pN = _modulus(p, N)
    rs = list(rs)
    if not all(0 <= r < pN for r in rs):
        raise ValueError("residue out of range")
    cache = _value_cache.setdefault((p, N), {})
    missing = [r for r in dict.fromkeys(rs) if r not in cache]
    if missing:
        cache.update(zip(missing, _gamma_blocks(missing, p, N)))
    return [cache[r] for r in rs]


def _as_residue(x, p: int, N: int) -> int:
    """Reduce x (int, Fraction or PadicValue in Z_p) to its residue mod p^N;
    an x outside Z_p is a ValueError that names x and p."""
    pN = _modulus(p, N)
    if isinstance(x, PadicValue):
        if x.prime != p:
            raise ValueError("mixed primes")
        if not x.is_zero and x.valuation < 0:
            raise ValueError(f"a {p}-adic value of valuation {x.valuation} is not in Z_{p}")
        return x.residue(N)
    q = Fraction(x)
    if q.denominator % p == 0:
        raise ValueError(f"{q} is not in Z_{p}: p={p} divides its denominator")
    return q.numerator * pow(q.denominator, -1, pN) % pN


def gamma_p(x, p: int, N: int) -> PadicValue:
    """Gamma_p(x) mod p^N for x in Z_p; always a unit."""
    check_prime(p)  # before x is reduced mod p^N
    u = gamma_residue(_as_residue(x, p, N), p, N)
    return PadicValue(p, 0, u, N)


def rep(x, p: int) -> int:
    """The representative of x in {1, ..., p} congruent to x mod p."""
    check_prime(p)
    return _as_residue(x, p, 1) or p


def _shift(a: int, r: int, g: int, p: int, N: int):
    """Gamma_p(x + j) mod p^N for j = 0..p, from the residue a of x mod p^N or
    finer, r = rep(x) and the residue g of Gamma_p(x): (-1)^j g (x)_j (Prop
    3.8), less the factor x + p - r of the p-divisible step that j > p - r
    reaches.  One running product: each (x)_j is the one before times a + j - 1."""
    pN = p**N
    for j in range(p + 1):
        yield PadicValue.from_residue(-g if j % 2 else g, p, N)
        if j != p - r:
            g = g * (a + j) % pN


def _g1s(rs, p: int, M: int) -> list[int]:
    """[G_1(r) mod p^M for r in rs], for integers r: the forward difference
    quotient (Gamma_p(r+h)/Gamma_p(r) - 1)/h with h = p^M.  The discarded
    terms start at (h/2)G_2(r), so the quotient is exact to M digits by
    integrality of G_2 (valid for p >= 7).  The Gamma_p values are taken mod
    p^(2M+1), so any integer congruent to x mod a higher power stands for x."""
    Ng = 2 * M + 1
    pN, h = p**Ng, p**M
    n = len(rs)
    vals = gamma_residues([(r + s) % pN for s in (0, h) for r in rs], p, Ng)
    return [(gh * pow(g0, -1, pN) - 1) % pN // h % p**M for g0, gh in zip(vals[:n], vals[n:])]


def _g2s(rs, p: int, M: int) -> list[int]:
    """[G_2(r) mod p^M for r in rs], for integers r: the symmetric second
    difference with step h = p^ceil(M/2).  Its leading error
    2 h^2 Gamma_p''''(x)/(4! Gamma_p(x)) is p-integral for p >= 7, giving
    2*ceil(M/2) >= M certified digits.  The Gamma_p values are taken mod
    p^(2ceil(M/2)+M+1)."""
    m = (M + 1) // 2
    Ng = 2 * m + M + 1
    pN, h = p**Ng, p**m
    n = len(rs)
    vals = gamma_residues([(r + s) % pN for s in (0, h, -h) for r in rs], p, Ng)
    return [(gp - 2 * g0 + gm) % pN // (h * h) * pow(g0, -1, pN) % p**M
            for g0, gp, gm in zip(vals[:n], vals[n:2 * n], vals[2 * n:])]


def _certified(p: int, M: int) -> None:
    """Raise unless G_1 and G_2 are certified mod p^M: p a prime >= 7, M >= 1."""
    check_prime(p)
    if p < 7:
        raise ValueError("logarithmic derivatives require p >= 7")
    _modulus(p, M)


def g1(x, p: int, M: int) -> PadicValue:
    """First logarithmic derivative Gamma_p'(x)/Gamma_p(x), certified mod p^M."""
    _certified(p, M)
    return PadicValue.from_residue(_g1s([_as_residue(x, p, 2 * M + 1)], p, M)[0], p, M)


def g2(x, p: int, M: int) -> PadicValue:
    """Second logarithmic derivative Gamma_p''(x)/Gamma_p(x), certified mod p^M."""
    _certified(p, M)
    r = _as_residue(x, p, 2 * ((M + 1) // 2) + M + 1)
    return PadicValue.from_residue(_g2s([r], p, M)[0], p, M)


# ---------------------------------------------------------------------------
# The section-3 suites: the Gamma_p properties (Props 3.1-3.3 and 3.8, Cors
# 3.4-3.5) and the shifted-gamma congruence families (Lemmas 3.9-3.13) over
# full (x, j) grids.  See the module docstring for how they are evaluated.
# ---------------------------------------------------------------------------


def default_x_grid(p: int) -> list[Fraction]:
    """Reduced fractions a/b with 0 < a < b, 2 <= b <= 10, p !| b."""
    out = []
    for b in range(2, 11):
        if b % p == 0:
            continue
        for a in range(1, b):
            if math.gcd(a, b) == 1:
                out.append(Fraction(a, b))
    return out


def _points(p: int, xs=None) -> list[tuple[Fraction, str, int, int, list[dict]]]:
    """(x, label, residue of x mod p^5, rep(x), params) for each x of a suite,
    by default of default_x_grid(p), params[j] being the point's row params
    {"x": label, "j": j} for j = 0..p; both suites read Gamma_p mod p^5 and
    G_1, G_2 mod p^2, so p must be a prime >= 7."""
    _certified(p, 2)
    if xs is None:
        xs = default_x_grid(p)
    pts = []
    for x in map(Fraction, xs):
        label, a = str(x), _as_residue(x, p, 5)
        pts.append((x, label, a, a % p or p, [{"x": label, "j": j} for j in range(p + 1)]))
    return pts


def section3_rows(p: int):
    """The rows of both section-3 suites at p over the default x grid, the
    lemma families then the properties, from one list of points: the
    {"x", "j"} params of a point are built once, for both suites."""
    pts = _points(p)
    yield from _lemma_families(p, pts)
    yield from _properties(p, pts)


def check_gamma_properties(p: int):
    """The rows (claim, params, k, lhs, rhs) of Props 3.1-3.2, Cors 3.4-3.5,
    the Taylor law and the shift formula, over the standard denominator-grid
    of x values, point by point, each side a PadicValue read from an integer."""
    yield from _properties(p, _points(p))


def _properties(p: int, pts):
    """check_gamma_properties at the points pts of _points(p), each Gamma_p mod p^5."""
    N, M, p5 = 4, 2, p**5
    half, val = pow(2, -1, p**3), PadicValue.from_residue
    for x, label, a, r, xj in pts:
        xp = {"x": label}
        # Gamma_p mod p^5 at x + j for j = 0..p, then at 1 - x, x + 2p, x + p^2, x + p^3
        g = gamma_residues([(a + j) % p5 for j in range(p + 1)]
                           + [b % p5 for b in (1 - a, a + 2 * p, a + p**2, a + p**3)], p, 5)
        gx = g[0]
        # functional equation
        yield "prop3.1.1", xp, N, val(g[1], p, N), val(-(a if r < p else 1) * gx, p, N)
        # reflection
        yield ("prop3.1.2", xp, N, val(gx * g[p + 1], p, N),
               _ratio_to_padic((-1) ** r, 1, p, N))
        # continuity: arguments agreeing mod p^n give values agreeing mod p^n
        # (read mod p^(n+2), past the digits the two arguments share)
        for n, gy in zip((1, 2, 3), (g[p], g[p + 3], g[p + 4])):
            yield "prop3.1.3", {"x": label, "n": n}, n, val(gy, p, n + 2), val(gx, p, n + 2)
        # shift formula against direct evaluation
        for j, shifted in enumerate(_shift(a, r, gx, p, N)):
            yield "prop3.8", xj[j], N, shifted, val(g[j], p, N)
        # G_1 and G_2 at x, x + 1, 1 - x, x + p and x + 2p
        rs = [a, a + 1, 1 - a, a + p, a + 2 * p]
        u1, v1, w1, *z1 = _g1s(rs, p, M)
        u2, v2, w2, *z2 = _g2s(rs, p, M)
        unit = x.numerator % p != 0
        # G1 step
        rhs = _ratio_to_padic(x.denominator, x.numerator, p, M) if unit \
            else PadicValue.zero(p, M)
        yield "prop3.2.1", xp, M, val(v1 - u1, p, M), rhs
        # (G1^2 - G2) step
        rhs = _ratio_to_padic(x.denominator**2, x.numerator**2, p, M) if unit \
            else PadicValue.zero(p, M)
        yield "prop3.2.2", xp, M, val(v1 * v1 - v2 - u1 * u1 + u2, p, M), rhs
        # symmetry and its derivative
        yield "prop3.2.3", xp, M, val(u1, p, M), val(w1, p, M)
        yield "prop3.2.4", xp, M, val(u1 * u1 - u2, p, M), val(w2 - w1 * w1, p, M)
        for t, zx1, zx2, gz in zip((1, 2), z1, z2, (g[p], g[p + 2])):
            z = t * p
            xz = {"x": label, "z": str(z)}
            for which, zx, u in (("g1", zx1, u1), ("g2", zx2, u2)):
                yield ("cor3.4", {"x": label, "z": str(z), "which": which}, 1, val(zx, p, M),
                       val(u, p, M))
            yield ("cor3.5", xz, 2, val(u1, p, M),
                   val(zx1 + z * (zx1 * zx1 - zx2), p, M))
            # Taylor law mod p^3
            yield ("prop3.3.2", xz, 3, val(gz, p, N),
                   val(gx * (1 + z * u1 + z * z * half * u2), p, 3))


def _factorial_rhs(r: int, j: int, p: int) -> tuple[int, int]:
    """Lemma 3.9's (rep(x)+j-1)! (-1)^(rep(x)+j) delta as (num, den), with
    delta = 1 below the p-divisible step and 1/p at or past it."""
    return (-1) ** (r + j) * math.factorial(r + j - 1), p if j > p - r else 1


def _harmonic_diff(table, a: int, b: int, pole: int) -> tuple[int, int]:
    """H_a - H_b - 1/pole as (num, den), from a table (S, t) of
    _scaled_harmonic; pole 0 stands for no pole term."""
    S, t = table
    if not pole:
        return t[a] - t[b], S
    return (t[a] - t[b]) * pole - S, S * pole


def lemma_check_gamma_suite(p: int, xs=None):
    """The five shifted-gamma congruence families over full (x, j) grids: one
    row (claim, {"x", "j"}, k, lhs, rhs) per (family, x, j), point by point
    and family by family at each point, each side a PadicValue read once from
    an integer:

    - lemma3.9: Gamma_p(x+j) = (rep(x)+j-1)! (-1)^(rep(x)+j) delta (mod p)
      for j = 0..p, delta = 1 below the p-divisible step and 1/p from it on;
    - lemma3.10: G_1(x+j) - G_1(1+j) = H^(1)_(rep(x)-1+j) - H^(1)_j - delta
      (mod p) for j < p, delta = 0 or 1/p;
    - lemma3.11: the second-order version, (G_1^2 - G_2)(x+j) -
      (G_1^2 - G_2)(1+j) against H^(2) sums and a 1/p^2 pole (mod p);
    - lemma3.12: Gamma_p(x+j)Gamma_p(1-x+j) / (Gamma_p(x)Gamma_p(1-x) j!^2)
      against the binomial-coefficient form (mod p^2) for j < rep(m1);
    - lemma3.13: G_1(x+j) + G_1(1-x+j) - 2 G_1(1+j) against harmonic sums
      (mod p^2) for j < rep(m1).
    """
    yield from _lemma_families(p, _points(p, xs))


def _lemma_families(p: int, pts):
    """lemma_check_gamma_suite at the points pts of _points(p, xs), each Gamma_p mod p^5."""
    H1, H2 = _scaled_harmonic(2 * p - 2, 1), _scaled_harmonic(2 * p - 2, 2)
    S1, t1 = H1
    p5, val = p**5, PadicValue.from_residue
    # G_1 and G_2 mod p^2 at 1 + j; Lemmas 3.10-3.11 read them mod p
    ones = range(1, p + 1)
    lc, lc2 = _g1s(ones, p, 2), _g2s(ones, p, 2)
    for x, _, a, r, xj in pts:
        # r1 - m1 as (dn, dd), r1, r2: m1 of x, 1 - x has the larger rep, x on a tie
        r1 = max(r, p + 1 - r)
        r2 = p + 1 - r1
        m1 = x if r1 == r else 1 - x
        dn, dd = r1 * m1.denominator - m1.numerator, m1.denominator
        g = gamma_residues([(a + j) % p5 for j in range(p + 1)]
                           + [(1 - a + j) % p5 for j in range(r1)], p, 5)
        for j in range(p + 1):
            yield ("lemma3.9", xj[j], 1, val(g[j], p, 2),
                   _ratio_to_padic(*_factorial_rhs(r, j, p), p, 3))
        # G_1 mod p^2 at x + j for j < p, then at 1 - x + j for j < r1; G_2 at x + j
        la = _g1s([a + j for j in range(p)] + [1 - a + j for j in range(r1)], p, 2)
        la2 = _g2s([a + j for j in range(p)], p, 2)
        for j in range(p):
            rhs = _harmonic_diff(H1, r - 1 + j, j, p if j > p - r else 0)
            yield ("lemma3.10", xj[j], 1, val(la[j] - lc[j], p, 1),
                   _ratio_to_padic(*rhs, p, 3))
        for j in range(p):
            lhs = la[j] * la[j] - la2[j] - lc[j] * lc[j] + lc2[j]
            rhs = _harmonic_diff(H2, r - 1 + j, j, p**2 if j > p - r else 0)
            yield ("lemma3.11", xj[j], 1, val(lhs, p, 1),
                   _ratio_to_padic(*rhs, p, 4))
        for j in range(r1):
            # every factor is a unit for j < p
            u = g[j] * g[p + 1 + j] * pow(g[0] * g[p + 1] * math.factorial(j) ** 2, -1, p5)
            # alpha (1 - (r1 - m1)(H_(r1-1+j) - H_(r2-1+j) - beta)) times the
            # binomials, with alpha = beta = 1/p from j = r2 on
            pole = p if j >= r2 else 0
            hn, hd = _harmonic_diff(H1, r1 - 1 + j, r2 - 1 + j, pole)
            s = (-1) ** j * math.comb(r1 - 1 + j, j) * math.comb(r1 - 1, j)
            yield ("lemma3.12", xj[j], 2, val(u, p, 5),
                   _ratio_to_padic(s * (dd * hd - dn * hn), dd * hd * (pole or 1), p, 5))
        for j in range(r1):
            lhs = la[j] + la[p + j] - 2 * lc[j]
            # H_(r1-1+j) + H_(r1-1-j) - 2H_j - alpha
            #   + (r1 - m1)(H^(2)_(r1-1+j) - H^(2)_(r2-1+j) - beta),
            # with alpha = 1/p and beta = 1/p^2 from j = r2 on
            an, ad = t1[r1 - 1 + j] + t1[r1 - 1 - j] - 2 * t1[j], S1
            if j >= r2:
                an, ad = an * p - S1, S1 * p
            bn, bd = _harmonic_diff(H2, r1 - 1 + j, r2 - 1 + j, p**2 if j >= r2 else 0)
            yield ("lemma3.13", xj[j], 2, val(lhs, p, 2),
                   _ratio_to_padic(an * dd * bd + dn * bn * ad, ad * dd * bd, p, 5))
