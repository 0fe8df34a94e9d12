"""Harmonic sums, Apery numbers, the rising-factorial lemma sums and the
exact binomial/harmonic identities."""

import itertools
import math
import random
from fractions import Fraction

import pytest

import oracles
from padichyp import checks, combinatorics, padic
from padichyp.combinatorics import (
    _scaled_harmonic,
    apery,
    bin_harmonic_id1,
    bin_harmonic_id2,
    lemma_PQ_expected,
    lemma_PQ_sums,
)
from padichyp.checks import DEFAULT_SEED, _pq_tuples
from padichyp.padic import congruent_mod, rational_to_padic


def test_harmonic_values():
    for harmonic in (oracles.harmonic, _table_harmonic):
        assert harmonic(0, 1) == 0
        assert harmonic(0, 5) == 0
        assert harmonic(3, 1) == Fraction(11, 6)
        assert harmonic(2, 2) == Fraction(5, 4)


def test_harmonic_prefix_property():
    for i in (1, 2, 3):
        for n in range(1, 40):
            assert oracles.harmonic(n, i) - oracles.harmonic(n - 1, i) == Fraction(1, n**i)
            assert _table_harmonic(n, i) == oracles.harmonic(n, i)


def _table_harmonic(n, i):
    """H^(i)_n read from the scaled prefix table of the smallest top that holds it."""
    S, t = _scaled_harmonic(n, i)
    return Fraction(t[n], S)


def test_scaled_harmonic_tables_are_shared_and_immutable():
    for top, i in [(0, 1), (20, 1), (20, 2), (37, 3)]:
        S, t = _scaled_harmonic(top, i)
        assert isinstance(t, tuple) and len(t) == top + 1
        assert S == math.lcm(*range(1, top + 1)) ** i
        assert _scaled_harmonic(top, i)[1] is t
        assert [Fraction(v, S) for v in t] == [oracles.harmonic(n, i) for n in range(top + 1)]


def test_apery_values():
    assert [apery(n) for n in range(5)] == [1, 5, 73, 1445, 33001]


def _leading_reports(p, n):
    """The reports of the first n rows of a lemmas task at p.  Its 2(p - 1)
    power sums come first, then lemma P and Q; the Gamma_p suites after them,
    which need p >= 7, are not reached."""
    return checks._evaluate(p, itertools.islice(checks._lemma_rows(p, DEFAULT_SEED), n))


def _identity_reports(claim):
    """The reports of one binomial-harmonic identity, from the rows of the
    prime-free lemmas task."""
    return [r for r in checks._evaluate(None, checks._lemma_rows(None, DEFAULT_SEED))
            if r.claim == claim]


def test_power_sums():
    def passed(p):
        rows = _leading_reports(p, 2 * (p - 1))
        assert {r.claim for r in rows} == {"eq3.2"}
        return {r.params["k"]: r.passed for r in rows}

    assert passed(5)[4]   # divisible case: sum = -1
    assert passed(5)[3]   # generic case: sum = 0
    assert passed(3)[2]   # 1 + 4 = 5 = -1 mod 3
    for p in (7, 11, 13):
        rows = passed(p)
        assert sorted(rows) == list(range(1, 2 * (p - 1) + 1))
        assert all(rows.values()), p


def _brute_pq(a, p, second_order):
    """From-scratch evaluation: raw loops, no caches, no recurrences."""
    total = Fraction(0)
    for j in range(p):
        prod = Fraction(1)
        for ai in a:
            f = Fraction(1)
            for t in range(ai):
                f *= j + 1 + t
            prod *= f
        h1 = Fraction(0)
        h2 = Fraction(0)
        for ai in a:
            h1 += sum(Fraction(1, u) for u in range(j + 1, ai + j + 1))
            h2 += sum(Fraction(1, u**2) for u in range(j + 1, ai + j + 1))
        if second_order:
            total += prod * (j * h1 + Fraction(j * j, 2) * (h1 * h1 - h2))
        else:
            total += prod * (1 + j * h1)
    return total


def test_first_order_sum_interior_case():
    v, _ = lemma_PQ_sums((1,), 5)
    assert congruent_mod(v, rational_to_padic(0, 5, 2), 1)


def test_boundary_values():
    p = 5
    vP, vQ = lemma_PQ_sums((4, 4), p)
    assert lemma_PQ_expected((4, 4), p) == (1, -1)
    assert congruent_mod(vP, rational_to_padic(1, p, 2), 1)
    assert congruent_mod(vQ, rational_to_padic(-1, p, 2), 1)


def test_random_tuples_match_expectation_and_brute_force():
    rng = random.Random(99)
    for p in (5, 7, 11):
        for _ in range(12):
            n = rng.randint(1, 5)
            a = []
            budget = 2 * (p - 1)
            for i in range(n):
                hi = budget - (n - i - 1)
                if hi < 1:
                    break
                v = rng.randint(1, hi)
                a.append(v)
                budget -= v
            a = tuple(a) or (1,)
            eP, eQ = lemma_PQ_expected(a, p)
            vP, vQ = lemma_PQ_sums(a, p)
            assert congruent_mod(vP, rational_to_padic(eP, p, 2), 1), (p, a)
            assert congruent_mod(vQ, rational_to_padic(eQ, p, 2), 1), (p, a)
            # independent evaluation route
            assert congruent_mod(
                rational_to_padic(_brute_pq(a, p, False), p, 2), vP, 1)
            assert congruent_mod(
                rational_to_padic(_brute_pq(a, p, True), p, 2), vQ, 1)


def test_tuple_sum_out_of_range_rejected():
    with pytest.raises(ValueError):
        lemma_PQ_sums((5, 4), 5)
    with pytest.raises(ValueError):
        lemma_PQ_sums((0,), 5)


def test_identity_one_by_hand_at_1_1():
    # k=0 term is 1; k=1 term 4*[1 + (3/2 + 0 + 3/2 + 0 - 4)] = 0; rhs 1
    assert bin_harmonic_id1(1, 1) == 0


def test_identity_one_small_grid():
    for m in range(1, 13):
        for n in range(1, m + 1):
            assert bin_harmonic_id1(m, n) == 0, (m, n)


def test_identity_one_requires_m_at_least_n():
    with pytest.raises(ValueError):
        bin_harmonic_id1(3, 4)


def _id2(l, m, n, c1, c2):
    """The LHS of the second identity at (c1, c2), from the kernel's linear form."""
    x, y = bin_harmonic_id2(l, m, n)
    return c1 * x + c2 * y


def test_identity_two_example_and_small_grid():
    assert bin_harmonic_id2(5, 3, 3) == (0, 0)
    for l in range(2, 11):
        for m in range((l + 1) // 2, l):
            for n in range((l + 1) // 2, m + 1):
                if 2 * n < l:
                    continue
                for c1, c2 in [(1, 0), (0, 1), (Fraction(2, 3), Fraction(-1, 5))]:
                    assert _id2(l, m, n, c1, c2) == 0, (l, m, n)


def test_identity_two_linearity_makes_basis_sufficient():
    l, m, n = 9, 7, 5
    c1, c2 = Fraction(3, 7), Fraction(-5, 2)
    x, y = bin_harmonic_id2(l, m, n)
    assert (x, y) == (oracles.bin_harmonic_id2(l, m, n, 1, 0),
                      oracles.bin_harmonic_id2(l, m, n, 0, 1))
    assert oracles.bin_harmonic_id2(l, m, n, c1, c2) == c1 * x + c2 * y == 0


def test_identity_two_precondition():
    with pytest.raises(ValueError):
        bin_harmonic_id2(10, 9, 4)  # n < l/2


# -- the integer kernels against the Fraction oracles, on the acceptance grids


def test_identity_one_matches_oracle_on_the_acceptance_grid():
    for m in range(1, 31):
        for n in range(1, m + 1):
            assert bin_harmonic_id1(m, n) == oracles.bin_harmonic_id1(m, n) == 0, (m, n)


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 7])
def test_identity_two_matches_oracle_on_the_acceptance_grid(seed):
    rng = random.Random(seed)  # the five (c1, c2) pairs of the prime-free lemmas task
    extras = [(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(3)]
    pairs = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))] + extras
    for l in range(2, 21):
        for m in range((l + 1) // 2, l):
            for n in range((l + 1) // 2, m + 1):
                if 2 * n < l:
                    continue
                for c1, c2 in pairs:
                    assert (_id2(l, m, n, c1, c2)
                            == oracles.bin_harmonic_id2(l, m, n, c1, c2) == 0), (l, m, n)


@pytest.mark.parametrize("p", [7, 11, 13])
def test_lemma_sums_match_oracle_on_the_acceptance_tuples(p):
    for a in _pq_tuples(p, DEFAULT_SEED):
        assert lemma_PQ_sums(a, p) == (oracles.pq_sum(a, p, False),
                                       oracles.pq_sum(a, p, True)), a


def test_lemma_sums_share_one_harmonic_table_per_order_and_prime():
    # every tuple at p reads the tables to 3(p - 1); a new prime drops them
    _scaled_harmonic.cache_clear()
    for a in _pq_tuples(61, DEFAULT_SEED):
        lemma_PQ_sums(a, 61)
    assert _scaled_harmonic.cache_info().currsize == 2
    checks.run_task(checks.Task("lemmas", {}, (), 61, None, DEFAULT_SEED, 61))
    assert _scaled_harmonic.cache_info().currsize == 4  # and the suites' tables to 2(p - 1)
    padic._at_prime(67)
    assert _scaled_harmonic.cache_info().currsize == 0


def test_lemma_sums_step_their_rising_factorials_without_math_perm(monkeypatch):
    # (j+2)_a from (j+1)_a by one exact division, not math.perm per j and entry
    calls = []
    perm = math.perm
    monkeypatch.setattr(math, "perm", lambda *args: calls.append(args) or perm(*args))
    got = {(p, a): lemma_PQ_sums(a, p) for p in (7, 61) for a in _pq_tuples(p, DEFAULT_SEED)[:12]}
    assert calls == []
    assert got == {(p, a): (oracles.pq_sum(a, p, False), oracles.pq_sum(a, p, True))
                   for p, a in got}


# -- negative controls: each check fails when its claim is perturbed


def test_identity_one_check_fails_with_the_rhs_negated(monkeypatch):
    rows = _identity_reports("binharm.id1")
    assert len(rows) == 465 and all(r.passed for r in rows)
    monkeypatch.setattr(combinatorics, "_id1_rhs", lambda m, n: -(-1) ** (m + n))
    for m, n in [(1, 1), (7, 3), (30, 30)]:
        assert bin_harmonic_id1(m, n) == 2 * (-1) ** (m + n)
        assert oracles.id1_lhs(m, n) + (-1) ** (m + n) == 2 * (-1) ** (m + n)
    rows = _identity_reports("binharm.id1")
    assert len(rows) == 465 and not any(r.passed for r in rows)


def test_identity_two_rows_run_the_kernel_once_per_triple(monkeypatch):
    calls = []
    kernel = combinatorics.bin_harmonic_id2

    def counted(l, m, n):
        calls.append((l, m, n))
        return kernel(l, m, n)

    monkeypatch.setattr(combinatorics, "bin_harmonic_id2", counted)
    rows = [r for r in checks._lemma_rows(None, DEFAULT_SEED) if r[0] == "binharm.id2"]
    assert len(calls) == len(set(calls)) == 385 and len(rows) == 5 * 385


def test_identity_two_check_fails_with_a_doubled_tail_term(monkeypatch):
    rows = _identity_reports("binharm.id2")
    assert rows and all(r.passed for r in rows)
    tail = combinatorics._tail

    def doubled(m, n):
        D, terms = tail(m, n)
        return D, [(k, 2 * t if k == n + 1 else t) for k, t in terms]

    monkeypatch.setattr(combinatorics, "_tail", doubled)
    new = _identity_reports("binharm.id2")
    assert [r.params for r in new] == [r.params for r in rows]
    H = oracles.harmonic
    for r in new:
        l, m, n = r.params["l"], r.params["m"], r.params["n"]
        c1, c2 = Fraction(r.params["c1"]), Fraction(r.params["c2"])
        # the k = n + 1 term (nonzero, present when m > n) times its harmonic factor
        factor = c1 * (H(2 * n + 1) - H(l)) + c2 * (H(m + n + 1) - H(l + n - m))
        assert r.passed == (m == n or factor == 0), r.params
        if not r.passed:
            assert r.diff_valuation is not None and r.diff_valuation < r.mod_power
    assert sum(not r.passed for r in new) > len(new) // 2


def test_identity_two_row_values_are_the_linear_form_over_one_denominator(monkeypatch):
    # each row carries c1 X + c2 Y times the positive denominator of c1 c2 X Y,
    # one integer; with a doubled tail term most of them are nonzero
    tail = combinatorics._tail
    monkeypatch.setattr(combinatorics, "_tail", lambda m, n: (
        tail(m, n)[0], [(k, 2 * t) for k, t in tail(m, n)[1]]))
    rows = [r for r in checks._lemma_rows(None, DEFAULT_SEED) if r[0] == "binharm.id2"]
    for _, q, _, value, _ in rows:
        x, y = combinatorics.bin_harmonic_id2(q["l"], q["m"], q["n"])
        c1, c2 = Fraction(q["c1"]), Fraction(q["c2"])
        den = c1.denominator * c2.denominator * x.denominator * y.denominator
        assert type(value) is int and value == (c1 * x + c2 * y) * den, q
    assert sum(value != 0 for *_, value, _ in rows) > len(rows) // 2


@pytest.mark.parametrize("p", [7, 11, 13])
def test_lemma_pq_check_fails_against_shifted_expected_values(monkeypatch, p):
    def pq_reports(p):
        return [r for r in _leading_reports(p, 2 * (p - 1) + 200) if r.claim != "eq3.2"]

    rows = pq_reports(p)
    assert len(rows) == 200 and {r.claim for r in rows} == {"lemmaP", "lemmaQ"}
    assert all(r.passed for r in rows)
    # the sums are not their expected values mod p^2: a kernel returning the
    # expected value would show no difference of valuation exactly 1
    for claim in ("lemmaP", "lemmaQ"):
        assert any(r.diff_valuation == 1 for r in rows if r.claim == claim)
    expected = combinatorics.lemma_PQ_expected
    monkeypatch.setattr(checks.comb, "lemma_PQ_expected",
                        lambda a, q: tuple(e + 1 for e in expected(a, q)))
    rows = pq_reports(p)
    assert len(rows) == 200 and not any(r.passed for r in rows)
