"""The value types: field-wise ==, hash and repr, immutability of the frozen
ones, and the positional and keyword constructors the callers use."""

import pickle
from fractions import Fraction

import pytest

from padichyp.characters import Character
from padichyp.checks import Claim, RunConfig
from padichyp.gfunction import GArguments
from padichyp.hyp import HypParams
from padichyp.padic import PadicValue
from padichyp.qseries import QSeries
from padichyp.report import CongruenceReport

F = Fraction


def _no_rows(task, args):
    return []


def _always(p, args):
    return True


# name: (build, a keyword build of the same value, a value differing in one
# field, the repr of the first, whether it is frozen)
VALUES = {
    "PadicValue": (
        lambda: PadicValue(7, 1, 3, 2),
        lambda: PadicValue(prime=7, valuation=1, unit=3, rel_prec=2),
        lambda: PadicValue(7, 1, 4, 2),
        "PadicValue(prime=7, valuation=1, unit=3, rel_prec=2)", True),
    "Character": (
        lambda: Character(7, 8),  # the exponent is stored mod p - 1
        lambda: Character(prime=7, exponent=2),
        lambda: Character(7, 3),
        "Character(prime=7, exponent=2)", True),
    "GArguments": (
        lambda: GArguments(7, ("1/2", F(1, 2)), 3),  # args become Fractions
        lambda: GArguments(prime=7, args=[F(1, 2)] * 2, precision=3),
        lambda: GArguments(7, (F(1, 2), F(1, 2)), 4),
        "GArguments(prime=7, args=(Fraction(1, 2), Fraction(1, 2)), precision=3)", True),
    "HypParams": (
        lambda: HypParams([F(1, 2)], [1], 1, 3),
        lambda: HypParams(top=(F(1, 2),), bottom=(F(1),), z=F(1), truncation=3),
        lambda: HypParams([F(1, 2)], [1], 1, 4),
        "HypParams(top=(Fraction(1, 2),), bottom=(Fraction(1, 1),), z=Fraction(1, 1), "
        "truncation=3)", True),
    "Claim": (
        lambda: Claim("c", (), (), (3, 7), None, _no_rows, admissible=_always),
        lambda: Claim(id="c", accepts=(), grid=(), primes=(3, 7), mod=None, rows=_no_rows,
                      admissible=_always, prime_free=False),
        lambda: Claim("c", (), (), (3, 7), 2, _no_rows, admissible=_always),
        None, True),
    "CongruenceReport": (
        lambda: CongruenceReport("c", 7, {"d": 3}, 2, 0, 1, None, 0, 0, False),
        lambda: CongruenceReport(claim="c", p=7, params={"d": 3}, mod_power=2, lhs_val=0,
                                 lhs_unit=1, rhs_val=None, rhs_unit=0, diff_valuation=0,
                                 passed=False),
        lambda: CongruenceReport("c", 7, {"d": 3}, 2, 0, 1, None, 0, 0, True),
        "CongruenceReport(claim='c', p=7, params={'d': 3}, mod_power=2, lhs_val=0, "
        "lhs_unit=1, rhs_val=None, rhs_unit=0, diff_valuation=0, passed=False)", False),
    "QSeries": (
        lambda: QSeries(1, [1, -8]),  # the truncation defaults to the last power given
        lambda: QSeries(offset=1, coeffs=[1, -8], truncation=2),
        lambda: QSeries(1, [1, -7]),
        "QSeries(offset=1, coeffs=[1, -8], truncation=2)", False),
    "RunConfig": (
        lambda: RunConfig("thm2.4", 7, 13),
        lambda: RunConfig(claim="thm2.4", p_min=7, p_max=13, mod_power=None, params={},
                          jobs=1, seed=RunConfig().seed),
        lambda: RunConfig("thm2.4", 7, 13, jobs=2),
        "RunConfig(claim='thm2.4', p_min=7, p_max=13, mod_power=None, params={}, jobs=1, "
        "seed=20260810)", False),
}


@pytest.mark.parametrize("name", list(VALUES))
def test_value_types_compare_hash_and_print_by_field(name):
    build, by_keyword, other, text, frozen = VALUES[name]
    a = build()
    assert a == build() == by_keyword() and not a != build()
    assert a != other() and other() != a
    assert a != tuple(getattr(a, f) for f in type(a).__slots__)  # only its own class
    if text is not None:
        assert repr(a) == text
    if name != "Claim":  # a claim holds lambdas; no worker is sent one
        assert pickle.loads(pickle.dumps(a)) == a  # how a --jobs 2 pool sends values
    field = type(a).__slots__[0]
    if frozen:
        assert hash(a) == hash(build())
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(a, field, getattr(a, field))
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(a, field)
        assert a == build()
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
        setattr(a, field, getattr(other(), field))
    with pytest.raises(AttributeError):
        a.not_a_field = 1  # __slots__: no instance dict


def test_report_equality_is_the_oracle_comparison():
    """The oracle tests compare report lists with ==: every field counts,
    params by value."""
    row = ("c", 7, {"d": 3}, 2, 0, 1, None, 0, 0, False)
    reports = [CongruenceReport(*row), CongruenceReport(*row[:2], {"d": 3}, *row[3:])]
    assert reports == [CongruenceReport(*row)] * 2
    for i, changed in enumerate(["d", 11, {"d": 4}, 3, 1, 2, 0, 1, None, True]):
        assert CongruenceReport(*row[:i], changed, *row[i + 1:]) != reports[0], i

