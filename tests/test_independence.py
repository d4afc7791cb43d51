"""What makes an equal record worth trusting, beyond the two pipelines
agreeing with each other.

A fault in code that both pipelines share could make them agree while
both are wrong. Each such shared piece gets a test here showing that a
fault in it reaches the comparison. And closed forms that share no code
with either pipeline give every psi-only record, and every record with
one kappa factor, a third value.
"""
import math
from fractions import Fraction

import pytest

from gdr import bamboo, hain
from gdr.cli import verify
from gdr.core import ChainVertex, kappa_splits
from memos import clear_memos


def _unit_multiplicity_splits(kappa):
    """kappa_splits with every multiplicity set to 1."""
    return tuple((1, share, rest, degree) for _, share, rest, degree in kappa_splits(kappa))


@pytest.mark.parametrize("sides", [("bamboo",), ("hain",), ("bamboo", "hain")], ids="+".join)
def test_kappa_splits_fault_reaches_the_comparison(monkeypatch, sides):
    # both chain programs place a vertex's kappa share through kappa_splits;
    # they use the multiplicity differently, so a wrong one makes them differ
    modules = {"bamboo": bamboo, "hain": hain}
    for side in sides:
        monkeypatch.setattr(modules[side], "kappa_splits", _unit_multiplicity_splits)
    clear_memos()
    try:
        report = verify(4, include_kappa=True)
    finally:
        clear_memos()
    assert report.aborted == [] and not report.passed
    assert [r.omega for r in report.records if not r.equal] == ["psi1 kappa1^2", "psi2 kappa1^2", "kappa1^3"]
    assert len(report.records) == 14


@pytest.mark.parametrize("g", range(1, 11))
def test_psi_records_match_the_closed_form(g):
    # int lambda_g DR_g(a,-a) psi_1^d psi_2^(g-1-d), coefficient of a^(2g):
    # C(g-1, d) / (24^g g!)
    report = verify(g)
    assert len(report.records) == g
    for record in report.records:
        d1 = ChainVertex.parse(g, record.omega).left_psi
        expected = Fraction(math.comb(g - 1, d1), 24**g * math.factorial(g))
        assert record.bamboo == record.dr == expected, record.omega


def single_factor_value(g, d1, d2, e):
    """int lambda_g DR_g(a,-a) psi_1^d1 psi_2^d2 kappa_(e-1), coefficient of
    a^(2g), with d1 + d2 + e = g: pulled back along forgetting a point of
    weight 0, kappa_(e-1) is psi_3^e, and the value is
    g!/(d1! d2! e!) * 6^e e!/(2e+1)!! / (24^g g!)."""
    f = math.factorial
    double_factorial = f(2 * e + 1) // (2**e * f(e))  # (2e+1)!!
    return Fraction(f(g) * 6**e * f(e), f(d1) * f(d2) * f(e) * double_factorial * 24**g * f(g))


def test_single_factor_records_match_the_closed_form():
    # every record psi_1^d1 psi_2^d2 kappa_b of g = 2..10, one kappa factor
    # of exponent 1, on both sides: g(g-1)/2 of them at each genus. A block
    # of kappa._extension with one factor has coefficient 1, so this law
    # cannot see a fault in the multi-factor coefficients.
    checked = 0
    for g in range(2, 11):
        for record in verify(g, include_kappa=True).records:
            vertex = ChainVertex.parse(g, record.omega)
            if len(vertex.kappa) == 1 and vertex.kappa[0][1] == 1:
                e = vertex.kappa[0][0] + 1
                expected = single_factor_value(g, vertex.left_psi, vertex.right_psi, e)
                assert record.bamboo == record.dr == expected, (g, record.omega)
                checked += 1
    assert checked == sum(g * (g - 1) // 2 for g in range(2, 11)) == 165
