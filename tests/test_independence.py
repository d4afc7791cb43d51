"""What makes an equal record worth trusting, beyond the two pipelines
agreeing with each other.

A fault in code that both pipelines share could make them agree while
both are wrong. Each such shared piece gets a test here showing that a
fault in it reaches the comparison. And a closed form that shares no
code with either pipeline gives every psi-only record a third value.
"""
import math
from fractions import Fraction

import pytest

from gdr import bamboo, hain
from gdr.cli import verify
from gdr.core import PsiKappaMonomial, kappa_splits
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
        d1 = PsiKappaMonomial.parse(record.omega).d1
        expected = Fraction(math.comb(g - 1, d1), 24**g * math.factorial(g))
        assert record.bamboo == record.dr == expected, record.omega
