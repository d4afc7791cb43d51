"""What makes an equal record worth trusting, beyond the two pipelines
agreeing with each other.

A fault in code that both pipelines share could make them agree while
both are wrong. Each such shared piece gets a test here showing that a
fault in it reaches the comparison: the kappa splits, which the bamboo
side's kappa expansion reads as well as both chain programs, and the
kappa degree. The kappa expansion is not shared: the bamboo side reads
it and the divisor side its own capped-vertex table, and a test here
shows that a wrong expansion coefficient makes the two sides differ. And
closed forms that share no code with either pipeline give every psi-only
record, and every record with one kappa factor, a third value.

Not every record tests much: a boundary record is 0 on both sides by
degree, or the product of two lower-genus monomial records, and a test
here pins which.
"""
import inspect
import math
import re
from fractions import Fraction

import pytest

import gdr
from gdr import bamboo, hain, kappa
from gdr.cli import verify
from gdr.core import ChainVertex, kappa_degree, kappa_splits
from memos import clear_memos


def unequal_at_genus(g, monkeypatch, modules, name, fault):
    """The omegas of the unequal records of verify(g, include_kappa=True)
    with `name` bound to `fault` in each of `modules`, from cold memos, all
    of them cleared again after the run, and the number of records. The
    report must fail, with none aborted."""
    for module in modules:
        monkeypatch.setattr(module, name, fault)
    clear_memos()
    try:
        report = verify(g, include_kappa=True)
    finally:
        clear_memos()
    assert report.aborted == [] and not report.passed
    return [r.omega for r in report.records if not r.equal], len(report.records)


# the two chain programs, and the bamboo side's kappa expansion
SIDES = {"bamboo": bamboo, "hain": hain, "kappa": kappa}


def _unit_multiplicity_splits(kappa):
    """kappa_splits with every multiplicity set to 1."""
    return tuple((1, share, rest, degree) for _, share, rest, degree in kappa_splits(kappa))


@pytest.mark.parametrize(
    "sides", [("bamboo",), ("hain",), ("bamboo", "hain"), ("kappa",), ("bamboo", "hain", "kappa")], ids="+".join
)
def test_kappa_splits_fault_reaches_the_comparison(monkeypatch, sides):
    # both chain programs place a vertex's kappa share through kappa_splits,
    # and the bamboo side's kappa expansion merges each sub-multiset through
    # it too; they use the multiplicity differently, so a wrong one makes
    # the sides differ, in the expansion alone as well
    modules = [SIDES[side] for side in sides]
    unequal = unequal_at_genus(4, monkeypatch, modules, "kappa_splits", _unit_multiplicity_splits)
    if sides == ("kappa",):
        assert unequal == (["kappa1^3"], 14)
    else:
        assert unequal == (["psi1 kappa1^2", "psi2 kappa1^2", "kappa1^3"], 14)


def _degree_off_by_one(kappa):
    """kappa_degree, one too high for a map with an index >= 2."""
    return kappa_degree(kappa) + any(index >= 2 for index, _ in kappa)


@pytest.mark.parametrize("sides", [("bamboo",), ("hain",), ("bamboo", "hain")], ids="+".join)
def test_kappa_degree_fault_reaches_the_comparison(monkeypatch, sides):
    # both chain programs read a vertex's kappa degree through kappa_degree
    # to place its legs; the bamboo side's dimension is 3g - 1 and the
    # divisor side's 2g - 1, so a wrong degree makes them differ
    modules = [SIDES[side] for side in sides]
    unequal = unequal_at_genus(4, monkeypatch, modules, "kappa_degree", _degree_off_by_one)
    assert unequal == (["psi1 kappa2", "psi2 kappa2", "kappa1 kappa2", "kappa3"], 14)


_EXTENSION_SOURCE = inspect.getsource(kappa._extension)


def extension_mutant(old, new):
    """kappa._extension with `old` replaced by `new` in its source, compiled
    in a copy of the gdr.kappa namespace, so that it recurses into itself
    and keeps a memo of its own."""
    assert _EXTENSION_SOURCE.count(old) == 1
    namespace = dict(vars(kappa))
    exec(_EXTENSION_SOURCE.replace(old, new), namespace)
    return namespace["_extension"]


# the sign (-1)^|S| of a merge dropped, and the weight 2^|S| in its place
EXTENSION_MUTANTS = {
    "sign-dropped": ("(-1) ** sum(t for _, t in share) * ", ""),
    "weight-2^|S|": ("(-1) ** ", "2 ** "),
}


@pytest.mark.parametrize(
    "g,mutant",
    [pytest.param(4, m, id=name) for name, m in EXTENSION_MUTANTS.items()]
    + [pytest.param(12, m, id=f"{name}-g12", marks=pytest.mark.deep) for name, m in EXTENSION_MUTANTS.items()],
)
def test_kappa_expansion_fault_reaches_the_comparison(monkeypatch, g, mutant):
    # the bamboo side expands each vertex's kappa factors into psi
    # insertions; the divisor side reads its own capped-vertex table, so a
    # wrong coefficient moves one side only
    modules = [module for module in vars(gdr).values() if inspect.ismodule(module) and "_extension" in vars(module)]
    assert {module.__name__ for module in modules} == {"gdr.bamboo", "gdr.hain", "gdr.kappa"}
    unequal, records = unequal_at_genus(g, monkeypatch, modules, "_extension", extension_mutant(*mutant))
    if g == 4:
        assert (unequal, records) == (["psi1 kappa1^2", "psi2 kappa1^2", "kappa1^3", "kappa1 kappa2"], 14)
    else:
        # records of kappa degree >= 10 too, above the degree <= 9 maps
        # that tests/test_kappa.py checks against set partitions
        high = [omega for omega in unequal if kappa_degree(ChainVertex.parse(g, omega).kappa) >= 10]
        assert (len(unequal), records, len(high)) == (540, 618, 137)


def psi_only_value(g, d1):
    """int lambda_g DR_g(a,-a) psi_1^d1 psi_2^(g-1-d1), coefficient of
    a^(2g): C(g-1, d1) / (24^g g!)."""
    return Fraction(math.comb(g - 1, d1), 24**g * math.factorial(g))


@pytest.mark.parametrize("g", [*range(1, 11), pytest.param(12, marks=pytest.mark.deep)])
def test_psi_records_match_the_closed_form(g):
    report = verify(g)
    assert len(report.records) == g
    for record in report.records:
        expected = psi_only_value(g, ChainVertex.parse(g, record.omega).left_psi)
        assert record.bamboo == record.dr == expected, record.omega


def single_factor_value(g, d1, d2, e):
    """int lambda_g DR_g(a,-a) psi_1^d1 psi_2^d2 kappa_(e-1), coefficient of
    a^(2g), with d1 + d2 + e = g: pulled back along forgetting a point of
    weight 0, kappa_(e-1) is psi_3^e, and the value is
    g!/(d1! d2! e!) * 6^e e!/(2e+1)!! / (24^g g!)."""
    f = math.factorial
    double_factorial = f(2 * e + 1) // (2**e * f(e))  # (2e+1)!!
    return Fraction(f(g) * 6**e * f(e), f(d1) * f(d2) * f(e) * double_factorial * 24**g * f(g))


@pytest.mark.parametrize(
    "g,monomials",
    [(2, 3), (3, 7), (4, 14), (5, 26), (6, 45), (7, 75), (8, 120), (9, 187), (10, 284)]
    + [pytest.param(12, 618, marks=pytest.mark.deep)],
)
def test_single_factor_records_match_the_closed_form(g, monomials):
    # every record psi_1^d1 psi_2^d2 kappa_b, one kappa factor of exponent
    # 1, on both sides: g(g-1)/2 of the monomial records. A block of
    # kappa._extension with one factor has coefficient 1, so this law
    # cannot see a fault in the multi-factor coefficients.
    report = verify(g, include_kappa=True)
    assert report.passed and len(report.records) == monomials
    checked = 0
    for record in report.records:
        vertex = ChainVertex.parse(g, record.omega)
        if len(vertex.kappa) == 1 and vertex.kappa[0][1] == 1:
            e = vertex.kappa[0][0] + 1
            expected = single_factor_value(g, vertex.left_psi, vertex.right_psi, e)
            assert record.bamboo == record.dr == expected, record.omega
            checked += 1
    assert checked == g * (g - 1) // 2


_BOUNDARY_LABEL = re.compile(r"delta\(([0-9]+)\)\[(.*) \| (.*)\]")


@pytest.mark.parametrize(
    "g,kinds",
    [(2, (0, 1)), (3, (6, 6)), (4, (46, 23)), (5, (210, 70)), (6, (740, 185)), (7, (2210, 442)), (8, (5880, 980))]
    + [pytest.param(10, (32640, 4080), marks=pytest.mark.deep)],
)
def test_boundary_records_are_zeros_or_products_of_lower_genus_records(g, kinds):
    """Every boundary record of verify(g, True, True) against the monomial
    records of lower genus; `kinds` is how many records are off degree and
    how many balanced.

    A boundary record delta(h)[L | R] carries g - 2 of decoration. If L
    does not carry h - 1 (and so R not g - h - 1), a vertex is off its
    degree and both sides pair the class to 0. Otherwise each side's value
    is the product of that side's values for the records L of verify(h,
    True) and R of verify(g - h, True): both sides evaluate the class as
    the product of their one-vertex factors, so such a record checks
    nothing that the lower-genus monomial records do not.
    """
    monomials = {f: {r.omega: r for r in verify(f, include_kappa=True).records} for f in range(1, g)}
    report = verify(g, include_kappa=True, include_boundary=True)
    assert report.passed
    off_degree = balanced = 0
    for record in report.records:
        match = _BOUNDARY_LABEL.fullmatch(record.omega)
        if match is None:
            continue  # a monomial
        h, left_label, right_label = int(match.group(1)), match.group(2), match.group(3)
        left, right = ChainVertex.parse(h, left_label), ChainVertex.parse(g - h, right_label)
        if (left.decoration_degree, right.decoration_degree) != (h - 1, g - h - 1):
            assert record.bamboo == record.dr == 0, record.omega
            off_degree += 1
        else:
            a, b = monomials[h][left_label], monomials[g - h][right_label]
            assert (record.bamboo, record.dr) == (a.bamboo * b.bamboo, a.dr * b.dr), record.omega
            balanced += 1
    assert (off_degree, balanced) == kinds
