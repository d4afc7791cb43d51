import itertools
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gdr.correlators import correlator
from gdr.hodge import lambda_g_constant, psi_lambda_g_integral

_BERNOULLI = {0: Fraction(1), 1: Fraction(-1, 2)}


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m (B_1 = -1/2; B_2 = 1/6, B_4 = -1/30), the
    oracle of the one-point constants b_g. Odd m > 1 is rejected: those
    values are zero and never needed here."""
    if m < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if m % 2 == 1 and m > 1:
        raise ValueError(f"odd Bernoulli index {m} not supported")
    # binomial recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0, odd j > 1 giving 0
    for even in range(2, m + 1, 2):
        if even not in _BERNOULLI:
            total = sum(comb(even + 1, j) * _BERNOULLI[j] for j in [0, 1, *range(2, even, 2)])
            _BERNOULLI[even] = -total / (even + 1)
    return _BERNOULLI[m]


class TestBernoulli:
    """The oracle itself, against known values and its defining identity."""

    @pytest.mark.parametrize(
        "m,expected",
        [
            (0, Fraction(1)),
            (1, Fraction(-1, 2)),
            (2, Fraction(1, 6)),
            (4, Fraction(-1, 30)),
            (6, Fraction(1, 42)),
            (8, Fraction(-1, 30)),
            (10, Fraction(5, 66)),
            (12, Fraction(-691, 2730)),
        ],
    )
    def test_values(self, m, expected):
        assert bernoulli(m) == expected

    def test_recurrence_holds(self):
        # sum_{j=0}^{m-1} C(m, j) B_j = 0 for m >= 2, odd j > 1 contributing 0
        for m in range(2, 16):
            total = Fraction(0)
            for j in range(m):
                if j % 2 == 1 and j > 1:
                    continue
                total += comb(m, j) * bernoulli(j)
            assert total == 0

    def test_odd_index_rejected(self):
        for m in (3, 5, 7):
            with pytest.raises(ValueError):
                bernoulli(m)
        with pytest.raises(ValueError):
            bernoulli(-2)


class TestLambdaConstant:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (1, Fraction(1, 24)),
            (2, Fraction(7, 5760)),
            (3, Fraction(31, 967680)),
        ],
    )
    def test_values(self, g, expected):
        assert lambda_g_constant(g) == expected

    def test_closed_form_shape(self):
        # (2^(2g-1) - 1)/2^(2g-1) * |B_2g|/(2g)!  spelled out for g = 2, 3
        assert lambda_g_constant(2) == Fraction(8 - 1, 8) * Fraction(1, 30) / 24
        assert lambda_g_constant(3) == Fraction(32 - 1, 32) * Fraction(1, 42) / 720

    def test_invalid_genus(self):
        with pytest.raises(ValueError):
            lambda_g_constant(0)

    def test_series_recurrence_matches_the_bernoulli_form(self):
        # the production recurrence in (t/2)/sin(t/2) against the Bernoulli
        # closed form (2^(2g-1) - 1)/2^(2g-1) |B_2g|/(2g)! of the oracle
        for g in range(1, 41):
            power = 2 ** (2 * g - 1)
            expected = Fraction(power - 1, power) * abs(bernoulli(2 * g)) / factorial(2 * g)
            assert lambda_g_constant(g) == expected, g


class TestPsiLambdaIntegral:
    @pytest.mark.parametrize(
        "g,exps,expected",
        [
            (1, (1, 0), Fraction(1, 24)),
            (1, (0, 1), Fraction(1, 24)),
            (2, (3, 0), Fraction(7, 5760)),
            (0, (0, 0, 0), Fraction(1)),
            (1, (0, 0), Fraction(0)),  # degree 0 != 2g - 3 + n = 1
            (1, (0,), Fraction(1, 24)),  # one-point space, bare cap
            (2, (2, 1, 1), 12 * Fraction(7, 5760)),
        ],
    )
    def test_values(self, g, exps, expected):
        assert psi_lambda_g_integral(g, exps) == expected

    def test_genus_zero_is_plain_closed_form(self):
        assert psi_lambda_g_integral(0, (0, 0, 0, 0, 2)) == 1
        assert psi_lambda_g_integral(0, (1, 1, 0, 0, 0)) == 2
        assert psi_lambda_g_integral(0, (0, 0)) == 0

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            psi_lambda_g_integral(1, (-1, 2))

    def test_genus_zero_closed_forms_written_out(self):
        # both leaf evaluators share core.multinomial at genus 0; check
        # them against (n-3)!/prod(k_i!) spelled out
        checked = 0
        for n in range(3, 8):
            for exps in itertools.product(range(n - 2), repeat=n):
                if sum(exps) != n - 3:
                    continue
                expected = Fraction(factorial(n - 3))
                for k in exps:
                    expected /= factorial(k)
                assert psi_lambda_g_integral(0, exps) == expected
                assert correlator(0, exps) == expected
                checked += 1
        assert checked == sum(comb(2 * n - 4, n - 3) for n in range(3, 8))

    @pytest.mark.parametrize("g,n", [(1, 2), (2, 2), (2, 3)])
    def test_multinomial_sum_identity(self, g, n):
        # sum over all exponent vectors of length n with total 2g - 3 + n
        total = 2 * g - 3 + n
        acc = Fraction(0)
        for exps in itertools.product(range(total + 1), repeat=n):
            if sum(exps) == total:
                acc += psi_lambda_g_integral(g, exps)
        assert acc == n**total * lambda_g_constant(g)


@st.composite
def capped_key(draw, max_genus=3, max_n=5, extra=0):
    """(g, exps) with sum(exps) = 2g - 3 + n + extra over n parts."""
    g = draw(st.integers(1, max_genus))
    n = draw(st.integers(1, max_n))
    total = 2 * g - 3 + n + extra
    exps = []
    remaining = total
    for _ in range(n - 1):
        k = draw(st.integers(0, remaining))
        exps.append(k)
        remaining -= k
    exps.append(remaining)
    return g, exps


@given(key=capped_key(extra=1))
def test_string_analogue(key):
    # appending a zero exponent lives one marking up, so the inputs carry
    # one extra unit of degree to keep both sides dimension-valid
    g, exps = key
    lhs = psi_lambda_g_integral(g, exps + [0])
    rhs = sum(
        psi_lambda_g_integral(g, exps[:j] + [exps[j] - 1] + exps[j + 1:])
        for j in range(len(exps))
        if exps[j] >= 1
    )
    assert lhs == rhs


@given(key=capped_key())
def test_dilaton_analogue(key):
    g, exps = key
    n = len(exps)
    assert psi_lambda_g_integral(g, exps + [1]) == (2 * g - 2 + n) * psi_lambda_g_integral(g, exps)


@given(
    g=st.integers(0, 3),
    exps=st.lists(st.integers(0, 8), min_size=1, max_size=5),
)
def test_nonnegative(g, exps):
    assert psi_lambda_g_integral(g, exps) >= 0
