"""Hodge-capped psi integrals: the leaf evaluator of the Hain pipeline.

The top-Chern-class cap admits a closed form on a genus-g vertex:

    int psi1^k1 ... psin^kn lambda_g
        = multinomial(2g-3+n; k1,...,kn) * b_g,

nonzero exactly when sum(k_i) = 2g-3+n, with the one-point constant

    b_g = int psi^(2g-2) lambda_g = (2^(2g-1)-1)/2^(2g-1) * |B_{2g}|/(2g)!.

lambda_0 = 1 is folded in, so genus 0 uses the same entry point and
reduces to the genus-0 correlator closed form. No chain vertex has genus
0; only ``gdr hodge --genus 0`` and the tests reach that case.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Dict, Iterable

from .core import multinomial

_bernoulli_memo: Dict[int, Fraction] = {0: Fraction(1), 1: Fraction(-1, 2)}


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m (B_1 = -1/2 convention; B_2 = 1/6, B_4 = -1/30).

    Odd m > 1 is rejected: those values are zero and never needed here.
    """
    if m < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if m % 2 == 1 and m > 1:
        raise ValueError(f"odd Bernoulli index {m} not supported")
    if m in _bernoulli_memo:
        return _bernoulli_memo[m]
    # binomial recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0
    for even in range(2, m + 1, 2):
        if even in _bernoulli_memo:
            continue
        total = Fraction(comb(even + 1, 0)) + Fraction(comb(even + 1, 1)) * Fraction(-1, 2)
        for j in range(2, even, 2):
            total += comb(even + 1, j) * _bernoulli_memo[j]
        _bernoulli_memo[even] = -total / (even + 1)
    return _bernoulli_memo[m]


@lru_cache(maxsize=None)
def lambda_g_constant(g: int) -> Fraction:
    """One-point constant b_g = (2^(2g-1)-1)/2^(2g-1) * |B_{2g}|/(2g)!,
    memoized for the whole process."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    power = 2 ** (2 * g - 1)
    return Fraction(power - 1, power) * abs(bernoulli(2 * g)) / factorial(2 * g)


def psi_lambda_g_integral(g: int, exponents: Iterable[int]) -> Fraction:
    """int psi^k1...psi^kn lambda_g over the n-pointed genus-g space.

    Dimension mismatch gives 0. For g = 0 this is the plain genus-0
    psi integral (n-3)!/prod(k_i!) = multinomial(k) since lambda_0 = 1.
    """
    exps = tuple(int(k) for k in exponents)
    if g < 0:
        raise ValueError("genus must be >= 0")
    if any(k < 0 for k in exps):
        raise ValueError("psi exponents must be >= 0")
    return capped_unit(g, exps) * (lambda_g_constant(g) if g else Fraction(1))


def capped_unit(g: int, exps: tuple) -> int:
    """int psi^exps lambda_g / b_g, unchecked: multinomial(exps) in
    dimension, else 0. The integer leaf of the divisor side."""
    return multinomial(exps) if sum(exps) == 2 * g - 3 + len(exps) else 0
