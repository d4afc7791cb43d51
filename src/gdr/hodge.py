"""Hodge-capped psi integrals and the one-point constants b_g of the
Hain pipeline.

The top-Chern-class cap admits a closed form on a genus-g vertex:

    int psi1^k1 ... psin^kn lambda_g
        = multinomial(2g-3+n; k1,...,kn) * b_g,

nonzero exactly when sum(k_i) = 2g-3+n, with the one-point constant
b_g = int psi^(2g-2) lambda_g read off Faber-Pandharipande's series

    sum_g b_g t^(2g) = (t/2) / sin(t/2).

Multiplying by sin(t/2)/(t/2) = sum_k (-1)^k t^(2k) / (4^k (2k+1)!)
gives the recurrence b_0 = 1, b_g = -sum_{k=1..g} (-1)^k/(4^k (2k+1)!)
b_(g-k); in Bernoulli numbers, b_g = (2^(2g-1)-1)/2^(2g-1) |B_2g|/(2g)!.

:func:`psi_lambda_g_integral` is the leaf of the D^g reference
(:func:`gdr.hain.evaluate_chain`) and of the divisor-side oracle of the
tests; no pipeline and no subcommand calls it. The divisor side's dynamic
program reads b_g here and the multinomial part from a table of its own
(:func:`gdr.hain._vertex_table`).

lambda_0 = 1 is folded in, so genus 0 uses the same entry point and
reduces to the genus-0 correlator closed form. No chain vertex has genus
0; only the tests reach that case.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterable

from .core import multinomial


@lru_cache(maxsize=None)
def lambda_g_constant(g: int) -> Fraction:
    """One-point constant b_g = [t^(2g)] (t/2)/sin(t/2), by the recurrence
    of the module docstring, memoized for the whole process."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    b = [Fraction(1)] + [lambda_g_constant(h) for h in range(1, g)]
    return -sum(Fraction((-1) ** k, 4**k * factorial(2 * k + 1)) * b[g - k] for k in range(1, g + 1))


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
    return (multinomial(exps) if sum(exps) == 2 * g - 3 + len(exps) else 0) * (lambda_g_constant(g) if g else Fraction(1))
