"""Reference per-run dynamic program of the divisor side in Fractions, the
oracle that the scaled-integer :func:`gdr.hain._run`,
:func:`gdr.hain._transfers` and :func:`gdr.hain._capped_run` are tested
against. It carries every weight as an exact rational, (1/2)^m/m! at a
node of D and the capped vertex integral itself at a vertex, so it needs
none of the scales beta_h 2^t t! of gdr.hain. It keeps one run per
incoming psi power, as a vector {i: w_i} over D's psi power i on the
run's outgoing leg, where gdr.hain keeps one vector per run over the
incoming power and sums i out inside the run. It evaluates each capped
vertex through the kappa expansion and
:func:`gdr.hodge.psi_lambda_g_integral`, where gdr.hain reads its own
capped-vertex table, so the two share only the constants b_g.
"""
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from gdr.core import KappaMap, kappa_degree, kappa_distributions
from gdr.hodge import psi_lambda_g_integral
from gdr.kappa import _extension


@lru_cache(maxsize=None)
def _vertex(genus: int, left: int, right: int, kappa: KappaMap) -> Fraction:
    """The capped two-leg vertex integral, summed over the kappa expansion."""
    return sum(c * psi_lambda_g_integral(genus, (left, right) + e) for c, e in _extension(kappa))


def _half_power(m: int) -> Fraction:
    """(1/2)^m / m!, the weight of a power of one half-weighted divisor term."""
    return Fraction(1, 2 ** m * factorial(m))


def _combine(terms) -> tuple:
    """The vector sum of weight * vector over (weight, vector) pairs."""
    out: dict = {}
    for weight, vector in terms:
        for i, w in vector:
            out[i] = out.get(i, 0) + weight * w
    return tuple((i, w) for i, w in sorted(out.items()) if w)


@lru_cache(maxsize=None)
def run(genus: int, incoming: int, kappa: KappaMap, right_psi: int) -> tuple:
    """The vector ((i, w_i), ...) of one run of omega refined by D, each
    w_i the unscaled rational weight."""
    terms = []
    for first in range(1, genus + 1):
        closes_run = first == genus
        for mult, (share, rest) in kappa_distributions(kappa, 2):
            if closes_run and rest:
                continue
            outgoing = 2 * first - 1 - incoming - kappa_degree(share)
            i = outgoing - right_psi if closes_run else outgoing
            if i < 0:
                continue
            value = mult * _vertex(first, incoming, outgoing, share)
            if not value:
                continue
            after = ((i, 1),) if closes_run else transfer(i, genus - first, rest, right_psi)
            terms.append((value, after))
    return _combine(terms)


@lru_cache(maxsize=None)
def transfer(i: int, genus: int, kappa: KappaMap, right_psi: int) -> tuple:
    """A node of D with psi'^i on its left branch glued to the rest of the
    run: the weights -(1/2)^m/m! C(m-1, i) times the rest's vectors."""
    return _combine(
        (-_half_power(i + 1 + nxt) * comb(i + nxt, i), run(genus, nxt, kappa, right_psi))
        for nxt in range(2 * genus)
    )


@lru_cache(maxsize=None)
def capped_run(genus: int, left_psi: int, kappa: KappaMap, right_psi: int) -> Fraction:
    """One vertex of omega with D's psi powers on its outer legs summed out
    against the weights (1/2)^a/a! and (1/2)^i/i!."""
    return sum(
        (
            _half_power(a) * _half_power(i) * w
            for a in range(2 * genus)
            for i, w in run(genus, a + left_psi, kappa, right_psi)
        ),
        Fraction(0),
    )
