"""Reference checks of the bamboo side: :func:`check`, the constraints that
every term of :func:`gdr.bamboo.enumerate_bamboos` must meet, and a chain
program in Fractions, the oracle that the scaled-integer
:func:`gdr.bamboo._pair` is tested against. It carries
every vertex integral as an exact rational, walks the chain by cumulative
genus with the prefix bound G_l <= K_l + d_1 as the bamboo terms state
it, and splits kappa with :func:`gdr.core.kappa_distributions` itself, so
it needs none of the scales B_h of gdr.bamboo.

Its vertex integrals are the Fraction sums that gdr.bamboo evaluated
before its leaf became an integer: the :func:`gdr.kappa.kappa_to_psi`
terms, each through the public :func:`gdr.correlators.correlator`. So it
shares the kappa expansion and the correlator recursion with gdr.bamboo,
but not the integer leaf B_h <tau_k>_h or the chain program.
"""
from fractions import Fraction
from functools import lru_cache

from gdr.core import Bamboo, ChainVertex, KappaMap, kappa_degree, kappa_distributions
from gdr.correlators import correlator
from gdr.kappa import kappa_to_psi


def check(term: Bamboo) -> None:
    """Raise ValueError unless `term` is a bamboo term: a nonempty tuple of
    int (genus >= 1, edge psi power >= 0) pairs with the degree equation
    sum(d_i) + k - 1 = 2g and the prefix constraint
    d_1 + ... + d_l + l - 1 <= 2(g_1 + ... + g_l) - 1 for 1 <= l < k."""
    vs = term.vertices
    if not vs:
        raise ValueError("bamboo needs at least one vertex")
    if not all(type(g) is int and type(d) is int for g, d in vs):
        raise ValueError("bamboo vertices must be int pairs")
    if any(g < 1 for g, _ in vs):
        raise ValueError("bamboo vertex genus must be >= 1")
    if any(d < 0 for _, d in vs):
        raise ValueError("edge psi powers must be >= 0")
    k = len(vs)
    if sum(d for _, d in vs) + k - 1 != 2 * sum(g for g, _ in vs):
        raise ValueError("degree equation sum(d) + k - 1 = 2g violated")
    d_run = g_run = 0
    for ell in range(1, k):
        g_run += vs[ell - 1][0]
        d_run += vs[ell - 1][1]
        if d_run + ell - 1 > 2 * g_run - 1:
            raise ValueError(f"prefix constraint violated at position {ell}")


@lru_cache(maxsize=None)
def vertex_integral(genus: int, left: int, right: int, kappa: KappaMap) -> Fraction:
    """int over the two-pointed genus-g space of psi_l^left psi_r^right *
    kappa, as a Fraction sum of correlators; 0 outside the dimension."""
    if left + right + kappa_degree(kappa) != 3 * genus - 1:
        return Fraction(0)
    return sum((coeff * correlator(genus, exps) for coeff, exps in kappa_to_psi(2, (left, right), kappa)), Fraction(0))


def pair(omega: ChainVertex) -> Fraction:
    """int of the genus-g bamboo class times omega's decoration, g being
    omega's genus; 0 unless the decoration has codim g - 1."""
    g = omega.genus
    if omega.decoration_degree != g - 1:
        return Fraction(0)
    d1, d2 = omega.left_psi, omega.right_psi
    kappa_total = kappa_degree(omega.kappa)

    @lru_cache(maxsize=None)
    def tail(start: int, kappa: KappaMap) -> Fraction:
        """Sum over the chain right of cumulative genus `start`."""
        left = d1 if start == 0 else 0
        total = Fraction(0)
        for mult, (share, rest) in kappa_distributions(kappa, 2):
            share_degree = kappa_degree(share)
            for genus in range(1, g - start + 1):
                after = start + genus
                right = 3 * genus - 1 - left - share_degree  # d_v, plus d_2 at the end
                if after == g:
                    if rest or right < d2:
                        continue
                    total += mult * vertex_integral(genus, left, right, share)
                elif right >= 0 and after <= kappa_total - kappa_degree(rest) + d1:  # G_l <= K_l + d_1
                    value = vertex_integral(genus, left, right, share)
                    if value:
                        total -= mult * value * tail(after, rest)
        return total

    return tail(0, omega.kappa)
