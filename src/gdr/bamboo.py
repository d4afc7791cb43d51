"""The bamboo pipeline: the signed chain terms of the degree-2g bamboo
class, and their pairings with test classes.

A genus-g bamboo term is an ordered tuple (g_1..g_k, d_1..d_k) with
g_i >= 1, sum g_i = g, d_i >= 0, sum d_i + k - 1 = 2g, subject to the
prefix constraint d_1+..+d_l + l-1 <= 2(g_1+..+g_l) - 1 for l < k, and
carries sign (-1)^(k-1).

Pairing with a complementary-degree monomial omega splits edge-wise into
a product of two-pointed vertex integrals: omega's psi_1 power sits on
the first vertex's left leg and its psi_2 power on the last vertex's
right leg, kappa factors distribute over vertices by the restriction
rule, and each vertex integral is evaluated through kappa conversion
and the Witten-Kontsevich correlator.

A vertex integral is nonzero only when l_v + r_v + deg kappa_v =
3g_v - 1, so each edge power is a function of the vertex's genus and
kappa share:

    d_v = 3g_v - 1 - l_v - deg kappa_v - [v = k] d_2,   l_v = [v = 1] d_1.

Summed over the chain, the degree equation becomes codim omega = g - 1,
which every pairing has. Summed over the first l < k vertices, with
G_l = g_1+..+g_l and K_l the kappa degree on them, the prefix constraint

    3G_l - l - d_1 - K_l + l - 1 <= 2G_l - 1

reduces to G_l <= K_l + d_1. :func:`_pair` is therefore a dynamic
program along the chain over (cumulative genus, kappa still to place):
each step picks the next vertex's genus and kappa share, checks the
reduced prefix bound, evaluates the vertex, and multiplies by -1 for the
node after it. :func:`enumerate_bamboos` lists the terms explicitly.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterator, List

from .core import (
    Bamboo,
    DecoratedChain,
    KappaMap,
    PsiKappaMonomial,
    kappa_degree,
    kappa_distributions,
)
from .correlators import correlator
from .kappa import integrate


def enumerate_bamboos(g: int) -> List[Bamboo]:
    """All bamboo terms for genus g, deterministically ordered by
    (vertex count, genus tuple, psi-power tuple)."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    out: List[Bamboo] = []
    for k in range(1, g + 1):
        d_total = 2 * g - (k - 1)
        for genera in _positive_compositions(g, k):
            for ds in _prefix_constrained(genera, d_total):
                out.append(Bamboo(tuple(zip(genera, ds))))
    return out


def _positive_compositions(total: int, parts: int) -> Iterator[tuple]:
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for head in range(1, total - parts + 2):
        for tail in _positive_compositions(total - head, parts - 1):
            yield (head,) + tail


def _prefix_constrained(genera: tuple, d_total: int) -> Iterator[tuple]:
    """psi-power tuples satisfying the running bound against 2*genus - 1."""
    k = len(genera)

    def rec(pos: int, d_sum: int, g_sum: int, acc: tuple) -> Iterator[tuple]:
        if pos == k - 1:
            yield acc + (d_total - d_sum,)
            return
        g_here = g_sum + genera[pos]
        bound = 2 * g_here - 1 - pos - d_sum  # d_pos + d_sum + pos <= 2g - 1
        for d in range(0, min(bound, d_total - d_sum) + 1):
            yield from rec(pos + 1, d_sum + d, g_here, acc + (d,))

    if k == 1:
        yield (d_total,)
    else:
        yield from rec(0, 0, 0, ())


def vertex_integral(genus: int, left_psi: int, right_psi: int, kappa: KappaMap) -> Fraction:
    """int over the two-pointed genus-g space of psi_l^a psi_r^b * kappa."""
    if left_psi + right_psi + kappa_degree(kappa) != 3 * genus - 1:
        return Fraction(0)
    return integrate(correlator, genus, (left_psi, right_psi), kappa)


def _pair(g: int, omega: PsiKappaMonomial) -> Fraction:
    """int of the genus-g bamboo class times omega, as a dynamic program
    along the chain (see the module docstring); 0 unless omega has codim
    g - 1, as one side of an unbalanced boundary class has."""
    if omega.codim != g - 1:
        return Fraction(0)
    d1, d2 = omega.d1, omega.d2
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


def pair_bamboo_side(g: int, omega: PsiKappaMonomial) -> Fraction:
    """int of (bamboo class) * omega over the two-pointed genus-g space."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    if omega.codim != g - 1:
        raise ValueError(f"omega must have codim {g - 1}, got {omega.codim}")
    return _pair(g, omega)


def pair_bamboo_boundary(omega: DecoratedChain) -> Fraction:
    """Pair the bamboo class against a decorated two-vertex boundary class.

    The splitting property factors the pairing across the node: each side
    pairs the lower-genus bamboo class against the vertex decoration, with
    the node-branch psi power playing the role of the missing marking.
    Unbalanced decoration degrees make one factor vanish identically.
    """
    if len(omega.vertices) != 2:
        raise ValueError("boundary test class must have exactly 2 vertices")
    left, right = omega.vertices
    left_omega = PsiKappaMonomial(left.left_psi, left.right_psi, left.kappa)
    right_omega = PsiKappaMonomial(right.left_psi, right.right_psi, right.kappa)
    return (
        omega.coefficient
        * _pair(left.genus, left_omega)
        * _pair(right.genus, right_omega)
    )
