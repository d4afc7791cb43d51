"""The bamboo pipeline: enumerate the signed chain terms of the degree-2g
bamboo class and pair them against test classes.

A genus-g bamboo term is an ordered tuple (g_1..g_k, d_1..d_k) with
g_i >= 1, sum g_i = g, d_i >= 0, sum d_i + k - 1 = 2g, subject to the
prefix constraint d_1+..+d_l + l-1 <= 2(g_1+..+g_l) - 1 for l < k, and
carries sign (-1)^(k-1).

Pairing with a complementary-degree monomial omega splits edge-wise into
a product of two-pointed vertex integrals: marking psi powers of omega
pull back to the end legs, kappa factors distribute over vertices by the
restriction rule, and each vertex integral is evaluated through kappa
conversion and the Witten-Kontsevich correlator.
"""
from __future__ import annotations

from fractions import Fraction
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
    total = Fraction(0)
    for bamboo in enumerate_bamboos(g):
        k = len(bamboo.vertices)
        for mult, kappa_parts in kappa_distributions(omega.kappa, k):
            product = Fraction(1)
            for v, (genus_v, d_v) in enumerate(bamboo.vertices):
                left = omega.d1 if v == 0 else 0
                right = d_v + (omega.d2 if v == k - 1 else 0)
                product *= vertex_integral(genus_v, left, right, kappa_parts[v])
                if not product:
                    break
            total += bamboo.sign * mult * product
    return total


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
