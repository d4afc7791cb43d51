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

reduces to G_l <= K_l + d_1. In terms of what is left to place after
the vertex, genus H' and kappa degree K', this reads H' >= 1 + d_2 + K':
the condition no longer mentions the genus or psi_1 power of omega.
:func:`_tail` is therefore a dynamic program along the chain over
(genus still to place, kappa still to place): each step picks the next
vertex's genus and kappa share, checks the prefix bound, evaluates the
vertex, and multiplies by -1 for the node after it. :func:`_pair` is
its top call. :func:`enumerate_bamboos` lists the terms explicitly.

The program runs in integers, from the leaves up. A vertex of genus h
evaluates, through the kappa expansion of gdr.kappa, whose coefficients
are integers, to an integer combination of in-dimension correlators
<tau_k>_h, and each of these is itself an integer on a scale that
depends on h alone. The string and dilaton equations have integer
coefficients and keep the genus, so every in-dimension genus-h
correlator is an integer combination of genus-h correlators whose
exponents are all >= 2, or of <tau_1>_1 = 1/24 at genus 1. Such a key
has sum(k_i - 1) = 3h - 3, and gdr.correlators shows that
2^(4h-1) prod (2k_i+1)!! <tau_k>_h is an integer. So, with P(w) the lcm
of prod (2k_i+1)!! over the tuples with every k_i >= 2 and
sum(k_i - 1) = w,

    L_1 = 24,    L_h = 2^(4h-1) P(3h-3)   (h >= 2),

P(w) = lcm over 1 <= a <= w of (2a+3)!! P(w-a)   (P(0) = 1),

with (2a+3)!! read from gdr.correlators' one memoized (2k+1)!!,
:func:`gdr.correlators._odd_double_factorial` at k = a + 1, the same
one that the correlator scale 2^(4h-1) prod (2k_i+1)!! reads. L_h
clears the denominator of every in-dimension genus-h correlator,
whatever its exponents, and so of every vertex integral of genus h. The
chain scale B_h is the lcm of L_h and of B_f B_(h-f) for 1 <= f < h, so that
B_f B_(h-f) divides B_h by construction; the tests find B_h = L_h for
every h <= 40. The leaf B_h <tau_k>_h is read straight from the scaled
correlator memo by :func:`gdr.correlators.times_correlator`, which raises
ArithmeticError if a remainder ever shows that B_h does not clear it: no
Fraction stands between the correlator recursion and the chain.

:func:`_scaled_vertex` is a vertex integral times B_h. :func:`_tail`
stores the sum over the chains of genus h as its value times B_h. A
vertex of genus f then contributes its scaled integral, and the node
after it the factor -B_h / (B_f B_(h-f)). :func:`_pair` builds the one
Fraction, by dividing by B_g. :func:`vertex_integral` is the same vertex
as a Fraction, :func:`_scaled_vertex` over B_h, so the side has one
vertex path.

:func:`_scaled_vertex`, :func:`_tail` and :func:`_pair` are memoized for
the whole process, as the divisor side's vertex factors are: every class
of a `verify` run, a chain that :func:`pair_bamboo_boundary` pairs,
reuses the vertex integrals and chain tails that earlier classes
evaluated, and a boundary class the lower-genus pairings of its sides.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterator, List

from .core import (
    Bamboo,
    ChainVertex,
    DecoratedChain,
    KappaMap,
    compositions,
    kappa_degree,
    kappa_map,
    kappa_splits,
)
from .correlators import _odd_double_factorial, times_correlator
from .kappa import _extension


def enumerate_bamboos(g: int) -> List[Bamboo]:
    """All bamboo terms for genus g, deterministically ordered by
    (vertex count, genus tuple, psi-power tuple)."""
    return list(_bamboos(g))


def _bamboos(g: int) -> Iterator[Bamboo]:
    """The terms of :func:`enumerate_bamboos`, yielded one at a time; a
    genus below 1 raises at the first step, before any term."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    for k in range(1, g + 1):
        d_total = 2 * g - (k - 1)
        for excess in compositions(g - k, k):
            genera = tuple(part + 1 for part in excess)
            for ds in _prefix_constrained(genera, d_total):
                yield Bamboo(tuple(zip(genera, ds)))


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

    return rec(0, 0, 0, ())


def vertex_integral(genus: int, left_psi: int, right_psi: int, kappa: KappaMap) -> Fraction:
    """int over the two-pointed genus-g space of psi_l^a psi_r^b * kappa:
    :func:`_scaled_vertex` over B_genus."""
    kappa = kappa_map(kappa)
    if left_psi + right_psi + kappa_degree(kappa) != 3 * genus - 1:
        return Fraction(0)
    return Fraction(_scaled_vertex(genus, left_psi, kappa), _scale(genus))


@lru_cache(maxsize=None)
def _odd_scale(weight: int) -> int:
    """P(weight): the lcm of prod (2k_i+1)!! over the exponent tuples with
    every k_i >= 2 and sum(k_i - 1) = weight (see the module docstring)."""
    return lcm(*(_odd_double_factorial(a + 1) * _odd_scale(weight - a) for a in range(1, weight + 1)))


@lru_cache(maxsize=None)
def _scale(genus: int) -> int:
    """B_genus: the lcm of the leaf scale L_genus, which clears the
    denominator of every in-dimension correlator of genus `genus` and so
    of every vertex integral of that genus, and of B_f B_(genus-f) over
    the splits of `genus`."""
    leaf = 24 if genus == 1 else 2 ** (4 * genus - 1) * _odd_scale(3 * genus - 3)
    return lcm(leaf, *(_scale(f) * _scale(genus - f) for f in range(1, genus)))


@lru_cache(maxsize=None)
def _node(genus: int, first: int) -> int:
    """-B_genus / (B_first B_(genus-first)): the node after a vertex of genus
    `first` that opens a chain of genus `genus`."""
    return -(_scale(genus) // (_scale(first) * _scale(genus - first)))


@lru_cache(maxsize=None)
def _scaled_vertex(genus: int, left: int, kappa: KappaMap) -> int:
    """B_genus times the vertex integral of psi_l^left psi_r^right * kappa,
    an integer, for a canonical `kappa`, the right leg taking the power
    that puts the vertex in dimension, right = 3 genus - 1 - left -
    deg kappa: the sum over the kappa expansion's terms (c, e) of c times
    the correlator of (left, right) + e. Each correlator is read as
    B_genus <tau_k>_genus, an integer that
    :func:`gdr.correlators.times_correlator` checks."""
    right = 3 * genus - 1 - left - kappa_degree(kappa)
    return sum(c * times_correlator(_scale(genus), genus, (left, right) + e) for c, e in _extension(kappa))


@lru_cache(maxsize=None)
def _tail(genus: int, left: int, right_psi: int, kappa: KappaMap) -> int:
    """B_genus times the signed sum over the chains of total genus `genus`,
    with psi^left on the left leg of the first vertex, psi^right_psi on the
    right leg of the last one and `kappa` shared out over the vertices,
    each vertex placed by the dimension constraint and every prefix by the
    bound of the module docstring. The first vertex is the last one when it
    takes all of the genus and kappa, in one way; that term comes first,
    and the loop over the kappa splits places only vertices that a node
    follows."""
    degree = kappa_degree(kappa)
    # the last vertex's right leg, 3 genus - 1 - left - degree, carries
    # d_v + d_2, with d_v >= 0
    total = _scaled_vertex(genus, left, kappa) if 3 * genus - 1 - left - degree >= right_psi else 0
    for mult, share, rest, share_degree in kappa_splits(kappa):
        # a vertex of genus f that a node follows gets right = 3f - offset
        # >= 0 and leaves a genus >= 1 + right_psi + deg rest after it,
        # which bounds f both ways
        offset = 1 + left + share_degree
        for first in range(max(1, (offset + 2) // 3), genus - right_psi - (degree - share_degree)):
            value = _scaled_vertex(first, left, share)
            if value:
                total += mult * value * _node(genus, first) * _tail(genus - first, 0, right_psi, rest)
    return total


@lru_cache(maxsize=None)
def _pair(g: int, d1: int, d2: int, kappa: KappaMap) -> Fraction:
    """int of the genus-g bamboo class times psi_1^d1 psi_2^d2 kappa, the
    top call of :func:`_tail`, keyed on a vertex's fields; 0 unless the
    class has codim g - 1, as one side of an unbalanced boundary class has."""
    if d1 + d2 + kappa_degree(kappa) != g - 1:
        return Fraction(0)
    return Fraction(_tail(g, d1, d2, kappa), _scale(g))


def pair_bamboo_side(vertex: ChainVertex) -> Fraction:
    """int of (bamboo class) * omega over the two-pointed space of the
    vertex's genus, omega being the vertex's decoration."""
    if vertex.decoration_degree != vertex.genus - 1:
        raise ValueError(f"omega must have codim {vertex.genus - 1}, got {vertex.decoration_degree}")
    return _pair(vertex.genus, vertex.left_psi, vertex.right_psi, vertex.kappa)


def pair_bamboo_boundary(omega: DecoratedChain) -> Fraction:
    """Pair the bamboo class against a decorated chain of one vertex (a
    monomial) or two, the most that the assumed splitting property covers:
    it factors the pairing across the node, each side pairing the
    lower-genus bamboo class against its vertex decoration, the node-branch
    psi power playing the missing marking. The memoized factors and the
    coefficient multiply into one Fraction."""
    if len(omega.vertices) > 2:
        raise ValueError("bamboo-side test class must have 1 or 2 vertices")
    num, den = omega.coefficient.numerator, omega.coefficient.denominator
    for v in omega.vertices:
        factor = _pair(v.genus, v.left_psi, v.right_psi, v.kappa)
        num *= factor.numerator
        den *= factor.denominator
    return Fraction(num, den)
