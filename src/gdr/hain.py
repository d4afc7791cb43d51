"""The Hain pipeline: pair the g-th power of the restricted
double-ramification divisor with test classes under the top-Chern cap.

For the ramification profile (a, -a) every boundary divisor keeping both
markings on one side carries weight (a - a)^2 = 0, so after factoring one
a^2 out of each factor the working divisor is

    D = 1/2 (psi_1 + psi_2 - sum_{h=1..g-1} delta_h),

with delta_h the separating divisor whose marking-1 side has genus h, and
the coefficient of a^(2g) in the capped cycle pairs as (1/g!) int D^g ....
The cap vanishes outside compact type, so only chain strata ever appear;
on a chain it distributes as the top lambda class of each vertex, which
is what :func:`gdr.hodge.psi_lambda_g_integral` evaluates.

Distinct delta_h meet transversally and the excess rule gives
delta_h^m = delta_h (-psi' - psi'')^(m-1), so the multinomial expansion
of (1/g!) D^g is a sum over chains of a product of local factors:

    (1/2)^a/a! psi_1^a * (1/2)^b/b! psi_2^b
        * prod_{nodes h} -(1/2)^m/m! C(m-1, i) delta_h psi'^i psi''^(m-1-i),

with m >= 1 at every node. :func:`_pair` evaluates the pairing as a
dynamic program along the chain built from these factors.

:func:`expand_divisor_power` expands D^g explicitly in the tree strata
algebra instead: psi_1 and psi_2 decorate the outer legs; delta_h either
refines the chain by splitting the vertex containing cumulative genus h
(kappa decorations distribute over the two halves) or, when a node
already sits at h, contributes the excess terms -psi' - psi'' on the two
node branches. With :func:`multiply_by_divisor` and
:func:`evaluate_chain` it is the reference the dynamic program is tested
against.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial
from typing import List, Tuple, Union

from .core import ChainVertex, DecoratedChain, KappaMap, PsiKappaMonomial, kappa_degree, kappa_distributions
from .hodge import psi_lambda_g_integral
from .kappa import integrate

DivisorTerm = Union[str, Tuple[str, int]]  # "psi1" | "psi2" | ("delta", h)


def hain_divisor_terms(g: int) -> List[tuple]:
    """The weighted divisor terms (term, coefficient) making up D.

    Weights come from the squared ramification sums: a^2 for psi_1 and
    psi_2, a^2 for each marking-separating delta_h, and (a - a)^2 = 0 for
    divisors with both markings on one side (dropped here).
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    half = Fraction(1, 2)
    terms: List[tuple] = [("psi1", half), ("psi2", half)]
    for h in range(1, g):
        terms.append((("delta", h), -half))
    return terms


def multiply_by_divisor(chain: DecoratedChain, term: DivisorTerm) -> List[DecoratedChain]:
    """Multiply a chain stratum by one divisor term of D.

    psi_1 / psi_2 increment the outer-leg psi powers. delta_h splits the
    vertex containing cumulative genus h (existing left decorations stay
    left, right stay right, kappa distributes) or triggers the excess rule
    at an existing node: two terms with coefficient * (-1) and one extra
    psi power on either node branch.
    """
    vertices = chain.vertices
    if term == "psi1":
        v = vertices[0]
        return [chain.with_vertex(0, ChainVertex(v.genus, v.left_psi + 1, v.right_psi, v.kappa))]
    if term == "psi2":
        last = len(vertices) - 1
        v = vertices[last]
        return [chain.with_vertex(last, ChainVertex(v.genus, v.left_psi, v.right_psi + 1, v.kappa))]
    if not (isinstance(term, tuple) and len(term) == 2 and term[0] == "delta"):
        raise ValueError(f"malformed divisor term {term!r}")
    h = term[1]
    if not 1 <= h <= chain.genus - 1:
        raise ValueError(f"delta index {h} out of range for genus {chain.genus}")
    cumulative = 0
    for j, v in enumerate(vertices):
        below = cumulative
        cumulative += v.genus
        if h == cumulative and j < len(vertices) - 1:
            # excess: -psi' - psi'' at the existing node
            right_of_node = vertices[j + 1]
            bumped_left = ChainVertex(v.genus, v.left_psi, v.right_psi + 1, v.kappa)
            bumped_right = ChainVertex(
                right_of_node.genus,
                right_of_node.left_psi + 1,
                right_of_node.right_psi,
                right_of_node.kappa,
            )
            return [
                chain.with_vertex(j, bumped_left).scaled(Fraction(-1)),
                chain.with_vertex(j + 1, bumped_right).scaled(Fraction(-1)),
            ]
        if below < h < cumulative:
            out = []
            for mult, (kappa_l, kappa_r) in kappa_distributions(v.kappa, 2):
                left = ChainVertex(h - below, v.left_psi, 0, kappa_l)
                right = ChainVertex(cumulative - h, 0, v.right_psi, kappa_r)
                refined = vertices[:j] + (left, right) + vertices[j + 1:]
                out.append(DecoratedChain(refined, chain.coefficient * mult))
            return out
    raise AssertionError("unreachable: every 1 <= h <= g-1 hits a node or a vertex")


def expand_divisor_power(g: int) -> List[DecoratedChain]:
    """All chain strata of D^g with aggregated coefficients (without the
    final 1/g! normalization), deterministically ordered."""
    chains = [DecoratedChain((ChainVertex(g),), Fraction(1))]
    terms = hain_divisor_terms(g)
    for _ in range(g):
        acc: dict = {}
        for chain in chains:
            for term, weight in terms:
                for product in multiply_by_divisor(chain, term):
                    coeff = product.coefficient * weight
                    acc[product.vertices] = acc.get(product.vertices, Fraction(0)) + coeff
        chains = [
            DecoratedChain(vs, coeff)
            for vs, coeff in sorted(acc.items(), key=lambda kv: _chain_sort_key(kv[0]))
            if coeff
        ]
    return chains


def _chain_sort_key(vertices: tuple) -> tuple:
    return tuple((v.genus, v.left_psi, v.right_psi, v.kappa) for v in vertices)


def evaluate_chain(chain: DecoratedChain) -> Fraction:
    """Integrate a capped decorated chain: product over vertices of the
    lambda-capped two-leg integral, times the chain coefficient."""
    value = chain.coefficient
    for v in chain.vertices:
        # support of the capped evaluation: decoration degree = 2g - 3 + n
        if not value or v.decoration_degree != 2 * v.genus - 1:
            return Fraction(0)
        value *= integrate(psi_lambda_g_integral, v.genus, (v.left_psi, v.right_psi), v.kappa)
    return value


@lru_cache(maxsize=None)
def _vertex(genus: int, left: int, right: int, kappa: KappaMap) -> Fraction:
    """Capped two-leg vertex integral, memoized for the whole process."""
    return integrate(psi_lambda_g_integral, genus, (left, right), kappa)


def _half_power(m: int) -> Fraction:
    """(1/2)^m / m!, the weight of a power of one half-weighted divisor term."""
    return Fraction(1, 2 ** m * factorial(m))


def _pair(omega: DecoratedChain) -> Fraction:
    """(1/g!) int D^g * omega as a dynamic program along the chain.

    The product formula in the module docstring makes every term a
    product of per-vertex and per-node factors, so the refined chain is
    built left to right. The state is (run j of omega, cumulative genus,
    psi power on the incoming leg, kappa of run j still to place); each
    step picks the next vertex's genus and kappa share. The cap fixes
    that vertex's outgoing leg power, which is then split by weight at
    the node after it: a node of D, a node of omega, or marking 2.
    """
    g = omega.genus
    if omega.codim + omega.decoration_degree != g - 1:
        # D^g pairs to 0 with it; the program never counts powers of D,
        # since the cap's support fixes their total at g for this codim only
        return Fraction(0)
    runs = omega.vertices
    ends = list(accumulate(v.genus for v in runs))

    @lru_cache(maxsize=None)
    def tail(j: int, start: int, left: int, kappa: KappaMap) -> Fraction:
        """Sum over the chain right of cumulative genus `start`, inside run j."""
        run, end = runs[j], ends[j]
        splits = list(kappa_distributions(kappa, 2))
        total = Fraction(0)
        for genus in range(1, end - start + 1):
            closes_run = start + genus == end
            for mult, (share, rest) in splits:
                if closes_run and rest:
                    continue
                # the cap's support fixes the outgoing leg power; i is D's part of it
                outgoing = 2 * genus - 1 - left - kappa_degree(share)
                i = outgoing - run.right_psi if closes_run else outgoing
                if i < 0:
                    continue
                value = mult * _vertex(genus, left, outgoing, share)
                if not value:
                    continue
                if not closes_run:
                    # node of D: -(1/2)^m/m! C(m-1, i) psi'^i psi''^(m-1-i)
                    after = start + genus
                    value *= sum(
                        -_half_power(i + 1 + nxt) * comb(i + nxt, i) * tail(j, after, nxt, rest)
                        for nxt in range(2 * (end - after))
                    )
                elif j + 1 < len(runs):
                    # node of omega: (1/2)^m/m! C(m, i) psi'^i psi''^(m-i)
                    following = runs[j + 1]
                    value *= sum(
                        _half_power(i + nxt) * comb(i + nxt, i)
                        * tail(j + 1, end, nxt + following.left_psi, following.kappa)
                        for nxt in range(2 * following.genus)
                    )
                else:
                    value *= _half_power(i)  # psi_2 of D
                total += value
        return total

    first = runs[0]
    total = sum(
        _half_power(a) * tail(0, 0, a + first.left_psi, first.kappa)
        for a in range(2 * first.genus)
    )
    return omega.coefficient * total


def pair_dr_side(g: int, omega: PsiKappaMonomial) -> Fraction:
    """Coefficient of a^(2g) in the capped double-ramification pairing
    against omega, the one-vertex case of :func:`_pair`."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    if omega.codim != g - 1:
        raise ValueError(f"omega must have codim {g - 1}, got {omega.codim}")
    return _pair(DecoratedChain((ChainVertex(g, omega.d1, omega.d2, omega.kappa),)))


def pair_dr_boundary(omega: DecoratedChain) -> Fraction:
    """Pair against a decorated two-vertex boundary class, the two-vertex
    case of :func:`_pair`: omega's node carries the weights
    (1/2)^m/m! C(m, i), since delta_h (-delta_h)^m = delta_h (psi' + psi'')^m."""
    if len(omega.vertices) != 2:
        raise ValueError("boundary test class must have exactly 2 vertices")
    return _pair(omega)
