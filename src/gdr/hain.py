"""The Hain pipeline: expand the g-th power of the restricted
double-ramification divisor in the tree strata algebra and evaluate
against test classes under the top-Chern cap.

For the ramification profile (a, -a) every boundary divisor keeping both
markings on one side carries weight (a - a)^2 = 0, so after factoring one
a^2 out of each factor the working divisor is

    D = 1/2 (psi_1 + psi_2 - sum_{h=1..g-1} delta_h),

with delta_h the separating divisor whose marking-1 side has genus h, and
the coefficient of a^(2g) in the capped cycle pairs as (1/g!) int D^g ....
The cap vanishes outside compact type, so only chain strata ever appear;
on a chain it distributes as the top lambda class of each vertex, which
is what :func:`gdr.hodge.psi_lambda_g_integral` evaluates.

Multiplication rules: psi_1 and psi_2 decorate the outer legs; delta_h
either refines the chain by splitting the vertex containing cumulative
genus h (kappa decorations distribute over the two halves) or, when a
node already sits at h, contributes the excess terms -psi' - psi'' on the
two node branches.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, product
from math import factorial
from typing import List, Tuple, Union

from .core import ChainVertex, DecoratedChain, PsiKappaMonomial, kappa_distributions, kappa_map
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


def _attach(chain: DecoratedChain, omega: DecoratedChain) -> List[DecoratedChain]:
    """Multiply the decorations of omega into a chain refined at every node
    of omega. Each vertex of omega decorates the run of chain vertices that
    covers its genus: psi powers on the run's outer legs, kappa factors
    distributed over the run."""
    vertices = chain.vertices
    left = [0] * len(vertices)
    right = [0] * len(vertices)
    distributions = []
    j = 0
    for deco in omega.vertices:
        start, genus = j, 0
        while genus < deco.genus:
            genus += vertices[j].genus
            j += 1
        if genus != deco.genus:
            raise AssertionError(f"no node at the end of a genus-{deco.genus} run")
        left[start] += deco.left_psi
        right[j - 1] += deco.right_psi
        distributions.append(kappa_distributions(deco.kappa, j - start))
    out = []
    for choice in product(*distributions):
        mult = 1
        extras: tuple = ()
        for m, parts in choice:
            mult *= m
            extras += parts
        decorated = tuple(
            ChainVertex(v.genus, v.left_psi + a, v.right_psi + b, kappa_map(v.kappa + extra))
            for v, a, b, extra in zip(vertices, left, right, extras)
        )
        out.append(DecoratedChain(decorated, chain.coefficient * mult))
    return out


def _pair(omega: DecoratedChain) -> Fraction:
    """(1/g!) int D^g * omega: refine each chain of D^g at the nodes of
    omega, attach omega's decorations and evaluate under the cap."""
    g = omega.genus
    nodes = list(accumulate(v.genus for v in omega.vertices[:-1]))
    total = Fraction(0)
    for chain in expand_divisor_power(g):
        refined = [chain]
        for h in nodes:
            refined = [out for c in refined for out in multiply_by_divisor(c, ("delta", h))]
        for c in refined:
            for decorated in _attach(c, omega):
                total += evaluate_chain(decorated)
    return omega.coefficient * total / factorial(g)


def pair_dr_side(g: int, omega: PsiKappaMonomial) -> Fraction:
    """Coefficient of a^(2g) in the capped double-ramification pairing
    against omega, computed entirely in the tree strata algebra."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    if omega.codim != g - 1:
        raise ValueError(f"omega must have codim {g - 1}, got {omega.codim}")
    return _pair(DecoratedChain((ChainVertex(g, omega.d1, omega.d2, omega.kappa),)))


def pair_dr_boundary(omega: DecoratedChain) -> Fraction:
    """Pair against a decorated two-vertex boundary class by strata
    refinement: multiply each expanded chain by the underlying separating
    divisor, then lay omega's decorations around the resulting node."""
    if len(omega.vertices) != 2:
        raise ValueError("boundary test class must have exactly 2 vertices")
    return _pair(omega)
