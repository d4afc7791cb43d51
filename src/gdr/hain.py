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
is what :func:`gdr.hodge.psi_lambda_g_integral` evaluates:
multinomial(exps) b_g in dimension, b_g times :func:`gdr.hodge.capped_unit`.

Distinct delta_h meet transversally and the excess rule gives
delta_h^m = delta_h (-psi' - psi'')^(m-1), so the multinomial expansion
of (1/g!) D^g is a sum over chains of a product of local factors:

    (1/2)^a/a! psi_1^a * (1/2)^b/b! psi_2^b
        * prod_{nodes h} -(1/2)^m/m! C(m-1, i) delta_h psi'^i psi''^(m-1-i),

with m >= 1 at every node. :func:`pair_dr_boundary` evaluates the
pairing against a decorated chain omega of any length from these
factors. Every node of omega is a node of each refined chain, so D
refines each vertex ("run") of omega on its own. At a node of omega,
delta_h (-delta_h)^m = delta_h (psi' + psi'')^m gives psi'^i psi''^j
the weight

    (1/2)^m/m! C(m, i) = (1/2)^i/i! * (1/2)^j/j!,    m = i + j,

the weights of D's psi_2^i and psi_1^j on the markings: D restricted to
delta_h is D_left + D_right. So the pairing is a product over the runs:

- :func:`_run` sums, over every way D splits a run into vertices and
  shares out its kappa, the capped vertex integrals times the weights of
  D's nodes inside the run and the weight (1/2)^i/i! of D's part i of
  the psi power on the run's outgoing leg, whether that leg is a marking
  or a node of omega. It depends on the run alone (genus, incoming psi
  power, kappa, omega's psi power on its right leg) and returns one
  number, scaled to an integer as below.
- :func:`_transfer` is the node of D after a vertex with outgoing power
  i: the weights -(1/2)^m/m! C(m-1, i) times the rest of the run,
  summed over the power entering the next vertex.
- :func:`_capped_run` sums a vertex's runs against the weight
  (1/2)^a/a! of D's psi power a on its left leg.

These are memoized for the whole process, so every class of a `verify`
run reuses the runs that earlier classes computed.

The runs are integers. The cap's support fixes D's total power in a
run: its vertices have degrees 2g_v - 1, so a run of genus h and kappa
degree K, with psi power `incoming` on its left leg and omega's
`right_psi` on its right leg, has D's power

    t = s + i = 2h - 1 - K - right_psi - incoming,

s at its internal nodes and i on its outgoing leg, whichever way D
splits it. Each weight (1/2)^m/m!, at a node or on the outgoing leg,
has denominator 2^m m!, and these m sum to t, so 2^t t! clears them all
(t!/prod m! is a multinomial). The vertex integrals are b_(g_v) times
an integer, and beta_h, the lcm of den(b_h) and den(b_f) beta_(h-f)
over 1 <= f < h, clears every prod b_(g_v) over the ways to split h.
So :func:`_run` returns beta_h 2^t t! sum_i w_i/(2^i i!), an integer,
w_i being the weight of outgoing power i. A vertex contributes
beta_h b_f / beta_(h-f) times its integral over b_f, a closing vertex
1 for its outgoing power (t = i there), and a node of D
-C(m-1, i) C(t, m). :func:`_capped_run` builds one Fraction per vertex
key: with top = a + t, D's whole power on omega's vertex, it divides
sum_a C(top, a) times the run by beta_h 2^top top!.
:func:`pair_dr_boundary` multiplies the memoized factors of omega's
vertices into the one Fraction of a pairing.

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
from math import comb, factorial, lcm
from typing import List, Tuple, Union

from .core import (
    ChainVertex,
    DecoratedChain,
    KappaMap,
    PsiKappaMonomial,
    kappa_degree,
    kappa_distributions,
    kappa_splits,
)
from .hodge import capped_unit, lambda_g_constant, psi_lambda_g_integral
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
def _scale(genus: int) -> int:
    """beta_genus, a common denominator of prod b_(g_v) over every way to
    split `genus` into vertex genera g_v >= 1, memoized for the whole process."""
    if genus == 0:
        return 1
    return lcm(*(lambda_g_constant(f).denominator * _scale(genus - f) for f in range(1, genus + 1)))


@lru_cache(maxsize=None)
def _vertex_weight(genus: int, first: int) -> int:
    """beta_genus * b_first / beta_(genus - first): the factor a run of genus
    `genus` gives its first vertex, of genus `first`. An integer, since
    beta_genus is a multiple of den(b_first) * beta_(genus - first)."""
    b = lambda_g_constant(first)
    return _scale(genus) // (b.denominator * _scale(genus - first)) * b.numerator


@lru_cache(maxsize=None)
def _vertex(genus: int, left: int, right: int, kappa: KappaMap) -> int:
    """Capped two-leg vertex integral over b_genus, an integer, memoized for
    the whole process."""
    return integrate(capped_unit, genus, (left, right), kappa)


@lru_cache(maxsize=None)
def _run(genus: int, incoming: int, kappa: KappaMap, right_psi: int) -> int:
    """One run of omega, refined by D in every way, with D's psi power i on
    its outgoing leg summed out against the weight (1/2)^i/i!.

    The run has genus `genus`, psi power `incoming` on the left leg of its
    first vertex, the kappa decoration `kappa` and omega's psi power
    `right_psi` on the right leg of its last vertex. The value sums, over
    the ways D splits the run into vertices and shares out its kappa, the
    capped vertex integrals times the weights of D's nodes inside the run
    and of i, as the integer on the scale beta_genus 2^t t!, t being D's
    power inside the run and on its outgoing leg.
    """
    total = 0
    for first in range(1, genus + 1):
        closes_run = first == genus
        weight = _vertex_weight(genus, first)
        for mult, share, rest, share_degree in kappa_splits(kappa):
            if closes_run and rest:
                continue
            # the cap's support fixes the outgoing leg power; i is D's part of it
            outgoing = 2 * first - 1 - incoming - share_degree
            i = outgoing - right_psi if closes_run else outgoing
            if i < 0:
                continue
            value = mult * _vertex(first, incoming, outgoing, share)
            if not value:
                continue
            if not closes_run:
                # a node of D follows; t is the same for the run and its transfer
                value *= _transfer(i, genus - first, rest, right_psi)
            # on a closing vertex t = i, and (1/2)^i/i! is 1 on the scale 2^i i!
            total += value * weight
    return total


@lru_cache(maxsize=None)
def _transfer(i: int, genus: int, kappa: KappaMap, right_psi: int) -> int:
    """A node of D inside a run, with psi'^i on its left branch, glued to
    the rest of the run: the node weights -(1/2)^m/m! C(m-1, i) times the
    rest's value, on the scale beta_genus 2^t t! with t = m + t', t' being
    the rest's t. Rescaling the rest from 2^t' t'! turns the node weight
    into -C(m-1, i) C(t, m)."""
    # the rest's t' = top - nxt, so t = top + i + 1 whatever nxt is
    top = 2 * genus - 1 - kappa_degree(kappa) - right_psi
    t = top + i + 1
    total = 0
    for nxt in range(top + 1):
        m = i + 1 + nxt
        total -= comb(m - 1, i) * comb(t, m) * _run(genus, nxt, kappa, right_psi)
    return total


@lru_cache(maxsize=None)
def _capped_run(genus: int, left_psi: int, kappa: KappaMap, right_psi: int) -> Fraction:
    """One vertex of omega, refined by D in every way, with D's psi powers
    on both of its outer legs summed out: the weight (1/2)^a/a! of psi^a
    on the left leg times :func:`_run`, which sums out the right leg. D's
    whole power on the vertex is top = a + t, so each term is
    C(top, a) times the run over the one denominator beta_genus 2^top top!."""
    top = 2 * genus - 1 - kappa_degree(kappa) - left_psi - right_psi
    if top < 0:
        return Fraction(0)
    total = sum(comb(top, a) * _run(genus, a + left_psi, kappa, right_psi) for a in range(top + 1))
    return Fraction(total, _scale(genus) * 2 ** top * factorial(top))


def pair_dr_side(g: int, omega: PsiKappaMonomial) -> Fraction:
    """Coefficient of a^(2g) in the capped double-ramification pairing
    against omega, the one-vertex case of :func:`pair_dr_boundary`: the
    memoized factor of its one vertex, keyed on the vertex tuple, so no
    chain is built."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    if omega.codim != g - 1:
        raise ValueError(f"omega must have codim {g - 1}, got {omega.codim}")
    return _capped_run(g, omega.d1, omega.kappa, omega.d2)


def pair_dr_boundary(omega: DecoratedChain) -> Fraction:
    """(1/g!) int D^g * omega for a decorated chain omega of any length:
    no state crosses omega's nodes (see the module docstring), so the
    :func:`_capped_run` factors of its vertices, shared by every class of
    the process, and its coefficient multiply into one Fraction."""
    # codim + decoration degree = genus - 1, summed over the vertices
    if sum(v.genus - 1 - v.decoration_degree for v in omega.vertices):
        # D^g pairs to 0 with it; the program never counts powers of D,
        # since the cap's support fixes their total at g for this codim only
        return Fraction(0)
    num, den = omega.coefficient.numerator, omega.coefficient.denominator
    for v in omega.vertices:
        factor = _capped_run(v.genus, v.left_psi, v.kappa, v.right_psi)
        num *= factor.numerator
        den *= factor.denominator
    return Fraction(num, den)
