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
multinomial(exps) b_g in dimension.

A two-leg vertex of genus f with psi powers l and r and kappa K is in
dimension when l + r + deg K = 2f - 1. The kappa expansion turns K into
new markings e_1..e_p with sum e_j = deg K + p, each block adding one,
so its integral over b_f is the sum over the expansion of the
multinomials (l, r, e_1..e_p): V(2f - 1, K) C(l + r, l), with

    V(points, K) = sum over the expansion of the multinomials
                   (points - deg K; e_1..e_p),

which depends on f and K alone, as l + r = 2f - 1 - deg K.
:func:`_vertex_table` is that table, built by a one-factor pushforward
of its own that reads neither gdr.kappa nor
:func:`gdr.core.kappa_splits`, so a fault in the bamboo side's kappa
expansion moves one side only. A fault in kappa_splits moves the bamboo
side in two places, its chain program and its kappa expansion, and this
side in one, the chain program of :func:`_run`; it still reaches the
comparison, as tests/test_independence.py shows. Nothing divides: the
pushforward merges the last factor into one new marking m and leaves a
rest at points + 1, and each multinomial (n; m, e'), n = points - deg K,
is C(n + m, m) times the rest's multinomial (n + m; e'), where n + m is
points + 1 less the rest's degree: every table is a signed sum of
integer products.

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
  or a node of omega. Its key is the run alone (genus, kappa, omega's
  psi power on its right leg), and it returns a vector: one integer,
  scaled as below, for each psi power the run's incoming leg can carry,
  built in one pass over the first vertex, the kappa split and that
  power.
- :func:`_transfers` is the node of D after a vertex with outgoing power
  i: the weights -(1/2)^m/m! C(m-1, i) times the rest of the run,
  summed over the power entering the next vertex. The rest's memo entry
  keeps a list T(0), T(1), ... beside its vector, and a parent that
  needs a longer list extends it in place.
- :func:`_capped_run` sums a vertex's run vector against the weight
  (1/2)^a/a! of D's psi power a on its left leg.

:func:`_run` and :func:`_capped_run` are memoized for the whole
process, so every class of a `verify` run reuses the runs that earlier
classes computed.

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
So entry `incoming` of :func:`_run`'s vector is
beta_h 2^t t! sum_i w_i/(2^i i!), an integer, w_i being the weight of
outgoing power i. A vertex contributes beta_h b_f / beta_(h-f) times
its integral over b_f, the vertex that closes the run 1 for its
outgoing power (t = i there), and a node of D -C(m-1, i) C(t, m).
Every vertex that a run places first has the entry's `incoming` power
on its left leg, so :func:`_run` weights its V(2f - 1, K) by
C(out, incoming), out being its outgoing power, and the closing
vertex's by C(top + right_psi, incoming).
A rest with no room for D's power, its t below 0, contributes 0 and is
never built. :func:`_capped_run` builds one Fraction per vertex key:
with top = a + t, D's whole power on omega's vertex, it divides
sum_a C(top, a) times the run's entry a + left_psi by beta_h 2^top top!.
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
    kappa_degree,
    kappa_distributions,
    kappa_splits,
)
from .hodge import lambda_g_constant, psi_lambda_g_integral
from .kappa import _extension

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
    vertices, coefficient = chain.vertices, chain.coefficient
    if term == "psi1":
        first = ChainVertex(vertices[0].genus, vertices[0].left_psi + 1, vertices[0].right_psi, vertices[0].kappa)
        return [DecoratedChain((first,) + vertices[1:], coefficient)]
    if term == "psi2":
        last = ChainVertex(vertices[-1].genus, vertices[-1].left_psi, vertices[-1].right_psi + 1, vertices[-1].kappa)
        return [DecoratedChain(vertices[:-1] + (last,), coefficient)]
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
            nxt = vertices[j + 1]
            bumped_left = ChainVertex(v.genus, v.left_psi, v.right_psi + 1, v.kappa)
            bumped_right = ChainVertex(nxt.genus, nxt.left_psi + 1, nxt.right_psi, nxt.kappa)
            return [
                DecoratedChain(vertices[:j] + (bumped_left, nxt) + vertices[j + 2:], -coefficient),
                DecoratedChain(vertices[:j] + (v, bumped_right) + vertices[j + 2:], -coefficient),
            ]
        if below < h < cumulative:
            out = []
            for mult, (kappa_l, kappa_r) in kappa_distributions(v.kappa, 2):
                left = ChainVertex(h - below, v.left_psi, 0, kappa_l)
                right = ChainVertex(cumulative - h, 0, v.right_psi, kappa_r)
                refined = vertices[:j] + (left, right) + vertices[j + 1:]
                out.append(DecoratedChain(refined, coefficient * mult))
            return out
    raise AssertionError("unreachable: every 1 <= h <= g-1 hits a node or a vertex")


def expand_divisor_power(g: int) -> List[DecoratedChain]:
    """All chain strata of D^g with aggregated coefficients (without the
    final 1/g! normalization), in the order of their vertex tuples
    (a :class:`ChainVertex` orders by its fields)."""
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
            for vs, coeff in sorted(acc.items())
            if coeff
        ]
    return chains


def evaluate_chain(chain: DecoratedChain) -> Fraction:
    """Integrate a capped decorated chain: product over vertices of the
    lambda-capped two-leg integral, times the chain coefficient."""
    value = chain.coefficient
    for v in chain.vertices:
        # support of the capped evaluation: decoration degree = 2g - 3 + n
        if not value or v.decoration_degree != 2 * v.genus - 1:
            return Fraction(0)
        value *= sum(c * psi_lambda_g_integral(v.genus, (v.left_psi, v.right_psi) + e) for c, e in _extension(v.kappa))
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
def _vertex_table(points: int, kappa: KappaMap) -> int:
    """V(points, kappa): the sum over the kappa expansion of the
    multinomials (points - deg kappa; e_1..e_p), the e_j being the new
    markings, for deg kappa <= points; memoized for the whole process.

    It is its own one-factor pushforward: the last factor kappa_b takes
    t_i more factors of each index i, in prod C(c_i, t_i) ways with the
    sign (-1)^(sum t), into one marking m = b + 1 + sum i t_i, so the rest
    adds its markings to points + 1 and each of its multinomials comes
    with C(points - deg kappa + m, m), the ways to place the m."""
    if not kappa:
        return 1
    # free = points - deg kappa, the part of each multinomial beside the e_j
    (index, count), free = kappa[-1], points - kappa_degree(kappa)
    # (signed ways w, marking m, rest r) for every choice of the t_i; r
    # keeps an index whose factors all merge, with count 0, until the end
    terms = [(1, index + 1, ())]
    for i, c in kappa[:-1] + ((index, count - 1),):
        terms = [(w * (-1) ** t * comb(c, t), m + i * t, r + ((i, c - t),)) for w, m, r in terms for t in range(c + 1)]
    return sum(w * comb(free + m, m) * _vertex_table(points + 1, tuple(e for e in r if e[1])) for w, m, r in terms)


@lru_cache(maxsize=None)
def _run(genus: int, kappa: KappaMap, right_psi: int) -> Tuple[Tuple[int, ...], List[int]]:
    """One run of omega, refined by D in every way, with D's psi power i on
    its outgoing leg summed out against the weight (1/2)^i/i!, for every
    psi power on its left leg at once; and the run's transfer list.

    The run has genus `genus`, the kappa decoration `kappa` and omega's psi
    power `right_psi` on the right leg of its last vertex. Entry `incoming`
    of the tuple, for incoming = 0..top with
    top = 2 genus - 1 - deg kappa - right_psi, is the run with
    psi^incoming on the left leg of its first vertex: the sum, over the
    ways D splits the run into vertices and shares out its kappa, of the
    capped vertex integrals times the weights of D's nodes inside the run
    and of i, as the integer on the scale beta_genus 2^t t!,
    t = top - incoming being D's power inside the run and on its outgoing
    leg.

    The list holds the run's transfers T(0), T(1), ...: it starts empty,
    and :func:`_transfers` extends it in place when a parent asks for a
    longer one, so it belongs to the memo's value, not to its key.

    The first vertex closes the run when it takes all of the run's genus
    and kappa, in one way; those terms come first, and the loop over the
    kappa splits places only vertices that a node of D follows.
    """
    top = 2 * genus - 1 - kappa_degree(kappa) - right_psi
    # the closing vertex: D's part of its outgoing power top + right_psi -
    # incoming is i = top - incoming, and (1/2)^i/i! is 1 on the scale 2^i i!
    closing = _vertex_table(2 * genus - 1, kappa) * _vertex_weight(genus, genus)
    totals = [closing * comb(top + right_psi, incoming) for incoming in range(top + 1)]
    for first in range(1, genus):
        weight = _vertex_weight(genus, first)
        for mult, share, rest, share_degree in kappa_splits(kappa):
            # the cap's support fixes the outgoing leg power, all of it D's
            # part i, at out - incoming; the rest's top is top - out - 1, and
            # a rest with no room for D's power gives 0
            out = 2 * first - 1 - share_degree
            if 0 <= out < top:
                transfers = _transfers(genus - first, rest, right_psi, out + 1)
                value = mult * weight * _vertex_table(2 * first - 1, share)
                for incoming in range(out + 1):
                    totals[incoming] += value * comb(out, incoming) * transfers[out - incoming]
    return tuple(totals), []


def _transfers(genus: int, kappa: KappaMap, right_psi: int, length: int) -> List[int]:
    """The transfer list of a run, extended in its memo to at least `length`
    entries. T(i) is a node of D inside a parent run, with psi'^i on its
    left branch, glued to this run, the rest of the parent: the node
    weights -(1/2)^m/m! C(m-1, i) times the rest's entry for the power
    nxt = m - 1 - i entering it, on the scale beta_genus 2^t t! with
    t = m + t', t' = top - nxt being the rest's t. Rescaling the rest from
    2^t' t'! turns the node weight into -C(m-1, i) C(t, m)."""
    runs, transfers = _run(genus, kappa, right_psi)
    # t = top + i + 1 = len(runs) + i whatever nxt is
    for i in range(len(transfers), length):
        transfers.append(-sum(comb(i + nxt, i) * comb(len(runs) + i, i + 1 + nxt) * run for nxt, run in enumerate(runs)))
    return transfers


@lru_cache(maxsize=None)
def _capped_run(genus: int, left_psi: int, kappa: KappaMap, right_psi: int) -> Fraction:
    """One vertex of omega, refined by D in every way, with D's psi powers
    on both of its outer legs summed out: the weight (1/2)^a/a! of psi^a
    on the left leg times the entry a + left_psi of :func:`_run`, which
    sums out the right leg. D's whole power on the vertex is top = a + t,
    so each term is C(top, a) times the run over the one denominator
    beta_genus 2^top top!."""
    top = 2 * genus - 1 - kappa_degree(kappa) - left_psi - right_psi
    if top < 0:
        return Fraction(0)
    runs = _run(genus, kappa, right_psi)[0]
    total = sum(comb(top, a) * run for a, run in enumerate(runs[left_psi:]))
    return Fraction(total, _scale(genus) * 2 ** top * factorial(top))


def pair_dr_side(vertex: ChainVertex) -> Fraction:
    """Coefficient of a^(2g) in the capped double-ramification pairing
    against omega, the decoration of a genus-g vertex: the one-vertex case
    of :func:`pair_dr_boundary`, the memoized factor of that vertex."""
    if vertex.decoration_degree != vertex.genus - 1:
        raise ValueError(f"omega must have codim {vertex.genus - 1}, got {vertex.decoration_degree}")
    return _capped_run(vertex.genus, vertex.left_psi, vertex.kappa, vertex.right_psi)


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
