import itertools
import math
from fractions import Fraction

import pytest

from gdr.bamboo import pair_bamboo_boundary, pair_bamboo_side
from gdr.cli import enumerate_omegas
from gdr.core import ChainVertex, DecoratedChain, PsiKappaMonomial, kappa_map
from gdr.hain import (
    evaluate_chain,
    expand_divisor_power,
    hain_divisor_terms,
    multiply_by_divisor,
    pair_dr_boundary,
    pair_dr_side,
)
from gdr.hodge import psi_lambda_g_integral

HALF = Fraction(1, 2)


def trivial_chain(g: int) -> DecoratedChain:
    return DecoratedChain((ChainVertex(g),))


def weighted_divisor_candidates(g: int) -> list:
    """Every degree-1 divisor candidate as (term, markings on the marked
    side, weight), the weight a function of the ramification parameter a.

    The ramification profile is (a, -a). psi_i weighs +1/2 (a_i)^2; a
    boundary divisor weighs -1/2 (sum of a_i on one side)^2, so a divisor
    keeping both markings on one side weighs -1/2 (a - a)^2 = 0.
    """
    ramification = {1: 1, 2: -1}

    def weight(sign, markings):
        return lambda a: sign * HALF * sum(ramification[i] * a for i in markings) ** 2

    out = [(f"psi{i}", (i,), weight(1, (i,))) for i in (1, 2)]
    out += [(("delta", h), (1,), weight(-1, (1,))) for h in range(1, g)]
    out += [(("delta_both", h), (1, 2), weight(-1, (1, 2))) for h in range(0, g)]
    return out


class TestDivisorTerms:
    def test_genus_1_has_no_boundary_terms(self):
        assert hain_divisor_terms(1) == [("psi1", HALF), ("psi2", HALF)]

    def test_genus_3(self):
        assert hain_divisor_terms(3) == [
            ("psi1", HALF),
            ("psi2", HALF),
            (("delta", 1), -HALF),
            (("delta", 2), -HALF),
        ]

    def test_dropped_candidates_have_zero_weight(self):
        # divisors keeping both markings on one side get (a - a)^2 = 0
        for term, markings, weight in weighted_divisor_candidates(3):
            if markings == (1, 2):
                assert weight(1) == weight(5) == 0
            else:
                assert weight(1) != 0

    def test_nonzero_candidates_match_divisor_terms(self):
        # D is the coefficient of a^2: the candidates' weights at a = 1
        for g in (1, 2, 3, 4):
            nonzero = [
                (term, weight(1))
                for term, _, weight in weighted_divisor_candidates(g)
                if weight(1)
            ]
            assert nonzero == hain_divisor_terms(g)

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_a_degree_is_exactly_2g(self, g):
        # every weight is homogeneous of degree 2 in a, so every g-fold
        # product is homogeneous of degree exactly 2g: scaling a by 3
        # scales it by 3^(2g), and no other power of a can arise
        weights = [weight for _, _, weight in weighted_divisor_candidates(g)]
        for weight in weights:
            assert weight(3) == 9 * weight(1)
        for factors in itertools.combinations_with_replacement(weights, g):
            assert math.prod(w(3) for w in factors) == 3 ** (2 * g) * math.prod(w(1) for w in factors)


class TestMultiplyByDivisor:
    def test_psi_terms_decorate_outer_legs(self):
        chain = DecoratedChain((ChainVertex(1), ChainVertex(2)))
        (left,) = multiply_by_divisor(chain, "psi1")
        assert left.vertices[0].left_psi == 1 and left.vertices[1].right_psi == 0
        (right,) = multiply_by_divisor(chain, "psi2")
        assert right.vertices[1].right_psi == 1 and right.vertices[0].left_psi == 0

    def test_delta_splits_the_containing_vertex(self):
        (split,) = multiply_by_divisor(trivial_chain(2), ("delta", 1))
        assert [v.genus for v in split.vertices] == [1, 1]
        assert split.coefficient == 1

    def test_self_intersection_is_the_excess_rule(self):
        # delta_1 * delta_1 on the trivial genus-2 chain: split, then
        # -psi' - psi'' at the node, never a 3-vertex chain
        (split,) = multiply_by_divisor(trivial_chain(2), ("delta", 1))
        excess = multiply_by_divisor(split, ("delta", 1))
        assert len(excess) == 2
        assert all(len(c.vertices) == 2 for c in excess)
        assert all(c.coefficient == -1 for c in excess)
        legs = sorted((c.vertices[0].right_psi, c.vertices[1].left_psi) for c in excess)
        assert legs == [(0, 1), (1, 0)]

    def test_split_keeps_side_decorations(self):
        chain = DecoratedChain((ChainVertex(3, 2, 1),))
        for out in multiply_by_divisor(chain, ("delta", 1)):
            left, right = out.vertices
            assert (left.left_psi, left.right_psi) == (2, 0)
            assert (right.left_psi, right.right_psi) == (0, 1)

    def test_split_distributes_kappa_with_multiplicity(self):
        chain = DecoratedChain((ChainVertex(2, 0, 0, kappa_map({1: 2})),))
        out = multiply_by_divisor(chain, ("delta", 1))
        table = {(c.vertices[0].kappa, c.vertices[1].kappa): c.coefficient for c in out}
        assert table == {
            (kappa_map({1: 2}), ()): 1,
            (kappa_map({1: 1}), kappa_map({1: 1})): 2,
            ((), kappa_map({1: 2})): 1,
        }

    def test_malformed_term_rejected(self):
        with pytest.raises(ValueError):
            multiply_by_divisor(trivial_chain(2), "psi3")
        with pytest.raises(ValueError):
            multiply_by_divisor(trivial_chain(2), ("delta", 2))
        with pytest.raises(ValueError):
            multiply_by_divisor(trivial_chain(2), ("delta", 0))


class TestExpansion:
    def test_genus_2_aggregated_chains(self):
        v = ChainVertex
        expected = {
            (v(2, 2, 0),): Fraction(1, 4),
            (v(2, 1, 1),): Fraction(1, 2),
            (v(2, 0, 2),): Fraction(1, 4),
            (v(1, 1, 0), v(1)): Fraction(-1, 2),
            (v(1), v(1, 0, 1)): Fraction(-1, 2),
            (v(1, 0, 1), v(1)): Fraction(-1, 4),
            (v(1), v(1, 1, 0)): Fraction(-1, 4),
        }
        actual = {c.vertices: c.coefficient for c in expand_divisor_power(2)}
        assert actual == expected

    @pytest.mark.parametrize("g", [2, 3])
    def test_order_independence(self, g):
        # the strata product is commutative: any ordering of a multiset of
        # divisor factors lands on the same aggregated chain sum
        terms = [term for term, _ in hain_divisor_terms(g)]
        for multiset in itertools.combinations_with_replacement(terms, g):
            reference = None
            for order in set(itertools.permutations(multiset)):
                chains = [trivial_chain(g)]
                for term in order:
                    chains = [
                        out for chain in chains for out in multiply_by_divisor(chain, term)
                    ]
                acc: dict = {}
                for chain in chains:
                    acc[chain.vertices] = acc.get(chain.vertices, Fraction(0)) + chain.coefficient
                acc = {k: c for k, c in acc.items() if c}
                if reference is None:
                    reference = acc
                else:
                    assert acc == reference


class TestEvaluation:
    def test_genus_2_hand_pieces(self):
        # (psi_1 + psi_2)^2 psi_2 capped on the undegenerate stratum
        piece1 = sum(
            psi_lambda_g_integral(2, (2 - i, i + 1)) * [1, 2, 1][i] for i in range(3)
        )
        assert piece1 == Fraction(7, 576)
        # (psi_1 + psi_2) psi_2 on the split stratum
        chains = [
            DecoratedChain((ChainVertex(1, 1, 0), ChainVertex(1, 0, 1))),
            DecoratedChain((ChainVertex(1), ChainVertex(1, 0, 2))),
        ]
        piece2 = sum(evaluate_chain(c) for c in chains)
        assert piece2 == Fraction(1, 576)
        # delta_1^2 psi_2: excess terms against the split stratum
        (split,) = multiply_by_divisor(trivial_chain(2), ("delta", 1))
        piece3 = Fraction(0)
        for chain in multiply_by_divisor(split, ("delta", 1)):
            last = chain.vertices[-1]
            bumped = chain.with_vertex(
                1, ChainVertex(last.genus, last.left_psi, last.right_psi + 1, last.kappa)
            )
            piece3 += evaluate_chain(bumped)
        assert piece3 == Fraction(-1, 576)
        # assembled: quarter bracket, then the 1/2! normalization
        assert (piece1 - 2 * Fraction(1, 576) + piece3) / 4 / 2 == Fraction(1, 1152)

    def test_vertex_dimension_filter(self):
        assert evaluate_chain(DecoratedChain((ChainVertex(1, 1, 0),))) == Fraction(1, 24)
        assert evaluate_chain(DecoratedChain((ChainVertex(1, 1, 1),))) == 0
        assert evaluate_chain(DecoratedChain((ChainVertex(2, 3, 0),))) == Fraction(7, 5760)


class TestPairing:
    def test_genus_1_unit(self):
        assert pair_dr_side(1, PsiKappaMonomial()) == Fraction(1, 24)

    def test_genus_2_psi_values(self):
        assert pair_dr_side(2, PsiKappaMonomial(0, 1)) == Fraction(1, 1152)
        assert pair_dr_side(2, PsiKappaMonomial(1, 0)) == Fraction(1, 1152)

    def test_genus_2_kappa_cross_pipeline(self):
        omega = PsiKappaMonomial(0, 0, kappa_map({1: 1}))
        assert pair_dr_side(2, omega) == pair_bamboo_side(2, omega)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pair_dr_side(2, PsiKappaMonomial())
        with pytest.raises(ValueError):
            pair_dr_side(1, PsiKappaMonomial(1, 0))

    def test_marking_swap_is_manifest(self):
        for g in (2, 3):
            for a in range(g):
                assert pair_dr_side(g, PsiKappaMonomial(a, g - 1 - a)) == pair_dr_side(
                    g, PsiKappaMonomial(g - 1 - a, a)
                )


class TestBoundaryPairing:
    def test_bare_separating_divisor_at_genus_2(self):
        omega = DecoratedChain((ChainVertex(1), ChainVertex(1)))
        assert pair_dr_boundary(omega) == Fraction(1, 576)
        assert pair_dr_boundary(omega) == pair_bamboo_boundary(omega)

    def test_decorated_boundary_matches_bamboo_side_at_genus_3(self):
        cases = [
            DecoratedChain((ChainVertex(1), ChainVertex(2, 1, 0))),
            DecoratedChain((ChainVertex(1), ChainVertex(2, 0, 1))),
            DecoratedChain((ChainVertex(1), ChainVertex(2, 0, 0, kappa_map({1: 1})))),
            DecoratedChain((ChainVertex(2, 1, 0), ChainVertex(1))),
            DecoratedChain((ChainVertex(2, 0, 0, kappa_map({1: 1})), ChainVertex(1))),
        ]
        for omega in cases:
            dr = pair_dr_boundary(omega)
            assert dr == pair_bamboo_boundary(omega)
            assert dr != 0

    def test_unbalanced_boundary_agrees_on_zero(self):
        omega = DecoratedChain((ChainVertex(1, 1, 0), ChainVertex(2)))
        assert pair_dr_boundary(omega) == pair_bamboo_boundary(omega) == 0

    def test_wrong_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            pair_dr_boundary(DecoratedChain((ChainVertex(2, 1, 1),)))

    @pytest.mark.parametrize("g,count", [(3, 12), (4, 69)])
    def test_factorizes_into_monomial_pairings(self, g, count):
        # independent oracle for the divisor-side attach: D restricted to
        # delta_h is D_left + D_right, so the pairing against
        # delta_h[a | b] is pair(h, a) * pair(g - h, b), with the node
        # branches playing the missing markings. A side whose decoration
        # has the wrong codimension contributes 0.
        def side(genus, vertex):
            monomial = PsiKappaMonomial(vertex.left_psi, vertex.right_psi, vertex.kappa)
            return pair_dr_side(genus, monomial) if monomial.codim == genus - 1 else 0

        classes = [
            t.boundary for t in enumerate_omegas(g, include_kappa=True, include_boundary=True) if t.boundary
        ]
        assert len(classes) == count
        for omega in classes:
            left, right = omega.vertices
            assert pair_dr_boundary(omega) == side(left.genus, left) * side(right.genus, right)
