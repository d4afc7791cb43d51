from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdr.bamboo import (
    _pair,
    enumerate_bamboos,
    pair_bamboo_boundary,
    pair_bamboo_side,
    vertex_integral,
)
from gdr.core import (
    Bamboo,
    ChainVertex,
    DecoratedChain,
    PsiKappaMonomial,
    kappa_degree,
    kappa_distributions,
    kappa_map,
)
from gdr.cli import enumerate_omegas
from gdr.correlators import correlator
from memos import clear_memos


def enumerated_pairing(g: int, omega: PsiKappaMonomial) -> Fraction:
    """The bamboo-side pairing by brute force: every bamboo term times
    every distribution of omega's kappa factors over its vertices, with
    omega's psi_1 on the first vertex's left leg and its psi_2 on the
    last vertex's right leg."""
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


@st.composite
def genus_and_monomial(draw):
    """A genus g <= 5 and a monomial whose codim three times in four is
    g - 1 and otherwise is arbitrary, split in any way over psi_1, psi_2
    and kappa factors."""
    g = draw(st.integers(1, 5))
    degree = g - 1 if draw(st.integers(0, 3)) else draw(st.integers(0, 5))
    psi = [0, 0]
    kappa: dict = {}
    while degree:
        slot = draw(st.sampled_from(("psi1", "psi2", "kappa")))
        if slot == "kappa":
            index = draw(st.integers(1, degree))
            kappa[index] = kappa.get(index, 0) + 1
            degree -= index
        else:
            psi[slot == "psi2"] += 1
            degree -= 1
    return g, PsiKappaMonomial(psi[0], psi[1], kappa_map(kappa))


class TestEnumeration:
    def test_genus_1(self):
        assert enumerate_bamboos(1) == [Bamboo(((1, 2),))]

    def test_genus_2(self):
        assert enumerate_bamboos(2) == [
            Bamboo(((2, 4),)),
            Bamboo(((1, 0), (1, 3))),
            Bamboo(((1, 1), (1, 2))),
        ]

    def test_invalid_genus_rejected(self):
        with pytest.raises(ValueError):
            enumerate_bamboos(0)

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_all_terms_valid_and_distinct(self, g):
        bamboos = enumerate_bamboos(g)
        assert len(bamboos) == len(set(bamboos))
        for b in bamboos:
            assert b.genus == g
            k = len(b.vertices)
            assert sum(d for _, d in b.vertices) + k - 1 == 2 * g
            Bamboo(b.vertices)  # re-validate the prefix constraint

    def test_order_is_deterministic(self):
        assert enumerate_bamboos(3) == enumerate_bamboos(3)
        assert enumerate_bamboos(3) == sorted(
            enumerate_bamboos(3), key=lambda b: (len(b.vertices), b.vertices)
        )

    def test_constraint_orientation_sensitive_at_genus_3(self):
        violations = 0
        for b in enumerate_bamboos(3):
            vs = b.vertices
            if len(vs) >= 2 and vs[0][1] < vs[-1][1]:
                try:
                    Bamboo(tuple(reversed(vs)))
                except ValueError:
                    violations += 1
        assert violations > 0

    def test_signs(self):
        for b in enumerate_bamboos(3):
            assert b.sign == (-1) ** (len(b.vertices) - 1)


class TestPairing:
    def test_genus_1_unit(self):
        assert pair_bamboo_side(1, PsiKappaMonomial()) == Fraction(1, 24)

    def test_genus_2_psi2_reduces_to_single_term(self):
        # only the one-vertex term survives vertex-dimension vanishing:
        # <tau_0 tau_5>_2 = <tau_4>_2 by the string equation
        assert pair_bamboo_side(2, PsiKappaMonomial(0, 1)) == correlator(2, (4,))
        assert pair_bamboo_side(2, PsiKappaMonomial(0, 1)) == Fraction(1, 1152)

    def test_genus_2_psi1_hand_reduction(self):
        # <tau_1 tau_4>_2 - <tau_1 tau_1>_1 <tau_0 tau_2>_1 = 1/384 - 1/576
        expected = correlator(2, (1, 4)) - correlator(1, (1, 1)) * correlator(1, (0, 2))
        assert expected == Fraction(1, 1152)
        assert pair_bamboo_side(2, PsiKappaMonomial(1, 0)) == expected

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pair_bamboo_side(2, PsiKappaMonomial(2, 0))
        with pytest.raises(ValueError):
            pair_bamboo_side(1, PsiKappaMonomial(0, 0, kappa_map({1: 1})))

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_marking_swap_symmetry(self, g):
        # not manifest in the enumeration (the prefix constraint is
        # asymmetric) but forced by symmetry of the capped cycle
        for a in range(g):
            b = g - 1 - a
            assert pair_bamboo_side(g, PsiKappaMonomial(a, b)) == pair_bamboo_side(
                g, PsiKappaMonomial(b, a)
            )

    @pytest.mark.parametrize("g", [2, 3])
    def test_terms_drop_only_by_dimension(self, g):
        # a vertex product vanishes iff some vertex integral is
        # dimension-mismatched; dimension-valid vertex integrals of the
        # two-point correlator are strictly positive
        for omega in (PsiKappaMonomial(g - 1, 0), PsiKappaMonomial(0, 0, kappa_map({1: g - 1}))):
            for bamboo in enumerate_bamboos(g):
                k = len(bamboo.vertices)
                for mult, parts in kappa_distributions(omega.kappa, k):
                    product = Fraction(1)
                    balanced = True
                    for v, (genus_v, d_v) in enumerate(bamboo.vertices):
                        left = omega.d1 if v == 0 else 0
                        right = d_v + (omega.d2 if v == k - 1 else 0)
                        balanced &= (
                            left + right + kappa_degree(parts[v]) == 3 * genus_v - 1
                        )
                        product *= vertex_integral(genus_v, left, right, parts[v])
                    assert (product != 0) == balanced


class TestDynamicProgram:
    # the examples are classes where the prefix bound G_l <= K_l + d_1
    # binds: dropping it changes their value
    @settings(max_examples=150)
    @given(case=genus_and_monomial())
    @example(case=(2, PsiKappaMonomial(0, 1)))
    @example(case=(2, PsiKappaMonomial(0, 0, kappa_map({1: 1}))))
    @example(case=(3, PsiKappaMonomial(1, 0, kappa_map({1: 1}))))
    @example(case=(4, PsiKappaMonomial(0, 1, kappa_map({2: 1}))))
    @example(case=(5, PsiKappaMonomial(0, 0, kappa_map({1: 2, 2: 1}))))
    def test_matches_enumeration(self, case):
        g, omega = case
        assert _pair(g, omega) == enumerated_pairing(g, omega)

    @pytest.mark.parametrize(
        "g,omega",
        [
            (1, PsiKappaMonomial(1, 0)),
            (2, PsiKappaMonomial()),
            (3, PsiKappaMonomial(0, 1, kappa_map({1: 2}))),
            (4, PsiKappaMonomial(1, 1)),
        ],
    )
    def test_degree_mismatch_is_zero(self, g, omega):
        assert omega.codim != g - 1
        assert _pair(g, omega) == enumerated_pairing(g, omega) == 0


class TestBoundaryPairing:
    def test_factorizes_across_the_node(self):
        omega = DecoratedChain((ChainVertex(1), ChainVertex(2, 0, 1)))
        expected = pair_bamboo_side(1, PsiKappaMonomial()) * pair_bamboo_side(
            2, PsiKappaMonomial(0, 1)
        )
        assert pair_bamboo_boundary(omega) == expected == Fraction(1, 27648)

    def test_unbalanced_decoration_gives_zero(self):
        omega = DecoratedChain((ChainVertex(1, 1, 0), ChainVertex(2)))
        assert pair_bamboo_boundary(omega) == 0

    def test_wrong_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            pair_bamboo_boundary(DecoratedChain((ChainVertex(3, 1, 1),)))


def bamboo_values(g, classes):
    return [test_class.bamboo_value(g) for test_class in classes]


class TestSharedMemos:
    def test_sharing_cannot_change_a_value(self):
        # vertex_integral and _pair are shared by every class of the
        # process, so a key that missed part of what a value depends on
        # would let one class see another's value: the order of the classes,
        # and whether any class ran before, must not matter
        classes = enumerate_omegas(5, include_kappa=True, include_boundary=True)
        clear_memos()
        forward = bamboo_values(5, classes)
        clear_memos()
        backward = bamboo_values(5, classes[::-1])[::-1]
        isolated = []
        for test_class in classes:
            clear_memos()
            isolated.append(test_class.bamboo_value(5))
        assert len(classes) == 306
        assert forward == backward == isolated
