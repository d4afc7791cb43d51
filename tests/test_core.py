import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gdr.core import (
    Bamboo,
    ChainVertex,
    DecoratedChain,
    PsiKappaMonomial,
    compositions,
    format_rational,
    kappa_degree,
    kappa_distributions,
    kappa_map,
    kappa_splits,
    multinomial,
    parse_rational,
)

fractions_st = st.fractions(min_value=-100, max_value=100, max_denominator=1000)


def kappa_factors(kappa) -> tuple:
    """Kappa indices as a flat multiset, e.g. {1: 2, 3: 1} -> (1, 1, 3)."""
    out = []
    for i, c in kappa:
        out.extend([i] * c)
    return tuple(out)


class TestRational:
    def test_lowest_terms_and_positive_denominator(self):
        q = Fraction(6, -8)
        assert (q.numerator, q.denominator) == (-3, 4)
        assert format_rational(q) == "-3/4"

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 0)

    def test_worked_sums(self):
        assert Fraction(1, 24) + Fraction(1, 24) == Fraction(1, 12)
        assert Fraction(7, 5760) * Fraction(0, 1) == 0
        # arises in the genus-2 worked check: 3/1152 - 2/1152
        assert Fraction(3, 1152) - Fraction(2, 1152) == Fraction(1, 1152)

    def test_format_parse_round_trip(self):
        for q in (Fraction(0), Fraction(-7, 3), Fraction(1, 24), Fraction(5)):
            assert parse_rational(format_rational(q)) == q

    @pytest.mark.parametrize("bad", ["", "1", "1/0", "1/-2", "a/b", "1/2/3", " 1/2", "1/2 "])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @given(a=fractions_st, b=fractions_st, c=fractions_st)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if a:
            assert a * (1 / a) == 1

    @given(a=fractions_st, b=fractions_st)
    def test_comparison_total_order(self, a, b):
        assert (a < b) + (a == b) + (a > b) == 1


class TestPsiKappaMonomial:
    @pytest.mark.parametrize(
        "d1,d2,kappa,codim",
        [(0, 0, {}, 0), (1, 0, {1: 1}, 2), (2, 1, {2: 1}, 5)],
    )
    def test_codim(self, d1, d2, kappa, codim):
        assert PsiKappaMonomial(d1, d2, kappa_map(kappa)).codim == codim

    def test_codim_additive_under_product(self):
        # the parser multiplies repeated factors, the one product of monomials
        a = PsiKappaMonomial.parse("psi1 kappa1")
        b = PsiKappaMonomial.parse("psi2^2 kappa1 kappa3^2")
        product = PsiKappaMonomial.parse("psi1 kappa1 psi2^2 kappa1 kappa3^2")
        assert product == PsiKappaMonomial(1, 2, kappa_map({1: 2, 3: 2}))
        assert product.codim == a.codim + b.codim

    def test_kappa_canonical_sorted_no_zeros(self):
        m = PsiKappaMonomial(0, 0, ((3, 1), (1, 2), (2, 0)))
        assert m.kappa == ((1, 2), (3, 1))

    def test_structural_equality(self):
        assert PsiKappaMonomial(1, 2, ((1, 1),)) == PsiKappaMonomial(1, 2, kappa_map({1: 1}))

    def test_negative_exponents_rejected(self):
        with pytest.raises(ValueError):
            PsiKappaMonomial(-1, 0)
        with pytest.raises(ValueError):
            PsiKappaMonomial(0, 0, ((1, -1),))
        with pytest.raises(ValueError):
            PsiKappaMonomial(0, 0, ((0, 1),))

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1", PsiKappaMonomial(0, 0)),
            ("", PsiKappaMonomial(0, 0)),
            ("psi1", PsiKappaMonomial(1, 0)),
            ("psi1^2 psi2 kappa1^3 kappa2", PsiKappaMonomial(2, 1, kappa_map({1: 3, 2: 1}))),
            ("psi1 psi1", PsiKappaMonomial(2, 0)),
        ],
    )
    def test_parse(self, text, expected):
        assert PsiKappaMonomial.parse(text) == expected

    def test_str_round_trip(self):
        for m in (
            PsiKappaMonomial(0, 0),
            PsiKappaMonomial(2, 1, kappa_map({1: 2, 4: 1})),
            PsiKappaMonomial(0, 3),
        ):
            assert PsiKappaMonomial.parse(str(m)) == m

    @pytest.mark.parametrize("bad", ["psi3", "kappa0", "psi1^x", "tau2", "kappa^2"])
    def test_parse_rejects_unknown(self, bad):
        with pytest.raises(ValueError):
            PsiKappaMonomial.parse(bad)


class TestBamboo:
    def test_single_vertex(self):
        b = Bamboo(((1, 2),))
        assert b.sign == 1 and sum(g for g, _ in b.vertices) == 1

    def test_sign_alternates_with_length(self):
        assert Bamboo(((1, 0), (1, 3))).sign == -1
        assert Bamboo(((1, 0), (1, 1), (1, 3))).sign == 1

    def test_degree_equation_enforced(self):
        with pytest.raises(ValueError):
            Bamboo(((1, 1),))  # needs d = 2g = 2
        with pytest.raises(ValueError):
            Bamboo(((1, 0), (1, 0)))

    def test_prefix_constraint_enforced(self):
        # reversal of the valid (1,0),(1,3): prefix d1 <= 2g1 - 1 = 1 fails
        with pytest.raises(ValueError):
            Bamboo(((1, 3), (1, 0)))

    def test_constraint_is_orientation_sensitive(self):
        Bamboo(((1, 1), (1, 2)))  # valid
        with pytest.raises(ValueError):
            Bamboo(((1, 2), (1, 1)))  # reversed: 2 + 0 > 2*1 - 1

    def test_genus_zero_vertex_rejected(self):
        with pytest.raises(ValueError):
            Bamboo(((0, 1), (2, 4)))

    def test_str(self):
        assert str(Bamboo(((1, 0), (1, 3)))) == "-1 1:0|1:3"


class TestDecoratedChain:
    def test_genus_zero_vertex_rejected(self):
        with pytest.raises(ValueError):
            ChainVertex(0)

    def test_codim_and_degree(self):
        chain = DecoratedChain(
            (ChainVertex(1, 1, 0, kappa_map({1: 1})), ChainVertex(2, 0, 3)),
            Fraction(1, 2),
        )
        assert len(chain.vertices) - 1 == 1
        assert chain.genus == 3
        assert sum(v.decoration_degree for v in chain.vertices) == 5

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            DecoratedChain(())

    def test_reflection_is_distinct(self):
        a = DecoratedChain((ChainVertex(1, 1, 0), ChainVertex(2)))
        b = DecoratedChain((ChainVertex(2), ChainVertex(1, 0, 1)))
        assert a != b

    def test_scaled(self):
        chain = DecoratedChain((ChainVertex(1),), Fraction(1, 3))
        assert chain.scaled(Fraction(6)).coefficient == 2


class TestCombinatorics:
    def test_multinomial(self):
        assert multinomial((2, 0, 2)) == 6
        assert multinomial((1, 1, 2)) == 12
        assert multinomial(()) == 1

    def test_compositions_lexicographic_and_complete(self):
        out = list(compositions(3, 2))
        assert out == [(0, 3), (1, 2), (2, 1), (3, 0)]

    @given(total=st.integers(0, 6), parts=st.integers(1, 4))
    def test_compositions_count(self, total, parts):
        out = list(compositions(total, parts))
        assert len(out) == len(set(out)) == multinomial((total, parts - 1))
        assert all(sum(c) == total and len(c) == parts for c in out)

    def test_kappa_factors(self):
        assert kappa_factors(kappa_map({1: 2, 3: 1})) == (1, 1, 3)
        assert kappa_degree(kappa_map({1: 2, 3: 1})) == 5

    def test_kappa_distribution_multiplicities(self):
        # kappa_1^2 over two vertices: (2,0), (1,1) weight 2, (0,2)
        dist = list(kappa_distributions(kappa_map({1: 2}), 2))
        total = sum(mult for mult, _ in dist)
        assert total == 4  # 2^2 assignments of distinguishable factors
        weights = {parts: mult for mult, parts in dist}
        assert weights[(kappa_map({1: 1}), kappa_map({1: 1}))] == 2

    def test_kappa_distribution_empty(self):
        assert list(kappa_distributions((), 3)) == [(1, ((), (), ()))]


# every kappa map of up to 4 factors with indices 1..3
SMALL_KAPPA_MAPS = [
    kappa_map(Counter(factors))
    for size in range(5)
    for factors in itertools.combinations_with_replacement((1, 2, 3), size)
]


def brute_force_distributions(kappa, parts: int) -> Counter:
    """Assign each kappa factor to a vertex independently and count the
    assignments by the tuple of per-vertex kappa maps they produce."""
    factors = kappa_factors(kappa)
    out: Counter = Counter()
    for assignment in itertools.product(range(parts), repeat=len(factors)):
        per_vertex = [Counter() for _ in range(parts)]
        for factor, vertex in zip(factors, assignment):
            per_vertex[vertex][factor] += 1
        out[tuple(kappa_map(m) for m in per_vertex)] += 1
    return out


def iterated_two_way(kappa, parts: int) -> Counter:
    """Distribute over `parts` vertices one vertex at a time: a two-way
    split into the first vertex's share and the rest, then recurse."""
    if parts == 1:
        return Counter({(kappa,): 1})
    out: Counter = Counter()
    for mult, (share, rest) in kappa_distributions(kappa, 2):
        for tail, tail_mult in iterated_two_way(rest, parts - 1).items():
            out[(share,) + tail] += mult * tail_mult
    return out


class TestKappaDistributionOracle:
    """Both pipelines fan kappa out through kappa_splits, the two-part
    kappa_distributions, so a bug there could cancel between the sides;
    these oracles share nothing with them but kappa_map."""

    def test_kappa_splits_is_the_two_part_distribution(self):
        # the same splits in the same order, with the degree of each share
        for kappa in SMALL_KAPPA_MAPS:
            splits = kappa_splits(kappa)
            expected = tuple(
                (mult, share, rest, kappa_degree(share)) for mult, (share, rest) in kappa_distributions(kappa, 2)
            )
            assert splits == expected, kappa
            counted = Counter({(share, rest): mult for mult, share, rest, _ in splits})
            assert counted == brute_force_distributions(kappa, 2), kappa

    @pytest.mark.parametrize("parts", [1, 2, 3, 4])
    def test_matches_independent_factor_assignment(self, parts):
        assert len(SMALL_KAPPA_MAPS) == 35
        for kappa in SMALL_KAPPA_MAPS:
            dist = list(kappa_distributions(kappa, parts))
            counted = Counter({maps: mult for mult, maps in dist})
            assert len(counted) == len(dist), kappa  # each tuple of maps once
            assert counted == brute_force_distributions(kappa, parts), kappa

    @pytest.mark.parametrize("parts", [1, 2, 3, 4])
    def test_iterated_two_way_split_gives_k_way_multiplicities(self, parts):
        for kappa in SMALL_KAPPA_MAPS:
            expected = Counter({maps: mult for mult, maps in kappa_distributions(kappa, parts)})
            assert iterated_two_way(kappa, parts) == expected, kappa
