import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gdr import cli
from gdr.core import (
    Bamboo,
    ChainVertex,
    DecoratedChain,
    compositions,
    format_rational,
    kappa_degree,
    kappa_distributions,
    kappa_map,
    kappa_splits,
    multinomial,
    parse_rational,
)
import bamboo_oracle

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

    # ASCII digits only, and no trailing newline: "$" and \d would take both
    @pytest.mark.parametrize("bad", ["", "1", "1/0", "1/-2", "a/b", "1/2/3", " 1/2", "1/2 ", "\u0661/\u0662", "1/2\n"])
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
    """A psi/kappa monomial is the decoration of a ChainVertex: its degree,
    canonical kappa map and omega grammar."""

    @pytest.mark.parametrize(
        "d1,d2,kappa,codim",
        [(0, 0, {}, 0), (1, 0, {1: 1}, 2), (2, 1, {2: 1}, 5)],
    )
    def test_codim(self, d1, d2, kappa, codim):
        assert ChainVertex(3, d1, d2, kappa_map(kappa)).decoration_degree == codim

    def test_codim_additive_under_product(self):
        # the parser multiplies repeated factors, the one product of monomials
        a = ChainVertex.parse(2, "psi1 kappa1")
        b = ChainVertex.parse(2, "psi2^2 kappa1 kappa3^2")
        product = ChainVertex.parse(2, "psi1 kappa1 psi2^2 kappa1 kappa3^2")
        assert product == ChainVertex(2, 1, 2, kappa_map({1: 2, 3: 2}))
        assert product.decoration_degree == a.decoration_degree + b.decoration_degree

    def test_kappa_canonical_sorted_no_zeros(self):
        m = ChainVertex(1, 0, 0, ((3, 1), (1, 2), (2, 0)))
        assert m.kappa == ((1, 2), (3, 1))

    def test_structural_equality(self):
        assert ChainVertex(2, 1, 2, ((1, 1),)) == ChainVertex(2, 1, 2, kappa_map({1: 1}))
        assert ChainVertex(2, 1, 2) != ChainVertex(3, 1, 2)

    def test_negative_exponents_rejected(self):
        with pytest.raises(ValueError):
            ChainVertex(1, -1, 0)
        with pytest.raises(ValueError):
            ChainVertex(1, 0, 0, ((1, -1),))
        with pytest.raises(ValueError):
            ChainVertex(1, 0, 0, ((0, 1),))

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1", ChainVertex(3, 0, 0)),
            ("", ChainVertex(3, 0, 0)),
            ("psi1", ChainVertex(3, 1, 0)),
            ("psi1^2 psi2 kappa1^3 kappa2", ChainVertex(3, 2, 1, kappa_map({1: 3, 2: 1}))),
            ("psi1 psi1", ChainVertex(3, 2, 0)),
        ],
    )
    def test_parse(self, text, expected):
        assert ChainVertex.parse(3, text) == expected

    def test_str_round_trip(self):
        for m in (
            ChainVertex(1, 0, 0),
            ChainVertex(4, 2, 1, kappa_map({1: 2, 4: 1})),
            ChainVertex(2, 0, 3),
        ):
            assert ChainVertex.parse(m.genus, str(m)) == m
        assert str(ChainVertex(4, 2, 1, kappa_map({1: 2, 4: 1}))) == "psi1^2 psi2 kappa1^2 kappa4"
        assert str(ChainVertex(1)) == "1"

    @pytest.mark.parametrize(
        "bad", ["psi3", "kappa0", "psi1^x", "tau2", "kappa^2", "psi1^\u00b2", "kappa\u00b2", "psi1^\u0663"]
    )
    def test_parse_rejects_unknown(self, bad):
        # only ASCII digits are numbers: str.isdigit takes "²" and "٣" too
        with pytest.raises(ValueError, match="^(bad exponent in|unknown factor) "):
            ChainVertex.parse(3, bad)

    def test_parse_rejects_genus_zero(self):
        with pytest.raises(ValueError, match="genus must be >= 1"):
            ChainVertex.parse(0, "psi1")


class TestBamboo:
    """The terms of the bamboo class and the reference checks of
    bamboo_oracle.check, which every enumerated term must pass."""

    def test_single_vertex(self):
        b = Bamboo(((1, 2),))
        bamboo_oracle.check(b)
        assert b.sign == 1 and sum(g for g, _ in b.vertices) == 1

    def test_sign_alternates_with_length(self):
        assert Bamboo(((1, 0), (1, 3))).sign == -1
        assert Bamboo(((1, 0), (1, 1), (1, 3))).sign == 1

    def test_degree_equation_enforced(self):
        with pytest.raises(ValueError, match="degree equation"):
            bamboo_oracle.check(Bamboo(((1, 1),)))  # needs d = 2g = 2
        with pytest.raises(ValueError, match="degree equation"):
            bamboo_oracle.check(Bamboo(((1, 0), (1, 0))))

    def test_prefix_constraint_enforced(self):
        # reversal of the valid (1,0),(1,3): prefix d1 <= 2g1 - 1 = 1 fails
        with pytest.raises(ValueError, match="prefix constraint"):
            bamboo_oracle.check(Bamboo(((1, 3), (1, 0))))

    def test_constraint_is_orientation_sensitive(self):
        bamboo_oracle.check(Bamboo(((1, 1), (1, 2))))  # valid
        with pytest.raises(ValueError, match="prefix constraint"):
            bamboo_oracle.check(Bamboo(((1, 2), (1, 1))))  # reversed: 2 + 0 > 2*1 - 1

    def test_genus_zero_vertex_rejected(self):
        with pytest.raises(ValueError, match="genus"):
            bamboo_oracle.check(Bamboo(((0, 1), (2, 4))))

    def test_malformed_terms_rejected(self):
        for vertices in ((), ((1, 3), (1, -1)), ((1, 2.0),)):
            with pytest.raises(ValueError):
                bamboo_oracle.check(Bamboo(vertices))

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

    def test_vertex_that_is_not_a_chain_vertex_rejected(self):
        with pytest.raises(ValueError, match="ChainVertex"):
            DecoratedChain((ChainVertex(1), (1, 0, 0, ())))

    def test_int_coefficient_is_stored_as_a_fraction(self):
        chain = DecoratedChain((ChainVertex(1),), 3)
        assert type(chain.coefficient) is Fraction
        assert chain.coefficient == 3

    def test_reflection_is_distinct(self):
        a = DecoratedChain((ChainVertex(1, 1, 0), ChainVertex(2)))
        b = DecoratedChain((ChainVertex(2), ChainVertex(1, 0, 1)))
        assert a != b


def test_value_types_are_immutable_and_compare_as_field_tuples():
    # the memos key on vertices and chains, and the D^g expansion sorts its
    # chains as tuples of vertices
    vertex = ChainVertex(2, 1, 0, {1: 1})
    chain = DecoratedChain((vertex, ChainVertex(1)), Fraction(1, 2))
    record = cli.VerificationRecord("1", Fraction(1), Fraction(1), True, 0)
    values = [
        (Bamboo(((1, 2),)), "vertices"),
        (vertex, "genus"),
        (chain, "coefficient"),
        (cli.TestClass("1", chain), "label"),
        (record, "equal"),
        (cli.VerificationReport(2, [record], []), "records"),
    ]
    for value, field in values:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    assert hash(vertex) == hash((2, 1, 0, ((1, 1),)))
    assert hash(chain) == hash(((vertex, ChainVertex(1)), Fraction(1, 2)))
    ordered = [
        ChainVertex(1, 0, 2),
        ChainVertex(1, 0, 2, {1: 1}),
        ChainVertex(1, 0, 2, {1: 2}),
        ChainVertex(1, 0, 2, {2: 1}),
        ChainVertex(1, 1, 0),
        ChainVertex(2),
    ]
    assert sorted(reversed(ordered)) == ordered
    assert repr(vertex) == "ChainVertex(genus=2, left_psi=1, right_psi=0, kappa=((1, 1),))"


class TestCombinatorics:
    def test_multinomial(self):
        assert multinomial((2, 0, 2)) == 6
        assert multinomial((1, 1, 2)) == 12
        assert multinomial(()) == 1

    def test_compositions_lexicographic_and_complete(self):
        out = list(compositions(3, 2))
        assert out == [(0, 3), (1, 2), (2, 1), (3, 0)]

    def test_compositions_of_no_parts(self):
        assert list(compositions(0, 0)) == [()]
        assert list(compositions(2, 0)) == []

    def test_compositions_of_one_part(self):
        assert list(compositions(0, 1)) == [(0,)]
        assert list(compositions(5, 1)) == [(5,)]

    def test_compositions_of_a_negative_total(self):
        # one part is the total itself, whatever its sign; more parts are none
        assert list(compositions(-2, 1)) == [(-2,)]
        for parts in (0, 2, 3, 4):
            assert list(compositions(-1, parts)) == list(compositions(-2, parts)) == [], parts

    @pytest.mark.parametrize("parts", [3, 4])
    def test_compositions_in_lexicographic_order(self, parts):
        # itertools.product counts up in lexicographic order
        for total in range(7):
            expected = [c for c in itertools.product(range(total + 1), repeat=parts) if sum(c) == total]
            assert list(compositions(total, parts)) == expected, total

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
