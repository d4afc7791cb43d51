import itertools
import math
from fractions import Fraction

import pytest

from gdr.bamboo import vertex_integral
from gdr.cli import enumerate_omegas
from gdr.correlators import correlator
from gdr.core import kappa_degree, kappa_map, kappa_splits
from gdr.hodge import capped_unit, lambda_g_constant, psi_lambda_g_integral
from gdr.kappa import _multiset_partitions, integrate, kappa_to_psi
from kappa_oracle import iterated_pushforward, set_partition_expansion, set_partitions


class TestSetPartitions:
    @pytest.mark.parametrize("m,count", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52)])
    def test_bell_numbers(self, m, count):
        assert sum(1 for _ in set_partitions(list(range(m)))) == count

    def test_blocks_partition_the_set(self):
        for partition in set_partitions([0, 1, 2, 3]):
            flat = sorted(x for block in partition for x in block)
            assert flat == [0, 1, 2, 3]


class TestKappaToPsi:
    def test_empty_map_is_identity(self):
        assert kappa_to_psi(2, (3, 1), {}) == [(Fraction(1), (3, 1))]

    def test_single_kappa(self):
        assert kappa_to_psi(1, (0,), {1: 1}) == [(Fraction(1), (0, 2))]

    def test_single_kappa_many_markings(self):
        assert kappa_to_psi(4, (0, 0, 0, 0), {1: 1}) == [(Fraction(1), (0, 0, 0, 0, 2))]
        # direct pushforward value over the 5-pointed genus-0 space
        assert correlator(0, (0, 0, 0, 0, 2)) == 1

    def test_kappa1_squared(self):
        assert kappa_to_psi(1, (0,), {1: 2}) == [
            (Fraction(1), (0, 2, 2)),
            (Fraction(-1), (0, 3)),
        ]

    def test_triple_kappa_coefficients(self):
        # every set partition arises exactly once with sign (-1)^(m - blocks)
        terms = dict((exps, coeff) for coeff, exps in kappa_to_psi(1, (0,), {1: 3}))
        assert terms[(0, 2, 2, 2)] == 1
        assert terms[(0, 2, 3)] == -3
        assert terms[(0, 4)] == 1

    def test_published_genus_0_anchors(self):
        # int kappa_1^(n-3) over the n-pointed genus-0 space: 1, 5, 61
        for n, expected in ((4, 1), (5, 5), (6, 61)):
            value = sum(
                coeff * correlator(0, exps)
                for coeff, exps in kappa_to_psi(n, (0,) * n, {1: n - 3})
            )
            assert value == expected

    def test_published_genus_2_anchor(self):
        # int of the pulled-back cube of the unmarked-space kappa_1 over
        # the one-pointed genus-2 space: (kappa_1 - psi_1)^3 psi_1, halved
        # by the degree of the forgetful map's psi pushforward = 43/2880
        def k_power(m, psi_exp):
            return sum(
                coeff * correlator(2, exps)
                for coeff, exps in kappa_to_psi(1, (psi_exp,), {1: m})
            )

        total = k_power(3, 1) - 3 * k_power(2, 2) + 3 * k_power(1, 3) - correlator(2, (4,))
        assert total / 2 == Fraction(43, 2880)

    def test_genus1_kappa1_value(self):
        # int kappa_1 over the one-pointed genus-1 space = <tau_0 tau_2>_1
        value = sum(
            coeff * correlator(1, exps) for coeff, exps in kappa_to_psi(1, (0,), {1: 1})
        )
        assert value == Fraction(1, 24)

    def test_degree_preserved_per_term(self):
        psi = (1, 2)
        kappa = {1: 2, 3: 1}
        for coeff, exps in kappa_to_psi(2, psi, kappa):
            blocks = len(exps) - 2
            assert sum(exps) == sum(psi) + 5 + blocks

    def test_wrong_marking_count_rejected(self):
        with pytest.raises(ValueError):
            kappa_to_psi(3, (0, 0), {})

    @pytest.mark.parametrize(
        "pairs,message",
        [(((1, -1),), "kappa exponent must be >= 0"), (((0, 2),), "kappa index must be >= 1")],
    )
    def test_pairs_are_validated_like_a_dict(self, pairs, message):
        # a tuple is not taken as already canonical: (1, -1) is not the
        # identity and (0, 2) is not a kappa_0
        for kappa in (pairs, dict(pairs)):
            with pytest.raises(ValueError, match=message):
                kappa_to_psi(1, (0,), kappa)

    def test_vertex_integral_rejects_a_bad_kappa_map(self):
        # in dimension, so the bad entry would otherwise be integrated
        with pytest.raises(ValueError, match="kappa index must be >= 1"):
            vertex_integral(1, 0, 0, ((1, 2), (0, 1)))

    def test_coefficients_are_integers(self):
        # the signs (-1)^(|B|-1) stay plain ints, so an integer leaf
        # integrates to an integer with no Fraction arithmetic
        for psi in ((0,), (2, 1)):
            for kappa in _kappa_cases():
                terms = kappa_to_psi(len(psi), psi, kappa)
                assert terms and all(type(coeff) is int for coeff, _ in terms)


class TestMultisetPartitions:
    @pytest.mark.parametrize(
        "counts,number",
        [((), 1), ((1,), 1), ((3,), 3), ((11,), 56), ((2, 1), 4), ((1, 1, 1), 5), ((2, 2), 9)],
    )
    def test_counts(self, counts, number):
        # p(11) = 56 for kappa_1^11; a multiset of distinct indices has
        # Bell-many partitions (5 for three), and {1,1,2,2} has 9
        partitions = list(_multiset_partitions(counts, counts))
        assert len(partitions) == len(set(partitions)) == number
        for blocks in partitions:
            assert all(map(any, blocks))
            assert tuple(map(sum, zip(*blocks))) == (counts if blocks else ())

    @pytest.mark.parametrize("k", range(10))
    def test_powers_of_kappa1_match_set_partitions(self, k):
        assert kappa_to_psi(2, (1, 0), {1: k}) == set_partition_expansion(2, (1, 0), {1: k})

    def test_every_kappa_map_of_verify_matches_set_partitions(self):
        for kappa in verify_kappa_maps(8):
            assert kappa_to_psi(2, (0, 0), kappa) == set_partition_expansion(2, (0, 0), kappa), kappa


def verify_kappa_maps(max_genus):
    """Every kappa map a vertex integral of `verify --kappa --boundary` can
    carry at genus <= max_genus: the maps of its classes' vertices, and
    every share that a chain program splits off them (split again as the
    chain goes on)."""
    reached, todo = set(), set()
    for g in range(1, max_genus + 1):
        for test_class in enumerate_omegas(g, include_kappa=True, include_boundary=True):
            todo.update(v.kappa for v in test_class.chain.vertices)
    while todo:
        kappa = todo.pop()
        reached.add(kappa)
        for _, share, rest, _ in kappa_splits(kappa):
            todo.update({share, rest} - reached)
    return sorted(reached)


class TestPartitionCoefficientSum:
    def test_log_composition_identity(self):
        # sum over partitions of an m-set of prod over blocks of
        # (-1)^(|B|-1) (|B|-1)! is 1 for m <= 1 and 0 for m >= 2 (log
        # composed with exp - 1 is the identity): a check on set_partitions
        def moebius_sum(m):
            return sum(
                math.prod((-1) ** (len(block) - 1) * math.factorial(len(block) - 1) for block in partition)
                for partition in set_partitions(list(range(m)))
            )

        assert moebius_sum(0) == moebius_sum(1) == 1
        for m in range(2, 7):
            assert moebius_sum(m) == 0

    def test_two_factor_coefficients(self):
        coeffs = sorted(c for c, _ in kappa_to_psi(1, (0,), {1: 2}))
        assert coeffs == [Fraction(-1), Fraction(1)]


def _kappa_cases(max_factors=3, max_degree=8):
    """All kappa multisets with <= max_factors factors, degree <= max_degree."""
    cases = []
    for m in range(0, max_factors + 1):
        for combo in itertools.combinations_with_replacement(range(1, max_degree + 1), m):
            if sum(combo) <= max_degree:
                counts: dict = {}
                for b in combo:
                    counts[b] = counts.get(b, 0) + 1
                cases.append(counts)
    return cases


class TestPushforwardEquivalence:
    """The defining gate: the set-partition expansion must agree with the
    brute-force one-at-a-time pushforward, structurally and evaluated."""

    @pytest.mark.parametrize("psi", [(0,), (0, 0), (2, 1)])
    def test_structural_agreement(self, psi):
        n = len(psi)
        for kappa in _kappa_cases():
            assert kappa_to_psi(n, psi, kappa) == iterated_pushforward(n, psi, kappa)

    def test_evaluated_agreement_through_correlators(self):
        for psi in ((0,), (1, 0), (0, 0, 1)):
            n = len(psi)
            for kappa in _kappa_cases():
                degree = sum(psi) + sum(i * c for i, c in kappa.items())
                if (degree + 3 - n) % 3 or degree + 3 - n < 0:
                    continue
                g = (degree + 3 - n) // 3
                if g > 3:
                    continue
                closed = sum(
                    coeff * correlator(g, exps)
                    for coeff, exps in kappa_to_psi(n, psi, kappa)
                )
                brute = sum(
                    coeff * correlator(g, exps)
                    for coeff, exps in iterated_pushforward(n, psi, kappa)
                )
                assert closed == brute

    def test_kappa1_squared_against_genus2_pushforward(self):
        # int psi^2 kappa_1^2 over the one-pointed genus-2 space, both routes
        closed = sum(
            coeff * correlator(2, exps) for coeff, exps in kappa_to_psi(1, (2,), {1: 2})
        )
        brute = sum(
            coeff * correlator(2, exps)
            for coeff, exps in iterated_pushforward(1, (2,), {1: 2})
        )
        assert closed == brute != 0


class TestIntegrate:
    """integrate() is the vertex integrator both pipelines share, so it is
    checked against the brute-force pushforward with each leaf integral."""

    @pytest.mark.parametrize(
        "leaf,dimension,max_genus",
        [
            (correlator, lambda g, n: 3 * g - 3 + n, 3),
            (psi_lambda_g_integral, lambda g, n: 2 * g - 3 + n, 4),
            (capped_unit, lambda g, n: 2 * g - 3 + n, 4),
        ],
        ids=["correlator", "psi_lambda_g_integral", "capped_unit"],
    )
    def test_matches_iterated_pushforward(self, leaf, dimension, max_genus):
        nonzero = 0
        for psi in ((0,), (1, 0), (0, 2), (0, 0, 1)):
            for counts in _kappa_cases():
                kappa = kappa_map(counts)
                degree = sum(psi) + kappa_degree(kappa)
                for g in range(0, max_genus + 1):
                    # each block adds one marking and one degree, so every
                    # term of the expansion is in dimension or none is
                    if degree != dimension(g, len(psi)):
                        continue
                    value = integrate(leaf, g, psi, kappa)
                    brute = sum(
                        coeff * leaf(g, exps)
                        for coeff, exps in iterated_pushforward(len(psi), psi, kappa)
                    )
                    assert value == brute
                    if leaf is capped_unit:
                        # the divisor side's integer leaf stays integral
                        assert type(value) is int
                    nonzero += value != 0
        assert nonzero >= 50

    def test_every_kappa_map_of_verify_matches_iterated_pushforward(self):
        # the cases above stop at 3 factors; verify at g <= 8 reaches every
        # map of degree <= 7, up to kappa_1^7
        maps = verify_kappa_maps(8)
        assert len(maps) == 45 and max(map(kappa_degree, maps)) == 7
        for kappa in maps:
            assert kappa_to_psi(2, (0, 0), kappa) == iterated_pushforward(2, (0, 0), kappa), kappa

    def test_empty_kappa_is_the_leaf_itself(self):
        assert integrate(correlator, 2, (1, 4), ()) == correlator(2, (1, 4))
        assert integrate(psi_lambda_g_integral, 2, (3, 0), ()) == psi_lambda_g_integral(2, (3, 0))
        assert integrate(capped_unit, 2, (3, 0), ()) == psi_lambda_g_integral(2, (3, 0)) / lambda_g_constant(2)
