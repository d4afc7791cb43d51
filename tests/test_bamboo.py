import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdr import bamboo
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
    kappa_degree,
    kappa_distributions,
    kappa_map,
)
from gdr.cli import enumerate_omegas, verify
from gdr.correlators import _odd_double_factorial, correlator, times_correlator
import bamboo_oracle
from memos import clear_memos


def enumerated_pairing(omega: ChainVertex) -> Fraction:
    """The bamboo-side pairing by brute force: every bamboo term of omega's
    genus times every distribution of omega's kappa factors over its
    vertices, with omega's psi_1 on the first vertex's left leg and its
    psi_2 on the last vertex's right leg."""
    total = Fraction(0)
    for bamboo in enumerate_bamboos(omega.genus):
        k = len(bamboo.vertices)
        for mult, kappa_parts in kappa_distributions(omega.kappa, k):
            product = Fraction(1)
            for v, (genus_v, d_v) in enumerate(bamboo.vertices):
                left = omega.left_psi if v == 0 else 0
                right = d_v + (omega.right_psi if v == k - 1 else 0)
                product *= vertex_integral(genus_v, left, right, kappa_parts[v])
                if not product:
                    break
            total += bamboo.sign * mult * product
    return total


@st.composite
def genus_and_monomial(draw):
    """A vertex of genus g <= 5 whose decoration's codim three times in four
    is g - 1 and otherwise is arbitrary, split in any way over psi_1, psi_2
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
    return ChainVertex(g, psi[0], psi[1], kappa_map(kappa))


class TestEnumeration:
    def test_genus_1(self):
        assert enumerate_bamboos(1) == [Bamboo(((1, 2),))]

    def test_genus_2(self):
        assert enumerate_bamboos(2) == [
            Bamboo(((2, 4),)),
            Bamboo(((1, 0), (1, 3))),
            Bamboo(((1, 1), (1, 2))),
        ]
        assert [str(b) for b in enumerate_bamboos(2)] == ["+1 2:4", "-1 1:0|1:3", "-1 1:1|1:2"]

    @pytest.mark.parametrize(
        "g,count,digest",
        [
            pytest.param(8, 43263, "82017b34a073f14d48cbbd464daf89722899658808e303d274336cce6182defe", id="8"),
            pytest.param(
                9, 246675, "9114ad5efd2da0dad06a4f6c191a58d0cedaf7ae6bd64700dd5c222f031bb868",
                id="9", marks=pytest.mark.deep,
            ),
        ],
    )
    def test_terms_match_their_digest(self, g, count, digest):
        # the sha256 of the terms, each printed on a line of its own, and their count
        text = "".join(f"{b}\n" for b in enumerate_bamboos(g))
        assert (text.count("\n"), hashlib.sha256(text.encode("utf-8")).hexdigest()) == (count, digest)

    def test_invalid_genus_rejected(self):
        with pytest.raises(ValueError):
            enumerate_bamboos(0)

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_all_terms_valid_and_distinct(self, g):
        bamboos = enumerate_bamboos(g)
        assert len(bamboos) == len(set(bamboos))
        for b in bamboos:
            assert sum(genus for genus, _ in b.vertices) == g
            k = len(b.vertices)
            assert sum(d for _, d in b.vertices) + k - 1 == 2 * g
            bamboo_oracle.check(b)  # the prefix constraint too

    @pytest.mark.parametrize("g", range(1, 8))
    def test_enumerated_terms_pass_the_public_checks(self, g):
        # Bamboo checks nothing itself; every enumerated term meets the
        # oracle's constraints, with int genera and powers
        for b in enumerate_bamboos(g):
            bamboo_oracle.check(b)

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
                    bamboo_oracle.check(Bamboo(tuple(reversed(vs))))
                except ValueError:
                    violations += 1
        assert violations > 0

    def test_signs(self):
        for b in enumerate_bamboos(3):
            assert b.sign == (-1) ** (len(b.vertices) - 1)


class TestPairing:
    def test_genus_1_unit(self):
        assert pair_bamboo_side(ChainVertex(1)) == Fraction(1, 24)

    def test_genus_2_psi2_reduces_to_single_term(self):
        # only the one-vertex term survives vertex-dimension vanishing:
        # <tau_0 tau_5>_2 = <tau_4>_2 by the string equation
        assert pair_bamboo_side(ChainVertex(2, 0, 1)) == correlator(2, (4,))
        assert pair_bamboo_side(ChainVertex(2, 0, 1)) == Fraction(1, 1152)

    def test_genus_2_psi1_hand_reduction(self):
        # <tau_1 tau_4>_2 - <tau_1 tau_1>_1 <tau_0 tau_2>_1 = 1/384 - 1/576
        expected = correlator(2, (1, 4)) - correlator(1, (1, 1)) * correlator(1, (0, 2))
        assert expected == Fraction(1, 1152)
        assert pair_bamboo_side(ChainVertex(2, 1, 0)) == expected

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError, match="omega must have codim"):
            pair_bamboo_side(ChainVertex(2, 2, 0))
        with pytest.raises(ValueError, match="omega must have codim"):
            pair_bamboo_side(ChainVertex(1, 0, 0, kappa_map({1: 1})))

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_marking_swap_symmetry(self, g):
        # not manifest in the enumeration (the prefix constraint is
        # asymmetric) but forced by symmetry of the capped cycle
        for a in range(g):
            b = g - 1 - a
            assert pair_bamboo_side(ChainVertex(g, a, b)) == pair_bamboo_side(ChainVertex(g, b, a))

    @pytest.mark.parametrize("g", [2, 3])
    def test_terms_drop_only_by_dimension(self, g):
        # a vertex product vanishes iff some vertex integral is
        # dimension-mismatched; dimension-valid vertex integrals of the
        # two-point correlator are strictly positive
        for omega in (ChainVertex(g, g - 1, 0), ChainVertex(g, 0, 0, kappa_map({1: g - 1}))):
            for bamboo in enumerate_bamboos(g):
                k = len(bamboo.vertices)
                for mult, parts in kappa_distributions(omega.kappa, k):
                    product = Fraction(1)
                    balanced = True
                    for v, (genus_v, d_v) in enumerate(bamboo.vertices):
                        left = omega.left_psi if v == 0 else 0
                        right = d_v + (omega.right_psi if v == k - 1 else 0)
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
    @example(case=ChainVertex(2, 0, 1))
    @example(case=ChainVertex(2, 0, 0, kappa_map({1: 1})))
    @example(case=ChainVertex(3, 1, 0, kappa_map({1: 1})))
    @example(case=ChainVertex(4, 0, 1, kappa_map({2: 1})))
    @example(case=ChainVertex(5, 0, 0, kappa_map({1: 2, 2: 1})))
    def test_matches_enumeration(self, case):
        assert _pair(case.genus, case.left_psi, case.right_psi, case.kappa) == enumerated_pairing(case)

    @pytest.mark.parametrize(
        "g,omega",
        [
            (1, ChainVertex(1, 1, 0)),
            (2, ChainVertex(2)),
            (3, ChainVertex(3, 0, 1, kappa_map({1: 2}))),
            (4, ChainVertex(4, 1, 1)),
        ],
    )
    def test_degree_mismatch_is_zero(self, g, omega):
        assert omega.genus == g and omega.decoration_degree != g - 1
        assert _pair(g, omega.left_psi, omega.right_psi, omega.kappa) == enumerated_pairing(omega) == 0


class TestBoundaryPairing:
    def test_factorizes_across_the_node(self):
        omega = DecoratedChain((ChainVertex(1), ChainVertex(2, 0, 1)))
        expected = pair_bamboo_side(ChainVertex(1)) * pair_bamboo_side(ChainVertex(2, 0, 1))
        assert pair_bamboo_boundary(omega) == expected == Fraction(1, 27648)

    def test_unbalanced_decoration_gives_zero(self):
        omega = DecoratedChain((ChainVertex(1, 1, 0), ChainVertex(2)))
        assert pair_bamboo_boundary(omega) == 0

    def test_wrong_vertex_count_rejected(self):
        # one vertex is a monomial; the splitting property is assumed for
        # one node only, so three vertices are rejected
        assert pair_bamboo_boundary(DecoratedChain((ChainVertex(3, 1, 1),))) == Fraction(1, 41472)
        with pytest.raises(ValueError):
            pair_bamboo_boundary(DecoratedChain((ChainVertex(1), ChainVertex(1), ChainVertex(1))))

    def test_a_record_is_two_memo_lookups_and_one_fraction(self, monkeypatch):
        # with the vertex pairings memoized, pair_bamboo_boundary reads each
        # of a boundary chain's two vertices from the _pair memo, keyed on the
        # vertex tuple, and builds one Fraction from their numerators and
        # denominators; a record of verify reads the same factors once per
        # vertex, in gdr.cli
        classes = [
            t.chain
            for t in enumerate_omegas(5, include_kappa=True, include_boundary=True)
            if len(t.chain.vertices) == 2
        ]
        expected = [pair_bamboo_boundary(omega) for omega in classes]
        built = []

        def fraction(*args):
            assert all(type(arg) is int for arg in args)
            built.append(Fraction(*args))
            return built[-1]

        monkeypatch.setattr(bamboo, "Fraction", fraction)
        for omega, value in zip(classes, expected):
            built.clear()
            before = _pair.cache_info()
            assert pair_bamboo_boundary(omega) == value
            after = _pair.cache_info()
            assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)
            assert len(built) == 1


def bamboo_values(classes):
    return [pair_bamboo_boundary(test_class.chain) for test_class in classes]


class TestSharedMemos:
    def test_sharing_cannot_change_a_value(self):
        # vertex_integral and _pair are shared by every class of the
        # process, so a key that missed part of what a value depends on
        # would let one class see another's value: the order of the classes,
        # and whether any class ran before, must not matter
        classes = list(enumerate_omegas(5, include_kappa=True, include_boundary=True))
        clear_memos()
        forward = bamboo_values(classes)
        clear_memos()
        backward = bamboo_values(classes[::-1])[::-1]
        isolated = []
        for test_class in classes:
            clear_memos()
            isolated.append(pair_bamboo_boundary(test_class.chain))
        assert len(classes) == 306
        assert forward == backward == isolated


def monomial_keys(g):
    """The vertex of every bamboo pairing that `verify --kappa --boundary`
    makes at genus g: its monomials, and the two sides of each boundary
    class."""
    keys = {
        v
        for test_class in enumerate_omegas(g, include_kappa=True, include_boundary=True)
        for v in test_class.chain.vertices
    }
    return sorted(keys, key=lambda v: (v.genus, v.left_psi, v.right_psi, v.kappa))


class TestScaledIntegers:
    def test_scales_divide(self):
        # B_f B_(h-f) | B_h, which the node factor needs, and the first
        # values of the closed form in the module docstring
        assert [bamboo._scale(h) for h in (1, 2, 3)] == [24, 2**7 * 3**3 * 5**3 * 7, 1144215072000000]
        for h in range(2, 13):
            for f in range(1, h):
                assert bamboo._scale(h) % (bamboo._scale(f) * bamboo._scale(h - f)) == 0, (h, f)

    def test_chain_scale_is_the_leaf_scale(self):
        # the lcm over the splits adds nothing to the leaf scale: B_h stays
        # the closed form of the module docstring, so every scaled integer
        # is the one it was before B_h became an lcm
        for h in range(2, 41):
            assert bamboo._scale(h) == 2 ** (4 * h - 1) * bamboo._odd_scale(3 * h - 3), h

    def test_odd_scale_from_its_definition(self):
        # P(w) is the lcm of prod (2k_i+1)!! over the exponent tuples with
        # every k_i >= 2 and sum(k_i - 1) = w, that is over the partitions
        # of w into parts k_i - 1 >= 1, each part's (2k_i+1)!! from
        # factorials; and the one (2k+1)!! that the recursion P(w) and the
        # correlator scale read is the same closed form
        def partitions(w, largest):
            if w == 0:
                yield ()
            for part in range(min(w, largest), 0, -1):
                for tail in partitions(w - part, part):
                    yield (part,) + tail

        def odd_double_factorial(k):
            return math.factorial(2 * k + 1) // (2**k * math.factorial(k))

        for k in range(61):
            assert _odd_double_factorial(k) == odd_double_factorial(k), k
        for w in range(13):
            expected = math.lcm(*(math.prod(odd_double_factorial(p + 1) for p in ps) for ps in partitions(w, w)))
            assert bamboo._odd_scale(w) == expected, w

    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6, 7])
    def test_pair_matches_fraction_oracle(self, g):
        # the integer program against the Fraction program it replaced,
        # from cold memos, on every monomial that verify pairs
        clear_memos()
        keys = monomial_keys(g)
        nonzero = 0
        for v in keys:
            value = _pair(v.genus, v.left_psi, v.right_psi, v.kappa)
            assert value == bamboo_oracle.pair(v), v
            nonzero += value != 0
        # the other keys are boundary sides of the wrong codim, 0 by degree
        assert 0 < nonzero == sum(v.decoration_degree == v.genus - 1 for v in keys)

    def test_tail_memo_holds_only_integers(self, monkeypatch):
        # every value the memo caches passes through the module's _tail, so
        # a recorder in its place sees each one as it is filled
        seen = {}
        cached = bamboo._tail

        def record(*key):
            seen[key] = cached(*key)
            return seen[key]

        clear_memos()
        monkeypatch.setattr(bamboo, "_tail", record)
        bamboo_values(enumerate_omegas(6, include_kappa=True, include_boundary=True))
        assert len(seen) == cached.cache_info().currsize > 100
        for key, value in seen.items():
            assert type(value) is int, key

    def test_pair_builds_one_fraction(self, monkeypatch):
        # the chain sum stays an integer and the one Fraction, built from
        # two integers, is the value itself: no Fraction arithmetic follows it
        built = []

        def fraction(*args):
            assert all(type(arg) is int for arg in args)
            built.append(Fraction(*args))
            return built[-1]

        clear_memos()
        monkeypatch.setattr(bamboo, "Fraction", fraction)
        for v in monomial_keys(5):
            built.clear()
            value = _pair(v.genus, v.left_psi, v.right_psi, v.kappa)
            assert len(built) == 1 and value is built[0], v
            assert value == bamboo_oracle.pair(v)


def _sorted_exponents(total, n, low=0):
    """The non-decreasing n-tuples of integers >= low that sum to total."""
    if n == 1:
        if total >= low:
            yield (total,)
        return
    for first in range(low, total // n + 1):
        for rest in _sorted_exponents(total - first, n - 1, first):
            yield (first,) + rest


def _vertex_keys_reached(monkeypatch, run):
    """The (genus, left, kappa) of every vertex that `run` evaluates
    through the chain program, from cold memos."""
    reached = set()
    cached = bamboo._scaled_vertex

    def record(*key):
        reached.add(key)
        return cached(*key)

    clear_memos()
    with monkeypatch.context() as patch:
        patch.setattr(bamboo, "_scaled_vertex", record)
        run()
    return reached


class TestIntegerLeaf:
    def test_scale_clears_every_small_correlator(self):
        # B_g <tau_k>_g is an integer for every in-dimension key, not only
        # those with every k_i >= 2: string and dilaton keep the genus and
        # have integer coefficients
        clear_memos()
        keys = [
            (g, exps) for g in range(1, 8) for n in range(1, 9) for exps in _sorted_exponents(3 * g - 3 + n, n)
        ]
        assert len(keys) == 7473
        for g, exps in keys:
            expected = bamboo._scale(g) * correlator(g, exps)
            assert expected.denominator == 1, (g, exps)
            assert times_correlator(bamboo._scale(g), g, exps[::-1]) == expected, (g, exps)

    def test_times_correlator_rejects_a_scale_that_does_not_clear(self):
        clear_memos()
        assert times_correlator(24, 1, (1,)) == 1
        with pytest.raises(ArithmeticError, match="does not clear"):
            times_correlator(23, 1, (1,))

    def test_scaled_vertex_matches_the_fraction_sum(self, monkeypatch):
        # the integer leaf against the Fraction sum over the kappa_to_psi
        # terms that it replaced, on every vertex that verify --kappa
        # --boundary evaluates up to genus 6 and that the 19 genus-6
        # classes of kappa degree <= 2 (the bside-g6-kappa workload) reach
        reached = set()
        for g in range(1, 7):
            reached |= _vertex_keys_reached(monkeypatch, lambda: verify(g, True, True))
        bside = [
            v
            for (v,) in (c.chain.vertices for c in enumerate_omegas(6, include_kappa=True))
            if kappa_degree(v.kappa) <= 2
        ]
        assert len(bside) == 19
        bside_keys = _vertex_keys_reached(monkeypatch, lambda: [pair_bamboo_side(v) for v in bside])
        assert bside_keys <= reached and len(bside_keys) == 80
        assert len(reached) == 232 and any(kappa for *_, kappa in reached)
        clear_memos()
        for key in sorted(reached):
            genus, left, kappa = key
            # the leaf puts the vertex in dimension through its right leg
            right = 3 * genus - 1 - left - kappa_degree(kappa)
            expected = bamboo_oracle.vertex_integral(genus, left, right, kappa)
            value = bamboo._scaled_vertex(*key)
            assert type(value) is int, key
            assert value == bamboo._scale(genus) * expected, key
            assert vertex_integral(genus, left, right, kappa) == expected, key

    def test_a_scale_that_does_not_clear_aborts_the_records(self, monkeypatch, capsys):
        # B_h = 1 for h >= 2 clears no correlator of genus >= 2, and every
        # genus-4 pairing that evaluates a chain meets such a vertex: each of
        # those records aborts with the leaf's diagnostic instead of
        # reporting a value, and only the boundary classes whose bamboo side
        # is 0 by degree still report
        def scale(genus):
            return 24 if genus == 1 else 1

        clear_memos()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(bamboo, "_scale", scale)
                report = verify(4, True, True)
        finally:
            clear_memos()
        err = capsys.readouterr().err
        assert not report.passed
        assert len(report.aborted) == 37 and len(report.records) == 46
        assert all(record.bamboo == record.dr == 0 for record in report.records)
        for label in report.aborted:
            assert f"aborted record {label!r}: " in err
        assert err.count("does not clear") == 37
        assert verify(4, True, True).passed
