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
    PsiKappaMonomial,
    kappa_degree,
    kappa_distributions,
    kappa_map,
)
from gdr.cli import enumerate_omegas, verify
from gdr.correlators import correlator, times_correlator
import bamboo_oracle
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
            assert sum(genus for genus, _ in b.vertices) == g
            k = len(b.vertices)
            assert sum(d for _, d in b.vertices) + k - 1 == 2 * g
            Bamboo(b.vertices)  # re-validate the prefix constraint

    @pytest.mark.parametrize("g", range(1, 8))
    def test_enumerated_terms_pass_the_public_checks(self, g):
        # the enumeration builds its terms without re-running Bamboo's checks
        for b in enumerate_bamboos(g):
            assert Bamboo(b.vertices) == b
            assert all(type(genus) is int and type(d) is int for genus, d in b.vertices)

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
        assert _pair(g, omega.d1, omega.d2, omega.kappa) == enumerated_pairing(g, omega)

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
        assert _pair(g, omega.d1, omega.d2, omega.kappa) == enumerated_pairing(g, omega) == 0


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
        # one vertex is a monomial; the splitting property is assumed for
        # one node only, so three vertices are rejected
        assert pair_bamboo_boundary(DecoratedChain((ChainVertex(3, 1, 1),))) == Fraction(1, 41472)
        with pytest.raises(ValueError):
            pair_bamboo_boundary(DecoratedChain((ChainVertex(1), ChainVertex(1), ChainVertex(1))))

    def test_a_record_is_two_memo_lookups_and_one_fraction(self, monkeypatch):
        # with the vertex pairings memoized, a boundary class reads each of
        # its two vertices from the _pair memo, keyed on the vertex tuple,
        # and builds one Fraction from their numerators and denominators
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
    """The (genus, monomial) of every bamboo pairing that `verify --kappa
    --boundary` makes at genus g: its monomials, and the two sides of each
    boundary class."""
    keys = {
        (v.genus, PsiKappaMonomial(v.left_psi, v.right_psi, v.kappa))
        for test_class in enumerate_omegas(g, include_kappa=True, include_boundary=True)
        for v in test_class.chain.vertices
    }
    return sorted(keys, key=lambda key: (key[0], key[1].d1, key[1].d2, key[1].kappa))


class TestScaledIntegers:
    def test_scales_divide(self):
        # B_f B_(h-f) | B_h, which the node factor needs, and the first
        # values of the closed form in the module docstring
        assert [bamboo._scale(h) for h in (1, 2, 3)] == [24, 2**7 * 3**3 * 5**3 * 7, 1144215072000000]
        for h in range(2, 13):
            for f in range(1, h):
                assert bamboo._scale(h) % (bamboo._scale(f) * bamboo._scale(h - f)) == 0, (h, f)

    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6, 7])
    def test_pair_matches_fraction_oracle(self, g):
        # the integer program against the Fraction program it replaced,
        # from cold memos, on every monomial that verify pairs
        clear_memos()
        keys = monomial_keys(g)
        nonzero = 0
        for genus, omega in keys:
            value = _pair(genus, omega.d1, omega.d2, omega.kappa)
            assert value == bamboo_oracle.pair(genus, omega), (genus, omega)
            nonzero += value != 0
        # the other keys are boundary sides of the wrong codim, 0 by degree
        assert 0 < nonzero == sum(omega.codim == genus - 1 for genus, omega in keys)

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
        for genus, omega in monomial_keys(5):
            built.clear()
            value = _pair(genus, omega.d1, omega.d2, omega.kappa)
            assert len(built) == 1 and value is built[0], (genus, omega)
            assert value == bamboo_oracle.pair(genus, omega)


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
    """The (genus, left, right, kappa) of every vertex that `run` evaluates
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
            PsiKappaMonomial(v.left_psi, v.right_psi, v.kappa)
            for (v,) in (c.chain.vertices for c in enumerate_omegas(6, include_kappa=True))
            if kappa_degree(v.kappa) <= 2
        ]
        assert len(bside) == 19
        bside_keys = _vertex_keys_reached(monkeypatch, lambda: [pair_bamboo_side(6, omega) for omega in bside])
        assert bside_keys <= reached and len(bside_keys) == 80
        assert len(reached) == 232 and any(kappa for *_, kappa in reached)
        clear_memos()
        for key in sorted(reached):
            value = bamboo._scaled_vertex(*key)
            assert type(value) is int, key
            assert value == bamboo._scale(key[0]) * bamboo_oracle.vertex_integral(*key), key
            assert vertex_integral(*key) == bamboo_oracle.vertex_integral(*key), key

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
