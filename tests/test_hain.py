import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdr.bamboo import pair_bamboo_boundary, pair_bamboo_side
from gdr.cli import enumerate_omegas
from gdr import hain
from gdr.core import ChainVertex, DecoratedChain, PsiKappaMonomial, kappa_degree, kappa_distributions, kappa_map
from gdr.hain import (
    evaluate_chain,
    expand_divisor_power,
    hain_divisor_terms,
    multiply_by_divisor,
    pair_dr_boundary,
    pair_dr_side,
)
from gdr.hodge import psi_lambda_g_integral
import hain_oracle
from memos import clear_memos

HALF = Fraction(1, 2)


def trivial_chain(g: int) -> DecoratedChain:
    return DecoratedChain((ChainVertex(g),))


def attach(chain: DecoratedChain, omega: DecoratedChain) -> list:
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
        assert genus == deco.genus, f"no node at the end of a genus-{deco.genus} run"
        left[start] += deco.left_psi
        right[j - 1] += deco.right_psi
        distributions.append(kappa_distributions(deco.kappa, j - start))
    out = []
    for choice in itertools.product(*distributions):
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


def enumerated_pairing(omega: DecoratedChain) -> Fraction:
    """(1/g!) int D^g * omega by explicit enumeration, the reference for
    the dynamic program: expand D^g, refine each chain at the nodes of
    omega, attach omega's decorations and evaluate under the cap."""
    g = omega.genus
    nodes = list(itertools.accumulate(v.genus for v in omega.vertices[:-1]))
    total = Fraction(0)
    for chain in expand_divisor_power(g):
        refined = [chain]
        for h in nodes:
            refined = [out for c in refined for out in multiply_by_divisor(c, ("delta", h))]
        for c in refined:
            for decorated in attach(c, omega):
                total += evaluate_chain(decorated)
    return omega.coefficient * total / math.factorial(g)


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


    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
    def test_product_formula_chain_for_chain(self, g):
        # (1/g!) D^g = sum over chains of (1/2)^a/a! psi_1^a (1/2)^b/b! psi_2^b
        # prod_nodes -(1/2)^m/m! C(m-1, i) delta_h psi'^i psi''^(m-1-i), m >= 1
        def weight(m):
            return Fraction(1, 2 ** m * math.factorial(m))

        formula: dict = {}

        def extend(vertices, coeff, budget, start, incoming):
            # vertices so far, the last one still open on its right leg
            for genus in range(1, g - start + 1):
                if start + genus == g:
                    for b in range(budget + 1):
                        if budget - b == 0:
                            done = vertices + ((genus, incoming, b),)
                            key = tuple(ChainVertex(*v) for v in done)
                            formula[key] = formula.get(key, 0) + coeff * weight(b)
                    continue
                for m in range(1, budget + 1):
                    for i in range(m):
                        extend(
                            vertices + ((genus, incoming, i),),
                            -coeff * weight(m) * math.comb(m - 1, i),
                            budget - m,
                            start + genus,
                            m - 1 - i,
                        )

        for a in range(g + 1):
            extend((), weight(a), g - a, 0, a)
        expected = {
            c.vertices: c.coefficient / math.factorial(g) for c in expand_divisor_power(g)
        }
        assert {k: c for k, c in formula.items() if c} == expected
        assert len(expected) == [2, 7, 30, 136, 636][g - 1]


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


@st.composite
def decorated_chains(draw):
    """Decorated chains of genus <= 4 with 1 to 3 vertices, a coefficient
    that need not be 1, and a decoration degree that three times in four
    matches the codimension g - 1 and otherwise is arbitrary."""
    k = draw(st.integers(1, 3))
    g = draw(st.integers(k, 4))
    cuts = sorted(draw(st.permutations(range(1, g)))[: k - 1])
    genera = [b - a for a, b in zip([0] + cuts, cuts + [g])]
    if draw(st.integers(0, 3)):
        degree = g - k
    else:
        degree = draw(st.integers(0, 5))
    psi = [[0, 0] for _ in genera]
    kappa = [{} for _ in genera]
    while degree:
        v = draw(st.integers(0, k - 1))
        slot = draw(st.sampled_from(("left", "right", "kappa")))
        if slot == "kappa":
            index = draw(st.integers(1, degree))
            kappa[v][index] = kappa[v].get(index, 0) + 1
            degree -= index
        else:
            psi[v][slot == "right"] += 1
            degree -= 1
    coefficient = draw(st.fractions(min_value=-3, max_value=3, max_denominator=6))
    vertices = tuple(ChainVertex(h, l, r, kappa_map(kap)) for h, (l, r), kap in zip(genera, psi, kappa))
    return DecoratedChain(vertices, coefficient)


class TestDynamicProgram:
    @settings(max_examples=150)
    @given(omega=decorated_chains())
    @example(omega=DecoratedChain((ChainVertex(1), ChainVertex(2, 0, 0, kappa_map({1: 1})), ChainVertex(1)), Fraction(3, 2)))
    @example(omega=DecoratedChain((ChainVertex(4, 1, 0, kappa_map({1: 1, 2: 1})),), Fraction(-2)))
    @example(omega=DecoratedChain((ChainVertex(1, 1, 0), ChainVertex(1, 0, 1), ChainVertex(1)), Fraction(5)))
    @example(omega=DecoratedChain((ChainVertex(1), ChainVertex(2, 1, 0)), Fraction(2)))
    # an inner run with psi on its node leg and a kappa: 1/1105920
    @example(omega=DecoratedChain((ChainVertex(1), ChainVertex(3, 1, 0, kappa_map({1: 1})), ChainVertex(1)), Fraction(3)))
    # each run off its own degree, the total balanced: 0
    @example(omega=DecoratedChain((ChainVertex(1, 1, 0), ChainVertex(2), ChainVertex(1))))
    def test_matches_enumeration(self, omega):
        assert pair_dr_boundary(omega) == enumerated_pairing(omega)

    def test_degree_mismatch_is_zero(self):
        omega = DecoratedChain((ChainVertex(1, 1, 0), ChainVertex(2, 1, 1)), Fraction(7))
        assert pair_dr_boundary(omega) == enumerated_pairing(omega) == 0


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

    def test_one_vertex_class_pairs_as_its_monomial_on_both_sides(self):
        # verify pairs a monomial as a one-vertex chain, bside and drside as
        # a monomial: both entries to each side must give the same value
        count = 0
        for g in range(1, 7):
            for t in enumerate_omegas(g, include_kappa=True, include_boundary=True):
                if len(t.chain.vertices) == 1:
                    (v,) = t.chain.vertices
                    monomial = PsiKappaMonomial(v.left_psi, v.right_psi, v.kappa)
                    assert str(monomial) == t.label and v.genus == g
                    assert pair_dr_boundary(t.chain) == pair_dr_side(g, monomial), (g, t.label)
                    assert pair_bamboo_boundary(t.chain) == pair_bamboo_side(g, monomial), (g, t.label)
                    count += 1
        assert count == 1 + 3 + 7 + 14 + 26 + 45

    def test_a_record_is_two_memo_lookups_and_one_fraction(self, monkeypatch):
        # with the vertex factors memoized, a boundary class reads each of
        # its two vertices from the _capped_run memo and builds one Fraction
        # from their numerators and denominators
        classes = [
            t.chain
            for t in enumerate_omegas(5, include_kappa=True, include_boundary=True)
            if len(t.chain.vertices) == 2
        ]
        expected = [pair_dr_boundary(omega) for omega in classes]
        built = []

        def fraction(*args):
            assert all(type(arg) is int for arg in args)
            built.append(Fraction(*args))
            return built[-1]

        monkeypatch.setattr(hain, "Fraction", fraction)
        for omega, value in zip(classes, expected):
            built.clear()
            before = hain._capped_run.cache_info()
            assert pair_dr_boundary(omega) == value
            after = hain._capped_run.cache_info()
            assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)
            assert len(built) == 1

    @pytest.mark.parametrize("g,count", [(3, 12), (4, 69)])
    def test_factorizes_into_monomial_pairings(self, g, count):
        # D restricted to delta_h is D_left + D_right, so the pairing
        # against delta_h[a | b] is pair(h, a) * pair(g - h, b), with the
        # node branches playing the missing markings. pair_dr_boundary is
        # built on this product, so it is not an independent check here:
        # the D^g enumeration in test_matches_enumeration is. This pins the
        # two-vertex case on the classes `verify` enumerates. A side whose
        # decoration has the wrong codimension contributes 0.
        def side(genus, vertex):
            monomial = PsiKappaMonomial(vertex.left_psi, vertex.right_psi, vertex.kappa)
            return pair_dr_side(genus, monomial) if monomial.codim == genus - 1 else 0

        classes = [
            t.chain
            for t in enumerate_omegas(g, include_kappa=True, include_boundary=True)
            if len(t.chain.vertices) == 2
        ]
        assert len(classes) == count
        for omega in classes:
            left, right = omega.vertices
            assert pair_dr_boundary(omega) == side(left.genus, left) * side(right.genus, right)


def divisor_values(classes):
    return [pair_dr_boundary(test_class.chain) for test_class in classes]


class TestSharedMemos:
    def test_sharing_cannot_change_a_value(self):
        # the per-run memos are shared by every class of the process, so a
        # key that missed part of what a run depends on would let one class
        # see another's run: the order of the classes, and whether any class
        # ran before, must not matter
        classes = list(enumerate_omegas(5, include_kappa=True, include_boundary=True))
        clear_memos()
        forward = divisor_values(classes)
        clear_memos()
        backward = divisor_values(classes[::-1])[::-1]
        isolated = []
        for test_class in classes:
            clear_memos()
            isolated.append(pair_dr_boundary(test_class.chain))
        assert len(classes) == 306
        assert forward == backward == isolated

    def test_run_memo_is_bounded(self):
        # a run's value depends on the run alone; a key that also carried
        # omega's following runs (as the memo before per-run values did)
        # fills 15,097 entries here; per-run values fill 902
        clear_memos()
        divisor_values(enumerate_omegas(6, include_kappa=True, include_boundary=True))
        assert hain._run.cache_info().currsize <= 5000

    @pytest.mark.parametrize(
        "g,sizes",
        [(6, {"_run": 902, "_transfer": 1043, "_capped_run": 300, "_vertex": 425}),
         (8, {"_run": 3809, "_transfer": 5188, "_capped_run": 1317, "_vertex": 1562})],
    )
    def test_memo_key_sets_are_pinned(self, g, sizes):
        # the memo keys are those of the per-run program, whatever a run
        # returns: a change to what a key carries, or to which keys the
        # program reaches, moves these counts
        clear_memos()
        divisor_values(enumerate_omegas(g, include_kappa=True, include_boundary=True))
        assert {name: getattr(hain, name).cache_info().currsize for name in sizes} == sizes


def vertex_keys(g):
    """The (genus, left_psi, kappa, right_psi) key of every vertex of every
    class `verify --kappa --boundary` pairs at genus g."""
    keys = {
        (v.genus, v.left_psi, v.kappa, v.right_psi)
        for test_class in enumerate_omegas(g, include_kappa=True, include_boundary=True)
        for v in test_class.chain.vertices
    }
    return sorted(keys)


def recorded_runs(monkeypatch, genera):
    """{name: {key: value}} of every _run and _transfer call that the
    divisor side of `verify --kappa --boundary` makes at each genus in
    `genera`, from cold memos. The program calls both through the module,
    so recorders in their place see each value, memo hits included."""
    clear_memos()
    seen = {"_run": {}, "_transfer": {}}
    for name, calls in seen.items():
        def record(*key, cached=getattr(hain, name), calls=calls):
            calls[key] = cached(*key)
            return calls[key]

        monkeypatch.setattr(hain, name, record)
    for g in genera:
        divisor_values(enumerate_omegas(g, include_kappa=True, include_boundary=True))
    return seen


class TestScaledIntegers:
    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6])
    def test_capped_run_matches_fraction_oracle(self, g):
        # the integer program against the Fraction program it replaced,
        # from cold memos, on every vertex that verify pairs
        clear_memos()
        keys = vertex_keys(g)
        nonzero = 0
        for key in keys:
            value = hain._capped_run(*key)
            assert value == hain_oracle.capped_run(*key), key
            nonzero += value != 0
        assert 0 < len(keys) <= 2 * nonzero

    def test_runs_and_transfers_hold_only_integers(self, monkeypatch):
        cached = {name: getattr(hain, name) for name in ("_run", "_transfer")}
        for name, seen in recorded_runs(monkeypatch, [5]).items():
            assert len(seen) == cached[name].cache_info().currsize > 100
            for key, value in seen.items():
                assert type(value) is int, (name, key)

    def test_run_matches_fraction_oracle_vectors(self, monkeypatch):
        # the scalar run against the oracle's vector program, a different
        # formulation: beta_h 2^t t! sum_i w_i/(2^i i!) over its vector
        runs = recorded_runs(monkeypatch, range(1, 7))["_run"]
        assert len(runs) == 902
        nonzero = 0
        for key, value in runs.items():
            genus, incoming, kappa, right_psi = key
            t = 2 * genus - 1 - kappa_degree(kappa) - right_psi - incoming
            assert t >= 0, key
            weights = sum(Fraction(w, 2 ** i * math.factorial(i)) for i, w in hain_oracle.run(*key))
            assert value == hain._scale(genus) * 2 ** t * math.factorial(t) * weights, key
            nonzero += value != 0
        assert 2 * nonzero >= len(runs)

    def test_capped_run_builds_one_fraction(self, monkeypatch):
        # the sum stays an integer and the one Fraction, built from two
        # integers, is the value itself: no Fraction arithmetic follows it
        built = []

        def fraction(*args):
            assert all(type(arg) is int for arg in args)
            built.append(Fraction(*args))
            return built[-1]

        clear_memos()
        monkeypatch.setattr(hain, "Fraction", fraction)
        for key in vertex_keys(4):
            built.clear()
            value = hain._capped_run(*key)
            assert len(built) == 1 and value is built[0], key
            assert value == hain_oracle.capped_run(*key)
