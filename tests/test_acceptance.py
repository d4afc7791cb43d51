"""Acceptance suite: one test per criterion, each printing a PASS line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them inline).

Every value asserted here is a classical normalization, a hand-derived
reduction documented next to the pipeline tests, or an exact
cross-pipeline equality; all comparisons are exact rational equality,
never approximate.
"""
import itertools
import json
import random
import time
from fractions import Fraction

from gdr.bamboo import pair_bamboo_side
from gdr.cli import main, verify
from gdr.core import ChainVertex, DecoratedChain, PsiKappaMonomial
from gdr.correlators import correlator, load_cache, load_cache_into_memo, memo_snapshot, store_cache
from gdr.hain import hain_divisor_terms, multiply_by_divisor
from gdr.hodge import lambda_g_constant, psi_lambda_g_integral
from gdr.kappa import kappa_to_psi
from kappa_oracle import iterated_pushforward
from memos import clear_memos


def _passed(number: int, message: str) -> None:
    print(f"CRITERION {number}: PASS - {message}")


def _records(report):
    return [(r.omega, r.bamboo, r.dr, r.equal) for r in report.records]


def test_criterion_1_genus_1_base_case(capsys):
    start = time.perf_counter()
    code = main(["verify", "--genus", "1"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert code == 0
    assert payload["pass"] is True
    (record,) = payload["records"]
    assert record["bamboo"] == "1/24" and record["dr"] == "1/24"
    assert record["equal"] is True
    assert elapsed < 1.0
    with capsys.disabled():
        _passed(1, f"verify --genus 1 gives 1/24 on both sides in {elapsed:.3f}s")


def test_criterion_2_identity_at_genus_2(capsys):
    start = time.perf_counter()
    report = verify(2, include_kappa=True)
    elapsed = time.perf_counter() - start
    assert [r.omega for r in report.records] == ["psi1", "psi2", "kappa1"]
    assert report.passed
    values = {r.omega: r.bamboo for r in report.records}
    assert values["psi1"] == Fraction(1, 1152)
    assert values["psi2"] == Fraction(1, 1152)
    assert elapsed < 5.0
    with capsys.disabled():
        _passed(2, f"genus 2 equal for psi1, psi2, kappa1; psi records 1/1152 in {elapsed:.3f}s")


def test_criterion_3_identity_at_genus_3_and_4(capsys):
    start = time.perf_counter()
    report3 = verify(3, include_kappa=True, include_boundary=True)
    elapsed3 = time.perf_counter() - start
    monomials3 = [r for r in report3.records if not r.omega.startswith("delta(")]
    boundary3 = [r for r in report3.records if r.omega.startswith("delta(")]
    assert len(monomials3) == 7
    assert len(boundary3) >= 5
    assert sum(1 for r in boundary3 if r.bamboo != 0) >= 5
    assert report3.passed
    assert elapsed3 < 30.0

    start = time.perf_counter()
    report4 = verify(4, include_kappa=True)
    elapsed4 = time.perf_counter() - start
    assert len(report4.records) >= 12  # every degree-3 monomial (14 of them)
    assert report4.passed
    assert elapsed4 < 600.0
    with capsys.disabled():
        _passed(
            3,
            f"genus 3: {len(report3.records)} classes equal in {elapsed3:.2f}s "
            f"(incl. {len(boundary3)} boundary); genus 4: {len(report4.records)} "
            f"monomials equal in {elapsed4:.2f}s",
        )


def test_criterion_4_correlator_goldens_and_properties(capsys):
    assert correlator(0, (0, 0, 0)) == 1
    assert correlator(1, (0, 2)) == Fraction(1, 24)
    assert correlator(2, (4,)) == Fraction(1, 1152)
    assert correlator(2, (1, 4)) == Fraction(1, 384)

    rng = random.Random(20260808)

    def random_composition(total, n):
        cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
        return [b - a for a, b in zip([0] + cuts, cuts + [total])]

    checked = 0
    for _ in range(200):
        g = rng.randint(0, 3)
        n = rng.randint(3 if g == 0 else 1, 6)
        dim = 3 * g - 3 + n
        # dimension vanishing
        exps = random_composition(dim, n)
        bumped = [exps[0] + 1] + exps[1:]
        assert correlator(g, bumped) == 0
        # symmetry
        shuffled = exps[:]
        rng.shuffle(shuffled)
        assert correlator(g, shuffled) == correlator(g, exps)
        # string: one extra unit of degree balances the added tau_0
        if g >= 1:
            over = random_composition(dim + 1, n)
            lhs = correlator(g, over + [0])
            rhs = sum(
                correlator(g, over[:j] + [over[j] - 1] + over[j + 1:])
                for j in range(n)
                if over[j] >= 1
            )
            assert lhs == rhs
            # dilaton
            assert correlator(g, exps + [1]) == (2 * g - 2 + n) * correlator(g, exps)
        checked += 1
    with capsys.disabled():
        _passed(4, f"goldens exact; string/dilaton/symmetry/vanishing on {checked} random keys")


def test_criterion_5_capped_integral_constants(capsys):
    assert lambda_g_constant(1) == Fraction(1, 24)
    assert lambda_g_constant(2) == Fraction(7, 5760)
    assert lambda_g_constant(3) == Fraction(31, 967680)
    for g, n in ((1, 2), (2, 2), (2, 3)):
        total = 2 * g - 3 + n
        acc = sum(
            psi_lambda_g_integral(g, exps)
            for exps in itertools.product(range(total + 1), repeat=n)
            if sum(exps) == total
        )
        assert acc == n**total * lambda_g_constant(g)
    with capsys.disabled():
        _passed(5, "b_1, b_2, b_3 exact; multinomial-sum identity at (1,2), (2,2), (2,3)")


def test_criterion_6_kappa_conversion_equivalence(capsys):
    cases = 0
    for m in range(0, 4):
        for combo in itertools.combinations_with_replacement(range(1, 9), m):
            if sum(combo) > 8:
                continue
            kappa: dict = {}
            for b in combo:
                kappa[b] = kappa.get(b, 0) + 1
            for psi in ((0,), (0, 0)):
                n = len(psi)
                closed = kappa_to_psi(n, psi, kappa)
                brute = iterated_pushforward(n, psi, kappa)
                assert closed == brute
                degree = sum(psi) + sum(combo)
                if (degree + 3 - n) % 3 == 0:
                    g = (degree + 3 - n) // 3
                    if 0 <= g <= 3:
                        lhs = sum(c * correlator(g, e) for c, e in closed)
                        rhs = sum(c * correlator(g, e) for c, e in brute)
                        assert lhs == rhs
                cases += 1
    with capsys.disabled():
        _passed(6, f"set-partition expansion == iterated pushforward on {cases} cases")


def test_criterion_7_marking_swap_symmetry(capsys):
    checked = 0
    for g in range(1, 5):
        for a in range(g):
            b = g - 1 - a
            assert pair_bamboo_side(g, PsiKappaMonomial(a, b)) == pair_bamboo_side(
                g, PsiKappaMonomial(b, a)
            )
            checked += 1
    with capsys.disabled():
        _passed(7, f"bamboo pairing symmetric under marking swap for {checked} (a, b) pairs")


def test_criterion_8_strata_algebra_laws(capsys):
    # order-independence of the divisor-power expansion at g <= 3
    for g in (2, 3):
        terms = [term for term, _ in hain_divisor_terms(g)]
        for multiset in itertools.combinations_with_replacement(terms, g):
            reference = None
            for order in set(itertools.permutations(multiset)):
                chains = [DecoratedChain((ChainVertex(g),))]
                for term in order:
                    chains = [out for c in chains for out in multiply_by_divisor(c, term)]
                acc: dict = {}
                for c in chains:
                    acc[c.vertices] = acc.get(c.vertices, Fraction(0)) + c.coefficient
                acc = {k: v for k, v in acc.items() if v}
                if reference is None:
                    reference = acc
                else:
                    assert acc == reference
    # excess-intersection rule: delta^2 = -delta (psi' + psi'')
    (split,) = multiply_by_divisor(DecoratedChain((ChainVertex(2),)), ("delta", 1))
    excess = multiply_by_divisor(split, ("delta", 1))
    assert len(excess) == 2
    assert all(len(c.vertices) == 2 and c.coefficient == -1 for c in excess)
    assert sorted((c.vertices[0].right_psi, c.vertices[1].left_psi) for c in excess) == [
        (0, 1),
        (1, 0),
    ]
    with capsys.disabled():
        _passed(8, "divisor expansion order-independent at g <= 3; excess rule exact")


def test_criterion_9_cache_round_trip_and_independence(capsys, tmp_path):
    # the CLI keeps correlators in memory only; the file round trip is
    # checked on the library functions, and a memo seeded from the file
    # must give the records of a cold one
    path = tmp_path / "cache.txt"
    clear_memos()
    cold = verify(2, include_kappa=True)
    store_cache(str(path), memo_snapshot())
    assert load_cache(str(path)) == memo_snapshot()

    clear_memos()
    assert load_cache_into_memo(str(path)) > 0
    warm = verify(2, include_kappa=True)
    assert _records(cold) == _records(warm)
    assert warm.passed
    with capsys.disabled():
        _passed(9, "cache file round trip exact; warm == cold reports")
