import itertools
import os
from fractions import Fraction
from math import comb, factorial, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gdr import correlators
from gdr.bamboo import pair_bamboo_side
from gdr.cli import enumerate_omegas
from gdr.core import kappa_degree
from gdr.correlators import (
    CacheError,
    correlator,
    load_cache,
    load_cache_into_memo,
    memo_snapshot,
    store_cache,
)
from memos import clear_memos

# Golden values. The genus-0 and genus-1 ones are classical normalizations;
# the genus-2 values follow by string/dilaton from <tau_4>_2; the genus-2/3
# two-point values are standard published numbers.
GOLDEN = {
    (0, (0, 0, 0)): Fraction(1),
    (0, (0, 0, 0, 1)): Fraction(1),
    (0, (0, 0, 0, 1, 1)): Fraction(2),
    (0, (0, 0, 0, 0, 2)): Fraction(1),
    (1, (1,)): Fraction(1, 24),
    (1, (0, 2)): Fraction(1, 24),
    (1, (1, 1)): Fraction(1, 24),
    (1, (0, 1, 2)): Fraction(1, 12),
    (1, (1, 1, 1)): Fraction(1, 12),
    (2, (4,)): Fraction(1, 1152),
    (2, (0, 5)): Fraction(1, 1152),
    (2, (1, 4)): Fraction(1, 384),
    (2, (2, 3)): Fraction(29, 5760),
    (3, (7,)): Fraction(1, 82944),
    (3, (1, 7)): Fraction(5, 82944),
    (3, (2, 6)): Fraction(77, 414720),
    (3, (3, 5)): Fraction(503, 1451520),
    (3, (4, 4)): Fraction(607, 1451520),
}


# The slowest 30-point key found at the command line's bounds, genus
# MAX_GENUS = 10 and MAX_POINTS = 30 points: from cold memos its string
# path recurses about 50 levels deep, and it takes about 0.5 s.
DEEPEST_STRING_PATH = (
    (10, (0,) * 17 + (2, 2, 2, 3, 3, 3, 4, 4, 5, 5, 6, 8, 10)),
    Fraction(976521007111746671094211029340880314039601921, 8989483991040000),
)


@pytest.mark.parametrize(
    "key,expected",
    [
        *sorted(GOLDEN.items()),
        pytest.param(*DEEPEST_STRING_PATH, id="deepest-string-path", marks=pytest.mark.deep),
    ],
)
def test_golden_values(key, expected):
    clear_memos()  # each key recurses as deep as in a fresh process
    genus, exps = key
    assert correlator(genus, exps) == expected


def test_dilaton_relates_the_genus_2_goldens():
    # appending exponent 1 multiplies by 2g - 2 + n
    assert correlator(2, (1, 4)) == 3 * correlator(2, (4,))


def test_string_relates_the_genus_2_goldens():
    assert correlator(2, (0, 5)) == correlator(2, (4,))


@pytest.mark.parametrize(
    "genus,exps",
    [(0, (0,)), (0, (0, 0)), (1, ()), (2, ()), (0, ())],
)
def test_empty_moduli_give_zero(genus, exps):
    assert correlator(genus, exps) == 0


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        correlator(-1, (0,))
    with pytest.raises(ValueError):
        correlator(1, (-1, 2))


class TestCorrelatorKey:
    """The memo key is (genus, sorted exponents), stored only for keys
    inside the dimension constraint sum(k) = 3g - 3 + n."""

    def test_key_sorts_exponents(self):
        clear_memos()
        assert correlator(1, (2, 0)) == correlator(1, (0, 2)) == Fraction(1, 24)
        assert (1, (0, 2)) in memo_snapshot()
        assert (1, (2, 0)) not in memo_snapshot()

    def test_dimension_flag(self):
        clear_memos()
        assert correlator(1, (0, 1)) == 0
        assert memo_snapshot() == {}
        assert correlator(1, (0, 2)) != 0


@pytest.mark.parametrize("genus", range(1, 11))
def test_one_point_closed_form(genus):
    # <tau_{3g-2}>_g = 1/(24^g g!)
    assert correlator(genus, (3 * genus - 2,)) == Fraction(1, 24**genus * factorial(genus))


# -- property suites over randomized keys (g <= 3, n <= 6) -----------------


@st.composite
def composition(draw, total: int, parts: int):
    out = []
    remaining = total
    for _ in range(parts - 1):
        k = draw(st.integers(0, remaining))
        out.append(k)
        remaining -= k
    out.append(remaining)
    return out


@st.composite
def valid_key(draw, max_genus=3, max_n=6):
    genus = draw(st.integers(0, max_genus))
    n = draw(st.integers(3 if genus == 0 else 1, max_n))
    return genus, draw(composition(3 * genus - 3 + n, n))


@given(key=valid_key())
def test_dimension_vanishing(key):
    genus, exps = key
    assert correlator(genus, [k + 1 for k in exps[:1]] + exps[1:]) == 0


@given(key=valid_key(max_n=5), data=st.data())
def test_symmetry_under_permutation(key, data):
    genus, exps = key
    permuted = data.draw(st.permutations(exps))
    assert correlator(genus, permuted) == correlator(genus, exps)


@given(genus=st.integers(1, 3), n=st.integers(1, 5), data=st.data())
def test_string_equation(genus, n, data):
    # <tau_0 tau_{k_1}..tau_{k_n}> = sum_j <.. tau_{k_j - 1} ..>
    exps = data.draw(composition(3 * genus - 2 + n, n))
    lhs = correlator(genus, exps + [0])
    rhs = sum(
        correlator(genus, exps[:j] + [exps[j] - 1] + exps[j + 1:])
        for j in range(n)
        if exps[j] >= 1
    )
    assert lhs == rhs


@given(genus=st.integers(1, 3), n=st.integers(1, 5), data=st.data())
def test_dilaton_equation(genus, n, data):
    exps = data.draw(composition(3 * genus - 3 + n, n))
    assert correlator(genus, exps + [1]) == (2 * genus - 2 + n) * correlator(genus, exps)


def test_genus_zero_closed_form_matches_string_recursion():
    # exhaustive small-genus-0 check of (n-3)!/prod(k!)
    for n in range(3, 7):
        for exps in itertools.product(range(4), repeat=n):
            if sum(exps) != n - 3:
                continue
            lhs = correlator(0, exps)
            zeros = [k for k in exps if k == 0]
            rest = [k for k in exps if k != 0]
            rhs = sum(
                correlator(0, zeros[1:] + rest[:j] + [rest[j] - 1] + rest[j + 1:])
                for j in range(len(rest))
            )
            if n > 3:
                assert lhs == rhs
            assert lhs > 0


# -- reference recursion ----------------------------------------------------
#
# The DVV recursion with an unreduced split term: every g1 in 0..g times
# every subset of the remaining points, with its own memo and its own
# genus-0 closed form. Out-of-dimension factors return 0, so the reference
# pays for each dead split but cannot miscount one.

_reference_memo: dict = {}


def _reference_odd_double_factorial(m):
    result = 1
    for j in range(1, m + 1, 2):
        result *= j
    return result


def reference(genus, exps):
    exps = tuple(sorted(exps))
    n = len(exps)
    if n == 0 or sum(exps) != 3 * genus - 3 + n:
        return Fraction(0)
    if genus == 0:
        return Fraction(factorial(n - 3), prod(factorial(k) for k in exps))
    key = (genus, exps)
    if key not in _reference_memo:
        _reference_memo[key] = _reference_evaluate(genus, exps)
    return _reference_memo[key]


def _reference_evaluate(genus, exps):
    n = len(exps)
    if (genus, n) == (1, 1):
        return Fraction(1, 24)
    if exps[0] == 0:
        rest = exps[1:]
        return sum(
            (reference(genus, rest[:j] + (kj - 1,) + rest[j + 1:]) for j, kj in enumerate(rest) if kj >= 1),
            Fraction(0),
        )
    if exps[0] == 1:
        return (2 * genus - 2 + (n - 1)) * reference(genus, exps[1:])
    dfact = _reference_odd_double_factorial
    k = exps[-1]
    rest = exps[:-1]
    m = len(rest)
    acc = Fraction(0)
    for j, kj in enumerate(rest):
        joined = rest[:j] + (k + kj - 1,) + rest[j + 1:]
        acc += Fraction(dfact(2 * (k + kj) - 1), dfact(2 * kj - 1)) * reference(genus, joined)
    half = Fraction(1, 2)
    for a in range(k - 1):
        b = k - 2 - a
        weight = dfact(2 * a + 1) * dfact(2 * b + 1)
        acc += half * weight * reference(genus - 1, rest + (a, b))
        for g1 in range(genus + 1):
            for mask in range(1 << m):
                left = tuple(rest[i] for i in range(m) if mask >> i & 1)
                right = tuple(rest[i] for i in range(m) if not mask >> i & 1)
                acc += half * weight * reference(g1, (a,) + left) * reference(genus - g1, (b,) + right)
    return acc / dfact(2 * k + 1)


def in_dimension_keys(max_genus, max_points):
    for genus in range(max_genus + 1):
        for n in range(1, max_points + 1):
            total = 3 * genus - 3 + n
            if total < 0:
                continue
            for exps in itertools.combinations_with_replacement(range(total + 1), n):
                if sum(exps) == total:
                    yield genus, exps


def _bside_g6_kappa_keys():
    """The memo that the bamboo-side pairings of the 19 genus-6 classes of
    kappa degree <= 2 (the bside-g6-kappa benchmark workload) leave behind."""
    classes = [
        v
        for (v,) in (c.chain.vertices for c in enumerate_omegas(6, include_kappa=True))
        if kappa_degree(v.kappa) <= 2
    ]
    assert len(classes) == 19
    clear_memos()
    for omega in classes:
        pair_bamboo_side(omega)
    return memo_snapshot()


class TestReferenceRecursion:
    def test_every_small_key(self):
        clear_memos()
        _reference_memo.clear()
        keys = list(in_dimension_keys(max_genus=4, max_points=6))
        assert len(keys) > 300
        for key in keys:
            assert correlator(*key) == reference(*key), key
        assert memo_snapshot() == _reference_memo

    def test_bside_g6_kappa_keys(self):
        reached = _bside_g6_kappa_keys()
        assert len(reached) == 224
        _reference_memo.clear()
        assert {key: reference(*key) for key in reached} == reached
        assert _reference_memo == reached


def test_recursion_work_is_bounded(monkeypatch):
    # <tau_3^3 tau_2^9>_6 from an empty memo: an unreduced split term (every
    # genus times every subset, as in `reference`) makes 599,113 calls; with
    # g1 fixed by dimension and sub-multiset sharings it took about 5,000,
    # and with the DVV terms of a and k-2-a shared it takes about 2,900.
    # The recursion calls the private `_scaled`, so that is what is counted.
    asked = []
    real = correlators._scaled

    def counting(genus, exponents):
        asked.append((genus, exponents))
        return real(genus, exponents)

    monkeypatch.setattr(correlators, "_scaled", counting)
    clear_memos()
    assert correlators.correlator(6, (3, 3, 3) + (2,) * 9) == Fraction(12330710541947, 4608)
    assert len(asked) < 20_000
    # no dead split: every key the recursion asks for is inside the dimension
    out_of_dimension = [(g, ks) for g, ks in asked if sum(ks) != 3 * g - 3 + len(ks)]
    assert out_of_dimension == []


def test_recursion_call_count_is_exact(monkeypatch):
    # A faster way to evaluate the same DVV terms makes exactly the same
    # `_scaled` calls; a recursion that evaluates other terms changes the
    # count (and the memo's key set).
    calls = 0
    real = correlators._scaled

    def counting(genus, exponents):
        nonlocal calls
        calls += 1
        return real(genus, exponents)

    monkeypatch.setattr(correlators, "_scaled", counting)
    clear_memos()
    correlators.correlator(6, (3, 3, 3) + (2,) * 9)
    assert calls == 2868


def test_every_dvv_shape_shares_the_points_exactly_once():
    # Every shape that the DVV recursion meets on the bside-g6-kappa keys, on
    # the small keys and on <tau_3^3 tau_2^9>_6: the residue classes of
    # sharings.
    keys = set(_bside_g6_kappa_keys())
    clear_memos()
    for key in in_dimension_keys(max_genus=4, max_points=6):
        correlator(*key)
    correlator(6, (3, 3, 3) + (2,) * 9)
    keys |= set(memo_snapshot())
    rests = {exps[:-1] for _, exps in keys if exps[0] >= 2}
    assert len(rests) > 50
    for rest in rests:
        by_residue = correlators._shape(rest)
        lefts = []
        for residue, sharings in enumerate(by_residue):
            for g1, left, right, weight in sharings:
                assert left == tuple(sorted(left)) and right == tuple(sorted(right))
                assert tuple(sorted(left + right)) == rest
                assert sum(left) + residue == 3 * g1 - 2 + len(left)
                assert weight == prod(comb(rest.count(k), left.count(k)) for k in set(rest))
                lefts.append(left)
        # each sub-multiset once, in exactly one residue class, and the
        # weights count every subset of the points once
        assert len(lefts) == len(set(lefts)) == prod(rest.count(k) + 1 for k in set(rest))
        assert sum(weight for sharings in by_residue for *_, weight in sharings) == 2 ** len(rest)


def _odd_double_factorial_by_factorials(m):
    # (2n-1)!! = (2n)! / (2^n n!), with (-1)!! = 1
    n = (m + 1) // 2
    return factorial(2 * n) // (2**n * factorial(n))


@given(key=valid_key(max_genus=4))
def test_virasoro_at_every_insertion(key):
    # (2k+1)!! <tau_k X>_g = sum_j (2k+2k_j-1)!!/(2k_j-1)!! <tau_{k+k_j-1} X\j>_g
    #   + 1/2 sum_{a+b=k-2} (2a+1)!!(2b+1)!! (<tau_a tau_b X>_{g-1}
    #       + sum_{g1+g2=g, I+J=X} <tau_a I>_{g1} <tau_b J>_{g2})
    # for every insertion tau_k with k >= 2, not only the largest.
    genus, exps = key
    dfact = _odd_double_factorial_by_factorials
    for i, k in enumerate(exps):
        if k < 2:
            continue
        others = exps[:i] + exps[i + 1:]
        m = len(others)
        joining = sum(
            Fraction(dfact(2 * (k + kj) - 1), dfact(2 * kj - 1))
            * correlator(genus, others[:j] + [k + kj - 1] + others[j + 1:])
            for j, kj in enumerate(others)
        )
        splitting = Fraction(0)
        for a in range(k - 1):
            b = k - 2 - a
            term = correlator(genus - 1, others + [a, b]) if genus >= 1 else Fraction(0)
            for size in range(m + 1):
                for chosen in itertools.combinations(range(m), size):
                    left = [a] + [others[t] for t in chosen]
                    right = [b] + [others[t] for t in range(m) if t not in chosen]
                    for g1 in range(genus + 1):
                        term += correlator(g1, left) * correlator(genus - g1, right)
            splitting += dfact(2 * a + 1) * dfact(2 * b + 1) * term
        assert dfact(2 * k + 1) * correlator(genus, exps) == joining + splitting / 2, (i, k)


# -- persistent cache -------------------------------------------------------


SAMPLE = {
    (1, (0, 2)): Fraction(1, 24),
    (2, (4,)): Fraction(1, 1152),
    (0, (0, 0, 0)): Fraction(1),
}


def test_cache_round_trip(tmp_path):
    path = tmp_path / "cache.txt"
    store_cache(str(path), SAMPLE)
    assert load_cache(str(path)) == SAMPLE


def test_cache_round_trip_is_bit_exact(tmp_path):
    first = tmp_path / "a.txt"
    second = tmp_path / "b.txt"
    store_cache(str(first), SAMPLE)
    store_cache(str(second), load_cache(str(first)))
    assert first.read_bytes() == second.read_bytes()


def test_cache_file_format(tmp_path):
    path = tmp_path / "cache.txt"
    store_cache(str(path), {(1, (0, 2)): Fraction(1, 24)})
    assert path.read_text() == "1;0,2;1/24\n"


def test_empty_file_loads_empty_table(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    assert load_cache(str(path)) == {}


@pytest.mark.parametrize(
    "line",
    [
        "1;0,2;1/24;extra",
        "x;0,2;1/24",
        "1;0,x;1/24",
        "1;2,0;1/24",  # exponents not sorted ascending
        "1;0,2;1/24.0",
        "1;0,2;1/0",
        "1;0,2;24",
        "1;0, 2;1/24",
    ],
)
def test_malformed_line_rejects_whole_file(tmp_path, line):
    path = tmp_path / "bad.txt"
    path.write_text("0;0,0,0;1/1\n" + line + "\n")
    with pytest.raises(CacheError):
        load_cache(str(path))


def test_undecodable_bytes_reject_whole_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"1;1;1/24\n\xff\n")
    with pytest.raises(CacheError):
        load_cache(str(path))


class _FailingHandle:
    """A text handle that writes half of what it is given, then fails."""

    def __init__(self, handle):
        self._handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()

    def write(self, text):
        self._handle.write(text[: len(text) // 2])
        raise OSError("no space left on device")


def _fail_mid_write(monkeypatch):
    real_fdopen = os.fdopen
    monkeypatch.setattr(os, "fdopen", lambda *args, **kwargs: _FailingHandle(real_fdopen(*args, **kwargs)))


def _fail_on_replace(monkeypatch):
    def refuse(src, dst):
        raise OSError("read-only target")

    monkeypatch.setattr(os, "replace", refuse)


@pytest.mark.parametrize("fail", [_fail_mid_write, _fail_on_replace], ids=["write", "replace"])
def test_failed_store_leaves_previous_cache(tmp_path, monkeypatch, fail):
    path = tmp_path / "cache.txt"
    store_cache(str(path), SAMPLE)
    before = path.read_bytes()
    fail(monkeypatch)
    with pytest.raises(OSError):
        store_cache(str(path), {**SAMPLE, (1, (0, 2)): Fraction(1, 24), (2, (4,)): Fraction(1, 1152)})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["cache.txt"]


@given(
    table=st.dictionaries(
        st.tuples(
            st.integers(0, 9),
            st.lists(st.integers(0, 30), min_size=1, max_size=6).map(lambda ks: tuple(sorted(ks))),
        ),
        st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6),
        max_size=12,
    )
)
def test_cache_round_trip_property(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("cache") / "t.txt"
    store_cache(str(path), table)
    assert load_cache(str(path)) == table


def test_warm_cache_matches_recomputation(tmp_path):
    clear_memos()
    cold = {key: correlator(*key) for key in GOLDEN}
    path = tmp_path / "warm.txt"
    store_cache(str(path), memo_snapshot())
    clear_memos()
    assert load_cache_into_memo(str(path)) > 0
    warm = {key: correlator(*key) for key in GOLDEN}
    assert warm == cold


def test_store_cache_defaults_to_the_memo_values(tmp_path):
    # the memo holds scaled integers; the file must get the correlators
    clear_memos()
    correlator(2, (4,))
    path = tmp_path / "memo.txt"
    store_cache(str(path))
    assert load_cache(str(path)) == memo_snapshot()
    assert load_cache(str(path))[(2, (4,))] == Fraction(1, 1152)


def test_loaded_values_are_served_as_they_are(tmp_path):
    # a deliberately wrong value that scales to an integer: the memo must
    # return exactly it, not a value rescaled twice or recomputed
    path = tmp_path / "cache.txt"
    store_cache(str(path), {(2, (4,)): Fraction(5, 1152), (1, (0, 2)): Fraction(1, 24)})
    clear_memos()
    assert load_cache_into_memo(str(path)) == 2
    assert correlator(2, (4,)) == Fraction(5, 1152)
    assert memo_snapshot() == load_cache(str(path))


def test_value_that_does_not_scale_to_an_integer_is_rejected(tmp_path):
    # 2^3 * 3!! * 1/48 = 1/2; the valid first line must not be merged either
    path = tmp_path / "cache.txt"
    path.write_text("1;0,2;1/24\n1;1;1/48\n")
    clear_memos()
    correlator(2, (4,))
    before = memo_snapshot()
    with pytest.raises(CacheError):
        load_cache_into_memo(str(path))
    assert memo_snapshot() == before
