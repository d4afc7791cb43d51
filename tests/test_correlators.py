import itertools
import os
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gdr.correlators import (
    CacheError,
    clear_memo,
    correlator,
    load_cache,
    load_cache_into_memo,
    memo_snapshot,
    store_cache,
)

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


@pytest.mark.parametrize("key,expected", sorted(GOLDEN.items()))
def test_golden_values(key, expected):
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
        clear_memo()
        assert correlator(1, (2, 0)) == correlator(1, (0, 2)) == Fraction(1, 24)
        assert (1, (0, 2)) in memo_snapshot()
        assert (1, (2, 0)) not in memo_snapshot()

    def test_dimension_flag(self):
        clear_memo()
        assert correlator(1, (0, 1)) == 0
        assert memo_snapshot() == {}
        assert correlator(1, (0, 2)) != 0


@pytest.mark.parametrize("genus", range(1, 7))
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
    clear_memo()
    cold = {key: correlator(*key) for key in GOLDEN}
    path = tmp_path / "warm.txt"
    store_cache(str(path), memo_snapshot())
    clear_memo()
    assert load_cache_into_memo(str(path)) > 0
    warm = {key: correlator(*key) for key in GOLDEN}
    assert warm == cold
