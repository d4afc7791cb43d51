"""Witten-Kontsevich intersection numbers <tau_{k1}...tau_{kn}>_g.

These are the integrals of psi-class monomials over the compactified
moduli space of stable curves, the leaf evaluator of the bamboo pipeline.
Evaluation order: dimension gate, genus-0 closed form (n-3)!/prod(k_i!),
dilaton equation, then one Virasoro constraint on a pivot exponent k. The
two initial conditions are <tau_0^3>_0 = 1 (inside the closed form) and
<tau_1>_1 = 1/24.

The string equation is the constraint L_(-1) and the Dijkgraaf-Verlinde-
Verlinde recursion is L_(k-1), and their joining terms have one form: each
other point tau_kj joins the pivot into tau_(k+kj-1), weighted
(2k+2kj-1)!!/((2k+1)!! (2kj-1)!!), which is 1 at k = 0. So one loop runs
both, with the pivot the smallest exponent: a tau_0 when there is one
(k = 0, where kj = 0 joins nothing), and otherwise k >= 2, with every
other exponent >= k. The joined exponent takes the first kj's place at
k = 0 and, at k >= 2, goes behind the last exponent <= k + kj - 1, found
by bisection, so every key is sorted without a sort. Only at k >= 2 do
DVV's lowered-genus and split terms follow. Any pivot gives the same
values; the smallest reaches far fewer keys on the bamboo side's inputs,
which carry many small exponents: 134 against 224 for the genus-6
pairings of kappa degree <= 2, and 14,219 against 48,890 for the bamboo
side of the genus-14 monomials. The dilaton equation keeps its closed
factor 3(2g-2+n-1): run through the loop as well, it cost about a tenth
of the recursion.

The DVV split term sums <tau_a L>_{g1} <tau_b R>_{g-g1} over the ways to
share the remaining points between two factors. A factor is nonzero only
inside its dimension, sum(L) + a = 3 g1 - 2 + |L|, so each sharing fixes
g1 = (sum(L) + a - |L| + 2) / 3 and is skipped unless that is an integer;
the other factor is then in dimension too. Every exponent is >= 2 at this
point, so both genera come out >= 1, both factors are stable and neither
is ever zero. Points with equal exponents are interchangeable: a sharing
takes c of the n points of each exponent value and stands for prod C(n, c)
subsets, and the joining loop likewise counts each value once with its
multiplicity. The lowered-genus and split terms of a and of b = k-2-a are
equal (swap the two factors), so each pair a <= b is evaluated once and
counted twice when a < b.

The sharings depend only on the remaining points, not on a, so
:func:`_shape` lists them once per DVV evaluation, one exponent value at a
time. Whether a sharing's left factor is in dimension depends on a only
through a mod 3: the sharings fall into three residue classes, and at
a = 3q + r only class r is visited, each sharing with its g1 at a = r plus
q. The shapes are not kept across evaluations: the slowest 30-point key at
genus 10 meets 2,244 of them, each about twice, and a process-wide table
of them took no less time and raised that key's peak RSS from 34 to 58 MB.

The recursion runs in integers, on the scaled correlator

    M_g(k) = 2^(4g-1) prod_i (2k_i+1)!! <tau_k>_g        (g >= 1).

Multiplying the string, dilaton and DVV equations through by the scale
of their left-hand side leaves only integer weights: dilaton 3(2g-2+n),
the joining term 2k_j+1 per joined point at every k, string equation
included (the ratio (2k+2k_j-1)!!/(2k_j-1)!! with (2k+2k_j-1)!! absorbed
into the joined point's scale), the lowered-genus term 2^(4g-1-1-(4g-5)) = 8 and the
split term 2^(4g-1-1-(4g1-1)-(4g2-1)) = 1, since g1 + g2 = g. The
recursion never leaves genus >= 1: string and dilaton keep the genus,
DVV runs only at g >= 2 (at genus 1 the dimension, sum(k) = n, forces an
exponent <= 1) and both split genera are >= 1. So by induction from
M_1(1) = 8 * 3 * (1/24) = 1, every M_g(k) is an integer, and 2^(4g-1) is
enough. :func:`correlator` divides by the scale once, at the end. The
scale reads each (2k+1)!! from :func:`_odd_double_factorial`, memoized
for the process, which gdr.bamboo's chain scale reads too: gdr computes
the double factorial in this one place.

:func:`times_correlator` serves a caller that already works on a scale of
its own, as the bamboo side does on B_h: it returns scale * <tau_k>_g as
an exact integer, dividing the memoized M_g(k) by 2^(4g-1) prod
(2k_i+1)!! with divmod, and raises ArithmeticError on a remainder. No
Fraction is built between the recursion and the caller.

Every DVV key is a sorted tuple built by concatenation: a <= b = k-2-a
< k <= min(rest), so the lowered-genus key is (a, b) + rest and a
sharing's keys are (a,) + L and (b,) + R, L and R sorted. The joining
term's key is the only one built by insertion.

The memo maps each key, (genus, sorted exponents) in dimension with
genus >= 1, to its scaled integer, for the life of the process. Memo
writes are idempotent (a key always maps to the same value), so
recomputation is harmless. :func:`memo_snapshot` gives the unscaled
rationals. :func:`load_cache` and :func:`store_cache` read and write a
line-oriented text file of correlator values (`g;k1,...,kn;num/den`,
exponents sorted ascending), and :func:`load_cache_into_memo` merges such
a file into the memo. Nothing in gdr calls them; they remain only
because the benchmark uses them: its traced run (perfbench/tracing.py)
spans the first two, and perfbench/make_goldens.py seeds the memo with
the third.
"""
from __future__ import annotations

import os
import re
import tempfile
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import comb, prod
from typing import Dict, Iterable, Tuple

from .core import format_rational, multinomial, parse_rational

Key = Tuple[int, Tuple[int, ...]]

_memo: Dict[Key, int] = {}


def clear_memo() -> None:
    _memo.clear()


def memo_snapshot() -> Dict[Key, Fraction]:
    return {key: Fraction(value, _scale(*key)) for key, value in _memo.items()}


@lru_cache(maxsize=None)
def _odd_double_factorial(k: int) -> int:
    """(2k+1)!! = 3 * 5 * ... * (2k+1), the empty product 1 at k = 0."""
    return prod(range(3, 2 * k + 2, 2))


def _scale(genus: int, exps: tuple) -> int:
    """2^max(4g-1, 0) prod_i (2k_i+1)!!, which turns <tau_k>_g into an
    integer."""
    return prod(map(_odd_double_factorial, exps), start=1 << max(4 * genus - 1, 0))


def correlator(genus: int, exponents: Iterable[int]) -> Fraction:
    """<tau_{k1}...tau_{kn}>_g as an exact rational.

    Out-of-dimension input and empty moduli (g=0 with n<3, n=0) give 0,
    never an error; negative genus or exponents are rejected.
    """
    exps = tuple(sorted(int(k) for k in exponents))
    if genus < 0:
        raise ValueError("genus must be >= 0")
    if any(k < 0 for k in exps):
        raise ValueError("psi exponents must be >= 0")
    n = len(exps)
    if n == 0 or sum(exps) != 3 * genus - 3 + n:
        return Fraction(0)
    if genus == 0:
        return Fraction(multinomial(exps))
    return Fraction(_scaled(genus, exps), _scale(genus, exps))


def times_correlator(scale: int, genus: int, exponents: tuple) -> int:
    """scale * <tau_{k1}...tau_{kn}>_g as an exact integer, read from the
    scaled memo with no rational in between; for an in-dimension key at
    genus >= 1 whose denominator `scale` clears, which the caller proves.
    A remainder means it does not, and raises ArithmeticError."""
    exps = tuple(sorted(exponents))
    value, remainder = divmod(scale * _scaled(genus, exps), _scale(genus, exps))
    if remainder:
        raise ArithmeticError(f"{scale} does not clear <tau_{exps}>_{genus}")
    return value


def _scaled(genus: int, exps: tuple) -> int:
    """M_g(k) for sorted, in-dimension exponents at genus >= 1, memoized."""
    key = (genus, exps)
    value = _memo.get(key)
    if value is None:
        value = _memo[key] = _evaluate(genus, exps)
    return value


def _evaluate(genus: int, exps: tuple) -> int:
    n = len(exps)
    if (genus, n) == (1, 1):
        return 1
    if exps[0] == 1:
        # dilaton equation; n >= 2 here since (1,1) was handled above
        return 3 * (2 * genus - 2 + (n - 1)) * _scaled(genus, exps[1:])
    # the pivot is the smallest exponent: a tau_0 (string equation, L_-1),
    # else k >= 2 (DVV, L_(k-1)) with every other exponent >= k
    k, rest = exps[0], exps[1:]
    # joining term: each distinct kj of the other points joins the pivot
    # into k + kj - 1 (kj = 0 joins nothing at k = 0), placed behind the
    # other exponents <= it: in the first kj's place at k = 0, since
    # kj - 1 < kj, and further right at k >= 2
    total = 0
    j = rest.count(0)
    while j < len(rest):
        kj = rest[j]
        multiplicity = rest.count(kj)
        joined = k + kj - 1
        place = bisect_right(rest, joined, j + 1)
        key = rest[:j] + rest[j + 1:place] + (joined,) + rest[place:]
        total += multiplicity * (2 * kj + 1) * _scaled(genus, key)
        j += multiplicity
    if not k:
        return total
    by_residue = _shape(rest)
    for a in range(k // 2):
        # a <= b < k <= min(rest), so a and b go in front of the sorted rest
        b = k - 2 - a
        term = 8 * _scaled(genus - 1, (a, b) + rest)
        shift, residue = divmod(a, 3)
        for g1, left, right, weight in by_residue[residue]:
            term += weight * _scaled(g1 + shift, (a,) + left) * _scaled(genus - g1 - shift, (b,) + right)
        total += (1 if a == b else 2) * term
    return total


def _shape(rest: tuple) -> tuple:
    """The sharings of DVV's split term, which depend only on `rest`, the
    sorted exponents beside the pivot, the smallest one, by residue class.

    by_residue[r] lists the sharings (g1, left, right, prod C(n, c)), left
    and right sorted, whose left factor <tau_r left>_{g1} is in dimension;
    at a = 3q + r the same sharing has g1 + q. Each distinct exponent
    extends every sharing of the smaller ones by c = 0..n of its n points,
    so the sharings come in the order of the counts (c_1, c_2, ...) and no
    sharing is skipped or repeated.
    """
    sharings = [((), (), 0, 1)]  # left, right, sum(k - 1) over left, weight
    j = 0
    while j < len(rest):
        kj = rest[j]
        n = rest.count(kj)
        parts = [((kj,) * c, (kj,) * (n - c), (kj - 1) * c, comb(n, c)) for c in range(n + 1)]
        sharings = [
            (left + more_left, right + more_right, excess + more_excess, weight * ways)
            for left, right, excess, weight in sharings
            for more_left, more_right, more_excess, ways in parts
        ]
        j += n
    by_residue = ([], [], [])
    for left, right, excess, weight in sharings:
        residue = (1 - excess) % 3
        by_residue[residue].append(((excess + residue + 2) // 3, left, right, weight))
    return by_residue


# ---------------------------------------------------------------------------
# persistent cache: `g;k1,k2,...,kn;num/den` per line, exponents ascending


class CacheError(ValueError):
    """Raised when a cache file fails to parse; the whole file is rejected."""


_INT_RE = re.compile(r"[0-9]+")


def _parse_line(line: str, lineno: int) -> tuple:
    fields = line.split(";")
    if len(fields) != 3:
        raise CacheError(f"line {lineno}: expected 3 ';'-separated fields")
    genus_text, exps_text, frac_text = fields
    if not _INT_RE.fullmatch(genus_text):
        raise CacheError(f"line {lineno}: malformed genus {genus_text!r}")
    parts = exps_text.split(",")
    if not all(_INT_RE.fullmatch(p) for p in parts):
        raise CacheError(f"line {lineno}: malformed exponents {exps_text!r}")
    exps = tuple(int(p) for p in parts)
    if exps != tuple(sorted(exps)):
        raise CacheError(f"line {lineno}: exponents not sorted ascending")
    try:
        value = parse_rational(frac_text)
    except ValueError as exc:
        raise CacheError(f"line {lineno}: {exc}") from exc
    return (int(genus_text), exps), value


def load_cache(path: str) -> Dict[Key, Fraction]:
    """Parse a cache file. Any malformed line rejects the whole file."""
    table: Dict[Key, Fraction] = {}
    try:
        with open(path, "r", encoding="ascii") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise CacheError(f"not ASCII text: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        key, value = _parse_line(raw, lineno)
        table[key] = value
    return table


def store_cache(path: str, table: Dict[Key, Fraction] | None = None) -> None:
    """Write a cache file in canonical sorted order (bit-exact round trip).

    The text goes to a temporary file in the target's directory, which
    then replaces the target, so a failed write leaves any previous cache
    as it was and no temporary file behind.
    """
    if table is None:
        table = memo_snapshot()
    lines = []
    for (genus, exps), value in sorted(table.items()):
        exps_text = ",".join(str(k) for k in exps)
        lines.append(f"{genus};{exps_text};{format_rational(value)}\n")
    fd, temporary = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as handle:
            handle.write("".join(lines))
        os.replace(temporary, path)
    except BaseException:
        os.unlink(temporary)
        raise


def load_cache_into_memo(path: str) -> int:
    """Merge a cache file into the live memo; returns the number of entries.

    Each value is stored as its scaled integer. A value that does not
    scale to an integer cannot be a correlator: it rejects the whole
    file, and the memo is left as it was.
    """
    scaled = {}
    for key, value in load_cache(path).items():
        scaled_value = value * _scale(*key)
        if scaled_value.denominator != 1:
            raise CacheError(f"{key}: {format_rational(value)} does not scale to an integer")
        scaled[key] = scaled_value.numerator
    _memo.update(scaled)
    return len(scaled)
