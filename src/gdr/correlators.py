"""Witten-Kontsevich intersection numbers <tau_{k1}...tau_{kn}>_g.

These are the integrals of psi-class monomials over the compactified
moduli space of stable curves, the leaf evaluator of the bamboo pipeline.
Evaluation order: dimension gate, genus-0 closed form (n-3)!/prod(k_i!),
string equation, dilaton equation, then the Dijkgraaf-Verlinde-Verlinde
recursion on the largest exponent. The two initial conditions are
<tau_0^3>_0 = 1 (inside the closed form) and <tau_1>_1 = 1/24.

The DVV split term sums <tau_a L>_{g1} <tau_b R>_{g-g1} over the ways to
share the remaining points between two factors. A factor is nonzero only
inside its dimension, sum(L) + a = 3 g1 - 2 + |L|, so each sharing fixes
g1 = (sum(L) + a - |L| + 2) / 3 and is skipped unless that is an integer;
the other factor is then in dimension too. Every exponent is >= 2 at this
point, so both genera come out >= 1, both factors are stable and neither
is ever zero. Points with equal exponents are interchangeable: a sharing
takes c of the n points of each exponent value and stands for prod C(n, c)
subsets, and the joining term likewise counts each value once with its
multiplicity. Recursive calls go through the module-level `correlator`.

All values are memoized for the life of the process. Memo writes are
idempotent (a key always maps to the same value), so recomputation is
harmless. :func:`load_cache` and :func:`store_cache` read and write a
line-oriented text file of memo entries (`g;k1,...,kn;num/den`,
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
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb
from typing import Dict, Iterable, Tuple

from .core import format_rational, multinomial, parse_rational

Key = Tuple[int, Tuple[int, ...]]

_memo: Dict[Key, Fraction] = {}

_GENUS_1_ONE_POINT = Fraction(1, 24)


def clear_memo() -> None:
    _memo.clear()


def memo_snapshot() -> Dict[Key, Fraction]:
    return dict(_memo)


def _odd_double_factorial(m: int) -> int:
    """(2k+1)!! for odd m = 2k+1 >= -1; (-1)!! = 1."""
    result = 1
    for j in range(1, m + 1, 2):
        result *= j
    return result


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
    key = (genus, exps)
    cached = _memo.get(key)
    if cached is not None:
        return cached
    value = _evaluate(genus, exps)
    _memo[key] = value
    return value


def _evaluate(genus: int, exps: tuple) -> Fraction:
    n = len(exps)
    if (genus, n) == (1, 1):
        return _GENUS_1_ONE_POINT
    if exps[0] == 0:
        # string equation: remove one tau_0, lower each remaining exponent
        rest = exps[1:]
        total = Fraction(0)
        for j, kj in enumerate(rest):
            if kj >= 1:
                total += correlator(genus, rest[:j] + (kj - 1,) + rest[j + 1:])
        return total
    if exps[0] == 1:
        # dilaton equation; n >= 2 here since (1,1) was handled above
        return (2 * genus - 2 + (n - 1)) * correlator(genus, exps[1:])
    return _dvv(genus, exps)


def _dvv(genus: int, exps: tuple) -> Fraction:
    """Virasoro recursion on the largest exponent (all exponents >= 2)."""
    k = exps[-1]
    rest = exps[:-1]
    counts = sorted(Counter(rest).items())
    acc = Fraction(0)
    for kj, multiplicity in counts:
        j = rest.index(kj)
        joined = rest[:j] + rest[j + 1:] + (k + kj - 1,)
        acc += multiplicity * Fraction(
            _odd_double_factorial(2 * (k + kj) - 1),
            _odd_double_factorial(2 * kj - 1),
        ) * correlator(genus, joined)
    splits = Fraction(0)
    for a in range(k - 1):
        b = k - 2 - a
        term = correlator(genus - 1, rest + (a, b))
        for taken in product(*(range(n + 1) for _, n in counts)):
            size = sum(taken)
            degree = sum(kj * c for (kj, _), c in zip(counts, taken))
            # the only genus at which <tau_a left>_{g1} is in dimension
            g1, remainder = divmod(degree + a - size + 2, 3)
            if remainder:
                continue
            left, right, weight = (a,), (b,), 1
            for (kj, n), c in zip(counts, taken):
                left += (kj,) * c
                right += (kj,) * (n - c)
                weight *= comb(n, c)
            term += weight * correlator(g1, left) * correlator(genus - g1, right)
        splits += _odd_double_factorial(2 * a + 1) * _odd_double_factorial(2 * b + 1) * term
    return (acc + splits / 2) / _odd_double_factorial(2 * k + 1)


# ---------------------------------------------------------------------------
# persistent cache: `g;k1,k2,...,kn;num/den` per line, exponents ascending


class CacheError(ValueError):
    """Raised when a cache file fails to parse; the whole file is rejected."""


_INT_RE = re.compile(r"^\d+$")


def _parse_line(line: str, lineno: int) -> tuple:
    fields = line.split(";")
    if len(fields) != 3:
        raise CacheError(f"line {lineno}: expected 3 ';'-separated fields")
    genus_text, exps_text, frac_text = fields
    if not _INT_RE.match(genus_text):
        raise CacheError(f"line {lineno}: malformed genus {genus_text!r}")
    parts = exps_text.split(",")
    if not all(_INT_RE.match(p) for p in parts):
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
        table = _memo
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
    """Merge a cache file into the live memo; returns the number of entries."""
    table = load_cache(path)
    _memo.update(table)
    return len(table)
