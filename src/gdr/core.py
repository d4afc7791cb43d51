"""Exact arithmetic and the shared data model.

Every number in this package is exact: a rational (`fractions.Fraction`
over Python's arbitrary-precision integers), or, inside the correlator
recursion and the chain programs of both pipelines, an integer that
stands for a rational times a known scale (see gdr.correlators,
gdr.bamboo and gdr.hain). There is no floating point anywhere. The types
here are immutable values, safe to share freely:

- :class:`PsiKappaMonomial` -- a product psi1^d1 psi2^d2 prod kappa_i^c_i,
  the test classes paired against both pipelines and the per-vertex
  decorations.
- :class:`Bamboo` -- one signed chain term of the bamboo class expansion.
- :class:`DecoratedChain` -- a compact-type chain stratum with psi powers
  on its legs and kappa classes on its vertices, the working object of
  the Hain-divisor pipeline.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Iterable, Iterator

_FRACTION_RE = re.compile(r"^(-?\d+)/(\d+)$")


def format_rational(value: Fraction) -> str:
    """Render as ``num/den`` with a positive denominator, e.g. ``1/24``, ``0/1``."""
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse the strict ``num/den`` encoding produced by :func:`format_rational`."""
    m = _FRACTION_RE.match(text)
    if m is None:
        raise ValueError(f"malformed rational {text!r}, expected num/den")
    num, den = int(m.group(1)), int(m.group(2))
    if den == 0:
        raise ValueError(f"malformed rational {text!r}: zero denominator")
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# kappa maps: canonical sorted tuples of (index, exponent), no zero exponents


KappaMap = tuple  # tuple[tuple[int, int], ...]


def kappa_map(entries: dict[int, int] | Iterable[tuple[int, int]] = ()) -> KappaMap:
    """Canonical kappa decoration: sorted by index, zero exponents dropped,
    exponents of a repeated index added up."""
    items = entries.items() if isinstance(entries, dict) else entries
    acc: dict[int, int] = {}
    for index, exponent in items:
        if index < 1:
            raise ValueError(f"kappa index must be >= 1, got {index}")
        if exponent < 0:
            raise ValueError(f"kappa exponent must be >= 0, got {exponent}")
        if exponent:
            acc[index] = acc.get(index, 0) + exponent
    return tuple(sorted(acc.items()))


def kappa_degree(kappa: KappaMap) -> int:
    """Cohomological degree sum(i * c_i) of a kappa decoration."""
    return sum(i * c for i, c in kappa)


@dataclass(frozen=True)
class PsiKappaMonomial:
    """Monomial psi1^d1 psi2^d2 prod_i kappa_i^c_i on a two-pointed space."""

    d1: int = 0
    d2: int = 0
    kappa: KappaMap = ()

    def __post_init__(self) -> None:
        if self.d1 < 0 or self.d2 < 0:
            raise ValueError("psi exponents must be non-negative")
        object.__setattr__(self, "kappa", kappa_map(self.kappa))

    @property
    def codim(self) -> int:
        return self.d1 + self.d2 + kappa_degree(self.kappa)

    def __str__(self) -> str:
        parts = []
        for name, exp in (("psi1", self.d1), ("psi2", self.d2)):
            if exp:
                parts.append(name if exp == 1 else f"{name}^{exp}")
        for i, c in self.kappa:
            parts.append(f"kappa{i}" if c == 1 else f"kappa{i}^{c}")
        return " ".join(parts) if parts else "1"

    @classmethod
    def parse(cls, text: str) -> "PsiKappaMonomial":
        """Parse the whitespace-separated grammar ``psi1^a psi2^b kappa1^c ...``.

        Exponent 1 may be omitted; ``1`` (or an empty string) is the unit.
        Repeated factors multiply.
        """
        d1 = d2 = 0
        kappa: dict[int, int] = {}
        tokens = text.split()
        if tokens == ["1"]:
            tokens = []
        for token in tokens:
            base, _, exp_text = token.partition("^")
            if _ == "^":
                if not exp_text.isdigit():
                    raise ValueError(f"bad exponent in {token!r}")
                exp = int(exp_text)
            else:
                exp = 1
            if base == "psi1":
                d1 += exp
            elif base == "psi2":
                d2 += exp
            elif base.startswith("kappa") and base[5:].isdigit() and int(base[5:]) >= 1:
                idx = int(base[5:])
                kappa[idx] = kappa.get(idx, 0) + exp
            else:
                raise ValueError(f"unknown factor {token!r}")
        return cls(d1, d2, kappa_map(kappa))


@dataclass(frozen=True)
class Bamboo:
    """One chain term of the bamboo class: vertices (genus, edge psi power).

    The psi decoration d_i sits at the second point of vertex i (the
    half-edge toward vertex i+1; for the last vertex, marking 2). The
    first point of each vertex is undecorated. Construction enforces the
    degree equation sum(d_i) + k - 1 = 2g and the orientation-sensitive
    prefix constraint
        d_1 + ... + d_l + l - 1 <= 2(g_1 + ... + g_l) - 1
    for every 1 <= l <= k - 1.
    """

    vertices: tuple  # tuple[tuple[int, int], ...], (genus, edge psi power)

    def __post_init__(self) -> None:
        vs = tuple((int(g), int(d)) for g, d in self.vertices)
        object.__setattr__(self, "vertices", vs)
        if not vs:
            raise ValueError("bamboo needs at least one vertex")
        if any(g < 1 for g, _ in vs):
            raise ValueError("bamboo vertex genus must be >= 1")
        if any(d < 0 for _, d in vs):
            raise ValueError("edge psi powers must be >= 0")
        g_total = sum(g for g, _ in vs)
        k = len(vs)
        if sum(d for _, d in vs) + k - 1 != 2 * g_total:
            raise ValueError("degree equation sum(d) + k - 1 = 2g violated")
        d_run = g_run = 0
        for ell in range(1, k):
            g_run += vs[ell - 1][0]
            d_run += vs[ell - 1][1]
            if d_run + ell - 1 > 2 * g_run - 1:
                raise ValueError(f"prefix constraint violated at position {ell}")

    @classmethod
    def _trusted(cls, vertices: tuple) -> Bamboo:
        """A term from int (genus, edge psi power) pairs that already meet
        every check of __post_init__, built without repeating them: the
        enumeration of gdr.bamboo guarantees both constraints."""
        term = object.__new__(cls)
        object.__setattr__(term, "vertices", vertices)
        return term

    @property
    def sign(self) -> int:
        return -1 if len(self.vertices) % 2 == 0 else 1

    def __str__(self) -> str:
        body = "|".join(f"{g}:{d}" for g, d in self.vertices)
        return f"{self.sign:+d} {body}"


@dataclass(frozen=True)
class ChainVertex:
    """Vertex of a chain stratum: genus, psi powers on its two legs, kappa."""

    genus: int
    left_psi: int = 0
    right_psi: int = 0
    kappa: KappaMap = ()

    def __post_init__(self) -> None:
        if self.genus < 1:
            raise ValueError("genus-0 chain vertex is unstable (2 special points)")
        if self.left_psi < 0 or self.right_psi < 0:
            raise ValueError("psi powers must be non-negative")
        object.__setattr__(self, "kappa", kappa_map(self.kappa))

    @property
    def decoration_degree(self) -> int:
        return self.left_psi + self.right_psi + kappa_degree(self.kappa)


@dataclass(frozen=True)
class DecoratedChain:
    """Compact-type chain stratum with marking 1 on the far left leg and
    marking 2 on the far right leg, carried with a rational coefficient.

    The reflected chain is a distinct object; nothing here identifies a
    chain with its mirror image.
    """

    vertices: tuple  # tuple[ChainVertex, ...]
    coefficient: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        vs = tuple(self.vertices)
        if not vs:
            raise ValueError("chain needs at least one vertex")
        if not all(isinstance(v, ChainVertex) for v in vs):
            raise ValueError("chain vertices must be ChainVertex instances")
        object.__setattr__(self, "vertices", vs)
        if type(self.coefficient) is not Fraction:
            object.__setattr__(self, "coefficient", Fraction(self.coefficient))

    @property
    def genus(self) -> int:
        return sum(v.genus for v in self.vertices)

    def scaled(self, factor: Fraction) -> "DecoratedChain":
        return DecoratedChain(self.vertices, self.coefficient * factor)

    def with_vertex(self, index: int, vertex: ChainVertex) -> "DecoratedChain":
        vs = list(self.vertices)
        vs[index] = vertex
        return DecoratedChain(tuple(vs), self.coefficient)


# ---------------------------------------------------------------------------
# small exact combinatorics shared by both pipelines


def multinomial(parts: Iterable[int]) -> int:
    """Multinomial coefficient (sum parts)! / prod(parts!)."""
    ks = list(parts)
    result = factorial(sum(ks))
    for k in ks:
        result //= factorial(k)
    return result


def compositions(total: int, parts: int) -> Iterator[tuple]:
    """All ordered tuples of `parts` non-negative integers summing to `total`,
    in lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def kappa_distributions(kappa: KappaMap, parts: int) -> Iterator[tuple]:
    """Distribute a kappa decoration over `parts` vertices.

    Yields (multiplicity, maps) where maps is a tuple of `parts` kappa maps
    and multiplicity is the product of multinomials prod_i C(c_i; e_1..e_k).
    This implements the restriction rule kappa_a -> sum over vertices of
    kappa_a at that vertex, expanded for powers.
    """
    indices = [i for i, _ in kappa]
    exps = [c for _, c in kappa]

    def rec(pos: int, mult: int, per_vertex: list) -> Iterator[tuple]:
        if pos == len(indices):
            yield mult, tuple(kappa_map(m) for m in per_vertex)
            return
        idx, c = indices[pos], exps[pos]
        for split in compositions(c, parts):
            nxt = [dict(m) for m in per_vertex]
            for v, e in enumerate(split):
                if e:
                    nxt[v][idx] = e
            yield from rec(pos + 1, mult * multinomial(split), nxt)

    yield from rec(0, 1, [{} for _ in range(parts)])


@lru_cache(maxsize=None)
def kappa_splits(kappa: KappaMap) -> tuple:
    """The ways to split a kappa map between one vertex and the rest of a
    chain, as (multiplicity, share, rest, degree of share): the two-part
    :func:`kappa_distributions`, in its order, memoized for the whole
    process. The chain programs of both pipelines place one vertex at a
    time through it.

    It is built one index at a time: c_i factors kappa_i split as e to the
    share and c_i - e to the rest in C(c_i, e) ways, for e = 0..c_i. The
    canonical map lists its indices in order, so both parts stay canonical.
    """
    splits = [(1, (), (), 0)]
    for index, c in kappa:
        splits = [
            (
                mult * comb(c, e),
                share + ((index, e),) if e else share,
                rest + ((index, c - e),) if e < c else rest,
                degree + index * e,
            )
            for mult, share, rest, degree in splits
            for e in range(c + 1)
        ]
    return tuple(splits)
