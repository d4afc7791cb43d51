"""Exact arithmetic and the shared data model.

Every number in this package is exact: a rational (`fractions.Fraction`
over Python's arbitrary-precision integers), or, inside the correlator
recursion and the chain programs of both pipelines, an integer that
stands for a rational times a known scale (see gdr.correlators,
gdr.bamboo and gdr.hain). There is no floating point anywhere. The types
here are immutable values, safe to share freely: named tuples, so they
compare, order and hash as the tuple of their fields.

- :class:`Bamboo` -- one signed chain term of the bamboo class expansion.
- :class:`ChainVertex` -- a vertex of genus g with psi powers on its two
  legs and kappa classes; alone, it is the test class psi1^a psi2^b prod
  kappa_i^c_i on the two-pointed genus-g space. Vertices order by their
  fields, so the D^g expansion sorts its chains as tuples of them.
- :class:`DecoratedChain` -- a compact-type chain of such vertices with
  a rational coefficient: each test class of both pipelines, and each
  term of the D^g expansion of gdr.hain.

The last two check their fields, and canonicalise the kappa map and the
coefficient, in ``__new__``, before the tuple exists; build a changed
copy through the constructor, not ``_replace``, which skips both.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, pairwise, product
from math import comb, factorial, prod
from typing import Iterable, Iterator, NamedTuple

_FRACTION_RE = re.compile(r"(-?[0-9]+)/([0-9]+)")


def format_rational(value: Fraction) -> str:
    """Render as ``num/den`` with a positive denominator, e.g. ``1/24``, ``0/1``."""
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse the strict ``num/den`` encoding produced by :func:`format_rational`."""
    m = _FRACTION_RE.fullmatch(text)
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


class Bamboo(NamedTuple):
    """One chain term of the bamboo class: vertices (genus, edge psi power).

    The psi decoration d_i sits at the second point of vertex i (the
    half-edge toward vertex i+1; for the last vertex, marking 2). The
    first point of each vertex is undecorated. The enumeration of
    gdr.bamboo yields only terms with the degree equation
    sum(d_i) + k - 1 = 2g and the orientation-sensitive prefix constraint
        d_1 + ... + d_l + l - 1 <= 2(g_1 + ... + g_l) - 1
    for every 1 <= l <= k - 1; ``tests/bamboo_oracle.py`` checks both.
    """

    vertices: tuple  # tuple[tuple[int, int], ...], (genus, edge psi power)

    @property
    def sign(self) -> int:
        return -1 if len(self.vertices) % 2 == 0 else 1

    def __str__(self) -> str:
        body = "|".join(f"{g}:{d}" for g, d in self.vertices)
        return f"{self.sign:+d} {body}"


class ChainVertex(NamedTuple("ChainVertex", [("genus", int), ("left_psi", int), ("right_psi", int), ("kappa", KappaMap)])):
    """Vertex of a chain stratum: genus, psi powers on its two legs, kappa,
    ordered by these fields in this order."""

    __slots__ = ()

    def __new__(cls, genus: int, left_psi: int = 0, right_psi: int = 0, kappa=()) -> ChainVertex:
        if genus < 1:
            raise ValueError("genus must be >= 1")
        if left_psi < 0 or right_psi < 0:
            raise ValueError("psi powers must be non-negative")
        return super().__new__(cls, genus, left_psi, right_psi, kappa_map(kappa))

    @property
    def decoration_degree(self) -> int:
        return self.left_psi + self.right_psi + kappa_degree(self.kappa)

    def __str__(self) -> str:
        """The decoration in the omega grammar, without the genus: psi1 on
        the left leg, psi2 on the right one, ``1`` for none."""
        psi = (("psi1", self.left_psi), ("psi2", self.right_psi))
        parts = [name if exp == 1 else f"{name}^{exp}" for name, exp in psi if exp]
        parts += [f"kappa{i}" if c == 1 else f"kappa{i}^{c}" for i, c in self.kappa]
        return " ".join(parts) or "1"

    @classmethod
    def parse(cls, genus: int, text: str) -> ChainVertex:
        """The genus-`genus` vertex that `text` decorates, in the grammar
        ``psi1^a psi2^b kappa1^c ...``: exponent 1 may be omitted, ``1``
        (or an empty string) is the unit, and repeated factors multiply."""
        psi = {"psi1": 0, "psi2": 0}
        kappa = []
        tokens = text.split()
        for token in [] if tokens == ["1"] else tokens:
            base, caret, exp_text = token.partition("^")
            # ASCII digits only: str.isdigit also takes digits such as "²" or "٣"
            if caret and not (exp_text.isascii() and exp_text.isdigit()):
                raise ValueError(f"bad exponent in {token!r}")
            exp = int(exp_text) if caret else 1
            if base in psi:
                psi[base] += exp
            elif base.startswith("kappa") and base[5:].isascii() and base[5:].isdigit() and int(base[5:]) >= 1:
                kappa.append((int(base[5:]), exp))
            else:
                raise ValueError(f"unknown factor {token!r}")
        return cls(genus, psi["psi1"], psi["psi2"], kappa)


class DecoratedChain(NamedTuple("DecoratedChain", [("vertices", tuple), ("coefficient", Fraction)])):
    """Compact-type chain stratum with marking 1 on the far left leg and
    marking 2 on the far right leg, carried with a rational coefficient.

    The reflected chain is a distinct object; nothing here identifies a
    chain with its mirror image.
    """

    __slots__ = ()

    def __new__(cls, vertices: Iterable[ChainVertex], coefficient=Fraction(1)) -> DecoratedChain:
        vs = tuple(vertices)
        if not vs:
            raise ValueError("chain needs at least one vertex")
        if not all(isinstance(v, ChainVertex) for v in vs):
            raise ValueError("chain vertices must be ChainVertex instances")
        if type(coefficient) is not Fraction:
            coefficient = Fraction(coefficient)
        return super().__new__(cls, vs, coefficient)

    @property
    def genus(self) -> int:
        return sum(v.genus for v in self.vertices)


# ---------------------------------------------------------------------------
# small exact combinatorics shared by both pipelines


def multinomial(parts: Iterable[int]) -> int:
    """Multinomial coefficient (sum parts)! / prod(parts!)."""
    ks = list(parts)
    return factorial(sum(ks)) // prod(map(factorial, ks))


def compositions(total: int, parts: int) -> Iterator[tuple]:
    """All ordered tuples of `parts` non-negative integers summing to `total`,
    in lexicographic order: stars and bars, the `parts - 1` bars chosen
    among `total + parts - 1` slots. One part is ``(total,)`` whatever its
    sign; more parts of a negative total are none."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    slots = total + parts - 1
    for bars in combinations(range(slots), parts - 1):
        yield tuple(b - a - 1 for a, b in pairwise((-1, *bars, slots)))


def kappa_distributions(kappa: KappaMap, parts: int) -> Iterator[tuple]:
    """Distribute a kappa decoration over `parts` vertices.

    Yields (multiplicity, maps) where maps is a tuple of `parts` kappa maps
    and multiplicity is the product of multinomials prod_i C(c_i; e_1..e_k).
    This implements the restriction rule kappa_a -> sum over vertices of
    kappa_a at that vertex, expanded for powers. The distributions are the
    product of each index's compositions, the first index outermost.
    """
    for splits in product(*(compositions(c, parts) for _, c in kappa)):
        maps = tuple(kappa_map((i, split[v]) for (i, _), split in zip(kappa, splits)) for v in range(parts))
        yield prod(map(multinomial, splits)), maps


@lru_cache(maxsize=None)
def kappa_splits(kappa: KappaMap) -> tuple:
    """The ways to split a kappa map between one vertex and the rest of a
    chain, as (multiplicity, share, rest, degree of share): the two-part
    :func:`kappa_distributions`, in its order, memoized for the whole
    process. The chain programs of both pipelines place one vertex at a
    time through it, and the bamboo side's kappa expansion
    (gdr.kappa._extension) merges each sub-multiset of a vertex's other
    factors, a share here, into one new marking.

    The c_i factors kappa_i split as e to the share and c_i - e to the
    rest in C(c_i, e) ways, for e = 0..c_i, and the splits are the product
    of these choices, the first index outermost. The canonical map lists
    its indices in order, so both parts stay canonical.
    """
    return tuple(
        (
            prod(comb(c, e) for (_, c), e in zip(kappa, shares)),
            tuple((i, e) for (i, _), e in zip(kappa, shares) if e),
            tuple((i, c - e) for (i, c), e in zip(kappa, shares) if e < c),
            sum(i * e for (i, _), e in zip(kappa, shares)),
        )
        for shares in product(*(range(c + 1) for _, c in kappa))
    )
