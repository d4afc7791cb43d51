"""Conversion of kappa decorations into pure-psi insertions.

Both leaf evaluators understand only psi exponents, so a vertex integral
carrying kappa_b = pi_*(psi^(b+1)) factors is rewritten on a space with
extra markings. Two routes are implemented:

- :func:`kappa_to_psi` -- the closed-form set-partition expansion: one new
  marking tau_{(sum of block indices)+1} per block, with coefficient
  prod over blocks of (-1)^(|B|-1).
- :func:`iterated_pushforward` -- the defining brute force: remove one
  kappa factor at a time as a pushforward, applying the pullback
  correction kappa_b -> kappa_b - psi_new^b to the factors left behind.

The block coefficient carries no (|B|-1)! factor: each block is created
in a single conversion step (a subset of surviving factors merging into
the freshly forgotten marking), so every set partition arises exactly
once. Both routes pin the published anchors
int kappa_1^2 = 5 and int kappa_1^3 = 61 over the 5- and 6-pointed
genus-0 spaces, and int kappa~_1^3 = 43/2880 over unmarked genus-2.

The first is what the pipelines use, through :func:`integrate`, the
vertex integrator both share; its correctness is gated by testing
agreement with the second. Both expansions are valid verbatim under a
top-Chern cap because lambda classes pull back along forgetful maps.
Equal kappa indices are treated as distinguishable factors, so repeated
partitions simply aggregate into the coefficient.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator, List, Sequence, Tuple

from .core import KappaMap, kappa_factors, kappa_map

Term = Tuple[Fraction, tuple]


def set_partitions(items: Sequence) -> Iterator[list]:
    """All partitions of `items` into non-empty blocks (lists of lists)."""
    if not items:
        yield []
        return
    rest, last = items[:-1], items[-1]
    for partition in set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [partition[i] + [last]] + partition[i + 1:]
        yield partition + [[last]]


def _normalize(n: int, raw: list) -> List[Term]:
    """Aggregate terms by (original psi prefix, sorted extension)."""
    acc: dict = {}
    for coeff, exps in raw:
        key = tuple(exps[:n]) + tuple(sorted(exps[n:]))
        acc[key] = acc.get(key, Fraction(0)) + coeff
    return [(coeff, exps) for exps, coeff in sorted(acc.items(), key=lambda kv: kv[0]) if coeff]


def kappa_to_psi(n: int, psi: Sequence[int], kappa: KappaMap | dict) -> List[Term]:
    """Expand a kappa decoration into extra psi insertions.

    Returns terms (coefficient, exponent tuple); each term's tuple starts
    with the n original psi exponents and appends one exponent per block
    of the underlying set partition. The empty decoration is the identity.
    """
    if len(psi) != n:
        raise ValueError(f"expected {n} psi exponents, got {len(psi)}")
    base = tuple(int(k) for k in psi)
    factors = kappa_factors(kappa_map(kappa) if not isinstance(kappa, tuple) else kappa)
    if not factors:
        return [(Fraction(1), base)]
    raw = []
    for partition in set_partitions(list(range(len(factors)))):
        coeff = Fraction((-1) ** (len(factors) - len(partition)))
        extension = [sum(factors[i] for i in block) + 1 for block in partition]
        raw.append((coeff, base + tuple(extension)))
    return _normalize(n, raw)


def integrate(leaf: Callable, genus: int, psi: Sequence[int], kappa: KappaMap) -> Fraction:
    """int of prod psi_i^psi[i] * kappa over the genus-g space with len(psi)
    markings: the :func:`kappa_to_psi` terms summed through `leaf`, a pure
    psi integral ``leaf(genus, exponents)``."""
    total = Fraction(0)
    for coeff, exps in kappa_to_psi(len(psi), psi, kappa):
        total += coeff * leaf(genus, exps)
    return total


def iterated_pushforward(n: int, psi: Sequence[int], kappa: KappaMap | dict) -> List[Term]:
    """Reference expansion removing one kappa factor per forgetful map.

    Pushing kappa_b forward contributes psi_new^(b+1); every kappa factor
    kept on the smaller space picks up the correction -psi_new^(b_j), so
    any subset of the remaining factors may merge into the new marking
    with a sign. Output is normalized exactly like :func:`kappa_to_psi`.
    """
    if len(psi) != n:
        raise ValueError(f"expected {n} psi exponents, got {len(psi)}")
    base = tuple(int(k) for k in psi)
    factors = list(kappa_factors(kappa_map(kappa) if not isinstance(kappa, tuple) else kappa))

    def expand(prefix: tuple, remaining: list) -> Iterator[Term]:
        if not remaining:
            yield Fraction(1), prefix
            return
        *rest, b = remaining
        m = len(rest)
        for mask in range(1 << m):
            merged = [rest[i] for i in range(m) if mask >> i & 1]
            kept = [rest[i] for i in range(m) if not mask >> i & 1]
            sign = Fraction((-1) ** len(merged))
            new_exp = b + 1 + sum(merged)
            for coeff, exps in expand(prefix + (new_exp,), kept):
                yield sign * coeff, exps

    return _normalize(n, list(expand(base, factors)))
