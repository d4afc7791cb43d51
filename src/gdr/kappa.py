"""Conversion of kappa decorations into pure-psi insertions.

Both leaf evaluators understand only psi exponents, so a vertex integral
carrying kappa_b = pi_*(psi^(b+1)) factors is rewritten on a space with
extra markings by :func:`kappa_to_psi`, the closed-form set-partition
expansion: one new marking tau_{(sum of block indices)+1} per block, with
the integer coefficient prod over blocks of (-1)^(|B|-1).

The block coefficient carries no (|B|-1)! factor: each block is created
in a single conversion step (a subset of surviving factors merging into
the freshly forgotten marking), so every set partition arises exactly
once. The expansion pins the published anchors int kappa_1^2 = 5 and
int kappa_1^3 = 61 over the 5- and 6-pointed genus-0 spaces, and
int kappa~_1^3 = 43/2880 over unmarked genus-2.

The pipelines use it through :func:`integrate`, the vertex integrator
both share. Its correctness is gated by the defining brute force in the
tests, which removes one kappa factor at a time as a pushforward. The
expansion is valid verbatim under a top-Chern cap because lambda classes
pull back along forgetful maps.
Equal kappa indices are treated as distinguishable factors, so repeated
partitions simply aggregate into the coefficient.
"""
from __future__ import annotations

from typing import Callable, Iterator, List, Sequence, Tuple

from .core import KappaMap, kappa_factors, kappa_map

Term = Tuple[int, tuple]


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
        acc[key] = acc.get(key, 0) + coeff
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
        return [(1, base)]
    raw = []
    for partition in set_partitions(list(range(len(factors)))):
        coeff = (-1) ** (len(factors) - len(partition))
        extension = [sum(factors[i] for i in block) + 1 for block in partition]
        raw.append((coeff, base + tuple(extension)))
    return _normalize(n, raw)


def integrate(leaf: Callable, genus: int, psi: Sequence[int], kappa: KappaMap):
    """int of prod psi_i^psi[i] * kappa over the genus-g space with len(psi)
    markings: the :func:`kappa_to_psi` terms summed through `leaf`, a pure
    psi integral ``leaf(genus, exponents)``. The coefficients are integers,
    so an integer leaf gives an integer."""
    total = 0
    for coeff, exps in kappa_to_psi(len(psi), psi, kappa):
        total += coeff * leaf(genus, exps)
    return total
