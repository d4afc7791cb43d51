"""Conversion of kappa decorations into pure-psi insertions.

Both leaf evaluators understand only psi exponents, so a vertex integral
carrying kappa_b = pi_*(psi^(b+1)) factors is rewritten on a space with
extra markings by :func:`kappa_to_psi`. The closed form is a sum over the
set partitions of the kappa factors: one new marking tau_{(sum of block
indices)+1} per block, with the integer coefficient prod over blocks of
(-1)^(|B|-1).

The block coefficient carries no (|B|-1)! factor: each block is created
in a single conversion step (a subset of surviving factors merging into
the freshly forgotten marking), so every set partition arises exactly
once. The expansion pins the published anchors int kappa_1^2 = 5 and
int kappa_1^3 = 61 over the 5- and 6-pointed genus-0 spaces, and
int kappa~_1^3 = 43/2880 over unmarked genus-2.

Equal kappa indices make many set partitions give the same terms, so
:func:`_extension` enumerates the multiset partitions of the kappa
indices instead and counts the set partitions behind each. A factor of
index i repeated c_i times, split into blocks that take b_(B,i) of them,
with m_B equal copies of block B, is reached by

    prod_i c_i! / (prod_B prod_i b_(B,i)! * prod_B m_B!)

set partitions, all with the sign (-1)^(factors - blocks). kappa_1^11
then takes p(11) = 56 partitions instead of Bell(11) = 678,570. The
aggregated extension depends on the kappa map alone, so it is memoized
for the whole process and :func:`kappa_to_psi` returns the psi prefix
followed by each memoized extension.

The pipelines use it through :func:`integrate`, the vertex integrator
both share. It reads the memoized extensions of a canonical kappa map
directly and hands each psi prefix plus extension to the caller's leaf.
With an integer leaf (the bamboo side's B_h <tau_k>_h, the divisor
side's capped unit) the sum stays an integer. :func:`kappa_to_psi` is
the same expansion as an explicit list of terms. Its correctness is
gated in the tests by the set-partition form and by the defining brute
force, which removes one kappa factor at a time as a pushforward. The
expansion is valid verbatim under a top-Chern cap because lambda
classes pull back along forgetful maps.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import factorial, prod
from typing import Callable, Iterator, List, Sequence, Tuple

from .core import KappaMap, kappa_map

Term = Tuple[int, tuple]


def _multiset_partitions(counts: tuple, bound: tuple) -> Iterator[tuple]:
    """The partitions of the multiset with multiplicities `counts` into
    non-empty blocks, each block a tuple of multiplicities; the blocks of
    a partition come in non-increasing order, the first one <= `bound`."""
    if not any(counts):
        yield ()
        return
    for block in product(*(range(c, -1, -1) for c in counts)):
        if block > bound or not any(block):
            continue
        rest = tuple(c - b for c, b in zip(counts, block))
        for tail in _multiset_partitions(rest, block):
            yield (block,) + tail


@lru_cache(maxsize=None)
def _extension(kappa: KappaMap) -> tuple:
    """The aggregated terms (coefficient, sorted extension) that a canonical
    kappa map appends to any psi prefix, sorted by extension, zero
    coefficients dropped; memoized for the whole process."""
    indices = [i for i, _ in kappa]
    counts = tuple(c for _, c in kappa)
    factors = sum(counts)
    orderings = prod(factorial(c) for c in counts)
    acc: dict = {}
    for blocks in _multiset_partitions(counts, counts):
        overcount = 1
        for pos, block in enumerate(blocks):
            # equal blocks are adjacent; the k-th copy divides by k, so a
            # run of m copies divides by m!
            copies = copies + 1 if pos and block == blocks[pos - 1] else 1
            overcount *= copies * prod(factorial(b) for b in block)
        coeff = (-1) ** (factors - len(blocks)) * (orderings // overcount)
        extension = tuple(sorted(sum(i * b for i, b in zip(indices, block)) + 1 for block in blocks))
        acc[extension] = acc.get(extension, 0) + coeff
    return tuple((coeff, extension) for extension, coeff in sorted(acc.items()) if coeff)


def kappa_to_psi(n: int, psi: Sequence[int], kappa: KappaMap | dict) -> List[Term]:
    """Expand a kappa decoration into extra psi insertions.

    Returns terms (coefficient, exponent tuple), sorted by exponent tuple;
    each term's tuple starts with the n original psi exponents and appends
    one exponent per block of the underlying partition. The empty
    decoration is the identity. `kappa` goes through
    :func:`gdr.core.kappa_map` whether it is a dict or pairs, so bad
    input raises the same ValueError either way.
    """
    if len(psi) != n:
        raise ValueError(f"expected {n} psi exponents, got {len(psi)}")
    base = tuple(int(k) for k in psi)
    return [(coeff, base + extension) for coeff, extension in _extension(kappa_map(kappa))]


def integrate(leaf: Callable, genus: int, psi: Sequence[int], kappa: KappaMap):
    """int of prod psi_i^psi[i] * kappa over the genus-g space with len(psi)
    markings: the :func:`kappa_to_psi` terms summed through `leaf`, a pure
    psi integral ``leaf(genus, exponents)``. `kappa` must be canonical (a
    :func:`gdr.core.kappa_map` result), as its memoized extensions are
    read directly. The coefficients are integers, so an integer leaf gives
    an integer."""
    base = tuple(psi)
    total = 0
    for coeff, extension in _extension(kappa):
        total += coeff * leaf(genus, base + extension)
    return total
