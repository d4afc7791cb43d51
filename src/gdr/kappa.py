"""Conversion of kappa decorations into pure-psi insertions.

The correlator recursion understands only psi exponents, so a vertex
integral carrying kappa_b = pi_*(psi^(b+1)) factors is rewritten on a
space with extra markings by :func:`kappa_to_psi`. Pushing one factor kappa_b
forward along the map that forgets a new marking gives psi_new^(b+1),
and every factor kappa_c kept on the smaller space picks up the
correction -psi_new^c, so any sub-multiset S of the other factors K may
merge into the new marking:

    I(a; kappa_b K) = sum over S of (-1)^|S| I(a, b + 1 + deg S; K - S).

A map K with c_i factors of index i has prod_i C(c_i, t_i) sub-multisets
that take t_i factors of each index, all with the same term: the splits
of K between a share S and a rest that :func:`gdr.core.kappa_splits`
lists for the chain programs, with that weight. So :func:`_extension`
sums over those splits and recurses on the rest, again a canonical
kappa map. Unrolled, this is the closed form
over the set partitions of the factors: one new marking tau_{(sum of
block indices)+1} per block, with the integer coefficient prod over
blocks of (-1)^(|B|-1), and no (|B|-1)! factor, since each block is
made in a single step. The expansion pins the published anchors
int kappa_1^2 = 5 and int kappa_1^3 = 61 over the 5- and 6-pointed
genus-0 spaces, and int kappa~_1^3 = 43/2880 over unmarked genus-2.

The terms are aggregated by sorted extension and depend on the kappa map
alone, so :func:`_extension` is memoized for the whole process, and a
map reuses the expansions of the smaller maps it leaves: all 1,597
canonical maps of degree <= 18 expand in 0.22 s from a cold memo
(Python 3.11, 2-vCPU VM). :func:`kappa_to_psi` returns the psi prefix
followed by each memoized extension.

The bamboo side's vertices (and the D^g reference of gdr.hain) read the
memoized extensions of a canonical kappa map directly and sum a leaf
integral over the psi prefix plus each extension; with the bamboo
side's integer leaf B_h <tau_k>_h the sum stays an integer. The divisor
side's dynamic program does not use it: gdr.hain evaluates its capped
vertices from a table of its own, so a fault here moves only one side
of a comparison. The splits are shared code: a fault in
:func:`gdr.core.kappa_splits` moves the expansion and both chain
programs, and the tests show that it still reaches the comparison.
:func:`kappa_to_psi` is the same expansion as an explicit list of
terms. Its correctness is gated in the tests by the set-partition form,
by the closed form over the integer partitions for powers of kappa_1,
by the brute-force pushforward, which keeps equal factors
distinguishable, and by a digest of every map of degree <= 13. The
expansion is valid verbatim under a top-Chern cap because lambda
classes pull back along forgetful maps.
"""
from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

from .core import KappaMap, kappa_map, kappa_splits


@lru_cache(maxsize=None)
def _extension(kappa: KappaMap) -> tuple:
    """The aggregated terms (coefficient, sorted extension) that a canonical
    kappa map appends to any psi prefix, sorted by extension, zero
    coefficients dropped; memoized for the whole process.

    One factor kappa_b is pushed forward: each sub-multiset S of the other
    factors, one split of :func:`gdr.core.kappa_splits` with its weight
    prod C(c_i, t_i), merges into the marking b + 1 + deg S with the sign
    (-1)^|S|, and the rest expands in turn."""
    if not kappa:
        return ((1, ()),)
    index, count = kappa[-1]
    others = kappa[:-1] + (((index, count - 1),) if count > 1 else ())
    acc: dict = {}
    for ways, share, rest, share_degree in kappa_splits(others):
        signed = (-1) ** sum(t for _, t in share) * ways
        for coeff, extension in _extension(rest):
            key = tuple(sorted(extension + (index + 1 + share_degree,)))
            acc[key] = acc.get(key, 0) + signed * coeff
    return tuple((coeff, extension) for extension, coeff in sorted(acc.items()) if coeff)


def kappa_to_psi(n: int, psi: Sequence[int], kappa: KappaMap | dict) -> List[Tuple[int, tuple]]:
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
