"""Reference expansions of kappa decorations, the oracles that
:func:`gdr.kappa.kappa_to_psi` (and through it the expansion that the
bamboo side's vertices read) is tested against. They share no code with gdr.kappa,
and both keep equal kappa factors distinguishable, where gdr.kappa
counts them with binomial weights: :func:`iterated_pushforward` removes
one factor per forgetful map, as gdr.kappa does, but merges every subset
of the remaining factors one at a time, and :func:`set_partition_expansion`
sums the closed form over the set partitions of the factors. Both
aggregate their own terms.
"""
from collections import defaultdict
from fractions import Fraction
from typing import Iterator, List, Sequence, Tuple

Term = Tuple[Fraction, tuple]


def _aggregate(n: int, terms) -> List[Term]:
    """Sum the terms whose exponent tuples agree up to the order of the
    markings after the first n; sorted by exponent tuple, zero sums dropped."""
    totals: dict = defaultdict(Fraction)
    for coeff, exps in terms:
        totals[exps[:n] + tuple(sorted(exps[n:]))] += coeff
    return [(totals[exps], exps) for exps in sorted(totals) if totals[exps]]


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


def _factors(kappa) -> list:
    """The kappa indices as a flat list, from a dict or (index, count) pairs."""
    pairs = kappa.items() if isinstance(kappa, dict) else kappa
    return [b for b, count in sorted(pairs) for _ in range(count)]


def set_partition_expansion(n: int, psi: Sequence[int], kappa) -> List[Term]:
    """The closed form summed over set partitions of the kappa factors, equal
    indices kept distinguishable: each partition appends one exponent
    (sum of the block's indices) + 1 per block, with the coefficient
    prod over blocks of (-1)^(|B|-1)."""
    base = tuple(int(k) for k in psi)
    factors = _factors(kappa)
    return _aggregate(
        n,
        (
            (Fraction((-1) ** (len(factors) - len(partition))), base + tuple(sum(block) + 1 for block in partition))
            for partition in set_partitions(factors)
        ),
    )


def iterated_pushforward(n: int, psi: Sequence[int], kappa) -> List[Term]:
    """Expand psi^psi * kappa into pure psi insertions, one forgetful map
    per kappa factor.

    `kappa` maps each index b to its multiplicity, as a dict or as
    (b, multiplicity) pairs. Pushing kappa_b forward contributes
    psi_new^(b+1); every kappa factor kept on the smaller space picks up
    the correction -psi_new^(b_j), so any subset of the remaining factors
    may merge into the new marking with a sign. Terms are (coefficient,
    exponent tuple), the n original exponents first, aggregated as
    :func:`gdr.kappa.kappa_to_psi` returns them.
    """
    if len(psi) != n:
        raise ValueError(f"expected {n} psi exponents, got {len(psi)}")
    factors = _factors(kappa)

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
            for coeff, exps in expand(prefix + (b + 1 + sum(merged),), kept):
                yield sign * coeff, exps

    return _aggregate(n, expand(tuple(int(k) for k in psi), factors))
