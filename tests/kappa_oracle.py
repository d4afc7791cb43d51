"""Reference expansion of kappa decorations, the oracle that
:func:`gdr.kappa.kappa_to_psi` (and through it the vertex integrator both
pipelines share) is tested against. It shares no code with gdr.kappa: it
removes one kappa factor per forgetful map and aggregates its own terms.
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
    pairs = kappa.items() if isinstance(kappa, dict) else kappa
    factors = [b for b, count in sorted(pairs) for _ in range(count)]

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
