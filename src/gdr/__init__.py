"""Exact verifier for the Gorenstein-pairing identity between the bamboo
class and the a^(2g) coefficient of the capped double-ramification cycle
on two-pointed moduli of stable curves.

Two independent pipelines compute the same pairings: bamboo enumeration
evaluated through Witten-Kontsevich correlators, and the Hain divisor
power expanded in the tree strata algebra and evaluated through the
closed-form top-Chern-capped integrals. Everything is exact rational
arithmetic.
"""

from .bamboo import enumerate_bamboos, pair_bamboo_boundary, pair_bamboo_side, vertex_integral
from .cli import VerificationRecord, VerificationReport, enumerate_omegas, verify
from .core import (
    Bamboo,
    ChainVertex,
    DecoratedChain,
    KappaMap,
    PsiKappaMonomial,
    format_rational,
    kappa_map,
    parse_rational,
)
from .correlators import (
    CacheError,
    clear_memo,
    correlator,
    load_cache,
    load_cache_into_memo,
    store_cache,
)
from .hain import pair_dr_boundary, pair_dr_side
from .hodge import bernoulli, lambda_g_constant, psi_lambda_g_integral
from .kappa import kappa_to_psi

__version__ = "0.1.0"

__all__ = [
    "Bamboo",
    "CacheError",
    "ChainVertex",
    "DecoratedChain",
    "KappaMap",
    "PsiKappaMonomial",
    "VerificationRecord",
    "VerificationReport",
    "bernoulli",
    "clear_memo",
    "correlator",
    "enumerate_bamboos",
    "enumerate_omegas",
    "format_rational",
    "kappa_map",
    "kappa_to_psi",
    "lambda_g_constant",
    "load_cache",
    "load_cache_into_memo",
    "pair_bamboo_boundary",
    "pair_bamboo_side",
    "pair_dr_boundary",
    "pair_dr_side",
    "parse_rational",
    "psi_lambda_g_integral",
    "store_cache",
    "verify",
    "vertex_integral",
]
