"""Exact verifier for the Gorenstein-pairing identity between the bamboo
class and the a^(2g) coefficient of the capped double-ramification cycle
on two-pointed moduli of stable curves.

Two independent pipelines compute the same pairings: bamboo enumeration
evaluated through Witten-Kontsevich correlators, and the Hain divisor
power paired through the closed-form top-Chern-capped integrals.
Everything is exact rational arithmetic.

The package exports :func:`verify` only; the pipelines, the correlators
and the command line are imported from their submodules.
"""

from .cli import verify

__version__ = "0.1.0"

__all__ = ["verify"]
