"""The process-wide memos of gdr, for tests that need them cold.

The correlator memo and the memoized functions of the bamboo and divisor
sides, of the shared kappa splits and of the kappa expansion all live as
long as the process, so a test that claims to start from an empty memo
must empty every one of them: a warm vertex memo, say, skips correlator
evaluations that a cold run would make.
"""
from gdr import bamboo, core, correlators, hain, kappa


def clear_memos():
    """Empty the correlator memo and every memoized function of gdr.bamboo,
    gdr.hain, gdr.core and gdr.kappa."""
    correlators.clear_memo()
    memos = [
        f for module in (bamboo, hain, core, kappa) for f in vars(module).values() if hasattr(f, "cache_clear")
    ]
    assert {
        bamboo._scaled_vertex,
        bamboo._pair,
        bamboo._tail,
        hain._run,
        hain._vertex_table,
        core.kappa_splits,
        kappa._extension,
    } <= set(memos)
    for memo in memos:
        memo.cache_clear()
