"""The process-wide memos of gdr, for tests that need them cold.

The correlator memo and the memoized functions of the bamboo and divisor
sides all live as long as the process, so a test that claims to start
from an empty memo must empty every one of them: a warm vertex memo, say,
skips correlator evaluations that a cold run would make.
"""
from gdr import bamboo, correlators, hain


def clear_memos():
    """Empty the correlator memo and every memoized function of gdr.bamboo
    and gdr.hain."""
    correlators.clear_memo()
    memos = [f for module in (bamboo, hain) for f in vars(module).values() if hasattr(f, "cache_clear")]
    assert {bamboo.vertex_integral, bamboo._pair, hain._run, hain._transfer} <= set(memos)
    for memo in memos:
        memo.cache_clear()
