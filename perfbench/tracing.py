"""Span tracer for the per-layer run, wrapped around gdr from outside.

``Tracer.install`` replaces public functions of the gdr modules with
wrappers. A function imported by name into another gdr module is replaced
there too, so every call path is seen. Each call of a spanned function
records a span (name, start, end, parent) in flat arrays kept in memory;
a generator records one span per resumption. The layer metrics are derived
from the spans after the pass, where they cost the measured pass nothing.

``X.s`` is the self time of X's spans: their duration minus the part that
nested spans cover, so self times add up to the traced wall time.
"""
from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict

# (module, function, span name). Two functions may share a span name.
SPANNED = (
    ("gdr.hain", "pair_dr_side", "hain.pair"),
    ("gdr.hain", "pair_dr_boundary", "hain.pair"),
    ("gdr.hain", "expand_divisor_power", "hain.expand_divisor_power"),
    ("gdr.hain", "multiply_by_divisor", "hain.multiply_by_divisor"),
    ("gdr.hain", "evaluate_chain", "hain.evaluate_chain"),
    ("gdr.hodge", "psi_lambda_g_integral", "hodge.psi_lambda_g_integral"),
    ("gdr.bamboo", "pair_bamboo_side", "bamboo.pair"),
    ("gdr.bamboo", "pair_bamboo_boundary", "bamboo.pair"),
    ("gdr.bamboo", "enumerate_bamboos", "bamboo.enumerate_bamboos"),
    ("gdr.bamboo", "vertex_integral", "bamboo.vertex_integral"),
    ("gdr.kappa", "kappa_to_psi", "kappa.kappa_to_psi"),
    ("gdr.correlators", "correlator", "correlators.correlator"),
    ("gdr.correlators", "load_cache", "correlators.load_cache"),
    ("gdr.correlators", "store_cache", "correlators.store_cache"),
    ("gdr.cli", "enumerate_omegas", "cli.enumerate_omegas"),
)
SPANNED_GENERATORS = (("gdr.core", "kappa_distributions", "core.kappa_distributions"),)
# Called too often for a span each; only counted.
COUNTED = (("gdr.core", "kappa_map", "core.kappa_map.calls"),)

# What a call's result adds to a counter.
_OBSERVED: Dict[str, tuple] = {
    "hain.expand_divisor_power": ("hain.expand_divisor_power.chains", len),
    "bamboo.enumerate_bamboos": ("bamboo.enumerate_bamboos.terms", len),
    "kappa.kappa_to_psi": ("kappa.kappa_to_psi.terms_out", len),
    "correlators.load_cache": ("correlators.load_cache.entries", len),
    "hain.evaluate_chain": ("hain.evaluate_chain.nonzero", bool),
    "bamboo.vertex_integral": ("bamboo.vertex_integral.nonzero", bool),
}

LAYERS = ("hain", "hodge", "bamboo", "kappa", "core", "correlators", "cli")

# Per-layer metrics of one traced run, in print order, with their units.
# Those in FROM_WARM_PASS come from the traced warm pass, the rest from the
# traced cold pass; run.py adds the trace.* wall times.
PER_LAYER = (
    ("hain.pair.calls", "count"),
    ("hain.pair.s", "s"),
    ("hain.expand_divisor_power.calls", "count"),
    ("hain.expand_divisor_power.s", "s"),
    ("hain.expand_divisor_power.chains", "count"),
    ("hain.multiply_by_divisor.calls", "count"),
    ("hain.multiply_by_divisor.s", "s"),
    ("hain.evaluate_chain.calls", "count"),
    ("hain.evaluate_chain.s", "s"),
    ("hain.evaluate_chain.nonzero_frac", "ratio"),
    ("hodge.psi_lambda_g_integral.calls", "count"),
    ("hodge.psi_lambda_g_integral.s", "s"),
    ("bamboo.pair.calls", "count"),
    ("bamboo.pair.s", "s"),
    ("bamboo.enumerate_bamboos.calls", "count"),
    ("bamboo.enumerate_bamboos.terms", "count"),
    ("bamboo.vertex_integral.calls", "count"),
    ("bamboo.vertex_integral.s", "s"),
    ("bamboo.vertex_integral.nonzero_frac", "ratio"),
    ("kappa.kappa_to_psi.calls", "count"),
    ("kappa.kappa_to_psi.s", "s"),
    ("kappa.kappa_to_psi.terms_out", "count"),
    ("core.kappa_distributions.calls", "count"),
    ("core.kappa_distributions.yields", "count"),
    ("core.kappa_distributions.s", "s"),
    ("core.kappa_map.calls", "count"),
    ("correlators.correlator.calls", "count"),
    ("correlators.correlator.top_calls", "count"),
    ("correlators.correlator.recursive_calls", "count"),
    ("correlators.correlator.s", "s"),
    ("correlators.memo_lookups", "count"),
    ("correlators.misses", "count"),
    ("correlators.hit_frac", "ratio"),
    ("correlators.load_cache.s", "s"),
    ("correlators.load_cache.entries", "count"),
    ("correlators.store_cache.s", "s"),
    ("cli.enumerate_omegas.s", "s"),
) + tuple((f"layer.{layer}.self_s", "s") for layer in LAYERS) + (
    ("layer.untraced.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)
FROM_WARM_PASS = frozenset({"correlators.load_cache.s", "correlators.load_cache.entries", "correlators.store_cache.s"})


class Tracer:
    """Spans and counters of one pass, in memory."""

    def __init__(self) -> None:
        self.names: list = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()

    def install(self) -> None:
        """Wrap every binding of the traced functions in the loaded gdr modules."""
        for module_name, attr, name in SPANNED:
            original = getattr(sys.modules[module_name], attr)
            if name == "correlators.correlator":
                # Count calls both ways: inside correlators they are the
                # recursion, elsewhere the top-level calls.
                wrapper = self._spanned(name, original)
                self._rebind(original, lambda mod: self._correlator(
                    wrapper, "correlators.correlator." + ("recursive_calls" if mod == module_name else "top_calls"),
                ))
            else:
                wrapper = self._spanned(name, original)
                self._rebind(original, lambda mod: wrapper)
        for module_name, attr, name in SPANNED_GENERATORS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._spanned_generator(name, original)
            self._rebind(original, lambda mod: wrapper)
        for module_name, attr, name in COUNTED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._counted(name, original)
            self._rebind(original, lambda mod: wrapper)

    @staticmethod
    def _rebind(original: Callable, make_wrapper: Callable[[str], Callable]) -> None:
        for module_name, module in list(sys.modules.items()):
            if module_name != "gdr" and not module_name.startswith("gdr."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, make_wrapper(module_name))

    def _open(self, name_id: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _spanned(self, name: str, fn: Callable) -> Callable:
        name_id = self._name_id(name)
        observed_key, observe = _OBSERVED.get(name, (None, None))
        open_span, close_span, counts = self._open, self._close, self.counts

        def wrapper(*args, **kwargs):
            sid = open_span(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(sid)
            if observe is not None:
                counts[observed_key] += observe(result)
            return result

        return wrapper

    def _correlator(self, spanned: Callable, counter: str) -> Callable:
        """Count a correlator call, and count it as a memo lookup when it
        gets that far: gdr.correlators answers genus 0 and keys outside the
        dimension constraint before it looks in the memo."""
        counts = self.counts

        def wrapper(genus, exponents):
            exps = tuple(exponents)
            counts[counter] += 1
            if genus > 0 and exps and sum(exps) == 3 * genus - 3 + len(exps):
                counts["correlators.memo_lookups"] += 1
            return spanned(genus, exps)

        return wrapper

    def _spanned_generator(self, name: str, fn: Callable) -> Callable:
        name_id = self._name_id(name)
        open_span, close_span, counts = self._open, self._close, self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            generator = fn(*args, **kwargs)
            while True:
                sid = open_span(name_id)
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    close_span(sid)
                counts[name + ".yields"] += 1
                yield item

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def metrics(self, pass_start_ns: int, wall_s: float, memo_growth: int) -> Dict[str, float]:
        """Per-layer metrics of the pass that started at ``pass_start_ns``.

        Span counts and self times cover every span; the layer.* sums cover
        only spans inside the pass, so set-up (cli.enumerate_omegas) stays
        out of them and layer.untraced.self_s is the rest of the wall time.
        """
        n = len(self.span_name)
        covered = [0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                covered[p] += self.end[sid] - self.start[sid]
        self_ns: Counter = Counter()
        spans: Counter = Counter()
        layer_ns: Counter = Counter()
        for sid in range(n):
            name = self.names[self.span_name[sid]]
            own = self.end[sid] - self.start[sid] - covered[sid]
            self_ns[name] += own
            spans[name] += 1
            if self.start[sid] >= pass_start_ns:
                layer_ns[name.split(".", 1)[0]] += own

        out: Dict[str, float] = {name: 0 for name, _ in PER_LAYER if not name.startswith("trace.")}
        out.update(self.counts)
        for name in self.names:
            if name not in _GENERATOR_NAMES:  # their spans are resumptions
                out[name + ".calls"] = spans[name]
            out[name + ".s"] = self_ns[name] / 1e9
        for observed_key, _ in _OBSERVED.values():
            if observed_key.endswith(".nonzero"):
                base = observed_key[: -len(".nonzero")]
                calls = out.get(base + ".calls", 0)
                out[base + ".nonzero_frac"] = out.pop(observed_key, 0) / calls if calls else 0.0
        lookups = out["correlators.memo_lookups"]
        out["correlators.misses"] = memo_growth
        out["correlators.hit_frac"] = 1 - memo_growth / lookups if lookups else 0.0
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = layer_ns[layer] / 1e9
        out["layer.untraced.self_s"] = wall_s - sum(layer_ns.values()) / 1e9
        out["trace.spans"] = n
        return {name: value for name, value in out.items() if name in _PER_LAYER_NAMES}


_GENERATOR_NAMES = frozenset(name for _, _, name in SPANNED_GENERATORS)
_PER_LAYER_NAMES = frozenset(name for name, _ in PER_LAYER)
