"""Generate the golden values the benchmark checks its outputs against.

Run once from the repository root, for the full and the quick sizes:

    PYTHONPATH=src python3 perfbench/make_goldens.py
    PYTHONPATH=src python3 perfbench/make_goldens.py --quick

It writes ``perfbench/golden/<full|quick>/<workload>.json``, each stamped
with the commit that produced it:

- verify-g4-full: the whole ``verify --kappa --boundary`` report with its
  ``ms`` fields zeroed. It must pass.
- bside-g6-kappa: one value per monomial class of kappa degree at most
  2, kept only where the bamboo side (``gdr bside``) and the divisor side
  (``gdr drside``) agree. The benchmark runs exactly these classes.
- witten-deep: the pool of n-point keys the seed draws from, with their
  values (see ``workloads.POOL_MAX_NEW_ENTRIES``).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction

import workloads
from run import git_commit

BSIDE_MAX_KAPPA_DEGREE = 2


def _write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")


def _value(argv) -> str:
    code, out = workloads.run_cli(argv)
    if code != 0:
        raise SystemExit(f"error: gdr {' '.join(argv)} exited with {code}")
    return out


def verify_golden(size: dict) -> dict:
    g = size["verify_genus"]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        code, _ = workloads.run_cli(["verify", "--genus", str(g), "--kappa", "--boundary", "--out", path])
        with open(path, encoding="utf-8") as handle:
            report = json.loads(workloads.normalize_report(handle.read()))
    if code != 0 or not report["pass"]:
        raise SystemExit(f"error: verify at genus {g} did not pass")
    return {"report": report}


def kappa_degree(label: str) -> int:
    """Degree of the kappa part of a monomial label such as ``psi1^3 kappa1^2``."""
    total = 0
    for token in label.split():
        if token.startswith("kappa"):
            index, _, exponent = token[len("kappa"):].partition("^")
            total += int(index) * int(exponent or 1)
    return total


def bside_golden(size: dict) -> dict:
    from gdr import cli

    g = size["bside_genus"]
    values = {}
    for test_class in cli.enumerate_omegas(g, include_kappa=True):
        label = test_class.label
        if kappa_degree(label) > BSIDE_MAX_KAPPA_DEGREE:
            continue
        bamboo = _value(["bside", "--genus", str(g), "--omega", label])
        divisor = _value(["drside", "--genus", str(g), "--omega", label])
        if Fraction(bamboo) != Fraction(divisor):
            raise SystemExit(f"error: the pipelines disagree on {label!r}: {bamboo} != {divisor}")
        values[label] = bamboo
    return {"values": values}


def _partitions(total: int, parts: int, smallest: int = 0):
    """Ascending tuples of `parts` non-negative integers summing to `total`."""
    if parts == 1:
        if total >= smallest:
            yield (total,)
        return
    for head in range(smallest, total // parts + 1):
        for tail in _partitions(total - head, parts - 1, head):
            yield (head,) + tail


def witten_pool(size: dict) -> dict:
    from gdr import correlators
    from gdr.core import format_rational

    correlators.clear_memo()
    for g in size["one_point_genera"]:
        correlators.correlator(g, (3 * g - 2,))
    base = len(correlators.memo_snapshot())
    pool = []
    with tempfile.TemporaryDirectory() as tmp:
        snapshot = os.path.join(tmp, "memo")
        correlators.store_cache(snapshot)
        for g in size["drawn_genera"]:
            for n in workloads.DRAWN_POINTS:
                for exps in _partitions(3 * g - 3 + n, n):
                    correlators.clear_memo()
                    correlators.load_cache_into_memo(snapshot)
                    value = correlators.correlator(g, exps)
                    if len(correlators.memo_snapshot()) - base <= workloads.POOL_MAX_NEW_ENTRIES:
                        pool.append([g, list(exps), format_rational(value)])
    return {"pool": pool}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="the genus 2-3 sizes")
    args = parser.parse_args()
    mode = "quick" if args.quick else "full"
    size = workloads.SIZES[mode]
    os.makedirs(os.path.join(workloads.GOLDEN_DIR, mode), exist_ok=True)
    makers = {"verify-g4-full": verify_golden, "bside-g6-kappa": bside_golden, "witten-deep": witten_pool}
    commit = git_commit()
    for workload in workloads.NAMES:
        payload = {"commit": commit, "size": size, **makers[workload](size)}
        path = workloads.golden_path(mode, workload)
        _write(path, payload)
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
