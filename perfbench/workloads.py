"""The three gdr benchmark workloads: their sizes, inputs and checks.

Every workload drives gdr only through ``gdr.cli.main`` argument lists.
``prepare`` builds a workload's inputs from the seed (this is set-up) and
``execute`` runs them and counts the items whose output does not match the
golden values. gdr is imported lazily, so that run.py, which only starts
child processes, can import this module without the program on its path.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import List

NAMES = ("verify-g4-full", "bside-g6-kappa", "witten-deep")

# Full sizes, and the genus 2-3 sizes of --quick.
SIZES = {
    "full": {"verify_genus": 4, "bside_genus": 6, "one_point_genera": (8, 9, 10), "drawn_genera": (8, 9)},
    "quick": {"verify_genus": 3, "bside_genus": 3, "one_point_genera": (2, 3, 4), "drawn_genera": (2, 3)},
}
DRAWN_POINTS = (2, 3, 4)
DRAWS_PER_STRATUM = 4
# A key joins the witten-deep pool when evaluating it right after the
# one-point numbers adds at most this many memo entries. The one-point
# numbers then carry the miss-heavy work, so a run costs the same whatever
# keys the seed draws.
POOL_MAX_NEW_ENTRIES = 3

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
REPORT_FILE = "report.json"
_MS_FIELD = re.compile(r'"ms": \d+')


@dataclass
class Inputs:
    """One pass's inputs: the CLI argument lists and what each must print."""

    argvs: List[List[str]]
    expected: List[object]
    golden_text: str = ""

    @property
    def attempted(self) -> int:
        return len(self.expected)


def golden_path(mode: str, workload: str) -> str:
    """The golden file of a workload at the ``full`` or ``quick`` sizes."""
    return os.path.join(GOLDEN_DIR, mode, f"{workload}.json")


def run_cli(argv: List[str]) -> tuple:
    """Run ``gdr.cli.main`` with its stdout captured; returns (exit code,
    stripped stdout). Its stderr is passed on only when the call fails."""
    from gdr import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    if code != 0:
        sys.stderr.write(err.getvalue())
    return code, out.getvalue().strip()


def normalize_report(text: str) -> str:
    """A verify report with its timing fields zeroed, for exact comparison."""
    return _MS_FIELD.sub('"ms": 0', text)


def one_point_value(genus: int) -> Fraction:
    """<tau_{3g-2}>_g = 1 / (24^g g!)."""
    return Fraction(1, 24 ** genus * factorial(genus))


def prepare(workload: str, seed: int, mode: str) -> Inputs:
    """A workload's inputs at the ``full`` or ``quick`` sizes."""
    size = SIZES[mode]
    with open(golden_path(mode, workload), encoding="utf-8") as handle:
        golden = json.load(handle)
    if workload == "verify-g4-full":
        from gdr import cli

        g = size["verify_genus"]
        # The family is fixed, so the seed has no effect. Each enumerated
        # class is one item, expected to match its golden record.
        labels = [c.label for c in cli.enumerate_omegas(g, include_kappa=True, include_boundary=True)]
        records = {r["omega"]: r for r in golden["report"]["records"]}
        argv = ["verify", "--genus", str(g), "--kappa", "--boundary", "--out", REPORT_FILE]
        return Inputs([argv], [records.get(label) for label in labels], json.dumps(golden["report"], indent=2))
    if workload == "bside-g6-kappa":
        # The classes are the golden file's, so a change to the program's
        # enumeration cannot shrink the work; the seed shuffles their order.
        g = size["bside_genus"]
        labels = sorted(golden["values"])
        random.Random(seed).shuffle(labels)
        argvs = [["bside", "--genus", str(g), "--omega", label] for label in labels]
        return Inputs(argvs, [golden["values"][label] for label in labels])
    if workload == "witten-deep":
        keys = [(g, (3 * g - 2,)) for g in size["one_point_genera"]]
        expected: List[object] = [one_point_value(g) for g, _ in keys]
        strata: dict = {}
        for g, exps, value in golden["pool"]:
            strata.setdefault((g, len(exps)), []).append((g, tuple(exps), value))
        rng = random.Random(seed)
        for stratum in sorted(strata):
            for g, exps, value in rng.sample(strata[stratum], min(DRAWS_PER_STRATUM, len(strata[stratum]))):
                keys.append((g, exps))
                expected.append(Fraction(value))
        argvs = [["witten", "--genus", str(g), "--exps", ",".join(map(str, exps))] for g, exps in keys]
        return Inputs(argvs, expected)
    raise ValueError(f"unknown workload {workload!r}")


def execute(workload: str, inputs: Inputs) -> int:
    """Run the inputs through the CLI; return the number of failed items."""
    if workload == "verify-g4-full":
        return _execute_verify(inputs)
    failed = 0
    for argv, expected in zip(inputs.argvs, inputs.expected):
        try:
            code, out = run_cli(argv)
            ok = code == 0 and expected is not None and Fraction(out) == Fraction(expected)
        except Exception as exc:  # any failure of one item is counted, not fatal
            print(f"error: {' '.join(argv)}: {exc!r}", file=sys.stderr)
            ok = False
        failed += not ok
    return failed


def _execute_verify(inputs: Inputs) -> int:
    """Count records that differ from the golden report, ignoring ``ms``.

    The report must also match byte for byte; a difference outside the
    records (say in ``pass``) counts as one failed item.
    """
    expected = inputs.expected
    try:
        run_cli(inputs.argvs[0])
        with open(REPORT_FILE, encoding="utf-8") as handle:
            produced_text = normalize_report(handle.read())
        os.remove(REPORT_FILE)
        produced = json.loads(produced_text)
    except Exception as exc:
        print(f"error: verify produced no readable report: {exc!r}", file=sys.stderr)
        return len(expected)
    records = produced.get("records", [])
    failed = sum(1 for i, want in enumerate(expected) if want is None or i >= len(records) or records[i] != want)
    if failed == 0 and produced_text.rstrip("\n") != inputs.golden_text:
        failed = 1
    return failed
