"""Tests of the benchmark harness in its quick mode (genus 2-3 sizes).

Run from the repository root:

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

RUN = os.path.join(run.HERE, "run.py")

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def quick_run(*extra: str, cwd: str = run.ROOT, script: str = RUN) -> tuple:
    """Run the harness in quick mode; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, script, "--quick", "--seconds", "0", "--seed", "3", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.splitlines()


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(tracing.PER_LAYER)
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.NAMES)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    code, lines = quick_run("--workload", "all", "--trace", str(trace))
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in workloads.NAMES:
        for metric in BENCHMARK[section]:
            pattern = rf"^{re.escape(workload)}\s+{re.escape(metric['name'])}\s+-?[\d.]+\s+{re.escape(metric['unit'])}\s"
            assert any(re.match(pattern, line) for line in lines), (workload, metric["name"])
            assert result["metrics"][f"{workload}/{metric['name']}"]["unit"] == metric["unit"]
        assert any(re.match(rf"^{re.escape(workload)}\s+fail_frac\s+0(\.0+)?\s+ratio\s", line) for line in lines)


def test_single_workload_result_line_has_exactly_the_end_to_end_metrics():
    code, lines = quick_run("--workload", "witten-deep", "--trace", "0")
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _corrupt(golden: dict, workload: str) -> None:
    """Change golden values so that a correct program no longer matches."""
    if workload == "verify-g4-full":
        golden["report"]["records"][0]["dr"] = "12345/7"
    elif workload == "bside-g6-kappa":
        label = sorted(golden["values"])[0]
        golden["values"][label] = "12345/7"
    else:
        # every pool value, since the seed decides which keys are drawn
        for entry in golden["pool"]:
            entry[2] = "12345/7"


def _edit_golden(root: str, workload: str, edit) -> None:
    """Apply ``edit`` to a workload's quick golden file in the checkout ``root``."""
    path = os.path.join(root, os.path.relpath(workloads.golden_path("quick", workload), run.ROOT))
    with open(path, encoding="utf-8") as handle:
        golden = json.load(handle)
    edit(golden)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(golden, handle)


def _failing_run(root: str, workload: str) -> dict:
    """Run one workload in the checkout ``root``; assert that it fails and
    return its result line."""
    code, lines = quick_run("--workload", workload, cwd=root, script=os.path.join(root, "perfbench", "run.py"))
    assert code != 0
    result = json.loads(lines[-1])
    assert not result["correct"] and result["failed"] > 0
    fail_frac = next(line for line in lines if re.match(rf"^{re.escape(workload)}\s+fail_frac\s", line))
    assert float(fail_frac.split()[2]) > 0
    return result


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_a_corrupted_golden_value_fails_the_run(tmp_path, workload):
    root = _checkout(tmp_path, with_program=True)
    _edit_golden(root, workload, lambda golden: _corrupt(golden, workload))
    _failing_run(root, workload)


def test_every_golden_bside_class_is_run(tmp_path):
    """The bside classes come from the golden file, not from the program's
    enumeration: an extra golden class is run, and its wrong value fails
    exactly one item of each pass."""
    root = _checkout(tmp_path, with_program=True)
    _edit_golden(root, "bside-g6-kappa", lambda golden: golden["values"].update({"kappa1^3": "12345/7"}))
    result = _failing_run(root, "bside-g6-kappa")
    classes = 8  # the seven golden classes and the extra one
    assert result["attempted"] % classes == 0 and result["failed"] == result["attempted"] // classes


def _files(root) -> set:
    out = set()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        out.update(os.path.relpath(os.path.join(dirpath, f), root) for f in filenames)
    return out


def _checkout(tmp_path, with_program: bool) -> str:
    """A copy of the files a checkout holds: BENCHMARK.json, the benchmark
    and, when asked, the program's sources."""
    root = tmp_path / "checkout"
    ignore = shutil.ignore_patterns("__pycache__", ".work")
    shutil.copytree(run.HERE, root / "perfbench", ignore=ignore)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), root)
    if with_program:
        shutil.copytree(run.SRC, root / "src", ignore=ignore)
    return str(root)


def test_a_run_leaves_no_files_behind(tmp_path):
    root = _checkout(tmp_path, with_program=True)
    before = _files(root)
    code, lines = quick_run("--workload", "all", cwd=root, script=os.path.join(root, "perfbench", "run.py"))
    assert code == 0, lines
    assert _files(root) == before


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    root = _checkout(tmp_path, with_program=False)
    code, lines = quick_run("--workload", "verify-g4-full", cwd=root, script=os.path.join(root, "perfbench", "run.py"))
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
