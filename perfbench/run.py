"""gdr benchmark: end-to-end and per-layer metrics on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload verify-g4-full --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1 --out results.json
    python3 perfbench/run.py --workload all --quick --seconds 1     # genus 2-3 sizes

Each sample runs the workload in fresh child processes, one at a time: a
cold pass that starts without a correlator cache file and writes one, then
a warm pass that loads it; both get a per-sample file through $GDR_CACHE.
Samples repeat until --seconds are used up (at least MIN_SAMPLES). With
--trace 1 a sample is an untraced cold pass, a traced cold pass and a
traced warm pass, and the per-layer metrics are printed instead of the
end-to-end ones. The last line of stdout is the JSON result; the exit code
is 0 only when every output matched its golden value.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
# Per-sample scratch space, inside the checkout; removed after each sample.
WORK_DIR = os.path.join(HERE, ".work")

END_TO_END = (("wall_s", "s"), ("warm_wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
MIN_SAMPLES = {0: 3, 1: 1}
RUN_LIMIT_S = 170  # one workload's run must end within 180 s


class ChildFailed(Exception):
    def __init__(self, message: str, attempted: int) -> None:
        super().__init__(message)
        self.attempted = attempted


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args: argparse.Namespace, samples: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(),
        "seed": args.seed,
        "samples": samples,
    }


def run_child(workload: str, args: argparse.Namespace, traced: bool, cache: str, cwd: str, deadline: float) -> dict:
    """Run one pass; returns its result with ``setup_s`` added."""
    env = dict(os.environ, GDR_CACHE=cache, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(args.seed),
           "--trace", str(int(traced))]
    if args.quick:
        cmd.append("--quick")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE)
    output, ready_at = b"", None
    try:
        fd = proc.stdout.fileno()
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise ChildFailed(f"{workload}: pass did not finish within {RUN_LIMIT_S} s", 0)
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            output += chunk
            if ready_at is None and b"\n" in output:
                ready_at = time.perf_counter()
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = output.decode().splitlines()
    attempted = int(lines[0].split()[1]) if lines and lines[0].startswith("ready ") else 0
    try:
        result = json.loads(lines[-1]) if code == 0 and len(lines) >= 2 else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        raise ChildFailed(f"{workload}: pass exited with code {code} and no result", attempted)
    result["setup_s"] = ready_at - start
    return result


def run_sample(workload: str, args: argparse.Namespace, deadline: float) -> Dict[str, dict]:
    """One sample's pass results, keyed by pass name, in a scratch directory
    that is removed afterwards together with the cache file and report."""
    sample_dir = tempfile.mkdtemp(prefix="sample-", dir=WORK_DIR)
    cache = os.path.join(sample_dir, "gdr_cache")
    if args.trace:
        plan = [("untraced", False), ("cold", True), ("warm", True)]
    else:
        plan = [("cold", False), ("warm", False)]
    passes: Dict[str, dict] = {}
    try:
        for name, traced in plan:
            if name != "warm" and os.path.exists(cache):
                os.remove(cache)
            passes[name] = run_child(workload, args, traced, cache, sample_dir, deadline)
    finally:
        shutil.rmtree(sample_dir, ignore_errors=True)
    return passes


def quartiles(values: List[float]) -> tuple:
    """(q1, median, q3)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def summarize(samples: List[Dict[str, dict]], traced: bool) -> Dict[str, dict]:
    """Median, quartiles and sample count of every metric of the run."""
    series: Dict[str, List[float]] = {}
    if traced:
        for sample in samples:
            untraced, cold, warm = sample["untraced"], sample["cold"], sample["warm"]
            for name in cold["layers"]:
                source = warm if name in tracing.FROM_WARM_PASS else cold
                series.setdefault(name, []).append(source["layers"][name])
            series.setdefault("trace.wall_s", []).append(cold["wall_s"])
            series.setdefault("trace.untraced_wall_s", []).append(untraced["wall_s"])
        units = dict(tracing.PER_LAYER)
    else:
        for sample in samples:
            cold = sample["cold"]
            series.setdefault("wall_s", []).append(cold["wall_s"])
            series.setdefault("warm_wall_s", []).append(sample["warm"]["wall_s"])
            series.setdefault("setup_s", []).extend(p["setup_s"] for p in sample.values())
            series.setdefault("peak_rss_mb", []).append(cold["peak_rss_kb"] / 1024)
        units = dict(END_TO_END)
    out = {}
    for name, values in series.items():
        q1, median, q3 = quartiles(values)
        out[name] = {"value": median, "unit": units[name], "q1": q1, "q3": q3, "n": len(values), "samples": values}
    if traced:
        overhead = out["trace.wall_s"]["value"] - out["trace.untraced_wall_s"]["value"]
        out["trace.overhead_s"] = {"value": overhead, "unit": "s", "q1": overhead, "q3": overhead, "n": 1,
                                   "samples": [overhead]}
    order = [name for name, _ in (tracing.PER_LAYER if traced else END_TO_END)]
    return {name: out[name] for name in order}


def run_workload(workload: str, args: argparse.Namespace) -> dict:
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    samples: List[Dict[str, dict]] = []
    attempted = failed = 0
    error = None
    while True:
        try:
            sample = run_sample(workload, args, deadline)
        except ChildFailed as exc:
            error = str(exc)
            attempted += max(exc.attempted, 1)
            failed += max(exc.attempted, 1)
            break
        samples.append(sample)
        attempted += sum(p["attempted"] for p in sample.values())
        failed += sum(p["failed"] for p in sample.values())
        elapsed = time.perf_counter() - start
        per_sample = elapsed / len(samples)
        if len(samples) >= MIN_SAMPLES[args.trace] and elapsed + per_sample > args.seconds:
            break
        if time.perf_counter() + per_sample > deadline:
            break
    return {
        "workload": workload,
        "error": error,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "metrics": summarize(samples, bool(args.trace)) if samples and error is None else {},
        "environment": environment(args, len(samples)),
    }


def print_result(result: dict) -> None:
    workload = result["workload"]
    env = result["environment"]
    print(f"# {workload}: {env['samples']} samples; cpu {env['cpu']!r}, nproc {env['nproc']}, "
          f"python {env['python']}, commit {env['commit']}, seed {env['seed']}")
    if result["error"]:
        print(f"{workload} error: {result['error']}")
    for name, m in result["metrics"].items():
        digits = 0 if m["unit"] == "count" else 6
        print(f"{workload:15} {name:40} {m['value']:14.{digits}f} {m['unit']:6} "
              f"(median of {m['n']}; q1 {m['q1']:.{digits}f}, q3 {m['q3']:.{digits}f})")
    print(f"{workload:15} {'fail_frac':40} {result['fail_frac']:14.6f} {'ratio':6} "
          f"({result['failed']} of {result['attempted']} items failed)")


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="genus 2-3 sizes, for the harness's own tests")
    parser.add_argument("--out", default=None, help="also write the full results, with quartiles, to this JSON file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gdr", "cli.py")):
        print(f"error: the gdr sources are missing under {SRC}", file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    os.makedirs(WORK_DIR, exist_ok=True)
    try:
        results = [run_workload(name, args) for name in names]
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    for result in results:
        print_result(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seconds": args.seconds, "trace": args.trace, "quick": args.quick, "results": results},
                      handle, indent=1)
            handle.write("\n")

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and all(r["error"] is None for r in results)
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "/"
        for name, m in result["metrics"].items():
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
