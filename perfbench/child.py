"""One pass of one workload, in a fresh process started by run.py.

Protocol on stdout: the line ``ready <items>`` once gdr is imported and
the inputs are generated (run.py times set-up up to that line), then one
JSON line with the pass's wall time, items attempted and failed, peak RSS
and, for a traced pass, the per-layer metrics. The correlator cache is the
file that $GDR_CACHE names, which run.py sets for every pass.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    from gdr import cli, correlators  # noqa: F401  (loads every gdr module before tracing)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    inputs = workloads.prepare(args.workload, args.seed, "quick" if args.quick else "full")
    print(f"ready {inputs.attempted}", flush=True)

    memo_before = len(correlators.memo_snapshot())
    start_ns = time.perf_counter_ns()
    failed = workloads.execute(args.workload, inputs)
    wall_s = (time.perf_counter_ns() - start_ns) / 1e9
    result = {
        "wall_s": wall_s,
        "attempted": inputs.attempted,
        "failed": failed,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        memo_growth = len(correlators.memo_snapshot()) - memo_before
        result["layers"] = tracer.metrics(start_ns, wall_s, memo_growth)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
