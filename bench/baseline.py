#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and record the spread.

Run from the repository root:

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

For each workload in BENCHMARK.json it runs `bench/run.py --trace 0` once
per seed, then once with `--trace 1`, each in a fresh interpreter, one at
a time.  For every metric it records the values, the median, the quartiles
(statistics.quantiles, n=4) and the spread (quartile distance / median),
and whether every gated end-to-end spread is below a third of its bound.  The
output also holds the machine description and the seeds used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path


NOTES = [
    "verify-mixed includes the hostile header `design shrikhande 1000000001 complete` / "
    "`blocks 0`.  Today it escapes cli.main as numpy's MemoryError before anything is "
    "allocated, so each verify-mixed cycle fails one of its 19 operations: it is counted "
    "in `failed` (ops_failed_frac about 0.053), never dropped from the workload.  It is "
    "the only tolerated escape: any other exception, from it or from any other "
    "operation, makes the run incorrect.",
    "cycle_s_p50 and cycle_s_tail are reference seconds (speed-probe scaled, see the "
    "measurement section of run.py).  setup_s is reference seconds too: each set-up "
    "start is paired with a fresh interpreter that only imports numpy (see "
    "run.setup_seconds); the wall-clock median is printed as setup_wall_s.  peak_mib is "
    "tracemalloc.",
    "cycle_s_tail is the highest percentile with ten cycles beyond it.  verify-raw runs "
    "only about 20 cycles per run, so there that percentile is near p50, and its median "
    "can even read below cycle_s_p50's.  verify-raw's cycle_s_tail is a second gated "
    "median: it says nothing about the tail and is no evidence for or against a tail "
    "change.",
    "blocks.transversal_s reads 0 on every workload: only the `selftest` command calls "
    "blocks.difference_transversal_check, and no workload runs it.",
    "bench.self_accounted_frac is a consistency check of the span bookkeeping, near 1 "
    "by construction (cli.main wraps each whole operation, so unspanned time is cli self "
    "time).  bench.below_cli_frac, the share of traced cycle time that is self time of "
    "a module other than cli, shows how much the module spans cover.",
]


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["exit"] = proc.returncode
    result["elapsed_s"] = time.perf_counter() - t0
    print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}, "
          f"{result['failed']} of {result['attempted']} failed", file=sys.stderr)
    return result


def summary(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": bound}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    first, last = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"machine": machine(), "run_seconds": spec["run_seconds"], "seeds": seeds,
              "notes": NOTES, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        runs = [run_once(spec["command"], name, s, spec["run_seconds"], 0) for s in seeds]
        traced = run_once(spec["command"], name, seeds[0], spec["run_seconds"], 1)
        e2e = {m: summary([r["metrics"][m]["value"] for r in runs], bounds[m]) for m in bounds}
        record["workloads"][name] = {
            "why": w["why"],
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "elapsed_s": [round(r["elapsed_s"], 1) for r in runs],
            "end_to_end": e2e,
            "spreads_below_third_of_bound": all(
                v["spread"] < v["bound"] / 3 for v in e2e.values()),
            "per_layer_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
