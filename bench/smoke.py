#!/usr/bin/env python3
"""Smoke check of the benchmark itself, one cycle per workload.

Run from the repository root:

    python3 bench/smoke.py

It checks that the all-workloads run prints every end-to-end figure by
name with its unit, that each workload's result line carries exactly the
metrics BENCHMARK.json lists (end_to_end untraced, per_layer traced), and
that a certificate digest that does not match its pin, or an exception
escaping a construct, is counted as a failed operation and makes the result
incorrect (exit 1).  Exits 1 on the first
mismatch.
"""

from __future__ import annotations

import io
import json
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

# every end-to-end figure the all-workloads run prints, with its unit
PRINTED = {
    "setup_s": "s", "ops_failed_frac": "ratio",
    "construct_s_p50": "s", "construct_s_tail": "s", "construct_peak_mib": "MiB",
    "verify_s_p50": "s", "verify_s_tail": "s", "reject_s_p50": "s", "verify_peak_mib": "MiB",
    "raw_s_p50": "s", "raw_s_tail": "s",
}


def _run(argv: list[str]) -> tuple[int, str, dict]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(argv)
    text = out.getvalue()
    return code, text, json.loads(text.strip().splitlines()[-1])


def _check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    contract = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    args = ["--seed", "7", "--seconds", "0"]

    _, text, result = _run(["--workload", "all", *args])
    for name, unit in PRINTED.items():
        _check(re.search(rf"^{name}\s+-?[\d.]+\s+{re.escape(unit)}\b", text, re.M) is not None
               and result["metrics"].get(name, {}).get("unit") == unit,
               f"all workloads: {name} printed in {unit}")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, _, result = _run(["--workload", workload, *args, "--trace", str(trace)])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            _check(code == 0 and result["correct"] and units == contract[trace],
                   f"{workload} --trace {trace}: correct, metrics as in BENCHMARK.json")

    pins = dict(run.PINS, **{"lk44 97 catalog": "0" * 64})
    out = io.StringIO()
    with redirect_stdout(out):
        correct, attempted, failed, _, figures = run.run_workload(
            "construct-all", 7, 0, 0, pins=pins, setup=(0.0, 0.0))
    _check(not correct and failed >= 1 and figures["ops_failed_frac"]["value"] > 0,
           f"a wrong digest is counted: {failed} of {attempted} operations failed")

    # an exception escaping a construct is a wrong answer, not a tolerated failure
    from design_forge import cli

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    original, cli.construct_design = cli.construct_design, broken
    try:
        code, _, result = _run(["--workload", "construct-all", *args])
    finally:
        cli.construct_design = original
    _check(code == 1 and not result["correct"] and result["failed"] == result["attempted"],
           f"an escaped exception makes the run incorrect: exit {code}, "
           f"{result['failed']} of {result['attempted']} operations failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
