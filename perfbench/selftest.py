"""Quick self-test of the benchmark: every workload, untraced and traced.

Usage (from the repository root): python3 perfbench/selftest.py

Runs perfbench/run.py --quick (tiny inputs) for each workload with --trace 0
and --trace 1 and fails loudly unless
  - each run prints a result line with exactly the keys correct, attempted,
    failed and metrics, passes its output checks, and emits every metric
    BENCHMARK.json lists for the mode with the listed unit;
  - every traced layer function has a nonzero call count on at least one
    workload, so a renamed public function cannot drop a layer silently.
Takes about a minute and a half; verify-all dominates because its fixed
grids run at truncations up to 1e7 even with two random cases each.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import ROOT, WORKLOADS
from tracing import LAYERS


def run(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
        "--seed", "1", "--seconds", "1", "--trace", str(trace), "--quick",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    detail = json.loads(lines[-2].removeprefix("detail "))
    return json.loads(lines[-1]), detail


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    reached: set[str] = set()
    for workload in WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, detail = run(workload, trace)
            tag = f"{workload} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{tag}: correct={result['correct']} failed={result['failed']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in listed}
            if got != want:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            if trace:
                reached |= {k for k, v in detail["layers"].items() if k.endswith(".calls") and v}
            print(f"ok  {tag}: attempted={result['attempted']}", flush=True)
    for _, _, stem, _ in LAYERS:
        if f"{stem}.calls" not in reached:
            problems.append(f"{stem}: zero calls on every workload")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
