"""Measure the benchmark's baseline and its run-to-run spread.

Usage (from the repository root):

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

For every workload this makes RUNS untraced runs and TRACED_RUNS traced
runs, each with another seed, all through the command that BENCHMARK.json
names.  For every metric it records the values, the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread (interquartile
range over the median), and checks each end-to-end spread against its bound.
The result goes to --out with the seeds of each workload and the
environment of the runs (versions, nproc, git sha, source digest).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import ROOT, WORKLOADS

RUNS = 10  # untraced runs per workload
TRACED_RUNS = 3  # traced runs per workload
ENV_KEYS = ("python", "numpy", "scipy", "nproc", "affinity", "git_sha", "src_sha256")


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[0].removeprefix("stamp "))


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else None,
        "values": values,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=os.path.join("perfbench", "baseline.json"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    report = {"run_seconds": seconds, "environment": None, "workloads": {}}
    worst = []
    for workload in WORKLOADS:
        entry = {}
        for trace, n, key in ((0, RUNS, "end_to_end"), (1, TRACED_RUNS, "per_layer")):
            per_metric: dict[str, list[float]] = {}
            seeds = [1000 + 17 * i for i in range(n)]
            attempted = failed = 0
            for i, seed in enumerate(seeds):
                result, stamp = one_run(workload, seed, seconds, trace)
                env = {k: stamp[k] for k in ENV_KEYS}
                if report["environment"] not in (None, env):
                    raise SystemExit(f"environment changed during the baseline: {env}")
                report["environment"] = env
                attempted += result["attempted"]
                failed += result["failed"]
                for name, m in result["metrics"].items():
                    per_metric.setdefault(name, []).append(m["value"])
                print(f"{workload} trace={trace} run {i + 1}/{n} correct={result['correct']}", flush=True)
            entry[key] = {name: summarize(v) for name, v in per_metric.items()}
            entry[f"{key}_seeds"] = seeds
            entry[f"{key}_error_rate"] = failed / attempted
        report["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            flag = "" if name == "setup_s" or s["spread"] <= bounds[name] / 3 else "  <-- above bound/3"
            worst.append((s["spread"] / bounds[name], workload, name))
            print(f"  {workload:13s} {name:14s} median {s['median']:12.5g}  spread {s['spread']:.3f}"
                  f"  bound {bounds[name]}{flag}", flush=True)

    with open(os.path.join(ROOT, args.out), "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    worst.sort(reverse=True)
    print("largest spread/bound:", [(round(r, 2), w, n) for r, w, n in worst[:5]])
    return 0


if __name__ == "__main__":
    sys.exit(main())
