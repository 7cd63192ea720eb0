"""Compare two checkouts on the benchmark in alternating pairs; write BENCH_<n>.json.

Usage (from any directory):

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload NAME \
        --pairs 10 --out BENCH_4.json

DIR is a checkout holding BENCHMARK.json and perfbench/.  Pair i runs
``perfbench/run.py --workload NAME --seed S_i --seconds <run_seconds> --trace 0``
in both checkouts with the same seed, the parent first on even i and the
change first on odd i.  After every run the --out file is rewritten, so a
cut-short series keeps the pairs it finished; entries for other workloads
already in --out are kept.

Per workload the file holds each side's median, quartiles
(statistics.quantiles(values, n=4)) and raw values for every end-to-end
metric, the change's wins over the pairs (ties count for neither side), the
change/parent ratio of the medians, whether the change's median is worse than
the parent's by more than the benchmark's bound, whether a gain could be
claimed (at least 9 wins in 10 and a median gap above the parent's
interquartile range), the failure counts and the stamp line of each side.
After the last pair, per workload in --out, one line gives the failed and
attempted operations of each side, and one line per metric gives the parent
and change medians, the wins, both verdicts, and each side's interquartile
range as a fraction of its median next to the metric's bound: a spread above
the bound is too wide to judge a change by.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SEED_BASE = 4000
SEED_STEP = 13


def run_once(root: str, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[0].removeprefix("stamp "))


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def compare(spec: dict, runs: dict) -> dict:
    """Per-metric summary of both sides, from the runs made so far."""
    out = {}
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        p = [r["metrics"][name]["value"] for r in runs["parent"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
        ps, cs = summarize(p), summarize(c)
        ratio = cs["median"] / ps["median"]
        worse = ratio - 1 if lower else 1 - ratio
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "parent": ps,
            "change": cs,
            "change_wins": wins,
            "pairs": len(c),
            "ratio_change_over_parent": ratio,
            "worse_than_bound": worse > m["bound"],
            "gain_claimable": wins >= 0.9 * len(c)
            and abs(cs["median"] - ps["median"]) > ps["q3"] - ps["q1"]
            and worse < 0,
        }
    return out


def spread(side: dict) -> float:
    """The interquartile range of one side's values as a fraction of their median."""
    return (side["q3"] - side["q1"]) / side["median"]


def format_summary(report: dict, spec: dict) -> list[str]:
    """Per workload of a BENCH report, its failures and one line per end-to-end metric.

    Each metric's line ends with both sides' spread (IQR over median) and the
    metric's bound from spec, so that a series too wide to judge shows as such.
    """
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lines = []
    for workload, entry in report["workloads"].items():
        failed, attempted = entry["failed"], entry["attempted"]
        lines.append(
            f"{workload} failed parent {failed['parent']}/{attempted['parent']} -> "
            f"change {failed['change']}/{attempted['change']}"
        )
        for name, m in entry["metrics"].items():
            lines.append(
                f"{workload} {name}: {m['parent']['median']:.4g} -> "
                f"{m['change']['median']:.4g} {m['unit']}, "
                f"wins {m['change_wins']}/{m['pairs']}, "
                f"gain_claimable {str(m['gain_claimable']).lower()}, "
                f"worse_than_bound {str(m['worse_than_bound']).lower()}, "
                f"iqr/median {spread(m['parent']):.3g} -> {spread(m['change']):.3g} "
                f"(bound {bounds[name]:g})"
            )
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    report = {"run_seconds": seconds, "workloads": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            report = json.load(fh)

    runs: dict[str, list] = {"parent": [], "change": []}
    stamps: dict[str, dict] = {}
    failed = {"parent": 0, "change": 0}
    attempted = {"parent": 0, "change": 0}
    seeds = []
    for i in range(args.pairs):
        seed = SEED_BASE + SEED_STEP * i
        seeds.append(seed)
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result, stamp = run_once(getattr(args, side), args.workload, seed, seconds)
            runs[side].append(result)
            stamps.setdefault(side, stamp)
            failed[side] += result["failed"]
            attempted[side] += result["attempted"]
            print(f"{args.workload} pair {i + 1}/{args.pairs} {side} seed {seed} "
                  f"wall_s {result['metrics']['wall_s']['value']:.3f}", flush=True)
        report["workloads"][args.workload] = {
            "seeds": seeds,
            "first_in_pair": ["parent" if j % 2 == 0 else "change" for j in range(len(seeds))],
            "failed": failed,
            "attempted": attempted,
            "metrics": compare(spec, runs),
            "stamps": stamps,
        }
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    print("\n".join(format_summary(report, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
