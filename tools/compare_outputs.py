"""Check that two checkouts print byte-identical outputs; name every difference.

Usage (from any directory):

    python3 tools/compare_outputs.py --parent DIR --change DIR

DIR is a checkout holding src/siegelscan and perfbench/.  In each checkout,
one fresh Python process runs these calls through ``siegelscan.cli.main``
and keeps each call's exit code and stdout, and the file any ``--out``
writes:

- ``verify --suite all`` at the defaults, with ``--out``;
- ``verify --suite all`` with the arguments of the ``verify-all`` benchmark
  workload at seed 1, with ``--out``;
- the ROADMAP scan, ``scan --dmin -10000 --dmax 10000 --x 1e6 --jobs 2``;
- the 20 one-row scans of the ``scan-large-q`` benchmark workload (q near
  2e5 at x = 2.5e5, so L(1) sums one period literally), from the parent's
  perfbench/run.py;
- the ``lvalues`` calls of the 100 queries of ``lvalues_stream(1, 0, 100)``
  from the parent's perfbench/run.py;
- ``lvalues --method tau`` at x = 1e7 and at x = 10012345, which is not a
  multiple of the tau weights' block length 2^15, for d of both signs with
  q from 3 to near 1e6 (TAU_CALLS), so that the tau weights are compared
  above the x = 1e6 that the other calls reach;
- ``lvalues --method tau`` at x = 1e6 and 2.5e5 for d on both sides of the
  tau kernel's switch between its two sources of chi (SWITCH_TAU_CALLS);
- ``lvalues --method class-number`` for d = -3 and -4 (w = 6 and 4), -163,
  and fundamental d near the oracle's limit |d| <= 1e6 of each kind: d = 1
  (mod 4), d = -8m and d = -4m with d/4 = 3 (mod 4) (CLASS_NUMBER_CALLS);
- L(1) and L'(1) by complete periods for the d of TAU_CALLS at x = q,
  9q + q//3, 10q, 10q + 1, 11q + 2 and 1e12 (PERIOD_CALLS): one period,
  literal periods past the first chunk, both sides of the switch to the
  Taylor tail at 10 periods, and a far x.  L(1) goes through
  ``lvalues --method direct``; L'(1), which no CLI method prints, is
  printed as ``l_one_prime_direct(D, x).value.hex()`` by the same process.

Exit 0 when every output is byte-identical, 1 otherwise.  Then stderr
names every output that differs, in the order of the calls, with its count
of differing lines and its first differing line (number and both lines).
The scan takes about 10 s a side on a 2-vCPU host; the rest about 6 s.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

ROADMAP_SCAN = ["scan", "--dmin", "-10000", "--dmax", "10000", "--x", "1e6", "--jobs", "2"]

# d of odd and even chi, q = 3 to near 1e6.
TAU_DS = (-3, 5, -4, 8, -200003, 200009, -999995, 999997)

# (d, x) of the tau-route calls past x = 1e6.
TAU_CALLS = [(d, x) for x in ("1e7", "10012345") for d in TAU_DS]

# (d, x) of tau-route calls on both sides of the tau kernel's switch from a
# float64 chi block to a per-leaf copy of the int8 period, at q = x/4 - 2^15:
# the fundamental d of both signs nearest it on each side, and d near 1e6 and
# 2e5, all of which copy per leaf.  Every TAU_CALLS x is past the switch.
SWITCH_TAU_CALLS = [
    (d, "1e6") for d in (217229, -217231, 217237, -217235, -999995, 999997)
] + [(d, "2.5e5") for d in (29729, -29732, 29733, -29735, -200003, 200009)]

# (d, x) of the period-route calls, x = K q + R around the switch at 10 periods.
PERIOD_CALLS = [
    (d, x)
    for d in TAU_DS
    for q in (abs(d),)
    for x in (str(q), str(9 * q + q // 3), str(10 * q), str(10 * q + 1), str(11 * q + 2), "1e12")
]

# The first word of a call that prints l_one_prime_direct(D, x).value.hex()
# in place of running the CLI.
L_PRIME = "l_one_prime_direct"

# d of the class-number calls; near |d| = 1e6 the oracle counts its forms
# in three blocks.
CLASS_NUMBER_CALLS = [-3, -4, -163, -999995, -999976, -999991, -999988]

# Runs a JSON list of argv vectors (stdin) through siegelscan.cli.main in
# one process and writes a JSON list of {"code", "out"} (stdout) to stdout;
# an argv [L_PRIME, d, x] prints the hex of L'(1) truncated at x instead.
_RUNNER = """
import contextlib, io, json, sys
from siegelscan import FundamentalDiscriminant, l_one_prime_direct
from siegelscan.cli import main
results = []
for argv in json.load(sys.stdin):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if argv[0] == %r:
            D = FundamentalDiscriminant(int(argv[1]))
            print(l_one_prime_direct(D, float(argv[2])).value.hex())
            code = 0
        else:
            code = main(argv)
    results.append({"code": code, "out": buf.getvalue()})
json.dump(results, sys.stdout)
""" % L_PRIME


def load_perfbench_run(root: str):
    path = os.path.join(root, "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def named_calls(run) -> list[tuple[str, list[str], str | None]]:
    """(name, argv, the --out file name or None) for every compared call."""
    verify_all = run.make_workload("verify-all", 1, False).calls()[0]
    calls = [
        ("verify defaults", ["verify", "--suite", "all"], "verify-defaults.json"),
        ("verify verify-all", verify_all, "verify-all.json"),
        ("roadmap scan", ROADMAP_SCAN, None),
    ]
    for argv in run.make_workload("scan-large-q", 1, False).calls():
        calls.append((f"scan {argv[2]}..{argv[4]} x={argv[6]}", argv, None))
    for d, method, x in run.lvalues_stream(1, 0, 100):
        calls.append((f"lvalues {d} {method} {x}",
                      ["lvalues", "--d", str(d), "--x", x, "--method", method], None))
    for d, x in TAU_CALLS + SWITCH_TAU_CALLS:
        calls.append((f"lvalues {d} tau {x}",
                      ["lvalues", "--d", str(d), "--x", x, "--method", "tau"], None))
    for d in CLASS_NUMBER_CALLS:
        calls.append((f"lvalues {d} class-number",
                      ["lvalues", "--d", str(d), "--method", "class-number"], None))
    for d, x in PERIOD_CALLS:
        calls.append((f"period L(1) {d} {x}",
                      ["lvalues", "--d", str(d), "--x", x, "--method", "direct"], None))
        calls.append((f"period L'(1) {d} {x}", [L_PRIME, str(d), x], None))
    return calls


def collect(root: str, calls: list[tuple[str, list[str], str | None]]) -> dict[str, str]:
    """Every output of the calls in checkout root, by name, as text.

    Per call: stdout, then the --out file, then the exit code, so that the
    first difference reported is the most telling one.
    """
    with tempfile.TemporaryDirectory() as tmp:
        argvs = [argv + (["--out", os.path.join(tmp, out)] if out else [])
                 for _, argv, out in calls]
        env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(root), "src"))
        proc = subprocess.run(
            [sys.executable, "-c", _RUNNER], input=json.dumps(argvs), cwd=tmp, env=env,
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise SystemExit(f"the calls in {root} exited {proc.returncode}:\n{proc.stderr}")
        outputs = {}
        for (name, _, out), res in zip(calls, json.loads(proc.stdout)):
            outputs[f"{name}: stdout"] = res["out"]
            if out:
                with open(os.path.join(tmp, out)) as fh:
                    outputs[f"{name}: --out"] = fh.read()
            outputs[f"{name}: exit code"] = f"{res['code']}\n"
    return outputs


def differences(parent: dict[str, str], change: dict[str, str]) -> list[tuple[str, int, str]]:
    """(name, differing lines, first difference) of every output that differs.

    In the parent's order, then the outputs only the change has.  Lines are
    compared by position; the lines one side has beyond the other's end
    count as differing, and so does every line of an output one side lacks.
    """
    diffs = []
    for name in list(parent) + [n for n in change if n not in parent]:
        a, b = parent.get(name), change.get(name)
        if a is None or b is None:
            side = "parent" if a is None else "change"
            lines = len((a if b is None else b).splitlines())
            diffs.append((name, lines, f"missing on the {side} side"))
            continue
        if a == b:
            continue
        la, lb = a.splitlines(keepends=True), b.splitlines(keepends=True)
        n = sum(x != y for x, y in zip(la, lb)) + abs(len(la) - len(lb))
        first = next(
            (f"line {i}: parent {x!r} != change {y!r}"
             for i, (x, y) in enumerate(zip(la, lb), start=1) if x != y),
            f"parent has {len(la)} lines, change has {len(lb)}",
        )
        diffs.append((name, n, first))
    return diffs


def first_difference(parent: dict[str, str], change: dict[str, str]) -> str | None:
    """The first output, in the parent's order, that differs; None if none does."""
    diffs = differences(parent, change)
    return f"{diffs[0][0]}: {diffs[0][2]}" if diffs else None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    args = ap.parse_args(argv)

    calls = named_calls(load_perfbench_run(args.parent))
    parent = collect(args.parent, calls)
    change = collect(args.change, calls)
    diffs = differences(parent, change)
    if diffs:
        print(f"{len(diffs)} of {len(parent)} outputs differ:", file=sys.stderr)
        for name, n, first in diffs:
            print(f"{name}: {n} differing lines; first {first}", file=sys.stderr)
        return 1
    print(f"{len(parent)} outputs of {len(calls)} calls byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
