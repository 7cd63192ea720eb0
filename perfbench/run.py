"""siegelscan benchmark: four CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Every unit of work is a fresh Python process (perfbench/worker.py) that
imports ``siegelscan.cli`` and feeds a fixed list of argv vectors through
``siegelscan.cli.main`` with one caller and ``jobs=1``.  A fresh process per
unit matters: the chi-table ``lru_cache``, the shared sieve and the
``_inv_n``/``_harmonic_and_floors`` caches are process-global, and a CLI user
pays them cold on every run.

--trace 0 runs round(S / nominal unit time) units and reports the end-to-end
metrics: medians over the units, and latency percentiles over every call of
every unit.  The units repeat the same calls, except on lvalues-mix, where each
draws its own query stream.  --trace 1 runs the first unit once untraced and once
with every layer function wrapped (perfbench/tracing.py) and reports the
per-layer metrics of the traced unit.  Outputs are checked
outside the timed region in both modes.  --quick shrinks every input so that
perfbench/selftest.py can run all workloads in about a minute.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the metric names and units are the ones BENCHMARK.json
lists for the mode.  The lines before it ("stamp ...", "detail ...") record
the environment, the seed and the raw samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REF_DIR = os.path.join(HERE, "ref")
sys.path.insert(0, SRC)  # the package is imported lazily, after main() checks it is there

SETUP_PROBES = 5  # import-only processes per untraced run, for setup_s
WORKER_TIMEOUT_S = 150


# ---------------------------------------------------------------------------
# Workloads


def _scan_calls(windows: list[tuple[int, int]], rows: int, x: str) -> list[list[str]]:
    """One `scan` call per sub-window holding `rows` fundamental discriminants.

    Equal rows per call keep the per-call latency distribution continuous, so
    its percentiles do not jump between row-count levels.
    """
    from siegelscan.characters import is_fundamental

    ds = [d for lo, hi in windows for d in range(lo, hi + 1) if is_fundamental(d)]
    return [
        ["scan", "--dmin", str(chunk[0]), "--dmax", str(chunk[-1]), "--x", x, "--jobs", "1"]
        for chunk in (ds[i : i + rows] for i in range(0, len(ds), rows))
    ]


LVALUE_METHODS = [("direct", "1e6"), ("direct", "1e7"), ("tau", "1e6"), ("class-number", "1e6")]
_METHOD_FIELD = {"direct": "direct", "tau": "tau-identity", "class-number": "class-number"}


def lvalues_stream(seed: int, unit: int, n: int) -> list[tuple[int, str, str]]:
    """Unit `unit`'s n queries (d, method, x): distinct d, log-uniform q on [3, 1e6).

    Stratified so that different seeds give nearly the same cost: query i
    draws log q from the i-th of n equal strata, and the methods cycle over
    the strata in a fixed order.  class-number queries take d < 0, the others
    a seeded sign.  The order is shuffled.  Every unit of a run draws its own
    stream, so the latency percentiles of a run rest on units x n distinct
    queries rather than on the few that happen to sit near one stream's median.
    """
    from siegelscan.characters import is_fundamental

    rng = random.Random(f"lvalues-mix:{seed}:{unit}")
    lo, hi = math.log(3), math.log(999_000)
    used: set[int] = set()
    queries = []
    for i in range(n):
        method, x = LVALUE_METHODS[i % len(LVALUE_METHODS)]
        sign = -1 if method == "class-number" or rng.random() < 0.5 else 1
        m = int(math.exp(lo + (i + rng.random()) / n * (hi - lo)))
        while not is_fundamental(sign * m) or sign * m in used:
            m += 1
        used.add(sign * m)
        queries.append((sign * m, method, x))
    rng.shuffle(queries)
    return queries


class Workload:
    """A fixed list of CLI calls (one unit) plus the check of its outputs."""

    unit_s = 2.5  # nominal unit time at the seed commit; sets the repeat count

    def calls(self, unit: int = 0) -> list[list[str]]:
        """The argv vectors of the run's unit number `unit`."""
        raise NotImplementedError

    def check(self, outs: list[dict], unit: int = 0) -> tuple[int, int, int]:
        """(rows, attempted, failed) for one unit's call results."""
        raise NotImplementedError


class Scan(Workload):
    def __init__(self, name: str, windows, rows: int, x: str):
        self.name, self.windows, self.rows, self.x = name, windows, rows, x

    def calls(self, unit=0):
        return _scan_calls(self.windows, self.rows, self.x)

    def reference(self) -> list[str]:
        with open(os.path.join(REF_DIR, f"{self.name}.csv")) as fh:
            return fh.read().splitlines()

    def check(self, outs, unit=0):
        ref = [line for line in self.reference() if not line.startswith("d,")]
        got = [line for o in outs for line in o["out"].splitlines() if not line.startswith("d,")]
        bad_codes = sum(1 for o in outs if o["code"] != 0)
        failed = sum(1 for a, b in zip(ref, got) if a != b) + abs(len(ref) - len(got))
        failed = min(len(ref), failed + bad_codes)
        return len(got), max(1, len(ref)), failed


class VerifyAll(Workload):
    unit_s = 20.0

    def __init__(self, seed: int, two_var: int, swap: int, expected_reports: int):
        # the program's own --seed drives both the two-var and swap case draws
        self.verify_seed = random.Random(f"verify-all:{seed}").getrandbits(31)
        self.two_var, self.swap, self.expected = two_var, swap, expected_reports

    def calls(self, unit=0):
        return [[
            "verify", "--suite", "all", "--seed", str(self.verify_seed), "--jobs", "1",
            "--two-var-cases", str(self.two_var), "--swap-cases", str(self.swap),
        ]]

    def check(self, outs, unit=0):
        lines = outs[0]["out"].splitlines()
        n_pass = sum(1 for line in lines if line.startswith("[PASS] "))
        n_fail = sum(1 for line in lines if line.startswith("[FAIL] "))
        n = n_pass + n_fail
        failed = n_fail + abs(n - self.expected) + (outs[0]["code"] != 0 and n_fail == 0)
        attempted = max(self.expected, n)
        return n, attempted, min(attempted, failed)


class LValuesMix(Workload):
    unit_s = 4.0

    def __init__(self, seed: int, n: int):
        self.seed, self.n = seed, n
        self._streams: dict[int, list[tuple[int, str, str]]] = {}
        self._oracle: dict[int, float] = {}

    def queries(self, unit: int) -> list[tuple[int, str, str]]:
        if unit not in self._streams:
            self._streams[unit] = lvalues_stream(self.seed, unit, self.n)
        return self._streams[unit]

    def calls(self, unit=0):
        return [["lvalues", "--d", str(d), "--x", x, "--method", m] for d, m, x in self.queries(unit)]

    def oracle(self, d: int) -> float:
        if d not in self._oracle:
            from siegelscan.characters import FundamentalDiscriminant
            from siegelscan.lseries import class_number_oracle

            self._oracle[d] = class_number_oracle(FundamentalDiscriminant(d)).value
        return self._oracle[d]

    def check(self, outs, unit=0):
        failed = 0
        for (d, method, _), o in zip(self.queries(unit), outs):
            try:
                obj = json.loads(o["out"])
                ok = (
                    o["code"] == 0
                    and obj["d"] == d
                    and obj["method"] == _METHOD_FIELD[method]
                    and math.isfinite(obj["value"])
                    and math.isfinite(obj["bound"])
                )
                if ok and method == "direct" and d < 0:
                    ok = abs(obj["value"] - self.oracle(d)) <= obj["bound"]
            except (ValueError, KeyError, TypeError):
                ok = False
            failed += not ok
        return len(outs), len(self.queries(unit)), failed


def make_workload(name: str, seed: int, quick: bool) -> Workload:
    if name == "scan-small-q":
        # x >> q: the length-x lseries kernels dominate each row
        if quick:
            return Scan("scan-small-q.quick", [(-40, -1), (1, 40)], 4, "1e6")
        return Scan(name, [(-300, -1), (1, 300)], 4, "1e6")
    if name == "scan-large-q":
        # x just above q: cold chi tables and Euler products dominate each row
        if quick:
            return Scan("scan-large-q.quick", [(-200010, -200001)], 1, "2.5e5")
        return Scan(name, [(-200030, -200001), (200001, 200030)], 1, "2.5e5")
    if name == "verify-all":
        # report counts recorded at the seed commit for these case counts
        return VerifyAll(seed, 2, 2, 57) if quick else VerifyAll(seed, 50, 100, 203)
    if name == "lvalues-mix":
        return LValuesMix(seed, 12 if quick else 100)
    raise SystemExit(f"unknown workload {name!r}")


WORKLOADS = ("scan-small-q", "scan-large-q", "verify-all", "lvalues-mix")

# Call counts that must be nonzero on each workload's traced unit; a zero
# means a wrapper no longer reaches the layer (a renamed or re-imported
# function), and the run stops instead of reporting a silent 0.
EXPECTED_CALLS = {
    "scan-small-q": [
        "characters.chi_period", "characters.kronecker_symbol", "characters.chi_values_up_to",
        "sieve.primes_upto", "lseries.l_one", "lseries.l_one_prime_tau",
        "lseries.tau_over_n_sum", "lseries.euler_p_ratio", "lseries.main_term_product",
        "verify.scan_discriminants", "cli.main", "cli.write_scan_csv",
    ],
    "scan-large-q": [
        "characters.chi_period", "characters.kronecker_symbol", "sieve.primes_upto",
        "lseries.l_one", "lseries.euler_p_ratio", "lseries.main_term_product",
        "verify.scan_discriminants", "cli.main", "cli.write_scan_csv",
    ],
    "verify-all": [
        "characters.chi_values_up_to", "sieve.primes_upto", "sieve.shared_sieve",
        "sieve.liouville_table", "sieve.tau_chi_table", "lseries.l_one",
        "lseries.tau_over_n_sum", "lseries.l_one_prime_direct", "lseries.values_up_to",
        "lseries.theta_and_s", "verify.two_variable_identity",
        "verify.exponential_decomposition", "verify.rho_swap_and_skeleton",
        "verify.psi_transfer", "verify.mean_variation", "verify.rho_main_term",
        "verify.tau_log_identity", "verify.tau_props", "verify.theta_decomposition",
        "verify.lambda_chi_mean", "verify.psi_chi", "verify.scan_discriminants",
        "verify.run_suite", "cli.main",
    ],
    "lvalues-mix": [
        "characters.chi_period", "characters.kronecker_symbol", "lseries.l_one",
        "lseries.l_one_prime_tau", "lseries.tau_over_n_sum", "lseries.class_number_oracle",
        "cli.main",
    ],
}


# ---------------------------------------------------------------------------
# Running units


def run_unit(calls: list[list[str]], trace: bool, workdir: str) -> dict:
    """Run one unit in a fresh process and return the worker's result."""
    fd, spec_path = tempfile.mkstemp(suffix=".json", dir=workdir)
    with os.fdopen(fd, "w") as fh:
        json.dump({"calls": calls, "trace": trace}, fh)
    result_path = spec_path[: -len(".json")] + ".result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(result_path) as fh:
        return json.load(fh)


def percentile(samples: list[float], p: int) -> float:
    """p-th percentile by linear interpolation between order statistics."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def _stamp(versions: dict, args) -> dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):  # the checkout may not be a git repository
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "siegelscan")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    return {
        **versions,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
    }


def _untraced(wl: Workload, args, workdir: str):
    probes = 1 if args.quick else SETUP_PROBES
    n_units = 1 if args.quick else max(1, round(args.seconds / wl.unit_s))
    run_unit([], False, workdir)  # warm-up: bytecode and file cache, discarded
    # spread the import-only probes evenly between the units; a probe has unit None
    plan = sorted([((i + 0.5) / probes, None) for i in range(probes)]
                  + [((j + 0.5) / n_units, j) for j in range(n_units)], key=lambda t: t[0])
    setups, units = [], []
    for _, j in plan:
        result = run_unit([] if j is None else wl.calls(j), False, workdir)
        if j is None:
            setups.append(result["setup_s"])
        else:
            units.append(result)

    attempted = failed = 0
    rates = []
    for j, u in enumerate(units):
        rows, att, fail = wl.check(u["calls"], j)
        attempted += att
        failed += fail
        rates.append(rows / u["wall_s"])
    latencies = [1000.0 * c["s"] for u in units for c in u["calls"]]
    setups += [u["setup_s"] for u in units]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(u["wall_s"] for u in units), "s"),
        "cpu_s": (statistics.median(u["cpu_s"] for u in units), "s"),
        "peak_rss_mb": (statistics.median(u["peak_rss_mb"] for u in units), "MiB"),
        "rows_per_s": (statistics.median(rates), "1/s"),
        "query_ms_p50": (percentile(latencies, 50), "ms"),
        "query_ms_p90": (percentile(latencies, 90), "ms"),
    }
    detail = {
        "units": n_units,
        "calls_per_unit": [len(u["calls"]) for u in units],
        "query_samples": len(latencies),
        "setup_samples": setups,
        "unit_wall_s": [u["wall_s"] for u in units],
        "unit_cpu_s": [u["cpu_s"] for u in units],
        "unit_peak_rss_mb": [u["peak_rss_mb"] for u in units],
        "error_rate": failed / attempted,
    }
    return metrics, attempted, failed, detail, units[0]["versions"]


def _traced(wl: Workload, args, workdir: str):
    from tracing import layer_totals

    calls = wl.calls()
    base = run_unit(calls, False, workdir)
    traced = run_unit(calls, True, workdir)

    attempted = failed = 0
    for u in (base, traced):
        _, att, fail = wl.check(u["calls"])
        attempted += att
        failed += fail
    mismatched = sum(
        1 for a, b in zip(base["calls"], traced["calls"]) if (a["code"], a["out"]) != (b["code"], b["out"])
    )
    failed += mismatched

    totals = layer_totals(traced["trace"])
    missing = [stem for stem in EXPECTED_CALLS[args.workload] if not totals.get(f"{stem}.calls")]
    if missing:
        raise RuntimeError(f"no traced calls on {args.workload} for: {', '.join(missing)}")
    metrics = {
        key: (value, "count" if key.endswith(".calls") or key.startswith("verify.reports") else "s")
        for key, value in totals.items()
    }
    overhead = (traced["wall_s"] - base["wall_s"]) / base["wall_s"]
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    detail = {
        "untraced_wall_s": base["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "spans": len(traced["trace"]["spans"]),
        "outputs_mismatched": mismatched,
        "layers": totals,
    }
    return metrics, attempted, failed, detail, traced["versions"]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny inputs, one unit")
    args = ap.parse_args(argv)
    # SIGTERM raises SystemExit, so subprocess.run kills the running worker
    # and the work directory is removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isdir(os.path.join(SRC, "siegelscan")):
        print(f"error: no package at {SRC}/siegelscan", file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    wl = make_workload(args.workload, args.seed, args.quick)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        run = _traced if args.trace else _untraced
        metrics, attempted, failed, detail, versions = run(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = {}
    for m in wanted:
        if m["name"] not in metrics:
            raise RuntimeError(f"metric {m['name']} was not measured")
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            raise RuntimeError(f"metric {m['name']} measured in {unit}, BENCHMARK.json says {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}

    print("stamp " + json.dumps(_stamp(versions, args)))
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
