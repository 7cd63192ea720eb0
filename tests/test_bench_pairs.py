"""The summary lines of the alternating-pair benchmark script."""

import importlib.util
import pathlib

BENCH_PAIRS = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

SPEC = {
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "rows_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    ]
}


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def runs_of(walls, rows):
    return [
        {"metrics": {"wall_s": {"value": w}, "rows_per_s": {"value": r}}}
        for w, r in zip(walls, rows)
    ]


def test_summary_has_one_line_per_workload_and_metric():
    # each line ends with both sides' IQR over median next to the bound: the
    # verify-all change side (0.4) is too wide to judge against 0.25
    bp = load_bench_pairs()
    fast = {
        "parent": runs_of([0.22, 0.23, 0.21, 0.22], [90.0, 88.0, 95.0, 91.0]),
        "change": runs_of([0.17, 0.16, 0.18, 0.17], [60.0, 62.0, 61.0, 59.0]),
    }
    even = {
        "parent": runs_of([1.0, 1.1, 0.9], [10.0, 10.0, 10.0]),
        "change": runs_of([1.0, 1.2, 0.8], [10.0, 11.0, 9.0]),
    }
    report = {
        "workloads": {
            "scan-large-q": {
                "failed": {"parent": 0, "change": 0},
                "attempted": {"parent": 80, "change": 80},
                "metrics": bp.compare(SPEC, fast),
            },
            "verify-all": {
                "failed": {"parent": 0, "change": 2},
                "attempted": {"parent": 3, "change": 3},
                "metrics": bp.compare(SPEC, even),
            },
        }
    }
    assert bp.format_summary(report, SPEC) == [
        "scan-large-q failed parent 0/80 -> change 0/80",
        "scan-large-q wall_s: 0.22 -> 0.17 s, wins 4/4, "
        "gain_claimable true, worse_than_bound false, "
        "iqr/median 0.0682 -> 0.0882 (bound 0.25)",
        "scan-large-q rows_per_s: 90.5 -> 60.5 1/s, wins 0/4, "
        "gain_claimable false, worse_than_bound true, "
        "iqr/median 0.0608 -> 0.0413 (bound 0.25)",
        "verify-all failed parent 0/3 -> change 2/3",
        "verify-all wall_s: 1 -> 1 s, wins 1/3, "
        "gain_claimable false, worse_than_bound false, "
        "iqr/median 0.2 -> 0.4 (bound 0.25)",
        "verify-all rows_per_s: 10 -> 10 1/s, wins 1/3, "
        "gain_claimable false, worse_than_bound false, "
        "iqr/median 0 -> 0.2 (bound 0.25)",
    ]
