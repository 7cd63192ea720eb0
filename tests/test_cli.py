"""CLI subcommands, exit codes, CSV determinism, and the ways to run the CLI."""

import io
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import siegelscan
from siegelscan import CapacityError
from siegelscan.cli import build_parser, main
from siegelscan.scan import ScanRow, scan_discriminants, write_scan_csv


def run_main(*argv):
    """Call main() catching argparse's SystemExit; returns (code, stdout)."""
    import contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, buf.getvalue()


# ---------------------------------------------------------------- exit codes


def test_verify_scan_smoke_exits_zero(tmp_path):
    out = tmp_path / "reports.json"
    code, text = run_main("verify", "--suite", "scan-smoke", "--out", str(out))
    assert code == 0
    assert "[PASS]" in text and "[FAIL]" not in text
    reports = json.loads(out.read_text())
    assert isinstance(reports, list) and reports
    for rec in reports:
        assert set(rec) == {
            "name", "params", "lhs", "rhs", "residual",
            "envelope", "ratio", "pass", "kind",
        }
        assert rec["pass"] is True


def test_verify_out_writes_numpy_valued_exact_reports(tmp_path):
    # the vm-exp-third case sums numpy complex values, so its residual and
    # the comparison behind its verdict come out as numpy scalars
    out = tmp_path / "reports.json"
    code, _ = run_main(
        "verify", "--suite", "identities", "--two-var-cases", "0",
        "--swap-cases", "0", "--out", str(out),
    )
    assert code == 0
    reports = json.loads(out.read_text())
    assert any(rec["params"].get("f") == "vm-exp-third" for rec in reports)
    assert all(rec["pass"] is True for rec in reports)


def test_verify_bad_suite_exits_two():
    code, _ = run_main("verify", "--suite", "bogus")
    assert code == 2


def test_verify_tiny_envelope_exits_one():
    # shrinking the measured-check budget to nothing must surface as failure
    code, text = run_main(
        "verify", "--suite", "corollaries", "--c-max", "1e-12"
    )
    assert code == 1
    assert "[FAIL]" in text


@pytest.mark.parametrize("c_max", ["nan", "inf", "0", "-1"])
def test_verify_bad_c_max_exits_two(c_max):
    # nan failed half the measured checks and inf passed them all
    code, text = run_main("verify", "--suite", "corollaries", "--c-max", c_max)
    assert code == 2
    assert text == ""


def test_lvalues_direct_json():
    code, text = run_main("lvalues", "--d", "-4", "--x", "1e6")
    assert code == 0
    obj = json.loads(text)
    assert obj["d"] == -4 and obj["q"] == 4 and obj["method"] == "direct"
    assert abs(obj["value"] - math.pi / 4) <= obj["bound"]


def test_lvalues_help_names_the_quantity_of_each_method():
    code, text = run_main("lvalues", "--help")
    assert code == 0
    text = " ".join(text.split())  # argparse wraps help to the terminal width
    assert "direct: L(1) truncated at --x" in text
    assert "tau: L'(1) by the tau identity at --x" in text
    assert "class-number: the exact L(1) for d < 0, which ignores --x" in text


def test_lvalues_class_number_json():
    code, text = run_main("lvalues", "--d", "-23", "--method", "class-number")
    assert code == 0
    obj = json.loads(text)
    # h(-23) = 3 with w = 2
    want = 2 * math.pi * 3 / (2 * math.sqrt(23))
    assert abs(obj["value"] - want) < 1e-12
    assert obj["truncation"] == math.inf or obj["truncation"] is None


def test_lvalues_class_number_ignores_x():
    # the oracle is exact, so a truncation below |d| does not apply to it
    code, text = run_main("lvalues", "--d", "-7", "--x", "3", "--method", "class-number")
    assert code == 0
    obj = json.loads(text)
    assert obj["method"] == "class-number"
    assert abs(obj["value"] - math.pi / math.sqrt(7)) < 1e-12  # h(-7) = 1, w = 2


@pytest.mark.parametrize("method", ["direct", "tau"])
def test_lvalues_series_x_below_q_exits_two(method, capsys):
    assert main(["lvalues", "--d", "-7", "--x", "3", "--method", method]) == 2
    assert "truncation x must be >= |d|" in capsys.readouterr().err


def test_lvalues_class_number_beyond_oracle_limit_exits_two(capsys):
    assert main(["lvalues", "--d", "-1000003", "--method", "class-number"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "class number oracle limited to |d| <= 1e6" in captured.err


@pytest.mark.parametrize("x", ["1e19", "1e30", "1e300"])
@pytest.mark.parametrize("d", [-3, 5, 8])
def test_lvalues_direct_at_huge_x(d, x):
    # far beyond int64: the complete-period route's tail must not overflow
    code, text = run_main("lvalues", "--d", str(d), "--x", x)
    assert code == 0
    obj = json.loads(text)
    assert obj["d"] == d and obj["truncation"] == float(x)
    assert math.isfinite(obj["value"]) and obj["value"] > 0


def test_lvalues_tau_json():
    code, text = run_main("lvalues", "--d", "5", "--method", "tau", "--x", "1e5")
    assert code == 0
    obj = json.loads(text)
    assert obj["method"] == "tau-identity" or obj["method"] == "tau"
    assert obj["bound"] > 0


@pytest.mark.parametrize("method", ["direct", "tau"])
def test_lvalues_holds_no_chi_period(method, capsys):
    # each query reads its chi period once; a stream of them must not fill
    # the cache with periods (about 5 MiB over 100 queries up to q = 1e6)
    from siegelscan.primes import _ARRAYS

    _ARRAYS.clear()  # start from an empty cache, whatever ran before
    try:
        for d in (-4, 5, -200003, 999997):
            x = str(max(abs(d), 10**5))
            assert main(["lvalues", "--d", str(d), "--x", x, "--method", method]) == 0
            assert json.loads(capsys.readouterr().out)["d"] == d
            assert not [key for key in _ARRAYS._held if key[0] == "_period"], (d, method)
    finally:
        _ARRAYS.clear()


def test_lvalues_non_fundamental_exits_two():
    code, _ = run_main("lvalues", "--d", "9")
    assert code == 2


def test_lvalues_class_number_positive_d_exits_two():
    code, _ = run_main("lvalues", "--d", "5", "--method", "class-number")
    assert code == 2


def test_scan_x_too_small_exits_two(tmp_path):
    code, _ = run_main(
        "scan", "--dmin", "-50", "--dmax", "-1", "--x", "10",
        "--out", str(tmp_path / "scan.csv"),
    )
    assert code == 2


def test_out_of_capacity_scan_window_is_refused_before_enumeration(capsys, monkeypatch):
    # a |d| above primes.DEFAULT_MAX_WIDTH would raise CapacityError at its
    # chi period; the window is refused before a single d is tested
    def no_enumeration(d):
        raise AssertionError("the window was enumerated")

    monkeypatch.setattr("siegelscan.scan.is_fundamental", no_enumeration)
    with pytest.raises(CapacityError):
        scan_discriminants(-(10**11), 10**11, 1e12)
    argv = ["scan", "--dmin", "-100000000000", "--dmax", "100000000000", "--x", "1e12"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_scan_past_the_tau_width_is_refused_before_the_first_row(capsys, monkeypatch):
    # every row's tau sum would refuse x = 1e9: the window is refused before
    # any row's L(1) is summed and before a worker pool starts
    def no_row(D, x):
        raise AssertionError("a row was summed")

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr("siegelscan.scan.l_one", no_row)
    monkeypatch.setattr("multiprocessing.Pool", no_pool)
    with pytest.raises(CapacityError, match=r"^tau sum length 10\^9\.00 exceeds budget"):
        scan_discriminants(-50, -1, 1e9, jobs=2)
    argv = ["scan", "--dmin", "-50", "--dmax", "-1", "--x", "1e9", "--jobs", "2"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: tau sum length 10^9.00 exceeds budget 67108864\n"
    )
    # a window with no fundamental d has no row to refuse
    assert scan_discriminants(2, 3, 1e9) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["lvalues", "--d", "-3", "--x", "nan"],
        ["lvalues", "--d", "-3", "--x", "inf"],
        ["lvalues", "--d", "-3", "--x", "nan", "--method", "tau"],
        ["scan", "--dmin", "-50", "--dmax", "-1", "--x", "inf"],
    ],
)
def test_non_finite_truncation_exits_two(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "finite" in err and "Traceback" not in err


CPUS = os.cpu_count() or 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "identities", "--two-var-cases", "-1"],
        ["verify", "--suite", "identities", "--swap-cases", "-1"],
        ["verify", "--suite", "scan-smoke", "--jobs", "0"],
        ["verify", "--suite", "scan-smoke", "--jobs", str(CPUS + 1)],
        ["scan", "--dmin", "-50", "--dmax", "-1", "--x", "1e3", "--jobs", "0"],
        ["scan", "--dmin", "-50", "--dmax", "-1", "--x", "1e3", "--jobs", str(CPUS + 1)],
    ],
)
def test_out_of_range_counts_exit_two(argv, capsys, monkeypatch):
    # the argument is rejected before any work: a pool would be a failure
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    # verify imports multiprocessing only where it starts a pool
    monkeypatch.setattr("multiprocessing.Pool", no_pool)
    assert main(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.fixture
def no_case_lists(monkeypatch):
    from siegelscan import verify

    def no_cases(*args):
        raise AssertionError("a case list was built")

    monkeypatch.setattr(verify, "random_two_var_cases", no_cases)
    monkeypatch.setattr(verify, "random_swap_triples", no_cases)
    return verify


@pytest.mark.parametrize("flag", ["--two-var-cases", "--swap-cases"])
@pytest.mark.parametrize("count", ["1000001", "1000000000"])
def test_case_count_above_cap_exits_one(flag, count, capsys, no_case_lists):
    # refused before any check runs or any case list is built
    assert main(["verify", "--suite", "all", flag, count]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert "at most 1000000" in lines[0] and "Traceback" not in captured.err


@pytest.mark.parametrize("counts", [(10**6, 0), (0, 10**6)])
def test_case_count_at_cap_passes_the_guard(counts, monkeypatch, no_case_lists):
    verify = no_case_lists
    assert verify.MAX_CASES == 10**6

    class Reached(Exception):
        pass

    def first_check(*args):
        raise Reached

    monkeypatch.setattr(verify, "_two_var_named", first_check)
    with pytest.raises(Reached):
        verify.run_suite("identities", two_var_cases=counts[0], swap_cases=counts[1])


def test_tau_beyond_capacity_exits_one(capsys, monkeypatch):
    # the guard fires before the length-x weights exist: building them fails
    def no_weights(x):
        raise AssertionError("tau weights were built")

    monkeypatch.setattr("siegelscan.lseries._tau_weights", no_weights)
    assert main(["lvalues", "--d", "-4", "--method", "tau", "--x", "1e9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("x", ["1e8", "1e200"])
@pytest.mark.parametrize(
    "argv",
    [
        ["lvalues", "--d", "-7", "--method", "tau"],
        ["scan", "--dmin", "-8", "--dmax", "-3"],
    ],
)
def test_tau_route_beyond_capacity_exits_one(argv, x, capsys):
    # the tau sum's budget is checked before L(1) at x^2, which is inf at 1e200
    assert main(argv + ["--x", x]) == 1
    err = capsys.readouterr().err
    assert "exceeds budget" in err and "Traceback" not in err


def test_tau_capacity_error_names_x_briefly(capsys):
    # x = 1e200 used to be printed in full, all 201 digits
    assert main(["lvalues", "--d", "-7", "--x", "1e200", "--method", "tau"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert len(lines[0]) <= 80, lines[0]
    assert "10^200.00" in lines[0]


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["lvalues", "--d", "67108865", "--x", "1e8"], id="lvalues"),
        pytest.param(["scan", "--dmin", "67108865", "--dmax", "67108865", "--x", "1e8"], id="scan"),
    ],
)
def test_chi_table_beyond_capacity_exits_one(argv, capsys, monkeypatch):
    # |d| = 2^26 + 1: the guard fires before the period is built.  The
    # constructor's squarefree test factorizes |d| too, so only a call from
    # the table builder fails.
    from siegelscan import characters
    from siegelscan.primes import _ARRAYS

    factorize = characters.factorize
    builder = characters._period.__wrapped__.__code__

    def factorize_outside_builder(m):
        if sys._getframe(1).f_code is builder:
            raise AssertionError("the chi period was built")
        return factorize(m)

    monkeypatch.setattr(characters, "factorize", factorize_outside_builder)
    builds = _ARRAYS.misses["_period"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert "chi period length 67108865 exceeds budget" in lines[0], lines[0]
    assert _ARRAYS.misses["_period"] == builds
    assert ("_period", 67108865) not in _ARRAYS._held


def test_huge_discriminant_exits_two_quickly():
    # -(2^61 - 1) lies beyond factorization's range; it must not hang
    pkg_home = pathlib.Path(siegelscan.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "siegelscan", "lvalues",
         "--d", str(-(2**61 - 1)), "--method", "class-number"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(pkg_home)},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


CONSOLE_ARGV = ["lvalues", "--d", "-3", "--x", "1e4"]


def assert_l_one_minus_3(proc):
    """The console script exited 0 with L(1, chi_{-3}) inside its bound."""
    assert proc.returncode == 0, proc.stderr
    obj = json.loads(proc.stdout)
    assert abs(obj["value"] - math.pi / (3 * math.sqrt(3))) <= obj["bound"]


def test_console_script_runs():
    # Run the declared entry point the way its generated wrapper does, through
    # this interpreter and on the same package, so no install is needed.
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["siegelscan"]
    module, func = target.split(":")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    pkg_home = pathlib.Path(siegelscan.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code, *CONSOLE_ARGV],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(pkg_home)},
    )
    assert_l_one_minus_3(proc)


def test_library_does_not_import_cli():
    # importing the package leaves the CLI unloaded, so running it with
    # python -m (as a package or as its module) draws no runpy warning
    pkg_home = pathlib.Path(siegelscan.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(pkg_home)}
    code = "import sys, siegelscan; sys.exit('siegelscan.cli' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, "import siegelscan loaded siegelscan.cli"
    for module in ("siegelscan", "siegelscan.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, *CONSOLE_ARGV],
            capture_output=True, text=True, env=env,
        )
        assert proc.stderr == "", (module, proc.stderr)
        assert_l_one_minus_3(proc)


def test_cli_import_leaves_scipy_and_multiprocessing_unloaded():
    # numpy is the one runtime dependency; scipy and multiprocessing cost a
    # start-up that most runs never use, and the scan does not need its CLI
    pkg_home = pathlib.Path(siegelscan.__file__).resolve().parents[1]
    for module, unloaded in (
        ("siegelscan.cli", ("scipy", "multiprocessing")),
        ("siegelscan.scan", ("siegelscan.cli", "scipy", "multiprocessing")),
    ):
        code = (
            f"import sys, {module}; "
            f"print(sorted(m for m in {unloaded!r} if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(pkg_home)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n", module


def test_suite_collects_without_scipy():
    # scipy is no test dependency: with it blocked, every test module imports
    tests = pathlib.Path(__file__).resolve().parent
    pkg_home = pathlib.Path(siegelscan.__file__).resolve().parents[1]
    code = (
        "import sys; sys.modules['scipy'] = None; "
        "import pytest; sys.exit(pytest.main(sys.argv[1:]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, "--collect-only", "-q", "-p", "no:cacheprovider", str(tests)],
        capture_output=True, text=True, cwd=tests.parent,
        env={**os.environ, "PYTHONPATH": str(pkg_home)},
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr


def test_scan_row_and_csv_are_defined_in_the_scan_module_only():
    # every other module holds the scan's names as imports of the very same
    # objects, which the benchmark tracer rebinds by identity
    from siegelscan import cli, scan, verify

    assert siegelscan.ScanRow is scan.ScanRow
    assert siegelscan.scan_discriminants is scan.scan_discriminants
    assert verify.scan_discriminants is scan.scan_discriminants
    assert cli.scan_discriminants is scan.scan_discriminants
    assert cli.write_scan_csv is scan.write_scan_csv
    for name in ("ScanRow", "_scan_one", "_coprime_zeta2_exact"):
        assert not hasattr(verify, name), name
    assert not hasattr(cli, "SCAN_COLUMNS")


@pytest.mark.skipif(
    shutil.which("siegelscan") is None,
    reason="no siegelscan executable on PATH (package not installed)",
)
def test_installed_console_script_runs():
    proc = subprocess.run(
        ["siegelscan", *CONSOLE_ARGV], capture_output=True, text=True,
    )
    assert_l_one_minus_3(proc)


# ----------------------------------------------------------------- scan CSV

SCAN_HEADER = "d,q,L1,L1_err,L1prime,Pq,rhs_main,ratio_main,score"


def test_scan_csv_header_and_determinism(tmp_path, monkeypatch):
    # --jobs 2 must pass the CLI's CPU-count check on a 1-CPU host as well
    monkeypatch.setattr("siegelscan.cli.os.cpu_count", lambda: 2)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    code, _ = run_main(
        "scan", "--dmin", "-50", "--dmax", "-1", "--x", "1e3",
        "--out", str(out1), "--jobs", "1",
    )
    assert code == 0
    code, _ = run_main(
        "scan", "--dmin", "-50", "--dmax", "-1", "--x", "1e3",
        "--out", str(out2), "--jobs", "2",
    )
    assert code == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0] == SCAN_HEADER
    assert len(lines) == 1 + 16


def test_scan_csv_round_trip():
    # %.9g prints enough digits that re-emitting parsed rows is stable
    rows = scan_discriminants(-30, -1, 10**3)
    buf = io.StringIO()
    write_scan_csv(rows, buf)
    text = buf.getvalue()
    parsed = []
    for line in text.splitlines()[1:]:
        parts = line.split(",")
        parsed.append(
            ScanRow(int(parts[0]), int(parts[1]), *(float(p) for p in parts[2:]))
        )
    buf2 = io.StringIO()
    write_scan_csv(parsed, buf2)
    assert buf2.getvalue() == text


PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("workload", ["scan-small-q", "scan-large-q"])
def test_scan_csv_equals_benchmark_reference(workload, monkeypatch):
    # the quick windows of the benchmark's scan workloads, call by call as
    # perfbench/run.py makes them, must print its reference CSV byte for byte
    import importlib.util

    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py inserts src
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    wl = run.make_workload(workload, 0, True)
    buf = io.StringIO()
    for argv in wl.calls():
        args = build_parser().parse_args(argv)
        write_scan_csv(scan_discriminants(args.dmin, args.dmax, args.x), buf)
    ref = (PERFBENCH / "ref" / f"{wl.name}.csv").read_text()
    assert buf.getvalue() == ref


def test_scan_stdout(capsys):
    code = main(["scan", "--dmin", "-8", "--dmax", "-3", "--x", "100"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == SCAN_HEADER
    assert {int(l.split(",")[0]) for l in lines[1:]} == {-3, -4, -7, -8}


def test_cached_parser_carries_nothing_from_one_call_to_the_next():
    # main() parses with one parser per process: each call must see the
    # defaults and the subcommand of its own argv, as a new parser would
    assert build_parser() is build_parser()
    calls = [
        ["lvalues", "--d", "-4", "--x", "1e7"],
        ["lvalues", "--d", "-4"],
        ["scan", "--dmin", "-8", "--dmax", "-3", "--x", "100"],
        ["verify", "--suite", "identities"],
    ]
    outs = []
    for argv in calls:
        fresh = vars(build_parser.__wrapped__().parse_args(argv))
        assert vars(build_parser().parse_args(argv)) == fresh, argv
        code, text = run_main(*argv)
        assert code == 0, argv
        outs.append(text)
    assert json.loads(outs[0])["truncation"] == 1e7
    assert json.loads(outs[1])["truncation"] == 1e6
    assert outs[2].splitlines()[0] == SCAN_HEADER
    # 6 catalog + 200 seeded two-variable cases, 5 exponential, 5 + 500 swaps
    assert outs[3].splitlines()[-1].startswith("suite=identities passed 716/716 ")
