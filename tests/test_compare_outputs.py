"""The diff logic of the output-identity script, on synthetic outputs."""

import hashlib
import importlib.util
import json
import pathlib

import numpy as np

from siegelscan import FundamentalDiscriminant, is_fundamental, l_one_prime_direct

COMPARE_OUTPUTS = pathlib.Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


def load_compare_outputs():
    spec = importlib.util.spec_from_file_location("compare_outputs", COMPARE_OUTPUTS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


PARENT = {
    "verify defaults: stdout": "[PASS] a\n[PASS] b\nsuite=all passed 2/2\n",
    "verify defaults: --out": '[\n  {"lhs": 1.0}\n]\n',
    "verify defaults: exit code": "0\n",
    "roadmap scan: stdout": "d,q\n-3,3\n",
}


def test_identical_outputs_have_no_difference():
    co = load_compare_outputs()
    assert co.first_difference(PARENT, dict(PARENT)) is None


def test_first_differing_line_is_named():
    co = load_compare_outputs()
    change = dict(PARENT)
    change["verify defaults: --out"] = '[\n  {"lhs": 1.0000000000000002}\n]\n'
    change["roadmap scan: stdout"] = "d,q\n-4,4\n"
    assert co.first_difference(PARENT, change) == (
        "verify defaults: --out: line 2: parent '  {\"lhs\": 1.0}\\n' "
        "!= change '  {\"lhs\": 1.0000000000000002}\\n'"
    )


def test_exit_code_and_missing_newline_count():
    co = load_compare_outputs()
    change = dict(PARENT, **{"verify defaults: exit code": "1\n"})
    assert co.first_difference(PARENT, change) == (
        "verify defaults: exit code: line 1: parent '0\\n' != change '1\\n'"
    )
    change = dict(PARENT, **{"roadmap scan: stdout": "d,q\n-3,3"})
    assert co.first_difference(PARENT, change) == (
        "roadmap scan: stdout: line 2: parent '-3,3\\n' != change '-3,3'"
    )


def test_extra_lines_and_missing_outputs():
    co = load_compare_outputs()
    change = dict(PARENT, **{"roadmap scan: stdout": "d,q\n-3,3\n-4,4\n"})
    assert co.first_difference(PARENT, change) == (
        "roadmap scan: stdout: parent has 2 lines, change has 3"
    )
    change = {k: v for k, v in PARENT.items() if k != "verify defaults: --out"}
    assert co.first_difference(PARENT, change) == (
        "verify defaults: --out: missing on the change side"
    )
    change = dict(PARENT, **{"lvalues -3 direct 1e6: stdout": "{}\n"})
    assert co.first_difference(PARENT, change) == (
        "lvalues -3 direct 1e6: stdout: missing on the parent side"
    )


def test_every_differing_output_is_listed():
    co = load_compare_outputs()
    assert co.differences(PARENT, dict(PARENT)) == []
    change = dict(PARENT)
    change["verify defaults: stdout"] = "[PASS] a\n[FAIL] b\nsuite=all passed 1/2\n"
    change["roadmap scan: stdout"] = "d,q\n-3,3\n-4,4\n"
    del change["verify defaults: exit code"]
    change["lvalues -3 direct 1e6: stdout"] = "{}\n"
    assert co.differences(PARENT, change) == [
        ("verify defaults: stdout", 2,
         "line 2: parent '[PASS] b\\n' != change '[FAIL] b\\n'"),
        ("verify defaults: exit code", 1, "missing on the change side"),
        ("roadmap scan: stdout", 1, "parent has 2 lines, change has 3"),
        ("lvalues -3 direct 1e6: stdout", 1, "missing on the parent side"),
    ]
    # the first of them is what first_difference names
    assert co.first_difference(PARENT, change) == (
        "verify defaults: stdout: line 2: parent '[PASS] b\\n' != change '[FAIL] b\\n'"
    )


def test_main_prints_every_difference_and_exits_one(monkeypatch, capsys):
    co = load_compare_outputs()
    change = dict(PARENT)
    change["verify defaults: --out"] = '[\n  {"lhs": 1.5}\n]\n'
    change["roadmap scan: stdout"] = "d,q\n-4,4\n"
    sides = {"p": PARENT, "c": change}
    monkeypatch.setattr(co, "load_perfbench_run", lambda root: None)
    monkeypatch.setattr(co, "named_calls", lambda run: [])
    monkeypatch.setattr(co, "collect", lambda root, calls: sides[root])
    assert co.main(["--parent", "p", "--change", "c"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "2 of 4 outputs differ:",
        "verify defaults: --out: 1 differing lines; first line 2: "
        "parent '  {\"lhs\": 1.0}\\n' != change '  {\"lhs\": 1.5}\\n'",
        "roadmap scan: stdout: 1 differing lines; first line 2: "
        "parent '-3,3\\n' != change '-4,4\\n'",
    ]
    sides["c"] = dict(PARENT)
    assert co.main(["--parent", "p", "--change", "c"]) == 0
    assert capsys.readouterr().out == "4 outputs of 0 calls byte-identical\n"


def test_every_output_of_a_call_is_collected():
    # the runner keeps exit code, stdout and the --out file of each call
    co = load_compare_outputs()
    root = pathlib.Path(__file__).resolve().parents[1]
    calls = [
        ("bad d", ["lvalues", "--d", "6"], None),
        ("lvalues", ["lvalues", "--d", "-4", "--x", "100"], None),
        ("identities", ["verify", "--suite", "identities", "--two-var-cases", "1",
                        "--swap-cases", "1"], "identities.json"),
    ]
    out = co.collect(str(root), calls)
    assert list(out) == [
        "bad d: stdout", "bad d: exit code",
        "lvalues: stdout", "lvalues: exit code",
        "identities: stdout", "identities: --out", "identities: exit code",
    ]
    assert out["bad d: exit code"] == "2\n" and out["bad d: stdout"] == ""
    assert out["lvalues: stdout"].startswith('{"d": -4, "q": 4, "method": "direct"')
    assert out["identities: exit code"] == "0\n"
    assert out["identities: --out"].startswith("[\n")


def test_named_calls_include_the_one_row_large_q_scans():
    # the scan-large-q workload's calls: x = 2.5e5 is one period of q near
    # 2e5, a route no other compared scan reaches
    co = load_compare_outputs()
    run = co.load_perfbench_run(str(COMPARE_OUTPUTS.parents[1]))
    calls = co.named_calls(run)
    argvs = [argv for _, argv, _ in calls]
    scans = run.make_workload("scan-large-q", 1, False).calls()
    assert len(scans) == 20
    for argv in scans:
        assert argv in argvs
        assert argv[2] == argv[4] and argv[6] == "2.5e5"
    names = [name for name, _, _ in calls]
    assert len(set(names)) == len(names)


def test_period_grid_outputs_are_collected():
    # L(1) and L'(1) by periods at six x per d of the tau calls, from one
    # period to 1e12; L'(1), which no CLI method prints, as its hex
    from siegelscan import FundamentalDiscriminant, l_one_prime_direct

    co = load_compare_outputs()
    root = COMPARE_OUTPUTS.parents[1]
    argvs = [argv for _, argv, _ in co.named_calls(co.load_perfbench_run(str(root)))]
    assert len(co.PERIOD_CALLS) == 48
    for d, x in co.PERIOD_CALLS:
        assert ["lvalues", "--d", str(d), "--x", x, "--method", "direct"] in argvs
        assert [co.L_PRIME, str(d), x] in argvs
    assert {x for d, x in co.PERIOD_CALLS if d == -4} == {
        "4", "37", "40", "41", "46", "1e12"
    }
    calls = [
        ("L'(1) -4 41", [co.L_PRIME, "-4", "41"], None),
        ("L'(1) 999997 1e12", [co.L_PRIME, "999997", "1e12"], None),
        ("L(1) -4 41", ["lvalues", "--d", "-4", "--x", "41"], None),
    ]
    out = co.collect(str(root), calls)
    for name, (_, d, x), _ in calls[:2]:
        want = l_one_prime_direct(FundamentalDiscriminant(int(d)), float(x)).value.hex()
        assert out[f"{name}: stdout"] == want + "\n"
        assert out[f"{name}: exit code"] == "0\n"
    assert out["L(1) -4 41: stdout"].startswith('{"d": -4, "q": 4, "method": "direct"')


def test_tau_calls_cover_both_sides_of_the_chi_block_switch():
    # every TAU_CALLS x takes the float64 chi block; SWITCH_TAU_CALLS put d
    # on both sides of the switch at x = 1e6 and 2.5e5
    from siegelscan import lseries

    co = load_compare_outputs()
    run = co.load_perfbench_run(str(COMPARE_OUTPUTS.parents[1]))
    argvs = [argv for _, argv, _ in co.named_calls(run)]
    for d, x in co.SWITCH_TAU_CALLS:
        assert ["lvalues", "--d", str(d), "--x", x, "--method", "tau"] in argvs

    def block(d, x):
        return float(x) >= lseries._BLOCK_REUSE * (abs(d) + lseries._LEAF)

    assert all(block(d, x) for d, x in co.TAU_CALLS)
    for x in ("1e6", "2.5e5"):
        sides = [block(d, x) for d, xx in co.SWITCH_TAU_CALLS if xx == x]
        assert sides.count(True) == 2 and sides.count(False) == 4, x
        for sign in (1, -1):
            qs = [abs(d) for d, xx in co.SWITCH_TAU_CALLS if xx == x and d * sign > 0]
            below = max(q for q in qs if block(sign * q, x))
            above = min(q for q in qs if not block(sign * q, x))
            assert above - below < 10, (x, sign)


def test_report_and_period_calls_are_collected():
    # the four checks that sum tables of x + 1 entries, at the 1e7 cap and
    # for a fractional f, and cold chi periods at large prime q, by hash
    from siegelscan import MultiplicativeFunc, characters, verify
    from siegelscan.cli import report_dict

    co = load_compare_outputs()
    root = COMPARE_OUTPUTS.parents[1]
    argvs = [argv for _, argv, _ in co.named_calls(co.load_perfbench_run(str(root)))]
    for args in co.REPORT_CALLS:
        assert [co.REPORT, *args] in argvs
    checks = ("verify_theta_decomposition", "verify_mean_variation",
              "verify_psi_chi", "verify_psi_transfer")
    assert {args[0] for args in co.REPORT_CALLS} == set(checks)
    for check in checks:
        assert any(a[0] == check and a[2] == "1e7" for a in co.REPORT_CALLS), check
    assert {a[0] for a in co.REPORT_CALLS if a[1] == "halves"} == set(checks[:2])
    for d in co.PERIOD_SHA_CALLS:
        assert is_fundamental(d) and [co.PERIOD_SHA, str(d)] in argvs

    calls = [
        ("psi chi", [co.REPORT, "verify_psi_chi", "-4", "1e4"], None),
        ("theta", [co.REPORT, "verify_theta_decomposition", "halves", "1e4", "0.3"], None),
        ("mean", [co.REPORT, "verify_mean_variation", "liouville*chi:-4", "1e4", "5.0"],
         None),
        ("period", [co.PERIOD_SHA, "-163"], None),
    ]
    out = co.collect(str(root), calls)
    D = FundamentalDiscriminant(-4)
    halves = MultiplicativeFunc("halves", lambda ps: np.where(ps % 4 == 1, 0.5, -0.75))
    want = {
        "psi chi": verify.verify_psi_chi(D, 1e4),
        "theta": verify.verify_theta_decomposition(halves, 1e4, 0.3),
        "mean": verify.verify_mean_variation(verify._mf_named("liouville*chi", -4), 1e4, 5.0),
    }
    for name, rep in want.items():
        assert out[f"{name}: stdout"] == json.dumps(report_dict(rep)) + "\n", name
        assert out[f"{name}: exit code"] == "0\n"
    period = characters.chi_period(FundamentalDiscriminant(-163))
    assert out["period: stdout"] == hashlib.sha256(period.tobytes()).hexdigest() + "\n"


def test_library_calls_are_collected():
    # public functions that no CLI path prints: floats as .hex(), arrays by
    # sha256, and values_up_to by its sums, whose table's dtype may change
    from siegelscan import characters, lseries, sieve, verify

    co = load_compare_outputs()
    root = COMPARE_OUTPUTS.parents[1]
    argvs = [argv for _, argv, _ in co.named_calls(co.load_perfbench_run(str(root)))]
    for args in co.LIBRARY_CALLS:
        assert [co.LIBRARY, *args] in argvs
    by_name = {}
    for name, *args in co.LIBRARY_CALLS:
        by_name.setdefault(name, []).append(args)
    for name in ("psi_u", "gauss_sum", "gauss_expansion_residual"):
        signs = {int(args[0]) > 0 for args in by_name[name]}
        assert signs == {True, False}, name
    assert by_name["prime_powers_upto"] == [["1e7"]]
    assert {args[1] for args in by_name["tau_chi_table"]} == {"1e6"}
    assert len({int(args[0]) > 0 for args in by_name["tau_chi_table"]}) == 2
    grid_fs = {
        f"{name}:{d}" if d is not None else name
        for name, d, *_ in verify.THETA_GRID + verify.MEAN_VARIATION_GRID
    }
    assert set(co.GRID_INTEGER_FS) == grid_fs
    assert sorted(by_name["values_up_to"]) == sorted(
        [f, x] for f in grid_fs for x in ("1e6", "1e7")
    )

    calls = [
        ("psi", [co.LIBRARY, "psi_u", "-4", "1e4", "10.5"], None),
        ("gauss", [co.LIBRARY, "gauss_sum", "5"], None),
        ("residual", [co.LIBRARY, "gauss_expansion_residual", "-7", "12"], None),
        ("powers", [co.LIBRARY, "prime_powers_upto", "1e3"], None),
        ("tau", [co.LIBRARY, "tau_chi_table", "8", "1e3"], None),
        ("values", [co.LIBRARY, "values_up_to", "liouville*chi:-4", "1e3"], None),
    ]
    out = co.collect(str(root), calls)

    def sha(*arrays):
        return " ".join(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays)

    g = characters.gauss_sum(FundamentalDiscriminant(5))
    vals = lseries.values_up_to(verify._mf_named("liouville*chi", -4), 1000)
    want = {
        "psi": sieve.psi_u(FundamentalDiscriminant(-4), 1e4, 10.5).hex(),
        "gauss": f"{g.re.hex()} {g.im.hex()}",
        "residual": characters.gauss_expansion_residual(FundamentalDiscriminant(-7), 12).hex(),
        "powers": sha(*sieve.prime_powers_upto(1000)),
        "tau": sha(sieve.tau_chi_table(FundamentalDiscriminant(8), 1000)),
        "values": f"{float(np.sum(vals[1:])).hex()} {float(np.sum(vals[1:501])).hex()}",
    }
    for name, text in want.items():
        assert out[f"{name}: stdout"] == text + "\n", name
        assert out[f"{name}: exit code"] == "0\n"
