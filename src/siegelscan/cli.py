"""Command line front end.

Subcommands:

    verify   run a named check suite, print one PASS/FAIL line per check
    lvalues  print truncated L-values (and the class number reference) for one d
    scan     write the discriminant scan as CSV

Exit codes: 0 when everything passed, 1 on a failed check, an IO problem or
a size beyond the memory budget, 2 on usage or domain errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .characters import FundamentalDiscriminant, drop_period
from .errors import CapacityError, DomainError
from .lseries import class_number_oracle, l_one, l_one_prime_tau
from .scan import scan_discriminants, write_scan_csv
from .verify import DEFAULT_SEED, SUITES, IdentityReport, run_suite

__all__ = [
    "report_dict",
    "main",
]


# ---------------------------------------------------------------------------
# Serialization


def _num(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    return v


def report_dict(r: IdentityReport) -> dict:
    return {
        "name": r.name,
        "params": r.params,
        "lhs": _num(r.lhs),
        "rhs": _num(r.rhs),
        "residual": r.residual,
        "envelope": r.envelope,
        "ratio": r.ratio,
        "pass": r.passed,
        "kind": r.kind,
    }


# ---------------------------------------------------------------------------
# Subcommands


def _check_jobs(jobs: int) -> None:
    """--jobs must lie in [1, os.cpu_count()]; checked before any pool starts."""
    cpus = os.cpu_count() or 1
    if not 1 <= jobs <= cpus:
        raise DomainError(f"--jobs must be between 1 and {cpus}, got {jobs}")


def _cmd_verify(args: argparse.Namespace) -> int:
    _check_jobs(args.jobs)
    reports = run_suite(
        args.suite,
        seed=args.seed,
        c_max=args.c_max,
        jobs=args.jobs,
        two_var_cases=args.two_var_cases,
        swap_cases=args.swap_cases,
    )
    npass = 0
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        npass += r.passed
        print(
            f"[{status}] {r.name} kind={r.kind} residual={r.residual:.6g} "
            f"envelope={r.envelope:.6g} ratio={r.ratio:.6g}"
        )
    measured = [r.ratio for r in reports if r.kind == "measured"]
    max_ratio = max(measured) if measured else 0.0
    print(
        f"suite={args.suite} passed {npass}/{len(reports)} checks; "
        f"max measured ratio {max_ratio:.6g}"
    )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump([report_dict(r) for r in reports], fh, indent=2)
            fh.write("\n")
    return 0 if npass == len(reports) else 1


def _cmd_lvalues(args: argparse.Namespace) -> int:
    D = FundamentalDiscriminant(args.d)
    if args.method == "class-number":
        est = class_number_oracle(D)  # exact: --x does not apply
    else:
        if args.x < D.q:
            raise DomainError("truncation x must be >= |d|")
        est = l_one(D, args.x) if args.method == "direct" else l_one_prime_tau(D, args.x)
        # One query reads its chi period once: let it go, as the scan does
        # after each row, so that a stream of queries holds no periods.
        drop_period(D)
    obj = {
        "d": D.d,
        "q": D.q,
        "method": est.method,
        "value": est.value,
        "truncation": est.truncation,
        "bound": est.bound,
    }
    json.dump(obj, sys.stdout)
    sys.stdout.write("\n")
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    _check_jobs(args.jobs)
    rows = scan_discriminants(args.dmin, args.dmax, args.x, jobs=args.jobs)
    if args.out:
        with open(args.out, "w") as fh:
            write_scan_csv(rows, fh)
    else:
        write_scan_csv(rows, sys.stdout)
    if rows:
        top = rows[0]
        print(
            f"scanned {len(rows)} fundamental discriminants; "
            f"smallest L(1) at d={top.d} (L1={top.l1:.6g})",
            file=sys.stderr,
        )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parse_args keeps no state in it."""
    p = argparse.ArgumentParser(prog="siegelscan")
    sub = p.add_subparsers(dest="cmd", required=True)

    pv = sub.add_parser("verify", help="run a check suite")
    pv.add_argument("--suite", choices=SUITES, default="all")
    pv.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pv.add_argument("--c-max", type=float, default=100.0)
    pv.add_argument("--jobs", type=int, default=1)
    pv.add_argument("--two-var-cases", type=int, default=200)
    pv.add_argument("--swap-cases", type=int, default=500)
    pv.add_argument("--out", default=None, help="write the reports as a JSON array")
    pv.set_defaults(func=_cmd_verify)

    pl = sub.add_parser("lvalues", help="one L-value estimate as a JSON object")
    pl.add_argument("--d", type=int, required=True)
    pl.add_argument("--x", type=float, default=1e6, help="series truncation")
    pl.add_argument(
        "--method",
        choices=("direct", "tau", "class-number"),
        default="direct",
        help="direct: L(1) truncated at --x; tau: L'(1) by the tau identity at --x; "
        "class-number: the exact L(1) for d < 0, which ignores --x",
    )
    pl.set_defaults(func=_cmd_lvalues)

    ps = sub.add_parser("scan", help="scan fundamental discriminants")
    ps.add_argument("--dmin", type=int, required=True)
    ps.add_argument("--dmax", type=int, required=True)
    ps.add_argument("--x", type=float, required=True, help="series truncation")
    ps.add_argument("--jobs", type=int, default=1)
    ps.add_argument("--out", default=None, help="CSV path (default stdout)")
    ps.set_defaults(func=_cmd_scan)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
