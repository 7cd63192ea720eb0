"""Command line front end and the on-disk sieve cache.

Subcommands:

    verify   run a named check suite, print one PASS/FAIL line per check
    lvalues  print truncated L-values (and the class number reference) for one d
    scan     write the discriminant scan as CSV
    cache    build or inspect cached sieve segments

Exit codes: 0 when everything passed, 1 on a failed check or an IO/format
problem, 2 on usage or domain errors.

Cache format (file "sieve-<lo>-<hi>.bin"): magic "SGLSIEV1", then lo and hi
as little-endian u64, then one packed record per integer in [lo, hi]:
u8 Omega, u8 lambda flag (0 means +1, 1 means -1), u32 prime-power base.
The u32 field caps cached segments at hi < 2^32; larger tables stay
in-memory only.  Anything malformed raises CacheFormatError and the caller
rebuilds from scratch.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .characters import FundamentalDiscriminant
from .errors import CacheFormatError, CapacityError, DomainError
from .lseries import class_number_oracle, l_one, l_one_prime_tau
from .sieve import SieveTable, build_sieve
from .verify import (
    DEFAULT_SEED,
    SUITES,
    IdentityReport,
    ScanRow,
    run_suite,
    scan_discriminants,
)

__all__ = [
    "RunConfig",
    "default_cache_dir",
    "cache_path",
    "save_sieve",
    "load_sieve",
    "cached_sieve",
    "report_dict",
    "write_scan_csv",
    "main",
]

CACHE_MAGIC = b"SGLSIEV1"
_HEADER = struct.Struct("<QQ")
_REC_DTYPE = np.dtype([("omega", "u1"), ("lam", "u1"), ("pp", "<u4")])


@dataclass(frozen=True)
class RunConfig:
    """Settings shared by the subcommands."""

    cache_dir: str
    jobs: int = 1
    c_max: float = 100.0
    seed: int = DEFAULT_SEED
    pnt_c: float = 0.1


def default_cache_dir() -> str:
    return os.environ.get("SIEGEL_CACHE_DIR", ".cache")


def cache_path(cache_dir: str, lo: int, hi: int) -> str:
    return os.path.join(cache_dir, f"sieve-{lo}-{hi}.bin")


def save_sieve(table: SieveTable, path: str) -> None:
    """Write one sieve segment in the packed record format."""
    if table.hi >= 1 << 32:
        raise CapacityError("cache records hold u32 prime-power bases; hi must be < 2^32")
    n = table.hi - table.lo + 1
    rec = np.empty(n, dtype=_REC_DTYPE)
    rec["omega"] = table.omega
    rec["lam"] = (table.lambda_sign < 0).view(np.uint8)
    rec["pp"] = table.pp_base.astype(np.uint32)
    with open(path, "wb") as fh:
        fh.write(CACHE_MAGIC)
        fh.write(_HEADER.pack(table.lo, table.hi))
        fh.write(rec.tobytes())


def load_sieve(path: str) -> SieveTable:
    """Read a segment back; any malformation raises CacheFormatError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    head = len(CACHE_MAGIC) + _HEADER.size
    if len(blob) < head or blob[: len(CACHE_MAGIC)] != CACHE_MAGIC:
        raise CacheFormatError(f"{path}: bad magic")
    lo, hi = _HEADER.unpack_from(blob, len(CACHE_MAGIC))
    if lo < 1 or hi < lo or hi >= 1 << 32:
        raise CacheFormatError(f"{path}: bad header range [{lo}, {hi}]")
    n = hi - lo + 1
    body = blob[head:]
    if len(body) != n * _REC_DTYPE.itemsize:
        raise CacheFormatError(f"{path}: body length {len(body)} != {n} records")
    rec = np.frombuffer(body, dtype=_REC_DTYPE)
    if np.any(rec["lam"] > 1):
        raise CacheFormatError(f"{path}: lambda flag outside {{0, 1}}")
    if np.any((rec["omega"] & 1 == 1) != (rec["lam"] == 1)):
        raise CacheFormatError(f"{path}: lambda flag disagrees with Omega parity")
    return SieveTable(
        lo=int(lo),
        hi=int(hi),
        omega=rec["omega"].copy(),
        lambda_sign=np.where(rec["lam"] == 1, -1, 1).astype(np.int8),
        pp_base=rec["pp"].astype(np.int64),
    )


def cached_sieve(lo: int, hi: int, cache_dir: str | None = None) -> SieveTable:
    """Segment from cache if present and well-formed, else rebuild and rewrite."""
    cache_dir = cache_dir if cache_dir is not None else default_cache_dir()
    path = cache_path(cache_dir, lo, hi)
    if os.path.exists(path):
        try:
            return load_sieve(path)
        except CacheFormatError:
            pass  # stale or corrupt: fall through to a rebuild
    table = build_sieve(lo, hi)
    if hi < 1 << 32:
        os.makedirs(cache_dir, exist_ok=True)
        tmp = path + ".tmp"
        save_sieve(table, tmp)
        os.replace(tmp, path)
    return table


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


SCAN_COLUMNS = ["d", "q", "L1", "L1_err", "L1prime", "Pq", "rhs_main", "ratio_main", "score"]


def write_scan_csv(rows: list[ScanRow], fh) -> None:
    """CSV with a fixed header; floats printed with %.9g for stable round-trips."""
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(SCAN_COLUMNS)
    for r in rows:
        w.writerow(
            [r.d, r.q]
            + [
                "%.9g" % v
                for v in (r.l1, r.l1_bound, r.l1_prime, r.pq, r.rhs_main, r.ratio_main, r.score)
            ]
        )


# ---------------------------------------------------------------------------
# Subcommands


def _check_jobs(jobs: int) -> None:
    """--jobs must lie in [1, os.cpu_count()]; checked before any pool starts."""
    cpus = os.cpu_count() or 1
    if not 1 <= jobs <= cpus:
        raise DomainError(f"--jobs must be between 1 and {cpus}, got {jobs}")


def _cmd_verify(args: argparse.Namespace) -> int:
    _check_jobs(args.jobs)
    cfg = RunConfig(
        cache_dir=args.cache_dir or default_cache_dir(),
        jobs=args.jobs,
        c_max=args.c_max,
        seed=args.seed,
        pnt_c=args.pnt_c,
    )
    reports = run_suite(
        args.suite,
        seed=cfg.seed,
        c_max=cfg.c_max,
        pnt_c=cfg.pnt_c,
        jobs=cfg.jobs,
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
    if args.x < D.q:
        raise DomainError("truncation x must be >= |d|")
    if args.method == "direct":
        est = l_one(D, args.x)
    elif args.method == "tau":
        est = l_one_prime_tau(D, args.x)
    else:
        est = class_number_oracle(D)
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


def _cmd_cache(args: argparse.Namespace) -> int:
    if args.cache_cmd == "build":
        cache_dir = args.cache_dir or default_cache_dir()
        table = cached_sieve(args.lo, args.hi, cache_dir)
        path = cache_path(cache_dir, args.lo, args.hi)
        print(f"{path}: [{table.lo}, {table.hi}], {table.hi - table.lo + 1} records")
        return 0
    if args.cache_cmd == "info":
        table = load_sieve(args.path)
        n = table.hi - table.lo + 1
        print(f"{args.path}: [{table.lo}, {table.hi}], {n} records, format SGLSIEV1")
        return 0
    raise DomainError("unknown cache subcommand")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="siegelscan")
    sub = p.add_subparsers(dest="cmd", required=True)

    pv = sub.add_parser("verify", help="run a check suite")
    pv.add_argument("--suite", choices=SUITES, default="all")
    pv.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pv.add_argument("--c-max", type=float, default=100.0)
    pv.add_argument("--pnt-c", type=float, default=0.1)
    pv.add_argument("--jobs", type=int, default=1)
    pv.add_argument("--two-var-cases", type=int, default=200)
    pv.add_argument("--swap-cases", type=int, default=500)
    pv.add_argument("--cache-dir", default=None)
    pv.add_argument("--out", default=None, help="write the reports as a JSON array")
    pv.set_defaults(func=_cmd_verify)

    pl = sub.add_parser("lvalues", help="one L-value estimate as a JSON object")
    pl.add_argument("--d", type=int, required=True)
    pl.add_argument("--x", type=float, default=1e6, help="series truncation")
    pl.add_argument(
        "--method", choices=("direct", "tau", "class-number"), default="direct"
    )
    pl.set_defaults(func=_cmd_lvalues)

    ps = sub.add_parser("scan", help="scan fundamental discriminants")
    ps.add_argument("--dmin", type=int, required=True)
    ps.add_argument("--dmax", type=int, required=True)
    ps.add_argument("--x", type=float, required=True, help="series truncation")
    ps.add_argument("--jobs", type=int, default=1)
    ps.add_argument("--out", default=None, help="CSV path (default stdout)")
    ps.set_defaults(func=_cmd_scan)

    pc = sub.add_parser("cache", help="sieve segment cache")
    csub = pc.add_subparsers(dest="cache_cmd", required=True)
    cb = csub.add_parser("build", help="build and persist a segment")
    cb.add_argument("--lo", type=int, required=True)
    cb.add_argument("--hi", type=int, required=True)
    cb.add_argument("--cache-dir", default=None)
    ci = csub.add_parser("info", help="validate and describe a cache file")
    ci.add_argument("path")
    pc.set_defaults(func=_cmd_cache)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CacheFormatError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
