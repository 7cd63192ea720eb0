"""The discriminant scan: one row per fundamental discriminant, and its CSV.

A row holds L(1, chi) truncated at x with its tail bound, L'(1, chi) from
the tau rearrangement at x, the Euler product P(q), the main-term product,
and ratio_main = P(q) L'(1, chi) / (zeta(2) prod_{p|q} (1 - 1/p^2)).  Rows
sort by score (= L1), ties by d, and write_scan_csv prints them with a fixed
header and %.9g floats, so the CSV does not depend on the worker count.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .characters import FundamentalDiscriminant, drop_period, is_fundamental
from .errors import CapacityError, DomainError
from .lseries import euler_p_ratio, l_one, l_one_prime_tau, main_term_product
from .primes import DEFAULT_MAX_WIDTH, factorize

__all__ = ["ScanRow", "scan_discriminants", "SCAN_COLUMNS", "write_scan_csv"]


@dataclass(frozen=True)
class ScanRow:
    d: int
    q: int
    l1: float
    l1_bound: float
    l1_prime: float
    pq: float
    rhs_main: float
    ratio_main: float
    score: float


def _coprime_zeta2_exact(q: int) -> float:
    acc = math.pi**2 / 6.0
    for p, _ in factorize(q):
        acc *= 1.0 - 1.0 / (p * p)
    return acc


def _scan_one(arg: tuple[int, int]) -> ScanRow:
    d, x = arg
    D = FundamentalDiscriminant(d)
    l1 = l_one(D, x)
    l1p = l_one_prime_tau(D, x)
    pq = euler_p_ratio(D)
    rhs = main_term_product(D)
    ratio = pq * l1p.value / _coprime_zeta2_exact(D.q)
    # Each d is one row: its chi period is not read again.
    drop_period(D)
    return ScanRow(
        d=d,
        q=D.q,
        l1=l1.value,
        l1_bound=l1.bound,
        l1_prime=l1p.value,
        pq=pq,
        rhs_main=rhs,
        ratio_main=ratio,
        score=l1.value,
    )


def scan_discriminants(d_lo: int, d_hi: int, x: float, jobs: int = 1) -> list[ScanRow]:
    """One ScanRow per fundamental discriminant in [d_lo, d_hi].

    L(1) is the series truncated at x, summed by complete periods
    (lseries.l_one); L'(1) comes from the tau rearrangement at x.  Rows are sorted ascending by
    score (= L1), ties by d, so output is independent of the worker count.
    A |d| above primes.DEFAULT_MAX_WIDTH raises CapacityError up front.
    """
    if d_lo > d_hi:
        raise DomainError("need d_lo <= d_hi")
    if jobs < 1:
        raise DomainError("jobs must be >= 1")
    if not math.isfinite(x):
        raise DomainError(f"truncation x must be finite, got {x}")
    q_max = max(abs(d_lo), abs(d_hi))
    if x < q_max:
        raise DomainError("truncation x must cover every modulus in range")
    if q_max > DEFAULT_MAX_WIDTH:
        raise CapacityError(f"chi period length {q_max} exceeds budget {DEFAULT_MAX_WIDTH}")
    X = math.floor(x)
    args = [(d, X) for d in range(d_lo, d_hi + 1) if is_fundamental(d)]
    if jobs == 1 or len(args) < 4:
        rows = [_scan_one(a) for a in args]
    else:
        import multiprocessing  # here, not at the top: 6-10 ms of every start-up

        chunk = max(1, len(args) // (8 * jobs))
        with multiprocessing.Pool(processes=jobs) as pool:
            rows = pool.map(_scan_one, args, chunksize=chunk)
    rows.sort(key=lambda r: (r.score, r.d))
    return rows


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
