"""Arithmetic-function sieve and divisor functionals.

For [1, hi] the sieve tabulates Omega(n) (number of prime factors with
multiplicity, 8-bit), the Liouville sign lambda(n) = (-1)^Omega(n), and the
prime-power base: p when n = p^k, 0 otherwise.  Every array is indexed by n,
and entry 0 is 0.  The von Mangoldt value Lambda(n) = log(base) is never
stored: prime_powers_upto is the one reader of the base column.  shared_sieve
hands out prefixes of the one table held in primes._ARRAYS.

On top of the sieve sit the divisor functionals used by the analytic checks:

    divisor_lambda_sum(m) = sum_{d | m} lambda(d)        (1 iff m is a square)
    rho_u(m, u)           = sum_{d | m, d > u} lambda(d)
    tau_chi(D, n)         = sum_{d | n} chi(d)
    psi_u(D, z, u)        = sum_{u < n <= z} Lambda(n) chi(n)

Whole tables of such sums (rho_u(m) and tau(m, chi) for every m <= X) come
from one kernel, divisor_accumulate_into, which divisor_accumulate runs on a
zero table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .characters import FundamentalDiscriminant, chi_period, chi_values_up_to
from .errors import CapacityError, DomainError
from .primes import _ARRAYS, DEFAULT_MAX_WIDTH, RANGE_LIMIT, factorize, primes_upto

__all__ = [
    "SieveTable",
    "primes_upto",
    "build_sieve",
    "shared_sieve",
    "liouville_table",
    "prime_powers_upto",
    "divisor_lambda_sum",
    "rho_u",
    "tau_chi",
    "divisor_accumulate",
    "divisor_accumulate_into",
    "tau_chi_table",
    "psi_u",
]


@dataclass(frozen=True)
class SieveTable:
    """Immutable sieve table over [1, hi], indexed by n; entry 0 is 0."""

    hi: int
    omega: np.ndarray  # uint8
    lambda_sign: np.ndarray  # int8, +-1
    pp_base: np.ndarray  # int64, p if n = p^k else 0


def build_sieve(hi: int) -> SieveTable:
    """Sieve [1, hi] using primes up to sqrt(hi).

    Each prime power pk <= hi contributes one slice pass: Omega gains 1 on
    multiples of pk, and the tracked cofactor is divided by p once per level,
    so after all passes the cofactor is the part of n built from primes above
    sqrt(hi) (always 1 or a single prime).  n and the cofactor are int32,
    which holds every n up to DEFAULT_MAX_WIDTH = 2^26; only the returned
    base column is int64.  The build holds about 18 bytes per entry at its
    peak (tracemalloc: 17.5 MiB at hi = 1e6, against 27.7 MiB with int64).
    """
    _check_length(hi)
    ns = np.arange(hi + 1, dtype=np.int32)
    rem = ns.copy()
    omega = np.zeros(hi + 1, dtype=np.uint8)
    ppb = np.zeros(hi + 1, dtype=np.int64)

    for p in primes_upto(math.isqrt(hi)):
        p = int(p)
        pk = p
        while pk <= hi:
            omega[pk::pk] += 1
            rem[pk::pk] //= p
            ppb[pk] = p
            pk *= p

    omega += rem > 1  # one prime factor above sqrt(hi) survives
    prime_left = rem == ns
    prime_left[:2] = False
    ppb[prime_left] = ns[prime_left]
    del ns, rem, prime_left  # freed before the Liouville column: a lower peak

    lam = np.where(omega & 1, np.int8(-1), np.int8(1))
    lam[0] = 0
    return SieveTable(hi=hi, omega=omega, lambda_sign=lam, pp_base=ppb)


def _check_length(hi: int) -> None:
    if not (1 <= hi <= RANGE_LIMIT):
        raise DomainError(f"need 1 <= hi <= 2^40, got {hi}")
    if hi > DEFAULT_MAX_WIDTH:
        raise CapacityError(f"sieve length {hi} exceeds budget {DEFAULT_MAX_WIDTH}")


@_ARRAYS.prefix
def _sieve_columns(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(omega, lambda_sign, pp_base) of build_sieve(n), held in primes._ARRAYS."""
    t = build_sieve(n)
    return t.omega, t.lambda_sign, t.pp_base


def shared_sieve(hi: int) -> SieveTable:
    """A table over [1, hi]: prefix views of the one held sieve, which reaches hi.

    hi is checked before anything is built.  The views are read-only: a
    write raises ValueError instead of changing every later result.  The
    sieve takes 10 bytes per entry; at 2^26 (640 MiB) it is not held.
    """
    _check_length(hi)
    n = hi + 1
    omega, lam, ppb = _sieve_columns(hi)
    return SieveTable(hi, omega[:n], lam[:n], ppb[:n])


def liouville_table(x: int) -> np.ndarray:
    """int8 array L of length x+1 with L[n] = lambda(n); L[0] = 0.  A copy."""
    return shared_sieve(x).lambda_sign.copy()


def prime_powers_upto(hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The prime powers n <= hi in ascending order (int64) and Lambda(n).

    Lambda(n) = log p for n = p^k, as np.log of the base prime in float64.
    """
    base = shared_sieve(hi).pp_base
    ns = np.nonzero(base)[0]
    return ns, np.log(base[ns].astype(np.float64))


def _divisors_with_parity(m: int) -> Iterator[tuple[int, int]]:
    """Yield (d, total prime-factor count of d) over all divisors d of m."""
    fac = factorize(m)
    divs = [(1, 0)]
    for p, e in fac:
        nxt = []
        for d, k in divs:
            pe = 1
            for j in range(e + 1):
                nxt.append((d * pe, k + j))
                pe *= p
        divs = nxt
    yield from divs


def divisor_lambda_sum(m: int) -> int:
    """sum_{d | m} lambda(d), by literal divisor enumeration.

    Equals 1 when m is a perfect square and 0 otherwise; that identity is
    what the verification suite checks, so this routine must not use it.
    """
    total = 0
    for _, k in _divisors_with_parity(m):
        total += -1 if k & 1 else 1
    return total


def rho_u(m: int, u: float) -> int:
    """rho_u(m) = sum_{d | m, d > u} lambda(d).  The cutoff is strict."""
    if m < 1:
        raise DomainError("m must be >= 1")
    total = 0
    for d, k in _divisors_with_parity(m):
        if d > u:
            total += -1 if k & 1 else 1
    return total


def tau_chi(D: FundamentalDiscriminant, n: int) -> int:
    """tau(n, chi) = sum_{d | n} chi(d); nonnegative for real chi."""
    if n < 1:
        raise DomainError("n must be >= 1")
    per = chi_period(D)
    q = D.q
    return int(sum(int(per[d % q]) for d, _ in _divisors_with_parity(n)))


def divisor_accumulate(w: np.ndarray, lo: int, X: int) -> np.ndarray:
    """int64 array acc of length X+1 with acc[n] = sum_{d | n, d >= lo} w[d].

    The result equals the literal loop
    ``for d in range(lo, X + 1): acc[d::d] += w[d]`` exactly, since the sums
    are int64.  w is indexed at 1..X (any integer dtype); lo >= 1, and
    lo > X gives all zeros.  It runs divisor_accumulate_into on a zero
    table.
    """
    acc = np.zeros(X + 1, dtype=np.int64)
    divisor_accumulate_into(acc, w, lo, X + 1)
    return acc


def divisor_accumulate_into(acc: np.ndarray, w: np.ndarray, lo: int, hi: int) -> None:
    """Add sum_{d | n, lo <= d < hi} w[d] to acc[n], for every n < acc.size.

    The one divisor-accumulation kernel, in place on an int64 acc; w is
    indexed at lo..min(hi, acc.size) - 1, and lo >= 1.  Each d <= isqrt(X),
    X = acc.size - 1, takes one slice pass over its multiples.  The larger
    d have at most isqrt(X) multiples each, so they go by multiplier
    instead: one fancy-index pass acc[k*ds] += w[ds] per k.  For a fixed k
    the indices k*d are distinct, so the buffered += adds every term once.
    """
    if lo < 1:
        raise DomainError("divisor accumulation starts at d >= 1")
    X = acc.size - 1
    hi = min(hi, X + 1)
    r = math.isqrt(X)
    for d in range(lo, min(hi, r + 1)):
        v = int(w[d])
        if v:
            acc[d::d] += v
    ds = np.arange(max(lo, r + 1), hi, dtype=np.int64)
    wd = w[ds].astype(np.int64)
    keep = wd != 0
    ds, wd = ds[keep], wd[keep]
    if ds.size:
        for k in range(1, X // int(ds[0]) + 1):
            n = int(np.searchsorted(ds, X // k, side="right"))
            acc[k * ds[:n]] += wd[:n]


def tau_chi_table(D: FundamentalDiscriminant, x: int) -> np.ndarray:
    """tau(n, chi) for all n <= x at once: divisor_accumulate over chi(d), d >= 1.

    int64, length x+1, entry 0 is 0.
    """
    return divisor_accumulate(chi_values_up_to(D, x), 1, x)


def psi_u(D: FundamentalDiscriminant, z: float, u: float) -> float:
    """psi_u(z, chi) = sum_{u < n <= z} Lambda(n) chi(n).

    Requires z > u >= 0.  Only prime powers contribute, read by
    prime_powers_upto.
    """
    if u < 0:
        raise DomainError("u must be >= 0")
    if not z > u:
        raise DomainError("psi_u needs z > u")
    hi = math.floor(z)
    lo = math.floor(u) + 1
    if hi < lo:
        return 0.0
    ns, vm = prime_powers_upto(hi)
    i = int(np.searchsorted(ns, lo))
    per = chi_period(D).astype(np.float64)
    return float(np.sum(vm[i:] * per[ns[i:] % D.q]))
