"""The Liouville table, prime powers and divisor functionals.

The sieve holds one column, the Liouville sign lambda(n) = (-1)^Omega(n) as
int8 for every n <= hi (entry 0 is 0), built by lseries.values_up_to, the
package's one evaluator of completely multiplicative functions, which fills
int8 for a function whose values at the primes are -1, 0 or 1.
shared_sieve hands out prefixes of the one table held in primes._ARRAYS.
prime_powers_upto lists the n = p^k <= hi with Lambda(n) = log p, from the
primes that primes.held_primes holds; Lambda is never tabulated by n.

On top of them sit the divisor functionals used by the analytic checks:

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
from typing import Iterator

import numpy as np

from .characters import FundamentalDiscriminant, chi_period, chi_values_up_to
from .errors import CapacityError, DomainError
from .lseries import mf_liouville, values_up_to
from .primes import (
    _ARRAYS, DEFAULT_MAX_WIDTH, RANGE_LIMIT, factorize, held_primes, primes_upto,
)

__all__ = [
    "primes_upto",
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


def _check_length(hi: int) -> None:
    if not (1 <= hi <= RANGE_LIMIT):
        raise DomainError(f"need 1 <= hi <= 2^40, got {hi}")
    if hi > DEFAULT_MAX_WIDTH:
        raise CapacityError(f"sieve length {hi} exceeds budget {DEFAULT_MAX_WIDTH}")


@_ARRAYS.prefix
def _liouville(n: int) -> np.ndarray:
    """lambda(m) for every m <= n as int8, held in primes._ARRAYS.

    lambda is completely multiplicative with lambda(p) = -1, so
    values_up_to fills it straight into int8, 1 byte per entry.  The
    build's peak is in that fill, at its gather over the primes above
    sqrt(n): the table, the int64 primes and an int64 index per prime,
    2.4 MiB at 2^20 and 34.5 MiB at 2^24 (tracemalloc, cold), where
    primes_upto(n) alone peaks at 1.6 and 24.2 MiB.
    """
    return values_up_to(mf_liouville(), n)


def shared_sieve(hi: int) -> np.ndarray:
    """int8 lambda(n) for 0 <= n <= hi: a prefix view of the one held table.

    hi is checked before anything is built.  The view is read-only: a write
    raises ValueError instead of changing every later result.  The table
    takes 1 byte per entry, 64 MiB at 2^26.
    """
    _check_length(hi)
    return _liouville(hi)[: hi + 1]


def liouville_table(x: int) -> np.ndarray:
    """int8 array L of length x+1 with L[n] = lambda(n); L[0] = 0.  A copy."""
    return shared_sieve(x).copy()


def prime_powers_upto(hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The prime powers n <= hi in ascending order (int64) and Lambda(n).

    The primes come from the table that primes.held_primes holds, and the
    higher powers p^k <= hi of the primes p <= isqrt(hi) are multiplied out
    in exact integers.
    Lambda(n) = log p for n = p^k, as np.log of p in float64.
    """
    _check_length(hi)
    ps = held_primes(hi)
    p = ps[: int(np.searchsorted(ps, math.isqrt(hi), side="right"))]
    powers, bases = [ps], [ps]
    pk = p * p
    while p.size:
        # p^k grows with p, so the p with p^k <= hi are a prefix
        keep = int(np.searchsorted(pk, hi, side="right"))
        p, pk = p[:keep], pk[:keep]
        powers.append(pk)
        bases.append(p)
        pk = pk * p
    ns = np.concatenate(powers)
    order = np.argsort(ns)
    return ns[order], np.log(np.concatenate(bases)[order])


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
    wd = w[ds]
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
    per = chi_period(D)
    return float(np.sum(vm[i:] * per[ns[i:] % D.q]))
