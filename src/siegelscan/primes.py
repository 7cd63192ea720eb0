"""The one prime sieve, the one factorization and the size limits.

``characters`` builds chi tables from the factorization of d and ``sieve``
imports ``characters``, so the factorization lives here, where both can import
it without a cycle, next to the sieve of Eratosthenes.  ``sieve.primes_upto``
and ``siegelscan.primes_upto`` are this same function.  ``factorize`` serves
the squarefree test of ``characters.is_fundamental``, the chi tables of
``characters`` and the divisor enumeration of ``sieve``.

DEFAULT_MAX_WIDTH caps arrays sized by an argument (sieve tables, chi
periods, tau weights), RANGE_LIMIT the integers sieved or factorized.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = ["DEFAULT_MAX_WIDTH", "RANGE_LIMIT", "primes_upto", "factorize"]

# Default cap on a single array: 2^26 entries.  build_sieve holds about 18
# bytes per entry while it runs (tracemalloc peak at 1e6), so ~1.2 GB at 2^26.
# Desk-scale work tops out at 1e7.
DEFAULT_MAX_WIDTH = 1 << 26

RANGE_LIMIT = 1 << 40


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n as an int64 array."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def factorize(m: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division, for 1 <= m <= RANGE_LIMIT = 2^40."""
    if not 1 <= m <= RANGE_LIMIT:
        raise DomainError(f"factorization needs 1 <= m <= 2^40, got {m}")
    fac = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            fac.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        fac.append((m, 1))
    return fac
