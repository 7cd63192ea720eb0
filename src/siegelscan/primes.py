"""The one prime sieve, the one factorization, the size limits and the array cache.

``characters`` builds chi tables from the factorization of d and ``sieve``
imports ``characters``, so the factorization lives here, where both can import
it without a cycle, next to the sieve of Eratosthenes.  ``sieve.primes_upto``
and ``siegelscan.primes_upto`` are this same function.  ``factorize`` serves
the squarefree test of ``characters.is_fundamental``, the chi tables of
``characters`` and the divisor enumeration of ``sieve``.

DEFAULT_MAX_WIDTH caps arrays sized by an argument (the prime sieve, the
Liouville table, chi periods and tables, tau weights; check_width raises
CapacityError past it), RANGE_LIMIT the integers sieved or factorized, and
_ARRAYS, the one process-wide cache of keyed arrays, the bytes held by the
primes, chi periods, prime logs, weights, Liouville table and rho base of
the modules that build them; a table read by prefix is held once
(_ArrayCache.prefix).  held_primes serves the primes from one such table,
so the Euler products and the prime powers of sieve share one sieve.
"""

from __future__ import annotations

import math
from collections import Counter, OrderedDict
from functools import wraps
from typing import Callable

import numpy as np

from .errors import CapacityError, DomainError

__all__ = ["DEFAULT_MAX_WIDTH", "RANGE_LIMIT", "primes_upto", "factorize"]

# Default cap on a single array: 2^26 entries.  The Liouville table is built
# through values_up_to's float64 table and holds about 9.5 bytes per entry at
# its peak (tracemalloc: 9.9 MiB at 2^20, 153 MiB at 2^24), so ~610 MiB at
# 2^26.  Desk-scale work tops out at 1e7.
DEFAULT_MAX_WIDTH = 1 << 26

RANGE_LIMIT = 1 << 40


def check_width(what: str, n: int | float) -> None:
    """CapacityError if n, the length an array is sized by, passes DEFAULT_MAX_WIDTH.

    Called before anything is allocated, and before a float n is floored:
    a float inf or nan raises DomainError.  An int is finite and is never
    passed to math.isfinite, which overflows past float range.  n goes into
    the message as a power of ten: in full it can run to hundreds of
    digits, and str() refuses an int of more than 4300 digits.
    """
    if isinstance(n, float) and not math.isfinite(n):
        raise DomainError(f"{what} length must be finite, got {n}")
    if n > DEFAULT_MAX_WIDTH:
        raise CapacityError(
            f"{what} length 10^{math.log10(n):.2f} exceeds budget {DEFAULT_MAX_WIDTH}"
        )


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n as an int64 array.

    n above DEFAULT_MAX_WIDTH raises CapacityError before the mask of n + 1
    entries is allocated.
    """
    check_width("prime sieve", n)
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


class _ArrayCache:
    """Arrays keyed by (builder name, *args), held within a budget in bytes.

    A builder returns an array or a tuple of arrays; every array returned is
    read-only.  One budget serves every builder, so that no kind pushes out
    another by a rule of its own (a two-entry LRU per weight kind rebuilt 1/n
    at 1e7 for every d of TAU_LOG_GRID in verify).  The least recently used
    entries go first; a result larger than the whole budget is returned but
    not held.  misses counts the builds per builder name.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.nbytes = 0
        self.misses: Counter[str] = Counter()
        self._held: OrderedDict[tuple, np.ndarray | tuple[np.ndarray, ...]] = OrderedDict()
        self._tops: dict[str, int] = {}  # the n of each prefix builder's last table

    def __call__(self, build: Callable) -> Callable:
        """Decorate build(*args) so that its results are held here."""
        name = build.__name__

        @wraps(build)
        def cached(*args):
            key = (name, *args)
            value = self._held.get(key)
            if value is not None:
                self._held.move_to_end(key)
                return value
            value = build(*args)
            self.misses[name] += 1
            for a in value if isinstance(value, tuple) else (value,):
                a.flags.writeable = False
            size = _nbytes(value)
            if size <= self.budget:
                while self.nbytes + size > self.budget:
                    self.nbytes -= _nbytes(self._held.popitem(last=False)[1])
                self._held[key] = value
                self.nbytes += size
            return value

        return cached

    def prefix(self, build: Callable) -> Callable:
        """Decorate build(n), whose result for n is a prefix of that for any larger n.

        One table per builder is held.  A call for n returns it if it reaches
        n, and otherwise evicts it and holds build(m) in its place, m the
        least power of two >= n, so that a growing n rebuilds it O(log n) times.
        """
        cached = self(build)
        name = build.__name__

        @wraps(build)
        def served(n: int):
            top = self._tops.get(name, 0)
            if top < n or (name, top) not in self._held:
                self.evict(build, top)
                top = self._tops[name] = 1 << (n - 1).bit_length()
            return cached(top)

        return served

    def evict(self, build: Callable, *args) -> None:
        """Drop what the decorated build holds for args, if anything."""
        value = self._held.pop((build.__name__, *args), None)
        if value is not None:
            self.nbytes -= _nbytes(value)

    def clear(self) -> None:
        self._held.clear()
        self._tops.clear()
        self.nbytes = 0


def _nbytes(value: np.ndarray | tuple[np.ndarray, ...]) -> int:
    return sum(a.nbytes for a in (value if isinstance(value, tuple) else (value,)))


# 480 MB: room for the Liouville and rho tables of 1e7 (2^24 entries, 16 and
# 128 MiB) and the tau weights at 1e7 (76 MiB) together.  At 2^26 the rho
# table takes 512 MiB, over the budget, so it is returned but not held.
_ARRAYS = _ArrayCache(3 * 8 * 2 * 10**7)


@_ARRAYS.prefix
def _primes(n: int) -> np.ndarray:
    """primes_upto(n), held as one prefix table of the cache."""
    return primes_upto(n)


def held_primes(n: int) -> np.ndarray:
    """All primes <= n, a read-only prefix of the one held table of primes.

    The table is sieved by primes_upto to the least power of two >= n, and
    only when no held table reaches n; n above DEFAULT_MAX_WIDTH raises
    CapacityError first.
    """
    check_width("prime sieve", n)
    ps = _primes(n)
    return ps[: int(np.searchsorted(ps, n, side="right"))]
