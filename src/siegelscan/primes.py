"""The one prime sieve, in a leaf module.

``characters`` builds chi tables from chi at primes and ``sieve`` imports
``characters``, so the sieve of Eratosthenes lives here, where both can import
it without a cycle.  ``sieve.primes_upto`` and ``siegelscan.primes_upto`` are
this same function.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["primes_upto"]


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
