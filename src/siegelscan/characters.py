"""Primitive real Dirichlet characters attached to fundamental discriminants.

A fundamental discriminant is an integer d != 1 with either d = 1 (mod 4) and
d squarefree, or d = 4m with m = 2, 3 (mod 4) and m squarefree.  Each such d
defines the primitive quadratic character chi(n) = (d|n) (Kronecker symbol) of
modulus q = |d|.  chi is completely multiplicative, has period q, satisfies
chi(-1) = sign(d), and its Gauss sum tau(chi) = sum_{a=1}^{q} chi(a) e(a/q)
has |tau(chi)|^2 = q, with tau purely real for d > 0 and purely imaginary for
d < 0.  Here e(t) = exp(2*pi*i*t).

One period of chi is built by _period from the factorization of d into prime
discriminants: a 2-adic table times one Legendre table per odd prime p | d.
The int8 periods are held, read-only, in the process-wide cache bounded in
bytes (primes._ARRAYS), least recently used out first, or until drop_period
lets one go (the scan does, after each row).  CapacityError guards
a period longer than primes.DEFAULT_MAX_WIDTH, DomainError a |d| beyond
primes.RANGE_LIMIT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError
from .primes import _ARRAYS, DEFAULT_MAX_WIDTH, check_width, factorize

__all__ = [
    "FundamentalDiscriminant",
    "GaussSum",
    "is_fundamental",
    "enumerate_fundamentals",
    "kronecker_symbol",
    "chi_eval",
    "chi_period",
    "chi_values_up_to",
    "char_partial_sum",
    "gauss_sum",
    "gauss_expansion_residual",
]


def is_fundamental(d: int) -> bool:
    """True iff d is a fundamental discriminant (d = 1 is excluded)."""
    if d == 0 or d == 1:
        return False
    r = d % 4
    if r == 1:
        m = d
    elif r == 0 and (d // 4) % 4 in (2, 3):
        m = d // 4
    else:
        return False
    # m != 0 here, since d = 0 is excluded above
    return all(e == 1 for _, e in factorize(abs(m)))


@dataclass(frozen=True)
class FundamentalDiscriminant:
    """A fundamental discriminant d with modulus q = |d|."""

    d: int

    def __post_init__(self) -> None:
        if not is_fundamental(self.d):
            raise DomainError(f"{self.d} is not a fundamental discriminant")

    @property
    def q(self) -> int:
        return abs(self.d)


def enumerate_fundamentals(lo: int, hi: int) -> list[FundamentalDiscriminant]:
    """All fundamental discriminants d with lo <= d <= hi, ascending."""
    return [FundamentalDiscriminant(d) for d in range(lo, hi + 1) if is_fundamental(d)]


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n) for arbitrary integers.

    Computed by the standard reduction: factor the sign and the even part out
    of n, then run the Jacobi-symbol loop with quadratic reciprocity.  No
    residue tables; (a|2) follows the 2-adic rule (0 if a even, +1 if
    a = +-1 mod 8, -1 if a = +-3 mod 8).
    """
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -1
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        while n % 2 == 0:
            n //= 2
            if a % 8 in (3, 5):
                result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def chi_eval(D: FundamentalDiscriminant, n: int) -> int:
    """chi(n) = (d|n), in {-1, 0, +1}.  Requires n >= 1."""
    if n < 1:
        raise DomainError("chi is evaluated at integers n >= 1")
    return kronecker_symbol(D.d, n)


# The residues r of a Legendre table are squared in blocks of this many, so
# that the int64 squares take 256 KiB whatever p; a table of fewer entries
# is tiled to about this length before it is multiplied in.
_SQUARE_BLOCK = 2**15


@_ARRAYS
def _period(d: int) -> np.ndarray:
    """One period of chi as an int8 array indexed by n mod q.

    chi is the product of the characters of the prime discriminants that
    divide d.  For even q, write q = w*m with w = 8 if 8 | q, else 4, and m
    odd; d = d2*d_odd with d_odd = +-m = 1 (mod 4) and d2 in {-4, 8, -8}.
    The 2-adic factor (d2|n) has period w and is read off kronecker_symbol.
    Since d_odd = 1 (mod 4), reciprocity gives (d_odd|n) = (n|m) for n >= 1,
    the product of the Legendre symbols (n|p) over the primes p | m.  Each
    Legendre table of p bytes marks the squares of 1..(p-1)/2 mod p, which
    are all the nonzero residues, squared in int64 blocks of _SQUARE_BLOCK
    residues.  It is multiplied into the period in place, one run at a
    time: the table itself, or for p < _SQUARE_BLOCK / 2 the table tiled to
    a multiple of p near min(q, _SQUARE_BLOCK) entries (Cohen, A Course in
    Computational Algebraic Number Theory, 5.1-5.2; Davenport,
    Multiplicative Number Theory, ch. 5).  So the build holds the period, 1
    byte per entry of q, one Legendre table of at most q bytes and one block
    of 256 KiB.
    q above DEFAULT_MAX_WIDTH raises CapacityError before any work.
    """
    q = abs(d)
    if q > DEFAULT_MAX_WIDTH:
        raise CapacityError(f"chi period length {q} exceeds budget {DEFAULT_MAX_WIDTH}")
    m = q
    vals = np.ones(q, dtype=np.int8)
    if q % 2 == 0:
        w = 8 if q % 8 == 0 else 4
        m = q // w
        d_odd = m if m % 4 == 1 else -m
        two = [kronecker_symbol(d // d_odd, r) for r in range(w)]
        vals = np.tile(np.array(two, dtype=np.int8), m)
    for p, _ in factorize(m):
        leg = np.full(p, -1, dtype=np.int8)
        for lo in range(1, (p + 1) // 2, _SQUARE_BLOCK):
            r = np.arange(lo, min(lo + _SQUARE_BLOCK, (p + 1) // 2), dtype=np.int64)
            r *= r
            r %= p
            leg[r] = 1
        leg[0] = 0
        reps = min(q, _SQUARE_BLOCK) // p
        run = np.tile(leg, reps) if reps > 1 else leg  # a multiple of p entries
        for lo in range(0, q, run.size):
            seg = vals[lo : lo + run.size]
            seg *= run[: seg.size]
    return vals


def chi_period(D: FundamentalDiscriminant) -> np.ndarray:
    """chi over one period: an int8 array a with a[n % q] = chi(n).

    The array is the cached one, shared by every caller in the process, and
    read-only: a write into it raises ValueError.
    """
    return _period(D.d)


def drop_period(D: FundamentalDiscriminant) -> None:
    """Drop the cached chi_period(D), if held; a later call builds it again."""
    _ARRAYS.evict(_period, D.d)


def chi_values_up_to(D: FundamentalDiscriminant, x: int) -> np.ndarray:
    """int8 array v of length x+1 with v[n] = chi(n); v[0] = 0.

    One np.tile pass over the cached period, cut to length x+1.  The result
    is a fresh writable array: writing into it leaves chi_period(D) as it
    was.  x above primes.DEFAULT_MAX_WIDTH raises CapacityError first.
    """
    if x < 0:
        raise DomainError("x must be nonnegative")
    check_width("chi table", x)
    return np.tile(chi_period(D), -(-(x + 1) // D.q))[: x + 1]


def char_partial_sum(D: FundamentalDiscriminant, N: int) -> int:
    """sum_{n<=N} chi(n), exactly: whole periods sum to 0, so only N mod q counts."""
    if N < 0:
        raise DomainError("N must be nonnegative")
    return int(np.sum(chi_period(D)[: N % D.q + 1], dtype=np.int64))


@dataclass(frozen=True)
class GaussSum:
    """tau(chi) = sum_{a=1}^{q} chi(a) e(a/q), stored as (re, im)."""

    re: float
    im: float
    q: int

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)

    @property
    def modulus(self) -> float:
        return math.hypot(self.re, self.im)


def gauss_sum(D: FundamentalDiscriminant) -> GaussSum:
    """Gauss sum of chi by direct summation over one period.

    |tau|^2 = q always; tau = sqrt(q) for d > 0 and i*sqrt(q) for d < 0.
    Those facts are checked by the test suite, not assumed here.
    """
    q = D.q
    if q > 10**6:
        raise DomainError("gauss_sum: modulus above the 1e6 desk limit")
    per = chi_period(D)
    ang = 2.0 * np.pi * np.arange(q, dtype=np.float64) / q
    re = float(np.sum(per * np.cos(ang)))
    im = float(np.sum(per * np.sin(ang)))
    return GaussSum(re=re, im=im, q=q)


def gauss_expansion_residual(D: FundamentalDiscriminant, n: int) -> float:
    """| chi(n) - (1/tau) sum_{a=1}^{q} chi(a) e(an/q) |.

    The additive expansion of chi through its Gauss sum; the phases a*n are
    reduced mod q exactly in integers before exponentiation so the residual
    reflects only rounding, not argument loss.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    # gauss_sum first: it refuses q above its 1e6 limit before any table is built
    tau = gauss_sum(D).value
    q = D.q
    per = chi_period(D)
    idx = (np.arange(q, dtype=np.int64) * n) % q
    table = np.exp(2j * np.pi * np.arange(q) / q)
    s = complex(np.sum(per * table[idx]))
    return abs(chi_eval(D, n) - s / tau)
