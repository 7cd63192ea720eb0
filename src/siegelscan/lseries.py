"""Dirichlet L-values at s = 1, Euler products, and error functionals.

For the quadratic character chi mod q = |d| the truncated series

    L(1, chi)  ~  sum_{n<=x} chi(n)/n        (tail bound sqrt(q) log(q) / x)
    L'(1, chi) ~ -sum_{n<=x} chi(n) log(n)/n (tail bound 2 sqrt(q) log(q) (log x + 1)/x)

are computed directly, and L'(1, chi) is also recovered from the divisor
rearrangement

    sum_{n<=x} tau(n, chi)/n = L(1, chi)(log x + gamma) + L'(1, chi) + err,

with err of size O(q^{1/4} x^{-1/2} log x); the rearranged route uses
L(1, chi) truncated at x^2 so its own error stays below that envelope.
Every bound covers the truncation only, not floating-point rounding (see
LValueEstimate).

sum_{n<=x} chi(n)/n takes the cheaper of two routes, which compute the
same truncated series and differ only in rounding (_chi_over_n_partial).
Once x >= _PERIOD_K0 q, and always above _DIRECT_LIMIT, it is grouped into
complete periods and evaluated through the digamma function at the phi(q)
residues r with chi(r) != 0, O(q) work whatever x (_chi_over_n_by_periods).
Below that, the literal sum of x terms is cheaper.  The period route gives
the L(1) at x^2 inside the rearranged route, and the scan's L(1) at x
whenever x >= _PERIOD_K0 q.  Skipping the q - phi(q) residues with
chi(r) = 0 saves work at large q and leaves every value the same bit for
bit.  The digamma is the module's own, _digamma_pair: a port of scipy's
(Cephes') psi, run in chunks through reused buffers, so that numpy is the
one runtime dependency.

All three length-x sums have the form sum_{n<=x} chi(n) w(n) with weights
(1/n, log(n)/n, H(floor(x/n))/n) that do not depend on d.  The weights are
cached per x in the process-wide cache bounded in bytes (primes._ARRAYS,
least recently used out first), next to the chi periods.  One kernel,
_chi_weighted_sum, sums the products leaf by leaf along the pairwise tree
that np.sum itself would run over the whole length-x product: each leaf of
at most 2^15 terms is multiplied into one reused scratch buffer and summed
by np.sum, and the leaf sums are added in the tree's order.  The value is
that of the literal np.sum bit for bit, and no length-x product array is
made.  The walk is a module-level function, not a closure, so that no
reference cycle keeps a weight array alive.  The direct L'(1) sum is also
memoised by (d, floor(x)).

The module also carries the product quantities used by the discriminant scan

    P(q)       = prod_{p<=q} (1 - 1/p)(1 + chi(p)/p)^{-1}
    main term  = (pi^2/6) prod_{p|q} (1 + 1/p) prod_{p<=q, chi(p)=1} (1+1/p)/(1-1/p)

whose product collapses to zeta(2) prod_{p|q} (1 - 1/p^2) exactly, the class
number formula oracle for d < 0, and the two error functionals eps(x, u) and
M(x, omega) that appear in measured envelopes.

Both products are sums of logs over the primes p <= q.  The logs
log1p(-1/p) and log1p(1/p) do not depend on d: _prime_logs holds them with
the primes in the same cache.  Each product takes chi at the primes from
chi_period, picks one term per prime by chi(p) in {-1, 0, 1}, and adds the
terms with np.cumsum, strictly from p = 2 upwards.  The logs come from
math.log1p and the order is that of a loop over the primes, so the values
equal such a loop bit for bit; np.log1p and the pairwise np.sum would each
change the last bits.  The class number oracle counts reduced forms with one
numpy pass over b for each leading coefficient a.

Multiplicative functions are completely multiplicative and given by f(p)
alone, as a callable from an int64 array of primes to float64 values, so
that f is evaluated once over all primes p <= x.  values_up_to multiplies
in the primes p <= sqrt(x) by slices and the one prime factor above sqrt(x)
by one gather per cofactor; theta_and_s builds its terms as arrays and adds
them from p = 2 upwards by np.cumsum.  Both equal a loop over the primes bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .characters import FundamentalDiscriminant, chi_period, chi_values_up_to
from .errors import CapacityError, ContractError, DomainError
from .primes import _ARRAYS, DEFAULT_MAX_WIDTH, _bucket, primes_upto

__all__ = [
    "EULER_GAMMA",
    "LValueEstimate",
    "MultiplicativeFunc",
    "l_one",
    "l_one_prime_direct",
    "l_one_prime_tau",
    "tau_over_n_sum",
    "class_number_oracle",
    "euler_p_ratio",
    "main_term_product",
    "coprime_zeta2_partial",
    "epsilon_functional",
    "mean_variation_bound",
    "theta_and_s",
    "mf_one",
    "mf_liouville",
    "mf_liouville_times_chi",
    "mf_char_flip_cutoff",
    "values_up_to",
]

EULER_GAMMA = 0.57721566490153286

# Above this truncation the character sum is evaluated by complete periods
# (digamma identity) instead of literal term-by-term summation.
_DIRECT_LIMIT = 2 * 10**7

# From x >= _PERIOD_K0 q on, sum_{n<=x} chi(n)/n is taken by complete periods
# at any x.  Min of 9 runs at x = K q + q/3 on a 2-vCPU host, the literal
# sum against warm weights: the period route was slower at K = 8 for every q
# and won from some K between 16 and 32 on at q >= 1e4 (at q = 2e5, K = 32:
# 12.1 ms literal, 5.6 ms by periods).  At q <= 3000 both stay below 0.3 ms.
_PERIOD_K0 = 32

# Calibrated constant of the tau-identity error term c q^{1/4} x^{-1/2} log x.
_TAU_C_CAL = 10.0


@dataclass(frozen=True)
class LValueEstimate:
    """A truncated L-value with its truncation point and a truncation bound.

    bound covers the truncation error only.  It does not cover the
    floating-point rounding of the sum, which dominates once the bound is
    below about 1e-15: lvalues --d -4 --x 1e30 prints bound 2.8e-30 for a
    value 9e-16 away from pi/4.  A bound that also covers rounding is item 2
    of ROADMAP.md.  The tau-identity bound rests on a calibrated constant,
    not a proof.
    """

    value: float
    truncation: float
    bound: float
    method: str  # "direct" | "tau-identity" | "class-number"


@_ARRAYS
def _inv_n(x: int) -> np.ndarray:
    a = np.arange(1, x + 1, dtype=np.float64)
    return np.divide(1.0, a, out=a)


# Entries per pass of _log_over_n: its log buffer (512 KiB) stays in L2.
_LOG_CHUNK = 2**16


@_ARRAYS
def _log_over_n(x: int) -> np.ndarray:
    """log(n)/n for n <= x, built in place in one length-x array.

    np.log and the divide go chunk by chunk through one reused buffer of
    _LOG_CHUNK entries, not through a second length-x array; each entry is
    the same log(n) rounded, then divided by n, as in np.log(ns) / ns.
    """
    out = np.arange(1, x + 1, dtype=np.float64)
    buf = np.empty(min(x, _LOG_CHUNK), dtype=np.float64)
    for lo in range(0, x, _LOG_CHUNK):
        ns = out[lo : lo + _LOG_CHUNK]
        logs = buf[: ns.size]
        np.log(ns, out=logs)
        np.divide(logs, ns, out=ns)
    return out


@_ARRAYS
def _tau_weights(x: int) -> np.ndarray:
    """w[n-1] = H(floor(x/n))/n for n <= x, H(j) = sum_{k<=j} 1/k.

    The D-independent weights of tau_over_n_sum, cached per x as one array.
    Each entry is the product (1/n) * H(floor(x/n)) rounded once, so
    chi(n) * w[n-1] equals (chi(n)/n) * H(floor(x/n)) exactly: chi(n) is
    -1, 0 or 1.  1/n is the cached _inv_n(x), not a second copy.
    """
    h = np.zeros(x + 1, dtype=np.float64)
    np.cumsum(_inv_n(x), out=h[1:])
    floors = x // np.arange(1, x + 1, dtype=np.int64)
    w = h[floors]
    return np.multiply(_inv_n(x), w, out=w)


# The largest leaf of _chi_weighted_sum.  It must be at least 128, the block
# that np.sum adds without splitting, so that every node the walk splits is
# one that np.sum splits too.
_LEAF = 2**15


def _chi_weighted_sum(D: FundamentalDiscriminant, w: np.ndarray) -> float:
    """sum_{n=1}^{x} chi(n) w[n-1] for a float64 weight array w of length x.

    The value is bit-identical to the literal
    np.sum(chi[1:x+1].astype(np.float64) * w), but no length-x array is
    made.  On a contiguous float64 array of length n > 128, np.sum adds
    pairwise: it splits at n2 = n // 2 - (n // 2) % 8 and adds the sums of
    the two halves.  _pairwise_leaves walks that same tree down to nodes of
    at most _LEAF terms.  At each such leaf it multiplies the weights by
    chi into one scratch buffer of _LEAF terms and sums the buffer with
    np.sum, which runs the subtree below that node.  The leaf sums are added
    as Python floats in the order np.sum adds them, so every rounding is the
    same.  chi(1..) is taken once as a float64 block of _LEAF + q terms (or
    x, if x is smaller) and read at offset lo % q for a leaf starting at lo.
    """
    x = w.size
    q = D.q
    chi = chi_values_up_to(D, min(x, _LEAF + q))[1:].astype(np.float64)
    buf = np.empty(min(x, _LEAF), dtype=np.float64)
    return _pairwise_leaves(w, chi, buf, q, 0, x)


def _pairwise_leaves(
    w: np.ndarray, chi: np.ndarray, buf: np.ndarray, q: int, lo: int, n: int
) -> float:
    """sum_{lo < m <= lo + n} chi(m) w[m-1] along np.sum's pairwise tree.

    A module-level function on purpose: a recursive closure refers to itself
    through its own cell, and that cycle would keep w, chi and buf alive
    until the cyclic garbage collector runs, including a 76 MiB weight array
    that the weight cache has already let go.
    """
    if n > _LEAF:
        n2 = n // 2 - (n // 2) % 8
        return _pairwise_leaves(w, chi, buf, q, lo, n2) + _pairwise_leaves(
            w, chi, buf, q, lo + n2, n - n2
        )
    off = lo % q
    out = buf[:n]
    np.multiply(w[lo : lo + n], chi[off : off + n], out=out)
    return float(np.sum(out))


# The direct L'(1) sum is memoised by (d, X): D compares and hashes by d
# alone, and the verify suites ask for the same reference L'(1) repeatedly.
@lru_cache(maxsize=1024)
def _direct_chi_log_over_n(D: FundamentalDiscriminant, X: int) -> float:
    return -_chi_weighted_sum(D, _log_over_n(X))


def _chi_over_n_partial(D: FundamentalDiscriminant, x: int) -> float:
    """sum_{n<=x} chi(n)/n exactly as written (up to rounding), by the cheaper route.

    By complete periods (_chi_over_n_by_periods, O(q)) once x >= _PERIOD_K0 q
    or x > _DIRECT_LIMIT; otherwise literally, by _chi_weighted_sum (O(x)).
    Both routes sum the same x terms and differ only in rounding: against
    40-digit values both were within 1e-15.
    """
    if x >= _PERIOD_K0 * D.q or x > _DIRECT_LIMIT:
        return _chi_over_n_by_periods(D, x)
    return _chi_weighted_sum(D, _inv_n(x))


# scipy.special.digamma at x > 0 is Cephes' psi.  Its rational approximation
# on [1, 2] is Boost's (John Maddock, 2006, Boost Software License 1.0):
# psi(x) = g Y + g P(x - 1)/Q(x - 1), where g = x - root is taken off in
# three parts, root = 1.4616... being the positive zero of psi.  Y is a
# float32 constant in the C source, widened to double; its literal is a
# float32 value already (0x1.fdbcep-1), so the widening changes no bit.
_PSI_Y = float(np.float32(0.99558162689208984))
_PSI_ROOT1 = 1569415565.0 / 1073741824.0
_PSI_ROOT2 = (381566830.0 / 1073741824.0) / 1073741824.0
_PSI_ROOT3 = 0.9016312093258695918615325266959189453125e-19
_PSI_P = (
    -0.0020713321167745952,
    -0.045251321448739056,
    -0.28919126444774784,
    -0.65031853770896507,
    -0.32555031186804491,
    0.25479851061131551,
)
_PSI_Q = (
    -0.55789841321675513e-6,
    0.0021284987017821144,
    0.054151797245674225,
    0.43593529692665969,
    1.4606242909763515,
    2.0767117023730469,
    1.0,
)
# Cephes' asymptotic series for x >= 10: psi(x) = log x - 0.5/x - z A(z),
# z = 1/x^2, with the z A(z) term dropped from x = 1e17 on.
_PSI_A = (
    8.33333333333333333333e-2,
    -2.10927960927960927961e-2,
    7.57575757575757575758e-3,
    -4.16666666666666666667e-3,
    3.96825396825396825397e-3,
    -8.33333333333333333333e-3,
    8.33333333333333333333e-2,
)
_PSI_ASY_CUT = 1e17
# Elements per pass of _digamma_pair: its five scratch rows (640 KiB) stay
# in a 2 MiB L2 cache.  Whole-array passes over phi(q) elements were slower
# than scipy, and passes of 4096 elements only as fast, on a 2-vCPU host.
_PSI_CHUNK = 2**14


def _polevl(z: np.ndarray, coef: tuple[float, ...], out: np.ndarray) -> np.ndarray:
    """coef[0] z^N + ... + coef[N] by Horner's rule into out, as Cephes' polevl."""
    np.multiply(z, coef[0], out)
    np.add(out, coef[1], out)
    for c in coef[2:]:
        np.multiply(out, z, out)
        np.add(out, c, out)
    return out


def _psi_1_2(x: np.ndarray, out: np.ndarray, s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """psi(x) for x in [1, 2] into out (Cephes' digamma_imp_1_2); s, g scratch."""
    np.subtract(x, 1.0, g)
    _polevl(g, _PSI_P, out)
    np.divide(out, _polevl(g, _PSI_Q, s), out)
    np.subtract(x, _PSI_ROOT1, g)
    np.subtract(g, _PSI_ROOT2, g)
    np.subtract(g, _PSI_ROOT3, g)
    np.multiply(g, _PSI_Y, s)
    np.multiply(g, out, out)
    return np.add(s, out, out)


def _digamma_pair(K: int, t: np.ndarray) -> np.ndarray:
    """psi(K + t) - psi(t) for an int K >= 1 and float64 t in (0, 1).

    Each psi follows Cephes' psi, which scipy.special.digamma runs at
    x > 0, operation for operation:
      - psi(t) = -1/t + R(t + 1), R the rational approximation on [1, 2];
      - for K <= 9, psi(K + t) takes x -= 1, y += 1/x down to (1, 2), then R;
      - for K >= 10, the asymptotic series, without z A(z) once x >= 1e17
        (where x*x would also overflow near 1e154).
    Cephes' branch for an integer x <= 10 never runs: t = r/q with q <= 2^26
    is at least 2^-26 from 0 and from 1, far above an ulp of K + t.  Every
    operation is an IEEE one that numpy rounds as C does, except np.log,
    which may differ from libm's log in the last bit (see
    _chi_over_n_by_periods).  The work goes in chunks of _PSI_CHUNK
    elements through reused scratch rows.
    """
    n = t.size
    out = np.empty(n, dtype=np.float64)
    m = min(n, _PSI_CHUNK)
    rows = np.empty((5, m), dtype=np.float64)
    Kf = float(K)
    # K + t rounds into [Kf, Kf + 1], and the floats next to 1e17 are 16
    # apart, so x >= 1e17 holds for every t exactly when Kf >= 1e17.
    series = Kf < _PSI_ASY_CUT
    for lo in range(0, n, m):
        k = min(m, n - lo)
        tc = t[lo : lo + k]
        x, y, a, b, c = (row[:k] for row in rows)
        res = out[lo : lo + k]
        # psi(t)
        np.divide(-1.0, tc, res)
        np.add(tc, 1.0, x)
        np.add(res, _psi_1_2(x, a, b, c), res)
        # psi(K + t), into a
        np.add(tc, Kf, x)
        if K >= 10:
            np.log(x, a)
            np.subtract(a, np.divide(0.5, x, b), a)
            if series:
                np.multiply(x, x, b)
                np.divide(1.0, b, b)
                np.multiply(b, _polevl(b, _PSI_A, c), c)
                np.subtract(a, c, a)
        else:
            a.fill(0.0)
            for _ in range(K - 1):
                np.subtract(x, 1.0, x)
                np.add(a, np.divide(1.0, x, b), a)
            np.add(a, _psi_1_2(x, b, c, y), a)
        np.subtract(a, res, res)
    return out


def _chi_over_n_by_periods(D: FundamentalDiscriminant, x: int) -> float:
    """sum_{n<=x} chi(n)/n grouped into complete periods, in O(q) work.

    With x = K q + R (0 <= R < q),

        sum_{n<=Kq} chi(n)/n = (1/q) sum_{r=1}^{q} chi(r) [psi(K + r/q) - psi(r/q)]

    (psi = digamma), plus the literal partial block of the R terms
    chi(r)/(Kq + r).  chi(1..q) is the cached period rotated by one place.
    The digamma pair is evaluated only at the phi(q) units r, where
    chi(r) != 0, and the products are scattered into a zero array of length
    q: np.sum then runs the same pairwise tree over the same nonzero terms
    as a sum over all q residues, and a zero term (of either sign) cannot
    change a nonzero sum.  The tail denominators are built in float64, so a
    huge x cannot overflow an integer; float(K q) + r is exact, and the
    value equals an int64 build bit for bit, for every x <= 2^53.

    The digamma pair comes from _digamma_pair, which repeats the operations
    of scipy.special.digamma.  Its one difference is np.log, used for
    psi(K + t) at K >= 10: on an AVX-512 host numpy's vectorised log
    differs from libm's log in the last bit on about 1e-4 of arguments.
    Over the fundamental |d| <= 1e4 at x = 1e12, that moved one L(1) of
    6086 by one ulp: d = -4479 gives 3.285922994097901 with scipy and
    3.2859229940979016 here.  The scan CSV did not change.
    """
    q = D.q
    per = chi_period(D)
    K, R = divmod(x, q)
    ch = np.concatenate((per[1:], per[:1]))
    nz = np.flatnonzero(ch)
    t = (nz + 1) / q
    terms = np.zeros(q, dtype=np.float64)
    terms[nz] = ch[nz] * _digamma_pair(K, t)
    main = float(np.sum(terms)) / q
    den = float(K * q) + np.arange(1, R + 1, dtype=np.float64)
    return main + float(np.sum(per[1 : R + 1] / den))


def _check_truncation(x: float, q: int) -> None:
    """A series truncation must be a finite number >= q."""
    if not math.isfinite(x):
        raise DomainError(f"truncation x must be finite, got {x}")
    if x < q:
        raise DomainError("truncation x must be >= q")


def l_one(D: FundamentalDiscriminant, x: float) -> LValueEstimate:
    """Truncated L(1, chi) = sum_{n<=x} chi(n)/n with tail bound sqrt(q) log(q)/x.

    The sum runs by complete periods in O(q) once x >= _PERIOD_K0 q, and
    term by term below (_chi_over_n_partial); method is "direct" either way.
    """
    q = D.q
    _check_truncation(x, q)
    value = _chi_over_n_partial(D, math.floor(x))
    bound = math.sqrt(q) * math.log(q) / x
    return LValueEstimate(value=value, truncation=float(x), bound=bound, method="direct")


def l_one_prime_direct(D: FundamentalDiscriminant, x: float) -> LValueEstimate:
    """Truncated L'(1, chi) = -sum_{n<=x} chi(n) log(n)/n.

    Tail bound 2 sqrt(q) log(q) (log x + 1)/x by partial summation against
    the Polya-Vinogradov bound.  The sum goes through _chi_weighted_sum and
    is memoised by (d, floor(x)); truncation and bound come from x itself.
    """
    q = D.q
    _check_truncation(x, q)
    X = math.floor(x)
    if X > _DIRECT_LIMIT:
        raise DomainError("direct L' truncation above the desk limit")
    value = _direct_chi_log_over_n(D, X)
    bound = 2.0 * math.sqrt(q) * math.log(q) * (math.log(x) + 1.0) / x
    return LValueEstimate(value=value, truncation=float(x), bound=bound, method="direct")


def tau_over_n_sum(D: FundamentalDiscriminant, x: int) -> float:
    """sum_{n<=x} tau(n, chi)/n via the divisor pairing n = d k:

        sum_{d<=x} chi(d)/d * H(floor(x/d)),   H = harmonic numbers.

    The weights H(floor(x/d))/d do not depend on D; they are cached per x
    (_tau_weights) and summed against chi by _chi_weighted_sum.  x above
    primes.DEFAULT_MAX_WIDTH raises CapacityError before anything is
    allocated.
    """
    if x < 1:
        raise DomainError("x must be >= 1")
    if x > DEFAULT_MAX_WIDTH:
        # x as a power of ten: in full it can run to hundreds of digits, and
        # str() refuses an int of more than 4300 digits.
        raise CapacityError(
            f"tau sum length 10^{math.log10(x):.2f} exceeds budget {DEFAULT_MAX_WIDTH}"
        )
    return _chi_weighted_sum(D, _tau_weights(x))


def l_one_prime_tau(D: FundamentalDiscriminant, x: float) -> LValueEstimate:
    """L'(1, chi) recovered from the tau(n, chi)/n partial sum.

        L'(1, chi) ~ sum_{n<=x} tau(n, chi)/n - L(1, chi)(log x + gamma)

    using L(1, chi) truncated at x^2.  Bound: c q^{1/4} x^{-1/2} log x with
    the calibrated c = _TAU_C_CAL, plus the propagated L(1) tail,
    (log x + gamma) * sqrt(q) log(q) / x^2.
    """
    q = D.q
    _check_truncation(x, q)
    # The tau sum comes first: its capacity guard must fire before x^2 can
    # overflow to inf in l_one.
    tau = tau_over_n_sum(D, math.floor(x))
    l1 = l_one(D, float(x) * float(x))
    value = tau - l1.value * (math.log(x) + EULER_GAMMA)
    bound = _TAU_C_CAL * q**0.25 * math.log(x) / math.sqrt(x)
    bound += (math.log(x) + EULER_GAMMA) * l1.bound
    return LValueEstimate(
        value=value, truncation=float(x), bound=bound, method="tau-identity"
    )


def class_number_oracle(D: FundamentalDiscriminant) -> LValueEstimate:
    """Exact L(1, chi) for d < 0 via the class number formula.

    h(d) is counted by enumerating reduced integral binary quadratic forms
    (a, b, c) of discriminant d: b^2 - 4ac = d with -a < b <= a <= c and
    b >= 0 whenever a = c, one numpy pass over b for each a <= sqrt(q/3).
    Then L(1, chi) = 2 pi h / (w sqrt(q)) where the unit count w is 6 for
    d = -3, 4 for d = -4, and 2 otherwise.
    """
    d = D.d
    if d >= 0:
        raise DomainError("class number oracle is for d < 0 only")
    q = D.q
    if q > 10**6:
        raise DomainError("class number oracle limited to |d| <= 1e6")
    h = 0
    for a in range(1, math.isqrt(q // 3) + 1):
        b = np.arange(-a + 1, a + 1, dtype=np.int64)
        c, r = np.divmod(b * b - d, 4 * a)
        h += int(np.count_nonzero((r == 0) & (c >= a) & ((c > a) | (b >= 0))))
    w = 6 if d == -3 else 4 if d == -4 else 2
    value = 2.0 * math.pi * h / (w * math.sqrt(q))
    return LValueEstimate(value=value, truncation=math.inf, bound=0.0, method="class-number")


@_ARRAYS
def _prime_logs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(primes p <= n, log1p(-1/p), log1p(1/p)) as int64 and float64 arrays.

    The per-prime table of the Euler products; it does not depend on d.  The
    callers key it by _bucket(q), the least power of two >= q, so that
    nearby q share one entry, and slice the prefix p <= q.  The logs come
    from math.log1p, as in a loop over the primes: np.log1p differs from
    it in the last bit for 17 of the 1229 primes below 1e4.
    """
    ps = primes_upto(n)
    plist = ps.tolist()
    lm = np.array([math.log1p(-1.0 / p) for p in plist], dtype=np.float64)
    lp = np.array([math.log1p(1.0 / p) for p in plist], dtype=np.float64)
    return ps, lm, lp


def _chi_at_primes(D: FundamentalDiscriminant) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(chi(p), log1p(-1/p), log1p(1/p)) over the primes p <= q.

    chi_period comes first, so that a q beyond its capacity raises
    CapacityError before the table is sieved.
    """
    per = chi_period(D)
    q = D.q
    ps, lm, lp = _prime_logs(_bucket(q))
    k = int(np.searchsorted(ps, q, side="right"))
    return per[ps[:k] % q], lm[:k], lp[:k]


def euler_p_ratio(D: FundamentalDiscriminant) -> float:
    """P(q) = prod_{p<=q} (1 - 1/p)(1 + chi(p)/p)^{-1}, accumulated in logs.

    The log of the factor at p is log1p(-1/p) - log1p(chi(p)/p), taken from
    the cached table of _prime_logs by chi(p) in {-1, 0, 1}.  np.cumsum adds
    the terms strictly from p = 2 upwards, as a loop over the primes would
    (np.sum adds pairwise and would change the last bits).
    """
    chi, lm, lp = _chi_at_primes(D)
    terms = np.where(chi == 1, lm - lp, np.where(chi == 0, lm, 0.0))
    return math.exp(float(np.cumsum(terms)[-1]))


def main_term_product(D: FundamentalDiscriminant) -> float:
    """(pi^2/6) prod_{p|q} (1 + 1/p) prod_{p<=q, chi(p)=1} (1 + 1/p)(1 - 1/p)^{-1}.

    The product prediction for L'(1, chi) in the tiny-L(1) regime; kept in
    log space so that main_term_product(D) * euler_p_ratio(D) matches
    zeta(2) prod_{p|q} (1 - 1/p^2) to rounding.  chi(p) = 0 exactly when
    p | q, so the log of the factor at p is log1p(1/p) - log1p(-1/p) for
    chi(p) = 1, log1p(1/p) for chi(p) = 0 and 0 for chi(p) = -1, from the
    table of _prime_logs, summed from p = 2 upwards by np.cumsum as in
    euler_p_ratio.
    """
    chi, lm, lp = _chi_at_primes(D)
    terms = np.where(chi == 1, lp - lm, np.where(chi == 0, lp, 0.0))
    return (math.pi**2 / 6.0) * math.exp(float(np.cumsum(terms)[-1]))


def coprime_zeta2_partial(q: int, K: int) -> float:
    """sum_{k < K, gcd(k, q) = 1} 1/k^2 (strict upper limit).

    Within 2/(K-1) of zeta(2) prod_{p|q} (1 - 1/p^2) since the dropped tail
    is at most sum_{k>=K} 1/k^2 <= 1/(K-1).
    """
    if q < 1 or K < 2:
        raise DomainError("need q >= 1 and K >= 2")
    ks = np.arange(1, K, dtype=np.int64)
    mask = np.gcd(ks, q) == 1
    return float(np.sum(1.0 / (ks[mask].astype(np.float64) ** 2)))


def epsilon_functional(x: float, u: float) -> float:
    """eps(x, u) = [ (log(x/u))^{sqrt(3)-2} + (log(2x/u^2)/log(x/u))^{1-2/pi} ] loglog x.

    Domain: x > u >= 1 and 2 sqrt(x) < u^2 < x.
    """
    if not x > u:
        raise DomainError("epsilon functional needs x > u")
    if u < 1:
        raise DomainError("epsilon functional needs u >= 1")
    if not 2.0 * math.sqrt(x) < u * u:
        raise DomainError("epsilon functional needs 2*sqrt(x) < u^2")
    if not u * u < x:
        raise DomainError("epsilon functional needs u^2 < x")
    lg = math.log(x / u)
    ratio = math.log(2.0 * x / (u * u)) / lg
    return (lg ** (math.sqrt(3.0) - 2.0) + ratio ** (1.0 - 2.0 / math.pi)) * math.log(
        math.log(x)
    )


def mean_variation_bound(x: float, omega: float) -> float:
    """M(x, w) = (log(2w)/log x)^{1-2/pi} log(log x / log(2w)) + loglog x / (log x)^{2-sqrt(3)}.

    Domain: x >= 16 and 1 <= w <= sqrt(x)/2.
    """
    if x < 16:
        raise DomainError("mean variation bound needs x >= 16")
    if omega < 1:
        raise DomainError("mean variation bound needs omega >= 1")
    if not omega <= math.sqrt(x) / 2.0:
        raise DomainError("mean variation bound needs omega <= sqrt(x)/2")
    lx = math.log(x)
    lw = math.log(2.0 * omega)
    first = (lw / lx) ** (1.0 - 2.0 / math.pi) * math.log(lx / lw)
    second = math.log(lx) / lx ** (2.0 - math.sqrt(3.0))
    return first + second


# ---------------------------------------------------------------------------
# Multiplicative-function descriptors and bulk evaluation


@dataclass(frozen=True)
class MultiplicativeFunc:
    """A completely multiplicative f, described by its values f(p) at primes.

    f(p^k) = f(p)^k, so f(p) alone determines f.  at_prime maps an int64
    array of primes to their values f(p) as float64 (a float result is
    broadcast to every prime).  Every value must satisfy |f(p)| <= 1.
    """

    name: str
    at_prime: Callable[[np.ndarray], np.ndarray]

    def values(self, ps: np.ndarray) -> np.ndarray:
        """f(p) for an int64 array of primes; ContractError if some |f(p)| > 1."""
        v = np.broadcast_to(np.asarray(self.at_prime(ps), dtype=np.float64), ps.shape)
        bad = np.flatnonzero(np.abs(v) > 1.0 + 1e-12)
        if bad.size:
            i = bad[0]
            raise ContractError(f"{self.name}: |f({ps[i]})| = {abs(v[i])} exceeds 1")
        return v

    def at(self, p: int) -> float:
        return float(self.values(np.array([p], dtype=np.int64))[0])


def mf_one() -> MultiplicativeFunc:
    return MultiplicativeFunc("one", lambda ps: 1.0)


def mf_liouville() -> MultiplicativeFunc:
    return MultiplicativeFunc("liouville", lambda ps: -1.0)


def mf_liouville_times_chi(D: FundamentalDiscriminant) -> MultiplicativeFunc:
    per = chi_period(D)
    q = D.q
    return MultiplicativeFunc(
        f"liouville*chi[{D.d}]", lambda ps: -per[ps % q].astype(np.float64)
    )


def mf_char_flip_cutoff(D: FundamentalDiscriminant) -> MultiplicativeFunc:
    """f(p) = -chi(p) for p <= q, f(p) = 1 above, completely multiplicative.

    The construction whose mean value ties the Liouville-chi sum to P(q).
    """
    per = chi_period(D)
    q = D.q
    return MultiplicativeFunc(
        f"char-flip-cutoff[{D.d}]",
        lambda ps: np.where(ps <= q, -per[ps % q].astype(np.float64), 1.0),
    )


def values_up_to(f: MultiplicativeFunc, x: int) -> np.ndarray:
    """float64 array v of length x+1 with v[n] = f(n); v[0] = 0, v[1] = 1.

    f is evaluated once, at every prime p <= x.  Each prime p <= sqrt(x)
    takes one slice multiplication per power p^k <= x, skipped when
    f(p) = 1.  A prime P > sqrt(x) divides n <= x at most once, and is the
    last factor that an ascending loop over the primes would multiply in:
    by then v[m P] = v[m] for the cofactor m < sqrt(x).  So all those n get
    v[n] = v[m] * f(P) by one gather per cofactor m over the big P <= x/m,
    and every value equals that of the loop over all primes bit for bit.
    """
    if x < 1:
        raise DomainError("x must be >= 1")
    ps = primes_upto(x)
    fp = f.values(ps)
    vals = np.ones(x + 1, dtype=np.float64)
    vals[0] = 0.0
    k = int(np.searchsorted(ps, math.isqrt(x), side="right"))
    for p, v in zip(ps[:k].tolist(), fp[:k].tolist()):
        if v == 1.0:
            continue
        pk = p
        while pk <= x:
            vals[pk::pk] *= v
            pk *= p
    big, fbig = ps[k:], fp[k:]
    if big.size:
        for m in range(1, x // int(big[0]) + 1):
            j = int(np.searchsorted(big, x // m, side="right"))
            vals[m * big[:j]] = vals[m] * fbig[:j]
    return vals


def theta_and_s(f: MultiplicativeFunc, x: float) -> tuple[float, float]:
    """(Theta(f, x), s(f, x)) over primes p <= x:

        Theta = prod_p (1 - f(p)/p)^{-1} (1 - 1/p)
        s     = sum_p |1 - f(p)| / p

    The local factor 1/(1 - f(p)/p) is the closed form of the series
    sum_k f(p)^k / p^k; |f(p)| <= 1 and p >= 2 keep it positive.  The terms
    are built as arrays with the float operations of a loop over the
    primes, their logs come from math.log1p and math.log, and np.cumsum
    adds them from p = 2 upwards, so both values equal that loop bit for
    bit (as in euler_p_ratio).
    """
    if x < 2:
        return 1.0, 0.0
    ps = primes_upto(math.floor(x))
    fp = f.values(ps)
    pf = ps.astype(np.float64)
    s = float(np.cumsum(np.abs(1.0 - fp) / pf)[-1])
    local = 1.0 / (1.0 - fp / pf)
    n = ps.size
    log_m = np.fromiter(map(math.log1p, (-1.0 / pf).tolist()), np.float64, n)
    log_local = np.fromiter(map(math.log, local.tolist()), np.float64, n)
    return math.exp(float(np.cumsum(log_m + log_local)[-1])), s
