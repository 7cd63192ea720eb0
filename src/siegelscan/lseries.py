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

Both direct sums are grouped into complete periods at every x >= q, O(q)
work whatever x.  For L(1) (_chi_over_n_by_periods), from x >= _TAYLOR_K q
on the sum is L(1, chi) in closed form, minus the periods past K q
(x = K q + R) as a short Taylor series in r/q with Hurwitz zeta
coefficients, plus the literal block of the last R terms; below, the K
periods and the R terms are summed literally, one residue block at a time.
This gives the L(1) at x^2 inside the rearranged route and the scan's L(1)
at x.  L'(1) (_chi_log_n_over_n_by_periods) has no closed form to start
from: at most _TAYLOR_K periods and the last R terms are literal, and the
periods from _TAYLOR_K q to K q are a Taylor series with Hurwitz zeta and
zeta' coefficients.  One walker, _walk_periods, runs both: it goes over the
residues r in chunks through one block of reused buffers, sums each literal
block with the route's term (1/n or log(n)/n), evaluates the Taylor tail by
Horner's rule, and hands each chunk to L(1)'s closed form.  numpy is the one
runtime dependency, no length-x array is built, and each route states its
own rounding bound.

The tau sum, sum_{n<=x} chi(n) w(n) with w(n) = H(floor(x/n))/n, is the one
O(x) sum left.  Its weights do not depend on d and are cached per x in the
process-wide cache bounded in bytes (primes._ARRAYS, least recently used
out first), next to the chi periods.  They are built in one pass over n in
blocks of 2^15, with the result the only length-x array, and equal the
plain expression (1/n) H[x // n] bit for bit (_tau_weights).  One kernel,
_chi_weighted_sum, sums the products leaf by leaf along the pairwise tree
that np.sum itself would run over the whole length-x product: each leaf of
at most 2^15 terms is multiplied into one reused scratch buffer on a cache
line and summed by np.sum, and the leaf sums are added in the tree's order.
chi comes from a float64 block of 2^15 + q terms, built once per call, only
where x is at least _BLOCK_REUSE times that and the block is read by several
leaves (the scan at x >> q); otherwise each leaf copies chi from the held
int8 period into its buffer, and the kernel's transient stays at 256 KiB
whatever q.  The value is that of the literal np.sum bit for bit on both
paths, and no length-x product array is made.  The walk is a module-level
function, not a closure, so that no reference cycle keeps a weight array
alive.

The module also carries the product quantities used by the discriminant scan

    P(q)       = prod_{p<=q} (1 - 1/p)(1 + chi(p)/p)^{-1}
    main term  = (pi^2/6) prod_{p|q} (1 + 1/p) prod_{p<=q, chi(p)=1} (1+1/p)/(1-1/p)

whose product collapses to zeta(2) prod_{p|q} (1 - 1/p^2) exactly, the class
number formula oracle for d < 0, and the two error functionals eps(x, u) and
M(x, omega) that appear in measured envelopes.

Both products are sums of logs over the primes p <= q.  The logs
log1p(-1/p) and log1p(1/p) do not depend on d: _prime_logs holds them, and
primes.held_primes the primes, in the same cache.  Each product takes chi
at the primes from chi_period, picks one term per prime by chi(p) in
{-1, 0, 1}, and adds the terms with np.cumsum, strictly from p = 2 upwards.  The logs come from
math.log1p and the order is that of a loop over the primes, so the values
equal such a loop bit for bit; np.log1p and the pairwise np.sum would each
change the last bits.  The class number oracle counts reduced forms (a, b, c)
with one numpy pass over the pairs (a, b), in blocks of at most 2^15 pairs.

Multiplicative functions are completely multiplicative and given by f(p)
alone, as a callable from an int64 array of primes to real values, so
that f is evaluated once over all primes p <= x.  values_up_to multiplies
in the primes p <= sqrt(x) by slices and the one prime factor above sqrt(x)
by one gather per cofactor, on an int8 table, 1 byte per entry, when every
f(p) is -1, 0 or 1 (the verify checks and the Liouville table), and on a
float64 table otherwise; an int8 table's sums are those of the float64
table bit for bit.  theta_and_s builds its terms as arrays, maps the logs
over blocks of _LEAF primes and adds the terms from p = 2 upwards by
np.cumsum.  Both equal a loop over the primes bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .characters import FundamentalDiscriminant, chi_period, chi_values_up_to
from .errors import ContractError, DomainError
from .primes import _ARRAYS, check_width, held_primes, primes_upto

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

# Calibrated constant of the tau-identity error term c q^{1/4} x^{-1/2} log x.
_TAU_C_CAL = 10.0


@dataclass(frozen=True)
class LValueEstimate:
    """A truncated L-value with its truncation point and a truncation bound.

    bound covers the truncation error only.  It does not cover the
    floating-point rounding of the sum, which dominates once the bound is
    below about 1e-15: lvalues --d -4 --x 1e30 prints bound 2.8e-30 for a
    value 9e-16 away from pi/4.  The rounding bounds of the direct routes
    are stated once, in the docstrings of _chi_over_n_by_periods (l_one)
    and _chi_log_n_over_n_by_periods (l_one_prime_direct).  The
    tau-identity bound rests on a calibrated constant, not a proof.
    """

    value: float
    truncation: float
    bound: float
    method: str  # "direct" | "tau-identity" | "class-number"


# The largest leaf of _chi_weighted_sum.  It must be at least 128, the block
# that np.sum adds without splitting, so that every node the walk splits is
# one that np.sum splits too.  It is also the block length of the one pass
# of _tau_weights and the most pairs in a block of _form_count, whose
# scratch arrays then stay in L2.
_LEAF = 2**15

# _chi_weighted_sum builds its float64 chi block of _LEAF + q terms only for
# x >= _BLOCK_REUSE (q + _LEAF), where the leaves read each of its terms
# _BLOCK_REUSE times or more on average; below, each leaf copies chi from the
# int8 period.  Measured on 2 vCPUs (min of 9 calls in one process): at
# q <= 1e5 the two break even near x = 2-3 (q + _LEAF), and at 4 (q + _LEAF)
# the copy is 10-28% slower; at q >= 3e5 the block's pages are faulted in on
# every call, and the copy is 5-40% faster up to 8 (q + _LEAF).
_BLOCK_REUSE = 4


@_ARRAYS
def _tau_weights(x: int) -> np.ndarray:
    """w[n-1] = H(floor(x/n))/n for n <= x, H(j) = sum_{k<=j} 1/k.

    The D-independent weights of tau_over_n_sum, cached per x as one array.
    Each entry is the product (1/n) * H(floor(x/n)) rounded once, so
    chi(n) * w[n-1] equals (chi(n)/n) * H(floor(x/n)) exactly: chi(n) is
    -1, 0 or 1.

    w is the only length-x array.  One pass over n in blocks of _LEAF writes
    1/n into w and runs H on by np.cumsum over [H(lo), 1/n block]: cumsum
    adds strictly in sequence, so every H(j) is the float that one cumsum
    over all of 1/n gives.  Only the H that are read are kept: H(v) for
    v <= s = isqrt(x), and H(x // n) for n <= s, each taken from the block
    that holds it.  For n > s, v = x // n <= s is constant on runs of n
    ending at x // v, and the block of w is multiplied by H(v) repeated over
    the runs; w[:s] is multiplied by H(x // n) after the pass.  Each entry
    is so fl((1/n) * H(floor(x/n))) of the same two floats as in the plain
    expression (1/n) * H[x // n], bit for bit.
    """
    w = np.empty(x, dtype=np.float64)
    s = math.isqrt(x)
    h_small = np.empty(s + 1, dtype=np.float64)  # H(v), v <= s
    big_v = x // np.arange(s, 0, -1, dtype=np.int64)  # x // n, n = s..1: ascending
    h_big = np.empty(s, dtype=np.float64)
    h = np.zeros(min(x, _LEAF) + 1, dtype=np.float64)
    for lo in range(0, x, _LEAF):
        hi = min(lo + _LEAF, x)
        inv = w[lo:hi]
        np.divide(1.0, np.arange(lo + 1, hi + 1, dtype=np.float64), out=inv)
        hb = h[: hi - lo + 1]  # H(lo..hi); hb[0] = H(lo) carried over
        hb[1:] = inv
        np.cumsum(hb, out=hb)
        if lo <= s:
            h_small[lo : min(hi, s) + 1] = hb[: min(hi, s) - lo + 1]
        i0, i1 = np.searchsorted(big_v, [lo, hi + 1])
        h_big[i0:i1] = hb[big_v[i0:i1] - lo]
        a = max(lo, s) + 1  # the block's first n > s
        if a <= hi:
            vs = np.arange(x // a, x // hi - 1, -1, dtype=np.int64)
            runs = np.minimum(x // vs, hi) - np.maximum(x // (vs + 1), a - 1)
            inv[a - lo - 1 :] *= np.repeat(h_small[vs], runs)
        h[0] = hb[-1]
    w[:s] *= h_big[::-1]
    return w


def _aligned_rows(k: int, n: int) -> np.ndarray:
    """k empty float64 rows of n entries, each on a 64-byte boundary, in one block:
    numpy aligns to 16 bytes, and kernels writing off a cache line run slower."""
    m = -(-n // 8) * 8  # the row stride, whole cache lines
    raw = np.empty(k * m + 7, dtype=np.float64)
    skip = (-raw.ctypes.data % 64) // 8
    return raw[skip : skip + k * m].reshape(k, m)[:, :n]


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
    same.

    Where chi comes from is chosen once per call.  For x >= _BLOCK_REUSE
    (q + _LEAF), chi(1..) is taken once as a float64 block of _LEAF + q
    terms and read at offset lo % q for a leaf starting at lo
    (_block_leaf): each leaf reuses it.  Below that, the block would be read
    fewer times than it costs to build, and each leaf copies chi from the
    int8 period, wrapping at q, into the scratch buffer itself
    (_period_leaf); the int8 to float64 cast is exact.  The transient is
    then the one buffer of min(x, _LEAF) terms, 256 KiB at most, whatever q;
    the block path adds 8 (_LEAF + q) bytes, at most 8 x / _BLOCK_REUSE.
    """
    x = w.size
    q = D.q
    if x >= _BLOCK_REUSE * (q + _LEAF):
        chi = chi_values_up_to(D, _LEAF + q)[1:].astype(np.float64)
        leaf = partial(_block_leaf, w, chi, _aligned_rows(1, _LEAF)[0], q)
    else:
        leaf = partial(_period_leaf, w, chi_period(D), _aligned_rows(1, min(x, _LEAF))[0])
    return _pairwise_leaves(leaf, 0, x)


def _pairwise_leaves(leaf: Callable, lo: int, n: int) -> float:
    """sum_{lo < m <= lo + n} chi(m) w[m-1] along np.sum's pairwise tree.

    leaf(lo, n) sums one node of at most _LEAF terms.  A module-level
    function on purpose: a recursive closure refers to itself through its
    own cell, and that cycle would keep w, chi and buf alive until the
    cyclic garbage collector runs, including a 76 MiB weight array that the
    weight cache has already let go.
    """
    if n > _LEAF:
        n2 = n // 2 - (n // 2) % 8
        return _pairwise_leaves(leaf, lo, n2) + _pairwise_leaves(leaf, lo + n2, n - n2)
    return leaf(lo, n)


def _block_leaf(
    w: np.ndarray, chi: np.ndarray, buf: np.ndarray, q: int, lo: int, n: int
) -> float:
    """One leaf's sum, chi read from the float64 block chi[i] = chi(i + 1)."""
    off = lo % q
    out = buf[:n]
    np.multiply(w[lo : lo + n], chi[off : off + n], out=out)
    return float(np.sum(out))


def _period_leaf(w: np.ndarray, per: np.ndarray, buf: np.ndarray, lo: int, n: int) -> float:
    """One leaf's sum, chi(lo + 1..lo + n) copied from the int8 period into buf.

    The copy runs to the end of the period and on from chi(q) = per[0] until
    buf holds one whole period; past it, buf repeats with period q, so each
    further copy doubles what is there.
    """
    q = per.size
    out = buf[:n]
    s = (lo + 1) % q
    k = min(n, q - s)
    np.copyto(out[:k], per[s : s + k])
    if k < n:
        top = min(n, q)
        np.copyto(out[k:top], per[: top - k])
        while top < n:
            k = min(n, 2 * top)
            out[top:k] = out[: k - top]
            top = k
    np.multiply(out, w[lo : lo + n], out=out)
    return float(np.sum(out))


# Both period routes switch on _TAYLOR_K.  L(1)'s Taylor tail needs
# K >= _TAYLOR_K periods: there _hurwitz_zeta is accurate, and each tail
# term is at most a tenth of the last; below K = 10 it sums the first K
# periods literally.  L'(1) sums _TAYLOR_K periods literally and the
# periods past them, for K > _TAYLOR_K, as a Taylor tail.
_TAYLOR_K = 10

# Residues per chunk of _walk_periods.  Its five float64 buffers (640 KiB)
# stay in L2, and a chunk's sum of r chi(r), below 2^14 q <= 2^40, is an
# integer that np.sum adds exactly in float64.
_PERIOD_CHUNK = 2**14

# B_2k = N/D for k = 1..10.  _EM_COEF holds B_2k/(2k)!, each rounded once:
# the Euler-Maclaurin coefficients of _hurwitz_zeta.
_B2K = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66),
    (-691, 2730), (7, 6), (-3617, 510), (43867, 798), (-174611, 330),
)
_EM_COEF = tuple(n / (d * math.factorial(2 * k)) for k, (n, d) in enumerate(_B2K, 1))


def _hurwitz_zeta(s: int, a: float) -> float:
    """zeta(s, a) = sum_{n>=0} (a + n)^-s for an integer s >= 2 and a >= 10.

    Euler-Maclaurin at a itself: a^(1-s)/(s-1) + a^-s/2 plus the terms
    B_2k/(2k)! s(s+1)...(s+2k-2) a^(1-s-2k), k <= 10.  For real s the error
    is at most the first term left out, under 1e-19 at a >= 10 for each s.
    The powers of a are negative, so at a huge a they underflow to 0 and
    raise nothing.
    """
    total = a ** (1 - s) / (s - 1) + 0.5 * a**-s
    term = s * a ** (-1 - s)
    inv2 = 1.0 / (a * a)
    for k, c in enumerate(_EM_COEF, 1):
        total += c * term
        term *= (s + 2 * k - 1) * (s + 2 * k) * inv2
    return total


def _hurwitz_zeta_ds(s: int, a: float) -> float:
    """d/ds zeta(s, a), s >= 2 and a >= 10, by _hurwitz_zeta's terms differentiated:
    -log(a) zeta(s, a), -a^(1-s)/(s-1)^2, and each rising factorial
    s(s+1)...(s+2k-2) times sum_{i<=2k-2} 1/(s+i)."""
    total = -a ** (1 - s) / (s - 1) ** 2
    term = s * a ** (-1 - s)
    inv2 = 1.0 / (a * a)
    rise = 1.0 / s
    for k, c in enumerate(_EM_COEF, 1):
        total += c * term * rise
        term *= (s + 2 * k - 1) * (s + 2 * k) * inv2
        rise += 1.0 / (s + 2 * k - 1) + 1.0 / (s + 2 * k)
    return total - math.log(a) * _hurwitz_zeta(s, a)


def _tail_order(K: int) -> int:
    """The least J >= 1 with K^-(J+1)/(J+1) <= 2^-60, for K >= _TAYLOR_K.

    After J terms the Taylor tail of _chi_over_n_by_periods is off by at
    most K^-(J+1)/(J+1): term j is at most zeta(j+1, K)/(j+1), and
    zeta(j+1, K) <= K^-j/j + K^-(j+1).
    """
    lk = math.log(K)
    J = 1
    while (J + 1) * lk + math.log(J + 1) < 60 * math.log(2):
        J += 1
    return J


def _walk_periods(
    D: FundamentalDiscriminant, blocks: list, coef: list, term: Callable, closed: Callable | None
) -> tuple[float, float, list]:
    """The one pass over the residues 0 < r < q of both period routes.

    It goes over r in chunks of _PERIOD_CHUNK, through the four rows of one
    _aligned_rows block: r, chi(r), v and w.  For each literal block
    (k, top) it sets v = k q + r for r <= top, lets term(chi, v, w) write
    the block's terms into w, and sums them.  With Taylor coefficients coef
    (c_1, ..., c_J) it also sets v = t = r/q and sums chi(r) sum_j c_j t^j
    by Horner's rule; then closed(lo, r, chi, t, w), unless None, is called
    on the chunk starting at r = lo, and its values are kept in order.  No
    length-q float array is made and no BLAS routine runs.  Returns
    (math.fsum of the tail chunks / q, math.fsum of the literal blocks, the
    values of closed).
    """
    q = D.q
    per = chi_period(D)
    m = min(q - 1, _PERIOD_CHUNK)
    base = np.arange(m, dtype=np.float64)
    r_buf, chi_buf, v_buf, w_buf = _aligned_rows(4, m)
    tail, literal, sums = [], [], []
    for lo in range(1, q, m):
        n = min(m, q - lo)
        r, chi, v, w = r_buf[:n], chi_buf[:n], v_buf[:n], w_buf[:n]
        np.add(base[:n], lo, out=r)
        np.copyto(chi, per[lo : lo + n])
        for k, top in blocks:
            k2 = min(n, top - lo + 1)
            if k2 > 0:
                np.add(r[:k2], float(k * q), out=v[:k2])
                term(chi[:k2], v[:k2], w[:k2])
                literal.append(float(np.sum(w[:k2])))
        if not coef:
            continue
        np.divide(r, q, out=v)
        np.multiply(v, coef[-1], out=w)
        for c in reversed(coef[:-1]):
            np.add(w, c, out=w)
            np.multiply(w, v, out=w)
        np.multiply(w, chi, out=w)
        tail.append(float(np.sum(w)))
        if closed is not None:
            sums.append(closed(lo, r, chi, v, w))
    return math.fsum(tail) / q, math.fsum(literal), sums


def _inv_term(chi: np.ndarray, v: np.ndarray, w: np.ndarray) -> None:
    """w = chi(r)/v, the terms of L(1), v = k q + r."""
    np.divide(chi, v, out=w)


def _log_term(chi: np.ndarray, v: np.ndarray, w: np.ndarray) -> None:
    """w = chi(r) log(v)/v, the terms of -L'(1), v = k q + r."""
    np.log(v, out=w)
    np.multiply(w, chi, out=w)
    np.divide(w, v, out=w)


def _r_chi(lo: int, r: np.ndarray, chi: np.ndarray, t: np.ndarray, w: np.ndarray) -> int:
    """sum r chi(r) over a chunk, an integer that np.sum adds exactly."""
    np.multiply(r, chi, out=w)
    return int(np.sum(w))


def _log_sin_chi(
    half: int, lo: int, r: np.ndarray, chi: np.ndarray, t: np.ndarray, w: np.ndarray
) -> float:
    """sum chi(r) log sin(pi r/q) over the r < half of a chunk."""
    v = w[: max(half - lo, 0)]
    np.multiply(t[: v.size], math.pi, out=v)
    np.sin(v, out=v)
    np.log(v, out=v)
    np.multiply(v, chi[: v.size], out=v)
    return float(np.sum(v))


def _chi_over_n_by_periods(D: FundamentalDiscriminant, x: int) -> float:
    """sum_{n<=x} chi(n)/n grouped into complete periods, in O(q) work.

    With x = K q + R (0 <= R < q) and t = r/q, the sum is

        L(1, chi) + (1/q) sum_{r<q} chi(r) sum_{j=1}^{J} (-1)^(j+1) zeta(j+1, K) t^j
                  + sum_{r<=R} chi(r)/(K q + r).

    The first K periods are (1/q) sum_r chi(r) [psi(K + t) - psi(t)], where
    -(1/q) sum_r chi(r) psi(t) is L(1) and psi(K + t) is expanded about K;
    psi(K) drops out, as a full period of chi sums to 0.  J comes from
    _tail_order, the zetas from _hurwitz_zeta, and L(1) from its closed
    form (Davenport, Multiplicative Number Theory, ch. 1):

        odd chi (d < 0):  -pi sum_{r<q} r chi(r) / q^(3/2)
        even chi (d > 0): -(2/sqrt(q)) sum_{r<q/2} chi(r) log sin(pi r/q)

    The odd sum is an integer, exact in every chunk.  Below K = _TAYLOR_K
    the first K periods are summed literally, as chi(r)/(k q + r), k < K.
    _walk_periods takes the literal blocks, the Horner evaluation of the
    tail and the closed form's chunk sums in one pass; the parts are added
    by math.fsum.

    Rounding (eps = 2^-52, if np.sin and np.log are within 4 ulp): at
    K >= _TAYLOR_K the value is within 4 eps (log q + 4) of the truncated
    sum for odd chi, and within 4 eps (8 sqrt(q) + log q + 4) for even chi,
    whose log sin terms add up to at most q/2 in size.  Below, it is within
    17 eps (log x + 2).
    """
    q = D.q
    K, R = divmod(x, q)
    if K < _TAYLOR_K:
        return _walk_periods(D, [(k, q - 1) for k in range(K)] + [(K, R)], [], _inv_term, None)[1]
    coef = [(-1) ** (j + 1) * _hurwitz_zeta(j + 1, float(K)) for j in range(1, _tail_order(K) + 1)]
    odd = D.d < 0
    closed = _r_chi if odd else partial(_log_sin_chi, (q + 1) // 2)
    tail, literal, sums = _walk_periods(D, [(K, R)], coef, _inv_term, closed)
    if odd:
        l1 = -math.pi * sum(sums) / (q * math.sqrt(q))
    else:
        l1 = -2.0 * math.fsum(sums) / math.sqrt(q)
    return math.fsum((l1, tail, literal))


def _chi_log_n_over_n_by_periods(D: FundamentalDiscriminant, x: int) -> float:
    """sum_{n<=x} chi(n) log(n)/n grouped into complete periods, in O(q) work.

    With x = K q + R, T = _TAYLOR_K and t = r/q, the periods past K q add up
    to (1/q) sum_r chi(r) sum_j c_j(K) t^j, c_j(K) = (-1)^(j+1) [(H_j - log q)
    zeta(j+1, K) + zeta'(j+1, K)], H_j = 1 + ... + 1/j.  For K > T the first
    T periods are literal and the rest up to K q is the tail with c_j(T) -
    c_j(K), whose term j is at most T^-j [(log(qT) + H_j)(1/T + 1/j) +
    1/j^2]/(j+1): below 2^-60 past J = _tail_order(T) + 1 = 17 terms, for
    q <= 2^26.  The last R terms, and for K <= T all K periods, are literal.
    Both go through _walk_periods, with no closed form to start from.
    Rounding (eps = 2^-52, np.log within 4 ulp): within 17 eps ((log y)^2/2
    + log y + 2), y = min(x, T q): 17 eps on each literal term, as in
    _chi_over_n_by_periods, and J + 23 eps on the tail, of size (log(Tq) + 2)/16.
    """
    q = D.q
    K, R = divmod(x, q)
    coef = []
    if K > _TAYLOR_K:
        T, lq, h = float(_TAYLOR_K), math.log(q), 0.0
        for j in range(1, _tail_order(_TAYLOR_K) + 2):
            h += 1.0 / j
            z = _hurwitz_zeta(j + 1, T) - _hurwitz_zeta(j + 1, float(K))
            dz = _hurwitz_zeta_ds(j + 1, T) - _hurwitz_zeta_ds(j + 1, float(K))
            coef.append((-1) ** (j + 1) * ((h - lq) * z + dz))
    blocks = [(k, q - 1) for k in range(min(K, _TAYLOR_K))] + [(K, R)]
    tail, literal, _ = _walk_periods(D, blocks, coef, _log_term, None)
    return math.fsum((tail, literal))


def _check_truncation(x: float, q: int) -> None:
    """A series truncation must be a finite number >= q."""
    if not math.isfinite(x):
        raise DomainError(f"truncation x must be finite, got {x}")
    if x < q:
        raise DomainError("truncation x must be >= q")


def l_one(D: FundamentalDiscriminant, x: float) -> LValueEstimate:
    """Truncated L(1, chi) = sum_{n<=x} chi(n)/n with tail bound sqrt(q) log(q)/x.

    The sum runs by complete periods in O(q) work and memory at every x
    (_chi_over_n_by_periods), within its stated rounding bound.
    """
    q = D.q
    _check_truncation(x, q)
    value = _chi_over_n_by_periods(D, math.floor(x))
    bound = math.sqrt(q) * math.log(q) / x
    return LValueEstimate(value=value, truncation=float(x), bound=bound, method="direct")


def l_one_prime_direct(D: FundamentalDiscriminant, x: float) -> LValueEstimate:
    """Truncated L'(1, chi) = -sum_{n<=x} chi(n) log(n)/n.

    Tail bound 2 sqrt(q) log(q) (log x + 1)/x by partial summation against
    the Polya-Vinogradov bound.  The sum runs by complete periods in O(q)
    work and memory at every x (_chi_log_n_over_n_by_periods), within its
    stated rounding bound.
    """
    q = D.q
    _check_truncation(x, q)
    value = -_chi_log_n_over_n_by_periods(D, math.floor(x))
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
    check_width("tau sum", x)
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

    L(1, chi) = 2 pi h / (w sqrt(q)), with h = h(d) counted by _form_count
    and the unit count w = 6 for d = -3, 4 for d = -4, and 2 otherwise.
    """
    d = D.d
    if d >= 0:
        raise DomainError("class number oracle is for d < 0 only")
    q = D.q
    if q > 10**6:
        raise DomainError("class number oracle limited to |d| <= 1e6")
    h = _form_count(d)
    w = 6 if d == -3 else 4 if d == -4 else 2
    value = 2.0 * math.pi * h / (w * math.sqrt(q))
    return LValueEstimate(value=value, truncation=math.inf, bound=0.0, method="class-number")


def _form_count(d: int) -> int:
    """h(d): the reduced integral binary quadratic forms of discriminant d < 0.

    (a, b, c) with b^2 - 4ac = d, -a < b <= a <= c and b >= 0 whenever
    a = c.  b^2 - 4ac = d ties the parity of b to that of d, and
    b and -b give the same c, so one numpy pass runs over the pairs (a, b)
    with a <= sqrt(|d|/3), 0 <= b <= a and b = d (mod 2).  Such a pair is a
    form when a divides m = (b^2 - d)/4 and c = m/a >= a.  It counts once
    when b = 0, b = a or c = a, and twice (b and -b) otherwise.  The pairs
    are taken in blocks of whole a-ranges of at most _LEAF pairs each, so
    the scratch arrays stay that short.  Under the oracle's |d| <= 1e6 one a
    has at most 289 pairs, and all of it is exact in int64: b^2 - d <= 4|d|/3
    < 2^21.
    """
    p = d & 1
    a = np.arange(1, math.isqrt(-d // 3) + 1, dtype=np.int64)
    n = (a - p) // 2 + 1  # the b = p, p + 2, ..., at most a
    ends = np.cumsum(n)
    starts = ends - n
    h = lo = 0
    while lo < a.size:
        hi = int(np.searchsorted(ends, starts[lo] + _LEAF, side="right"))
        aa = np.repeat(a[lo:hi], n[lo:hi])
        b = np.arange(starts[lo], ends[hi - 1], dtype=np.int64)
        b -= np.repeat(starts[lo:hi], n[lo:hi])
        b = 2 * b + p
        m = (b * b - d) >> 2  # b^2 = d (mod 4), so the shift is exact
        hit = np.flatnonzero(m % aa == 0)
        ah, bh = aa[hit], b[hit]
        c = m[hit] // ah
        form = c >= ah
        twice = form & (bh > 0) & (bh < ah) & (c > ah)
        h += int(np.count_nonzero(form)) + int(np.count_nonzero(twice))
        lo = hi
    return h


@_ARRAYS.prefix
def _prime_logs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(log1p(-1/p), log1p(1/p)) over the primes p <= n, as float64 arrays.

    The per-prime table of the Euler products; it does not depend on d.
    One table is held, built to a power of two, and a call for q returns it
    whenever it reaches q: the callers slice the prefix p <= q.  The primes
    are those of primes.held_primes, which holds them once.  The logs come
    from math.log1p, as in a loop over the primes: np.log1p differs from
    it in the last bit for 17 of the 1229 primes below 1e4.
    """
    plist = held_primes(n).tolist()
    lm = np.array([math.log1p(-1.0 / p) for p in plist], dtype=np.float64)
    lp = np.array([math.log1p(1.0 / p) for p in plist], dtype=np.float64)
    return lm, lp


def _chi_at_primes(D: FundamentalDiscriminant) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(chi(p), log1p(-1/p), log1p(1/p)) over the primes p <= q.

    chi_period comes first, so that a q beyond its capacity raises
    CapacityError before the table is sieved.
    """
    per = chi_period(D)
    q = D.q
    ps = held_primes(q)
    lm, lp = _prime_logs(q)
    k = ps.size
    return per[ps % q], lm[:k], lp[:k]


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
    array of primes to their values f(p), an array of any real dtype or a
    float broadcast to every prime; values casts them to float64 once.
    Every value must satisfy |f(p)| <= 1.
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
    """f(p) = -chi(p), negated in the int8 period: f(p) = 0 at p | q is +0.0."""
    per = chi_period(D)
    q = D.q
    return MultiplicativeFunc(f"liouville*chi[{D.d}]", lambda ps: -per[ps % q])


def mf_char_flip_cutoff(D: FundamentalDiscriminant) -> MultiplicativeFunc:
    """f(p) = -chi(p) for p <= q, f(p) = 1 above, completely multiplicative.

    The construction whose mean value ties the Liouville-chi sum to P(q).
    -chi(p) is negated in the int8 period, so f(p) = 0 at p | q is +0.0.
    """
    per = chi_period(D)
    q = D.q
    return MultiplicativeFunc(
        f"char-flip-cutoff[{D.d}]",
        lambda ps: np.where(ps <= q, -per[ps % q], 1.0),
    )


def values_up_to(f: MultiplicativeFunc, x: int) -> np.ndarray:
    """Array v of length x+1 with v[n] = f(n); v[0] = 0, v[1] = 1.

    The table is int8, 1 byte per entry, when every f(p) is -1, 0 or 1, so
    that every f(n) is too, and float64, 8 bytes per entry, otherwise.  An
    int8 table equals by == the float64 table that the same fill would
    make, and its sum by np.sum (in int64) is that table's float64 pairwise
    sum bit for bit: every partial sum of +-1 and 0 is an integer below
    2^53, and one that is 0 comes out +0.0 when the terms summed start at
    v[1] = 1.

    f is evaluated once, at every prime p <= x.  Each prime p <= sqrt(x)
    takes one slice multiplication per power p^k <= x, skipped when
    f(p) = 1.  A prime P > sqrt(x) divides n <= x at most once, and is the
    last factor that an ascending loop over the primes would multiply in:
    by then v[m P] = v[m] for the cofactor m < sqrt(x).  So all those n get
    v[n] = v[m] * f(P) by one gather per cofactor m over the big P <= x/m,
    and every value equals that of the loop over all primes bit for bit.
    x above primes.DEFAULT_MAX_WIDTH raises CapacityError in primes_upto,
    before anything is allocated.
    """
    if x < 1:
        raise DomainError("x must be >= 1")
    ps = primes_upto(x)
    fp = f.values(ps)
    if np.all((fp == 0.0) | (np.abs(fp) == 1.0)):
        fp = fp.astype(np.int8)
    vals = np.ones(x + 1, dtype=fp.dtype)
    vals[0] = 0
    k = int(np.searchsorted(ps, math.isqrt(x), side="right"))
    for p, v in zip(ps[:k].tolist(), fp[:k].tolist()):
        if v == 1:
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
    bit (as in euler_p_ratio).  The logs are mapped over blocks of _LEAF
    primes into one array of terms, so that no list of pi(x) floats is
    made.  x is checked by primes.check_width before it is floored: past
    the array budget CapacityError, inf or nan DomainError.
    """
    check_width("prime sieve", x)
    if x < 2:
        return 1.0, 0.0
    ps = primes_upto(math.floor(x))
    fp = f.values(ps)
    pf = ps.astype(np.float64)
    del ps
    s = float(np.cumsum(np.abs(1.0 - fp) / pf)[-1])
    terms = np.empty_like(pf)
    for lo in range(0, pf.size, _LEAF):
        b = pf[lo : lo + _LEAF]
        local = 1.0 / (1.0 - fp[lo : lo + _LEAF] / b)
        t = terms[lo : lo + b.size]
        t[:] = np.fromiter(map(math.log1p, (-1.0 / b).tolist()), np.float64, b.size)
        t += np.fromiter(map(math.log, local.tolist()), np.float64, b.size)
    return math.exp(float(np.cumsum(terms, out=terms)[-1])), s
