"""Identity checks and measured envelope checks, run by named suites.

Every check produces an IdentityReport with a left side, a right side, the
residual |lhs - rhs|, an envelope, and the ratio residual/envelope.

Exact checks (kind="exact") assert algebraic identities: integer-valued ones
must come out with residual exactly 0, float/complex ones within 1e-9 (scaled
by summand count for the long exponential sums).  Measured checks
(kind="measured") compare a computed quantity against a predicted main term
and pass when the residual stays within c_max times the documented envelope;
the envelope always absorbs the tail bounds of any truncated L-values used
to form the prediction, and the ratio is reported for calibration.

The two sides of every check are computed by structurally different routes
(literal nested loops vs divisor/character reorganizations) so a shared bug
cannot cancel.  The scan-smoke suite checks a small discriminant scan
(siegelscan.scan) against direct enumeration.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .characters import (
    FundamentalDiscriminant,
    chi_values_up_to,
    enumerate_fundamentals,
)
from .errors import DomainError
from .lseries import (
    EULER_GAMMA,
    MultiplicativeFunc,
    epsilon_functional,
    euler_p_ratio,
    l_one,
    l_one_prime_direct,
    mean_variation_bound,
    mf_char_flip_cutoff,
    mf_liouville,
    mf_liouville_times_chi,
    mf_one,
    tau_over_n_sum,
    theta_and_s,
    values_up_to,
)
from .primes import _ARRAYS, _bucket, primes_upto
from .scan import scan_discriminants
from .sieve import (
    divisor_accumulate,
    divisor_accumulate_into,
    liouville_table,
    prime_powers_upto,
    rho_u,
    shared_sieve,
    tau_chi_table,
)

__all__ = [
    "IdentityReport",
    "DEFAULT_SEED",
    "seeded_two_var",
    "verify_two_variable_identity",
    "verify_exponential_decomposition",
    "verify_rho_swap_and_skeleton",
    "verify_psi_transfer",
    "verify_mean_variation",
    "verify_rho_main_term",
    "verify_tau_log_identity",
    "verify_tau_props",
    "verify_theta_decomposition",
    "verify_lambda_chi_mean",
    "verify_psi_chi",
    "run_suite",
    "SUITES",
]

DEFAULT_SEED = 20260814

# Truncation of the reference L(1) and L'(1) in the measured checks; their
# tail bounds at this x are folded into each envelope.
_REF_TRUNC = 1e7


@dataclass(frozen=True)
class IdentityReport:
    name: str
    params: dict
    lhs: complex | float
    rhs: complex | float
    residual: float
    envelope: float
    ratio: float
    passed: bool
    kind: str  # "exact" | "measured"


def _exact_report(
    name: str, params: dict, lhs, rhs, residual, passed: bool
) -> IdentityReport:
    """An exact report with the caller's residual and verdict.

    The verdict is cast to bool: a numpy residual makes it a numpy bool,
    which json cannot write.
    """
    return IdentityReport(
        name=name,
        params=params,
        lhs=lhs,
        rhs=rhs,
        residual=float(residual),
        envelope=0.0,
        ratio=0.0 if residual == 0 else math.inf,
        passed=bool(passed),
        kind="exact",
    )


def _exact(name: str, params: dict, lhs, rhs, tol: float) -> IdentityReport:
    residual = abs(lhs - rhs)
    return _exact_report(name, params, lhs, rhs, residual, residual <= tol)


def _measured(
    name: str, params: dict, lhs: float, rhs: float, envelope: float, c_max: float
) -> IdentityReport:
    if envelope <= 0:
        raise DomainError(f"{name}: measured envelope must be positive")
    residual = abs(lhs - rhs)
    ratio = residual / envelope
    return IdentityReport(
        name=name,
        params=params,
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        envelope=envelope,
        ratio=ratio,
        passed=ratio <= c_max,
        kind="measured",
    )


# ---------------------------------------------------------------------------
# Exact checks


_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    z = (z ^ (z >> 33)) * 0xFF51AFD7ED558CCD & _MASK64
    z = (z ^ (z >> 33)) * 0xC4CEB9FE1A85EC53 & _MASK64
    return z ^ (z >> 33)


def seeded_two_var(seed: int) -> Callable[[int, int], int]:
    """A deterministic pseudo-random integer f(m, n) in [-3, 3].

    Order-independent: the value depends only on (seed, m, n), so both sides
    of an identity see the same function no matter how they traverse it.
    """

    def f(m: int, n: int) -> int:
        h = _mix64(
            (seed * 0x9E3779B97F4A7C15 + m * 0xBF58476D1CE4E5B9 + n * 0x94D049BB133111EB)
            & _MASK64
        )
        return (h % 7) - 3

    return f


def verify_two_variable_identity(
    f: Callable[[int, int], complex],
    x: float,
    u: float,
    *,
    f_name: str = "f",
    integer_valued: bool = True,
    seed: int | None = None,
) -> IdentityReport:
    """Exact two-variable rearrangement over divisor cutoffs.

        sum_{k^2 u < x} sum_{u < n <= x/k^2} f(k^2, n)
      = sum_{d <= u} sum_{u < n <= x/d} sum_{r <= x/(dn)} lambda(d) f(dr, n)
      + sum_{u < n <= x} sum_{u < m <= x/n} rho_u(m) f(m, n)

    Both sides are literal nested loops.  The left side never touches
    lambda; the right side uses lambda(d) directly and rho_u via divisor
    enumeration, so agreement is a real crosscheck.  Residual must be 0 for
    integer-valued f.
    """
    if u < 1 or not x > u:
        raise DomainError("need x > u >= 1")
    X = math.floor(x)
    if X > 10**5:
        raise DomainError("two-variable identity capped at x <= 1e5")
    FU = math.floor(u)
    lam = liouville_table(X).tolist()

    lhs = 0
    k = 1
    while k * k * u < X:
        kk = k * k
        top = X // kk
        for n in range(FU + 1, top + 1):
            lhs = lhs + f(kk, n)
        k += 1

    rhs = 0
    for d in range(1, FU + 1):
        ld = lam[d]
        topn = X // d
        for n in range(FU + 1, topn + 1):
            s = 0
            dn = d * n
            for r in range(1, X // dn + 1):
                s = s + f(d * r, n)
            rhs = rhs + ld * s

    mtop = X // (FU + 1)
    rho = [0] * (mtop + 1)
    for m in range(FU + 1, mtop + 1):
        rho[m] = rho_u(m, u)
    for n in range(FU + 1, X + 1):
        for m in range(FU + 1, X // n + 1):
            rm = rho[m]
            if rm:
                rhs = rhs + rm * f(m, n)

    params = {"f": f_name, "x": x, "u": u}
    if seed is not None:
        params["seed"] = seed
    tol = 0.0 if integer_valued else 1e-9
    return _exact("two_variable_identity", params, lhs, rhs, tol)


def verify_exponential_decomposition(
    a: int, q: int, x: float, u: float
) -> IdentityReport:
    """Exact split of the von Mangoldt exponential sum at alpha = a/q.

    With e_q(t) = exp(2 pi i t / q), the two-variable identity applied to
    f(m, n) = Lambda(n) e_q(a m n) reads

        sum_{k^2 u < x} sum_{u < n <= x/k^2} Lambda(n) e_q(a k^2 n)
      = T_sharp + T_flat,

      T_sharp = sum_{d <= u} lambda(d) sum_{u < n <= x/d} Lambda(n)
                    sum_{r <= x/(dn)} e_q(a d n r)
      T_flat  = sum_{u < n <= x} Lambda(n) sum_{u < m <= x/n} rho_u(m) e_q(a m n)

    Phases are reduced mod q in exact integers; the inner geometric r-sum is
    accumulated by complete cycles of length q (a regrouping of the literal
    sum, not an appeal to the identity under test).  Residual tolerance is
    1e-9 per summand.
    """
    if q < 1 or math.gcd(a, q) != 1:
        raise DomainError("alpha = a/q must be in lowest terms with q >= 1")
    if q > 512:
        raise DomainError("denominator capped at 512")
    if u < 1 or not x > u:
        raise DomainError("need x > u >= 1")
    X = math.floor(x)
    if X > 10**5:
        raise DomainError("exponential decomposition capped at x <= 1e5")
    FU = math.floor(u)

    pp_n, pp_vm = prime_powers_upto(X)
    lam = liouville_table(X)

    w = np.exp(2j * np.pi * np.arange(q) / q)
    phases = (np.arange(q)[:, None] * np.arange(1, q + 1)[None, :]) % q
    cyc = np.zeros((q, q + 1), dtype=np.complex128)
    np.cumsum(w[phases], axis=1, out=cyc[:, 1:])
    full = cyc[:, q].copy()

    def pp_range(lo_excl: int, hi_incl: int) -> slice:
        i = np.searchsorted(pp_n, lo_excl, side="right")
        j = np.searchsorted(pp_n, hi_incl, side="right")
        return slice(i, j)

    lhs = 0.0 + 0.0j
    k = 1
    while k * k * u < X:
        kk = k * k
        sl = pp_range(FU, X // kk)
        ns = pp_n[sl]
        lhs += np.sum(pp_vm[sl] * w[(a * kk * ns) % q])
        k += 1

    sharp = 0.0 + 0.0j
    count = 0
    for d in range(1, FU + 1):
        sl = pp_range(FU, X // d)
        ns = pp_n[sl]
        if ns.size == 0:
            continue
        r_top = X // (d * ns)
        c = (a * d * ns) % q
        rsum = (r_top // q) * full[c] + cyc[c, r_top % q]
        sharp += int(lam[d]) * np.sum(pp_vm[sl] * rsum)
        count += int(np.sum(r_top))

    mtop = X // (FU + 1)
    rho = _rho_table(mtop, u)
    flat = 0.0 + 0.0j
    sl = pp_range(FU, X)
    for i in range(sl.start, sl.stop):
        n = int(pp_n[i])
        hi = X // n
        if hi <= FU:
            continue
        ms = np.arange(FU + 1, hi + 1, dtype=np.int64)
        flat += pp_vm[i] * np.sum(rho[ms] * w[(a * n * ms) % q])
        count += hi - FU

    rhs = sharp + flat
    params = {"a": a, "q": q, "x": x, "u": u, "summands": count}
    return _exact(
        "exponential_decomposition", params, complex(lhs), complex(rhs), 1e-9 * max(1, count)
    )


def verify_rho_swap_and_skeleton(
    D: FundamentalDiscriminant, t: float, u: float
) -> IdentityReport:
    """Exact divisor swap and Abel-summation skeleton for rho_u against chi.

    (a) Swap, with the strict cutoff frozen on both sides (d > u inside
        rho_u, n > u after the swap):

          sum_{u < m <= t} rho_u(m) chi(m)
        = sum_{d <= t/u} chi(d) sum_{u < n <= t/d} lambda(n) chi(n)

        Pure integer arithmetic on both sides.

    (b) Skeleton, with x = t u and M = floor(x/u):

          sum_{u < m <= x/u} rho_u(m) chi(m) (x/m - u)
        = sum_{u < t' <= x/u - 1} [x/(t'(t'+1))] R(t') + (x/M - u) R(M),

        R(t') = sum_{u < m <= t'} rho_u(m) chi(m).  Both sides are reduced
        to integer coefficient vectors on the basis {x/j} + {u} (the j-th
        left coefficient directly, the right one through the telescoping
        partial sums), so equality is decided exactly in integers.

    When u is an integer the non-strict swap variant (n >= u inside) is also
    evaluated and recorded in params; it genuinely differs, which is why the
    strict convention is the frozen one.

    rho_u comes from _rho_table, that is from lambda(d) over the divisors
    d > u by divisor accumulation, never through the square identity.  Its
    held base takes 8 bytes per entry of _bucket(T): 8 MiB at the cap T = 1e6.
    """
    if u < 1:
        raise DomainError("need u >= 1")
    T = math.floor(t)
    if T > 10**6:
        raise DomainError("swap check capped at t <= 1e6")
    params: dict = {"d": D.d, "t": t, "u": u}
    if u >= t:
        params["trivial"] = True
        return _exact("rho_swap_skeleton", params, 0, 0, 0.0)
    FU = math.floor(u)

    lam = shared_sieve(T).lambda_sign
    ch = chi_values_up_to(D, T)

    rho_chi = _rho_table(T, u) * ch
    ptail = np.cumsum(rho_chi)
    ptail -= ptail[FU]  # R(t') for t' >= FU
    lhs_a = int(ptail[T])

    lam_chi_prefix = np.cumsum(lam * ch, dtype=np.int64)
    # d_top may pass t/u by one: that d has T // d <= FU, an empty inner sum
    d_top = min(T, math.floor(t / u) + 1)
    nd = T // np.arange(1, d_top + 1)
    cd = ch[1 : d_top + 1]

    def swap_sum(lo: int) -> int:
        """sum_{d <= d_top} chi(d) sum_{lo <= n <= T/d} lambda(n) chi(n), exactly."""
        keep = nd >= lo
        return int(np.sum(cd[keep] * (lam_chi_prefix[nd[keep]] - lam_chi_prefix[lo - 1])))

    rhs_a = swap_sum(FU + 1)
    residual_a = abs(lhs_a - rhs_a)

    if float(u).is_integer():
        rhs_ns = swap_sum(int(u))
        params["rhs_swap_nonstrict"] = rhs_ns
        params["nonstrict_differs"] = bool(rhs_ns != lhs_a)

    # (b) coefficient vectors; index j carries the coefficient of x/j
    lcoef = np.zeros(T + 2, dtype=np.int64)
    lcoef[FU + 1 : T + 1] = rho_chi[FU + 1 : T + 1]
    lu = -int(ptail[T])

    rcoef = np.zeros(T + 2, dtype=np.int64)
    rcoef[FU + 1 : T] += ptail[FU + 1 : T]
    rcoef[FU + 2 : T + 1] -= ptail[FU + 1 : T]
    rcoef[T] += int(ptail[T])
    ru = -int(ptail[T])

    coef_diff = int(np.sum(np.abs(lcoef - rcoef))) + abs(lu - ru)
    x_eff = t * u

    def evaluate(coef: np.ndarray, cu: int) -> float:
        js = np.nonzero(coef)[0]
        return float(np.sum(coef[js] * (x_eff / js))) + cu * u

    lhs_b = evaluate(lcoef, lu)
    rhs_b = lhs_b if coef_diff == 0 else evaluate(rcoef, ru)  # equal bit for bit
    residual_b = 0.0 if coef_diff == 0 else abs(lhs_b - rhs_b)

    params.update(
        {
            "lhs_skeleton": lhs_b,
            "rhs_skeleton": rhs_b,
            "skeleton_coef_mismatch": int(coef_diff),
        }
    )
    residual = residual_a + residual_b
    return _exact_report(
        "rho_swap_skeleton", params, float(lhs_a), float(rhs_a), residual, residual == 0
    )


# ---------------------------------------------------------------------------
# Measured checks


def _lambda_chi_cumsum(D: FundamentalDiscriminant, X: int) -> np.ndarray:
    """P[j] = sum_{n<=j} Lambda(n) chi(n) as a float64 prefix array."""
    ns, vm = prime_powers_upto(X)
    acc = np.zeros(X + 1, dtype=np.float64)
    acc[ns] = vm * chi_values_up_to(D, X)[ns].astype(np.float64)
    np.cumsum(acc, out=acc)
    return acc


@_ARRAYS
def _rho_base(n: int) -> np.ndarray:
    """sum_{d | m} lambda(d) for every m <= n, as int64, by divisor accumulation."""
    return divisor_accumulate(shared_sieve(n).lambda_sign, 1, n)


def _rho_table(X: int, u: float) -> np.ndarray:
    """rho_u(m) for all m <= X (d > u strict), as a new int64 array.

    A copy of the first X + 1 entries of _rho_base(_bucket(X)), held in
    primes._ARRAYS, from which divisor_accumulate_into takes lambda(d) off
    the multiples of each d <= u: rho_u is summed from lambda(d) over the
    divisors d > u, never through the square identity, which the checks
    test.  The base takes 8 bytes per entry of the bucket: 8 MiB at X = 1e6,
    128 MiB at x/u = 1e7; at 2^26 (512 MiB) it is not held.
    """
    n = _bucket(X)
    cut = math.floor(u) + 1
    acc = _rho_base(n)[: X + 1].copy()
    divisor_accumulate_into(acc, -shared_sieve(n).lambda_sign[:cut], 1, cut)
    return acc


def verify_psi_transfer(
    D: FundamentalDiscriminant, x: float, u: float, *, c_max: float = 100.0
) -> IdentityReport:
    """Twisted Chebyshev sums over square-scaled cutoffs vs the rho-weighted form.

        sum_{k^2 u < x, gcd(k, q) = 1} psi_u(x/k^2, chi)
        ~ sum_{u < m <= x/u} rho_u(m) chi(m) psi_u(x/m, chi)

    Envelope (q sqrt(q) + x/sqrt(q) + u^2 sqrt(q)) log^2 x.
    """
    q = D.q
    if u < 1 or not x > u:
        raise DomainError("need x > u >= 1")
    if not q < x:
        raise DomainError("need q < x")
    X = math.floor(x)
    if X > 10**7:
        raise DomainError("psi transfer capped at x <= 1e7")
    FU = math.floor(u)

    P = _lambda_chi_cumsum(D, X)
    lhs = 0.0
    k = 1
    while k * k * u < x:
        if math.gcd(k, q) == 1:
            lhs += float(P[X // (k * k)] - P[FU])
        k += 1

    M = math.floor(x / u)
    rho = _rho_table(M, u)
    ms = np.arange(FU + 1, M + 1, dtype=np.int64)
    ch = chi_values_up_to(D, M)[ms].astype(np.float64)
    rhs = float(np.sum(rho[ms] * ch * (P[X // ms] - P[FU])))

    env = (q * math.sqrt(q) + x / math.sqrt(q) + u * u * math.sqrt(q)) * math.log(x) ** 2
    params = {"d": D.d, "x": x, "u": u}
    return _measured("psi_transfer", params, lhs, rhs, env, c_max)


def verify_mean_variation(
    f: MultiplicativeFunc, x: float, omega: float, *, c_max: float = 100.0
) -> IdentityReport:
    """Mean of f at x against the rescaled mean at x/omega.

        (1/x) sum_{n<=x} f(n) - (omega/x) sum_{n<=x/omega} f(n)

    measured against M(x, omega).
    """
    env = mean_variation_bound(x, omega)
    X = math.floor(x)
    vals = values_up_to(f, X)
    lhs = float(np.sum(vals[1:])) / x
    rhs = omega * float(np.sum(vals[1 : math.floor(x / omega) + 1])) / x
    params = {"f": f.name, "x": x, "omega": omega}
    return _measured("mean_variation", params, lhs, rhs, env, c_max)


def verify_rho_main_term(
    D: FundamentalDiscriminant, x: float, u: float, *, c_max: float = 100.0
) -> IdentityReport:
    """The rho_u-weighted character sum against its L-value main term.

        sum_{u < m <= x/u} rho_u(m) chi(m) (x/m - u)
        ~ u [sum_{n <= x/u} lambda(n) chi(n)] (L(1,chi) log(x/(e u^2)) + L'(1,chi))

    Envelope u^2 log(x/u^2) sqrt(q) log q + x/u + eps(x, u) x (log q + log^2(x/u^2)),
    plus the propagated tail bounds of the truncated L-values.
    """
    q = D.q
    eps = epsilon_functional(x, u)
    if not q < x:
        raise DomainError("need q < x")
    X = math.floor(x)
    if X > 10**7:
        raise DomainError("rho main term capped at x <= 1e7")
    FU = math.floor(u)
    M = math.floor(x / u)

    rho = _rho_table(M, u)
    ms = np.arange(FU + 1, M + 1, dtype=np.int64)
    ch = chi_values_up_to(D, M).astype(np.float64)
    lhs = float(np.sum(rho[ms] * ch[ms] * (x / ms - u)))
    lam = liouville_table(M).astype(np.float64)
    s_lam_chi = float(np.sum(lam * ch))

    l1 = l_one(D, _REF_TRUNC)
    l1p = l_one_prime_direct(D, _REF_TRUNC)
    log_window = math.log(x / (math.e * u * u))
    rhs = u * s_lam_chi * (l1.value * log_window + l1p.value)

    env = (
        u * u * math.log(x / (u * u)) * math.sqrt(q) * math.log(q)
        + x / u
        + eps * x * (math.log(q) + math.log(x / (u * u)) ** 2)
    )
    env += abs(u * s_lam_chi) * (l1.bound * abs(log_window) + l1p.bound)
    params = {"d": D.d, "x": x, "u": u, "trunc": _REF_TRUNC, "epsilon": eps}
    return _measured("rho_main_term", params, lhs, rhs, env, c_max)


def verify_tau_log_identity(
    D: FundamentalDiscriminant, x: float, *, c_max: float = 100.0
) -> IdentityReport:
    """Partial sums of tau(n, chi)/n against L(1,chi)(log x + gamma) + L'(1,chi).

    Raw envelope q^{1/4} x^{-1/2} log x; reference L-values come from the
    direct series at _REF_TRUNC and their tail bounds are folded into the
    envelope.  The raw envelope and raw ratio are kept in params so a global
    calibration constant can be extracted.
    """
    q = D.q
    if not q < x:
        raise DomainError("need q < x")
    X = math.floor(x)
    lhs = tau_over_n_sum(D, X)
    l1 = l_one(D, _REF_TRUNC)
    l1p = l_one_prime_direct(D, _REF_TRUNC)
    rhs = l1.value * (math.log(x) + EULER_GAMMA) + l1p.value

    env_raw = q**0.25 * math.log(x) / math.sqrt(x)
    env = env_raw + (math.log(x) + EULER_GAMMA) * l1.bound + l1p.bound
    residual = abs(lhs - rhs)
    params = {
        "d": D.d,
        "x": x,
        "trunc": _REF_TRUNC,
        "envelope_raw": env_raw,
        "ratio_raw": residual / env_raw,
    }
    return _measured("tau_log_identity", params, lhs, rhs, env, c_max)


def verify_tau_props(D: FundamentalDiscriminant, y: float) -> IdentityReport:
    """Nonnegativity of tau(n, chi) for n <= y, and the prime-sum bound

        sum_{q < p <= y} (1 + chi(p)) log(p)/p
        <= log(y) sum_{q < n <= y} tau(n, chi)/n.

    Both sides are computed from a single divisor-accumulated tau table; the
    left side restricts to primes, where tau(p, chi) = 1 + chi(p).  The
    inequality is an exact tie when the only contributing n in (q, y] is a
    prime equal to y, so a 1e-12 relative slack absorbs float rounding of
    the log sums; any genuine violation is orders of magnitude larger.
    """
    q = D.q
    if not y > q:
        raise DomainError("need y > q")
    Y = math.floor(y)
    if Y > 10**6:
        raise DomainError("tau properties capped at y <= 1e6")
    tau = tau_chi_table(D, Y)
    min_tau = int(tau[1:].min())

    ps = primes_upto(Y)
    ps = ps[ps > q]
    ch = chi_values_up_to(D, Y)
    lhs = float(
        np.sum((1.0 + ch[ps].astype(np.float64)) * np.log(ps.astype(np.float64)) / ps)
    )
    ns = np.arange(q + 1, Y + 1, dtype=np.int64)
    rhs = math.log(y) * float(np.sum(tau[ns] / ns.astype(np.float64)))

    slack = 1e-12 * max(1.0, abs(lhs), abs(rhs))
    violation = max(0.0, lhs - rhs - slack)
    passed = min_tau >= 0 and violation == 0.0
    params = {"d": D.d, "y": y, "min_tau": min_tau}
    return _exact_report("tau_props", params, lhs, rhs, violation, passed)


def _smoothed(f: MultiplicativeFunc, cutoff: float) -> MultiplicativeFunc:
    """g(p) = 1 for p <= cutoff and g(p) = f(p) above."""
    return MultiplicativeFunc(
        f"smoothed[{f.name}]", lambda ps: np.where(ps <= cutoff, 1.0, f.values(ps))
    )


def verify_theta_decomposition(
    f: MultiplicativeFunc, x: float, eps_exp: float, *, c_max: float = 100.0
) -> IdentityReport:
    """Mean of f against its smoothed factorization.

        (1/x) sum_{n<=x} f(n) ~ Theta(f, x^eps) (1/x) sum_{m<=x} g(m)

    where g is completely multiplicative with g(p) = 1 for p <= x^eps and
    g(p) = f(p) above.  Envelope eps * exp(s(f, x)).
    """
    if x < 4:
        raise DomainError("need x >= 4")
    if not eps_exp < 1:
        raise DomainError("need eps < 1")
    if eps_exp < math.log(2) / math.log(x):
        raise DomainError("need x^eps >= 2")
    X = math.floor(x)
    cutoff = x**eps_exp

    fv = values_up_to(f, X)
    lhs = float(np.sum(fv[1:])) / x

    theta, _ = theta_and_s(f, cutoff)
    _, s_full = theta_and_s(f, x)
    gv = values_up_to(_smoothed(f, cutoff), X)
    rhs = theta * float(np.sum(gv[1:])) / x

    env = eps_exp * math.exp(s_full)
    params = {"f": f.name, "x": x, "eps": eps_exp, "theta": theta, "s": s_full}
    return _measured("theta_decomposition", params, lhs, rhs, env, c_max)


def verify_lambda_chi_mean(
    D: FundamentalDiscriminant, x: float, *, c_max: float = 100.0
) -> IdentityReport:
    """sum_{n<=x} lambda(n) chi(n) against P(q) x.

    Envelope (L(1,chi) + q^{-1/4}) x log x + x log^3(q)/log x, with the
    truncated L(1,chi) tail folded in.
    """
    q = D.q
    if not q < x:
        raise DomainError("need q < x")
    X = math.floor(x)
    if X > 10**7:
        raise DomainError("lambda-chi mean capped at x <= 1e7")
    lam = liouville_table(X).astype(np.int64)
    ch = chi_values_up_to(D, X).astype(np.int64)
    lhs = float(np.sum(lam * ch))

    pq = euler_p_ratio(D)
    rhs = pq * x
    l1 = l_one(D, _REF_TRUNC)
    env = (l1.value + l1.bound + q**-0.25) * x * math.log(x) + x * math.log(
        q
    ) ** 3 / math.log(x)
    params = {"d": D.d, "x": x, "pq": pq, "mean": lhs / x}
    return _measured("lambda_chi_mean", params, lhs, rhs, env, c_max)


# The constant c of the prime-number-theorem term x exp(-c sqrt(log x)).
_PNT_C = 0.1


def verify_psi_chi(D: FundamentalDiscriminant, x: float) -> IdentityReport:
    """Diagnostic: sum_{n<=x} Lambda(n) chi(n) against -x.

    Envelope (L(1,chi) + q^{-1/4}) x log^2 x + x exp(-c sqrt(log x)) + q with
    c = _PNT_C.  At desk scale the envelope dominates the main term, so this
    asserts residual <= envelope and records the ratio.
    """
    q = D.q
    if not q <= x:
        raise DomainError("need q <= x")
    X = math.floor(x)
    if X > 10**7:
        raise DomainError("psi-chi capped at x <= 1e7")
    P = _lambda_chi_cumsum(D, X)
    lhs = float(P[X])
    rhs = -x

    l1 = l_one(D, _REF_TRUNC)
    env = (
        (l1.value + l1.bound + q**-0.25) * x * math.log(x) ** 2
        + x * math.exp(-_PNT_C * math.sqrt(math.log(x)))
        + q
    )
    params = {"d": D.d, "x": x, "c": _PNT_C, "diagnostic": True}
    return _measured("psi_chi", params, lhs, rhs, env, c_max=1.0)


# ---------------------------------------------------------------------------
# Suites

TWO_VAR_CATALOG = [
    ("one", (10, 1.0)),
    ("one", (100, 7.0)),
    ("one", (300, 4.5)),
    ("liouville-n", (50, 3.0)),
    ("liouville-n", (200, 2.0)),
    ("vm-exp-third", (50, 2.0)),
]

EXPONENTIAL_GRID = [
    (1, 1, 50, 2.0),
    (1, 3, 50, 2.0),
    (2, 5, 200, 3.0),
    (3, 7, 2000, 4.0),
    (1, 5, 100000, 2.5),
]

SWAP_CATALOG = [
    (-4, 100.0, 2.5),
    (-3, 50.0, 7.5),
    (8, 1000.0, 9.5),
    (-4, 30.0, 35.5),  # u >= t: trivially empty
    (5, 400.0, 3.0),  # integer u: the non-strict cutoff variant disagrees here
]

PSI_TRANSFER_GRID = [
    (-4, 1e5, 1e5**0.4),
    (-4, 1e4, 1e2),
    (-7, 1e6, 10**2.4),
]

RHO_MAIN_TERM_GRID = [
    (-4, 1e6, 10**2.6),
    (-3, 1e5, 10**2.2),
]

TAU_LOG_GRID = [(d, float(x)) for d in (-3, -4, -7, 5, 8) for x in (10**4, 10**5, 10**6)]

THETA_GRID = [
    ("one", None, 1e4, 0.3),
    ("char-flip-cutoff", -4, 1e6, math.log(4) / math.log(1e6)),
    ("liouville", None, 1e5, 0.2),
]

MEAN_VARIATION_GRID = [
    ("one", None, 1e4, 5.0),
    ("liouville*chi", -4, 1e6, 10.0),
    ("liouville", None, 1e6, 2.0),
]

TAU_PROPS_GRID = [(-4, 20.0), (-4, 5.0), (-3, 1e3), (-4, 1e5)]

PSI_CHI_GRID = [(-4, 1e6), (-4, 4.0), (-3, 1e5)]

LAMBDA_CHI_MEAN_GRID = [(-4, 1e6), (-4, 1e4), (-8, 1e5)]

SUITES = ("identities", "lemmas", "corollaries", "scan-smoke", "all")


def _two_var_named(name: str, x: int):
    """Catalog f(m, n) builders; returns (callable, integer_valued)."""
    if name == "one":
        return (lambda m, n: 1), True
    if name == "liouville-n":
        lam = liouville_table(x).tolist()
        return (lambda m, n: lam[n]), True
    if name == "vm-exp-third":
        ns, logs = prime_powers_upto(x)
        vm = np.zeros(x + 1)
        vm[ns] = logs
        vm = vm.tolist()
        roots = [np.exp(2j * np.pi * j / 3) for j in range(3)]
        return (lambda m, n: vm[n] * roots[(m * n) % 3]), False
    raise DomainError(f"unknown catalog function {name}")


def _mf_named(name: str, d: int | None) -> MultiplicativeFunc:
    if name == "one":
        return mf_one()
    if name == "liouville":
        return mf_liouville()
    if name == "liouville*chi":
        return mf_liouville_times_chi(FundamentalDiscriminant(d))
    if name == "char-flip-cutoff":
        return mf_char_flip_cutoff(FundamentalDiscriminant(d))
    raise DomainError(f"unknown multiplicative function {name}")


def random_two_var_cases(seed: int, count: int) -> list[tuple[int, float, int]]:
    """Seeded (x, u, case_seed) triples with x <= 300 and 1 <= u < x."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        x = rng.randint(20, 300)
        if rng.random() < 0.5:
            u = float(rng.randint(1, max(1, min(40, x - 1))))
        else:
            u = rng.randint(1, max(1, min(40, x - 2))) + 0.5
        cases.append((x, u, rng.getrandbits(63)))
    return cases


def random_swap_triples(seed: int, count: int) -> list[tuple[int, float, float]]:
    """Seeded (d, t, u) with fundamental d, t <= 1e5, non-integer u < t."""
    rng = random.Random(seed)
    pool = [D.d for D in enumerate_fundamentals(-60, 60)]
    triples = []
    for i in range(count):
        d = rng.choice(pool)
        if i < 5:
            t = float(10**5)  # pin a few at the cap
        else:
            t = float(int(math.exp(rng.uniform(math.log(50), math.log(10**5)))))
        u = rng.randint(1, 40) + 0.5
        triples.append((d, t, u))
    return triples


def run_suite(
    suite: str,
    *,
    seed: int = DEFAULT_SEED,
    c_max: float = 100.0,
    jobs: int = 1,
    two_var_cases: int = 200,
    swap_cases: int = 500,
) -> list[IdentityReport]:
    """Run one named suite and return its reports.

    c_max, the ratio a measured check may reach, must be finite and > 0.
    """
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; choose from {SUITES}")
    if not (math.isfinite(c_max) and c_max > 0):
        raise DomainError(f"c_max must be finite and > 0, got {c_max}")
    if two_var_cases < 0 or swap_cases < 0:
        raise DomainError("case counts must be >= 0")
    reports: list[IdentityReport] = []

    if suite in ("identities", "all"):
        for name, (x, u) in TWO_VAR_CATALOG:
            f, integer_valued = _two_var_named(name, x)
            reports.append(
                verify_two_variable_identity(
                    f, x, u, f_name=name, integer_valued=integer_valued
                )
            )
        for x, u, case_seed in random_two_var_cases(seed, two_var_cases):
            reports.append(
                verify_two_variable_identity(
                    seeded_two_var(case_seed),
                    x,
                    u,
                    f_name="seeded-random",
                    seed=case_seed,
                )
            )
        for a, q, x, u in EXPONENTIAL_GRID:
            reports.append(verify_exponential_decomposition(a, q, x, u))
        for d, t, u in SWAP_CATALOG:
            reports.append(verify_rho_swap_and_skeleton(FundamentalDiscriminant(d), t, u))
        for d, t, u in random_swap_triples(seed, swap_cases):
            reports.append(verify_rho_swap_and_skeleton(FundamentalDiscriminant(d), t, u))

    if suite in ("lemmas", "all"):
        for d, x, u in PSI_TRANSFER_GRID:
            reports.append(
                verify_psi_transfer(FundamentalDiscriminant(d), x, u, c_max=c_max)
            )
        for d, x, u in RHO_MAIN_TERM_GRID:
            reports.append(
                verify_rho_main_term(FundamentalDiscriminant(d), x, u, c_max=c_max)
            )
        for d, x in TAU_LOG_GRID:
            reports.append(
                verify_tau_log_identity(FundamentalDiscriminant(d), x, c_max=c_max)
            )
        for name, d, x, eps in THETA_GRID:
            reports.append(
                verify_theta_decomposition(_mf_named(name, d), x, eps, c_max=c_max)
            )

    if suite in ("corollaries", "all"):
        for name, d, x, omega in MEAN_VARIATION_GRID:
            reports.append(
                verify_mean_variation(_mf_named(name, d), x, omega, c_max=c_max)
            )
        for d, y in TAU_PROPS_GRID:
            reports.append(verify_tau_props(FundamentalDiscriminant(d), y))
        for d, x in PSI_CHI_GRID:
            reports.append(verify_psi_chi(FundamentalDiscriminant(d), x))
        for d, x in LAMBDA_CHI_MEAN_GRID:
            reports.append(
                verify_lambda_chi_mean(FundamentalDiscriminant(d), x, c_max=c_max)
            )

    if suite in ("scan-smoke", "all"):
        reports.append(_scan_smoke(jobs))

    return reports


def _scan_smoke(jobs: int) -> IdentityReport:
    """Small scan with its row set checked against direct enumeration.

    Row invariant: every field finite, Pq > 0, rhs_main > 0.  (L1prime, and
    with it ratio_main, carries either sign at accessible truncations; the
    regime where it is forced positive is far beyond desk scale.)
    """
    rows = scan_discriminants(-50, -1, 1e5, jobs=jobs)
    expected = [D.d for D in enumerate_fundamentals(-50, -1)]
    got = sorted(r.d for r in rows)
    residual = 0.0 if got == sorted(expected) else 1.0
    for r in rows:
        fields = (r.l1, r.l1_bound, r.l1_prime, r.pq, r.rhs_main, r.ratio_main, r.score)
        if not all(math.isfinite(v) for v in fields):
            residual += 1.0
        if not (r.pq > 0 and r.rhs_main > 0):
            residual += 1.0
    row4 = next(r for r in rows if r.d == -4)
    residual += abs(row4.pq - 0.5) + abs(row4.rhs_main - math.pi**2 / 4)
    params = {"rows": len(rows), "expected_rows": len(expected), "x": 1e5}
    lhs, rhs = float(len(rows)), float(len(expected))
    return _exact_report("scan_smoke", params, lhs, rhs, residual, residual <= 1e-9)
