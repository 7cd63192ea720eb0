"""L-values at s = 1, Euler products, error functionals, multiplicative means."""

import functools
import gc
import importlib
import inspect
import math
import pkgutil
import tracemalloc
import warnings
import weakref
from collections import Counter
from itertools import chain, compress, repeat

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import siegelscan
from siegelscan import (
    CapacityError,
    ContractError,
    DomainError,
    FundamentalDiscriminant,
    MultiplicativeFunc,
    chi_eval,
    chi_period,
    chi_values_up_to,
    class_number_oracle,
    coprime_zeta2_partial,
    enumerate_fundamentals,
    epsilon_functional,
    euler_p_ratio,
    l_one,
    l_one_prime_direct,
    l_one_prime_tau,
    liouville_table,
    main_term_product,
    mean_variation_bound,
    mf_char_flip_cutoff,
    mf_liouville,
    mf_liouville_times_chi,
    mf_one,
    primes_upto,
    tau_chi,
    tau_over_n_sum,
    theta_and_s,
    values_up_to,
)
from siegelscan import characters, lseries, sieve, verify
from siegelscan.primes import _ARRAYS, DEFAULT_MAX_WIDTH, factorize
from siegelscan.scan import _coprime_zeta2_exact
from siegelscan.verify import TAU_LOG_GRID, _smoothed

KNOWN_CLASS_NUMBERS = {
    -3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -20: 2, -23: 3,
    -24: 2, -35: 2, -40: 2, -47: 5, -71: 7, -163: 1, -427: 2,
}


def oracle_h(D):
    est = class_number_oracle(D)
    w = 6 if D.d == -3 else 4 if D.d == -4 else 2
    return est.value * w * math.sqrt(D.q) / (2 * math.pi)


def test_class_numbers_known_table():
    for d, h in KNOWN_CLASS_NUMBERS.items():
        got = oracle_h(FundamentalDiscriminant(d))
        assert abs(got - h) < 1e-9, d


def test_class_number_rejects_positive_d():
    with pytest.raises(DomainError):
        class_number_oracle(FundamentalDiscriminant(5))


def brute_force_h(d):
    """Reduced forms (a, b, c) of discriminant d < 0, one (a, b) pair at a time.

    -a < b <= a <= c with b >= 0 whenever a = c; c = (b^2 - d) / (4a).
    """
    h = 0
    for a in range(1, math.isqrt(-d // 3) + 1):
        for b in range(-a + 1, a + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (a == c and b < 0):
                continue
            h += 1
    return h


def test_class_number_oracle_matches_brute_force():
    for d, h in KNOWN_CLASS_NUMBERS.items():
        assert brute_force_h(d) == h, d
    for D in enumerate_fundamentals(-3000, -3):
        got = oracle_h(D)
        assert abs(got - brute_force_h(D.d)) < 1e-9, D.d


def test_l_one_closed_forms():
    cases = [
        (-4, math.pi / 4),
        (-3, math.pi / (3 * math.sqrt(3))),
        (5, 2 * math.log((1 + math.sqrt(5)) / 2) / math.sqrt(5)),
        (8, math.log(1 + math.sqrt(2)) / math.sqrt(2)),
    ]
    for d, want in cases:
        est = l_one(FundamentalDiscriminant(d), 10**6)
        assert abs(est.value - want) <= est.bound, d
        assert est.method == "direct"


def test_l_one_period_grouping_matches_literal():
    # above the literal limit the sum is grouped by complete periods;
    # rebuild the literal sum in chunks and compare
    D = FundamentalDiscriminant(-7)
    x = 25_000_000
    est = l_one(D, x)
    from siegelscan import chi_values_up_to

    ch = chi_values_up_to(D, x)
    total = 0.0
    step = 5_000_000
    for lo in range(1, x + 1, step):
        hi = min(lo + step - 1, x)
        ns = np.arange(lo, hi + 1, dtype=np.float64)
        total += float(np.sum(ch[lo : hi + 1].astype(np.float64) / ns))
    assert abs(est.value - total) < 1e-11


def test_l_one_agrees_with_class_number():
    for d in (-4, -23, -47, -163):
        D = FundamentalDiscriminant(d)
        est = l_one(D, 10**7)
        ref = class_number_oracle(D)
        assert abs(est.value - ref.value) <= est.bound, d


def test_l_one_prime_direct_kummer_value():
    # L'(1, chi_-4) = (pi/4)(gamma + 2 log 2 + 3 log pi - 4 log Gamma(1/4))
    want = (math.pi / 4) * (
        0.5772156649015329 + 2 * math.log(2) + 3 * math.log(math.pi)
        - 4 * math.lgamma(0.25)
    )
    est = l_one_prime_direct(FundamentalDiscriminant(-4), 10**7)
    assert abs(est.value - want) <= est.bound + 1e-9


def test_l_one_prime_routes_agree():
    for d in (-4, 5, -7, 8):
        D = FundamentalDiscriminant(d)
        a = l_one_prime_direct(D, 10**7)
        b = l_one_prime_tau(D, 10**6)
        assert abs(a.value - b.value) < 1e-3, d
        assert b.method == "tau-identity"


def test_tau_over_n_sum_brute_force():
    for d in (-4, -3, 5):
        D = FundamentalDiscriminant(d)
        brute = sum(tau_chi(D, n) / n for n in range(1, 301))
        assert abs(tau_over_n_sum(D, 300) - brute) < 1e-12, d


def test_l_value_domain_errors():
    D = FundamentalDiscriminant(-163)
    with pytest.raises(DomainError):
        l_one(D, 100)  # x < q
    # no upper limit: x = 1e8 is summed by periods, within its bounds of L'(1)
    est = l_one_prime_direct(D, 10**8)
    err = abs(est.value - lerch_l_prime(D.d))
    assert err <= est.bound + l_prime_rounding_bound(D, 10**8), (est, err)
    for fn in (l_one, l_one_prime_direct, l_one_prime_tau):
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                fn(D, x)


def test_euler_p_ratio_points():
    assert abs(euler_p_ratio(FundamentalDiscriminant(-4)) - 0.5) < 1e-12
    assert abs(euler_p_ratio(FundamentalDiscriminant(-3)) - 2 / 3) < 1e-12


def test_main_term_product_point():
    got = main_term_product(FundamentalDiscriminant(-4))
    assert abs(got - math.pi**2 / 4) < 1e-12


def test_product_identity():
    # main term times P(q) collapses to zeta(2) prod_{p|q} (1 - 1/p^2)
    for d in (-4, -3, 5, 8, -84, 140, -555):
        D = FundamentalDiscriminant(d)
        lhs = main_term_product(D) * euler_p_ratio(D)
        assert abs(lhs - _coprime_zeta2_exact(D.q)) < 1e-12, d


# ---------------------------------------- Euler products, per-prime loops


def loop_euler_p_ratio(D):
    """P(q) as a loop over the primes p <= q, adding one log per prime."""
    per = chi_period(D)
    q = D.q
    acc = 0.0
    for p in primes_upto(q).tolist():
        acc += math.log1p(-1.0 / p) - math.log1p(int(per[p % q]) / p)
    return math.exp(acc)


def loop_main_term_product(D):
    """The main-term product as a loop over the primes p <= q."""
    per = chi_period(D)
    q = D.q
    acc = 0.0
    for p in primes_upto(q).tolist():
        v = int(per[p % q])
        if v == 0 and q % p == 0:
            acc += math.log1p(1.0 / p)
        elif v == 1:
            acc += math.log1p(1.0 / p) - math.log1p(-1.0 / p)
    return (math.pi**2 / 6.0) * math.exp(acc)


def fundamentals_with_q_in(lo, hi):
    return list(enumerate_fundamentals(-hi, -lo)) + list(enumerate_fundamentals(lo, hi))


def assert_products_equal_loops(Ds):
    for D in Ds:
        assert euler_p_ratio(D) == loop_euler_p_ratio(D), D.d
        assert main_term_product(D) == loop_main_term_product(D), D.d


def test_euler_products_equal_loops_small_q():
    assert_products_equal_loops(enumerate_fundamentals(-2000, 2000))


@pytest.mark.parametrize("power", [2**16, 2**17])
def test_euler_products_equal_loops_across_power_of_two(power):
    # the per-prime table is keyed by the next power of two >= q, so the q
    # on either side of the power read the prefixes of two different tables
    Ds = fundamentals_with_q_in(power - 7, power + 9)
    assert min(D.q for D in Ds) < power < max(D.q for D in Ds)
    assert_products_equal_loops(Ds)


def test_euler_products_equal_loops_near_2e5():
    Ds = fundamentals_with_q_in(199990, 200010)
    assert len(Ds) >= 4
    assert_products_equal_loops(Ds[:2] + Ds[-2:])


def test_coprime_zeta2_partial():
    # exact small case: k < 6 coprime to 4 -> 1 + 1/9 + 1/25
    want = 1 + 1 / 9 + 1 / 25
    assert abs(coprime_zeta2_partial(4, 6) - want) < 1e-15
    for K in (10**2, 10**4):
        got = coprime_zeta2_partial(12, K)
        assert abs(got - _coprime_zeta2_exact(12)) <= 2 / (K - 1)
    with pytest.raises(DomainError):
        coprime_zeta2_partial(0, 10)
    with pytest.raises(DomainError):
        coprime_zeta2_partial(4, 1)


def mp_epsilon(x, u):
    x, u = mpmath.mpf(x), mpmath.mpf(u)
    lg = mpmath.log(x / u)
    ratio = mpmath.log(2 * x / u**2) / lg
    return (lg ** (mpmath.sqrt(3) - 2) + ratio ** (1 - 2 / mpmath.pi)) * mpmath.log(
        mpmath.log(x)
    )


def mp_m_bound(x, w):
    x, w = mpmath.mpf(x), mpmath.mpf(w)
    lx, lw = mpmath.log(x), mpmath.log(2 * w)
    return (lw / lx) ** (1 - 2 / mpmath.pi) * mpmath.log(lx / lw) + mpmath.log(
        lx
    ) / lx ** (2 - mpmath.sqrt(3))


def test_error_functionals_high_precision():
    mpmath.mp.dps = 40
    for x, u in ((10**6, 100.0), (10**5, 40.0), (5e4, 25.0)):
        got = epsilon_functional(x, u)
        want = float(mp_epsilon(x, u))
        assert abs(got - want) < 1e-12 * abs(want), (x, u)
    for x, w in ((10**6, 10.0), (10**4, 2.0), (16, 1.0)):
        got = mean_variation_bound(x, w)
        want = float(mp_m_bound(x, w))
        assert abs(got - want) < 1e-12 * abs(want), (x, w)


def test_epsilon_frozen_value():
    assert abs(epsilon_functional(10**6, 100.0) - 3.5962085744202517) < 1e-12


def test_error_functional_domains():
    with pytest.raises(DomainError):
        epsilon_functional(100.0, 100.0)  # x > u fails
    with pytest.raises(DomainError):
        epsilon_functional(10**6, 0.5)  # u >= 1 fails
    with pytest.raises(DomainError):
        epsilon_functional(10**6, 30.0)  # 2 sqrt(x) < u^2 fails
    with pytest.raises(DomainError):
        epsilon_functional(10**6, 1100.0)  # u^2 < x fails
    with pytest.raises(DomainError):
        mean_variation_bound(8.0, 1.0)  # x >= 16 fails
    with pytest.raises(DomainError):
        mean_variation_bound(10**6, 0.5)
    with pytest.raises(DomainError):
        mean_variation_bound(10**6, 501.0)  # omega <= sqrt(x)/2 fails


def test_multiplicative_contract():
    bad = MultiplicativeFunc("too-big", lambda p: 1.5)
    with pytest.raises(ContractError):
        bad.at(2)
    with pytest.raises(DomainError):
        values_up_to(mf_one(), 0)


@pytest.mark.parametrize("d", [-4, -3, 5, -8, 12])
def test_values_up_to_equals_product_over_factorization(d):
    # f(n) = prod f(p)^e over n = prod p^e, with f(p) from each definition
    D = FundamentalDiscriminant(d)
    cases = [
        (mf_one(), lambda p: 1),
        (mf_liouville(), lambda p: -1),
        (mf_liouville_times_chi(D), lambda p: -chi_eval(D, p)),
        (mf_char_flip_cutoff(D), lambda p: -chi_eval(D, p) if p <= D.q else 1),
    ]
    for f, f_at_prime in cases:
        vals = values_up_to(f, 3000)
        assert vals[0] == 0.0
        for n in range(1, 3001):
            want = 1
            for p, e in factorize(n):
                want *= f_at_prime(p) ** e
            assert vals[n] == want, (f.name, n)


def test_values_up_to_liouville_chi_pointwise():
    D = FundamentalDiscriminant(-4)
    vals = values_up_to(mf_liouville_times_chi(D), 500)
    lam = liouville_table(500)

    for n in range(1, 501):
        assert vals[n] == int(lam[n]) * chi_eval(D, n), n


def test_theta_and_s_points():
    theta, s = theta_and_s(mf_one(), 10**4)
    assert abs(theta - 1.0) < 1e-12 and s == 0.0
    theta, s = theta_and_s(mf_liouville(), 10)
    # per prime p <= 10 the local factor is (1 - 1/p)/(1 + 1/p)
    want = (1 / 3) * (1 / 2) * (2 / 3) * (3 / 4)
    assert abs(theta - want) < 1e-12
    assert abs(s - 2 * (1 / 2 + 1 / 3 + 1 / 5 + 1 / 7)) < 1e-12


def test_theta_of_flip_cutoff_equals_euler_ratio():
    # the flip construction's local factors below q are exactly P(q)'s
    for d in (-4, -3, 5, -8, 12):
        D = FundamentalDiscriminant(d)
        theta, _ = theta_and_s(mf_char_flip_cutoff(D), 4 * D.q)
        assert abs(theta - euler_p_ratio(D)) < 1e-12, d


def f_at_primes(f, x):
    """(p, f(p)) over the primes p <= x as Python numbers, in ascending order."""
    ps = primes_upto(x)
    return zip(ps.tolist(), f.values(ps).tolist())


def loop_values_up_to(f, x):
    """values_up_to as a loop over all primes p <= x: the reference.

    One slice multiplication per prime power, primes in ascending order,
    f(p) = 1 skipped.
    """
    vals = np.ones(x + 1, dtype=np.float64)
    vals[0] = 0.0
    for p, v in f_at_primes(f, x):
        if v == 1.0:
            continue
        pk = p
        while pk <= x:
            vals[pk::pk] *= v
            pk *= p
    return vals


def loop_theta_and_s(f, x):
    """theta_and_s as a loop over the primes p <= x: the reference."""
    if x < 2:
        return 1.0, 0.0
    log_theta = 0.0
    s = 0.0
    for p, fp in f_at_primes(f, math.floor(x)):
        s += abs(1.0 - fp) / p
        local = 1.0 / (1.0 - fp / p)
        log_theta += math.log1p(-1.0 / p) + math.log(local)
    return math.exp(log_theta), s


def reference_functions():
    D4, D5 = FundamentalDiscriminant(-4), FundamentalDiscriminant(5)
    # 0.5 and -0.75 multiply exactly; 1 - 1/p with a sign rounds, so the
    # order in which the factors of n are multiplied shows in the last bits
    halves = MultiplicativeFunc("halves", lambda ps: np.where(ps % 4 == 1, 0.5, -0.75))
    damped = MultiplicativeFunc(
        "damped", lambda ps: (1.0 - 1.0 / ps) * np.where(ps % 3 == 1, 1.0, -1.0)
    )
    return [
        mf_one(),
        mf_liouville(),
        mf_liouville_times_chi(D4),
        mf_liouville_times_chi(D5),
        mf_char_flip_cutoff(D4),
        mf_char_flip_cutoff(FundamentalDiscriminant(-163)),
        _smoothed(mf_liouville(), 1e5**0.2),
        _smoothed(mf_char_flip_cutoff(D4), 4.0),
        _smoothed(damped, 31.6),
        halves,
        damped,
    ]


# sqrt(x) a prime at 4, 9 and 1009^2; x a perfect square at 1, 4, 9, 10^4
REFERENCE_XS = [1, 2, 3, 4, 9, 10**4, 1009**2]


@pytest.mark.parametrize("x", REFERENCE_XS)
def test_values_up_to_equals_prime_loop(x):
    for f in reference_functions():
        got, want = values_up_to(f, x), loop_values_up_to(f, x)
        assert got.tobytes() == want.tobytes(), (f.name, x)


@pytest.mark.parametrize("x", REFERENCE_XS)
def test_theta_and_s_equals_prime_loop(x):
    for f in reference_functions():
        assert theta_and_s(f, x) == loop_theta_and_s(f, x), (f.name, x)


def test_multiplicative_values_are_array_valued():
    D = FundamentalDiscriminant(-4)
    ps = primes_upto(50)
    f = mf_liouville_times_chi(D)
    v = f.values(ps)
    assert v.dtype == np.float64 and v.shape == ps.shape
    assert v.tolist() == [f.at(p) for p in ps.tolist()]
    assert v.tolist() == [-float(chi_eval(D, p)) for p in ps.tolist()]
    assert mf_one().values(ps).tolist() == [1.0] * ps.size
    bad = MultiplicativeFunc("over-at-7", lambda ps: np.where(ps == 7, -1.25, 0.5))
    assert bad.at(5) == 0.5
    with pytest.raises(ContractError, match=r"\|f\(7\)\| = 1.25"):
        bad.values(ps)
    with pytest.raises(ContractError):
        values_up_to(bad, 10)


def test_estimate_fields():
    est = l_one(FundamentalDiscriminant(-4), 10**5)
    assert est.truncation == 10**5
    assert est.bound > 0
    ref = class_number_oracle(FundamentalDiscriminant(-4))
    assert ref.bound == 0.0 and math.isinf(ref.truncation)


# ------------------------------------------------------ chi-weighted sums


def literal_sums(D, x):
    """(L(1), L'(1), tau/n) partial sums as literal length-x numpy formulas.

    The kernel's results must equal these expressions bit for bit, not
    merely approximately.
    """
    ch = chi_values_up_to(D, x)[1:].astype(np.float64)
    ns = np.arange(1, x + 1, dtype=np.float64)
    inv = 1.0 / ns
    h = np.zeros(x + 1, dtype=np.float64)
    np.cumsum(inv, out=h[1:])
    floors = x // np.arange(1, x + 1, dtype=np.int64)
    return (
        float(np.sum(ch * inv)),
        -float(np.sum(ch * (np.log(ns) / ns))),
        float(np.sum(ch * inv * h[floors])),
    )


def inv_n(x):
    """1/n for n <= x as float64, each entry rounded once."""
    return 1.0 / np.arange(1, x + 1)


def log_over_n(x):
    """log(n)/n for n <= x as float64, the literal expression."""
    ns = np.arange(1, x + 1, dtype=np.float64)
    return np.log(ns) / ns


def kernel_sums(D, x):
    # L(1) and L'(1) from the length-x kernel itself over local weights:
    # l_one and l_one_prime_direct take complete periods at every x
    return (
        lseries._chi_weighted_sum(D, inv_n(x)),
        -lseries._chi_weighted_sum(D, log_over_n(x)),
        tau_over_n_sum(D, x),
    )


def assert_kernel_sums_and_direct_l_prime(D, x):
    """The kernel equals the literal sums bit for bit, and l_one_prime_direct
    is within its stated rounding bound of the literal L'(1) sum."""
    want = literal_sums(D, x)
    assert kernel_sums(D, x) == want, (D.d, x)
    got = l_one_prime_direct(D, x).value
    assert abs(got - want[1]) <= l_prime_rounding_bound(D, x), (D.d, x, got, want[1])


FUNDAMENTALS_TO_5000 = [D.d for D in enumerate_fundamentals(-5000, 5000)]


@st.composite
def d_and_x(draw):
    d = draw(st.sampled_from(FUNDAMENTALS_TO_5000))
    return d, draw(st.integers(abs(d), 30000))


@settings(max_examples=60, deadline=None)
@given(d_and_x())
def test_kernel_sums_equal_literal_formulas(case):
    d, x = case
    assert_kernel_sums_and_direct_l_prime(FundamentalDiscriminant(d), x)


def edge_truncations(q):
    """x = q, 7q and the leaf edges of the kernel's pairwise walk (x >= q).

    _LEAF - 1 and _LEAF are one leaf and _LEAF + 1 is two.  At _LEAF + 18
    and 2 _LEAF + 18, n // 2 is not a multiple of 8, so the split is rounded
    down to one.
    """
    L = lseries._LEAF
    return sorted(x for x in {q, 7 * q, L - 1, L, L + 1, L + 18, 2 * L + 18} if x >= q)


@pytest.mark.parametrize("d", [-3, -4, 5, 8, -8])
def test_kernel_sums_block_edges(d):
    # the blocks are the leaves of the kernel's walk, one np.sum call each
    D = FundamentalDiscriminant(d)
    for x in edge_truncations(D.q):
        assert_kernel_sums_and_direct_l_prime(D, x)


def test_kernel_sums_modulus_above_block():
    # q > _LEAF: every leaf reads chi at an offset inside the first period
    L = lseries._LEAF
    Ds = list(enumerate_fundamentals(-L - 40, -L - 1))[-2:]
    Ds += list(enumerate_fundamentals(L + 1, L + 40))[:2]
    assert len(Ds) == 4
    for D in Ds:
        assert D.q > L
        for x in edge_truncations(D.q) + [D.q + 1, 2 * D.q + 18, 3 * D.q - 1]:
            assert_kernel_sums_and_direct_l_prime(D, x)


def test_kernel_equals_np_sum_at_large_x():
    # many levels of the pairwise tree above the leaves, small and large q
    near_1e6 = list(enumerate_fundamentals(10**6 - 60, 10**6))[-1]
    Ds = [FundamentalDiscriminant(d) for d in (-3, -4, 5, 8, -200003)] + [near_1e6]
    try:
        for x in (10**6, 10**7):
            weights = [inv_n(x), log_over_n(x)]
            if x == 10**6:
                weights.append(lseries._tau_weights(x))
            for D in Ds:
                ch = chi_values_up_to(D, x)[1:].astype(np.float64)
                for w in weights:
                    assert lseries._chi_weighted_sum(D, w) == float(np.sum(ch * w)), (D.d, x)
            del weights, ch
    finally:
        _ARRAYS.clear()


def record_leaves(monkeypatch):
    """Wrap both leaf kernels; each call appends (kernel name, buffer offset mod 64)."""
    seen = []
    for name in ("_block_leaf", "_period_leaf"):
        kernel = getattr(lseries, name)

        def recording(*args, _kernel=kernel, _name=name):
            seen.append((_name, args[2].ctypes.data % 64))  # (w, chi, buf, ...)
            return _kernel(*args)

        monkeypatch.setattr(lseries, name, recording)
    return seen


def switch_discriminants(x):
    """The fundamental d of both signs nearest the block switch at x, on each side."""
    top = x // lseries._BLOCK_REUSE - lseries._LEAF  # the largest q on the block path
    below = [d for d in range(top - 60, top + 1) if characters.is_fundamental(d)][-1:]
    below += [d for d in range(-top, -top + 60) if characters.is_fundamental(d)][:1]
    above = [d for d in range(top + 1, top + 60) if characters.is_fundamental(d)][:1]
    above += [d for d in range(-top - 60, -top) if characters.is_fundamental(d)][-1:]
    return below, above


def test_tau_sum_equals_np_sum_on_both_chi_paths(monkeypatch):
    # the float64 chi block (x >= _BLOCK_REUSE (q + _LEAF)) and the per-leaf
    # copy from the int8 period give the literal np.sum(chi * w) bit for bit
    seen = record_leaves(monkeypatch)
    below, above = switch_discriminants(10**6)
    cases = [(d, 10**6, "_block_leaf") for d in below]
    cases += [(d, 10**6, "_period_leaf") for d in above + [-999995, 999997]]
    cases += [(d, 250_000, "_period_leaf") for d in (-200003, 200009)]
    # x = q, with q up to past _LEAF; x = 1000 < _LEAF, where at q = 3 the one
    # leaf repeats the period 333 times; and x on both sides of the switch at q = 3
    for d in (-3, 5, -4, -163, 293, -32771, 32773):
        cases.append((d, abs(d), "_period_leaf"))
    cases += [(d, 1000, "_period_leaf") for d in (-3, 5, -4, 8, -299, 293)]
    cases += [(-3, lseries._BLOCK_REUSE * (3 + lseries._LEAF), "_block_leaf")]
    cases += [(-3, lseries._BLOCK_REUSE * (3 + lseries._LEAF) - 1, "_period_leaf")]
    try:
        for d, x, path in cases:
            D = FundamentalDiscriminant(d)
            assert D.q <= x
            w = lseries._tau_weights(x)
            want = float(np.sum(chi_values_up_to(D, x)[1:].astype(np.float64) * w))
            seen.clear()
            assert tau_over_n_sum(D, x) == want, (d, x)
            assert {name for name, _ in seen} == {path}, (d, x)
    finally:
        _ARRAYS.clear()


def test_tau_sum_at_q_near_one_million_holds_no_chi_block():
    # the float64 chi block of 2^15 + q terms (8 MB here) is not built below
    # the switch; the one leaf buffer of 2^15 floats (256 KiB) is the transient
    x = 10**6
    lseries._tau_weights(x)
    try:
        for d in (-999995, 999997):
            D = FundamentalDiscriminant(d)
            chi_period(D)
            tracemalloc.start()
            try:
                tau_over_n_sum(D, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, (d, peak)
    finally:
        _ARRAYS.clear()


@pytest.mark.parametrize("d", [-3, 5, -299, 293])
def test_kernel_makes_no_length_x_array(d):
    D = FundamentalDiscriminant(d)
    x = 2**22
    w = np.arange(1, x + 1, dtype=np.float64)
    chi_period(D)
    tracemalloc.start()
    try:
        lseries._chi_weighted_sum(D, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_kernel_leaves_no_reference_cycle():
    # a weight array must die with its last reference, not at the next
    # cyclic collection (a recursive closure would keep it in a cycle)
    D = FundamentalDiscriminant(-4)
    w = np.arange(1, 3 * lseries._LEAF + 1, dtype=np.float64)
    ref = weakref.ref(w)
    enabled = gc.isenabled()
    gc.disable()
    try:
        lseries._chi_weighted_sum(D, w)
        del w
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_direct_sums_memoised_by_floor_of_x():
    D = FundamentalDiscriminant(-23)
    x = 200.0  # below _TAYLOR_K q: the periods are summed literally
    assert x < lseries._TAYLOR_K * D.q
    a = l_one(D, x)
    b = l_one(D, x + 0.5)
    assert a.value == b.value
    assert (a.truncation, b.truncation) == (x, x + 0.5)
    assert a.bound == math.sqrt(23) * math.log(23) / x
    assert b.bound == math.sqrt(23) * math.log(23) / (x + 0.5)
    c = l_one_prime_direct(D, 1e4)
    e = l_one_prime_direct(D, 1e4 + 0.5)
    assert c.value == e.value
    assert (c.truncation, e.truncation) == (1e4, 1e4 + 0.5)
    assert c.bound != e.bound


def test_tau_over_n_sum_capacity_guard(monkeypatch):
    # raised before any weight array is built
    def no_weights(x):
        raise AssertionError("tau weights were built")

    monkeypatch.setattr(lseries, "_tau_weights", no_weights)
    D = FundamentalDiscriminant(-4)
    with pytest.raises(CapacityError):
        tau_over_n_sum(D, DEFAULT_MAX_WIDTH + 1)
    with pytest.raises(CapacityError):
        l_one_prime_tau(D, 1e9)
    # the message names x in a few characters; str() refuses past 4300 digits
    with pytest.raises(CapacityError, match=r"length 10\^5000\.00 exceeds"):
        tau_over_n_sum(D, 10**5000)


# ------------------------------------------------ the complete-period route

EPS = 2.0**-52

# The truncation error allowed to truncated_sum_reference's Taylor tail:
# below a thousandth of the smallest rounding bound of the route.
REF_TAIL = 1e-18


@functools.lru_cache(maxsize=None)
def l_one_reference(d):
    """L(1, chi_d) to 30 digits, by the closed forms.

    Odd chi: -pi S / q^(3/2) with S = sum_{r<q} r chi(r) an exact integer.
    Even chi: -(2/sqrt(q)) sum_{r<q/2} chi(r) log sin(pi r/q), with
    sin(pi r/q) run by s_{r+1} = 2 cos(pi/q) s_r - s_{r-1} in Python ints
    scaled by 2^F.  Each step adds at most 2 units of 2^-F to an error that
    the recurrence carries forward with a gain of at most 1/sin(pi/q) <= q/2,
    so s_r is within r q units of sin(pi r/q) >= 2r/q: a relative error
    below q^2 2^-F, and the sum of the q/2 logs is within q^3 2^-F, under
    1e-38 for q < 2^21.  The products of the s_r with chi(r) = 1 and with
    chi(r) = -1 are cut back to F bits after every 4 factors, and mpmath
    takes one log of each.
    """
    D = FundamentalDiscriminant(d)
    q = D.q
    per = chi_period(D)
    if d < 0:
        S = int(np.sum(np.arange(q, dtype=np.int64) * per))
        with mpmath.workdps(30):
            return -mpmath.pi * S / mpmath.mpf(q) ** 1.5
    F = 192
    with mpmath.workdps(100):
        c = int(mpmath.floor(2 * mpmath.cos(mpmath.pi / q) * 2**F))
        cur = int(mpmath.floor(mpmath.sin(mpmath.pi / q) * 2**F))
    prev, sines = 0, []
    for _ in range((q - 1) // 2):
        sines.append(cur)
        prev, cur = cur, ((c * cur) >> F) - prev
    chi = per[1 : (q + 1) // 2]
    with mpmath.workdps(40):
        s = mpmath.mpf(0)
        for sign in (1, -1):
            vals = list(compress(sines, (chi == sign).tolist()))
            mant, exp = 1, 0
            for lo in range(0, len(vals), 4):
                mant *= math.prod(vals[lo : lo + 4])
                exp -= F * len(vals[lo : lo + 4])
                extra = max(mant.bit_length() - F, 0)
                mant >>= extra
                exp += extra
            s += sign * (mpmath.log(mant) + exp * mpmath.log(2))
        return +(-2 * s / mpmath.sqrt(q))


# zeta_reference takes K below this from prefix sums shared by every K
ZETA_PREFIX_K = 2**12


@functools.lru_cache(maxsize=None)
def zeta_prefix(s):
    """[zeta(s, K) for K = 1 .. ZETA_PREFIX_K], as zeta(s) minus n^-s for n < K.

    The s log10(ZETA_PREFIX_K) leading digits cancel, and each of the K
    subtractions rounds once, adding log10(K) more: the working precision
    covers both and keeps 30 digits of zeta(s, K) > K^(1-s)/(s-1).
    """
    with mpmath.workdps(30 + int((s + 1) * math.log10(ZETA_PREFIX_K)) + 4):
        z = [mpmath.zeta(s)]
        for n in range(1, ZETA_PREFIX_K):
            z.append(z[-1] - mpmath.mpf(n) ** -s)
        return z


@functools.lru_cache(maxsize=None)
def zeta_reference(s, K):
    """zeta(s, K) to 30 digits for an integer K >= 1.

    Below ZETA_PREFIX_K from zeta_prefix.  Above, mpmath.zeta(s, K) works
    with s log10(K) more digits, which its cancellation may take.
    """
    if K <= ZETA_PREFIX_K:
        with mpmath.workdps(30):
            return +zeta_prefix(s)[K - 1]
    with mpmath.workdps(30 + int(s * math.log10(K)) + 1):
        return mpmath.zeta(s, K)


def signed_power_sums(per, J):
    """[sum_{r<q} chi(r) r^j for j = 1..J], exactly.

    In int64 while q^(j+1) < 2^63 bounds every term and sum, in Python ints
    beyond.
    """
    q = per.size
    r = np.flatnonzero(per)
    chi = per[r].astype(np.int64)
    sums = []
    for j in range(1, J + 1):
        if q ** (j + 1) < 2**63:
            sums.append(int(np.sum(chi * r**j)))
        else:
            pos, neg = r[chi > 0].tolist(), r[chi < 0].tolist()
            sums.append(sum(map(pow, pos, repeat(j))) - sum(map(pow, neg, repeat(j))))
    return sums


def truncated_sum_reference(D, x):
    """(ref, err): sum_{n<=x} chi(n)/n is within err of the mpmath value ref.

    For x = K q + R with K >= 10: l_one_reference, plus the Taylor tail
    (1/q) sum_{j<=J} (-1)^(j+1) zeta(j+1, K) m_j from exact integer moments
    m_j q^j and mpmath.zeta, with J large enough that the terms left out add
    up to at most REF_TAIL; plus the literal block sum_{r<=R} chi(r)/(Kq+r)
    by literal_fsum, within 2^-51 R/(Kq).  Below K = 10 the whole sum is
    one literal block, within 2^-52 (log x + 2).
    """
    q = D.q
    per = chi_period(D)
    K, R = divmod(x, q)
    if K < 10:
        return literal_fsum(per, q, 0, x), EPS * (math.log(x) + 2)
    J = 1
    while (J + 1) * math.log(K) + math.log(J + 1) < -math.log(REF_TAIL):
        J += 1
    M = signed_power_sums(per, J)
    with mpmath.workdps(30):
        tail = mpmath.fsum(
            (-1) ** (j + 1) * zeta_reference(j + 1, K) * M[j - 1] / mpmath.mpf(q) ** (j + 1)
            for j in range(1, J + 1)
        )
        ref = l_one_reference(D.d) + tail + literal_fsum(per, q, K * q, R)
    return ref, REF_TAIL + 2 * EPS * R / (K * q)


def literal_fsum(per, q, start, n):
    """math.fsum of chi(start + r)/(start + r) over 0 < r <= n, start a multiple of q.

    Each term is rounded once, and twice when start > 2^53.
    """
    chunks = (np.arange(lo, min(lo + 2**20, n + 1)) for lo in range(1, n + 1, 2**20))
    terms = ((per[r % q] / (float(start) + r)).tolist() for r in chunks)
    return math.fsum(chain.from_iterable(terms))


def rounding_bound(D, x):
    """The rounding bound that _chi_over_n_by_periods states for its value."""
    q = D.q
    if x // q < lseries._TAYLOR_K:
        return 17 * EPS * (math.log(x) + 2)
    if D.d < 0:
        return 4 * EPS * (math.log(q) + 4)
    return 4 * EPS * (8 * math.sqrt(q) + math.log(q) + 4)


def assert_period_route_within_rounding(D, x, value=None):
    got = lseries._chi_over_n_by_periods(D, x) if value is None else value
    ref, ref_err = truncated_sum_reference(D, x)
    assert abs(got - ref) <= rounding_bound(D, x) + ref_err, (D.d, x, got, ref)


def test_period_route_equals_reference_small_q():
    # within the stated rounding bound of the 30-digit value, not bit for bit.
    # x = q^2 has K = q, where J is largest; x = 7q + r sums 7 periods
    # literally with an empty tail (r = 0), one term and q - 1 terms.
    for D in enumerate_fundamentals(-2000, 2000):
        q = D.q
        for x in (q * q, 10**12, 7 * q, 7 * q + 1, 8 * q - 1):
            assert_period_route_within_rounding(D, x)


def test_period_route_equals_reference_large_q():
    window = fundamentals_with_q_in(200001, 200030)
    for D in window:
        assert_period_route_within_rounding(D, 250000**2)
    near_1e6 = []
    for c in (-(10**6), 10**6):
        near_1e6 += list(enumerate_fundamentals(c - 60, c - 1))[-5:]
        near_1e6 += list(enumerate_fundamentals(c + 1, c + 60))[:5]
    assert len(near_1e6) == 20
    for D in near_1e6:
        assert_period_route_within_rounding(D, 4 * 10**12)


def test_l_one_takes_the_period_route_above_the_direct_limit():
    # l_one goes by periods at any q, past the 2e7 that l_one_prime_direct
    # once refused.  For big, q > x/10: fewer than 10 periods fit, and they
    # are summed literally.
    x = 2 * 10**7 + 1
    big = list(enumerate_fundamentals(-2_000_100, -2_000_001))[-1]
    assert x < lseries._TAYLOR_K * big.q
    for D in (FundamentalDiscriminant(-999983), big):
        value = l_one(D, x).value
        assert value == lseries._chi_over_n_by_periods(D, x)
        assert_period_route_within_rounding(D, x, value)
    assert x // big.q == 9


def test_l_one_builds_no_length_x_array():
    # x = K q + q/3 with one, nine (literal periods) and fourteen (Taylor
    # tail) periods: l_one holds its O(q) chunk buffers (640 KiB), never a
    # length-x array such as 1/n (2.0, 7.1 and 77 MiB here)
    for K, near in ((1, -200_000), (9, 100_000), (14, -700_000)):
        D = list(enumerate_fundamentals(near - 100, near - 1))[-1]
        x = K * D.q + D.q // 3
        _ARRAYS.clear()
        chi_period(D)
        tracemalloc.start()
        try:
            value = l_one(D, x).value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            _ARRAYS.clear()
        assert peak < 2**20, (K, peak)
        assert value == lseries._chi_over_n_by_periods(D, x)


ROUTE_DS = [-3, -4, 5, 8, -8, -23, 293, -299, -1007, 4001]


@pytest.mark.parametrize("d", ROUTE_DS)
def test_l_one_route_switches_at_k0_periods(d):
    # complete periods on both sides of x = _TAYLOR_K q (literal periods one
    # below, the Taylor tail from there on), within the rounding bound of the
    # 30-digit value.  Each tail length R = x mod q is covered: 0, 1, q - 1.
    D = FundamentalDiscriminant(d)
    q = D.q
    x0 = lseries._TAYLOR_K * q
    for x in (x0 - 1, x0, x0 + 1, x0 + q - 1, 10**6):
        value = l_one(D, x).value
        assert value == lseries._chi_over_n_by_periods(D, x), x
        assert_period_route_within_rounding(D, x, value)


@pytest.mark.parametrize("d", ROUTE_DS)
def test_period_route_near_ten_periods(d):
    # the Taylor route from K = 10 on, where its J is largest, and the
    # literal periods below; x = q^2 has K = q
    q = FundamentalDiscriminant(d).q
    for x in (7 * q, 7 * q + 1, 10 * q - 1, 10 * q, 10 * q + 1, 11 * q - 1, q * q):
        assert_period_route_within_rounding(FundamentalDiscriminant(d), x)


def test_period_route_at_huge_x():
    # x = 1e300: zeta(s, K) underflows to 0 past s = 2, J = 1, and no numpy
    # operation may overflow, underflow or divide by zero
    x = math.floor(1e300)
    for d in (-3, -4, 5, 8, -299, 293, -200003, 200009):
        D = FundamentalDiscriminant(d)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            value = l_one(D, 1e300).value
        assert_period_route_within_rounding(D, x, value)


def test_period_route_chunks_stay_within_rounding(monkeypatch):
    # chunks of 1 and 7 residues, at both parities and across q/2
    for chunk in (1, 7):
        monkeypatch.setattr(lseries, "_PERIOD_CHUNK", chunk)
        for d in (-299, 293, -1007, 4001):
            D = FundamentalDiscriminant(d)
            for x in (10 * D.q + 5, 10**9):
                assert_period_route_within_rounding(D, x)
    # L'(1) over many chunks too: literal periods only, the last period
    # cut, and the Taylor tail; every x <= LITERAL_REF_MAX, so the reference
    # is the literal 30-digit sum
    refs = {}
    for chunk in (1, 7):
        monkeypatch.setattr(lseries, "_PERIOD_CHUNK", chunk)
        for d in (-299, 293, -1007, 1009):
            D = FundamentalDiscriminant(d)
            q = D.q
            for x in (3 * q + 2, 10 * q + 5, 12 * q + 3):
                assert x <= LITERAL_REF_MAX
                if (d, x) not in refs:
                    refs[d, x] = -l_prime_sum_reference(D, x)
                got = l_one_prime_direct(D, x).value
                assert abs(got - refs[d, x]) <= l_prime_rounding_bound(D, x), (chunk, d, x)


def test_period_route_makes_no_length_q_array():
    D = list(enumerate_fundamentals(-10**6, -999_900))[-1]
    chi_period(D)
    tracemalloc.start()
    try:
        lseries._chi_over_n_by_periods(D, 4 * 10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_even_closed_form_equals_theta_series():
    # l_one_reference's log sin form against a route that shares nothing with
    # it: L(1) = sum_n chi(n) [erfc(n sqrt(pi/q))/n + E1(pi n^2/q)/sqrt(q)]
    # for even chi, cut where exp(-pi n^2/q) < 1e-32
    for d in (5, 8, 12, 13, 1009, 4001):
        D = FundamentalDiscriminant(d)
        q, per = D.q, chi_period(D)
        with mpmath.workdps(30):
            c, root_q = mpmath.sqrt(mpmath.pi / q), mpmath.sqrt(q)
            theta = mpmath.fsum(
                int(per[n % q]) * (mpmath.erfc(n * c) / n + mpmath.e1(c * c * n * n) / root_q)
                for n in range(1, math.isqrt(24 * q) + 2)
                if per[n % q]
            )
            assert abs(theta - l_one_reference(d)) < mpmath.mpf(10) ** -28, d


def test_odd_integer_sum_equals_the_form_count():
    # h(d) = -(1/q) sum_{r<q} r chi(r) for d < -4, exactly
    for D in enumerate_fundamentals(-10**4, -5):
        q = D.q
        S = int(np.sum(np.arange(q, dtype=np.int64) * chi_period(D)))
        assert S % q == 0 and lseries._form_count(D.d) == -S // q, D.d


# d = -3 and -4 (w = 6 and 4), and fundamental d near the oracle's limit
# |d| <= 1e6, where the pass over (a, b) runs in three blocks: d = 1 (mod 4),
# d = -4m (d/4 = 3 mod 4) and d = -8m
FORM_COUNT_SAMPLE = [-3, -4, -999995, -999991, -999959, -999988, -999924, -999976, -999928]


@pytest.mark.parametrize("d", FORM_COUNT_SAMPLE)
def test_form_count_equals_the_odd_integer_sum_near_the_limit(d):
    # h(d) = -(w/2)(1/q) sum_{r<q} r chi(r), exactly
    D = FundamentalDiscriminant(d)
    w = 6 if d == -3 else 4 if d == -4 else 2
    S = int(np.sum(np.arange(D.q, dtype=np.int64) * chi_period(D)))
    assert 2 * D.q * lseries._form_count(d) == -w * S


def form_pairs(d):
    """The pairs (a, b) with a <= sqrt(|d|/3), 0 <= b <= a and b = d (mod 2)."""
    return sum((a - d % 2) // 2 + 1 for a in range(1, math.isqrt(-d // 3) + 1))


# The fundamental d of each parity on either side of the pair count _LEAF:
# the largest |d| whose pairs fit one block, and the smallest that needs two
@pytest.mark.parametrize(
    "d, pairs",
    [(-390952, 32760), (-390964, 32941), (-393131, 32761), (-393135, 32942)],
)
def test_form_count_on_either_side_of_a_block(d, pairs):
    assert form_pairs(d) == pairs and abs(pairs - lseries._LEAF) < 200
    assert lseries._form_count(d) == brute_force_h(d), d


def test_form_count_holds_blocks_of_at_most_leaf_pairs():
    # about 83000 pairs at q near 1e6; a pass over all of them at once
    # would hold about 2.6 MiB of int64 scratch arrays
    d = -999995
    assert form_pairs(d) > 2 * lseries._LEAF
    tracemalloc.start()
    try:
        h = lseries._form_count(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h == 480
    assert peak < 6 * 8 * lseries._LEAF, peak / 2**20


@pytest.mark.parametrize("K", [10, 11, 32, 1000, 312496, 10**12, 10**300])
def test_tail_order_is_the_least_that_meets_its_bound(K):
    J = lseries._tail_order(K)
    bound = lambda j: mpmath.mpf(K) ** -(j + 1) / (j + 1)
    assert bound(J) <= mpmath.mpf(2) ** -60
    assert J == 1 or bound(J - 1) > mpmath.mpf(2) ** -60
    if K <= 1000:
        # the terms left out, each at most zeta(j+1, K)/(j+1), add up to at
        # most that bound (their sum past j = J + 20 is below 1e-40)
        left = sum(zeta_reference(j + 1, K) / (j + 1) for j in range(J + 1, J + 21))
        assert left <= bound(J)


@pytest.mark.parametrize("K", [10, 11, 32, 1000, 312496, 10**12, 10**150, 10**300])
def test_hurwitz_zeta_within_its_error_term(K):
    # within 4 ulp plus the first Euler-Maclaurin term left out, which is
    # what limits it at large s and small K
    for s in range(2, 22):
        got = lseries._hurwitz_zeta(s, float(K))
        if (s - 1) * math.log10(K) > 310:  # zeta(s, K) < K^(1-s) < 1e-310
            assert got < 1e-300, (s, K)
            continue
        want = zeta_reference(s, K)
        with mpmath.workdps(30):
            left_out = abs(mpmath.bernoulli(22)) / mpmath.factorial(22) * mpmath.rf(s, 21)
            left_out *= mpmath.mpf(K) ** (-s - 21)
        assert abs(got - want) <= 4 * math.ulp(float(want)) + left_out, (s, K)


# ----------------------------------------------- L'(1) by complete periods


@functools.lru_cache(maxsize=None)
def zeta_ds_reference(s, K):
    """d/ds zeta(s, K) to 30 digits for an integer K >= 1.

    Below ZETA_PREFIX_K as zeta'(s) + sum_{n<K} log(n) n^-s, with the
    digits that cancel added to the working precision, as in zeta_prefix.
    Above, mpmath.zeta(s, K, 1) works with s log10(K) more digits.
    """
    if K <= ZETA_PREFIX_K:
        with mpmath.workdps(30 + int((s + 1) * math.log10(K)) + 4):
            terms = (mpmath.log(n) * mpmath.mpf(n) ** -s for n in range(2, K))
            return mpmath.zeta(s, 1, 1) + mpmath.fsum(terms)
    with mpmath.workdps(30 + int(s * math.log10(K)) + 1):
        return mpmath.zeta(s, K, 1)


@pytest.mark.parametrize("K", [10, 11, 32, 1000, 312496, 10**12, 10**150, 10**300])
def test_hurwitz_zeta_ds_within_its_error_term(K):
    # within 4 ulp plus the first Euler-Maclaurin term left out, differentiated
    # in s: that term times log(K) + sum_{i<=20} 1/(s+i)
    for s in range(2, 22):
        got = lseries._hurwitz_zeta_ds(s, float(K))
        if (s - 1) * math.log10(K) > 310:  # |zeta'(s, K)| < log(K) K^(1-s) < 1e-307
            assert abs(got) < 1e-300, (s, K)
            continue
        want = zeta_ds_reference(s, K)
        with mpmath.workdps(30):
            left_out = abs(mpmath.bernoulli(22)) / mpmath.factorial(22) * mpmath.rf(s, 21)
            left_out *= mpmath.mpf(K) ** (-s - 21)
            left_out *= mpmath.log(K) + mpmath.fsum(1 / mpmath.mpf(s + i) for i in range(21))
        assert abs(got - want) <= 4 * math.ulp(float(want)) + left_out, (s, K)


def test_l_prime_tail_order_meets_its_bound():
    # term j of the tail is at most T^-j [(log(qT) + H_j)(1/T + 1/j) + 1/j^2]
    # /(j+1), as sum_{k>=T} (log(qk) + H_j)/k^(j+1) is at most the bracket;
    # past J = _tail_order(T) + 1 terms these add up to below 2^-60 at the
    # largest q, and past J - 1 they would not
    T = lseries._TAYLOR_K
    J = lseries._tail_order(T) + 1
    q = DEFAULT_MAX_WIDTH
    with mpmath.workdps(30):
        lqT = mpmath.log(q * T)

        def bracket(j):
            return mpmath.mpf(T) ** -j * (
                (lqT + mpmath.harmonic(j)) * (mpmath.mpf(1) / T + mpmath.mpf(1) / j)
                + mpmath.mpf(1) / j**2
            )

        for j in range(1, J + 6):
            lq, H = mpmath.log(q), mpmath.harmonic(j)
            assert (lq + H) * zeta_reference(j + 1, T) - zeta_ds_reference(j + 1, T) <= bracket(j)

        def left(J):
            return mpmath.fsum(bracket(j) / (j + 1) for j in range(J + 1, J + 40))

        assert left(J) <= mpmath.mpf(2) ** -60 < left(J - 1)


@functools.lru_cache(maxsize=None)
def lerch_l_prime(d):
    """L'(1, chi_d) to 30 digits for d < 0, by Lerch's formula.

    L'(1)/L(1) = log(2 pi/q) + gamma - L'(0)/L(0), with
    L(0) = -(1/q) sum_{r<q} r chi(r) and
    L'(0) = sum_{r<q} chi(r) log Gamma(r/q) - log(q) L(0)
    (the functional equation of odd chi; Washington, Cyclotomic Fields, 4.9).
    """
    D = FundamentalDiscriminant(d)
    q, per = D.q, chi_period(D)
    rs = np.flatnonzero(per).tolist()
    with mpmath.workdps(30):
        l0 = -mpmath.fsum(r * int(per[r]) for r in rs) / q
        dl0 = mpmath.fsum(int(per[r]) * mpmath.loggamma(mpmath.mpf(r) / q) for r in rs)
        dl0 -= mpmath.log(q) * l0
        return l_one_reference(d) * (mpmath.log(2 * mpmath.pi / q) + mpmath.euler - dl0 / l0)


# l_prime_sum_reference sums at most this many terms one by one
LITERAL_REF_MAX = 20000


def l_prime_sum_reference(D, x):
    """sum_{n<=x} chi(n) log(n)/n to 30 digits, by a route of its own.

    Up to LITERAL_REF_MAX every term is summed.  Above, with x = K q + R and
    t = r/q, the first K periods are (1/q) sum_r chi(r) [log q (psi(K + t)
    - psi(t)) + gamma_1(t) - gamma_1(K + t)], as gamma_1(t) - gamma_1(K + t)
    = sum_{k<K} log(k + t)/(k + t) for the generalized Stieltjes constant
    gamma_1 (mpmath.stieltjes, tens of ms each, so only small q), and the
    R terms after K q are summed one by one.
    """
    q, per = D.q, chi_period(D)
    K, R = divmod(x, q)

    def literal(start, n):
        return mpmath.fsum(
            int(per[r % q]) * mpmath.log(start + r) / (start + r)
            for r in range(1, n + 1)
            if per[r % q]
        )

    with mpmath.workdps(30):
        if x <= LITERAL_REF_MAX:
            return literal(0, x)
        lq, periods = mpmath.log(q), []
        for r in np.flatnonzero(per).tolist():
            t = mpmath.mpf(r) / q
            psi = mpmath.digamma(K + t) - mpmath.digamma(t)
            gamma1 = mpmath.stieltjes(1, t) - mpmath.stieltjes(1, K + t)
            periods.append(int(per[r]) * (lq * psi + gamma1))
        return mpmath.fsum(periods) / q + literal(K * q, R)


def l_prime_rounding_bound(D, x):
    """The rounding bound that _chi_log_n_over_n_by_periods states for its value."""
    ly = math.log(min(x, lseries._TAYLOR_K * D.q))
    return 17 * EPS * (ly * ly / 2 + ly + 2)


@pytest.mark.parametrize("d", [-3, -4, -7, 5, 8, -1007, 1009])
def test_l_prime_period_route_equals_reference(d):
    # within the stated rounding bound of the 30-digit value, both parities:
    # K = 1, 7, 9 and 10 periods summed literally, then the Taylor tail from
    # K = 11 on, and for small q x = 1e7 and 1e12 against the Stieltjes form
    D = FundamentalDiscriminant(d)
    q = D.q
    xs = [q, 7 * q + 1, 10 * q - 1, 10 * q, 10 * q + 1, 11 * q + 2, 15 * q]
    if q < 10:
        xs += [10**7, 10**12]
    for x in xs:
        got = l_one_prime_direct(D, x).value
        ref = -l_prime_sum_reference(D, x)
        assert abs(got - ref) <= l_prime_rounding_bound(D, x), (d, x, got, ref)


def test_l_prime_textbook_value_at_1e12():
    # L'(1, chi_-4) = (pi/4)(gamma + 2 log 2 + 3 log pi - 4 log Gamma(1/4)),
    # and Lerch's formula gives the same 30 digits
    D = FundamentalDiscriminant(-4)
    with mpmath.workdps(30):
        pi = mpmath.pi
        want = pi / 4 * (mpmath.euler + 2 * mpmath.log(2) + 3 * mpmath.log(pi)
                         - 4 * mpmath.loggamma(mpmath.mpf(1) / 4))
        assert abs(lerch_l_prime(-4) - want) < mpmath.mpf(10) ** -28
    est = l_one_prime_direct(D, 1e12)
    assert abs(est.value - want) <= est.bound + l_prime_rounding_bound(D, 1e12)


def test_l_prime_builds_no_length_x_array():
    # the O(x) sum built log(n)/n at x = 1e7 (76 MiB); the period route holds
    # its O(q) chunk buffers only (640 KiB at q >= 2^14), at any x and over
    # the 61 chunks of q = 999995
    for d in (-4, 5, -200003, -999995):
        D = FundamentalDiscriminant(d)
        chi_period(D)
        for x in (10**7, 10**9):
            tracemalloc.start()
            try:
                l_one_prime_direct(D, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, (d, x, peak)


def test_kernel_scratch_buffers_start_on_a_cache_line(monkeypatch):
    # numpy aligns to 16 bytes only; the kernels run slower off a cache line.
    # Both chi paths take their one buffer from _aligned_rows
    seen = record_leaves(monkeypatch)
    D = FundamentalDiscriminant(-4)
    paths = set()
    for x in (100, 1000, lseries._LEAF, 10**6):
        seen.clear()
        lseries._chi_weighted_sum(D, np.ones(x))
        assert seen and {off for _, off in seen} == {0}, (x, seen)
        paths |= {name for name, _ in seen}
    assert paths == {"_block_leaf", "_period_leaf"}
    # the period passes take their four buffers as rows of one block
    for n in (1, 7, 100, lseries._PERIOD_CHUNK):
        rows = lseries._aligned_rows(4, n)
        assert rows.shape == (4, n), n
        assert all(row.flags.c_contiguous and row.ctypes.data % 64 == 0 for row in rows), n


def test_weight_cache_builds_each_array_once_within_budget():
    # d-major over x = 1e4, 1e5, 1e6 with L(1) and L'(1) at 1e7, as
    # TAU_LOG_GRID runs; per-kind two-entry LRUs built 1/n 20 times here
    cache = _ARRAYS
    cache.clear()
    misses = cache.misses.copy()
    try:
        for d, x in TAU_LOG_GRID:
            D = FundamentalDiscriminant(d)
            tau_over_n_sum(D, math.floor(x))
            assert cache.nbytes <= cache.budget
            l_one(D, 10**7)
            assert cache.nbytes <= cache.budget
            l_one_prime_direct(D, 10**7)
            assert cache.nbytes <= cache.budget
        xs = sorted({math.floor(x) for _, x in TAU_LOG_GRID})
        # L(1) and L'(1) go by complete periods and the tau weights build 1/n
        # in place, so no 1/n or log(n)/n array is among the builds, as the
        # miss count confirms
        built = {("_tau_weights", x) for x in xs}
        built |= {("_period", d) for d, _ in TAU_LOG_GRID}
        assert len({d for d, _ in TAU_LOG_GRID}) == 5
        assert set(cache._held) == built
        assert cache.misses - misses == Counter(kind for kind, _ in built)
        assert cache.nbytes == sum(w.nbytes for w in cache._held.values())
    finally:
        cache.clear()


def test_weight_cache_evicts_by_bytes_and_skips_oversized(monkeypatch):
    def ramp(x):  # a toy builder next to the tau weights
        return np.arange(1, x + 1, dtype=np.float64)

    ramp = _ARRAYS(ramp)
    cache = _ARRAYS
    cache.clear()
    monkeypatch.setattr(cache, "budget", 8 * 1000)
    try:
        misses = cache.misses.copy()
        # larger than the whole budget: returned, not held, so built again
        w = ramp(1001)
        assert np.array_equal(w, np.arange(1, 1002, dtype=np.float64))
        assert cache.nbytes == 0 and not cache._held
        ramp(1001)
        assert cache.misses - misses == Counter({"ramp": 2})
        # exactly the budget is held; the next array pushes out the oldest
        ramp(600)
        lseries._tau_weights(400)
        assert list(cache._held) == [("ramp", 600), ("_tau_weights", 400)]
        ramp(600)  # a hit moves it to the back
        ramp(300)
        assert list(cache._held) == [("ramp", 600), ("ramp", 300)]
        assert cache.nbytes == 8 * 900 <= cache.budget
        assert cache.misses - misses == Counter({"ramp": 4, "_tau_weights": 1})
    finally:
        cache.clear()


def test_one_array_cache_serves_every_builder():
    # chi periods, prime logs, the tau weights, the Liouville table and the
    # rho base share one instance
    builders = [
        characters._period,
        lseries._prime_logs,
        lseries._tau_weights,
        sieve._liouville,
        verify._rho_base,
    ]
    for build in builders:
        assert inspect.getclosurevars(build).nonlocals["self"] is _ARRAYS, build.__name__
    caches = [o for o in gc.get_objects() if isinstance(o, type(_ARRAYS))]
    assert caches == [_ARRAYS]
    assert not hasattr(lseries, "_WeightCache") and not hasattr(lseries, "_WEIGHTS")
    assert not hasattr(lseries, "_inv_n")
    # L'(1) holds no weight array, memo or truncation limit of its own
    for name in ("_log_over_n", "_LOG_CHUNK", "_direct_chi_log_over_n", "_DIRECT_LIMIT"):
        assert not hasattr(lseries, name), name
    assert not hasattr(lseries, "lru_cache")
    assert not hasattr(characters._period, "cache_info")
    assert not hasattr(lseries._prime_logs, "cache_info")
    assert not hasattr(sieve, "_shared") and not hasattr(verify, "_rho_held")
    assert "sign" not in inspect.signature(sieve.divisor_accumulate_into).parameters


def test_no_module_holds_arrays_outside_the_cache():
    # after the Liouville and rho tables were read, no siegelscan module keeps
    # an array (or a container of arrays) in a global of its own
    verify._rho_table(100, 2.5)
    names = [m.name for m in pkgutil.iter_modules(siegelscan.__path__) if m.name != "__main__"]
    for name in names:
        module = importlib.import_module(f"siegelscan.{name}")
        for attr, value in vars(module).items():
            assert not isinstance(value, np.ndarray), (name, attr)
            if isinstance(value, (list, tuple, dict)):
                items = value.values() if isinstance(value, dict) else value
                assert not any(isinstance(v, np.ndarray) for v in items), (
                    name, attr,
                )


def test_weight_arrays_are_read_only():
    x = 1000
    w = lseries._tau_weights(x).copy()
    with pytest.raises(ValueError):
        lseries._tau_weights(x)[0] = 7.0
    with pytest.raises(ValueError):
        lseries._tau_weights(x)[:] *= 2.0
    with pytest.raises(ValueError):
        lseries._tau_weights(x)[-1] = 0.0
    assert np.array_equal(lseries._tau_weights(x), w)


def plain_tau_weights(x):
    ns = np.arange(1, x + 1, dtype=np.float64)
    inv = 1.0 / ns
    h = np.zeros(x + 1, dtype=np.float64)
    np.cumsum(inv, out=h[1:])
    floors = x // np.arange(1, x + 1, dtype=np.int64)
    return inv * h[floors]


_L = lseries._LEAF
# block edges of the one pass; squares and near squares, where
# s = isqrt(x) and the runs of x // n change; small x; 1e6 + 7 and 1e7
_WEIGHT_GRID = sorted(
    {_L - 1, _L, _L + 1, 2 * _L + 1, 4096, 100003, 10**6 + 7, 10**7}
    | set(range(1, 31))
    | {s * s + k for s in (2, 3, 7, 64, 181, 182, 1000) for k in (-1, 0, 1, s)}
)


@pytest.mark.parametrize("x", _WEIGHT_GRID)
def test_weight_arrays_equal_plain_expressions(x):
    # the cached weights are built in blocks; their values must not change
    try:
        assert np.array_equal(lseries._tau_weights(x), plain_tau_weights(x))
    finally:
        _ARRAYS.clear()


@pytest.mark.parametrize("x", [10**6, 10**7])
def test_weight_build_holds_only_its_result(x):
    # the result is the one length-x array: the plain build peaked at four
    _ARRAYS.clear()
    tracemalloc.start()
    try:
        lseries._tau_weights(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _ARRAYS.clear()
    assert peak <= 8 * x + 4 * 2**20, peak
