"""Sieve tables, divisor functionals, and the twisted Chebyshev sum."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint

from siegelscan import (
    CapacityError,
    DomainError,
    FundamentalDiscriminant,
    build_sieve,
    chi_eval,
    chi_values_up_to,
    divisor_lambda_sum,
    enumerate_fundamentals,
    liouville_table,
    primes_upto,
    psi_u,
    rho_u,
    tau_chi,
    tau_chi_table,
)
from siegelscan.primes import _ARRAYS, DEFAULT_MAX_WIDTH
from siegelscan.sieve import SieveTable, divisor_accumulate, prime_powers_upto, shared_sieve


def brute_arith(n):
    """(Omega, lambda, prime-power base) straight from the factorization."""
    fac = factorint(n)
    omega = sum(fac.values())
    base = list(fac)[0] if len(fac) == 1 else 0
    return omega, (-1) ** omega, base


def test_one_prime_sieve():
    # the tracer rebinds layer functions by identity, so these must be one object
    import siegelscan
    from siegelscan import characters, primes, sieve

    assert sieve.primes_upto is primes.primes_upto
    assert siegelscan.primes_upto is primes.primes_upto
    # chi tables are built from the factorization of d, with no sieve
    assert not hasattr(characters, "primes_upto")


def test_size_limits_and_factorize_range():
    from siegelscan import primes, sieve

    assert sieve.DEFAULT_MAX_WIDTH is primes.DEFAULT_MAX_WIDTH
    assert sieve.RANGE_LIMIT is primes.RANGE_LIMIT
    # trial division is refused outside [1, 2^40] instead of running for hours
    assert primes.factorize(1) == []
    assert primes.factorize(primes.RANGE_LIMIT) == [(2, 40)]
    for m in (0, -7, primes.RANGE_LIMIT + 1):
        with pytest.raises(DomainError):
            primes.factorize(m)


def test_primes_upto_frozen():
    assert primes_upto(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_upto(1).size == 0
    assert primes_upto(2).tolist() == [2]


def check_table_against_factorization(t, ns):
    assert t.omega[0] == 0 and t.lambda_sign[0] == 0 and t.pp_base[0] == 0
    assert t.omega[1] == 0 and t.lambda_sign[1] == 1 and t.pp_base[1] == 0
    for n in ns:
        om, lam, base = brute_arith(n)
        assert t.omega[n] == om, n
        assert t.lambda_sign[n] == lam, n
        assert t.pp_base[n] == base, n


def test_table_against_factorization_low_range():
    check_table_against_factorization(build_sieve(500), range(2, 501))


def test_table_against_factorization_high_segment():
    lo = 10**5
    check_table_against_factorization(build_sieve(lo + 300), range(lo, lo + 301))


def test_liouville_first_values():
    lam = liouville_table(8)
    assert lam.tolist() == [0, 1, -1, -1, 1, -1, 1, -1, -1]


def test_von_mangoldt_points():
    t = build_sieve(20)
    assert t.pp_base[8] == 2
    assert t.pp_base[9] == 3
    assert t.pp_base[6] == 0
    assert t.pp_base[7] == 7


@pytest.mark.parametrize(
    "read", [build_sieve, shared_sieve, liouville_table, prime_powers_upto],
    ids=lambda f: f.__name__,
)
def test_build_sieve_domain_and_capacity(read):
    misses = _ARRAYS.misses.copy()
    with pytest.raises(DomainError):
        read(0)
    # the guard fires before any allocation, and names hi, not its bucket 2^27
    with pytest.raises(CapacityError, match=f"length {DEFAULT_MAX_WIDTH + 1} "):
        read(DEFAULT_MAX_WIDTH + 1)
    assert _ARRAYS.misses == misses


def test_shared_prefixes_and_prime_power_reader():
    ref = build_sieve(300)

    def assert_like_ref(t):
        assert t.hi == 300
        for col in ("omega", "lambda_sign", "pp_base"):
            assert np.array_equal(getattr(t, col), getattr(ref, col)), col

    _ARRAYS.clear()  # start from an empty cache, whatever ran before
    misses = _ARRAYS.misses["_sieve_columns"]
    shared_sieve(2000)
    assert_like_ref(shared_sieve(300))
    shared_sieve(5000)
    # one held table: 300 reads the table of 2000, and 5000 replaces it
    held = {key[1] for key in _ARRAYS._held if key[0] == "_sieve_columns"}
    assert held == {8192}
    assert _ARRAYS.misses["_sieve_columns"] - misses == 2
    assert_like_ref(shared_sieve(300))
    # every smaller hi reads views of that one table, with no build
    t = shared_sieve(257)
    assert np.shares_memory(t.omega, _ARRAYS._held[("_sieve_columns", 8192)][0])
    assert _ARRAYS.misses["_sieve_columns"] - misses == 2
    assert np.array_equal(shared_sieve(5000).pp_base, build_sieve(5000).pp_base)

    # liouville_table hands out a copy, never a view of the shared table
    lam = liouville_table(300)
    lam[:] = 7
    assert np.array_equal(shared_sieve(300).lambda_sign, ref.lambda_sign)

    for hi in (1, 2, 9, 300, 2000):
        brute = [(n, p) for n in range(2, hi + 1) if (p := brute_arith(n)[2])]
        ns, vm = prime_powers_upto(hi)
        assert ns.tolist() == [n for n, _ in brute], hi
        assert vm.dtype == np.float64
        assert vm.tolist() == [np.log(np.float64(p)) for _, p in brute], hi


def test_shared_sieve_is_read_only():
    ref = build_sieve(300)
    ns_ref = np.nonzero(ref.pp_base)[0]
    vm_ref = np.log(ref.pp_base[ns_ref].astype(np.float64))
    _ARRAYS.clear()
    shared_sieve(2000)
    held = SieveTable(2048, *_ARRAYS._held[("_sieve_columns", 2048)])
    for t in (shared_sieve(300), shared_sieve(2000), held):
        for col in ("omega", "lambda_sign", "pp_base"):
            with pytest.raises(ValueError):
                getattr(t, col)[2] = 0
            with pytest.raises(ValueError):
                getattr(t, col)[:] += 1
    t = shared_sieve(300)
    for col in ("omega", "lambda_sign", "pp_base"):
        assert np.array_equal(getattr(t, col), getattr(ref, col)), col
    assert np.array_equal(liouville_table(300), ref.lambda_sign)
    ns, vm = prime_powers_upto(300)
    assert np.array_equal(ns, ns_ref) and np.array_equal(vm, vm_ref)


def test_build_sieve_peak_memory_at_one_million():
    # n and the cofactor are int32 while the table is built: the peak is
    # about 17.5 MiB, against 27.7 MiB when both were int64.  20 MiB leaves
    # 2.5 MiB for numpy's temporaries and is far below the int64 build.
    primes_upto(1000)
    tracemalloc.start()
    try:
        t = build_sieve(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20, peak / 2**20
    assert t.pp_base.dtype == np.int64 and t.pp_base[999983] == 999983


def test_divisor_lambda_sum_is_square_indicator():
    for m in range(1, 2000):
        want = 1 if math.isqrt(m) ** 2 == m else 0
        assert divisor_lambda_sum(m) == want, m


def test_rho_u_brute_force():
    def brute(m, u):
        lam = liouville_table(m)
        return sum(int(lam[d]) for d in range(1, m + 1) if m % d == 0 and d > u)

    for u in (1.0, 2.5, 7.0):
        for m in range(1, 300):
            assert rho_u(m, u) == brute(m, u), (m, u)


def test_rho_u_points_and_strictness():
    # rho_2(6): divisors above 2 are 3 and 6, lambda adds to 0
    assert rho_u(6, 2.0) == 0
    assert rho_u(6, 1.0) == -1
    # strict cutoff: d > u, so an integer u excludes d = u itself
    assert rho_u(4, 2.0) == rho_u(4, 2.5) != rho_u(4, 1.9)


def test_tau_chi_points_and_table():
    D = FundamentalDiscriminant(-4)
    assert tau_chi(D, 1) == 1
    assert tau_chi(D, 5) == 2
    assert tau_chi(D, 9) == 1  # 1 - 1 + 1 over divisors 1, 3, 9
    assert tau_chi(D, 3) == 0
    for d in (-4, -3, 5):
        Dd = FundamentalDiscriminant(d)
        table = tau_chi_table(Dd, 500)
        for n in range(1, 501):
            assert int(table[n]) == tau_chi(Dd, n), (d, n)


def literal_divisor_loop(w, lo, X):
    """The reference: one slice pass per divisor d in [lo, X]."""
    acc = np.zeros(X + 1, dtype=np.int64)
    for d in range(lo, X + 1):
        acc[d::d] += w[d]
    return acc


@st.composite
def kernel_cases(draw):
    X = draw(st.integers(1, 2000))
    r = math.isqrt(X)
    # lo anywhere in [1, X+1], and often right at the slice/fancy-index split
    near_split = [v for v in (r - 1, r, r + 1, r + 2) if 1 <= v <= X + 1]
    lo = draw(st.one_of(st.integers(1, X + 1), st.sampled_from(near_split)))
    d = draw(st.sampled_from([None] + [D.d for D in enumerate_fundamentals(-60, 60)]))
    if d is None:
        w = liouville_table(X)
    else:
        w = chi_values_up_to(FundamentalDiscriminant(d), X)
    assert w.dtype == np.int8
    return w, lo, X


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_divisor_accumulate_matches_literal_loop(case):
    w, lo, X = case
    got = divisor_accumulate(w, lo, X)
    assert got.dtype == np.int64
    assert np.array_equal(got, literal_divisor_loop(w, lo, X))


def test_divisor_accumulate_rejects_lo_below_one():
    with pytest.raises(DomainError):
        divisor_accumulate(liouville_table(10), 0, 10)


def test_tau_chi_nonnegative():
    for d in (-4, -3, 5, 8, -7):
        table = tau_chi_table(FundamentalDiscriminant(d), 10**4)
        assert int(table[1:].min()) >= 0, d


def test_psi_u_example():
    D = FundamentalDiscriminant(-4)
    # prime powers in (1, 10]: 2,4,8 vanish under chi; 3 and 9 cancel; 5, 7 remain
    want = math.log(5) - math.log(7)
    assert abs(psi_u(D, 10, 1) - want) < 1e-12


def test_psi_u_brute_force():
    def vm(n):
        base = brute_arith(n)[2]
        return math.log(base) if base else 0.0

    for d in (-4, 5):
        D = FundamentalDiscriminant(d)
        for z, u in ((400, 1.0), (377.5, 10.0), (250, 249.0)):
            brute = sum(
                vm(n) * chi_eval(D, n)
                for n in range(math.floor(u) + 1, math.floor(z) + 1)
            )
            assert abs(psi_u(D, z, u) - brute) < 1e-10, (d, z, u)


def test_psi_u_domain():
    D = FundamentalDiscriminant(-4)
    with pytest.raises(DomainError):
        psi_u(D, 10, 10)
    with pytest.raises(DomainError):
        psi_u(D, 5, -1)
