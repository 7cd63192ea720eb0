"""Sieve tables, divisor functionals, and the twisted Chebyshev sum."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint, primerange

from siegelscan import (
    CapacityError,
    DomainError,
    FundamentalDiscriminant,
    chi_eval,
    chi_values_up_to,
    divisor_lambda_sum,
    enumerate_fundamentals,
    liouville_table,
    mf_liouville,
    primes_upto,
    psi_u,
    rho_u,
    tau_chi,
    tau_chi_table,
    theta_and_s,
    values_up_to,
    verify_mean_variation,
    verify_theta_decomposition,
)
from siegelscan.primes import _ARRAYS, DEFAULT_MAX_WIDTH
from siegelscan.sieve import divisor_accumulate, prime_powers_upto, shared_sieve


def brute_arith(n):
    """(lambda, prime-power base: p when n = p^k, else 0) from the factorization."""
    fac = factorint(n)
    base = list(fac)[0] if len(fac) == 1 else 0
    return (-1) ** sum(fac.values()), base


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
    # a length past the budget is named as a power of ten, whatever its size
    with pytest.raises(CapacityError, match=r"prime sieve length 10\^400\.00 exceeds"):
        primes.primes_upto(10**400)


def test_primes_upto_frozen():
    assert primes_upto(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_upto(1).size == 0
    assert primes_upto(2).tolist() == [2]


def test_held_primes_are_sieved_once_for_prime_powers_and_products(monkeypatch):
    # prime_powers_upto sieved primes_upto(hi) again on every call; the primes
    # are now one prefix table, shared with the logs of the Euler products
    from siegelscan import lseries, primes

    sieved = []
    sieve_once = primes.primes_upto
    monkeypatch.setattr(primes, "primes_upto", lambda n: sieved.append(n) or sieve_once(n))
    _ARRAYS.clear()
    try:
        for n in (0, 1, 2, 3, 1000, 1024, 1025):
            held = primes.held_primes(n)
            assert not held.flags.writeable
            assert held.tolist() == sieve_once(n).tolist(), n
        for hi in (1000, 100, 50_000, 3000, 50_000):
            assert prime_powers_upto(hi)[0].tolist() == prime_powers_by_loop(hi), hi
        D = FundamentalDiscriminant(-40003)
        assert lseries.euler_p_ratio(D) == euler_p_ratio_by_loop(D)
        # one build per power of two that a request passed, none for a prefix
        assert sieved == [2, 4, 1024, 2048, 65536]
    finally:
        _ARRAYS.clear()


def prime_powers_by_loop(hi):
    return [n for n in range(2, hi + 1) if len(factorint(n)) == 1]


def euler_p_ratio_by_loop(D):
    acc = 0.0
    for p in primerange(2, D.q + 1):
        acc += math.log1p(-1.0 / p) - math.log1p(chi_eval(D, p) / p)
    return math.exp(acc)


def check_table_against_factorization(lam, ns):
    assert lam.dtype == np.int8 and lam[0] == 0 and lam[1] == 1
    for n in ns:
        assert lam[n] == brute_arith(n)[0], n


def test_table_against_factorization_low_range():
    for read in (shared_sieve, liouville_table):
        check_table_against_factorization(read(500), range(2, 501))


def test_table_against_factorization_high_segment():
    lo = 10**5
    for read in (shared_sieve, liouville_table):
        check_table_against_factorization(read(lo + 300), range(lo, lo + 301))


def test_liouville_first_values():
    lam = liouville_table(8)
    assert lam.tolist() == [0, 1, -1, -1, 1, -1, 1, -1, -1]


def test_von_mangoldt_points():
    ns, vm = prime_powers_upto(20)
    vm_at = dict(zip(ns.tolist(), vm.tolist()))
    assert vm_at[8] == vm_at[2] == np.log(2.0)
    assert vm_at[9] == vm_at[3] == np.log(3.0)
    assert 6 not in vm_at
    assert vm_at[7] == np.log(7.0)


@pytest.mark.parametrize(
    "read", [shared_sieve, liouville_table, prime_powers_upto],
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


def lambda_by_factorization(hi):
    return np.array([0] + [brute_arith(n)[0] for n in range(1, hi + 1)], dtype=np.int8)


def test_shared_prefixes_and_prime_power_reader():
    ref = lambda_by_factorization(300)

    def assert_like_ref(lam):
        assert lam.dtype == np.int8 and np.array_equal(lam, ref)

    _ARRAYS.clear()  # start from an empty cache, whatever ran before
    misses = _ARRAYS.misses["_liouville"]
    shared_sieve(2000)
    assert_like_ref(shared_sieve(300))
    shared_sieve(5000)
    # one held table: 300 reads the table of 2000, and 5000 replaces it
    held = {key[1] for key in _ARRAYS._held if key[0] == "_liouville"}
    assert held == {8192}
    assert _ARRAYS.misses["_liouville"] - misses == 2
    assert_like_ref(shared_sieve(300))
    # every smaller hi reads views of that one table, with no build
    t = shared_sieve(257)
    assert np.shares_memory(t, _ARRAYS._held[("_liouville", 8192)])
    assert _ARRAYS.misses["_liouville"] - misses == 2

    # liouville_table hands out a copy, never a view of the shared table
    lam = liouville_table(300)
    lam[:] = 7
    assert_like_ref(shared_sieve(300))


def test_prime_powers_against_factorization():
    # hi runs through prime powers (4, 8, 9, 25, 27 ... 1024, 2^17) and
    # their neighbours, so that p^k = hi and p^k = hi + 1 are both covered
    top = 2**17
    brute = [(n, p) for n in range(2, top + 1) if (p := brute_arith(n)[1])]
    for hi in (1, 2, 3, 4, 7, 8, 9, 24, 25, 26, 127, 128, 1024, 1025, top):
        want = [(n, p) for n, p in brute if n <= hi]
        ns, vm = prime_powers_upto(hi)
        assert ns.dtype == np.int64 and vm.dtype == np.float64
        assert ns.tolist() == [n for n, _ in want], hi
        assert vm.tolist() == [np.log(np.float64(p)) for _, p in want], hi


def test_shared_sieve_is_read_only():
    ref = lambda_by_factorization(300)
    _ARRAYS.clear()
    shared_sieve(2000)
    held = _ARRAYS._held[("_liouville", 2048)]
    for lam in (shared_sieve(300), shared_sieve(2000), held):
        with pytest.raises(ValueError):
            lam[2] = 0
        with pytest.raises(ValueError):
            lam[:] += 1
    assert np.array_equal(shared_sieve(300), ref)
    assert np.array_equal(liouville_table(300), ref)


def test_liouville_build_peak_memory_at_one_million():
    # lambda at 1e6 is built to 2^20 through values_up_to's float64 table
    # (8 MiB) and held as int8 (1 MiB): the peak is about 9.9 MiB.  13 MiB
    # leaves room for numpy's temporaries, and no build that holds a second
    # column of 8 bytes per entry passes it.
    primes_upto(1000)
    _ARRAYS.clear()
    tracemalloc.start()
    try:
        lam = shared_sieve(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13 * 2**20, peak / 2**20
    assert _ARRAYS._held[("_liouville", 2**20)].nbytes == _ARRAYS.nbytes == 2**20 + 1
    assert lam.size == 10**6 + 1 and lam[999983] == -1 and lam[10**6] == 1


# Every public entry point that builds an array of length about n, through
# primes_upto or chi_values_up_to
LENGTH_N_BUILDERS = {
    "primes_upto": primes_upto,
    "chi_values_up_to": lambda n: chi_values_up_to(FundamentalDiscriminant(-4), n),
    "values_up_to": lambda n: values_up_to(mf_liouville(), n),
    "theta_and_s": lambda n: theta_and_s(mf_liouville(), n),
    "tau_chi_table": lambda n: tau_chi_table(FundamentalDiscriminant(5), n),
    "verify_mean_variation": lambda n: verify_mean_variation(mf_liouville(), n, 2.0),
    "verify_theta_decomposition": lambda n: verify_theta_decomposition(mf_liouville(), n, 0.5),
}


# n past float range, for the two entry points that take x as a float
# expression (sqrt(x), x**eps) before they size an array by floor(x)
@pytest.mark.parametrize(
    "name, n",
    [
        pytest.param(name, n, id=f"{name}-{n_id}")
        for name in LENGTH_N_BUILDERS
        for n, n_id in ((DEFAULT_MAX_WIDTH + 1, "2^26+1"), (10**12, "1e12"))
    ]
    + [
        pytest.param(name, 10**400, id=f"{name}-1e400")
        for name in ("verify_mean_variation", "verify_theta_decomposition")
    ],
)
def test_length_n_builders_refuse_beyond_budget(name, n):
    # the guard fires before the length-n array, or any cached table, is built
    misses = _ARRAYS.misses.copy()
    with pytest.raises(CapacityError, match=r"length 10\^\d+\.\d\d exceeds budget"):
        LENGTH_N_BUILDERS[name](n)
    assert _ARRAYS.misses == misses


@pytest.mark.parametrize(
    "name, n",
    [
        pytest.param(name, n, id=f"{name}-{n}")
        for name in LENGTH_N_BUILDERS
        for n in (math.inf, math.nan)
    ],
)
def test_length_n_builders_refuse_non_finite(name, n):
    # one check, before any floor and before any cached table is built
    misses = _ARRAYS.misses.copy()
    with pytest.raises(DomainError, match="length must be finite"):
        LENGTH_N_BUILDERS[name](n)
    assert _ARRAYS.misses == misses


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
        base = brute_arith(n)[1]
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
