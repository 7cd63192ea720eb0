"""Characters: fundamental discriminants, Kronecker symbol, partial sums, Gauss sums."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint
from sympy.functions.combinatorial.numbers import kronecker_symbol as sympy_kronecker

from siegelscan import (
    CapacityError,
    DomainError,
    FundamentalDiscriminant,
    char_partial_sum,
    chi_eval,
    chi_period,
    chi_values_up_to,
    enumerate_fundamentals,
    gauss_expansion_residual,
    gauss_sum,
    is_fundamental,
    kronecker_symbol,
    primes_upto,
)
from siegelscan import characters

# hand-enumerated: every fundamental discriminant in [-50, -1]
NEG_FUNDAMENTALS_TO_50 = [
    -47, -43, -40, -39, -35, -31, -24, -23, -20, -19, -15, -11, -8, -7, -4, -3,
]


def brute_is_fundamental(d):
    # independent route: factor, test squarefreeness and the residue classes
    if d in (0, 1):
        return False
    if d % 4 == 1:
        return all(e == 1 for e in factorint(abs(d)).values())
    if d % 4 == 0:
        m = d // 4
        if m % 4 not in (2, 3):
            return False
        return all(e == 1 for e in factorint(abs(m)).values())
    return False


def test_is_fundamental_matches_brute_force():
    for d in range(-300, 301):
        assert is_fundamental(d) == brute_is_fundamental(d), d


def test_is_fundamental_points():
    assert is_fundamental(-4)
    assert is_fundamental(-3)
    assert is_fundamental(5)
    assert is_fundamental(8)
    assert is_fundamental(-8)
    assert is_fundamental(12)
    assert not is_fundamental(1)
    assert not is_fundamental(0)
    assert not is_fundamental(9)
    assert not is_fundamental(16)
    assert not is_fundamental(-32)
    assert not is_fundamental(45)  # 45 = 9*5 not squarefree


def test_enumerate_fundamentals_frozen_negative_range():
    ds = [D.d for D in enumerate_fundamentals(-50, -1)]
    assert ds == sorted(NEG_FUNDAMENTALS_TO_50)
    assert len(ds) == 16


def test_constructor_rejects_non_fundamental():
    with pytest.raises(DomainError):
        FundamentalDiscriminant(9)
    with pytest.raises(DomainError):
        FundamentalDiscriminant(1)
    # 1 (mod 4) and squarefree, but beyond the range of factorization
    with pytest.raises(DomainError):
        FundamentalDiscriminant(-(2**41) - 3)
    assert FundamentalDiscriminant(-4).q == 4
    assert FundamentalDiscriminant(5).q == 5


def test_kronecker_against_sympy():
    rng = random.Random(7)
    pairs = [(a, n) for a in range(-30, 31) for n in range(-30, 31)]
    pairs += [(rng.randint(-10**6, 10**6), rng.randint(-10**4, 10**4)) for _ in range(400)]
    for a, n in pairs:
        assert kronecker_symbol(a, n) == int(sympy_kronecker(a, n)), (a, n)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-10**6, 10**6),
    st.one_of(st.integers(-10**4, 10**4), st.integers(-5000, 5000).map(lambda k: 2 * k)),
)
def test_kronecker_matches_sympy_hypothesis(a, n):
    assert kronecker_symbol(a, n) == int(sympy_kronecker(a, n)), (a, n)


def test_kronecker_points():
    assert kronecker_symbol(-4, 3) == -1
    assert kronecker_symbol(-4, 5) == 1
    assert kronecker_symbol(8, 3) == -1
    assert kronecker_symbol(5, 7) == -1
    assert kronecker_symbol(12, 7) == -1  # (12/7) = (5/7), 5 not a QR mod 7
    assert kronecker_symbol(3, 0) == 0
    assert kronecker_symbol(1, 0) == 1
    assert kronecker_symbol(-1, 0) == 1  # (a/0) = 1 iff a = +-1


# one period of chi for small |d|, worked out by hand from the symbol
CHI_TABLES = {
    -3: [1, -1],  # chi(1), chi(2); chi(3) = 0
    -4: [1, 0, -1, 0],
    5: [1, -1, -1, 1, 0],
    -7: [1, 1, -1, 1, -1, -1, 0],
    8: [1, 0, -1, 0, -1, 0, 1, 0],
    -8: [1, 0, 1, 0, -1, 0, -1, 0],
    12: [1, 0, 0, 0, -1, 0, -1, 0, 0, 0, 1, 0],
}


def test_chi_residue_tables():
    for d, row in CHI_TABLES.items():
        D = FundamentalDiscriminant(d)
        got = [chi_eval(D, n) for n in range(1, len(row) + 1)]
        assert got == row, d


def test_chi_periodicity_and_multiplicativity():
    for d in (-4, -3, 5, 8, -8, 12, -7, -20, 21):
        D = FundamentalDiscriminant(d)
        q = D.q
        for n in range(1, 3 * q):
            assert chi_eval(D, n) == chi_eval(D, n + q)
        for m in range(1, 40):
            for n in range(1, 40):
                assert chi_eval(D, m * n) == chi_eval(D, m) * chi_eval(D, n)


def test_chi_period_is_minimal():
    # primitivity: no proper divisor of q is a period
    for d in (-4, -3, 5, 8, -8, 12, -24, 28):
        D = FundamentalDiscriminant(d)
        q = D.q
        for step in range(1, q):
            if q % step:
                continue
            broken = any(
                chi_eval(D, n) != chi_eval(D, n + step) for n in range(1, 2 * q)
            )
            assert broken, (d, step)


def test_chi_values_up_to_matches_pointwise():
    for d in (-4, 5, -7, 12):
        D = FundamentalDiscriminant(d)
        vals = chi_values_up_to(D, 200)
        assert vals[0] == 0
        for n in range(1, 201):
            assert int(vals[n]) == chi_eval(D, n)


@pytest.mark.parametrize("d", [-3, -4, 5, 8])
def test_chi_values_up_to_tiles_the_period(d):
    D = FundamentalDiscriminant(d)
    q = D.q
    period = chi_period(D).copy()
    for x in (0, q - 2, q - 1, q, 10 * q + 3):
        vals = chi_values_up_to(D, x)
        assert vals.dtype == np.int8 and vals.shape == (x + 1,)
        assert vals[0] == 0
        assert [int(v) for v in vals[1:]] == [chi_eval(D, n) for n in range(1, x + 1)]
        # a fresh array: writing into it must not reach the cached period
        vals[:] = 7
        assert np.array_equal(chi_period(D), period), (d, x)


def test_chi_period_is_read_only():
    D = FundamentalDiscriminant(-84)
    period = chi_period(D).copy()
    with pytest.raises(ValueError):
        chi_period(D)[1] = 7
    with pytest.raises(ValueError):
        chi_period(D)[:] *= -1
    assert np.array_equal(chi_period(D), period)
    vals = chi_values_up_to(D, 3 * D.q)
    assert [int(v) for v in vals[1:]] == [chi_eval(D, n) for n in range(1, 3 * D.q + 1)]


def test_full_period_sums_to_zero():
    for D in enumerate_fundamentals(-100, 100):
        assert int(np.sum(chi_period(D).astype(np.int64))) == 0, D.d


def test_chi_period_beyond_capacity(monkeypatch):
    # the guard fires before the period is built: factorizing q fails
    from siegelscan import characters

    def no_factorize(m):
        raise AssertionError("the chi period was built")

    D = FundamentalDiscriminant(67108865)  # 2^26 + 1, one above the budget
    assert D.q == characters.DEFAULT_MAX_WIDTH + 1
    monkeypatch.setattr(characters, "factorize", no_factorize)
    with pytest.raises(CapacityError):
        chi_period(D)
    with pytest.raises(CapacityError):
        chi_values_up_to(D, 10)


def test_array_cache_holds_within_budget(monkeypatch):
    # one byte budget for chi periods, prime logs, weights, sieve columns and
    # rho bases: patched small, a scan and the suites must evict to stay under it
    from siegelscan.cli import report_dict
    from siegelscan.primes import _ARRAYS
    from siegelscan.scan import scan_discriminants
    from siegelscan.verify import run_suite

    def identities():
        reports = run_suite("identities", two_var_cases=2, swap_cases=10)
        return [report_dict(r) for r in reports]

    def check_held():
        held = 0
        for key, value in _ARRAYS._held.items():
            for a in value if isinstance(value, tuple) else (value,):
                assert not a.flags.writeable, key
                held += a.nbytes
        assert _ARRAYS.nbytes == held <= _ARRAYS.budget
        return {key[0] for key in _ARRAYS._held}

    _ARRAYS.clear()
    misses = _ARRAYS.misses.copy()
    full = identities()
    full_built = _ARRAYS.misses - misses
    _ARRAYS.clear()
    monkeypatch.setattr(_ARRAYS, "budget", 100_000)
    try:
        scan_discriminants(-300, 300, 1e4)
        # each row drops its chi period (test_scan_drops_each_chi_period)
        assert "_prime_logs" in check_held() and "_period" not in check_held()
        # 184 periods and the tau weights at 1e4 (80 kB) were built
        assert len(_ARRAYS._held) < sum(_ARRAYS.misses.values())
        # the suite reads the periods of -3, -4 and -8 next to the scan's arrays
        assert all(r.passed for r in run_suite("corollaries"))
        check_held()
        # the Liouville and rho tables of up to 1e5 entries are rebuilt, not held,
        # and the reports are those of the full budget
        misses = _ARRAYS.misses.copy()
        assert identities() == full
        check_held()
        built = _ARRAYS.misses - misses
        for kind in ("_liouville", "_rho_base"):
            assert built[kind] > full_built[kind] > 0, (built, full_built)
    finally:
        _ARRAYS.clear()


def test_scan_drops_each_chi_period(monkeypatch):
    # a scan reads each period for one row; dropping it after the row leaves
    # the rows and the builds as they were with every period held
    from siegelscan.primes import _ARRAYS
    from siegelscan.scan import scan_discriminants

    def scan():
        _ARRAYS.clear()
        misses = _ARRAYS.misses.copy()
        rows = scan_discriminants(-300, 300, 1e4)
        return rows, _ARRAYS.misses - misses, {k for k in _ARRAYS._held if k[0] == "_period"}

    try:
        rows, built, held = scan()
        assert built["_period"] == len(rows) and not held
        assert _ARRAYS.nbytes == sum(
            sum(a.nbytes for a in (v if isinstance(v, tuple) else (v,)))
            for v in _ARRAYS._held.values()
        )
        monkeypatch.setattr(type(_ARRAYS), "evict", lambda self, build, *args: None)
        rows_held, built_held, held = scan()
        assert rows_held == rows and built_held == built and len(held) == len(rows)
    finally:
        _ARRAYS.clear()


def test_array_cache_evicts_by_key():
    from siegelscan.primes import _ARRAYS

    _ARRAYS.clear()
    try:
        a, b = chi_period(FundamentalDiscriminant(-4)), chi_period(FundamentalDiscriminant(5))
        assert _ARRAYS.nbytes == a.nbytes + b.nbytes
        _ARRAYS.evict(characters._period, -4)
        assert list(_ARRAYS._held) == [("_period", 5)] and _ARRAYS.nbytes == b.nbytes
        _ARRAYS.evict(characters._period, -4)  # not held: nothing to do
        assert _ARRAYS.nbytes == b.nbytes
    finally:
        _ARRAYS.clear()


def test_char_partial_sum_matches_cumsum():
    for d in (-4, -3, 5, -20):
        D = FundamentalDiscriminant(d)
        acc = 0
        for n in range(1, 6 * D.q + 1):
            acc += chi_eval(D, n)
            assert char_partial_sum(D, n) == acc, (d, n)
        assert char_partial_sum(D, 0) == 0


def test_char_partial_sum_large_argument():
    D = FundamentalDiscriminant(-4)
    # chi_-4 sums to 1 on 4k+1 prefixes, 0 on 4k+3 prefixes
    assert char_partial_sum(D, 10**9 + 1) == 1
    assert char_partial_sum(D, 10**9 + 3) == 0


def test_polya_vinogradov_sample():
    for d in (-4, -3, 5, 8, -163, 997, -996):
        D = FundamentalDiscriminant(d)
        q = D.q
        cap = math.sqrt(q) * math.log(q)
        for n in range(1, 4 * q):
            assert abs(char_partial_sum(D, n)) <= cap, (d, n)


def test_gauss_sum_known_values():
    g = gauss_sum(FundamentalDiscriminant(-4))
    assert abs(g.re) < 1e-12 and abs(g.im - 2.0) < 1e-12
    g = gauss_sum(FundamentalDiscriminant(-3))
    assert abs(g.re) < 1e-12 and abs(g.im - math.sqrt(3)) < 1e-12
    g = gauss_sum(FundamentalDiscriminant(5))
    assert abs(g.re - math.sqrt(5)) < 1e-12 and abs(g.im) < 1e-12
    g = gauss_sum(FundamentalDiscriminant(8))
    assert abs(g.re - math.sqrt(8)) < 1e-12 and abs(g.im) < 1e-12


def test_gauss_sum_modulus_and_purity():
    for D in enumerate_fundamentals(-300, 300):
        g = gauss_sum(D)
        assert abs(math.hypot(g.re, g.im) - math.sqrt(D.q)) < 1e-9, D.d
        if D.d > 0:
            assert abs(g.im) < 1e-9
        else:
            assert abs(g.re) < 1e-9


def test_gauss_expansion_residual_small():
    for d in (-4, -3, 5, 8, -7, 12):
        D = FundamentalDiscriminant(d)
        for n in range(1, 2 * D.q + 1):
            assert gauss_expansion_residual(D, n) < 1e-12, (d, n)


def test_gauss_expansion_residual_checks_its_limit_first():
    # q above gauss_sum's 1e6 limit is refused before the period and the
    # tables of about 64 bytes per q are built
    from siegelscan.primes import _ARRAYS

    D = FundamentalDiscriminant(-1000003)
    characters.drop_period(D)
    misses = _ARRAYS.misses["_period"]
    with pytest.raises(DomainError):
        gauss_expansion_residual(D, 2)
    assert _ARRAYS.misses["_period"] == misses


def test_chi_eval_rejects_nonpositive():
    D = FundamentalDiscriminant(-4)
    with pytest.raises(DomainError):
        chi_eval(D, 0)
    with pytest.raises(DomainError):
        chi_eval(D, -3)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([D.d for D in enumerate_fundamentals(-5000, 5000)]))
def test_chi_period_matches_kronecker(d):
    q = abs(d)
    table = chi_period(FundamentalDiscriminant(d))
    assert table.dtype == np.int8 and table.shape == (q,)
    assert table.tolist() == [kronecker_symbol(d, n) for n in range(q)]


def per_prime_period(d):
    # the earlier builder, kept as the reference: chi(p^k) = chi(p)^k, one
    # slice pass per prime power below q, chi(p) from kronecker_symbol
    q = abs(d)
    vals = np.ones(q, dtype=np.int8)
    vals[0] = 0
    for p in primes_upto(q - 1).tolist():
        v = kronecker_symbol(d, p)
        if v == 1:
            continue
        pk = p
        while pk < q:
            vals[pk::pk] *= v
            pk *= p
    return vals


def two_adic_type(d):
    # d2 in d = d2 * d_odd with d_odd odd and 1 (mod 4); 1 for odd d
    if d % 2:
        return 1
    d_odd = abs(d) // (8 if d % 8 == 0 else 4)
    return d // (d_odd if d_odd % 4 == 1 else -d_odd)


def test_chi_period_equals_per_prime_builder():
    ds = [D.d for D in enumerate_fundamentals(-3000, 3000)]
    window = [
        d
        for q in range(2**16 - 40, 2**16 + 41)
        for d in (-q, q)
        if is_fundamental(d)
    ]
    assert {two_adic_type(d) for d in window} >= {-4, 8, -8}
    ds += window
    for centre, sign in ((200000, 1), (200000, -1), (1000000, -1)):
        near = [sign * q for q in range(centre, centre + 100) if is_fundamental(sign * q)]
        ds += near[:5]
    for d in ds:
        table = chi_period(FundamentalDiscriminant(d))
        assert table.dtype == np.int8, d
        assert np.array_equal(table, per_prime_period(d)), d


def test_array_cache_prefix_holds_one_table(monkeypatch):
    from siegelscan.primes import _ARRAYS

    built = []

    @_ARRAYS.prefix
    def _squares(n):
        built.append(n)
        return np.arange(n + 1, dtype=np.int64) ** 2

    _ARRAYS.clear()
    try:
        # built to the least power of two >= n, and read by every n it reaches
        assert _squares(300).size == 513 and built == [512]
        assert _squares(5) is _squares(512) and built == [512]
        # a longer n replaces the held table
        assert np.array_equal(_squares(513), np.arange(1025) ** 2) and built == [512, 1024]
        assert [k for k in _ARRAYS._held if k[0] == "_squares"] == [("_squares", 1024)]
        # once the budget has pushed the table out, a call builds for its own n
        monkeypatch.setattr(_ARRAYS, "budget", _ARRAYS.nbytes)
        chi_period(FundamentalDiscriminant(-4))
        assert ("_squares", 1024) not in _ARRAYS._held
        assert _squares(3).size == 5 and built == [512, 1024, 4]
    finally:
        _ARRAYS.clear()
