"""Exact identity checks, measured-inequality reports, and the discriminant scan."""

import math

import numpy as np
import pytest

from siegelscan import (
    DomainError,
    FundamentalDiscriminant,
    IdentityReport,
    ScanRow,
    chi_values_up_to,
    enumerate_fundamentals,
    euler_p_ratio,
    main_term_product,
    run_suite,
    scan_discriminants,
    verify_exponential_decomposition,
    verify_lambda_chi_mean,
    verify_psi_chi,
    verify_psi_transfer,
    verify_rho_main_term,
    verify_rho_swap_and_skeleton,
    verify_tau_log_identity,
    verify_tau_props,
    verify_theta_decomposition,
    verify_two_variable_identity,
    verify_mean_variation,
    seeded_two_var,
)
from siegelscan import sieve, verify
from siegelscan.primes import _ARRAYS
from siegelscan.verify import DEFAULT_SEED, random_swap_triples, random_two_var_cases


def test_two_variable_identity_constant():
    # f = 1, x = 10, u = 2.5: only k = 1 satisfies k^2 u < 10, leaving
    # n in 3..10, so both sides must count 8
    rep = verify_two_variable_identity(lambda m, n: 1, 10, 2.5, f_name="one")
    assert rep.kind == "exact"
    assert rep.lhs == 8.0 and rep.rhs == 8.0 and rep.residual == 0.0
    assert rep.passed


def test_two_variable_identity_zero_function():
    rep = verify_two_variable_identity(lambda m, n: 0, 50, 3.5, f_name="zero")
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.passed


def test_two_variable_identity_seeded_cases():
    for x, u, case_seed in random_two_var_cases(DEFAULT_SEED, 20):
        rep = verify_two_variable_identity(
            seeded_two_var(case_seed), x, u, f_name="seeded-random", seed=case_seed
        )
        assert rep.residual == 0.0, rep.params


def test_two_variable_identity_domain():
    with pytest.raises(DomainError):
        verify_two_variable_identity(lambda m, n: 1, 0, 2.5, f_name="one")
    with pytest.raises(DomainError):
        verify_two_variable_identity(lambda m, n: 1, 10**6, 2.5, f_name="one")


def test_exponential_decomposition_small():
    rep = verify_exponential_decomposition(1, 3, 50, 2.0)
    assert rep.kind == "exact"
    assert rep.residual < 1e-9
    assert rep.passed


def test_exponential_decomposition_q_one():
    # q = 1 makes every additive character trivial; the split still holds
    rep = verify_exponential_decomposition(1, 1, 50, 2.0)
    assert rep.passed


def test_exponential_decomposition_rejects_common_factor():
    with pytest.raises(DomainError):
        verify_exponential_decomposition(2, 4, 50, 2.0)
    with pytest.raises(DomainError):
        verify_exponential_decomposition(1, 1024, 50, 2.0)


def test_rho_swap_catalog():
    for d, t, u in verify.SWAP_CATALOG:
        rep = verify_rho_swap_and_skeleton(FundamentalDiscriminant(d), t, u)
        assert rep.residual == 0.0, (d, t, u)
        if "trivial" not in rep.params:
            assert rep.params["skeleton_coef_mismatch"] == 0


def test_rho_swap_trivial_range():
    rep = verify_rho_swap_and_skeleton(FundamentalDiscriminant(-4), 5.0, 9.5)
    assert rep.params["trivial"] and rep.passed


def test_rho_swap_boundary_convention_matters():
    # integer u: the strict cutoff d > u genuinely differs from d >= u here
    rep = verify_rho_swap_and_skeleton(FundamentalDiscriminant(5), 400.0, 3.0)
    assert rep.params["nonstrict_differs"] is True
    assert rep.lhs == 17.0
    assert rep.params["rhs_swap_nonstrict"] == 16.0
    assert rep.passed


def literal_swap_sums(D, t, u):
    """The right side of the swap, strict and (for integer u) non-strict, by
    the loop over d <= t/u + 1 that the check used to run."""
    T, FU = math.floor(t), math.floor(u)
    lam = sieve.liouville_table(T).astype(np.int64)
    ch = chi_values_up_to(D, T).astype(np.int64)
    prefix = np.cumsum(lam * ch)
    d_top = min(T, math.floor(t / u) + 1)
    strict = nonstrict = 0
    for d in range(1, d_top + 1):
        cd = int(ch[d])
        if not cd:
            continue
        nd = T // d
        if nd > FU:
            strict += cd * int(prefix[nd] - prefix[FU])
        if nd >= u:
            nonstrict += cd * int(prefix[nd] - prefix[int(u) - 1])
    return strict, (nonstrict if float(u).is_integer() else None)


@pytest.mark.parametrize("seeded", [False, True])
def test_rho_swap_equals_literal_loop(seeded):
    # the catalog's integer-u rows cover the non-strict branch
    cases = random_swap_triples(7, 20) if seeded else verify.SWAP_CATALOG
    nonstrict_rows = 0
    for d, t, u in cases:
        if u >= t:
            continue
        D = FundamentalDiscriminant(d)
        rep = verify_rho_swap_and_skeleton(D, t, u)
        strict, nonstrict = literal_swap_sums(D, t, u)
        assert rep.rhs == float(strict) and rep.lhs == rep.rhs, (d, t, u)
        assert rep.params.get("rhs_swap_nonstrict") == nonstrict, (d, t, u)
        nonstrict_rows += nonstrict is not None
    assert nonstrict_rows == (0 if seeded else 1)


def test_rho_table_matches_pointwise():
    for u in (2.5, 7.0):
        table = verify._rho_table(500, u)
        for m in range(1, 501):
            assert table[m] == sieve.rho_u(m, u), (m, u)


def test_rho_table_walk_equals_kernel():
    _ARRAYS.clear()
    misses = _ARRAYS.misses["_rho_base"]
    # cutoffs up, down, a repeat, lo > X, cuts across isqrt of the held base,
    # and X growing past a power of two twice (300 -> 1000 -> 1500 builds
    # 512, 1024, 2048); every smaller X reads the base held at the time
    requests = [
        (300, 2.5), (300, 9.0), (200, 4.5), (200, 4.5), (250, 400.0),
        (300, 1.0), (1000, 7.5), (1000, 40.5), (600, 3.5), (50, 60.0),
        (1500, 20.5), (1500, 1.5), (10, 9.5),
    ]
    held = []
    for X, u in requests:
        got = verify._rho_table(X, u)
        want = sieve.divisor_accumulate(sieve.liouville_table(X), math.floor(u) + 1, X)
        assert got.dtype == np.int64
        assert np.array_equal(got, want), (X, u)
        held.append((got, want))
    # every array handed out is the caller's own: later calls left it alone
    for (X, u), (got, want) in zip(requests, held):
        assert np.array_equal(got, want), (X, u)
    bases = {key[1] for key in _ARRAYS._held if key[0] == "_rho_base"}
    assert bases == {2048}
    assert _ARRAYS.misses["_rho_base"] - misses == 3


def test_suite_all_holds_one_table_per_prefix_builder():
    # a larger request replaces the held table instead of adding one: the
    # Liouville table grows through 6 powers of two and the rho base through 5, where
    # a table per power of two built them 16 and 13 times
    prefix_builders = ("_liouville", "_rho_base", "_prime_logs")
    _ARRAYS.clear()
    misses = _ARRAYS.misses.copy()
    try:
        reports = verify.run_suite("all", two_var_cases=50, swap_cases=100)
        assert all(r.passed for r in reports)
        built = _ARRAYS.misses - misses
        assert built["_liouville"] <= 6 and built["_rho_base"] <= 5, built
        for name in prefix_builders:
            assert sum(key[0] == name for key in _ARRAYS._held) <= 1, name
    finally:
        _ARRAYS.clear()


def test_swap_reports_do_not_depend_on_order():
    from siegelscan.cli import report_dict

    def reports(triples):
        _ARRAYS.clear()
        return [
            report_dict(verify_rho_swap_and_skeleton(FundamentalDiscriminant(d), t, u))
            for d, t, u in triples
        ]

    triples = random_swap_triples(7, 30)
    assert reports(triples) == reports(triples[::-1])[::-1]


def test_psi_transfer_smoke():
    rep = verify_psi_transfer(FundamentalDiscriminant(-4), 10**4, 100.0)
    assert rep.kind == "measured"
    assert rep.passed and rep.ratio < 1.0


def test_rho_main_term_domain():
    with pytest.raises(DomainError):
        # u too small: needs 2 sqrt(x) < u^2
        verify_rho_main_term(FundamentalDiscriminant(-4), 10**6, 10.0)


def test_tau_log_identity_tightens_with_x():
    D = FundamentalDiscriminant(-4)
    r_small = verify_tau_log_identity(D, 10**4)
    r_large = verify_tau_log_identity(D, 10**6)
    assert r_small.passed and r_large.passed
    assert r_large.residual < r_small.residual
    assert r_large.params["ratio_raw"] <= 100.0


def test_tau_props_equality_edge():
    # y = q + 1 = 5: the only prime power in (q, y] is 5 itself, and the
    # inequality is met with equality
    rep = verify_tau_props(FundamentalDiscriminant(-4), 5.0)
    assert rep.passed
    assert rep.residual == 0.0


def test_tau_props_domain():
    with pytest.raises(DomainError):
        verify_tau_props(FundamentalDiscriminant(-4), 4.0)


def test_theta_decomposition_constant():
    rep = verify_theta_decomposition(verify._mf_named("one", None), 10**4, 0.3)
    assert rep.passed
    assert rep.residual < 1e-6


def test_theta_decomposition_eps_domain():
    mf = verify._mf_named("one", None)
    with pytest.raises(DomainError):
        verify_theta_decomposition(mf, 10**4, 0.0)
    with pytest.raises(DomainError):
        verify_theta_decomposition(mf, 10**4, 1.0)


def test_mean_variation_smoke():
    rep = verify_mean_variation(verify._mf_named("one", None), 10**4, 5.0)
    assert rep.kind == "measured" and rep.passed


def test_psi_chi_diagnostic():
    rep = verify_psi_chi(FundamentalDiscriminant(-4), 10**6)
    assert rep.passed
    assert rep.params["diagnostic"] is True


def test_lambda_chi_mean_smoke():
    rep = verify_lambda_chi_mean(FundamentalDiscriminant(-4), 10**6)
    assert rep.passed and rep.ratio < 1.0


def test_scan_rows_and_ordering():
    rows = scan_discriminants(-50, -1, 10**5)
    want_d = sorted(D.d for D in enumerate_fundamentals(-50, -1))
    assert sorted(r.d for r in rows) == want_d
    assert len(rows) == 16
    # ordering: ascending score, ties by d
    keys = [(r.score, r.d) for r in rows]
    assert keys == sorted(keys)
    by_d = {r.d: r for r in rows}
    r4 = by_d[-4]
    assert abs(r4.pq - 0.5) < 1e-12
    assert abs(r4.rhs_main - math.pi**2 / 4) < 1e-12
    assert abs(r4.pq - euler_p_ratio(FundamentalDiscriminant(-4))) < 1e-12
    assert abs(r4.rhs_main - main_term_product(FundamentalDiscriminant(-4))) < 1e-12
    assert r4.score == r4.l1


def test_scan_jobs_equivalence():
    a = scan_discriminants(-30, 30, 10**4, jobs=1)
    b = scan_discriminants(-30, 30, 10**4, jobs=2)
    assert a == b


def test_scan_requires_large_x():
    with pytest.raises(DomainError):
        scan_discriminants(-50, -1, 10)
    for x in (math.nan, math.inf):
        with pytest.raises(DomainError):
            scan_discriminants(-50, -1, x)


def test_swap_triples_deterministic():
    a = random_swap_triples(DEFAULT_SEED, 10)
    b = random_swap_triples(DEFAULT_SEED, 10)
    assert a == b
    assert all(t >= u for _, t, u in a)


def test_run_suite_unknown():
    with pytest.raises(DomainError):
        run_suite("bogus")
    with pytest.raises(DomainError):
        run_suite("identities", two_var_cases=-1)
    with pytest.raises(DomainError):
        run_suite("identities", swap_cases=-1)


def test_run_suite_corollaries():
    reports = run_suite("corollaries")
    assert reports and all(r.passed for r in reports)
    for r in reports:
        assert isinstance(r, IdentityReport)
        if r.kind == "measured":
            assert r.envelope > 0
            assert math.isfinite(r.ratio)


def test_report_is_frozen():
    rep = verify_tau_props(FundamentalDiscriminant(-4), 20.0)
    with pytest.raises(AttributeError):
        rep.passed = False
    row = ScanRow(-4, 4, 0.7, 0.1, 0.2, 0.5, 2.4, 1.0, 0.7)
    with pytest.raises(AttributeError):
        row.score = 0.0
