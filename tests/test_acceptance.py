"""Acceptance gate: one test per headline criterion, each printing a verdict line.

The asymptotic regime the scan targets is far beyond desk scale, so
acceptance rests on exact identities, independent oracles, measured
residual/envelope ratios, and determinism of the scan pipeline.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from siegelscan import (
    FundamentalDiscriminant,
    chi_values_up_to,
    class_number_oracle,
    coprime_zeta2_partial,
    enumerate_fundamentals,
    euler_p_ratio,
    gauss_expansion_residual,
    gauss_sum,
    l_one,
    l_one_prime_direct,
    l_one_prime_tau,
    liouville_table,
    main_term_product,
    run_suite,
    scan_discriminants,
    seeded_two_var,
    tau_chi_table,
    verify_exponential_decomposition,
    verify_rho_swap_and_skeleton,
    verify_tau_log_identity,
    verify_tau_props,
    verify_two_variable_identity,
)
from siegelscan import verify
from siegelscan.scan import _coprime_zeta2_exact, write_scan_csv
from siegelscan.verify import (
    DEFAULT_SEED,
    _two_var_named,
    random_swap_triples,
    random_two_var_cases,
)

ARTIFACTS = os.path.join(os.path.dirname(__file__), "_artifacts")
ACCEPTANCE_LOG = os.path.join(ARTIFACTS, "acceptance_log.txt")


@pytest.fixture(scope="module", autouse=True)
def fresh_acceptance_log():
    """Start the verdict log empty, so it holds only this run's lines."""
    os.makedirs(ARTIFACTS, exist_ok=True)
    open(ACCEPTANCE_LOG, "w").close()


def note(n, msg):
    line = f"[PASS] criterion {n}: {msg}"
    print(line)
    with open(ACCEPTANCE_LOG, "a") as fh:
        fh.write(line + "\n")


def test_criterion_01_two_variable_exact_suite():
    t0 = time.monotonic()
    checked = 0
    for name, (x, u) in verify.TWO_VAR_CATALOG:
        f, integer_valued = _two_var_named(name, x)
        rep = verify_two_variable_identity(
            f, x, u, f_name=name, integer_valued=integer_valued
        )
        if integer_valued:
            assert rep.residual == 0.0, (name, x, u)
        else:
            assert rep.residual < 1e-8, (name, x, u)
        checked += 1
    for x, u, case_seed in random_two_var_cases(DEFAULT_SEED, 200):
        rep = verify_two_variable_identity(
            seeded_two_var(case_seed), x, u, f_name="seeded", seed=case_seed
        )
        assert rep.residual == 0.0, (x, u, case_seed)
        checked += 1
    worst = 0.0
    for a, q, x, u in verify.EXPONENTIAL_GRID:
        assert q <= 7
        rep = verify_exponential_decomposition(a, q, x, u)
        worst = max(worst, rep.residual)
        assert rep.residual < 1e-8, (a, q, x, u)
        checked += 1
    dt = time.monotonic() - t0
    assert dt < 30.0
    note(1, f"{checked} exact rearrangements, worst complex residual "
            f"{worst:.3g}, {dt:.1f}s")


def test_criterion_02_square_indicator():
    t0 = time.monotonic()
    # literal divisor enumeration up to 1e4
    lam_small = liouville_table(10**4)
    for m in range(1, 10**4 + 1):
        s = 0
        d = 1
        while d * d <= m:
            if m % d == 0:
                s += int(lam_small[d])
                e = m // d
                if e != d:
                    s += int(lam_small[e])
            d += 1
        assert s == (1 if math.isqrt(m) ** 2 == m else 0), m
    # slice accumulation to 1e6
    X = 10**6
    lam = liouville_table(X).astype(np.int64)
    acc = np.zeros(X + 1, dtype=np.int64)
    for d in range(1, X + 1):
        acc[d::d] += lam[d]
    ns = np.arange(X + 1)
    squares = np.zeros(X + 1, dtype=np.int64)
    squares[np.arange(0, math.isqrt(X) + 1) ** 2] = 1
    assert np.array_equal(acc[1:], squares[1:])
    dt = time.monotonic() - t0
    assert dt < 20.0
    note(2, f"divisor sums match the square indicator to 1e6, {dt:.1f}s")


def test_criterion_03_character_sum_bound():
    violations = 0
    count = 0
    for D in enumerate_fundamentals(-3000, 3000):
        q = D.q
        ch = chi_values_up_to(D, 10 * q).astype(np.int64)
        partial = np.cumsum(ch[1:])
        if np.max(np.abs(partial)) > math.sqrt(q) * math.log(q):
            violations += 1
        count += 1
    assert violations == 0
    note(3, f"partial-sum bound holds for all {count} discriminants, N <= 10q")


def test_criterion_04_gauss_sums():
    worst_mod = 0.0
    for D in enumerate_fundamentals(-2000, 2000):
        g = gauss_sum(D)
        worst_mod = max(worst_mod, abs(abs(g.value) - math.sqrt(D.q)))
        if D.d > 0:
            assert abs(g.value.imag) < 1e-9, D.d
        else:
            assert abs(g.value.real) < 1e-9, D.d
    assert worst_mod < 1e-6
    worst_exp = 0.0
    for D in enumerate_fundamentals(-200, 200):
        for n in range(1, 2 * D.q + 1):
            worst_exp = max(worst_exp, gauss_expansion_residual(D, n))
    assert worst_exp < 1e-9
    note(4, f"modulus error {worst_mod:.3g}, expansion residual {worst_exp:.3g}")


def test_criterion_05_l_one_against_class_numbers():
    worst = 0.0
    count = 0
    for D in enumerate_fundamentals(-500, -1):
        est = l_one(D, 10**7)
        ref = class_number_oracle(D)
        err = abs(est.value - ref.value)
        assert err <= est.bound, D.d
        assert est.bound <= 3e-6 * math.sqrt(D.q), D.d
        worst = max(worst, err / est.bound)
        count += 1
    pi4 = l_one(FundamentalDiscriminant(-4), 10**7)
    assert abs(pi4.value - math.pi / 4) < 3e-6
    note(5, f"{count} negative discriminants inside the tail bound, "
            f"worst err/bound {worst:.3f}")


def test_criterion_06_l_prime_cross_method():
    worst = 0.0
    for D in enumerate_fundamentals(-100, 100):
        a = l_one_prime_direct(D, 10**7)
        b = l_one_prime_tau(D, 10**6)
        worst = max(worst, abs(a.value - b.value))
    assert worst <= 1e-3
    note(6, f"two L'(1) routes agree within {worst:.3g} for |d| <= 100")


def test_criterion_07_tau_log_identity_constant():
    C = 0.0
    for d in (-3, -4, -7, 5, 8):
        D = FundamentalDiscriminant(d)
        for x in (10**4, 10**5, 10**6):
            rep = verify_tau_log_identity(D, x)
            C = max(C, rep.params["ratio_raw"])
    assert C <= 100.0
    note(7, f"global residual constant C = {C:.4g} (cap 100)")


def test_criterion_08_tau_nonnegativity_and_prime_bound():
    violations = 0
    for D in enumerate_fundamentals(-200, 200):
        table = tau_chi_table(D, 10**5)
        if int(table[1:].min()) < 0:
            violations += 1
        for y in (2 * D.q, 10**3, 10**5):
            rep = verify_tau_props(D, float(y))
            if not rep.passed:
                violations += 1
    assert violations == 0
    note(8, "tau >= 0 up to 1e5 and the prime-power log bound: no violations")


def test_criterion_09_divisor_swap_seeded():
    for d, t, u in random_swap_triples(DEFAULT_SEED, 500):
        rep = verify_rho_swap_and_skeleton(FundamentalDiscriminant(d), t, u)
        assert rep.residual == 0.0, (d, t, u)
    note(9, "500 seeded swap/skeleton cases all exactly 0")


def test_criterion_10_product_assembly():
    worst = 0.0
    count = 0
    for D in enumerate_fundamentals(-10**4, 10**4):
        lhs = main_term_product(D) * euler_p_ratio(D)
        worst = max(worst, abs(lhs - _coprime_zeta2_exact(D.q)))
        count += 1
    assert worst < 1e-9
    for q in (4, 12, 40):
        limit = _coprime_zeta2_exact(q)
        for K in (10**2, 10**4, 10**6):
            assert abs(coprime_zeta2_partial(q, K) - limit) <= 2 / (K - 1), (q, K)
    note(10, f"product identity within {worst:.3g} over {count} discriminants; "
             f"partial sums converge at the stated rate")


def test_criterion_11_measured_suites_and_scan(tmp_path):
    max_ratios = {}
    for suite in ("lemmas", "corollaries"):
        reports = run_suite(suite, c_max=100.0)
        for rep in reports:
            assert math.isfinite(rep.ratio), rep.name
            assert rep.passed, (suite, rep.name, rep.params)
            key = f"{suite}:{rep.name}"
            max_ratios[key] = max(max_ratios.get(key, 0.0), rep.ratio)
    # 6 significant digits: the last digits of the ratios vary between
    # environments, and the tracked file should not change with them
    rounded = {key: float(f"{v:.6g}") for key, v in max_ratios.items()}
    os.makedirs(ARTIFACTS, exist_ok=True)
    with open(os.path.join(ARTIFACTS, "max_ratios.json"), "w") as fh:
        json.dump(rounded, fh, indent=2, sort_keys=True)

    t0 = time.monotonic()
    rows8 = scan_discriminants(-10**4, 10**4, 10**6, jobs=8)
    wall = time.monotonic() - t0
    assert wall < 600.0
    rows2 = scan_discriminants(-10**4, 10**4, 10**6, jobs=2)
    p8 = tmp_path / "scan8.csv"
    p2 = tmp_path / "scan2.csv"
    with open(p8, "w", newline="") as fh:
        write_scan_csv(rows8, fh)
    with open(p2, "w", newline="") as fh:
        write_scan_csv(rows2, fh)
    assert p8.read_bytes() == p2.read_bytes()
    note(11, f"suite ratios capped at {max(max_ratios.values()):.4g}; "
             f"scan of {len(rows8)} discriminants in {wall:.0f}s, "
             f"byte-identical across worker counts")
