"""Quadratic Dirichlet characters, Liouville-weighted divisor identities,
L-values at s = 1, and a scan for discriminants with small L(1, chi).

The modules: characters (chi_d and its tables), primes and sieve (prime
and divisor tables), lseries (L-values and Euler products), verify (the
identity checks and their suites), scan (the discriminant scan and its
CSV), errors (the exception types) and cli (the command line, which
importing the package does not load).
"""

from .characters import (
    FundamentalDiscriminant,
    GaussSum,
    char_partial_sum,
    chi_eval,
    chi_period,
    chi_values_up_to,
    enumerate_fundamentals,
    gauss_expansion_residual,
    gauss_sum,
    is_fundamental,
    kronecker_symbol,
)
from .errors import CapacityError, ContractError, DomainError
from .lseries import (
    EULER_GAMMA,
    LValueEstimate,
    MultiplicativeFunc,
    class_number_oracle,
    coprime_zeta2_partial,
    epsilon_functional,
    euler_p_ratio,
    l_one,
    l_one_prime_direct,
    l_one_prime_tau,
    main_term_product,
    mean_variation_bound,
    mf_char_flip_cutoff,
    mf_liouville,
    mf_liouville_times_chi,
    mf_one,
    tau_over_n_sum,
    theta_and_s,
    values_up_to,
)
from .sieve import (
    divisor_lambda_sum,
    liouville_table,
    primes_upto,
    psi_u,
    rho_u,
    shared_sieve,
    tau_chi,
    tau_chi_table,
)
from .scan import ScanRow, scan_discriminants
from .verify import (
    IdentityReport,
    run_suite,
    seeded_two_var,
    verify_exponential_decomposition,
    verify_lambda_chi_mean,
    verify_mean_variation,
    verify_psi_chi,
    verify_psi_transfer,
    verify_rho_main_term,
    verify_rho_swap_and_skeleton,
    verify_tau_log_identity,
    verify_tau_props,
    verify_theta_decomposition,
    verify_two_variable_identity,
)

__version__ = "0.1.0"
