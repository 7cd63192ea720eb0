"""In-memory span tracer that wraps siegelscan's public layer functions.

The package itself is untouched: each listed function is replaced, in every
loaded ``siegelscan`` module that holds a reference to it, by a wrapper that
records a span (name, start, end, parent) or, for functions called too often
to span, only a call count.  Rebinding by identity matters because modules
import names from each other (``verify`` does ``from .lseries import l_one``,
``lseries.l_one_prime_tau`` calls ``l_one`` through its own globals, and
``characters.chi_values_up_to`` calls ``chi_period`` the same way).

Spans stay in memory and are returned by ``Tracer.dump`` once the run ends;
``layer_totals`` turns them into per-layer call counts and self times (span
time minus the time covered by child spans).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# (module, function, metric stem, kind).  "span" records a span per call;
# "count" only counts calls (kronecker_symbol runs once per prime below q).
LAYERS = [
    ("characters", "chi_period", "characters.chi_period", "span"),
    ("characters", "kronecker_symbol", "characters.kronecker_symbol", "count"),
    ("characters", "chi_values_up_to", "characters.chi_values_up_to", "span"),
    ("sieve", "primes_upto", "sieve.primes_upto", "span"),
    ("sieve", "shared_sieve", "sieve.shared_sieve", "span"),
    ("sieve", "liouville_table", "sieve.liouville_table", "span"),
    ("sieve", "tau_chi_table", "sieve.tau_chi_table", "span"),
    ("lseries", "l_one", "lseries.l_one", "span"),
    ("lseries", "l_one_prime_tau", "lseries.l_one_prime_tau", "span"),
    ("lseries", "tau_over_n_sum", "lseries.tau_over_n_sum", "span"),
    ("lseries", "l_one_prime_direct", "lseries.l_one_prime_direct", "span"),
    ("lseries", "values_up_to", "lseries.values_up_to", "span"),
    ("lseries", "theta_and_s", "lseries.theta_and_s", "span"),
    ("lseries", "euler_p_ratio", "lseries.euler_p_ratio", "span"),
    ("lseries", "main_term_product", "lseries.main_term_product", "span"),
    ("lseries", "class_number_oracle", "lseries.class_number_oracle", "span"),
    ("verify", "verify_two_variable_identity", "verify.two_variable_identity", "span"),
    ("verify", "verify_exponential_decomposition", "verify.exponential_decomposition", "span"),
    ("verify", "verify_rho_swap_and_skeleton", "verify.rho_swap_and_skeleton", "span"),
    ("verify", "verify_psi_transfer", "verify.psi_transfer", "span"),
    ("verify", "verify_mean_variation", "verify.mean_variation", "span"),
    ("verify", "verify_rho_main_term", "verify.rho_main_term", "span"),
    ("verify", "verify_tau_log_identity", "verify.tau_log_identity", "span"),
    ("verify", "verify_tau_props", "verify.tau_props", "span"),
    ("verify", "verify_theta_decomposition", "verify.theta_decomposition", "span"),
    ("verify", "verify_lambda_chi_mean", "verify.lambda_chi_mean", "span"),
    ("verify", "verify_psi_chi", "verify.psi_chi", "span"),
    ("verify", "scan_discriminants", "verify.scan_discriminants", "span"),
    ("verify", "run_suite", "verify.run_suite", "span"),
    ("cli", "main", "cli.main", "span"),
    ("cli", "write_scan_csv", "cli.write_scan_csv", "span"),
]

# Entry points whose results are counted as verify.reports: every report of
# run_suite, and the rows of a scan_discriminants call made outside a suite.
_REPORTING = ("verify.run_suite", "verify.scan_discriminants")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.reports = 0
        self.reports_failed = 0
        self._stack: list[int] = []
        self._suite_depth = 0

    def install(self) -> None:
        """Wrap every function in LAYERS; a missing name raises AttributeError."""
        for module, func, stem, kind in LAYERS:
            mod = importlib.import_module(f"siegelscan.{module}")
            original = getattr(mod, func)
            wrapper = self._counter(stem, original) if kind == "count" else self._span(stem, original)
            for name, loaded in list(sys.modules.items()):
                if loaded is None or not (name == "siegelscan" or name.startswith("siegelscan.")):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, attr, wrapper)

    def _counter(self, stem, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[stem] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, stem, fn):
        name_id = len(self.names)
        self.names.append(stem)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        reporting = stem in _REPORTING
        is_suite = stem == "verify.run_suite"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name_id, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            self._suite_depth += is_suite
            try:
                result = fn(*args, **kwargs)
            finally:
                self._suite_depth -= is_suite
                stack.pop()
                spans[index][2] = clock()
            if reporting and (is_suite or self._suite_depth == 0):
                self.reports += len(result)
                self.reports_failed += sum(1 for r in result if getattr(r, "passed", True) is False)
            return result

        return wrapper

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "counts": dict(self.counts),
            "reports": self.reports,
            "reports_failed": self.reports_failed,
        }


def layer_totals(dump: dict) -> dict[str, float]:
    """Per-layer `<stem>.calls` and `<stem>.self_s` from a Tracer dump."""
    names, spans = dump["names"], dump["spans"]
    child_time = [0.0] * len(spans)
    for name_id, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for stem in names:
        totals[f"{stem}.calls"] = 0
        totals[f"{stem}.self_s"] = 0.0
    for (name_id, start, end, _), inner in zip(spans, child_time):
        stem = names[name_id]
        totals[f"{stem}.calls"] += 1
        totals[f"{stem}.self_s"] += (end - start) - inner
    for stem, n in dump["counts"].items():
        totals[f"{stem}.calls"] = n
    for module, func, stem, kind in LAYERS:
        if kind == "count":
            totals.setdefault(f"{stem}.calls", 0)
    totals["verify.reports"] = dump["reports"]
    totals["verify.reports_failed"] = dump["reports_failed"]
    return totals
