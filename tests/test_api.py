"""The public API: growing or shrinking it must show up as an edit here."""

import hermite_counts

#: The 46 exported names, sorted.
PUBLIC_NAMES = [
    "CountHistogram",
    "CumulantSummary",
    "DataError",
    "DomainError",
    "FactorialCumulants",
    "FitResult",
    "HermiteError",
    "HermiteParams",
    "IterationCap",
    "OverflowGuard",
    "PmfTable",
    "SampleBatch",
    "SelectionTrace",
    "SplitMix64",
    "ThinningInvariants",
    "adaptive_pmf",
    "add_params",
    "alternating_geometric_pgf_values",
    "alternating_geometric_pmf",
    "convolve_pmf_oracle",
    "doubled_poisson_pmf",
    "factorial_cumulants_to_params",
    "factorial_moments_to_cumulants",
    "fit_mle",
    "fit_moments",
    "has_zero_gap",
    "hermite2_from_mean_variance",
    "log_likelihood",
    "loglik_gradient",
    "lrt_pvalue",
    "lrt_statistic",
    "negative_binomial_pmf",
    "ordinary_cumulants",
    "params_to_factorial_cumulants",
    "pgf_eval",
    "pmf_table",
    "run_verification",
    "sample_factorial_moments",
    "sample_hermite",
    "sample_poisson",
    "select_order",
    "thin_factorial_cumulants",
    "thin_params",
    "thin_pmf_oracle",
    "thin_sample",
    "thinning_invariants",
]


def test_all_is_pinned():
    assert sorted(hermite_counts.__all__) == PUBLIC_NAMES
