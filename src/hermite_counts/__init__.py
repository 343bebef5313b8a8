"""rth-order Hermite count distributions.

The family with probability generating function exp(sum_i a_i (t**i - 1)),
a_i >= 0, is the one closed under both addition of independent variables
and binomial subsampling.  This package provides exact pmfs, conversions
between the coefficient / factorial-cumulant / summary parameterizations,
thinning and convolution in parameter space with distribution-level
oracles, reproducible sampling, maximum-likelihood fitting, and order
selection with the boundary-corrected likelihood-ratio test.

numpy is imported only inside the functions that use it, so importing the
package, fitting and selecting start without it.
"""

from .data import CountHistogram
from .errors import DataError, DomainError, HermiteError, IterationCap, OverflowGuard
from .estimation import (
    FitResult,
    factorial_moments_to_cumulants,
    fit_mle,
    fit_moments,
    sample_factorial_moments,
)
from .model import (
    CumulantSummary,
    FactorialCumulants,
    HermiteParams,
    ThinningInvariants,
    factorial_cumulants_to_params,
    hermite2_from_mean_variance,
    ordinary_cumulants,
    params_to_factorial_cumulants,
    pgf_eval,
    thinning_invariants,
)
from .pmf import PmfTable, adaptive_pmf, log_likelihood, loglik_gradient, pmf_table
from .reference import (
    alternating_geometric_pgf_values,
    alternating_geometric_pmf,
    doubled_poisson_pmf,
    has_zero_gap,
    negative_binomial_pmf,
    run_verification,
)
from .sampling import SampleBatch, SplitMix64, sample_hermite, sample_poisson, thin_sample
from .selection import SelectionTrace, lrt_pvalue, lrt_statistic, select_order
from .transform import (
    add_params,
    convolve_pmf_oracle,
    thin_factorial_cumulants,
    thin_params,
    thin_pmf_oracle,
)

__version__ = "0.1.0"

__all__ = [
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
