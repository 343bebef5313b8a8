"""rth-order Hermite count distributions.

The family with probability generating function exp(sum_i a_i (t**i - 1)),
a_i >= 0, is the one closed under both addition of independent variables
and binomial subsampling.  This package provides exact pmfs, conversions
between the coefficient / factorial-cumulant / summary parameterizations,
thinning and convolution in parameter space with distribution-level
oracles, reproducible sampling, maximum-likelihood fitting, and order
selection with the boundary-corrected likelihood-ratio test.

Importing the package loads none of its modules: each public name, and each
module named in ``_NAMES``, is imported on first access (PEP 562), so a
command line child loads only the modules its command uses.  numpy is
likewise imported only inside the functions that use it.
"""

import importlib

__version__ = "0.1.0"

#: The public names, by the module that defines them.
_NAMES = {
    "data": ("CountHistogram",),
    "errors": ("DataError", "DomainError", "HermiteError", "IterationCap", "OverflowGuard"),
    "estimation": (
        "FitResult",
        "factorial_moments_to_cumulants",
        "fit_mle",
        "fit_moments",
        "sample_factorial_moments",
    ),
    "model": (
        "CumulantSummary",
        "FactorialCumulants",
        "HermiteParams",
        "ThinningInvariants",
        "factorial_cumulants_to_params",
        "hermite2_from_mean_variance",
        "ordinary_cumulants",
        "params_to_factorial_cumulants",
        "pgf_eval",
        "thinning_invariants",
    ),
    "pmf": ("PmfTable", "adaptive_pmf", "log_likelihood", "loglik_gradient", "pmf_table"),
    "reference": (
        "alternating_geometric_pgf_values",
        "alternating_geometric_pmf",
        "doubled_poisson_pmf",
        "has_zero_gap",
        "negative_binomial_pmf",
        "run_verification",
    ),
    "sampling": ("SampleBatch", "SplitMix64", "sample_hermite", "sample_poisson", "thin_sample"),
    "selection": ("SelectionTrace", "lrt_pvalue", "lrt_statistic", "select_order"),
    "transform": (
        "add_params",
        "convolve_pmf_oracle",
        "thin_factorial_cumulants",
        "thin_params",
        "thin_pmf_oracle",
    ),
}

_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    """Import the module behind ``name`` on first access; keep public names
    in the package namespace, so later lookups do not come back here."""
    if name in _NAMES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
