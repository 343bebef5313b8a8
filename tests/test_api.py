"""The public API: growing or shrinking it must show up as an edit here."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

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


#: str(inspect.signature(obj)) of every exported name; None for the error
#: classes, which take an exception's arguments and have no signature of
#: their own.  A parameter added or dropped shows up as an edit here.
SIGNATURES = {
    "CountHistogram": "(bins: 'tuple[tuple[int, int], ...]') -> None",
    "CumulantSummary": "(mean: 'float', variance: 'float', kappa3: 'float', kappa4: 'float') -> None",
    "DataError": None,
    "DomainError": None,
    "FactorialCumulants": "(kappa: 'tuple[float, ...]') -> None",
    "FitResult": (
        "(params: 'HermiteParams', loglik: 'float', converged: 'bool', "
        "iterations: 'int', grad_norm: 'float', init: 'HermiteParams') -> None"
    ),
    "HermiteError": None,
    "HermiteParams": "(a: 'tuple[float, ...]') -> None",
    "IterationCap": None,
    "OverflowGuard": None,
    "PmfTable": "(probs: 'np.ndarray') -> None",
    "SampleBatch": "(values: 'tuple[int, ...]', seed: 'int') -> None",
    "SelectionTrace": (
        "(alpha: 'float', r_max: 'int', chosen_order: 'int', "
        "fits: 'tuple[FitResult, ...]', steps: 'tuple[LadderStep, ...]') -> None"
    ),
    "SplitMix64": "(seed: 'int') -> 'None'",
    "ThinningInvariants": "(eta: 'tuple[float, float, float]') -> None",
    "adaptive_pmf": "(params: 'HermiteParams', eps: 'float') -> 'PmfTable'",
    "add_params": "(first: 'HermiteParams', second: 'HermiteParams') -> 'HermiteParams'",
    "alternating_geometric_pgf_values": "(p: 'float', t: 'float') -> 'tuple[float, float]'",
    "alternating_geometric_pmf": "(p: 'float', k_max: 'int') -> 'PmfTable'",
    "convolve_pmf_oracle": "(first: 'PmfTable', second: 'PmfTable') -> 'PmfTable'",
    "doubled_poisson_pmf": "(eta1: 'float', k_max: 'int') -> 'PmfTable'",
    "factorial_cumulants_to_params": "(cumulants: 'FactorialCumulants') -> 'HermiteParams'",
    "factorial_moments_to_cumulants": "(moments: 'tuple[float, ...]') -> 'FactorialCumulants'",
    "fit_mle": (
        "(hist: 'CountHistogram', r: 'int', *, tol: 'float' = 1e-08, "
        "max_iter: 'int' = 10000) -> 'FitResult'"
    ),
    "fit_moments": "(hist: 'CountHistogram', r: 'int') -> 'HermiteParams'",
    "has_zero_gap": "(table: 'PmfTable') -> 'bool'",
    "hermite2_from_mean_variance": "(mean: 'float', variance: 'float') -> 'HermiteParams'",
    "log_likelihood": "(params: 'HermiteParams', hist: 'CountHistogram') -> 'float'",
    "loglik_gradient": "(params: 'HermiteParams', hist: 'CountHistogram') -> 'np.ndarray'",
    "lrt_pvalue": "(statistic: 'float') -> 'float'",
    "lrt_statistic": "(loglik_full: 'float', loglik_null: 'float') -> 'float'",
    "negative_binomial_pmf": "(mean: 'float', eta1: 'float', k_max: 'int') -> 'PmfTable'",
    "ordinary_cumulants": "(params: 'HermiteParams') -> 'CumulantSummary'",
    "params_to_factorial_cumulants": "(params: 'HermiteParams') -> 'FactorialCumulants'",
    "pgf_eval": "(params: 'HermiteParams', t: 'float') -> 'float'",
    "pmf_table": "(params: 'HermiteParams', k_max: 'int') -> 'PmfTable'",
    "run_verification": "() -> 'list[CheckResult]'",
    "sample_factorial_moments": "(hist: 'CountHistogram', r: 'int') -> 'tuple[float, ...]'",
    "sample_hermite": "(params: 'HermiteParams', n: 'int', seed: 'int') -> 'SampleBatch'",
    "sample_poisson": "(rate: 'float', rng: 'SplitMix64') -> 'int'",
    "select_order": (
        "(hist: 'CountHistogram', r_max: 'int', alpha: 'float', *, tol: 'float' = 1e-08, "
        "max_iter: 'int' = 10000) -> 'SelectionTrace'"
    ),
    "thin_factorial_cumulants": "(cumulants: 'FactorialCumulants', p: 'float') -> 'FactorialCumulants'",
    "thin_params": "(params: 'HermiteParams', p: 'float') -> 'HermiteParams'",
    "thin_pmf_oracle": "(table: 'PmfTable', p: 'float') -> 'PmfTable'",
    "thin_sample": "(batch: 'SampleBatch', p: 'float', seed: 'int') -> 'SampleBatch'",
    "thinning_invariants": "(summary: 'CumulantSummary') -> 'ThinningInvariants'",
}


def signature(obj):
    try:
        return str(inspect.signature(obj))
    except ValueError:  # a class built on a builtin exception
        return None


def test_signatures_are_pinned():
    assert {name: signature(getattr(hermite_counts, name)) for name in hermite_counts.__all__} == SIGNATURES


#: The package's modules that resolve as its attributes, such as
#: ``hermite_counts.sampling``, without an import of their own.
SUBMODULES = ["data", "errors", "estimation", "model", "pmf", "reference", "sampling", "selection", "transform"]

#: Run in a fresh interpreter, where no name has been looked up yet: checks
#: the lazily filled package namespace and prints what it found as JSON.
LAZY_NAMESPACE = """
import json, sys
import hermite_counts as hc
facts = {"missing from dir": sorted(set(hc.__all__) - set(dir(hc)))}
facts["not their module's object"] = [
    name for name in hc.__all__
    if getattr(sys.modules[getattr(hc, name).__module__], name) is not getattr(hc, name)
]
facts["submodules"] = [
    name for name in json.loads(sys.argv[1]) if getattr(hc, name) is sys.modules["hermite_counts." + name]
]
try:
    hc.no_such_name
    facts["unknown name"] = "resolved"
except AttributeError:
    facts["unknown name"] = "AttributeError"
namespace = {}
exec("from hermite_counts import *", namespace)
facts["star import"] = sorted(set(namespace) - {"__builtins__"})
print(json.dumps(facts))
"""


def test_lazy_namespace_resolves_every_public_name():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_NAMESPACE, json.dumps(SUBMODULES)], capture_output=True, env=env, check=False
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout) == {
        "missing from dir": [],
        "not their module's object": [],
        "submodules": SUBMODULES,
        "unknown name": "AttributeError",
        "star import": PUBLIC_NAMES,
    }
