"""Shared independent oracles for the test suite.

Everything here is deliberately independent of the package's own
recurrences: Poisson masses come from exact integer factorials, compound
tables from explicit convolution of component tables, and goodness-of-fit
p-values from scipy's chi-square survival function.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from scipy.stats import chi2

from hermite_counts import CountHistogram, HermiteParams, fit_mle

# Property tests replay the same examples on every run; a test sets only
# its max_examples.
settings.register_profile(
    "tier1", derandomize=True, database=None, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("tier1")


def poisson_pmf_exact(lam: float, k: int) -> float:
    """Closed-form Poisson mass with an exact integer factorial."""
    return math.exp(-lam) * lam**k / math.factorial(k)


def poisson_table_exact(lam: float, k_max: int) -> np.ndarray:
    return np.array([poisson_pmf_exact(lam, k) for k in range(k_max + 1)])


def scaled_poisson_convolution(a, component_tail=1e-14) -> np.ndarray:
    """Brute-force law of sum_i i*X_i by convolving the component tables.

    Each Poisson component is tabulated until its own tail is below
    ``component_tail`` and spread onto multiples of its index; components
    are then convolved directly.  Entrywise truncation error is bounded by
    the sum of the component tails.
    """
    result = np.ones(1)
    for i, rate in enumerate(a, start=1):
        if rate == 0.0:
            continue
        terms = [poisson_pmf_exact(rate, 0)]
        while 1.0 - math.fsum(terms) >= component_tail:
            terms.append(terms[-1] * rate / len(terms))
        component = np.zeros(i * (len(terms) - 1) + 1)
        component[::i] = terms
        result = np.convolve(result, component)
    return result


def gof_pvalue(values, probs: np.ndarray, min_expected: float = 5.0) -> float:
    """Pearson chi-square goodness-of-fit p-value against a full pmf vector.

    ``probs`` must cover essentially all mass (tail folded into the last
    bin); adjacent bins are pooled left to right until each expected count
    reaches ``min_expected``.
    """
    values = np.asarray(values)
    n = len(values)
    k_max = len(probs) - 1
    observed = np.bincount(np.minimum(values, k_max), minlength=k_max + 1).astype(float)
    expected = n * np.asarray(probs, dtype=float)
    expected[k_max] += n * max(0.0, 1.0 - float(np.sum(probs)))

    pooled_obs, pooled_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0 or acc_o > 0:
        if pooled_exp:
            pooled_obs[-1] += acc_o
            pooled_exp[-1] += acc_e
        else:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
    pooled_obs = np.array(pooled_obs)
    pooled_exp = np.array(pooled_exp)
    if len(pooled_exp) < 2:
        return 1.0
    stat = float(np.sum((pooled_obs - pooled_exp) ** 2 / pooled_exp))
    return float(chi2.sf(stat, len(pooled_exp) - 1))


def random_params(rng: np.random.Generator, r_max: int = 4, hi: float = 3.0) -> HermiteParams:
    r = int(rng.integers(1, r_max + 1))
    return HermiteParams(tuple(rng.uniform(0.0, hi, size=r)))


def fit_both_orders(values) -> tuple:
    hist = CountHistogram.from_observations(values)
    return fit_mle(hist, 1), fit_mle(hist, 2)


@pytest.fixture
def np_rng():
    return np.random.default_rng(20260811)
