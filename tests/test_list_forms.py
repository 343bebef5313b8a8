"""The pmf and verify paths on lists of floats give the bits of their array forms.

``pmf_table``, ``adaptive_pmf``, ``thin_pmf_oracle``, the reference laws and
``has_zero_gap`` work on tuples and lists of floats, so that ``pmf`` and
``verify`` never load numpy.  Each is checked here against a numpy
transcription of the array code it replaced, on random inputs: the same IEEE
operations in the same order must give the same bits, compared as bytes
(so 0.0 and -0.0 differ).
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hermite_counts import (
    HermiteParams,
    PmfTable,
    adaptive_pmf,
    has_zero_gap,
    negative_binomial_pmf,
    pmf_table,
    thin_pmf_oracle,
)
from hermite_counts.pmf import _scaled_pmf

from conftest import random_params


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def array_pmf_table(params: HermiteParams, k_max: int) -> np.ndarray:
    m, e = _scaled_pmf(params.a, k_max)
    return np.ldexp(m, np.maximum(np.array(e, dtype=float), -2000.0).astype(np.int64))


def array_adaptive_cut(params: HermiteParams, eps: float) -> int:
    """The k_max adaptive_pmf's array form cut at, from the same doubling tables."""
    size = 64
    while True:
        table = PmfTable(array_pmf_table(params, size))
        if table.tail_mass < eps:
            break
        size *= 2
    beyond = np.append(np.cumsum(table.probs[:0:-1])[::-1], 0.0)
    k = int(np.argmax(table.tail_mass + beyond < eps))
    while k > 0 and table.truncate(k - 1).tail_mass < eps:
        k -= 1
    while table.truncate(k).tail_mass >= eps:
        k += 1
    return k


def array_thin(probs: np.ndarray, p: float) -> np.ndarray:
    q = 1.0 - p
    out = np.zeros(len(probs))
    out[0] = probs[-1]
    for n in range(len(probs) - 2, -1, -1):
        top = len(probs) - n
        out[1:top] = q * out[1:top] + p * out[: top - 1]
        out[0] = q * out[0] + probs[n]
    return out


def array_negative_binomial(mean: float, eta1: float, k_max: int) -> np.ndarray:
    odds = mean * eta1
    ratio, ratio_shape = odds / (1.0 + odds), mean / (1.0 + odds)
    probs = np.empty(k_max + 1)
    probs[0] = math.exp(-mean * (math.log1p(odds) / odds if odds > 0.0 else 1.0))
    for k in range(k_max):
        probs[k + 1] = probs[k] * (ratio_shape + ratio * k) / (k + 1.0)
    return probs


def test_pmf_table_matches_the_array_ldexp(np_rng):
    # rates up to 1e4 shift the exponents far from zero
    models = [random_params(np_rng, r_max=5, hi=3.0) for _ in range(40)]
    models += [HermiteParams((800.0,)), HermiteParams((600.0, 50.0)), HermiteParams((1e4, 0.0, 20.0))]
    for params in models:
        k_max = int(np_rng.integers(0, 3000))
        assert bits(pmf_table(params, k_max).entries) == bits(array_pmf_table(params, k_max))


@settings(max_examples=60, deadline=None)
@given(
    a=st.lists(st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0**e)), min_size=1, max_size=4),
    eps=st.floats(-13.0, -1.0).map(lambda e: 10.0**e),
)
def test_adaptive_cut_matches_the_array_cumsum(a, eps):
    params = HermiteParams(tuple(a))
    table = adaptive_pmf(params, eps)
    assert table.k_max == array_adaptive_cut(params, eps)
    assert bits(table.entries) == bits(array_pmf_table(params, table.k_max))


def test_thinning_oracle_matches_the_array_horner_step(np_rng):
    for _ in range(60):
        size = int(np_rng.integers(1, 400))
        probs = np_rng.exponential(size=size) * np_rng.integers(0, 2, size=size)
        table = PmfTable(probs / max(probs.sum(), 1.0) * np_rng.uniform(0.5, 1.0))
        for p in (float(np_rng.uniform(1e-6, 1.0)), 1e-3, 0.5, 0.999):
            assert bits(thin_pmf_oracle(table, p).entries) == bits(array_thin(table.probs, p))


def test_negative_binomial_matches_the_array_ratio_recurrence(np_rng):
    for _ in range(30):
        mean, eta1 = float(np_rng.uniform(0.01, 20.0)), float(10.0 ** np_rng.uniform(-8.0, 1.0))
        k_max = int(np_rng.integers(0, 500))
        want = array_negative_binomial(mean, eta1, k_max)
        assert bits(negative_binomial_pmf(mean, eta1, k_max).entries) == bits(want)


def test_zero_gap_matches_the_array_test(np_rng):
    for _ in range(200):
        size = int(np_rng.integers(1, 12))
        probs = np_rng.uniform(size=size) * np_rng.integers(0, 2, size=size) / size
        positive = np.nonzero(probs > 0.0)[0]
        want = positive.size > 0 and bool(np.any(probs[: positive[-1]] == 0.0))
        assert has_zero_gap(PmfTable(probs)) is want
