"""Bit identity of the likelihood kernel.

The four-local recurrence step of ``pmf._scaled_pmf`` must give the bits of
its general loop, and ``pmf._loglik`` and ``pmf._gradient`` those of a
per-bin reference kept here; a golden digest pins the fits built on them,
and another the histograms, fits and chosen orders of the mc-calibration
benchmark's first replicates.

Run as a script to check every fit of the select-wide benchmark pool and
print one line per histogram:

    PYTHONPATH=src python tests/test_bit_identity.py
"""

import hashlib
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hermite_counts import CountHistogram, HermiteParams, loglik_gradient, pmf, sample_hermite, select_order
from hermite_counts.estimation import DEFAULT_MAX_ITER, DEFAULT_TOL, _ladder

#: The models of perfbench/workloads.py's select-wide pool.
SELECT_WIDE_PALETTE = ((1.0, 0.5), (4.0, 2.0), (2.0, 0.0, 1.0), (6.0, 3.0, 1.5), (12.0, 5.0), (20.0, 8.0, 3.0))

#: SHA-256 over repr((params.a, loglik, iterations, grad_norm)) of every rung
#: of _ladder(hist, 4) on the histograms of test_golden_fit_digest, as the
#: per-bin likelihood and the general recurrence loop computed them.
GOLDEN_FITS = "e957110dd4201575819501a6fe21ca3a01a72b5b58fb98ee1bb9d1c0f942fe96"

#: SHA-256 over the first 100 replicates of perfbench/workloads.py's
#: mc-calibration at seed 0 (10**4 draws at a=(2,) for even replicate
#: numbers, a=(1, 1) for odd, at stream seed = the replicate number): each
#: one's histogram bins and chosen order of select_order(hist, 3, 0.05), then
#: repr((params.a, loglik, iterations, grad_norm, converged)) of every fit.
GOLDEN_REPLICATES = "774df7e6d1f8e06ae3a48961e88338ba5fdb8cdac7e7a5a45395cccc7cceaec3"


def general_scaled_pmf(a, k_max):
    """``pmf._scaled_pmf`` by its general loop, whatever the order of ``a``."""
    saved, pmf._LOCAL_ORDER = pmf._LOCAL_ORDER, 0
    try:
        return pmf._scaled_pmf(a, k_max)
    finally:
        pmf._LOCAL_ORDER = saved


def per_bin_loglik(m, e, hist):
    """sum_k n_k log p_k bin by bin, -inf at the first observed zero."""
    terms = []
    for count, freq in hist.bins:
        if m[count] <= 0.0:
            return -math.inf
        terms.append(freq * (math.log(m[count]) + e[count] * pmf._LN2_HI + e[count] * pmf._LN2_LO))
    return math.fsum(terms)


def per_bin_gradient(m, e, hist, r):
    """fsum_k n_k (p_{k-j}/p_k - 1) bin by bin for j = 1..r, with p_{k-j} = 0 for k < j."""
    return [
        math.fsum(
            freq * ((math.ldexp(m[c - j] / m[c], e[c - j] - e[c]) if c >= j else 0.0) - 1.0) for c, freq in hist.bins
        )
        for j in range(1, r + 1)
    ]


def same_bits(x, y) -> bool:
    # repr tells -0.0 from 0.0 and prints every float exactly
    return repr(x) == repr(y)


coefficients = st.one_of(
    st.just(0.0), st.just(-0.0), st.floats(0.0, 40.0), st.floats(-300.0, 3.5).map(lambda x: 10.0**x)
)


@settings(max_examples=200)
@given(a=st.lists(coefficients, min_size=1, max_size=4), k_max=st.integers(0, 300))
# the exponent-shift paths: total rates above 708, gaps, and tiny coefficients
@example(a=[3e5, 1e5], k_max=30_000)
@example(a=[0.0, 2.5e5], k_max=30_000)
@example(a=[1e-300, 0.0, 5.0], k_max=30_000)
@example(a=[800.0, 0.0, 0.0, 2.0], k_max=30_000)
@example(a=[0.0, 0.0, 0.0, 1e-200], k_max=30_000)
@example(a=[1e-300] * 4, k_max=300)
@example(a=[-0.0] * 4, k_max=8)
def test_four_local_step_matches_the_general_loop(a, k_max):
    assert same_bits(pmf._scaled_pmf(a, k_max), general_scaled_pmf(a, k_max))


@settings(max_examples=100)
@given(
    a=st.lists(st.one_of(st.just(0.0), st.floats(-3.0, 3.2).map(lambda x: 10.0**x)), min_size=1, max_size=4),
    bins=st.dictionaries(st.integers(0, 1500), st.integers(1, 10**6), min_size=1, max_size=12),
    r=st.integers(1, 6),
)
@example(a=[0.0, 2.0], bins={0: 3, 1: 1, 4: 2}, r=2)  # p_1 = 0 is observed
@example(a=[1.0, 0.5], bins={0: 5, 2: 7, 9: 1}, r=5)  # no exponent shift
@example(a=[900.0], bins={850: 4, 900: 10, 1000: 1}, r=3)  # every exponent shifted
def test_loglik_and_gradient_match_the_per_bin_reference(a, bins, r):
    hist = CountHistogram.from_mapping(bins)
    loglik, (m, e) = pmf._loglik(a, hist)
    assert same_bits(loglik, per_bin_loglik(m, e, hist))
    if loglik > -math.inf:
        assert same_bits(pmf._gradient(m, e, hist, pmf._gradient_parts(hist, r)), per_bin_gradient(m, e, hist, r))


def test_golden_fit_digest():
    digest = hashlib.sha256()
    for seed, a in enumerate(SELECT_WIDE_PALETTE, start=1):
        hist = CountHistogram.from_observations(sample_hermite(HermiteParams(a), 2_000, seed).values)
        for fit in _ladder(hist, 4, DEFAULT_TOL, DEFAULT_MAX_ITER):
            digest.update(repr((fit.params.a, fit.loglik, fit.iterations, fit.grad_norm)).encode())
    assert digest.hexdigest() == GOLDEN_FITS


def test_golden_replicate_digest():
    digest = hashlib.sha256()
    models = (HermiteParams((2.0,)), HermiteParams((1.0, 1.0)))
    for rep in range(100):
        hist = CountHistogram.from_observations(sample_hermite(models[rep % 2], 10_000, rep).values)
        trace = select_order(hist, 3, 0.05)
        digest.update(repr((hist.bins, trace.chosen_order)).encode())
        for fit in trace.fits:
            digest.update(repr((fit.params.a, fit.loglik, fit.iterations, fit.grad_norm, fit.converged)).encode())
    assert digest.hexdigest() == GOLDEN_REPLICATES


def select_wide_pool():
    """The select-wide benchmark's histograms: 20,000 numpy draws of each palette model."""
    for index, a in enumerate(SELECT_WIDE_PALETTE):
        rng = np.random.default_rng([20070831, index])
        draws = sum(i * rng.poisson(rate, 20_000) for i, rate in enumerate(a, start=1))
        counts, freqs = np.unique(draws, return_counts=True)
        yield CountHistogram(tuple(zip(counts.tolist(), freqs.tolist())))


def check_pool_fits():
    """(histogram, fits, mismatches) for each pool histogram climbed to order 4.

    At every fit the table must match the general loop, the loglik the
    per-bin reference and the fit's own loglik, and both gradients (the
    ascent's and loglik_gradient) the per-bin reference.
    """
    rows = []
    for hist in select_wide_pool():
        fits = list(_ladder(hist, 4, DEFAULT_TOL, DEFAULT_MAX_ITER))
        mismatches = 0
        for fit in fits:
            a, r = fit.params.a, fit.params.order
            loglik, (m, e) = pmf._loglik(a, hist)
            reference = per_bin_gradient(m, e, hist, r)
            checks = (
                same_bits((m, e), general_scaled_pmf(a, hist.max_count)),
                same_bits(loglik, per_bin_loglik(m, e, hist)) and same_bits(loglik, fit.loglik),
                same_bits(pmf._gradient(m, e, hist, pmf._gradient_parts(hist, r)), reference),
                same_bits(loglik_gradient(fit.params, hist).tolist(), reference),
            )
            mismatches += checks.count(False)
        rows.append((hist, fits, mismatches))
    return rows


def test_select_wide_pool_fits_are_bit_identical():
    assert [mismatches for _, _, mismatches in check_pool_fits()] == [0] * len(SELECT_WIDE_PALETTE)


if __name__ == "__main__":
    total = 0
    for (hist, fits, mismatches), a in zip(check_pool_fits(), SELECT_WIDE_PALETTE):
        total += mismatches
        print(f"a={a}: {len(hist.bins)} bins up to {hist.max_count}, {len(fits)} fits, {mismatches} mismatches")
    print("bit-identical" if total == 0 else f"{total} MISMATCHES")
    raise SystemExit(total != 0)
