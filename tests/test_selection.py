"""Likelihood-ratio arithmetic, the boundary-mixture p-value, and the ladder."""

import numpy as np
import pytest
from scipy.stats import chi2

from hermite_counts import (
    CountHistogram,
    DataError,
    DomainError,
    HermiteParams,
    OverflowGuard,
    fit_mle,
    lrt_pvalue,
    lrt_statistic,
    sample_hermite,
    select_order,
)
from hermite_counts.estimation import DEFAULT_MAX_ITER, DEFAULT_TOL, _ladder


class TestLrtStatistic:
    def test_equal_likelihoods(self):
        assert lrt_statistic(-50.0, -50.0) == 0.0

    def test_arithmetic(self):
        assert lrt_statistic(-100.0, -101.353) == pytest.approx(2.706, rel=1e-12)

    def test_negative_raw_clamps(self):
        assert lrt_statistic(-101.0, -100.0) == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            lrt_statistic(float("-inf"), -1.0)

    def test_overflowing_statistic_raises_overflow_guard(self):
        # 2*(1e308 + 4) was returned as inf, which lrt_pvalue then refused
        with pytest.raises(OverflowGuard, match=r"loglik_full = 1e\+308, loglik_null = -4\.0"):
            lrt_statistic(1e308, -4.0)
        with pytest.raises(OverflowGuard, match=r"loglik_full = -3\.5, loglik_null = -1e\+308"):
            lrt_statistic(-3.5, -1e308)
        assert lrt_statistic(4e307, -4e307) == 1.6e308

    def test_nested_fits_never_meaningfully_negative(self, np_rng):
        # the order-(r+1) feasible set contains the order-r one
        for seed in range(12):
            truth = HermiteParams(tuple(np_rng.uniform(0.3, 2.0, size=2)))
            batch = sample_hermite(truth, 2_000, seed=500 + seed)
            hist = CountHistogram.from_observations(batch.values)
            raw = 2.0 * (fit_mle(hist, 3).loglik - fit_mle(hist, 2).loglik)
            assert raw >= -1e-6


class TestLrtPvalue:
    def test_atom_at_zero(self):
        assert lrt_pvalue(0.0) == 1.0

    def test_halved_chi_square_tail_points(self):
        assert lrt_pvalue(2.706) == pytest.approx(0.05, abs=1e-4)
        assert lrt_pvalue(3.841) == pytest.approx(0.025, abs=1e-4)

    def test_matches_scipy_half_survival(self):
        for d in (0.01, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0):
            assert lrt_pvalue(d) == pytest.approx(0.5 * chi2.sf(d, 1), rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            lrt_pvalue(-0.1)

    def test_strictly_decreasing_and_continuous(self):
        grid = np.geomspace(1e-12, 60.0, 4000)
        values = np.array([lrt_pvalue(float(d)) for d in grid])
        assert np.all(np.diff(values) < 0.0)
        # approaches the mixture weight 0.5 from below the atom
        assert lrt_pvalue(1e-14) == pytest.approx(0.5, abs=1e-7)


class TestSelectOrder:
    def test_poisson_data_picks_order_one(self):
        batch = sample_hermite(HermiteParams((2.0,)), 10_000, seed=50_003)
        hist = CountHistogram.from_observations(batch.values)
        trace = select_order(hist, 3, 0.05)
        assert trace.chosen_order == 1
        assert trace.steps[0].rejected is False

    def test_order_two_data_picks_order_two(self):
        batch = sample_hermite(HermiteParams((1.0, 1.0)), 10_000, seed=110_001)
        hist = CountHistogram.from_observations(batch.values)
        trace = select_order(hist, 3, 0.05)
        assert trace.chosen_order == 2

    def test_degenerate_data_propagates(self):
        hist = CountHistogram.from_mapping({0: 100})
        with pytest.raises(DataError):
            select_order(hist, 2, 0.05)

    def test_bad_alpha(self):
        hist = CountHistogram.from_mapping({0: 5, 1: 5})
        for alpha in (0.0, 1.0, -0.2):
            with pytest.raises(DomainError):
                select_order(hist, 2, alpha)

    def test_r_max_below_one(self):
        with pytest.raises(DomainError):
            select_order(CountHistogram.from_mapping({0: 5, 1: 5}), 0, 0.05)

    def test_r_max_one_fits_only_base(self):
        batch = sample_hermite(HermiteParams((2.0,)), 1_000, seed=5)
        hist = CountHistogram.from_observations(batch.values)
        trace = select_order(hist, 1, 0.05)
        assert trace.chosen_order == 1
        assert trace.steps == ()
        assert len(trace.fits) == 1

    def test_trace_is_deterministic(self):
        batch = sample_hermite(HermiteParams((1.0, 0.5)), 5_000, seed=17)
        hist = CountHistogram.from_observations(batch.values)
        first = select_order(hist, 3, 0.05)
        second = select_order(hist, 3, 0.05)
        assert first == second

    def test_statistics_clamped_non_negative(self):
        batch = sample_hermite(HermiteParams((2.0,)), 5_000, seed=19)
        hist = CountHistogram.from_observations(batch.values)
        trace = select_order(hist, 4, 0.5)
        assert all(step.statistic >= 0.0 for step in trace.steps)


class TestMixtureCalibration:
    def test_null_statistic_matches_the_mixture(self):
        # truth is order 1; the order-2 test statistic should put roughly
        # half its mass on the atom at zero and track chi-square(1) above it
        stats = []
        for rep in range(500):
            batch = sample_hermite(HermiteParams((2.0,)), 10_000, seed=220_000 + rep)
            hist = CountHistogram.from_observations(batch.values)
            d = lrt_statistic(fit_mle(hist, 2).loglik, fit_mle(hist, 1).loglik)
            stats.append(d)
        stats = np.array(stats)
        zero_fraction = float(np.mean(stats == 0.0))
        assert 0.42 <= zero_fraction <= 0.58
        positive = stats[stats > 0.0]
        # chi-square(1): median 0.455, upper decile point 2.706
        assert abs(float(np.median(positive)) - 0.455) < 0.15
        assert abs(float(np.mean(positive <= 2.706)) - 0.90) < 0.06


def _ladder_histograms():
    truths = [(2.0,), (1.0, 0.5), (1.0, 0.5, 0.25), (0.5, 0.0, 0.4), (0.0, 1.0)]
    for seed in range(40):
        batch = sample_hermite(HermiteParams(truths[seed % 5]), 2_000, seed=900 + seed)
        yield CountHistogram.from_observations(batch.values)
    # the far-outlier data of the CLI tests: 4,999 draws plus one count
    base = sample_hermite(HermiteParams((1.0, 0.5)), 4_999, seed=8).values
    for outlier in (1000, 20000):
        yield CountHistogram.from_observations(list(base) + [outlier])


@pytest.fixture(scope="module")
def ladders():
    """(histogram, one climb of orders 1..4, select_order(r_max=4, alpha=0.5)) per histogram."""
    return [
        (hist, list(_ladder(hist, 4, DEFAULT_TOL, DEFAULT_MAX_ITER)), select_order(hist, 4, 0.5))
        for hist in _ladder_histograms()
    ]


class TestLadder:
    def test_fit_mle_returns_the_top_rung(self, ladders):
        hist, fits, _ = ladders[-2]  # the outlier of 1000
        assert fits[-1].iterations > 0
        assert fit_mle(hist, 4) == fits[-1]

    def test_loglik_never_falls_with_the_order(self, ladders):
        # each rung starts at the previous fit with a zero appended, and the
        # line search accepts no decrease, so this holds exactly
        for _, fits, _ in ladders:
            for lower, upper in zip(fits, fits[1:]):
                assert upper.loglik >= lower.loglik

    def test_selection_reads_the_same_fits(self, ladders):
        for _, fits, trace in ladders:
            assert trace.fits == tuple(fits[: len(trace.fits)])

    def test_a_rung_that_stays_at_its_start_hits_the_atom(self, ladders):
        still = 0
        for _, _, trace in ladders:
            for step in trace.steps:
                if trace.fit_for(step.alt_order).iterations == 0:
                    still += 1
                    assert step.statistic == 0.0
                    assert step.p_value == 1.0
        assert still > 0
