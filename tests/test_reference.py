"""Reference families: doubled Poisson, negative binomial, alternating geometric."""

import math

import numpy as np
import pytest
from scipy.stats import nbinom

from hermite_counts import (
    DomainError,
    HermiteParams,
    PmfTable,
    alternating_geometric_pgf_values,
    alternating_geometric_pmf,
    doubled_poisson_pmf,
    has_zero_gap,
    hermite2_from_mean_variance,
    negative_binomial_pmf,
    pmf_table,
    run_verification,
    thin_pmf_oracle,
)
from hermite_counts import reference
from hermite_counts.reference import _NEGATIVE_BINOMIAL_LAWS, _alternating_geometric_base

from conftest import poisson_table_exact


class TestDoubledPoisson:
    def test_even_mass_matches_poisson(self):
        # eta1 = 0.25 puts Poisson(2) masses on the even integers
        table = doubled_poisson_pmf(0.25, 4)
        exact = poisson_table_exact(2.0, 2)
        np.testing.assert_allclose(table.probs[[0, 2, 4]], exact, rtol=1e-14)

    def test_odd_entries_exactly_zero(self):
        table = doubled_poisson_pmf(0.4, 31)
        assert np.all(table.probs[1::2] == 0.0)

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(DomainError):
            doubled_poisson_pmf(0.0, 10)

    def test_thinning_reproduces_order_two_family(self):
        # thinning with p = mean*eta1 lands exactly on the order-2 law
        for mu in (0.5, 1.0, 2.0):
            for eta1 in (0.1, 0.25, 0.5):
                p = mu * eta1
                if p > 1.0:
                    continue
                thinned = thin_pmf_oracle(doubled_poisson_pmf(eta1, 120), p)
                target = pmf_table(
                    hermite2_from_mean_variance(mu, mu + eta1 * mu**2), thinned.k_max
                )
                np.testing.assert_allclose(thinned.probs, target.probs, atol=1e-10)

    def test_concrete_chain(self):
        # eta1 = 0.25, p = 0.5 gives the running (1, 0.5) example
        thinned = thin_pmf_oracle(doubled_poisson_pmf(0.25, 80), 0.5)
        target = pmf_table(HermiteParams((1.0, 0.5)), thinned.k_max)
        np.testing.assert_allclose(thinned.probs, target.probs, atol=1e-10)


class TestNegativeBinomial:
    def test_geometric_special_case(self):
        table = negative_binomial_pmf(1.0, 1.0, 6)
        np.testing.assert_allclose(table.probs, [0.5**(k + 1) for k in range(7)], rtol=1e-14)

    def test_matches_scipy(self):
        for mu, eta1 in ((1.0, 1.0), (2.0, 0.5), (0.7, 0.3)):
            shape = 1.0 / eta1
            q = 1.0 / (1.0 + mu * eta1)
            table = negative_binomial_pmf(mu, eta1, 60)
            np.testing.assert_allclose(
                table.probs, nbinom.pmf(np.arange(61), shape, q), rtol=1e-10, atol=1e-300
            )

    def test_mean_matches(self):
        table = negative_binomial_pmf(2.0, 0.5, 300)
        assert table.truncated_mean() == pytest.approx(2.0, abs=1e-10)

    def test_thinning_stability(self):
        for mu, eta1 in ((1.0, 1.0), (2.0, 0.5), (0.7, 0.3)):
            full = negative_binomial_pmf(mu, eta1, 400)
            for p in (0.2, 0.5, 0.9):
                thinned = thin_pmf_oracle(full, p)
                target = negative_binomial_pmf(p * mu, eta1, thinned.k_max)
                np.testing.assert_allclose(thinned.probs, target.probs, atol=1e-10)

    @pytest.mark.parametrize("eta1", [1e-12, 1e-300])
    def test_poisson_limit_at_tiny_dispersion(self, eta1):
        # 1/(1 + mean*eta1) rounds to 1 here; the law must still tend to Poisson(mean)
        for mu in (0.5, 2.0, 7.0):
            table = negative_binomial_pmf(mu, eta1, 30)
            np.testing.assert_allclose(table.probs, poisson_table_exact(mu, 30), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("eta1", [1e-310, 1e-320])
    @pytest.mark.parametrize("mu", [1.7, 2.0])
    def test_poisson_limit_at_subnormal_dispersion(self, mu, eta1):
        # 1/eta1 overflows to inf here; the table must still be Poisson(mean)
        table = negative_binomial_pmf(mu, eta1, 30)
        np.testing.assert_allclose(table.probs, poisson_table_exact(mu, 30), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("mu, eta1", _NEGATIVE_BINOMIAL_LAWS)
    def test_verify_tables_leave_a_negligible_tail(self, mu, eta1):
        # verify tabulates these laws to entry 120: the mass beyond is < 1e-30
        entries = negative_binomial_pmf(mu, eta1, 2000).entries
        assert math.fsum(entries[121:]) < 1e-30

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            negative_binomial_pmf(0.0, 1.0, 5)
        with pytest.raises(DomainError):
            negative_binomial_pmf(1.0, -0.5, 5)


class TestAlternatingGeometric:
    def test_base_leading_entries(self):
        table = alternating_geometric_pmf(1.0, 3)
        np.testing.assert_allclose(
            table.probs, [2 / 7, 2 / 7, 2 / 21, 1 / 7], rtol=1e-14
        )

    def test_base_normalizes(self):
        base = _alternating_geometric_base()
        assert abs(1.0 - math.fsum(base.probs.tolist())) < 1e-12

    def test_mean_scales_linearly(self):
        for p in (0.3, 0.7, 1.0):
            table = alternating_geometric_pmf(p, 200)
            assert table.truncated_mean() == pytest.approx(15.0 * p / 7.0, abs=1e-8)

    def test_thinning_semigroup(self):
        for p, q in ((0.4, 0.5), (0.8, 0.9), (0.6, 0.25)):
            once = thin_pmf_oracle(alternating_geometric_pmf(p, 120), q)
            direct = alternating_geometric_pmf(p * q, once.k_max)
            np.testing.assert_allclose(once.probs, direct.probs, atol=1e-10)

    def test_pgf_closed_form_vs_series(self):
        for p in (0.5, 1.0):
            for t in (-1.0, -0.3, 0.0, 0.3, 0.9, 1.0):
                closed, series = alternating_geometric_pgf_values(p, t)
                assert closed == pytest.approx(series, abs=1e-10)

    def test_pgf_known_points(self):
        closed, series = alternating_geometric_pgf_values(1.0, 0.0)
        assert closed == pytest.approx(2.0 / 7.0, rel=1e-14)
        assert series == pytest.approx(2.0 / 7.0, rel=1e-12)
        closed, series = alternating_geometric_pgf_values(0.37, 1.0)
        assert closed == pytest.approx(1.0, rel=1e-12)
        assert series == pytest.approx(1.0, rel=1e-10)

    def test_rejects_bad_fraction(self):
        with pytest.raises(DomainError):
            alternating_geometric_pmf(0.0, 10)

    def test_pgf_rejects_nan_argument(self):
        with pytest.raises(DomainError):
            alternating_geometric_pgf_values(0.5, float("nan"))


@pytest.mark.parametrize(
    "build",
    [lambda k_max: doubled_poisson_pmf(0.25, k_max), lambda k_max: negative_binomial_pmf(2.0, 0.5, k_max)],
    ids=["doubled_poisson", "negative_binomial"],
)
def test_k_max_above_the_table_bound_rejected(monkeypatch, build):
    # checked before the k_max + 1 doubles are allocated
    import hermite_counts.pmf as pmf_mod

    monkeypatch.setattr(pmf_mod, "MAX_TABLE_LEN", 100)
    assert len(build(100)) == 101
    with pytest.raises(DomainError, match="k_max"):
        build(101)


@pytest.mark.parametrize(
    "build",
    [
        lambda k_max: doubled_poisson_pmf(0.25, k_max),
        lambda k_max: negative_binomial_pmf(2.0, 0.5, k_max),
        lambda k_max: alternating_geometric_pmf(0.5, k_max),
    ],
    ids=["doubled_poisson", "negative_binomial", "alternating_geometric"],
)
def test_fractional_k_max_rejected(build):
    with pytest.raises(DomainError, match="whole number"):
        build(3.5)
    assert len(build(np.int64(3))) == 4
    assert build(3.0).probs.tolist() == build(3).probs.tolist()


class TestZeroGap:
    def test_doubled_poisson_has_gap(self):
        assert has_zero_gap(doubled_poisson_pmf(0.25, 20))

    def test_alternating_base_has_none(self):
        assert not has_zero_gap(_alternating_geometric_base())

    def test_poisson_has_none(self):
        assert not has_zero_gap(pmf_table(HermiteParams((1.0,)), 20))

    def test_all_zero_table_has_none(self):
        assert not has_zero_gap(PmfTable(np.zeros(4)))

    def test_trailing_zeros_are_not_gaps(self):
        table = pmf_table(HermiteParams((0.001,)), 400)
        # far-tail entries underflow to zero but nothing positive follows
        assert not has_zero_gap(table)


class TestVerificationSuite:
    def test_all_checks_pass(self):
        checks = run_verification()
        assert len(checks) >= 6
        failures = [c.name for c in checks if not c.passed]
        assert failures == []

    def test_the_base_law_is_thinned_once_per_fraction(self, monkeypatch):
        # 9 + 9 + 4 thinnings of the doubled Poisson, negative binomial and
        # semigroup tables, and 9 of the alternating-geometric base: one per
        # distinct p among its 23 uses (45 calls when each use rebuilt it)
        calls = []

        def counted(table, p):
            calls.append(p)
            return thin_pmf_oracle(table, p)

        monkeypatch.setattr(reference, "thin_pmf_oracle", counted)
        reference._thinned_base.cache_clear()
        try:
            run_verification()
        finally:
            reference._thinned_base.cache_clear()
        assert len(calls) == 31
