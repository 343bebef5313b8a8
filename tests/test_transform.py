"""Closure of the family under thinning and addition, parameter vs table level."""

import numpy as np
import pytest
from scipy.stats import binom

from hermite_counts import (
    DomainError,
    FactorialCumulants,
    HermiteParams,
    PmfTable,
    adaptive_pmf,
    add_params,
    convolve_pmf_oracle,
    ordinary_cumulants,
    params_to_factorial_cumulants,
    pmf_table,
    thin_factorial_cumulants,
    thin_params,
    thin_pmf_oracle,
    thinning_invariants,
)

from conftest import poisson_table_exact, random_params


class TestThinParams:
    def test_hand_computed(self):
        thinned = thin_params(HermiteParams((1.0, 0.5)), 0.5)
        np.testing.assert_allclose(thinned.a, (0.75, 0.125), rtol=1e-15)

    def test_identity_at_one(self):
        params = HermiteParams((0.3, 0.0, 1.2))
        assert thin_params(params, 1.0).a == params.a

    def test_poisson_scales_linearly(self):
        assert thin_params(HermiteParams((2.0,)), 0.25).a == (0.5,)

    def test_rejects_bad_fraction(self):
        for p in (0.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                thin_params(HermiteParams((1.0,)), p)

    def test_semigroup(self, np_rng):
        # thinning by p then q equals thinning by p*q
        for _ in range(100):
            params = random_params(np_rng, r_max=6, hi=5.0)
            p, q = np_rng.uniform(0.05, 1.0, size=2)
            twice = thin_params(thin_params(params, p), q)
            once = thin_params(params, p * q)
            np.testing.assert_allclose(twice.a, once.a, rtol=1e-14, atol=1e-300)

    def test_cumulant_route_agrees(self, np_rng):
        # parameter-space thinning commutes with the cumulant map
        for _ in range(100):
            params = random_params(np_rng, r_max=4, hi=3.0)
            p = float(np_rng.uniform(0.05, 1.0))
            via_params = params_to_factorial_cumulants(thin_params(params, p))
            via_kappa = thin_factorial_cumulants(params_to_factorial_cumulants(params), p)
            np.testing.assert_allclose(via_params.kappa, via_kappa.kappa, rtol=1e-12, atol=1e-300)

    def test_invariant_ratios_unchanged(self, np_rng):
        # Verification noise in the eta numerators is amplified by
        # (p*mean)**-(j+1), so the draws keep coefficients and thinning
        # fractions away from zero; the atol covers components that vanish
        # identically (relative error is undefined there).
        for _ in range(200):
            r = int(np_rng.integers(1, 5))
            params = HermiteParams(tuple(np_rng.uniform(0.5, 3.0, size=r)))
            p = float(np_rng.uniform(0.4, 1.0))
            before = thinning_invariants(ordinary_cumulants(params))
            after = thinning_invariants(ordinary_cumulants(thin_params(params, p)))
            np.testing.assert_allclose(after.eta, before.eta, rtol=1e-12, atol=1e-12)


class TestThinFactorialCumulants:
    def test_power_scaling(self):
        thinned = thin_factorial_cumulants(FactorialCumulants((2.0, 1.0)), 0.5)
        np.testing.assert_allclose(thinned.kappa, (1.0, 0.25), rtol=1e-15)

    def test_identity_at_one(self):
        kappa = FactorialCumulants((2.0, 1.0, 0.3))
        assert thin_factorial_cumulants(kappa, 1.0).kappa == kappa.kappa

    def test_order_one(self):
        thinned = thin_factorial_cumulants(FactorialCumulants((3.0,)), 0.2)
        assert thinned.kappa[0] == pytest.approx(0.6, rel=1e-15)

    def test_rejects_bad_fraction(self):
        with pytest.raises(DomainError):
            thin_factorial_cumulants(FactorialCumulants((1.0,)), 0.0)


class TestAddParams:
    def test_componentwise(self):
        total = add_params(HermiteParams((1.0, 0.5)), HermiteParams((0.5, 0.25)))
        assert total.a == (1.5, 0.75)

    def test_poisson_additivity(self):
        assert add_params(HermiteParams((1.0,)), HermiteParams((2.5,))).a == (3.5,)

    def test_mixed_orders_zero_pad(self):
        total = add_params(HermiteParams((1.0,)), HermiteParams((0.0, 0.5)))
        assert total.a == (1.0, 0.5)

    def test_mixed_orders_distribution_level(self):
        # Poisson(1) plus a doubled Poisson(0.5) is the running order-2 law
        lhs = convolve_pmf_oracle(
            pmf_table(HermiteParams((1.0,)), 60), pmf_table(HermiteParams((0.0, 0.5)), 60)
        )
        rhs = pmf_table(HermiteParams((1.0, 0.5)), lhs.k_max)
        np.testing.assert_allclose(lhs.probs, rhs.probs, atol=1e-10)


class TestConvolveOracle:
    def test_identity_element(self):
        delta0 = pmf_table(HermiteParams((0.0,)), 0)
        q = pmf_table(HermiteParams((1.0, 0.5)), 12)
        out = convolve_pmf_oracle(delta0, q)
        np.testing.assert_array_equal(out.probs, q.probs)

    def test_poisson_convolution(self):
        p1 = pmf_table(HermiteParams((1.0,)), 50)
        out = convolve_pmf_oracle(p1, p1)
        np.testing.assert_allclose(out.probs, poisson_table_exact(2.0, out.k_max), atol=1e-10)

    def test_addition_closure_random(self, np_rng):
        for _ in range(60):
            pa = random_params(np_rng, r_max=4, hi=3.0)
            pb = random_params(np_rng, r_max=4, hi=3.0)
            ta = adaptive_pmf(pa, 1e-12)
            tb = adaptive_pmf(pb, 1e-12)
            conv = convolve_pmf_oracle(ta, tb)
            direct = pmf_table(add_params(pa, pb), conv.k_max)
            np.testing.assert_allclose(conv.probs, direct.probs, atol=1e-10)


class TestThinOracle:
    def test_identity_at_one(self):
        table = pmf_table(HermiteParams((1.0, 0.5)), 20)
        assert thin_pmf_oracle(table, 1.0) is table

    def test_poisson_thinning_closed_form(self):
        table = pmf_table(HermiteParams((2.0,)), 60)
        thinned = thin_pmf_oracle(table, 0.5)
        np.testing.assert_allclose(thinned.probs, poisson_table_exact(1.0, 60), atol=1e-10)

    def test_running_example(self):
        table = adaptive_pmf(HermiteParams((1.0, 0.5)), 1e-12)
        thinned = thin_pmf_oracle(table, 0.5)
        direct = pmf_table(HermiteParams((0.75, 0.125)), thinned.k_max)
        np.testing.assert_allclose(thinned.probs, direct.probs, atol=1e-10)

    def test_commuting_square_random(self, np_rng):
        # thinning then tabulating equals tabulating then mixing binomials
        for _ in range(60):
            params = random_params(np_rng, r_max=4, hi=3.0)
            p = float(np_rng.uniform(0.05, 1.0))
            table = adaptive_pmf(params, 1e-12)
            lhs = thin_pmf_oracle(table, p)
            rhs = pmf_table(thin_params(params, p), lhs.k_max)
            np.testing.assert_allclose(lhs.probs, rhs.probs, atol=1e-10)

    def test_near_one_fraction_long_table(self):
        # the Horner expansion must not lose mass for p near 1 on long tables
        table = pmf_table(HermiteParams((12.0, 4.0, 2.0)), 400)
        thinned = thin_pmf_oracle(table, 0.999)
        direct = pmf_table(thin_params(HermiteParams((12.0, 4.0, 2.0)), 0.999), 400)
        np.testing.assert_allclose(thinned.probs, direct.probs, atol=1e-10)

    @pytest.mark.parametrize("p", [1e-3, 0.37, 0.999])
    def test_matches_binomial_mixture_definition(self, np_rng, p):
        # p*_k = sum_n P_n Binomial(n, p)(k), summed with scipy's binomial pmf
        for _ in range(20):
            size = int(np_rng.integers(1, 301))
            probs = np_rng.exponential(size=size) * np_rng.integers(0, 2, size=size)
            table = PmfTable(probs / max(probs.sum(), 1.0) * np_rng.uniform(0.5, 1.0))
            n = np.arange(size)
            want = [float(table.probs @ binom.pmf(k, n, p)) for k in range(size)]
            np.testing.assert_allclose(thin_pmf_oracle(table, p).probs, want, rtol=0, atol=1e-13)

    def test_rejects_bad_fraction(self):
        table = pmf_table(HermiteParams((1.0,)), 5)
        with pytest.raises(DomainError):
            thin_pmf_oracle(table, 1.0001)

    def test_rejects_oversized_table(self):
        table = pmf_table(HermiteParams((1.0,)), 6000)
        with pytest.raises(DomainError):
            thin_pmf_oracle(table, 0.5)


class TestAdditionThinningCompatibility:
    def test_distributes(self, np_rng):
        # thinning a sum equals summing the thinned parts
        for _ in range(100):
            pa = random_params(np_rng, r_max=4, hi=3.0)
            pb = random_params(np_rng, r_max=4, hi=3.0)
            p = float(np_rng.uniform(0.05, 1.0))
            lhs = thin_params(add_params(pa, pb), p)
            rhs = add_params(thin_params(pa, p), thin_params(pb, p))
            np.testing.assert_allclose(lhs.a, rhs.a, rtol=1e-14, atol=1e-300)
