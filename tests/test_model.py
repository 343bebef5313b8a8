"""Parameterization conversions, the pgf, and their exact identities."""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from hermite_counts import (
    DomainError,
    FactorialCumulants,
    HermiteParams,
    OverflowGuard,
    PmfTable,
    adaptive_pmf,
    factorial_cumulants_to_params,
    hermite2_from_mean_variance,
    ordinary_cumulants,
    params_to_factorial_cumulants,
    pgf_eval,
    thinning_invariants,
)

from conftest import random_params


class TestHermiteParams:
    def test_rejects_negative_coefficients(self):
        with pytest.raises(DomainError):
            HermiteParams((1.0, -0.1))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            HermiteParams((float("nan"),))

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            HermiteParams(())

    def test_rejects_integers_beyond_the_double_range(self):
        # float() overflows on these; 1e400 as a float literal is inf already
        with pytest.raises(DomainError, match="double range"):
            HermiteParams((1.0, 10**400))

    @pytest.mark.parametrize(
        "a, message",
        [
            ((1.0, float("nan")), "a_2 must be finite, got nan"),
            ((-1.0, 2.0), "a_1 must be non-negative, got -1.0"),
            ((0.5, -1.0, float("inf")), "a_2 must be non-negative, got -1.0"),
            ((), "order must be at least 1"),
            ((1.0, 10**400), "an entry of a is beyond the double range"),
        ],
    )
    def test_refusal_names_the_first_offending_coefficient(self, a, message):
        with pytest.raises(DomainError) as refused:
            HermiteParams(a)
        assert str(refused.value) == message

    @pytest.mark.parametrize("cls", [HermiteParams, FactorialCumulants])
    @pytest.mark.parametrize("entries", [(None,), "12", b"12", 5], ids=["none-entry", "str", "bytes", "int"])
    def test_container_that_holds_no_numbers_refused(self, cls, entries):
        # (None,) raised a bare TypeError, and "12" read as the entries (1.0, 2.0)
        with pytest.raises(DomainError, match="must be a sequence of real numbers"):
            cls(entries)

    @pytest.mark.parametrize(
        "cls, values",
        [(PmfTable, [1e-6] * 10**5 + [None]), (HermiteParams, list(range(10**5)) + ["x"]),
         (HermiteParams, set(range(10**5)))],
        ids=["table-entry", "coefficient", "unordered"],
    )
    def test_refusal_of_a_long_vector_is_short(self, cls, values):
        # the message held the whole argument: 700,052 and 688,937 characters for the first two
        with pytest.raises(DomainError, match="must be a sequence of real numbers") as refused:
            cls(values)
        assert len(str(refused.value)) < 200

    def test_all_zero_is_legal_point_mass(self):
        params = HermiteParams((0.0, 0.0))
        assert params.is_degenerate()
        assert params.order == 2


class TestFactorialCumulantConversion:
    def test_poisson_order_one(self):
        kappa = params_to_factorial_cumulants(HermiteParams((3.0,)))
        assert kappa.kappa == (3.0,)

    def test_hand_computed_order_two(self):
        # kappa_(1) = a1 + 2 a2, kappa_(2) = 2 a2
        kappa = params_to_factorial_cumulants(HermiteParams((1.0, 0.5)))
        assert kappa.kappa == (2.0, 1.0)

    def test_point_mass(self):
        kappa = params_to_factorial_cumulants(HermiteParams((0.0, 0.0)))
        assert kappa.kappa == (0.0, 0.0)

    def test_inverse_hand_computed(self):
        params = factorial_cumulants_to_params(FactorialCumulants((2.0, 1.0)))
        assert params.a == (1.0, 0.5)

    def test_inverse_order_one(self):
        assert factorial_cumulants_to_params(FactorialCumulants((1.5,))).a == (1.5,)

    def test_inverse_rejects_inadmissible(self):
        # a_2 = -0.25; a_1 = -9e-12, far beyond its rounding bound of 4.9e-27
        for kappa in ((1.0, -0.5), (1e-12, 1e-11)):
            with pytest.raises(DomainError, match="not admissible"):
                factorial_cumulants_to_params(FactorialCumulants(kappa))

    def test_inverse_rejects_inadmissible_near_the_double_limit(self):
        # a_2 = -1.7e308; a tolerance that overflowed with its terms once
        # clamped a_2 to 0 and returned a = (1.5e307, 0, 2.8e307), whose
        # kappa_(2) is +1.7e308
        with pytest.raises(DomainError, match="not admissible"):
            factorial_cumulants_to_params(FactorialCumulants((1e308, -1.7e308, 1.7e308)))

    def test_round_trip_at_the_top_of_the_double_range(self):
        # the terms of a_1, 1.75e308 - 2e307 + 6e307 - 2e307 + 5e306, pass
        # the double range on the way to 1.7e308
        params = HermiteParams((1.7e308, 0.0, 0.0, 0.0, 1e306))
        assert factorial_cumulants_to_params(params_to_factorial_cumulants(params)) == params

    def test_emitted_documents_convert_back_at_every_order(self, np_rng):
        # what `convert --to cumulants` emits: kappa of coefficients
        # log-uniform in [1e-12, 1e12], one of them 0, through JSON; the
        # back-substitution refused such documents from order 16 on
        for r in range(1, 61):
            for _ in range(10):
                a = 10.0 ** np_rng.uniform(-12.0, 12.0, size=r)
                a[np_rng.integers(r)] = 0.0
                emitted = json.loads(json.dumps(params_to_factorial_cumulants(HermiteParams(tuple(a))).kappa))
                back = params_to_factorial_cumulants(factorial_cumulants_to_params(FactorialCumulants(emitted)))
                scale = max(map(abs, emitted))
                assert max(abs(x - y) for x, y in zip(back.kappa, emitted)) <= 1e-14 * scale

    def test_zero_coefficient_comes_back_as_zero(self):
        # the back-substitution returned a_1 = 1.4e-9; kappa's rounding
        # limits a_2 to 2.3e-10 relative on either path
        params = HermiteParams((0.0, 3.2, 281102.3, 812614.7))
        back = factorial_cumulants_to_params(params_to_factorial_cumulants(params)).a
        assert back[0] == 0.0
        np.testing.assert_allclose(back[1:], params.a[1:], rtol=1e-9)

    def test_cumulants_beyond_the_double_range_refused(self):
        # each term of kappa_(1) = a_1 + 2 a_2 is finite, their sum is not
        with pytest.raises(OverflowGuard, match=r"kappa_\(1\)"):
            params_to_factorial_cumulants(HermiteParams((1.5e308, 0.8e308)))
        assert HermiteParams((1.5e308, 0.8e308)).total_rate == math.inf

    @pytest.mark.parametrize(
        "kappa",
        [(), (1.0, math.inf), (1.0, math.nan), (-0.5, 1.0), (10**400,)],
        ids=["empty", "inf", "nan", "negative-mean", "integer-beyond-double"],
    )
    def test_cumulants_rejected_at_construction(self, kappa):
        with pytest.raises(DomainError):
            FactorialCumulants(kappa)

    def test_orders_past_170_are_refused_both_ways(self):
        # 171! has no double, so neither conversion can be formed
        with pytest.raises(OverflowGuard):
            params_to_factorial_cumulants(HermiteParams((1.0,) + (0.0,) * 198 + (1e-3,)))
        with pytest.raises(OverflowGuard):
            factorial_cumulants_to_params(FactorialCumulants((1.0,) * 171))
        assert params_to_factorial_cumulants(HermiteParams((1.0,) + (0.0,) * 169)).kappa[0] == 1.0

    def test_round_trip_random(self, np_rng):
        for _ in range(300):
            r = int(np_rng.integers(1, 7))
            params = HermiteParams(tuple(np_rng.uniform(0.0, 5.0, size=r)))
            back = factorial_cumulants_to_params(params_to_factorial_cumulants(params))
            np.testing.assert_allclose(back.a, params.a, rtol=1e-12, atol=0.0)


class TestOrdinaryCumulants:
    def test_hand_computed(self):
        # kappa_s = 1 + 2**s * 0.5
        summary = ordinary_cumulants(HermiteParams((1.0, 0.5)))
        assert (summary.mean, summary.variance, summary.kappa3, summary.kappa4) == (2.0, 3.0, 5.0, 9.0)

    def test_poisson_all_equal(self):
        summary = ordinary_cumulants(HermiteParams((1.7,)))
        assert (summary.mean, summary.variance, summary.kappa3, summary.kappa4) == (1.7,) * 4

    def test_point_mass_zero(self):
        summary = ordinary_cumulants(HermiteParams((0.0, 0.0, 0.0)))
        assert (summary.mean, summary.variance, summary.kappa3, summary.kappa4) == (0.0,) * 4

    def test_overdispersion(self, np_rng):
        # variance >= mean with equality iff no component above order 1
        for _ in range(200):
            params = random_params(np_rng, r_max=6, hi=4.0)
            summary = ordinary_cumulants(params)
            assert summary.variance >= summary.mean
            if any(x > 0 for x in params.a[1:]):
                assert summary.variance > summary.mean
            else:
                assert summary.variance == summary.mean

    def test_matches_numerical_moments_of_table(self):
        params = HermiteParams((1.0, 0.5))
        table = adaptive_pmf(params, 1e-14)
        k = np.arange(len(table.probs))
        mean = float(np.sum(k * table.probs))
        var = float(np.sum((k - mean) ** 2 * table.probs))
        mu3 = float(np.sum((k - mean) ** 3 * table.probs))
        summary = ordinary_cumulants(params)
        np.testing.assert_allclose([mean, var, mu3], [summary.mean, summary.variance, summary.kappa3], rtol=1e-9)


class TestThinningInvariants:
    def test_hand_computed(self):
        from hermite_counts import CumulantSummary

        eta = thinning_invariants(CumulantSummary(2.0, 3.0, 5.0, 9.0))
        assert eta.eta == (0.25, 0.0, 0.0)

    def test_poisson_all_zero(self):
        from hermite_counts import CumulantSummary

        lam = 1.3
        eta = thinning_invariants(CumulantSummary(lam, lam, lam, lam))
        np.testing.assert_allclose(eta.eta, 0.0, atol=1e-15)

    def test_zero_mean_rejected(self):
        from hermite_counts import CumulantSummary

        with pytest.raises(DomainError):
            thinning_invariants(CumulantSummary(0.0, 0.0, 0.0, 0.0))

    def test_matches_factorial_cumulant_ratios(self, np_rng):
        # eta_i = kappa_(i+1) / mean**(i+1), the defining identity
        for _ in range(100):
            params = random_params(np_rng, r_max=4, hi=3.0)
            if params.total_rate == 0.0:
                continue
            kappa4 = params_to_factorial_cumulants(
                HermiteParams(params.a + (0.0,) * (4 - params.order))
            ).kappa
            mu = kappa4[0]
            if mu == 0.0:
                continue
            eta = thinning_invariants(ordinary_cumulants(params))
            expected = [kappa4[i] / mu ** (i + 1) for i in range(1, 4)]
            np.testing.assert_allclose(eta.eta, expected, rtol=1e-10, atol=1e-13)

    @pytest.mark.parametrize(
        "a", [(1e-200,), (1e200,), (1e150, 1e150), (2.0, 0.0, 1e-3)], ids=str
    )
    def test_extreme_means_give_finite_ratios(self, a):
        # mu**2 underflowed (ZeroDivisionError) and mu**4 overflowed (OverflowError)
        # exact rationals: eta_j = kappa_(j+1) / mean**(j+1), kappa_(j) = sum_i i!/(i-j)! a_i;
        # the rounding allowed is that of cumulant quotients up to r**3 = 8, over mean**j
        kappa = [sum(math.perm(i, j) * Fraction(x) for i, x in enumerate(a, start=1)) for j in range(1, 5)]
        mu = kappa[0]
        eta = thinning_invariants(ordinary_cumulants(HermiteParams(a))).eta
        for j, value in enumerate(eta, start=1):
            exact = kappa[j] / mu ** (j + 1)
            assert abs(Fraction(value) - exact) <= Fraction(1e-14) * (abs(exact) + 8 / mu**j)

    def test_cumulant_summary_at_tiny_mean(self):
        from hermite_counts import CumulantSummary

        eta = thinning_invariants(CumulantSummary(1e-200, 1e-200, 1e-200, 1e-200))
        assert eta.eta == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("a", [(0.0, 1e-310), (1e308, 4e307), (0.0,) * 9 + (1e305,)], ids=str)
    def test_ratios_beyond_the_double_range_refused(self, a):
        # eta_1 = 1/(2 a_2) = 5e309; a summed mean past the double range; kappa_4 = inf
        with pytest.raises(OverflowGuard):
            thinning_invariants(ordinary_cumulants(HermiteParams(a)))

    def test_high_orders_vanish(self):
        # order-r family: eta_j = 0 for j >= r
        eta = thinning_invariants(ordinary_cumulants(HermiteParams((0.7, 0.9))))
        assert eta.eta[1] == pytest.approx(0.0, abs=1e-14)
        assert eta.eta[2] == pytest.approx(0.0, abs=1e-14)


class TestPgf:
    def test_unit_at_one(self):
        assert pgf_eval(HermiteParams((1.0, 0.5)), 1.0) == 1.0

    def test_zero_gives_p0(self):
        assert pgf_eval(HermiteParams((1.0, 0.5)), 0.0) == pytest.approx(math.exp(-1.5), rel=1e-15)

    def test_poisson_closed_form(self):
        assert pgf_eval(HermiteParams((2.0,)), 0.5) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_matches_power_series(self, np_rng):
        for _ in range(30):
            params = random_params(np_rng, r_max=4, hi=2.0)
            table = adaptive_pmf(params, 1e-13)
            for t in (-1.0, -0.5, 0.0, 0.3, 0.9, 1.0):
                series = math.fsum(pk * t**k for k, pk in enumerate(table.probs.tolist()))
                assert pgf_eval(params, t) == pytest.approx(series, abs=1e-10)

    def test_rejects_non_finite_argument(self):
        with pytest.raises(DomainError):
            pgf_eval(HermiteParams((1.0,)), float("inf"))

    @pytest.mark.parametrize(
        "a, t", [((1.0,), 1e3), ((1.0, 1.0), 1e200), ((1.0, 1.0), -1e200), ((1e300, 1e300), -1e10)]
    )
    def test_overflow_is_guarded_and_names_t(self, a, t):
        # exp, the float power t**i and fsum's inf - inf each overflow here
        with pytest.raises(OverflowGuard, match=re.escape(f"t = {t}")) as info:
            pgf_eval(HermiteParams(a), t)
        assert isinstance(info.value, OverflowError)

    def test_underflow_is_zero(self):
        assert pgf_eval(HermiteParams((1.0,)), -1e300) == 0.0


class TestHermite2FromMeanVariance:
    def test_hand_computed(self):
        assert hermite2_from_mean_variance(2.0, 3.0).a == (1.0, 0.5)

    def test_equidispersed_reduces_to_poisson(self):
        assert hermite2_from_mean_variance(2.0, 2.0).a == (2.0, 0.0)

    def test_rejects_overdispersion_beyond_two(self):
        with pytest.raises(DomainError):
            hermite2_from_mean_variance(2.0, 5.0)

    def test_rejects_underdispersion(self):
        with pytest.raises(DomainError):
            hermite2_from_mean_variance(2.0, 1.5)

    def test_rejects_zero_mean(self):
        with pytest.raises(DomainError):
            hermite2_from_mean_variance(0.0, 0.0)
