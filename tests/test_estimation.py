"""Moment estimators, the MLE, and their stationarity guarantees."""

import array
import enum
import math
import operator
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hermite_counts import (
    CountHistogram,
    DataError,
    DomainError,
    HermiteParams,
    OverflowGuard,
    factorial_moments_to_cumulants,
    fit_mle,
    fit_moments,
    log_likelihood,
    loglik_gradient,
    lrt_statistic,
    sample_factorial_moments,
    sample_hermite,
    select_order,
)
from hermite_counts.data import _BYTE_PATH_MIN, _PLANES_MIN, _SLICE
from hermite_counts.estimation import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    _ascend,
    _factorial_cumulants,
    _ladder,
    _onto_slice,
    mle_iterates,
)


def exact_moment_estimate(hist, r):
    """The clamp-and-feed moment estimate a_1..a_r in exact rationals.

    An independent route: the empirical factorial moment generating function
    M(t) = sum over bins of freq * (1 + t)**count / n has the coefficients
    c_k = sum freq * C(count, k) / n = m_(k) / k!, and its logarithm has the
    coefficients d_k = kappa_(k) / k!, which K' M = M' gives as
    k d_k = k c_k - sum_{j<k} j d_j c_(k-j).  Dividing
    kappa_(j) = sum_i i!/(i-j)! a_i by j! leaves d_j = sum_i C(i, j) a_i.
    """
    c = [Fraction(sum(f * math.comb(x, k) for x, f in hist.bins), hist.n) for k in range(r + 1)]
    d = [Fraction(0)] * (r + 1)
    for k in range(1, r + 1):
        d[k] = c[k] - sum(Fraction(j, k) * d[j] * c[k - j] for j in range(1, k))
    a = [Fraction(0)] * (r + 1)
    for j in range(r, 0, -1):
        a[j] = max(d[j] - sum(math.comb(i, j) * a[i] for i in range(j + 1, r + 1)), Fraction(0))
    return a[1:]


class _Three(enum.IntEnum):
    THREE = 3


class _IndexOnly:
    """A value with ``__index__`` alone: it hashes and compares by identity."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"_IndexOnly({self.value})"


def counted_bins(values):
    """The bins, or the DataError message, of the plain Counter route: values
    that do not all hash are counted again through operator.index, and a
    value that is not an int but has __index__ counts as the int it gives."""
    try:
        try:
            counted = Counter(values)
        except TypeError:
            counted = Counter(map(operator.index, values))
        merged = Counter()
        for value, freq in counted.items():
            merged[operator.index(value) if not isinstance(value, int) and hasattr(value, "__index__") else value] += freq
        return CountHistogram(tuple(merged.items())).bins
    except TypeError:
        return "observations must be an iterable of integers"
    except DataError as exc:
        return str(exc)


def observed_bins(values):
    """The bins, or the DataError message, of ``from_observations``."""
    try:
        return CountHistogram.from_observations(values).bins
    except DataError as exc:
        return str(exc)


#: Observations bytes() takes as their integer value, or refuses.
ODD_VALUES = st.one_of(
    st.integers(0, 300),
    st.booleans(),
    st.integers(0, 255).map(np.uint8),
    st.integers(-5, 300).map(np.int64),
    st.integers(-5, 300).map(np.array),
    st.sampled_from([0.0, 2.0, 2.5]).map(np.array),
    st.just(_Three.THREE),
    st.integers(-5, 300).map(_IndexOnly),
    st.sampled_from([2.0, 2.5, -1, -300, None, "3", "x"]),
)


class TestCountHistogram:
    def test_from_observations_aggregates(self):
        hist = CountHistogram.from_observations([2, 0, 2, 1, 0])
        assert hist.as_dict() == {0: 2, 1: 1, 2: 2}
        assert hist.n == 5
        assert hist.max_count == 2

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            CountHistogram.from_observations([])

    def test_negative_count_rejected(self):
        with pytest.raises(DataError):
            CountHistogram.from_mapping({-1: 3})

    def test_zero_frequency_rejected(self):
        with pytest.raises(DataError):
            CountHistogram.from_mapping({1: 0})

    @pytest.mark.parametrize(
        "entry", [(1.5, 1), (2, 0.5), (math.inf, 1), (2, math.inf), (math.nan, 1)], ids=str
    )
    def test_non_integer_entry_rejected(self, entry):
        with pytest.raises(DataError):
            CountHistogram((entry,))

    @pytest.mark.parametrize(
        "build",
        [lambda: CountHistogram(((None, 1),)), lambda: CountHistogram.from_observations([1, None])],
        ids=["bins", "observations"],
    )
    def test_entry_that_is_no_number_rejected(self, build):
        # int(None) raised a bare TypeError
        with pytest.raises(DataError, match="integers"):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: CountHistogram((5,)),
            lambda: CountHistogram(((1, 2, 3),)),
            lambda: CountHistogram(None),
            lambda: CountHistogram.from_mapping(5),
            lambda: CountHistogram.from_observations(5),
        ],
        ids=["bin-not-a-pair", "bin-of-three", "none", "mapping-not-a-mapping", "observations-not-iterable"],
    )
    def test_malformed_container_rejected(self, build):
        # these raised a bare TypeError, ValueError or AttributeError
        with pytest.raises(DataError):
            build()

    def test_huge_count_rejected(self):
        with pytest.raises(DataError):
            CountHistogram.from_mapping({10**6 + 1: 1})

    def test_duplicate_counts_rejected(self):
        with pytest.raises(DataError, match="distinct"):
            CountHistogram(((1, 2), (3, 1), (1, 4)))

    def test_frequency_beyond_the_double_range_rejected(self):
        # it passed, and the likelihood then overflowed converting it
        with pytest.raises(DataError, match="double range"):
            CountHistogram.from_mapping({1: 10**400, 3: 5})

    def test_total_beyond_two_to_the_53_rejected(self):
        # each frequency is a double, but the likelihood's fsum overflowed
        with pytest.raises(DataError, match="2\\*\\*53"):
            CountHistogram.from_mapping({0: 10**308, 1: 10**308, 3: 10**308})
        assert CountHistogram.from_mapping({0: 2**52, 1: 2**52}).n == 2**53

    @settings(max_examples=300, deadline=None)
    @given(
        length=st.sampled_from(
            [1, 100, _BYTE_PATH_MIN - 1, _BYTE_PATH_MIN, _BYTE_PATH_MIN + 1, 1000, _PLANES_MIN - 1, _PLANES_MIN]
            + [5000, _SLICE - 1, _SLICE, _SLICE + 1]
        )
        | st.integers(_BYTE_PATH_MIN, 3000),
        top=st.sampled_from([1, 2, 7, 8, 9, 16, 17, 24, 25]) | st.integers(1, 256),
        skewed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        odd=st.lists(st.tuples(ODD_VALUES, st.integers(0, 2**32 - 1)), max_size=3),
        container=st.sampled_from([tuple, list]),
    )
    @example(length=100_000, top=17, skewed=True, seed=1, odd=[], container=tuple)
    def test_from_observations_matches_a_counter(self, length, top, skewed, seed, odd, container):
        # a tuple or list of _BYTE_PATH_MIN values or more takes the byte
        # path while every value is an integer in 0..255 and few are distinct;
        # an odd value sends it to Counter, at the probe or at bytes().  Up to
        # 8 values the probe sees often are counted as bit planes (top 8, 9,
        # 16, 17 and 24 sit at the edges); skewed draws, geometric in 0..top-1,
        # also leave values the probe sees once or never.
        rng = random.Random(seed)
        if skewed:
            values = [int(rng.expovariate(4.0 / top)) % top for _ in range(length)]
        else:
            values = [rng.randrange(top) for _ in range(length)]
        for value, where in odd:
            values[where % length] = value
        values = container(values)
        assert observed_bins(values) == counted_bins(values)

    @pytest.mark.parametrize("where", ["first", "last", "between probes"])
    @pytest.mark.parametrize("value", [256, 300, -1, 2.5, None])
    @pytest.mark.parametrize("length", [_BYTE_PATH_MIN - 1, _BYTE_PATH_MIN, _BYTE_PATH_MIN + 1, 10_000])
    def test_one_value_outside_the_bytes_is_counted_by_counter(self, where, value, length):
        # the probe reads every (length // 64)-th value and the last, so
        # index 1 is read only by the full bytes() pass once length >= 128
        values = [k % 7 for k in range(length)]
        values[{"first": 0, "last": -1, "between probes": 1}[where]] = value
        assert observed_bins(values) == observed_bins(tuple(values)) == counted_bins(values)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: np.arange(4000) % 9,
            lambda: np.arange(4000, dtype=np.int32) % 300,
            lambda: np.arange(4000, dtype=np.uint8) % 5,
            lambda: array.array("q", [k % 11 for k in range(4000)]),
            lambda: bytes(k % 13 for k in range(4000)),
            lambda: bytearray(k % 13 for k in range(4000)),
            lambda: memoryview(bytes(k % 13 for k in range(4000))),
            lambda: range(4000),
            lambda: (k % 6 for k in range(4000)),
        ],
        ids=["int64", "int32-above-255", "uint8", "array-q", "bytes", "bytearray", "memoryview", "range", "generator"],
    )
    def test_arrays_and_iterators_count_their_values_not_their_memory(self, build):
        # bytes() of a buffer reads its raw memory: an int64 array of 0..8
        # would count seven zero bytes per value
        assert observed_bins(build()) == counted_bins(build())

    @pytest.mark.parametrize("length", [3, _BYTE_PATH_MIN + 44])
    @pytest.mark.parametrize("value", [3, 300])
    def test_a_value_with_only_an_index_counts_as_its_integer(self, value, length):
        # the byte path reads __index__; Counter kept such a value apart from
        # its integer, and CountHistogram refused it, at fewer than 256 values
        values = [_IndexOnly(value), value] + [k % 4 for k in range(length - 2)]
        expected = tuple(sorted(Counter([value, value] + values[2:]).items()))
        assert observed_bins(values) == counted_bins(values) == expected

    def test_representation_invariance(self):
        raw = CountHistogram.from_observations([3, 1, 1, 0, 3, 3])
        aggregated = CountHistogram.from_mapping({0: 1, 1: 2, 3: 3})
        assert raw == aggregated


class TestSampleFactorialMoments:
    def test_counts_below_k_contribute_zero(self):
        hist = CountHistogram.from_mapping({0: 5, 1: 5})
        assert sample_factorial_moments(hist, 2) == (0.5, 0.0)

    def test_single_observation(self):
        hist = CountHistogram.from_mapping({2: 1})
        assert sample_factorial_moments(hist, 2) == (2.0, 2.0)

    def test_hand_computed(self):
        hist = CountHistogram.from_mapping({0: 1, 1: 1, 2: 1, 3: 1})
        assert sample_factorial_moments(hist, 2) == (1.5, 2.0)

    def test_order_below_one(self):
        with pytest.raises(DomainError):
            sample_factorial_moments(CountHistogram.from_mapping({2: 1}), 0)

    def test_moment_beyond_the_double_range_refused(self):
        # 10**6 * (10**6 - 1) * ... over 52 factors exceeds the largest double
        hist = CountHistogram.from_mapping({0: 1, 10**6: 1})
        assert sample_factorial_moments(hist, 51)[-1] > 1e300
        with pytest.raises(OverflowGuard):
            sample_factorial_moments(hist, 52)


class TestFactorialMomentsToCumulants:
    def test_exact_poisson_moments(self):
        # Poisson factorial moments are lam**k, cumulants vanish beyond k=1
        lam = 1.5
        kappa = factorial_moments_to_cumulants((lam, lam**2, lam**3))
        np.testing.assert_allclose(kappa.kappa, (lam, 0.0, 0.0), atol=1e-14)

    def test_hand_computed(self):
        kappa = factorial_moments_to_cumulants((2.0, 5.0))
        assert kappa.kappa == (2.0, 1.0)

    def test_zero_vector(self):
        assert factorial_moments_to_cumulants((0.0, 0.0)).kappa == (0.0, 0.0)

    @pytest.mark.parametrize("moments", [(), (math.inf, 1.0), (2.0, math.nan), (1.0, -math.inf, 2.0)])
    def test_empty_or_non_finite_refused(self, moments):
        with pytest.raises(DomainError):
            factorial_moments_to_cumulants(moments)

    def test_moments_are_read_by_float(self):
        # both raised a bare TypeError
        assert factorial_moments_to_cumulants(("2", np.float64(5.0))) == factorial_moments_to_cumulants((2.0, 5.0))
        with pytest.raises(DomainError, match="^moments must be a sequence of real numbers"):
            factorial_moments_to_cumulants(5)

    def test_each_cumulant_is_the_double_nearest_its_exact_value(self):
        # the doubles 0.1, 0.01 and 0.001 stand for rationals whose exact
        # kappa_(2) and kappa_(3) are -9.0e-19 and 1.2e-19, far below the
        # rounding of the recursion's terms; in doubles it gave -1.7e-18
        # and 4.3e-19
        moments = (0.1, 0.01, 0.001)
        m1, m2, m3 = map(Fraction, moments)
        exact = (m1, m2 - m1**2, m3 - 3 * m2 * m1 + 2 * m1**3)
        assert factorial_moments_to_cumulants(moments).kappa == tuple(map(float, exact))

    def test_cumulant_beyond_the_double_range_refused(self):
        with pytest.raises(OverflowGuard, match="factorial cumulant 2"):
            factorial_moments_to_cumulants((1e200, 1.0))

    def test_recursion_yields_each_cumulant_as_it_is_formed(self):
        # kappa_(1) and kappa_(2) need only m_(1) and m_(2); the object in
        # third place is reached only when kappa_(3) is asked for
        kappa = _factorial_cumulants([Fraction(1), Fraction(2), object()])
        assert (next(kappa), next(kappa)) == (1, 1)
        with pytest.raises(TypeError):
            next(kappa)

    def test_refused_at_the_first_cumulant_beyond_the_double_range(self):
        # the 398 moments after kappa_(2) are never reached
        with pytest.raises(OverflowGuard, match="factorial cumulant 2"):
            factorial_moments_to_cumulants((1e200,) + tuple(np.linspace(0.1, 10.0, 399)))

    def test_fourth_order_closed_form(self, np_rng):
        # recursion must reproduce the explicit degree-4 polynomial
        for _ in range(50):
            m1, m2, m3, m4 = np_rng.uniform(0.1, 4.0, size=4)
            kappa = factorial_moments_to_cumulants((m1, m2, m3, m4)).kappa
            assert kappa[1] == pytest.approx(m2 - m1**2, rel=1e-12, abs=1e-12)
            assert kappa[2] == pytest.approx(m3 - 3 * m2 * m1 + 2 * m1**3, rel=1e-12, abs=1e-12)
            assert kappa[3] == pytest.approx(
                m4 - 4 * m3 * m1 - 3 * m2**2 + 12 * m2 * m1**2 - 6 * m1**4,
                rel=1e-12,
                abs=1e-12,
            )


class TestFitMoments:
    def test_poisson_consistency(self):
        batch = sample_hermite(HermiteParams((2.0,)), 100_000, seed=31)
        hist = CountHistogram.from_observations(batch.values)
        fitted = fit_moments(hist, 2)
        assert abs(fitted.a[0] - 2.0) < 0.1
        assert abs(fitted.a[1] - 0.0) < 0.1

    def test_clamping_path(self):
        # single observation at 2: the empirical law is a point mass, so
        # m = (2, 2), kappa-hat = (2, 2 - 4) = (2, -2); a_2 = -1 clamps to 0
        # and a_1 = kappa_(1) keeps the mean
        hist = CountHistogram.from_mapping({2: 1})
        assert fit_moments(hist, 2).a == (2.0, 0.0)

    def test_all_zero_data_rejected(self):
        hist = CountHistogram.from_mapping({0: 10})
        with pytest.raises(DataError):
            fit_moments(hist, 1)

    def test_is_the_double_nearest_the_exact_estimate(self):
        # every input is an exact integer sum, so the estimate is a rational
        # function of the histogram; each coefficient must be its nearest
        # double.  Rounding each moment, cumulant and substitution step
        # missed it in most of these cases at orders 2 to 6.
        rng = np.random.default_rng(7)
        hists = [
            CountHistogram.from_mapping({0: 277, 122: 1061, 171: 107, 176: 9394}),
            CountHistogram.from_mapping({0: 1, 10**6: 1}),
        ]
        while len(hists) < 102:
            a = tuple(rng.exponential(1.0, size=int(rng.integers(1, 5))))
            n = int(rng.integers(20, 3001))
            values = sample_hermite(HermiteParams(a), n, int(rng.integers(2**32))).values
            if max(values) > 0:
                hists.append(CountHistogram.from_observations(values))
        cases = [(hist, r) for hist in hists for r in range(1, 7)]
        # the far pair was off by 2.4e-12 relative at order 45 and crashed
        # from 46 on; order 170 is the last the estimator takes
        cases += [(hists[1], 45), (hists[1], 46), (CountHistogram.from_mapping({0: 1, 1: 2, 2: 1, 3: 1}), 170)]
        for hist, r in cases:
            expected = tuple(map(float, exact_moment_estimate(hist, r)))
            assert fit_moments(hist, r).a == expected, (hist.bins, r)

    def test_estimate_beyond_the_double_range_refused(self):
        # from order 58 the exact estimate leaves the double range
        with pytest.raises(OverflowGuard, match="coefficient a_58"):
            fit_moments(CountHistogram.from_mapping({0: 1, 10**6: 1}), 58)

    @pytest.mark.parametrize("r", [171, 188, 10**6])
    def test_orders_above_170_refused_before_any_arithmetic(self, r):
        # the exact work grows as r**2 on ever longer rationals
        hist = CountHistogram.from_mapping({0: 1, 1: 2, 2: 1, 3: 1})
        with pytest.raises(OverflowGuard, match="order 170"):
            fit_moments(hist, r)

    def test_order_below_one_refused(self):
        with pytest.raises(DomainError):
            fit_moments(CountHistogram.from_mapping({2: 1}), 0)

    def test_result_in_feasible_set(self, np_rng):
        for _ in range(50):
            data = np_rng.poisson(1.5, size=40)
            if data.max() == 0:
                continue
            hist = CountHistogram.from_observations(int(x) for x in data)
            fitted = fit_moments(hist, int(np_rng.integers(1, 5)))
            assert all(x >= 0.0 for x in fitted.a)


class TestFitMle:
    def test_poisson_mle_is_sample_mean(self):
        batch = sample_hermite(HermiteParams((2.0,)), 100_000, seed=42)
        hist = CountHistogram.from_observations(batch.values)
        res = fit_mle(hist, 1)
        assert res.converged
        assert res.params.a[0] == pytest.approx(hist.mean(), rel=1e-8)
        lam = res.params.a[0]
        closed = sum(
            f * (-lam + c * math.log(lam) - math.lgamma(c + 1)) for c, f in hist.bins
        )
        assert res.loglik == pytest.approx(closed, rel=1e-12)

    def test_recovers_order_two_truth(self):
        batch = sample_hermite(HermiteParams((1.0, 0.5)), 100_000, seed=7)
        hist = CountHistogram.from_observations(batch.values)
        res = fit_mle(hist, 2)
        assert res.converged
        assert abs(res.params.a[0] - 1.0) < 0.1
        assert abs(res.params.a[1] - 0.5) < 0.1

    def test_boundary_solution_on_even_data(self):
        # truth a_1 = 0 sits on the boundary; the fit must land there
        batch = sample_hermite(HermiteParams((0.0, 1.0)), 20_000, seed=23)
        hist = CountHistogram.from_observations(batch.values)
        res = fit_mle(hist, 2)
        assert res.converged
        assert res.params.a[0] == 0.0
        assert abs(res.params.a[1] - 1.0) < 0.05

    def test_all_zero_data_rejected(self):
        hist = CountHistogram.from_mapping({0: 25})
        with pytest.raises(DataError):
            fit_mle(hist, 2)

    def test_order_below_one(self):
        with pytest.raises(DomainError):
            fit_mle(CountHistogram.from_mapping({0: 5, 1: 5}), 0)

    def test_tol_outside_its_domain_refused(self):
        # tol = inf would report the start (1.575, 0) converged at loglik
        # -143.97, where the maximum is -120.42, and select_order would then
        # choose order 1 with statistic 0; NaN and -1 would run to the cap.
        hist = CountHistogram.from_mapping({0: 30, 1: 10, 2: 25, 4: 12, 6: 3})
        start = HermiteParams((hist.mean(), 0.0))
        for tol in (math.inf, -math.inf, math.nan, -1.0):
            with pytest.raises(DomainError, match="^tol must"):
                fit_mle(hist, 2, tol=tol)
            with pytest.raises(DomainError, match="^tol must"):
                select_order(hist, 3, 0.05, tol=tol)
            with pytest.raises(DomainError, match="^tol must"):
                mle_iterates(hist, start, tol=tol)
        best = fit_mle(hist, 2)
        assert best.converged and best.loglik == pytest.approx(-120.4167, abs=1e-4)
        assert fit_mle(hist, 2, tol=0.0).loglik >= best.loglik

    def test_start_with_zero_likelihood_rejected(self):
        # a = (0, 0.5) puts all mass on even counts
        hist = CountHistogram.from_mapping({1: 1, 2: 1})
        with pytest.raises(DomainError, match="zero likelihood"):
            next(mle_iterates(hist, HermiteParams((0.0, 0.5))))

    @staticmethod
    def _early_exit(monkeypatch, bins) -> bool:
        """Climb from (mean, 0) with tol = 0; whether the last trial point was the last iterate.

        tol = 0 never converges here, and the ascent ends far inside the
        budget.  At a step that rounds to no movement the last trial point is
        the iterate itself; at a stall it is a rejected point elsewhere.
        """
        import hermite_counts.estimation as estimation

        trials = []
        monkeypatch.setattr(estimation, "_onto_slice", lambda y, mean: trials.append(_onto_slice(y, mean)) or trials[-1])
        hist = CountHistogram.from_mapping(bins)
        init = HermiteParams((hist.mean(), 0.0))
        iterates = list(mle_iterates(hist, init, tol=0.0))
        moved_nothing = np.array_equal(trials[-1], iterates[-1][0].a)
        logliks = [ll for _, ll, _ in iterates]
        assert all(b >= a for a, b in zip(logliks, logliks[1:]))
        fit = _ascend(hist, init, 0.0, DEFAULT_MAX_ITER)
        assert not fit.converged
        assert 0 < fit.iterations == len(iterates) - 1 < DEFAULT_MAX_ITER
        assert (fit.params, fit.loglik, fit.grad_norm) == iterates[-1]
        return moved_nothing

    def test_stops_when_the_step_rounds_to_no_movement(self, monkeypatch):
        # 14 steps
        assert self._early_exit(monkeypatch, {0: 10, 2: 5, 5: 1})

    def test_stops_at_a_stall(self, monkeypatch):
        # 8 steps
        assert not self._early_exit(monkeypatch, {1: 7, 2: 7, 4: 3, 7: 1})

    def test_a_trial_equal_to_the_one_just_rejected_is_not_evaluated(self, monkeypatch):
        # a long step projects onto the same vertex of the slice for several
        # halvings; evaluating each repeat made 36 likelihood calls here, 25
        # with the rungs 2 and 3 starts evaluated rather than taken from the
        # rung below
        import hermite_counts.estimation as estimation

        calls = []
        loglik = estimation._loglik
        monkeypatch.setattr(estimation, "_loglik", lambda a, hist: calls.append(a) or loglik(a, hist))
        hist = CountHistogram.from_observations(sample_hermite(HermiteParams((1.0, 1.0)), 10_000, seed=1).values)
        trace = select_order(hist, 3, 0.05)
        assert len(calls) == 23
        assert [f.iterations for f in trace.fits] == [0, 7, 7]
        assert trace.fits[2].loglik == -21120.335440502266

    def test_steep_start_at_order_fifty_converges(self):
        # the first acceptable step from here is ~6.8e-21, where max|g| is
        # 2.9e14; a fixed step floor of 1e-18 stopped at 0 iterations, -697.52
        hist = CountHistogram.from_mapping({0: 1, 1000: 1})
        fit = _ascend(hist, HermiteParams((500.0,) + (0.0,) * 49), DEFAULT_TOL, 100)
        assert fit.converged
        assert fit.loglik >= -16.2840

    def test_loglik_never_below_initializer(self):
        batch = sample_hermite(HermiteParams((1.0, 0.5, 0.2)), 5_000, seed=29)
        hist = CountHistogram.from_observations(batch.values)
        res = fit_mle(hist, 3)
        assert res.loglik >= log_likelihood(res.init, hist)

    def test_monotone_ascent(self):
        batch = sample_hermite(HermiteParams((1.0, 0.5)), 5_000, seed=37)
        hist = CountHistogram.from_observations(batch.values)
        init = fit_moments(hist, 2)
        logliks = [ll for _, ll, _ in mle_iterates(hist, init)]
        assert all(b >= a for a, b in zip(logliks, logliks[1:]))

    def test_kkt_at_convergence(self, np_rng):
        # interior coordinates: gradient ~ 0; active bounds: gradient <= 0
        for seed in (61, 62, 63):
            truth = HermiteParams(tuple(np_rng.uniform(0.2, 1.5, size=2)))
            batch = sample_hermite(truth, 5_000, seed=seed)
            hist = CountHistogram.from_observations(batch.values)
            res = fit_mle(hist, 3)
            assert res.converged
            grad = loglik_gradient(res.params, hist)
            slack = res.grad_norm + 1e-8 * (1.0 + abs(res.loglik))
            for aj, gj in zip(res.params.a, grad):
                if aj > 0.0:
                    assert abs(gj) <= slack
                else:
                    assert gj <= slack

    def test_mean_matching_at_interior_mle(self):
        batch = sample_hermite(HermiteParams((1.0, 0.5)), 50_000, seed=71)
        hist = CountHistogram.from_observations(batch.values)
        res = fit_mle(hist, 2)
        assert all(x > 0 for x in res.params.a)
        fitted_mean = sum(i * x for i, x in enumerate(res.params.a, start=1))
        assert fitted_mean == pytest.approx(hist.mean(), rel=1e-6)

    def test_histogram_representation_invariance(self):
        values = sample_hermite(HermiteParams((1.0, 0.5)), 2_000, seed=83).values
        raw = CountHistogram.from_observations(values)
        agg = CountHistogram.from_mapping(
            {k: values.count(k) for k in sorted(set(values))}
        )
        res_raw = fit_mle(raw, 2)
        res_agg = fit_mle(agg, 2)
        assert res_raw.params.a == res_agg.params.a
        assert res_raw.loglik == res_agg.loglik
        assert res_raw.iterations == res_agg.iterations

    def test_overdispersed_order_two_starts_at_the_order_one_fit(self):
        # heavily overdispersed data zero a_1 in the moment estimate, which
        # would give the lone odd observation probability 0; order 2 starts
        # at the order-1 fit with a zero appended, of finite likelihood
        values = [0, 0, 0, 4, 4, 6, 2, 8, 1]
        hist = CountHistogram.from_observations(values)
        assert fit_moments(hist, 2).a[0] == 0.0
        res = fit_mle(hist, 2)
        assert math.isfinite(res.loglik)
        assert res.init.a == (hist.mean(), 0.0)

    def test_far_apart_pair_climbs_above_its_order_one_start(self):
        # order 2 starts at the order-1 fit with a zero appended, converges
        # strictly above it, and keeps the sample mean
        hist = CountHistogram.from_mapping({0: 1, 50000: 1})
        poisson = fit_mle(hist, 1)
        res = fit_mle(hist, 2)
        assert res.converged
        assert res.loglik > poisson.loglik
        assert res.init.a == (hist.mean(), 0.0)
        fitted_mean = res.params.a[0] + 2 * res.params.a[1]
        assert fitted_mean == pytest.approx(hist.mean(), rel=1e-5)

    def test_order_fifty_starts_at_the_order_forty_nine_fit(self):
        # the order-50 rung starts at the order-49 fit with a zero appended;
        # two steps per rung already climb the ladder to a loglik above -100
        hist = CountHistogram.from_mapping({0: 1, 1000: 1})
        res = fit_mle(hist, 50, max_iter=2)
        assert res.init.a[-1] == 0.0
        assert -100.0 < res.loglik < 0.0


def _mean_of(params: HermiteParams) -> float:
    return math.fsum(i * x for i, x in enumerate(params.a, start=1))


@st.composite
def histograms(draw) -> CountHistogram:
    counts = draw(st.lists(st.integers(0, 100), min_size=1, max_size=8, unique=True))
    freqs = draw(st.lists(st.integers(1, 60), min_size=len(counts), max_size=len(counts)))
    if max(counts) == 0:
        counts[0] = 1
    return CountHistogram(tuple(zip(counts, freqs)))


class TestMeanSlice:
    """Every rung is fitted on S = {a >= 0, sum_i i*a_i = mean}, where the maxima lie."""

    @settings(max_examples=100)
    @given(histograms())
    def test_ladder_invariants(self, hist):
        mean = hist.mean()
        fits = list(_ladder(hist, 4, DEFAULT_TOL, DEFAULT_MAX_ITER))
        for lower, upper in zip(fits, fits[1:]):
            assert upper.loglik >= lower.loglik
            if upper.iterations == 0:
                assert lrt_statistic(upper.loglik, lower.loglik) == 0.0
        for fit in fits:
            assert abs(_mean_of(fit.params) - mean) <= 1e-10 * mean
            a = np.array(fit.params.a)
            np.testing.assert_allclose(_onto_slice(a, mean), a, rtol=1e-12, atol=1e-12 * mean)

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(st.integers(0, 6), st.integers(1, 40), min_size=2).map(CountHistogram.from_mapping),
        st.integers(1, 8),
        st.sampled_from([(DEFAULT_TOL, DEFAULT_MAX_ITER), (1e-4, DEFAULT_MAX_ITER), (0.0, 20)]),
    )
    def test_orders_above_the_largest_count_give_the_climbs_fit(self, hist, above, stop):
        # fit_mle evaluates rung r once at the padded order-M fit; the ladder
        # climbs every rung in between, and both must give the same bits
        r, (tol, max_iter) = hist.max_count + above, stop
        *_, climbed = _ladder(hist, r, tol, max_iter)
        fit = fit_mle(hist, r, tol=tol, max_iter=max_iter)
        assert repr(fit) == repr(climbed)
        if fit.converged:
            assert fit.params.a[hist.max_count :] == (0.0,) * above

    def test_order_one_sits_on_its_one_point_slice(self):
        hist = CountHistogram.from_mapping({0: 3, 1: 5, 2: 2, 7: 1})
        fit = fit_mle(hist, 1)
        assert fit.params.a == (hist.mean(),)
        assert (fit.iterations, fit.grad_norm, fit.converged) == (0, 0.0, True)

    def test_far_apart_pair_fits_the_mean_exactly(self):
        # the orthant ascent stopped with the fitted mean 2.6e-4 below the
        # sample mean, at loglik -346581.0870
        hist = CountHistogram.from_mapping({0: 1, 10**6: 1})
        fit = fit_mle(hist, 2)
        assert fit.converged
        assert fit.params.a == (0.0, 250000.0)
        assert fit.loglik >= -346581.0870219001

    def test_six_bin_order_three_fits_the_mean_exactly(self):
        # the orthant ascent reported convergence 1.1e-6 off the sample mean
        hist = CountHistogram.from_mapping({1: 7657, 461: 725, 893: 5127, 1504: 538, 1568: 3161, 2076: 93})
        fit = fit_mle(hist, 3)
        assert fit.converged
        assert abs(_mean_of(fit.params) - hist.mean()) <= 1e-15 * hist.mean()
        assert fit.loglik >= -2379129.239591263

    def test_start_off_the_slice_refused(self):
        hist = CountHistogram.from_mapping({0: 3, 1: 5, 2: 2})
        with pytest.raises(DomainError, match="off the sample mean"):
            next(mle_iterates(hist, HermiteParams((0.5, 0.5))))
        # a start on the slice to rounding is taken as it is
        start = HermiteParams((0.9 * hist.mean(), 0.05 * hist.mean() * (1 + 1e-12)))
        assert next(mle_iterates(hist, start))[0] == start

    def test_all_zero_data_refused_before_the_start(self):
        with pytest.raises(DataError, match="sample mean is zero"):
            next(mle_iterates(CountHistogram.from_mapping({0: 4}), HermiteParams((0.0,))))
