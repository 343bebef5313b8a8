"""Probability tables, adaptive truncation, likelihood, and its gradient."""

import copy
import json
import math
import os
import pickle
import reprlib
import subprocess
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hermite_counts import pmf
from hermite_counts import (
    CountHistogram,
    DataError,
    DomainError,
    HermiteParams,
    IterationCap,
    OverflowGuard,
    PmfTable,
    adaptive_pmf,
    log_likelihood,
    loglik_gradient,
    pmf_table,
)

from conftest import poisson_table_exact, random_params, scaled_poisson_convolution


def array_constructor_refusal(values):
    """The message PmfTable refuses ``values`` with, or None, by the package's
    vector rule: a sequence that is not str or bytes, or an object with
    ndim == 1 read through tolist(), each entry read by float(); then the
    table's own checks."""
    refused = f"probs must be a sequence of real numbers, got {reprlib.repr(values)}"
    if isinstance(values, Sequence) and not isinstance(values, (str, bytes)):
        entries = values
    elif getattr(values, "ndim", None) == 1:
        entries = values.tolist()
    else:
        return refused
    try:
        p = [float(x) for x in entries]
    except OverflowError:
        return "an entry of probs is beyond the double range"
    except (TypeError, ValueError):
        return refused
    if not p:
        return "a pmf table needs a one-dimensional, non-empty vector"
    if not all(map(math.isfinite, p)):
        return "pmf table entries must be finite"
    if min(p) < 0.0:
        return "pmf table entries must be non-negative"
    total = math.fsum(p)
    if total > 1.0 + 1e-12:
        return f"pmf table mass {total} exceeds 1"
    return None


class TestPmfTable:
    def test_poisson_two(self):
        table = pmf_table(HermiteParams((2.0,)), 3)
        e2 = math.exp(-2.0)
        np.testing.assert_allclose(table.probs, [e2, 2 * e2, 2 * e2, 4 * e2 / 3], rtol=1e-15)

    def test_running_order_two_example(self):
        table = pmf_table(HermiteParams((1.0, 0.5)), 3)
        e = math.exp(-1.5)
        np.testing.assert_allclose(table.probs, [e, e, e, 2 * e / 3], rtol=1e-15)

    def test_doubled_poisson_zero_gaps(self):
        table = pmf_table(HermiteParams((0.0, 0.5)), 2)
        e = math.exp(-0.5)
        np.testing.assert_allclose(table.probs, [e, 0.0, 0.5 * e], rtol=1e-15)
        assert table.probs[1] == 0.0

    def test_odd_entries_exactly_zero(self):
        table = pmf_table(HermiteParams((0.0, 0.7)), 25)
        assert np.all(table.probs[1::2] == 0.0)
        assert np.all(table.probs[0::2] > 0.0)

    def test_p0_is_exact_exponential(self, np_rng):
        for _ in range(20):
            params = random_params(np_rng)
            assert pmf_table(params, 0).probs[0] == math.exp(-params.total_rate)

    def test_poisson_reduction_tight(self):
        for lam in (0.5, 2.0, 10.0):
            table = pmf_table(HermiteParams((lam,)), 30)
            np.testing.assert_allclose(table.probs, poisson_table_exact(lam, 30), rtol=1e-12)

    def test_matches_brute_force_convolution(self, np_rng):
        for _ in range(60):
            params = random_params(np_rng, r_max=4, hi=3.0)
            oracle = scaled_poisson_convolution(params.a)
            table = pmf_table(params, len(oracle) - 1)
            np.testing.assert_allclose(table.probs, oracle, atol=1e-10, rtol=0.0)

    def test_rejects_negative_k(self):
        with pytest.raises(DomainError):
            pmf_table(HermiteParams((1.0,)), -1)

    def test_k_max_above_the_table_bound_rejected(self, monkeypatch):
        # the bound is checked before anything is allocated
        import hermite_counts.pmf as pmf_mod

        monkeypatch.setattr(pmf_mod, "MAX_TABLE_LEN", 100)
        assert len(pmf_table(HermiteParams((1.0,)), 100)) == 101
        with pytest.raises(DomainError, match="k_max"):
            pmf_table(HermiteParams((1.0,)), 101)

    def test_fractional_k_max_rejected(self):
        table = pmf_table(HermiteParams((1.0,)), 10)
        for call in (lambda k: pmf_table(HermiteParams((1.0,)), k), table.truncate):
            with pytest.raises(DomainError, match="whole number"):
                call(3.5)
        assert pmf_table(HermiteParams((1.0,)), 3.0).probs.tolist() == table.probs[:4].tolist()
        assert table.truncate(np.int64(3)).probs.tolist() == table.probs[:4].tolist()
        assert table.truncate(3.0).probs.tolist() == table.probs[:4].tolist()

    @pytest.mark.parametrize(
        "probs",
        [[], [[0.5, 0.5]], [0.5, math.nan], [0.5, math.inf], [1.2, -0.2], [0.7, 0.4]],
        ids=["empty", "two-dimensional", "nan", "inf", "negative", "mass-above-one"],
    )
    def test_invalid_vectors_rejected(self, probs):
        with pytest.raises(DomainError):
            PmfTable(np.array(probs))

    def test_entry_that_is_no_number_rejected(self):
        # np.asarray(["a"], dtype=float) raised a bare ValueError
        with pytest.raises(DomainError, match="real numbers"):
            PmfTable(["a"])

    def test_probs_is_a_read_only_float64_array_of_the_entries_built_once(self):
        table = pmf_table(HermiteParams((1.0, 0.5)), 12)
        assert all(type(pk) is float for pk in table.entries)
        probs = table.probs
        assert type(probs) is np.ndarray and probs.dtype == np.float64 and probs.shape == (13,)
        assert probs.tolist() == list(table.entries)
        assert not probs.flags.writeable
        with pytest.raises(ValueError):
            probs[0] = 0.5
        assert table.probs is probs

    def test_printing_shows_the_entries_and_never_loads_numpy(self):
        # a fresh interpreter, where nothing has loaded numpy yet
        session = (
            "import json, sys\n"
            "from hermite_counts import HermiteParams, pmf_table\n"
            "table = pmf_table(HermiteParams((1.0,)), 3)\n"
            "print(json.dumps([repr(table), list(map(repr, table.entries)), 'numpy' in sys.modules]))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", session], capture_output=True, env=dict(os.environ, PYTHONPATH=src), check=False
        )
        assert proc.returncode == 0, proc.stderr.decode()
        text, entries, numpy_loaded = json.loads(proc.stdout)
        assert not numpy_loaded
        assert text.startswith("PmfTable(entries=(") and "probs" not in text
        assert all(entry in text for entry in entries)

    def test_an_unknown_attribute_is_refused_by_name(self):
        table = pmf_table(HermiteParams((1.0,)), 3)
        with pytest.raises(AttributeError, match="'PmfTable' object has no attribute 'nope'"):
            table.nope
        assert not hasattr(table, "nope")

    def test_probs_read_on_the_class_is_refused(self):
        with pytest.raises(AttributeError):
            PmfTable.probs

    @pytest.mark.parametrize(
        "duplicate", [copy.deepcopy, lambda table: pickle.loads(pickle.dumps(table))], ids=["deepcopy", "pickle"]
    )
    def test_a_copy_made_before_probs_is_read_builds_it(self, duplicate):
        # copying probes the new instance for __setstate__ while its dict is
        # still empty, before entries is set
        table = pmf_table(HermiteParams((1.0, 0.5)), 12)
        assert "probs" not in vars(table)
        copied = duplicate(table)
        assert (copied.entries, copied.tail_mass) == (table.entries, table.tail_mass)
        assert copied.probs.tolist() == list(table.entries)
        assert not copied.probs.flags.writeable

    @pytest.mark.parametrize(
        "values",
        [
            pytest.param([], id="empty"),
            pytest.param(np.array([]), id="empty-array"),
            pytest.param([[0.5, 0.5]], id="two-dimensional"),
            pytest.param(np.array([[0.5, 0.5]]), id="two-dimensional-array"),
            pytest.param(0.5, id="zero-dimensional"),
            pytest.param(np.array(0.5), id="zero-dimensional-array"),
            pytest.param("0.5", id="zero-dimensional-string"),
            pytest.param([[0.5], [0.5, 0.2]], id="ragged"),
            pytest.param([0.5, math.nan], id="nan"),
            pytest.param(np.array([0.5, math.nan]), id="nan-array"),
            pytest.param((0.5, math.inf), id="inf"),
            pytest.param([0.5, None], id="none"),
            pytest.param([1.2, -0.2], id="negative"),
            pytest.param(np.array([1.2, -0.2]), id="negative-array"),
            pytest.param((0.7, 0.4), id="mass-above-one"),
            pytest.param(np.array([0.7, 0.4]), id="mass-above-one-array"),
            pytest.param(["a"], id="no-number"),
            pytest.param([0.5, 1j], id="complex"),
            pytest.param((x for x in [0.5]), id="generator"),
            pytest.param({0.5}, id="set"),
        ],
    )
    def test_refusals_are_those_of_the_array_constructor(self, values):
        want = array_constructor_refusal(values)
        assert want is not None
        with pytest.raises(DomainError) as refused:
            PmfTable(values)
        assert str(refused.value) == want

    @pytest.mark.parametrize(
        "values", [[0.25, 0], (True, False), ["0.25", "0.5"], [np.float64(0.5)], [np.array(0.25)], np.arange(3) / 4]
    )
    def test_accepted_inputs_read_as_the_array_constructor_reads_them(self, values):
        assert array_constructor_refusal(values) is None
        assert PmfTable(values).entries == tuple(np.asarray(values, dtype=float).tolist())

    def test_int_beyond_the_double_range_refused(self):
        # float() and numpy both raised a bare OverflowError
        with pytest.raises(DomainError, match="double range"):
            PmfTable([10**400])

    def test_rate_where_exp_underflows_matches_poisson(self):
        # exp(-800) underflows; the oracle forms log p_k from math.lgamma instead.
        lam, k_max = 800.0, 1400
        table = pmf_table(HermiteParams((lam,)), k_max)
        oracle = [math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1)) for k in range(k_max + 1)]
        np.testing.assert_allclose(table.probs, oracle, rtol=1e-10, atol=1e-300)
        assert abs(table.tail_mass) < 1e-12

    def test_truncate(self):
        table = pmf_table(HermiteParams((1.0, 0.5)), 10)
        cut = table.truncate(3)
        assert cut.k_max == 3
        np.testing.assert_array_equal(cut.probs, table.probs[:4])
        assert cut.tail_mass > table.tail_mass


class TestAdaptivePmf:
    def test_poisson_smallest_k(self):
        # smallest K with Poisson(2) tail below 1e-9 is 15 (sf(14) = 3.87e-9,
        # sf(15) = 4.80e-10 from the closed-form cdf)
        table = adaptive_pmf(HermiteParams((2.0,)), 1e-9)
        exact = poisson_table_exact(2.0, 40)
        tails = 1.0 - np.cumsum(exact)
        expected_k = int(np.argmax(tails < 1e-9))
        assert expected_k == 15
        assert table.k_max == expected_k

    def test_point_mass(self):
        table = adaptive_pmf(HermiteParams((0.0, 0.0)), 1e-6)
        assert table.k_max == 0
        np.testing.assert_array_equal(table.probs, [1.0])

    def test_tail_below_eps(self, np_rng):
        for eps in (1e-6, 1e-9, 1e-12):
            for _ in range(20):
                params = random_params(np_rng, r_max=4, hi=3.0)
                assert adaptive_pmf(params, eps).tail_mass < eps

    def test_tight_eps_against_convolution(self):
        params = HermiteParams((1.0, 0.5))
        table = adaptive_pmf(params, 1e-12)
        assert math.fsum(table.probs.tolist()) >= 1.0 - 1e-12
        oracle = scaled_poisson_convolution(params.a)
        k = min(len(oracle), len(table.probs))
        np.testing.assert_allclose(table.probs[:k], oracle[:k], atol=1e-12)

    def test_rejects_bad_eps(self):
        for eps in (0.0, 1.0, -1e-3):
            with pytest.raises(DomainError):
                adaptive_pmf(HermiteParams((1.0,)), eps)

    def test_eps_below_the_rounding_floor_refused_at_once(self, monkeypatch):
        # The fsum tail of this law stalls at 1.02e-14 from 4,096 entries on;
        # doubling to 10**7 entries would only append exact zeros.
        import hermite_counts.pmf as pmf_mod

        sizes = []

        def spy(params, k_max):
            sizes.append(k_max)
            assert k_max <= 2**13, "built a table past the rounding floor"
            return pmf_table(params, k_max)

        monkeypatch.setattr(pmf_mod, "pmf_table", spy)
        with pytest.raises(DomainError, match=r"6\.37e-15.*1\.02\d*e-14"):
            adaptive_pmf(HermiteParams((915.6998783803818, 0.8973765121148648)), 6.37e-15)
        assert max(sizes) <= 2**13

    def test_gapped_law_is_not_mistaken_for_the_floor(self):
        # zeros at k = 177..199 are followed by mass from a_200
        table = adaptive_pmf(HermiteParams((1.0,) + (0.0,) * 198 + (1e-3,)), 1e-9)
        assert len(table) == 406
        assert table.tail_mass < 1e-9

    def test_iteration_cap(self, monkeypatch):
        import hermite_counts.pmf as pmf_mod

        monkeypatch.setattr(pmf_mod, "MAX_TABLE_LEN", 32)
        with pytest.raises(IterationCap):
            adaptive_pmf(HermiteParams((30.0,)), 1e-12)

    def test_last_try_is_the_cap_itself(self, monkeypatch):
        # doubling from 64 passed over 100; the 93 entries this law needs fit
        import hermite_counts.pmf as pmf_mod

        monkeypatch.setattr(pmf_mod, "MAX_TABLE_LEN", 100)
        assert len(adaptive_pmf(HermiteParams((40.0,)), 1e-12)) == 93

    @pytest.mark.parametrize(
        "a, eps, k_max",
        [
            ((0.055902383627816174,), 2.2425941372445393e-15, 7),
            ((9.81245119458477, 0.4799895095473067, 0.017141350679836242), 3.804746319275413e-15, 48),
            ((6.364512773302374,), 2.748169475329887e-15, 35),
            ((0.11681437393189106, 3.85245764906573, 25.227224949178876, 1.5572340798607986), 1.423507370222915e-15, 248),
        ],
    )
    def test_cut_on_either_side_of_the_float_estimate(self, a, eps, k_max):
        # the cumsum estimate of the tail overshoots in the first two cases,
        # where a walk up from it returned one entry more than the smallest
        # table; in the last two it falls one entry short, where the fsum
        # tail of its cut is still at least eps
        table = adaptive_pmf(HermiteParams(a), eps)
        assert table.k_max == k_max
        assert table.tail_mass < eps <= table.truncate(k_max - 1).tail_mass


def table_bits(table):
    m, e = table
    return [x.hex() for x in m], e


class TestExtensionByZero:
    """The ladder starts rung r + 1 from rung r's final table where
    pmf._extends_by_zero says it is the table with a zero appended."""

    @given(
        a=st.lists(st.sampled_from([0.0, 1e-300, 1e-5, 0.3, 2.0, 40.0, 500.0, 800.0, 3000.0]), min_size=1, max_size=5),
        k_max=st.integers(0, 400),
    )
    @example(a=[500.0], k_max=10)  # rescaled at step 1, which order 2 repeats
    @example(a=[0.0, 0.0, 800.0], k_max=40)  # zeros between the nonzero mantissas
    @example(a=[2.0], k_max=2_000)  # rescaled past step 1
    def test_said_to_extend_by_zero_only_where_it_does(self, a, k_max):
        table = pmf._scaled_pmf(a, k_max)
        padded = pmf._scaled_pmf(a + [0.0], k_max)
        if pmf._extends_by_zero(table):
            assert table_bits(padded) == table_bits(table)

    @pytest.mark.parametrize(
        "a, k_max, extends",
        [([500.0], 10, True), ([1.0, 1.0], 30, True), ([0.0, 2.0], 30, True), ([2.0], 2_000, False)],
    )
    def test_the_test_holds_where_no_rescale_follows_step_r(self, a, k_max, extends):
        assert pmf._extends_by_zero(pmf._scaled_pmf(a, k_max)) is extends


class TestLogLikelihood:
    def test_single_zero_count(self):
        hist = CountHistogram.from_mapping({0: 1})
        assert log_likelihood(HermiteParams((2.0,)), hist) == pytest.approx(-2.0, rel=1e-15)

    def test_three_equal_probabilities(self):
        hist = CountHistogram.from_mapping({0: 1, 1: 1, 2: 1})
        assert log_likelihood(HermiteParams((1.0, 0.5)), hist) == pytest.approx(-4.5, rel=1e-14)

    def test_zero_gap_gives_minus_infinity(self):
        hist = CountHistogram.from_mapping({1: 1})
        assert log_likelihood(HermiteParams((0.0, 0.5)), hist) == float("-inf")

    def test_empty_histogram_rejected_at_construction(self):
        with pytest.raises(DataError):
            CountHistogram.from_mapping({})

    def test_mean_just_below_the_guard(self):
        hist = CountHistogram.from_mapping({1: 2, 3: 2})
        lam = 1e120
        closed = math.fsum(f * (c * math.log(lam) - lam - math.lgamma(c + 1)) for c, f in hist.bins)
        assert log_likelihood(HermiteParams((lam,)), hist) == pytest.approx(closed, rel=1e-15)

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda params, hist: pmf_table(params, 3),
            lambda params, hist: adaptive_pmf(params, 1e-12),
            log_likelihood,
            loglik_gradient,
        ],
        ids=["pmf_table", "adaptive_pmf", "log_likelihood", "loglik_gradient"],
    )
    def test_overflowing_mean_is_guarded(self, evaluate):
        # one step of the recurrence would overflow the scaled mantissas
        hist = CountHistogram.from_mapping({1: 2, 3: 2})
        with pytest.raises(OverflowGuard, match="a_2"):
            evaluate(HermiteParams((1.0, 1e300)), hist)

    @pytest.mark.parametrize(
        "evaluate",
        [lambda params, hist: pmf_table(params, 3), lambda params, hist: adaptive_pmf(params, 1e-12), log_likelihood],
        ids=["pmf_table", "adaptive_pmf", "log_likelihood"],
    )
    def test_mean_beyond_the_double_range_is_guarded(self, evaluate):
        # every term i*a_i is finite, but their sum overflows
        hist = CountHistogram.from_mapping({1: 2})
        with pytest.raises(OverflowGuard):
            evaluate(HermiteParams((1e308, 4e307)), hist)


class TestLoglikGradient:
    def test_hand_computed_poisson(self):
        hist = CountHistogram.from_mapping({0: 1})
        grad = loglik_gradient(HermiteParams((2.0,)), hist)
        np.testing.assert_allclose(grad, [-1.0], rtol=1e-15)

    def test_stationary_at_equal_leading_probabilities(self):
        hist = CountHistogram.from_mapping({2: 1})
        grad = loglik_gradient(HermiteParams((1.0, 0.5)), hist)
        np.testing.assert_allclose(grad, [0.0, 0.0], atol=1e-14)

    def test_zero_probability_rejected(self):
        hist = CountHistogram.from_mapping({1: 1})
        with pytest.raises(DomainError):
            loglik_gradient(HermiteParams((0.0, 0.5)), hist)

    def test_matches_central_finite_differences(self, np_rng):
        h = 1e-6
        for _ in range(25):
            r = int(np_rng.integers(1, 5))
            params = HermiteParams(tuple(np_rng.uniform(0.2, 3.0, size=r)))
            data = np_rng.poisson(2.0, size=150)
            hist = CountHistogram.from_observations(int(x) for x in data)
            grad = loglik_gradient(params, hist)
            for j in range(r):
                up = list(params.a)
                dn = list(params.a)
                up[j] += h
                dn[j] -= h
                fd = (
                    log_likelihood(HermiteParams(tuple(up)), hist)
                    - log_likelihood(HermiteParams(tuple(dn)), hist)
                ) / (2 * h)
                assert abs(fd - grad[j]) / max(1.0, abs(grad[j])) < 1e-6

    @pytest.mark.parametrize("r", [4, 5, 12, 200])
    def test_orders_above_the_largest_count_match_the_definition_bit_for_bit(self, r):
        # d l / d a_j = fsum_k n_k (p_{k-j}/p_k - 1) with p_{k-j} = 0 for k < j,
        # coordinate by coordinate, for j up to and beyond the largest count 3
        from hermite_counts.pmf import _scaled_pmf

        hist = CountHistogram.from_mapping({0: 1, 1: 2, 2: 1, 3: 1})
        params = HermiteParams(tuple(0.7 / i for i in range(1, r + 1)))
        m, e = _scaled_pmf(params.a, hist.max_count)
        definition = [
            math.fsum(
                f * ((math.ldexp(m[k - j] / m[k], e[k - j] - e[k]) if k >= j else 0.0) - 1.0) for k, f in hist.bins
            )
            for j in range(1, r + 1)
        ]
        grad = loglik_gradient(params, hist)
        assert grad.dtype == np.float64 and grad.shape == (r,)
        assert grad.tolist() == definition
        assert grad[3:].tolist() == [-5.0] * (r - 3)
