"""A derandomized sweep of the model and sampling layers across their domains.

Model coefficients are 0 or lie in [1e-300, 1e300], at orders 1 to 8; for
the first property they reach 1e308.  Every public model-layer function must
answer or raise a ``HermiteError``, the params -> kappa -> params round trip
must be admissible and give kappa back, and the closure identities must hold;
the pgf of a table is checked at orders 1 to 4 and coefficients 0 or in
[1e-3, 10**0.5], where a tail mass of 1e-15 stays above the rounding floor.
Errors are measured norm-wise, max|x - y| / max(|x|, |y|): a coordinate far
below the largest keeps only the absolute rounding of the largest, and one in
the subnormal range only the subnormal spacing, so the scale is never taken
below the smallest normal double.

Sampled rates are 0 or lie in [1e-3, 1e4], at orders 1 to 4, sample sizes
are 1 to 40 and one either side of the block size, and seeds are any
integers in [-2**65, 2**65].  ``sample_hermite`` and ``thin_sample`` must
give exactly the draws of their scalar definitions on one ``SplitMix64``
each, and a rate above the component limit must be refused.

The projection onto the mean slice {a >= 0, sum_i i*a_i = mean} that the
likelihood ascent takes is checked at orders 1 to 60 on entries 0 or
+-[1e-12, 1e12] and means in [1e-12, 1e12]: its output must be a
non-negative point of the slice, of the form max(y_i - tau*i, 0), and a
fixed point of the projection, each to rounding.

The pmf engine's log p_k = log m_k + e_k*ln 2 is checked against mpmath at
30 digits, to 1e-13 relative to max(1, |log p_k|) (a probability near 1 is
held to its absolute rounding): at order 1 against k*ln(rate) - rate -
lnGamma(k+1), for rates in [1e-3, 1e6], on 25 counts of a table that reaches
k = 1.5*rate up to rate 2e4 and k = 200 above it; at orders 2 to 4 against
the recurrence run in mpmath, on coefficients 0 or in [1e-3, 1e2] and every
entry of tables up to 500 long, where a zero entry must be exactly zero.

Histograms have 1 to 8 bins and frequencies up to 10**6, with counts near 0
or anywhere up to the 10**6 maximum.  The moment functions must answer or
raise a ``HermiteError`` at orders 1 to 60 (the examples reach 188), and the
likelihood fits at orders 1 to 3, on counts up to 12, must answer with a
finite log-likelihood and the sample mean, and an all-zero histogram must
be refused with the zero-mean DataError.  The ladder's closed-form order-1
fit must be the one the ascent from (mean,) returns, or raise its error, on
counts up to 2000 at tolerances 0 to 1 and iteration caps 0, 1 and the
default.

Every integer argument of the public API (table lengths, sample sizes, orders,
iteration caps, trial counts, seeds and streams) is fed ints, bools, numpy
integers and floats, whole and fractional floats, NaN, infinities, None,
strings and ints outside its range.  A whole number in range must answer
exactly as its int does; anything else must be refused with a DomainError
naming the argument.  Every real-valued argument must answer a numpy float
or a Fraction as it answers the float, and refuse None, a string, a list, NaN
and values outside its interval with a DomainError naming it.  Every vector
argument must read a list, a tuple, a range, an array.array, a one-dimensional
ndarray, and a list of 0-d arrays or numeric strings, as the same floats, and
refuse sets, mappings, iterators, arrays of another dimension and scalars with
a DomainError naming it.  The three tables must name every argument annotated
int, float or a vector of them in the public signatures.
"""

import array
import inspect
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hermite_counts import (
    CountHistogram,
    DataError,
    DomainError,
    FactorialCumulants,
    HermiteError,
    HermiteParams,
    OverflowGuard,
    PmfTable,
    SampleBatch,
    SplitMix64,
    adaptive_pmf,
    add_params,
    alternating_geometric_pgf_values,
    alternating_geometric_pmf,
    doubled_poisson_pmf,
    factorial_cumulants_to_params,
    factorial_moments_to_cumulants,
    fit_mle,
    fit_moments,
    hermite2_from_mean_variance,
    lrt_pvalue,
    lrt_statistic,
    negative_binomial_pmf,
    ordinary_cumulants,
    params_to_factorial_cumulants,
    pgf_eval,
    pmf_table,
    sample_factorial_moments,
    sample_hermite,
    sample_poisson,
    select_order,
    thin_factorial_cumulants,
    thin_params,
    thin_pmf_oracle,
    thin_sample,
    thinning_invariants,
)
from hermite_counts.estimation import DEFAULT_MAX_ITER, DEFAULT_TOL, _climb, _ladder, _onto_slice, mle_iterates
from hermite_counts.pmf import MAX_TABLE_LEN, _scaled_pmf
from hermite_counts.sampling import _BLOCK, MAX_COMPONENT_RATE, derive_seed, sample_binomial

#: Norm-wise agreement required; 3,000 examples of each property stayed below 6e-16.
TOL = 1e-14

coefficients = st.one_of(st.just(0.0), st.floats(-300.0, 300.0).map(lambda e: 10.0**e))
models = st.lists(coefficients, min_size=1, max_size=8).map(lambda a: HermiteParams(tuple(a)))
# up to the top of the double range, where sums of finite terms overflow
large_models = st.lists(st.one_of(coefficients, st.floats(0.0, 1e308)), min_size=1, max_size=8).map(
    lambda a: HermiteParams(tuple(a))
)
# p and q down to 1e-150 keep the product p*q a normal thinning fraction.
fractions = st.floats(-150.0, 0.0).map(lambda e: 10.0**e)
cumulant_vectors = st.lists(
    st.one_of(coefficients, coefficients.map(lambda x: -x)), min_size=1, max_size=8
).map(lambda k: FactorialCumulants((abs(k[0]), *k[1:])))
rates = st.one_of(st.just(0.0), st.floats(-3.0, 4.0).map(lambda e: 10.0**e))

histograms = st.dictionaries(
    st.one_of(st.integers(0, 20), st.integers(0, 10**6)), st.integers(1, 10**6), min_size=1, max_size=8
).map(CountHistogram.from_mapping)
small_histograms = st.dictionaries(st.integers(0, 12), st.integers(1, 10**6), min_size=1, max_size=8).map(
    CountHistogram.from_mapping
)

# Nested containers of numbers, None and short strings: malformed histogram input.
containers = st.recursive(
    st.one_of(st.none(), st.integers(-2, 5), st.floats(), st.text(max_size=2)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(st.integers(-2, 5), inner, max_size=3),
    ),
    max_leaves=8,
)

#: Largest sample total thinned against the scalar oracle.
THINNED_TOTAL = 20_000


def normwise(x, y) -> float:
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    scale = max(np.abs(x).max(), np.abs(y).max(), np.finfo(float).tiny)
    return float(np.abs(x - y).max() / scale)


@settings(max_examples=150)
@given(params=large_models, other=large_models, cumulants=cumulant_vectors, p=fractions, t=st.floats(-2.0, 2.0))
def test_every_function_answers_or_raises_a_hermite_error(params, other, cumulants, p, t):
    calls = (
        lambda: params.total_rate,
        lambda: params_to_factorial_cumulants(params),
        lambda: factorial_cumulants_to_params(cumulants),
        lambda: thinning_invariants(ordinary_cumulants(params)),
        lambda: thin_params(params, p),
        lambda: thin_factorial_cumulants(cumulants, p),
        lambda: add_params(params, other),
        lambda: pgf_eval(params, t),
    )
    for call in calls:
        try:
            call()
        except HermiteError:
            pass


@settings(max_examples=200)
@given(params=models)
def test_cumulant_round_trip_is_admissible_and_gives_kappa_back(params):
    kappa = params_to_factorial_cumulants(params)
    back = params_to_factorial_cumulants(factorial_cumulants_to_params(kappa))
    assert normwise(back.kappa, kappa.kappa) <= TOL


@settings(max_examples=150)
@given(params=models, other=models, p=fractions, q=fractions)
def test_closure_identities(params, other, p, q):
    twice = thin_params(thin_params(params, p), q)
    assert normwise(twice.a, thin_params(params, p * q).a) <= TOL
    summed = add_params(thin_params(params, p), thin_params(other, p))
    assert normwise(thin_params(add_params(params, other), p).a, summed.a) <= TOL
    kappa = thin_factorial_cumulants(params_to_factorial_cumulants(params), p)
    assert normwise(params_to_factorial_cumulants(thin_params(params, p)).kappa, kappa.kappa) <= TOL


@settings(max_examples=100)
@given(
    a=st.lists(st.one_of(st.just(0.0), st.floats(-3.0, 0.5).map(lambda e: 10.0**e)), min_size=1, max_size=4),
    t=st.floats(-1.0, 1.0),
)
def test_pgf_of_the_table_is_pgf_eval(a, t):
    params = HermiteParams(tuple(a))
    table = adaptive_pmf(params, 1e-15)
    series = math.fsum(p_k * t**k for k, p_k in enumerate(table.probs.tolist()))
    # |t| <= 1, so the terms past the table add at most its tail mass.  In
    # units of 2**-52: p_0 = exp(-lam) carries about lam, and so does
    # pgf_eval's exponent sum_i a_i (t**i - 1); each of the table's ~mean
    # steps adds r products, a sum and a division; t**k, the product, fsum
    # and exp add one each.
    lam, mean = params.total_rate, sum(i * x for i, x in enumerate(a, start=1))
    rounding = 2.0**-52 * (2.0 * lam + (len(a) + 2) * mean + 4.0)
    assert abs(series - pgf_eval(params, t)) <= max(table.tail_mass, 0.0) + rounding


@settings(max_examples=100)
@given(
    a=st.lists(rates, min_size=1, max_size=4),
    n=st.integers(1, 40),
    seed=st.integers(-(2**65), 2**65),
    p=st.floats(0.0, 1.0, exclude_min=True),
    too_large=st.floats(MAX_COMPONENT_RATE, 1e308, exclude_min=True),
)
# one draw either side of a block edge, in both Poisson regimes
@example(a=[1.5], n=_BLOCK + 1, seed=-3, p=0.4, too_large=2e6)
@example(a=[0.3, 0.0, 31.0], n=_BLOCK - 1, seed=2**64 + 9, p=0.7, too_large=2e6)
def test_sampling_matches_its_scalar_definition(a, n, seed, p, too_large):
    rng = SplitMix64(seed)
    draws = tuple(sum(i * sample_poisson(rate, rng) for i, rate in enumerate(a, start=1)) for _ in range(n))
    batch = sample_hermite(HermiteParams(tuple(a)), n, seed)
    assert batch.values == draws
    # sample_binomial runs x scalar trials where (1 - q)**x underflows, so the
    # thinning oracle is run only where that stays cheap
    if sum(draws) <= THINNED_TOTAL:
        rng = SplitMix64(seed)
        assert thin_sample(batch, p, seed).values == tuple(sample_binomial(x, p, rng) for x in draws)
    with pytest.raises(OverflowGuard):
        sample_hermite(HermiteParams((*a[:-1], too_large)), n, seed)


@settings(max_examples=100)
@given(hist=histograms, r=st.integers(1, 60), moments=st.lists(st.floats(), max_size=8))
@example(hist=CountHistogram.from_mapping({0: 1, 10**6: 1}), r=46, moments=[])
@example(hist=CountHistogram.from_mapping({0: 1, 1: 2, 2: 1, 3: 1}), r=188, moments=[1.0, math.inf])
def test_moment_estimator_answers_or_raises_a_hermite_error(hist, r, moments):
    calls = (
        lambda: sample_factorial_moments(hist, r),
        lambda: factorial_moments_to_cumulants(sample_factorial_moments(hist, r)),
        lambda: factorial_moments_to_cumulants(tuple(moments)),
        lambda: fit_moments(hist, r),
    )
    for call in calls:
        try:
            call()
        except HermiteError:
            pass


@settings(max_examples=100)
@given(container=containers)
def test_histogram_constructors_answer_or_raise_a_data_error(container):
    for build in (CountHistogram, CountHistogram.from_mapping, CountHistogram.from_observations):
        try:
            build(container)
        except DataError:
            pass


@settings(max_examples=100)
@given(hist=small_histograms, r=st.integers(1, 3))
@example(hist=CountHistogram.from_mapping({0: 3}), r=1)
@example(hist=CountHistogram.from_mapping({0: 3}), r=3)
def test_likelihood_fits_answer_at_the_sample_mean(hist, r):
    if hist.max_count == 0:
        for call in (lambda: fit_mle(hist, r), lambda: select_order(hist, r, 0.05)):
            with pytest.raises(DataError, match="^sample mean is zero; every observation is 0$"):
                call()
        return
    mean = hist.mean()
    for fit in (fit_mle(hist, r), *select_order(hist, r, 0.05).fits):
        assert math.isfinite(fit.loglik)
        assert abs(math.fsum(i * x for i, x in enumerate(fit.params.a, start=1)) - mean) <= 1e-10 * mean


def fit_or_error(call):
    """repr of the fit ``call`` returns (every float exact, -0.0 apart), or its error's type and message."""
    try:
        return repr(call())
    except HermiteError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=100)
@given(
    hist=small_histograms
    | st.dictionaries(st.integers(0, 2000), st.integers(1, 10**6), min_size=1, max_size=8).map(
        CountHistogram.from_mapping
    ),
    tol=st.sampled_from([0.0, 1e-12, DEFAULT_TOL, 1.0]),
    max_iter=st.sampled_from([0, 1, DEFAULT_MAX_ITER]),
)
@example(hist=CountHistogram.from_mapping({0: 1, 10**6: 1}), tol=0.0, max_iter=0)
@example(hist=CountHistogram.from_mapping({0: 7}), tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER)
def test_order_one_rung_is_the_ascent_from_the_mean(hist, tol, max_iter):
    # the ladder builds order 1 in closed form; the ascent it replaces must
    # give the same fit, or the same error
    rung = fit_or_error(lambda: next(_ladder(hist, 1, tol, max_iter)))
    assert rung == fit_or_error(lambda: _climb(hist, HermiteParams((hist.mean(),)), tol, max_iter)[0])


EPS = np.finfo(float).eps
decades = st.floats(-12.0, 12.0).map(lambda e: 10.0**e)


@settings(max_examples=200)
@given(
    y=st.lists(st.one_of(st.just(0.0), decades, decades.map(lambda x: -x)), min_size=1, max_size=60),
    mean=decades,
)
# one projection pass leaves this 8e4 roundings of the mean off the slice;
# in the second, no breakpoint exceeds its tau in rounded arithmetic
@example(y=[2.7248734085105224, -5.8570204646587755e-08, 31416701624.47392, 6.14605940642128e-06], mean=7.799764831184536e-11)
@example(y=[1e12, 1e12], mean=1e-12)
def test_slice_projection_lands_on_the_slice(y, mean):
    r = len(y)
    z = _onto_slice(y, mean)
    assert len(z) == r and min(z) >= 0.0
    assert abs(math.fsum(i * x for i, x in enumerate(z, start=1)) - mean) <= 4 * EPS * mean
    # tau read off the largest coordinate carries its rounding, times i, into the others
    k = max(range(r), key=z.__getitem__) + 1
    tau = (y[k - 1] - z[k - 1]) / k
    scale = max(max(map(abs, y)), abs(tau) * r, mean)
    assert max(abs(max(yi - tau * i, 0.0) - zi) for i, (yi, zi) in enumerate(zip(y, z), start=1)) <= 4 * r * EPS * scale
    assert max(abs(a - b) for a, b in zip(_onto_slice(z, mean), z)) <= 4 * EPS * mean


#: Agreement of log p_k with mpmath, relative to max(1, |log p_k|).
LOG_PMF_TOL = 1e-13


def log_pmf_error(m, e, k, exact) -> float:
    """|log p_k - exact| / max(1, |exact|) for the engine's p_k = m[k] * 2**e[k], in mpmath."""
    ours = mpmath.log(m[k]) + e[k] * mpmath.log(2)
    return float(abs(ours - exact) / max(1, abs(exact)))


@settings(max_examples=40)
@given(rate=st.floats(-3.0, 6.0).map(lambda e: 10.0**e))
@example(rate=1e6)
@example(rate=2e4)
def test_poisson_log_pmf_matches_mpmath(rate):
    k_max = 200 if rate > 2e4 else max(200, math.ceil(1.5 * rate))
    m, e = _scaled_pmf((rate,), k_max)
    with mpmath.workdps(30):
        lam = mpmath.mpf(rate)
        for k in sorted({*range(0, k_max, k_max // 24), k_max}):
            exact = k * mpmath.log(lam) - lam - mpmath.loggamma(k + 1)
            assert log_pmf_error(m, e, k, exact) <= LOG_PMF_TOL


@settings(max_examples=30)
@given(
    a=st.lists(st.one_of(st.just(0.0), st.floats(-3.0, 2.0).map(lambda e: 10.0**e)), min_size=2, max_size=4),
    k_max=st.integers(0, 499),
)
# a_1 = a_3 = 0: every odd entry is zero
@example(a=[0.0, 3.0, 0.0, 0.5], k_max=499)
def test_hermite_log_pmf_matches_the_mpmath_recurrence(a, k_max):
    m, e = _scaled_pmf(tuple(a), k_max)
    with mpmath.workdps(30):
        coeffs = [i * mpmath.mpf(x) for i, x in enumerate(a, start=1)]
        p = [mpmath.exp(-mpmath.fsum(mpmath.mpf(x) for x in a))]
        for k in range(1, k_max + 1):
            p.append(sum(c * pk for c, pk in zip(coeffs, reversed(p[-len(a) :]))) / k)
        for k, pk in enumerate(p):
            if pk == 0:
                assert m[k] == 0.0
            else:
                assert log_pmf_error(m, e, k, mpmath.log(pk)) <= LOG_PMF_TOL


HIST = CountHistogram.from_mapping({0: 3, 1: 4, 2: 2, 3: 1})
MODEL = HermiteParams((1.0, 0.5))
TRACE = select_order(HIST, 2, 0.5)

#: Every integer argument of the public API: its name in the error, a call
#: that passes it, and its range [lo, hi], where None is an open bound.
INTEGER_ARGUMENTS = {
    "pmf_table": ("k_max", lambda v: pmf_table(MODEL, v), 0, MAX_TABLE_LEN),
    "PmfTable.truncate": ("k_max", pmf_table(MODEL, 6).truncate, 0, MAX_TABLE_LEN),
    "doubled_poisson_pmf": ("k_max", lambda v: doubled_poisson_pmf(0.25, v), 0, MAX_TABLE_LEN),
    "negative_binomial_pmf": ("k_max", lambda v: negative_binomial_pmf(2.0, 0.5, v), 0, MAX_TABLE_LEN),
    "alternating_geometric_pmf": ("k_max", lambda v: alternating_geometric_pmf(0.5, v), 0, MAX_TABLE_LEN),
    "sample_hermite.n": ("sample size", lambda v: sample_hermite(MODEL, v, 1), 1, None),
    "sample_hermite.seed": ("seed", lambda v: sample_hermite(MODEL, 3, v), None, None),
    "thin_sample.seed": ("seed", lambda v: thin_sample(SampleBatch((3, 70, 0, 2), 0), 0.5, v), None, None),
    "SplitMix64": ("seed", lambda v: SplitMix64(v).next_u64(), None, None),
    "derive_seed.seed": ("seed", lambda v: derive_seed(v, 1), None, None),
    "derive_seed.stream": ("stream", lambda v: derive_seed(5, v), None, None),
    "sample_binomial": ("trial count", lambda v: sample_binomial(v, 0.5, SplitMix64(1)), 0, None),
    "fit_mle.r": ("r", lambda v: fit_mle(HIST, v), 1, None),
    "fit_mle.max_iter": ("max_iter", lambda v: fit_mle(HIST, 2, max_iter=v), 0, None),
    "fit_moments": ("r", lambda v: fit_moments(HIST, v), 1, None),
    "sample_factorial_moments": ("r", lambda v: sample_factorial_moments(HIST, v), 1, None),
    "select_order.r_max": ("r_max", lambda v: select_order(HIST, v, 0.5), 1, None),
    "select_order.max_iter": ("max_iter", lambda v: select_order(HIST, 2, 0.5, max_iter=v), 0, None),
    "mle_iterates.max_iter": (
        "max_iter",
        lambda v: list(mle_iterates(HIST, HermiteParams((HIST.mean(), 0.0)), max_iter=v)),
        0,
        None,
    ),
    "SelectionTrace.fit_for": ("order", TRACE.fit_for, 1, 2),
}


def accepted(value, lo, hi):
    """int(value) where the whole-number rule takes ``value`` in [lo, hi], else None."""
    real = isinstance(value, (float, np.floating)) and math.isfinite(value) and value % 1 == 0
    if isinstance(value, (int, np.integer)) or real:
        n = int(value)
        if (lo is None or lo <= n) and (hi is None or n <= hi):
            return n
    return None


def outcome(call, value):
    """What ``call(value)`` gives, as a comparable value: a table's entries, or
    the type of the HermiteError it raises."""
    try:
        result = call(value)
    except HermiteError as exc:
        return type(exc)
    return result.probs.tolist() if isinstance(result, PmfTable) else result


@pytest.mark.parametrize("function", sorted(INTEGER_ARGUMENTS))
def test_integer_argument_takes_whole_floats_and_refuses_the_rest(function):
    name, call, lo, hi = INTEGER_ARGUMENTS[function]
    k = min(3, hi or 3)
    assert outcome(call, float(k)) == outcome(call, k) == outcome(call, np.float64(k))
    for value in [1.5, math.nan, math.inf, -math.inf, None, "3"] + ([] if lo is None else [lo - 1]):
        with pytest.raises(DomainError, match=f"^{name} must be a whole number"):
            call(value)


def integer_like(lo, hi):
    small = st.integers(-3, 6)
    values = [
        small,
        st.booleans(),
        small.map(np.int64),
        st.integers(0, 6).map(np.uint64),
        small.map(float),
        small.map(np.float64),
        st.floats(-4.0, 7.0),
        st.floats(-4.0, 7.0, width=32).map(np.float32),
        st.sampled_from([math.nan, math.inf, -math.inf, None, "3", b"3", 3j]),
    ]
    if hi is not None:
        values.append(st.just(hi + 1))
    if lo is None:  # seeds: any whole number, masked to 64 bits
        values += [st.integers(-(2**70), 2**70), st.floats()]
    return st.one_of(values)


@settings(max_examples=100)
@given(data=st.data(), function=st.sampled_from(sorted(INTEGER_ARGUMENTS)))
def test_every_integer_argument_answers_as_its_int_or_is_refused(data, function):
    name, call, lo, hi = INTEGER_ARGUMENTS[function]
    value = data.draw(integer_like(lo, hi))
    n = accepted(value, lo, hi)
    if n is None:
        with pytest.raises(DomainError, match=f"^{name} must be a whole number"):
            call(value)
    else:
        assert outcome(call, value) == outcome(call, n)


#: Every real-valued argument: its name in the error, a call that passes it,
#: a value inside its interval and values outside it: NaN and the ends, or
#: values beyond an end the interval holds.
REAL_ARGUMENTS = {
    "select_order.alpha": ("alpha", lambda v: select_order(HIST, 2, v), 0.25, [0.0, 1.0, math.nan]),
    "adaptive_pmf.eps": ("eps", lambda v: adaptive_pmf(MODEL, v), 0.125, [0.0, 1.0, math.nan]),
    "thin_params.p": ("thinning fraction p", lambda v: thin_params(MODEL, v), 0.5, [0.0, 1.5, math.nan]),
    "thin_pmf_oracle.p": (
        "thinning fraction p",
        lambda v: thin_pmf_oracle(pmf_table(MODEL, 6), v),
        0.5,
        [0.0, 1.5, math.nan],
    ),
    "fit_mle.tol": ("tol", lambda v: fit_mle(HIST, 2, tol=v), 0.0625, [-1.0, math.inf, math.nan]),
    "select_order.tol": ("tol", lambda v: select_order(HIST, 2, 0.5, tol=v), 0.0625, [-1.0, math.inf, math.nan]),
    "mle_iterates.tol": (
        "tol",
        lambda v: list(mle_iterates(HIST, HermiteParams((HIST.mean(), 0.0)), tol=v)),
        0.0625,
        [-1.0, math.inf, math.nan],
    ),
    "thin_factorial_cumulants.p": (
        "thinning fraction p",
        lambda v: thin_factorial_cumulants(FactorialCumulants((1.5, 0.5)), v),
        0.5,
        [0.0, 1.5, math.nan],
    ),
    "thin_sample.p": (
        "thinning fraction p",
        lambda v: thin_sample(SampleBatch((3, 70, 0), 0), v, 1),
        0.5,
        [0.0, 1.5, math.nan],
    ),
    "alternating_geometric_pmf.p": (
        "thinning fraction p",
        lambda v: alternating_geometric_pmf(v, 8),
        0.5,
        [0.0, 1.5, math.nan],
    ),
    "alternating_geometric_pgf_values.p": (
        "thinning fraction p",
        lambda v: alternating_geometric_pgf_values(v, 0.5),
        0.5,
        [0.0, 1.5, math.nan],
    ),
    "alternating_geometric_pgf_values.t": (
        "t",
        lambda v: alternating_geometric_pgf_values(0.5, v),
        0.25,
        [-1.5, 1.5, math.nan],
    ),
    "sample_binomial.p": ("p", lambda v: sample_binomial(70, v, SplitMix64(1)), 0.25, [-0.5, 1.5, math.nan]),
    "sample_poisson.rate": (
        "Poisson rate",
        lambda v: sample_poisson(v, SplitMix64(1)),
        2.5,
        [-1.0, math.inf, math.nan],
    ),
    "pgf_eval.t": ("t", lambda v: pgf_eval(MODEL, v), 0.5, [-math.inf, math.inf, math.nan]),
    "hermite2_from_mean_variance.mean": (
        "mean",
        lambda v: hermite2_from_mean_variance(v, 1.5),
        1.0,
        [0.0, math.inf, math.nan],
    ),
    "hermite2_from_mean_variance.variance": (
        "variance",
        lambda v: hermite2_from_mean_variance(1.0, v),
        1.5,
        [-math.inf, math.inf, math.nan],
    ),
    "doubled_poisson_pmf.eta1": ("eta1", lambda v: doubled_poisson_pmf(v, 8), 0.25, [0.0, -math.inf, math.nan]),
    "negative_binomial_pmf.mean": ("mean", lambda v: negative_binomial_pmf(v, 0.5, 8), 2.0, [0.0, math.inf, math.nan]),
    "negative_binomial_pmf.eta1": ("eta1", lambda v: negative_binomial_pmf(2.0, v, 8), 0.5, [0.0, math.inf, math.nan]),
    "lrt_pvalue.statistic": ("statistic", lrt_pvalue, 2.5, [-1.0, math.inf, math.nan]),
    "lrt_statistic.loglik_full": (
        "loglik_full",
        lambda v: lrt_statistic(v, -4.0),
        -3.5,
        [-math.inf, math.inf, math.nan],
    ),
    "lrt_statistic.loglik_null": (
        "loglik_null",
        lambda v: lrt_statistic(-3.5, v),
        -4.0,
        [-math.inf, math.inf, math.nan],
    ),
}


@pytest.mark.parametrize("function", sorted(REAL_ARGUMENTS))
def test_real_argument_takes_any_real_number_and_refuses_the_rest(function):
    name, call, inside, outside = REAL_ARGUMENTS[function]
    assert outcome(call, np.float64(inside)) == outcome(call, Fraction(inside)) == outcome(call, inside)
    for value in [None, "x", [inside]] + outside:
        with pytest.raises(DomainError, match=f"^{name} must"):
            call(value)


#: Every vector argument: its name in the error, and a call that passes it
#: and returns the floats it read or what it computed from them.
VECTOR_ARGUMENTS = {
    "HermiteParams": ("a", lambda v: HermiteParams(v).a),
    "FactorialCumulants": ("kappa", lambda v: FactorialCumulants(v).kappa),
    "factorial_moments_to_cumulants": ("moments", lambda v: factorial_moments_to_cumulants(v).kappa),
    "PmfTable": ("probs", lambda v: PmfTable(v).entries),
}

#: The vector every container below holds: admissible for each argument, and
#: exact in float32 and int64.
VECTOR = (0.0, 1.0)

#: Containers with an order, each holding VECTOR in a form float() reads.
ORDERED = {
    "list": lambda: list(VECTOR),
    "tuple": lambda: VECTOR,
    "range": lambda: range(2),
    "array.array": lambda: array.array("d", VECTOR),
    "float32-array": lambda: np.array(VECTOR, dtype=np.float32),
    "int64-array": lambda: np.array(VECTOR, dtype=np.int64),
    "list-of-0d-arrays": lambda: [np.array(x) for x in VECTOR],
    "list-of-strings": lambda: [str(x) for x in VECTOR],
}

#: Containers without an order, or not one-dimensional, and scalars.
UNORDERED = {
    "set": lambda: set(VECTOR),
    "frozenset": lambda: frozenset(VECTOR),
    "dict": lambda: dict.fromkeys(VECTOR),
    "dict-values": lambda: dict(enumerate(VECTOR)).values(),
    "generator": lambda: (x for x in VECTOR),
    "iterator": lambda: iter(list(VECTOR)),
    "one-element-rows": lambda: np.array(VECTOR).reshape(-1, 1),
    "0d-array": lambda: np.array(VECTOR[1]),
    "str": lambda: "01",
    "bytes": lambda: b"01",
    "None": lambda: None,
}


@pytest.mark.parametrize("function", sorted(VECTOR_ARGUMENTS))
def test_vector_argument_reads_every_ordered_container_and_refuses_the_rest(function):
    name, call = VECTOR_ARGUMENTS[function]
    want = call(VECTOR)
    for container, make in ORDERED.items():
        got = call(make())
        assert got == want and all(type(x) is float for x in got), container
    for make in UNORDERED.values():
        with pytest.raises(DomainError, match=f"^{name} must be a sequence of real numbers"):
            call(make())


#: Result records: their fields hold what a computation returned, not arguments.
RECORDS = {"CumulantSummary", "FitResult", "SampleBatch", "SelectionTrace"}


#: The table that must name each parameter of an annotation.
TABLES = {
    "int": INTEGER_ARGUMENTS,
    "float": REAL_ARGUMENTS,
    "tuple[float, ...]": VECTOR_ARGUMENTS,
    "tuple[int, ...]": VECTOR_ARGUMENTS,
    "np.ndarray": VECTOR_ARGUMENTS,
}


def numeric_parameters():
    """(key, parameter, annotation) for every parameter annotated int, float
    or a vector of them of the public functions, constructors and methods,
    keyed as the tables are."""
    import hermite_counts

    where = [(name, getattr(hermite_counts, name)) for name in hermite_counts.__all__]
    where += [("sample_binomial", sample_binomial), ("derive_seed", derive_seed), ("mle_iterates", mle_iterates)]
    for name, obj in where:
        if inspect.isclass(obj) and issubclass(obj, Exception):
            continue
        calls = [] if name in RECORDS else [(name, obj)]
        if inspect.isclass(obj):
            calls += [(f"{name}.{m}", f) for m, f in vars(obj).items() if inspect.isfunction(f) and m[0] != "_"]
        for key, call in calls:
            for p in inspect.signature(call).parameters.values():
                if p.annotation in TABLES:
                    yield key, p.name, p.annotation


def test_the_argument_tables_name_every_numeric_parameter():
    found = list(numeric_parameters())
    missing = []
    for key, name, annotation in found:
        table = TABLES[annotation]
        # a bare key names the one parameter of its table
        alone = sum(k == key and TABLES[a] is table for k, _, a in found) == 1
        if f"{key}.{name}" not in table and not (alone and key in table):
            missing.append(f"{key}.{name}")
    assert missing == []
    assert len(found) == len(REAL_ARGUMENTS) + len(INTEGER_ARGUMENTS) + len(VECTOR_ARGUMENTS) == 23 + 20 + 4
