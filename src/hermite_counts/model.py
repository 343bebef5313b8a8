"""Parameterizations of rth-order Hermite count distributions.

A distribution in this family has probability generating function

    Phi(t) = exp( sum_{i=1..r} a_i * (t**i - 1) ),    a_i >= 0,

equivalently the law of X = sum_i i*X_i for independent Poisson X_i with
means a_i.  r = 1 is Poisson; r = 2 is the classical Hermite distribution.

Three equivalent parameter systems live here:

* the exponent coefficients ``a`` (closed-form pmf recurrence, sampling),
* the factorial cumulants ``kappa_(j) = d^j log Phi / dt^j |_{t=1}``,
  which add under convolution and scale as p**j under binomial thinning,
* ordinary cumulants up to order four, ``kappa_s = sum_i i**s * a_i``,
  from which the thinning-invariant ratios eta_i are formed.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

from .errors import DomainError, OverflowGuard


def _sum_or_inf(terms) -> float:
    """Compensated sum of non-negative terms; inf where it leaves the double range."""
    try:
        return math.fsum(terms)
    except OverflowError:  # finite terms whose sum overflows
        return math.inf


def _doubles(values, name: str) -> tuple[float, ...]:
    """``values`` as a tuple of floats, each entry read by float(); a str or
    bytes, or anything else that is not a sequence of numbers, is refused
    with DomainError naming ``name``."""
    try:
        if not isinstance(values, (str, bytes)):  # float() would read their characters as entries
            return tuple(map(float, values))
    except OverflowError:  # an integer beyond the double range
        raise DomainError(f"an entry of {name} is beyond the double range") from None
    except (TypeError, ValueError):  # not iterable, or an entry float() refuses
        pass
    raise DomainError(f"{name} must be a sequence of real numbers, got {values!r}")


def _real(value, name: str, interval: str = "(-inf, inf)") -> float:
    """float(value) where that is a double in ``interval``, written as the
    refusal prints it, such as "(0, 1]": a bracket is a closed end and a
    parenthesis an open one.  Anything else (None, a string that is not a
    number, NaN, an int beyond the double range, a value outside) is refused
    with DomainError naming ``name``."""
    lo, hi = map(float, interval[1:-1].split(","))
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not ((lo <= x if interval[0] == "[" else lo < x) and (x <= hi if interval[-1] == "]" else x < hi)):
        raise DomainError(f"{name} must be a real number in {interval}, got {value!r}")
    return x


def _check_thinning_fraction(p: float) -> float:
    return _real(p, "thinning fraction p", "(0, 1]")


def _whole(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as an int: an int, a bool, a numpy integer, or a real number
    with no fractional part (3.0, numpy's too), in [lo, hi], where a bound given
    as None is open.  Anything else is refused with DomainError naming ``name``
    and ``repr(value)``."""
    try:
        n = operator.index(value)
    except TypeError:
        n = int(value) if isinstance(value, numbers.Real) and math.isfinite(value) and value % 1 == 0 else None
    if n is None or (lo is not None and n < lo) or (hi is not None and n > hi):
        bounds = f" in [{lo}, {hi}]" if hi is not None else "" if lo is None else f" >= {lo}"
        raise DomainError(f"{name} must be a whole number{bounds}, got {value!r}")
    return n


@dataclass(frozen=True, slots=True)
class HermiteParams:
    """Exponent coefficients a_1..a_r; all non-negative and finite.

    The all-zero vector is legal and denotes the point mass at zero.
    """

    a: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = _doubles(self.a, "a")
        if len(coeffs) < 1:
            raise DomainError("order must be at least 1")
        if not all(map(math.isfinite, coeffs)) or min(coeffs) < 0.0:
            for i, x in enumerate(coeffs, start=1):
                if not math.isfinite(x):
                    raise DomainError(f"a_{i} must be finite, got {x}")
                if x < 0.0:
                    raise DomainError(f"a_{i} must be non-negative, got {x}")
        object.__setattr__(self, "a", coeffs)

    @property
    def order(self) -> int:
        return len(self.a)

    @property
    def total_rate(self) -> float:
        """sum_i a_i, the total rate of the Poisson components; inf beyond the double range."""
        return _sum_or_inf(self.a)

    def is_degenerate(self) -> bool:
        """True for the point mass at zero (every a_i == 0)."""
        return all(x == 0.0 for x in self.a)


@dataclass(frozen=True, slots=True)
class FactorialCumulants:
    """Factorial cumulants kappa_(1)..kappa_(r).

    kappa_(1) is the mean and must be non-negative.  The vector corresponds
    to an admissible coefficient vector iff the closed-form inverse of
    :func:`factorial_cumulants_to_params` yields all a_i >= 0, up to its
    rounding bound.
    """

    kappa: tuple[float, ...]

    def __post_init__(self) -> None:
        values = _doubles(self.kappa, "kappa")
        if len(values) < 1:
            raise DomainError("order must be at least 1")
        for j, x in enumerate(values, start=1):
            if not math.isfinite(x):
                raise DomainError(f"kappa_({j}) must be finite, got {x}")
        if values[0] < 0.0:
            raise DomainError(f"kappa_(1) is the mean and must be >= 0, got {values[0]}")
        object.__setattr__(self, "kappa", values)

    @property
    def order(self) -> int:
        return len(self.kappa)


@dataclass(frozen=True, slots=True)
class CumulantSummary:
    """Ordinary cumulants: mean, variance, and the third and fourth cumulants."""

    mean: float
    variance: float
    kappa3: float
    kappa4: float


@dataclass(frozen=True, slots=True)
class ThinningInvariants:
    """Ratios (eta_1, eta_2, eta_3) that binomial subsampling leaves unchanged.

    eta_i equals kappa_(i+1) / mean**(i+1); thinning scales kappa_(j) by p**j
    and the mean by p, so each ratio is invariant.  For an order-r family
    every eta_j with j >= r vanishes.
    """

    eta: tuple[float, float, float]


#: Highest order the exact conversions take: from order 171 on, r! and
#: r!/(r-j)! for j >= r - 3 have no double.
_MAX_EXACT_ORDER = 170


def _check_convertible(r: int) -> None:
    if r > _MAX_EXACT_ORDER:
        raise OverflowGuard(f"factorial cumulants of order {r} leave the double range")


def _factorial_cumulant(a: tuple[float, ...], j: int) -> float:
    """kappa_(j) = sum_{i=j..r} i!/(i-j)! * a_i; inf where it leaves the double range."""
    return _sum_or_inf(math.perm(i, j) * a[i - 1] for i in range(j, len(a) + 1))


def params_to_factorial_cumulants(params: HermiteParams) -> FactorialCumulants:
    """Factorial cumulants of the distribution with exponent coefficients ``params``.

    Differentiating sum_i a_i (t**i - 1) j times at t = 1 gives
    kappa_(j) = sum_{i=j..r} i!/(i-j)! * a_i.  A kappa_(j) beyond the double
    range is refused with OverflowGuard.
    """
    r = params.order
    _check_convertible(r)
    kappa = tuple(_factorial_cumulant(params.a, j) for j in range(1, r + 1))
    if math.inf in kappa:
        j = kappa.index(math.inf) + 1
        raise OverflowGuard(f"factorial cumulant kappa_({j}) leaves the double range")
    return FactorialCumulants(kappa)


def factorial_cumulants_to_params(cumulants: FactorialCumulants) -> HermiteParams:
    """Invert :func:`params_to_factorial_cumulants` by its closed form.

    a_j = sum_{i=j..r} (-1)**(i-j) kappa_(i) / (j! (i-j)!) is summed by fsum.
    Each term carries three roundings of at most half an ulp (kappa_(i)'s
    own, j!(i-j)! made a double, the division) and fsum adds one, so the
    result lies within bound_j = 2 * 2**-52 * sum_i |term_i| of the a_j whose
    cumulants round to ``cumulants``.  An a_j within bound_j of 0 is rounding
    noise and becomes 0.  One below -bound_j is refused with DomainError: no
    non-negative coefficients have these cumulants.  So is an a_j beyond the
    double range.
    """
    kappa = cumulants.kappa
    r = len(kappa)
    _check_convertible(r)
    a = []
    for j in range(1, r + 1):
        terms = [
            (-1.0) ** (i - j) * kappa[i - 1] / (math.factorial(j) * math.factorial(i - j))
            for i in range(j, r + 1)
        ]
        # scaled before summing, so that the bound cannot overflow
        bound = 2.0 * math.fsum(abs(t) * 2.0**-52 for t in terms)
        try:
            aj = math.fsum(terms)
        except OverflowError:  # a partial sum left the double range; scaled, no sum of r <= 170 can
            aj = math.fsum(t * 2.0**-8 for t in terms) * 2.0**8
        if aj < -bound:
            raise DomainError(
                f"cumulant vector is not admissible: a_{j} = {aj!r} lies below 0"
                f" by more than its rounding bound {bound!r}"
            )
        a.append(aj if abs(aj) > bound else 0.0)
    return HermiteParams(tuple(a))


def ordinary_cumulants(params: HermiteParams) -> CumulantSummary:
    """Mean, variance and third/fourth cumulants via kappa_s = sum_i i**s a_i."""
    a = params.a
    moments = [_sum_or_inf(i**s * a[i - 1] for i in range(1, len(a) + 1)) for s in (1, 2, 3, 4)]
    return CumulantSummary(mean=moments[0], variance=moments[1], kappa3=moments[2], kappa4=moments[3])


def thinning_invariants(summary: CumulantSummary) -> ThinningInvariants:
    """The ratios eta_1..eta_3 computed from ordinary cumulants.

    eta_1 = (var - mean)/mean**2
    eta_2 = (kappa3 - 3 var + 2 mean)/mean**3
    eta_3 = (kappa4 - 6 kappa3 + 11 var - 6 mean)/mean**4

    No power of the mean is formed: the cumulants are divided by the mean
    (the quotients lie in [1, r**3] for an order-r model) and the differences
    then once per remaining power, so every intermediate stays in range
    wherever the result does.  An eta beyond the double range, such as
    eta_1 = 1/(2 a_2) at a = (0, 1e-310), is refused with OverflowGuard.
    """
    mu = summary.mean
    if not mu > 0.0:
        raise DomainError(f"mean must be positive to form thinning invariants, got {mu}")
    v, t, f = summary.variance / mu, summary.kappa3 / mu, summary.kappa4 / mu
    eta = ((v - 1.0) / mu, (t - 3.0 * v + 2.0) / mu / mu, (f - 6.0 * t + 11.0 * v - 6.0) / mu / mu / mu)
    if not all(map(math.isfinite, eta)):
        raise OverflowGuard(f"the thinning invariants at mean {mu!r} leave the double range")
    return ThinningInvariants(eta)


def _summary_of(params: HermiteParams) -> tuple[CumulantSummary, ThinningInvariants]:
    """ordinary_cumulants and thinning_invariants of known coefficients.

    Here eta_j = kappa_(j+1)/mean/.../mean is formed from the factorial
    cumulants kappa_(j) = sum_i i!/(i-j)! a_i, sums of non-negative terms in
    which nothing cancels, unlike the differences of rounded cumulants that
    thinning_invariants must take.  So each eta_j keeps full relative
    precision, is exactly 0 for j >= r, and is refused with OverflowGuard only
    where it, or a cumulant of the summary, leaves the double range.
    """
    summary = ordinary_cumulants(params)
    mu = summary.mean
    if not mu > 0.0:
        raise DomainError(f"mean must be positive to form thinning invariants, got {mu}")
    eta = []
    for j in range(2, 5):
        ratio = _factorial_cumulant(params.a, j)
        for _ in range(j):
            ratio /= mu
        eta.append(ratio)
    if not all(map(math.isfinite, (mu, summary.variance, summary.kappa3, summary.kappa4, *eta))):
        raise OverflowGuard(f"the cumulant summary at mean {mu!r} leaves the double range")
    return summary, ThinningInvariants(tuple(eta))


def pgf_eval(params: HermiteParams, t: float) -> float:
    """Probability generating function exp(sum_i a_i (t**i - 1)) at ``t``.

    Raises OverflowGuard where the value, or a power t**i on the way to it,
    leaves the double range.
    """
    t = _real(t, "t")
    try:
        value = math.exp(math.fsum(a_i * (t**i - 1.0) for i, a_i in enumerate(params.a, start=1)))
    except (OverflowError, ValueError):  # fsum raises ValueError on inf - inf
        value = math.inf
    if value == math.inf:
        raise OverflowGuard(f"the pgf overflows the double range at t = {t}")
    return value


def hermite2_from_mean_variance(mean: float, variance: float) -> HermiteParams:
    """Order-2 coefficients from (mean, variance): a_1 = 2*mean - var, a_2 = (var - mean)/2.

    Admissible iff mean > 0 and mean <= variance <= 2*mean.
    """
    mean, variance = _real(mean, "mean", "(0, inf)"), _real(variance, "variance")
    if not (mean <= variance <= 2.0 * mean):
        raise DomainError(
            f"(mean, variance) = ({mean}, {variance}) violates mean <= variance <= 2*mean"
        )
    return HermiteParams((2.0 * mean - variance, (variance - mean) / 2.0))
