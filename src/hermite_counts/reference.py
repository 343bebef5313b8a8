"""Reference count laws closed under binomial subsampling.

Three concrete families exercise the closure machinery from outside the
main code path:

* a doubled Poisson variable 2*X (even support only, so it has zero-gaps
  and cannot itself arise by thinning anything else) whose thinnings sweep
  out exactly the order-2 Hermite laws,
* the negative binomial family, closed under thinning with the shape held
  fixed and the mean scaled,
* a discrete law with alternating geometric probabilities on the even and
  odd integers, fully supported yet still not obtainable by thinning, whose
  thinnings form a one-parameter closed family.

``run_verification`` checks all of the documented identities numerically
and backs the command line ``verify`` subcommand.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache

from .model import _check_thinning_fraction, _real, hermite2_from_mean_variance
from .pmf import PmfTable, _check_k_max, pmf_table
from .transform import thin_pmf_oracle

#: Truncation target for internally built base tables.
_BASE_TAIL = 1e-14


def doubled_poisson_pmf(eta1: float, k_max: int) -> PmfTable:
    """Law of 2*X for X Poisson with mean 1/(2*eta1).

    All odd entries are exactly zero.  Thinning this law with p = mean*eta1
    reproduces the order-2 Hermite law with that mean and dispersion eta1.
    """
    eta1 = _real(eta1, "eta1", "(0, inf]")
    k_max = _check_k_max(k_max)
    lam = 1.0 / (2.0 * eta1)
    probs = [0.0] * (k_max + 1)
    term = math.exp(-lam)
    probs[0] = term
    for k in range(1, k_max // 2 + 1):
        term *= lam / k
        probs[2 * k] = term
    return PmfTable(probs)


def negative_binomial_pmf(mean: float, eta1: float, k_max: int) -> PmfTable:
    """Negative binomial with the given mean and dispersion ratio eta1.

    Parameterized so the pgf is (1 - mean*eta1*(t - 1))**(-1/eta1): shape
    1/eta1, success probability q = 1/(1 + mean*eta1).  Computed as
    p_0 = exp(-mean * log1p(mean*eta1)/(mean*eta1)) and the ratio recurrence
    p_{k+1} = p_k * (1-q) * (shape + k)/(k + 1), with 1 - q formed as
    mean*eta1/(1 + mean*eta1) and (1-q)*shape as mean/(1 + mean*eta1).
    Neither forms 1/eta1, which overflows for a subnormal eta1, so as
    eta1 -> 0 the law tends to Poisson(mean) all the way down.
    """
    mean, eta1 = _real(mean, "mean", "(0, inf)"), _real(eta1, "eta1", "(0, inf)")
    k_max = _check_k_max(k_max)
    odds = mean * eta1
    ratio = odds / (1.0 + odds)
    ratio_shape = mean / (1.0 + odds)
    probs = [math.exp(-mean * (math.log1p(odds) / odds if odds > 0.0 else 1.0))]
    for k in range(k_max):
        probs.append(probs[k] * (ratio_shape + ratio * k) / (k + 1.0))
    return PmfTable(probs)


def _alternating_geometric_base() -> PmfTable:
    """Base law p_{2k} = c/3**k, p_{2k+1} = c/2**k with c = 2/7, tail < 1e-14."""
    c = 2.0 / 7.0
    probs = [c, c]
    even, odd = c, c
    k = 0
    # remaining mass beyond pairs 0..k: c*(1/3)^{k+1}*(3/2) + c*(1/2)^{k+1}*2
    while c * ((1.0 / 3.0) ** (k + 1) * 1.5 + (1.0 / 2.0) ** (k + 1) * 2.0) >= _BASE_TAIL:
        k += 1
        even /= 3.0
        odd /= 2.0
        probs.append(even)
        probs.append(odd)
    return PmfTable(probs)


@lru_cache(maxsize=64)
def _thinned_base(p: float) -> PmfTable:
    """The alternating-geometric base law thinned by a checked ``p``, built once per p."""
    return thin_pmf_oracle(_alternating_geometric_base(), p)


def alternating_geometric_pmf(p: float, k_max: int) -> PmfTable:
    """p-thinning of the alternating-geometric base law, cut at ``k_max``.

    Built numerically: the base table is tabulated to tail < 1e-14 and fed
    through the distribution-level thinning oracle.  The family mean is
    15*p/7, so the parameter range ends at mean 15/7 (the base itself).
    """
    p = _check_thinning_fraction(p)
    k_max = _check_k_max(k_max)
    thinned = _thinned_base(p)
    return thinned.truncate(min(k_max, thinned.k_max))


def alternating_geometric_pgf_values(p: float, t: float) -> tuple[float, float]:
    """(closed form, power series) for the thinned alternating-geometric pgf at ``t``.

    The base pgf is 6/(21 - 7*s**2) + 4*s/(14 - 7*s**2); thinning substitutes
    s = 1 - p*(1 - t).  The second component sums p*_k t**k from the
    numerically thinned table; the pair should agree to ~1e-10.
    """
    p = _check_thinning_fraction(p)
    t = _real(t, "t", "[-1, 1]")
    s = 1.0 - p * (1.0 - t)
    closed = 6.0 / (21.0 - 7.0 * s * s) + 4.0 * s / (14.0 - 7.0 * s * s)
    series = math.fsum(pk * t**k for k, pk in enumerate(_thinned_base(p).entries))
    return closed, series


def has_zero_gap(table: PmfTable) -> bool:
    """True when some exactly-zero entry precedes a positive one.

    A zero-gap certifies that the variable is not a thinning of anything:
    thinning spreads mass downward, so a thinned law supported at n is
    positive everywhere below n.
    """
    probs = table.entries
    positive = [k for k, pk in enumerate(probs) if pk > 0.0]
    return bool(positive) and 0.0 in probs[: positive[-1]]


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _deviation_check(
    name: str, tol: float, pairs: Iterable[tuple[Sequence[float] | float, Sequence[float] | float]]
) -> CheckResult:
    """Passes when the largest |got - want| over all pairs is within ``tol``; NaN fails.

    A pair is two equally long vectors or two numbers.  A NaN deviation
    makes the worst one NaN, which no comparison with ``tol`` passes.
    """
    devs = [
        abs(g - w)
        for got, want in pairs
        for g, w in (zip(got, want, strict=True) if isinstance(got, Sequence) else [(got, want)])
    ]
    worst = math.nan if any(map(math.isnan, devs)) else max(devs)
    return CheckResult(name, worst <= tol, f"max dev {worst:.3e}")


def _order_two_pairs() -> Iterator[tuple[tuple[float, ...], tuple[float, ...]]]:
    """Doubled Poisson thinned by p = mean*eta1 vs the order-2 law of that mean and dispersion."""
    for mu in (0.5, 1.0, 2.0):
        for eta1 in (0.1, 0.25, 0.5):
            thinned = thin_pmf_oracle(doubled_poisson_pmf(eta1, 120), mu * eta1)
            target = hermite2_from_mean_variance(mu, mu + eta1 * mu**2)
            yield thinned.entries, pmf_table(target, thinned.k_max).entries


#: (mean, eta1) of the negative binomials whose thinnings ``verify`` checks.
_NEGATIVE_BINOMIAL_LAWS = ((1.0, 1.0), (2.0, 0.5), (0.7, 0.3))


def _negative_binomial_pairs() -> Iterator[tuple[tuple[float, ...], tuple[float, ...]]]:
    """Thinned negative binomials vs the same shape at the scaled mean.

    The bases are cut at entry 120, as the other families' are.  Each law's
    mass beyond it is below 1e-30 (at most 2.3e-35, for mean 2 and eta1 0.5),
    so the cut moves no thinned entry by more than that, far below the
    check's 1e-10 tolerance.
    """
    for mu, eta1 in _NEGATIVE_BINOMIAL_LAWS:
        full = negative_binomial_pmf(mu, eta1, 120)
        for p in (0.2, 0.5, 0.9):
            thinned = thin_pmf_oracle(full, p)
            yield thinned.entries, negative_binomial_pmf(p * mu, eta1, thinned.k_max).entries


def _semigroup_pairs() -> Iterator[tuple[tuple[float, ...], tuple[float, ...]]]:
    """Alternating-geometric laws thinned by p then q vs thinned by p*q."""
    for p in (0.4, 0.8):
        for q in (0.5, 0.9):
            once = thin_pmf_oracle(alternating_geometric_pmf(p, 120), q)
            yield once.entries, alternating_geometric_pmf(p * q, once.k_max).entries


def run_verification() -> list[CheckResult]:
    """Numerical identity suite over the three reference families."""
    base = _alternating_geometric_base()
    return [
        _deviation_check(
            "doubled-poisson thinning sweeps the order-2 family", 1e-10, _order_two_pairs()
        ),
        # Doubled Poisson has zero-gaps; the alternating-geometric base does not.
        CheckResult(
            "zero-gap classification of the base laws",
            has_zero_gap(doubled_poisson_pmf(0.25, 20)) and not has_zero_gap(base),
            "",
        ),
        _deviation_check("negative-binomial thinning stability", 1e-10, _negative_binomial_pairs()),
        _deviation_check("alternating-geometric thinning semigroup", 1e-10, _semigroup_pairs()),
        CheckResult("alternating-geometric base normalizes", abs(base.tail_mass) < 1e-12, ""),
        _deviation_check(
            "alternating-geometric mean is 15p/7",
            1e-8,
            (
                (alternating_geometric_pmf(p, 200).truncated_mean(), 15.0 * p / 7.0)
                for p in (0.3, 0.7, 1.0)
            ),
        ),
        # Closed-form pgf against the tabulated power series.
        _deviation_check(
            "alternating-geometric pgf matches its series",
            1e-10,
            (
                alternating_geometric_pgf_values(p, t)
                for p in (0.5, 1.0)
                for t in (-1.0, -0.3, 0.0, 0.3, 0.9, 1.0)
            ),
        ),
    ]
