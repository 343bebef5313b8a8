"""Order selection by nested likelihood-ratio tests with a boundary null.

Testing whether the top coefficient vanishes puts the null on the boundary
of the feasible set, so the statistic is asymptotically a 50:50 mixture of
a point mass at zero and chi-square with one degree of freedom: its upper
alpha tail points coincide with the chi-square upper 2*alpha points, which
is why the survival probability below is halved.

Each order is fitted from the fit one order down with a zero appended, so
the nested log-likelihoods never decrease, and an order whose ascent stays
at that start gives a statistic of exactly zero: the mixture's atom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .data import CountHistogram
from .errors import OverflowGuard
from .estimation import DEFAULT_MAX_ITER, DEFAULT_TOL, FitResult, _ladder
from .model import _real, _whole


@dataclass(frozen=True, slots=True)
class LadderStep:
    """One rung: the order-``alt_order`` fit tested against the next order down."""

    alt_order: int
    statistic: float
    p_value: float
    rejected: bool


@dataclass(frozen=True, slots=True)
class SelectionTrace:
    """Everything a selection run saw: fits for orders 1..len(fits), the
    ladder of tests, the chosen order, and the significance level used."""

    alpha: float
    r_max: int
    chosen_order: int
    fits: tuple[FitResult, ...]
    steps: tuple[LadderStep, ...]

    def fit_for(self, order: int) -> FitResult:
        return self.fits[_whole(order, "order", 1, len(self.fits)) - 1]


def lrt_statistic(loglik_full: float, loglik_null: float) -> float:
    """D = max(0, 2*(l_full - l_null)); tiny negatives are optimizer noise."""
    full, null = _real(loglik_full, "loglik_full"), _real(loglik_null, "loglik_null")
    statistic = max(0.0, 2.0 * (full - null))
    if statistic == math.inf:
        raise OverflowGuard(
            f"the statistic 2*(loglik_full - loglik_null) overflows at"
            f" loglik_full = {full!r}, loglik_null = {null!r}"
        )
    return statistic


def lrt_pvalue(statistic: float) -> float:
    """Upper tail of the 50:50 zero/chi-square(1) mixture at ``statistic``.

    Exactly zero hits the atom (p = 1); positive values get half the
    chi-square(1) survival function, erfc(sqrt(D/2))/2.
    """
    statistic = _real(statistic, "statistic", "[0, inf)")
    if statistic == 0.0:
        return 1.0
    return 0.5 * math.erfc(math.sqrt(statistic / 2.0))


def select_order(
    hist: CountHistogram,
    r_max: int,
    alpha: float,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SelectionTrace:
    """Forward ladder: accept order r+1 only while its top coefficient tests nonzero.

    Fits order 1 first; each subsequent rung fits order r+1 from the order-r
    fit with a zero appended, compares the two, and the ladder stops at the
    first non-rejection (p >= alpha) or at ``r_max``.  The fits are those
    :func:`fit_mle` returns for the same orders; ``max_iter`` bounds each.
    """
    r_max, alpha = _whole(r_max, "r_max", 1), _real(alpha, "alpha", "(0, 1)")
    tol, max_iter = _real(tol, "tol", "[0, inf)"), _whole(max_iter, "max_iter", 0)

    ladder = _ladder(hist, r_max, tol, max_iter)
    fits = [next(ladder)]
    steps: list[LadderStep] = []
    chosen = 1
    for fit_alt in ladder:
        statistic = lrt_statistic(fit_alt.loglik, fits[-1].loglik)
        fits.append(fit_alt)
        alt_order = len(fits)
        p_value = lrt_pvalue(statistic)
        rejected = p_value < alpha
        steps.append(
            LadderStep(alt_order=alt_order, statistic=statistic, p_value=p_value, rejected=rejected)
        )
        if not rejected:
            break
        chosen = alt_order
    return SelectionTrace(
        alpha=alpha,
        r_max=r_max,
        chosen_order=chosen,
        fits=tuple(fits),
        steps=tuple(steps),
    )
