"""Fitting: the moment estimator and box-constrained maximum likelihood.

The moment estimator reads the factorial cumulants off the histogram's
factorial moments (Kemp & Kemp's method of moments, for any order r <= 170)
and back-substitutes them into coefficients, clamping at zero.  Every input
on that route is an exact integer sum, so the whole chain runs on exact
rationals and each output is rounded to a double once; an output beyond the
double range is refused with OverflowGuard.

The feasible set is the non-negative orthant in the exponent coefficients,
and every maximum over it has the sample mean: by the score identity
sum_j j*a_j*dl/da_j = n*(mean - sum_j j*a_j).  The optimizer is therefore
projected gradient ascent (spectral trial steps, Armijo backtracking) on
the mean slice {a >= 0, sum_i i*a_i = mean}: each trial point costs one
pmf recurrence (none when it repeats the trial just rejected), the accepted
trial's table also yields the next gradient, and the projection onto the
slice is a sort of r breakpoints.  The ascent
works on lists of r Python floats and takes every dot product and norm
with math.fsum, written out in place: the orders it climbs are mostly
r <= 4, where each numpy call, or even a Python call, costs more than the
arithmetic it does.  Each rung builds once what the gradient reads of the
histogram (pmf._gradient_parts), the weights' sum of squares, and the one
HermiteParams it returns; its iterates are plain lists.

Likelihood fits climb the nested orders: order 1's fit is its closed-form
maximum, and each higher order starts at the fit one order down with a
zero appended, the same point and likelihood in the larger family.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import islice

from .data import CountHistogram
from .errors import DataError, DomainError, OverflowGuard
from .model import _MAX_EXACT_ORDER, FactorialCumulants, HermiteParams, _doubles, _real, _trusted, _whole
from .pmf import _extends_by_zero, _gradient, _gradient_parts, _loglik

#: Armijo line-search constants: sufficient-increase slope and step shrink.
_ARMIJO_SLOPE = 1e-4
_ARMIJO_SHRINK = 0.5

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 10_000


@dataclass(frozen=True, slots=True)
class FitResult:
    """Outcome of a likelihood fit.

    The fit lies on the mean slice S = {a >= 0, sum_i i*a_i = mean}, so its
    mean matches the sample mean to rounding.  ``grad_norm`` is |P(a + g) - a|
    at the final iterate a, with g the gradient and P the projection onto S:
    the gradient along S, less the components that push through an active
    bound.  It is zero exactly at a stationary point on S, and at order 1,
    where S is the single point (mean,).  ``converged`` means it dropped below
    tol * (1 + |loglik|); otherwise the ascent hit the iteration budget or
    stalled (see :func:`mle_iterates`).  ``init`` is the start:
    (mean,) at order 1, else the fit one order down with a zero appended.
    ``iterations`` and ``converged`` describe this order's ascent alone;
    the iteration budget applies to each order of the ladder separately.
    """

    params: HermiteParams
    loglik: float
    converged: bool
    iterations: int
    grad_norm: float
    init: HermiteParams


def _rounded(x, what: str) -> float:
    """The double nearest the exact ``x``, refused with OverflowGuard beyond the double range."""
    try:
        return float(x)
    except OverflowError:
        raise OverflowGuard(f"{what} leaves the double range") from None


def _factorial_moments(hist: CountHistogram, r: int):
    """The exact m_(k) = sum_bins freq * count!/(count-k)! / n, for k = 1..r in turn."""
    from fractions import Fraction  # loads decimal: kept off the package's start-up
    return (Fraction(sum(f * math.perm(c, k) for c, f in hist.bins), hist.n) for k in range(1, r + 1))


def _factorial_cumulants(m: list):
    """Exact kappa_(k) = m_(k) - sum_{j<k} C(k-1, j-1) kappa_(j) m_(k-j), yielded
    for k = 1..len(m) in turn, each as soon as it is formed."""
    kappa = []
    for k, mk in enumerate(m, start=1):
        kappa.append(mk - sum(math.comb(k - 1, j - 1) * kappa[j - 1] * m[k - j - 1] for j in range(1, k)))
        yield kappa[-1]


def sample_factorial_moments(hist: CountHistogram, r: int) -> tuple[float, ...]:
    """Empirical factorial moments m_(k) = mean of x(x-1)...(x-k+1), k = 1..r.

    Each moment is an exact integer sum over the bins divided by n, rounded
    once to the nearest double; one beyond the double range is refused with
    OverflowGuard, before any higher moment is formed.
    """
    moments = _factorial_moments(hist, _whole(r, "r", 1))
    return tuple(_rounded(m, f"factorial moment {k}") for k, m in enumerate(moments, 1))


def factorial_moments_to_cumulants(moments: tuple[float, ...]) -> FactorialCumulants:
    """Convert factorial moments to factorial cumulants.

    Runs the log-exp recursion
    kappa_(k) = m_(k) - sum_{j=1..k-1} C(k-1, j-1) kappa_(j) m_(k-j),
    which reproduces the closed forms kappa_(2) = m_(2) - m_(1)**2, etc.,
    exactly on the rationals the given doubles stand for, and rounds each
    kappa_(k) once to the nearest double.  The moments are read by float();
    no moments, or one that is not finite, is refused with DomainError, a
    cumulant beyond the double range with OverflowGuard, before any higher one
    is formed.  The work grows as len(moments)**2 on ever longer rationals.
    """
    moments = _doubles(moments, "moments")
    if len(moments) < 1 or not all(map(math.isfinite, moments)):
        raise DomainError(f"need one or more finite factorial moments, got {moments!r}")
    from fractions import Fraction
    kappa = enumerate(_factorial_cumulants([Fraction(m) for m in moments]), start=1)
    return FactorialCumulants(tuple(_rounded(x, f"factorial cumulant {k}") for k, x in kappa))


def fit_moments(hist: CountHistogram, r: int) -> HermiteParams:
    """Moment estimator: sample factorial cumulants, back-substituted and clamped.

    Negative coefficients produced by sampling noise are clamped to zero as
    the substitution a_j = (kappa_(j) - sum_{i>j} i!/(i-j)! a_i) / j! runs
    from a_r down, so the result always lies in the feasible set.
    The last step sets a_1 = mean - sum_{i>=2} i*a_i, which is the positive
    sample mean itself when every higher coefficient clamps to zero.

    The whole chain, from the histogram's integer sums through the
    cumulants to the clamped substitution, runs on exact rationals, and each
    a_j is rounded once to the nearest double; one beyond the double range
    is refused with OverflowGuard.  Orders above 170 are refused with
    OverflowGuard before any arithmetic, since the exact work grows as r**2
    on ever longer rationals.
    """
    r = _whole(r, "r", 1)
    if r > _MAX_EXACT_ORDER:
        raise OverflowGuard(f"the moment estimator runs to order {_MAX_EXACT_ORDER}, got order {r}")
    kappa = list(_factorial_cumulants(list(_factorial_moments(hist, r))))
    if kappa[0] == 0:
        raise DataError("sample mean is zero; every observation is 0")
    a = [0] * r
    for j in range(r, 0, -1):
        cancel = sum(math.perm(i, j) * a[i - 1] for i in range(j + 1, r + 1))
        a[j - 1] = max((kappa[j - 1] - cancel) / math.factorial(j), 0)
    return HermiteParams(tuple(_rounded(x, f"coefficient a_{j}") for j, x in enumerate(a, start=1)))


def _onto_slice(y, mean: float) -> list[float]:
    """Euclidean projection of ``y`` onto the slice {a >= 0, sum_i i*a_i = mean}.

    The projection is max(y_i - tau*i, 0) for the one tau that puts it on the
    slice.  sum_i i*max(y_i - tau*i, 0) falls as tau grows, with a kink at
    each breakpoint y_i/i; taking the breakpoints in decreasing order, the
    top j coordinates active give tau_j = (sum i*y_i - mean) / sum i**2 over
    them, and the active set is the longest prefix whose last breakpoint
    still exceeds its tau_j (at least the top one, as in exact arithmetic).
    ``mean`` must be positive.

    Where y is far larger than the mean, y_i - tau*i cancels and leaves the
    result off the slice by roundings of max|y|.  The result is then
    projected again, as long as that brings it closer to the slice and it is
    more than 4 roundings of the mean away; each round shrinks the distance
    by a factor of about eps.
    """
    z = _slice_pass(y, mean)
    off = abs(math.fsum([i * v for i, v in enumerate(z, start=1)]) - mean)
    while off > 4.0 * sys.float_info.epsilon * mean:
        again = _slice_pass(z, mean)
        closer = abs(math.fsum([i * v for i, v in enumerate(again, start=1)]) - mean)
        if closer >= off:
            break
        z, off = again, closer
    return z


def _slice_pass(y, mean: float) -> list[float]:
    """One projection of ``y`` onto the slice, as :func:`_onto_slice` describes it."""
    keys = [v / i for i, v in enumerate(y, start=1)]
    order = sorted(range(len(y)), key=keys.__getitem__, reverse=True)
    top, tau, wy, ww, w_top = 0, 0.0, 0.0, 0.0, 0.0
    for j, k in enumerate(order):
        wy += (k + 1) * y[k]
        ww += (k + 1) * (k + 1)  # an exact integer sum
        tau_j = (wy - mean) / ww
        if j == 0 or keys[k] > tau_j:
            top, tau, w_top = j, tau_j, ww
    active = order[: top + 1]
    z = [0.0] * len(y)
    for k in active:
        v = y[k] - tau * (k + 1)
        z[k] = v if v > 0.0 else 0.0
    # A long step cancels in that subtraction; a second pass on the same
    # coordinates puts its rounding residue back on the slice.  A shift of
    # 0.0 would hand back every z[k] >= 0 as it is.
    shift = (math.fsum([(k + 1) * z[k] for k in active]) - mean) / w_top
    if shift:
        for k in active:
            v = z[k] - shift * (k + 1)
            z[k] = v if v > 0.0 else 0.0
    return z


def mle_iterates(
    hist: CountHistogram,
    init: HermiteParams,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
):
    """Yield (params, loglik, grad_norm) per accepted ascent iterate.

    The ascent runs on the mean slice S = {a >= 0, sum_i i*a_i = mean}, which
    holds every stationary point over the orthant: there each a_j*dl/da_j is
    0, and by the score identity sum_j j*a_j*dl/da_j = n*(mean - sum_j j*a_j).
    Each trial point is the projection P onto S of a gradient step, and
    ``grad_norm`` is |P(a + g) - a|, the gradient along S less the components
    that push through an active bound.  It is zero exactly at a stationary
    point on S, where the same identity makes the multiplier of the mean
    constraint zero, so the point is stationary over the orthant too.

    The first yield is ``init`` unchanged.  It must lie on S: a start whose
    sum_i i*a_i differs from the sample mean by more than 1e-10 relative is
    refused with DomainError (order 1's (mean,) and the ladder's starts lie
    on S to rounding).  Iteration stops once ``grad_norm`` <= tol * (1 + |loglik|),
    after ``max_iter`` steps, at a step that rounds to no movement, or at a
    stall: no step alpha*g with alpha * max|g| > eps * max(a) raises the loglik.
    ``tol`` must be finite and >= 0; it and ``max_iter`` are checked at the call.
    """
    iterates = _iterates(hist, init.a, _real(tol, "tol", "[0, inf)"), _whole(max_iter, "max_iter", 0))
    return ((_trusted(HermiteParams, a=tuple(a)), loglik, gnorm) for a, loglik, gnorm, _ in iterates)


def _checked_start(hist: CountHistogram, a: tuple[float, ...] | list[float]):
    """The sample mean, and the loglik and scaled table at ``a``, where an
    ascent starts; refused when the mean is zero or ``a`` has zero likelihood."""
    mean = hist.mean()
    if mean == 0.0:
        raise DataError("sample mean is zero; every observation is 0")
    loglik, table = _loglik(a, hist)
    if not math.isfinite(loglik):
        raise DomainError("initial point has zero likelihood; choose a feasible start")
    return mean, loglik, table


def _iterates(hist: CountHistogram, init: tuple[float, ...], tol: float, max_iter: int, start: tuple | None = None):
    """:func:`mle_iterates` from the coefficients ``init``, on a checked
    ``tol`` and ``max_iter``, yielding (a, loglik, grad_norm, table): each
    iterate a is a list of floats, and table the scaled pmf table at a.
    ``start``, when given, is (loglik, table) at ``init``, finite, on a
    histogram whose mean is not zero."""
    fsum = math.fsum
    a = list(init)
    mean, loglik, table = _checked_start(hist, a) if start is None else (hist.mean(), *start)
    w = range(1, len(a) + 1)
    start_mean = fsum([i * x for i, x in zip(w, a)])
    if abs(start_mean - mean) > 1e-10 * mean:
        raise DomainError(
            f"start has mean sum_i i*a_i = {start_mean!r}, off the sample mean {mean!r};"
            " the ascent runs on the slice where the two agree"
        )
    ww = fsum([i * i for i in w])
    parts = _gradient_parts(hist, len(a))
    alpha = 1.0
    prev_a: list[float] | None = None
    prev_grad: list[float] | None = None
    for taken in range(max_iter + 1):
        # P(y + s*w) = P(y) for every s, so only the gradient's part along
        # the hyperplane sum_i i*a_i = mean moves the ascent; dropping the
        # rest before scaling keeps a long step from cancelling in P.
        grad = _gradient(*table, hist, parts)
        along = fsum([g * i for g, i in zip(grad, w)]) / ww
        grad = [g - along * i for i, g in enumerate(grad, start=1)]
        d = [p - x for p, x in zip(_onto_slice([x + g for x, g in zip(a, grad)], mean), a)]
        gnorm = math.sqrt(fsum([v * v for v in d]))
        yield a, loglik, gnorm, table
        if gnorm <= tol * (1.0 + abs(loglik)) or taken == max_iter:
            return
        # Spectral (Barzilai-Borwein) trial step: plain steepest ascent
        # zigzags to a standstill on the nearly flat directions that nested
        # overfits produce; the BB step tracks the local curvature instead.
        # A step of 0 (dx @ dx underflowing) would end the ascent at once.
        if prev_a is not None:
            dx = [x - p for x, p in zip(a, prev_a)]
            curvature = -fsum([u * (g - p) for u, g, p in zip(dx, grad, prev_grad)])
            if curvature > 0.0 and 0.0 < (bb := fsum([u * u for u in dx]) / curvature) < math.inf:
                alpha = bb
        prev_a, prev_grad = a, grad
        # Backtracking: accept the first step with sufficient increase along
        # the projected arc; the reference direction is the gradient along
        # the hyperplane.  Once alpha * max|g| is within one rounding of
        # max(a), no shorter trial can move any coordinate by more than that.
        # A long step projects onto the same vertex of the slice for several
        # halvings; the test is a function of the trial point alone, so a
        # trial equal to the one just rejected is rejected unevaluated.
        g_max, floor = max(map(abs, grad)), sys.float_info.epsilon * max(a)
        rejected = None
        while True:
            cand = _onto_slice([x + alpha * g for x, g in zip(a, grad)], mean)
            if cand != rejected:
                cand_ll, cand_table = _loglik(cand, hist)
                if cand_ll >= loglik + _ARMIJO_SLOPE * fsum([g * (c - x) for g, c, x in zip(grad, cand, a)]):
                    break
                rejected = cand
            alpha *= _ARMIJO_SHRINK
            if alpha * g_max <= floor:
                return  # stalled: no step that moves a coordinate raises the objective
        if cand == a:
            return  # step rounded to no movement
        a, loglik, table = cand, cand_ll, cand_table


def _climb(hist: CountHistogram, init: HermiteParams, tol: float, max_iter: int, start: tuple | None = None):
    """The fit :func:`_iterates` reaches from ``init`` (and ``start``), and
    the scaled pmf table at it."""
    iterations = -1  # the first yield is the initial point, not a step
    for a, loglik, gnorm, table in _iterates(hist, init.a, tol, max_iter, start):
        iterations += 1
    fit = FitResult(
        params=_trusted(HermiteParams, a=tuple(a)),
        loglik=loglik,
        converged=gnorm <= tol * (1.0 + abs(loglik)),
        iterations=iterations,
        grad_norm=gnorm,
        init=init,
    )
    return fit, table


def _ladder(hist: CountHistogram, r_max: int, tol: float, max_iter: int):
    """Yield the fits of orders 1..r_max, each rung started from the one below.

    Order 1's mean slice is the single point (mean,), its closed-form
    maximum, so its fit is built there without an ascent: the one :func:`_climb`
    returns, after 0 iterations with a gradient norm of exactly 0.0 (the
    gradient's part along the slice, g - g).  Order r+1 starts at the order-r
    fit with a zero appended, a point of the larger family with the same
    likelihood.  Every start is therefore feasible and on the mean slice, and
    since the line search accepts no decrease, the logliks never fall along
    the ladder.  A rung starts from the loglik and table the rung below
    ended at, where pmf._extends_by_zero shows they are the start's own.
    ``tol`` and ``max_iter`` are checked by the caller.
    """
    point = _trusted(HermiteParams, a=(hist.mean(),))
    _, loglik, table = _checked_start(hist, point.a)
    fit = FitResult(params=point, loglik=loglik, converged=True, iterations=0, grad_norm=0.0, init=point)
    yield fit
    for _ in range(1, r_max):
        start = (fit.loglik, table) if _extends_by_zero(table) else None
        fit, table = _climb(hist, _trusted(HermiteParams, a=fit.params.a + (0.0,)), tol, max_iter, start)
        yield fit


def fit_mle(
    hist: CountHistogram,
    r: int,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FitResult:
    """Constrained maximum likelihood over coefficients a_i >= 0.

    The fit is a local maximum on the mean slice (see :func:`mle_iterates`);
    on small samples with wide support the likelihood can have several.

    Climbs the ladder of :func:`_ladder` from order 1 and returns its order-r
    fit; ``max_iter`` bounds each rung, and ``init`` is that rung's start.
    Above the largest count M, a_j meets the likelihood only through the
    factor exp(-a_j) on every p_k, so every stationary point of order r > M
    is one of order M with zeros appended.  Rung r is first evaluated at
    the order-M fit padded with zeros and returned when its gradient norm is
    below half the convergence tolerance (never at tol 0); otherwise the
    rungs in between are climbed.  The rungs' gradient norms at that point differ only by
    rounding, far less than the margin, so each rung in between would also
    pass its test at its start, and the fit is the one the climb returns.
    """
    r = _whole(r, "r", 1)
    tol, max_iter = _real(tol, "tol", "[0, inf)"), _whole(max_iter, "max_iter", 0)
    ladder = _ladder(hist, r, tol, max_iter)
    *_, fit = islice(ladder, min(r, max(hist.max_count, 1)))
    if r > fit.params.order:
        jump = _climb(hist, _trusted(HermiteParams, a=fit.params.a + (0.0,) * (r - fit.params.order)), tol, 0)[0]
        settled = jump.grad_norm < 0.5 * tol * (1.0 + abs(jump.loglik))
        *_, fit = [jump] if settled else ladder
    return fit
