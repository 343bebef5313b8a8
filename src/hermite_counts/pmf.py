"""Exact probability mass tables and the log-likelihood built on them.

Probabilities follow the Panjer-style recurrence

    k * p_k = sum_{i=1..r} i * a_i * p_{k-i},      p_0 = exp(-sum_i a_i),

with p_{-1} = ... = p_{1-r} = 0.  No term is negative, so nothing cancels.
One engine evaluates it for every table, likelihood and gradient at any
total rate by storing p_k = m_k * 2**e_k; its exponent shifts are exact,
so wherever the plain recurrence stays normal it yields the same bits.
Orders up to four step through four locals, the coefficients padded with
zeros, in the general loop's order of addition; both give the same bits.
The public functions refuse a mean sum_i i*a_i of 2**400 or more with
OverflowGuard, since a single step could then overflow the mantissas.

Tables are tuples of floats, read from any vector by ``model._doubles``, so
building one never loads numpy.  Only the array forms do: ``PmfTable.probs``,
built on first access, and ``loglik_gradient``, whose result is an ndarray.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate

from .errors import DomainError, IterationCap, OverflowGuard
from .model import HermiteParams, _doubles, _real, _sum_or_inf, _whole

#: Largest k_max of any table, adaptive or not.
MAX_TABLE_LEN = 10**7

#: Initial table length for adaptive truncation; grown by doubling.
ADAPTIVE_START = 64

#: Mantissas stay in [2**-_SHIFT, 2**_SHIFT], far from both ends of the double range.
_SHIFT = 600

#: Cody-Waite split of ln 2: _LN2_HI has 32 significant bits, so n * _LN2_HI is
#: exact for |n| < 2**21 (rates up to 1.45e6); beyond, p_0 is off by ~ulp(rate).
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10

#: Public entry points refuse means sum_i i*a_i from here on: one step of the
#: recurrence grows by up to the mean, and above ~2**423 that leaves the window.
_MAX_MEAN = 2.0**400

#: Orders up to this (at most 4) take the four-local step of _scaled_pmf;
#: at 0 every order runs the general loop, which is the definition.
_LOCAL_ORDER = 4


@dataclass(frozen=True, eq=False)
class PmfTable:
    """Truncated probability vector p_0..p_K with its unaccounted tail mass.

    ``entries`` holds p_0..p_K as a tuple of floats, read from the sequence
    or 1-d array ``probs`` as ``HermiteParams`` reads its coefficients.
    ``probs`` is the same vector as a read-only float64 ndarray, built the
    first time it is read, so a table only printed or summed never loads numpy.
    ``tail_mass`` is 1 - sum(entries) computed with compensated summation
    at construction.  Identity semantics: compare ``entries`` directly when
    equality of content matters.
    """

    probs: np.ndarray = field(repr=False)
    entries: tuple[float, ...] = field(init=False)
    tail_mass: float = field(init=False)

    def __post_init__(self) -> None:
        entries = _doubles(self.__dict__.pop("probs"), "probs")
        if not entries:
            raise DomainError("a pmf table needs a one-dimensional, non-empty vector")
        if not all(map(math.isfinite, entries)):
            raise DomainError("pmf table entries must be finite")
        if min(entries) < 0.0:
            raise DomainError("pmf table entries must be non-negative")
        total = math.fsum(entries)
        if total > 1.0 + 1e-12:
            raise DomainError(f"pmf table mass {total} exceeds 1")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "tail_mass", 1.0 - total)

    def __getattr__(self, name: str) -> np.ndarray:
        # Reached only for names missing from the instance dict, as ``probs``
        # is until its first read stores it there.
        if name != "probs" or "entries" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        import numpy as np

        probs = self.__dict__["probs"] = np.array(self.entries, dtype=float)
        probs.flags.writeable = False
        return probs

    @property
    def k_max(self) -> int:
        return len(self.entries) - 1

    def __len__(self) -> int:
        return len(self.entries)

    def truncated_mean(self) -> float:
        """Mean of the tabulated part, sum_k k * p_k."""
        return math.fsum(k * pk for k, pk in enumerate(self.entries))

    def truncate(self, k_max: int) -> "PmfTable":
        """A copy cut off at ``k_max`` (tail mass grows accordingly)."""
        return PmfTable(self.entries[: _check_k_max(k_max) + 1])


def _check_k_max(k_max: int) -> int:
    return _whole(k_max, "k_max", 0, MAX_TABLE_LEN)  # reads the bound at call time


def _scaled_pmf(a: tuple[float, ...] | list[float], k_max: int) -> tuple[list[float], list[int]]:
    """p_0..p_{k_max} for coefficients ``a`` as p_k = m[k] * 2**e[k].

    p_0 = exp(-lam) while that is a normal double; a larger lam moves into
    the exponent in multiples n of ln 2, and x - n * _LN2_HI below is exact
    by Sterbenz's lemma, so only n * _LN2_LO is rounded.  The r mantissas
    a step reads share one exponent; they shift when the newest is above
    2**_SHIFT, or when all are below 2**-_SHIFT but not all zero (gaps).

    Up to order _LOCAL_ORDER a step reads the last four mantissas from
    locals, the coefficients padded with zeros to four: a padded term adds
    an exact 0.0 and the sum keeps the general loop's order, so both give
    the same bits.  The general loop is the definition.
    """
    x, exp = -math.fsum(a), 0
    while abs(x) > 708.0:
        n = round(x / _LN2_HI)
        x, exp = (x - n * _LN2_HI) - n * _LN2_LO, exp + n
    # + 0.0 turns a -0.0 coefficient into 0.0, so no sum below is -0.0
    # (the general loop's, which starts at 0.0, never is).
    coeffs = [i * c + 0.0 for i, c in enumerate(a, start=1)]
    r = len(coeffs)
    m = [math.exp(x)] + [0.0] * k_max
    e = [exp] * (k_max + 1)
    hi, lo = 2.0**_SHIFT, 2.0**-_SHIFT
    if r <= _LOCAL_ORDER:
        c1, c2, c3, c4 = coeffs + [0.0] * (4 - r)
        m1, m2, m3, m4 = m[0], 0.0, 0.0, 0.0
        for k in range(1, k_max + 1):
            if m1 > hi or (m1 < lo and 0.0 < max(m[max(k - r, 0) : k]) < lo):
                exp += _rescale(m, e, k, r, m1 > hi)
                m4, m3, m2, m1 = ([0.0] * 4 + m[max(k - 4, 0) : k])[-4:]
            m1, m2, m3, m4 = (((c1 * m1 + c2 * m2) + c3 * m3) + c4 * m4) / k, m1, m2, m3
            m[k] = m1
            e[k] = exp
        return m, e
    window = range(r)
    for k in range(1, k_max + 1):
        top = m[k - 1]
        if top > hi or (top < lo and 0.0 < max(m[max(k - r, 0) : k]) < lo):
            exp += _rescale(m, e, k, r, top > hi)
        acc = 0.0
        for i in window if k >= r else range(k):
            acc += coeffs[i] * m[k - 1 - i]
        m[k] = acc / k
        e[k] = exp
    return m, e


def _rescale(m: list[float], e: list[int], k: int, r: int, up: bool) -> int:
    """Shift the mantissas m[k-r..k-1] down (``up``) or up by 2**_SHIFT; returns the exponent step."""
    shift = _SHIFT if up else -_SHIFT
    for j in range(max(k - r, 0), k):
        m[j] = math.ldexp(m[j], -shift)
        e[j] += shift
    return shift


def _extends_by_zero(table: tuple[list[float], list[int]]) -> bool:
    """Whether the scaled table (m, e) of order-r coefficients a is, bit for
    bit, also the table of a with a zero appended.

    The zero adds an exact 0.0 to every step, so only the rescale tests can
    differ, and only from step r + 1 on, where order r + 1 reads one more
    mantissa.  No rescale from there on leaves every e[k] equal (one at step
    k > r shifts e[k - r] for good); with every mantissa 0 or at least
    2**-_SHIFT as well, no mantissa below 2**-_SHIFT is nonzero, so the
    larger window triggers no rescale either.
    """
    m, e = table
    lo = 2.0**-_SHIFT
    return e.count(e[0]) == len(e) and (min(m) >= lo or all(x >= lo for x in m if x))


def _guarded(params: HermiteParams) -> tuple[float, ...]:
    """The coefficients of ``params``, refused when their mean overflows the engine."""
    terms = [i * c for i, c in enumerate(params.a, start=1)]
    mean = _sum_or_inf(terms)
    if mean >= _MAX_MEAN:
        i = max(range(len(terms)), key=terms.__getitem__) + 1
        raise OverflowGuard(
            f"coefficient a_{i} = {params.a[i - 1]} puts the mean sum_i i*a_i = {mean:g}"
            " at or above 2**400, where the pmf recurrence overflows"
        )
    return params.a


def pmf_table(params: HermiteParams, k_max: int) -> PmfTable:
    """Exact probabilities p_0..p_{k_max} by the recurrence above."""
    m, e = _scaled_pmf(_guarded(params), _check_k_max(k_max))
    # Any exponent below -2000 underflows, so it is clamped there.
    ldexp = math.ldexp
    return PmfTable([ldexp(mk, max(ek, -2000)) for mk, ek in zip(m, e)])


def adaptive_pmf(params: HermiteParams, eps: float) -> PmfTable:
    """Smallest table whose tail mass is below ``eps``.

    Tables of ADAPTIVE_START, twice as many, ... entries, and last of
    MAX_TABLE_LEN, are tried until one holds more than 1 - eps; it is then
    trimmed back to the first index where the accumulated mass exceeds
    1 - eps.  An eps below the rounding floor of the tail mass is refused
    with DomainError as soon as the table reaches twice the mean and ends in
    ``order`` zeros: every entry after that is at most half the largest of
    the ``order`` before it, so it rounds to zero too and no longer table
    holds more mass.
    """
    eps = _real(eps, "eps", "(0, 1)")
    mean = _sum_or_inf(i * c for i, c in enumerate(params.a, start=1))
    size = ADAPTIVE_START
    while True:
        size = min(size, MAX_TABLE_LEN)
        table = pmf_table(params, size)
        if table.tail_mass < eps:
            # Estimated tail after each index (entries summed from the small
            # end); the fsum-based tail_mass of the cut decides the last ulp,
            # and it can sit on either side of the estimate.
            beyond = [*accumulate(reversed(table.entries[1:]))][::-1] + [0.0]
            k = next(k for k, rest in enumerate(beyond) if table.tail_mass + rest < eps)
            while k > 0 and table.truncate(k - 1).tail_mass < eps:
                k -= 1
            while (cut := table.truncate(k)).tail_mass >= eps:
                k += 1
            return cut
        if len(table) >= 2.0 * mean and not any(table.entries[-params.order :]):
            raise DomainError(
                f"eps = {eps!r} is below the rounding floor of this law's tail mass,"
                f" which stays at {table.tail_mass!r}"
            )
        if size == MAX_TABLE_LEN:
            raise IterationCap(f"tail mass still >= {eps} at table length {MAX_TABLE_LEN}")
        size *= 2


def _loglik(a: tuple[float, ...] | list[float], hist: CountHistogram) -> tuple[float, tuple[list[float], list[int]]]:
    """sum_k n_k log p_k at coefficients ``a``, and the scaled table (m, e) of
    :func:`_scaled_pmf` it read, through the largest count of ``hist``."""
    m, e = table = _scaled_pmf(a, hist.max_count)
    log = math.log
    try:
        if any(e):
            terms = [freq * (log(m[c]) + e[c] * _LN2_HI + e[c] * _LN2_LO) for c, freq in hist.bins]
        else:  # every e[c] * _LN2_HI + e[c] * _LN2_LO adds an exact 0.0
            terms = [freq * log(m[c]) for c, freq in hist.bins]
    except ValueError:  # log(0.0): an observed count has probability zero
        return float("-inf"), table
    return math.fsum(terms), table


def _gradient_parts(hist: CountHistogram, r: int) -> tuple[list[tuple[int, int, list[float]]], list[float]]:
    """What :func:`_gradient` reads of ``hist`` at order r, built once per rung.

    The bins are sorted, so those with count < j form a prefix, whose terms
    freq * (0.0 - 1.0) sum exactly to minus its total frequency (at most
    2**53, an exact double); fsum rounds the exact sum once, so that one term
    is the same.  Each j up to the largest count gets (j, the index of its
    first bin with count >= j, that term); above it every bin is in the
    prefix, and the entry is -n.
    """
    counts = [c for c, _ in hist.bins]
    below = list(accumulate((freq for _, freq in hist.bins), initial=0))
    parts = []
    for j in range(1, min(r, hist.max_count) + 1):
        i = bisect_left(counts, j)
        parts.append((j, i, [-float(below[i])] if i else []))
    return parts, [-float(hist.n)] * max(r - hist.max_count, 0)


def _gradient(m: list[float], e: list[int], hist: CountHistogram, parts: tuple[list, list[float]]) -> list[float]:
    # Every observed count has p_k > 0 here: the ascent only visits points of
    # finite likelihood, and loglik_gradient checks its input.
    parts, above = parts
    grad, ldexp, shifted = [], math.ldexp, any(e)
    for j, i, rest in parts:
        if shifted:
            terms = [freq * (ldexp(m[c - j] / m[c], e[c - j] - e[c]) - 1.0) for c, freq in hist.bins[i:]]
        else:  # ldexp by 0 is exact
            terms = [freq * (m[c - j] / m[c] - 1.0) for c, freq in hist.bins[i:]]
        grad.append(math.fsum(terms + rest))
    return grad + above


def log_likelihood(params: HermiteParams, hist: CountHistogram) -> float:
    """sum_k n_k log p_k, or -inf when any observed count has zero probability.

    -inf is a legitimate value (zero-gap models assign zero probability to
    some counts), distinguished from errors so optimizers can treat the
    point as infeasible.
    """
    return _loglik(_guarded(params), hist)[0]


def loglik_gradient(params: HermiteParams, hist: CountHistogram) -> np.ndarray:
    """Analytic gradient of the log-likelihood in the coefficients.

    d p_k / d a_j = p_{k-j} [k >= j] - p_k, hence
    d l / d a_j = sum_k n_k (p_{k-j}/p_k - 1).
    """
    import numpy as np

    m, e = _scaled_pmf(_guarded(params), hist.max_count)
    for count, _ in hist.bins:
        if m[count] <= 0.0:
            raise DomainError(f"observed count {count} has zero probability; gradient undefined")
    return np.array(_gradient(m, e, hist, _gradient_parts(hist, params.order)), dtype=float)
