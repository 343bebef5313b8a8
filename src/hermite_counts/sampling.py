"""Random variate generation with a fully specified, portable generator.

Draws must be reproducible from a seed across platforms and languages, so
the generator is SplitMix64 (Steele, Lea & Flood's 64-bit mixer with the
golden-ratio increment) rather than whatever the host runtime provides.
A Hermite draw is the linear combination sum_i i*X_i of independent Poisson
components; thinning replaces each realized x by a Binomial(x, p) draw.

Stream layout (a seed is a contract, so this is too).  Every uniform is
next_float of one SplitMix64, used in order:

* ``sample_hermite``: draw by draw, component i = 1..r in turn, skipping
  a_i = 0.  A component with a_i <= 30 takes exactly one uniform (cdf
  inversion); above 30 each rejection attempt takes one uniform, plus a
  second when the first is in (0, 1) and maps to a count >= 0.
* ``thin_sample``: count by count.  A count x takes 0 uniforms if x = 0 or
  p = 1; x uniforms (literal trials u < p) if x <= 64; for x > 64, with
  q = min(p, 1 - p), x uniforms (trials u < q, complemented when p > 0.5)
  if (1 - q)**x underflows to 0, and otherwise 1 uniform, inverted in the
  Binomial(x, q) cdf accumulated term by term.

The j-th output of SplitMix64(seed) depends only on seed + j * gamma, so
both samplers compute their uniforms in numpy blocks from that closed form
(``_uniforms``) and draw ``_BLOCK`` values at a time.  When every component
of ``sample_hermite`` inverts, draw d's component c reads uniform d*r + c (r
the number of a_i > 0), and a block is one array of uniforms searched in
each component's cdf.  A rejection attempt uses one or two uniforms, so a
model with a component above 30 is drawn one draw at a time, reading the
uniforms of each block in the order above.  The thinning layout is fixed by
the counts alone, so ``thin_sample`` works on whole blocks of uniforms.
``sample_poisson`` and ``sample_binomial``, drawing from one SplitMix64,
are the scalar definitions the two reproduce bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, count

import numpy as np

from .errors import DataError, DomainError, OverflowGuard
from .model import HermiteParams, _whole
from .transform import _check_thinning_fraction

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

#: Component rates above this are refused (sequential samplers degrade).
MAX_COMPONENT_RATE = 1e6

#: Rate threshold between sequential cdf inversion and envelope rejection.
_POISSON_INVERSION_MAX = 30.0

#: Largest count thinned by literal Bernoulli trials; above it, cdf inversion.
_BERNOULLI_MAX = 64

#: Sampling and thinning work on at most this many draws at once; sampling
#: holds about this many uniforms per Poisson component, thinning at most
#: this many in all.
_BLOCK = 1 << 12


class SplitMix64:
    """SplitMix64: state advances by 0x9E3779B97F4A7C15, output is mixed.

    Constants follow the reference implementation (Vigna's splitmix64.c),
    so any conforming implementation reproduces the same stream.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = _seed(seed)

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform on [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53


def _seed(seed: int) -> int:
    """``seed`` as a generator state: any whole number, masked to 64 bits."""
    return _whole(seed, "seed") & _MASK64


def derive_seed(seed: int, stream: int) -> int:
    """A decorrelated child seed for sub-stream ``stream`` of ``seed``."""
    return SplitMix64(_whole(seed, "seed") ^ _whole(stream, "stream") * 0xD1342543DE82EF95).next_u64()


@dataclass(frozen=True, slots=True)
class SampleBatch:
    """Realized draws plus the seed that produced them."""

    values: tuple[int, ...]
    seed: int

    def __len__(self) -> int:
        return len(self.values)

    def mean(self) -> float:
        if not self.values:
            raise DataError("an empty batch has no mean")
        return sum(self.values) / len(self.values)


def _poisson_sampler(rate: float):
    """Check ``rate`` once; return draw(uniform) -> int, sample_poisson's
    method with its per-rate constants precomputed, reading its uniforms from
    calls to ``uniform()``."""
    if rate < 0.0 or not math.isfinite(rate):
        raise DomainError(f"Poisson rate must be finite and >= 0, got {rate}")
    if rate == 0.0:
        return lambda uniform: 0
    if rate <= _POISSON_INVERSION_MAX:
        first = math.exp(-rate)

        # At rates up to 30 the terms underflow to 0 by k = 430, which ends
        # the search even where the rounded cdf stays below u.
        def invert(uniform: Callable[[], float]) -> int:
            u = uniform()
            k = 0
            term = cum = first
            while u >= cum:
                k += 1
                term *= rate / k
                cum += term
                if term == 0.0:
                    break
            return k

        return invert
    c = 0.767 - 3.36 / rate
    beta = math.pi / math.sqrt(3.0 * rate)
    alpha = beta * rate
    k0 = math.log(c / beta) - rate
    log_rate = math.log(rate)

    def reject(uniform: Callable[[], float]) -> int:
        while True:
            u = uniform()
            if u == 0.0:
                continue
            x = (alpha - math.log((1.0 - u) / u)) / beta
            n = math.floor(x + 0.5)
            if n < 0:
                continue
            v = uniform()
            if v <= 0.0:
                continue
            y = alpha - beta * x
            lhs = y + math.log(v / (1.0 + math.exp(y)) ** 2)
            rhs = k0 + n * log_rate - math.lgamma(n + 1.0)
            if lhs <= rhs:
                return int(n)

    return reject


def sample_poisson(rate: float, rng: SplitMix64) -> int:
    """One Poisson draw using the supplied generator state.

    rate <= 30: sequential cdf inversion (exact search).
    rate  > 30: Atkinson's rejection method with a logistic envelope
    (c = 0.767 - 3.36/rate, beta = pi/sqrt(3 rate)), which needs no
    normal-approximation shortcut and stays exact for large rates.
    """
    return _poisson_sampler(rate)(rng.next_float)


def sample_binomial(trials: int, p: float, rng: SplitMix64) -> int:
    """One Binomial(trials, p) draw: the scalar definition of the thinning stream.

    Small counts run literal Bernoulli trials; larger ones use cdf inversion
    on the smaller of (p, 1-p) so the starting mass never underflows at
    realistic counts (an exact trial-by-trial fallback covers the rest).
    :func:`thin_sample` reproduces it in blocks.
    """
    trials = _whole(trials, "trial count", 0)
    if trials == 0 or p == 0.0:
        return 0
    if p == 1.0:
        return trials
    if trials <= _BERNOULLI_MAX:
        return sum(rng.next_float() < p for _ in range(trials))
    flip = p > 0.5
    q = 1.0 - p if flip else p
    base = (1.0 - q) ** trials
    if base == 0.0:
        # (1-q)**trials underflowed; fall back to exact Bernoulli trials.
        hits = sum(rng.next_float() < q for _ in range(trials))
        return trials - hits if flip else hits
    u = rng.next_float()
    k = 0
    term = base
    cum = term
    ratio = q / (1.0 - q)
    while u >= cum and k < trials:
        term *= ratio * (trials - k) / (k + 1.0)
        k += 1
        cum += term
    return trials - k if flip else k


def _inversion_cdf(rate: float) -> np.ndarray:
    """sample_poisson's running cdf at 0 < ``rate`` <= 30, accumulated in its
    order, through the entry where the term underflows to 0.  Its search
    returns min(searchsorted(cdf, u, "right"), len(cdf) - 1)."""
    term = cum = math.exp(-rate)
    cdf = [cum]
    k = 0
    while term != 0.0:
        k += 1
        term *= rate / k
        cum += term
        cdf.append(cum)
    return np.array(cdf)


def _hermite_blocks(params: HermiteParams, n: int, seed: int) -> Iterator[list[int]]:
    """Check the inputs now; return ``n`` draws of sum_i i*X_i in lists of at
    most ``_BLOCK``, drawn as the lists are taken."""
    n = _whole(n, "sample size", 1)
    for i, rate in enumerate(params.a, start=1):
        if rate > MAX_COMPONENT_RATE:
            raise OverflowGuard(
                f"component rate a_{i} = {rate} exceeds {MAX_COMPONENT_RATE}"
            )
    seed = _seed(seed)  # np.uint64 refuses a negative seed
    active = [(i, rate) for i, rate in enumerate(params.a, start=1) if rate > 0.0]
    if any(rate > _POISSON_INVERSION_MAX for _, rate in active):
        draws = [(i, _poisson_sampler(rate)) for i, rate in active]
        uniform = _uniform_stream(seed)

        def block(lo: int, m: int) -> list[int]:
            values = []
            for _ in range(m):
                total = 0
                for i, draw in draws:
                    total += i * draw(uniform)
                values.append(total)
            return values

    else:
        r = len(active)
        cdfs = [(i, _inversion_cdf(rate)) for i, rate in active]

        def block(lo: int, m: int) -> list[int]:
            # draw d's component c reads uniform d*r + c
            u = _uniforms(seed, lo * r, m * r).reshape(m, r)
            total = np.zeros(m, dtype=np.int64)
            for c, (i, cdf) in enumerate(cdfs):
                total += i * np.minimum(np.searchsorted(cdf, u[:, c], "right"), len(cdf) - 1)
            return total.tolist()

    return (block(lo, min(_BLOCK, n - lo)) for lo in range(0, n, _BLOCK))


def sample_hermite(params: HermiteParams, n: int, seed: int) -> SampleBatch:
    """``n`` independent draws of sum_i i*X_i with X_i ~ Poisson(a_i)."""
    seed = _seed(seed)
    return SampleBatch(values=tuple(chain.from_iterable(_hermite_blocks(params, n, seed))), seed=seed)


def _uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs start+1 .. start+count of SplitMix64(seed), as next_float maps them.

    The j-th output mixes seed + j * gamma (mod 2**64), so any stretch of
    the stream is computed without the outputs before it.
    """
    # in place, so that at most two arrays of ``count`` are alive at once
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(seed)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    u = z.astype(np.float64)
    u *= 2.0**-53
    return u


def _uniform_stream(seed: int) -> Callable[[], float]:
    """A callable whose successive calls return SplitMix64(seed).next_float's
    outputs in order, computed ``_BLOCK`` at a time by :func:`_uniforms`;
    ``seed`` must lie in [0, 2**64)."""
    return chain.from_iterable(_uniforms(seed, start, _BLOCK).tolist() for start in count(0, _BLOCK)).__next__


def _binomial_cdf(trials: int, q: float, u_max: float) -> np.ndarray:
    """sample_binomial's running cdf for ``trials``, accumulated in its order,
    up to the first entry above ``u_max`` or to index ``trials``."""
    term = cum = (1.0 - q) ** trials
    ratio = q / (1.0 - q)
    cdf = [cum]
    k = 0
    while u_max >= cum and k < trials:
        term *= ratio * (trials - k) / (k + 1.0)
        k += 1
        cum += term
        cdf.append(cum)
    return np.array(cdf)


def _thin_chunk(x: np.ndarray, p: float, seed: int, used: int) -> tuple[np.ndarray, int]:
    """Thin the counts ``x`` with the stream after its first ``used`` uniforms.

    Returns the thinned counts and the number of uniforms used after them.
    """
    flip = p > 0.5
    q = 1.0 - p if flip else p
    large = x > _BERNOULLI_MAX
    sizes = sorted(set(x[large].tolist()))
    underflows = np.array([(1.0 - q) ** t == 0.0 for t in sizes], dtype=bool)
    exhaustive = np.zeros_like(large)
    exhaustive[large] = underflows[np.searchsorted(sizes, x[large])]
    inverted = large & ~exhaustive
    # bounds[i] is where count i's uniforms start; bounds[-1] where they all end.
    bounds = used + np.concatenate(([0], np.cumsum(np.where(inverted, 1, x))))
    end = int(bounds[-1])
    below_p = np.zeros(len(bounds), dtype=np.int64)  # uniforms < p before each bound
    below_q = np.zeros(len(bounds), dtype=np.int64) if flip else below_p
    first = np.zeros(len(x))  # each count's first uniform
    seen_p = seen_q = 0
    for start in range(used, end, _BLOCK):
        u = _uniforms(seed, start, min(_BLOCK, end - start))
        stop = start + len(u)
        lo, hi = np.searchsorted(bounds, start, "left"), np.searchsorted(bounds, stop, "right")
        local = bounds[lo:hi] - start
        cum_p = np.concatenate(([0], np.cumsum(u < p)))
        below_p[lo:hi] = seen_p + cum_p[local]
        seen_p += int(cum_p[-1])
        if flip:
            cum_q = np.concatenate(([0], np.cumsum(u < q)))
            below_q[lo:hi] = seen_q + cum_q[local]
            seen_q += int(cum_q[-1])
        b = np.searchsorted(bounds[:-1], stop, "left")
        first[lo:b] = u[bounds[lo:b] - start]
    thinned = np.diff(below_p)
    if flip:
        thinned[exhaustive] = x[exhaustive] - np.diff(below_q)[exhaustive]
    # cdf inversion: one table per distinct count, searched by all its uniforms.
    idx = np.flatnonzero(inverted)
    order = idx[np.argsort(x[idx], kind="stable")]
    for group in np.split(order, np.flatnonzero(np.diff(x[order])) + 1):
        if group.size:
            trials = int(x[group[0]])
            cdf = _binomial_cdf(trials, q, float(first[group].max()))
            k = np.minimum(np.searchsorted(cdf, first[group], "right"), trials)
            thinned[group] = trials - k if flip else k
    return thinned, end


def _trial_counts(block: Sequence[int]) -> np.ndarray:
    """``block`` as int64 counts; the first that is not a whole number in [0, 2**63) is refused."""
    x = np.asarray(block)
    if x.dtype.kind not in "bi" or (x < 0).any():
        for v in block:
            _whole(v, "trial count", 0, 2**63 - 1)
    return x.astype(np.int64, copy=False)


def _thin_blocks(blocks: Iterable[Sequence[int]], p: float, seed: int) -> Iterator[Sequence[int]]:
    """Check ``p`` now; return the blocks of counts thinned in turn, as
    sample_binomial thins them one by one with one SplitMix64(seed).  At
    p = 1 every count is kept: each block is checked and handed back as is."""
    p = _check_thinning_fraction(p)

    def thinned() -> Iterator[Sequence[int]]:
        used = 0
        for block in blocks:
            counts = _trial_counts(block)
            if p == 1.0:
                yield block
            else:
                values, used = _thin_chunk(counts, p, seed, used)
                yield values.tolist()

    return thinned()


def thin_sample(batch: SampleBatch, p: float, seed: int) -> SampleBatch:
    """Binomially subsample every realized count: x -> Binomial(x, p).

    The result equals sample_binomial(x, p, rng) applied to each count in
    turn with one rng = SplitMix64(seed); it is computed in numpy blocks of
    at most _BLOCK counts and _BLOCK uniforms.
    """
    seed = _seed(seed)
    counts = batch.values
    blocks = (counts[lo : lo + _BLOCK] for lo in range(0, len(counts), _BLOCK))
    return SampleBatch(values=tuple(chain.from_iterable(_thin_blocks(blocks, p, seed))), seed=seed)
