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
(``_uniforms``: a cached progression (1 .. _BLOCK) * gamma plus one
scalar), at most ``_BLOCK`` at a time.  They keep each uniform in
its integer form, v = output >> 11 with next_float = v * 2**-53, and
compare it with a probability c through the integer key ceil(c * 2**53):
c <= v * 2**-53 exactly where key <= v.  Only the rejection regime's
attempts are evaluated on floats.  Each Poisson rate gets one table, built
on first use and kept: up to rate 30 the keys of its cdf with an index
table over the uniform's top _GUIDE_BITS bits, which inverts all but
0.1-1% of the uniforms by one gather; the rejection constants and an
lgamma table above.  When every component of ``sample_hermite`` inverts,
draw d's component c reads uniform d*r + c (r the number of a_i > 0), and
a block is one array of uniforms inverted in each component's table.  A
rejection attempt uses one or two uniforms, so a model with a component
above 30 evaluates, over a window of uniforms, the attempt that would start
at each position, and walks its draws through the accepting ones.  The
thinning layout is fixed by the counts alone, so ``thin_sample`` works on
whole blocks of uniforms.
``sample_poisson`` and ``sample_binomial``, drawing from one SplitMix64,
are the scalar definitions the two reproduce bit for bit.  They search the
same accumulated cdfs as the tables (``_inversion_cdf``, ``_binomial_cdf``),
lazily: each accumulation stops at the first entry above its uniform.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache

from .errors import DataError, OverflowGuard
from .model import HermiteParams, _check_thinning_fraction, _ordered, _real, _whole

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

#: Component rates above this are refused (sequential samplers degrade).
MAX_COMPONENT_RATE = 1e6

#: Rate threshold between sequential cdf inversion and envelope rejection.
_POISSON_INVERSION_MAX = 30.0

#: Largest count thinned by literal Bernoulli trials; above it, cdf inversion.
_BERNOULLI_MAX = 64

#: Sampling and thinning work on at most this many draws at once, and the
#: rejection regime on windows of at most this many uniforms (one that
#: completes no draw is widened); sampling holds about this many uniforms per
#: Poisson component, thinning at most this many in all.
_BLOCK = 1 << 12

#: The index table of each inversion cdf has 2**_GUIDE_BITS buckets: a
#: uniform's top bits.
_GUIDE_BITS = 12

#: A rejection attempt evaluated in numpy whose floor or accept decision lies
#: within this relative distance of its threshold is redone with ``math``.
#: numpy's log and exp, and x*x for Python's x**2, differ from libm's by at
#: most 2**-50 relative (a test checks it), 2**20 times less.
_MARGIN = 2.0**-30


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
    """Realized draws plus the seed that produced them, kept unchecked: _counts reads them."""

    values: tuple[int, ...]
    seed: int

    def __len__(self) -> int:
        return len(self.values)

    def mean(self) -> float:
        counts = _counts(self.values).tolist()  # each below 2**63, so the exact sum / len is a double
        if not counts:
            raise DataError("an empty batch has no mean")
        return sum(counts) / len(counts)


def _atkinson(rate: float) -> tuple:
    """sample_poisson's rejection method at ``rate`` > 30: (attempt, alpha,
    beta, k0, log(rate)).  attempt(u, second) is one attempt from the uniform
    u that calls second() for its second uniform when it needs one; it
    returns the uniforms it used and the count it accepts, or -1."""
    c = 0.767 - 3.36 / rate
    beta = math.pi / math.sqrt(3.0 * rate)
    alpha = beta * rate
    k0 = math.log(c / beta) - rate
    log_rate = math.log(rate)

    def attempt(u: float, second: Callable[[], float]) -> tuple[int, int]:
        if u == 0.0:
            return 1, -1
        x = (alpha - math.log((1.0 - u) / u)) / beta
        n = math.floor(x + 0.5)
        if n < 0:
            return 1, -1
        v = second()
        if v <= 0.0:
            return 2, -1
        y = alpha - beta * x
        lhs = y + math.log(v / (1.0 + math.exp(y)) ** 2)
        rhs = k0 + n * log_rate - math.lgamma(n + 1.0)
        return 2, n if lhs <= rhs else -1

    return attempt, alpha, beta, k0, log_rate


def sample_poisson(rate: float, rng: SplitMix64) -> int:
    """One Poisson draw using the supplied generator state.

    rate <= 30: sequential cdf inversion (exact search).
    rate  > 30: Atkinson's rejection method with a logistic envelope
    (c = 0.767 - 3.36/rate, beta = pi/sqrt(3 rate)), which needs no
    normal-approximation shortcut and stays exact for large rates.
    """
    rate = _real(rate, "Poisson rate", "[0, inf)")
    if rate == 0.0:
        return 0
    if rate <= _POISSON_INVERSION_MAX:
        return len(_inversion_cdf(rate, rng.next_float())) - 1
    attempt = _atkinson(rate)[0]
    while True:
        n = attempt(rng.next_float(), rng.next_float)[1]
        if n >= 0:
            return n


def sample_binomial(trials: int, p: float, rng: SplitMix64) -> int:
    """One Binomial(trials, p) draw: the scalar definition of the thinning stream.

    Small counts run literal Bernoulli trials; larger ones use cdf inversion
    on the smaller of (p, 1-p) so the starting mass never underflows at
    realistic counts (an exact trial-by-trial fallback covers the rest).
    :func:`thin_sample` reproduces it in blocks.
    """
    trials, p = _whole(trials, "trial count", 0), _real(p, "p", "[0, 1]")
    if trials == 0 or p == 0.0:
        return 0
    if p == 1.0:
        return trials
    if trials <= _BERNOULLI_MAX:
        return sum(rng.next_float() < p for _ in range(trials))
    flip = p > 0.5
    q = 1.0 - p if flip else p
    if (1.0 - q) ** trials == 0.0:
        # (1-q)**trials underflowed; fall back to exact Bernoulli trials.
        hits = sum(rng.next_float() < q for _ in range(trials))
        return trials - hits if flip else hits
    k = len(_binomial_cdf(trials, q, rng.next_float())) - 1
    return trials - k if flip else k


def _inversion_cdf(rate: float, u_max: float) -> list[float]:
    """sample_poisson's running cdf at 0 < ``rate`` <= 30, accumulated in its
    order, up to the first entry above ``u_max`` or to the one where the term
    underflows to 0 (by k = 430, though the rounded cdf may stay below 1).
    Its search returns min(bisect_right(cdf, u), len(cdf) - 1)."""
    term = cum = math.exp(-rate)
    cdf = [cum]
    k = 0
    while u_max >= cum and term != 0.0:
        k += 1
        term *= rate / k
        cum += term
        cdf.append(cum)
    return cdf


def _keys(cdf: list[float]) -> list[int]:
    """ceil(c * 2**53) for each entry c of ``cdf``: c <= v * 2**-53, for a
    53-bit integer uniform v, exactly where key <= v (c * 2**53 is exact)."""
    return [math.ceil(c * 2.0**53) for c in cdf]


@lru_cache(maxsize=64)
def _inversion_table(rate: float) -> tuple[np.ndarray, np.ndarray]:
    """The _keys of _inversion_cdf(rate) with their index table, read-only
    int64 and int16 arrays: (keys, index).

    Bucket b holds the uniforms v with v >> (53 - _GUIDE_BITS) == b.  Where
    no key lies inside the bucket (above its first v, at or below its last),
    every v in it inverts to the same index, ``index[b]``; elsewhere
    ``index[b]`` is -1.  Every index is at most 429 (the cdf has at most
    430 entries), so int16 holds it: 2**_GUIDE_BITS * 2 bytes, 8 KB, per rate.
    """
    import numpy as np

    keys = np.array(_keys(_inversion_cdf(rate, math.inf)), dtype=np.int64)
    shift = 53 - _GUIDE_BITS
    first = np.arange(1 << _GUIDE_BITS, dtype=np.int64) << shift
    lo = np.searchsorted(keys, first, "right")
    hi = np.searchsorted(keys, first + ((1 << shift) - 1), "right")
    index = np.where(lo == hi, np.minimum(lo, len(keys) - 1), -1).astype(np.int16)
    for array in keys, index:
        array.flags.writeable = False
    return keys, index


def _invert(table: tuple[np.ndarray, np.ndarray], v: np.ndarray) -> np.ndarray:
    """min(bisect_right(cdf, v * 2**-53), len(cdf) - 1) for each 53-bit
    integer uniform of ``v``, as int16, from the _inversion_table of the cdf:
    one gather, and a bisection of the keys for the uniforms in a bucket
    that a key splits (0.1-1% of them at rates 0.25-30)."""
    import numpy as np

    keys, index = table
    k = index.take(v >> (53 - _GUIDE_BITS))
    hard = np.flatnonzero(k < 0)
    if hard.size:
        k[hard] = np.minimum(np.searchsorted(keys, v[hard], "right"), len(keys) - 1)
    return k


@lru_cache(maxsize=64)
def _rejection_table(rate: float) -> tuple:
    """_atkinson(rate) and the read-only math.lgamma(n + 1.0) for n from n_lo
    on: (attempt, alpha, beta, k0, log(rate), n_lo, lgamma)."""
    import numpy as np

    attempt, alpha, beta, k0, log_rate = _atkinson(rate)
    # n within 10 / beta of the rate, where |log((1 - u) / u)| < 10: all but
    # 1 in 10**4 attempts; _rejection_window redoes the others with attempt()
    n_lo = max(0, math.floor(rate - 10.0 / beta))
    lgamma = np.array([math.lgamma(k + 1.0) for k in range(n_lo, math.ceil(rate + 10.0 / beta) + 1)])
    lgamma.flags.writeable = False
    return attempt, alpha, beta, k0, log_rate, n_lo, lgamma


def _rejection_window(table: tuple, u: np.ndarray) -> tuple[list[int], list[int]]:
    """One rejection rate's draws at every start in a window of the stream.

    ``u`` holds the window's w positions and one uniform past them.  Every
    position gets the attempt that would start there, evaluated in numpy;
    an attempt whose floor or accept decision lies within ``_MARGIN``
    (relative) of its threshold is redone by ``attempt``'s ``math``
    expressions, so that libm's last bits decide it, and so is one whose
    count lies outside the lgamma table.  Pointer jumping then
    takes each position to the attempt that accepts.  Returns (steps,
    values) over positions 0..w + 2: a draw starting at p ends before
    position p + steps[p] with count values[p]; a draw that runs past the
    window, and every draw starting at or past w, ends at the dead position
    w + 2.  Steps are short, so their ints are the interpreter's shared ones.
    """
    import numpy as np

    attempt, alpha, beta, k0, log_rate, n_lo, lgamma = table
    width = len(u) - 1
    first, second = u[:-1], u[1:]
    live = first != 0.0
    log_odds = np.log((1.0 - first) / np.where(live, first, 1.0))
    x = (alpha - log_odds) / beta
    t = x + 0.5
    n = np.floor(t)
    y = alpha - beta * x
    with np.errstate(divide="ignore"):
        g = np.log(second / (1.0 + np.exp(y)) ** 2)
    lhs = y + g
    n_hi = n_lo + len(lgamma) - 1
    rhs = k0 + n * log_rate - lgamma.take(np.clip(n, n_lo, n_hi).astype(np.intp) - n_lo)
    counted = live & (n >= 0.0)
    tried = counted & (second > 0.0)
    accept = tried & (lhs <= rhs)
    scale = alpha + np.abs(log_odds)
    near = live & (np.abs(t - np.rint(t)) <= _MARGIN * (scale / beta + 1.0))
    near |= tried & (np.abs(lhs - rhs) <= _MARGIN * (scale + np.abs(g) + 1.0))
    near |= counted & ((n < n_lo) | (n > n_hi))
    used = 1 + counted
    n = n.astype(np.int64)
    for p in np.flatnonzero(near).tolist():
        used[p], n[p] = attempt(float(first[p]), lambda v=float(second[p]): v)
        accept[p] = n[p] >= 0
    # jump[p]: p itself where an attempt accepts, else the next attempt's start
    positions = np.arange(width + 3)
    jump = positions.copy()
    jump[:width] += np.where(accept, 0, used)
    while True:
        jumped = jump.take(jump)
        if np.array_equal(jumped, jump):
            break
        jump = jumped
    done = jump < width
    ends = np.where(done, jump + np.append(used, [0, 0, 0]).take(jump), width + 2)
    values = np.where(done, np.append(n, [0, 0, 0]).take(jump), 0)
    return (ends - positions).tolist(), values.tolist()


def _hermite_blocks(params: HermiteParams, n: int, seed: int) -> Iterator[np.ndarray]:
    """Check the inputs now; return ``n`` draws of sum_i i*X_i as int64
    arrays, drawn as the arrays are taken."""
    n = _whole(n, "sample size", 1)
    for i, rate in enumerate(params.a, start=1):
        if rate > MAX_COMPONENT_RATE:
            raise OverflowGuard(
                f"component rate a_{i} = {rate} exceeds {MAX_COMPONENT_RATE}"
            )
    seed = _seed(seed)  # np.uint64 refuses a negative seed
    active = [(i, rate) for i, rate in enumerate(params.a, start=1) if rate > 0.0]
    if any(rate > _POISSON_INVERSION_MAX for _, rate in active):
        return _rejection_blocks(active, n, seed)
    return _inversion_blocks(active, n, seed)


def _inversion_blocks(active: list[tuple[int, float]], n: int, seed: int) -> Iterator[np.ndarray]:
    """Draws of at most ``_BLOCK`` at a time when every component inverts:
    draw d's component c reads uniform d*r + c."""
    import numpy as np

    r = len(active)
    tables = [(i, _inversion_table(rate)) for i, rate in active]
    for lo in range(0, n, _BLOCK):
        m = min(_BLOCK, n - lo)
        if not tables:  # a point mass at 0
            yield np.zeros(m, dtype=np.int64)
            continue
        v = _uniforms(seed, lo * r, m * r)
        if r == 1 and tables[0][0] == 1:  # a Poisson draw is its one component
            yield _invert(tables[0][1], v).astype(np.int64)
            continue
        v = v.reshape(m, r)
        # int16 counts times i wrap past 32,767, so the products are int64
        (i, table), *rest = tables
        total = np.multiply(_invert(table, v[:, 0]), i, dtype=np.int64)
        for c, (i, table) in enumerate(rest, start=1):
            total += np.multiply(_invert(table, v[:, c]), i, dtype=np.int64)
        yield total


def _rejection_blocks(active: list[tuple[int, float]], n: int, seed: int) -> Iterator[np.ndarray]:
    """Draws window by window when a component rejects.

    A window spans about the uniforms the draws still owed take, at most
    ``_BLOCK``.  Each distinct rate gets its (steps, values) columns over the
    window, and the draws walk them component by component.  The next
    window starts where the first draw that runs past this one starts; a
    window that completes no draw is retried twice as wide.
    """
    import numpy as np

    tables = {
        rate: _rejection_table(rate) if rate > _POISSON_INVERSION_MAX else _inversion_table(rate) for _, rate in active
    }
    # uniforms a draw takes, about: one per inverted component, under 3.1 per rejecting one
    per_draw = sum(1.0 if rate <= _POISSON_INVERSION_MAX else 3.2 for _, rate in active)
    start, owed, width, stalled = 0, n, 0, False
    while owed:
        width = 2 * width if stalled else min(_BLOCK, math.ceil(owed * per_draw) + 4)
        v = _uniforms(seed, start, width + 1)
        u = v * 2.0**-53
        dead = width + 2
        columns = {}
        for rate, table in tables.items():
            if rate > _POISSON_INVERSION_MAX:
                columns[rate] = _rejection_window(table, u)
            else:
                columns[rate] = [1] * width + [2, 1, 0], _invert(table, v[:width]).tolist() + [0, 0, 0]
        walk = [(i, *columns[rate]) for i, rate in active]
        draws, p = [], 0
        for _ in range(owed):
            q, total = p, 0
            for i, step, values in walk:
                total += i * values[q]
                q += step[q]
            if q == dead:
                break
            draws.append(total)
            p = q
        stalled = not draws
        if draws:
            start += p
            owed -= len(draws)
            yield np.array(draws, dtype=np.int64)


def sample_hermite(params: HermiteParams, n: int, seed: int) -> SampleBatch:
    """``n`` independent draws of sum_i i*X_i with X_i ~ Poisson(a_i)."""
    import numpy as np

    seed = _seed(seed)
    return SampleBatch(values=tuple(np.concatenate(list(_hermite_blocks(params, n, seed))).tolist()), seed=seed)


@lru_cache(maxsize=4)
def _progression(length: int) -> tuple:
    """What _uniforms reads for blocks of ``length``: the read-only uint64
    progression (1 .. length) * gamma (mod 2**64), then the mixer's shifts
    and multipliers as uint64 scalars, which numpy would otherwise convert
    on every call."""
    import numpy as np

    steps = np.arange(1, length + 1, dtype=np.uint64)
    steps *= np.uint64(_GAMMA)
    steps.flags.writeable = False
    return steps, *map(np.uint64, (30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31, 11))


def _uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs start+1 .. start+count of SplitMix64(seed) as int64 53-bit
    integers v = z >> 11, the uniforms v * 2**-53 that next_float returns.

    The j-th output mixes seed + j * gamma (mod 2**64), so any stretch of
    the stream is computed without the outputs before it: the _BLOCK
    outputs from start + 1 on mix the cached (1 .. _BLOCK) * gamma plus the
    scalar start * gamma + seed, and a longer count is filled _BLOCK at a
    time.
    """
    import numpy as np

    steps, s30, m1, s27, m2, s31, s11 = _progression(_BLOCK)
    z = np.empty(count, dtype=np.uint64)
    for lo in range(0, count, _BLOCK):
        hi = min(lo + _BLOCK, count)
        np.add(steps[: hi - lo], np.uint64(((start + lo) * _GAMMA + seed) & _MASK64), out=z[lo:hi])
    # in place, through one scratch array, so that two arrays of ``count`` are alive at once
    t = np.empty_like(z)
    z ^= np.right_shift(z, s30, out=t)
    z *= m1
    z ^= np.right_shift(z, s27, out=t)
    z *= m2
    z ^= np.right_shift(z, s31, out=t)
    z >>= s11
    return z.view(np.int64)  # below 2**53: the same bits as int64


def _binomial_cdf(trials: int, q: float, u_max: float) -> list[float]:
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
    return cdf


def _thin_chunk(x: np.ndarray, p: float, seed: int, used: int) -> tuple[np.ndarray, int]:
    """Thin the counts ``x`` with the stream after its first ``used`` uniforms.

    Returns the thinned counts and the number of uniforms used after them.
    """
    import numpy as np

    flip = p > 0.5
    q = 1.0 - p if flip else p
    # a trial u < p is v < ceil(p * 2**53) on the integer uniform v
    key_p, key_q = _keys([p, q])
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
    first = np.zeros(len(x), dtype=np.int64)  # each count's first uniform
    seen_p = seen_q = 0
    for start in range(used, end, _BLOCK):
        v = _uniforms(seed, start, min(_BLOCK, end - start))
        stop = start + len(v)
        lo, hi = np.searchsorted(bounds, start, "left"), np.searchsorted(bounds, stop, "right")
        local = bounds[lo:hi] - start
        cum_p = np.concatenate(([0], np.cumsum(v < key_p)))
        below_p[lo:hi] = seen_p + cum_p[local]
        seen_p += int(cum_p[-1])
        if flip:
            cum_q = np.concatenate(([0], np.cumsum(v < key_q)))
            below_q[lo:hi] = seen_q + cum_q[local]
            seen_q += int(cum_q[-1])
        b = np.searchsorted(bounds[:-1], stop, "left")
        first[lo:b] = v[bounds[lo:b] - start]
    thinned = np.diff(below_p)
    if flip:
        thinned[exhaustive] = x[exhaustive] - np.diff(below_q)[exhaustive]
    # cdf inversion: one table per distinct count, searched by all its uniforms.
    idx = np.flatnonzero(inverted)
    order = idx[np.argsort(x[idx], kind="stable")]
    for group in np.split(order, np.flatnonzero(np.diff(x[order])) + 1):
        if group.size:
            trials = int(x[group[0]])
            keys = _keys(_binomial_cdf(trials, q, int(first[group].max()) * 2.0**-53))
            k = np.minimum(np.searchsorted(np.array(keys, dtype=np.int64), first[group], "right"), trials)
            thinned[group] = trials - k if flip else k
    return thinned, end


def _counts(values) -> np.ndarray:
    """The one reader of a batch's counts: ``values``, read by _ordered, as a
    new int64 array; the first entry that is not a whole number in [0, 2**63),
    as in a nested batch or one numpy cannot read, is refused by _whole."""
    import numpy as np

    ordered = _ordered(values, "batch values", "whole numbers")
    try:
        x = np.array(ordered)  # a copy, which thin_sample thins in place, even of an array.array
    except ValueError:  # ragged, such as [[1], [1, 2]]
        x = None
    if x is None or x.ndim != 1 or x.dtype.kind not in "bi" or (x < 0).any():
        x = np.array([_whole(v, "trial count", 0, 2**63 - 1) for v in ordered], dtype=np.int64)
    return x.astype(np.int64, copy=False)


def _thin_blocks(blocks: Iterable[np.ndarray], p: float, seed: int) -> Iterator[np.ndarray]:
    """Check ``p`` now; return the int64 blocks of counts, from _counts or the
    sampler and not checked again, thinned in turn as sample_binomial thins
    them one by one with one SplitMix64(seed); at p = 1, as they are."""
    p = _check_thinning_fraction(p)
    if p == 1.0:
        return iter(blocks)

    def thinned() -> Iterator[np.ndarray]:
        used = 0
        for block in blocks:
            block, used = _thin_chunk(block, p, seed, used)
            yield block

    return thinned()


def thin_sample(batch: SampleBatch, p: float, seed: int) -> SampleBatch:
    """Binomially subsample every realized count: x -> Binomial(x, p).

    The result equals sample_binomial(x, p, rng) applied to each count in
    turn with one rng = SplitMix64(seed).  ``batch.values`` is read once, by
    _counts: ordered as the coefficients of ``HermiteParams``, and whole counts.
    That int64 copy is thinned in place, _BLOCK counts and uniforms at a time.
    """
    seed = _seed(seed)
    counts = _counts(batch.values)
    starts = range(0, len(counts), _BLOCK)
    for lo, thinned in zip(starts, _thin_blocks((counts[lo : lo + _BLOCK] for lo in starts), p, seed)):
        counts[lo : lo + _BLOCK] = thinned
    return SampleBatch(values=tuple(counts.tolist()), seed=seed)
