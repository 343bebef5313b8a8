"""Independent references for the benchmark's output checks.

Nothing here calls the package: the sample stream is re-derived with numpy
from SplitMix64's closed form, and likelihood lower bounds come from a
brute-force convolution of Poisson component tables.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

#: Component rates up to this are sampled by one-uniform cdf inversion.
INVERSION_MAX_RATE = 30.0


def stream_digest(values) -> str:
    """SHA-256 of a sample stream as little-endian int64."""
    return hashlib.sha256(np.asarray(values, dtype="<i8").tobytes()).hexdigest()


def text_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def splitmix_uniforms(seed: int, count: int) -> np.ndarray:
    """The first ``count`` uniforms of SplitMix64(seed): output n mixes seed + n*gamma."""
    n = np.arange(1, count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(int(seed) & _MASK64) + n * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _inversion_cdf(rate: float) -> np.ndarray:
    # Accumulated in the sampler's order, stopping where its search stops:
    # at the cap or at the first term that underflows.
    term = math.exp(-rate)
    cum = term
    cums = [cum]
    cap = int(rate + 60.0 * math.sqrt(rate) + 200.0)
    k = 0
    while k < cap:
        k += 1
        term *= rate / k
        cum += term
        cums.append(cum)
        if term == 0.0:
            break
    return np.array(cums)


def hermite_inversion_stream(a: tuple[float, ...], n: int, seed: int) -> np.ndarray:
    """Draws sum_i i*X_i of the inversion regime: one uniform per non-zero component, in order."""
    active = [(i, rate) for i, rate in enumerate(a, start=1) if rate > 0.0]
    if any(rate > INVERSION_MAX_RATE for _, rate in active):
        raise ValueError("rejection-regime rates have no closed-form stream")
    u = splitmix_uniforms(seed, n * len(active)).reshape(n, len(active))
    values = np.zeros(n, dtype=np.int64)
    for col, (i, rate) in enumerate(active):
        cdf = _inversion_cdf(rate)
        k = np.minimum(np.searchsorted(cdf, u[:, col], side="right"), len(cdf) - 1)
        values += i * k
    return values


def _poisson_table(rate: float, k_max: int) -> np.ndarray:
    k = np.arange(k_max + 1, dtype=float)
    logs = -rate + k * math.log(rate) - np.array([math.lgamma(x + 1.0) for x in k])
    return np.exp(logs)


def hermite_pmf_bruteforce(a: tuple[float, ...], k_max: int) -> np.ndarray:
    """p_0..p_{k_max} by convolving the component laws of i*X_i."""
    result = np.zeros(k_max + 1)
    result[0] = 1.0
    for i, rate in enumerate(a, start=1):
        if rate == 0.0:
            continue
        component = np.zeros(k_max + 1)
        component[::i] = _poisson_table(rate, k_max // i)
        result = np.convolve(result, component)[: k_max + 1]
    return result


def hist_loglik(bins: list[tuple[int, int]], probs: np.ndarray) -> float:
    counts = np.array([c for c, _ in bins])
    freqs = np.array([f for _, f in bins], dtype=float)
    with np.errstate(divide="ignore"):
        return math.fsum((freqs * np.log(probs[counts])).tolist())


def loglik_lower_bounds(bins: list[tuple[int, int]], true_a: tuple[float, ...], r_max: int) -> list[float]:
    """Lower bounds on the maximized log-likelihood of orders 1..r_max.

    Order 1's maximum is attained in closed form at Poisson(mean).  Each
    larger order nests the previous one, and once it reaches the generating
    order it also contains the generating model itself.
    """
    n = sum(f for _, f in bins)
    mean = sum(c * f for c, f in bins) / n
    k_max = bins[-1][0]
    bounds = [hist_loglik(bins, _poisson_table(mean, k_max))]
    truth = hist_loglik(bins, hermite_pmf_bruteforce(true_a, k_max))
    for order in range(2, r_max + 1):
        bounds.append(max(bounds[-1], truth) if order >= len(true_a) else bounds[-1])
    return bounds
