"""Reductions from raw measurements to reported metrics.

Pure functions over plain numbers and arrays, so the rules that turn a run
into figures (tail percentile, self time, error counting) are unit-tested
apart from the workloads that feed them.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from tracer import LAYERS

#: The tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """A tail order statistic: its value, its percentile and how many samples lie beyond."""

    value: float
    percentile: int
    beyond: int


def tail_percentile(samples: list[float]) -> Tail:
    """Highest integer percentile (nearest rank) with >= TAIL_MIN_BEYOND samples beyond it.

    Percentiles below the median are not a tail: when even p50 leaves fewer
    than TAIL_MIN_BEYOND samples beyond it (fewer than 20 samples), the
    maximum is reported as p100 with nothing beyond.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    for pct in range(99, 49, -1):
        rank = math.ceil(pct * n / 100)  # 1-based nearest rank
        if n - rank >= TAIL_MIN_BEYOND:
            return Tail(ordered[rank - 1], pct, n - rank)
    return Tail(ordered[-1], 100, 0)


@dataclass
class OpLog:
    """Per-op outcomes of a run.

    An op fails when it raised, when a child exited non-zero, or when any of
    its output checks failed; it counts once however many of these happened.
    Only ops that completed without raising contribute a latency sample.
    """

    seconds: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    reasons: dict[str, int] = field(default_factory=dict)

    def record(self, seconds: float | None, failures: list[str]) -> None:
        self.attempted += 1
        if seconds is not None:
            self.seconds.append(seconds)
        if failures:
            self.failed += 1
            for reason in failures:
                self.reasons[reason] = self.reasons.get(reason, 0) + 1

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def self_times(starts: np.ndarray, ends: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the direct children of a span cover disjoint
    parts of its interval; ``parents`` holds each span's parent index, -1 for
    a root.
    """
    dur = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    has_parent = parents >= 0
    covered = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def nearest_ancestor(names: np.ndarray, parents: np.ndarray, target: int) -> np.ndarray:
    """Index of each span's nearest strict ancestor named ``target``, or -1.

    A parent is always recorded before its children, so one pass in index
    order sees every parent's answer before it is needed.
    """
    names_l = np.asarray(names).tolist()
    parents_l = np.asarray(parents).tolist()
    out = [-1] * len(names_l)
    for i, p in enumerate(parents_l):
        if p >= 0:
            out[i] = p if names_l[p] == target else out[p]
    return np.asarray(out, dtype=np.int64)


#: An interval's host speed is read from the calibration samples that start
#: inside it or within this many seconds of either end.
CAL_PAD_S = 0.25


def normalize(seconds: list[float | None], walls: list[tuple[float, float]], sample_starts: list[float],
              sample_seconds: list[float], nominal: float, pad: float = CAL_PAD_S) -> list[float | None]:
    """Each interval's time scaled to a host on which one calibration sample takes ``nominal``.

    Interval i ran from ``walls[i][0]`` to ``walls[i][1]`` and took
    ``seconds[i]`` of work (None for an op that raised, which stays None).
    Its samples are those starting in that span widened by ``pad`` on each
    side, or the nearest one when none does.  Work done at rate 1/c over a
    stretch where a sample takes c is undone by the mean of nominal/c, the
    harmonic mean, so a sample slowed by preemption weighs little.
    """
    starts = np.asarray(sample_starts, dtype=float)
    inverse = nominal / np.asarray(sample_seconds, dtype=float)
    if len(starts) == 0 or len(walls) != len(seconds):
        raise ValueError("need calibration samples and one wall span per interval")
    out = []
    for t, (begin, end) in zip(seconds, walls):
        lo = np.searchsorted(starts, begin - pad, side="left")
        hi = np.searchsorted(starts, end + pad, side="right")
        if hi <= lo:
            lo = int(np.argmin(np.abs(starts - 0.5 * (begin + end))))
            hi = lo + 1
        out.append(None if t is None else t * float(inverse[lo:hi].mean()))
    return out


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when the denominator is empty (the layer did no work)."""
    return num / den if den else 0.0


def layer_metrics(spans: dict[str, np.ndarray], ops: int, untraced_s: float, traced_s: float) -> dict[str, float]:
    """Per-layer figures of a traced run, per op unless the name says otherwise.

    ``spans`` holds merged span arrays (see tracer.merge); ``ops`` is the
    number of traced ops, and the two times are the summed op times of the
    same ops without and with tracing.
    """
    names = spans["names"].tolist()
    ids = np.asarray(spans["name_ids"])
    parents = np.asarray(spans["parents"])
    sizes = np.asarray(spans["sizes"])
    dur = np.asarray(spans["ends"]) - np.asarray(spans["starts"])
    own = self_times(spans["starts"], spans["ends"], parents)

    def nid(name: str) -> int:
        return names.index(name) if name in names else -2

    def mask(name: str) -> np.ndarray:
        return ids == nid(name)

    def calls(name):
        return float(mask(name).sum())

    def total(name, values):
        return float(values[mask(name)].sum())

    def under(name, ancestor):
        return float((mask(name) & (nearest_ancestor(ids, parents, nid(ancestor)) >= 0)).sum())

    fit_sizes = sizes[mask("estimation.fit_mle")]
    fits = float(len(fit_sizes))
    iterations = float(np.floor(fit_sizes).sum())
    op_time = total("bench.op", dur)
    m = {
        "trace.overhead_frac": ratio(traced_s, untraced_s) - 1.0,
        "trace.spans_per_op": len(ids) / ops,
        "cli.main.self_s": total("cli.main", own) / ops,
        "data.from_observations.s": total("data.CountHistogram.from_observations", dur) / ops,
        "data.hist_bins": ratio(total("data.CountHistogram.from_observations", sizes), calls("data.CountHistogram.from_observations")),
        "model.HermiteParams.validations": calls("model.HermiteParams.__post_init__") / ops,
        "pmf.pmf_table.calls": calls("pmf.pmf_table") / ops,
        "pmf.pmf_table.self_s": total("pmf.pmf_table", own) / ops,
        "pmf.pmf_table.entries": total("pmf.pmf_table", sizes) / ops,
        "pmf.us_per_entry": 1e6 * ratio(total("pmf.pmf_table", own), total("pmf.pmf_table", sizes)),
        "pmf.PmfTable.validate_s": total("pmf.PmfTable.__post_init__", dur) / ops,
        "pmf.log_likelihood.calls": calls("pmf.log_likelihood") / ops,
        "pmf.log_likelihood.self_s": total("pmf.log_likelihood", own) / ops,
        "pmf.loglik_gradient.calls": calls("pmf.loglik_gradient") / ops,
        "pmf.loglik_gradient.self_s": total("pmf.loglik_gradient", own) / ops,
        "pmf.adaptive_pmf.s": total("pmf.adaptive_pmf", dur) / ops,
        "pmf.adaptive_pmf.entries": total("pmf.adaptive_pmf", sizes) / ops,
        "estimation.fit_mle.calls": fits / ops,
        "estimation.fit_mle.self_s": total("estimation.fit_mle", own) / ops,
        "estimation.iterations": ratio(iterations, fits),
        "estimation.not_converged": float((fit_sizes % 1.0 > 0.0).sum()) / ops,
        "estimation.pmf_tables_per_fit": ratio(under("pmf.pmf_table", "estimation.fit_mle"), fits),
        # Each fit evaluates the log-likelihood twice at its start point;
        # every further evaluation is a line-search attempt.
        "estimation.loglik_evals_per_step": ratio(under("pmf.log_likelihood", "estimation.fit_mle") - 2.0 * fits, iterations),
        "selection.select_order.calls": calls("selection.select_order") / ops,
        "selection.select_order.self_s": total("selection.select_order", own) / ops,
        "selection.fits_per_select": ratio(under("estimation.fit_mle", "selection.select_order"), calls("selection.select_order")),
        "sampling.sample_hermite.s": total("sampling.sample_hermite", dur) / ops,
        "sampling.draws_per_s": ratio(total("sampling.sample_hermite", sizes), total("sampling.sample_hermite", dur)),
        "sampling.thin_sample.s": total("sampling.thin_sample", dur) / ops,
        "sampling.thinned_per_s": ratio(total("sampling.thin_sample", sizes), total("sampling.thin_sample", dur)),
        "transform.thin_pmf_oracle.calls": calls("transform.thin_pmf_oracle") / ops,
        "transform.thin_pmf_oracle.self_s": total("transform.thin_pmf_oracle", own) / ops,
        "transform.thin_pmf_oracle.entries": total("transform.thin_pmf_oracle", sizes) / ops,
        "reference.run_verification.s": total("reference.run_verification", dur) / ops,
    }
    layer_of = np.array([n.split(".")[0] if n.split(".")[0] in LAYERS else "outside" for n in names] or ["outside"])
    span_layer = layer_of[ids] if len(ids) else np.array([], dtype=str)
    for layer in (*LAYERS, "outside"):
        m[f"layer.{layer}.share"] = ratio(float(own[span_layer == layer].sum()), op_time)
    return m
