"""Unit tests for the benchmark's reduction code: tail rule, self time, error counting, host-speed normalization."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from reduce import OpLog, layer_metrics, nearest_ancestor, normalize, self_times, tail_percentile  # noqa: E402
from tracer import Recorder, merge  # noqa: E402


def test_tail_is_highest_percentile_leaving_ten_beyond():
    samples = [float(x) for x in range(1, 101)]  # 100 samples
    tail = tail_percentile(samples)
    assert (tail.percentile, tail.value, tail.beyond) == (90, 90.0, 10)


def test_tail_ignores_input_order_and_uses_nearest_rank():
    samples = [float(x) for x in range(600, 0, -1)]
    tail = tail_percentile(samples)
    # p98: rank ceil(588) = 588 leaves 12 beyond; p99: rank 594 leaves 6.
    assert (tail.percentile, tail.value, tail.beyond) == (98, 588.0, 12)


def test_tail_at_the_median_boundary():
    tail = tail_percentile([float(x) for x in range(20)])  # p50 leaves exactly 10
    assert (tail.percentile, tail.beyond) == (50, 10)


def test_tail_falls_back_to_the_maximum_for_few_samples():
    tail = tail_percentile([3.0, 1.0, 2.0])
    assert (tail.percentile, tail.value, tail.beyond) == (100, 3.0, 0)
    with pytest.raises(ValueError):
        tail_percentile([])


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9];  other root [20, 21]
    starts = np.array([0.0, 1.0, 2.0, 5.0, 20.0])
    ends = np.array([10.0, 4.0, 3.0, 9.0, 21.0])
    parents = np.array([-1, 0, 1, 0, -1])
    assert self_times(starts, ends, parents).tolist() == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_nearest_ancestor_skips_to_the_named_span():
    names = np.array([0, 1, 2, 1, 2])  # 0 select, 1 fit, 2 pmf
    parents = np.array([-1, 0, 1, -1, 3])
    assert nearest_ancestor(names, parents, 1).tolist() == [-1, -1, 1, -1, 3]
    assert nearest_ancestor(names, parents, 0).tolist() == [-1, 0, 0, -1, -1]


def test_recorder_spans_nest_and_merge_under_an_attach_point():
    rec = Recorder()

    def inner():
        return 1

    traced_inner = rec.wrap("pmf.pmf_table", inner)
    traced_outer = rec.wrap("estimation.fit_mle", lambda: traced_inner() + traced_inner())
    op = rec.begin(rec.name_id("bench.op"))
    traced_outer()
    rec.end(op)
    parent = rec.arrays()
    assert parent["parents"].tolist() == [-1, 0, 1, 1]

    child = Recorder()
    span = child.begin(child.name_id("cli.main"))
    child.end(span)
    merged = merge([parent, {**child.arrays(), "attach": op}])
    names = merged["names"].tolist()
    assert [names[i] for i in merged["name_ids"]] == [
        "bench.op", "estimation.fit_mle", "pmf.pmf_table", "pmf.pmf_table", "cli.main",
    ]
    assert merged["parents"].tolist() == [-1, 0, 1, 1, 0]


def test_layer_metrics_attribute_self_time_per_layer():
    spans = {
        "names": np.array(["bench.op", "estimation.fit_mle", "pmf.pmf_table", "pmf.log_likelihood"]),
        "name_ids": np.array([0, 1, 3, 2, 3, 2, 0]),
        "parents": np.array([-1, 0, 1, 2, 1, 4, -1]),
        "starts": np.array([0.0, 1.0, 2.0, 2.5, 5.0, 5.5, 10.0]),
        "ends": np.array([8.0, 7.0, 4.0, 3.5, 6.0, 5.75, 12.0]),
        "sizes": np.array([0.0, 3.5, 0.0, 10.0, 0.0, 10.0, 0.0]),
    }
    m = layer_metrics(spans, ops=2, untraced_s=8.0, traced_s=10.0)
    assert m["trace.overhead_frac"] == pytest.approx(0.25)
    assert m["estimation.fit_mle.calls"] == 0.5
    assert m["estimation.iterations"] == 3.0
    assert m["estimation.not_converged"] == 0.5
    assert m["estimation.loglik_evals_per_step"] == 0.0  # 2 evals, both at the start point
    assert m["estimation.pmf_tables_per_fit"] == 2.0
    assert m["pmf.pmf_table.entries"] == 10.0
    assert m["pmf.us_per_entry"] == pytest.approx(1e6 * 1.25 / 20)
    # op time 8 + 2 = 10; fit self 6 - (2 + 1) = 3; pmf self (2 - 1) + 1 + (1 - 0.25) + 0.25.
    assert m["layer.estimation.share"] == pytest.approx(0.3)
    assert m["layer.pmf.share"] == pytest.approx(0.3)
    assert m["layer.outside.share"] == pytest.approx(0.4)
    assert m["sampling.draws_per_s"] == 0.0  # a layer with no work reports 0, not NaN


def test_error_rate_counts_each_failed_op_once():
    log = OpLog()
    log.record(0.5, [])
    log.record(0.7, ["loglik-below-reference", "fitted-mean"])  # two checks, one op
    log.record(None, ["raised-DomainError"])  # raised: no latency sample
    log.record(0.2, ["fit-exit-4"])
    assert (log.attempted, log.failed) == (4, 3)
    assert log.error_rate == 0.75
    assert log.seconds == [0.5, 0.7, 0.2]
    assert log.reasons == {
        "loglik-below-reference": 1, "fitted-mean": 1, "raised-DomainError": 1, "fit-exit-4": 1,
    }
    assert OpLog().error_rate == 0.0


def test_normalize_scales_each_interval_by_the_samples_around_it():
    # Samples every second; the host is twice as slow from t = 10 on.
    starts = [float(t) for t in range(20)]
    seconds = [1.0] * 10 + [2.0] * 10
    walls = [(2.0, 4.0), (13.0, 15.0), (2.0, 4.0)]
    out = normalize([3.0, 6.0, None], walls, starts, seconds, nominal=1.0, pad=0.5)
    assert out == [3.0, 3.0, None]  # an op that raised stays without a time


def test_normalize_takes_the_harmonic_mean_of_the_window():
    # Samples at t = 0..3 inside [0, 3]: one is slowed to 4x by preemption.
    out = normalize([2.0], [(0.0, 3.0)], [0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0, 4.0], nominal=1.0, pad=0.0)
    assert out == [pytest.approx(2.0 * (1 + 1 + 1 + 0.25) / 4)]


def test_normalize_falls_back_to_the_nearest_sample():
    # A short interval between samples 10 s apart: none inside, the nearer one counts.
    out = normalize([1.0], [(12.0, 12.1)], [0.0, 10.0, 20.0], [1.0, 2.0, 4.0], nominal=1.0, pad=0.25)
    assert out == [0.5]
    with pytest.raises(ValueError):
        normalize([1.0], [], [0.0], [1.0], nominal=1.0)
