"""The three workloads: inputs built from the seed, the timed op, and its checks.

Each workload exposes ``setup()``, ``op(i, rec)`` and ``IN_PROCESS`` (whether
its ops run in this process, so that calibration samples may be taken in
the middle of them).  ``op`` times only the calls into the program, on the
context's host clock (one ``bench.op`` span when a recorder is given), and
checks the outputs afterwards; it returns an ``Outcome``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

#: Fitted log-likelihoods may fall below their reference by at most this
#: share of (1 + |reference|): a better optimizer may only raise them.
LOGLIK_RTOL = 1e-6

#: The score identity makes the fitted mean sum_i i*a_i equal the sample mean.
MEAN_RTOL = 1e-6

OP_SPAN = "bench.op"


@dataclass
class Outcome:
    seconds: float | None
    failures: list[str]
    fingerprint: list[tuple[str, dict]] = field(default_factory=list)


def hist_digest(bins) -> str:
    return oracle.stream_digest(np.asarray(bins, dtype=np.int64).ravel())


def load_references(root: Path) -> dict:
    return json.loads((root / "perfbench" / "references.json").read_text())


def loglik_references(refs: dict, bins, true_a, orders: int) -> list[float]:
    """Stored fitted log-likelihoods for this exact histogram, else independent lower bounds."""
    stored = refs["loglik"].get(hist_digest(bins))
    if stored is not None and len(stored) >= orders:
        return stored[:orders]
    return oracle.loglik_lower_bounds(list(bins), true_a, orders)


def check_fits(fits: list[tuple[tuple[float, ...], float]], statistics, mean: float, refs) -> list[str]:
    """fits: (coefficients, loglik) per order from 1; statistics: LRT values of the ladder."""
    failures = []
    for (a, loglik), ref in zip(fits, refs):
        if loglik is None or not math.isfinite(loglik):
            failures.append("loglik-not-finite")
        elif loglik < ref - LOGLIK_RTOL * (1.0 + abs(ref)):
            failures.append("loglik-below-reference")
        fitted_mean = math.fsum(i * x for i, x in enumerate(a, start=1))
        if abs(fitted_mean - mean) > MEAN_RTOL * mean:
            failures.append("fitted-mean")
    if any(not s >= 0.0 for s in statistics):
        failures.append("lrt-negative")
    return failures


def draw_bins(rng, a, n) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """n draws of sum_i i*Poisson(a_i) with numpy, and their (count, freq) bins."""
    draws = sum(i * rng.poisson(rate, n) for i, rate in enumerate(a, start=1))
    counts, freqs = np.unique(draws, return_counts=True)
    return draws, list(zip(counts.tolist(), freqs.tolist()))


def _timed(clock, rec):
    """(start, span) for a timed region; the span is None when untraced."""
    span = rec.begin(rec.name_id(OP_SPAN)) if rec is not None else None
    return clock.now(), span


def _stop(clock, rec, start, span) -> float:
    """Seconds since ``start`` on the host clock, which excludes calibration samples."""
    elapsed = clock.now() - start
    if rec is not None:
        rec.end(span)
    return elapsed


def _ladder(chosen, fits) -> dict:
    """Fingerprint of a fit ladder: printed beside the timings, never a failure."""
    return {
        "chosen": chosen,
        "iterations": [f["iterations"] if isinstance(f, dict) else f.iterations for f in fits],
        "converged": [f["converged"] if isinstance(f, dict) else f.converged for f in fits],
    }


class McCalibration:
    """Simulation-study replicates: sample, histogram, select the order.

    One op is one null replicate followed by one alternative replicate: the
    two take about 28 ms and 60 ms, so a single-replicate median would sit
    in the gap between them and jump with the mix.
    """

    name = "mc-calibration"
    IN_PROCESS = True
    NULL = (2.0,)
    ALT = (1.0, 1.0)
    N_DRAWS = 10_000
    R_MAX = 3
    ALPHA = 0.05

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.base = ctx.seed << 20

    def setup(self) -> None:
        hc = self.ctx.hc
        self.models = (hc.HermiteParams(self.NULL), hc.HermiteParams(self.ALT))

    def op(self, i: int, rec=None) -> Outcome:
        hc = self.ctx.hc
        results = []
        start, span = _timed(self.ctx.clock, rec)
        for rep, params in ((2 * i, self.models[0]), (2 * i + 1, self.models[1])):
            batch = hc.sample_hermite(params, self.N_DRAWS, self.base + rep)
            hist = hc.CountHistogram.from_observations(batch.values)
            results.append((params.a, self.base + rep, batch, hist, hc.select_order(hist, self.R_MAX, self.ALPHA)))
        seconds = _stop(self.ctx.clock, rec, start, span)

        failures, prints = [], []
        for label, (a, sample_seed, batch, hist, trace) in zip(("null", "alt"), results):
            digest = oracle.stream_digest(batch.values)
            expected = self.ctx.refs["stream"].get(f"{a}:{self.N_DRAWS}:{sample_seed}")
            if expected is None:
                expected = oracle.stream_digest(oracle.hermite_inversion_stream(a, self.N_DRAWS, sample_seed))
            if digest != expected:
                failures.append("stream-digest")
            refs = loglik_references(self.ctx.refs, hist.bins, a, len(trace.fits))
            failures += check_fits(
                [(f.params.a, f.loglik) for f in trace.fits],
                [s.statistic for s in trace.steps],
                hist.mean(),
                refs,
            )
            prints.append((label, _ladder(trace.chosen_order, trace.fits)))
        return Outcome(seconds, failures, prints)


class SelectWide:
    """select_order(r_max=4) on each histogram of a fixed wide-support pool.

    Selection cost depends on the draw by a factor of ten (0.6 to 6.5 s for
    one a=(20, 8, 3) histogram, whose third rung is a coin flip at this
    size), so a pool drawn from --seed gave runs whose throughput moved by
    45% from seed to seed.  The pool is therefore drawn once from POOL_SEED,
    and --seed sets the order in which an op visits it.  One op is a whole
    pass over the pool: single selections take 0.01 s to 6 s, and the
    median and tail of so few, so different values jump with the number of
    passes a run happens to complete.
    """

    name = "select-wide"
    IN_PROCESS = True
    PALETTE = (
        (1.0, 0.5),
        (4.0, 2.0),
        (2.0, 0.0, 1.0),
        (6.0, 3.0, 1.5),
        (12.0, 5.0),
        (20.0, 8.0, 3.0),
    )
    N_DRAWS = 20_000
    POOL_SEED = 20070831
    R_MAX = 4
    ALPHA = 0.05

    def __init__(self, ctx) -> None:
        self.ctx = ctx

    def setup(self) -> None:
        hc = self.ctx.hc
        pool = []
        for index, a in enumerate(self.PALETTE):
            _, bins = draw_bins(np.random.default_rng([self.POOL_SEED, index]), a, self.N_DRAWS)
            hist = hc.CountHistogram(tuple(bins))
            refs = loglik_references(self.ctx.refs, hist.bins, a, self.R_MAX)
            pool.append((a, hist, refs))
        order = np.random.default_rng(self.ctx.seed).permutation(len(pool)).tolist()
        self.pool = [pool[k] for k in order]

    def op(self, i: int, rec=None) -> Outcome:
        start, span = _timed(self.ctx.clock, rec)
        traces = [self.ctx.hc.select_order(hist, self.R_MAX, self.ALPHA) for _, hist, _ in self.pool]
        seconds = _stop(self.ctx.clock, rec, start, span)
        failures, prints = [], []
        for (a, hist, refs), trace in zip(self.pool, traces):
            failures += check_fits(
                [(f.params.a, f.loglik) for f in trace.fits],
                [s.statistic for s in trace.steps],
                hist.mean(),
                refs,
            )
            prints.append((f"a={a}", _ladder(trace.chosen_order, trace.fits)))
        return Outcome(seconds, failures, prints)


class CliSession:
    """Six ``python -m hermite_counts`` children on files written at set-up.

    Each child's stdout goes to a file.  Children are run by the context's
    spawner (see spawner.py), which reaps each with os.wait4 so that its own
    peak RSS is read, not the maximum over all children.  Untraced children
    run through cli_timed.py, traced ones through cli_child.py; both behave
    like ``python -m hermite_counts``.
    """

    name = "cli-session"
    #: The parent waits while a child runs, so each child takes its own
    #: calibration samples (cli_timed.py).
    IN_PROCESS = False
    INV_MODEL = (1.0, 0.5, 0.25)
    INV_DRAWS = 200_000
    REJ_MODEL = (40.0, 10.0)
    REJ_DRAWS = 20_000
    THIN = 0.5
    PMF_MODEL = (600.0, 50.0)
    FIT_MODEL = (1.0, 0.5)
    FIT_DRAWS = 200_000
    SELECT_MODEL = (2.0, 0.6, 0.2)
    SELECT_DRAWS = 100_000
    EPS = 1e-12
    COMMANDS = ("sample", "sample_thin", "fit", "select", "pmf", "verify")

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.dir = ctx.out / f"cli-{ctx.seed}"
        self.inv_seed = (ctx.seed << 8) + 1
        self.rej_seed = (ctx.seed << 8) + 2
        self.command_seconds: dict[str, list[float]] = {c: [] for c in self.COMMANDS}
        self.peak_rss_mb = 0.0
        self._expected_streams: dict[str, str] = {}

    def setup(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        for stem, a in (("inv", self.INV_MODEL), ("rej", self.REJ_MODEL), ("pmf", self.PMF_MODEL)):
            (self.dir / f"{stem}.json").write_text(json.dumps({"order": len(a), "a": list(a)}))
        rng = np.random.default_rng([self.ctx.seed, 1])
        draws, self.fit_bins = draw_bins(rng, self.FIT_MODEL, self.FIT_DRAWS)
        (self.dir / "counts.txt").write_text("\n".join(map(str, draws.tolist())) + "\n")
        _, self.select_bins = draw_bins(rng, self.SELECT_MODEL, self.SELECT_DRAWS)
        rows = "".join(f"{c},{f}\n" for c, f in self.select_bins)
        (self.dir / "hist.csv").write_text("count,freq\n" + rows)
        self.argv = {
            "sample": ["sample", "inv.json", "--n", str(self.INV_DRAWS), "--seed", str(self.inv_seed)],
            "sample_thin": [
                "sample", "rej.json", "--n", str(self.REJ_DRAWS), "--seed", str(self.rej_seed), "--thin", repr(self.THIN)
            ],
            "fit": ["fit", "counts.txt", "--order", "2"],
            "select": ["select", "hist.csv", "--r-max", "3"],
            "pmf": ["pmf", "pmf.json", "--eps", repr(self.EPS)],
            "verify": ["verify"],
        }

    def _spawn(self, command: str, traced_spans: Path | None) -> tuple[float, int, float]:
        """Run one child to completion; returns (seconds, exit code, peak RSS MB).

        An untraced child takes its own calibration samples (cli_timed.py),
        which go to the host clock; the seconds returned exclude them.
        """
        out = self.dir / f"{command}.out"
        if traced_spans is None:
            samples = self.dir / f"{command}.samples.json"
            samples.unlink(missing_ok=True)
            child = str(self.ctx.root / "perfbench" / "cli_timed.py")
            argv = [sys.executable, child, str(samples), *self.argv[command]]
        else:
            child = str(self.ctx.root / "perfbench" / "cli_child.py")
            argv = [sys.executable, child, str(traced_spans), *self.argv[command]]
        elapsed, code, rss = self.ctx.spawner.run(argv, self.dir, out, out.with_suffix(".err"))
        if traced_spans is None and samples.exists():
            taken = json.loads(samples.read_text())
            self.ctx.clock.absorb(taken)
            elapsed -= sum(taken["seconds"])
        return elapsed, code, rss

    def op(self, i: int, rec=None) -> Outcome:
        runs = {}
        spans = {}
        start, span = _timed(self.ctx.clock, rec)
        for command in self.COMMANDS:
            if rec is not None:
                spans[command] = self.dir / f"{command}.{i}.spans.npz"
            runs[command] = self._spawn(command, spans.get(command))
        seconds = _stop(self.ctx.clock, rec, start, span)
        if rec is not None:
            self.ctx.child_spans += [(span, spans[c]) for c in self.COMMANDS]

        failures = []
        for command, (elapsed, code, rss) in runs.items():
            self.command_seconds[command].append(elapsed)
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
            if code != 0:
                failures.append(f"{command}-exit-{code}")
        failures += self._check_streams()
        fit_doc, select_doc = self._json("fit"), self._json("select")
        if fit_doc is None or select_doc is None:
            return Outcome(seconds, failures + ["unparsable-json"])
        fit_ref = loglik_references(self.ctx.refs, self.fit_bins, self.FIT_MODEL, 2)[1]
        failures += check_fits([(tuple(fit_doc["a"]), fit_doc["loglik"])], [], _mean(self.fit_bins), [fit_ref])
        fits = [(tuple(f["a"]), f["loglik"]) for f in select_doc["fits"]]
        refs = loglik_references(self.ctx.refs, self.select_bins, self.SELECT_MODEL, len(fits))
        statistics = [s["statistic"] for s in select_doc["steps"]]
        failures += check_fits(fits, statistics, _mean(self.select_bins), refs)
        failures += self._check_pmf() + self._check_verify()
        fingerprint = [
            ("fit", _ladder(2, [fit_doc])),
            ("select", _ladder(select_doc["chosen_order"], select_doc["fits"])),
        ]
        return Outcome(seconds, failures, fingerprint)

    def _stdout(self, command: str) -> bytes:
        return (self.dir / f"{command}.out").read_bytes()

    def _json(self, command: str) -> dict | None:
        try:
            return json.loads(self._stdout(command))
        except ValueError:
            return None

    def expected_stream(self, command: str) -> str:
        """Digest of the right stdout of a sample command: stored, else recomputed."""
        if command not in self._expected_streams:
            seed = self.inv_seed if command == "sample" else self.rej_seed
            stored = self.ctx.refs["stream"].get(f"cli-{command}:{seed}")
            if stored is None:
                if command == "sample":
                    values = oracle.hermite_inversion_stream(self.INV_MODEL, self.INV_DRAWS, seed).tolist()
                else:
                    # The rejection regime has no closed-form stream; the
                    # library's own in-process result checks the CLI path.
                    hc = self.ctx.hc
                    batch = hc.sample_hermite(hc.HermiteParams(self.REJ_MODEL), self.REJ_DRAWS, seed)
                    values = hc.thin_sample(batch, self.THIN, hc.sampling.derive_seed(seed, 1)).values
                stored = oracle.text_digest(("\n".join(map(str, values)) + "\n").encode())
            self._expected_streams[command] = stored
        return self._expected_streams[command]

    def _check_streams(self) -> list[str]:
        return [
            f"{command}-stream-digest"
            for command in ("sample", "sample_thin")
            if oracle.text_digest(self._stdout(command)) != self.expected_stream(command)
        ]

    def _check_pmf(self) -> list[str]:
        last = self._stdout("pmf").decode().strip().splitlines()[-1:]
        if not last or not last[0].startswith("tail_mass,"):
            return ["pmf-no-tail"]
        return [] if float(last[0].split(",")[1]) < self.EPS else ["pmf-tail-above-eps"]

    def _check_verify(self) -> list[str]:
        lines = self._stdout("verify").decode().strip().splitlines()
        return [] if lines and all(ln.startswith("PASS ") for ln in lines) else ["verify-not-pass"]


def _mean(bins) -> float:
    return sum(c * f for c, f in bins) / sum(f for _, f in bins)


WORKLOADS = {w.name: w for w in (McCalibration, SelectWide, CliSession)}
