"""Benchmark for hermite-counts: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--trace 0|1]

Run from the repository root.  The package is imported from ./src, and
CLI children get the same path.  A run is single-process and closed-loop
with one client: the next op starts when the previous one has finished.

--trace 0 sets the workload up SETUP_REPEATS times, runs ops for --seconds
and reports the end-to-end metrics of BENCHMARK.json.  Their times are
normalized to a reference host speed with calibration samples taken on the
same vCPU (hostspeed.py, reduce.normalize); the measured ones are printed.

--trace 1 runs ops untraced for half of --seconds, then the same ops again
with every layer boundary wrapped (see tracer.py), and reports the
per-layer metrics of BENCHMARK.json, with the per-command CLI times of the
untraced half.  Spans are written to .perfbench_out/trace-WORKLOAD-SEED.npz.

Human-readable lines come first; the last line of stdout is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import hostspeed
from spawner import Spawner

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 9
STARTUP_REPEATS = 5


def child_env() -> dict[str, str]:
    """The environment of every child: the package comes from ./src."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


class Context:
    """What every workload needs: seed, paths, the package, references, the CLI spawner, the host clock."""

    def __init__(self, seed: int, hc, refs: dict, spawner=None) -> None:
        self.seed = seed
        self.root = ROOT
        self.out = OUT
        self.hc = hc
        self.refs = refs
        self.spawner = spawner
        self.child_spans: list[tuple[int, Path]] = []
        self.clock = hostspeed.HostClock()


def python_seconds(code: str) -> float:
    """Wall time of a fresh interpreter running ``code``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT, check=True)
    return time.perf_counter() - start


def run_ops(wl, seconds: float | None, rec=None, count: int | None = None):
    """Closed loop of ops until ``seconds`` have passed, or exactly ``count`` ops.

    Untraced, calibration samples (hostspeed.py) are taken by a timer in
    the middle of in-process ops, and by CLI children themselves; traced,
    in a block after every op, outside the spans.  The op times in the
    returned log are normalized to the reference host speed, and ``raw``
    holds the measured ones.
    """
    from reduce import OpLog, normalize

    clock = wl.ctx.clock
    ticking = wl.IN_PROCESS and rec is None
    walls, outcomes, prints = [], [], []
    start = time.perf_counter()
    i = 0
    with clock.ticking() if ticking else nullcontext():
        while (i < count) if count is not None else (time.perf_counter() - start < seconds):
            op_start = time.perf_counter()
            try:
                outcome = wl.op(i, rec)
            except Exception as exc:  # an op that raised is a failed op; the run goes on
                if not any(failures for _, failures in outcomes):
                    traceback.print_exc(file=sys.stderr)
                if rec is not None:
                    rec.unwind()
                outcomes.append((None, [f"raised-{type(exc).__name__}"]))
            else:
                outcomes.append((outcome.seconds, outcome.failures))
                prints += outcome.fingerprint
            walls.append((op_start, time.perf_counter()))
            if rec is not None:
                clock.block(walls[-1][1] - op_start)
            i += 1
    raw = [t for t, _ in outcomes]
    log = OpLog()
    normalized = normalize(raw, walls, clock.starts, clock.seconds, hostspeed.NOMINAL_S)
    for seconds_i, (_, failures) in zip(normalized, outcomes):
        log.record(seconds_i, failures)
    return log, prints, [t for t in raw if t is not None]


def summarize_fingerprints(prints) -> dict:
    """Per label: chosen orders, and per rung the fits made, their mean
    iterations, how many stopped at their start point, and how many did not converge."""
    out: dict[str, dict] = {}
    for label, ladder in prints:
        s = out.setdefault(
            label, {"n": 0, "chosen": {}, "fits": [], "iterations": [], "zero_iterations": [], "not_converged": []}
        )
        s["n"] += 1
        s["chosen"][ladder["chosen"]] = s["chosen"].get(ladder["chosen"], 0) + 1
        for rung, (its, ok) in enumerate(zip(ladder["iterations"], ladder["converged"])):
            if rung == len(s["iterations"]):
                for key in ("fits", "iterations", "zero_iterations", "not_converged"):
                    s[key].append(0)
            s["fits"][rung] += 1
            s["iterations"][rung] += its
            s["zero_iterations"][rung] += its == 0
            s["not_converged"][rung] += not ok
    for s in out.values():
        s["iterations"] = [round(t / f, 1) for t, f in zip(s["iterations"], s["fits"])]
    return out


def timed_run(wl, ctx: Context, seconds: float):
    from reduce import median, normalize, ratio, tail_percentile
    from workloads import CliSession

    raw_setup, walls = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        python_seconds("import hermite_counts")
        wl.setup()
        walls.append((start, time.perf_counter()))
        raw_setup.append(walls[-1][1] - start)
        ctx.clock.block(raw_setup[-1])
    setup = normalize(raw_setup, walls, ctx.clock.starts, ctx.clock.seconds, hostspeed.NOMINAL_S)

    log, prints, raw = run_ops(wl, seconds)
    if isinstance(wl, CliSession):
        peak_rss = wl.peak_rss_mb
    else:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tail = tail_percentile(log.seconds) if log.seconds else None
    metrics = {
        "setup_s": median(setup),
        "op_p50_s": median(log.seconds),
        "op_tail_s": tail.value if tail else 0.0,
        "ops_per_s": ratio(len(log.seconds), sum(log.seconds)),
        "success_rate": 1.0 - log.error_rate,
        "peak_rss_mb": peak_rss,
    }

    print(f"ops {log.attempted} failed {log.failed} error_rate {log.error_rate:.6f} op_time_s {sum(log.seconds):.3f}")
    if tail:
        print(f"op_tail_s is p{tail.percentile} of {len(log.seconds)} ops, {tail.beyond} beyond it")
    print(f"setup_s samples {[round(s, 4) for s in setup]} measured {[round(s, 4) for s in raw_setup]}")
    if raw:
        print(f"measured op_p50_s {median(raw):.6g} ops_per_s {ratio(len(raw), sum(raw)):.6g}; "
              f"normalized/measured op time {sum(log.seconds) / sum(raw):.4f}")
    for reason, n in sorted(log.reasons.items()):
        print(f"failure {reason}: {n}")
    for label, summary in summarize_fingerprints(prints).items():
        print(f"fingerprint {label}: {json.dumps(summary)}")
    return metrics, log.attempted, log.failed


def traced_run(wl, ctx: Context, seconds: float):
    import numpy as np

    import tracer
    from reduce import layer_metrics, median
    from workloads import CliSession

    wl.setup()
    untraced, _, _ = run_ops(wl, seconds / 2.0)
    # Per-command CLI times come from the untraced half; 0 where no CLI ran.
    times = wl.command_seconds if isinstance(wl, CliSession) else {c: [] for c in CliSession.COMMANDS}
    commands = {f"cli.{c}_s": median(t) for c, t in times.items()}
    rec = tracer.Recorder()
    tracer.install(rec)
    traced, _, _ = run_ops(wl, None, rec=rec, count=untraced.attempted)

    parts = [rec.arrays()]
    for span, path in ctx.child_spans:
        with np.load(path) as part:
            parts.append({**part, "attach": span})
    spans = tracer.merge(parts)
    np.savez(OUT / f"trace-{wl.name}-{ctx.seed}.npz", **spans)

    metrics = layer_metrics(spans, traced.attempted, sum(untraced.seconds), sum(traced.seconds))
    metrics.update(commands)
    metrics["cli.startup_s"] = median(
        [python_seconds("import hermite_counts.cli") for _ in range(STARTUP_REPEATS)]
    )
    print(f"traced ops {traced.attempted} spans {len(spans['starts'])} "
          f"untraced_s {sum(untraced.seconds):.3f} traced_s {sum(traced.seconds):.3f}")
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    return metrics, attempted, failed


def run_all(args, spec) -> int:
    """Every workload in its own process; a table of every metric, then a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            print(f"{name:15s} {metric:36s} {value['value']:>16.6g} {value['unit']}")
            combined["metrics"][f"{name}:{metric}"] = value
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (SRC / "hermite_counts" / "__init__.py").is_file():
        print(f"error: no hermite_counts package under {SRC}", file=sys.stderr)
        return 2
    # One vCPU for this process and every child it starts, so that the
    # calibration samples see the speed the children run at.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Started while this process is still small: see spawner.py.
    spawner = Spawner(child_env()) if args.workload == "cli-session" else None
    try:
        sys.path.insert(0, str(SRC))
        import hermite_counts

        if not Path(hermite_counts.__file__).resolve().is_relative_to(SRC):
            print(f"error: hermite_counts imported from {hermite_counts.__file__}, not {SRC}", file=sys.stderr)
            return 2

        from workloads import WORKLOADS, load_references

        OUT.mkdir(exist_ok=True)
        ctx = Context(args.seed, hermite_counts, load_references(ROOT), spawner)
        wl = WORKLOADS[args.workload](ctx)
        if args.trace:
            metrics, attempted, failed = traced_run(wl, ctx, args.seconds)
            wanted = spec["per_layer"]
        else:
            metrics, attempted, failed = timed_run(wl, ctx, args.seconds)
            wanted = spec["end_to_end"]
    finally:
        if spawner is not None:
            spawner.close()
    if set(metrics) != {m["name"] for m in wanted}:
        print(f"error: metrics {sorted(set(metrics) ^ {m['name'] for m in wanted})} "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 2
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
