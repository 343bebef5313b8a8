"""Write perfbench/references.json: the outputs of the current code on the default seeds.

    python3 perfbench/make_references.py

Run from the repository root at the commit whose outputs become the
reference.  For DEFAULT_SEEDS it stores the SHA-256 of every sample stream
the workloads draw (mc-calibration: the first MC_REPS replicates) and the
fitted log-likelihood of every order up to each workload's r_max, keyed by
the digest of the histogram fitted.  Runs on other seeds check against
independent oracles instead (see oracle.py).
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hermite_counts as hc  # noqa: E402

import oracle  # noqa: E402
from run import OUT, Context  # noqa: E402
from workloads import CliSession, McCalibration, SelectWide, hist_digest  # noqa: E402

DEFAULT_SEEDS = range(10)
MC_REPS = 32


def fitted_logliks(hist, r_max):
    return [hc.fit_mle(hist, r).loglik for r in range(1, r_max + 1)]


def main() -> None:
    refs = {"stream": {}, "loglik": {}}
    OUT.mkdir(exist_ok=True)
    empty = {"stream": {}, "loglik": {}}

    wl = SelectWide(Context(0, hc, empty))
    wl.setup()
    for _, hist, _ in wl.pool:
        refs["loglik"][hist_digest(hist.bins)] = fitted_logliks(hist, wl.R_MAX)

    for seed in DEFAULT_SEEDS:
        mc = McCalibration(Context(seed, hc, empty))
        for rep in range(MC_REPS):
            a = (mc.NULL, mc.ALT)[rep % 2]
            batch = hc.sample_hermite(hc.HermiteParams(a), mc.N_DRAWS, mc.base + rep)
            refs["stream"][f"{a}:{mc.N_DRAWS}:{mc.base + rep}"] = oracle.stream_digest(batch.values)
            hist = hc.CountHistogram.from_observations(batch.values)
            refs["loglik"][hist_digest(hist.bins)] = fitted_logliks(hist, mc.R_MAX)

        cli = CliSession(Context(seed, hc, empty))
        cli.setup()
        for command in ("sample", "sample_thin"):
            seed_used = cli.inv_seed if command == "sample" else cli.rej_seed
            refs["stream"][f"cli-{command}:{seed_used}"] = cli.expected_stream(command)
        fit_hist = hc.CountHistogram(tuple(cli.fit_bins))
        refs["loglik"][hist_digest(fit_hist.bins)] = fitted_logliks(fit_hist, 2)
        select_hist = hc.CountHistogram(tuple(cli.select_bins))
        refs["loglik"][hist_digest(select_hist.bins)] = fitted_logliks(select_hist, 3)
        print(f"seed {seed} done", flush=True)

    path = ROOT / "perfbench" / "references.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}: {len(refs['stream'])} streams, {len(refs['loglik'])} histograms")


if __name__ == "__main__":
    main()
