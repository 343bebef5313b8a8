"""The CLI transcript: every command, option and exit code, replayed byte for byte.

``tests/transcript.json`` holds about 70 invocations of ``cli.main``.  Each
entry has the argv, the text of every input file it reads, an optional
patch (how exit codes 1 and 4 are reached), and what the run gave: the exit
code, the SHA-256 of stdout and stderr verbatim.  The test replays each
entry in process, in a fresh directory that holds its files, and compares.
A second test counts the cases per option, choice and exit code, prints the
table, and fails when one has none.

The digests rest on the libm of the host that wrote them: fitted
coefficients and pmf entries are printed to the last bit, so a libm that
rounds exp or log differently moves them, as it moves the golden digests
of the other tests.  After a deliberate change of output, rewrite the
table with

    PYTHONPATH=src python tests/test_transcript.py --update

and list every entry that changed, with the reason, in CHANGES.md.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from hermite_counts import reference
from hermite_counts.cli import build_parser, main

TRANSCRIPT = Path(__file__).with_name("transcript.json")

#: The histogram 0 1 2 3 1: largest count 3.
SMALL = "0\n1\n2\n3\n1\n"


def _unconverged(monkeypatch):
    import dataclasses

    import hermite_counts.estimation as estimation

    fit_mle = estimation.fit_mle

    def unconverged_fit(hist, r, **kwargs):
        return dataclasses.replace(fit_mle(hist, r, **kwargs), converged=False)

    monkeypatch.setattr(estimation, "fit_mle", unconverged_fit)


def _failing_identity(monkeypatch):
    values = reference.alternating_geometric_pgf_values
    monkeypatch.setattr(reference, "alternating_geometric_pgf_values", lambda p, t: (0.5, 1.0) if t == 1.0 else values(p, t))


#: Named patches a case may apply while it runs.
PATCHES = {"unconverged": _unconverged, "failing_identity": _failing_identity}


def run_case(case: dict, directory: Path) -> dict:
    """Run one case in ``directory`` and return what the transcript records."""
    for name, text in case["files"].items():
        (directory / name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(directory)
        mp.setenv("COLUMNS", "80")  # argparse wraps its usage lines to the terminal
        if case["patch"]:
            PATCHES[case["patch"]](mp)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(case["argv"])
            except SystemExit as exc:  # argparse's refusals
                code = exc.code
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(), "stderr": err.getvalue()}


def load_cases() -> list[dict]:
    # A missing table replays nothing, and the coverage test then fails.
    return json.loads(TRANSCRIPT.read_text())["cases"] if TRANSCRIPT.exists() else []


@pytest.mark.parametrize("case", load_cases(), ids=lambda case: case["name"])
def test_replay(case, tmp_path):
    expected = {key: case[key] for key in ("exit", "stdout_sha256", "stderr")}
    assert run_case(case, tmp_path) == expected, " ".join(case["argv"])


def coverage(cases: list[dict]) -> Counter:
    """Cases per subcommand option and choice ("fit --order", "fit --method=moments") and per exit code."""
    counts = Counter(f"exit {case['exit']}" for case in cases)
    for case in cases:
        command, *rest = case["argv"] or [""]
        for i, token in enumerate(rest):
            if token.startswith("--"):
                counts[f"{command} {token}"] += 1
                if token in ("--method", "--to") and i + 1 < len(rest):
                    counts[f"{command} {token}={rest[i + 1]}"] += 1
        counts[command] += 1
    return counts


def required_keys() -> list[str]:
    """Every subcommand, option and choice of the parser, and exit codes 0-4."""
    keys = [f"exit {code}" for code in range(5)]
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, parser in sub.choices.items():
        keys.append(command)
        for action in parser._actions:
            for option in action.option_strings:
                if option.startswith("--") and option != "--help":
                    keys.append(f"{command} {option}")
                    keys += [f"{command} {option}={choice}" for choice in action.choices or ()]
    return keys


def test_every_option_and_exit_code_has_a_case():
    counts = coverage(load_cases())
    print("\n".join(f"{counts[key]:3d}  {key}" for key in required_keys()))
    assert [key for key in required_keys() if not counts[key]] == []


# --- building the table ---------------------------------------------------


def _model(**doc) -> str:
    return json.dumps(doc)


def _histogram_csv(a, n, seed) -> str:
    from hermite_counts import CountHistogram, HermiteParams, sample_hermite

    hist = CountHistogram.from_observations(sample_hermite(HermiteParams(a), n, seed).values)
    return "count,freq\n" + "".join(f"{c},{f}\n" for c, f in hist.bins)


def build_cases() -> list[dict]:
    """The invocations of the table, with their input files."""
    m1, m2, m3 = _model(order=1, a=[2.0]), _model(order=2, a=[1.0, 0.5]), _model(order=3, a=[1.0, 0.5, 0.25])
    kappa = _model(order=2, kappa=[2.0, 1.0])
    data2 = _histogram_csv((1.0, 0.6), 300, 11)
    data3 = _histogram_csv((0.4, 0.3, 0.5), 250, 12)
    narrow = _histogram_csv((0.9, 0.2), 60, 13)
    cases = []

    def case(name, *argv, files=None, patch=None):
        cases.append({"name": name, "argv": list(argv), "files": files or {}, "patch": patch})

    case("pmf-poisson", "pmf", "m.json", "--k-max", "5", files={"m.json": m1})
    case("pmf-order2", "pmf", "m.json", "--k-max", "12", files={"m.json": m2})
    case("pmf-order3-eps", "pmf", "m.json", "--eps", "1e-9", files={"m.json": m3})
    case("pmf-kappa", "pmf", "k.json", "--k-max", "6", files={"k.json": kappa})
    case("pmf-shifted-eps", "pmf", "m.json", "--eps", "1e-12", files={"m.json": _model(a=[750.0])})
    case("pmf-k-max-0", "pmf", "m.json", "--k-max", "0", files={"m.json": m2})
    case("pmf-negative", "pmf", "m.json", "--k-max", "3", files={"m.json": _model(a=[-1.0])})
    case("pmf-overflow", "pmf", "m.json", "--k-max", "3", files={"m.json": _model(a=[1e300])})
    case("pmf-tiny-eps", "pmf", "m.json", "--eps", "1e-300", files={"m.json": m1})
    floor = _model(a=[915.6998783803818, 0.8973765121148648])
    case("pmf-eps-below-floor", "pmf", "m.json", "--eps", "6.37e-15", files={"m.json": floor})
    case("pmf-negative-k-max", "pmf", "m.json", "--k-max", "-1", files={"m.json": m1})
    case("pmf-bad-json", "pmf", "m.json", "--k-max", "3", files={"m.json": "{"})
    case("pmf-order-mismatch", "pmf", "m.json", "--k-max", "3", files={"m.json": _model(order=3, a=[1.0])})
    case("pmf-both-keys", "pmf", "m.json", "--k-max", "3", files={"m.json": _model(a=[1.0], kappa=[1.0])})
    case("pmf-missing-file", "pmf", "absent.json", "--k-max", "3")
    case("pmf-no-size", "pmf", "m.json", files={"m.json": m1})
    case("pmf-two-sizes", "pmf", "m.json", "--k-max", "3", "--eps", "0.1", files={"m.json": m1})

    case("fit-small-1", "fit", "d.txt", "--order", "1", files={"d.txt": SMALL})
    case("fit-small-2", "fit", "d.txt", "--order", "2", files={"d.txt": SMALL})
    case("fit-small-3", "fit", "d.txt", "--order", "3", files={"d.txt": SMALL})
    for order in (4, 11, 60, 200, 1000):  # above the largest count, 3
        case(f"fit-small-{order}", "fit", "d.txt", "--order", str(order), files={"d.txt": SMALL})
    case("fit-order2-data", "fit", "d.csv", "--order", "2", "--method", "mle", files={"d.csv": data2})
    case("fit-order3-data", "fit", "d.csv", "--order", "3", files={"d.csv": data3})
    case("fit-order4-data", "fit", "d.csv", "--order", "4", files={"d.csv": data3})
    narrow_max = max(int(row.split(",")[0]) for row in narrow.splitlines()[1:])
    for order in (narrow_max, narrow_max + 1, narrow_max + 8):
        case(f"fit-narrow-{order}", "fit", "d.csv", "--order", str(order), files={"d.csv": narrow})
    case("fit-moments-2", "fit", "d.csv", "--order", "2", "--method", "moments", files={"d.csv": data2})
    case("fit-moments-3", "fit", "d.csv", "--order", "3", "--method", "moments", files={"d.csv": data3})
    case("fit-moments-above-170", "fit", "d.txt", "--order", "171", "--method", "moments", files={"d.txt": SMALL})
    case("fit-all-zero", "fit", "d.txt", "--order", "1", files={"d.txt": "0\n0\n0\n"})
    case("fit-empty", "fit", "d.txt", "--order", "1", files={"d.txt": "\n\n"})
    case("fit-garbled", "fit", "d.txt", "--order", "1", files={"d.txt": "1\ntwo\n3\n"})
    case("fit-negative-freq", "fit", "d.csv", "--order", "1", files={"d.csv": "count,freq\n1,2\n2,-1\n"})
    case("fit-malformed-row", "fit", "d.csv", "--order", "1", files={"d.csv": "count,freq\n1,2,3\n"})
    case("fit-order-0", "fit", "d.txt", "--order", "0", files={"d.txt": SMALL})
    case("fit-unconverged", "fit", "d.txt", "--order", "2", files={"d.txt": SMALL}, patch="unconverged")
    case("fit-bad-method", "fit", "d.txt", "--order", "2", "--method", "newton", files={"d.txt": SMALL})
    case("fit-help", "fit", "--help")

    case("select-order2-data", "select", "d.csv", "--r-max", "3", files={"d.csv": data2})
    case("select-order3-data", "select", "d.csv", "--r-max", "4", "--alpha", "0.01", files={"d.csv": data3})
    case("select-small", "select", "d.txt", "--r-max", "5", "--alpha", "0.5", files={"d.txt": SMALL})
    case("select-alpha-0", "select", "d.csv", "--r-max", "2", "--alpha", "0", files={"d.csv": data2})
    case("select-r-max-0", "select", "d.csv", "--r-max", "0", files={"d.csv": data2})

    case("sample-inversion", "sample", "m.json", "--n", "40", "--seed", "1", files={"m.json": m3})
    case("sample-inversion-thin", "sample", "m.json", "--n", "40", "--seed", "2", "--thin", "0.5", files={"m.json": m2})
    case("sample-rejection", "sample", "m.json", "--n", "40", "--seed", "3", files={"m.json": _model(a=[40.0, 10.0])})
    case("sample-rejection-thin", "sample", "m.json", "--n", "40", "--seed", "4", "--thin", "0.3", files={"m.json": _model(a=[40.0, 10.0])})
    case("sample-kappa", "sample", "k.json", "--n", "20", "--seed", "5", files={"k.json": kappa})
    case("sample-n-0", "sample", "m.json", "--n", "0", "--seed", "1", files={"m.json": m1})
    case("sample-bad-thin", "sample", "m.json", "--n", "5", "--seed", "1", "--thin", "1.5", files={"m.json": m1})
    case("sample-negative-seed", "sample", "m.json", "--n", "5", "--seed", "-1", files={"m.json": m1})
    case("sample-rate-cap", "sample", "m.json", "--n", "5", "--seed", "1", files={"m.json": _model(a=[2e6])})

    case("thin-half", "thin", "m.json", "--p", "0.5", files={"m.json": m2})
    case("thin-kappa", "thin", "k.json", "--p", "0.25", files={"k.json": kappa})
    case("thin-one", "thin", "m.json", "--p", "1", files={"m.json": m3})
    case("thin-zero", "thin", "m.json", "--p", "0", files={"m.json": m2})

    case("convert-to-cumulants", "convert", "m.json", "--to", "cumulants", files={"m.json": m3})
    case("convert-to-params", "convert", "k.json", "--to", "params", files={"k.json": kappa})
    case("convert-to-summary", "convert", "m.json", "--to", "summary", files={"m.json": m3})
    case("convert-kappa-identity", "convert", "k.json", "--to", "cumulants", files={"k.json": kappa})
    case("convert-inadmissible", "convert", "k.json", "--to", "params", files={"k.json": _model(kappa=[1.0, -2.0])})
    case("convert-bad-target", "convert", "m.json", "--to", "moments", files={"m.json": m2})

    case("verify", "verify")
    case("verify-failing", "verify", patch="failing_identity")
    case("no-command")
    case("unknown-flag", "fit", "d.txt", "--order", "1", "--bogus", files={"d.txt": SMALL})
    return cases


def update() -> None:
    import tempfile

    cases = []
    for case in build_cases():
        with tempfile.TemporaryDirectory() as directory:
            cases.append({**case, **run_case(case, Path(directory))})
    TRANSCRIPT.write_text(json.dumps({"cases": cases}, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {TRANSCRIPT.name}")
    counts = coverage(cases)
    print("\n".join(f"{counts[key]:3d}  {key}" for key in required_keys()))


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        raise SystemExit("usage: python tests/test_transcript.py --update")
    update()
