"""Batch command line: fit, select, tabulate, sample, thin, convert, verify.

Reports go to stdout, diagnostics to stderr, nothing is written to disk.
Exit codes: 0 success, 1 failed verification, 2 unreadable/malformed input,
3 domain violation, 4 non-convergence (the fit document is still emitted),
141 stdout closed by its reader (as by ``| head``).

Model documents are flat JSON objects with fixed key order:

    {"order": 2, "a": [1.0, 0.5], "provenance": {...}}

A document may carry factorial cumulants under "kappa" instead of "a";
every subcommand accepts either and converts as needed.  Count data files
are auto-detected: either raw counts (one non-negative integer per line,
blank lines ignored) or a histogram CSV with header "count,freq".

The bulk paths hold a block at a time, so their memory does not grow with
the data: ``sample`` checks every input before it writes a byte, then
draws, thins and writes ``sampling._BLOCK`` values at a time, and count
files are read ``_READ_LINES`` lines at a time.

Each command imports the package modules it uses when it runs, so a
command line process loads only those.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter
from collections.abc import Iterator
from itertools import chain, islice
from pathlib import Path

from .data import CountHistogram
from .errors import DataError, HermiteError
from .model import (
    FactorialCumulants,
    HermiteParams,
    _summary_of,
    factorial_cumulants_to_params,
    params_to_factorial_cumulants,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_NONCONVERGENCE = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended

#: Count files are read this many lines at a time.
_READ_LINES = 1 << 12


class FileFormatError(Exception):
    """Input file could not be parsed (exit code 2)."""


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc


def _load_json_object(path: str) -> dict:
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal too long to parse
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: expected a JSON object")
    return doc


def _numeric_vector(doc: dict, key: str, path: str) -> list:
    vec = doc[key]
    if (
        not isinstance(vec, list)
        or not vec
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in vec)
    ):
        raise FileFormatError(f"{path}: '{key}' must be a non-empty numeric array")
    if "order" in doc and doc["order"] != len(vec):
        raise FileFormatError(f"{path}: 'order' does not match the length of '{key}'")
    return vec


def _read_model_file(path: str) -> HermiteParams | FactorialCumulants:
    doc = _load_json_object(path)
    has_a, has_kappa = "a" in doc, "kappa" in doc
    if has_a == has_kappa:
        raise FileFormatError(f"{path}: need exactly one of 'a' or 'kappa'")
    if has_a:
        return HermiteParams(_numeric_vector(doc, "a", path))
    return FactorialCumulants(_numeric_vector(doc, "kappa", path))


def _as_params(model: HermiteParams | FactorialCumulants) -> HermiteParams:
    return model if isinstance(model, HermiteParams) else factorial_cumulants_to_params(model)


def _params_from_model_file(path: str) -> HermiteParams:
    return _as_params(_read_model_file(path))


def _nonblank_lines(path: str) -> Iterator[list[str]]:
    """The file's lines, stripped, blank ones left out, in lists made from at
    most ``_READ_LINES`` lines of the file at a time.

    Lines break exactly where str.splitlines breaks the whole text: the file
    breaks only at newlines, so each piece is split again.
    """
    try:
        with open(path) as f:
            while chunk := list(islice(f, _READ_LINES)):
                yield list(filter(None, map(str.strip, "".join(chunk).splitlines())))
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError:
        # The decoder counts bytes from its last read; decoding the whole file
        # reports the bad byte's offset in the file.
        _read_text(path)
        raise


def _read_count_data(path: str) -> CountHistogram:
    chunks = _nonblank_lines(path)
    first = next(filter(None, chunks), None)
    if first is None:
        raise FileFormatError(f"{path} contains no data")
    if first[0].replace(" ", "").lower() == "count,freq":
        bins: Counter[int] = Counter()
        for lines in chain([first[1:]], chunks):
            for ln in lines:
                try:
                    count, freq = map(int, ln.split(","))
                except ValueError as exc:
                    raise FileFormatError(f"{path}: malformed histogram row {ln!r}") from exc
                if freq < 0:
                    raise DataError(f"{path}: negative frequency in histogram row {ln!r}")
                if freq:
                    bins[count] += freq
        if not bins:
            raise FileFormatError(f"{path}: histogram has no observations")
        return CountHistogram.from_mapping(bins)
    counts: Counter[int] = Counter()
    for lines in chain([first], chunks):
        try:
            counts.update(list(map(int, lines)))
        except ValueError:
            for ln in lines:
                try:
                    int(ln)
                except ValueError as exc:
                    raise FileFormatError(f"{path}: expected one integer per line, got {ln!r}") from exc
    return CountHistogram.from_mapping(counts)


def _provenance(args: argparse.Namespace, source: str) -> dict:
    return {"source": source, "command_line": " ".join(args.raw_argv)}


def _model_doc(params: HermiteParams, provenance: dict) -> dict:
    return {"order": params.order, "a": list(params.a), "provenance": provenance}


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _finite_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None


def _fit_fields(res: FitResult) -> dict:
    return {
        "loglik": _finite_or_none(res.loglik),
        "converged": res.converged,
        "iterations": res.iterations,
        "grad_norm": res.grad_norm,
        "init": list(res.init.a),
    }


def cmd_pmf(args: argparse.Namespace) -> int:
    from .pmf import adaptive_pmf, pmf_table

    params = _params_from_model_file(args.model)
    if args.k_max is not None:
        table = pmf_table(params, args.k_max)
    else:
        table = adaptive_pmf(params, args.eps)
    print("k,p")
    for k, pk in enumerate(table.entries):
        print(f"{k},{pk!r}")
    print(f"tail_mass,{table.tail_mass!r}")
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    from .estimation import fit_mle, fit_moments
    from .pmf import log_likelihood

    hist = _read_count_data(args.data)
    provenance = _provenance(args, args.data)
    if args.method == "moments":
        params = fit_moments(hist, args.order)
        doc = _model_doc(params, provenance)
        doc["method"] = "moments"
        doc["loglik"] = _finite_or_none(log_likelihood(params, hist))
        _emit(doc)
        return EXIT_OK
    res = fit_mle(hist, args.order)
    doc = _model_doc(res.params, provenance)
    doc["method"] = "mle"
    doc.update(_fit_fields(res))
    _emit(doc)
    return EXIT_OK if res.converged else EXIT_NONCONVERGENCE


def cmd_select(args: argparse.Namespace) -> int:
    from .selection import select_order

    hist = _read_count_data(args.data)
    trace = select_order(hist, args.r_max, args.alpha)
    doc = {
        "alpha": trace.alpha,
        "r_max": trace.r_max,
        "chosen_order": trace.chosen_order,
        "fits": [
            {"order": fit.params.order, "a": list(fit.params.a), **_fit_fields(fit)}
            for fit in trace.fits
        ],
        "steps": [
            {
                "order": step.alt_order,
                "statistic": step.statistic,
                "p_value": step.p_value,
                "rejected": step.rejected,
            }
            for step in trace.steps
        ],
    }
    _emit(doc)
    return EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    from .sampling import _hermite_blocks, _thin_blocks, derive_seed

    params = _params_from_model_file(args.model)
    blocks = _hermite_blocks(params, args.n, args.seed)
    if args.thin is not None:
        blocks = _thin_blocks(blocks, args.thin, derive_seed(args.seed, 1))
    for block in blocks:
        # int64 arrays, or lists once thinned
        values = block if isinstance(block, list) else block.tolist()
        sys.stdout.write(("%d\n" * len(values)) % tuple(values))
    return EXIT_OK


def cmd_thin(args: argparse.Namespace) -> int:
    from .transform import thin_params

    params = _params_from_model_file(args.model)
    thinned = thin_params(params, args.p)
    _emit(_model_doc(thinned, _provenance(args, args.model)))
    return EXIT_OK


def cmd_convert(args: argparse.Namespace) -> int:
    model = _read_model_file(args.model)
    provenance = _provenance(args, args.model)
    if args.to == "cumulants":
        kappa = params_to_factorial_cumulants(model) if isinstance(model, HermiteParams) else model
        _emit({"order": kappa.order, "kappa": list(kappa.kappa), "provenance": provenance})
        return EXIT_OK
    params = _as_params(model)
    if args.to == "params":
        _emit(_model_doc(params, provenance))
        return EXIT_OK
    summary, eta = _summary_of(params)
    _emit(
        {
            "mean": summary.mean,
            "variance": summary.variance,
            "kappa3": summary.kappa3,
            "kappa4": summary.kappa4,
            "eta": list(eta.eta),
            "provenance": provenance,
        }
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .reference import run_verification

    checks = run_verification()
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        suffix = f" ({check.detail})" if check.detail else ""
        print(f"{status} {check.name}{suffix}")
    return EXIT_OK if all(c.passed for c in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermite-counts",
        description="rth-order Hermite count distributions: pmf, fitting, selection, sampling, thinning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pmf", help="tabulate probabilities of a model")
    p.add_argument("model", help="model document (JSON)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k-max", type=int, help="largest count to tabulate")
    group.add_argument("--eps", type=float, help="grow the table until tail mass < eps")
    p.set_defaults(handler=cmd_pmf)

    p = sub.add_parser("fit", help="fit a model to count data")
    p.add_argument("data", help="counts file or histogram CSV")
    p.add_argument("--order", type=int, required=True, help="model order r")
    p.add_argument("--method", choices=("mle", "moments"), default="mle")
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("select", help="choose the model order by nested likelihood-ratio tests")
    p.add_argument("data", help="counts file or histogram CSV")
    p.add_argument("--r-max", type=int, required=True, help="largest order to consider")
    p.add_argument("--alpha", type=float, default=0.05, help="test significance level")
    p.set_defaults(handler=cmd_select)

    p = sub.add_parser("sample", help="draw reproducible random counts from a model")
    p.add_argument("model", help="model document (JSON)")
    p.add_argument("--n", type=int, required=True, help="number of draws")
    p.add_argument("--seed", type=int, required=True, help="64-bit seed")
    p.add_argument("--thin", type=float, help="binomially subsample each draw with this fraction")
    p.set_defaults(handler=cmd_sample)

    p = sub.add_parser("thin", help="binomially subsample a model in parameter space")
    p.add_argument("model", help="model document (JSON)")
    p.add_argument("--p", type=float, required=True, help="thinning fraction in (0, 1]")
    p.set_defaults(handler=cmd_thin)

    p = sub.add_parser("convert", help="convert between parameterizations")
    p.add_argument("model", help="model document (JSON)")
    p.add_argument("--to", choices=("cumulants", "params", "summary"), required=True)
    p.set_defaults(handler=cmd_convert)

    p = sub.add_parser("verify", help="run the reference-law identity suite")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.raw_argv = argv
    try:
        code = args.handler(args)
        sys.stdout.flush()  # here, so that a closed pipe is caught below
        return code
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except HermiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BrokenPipeError:
        # The reader of stdout has gone.  Point stdout at devnull so that the
        # flush at interpreter exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


def entry() -> None:
    sys.exit(main())
