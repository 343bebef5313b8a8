"""A derandomized sweep of every subcommand over generated inputs.

Model documents mix ordinary coefficients with zeros, subnormals, values
near the double limits, integers too large for a double, negatives and
non-finite literals; count files mix raw counts, histogram CSV rows and
garbled lines.  Whatever the input, ``main`` must return an exit code from
the README table, raise nothing, and print no non-finite number.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from hermite_counts.cli import main

#: README's exit codes, less 1, which only ``verify`` returns.
EXIT_CODES = {0, 2, 3, 4}

SWEEP = settings(max_examples=60)

EXTREMES = [0.0, 5e-324, 1e-310, 1e-200, 1e200, 1e300, 1.7e308, 10**400, -1.0, float("inf"), float("nan")]
values = st.one_of(st.floats(0.0, 20.0), st.integers(0, 5), st.sampled_from(EXTREMES))
counts = st.integers(0, 1000)


@st.composite
def model_texts(draw) -> str:
    vec = draw(st.lists(values, max_size=4))
    keys = draw(st.sampled_from([("a",), ("a",), ("kappa",), ("a", "kappa"), ()]))
    doc = {key: vec for key in keys}
    if draw(st.booleans()):
        doc["order"] = len(vec) + draw(st.sampled_from([0, 0, 1]))
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["[1.0]", "{", '"a"', '{"a": ["x"]}', '{"a": [true]}', '{"a": 2}']))
    return json.dumps(doc)


@st.composite
def count_texts(draw) -> str:
    if draw(st.booleans()):
        lines = draw(st.lists(st.one_of(counts.map(str), st.sampled_from(["", "x", "-1", "1.5"])), max_size=30))
        return "\n".join(lines)
    row = st.tuples(counts, st.integers(-2, 30)).map(lambda r: f"{r[0]},{r[1]}")
    rows = draw(st.lists(st.one_of(row, st.sampled_from(["1", "1,2,3", "a,b", "5, 2", str(10**400)])), max_size=15))
    return "\n".join(["count,freq", *rows])


def model_commands():
    return st.one_of(
        st.tuples(st.just("pmf"), st.just("--k-max"), st.sampled_from(["0", "12"])),
        st.tuples(st.just("pmf"), st.just("--eps"), st.sampled_from(["1e-9", "1e-300"])),
        st.tuples(st.just("sample"), st.just("--n"), st.sampled_from(["1", "40"]), st.just("--seed"), st.just("7"))
        .flatmap(lambda t: st.sampled_from([t, t + ("--thin", "0.4")])),
        st.tuples(st.just("thin"), st.just("--p"), st.sampled_from(["1", "0.3", "1e-300"])),
        st.tuples(st.just("convert"), st.just("--to"), st.sampled_from(["params", "cumulants", "summary"])),
    )


def data_commands():
    return st.one_of(
        st.tuples(st.just("fit"), st.just("--order"), st.sampled_from(["1", "2"]))
        .flatmap(lambda t: st.sampled_from([t, t + ("--method", "moments")])),
        st.tuples(st.just("select"), st.just("--r-max"), st.sampled_from(["1", "2"])),
    )


def run_cli(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


def reject_constant(literal: str):
    raise AssertionError(f"non-finite number {literal} on stdout")


def check(code: int, out: str) -> None:
    assert code in EXIT_CODES
    if out.startswith("{"):
        json.loads(out, parse_constant=reject_constant)
        return
    for field in out.replace("\n", ",").split(","):  # pmf and sample rows
        try:
            assert math.isfinite(float(field))
        except ValueError:
            continue


@SWEEP
@given(text=model_texts(), command=model_commands())
def test_model_commands(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(text)
        name, *options = command
        check(*run_cli([name, str(path), *options]))


@SWEEP
@given(text=count_texts(), command=data_commands())
def test_data_commands(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counts.txt"
        path.write_text(text)
        name, *options = command
        check(*run_cli([name, str(path), *options]))
