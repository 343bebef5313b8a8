"""Start-up: each command loads only the modules it uses.

Each check runs in a fresh interpreter with ``PYTHONPATH=src``.  Importing
the package loads none of its modules, and each command loads exactly the
package modules pinned below.  numpy is imported only inside the functions
that use it: importing the package and the CLI, running ``fit`` (both
methods), ``select``, ``convert``, ``thin``, ``pmf`` (both modes) and
``verify``, and counting observations into a histogram must leave it
unloaded.  ``sample`` (both regimes and with ``--thin``) uses it; it and
the ``pmf`` and ``verify`` commands, run first in a fresh interpreter, must
print exactly the stdout pinned below.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Imports the package, then the CLI, then runs each command line of the JSON
#: list in argv[1] in turn; prints a JSON list with one entry per step: its
#: name, its exit code and whether numpy is loaded after it.
NUMPY_FREE_SESSION = """
import contextlib, io, json, sys
steps = []
import hermite_counts
steps.append(["import hermite_counts", 0, "numpy" in sys.modules])
from hermite_counts import cli
steps.append(["import hermite_counts.cli", 0, "numpy" in sys.modules])
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    steps.append([" ".join(argv[:1] + argv[2:]), code, "numpy" in sys.modules])
print(json.dumps(steps))
"""

#: SHA-256 of the stdout of each command run first in a fresh interpreter.
FIRST_CALL_STDOUT = {
    "pmf": ("inversion", ["--eps", "1e-12"], "d240c809f1f668200e3969884b763a7ba26ee63d5bc3cce8e3b314a427618777"),
    "sample": (
        "inversion",
        ["--n", "3000", "--seed", "11"],
        "f7887275925c58f395d953509231ad8516ced383cff627da8475a91fb38aa37e",
    ),
    "sample-rejection": (
        "rejection",
        ["--n", "3000", "--seed", "11"],
        "0c9a70c7a7304fb9be2f71f27802b4a47a96eb5c194702d24b5fdb5f7b535d0f",
    ),
    "sample-thin": (
        "rejection",
        ["--n", "3000", "--seed", "11", "--thin", "0.5"],
        "772998da88b3e62ae01fd9aa6c0cad68339e17b213f462582e934e558c4f732e",
    ),
    "verify": (None, [], "03bc8954e8b03464fb212fa17ca7ad93bb20d0a6ea05b7c3ca656f9245223c25"),
}

#: a = (1, 0.5, 0.25) draws by cdf inversion; a = (40, 10) has a rate above 30.
MODELS = {"inversion": [1.0, 0.5, 0.25], "rejection": [40.0, 10.0]}


def fresh_python(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, check=False)


def write_models(tmp_path):
    paths = {}
    for name, a in MODELS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({"order": len(a), "a": a}))
    return paths


def test_numpy_free_commands_never_load_numpy(tmp_path):
    counts = tmp_path / "counts.txt"
    counts.write_text("\n".join(map(str, [0, 1, 2, 0, 3, 1, 4, 2, 0, 6] * 5)) + "\n")
    model = str(write_models(tmp_path)["inversion"])
    argvs = [
        ["fit", str(counts), "--order", "2"],
        ["fit", str(counts), "--order", "2", "--method", "moments"],
        ["select", str(counts), "--r-max", "3"],
        ["convert", model, "--to", "cumulants"],
        ["convert", model, "--to", "params"],
        ["convert", model, "--to", "summary"],
        ["thin", model, "--p", "0.5"],
        ["pmf", model, "--eps", "1e-12"],
        ["pmf", model, "--k-max", "40"],
        ["verify"],
    ]
    proc = fresh_python("-c", NUMPY_FREE_SESSION, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr.decode()
    steps = json.loads(proc.stdout)
    assert len(steps) == 2 + len(argvs)
    assert [step for step in steps if step[1] != 0 or step[2]] == []


#: Counts 10**4 ints in 0..255 (the byte path) and a list with a count above
#: 255 (Counter) with from_observations; prints both histograms' bins and
#: whether numpy is loaded after them.
HISTOGRAM_SESSION = """
import json, sys
from hermite_counts import CountHistogram
small = CountHistogram.from_observations([k * k % 7 for k in range(10_000)])
wide = CountHistogram.from_observations([3, 300, 1, 3] * 100)
print(json.dumps([small.bins, wide.bins, "numpy" in sys.modules]))
"""


def test_histograms_from_observations_never_load_numpy():
    proc = fresh_python("-c", HISTOGRAM_SESSION)
    assert proc.returncode == 0, proc.stderr.decode()
    small = [[0, 1429], [1, 2857], [2, 2857], [4, 2857]]
    assert json.loads(proc.stdout) == [small, [[1, 100], [3, 200], [300, 100]], False]


@pytest.mark.parametrize("case", sorted(FIRST_CALL_STDOUT))
def test_commands_called_first_print_the_pinned_stdout(tmp_path, case):
    model, options, digest = FIRST_CALL_STDOUT[case]
    command = case.split("-")[0]
    argv = [command] + ([str(write_models(tmp_path)[model])] if model else []) + options
    proc = fresh_python("-m", "hermite_counts", *argv)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


#: Imports the package, then runs the command line in argv[1:], if any, with
#: its stdout discarded; prints its exit code and the sorted names of the
#: package's modules then loaded, without the "hermite_counts." prefix.
MODULES_SESSION = """
import contextlib, io, json, sys
import hermite_counts
code = 0
if sys.argv[1:]:
    from hermite_counts import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m[15:] for m in sys.modules if m.startswith("hermite_counts."))]))
"""

#: The command line of each case ("{inversion}", "{rejection}" and "{counts}"
#: stand for its input files) and the package modules loaded once it has run.
MODULES_LOADED = {
    "import hermite_counts": ("", ""),
    "sample": ("sample {inversion} --n 100 --seed 1", "cli data errors model sampling"),
    "sample-rejection": ("sample {rejection} --n 100 --seed 1", "cli data errors model sampling"),
    "sample-thin": ("sample {rejection} --n 100 --seed 1 --thin 0.5", "cli data errors model sampling"),
    "fit": ("fit {counts} --order 2", "cli data errors estimation model pmf"),
    "fit-moments": ("fit {counts} --order 2 --method moments", "cli data errors estimation model pmf"),
    "select": ("select {counts} --r-max 3", "cli data errors estimation model pmf selection"),
    "pmf": ("pmf {inversion} --eps 1e-12", "cli data errors model pmf"),
    "pmf-k-max": ("pmf {inversion} --k-max 40", "cli data errors model pmf"),
    "convert": ("convert {inversion} --to summary", "cli data errors model"),
    "thin": ("thin {inversion} --p 0.5", "cli data errors model transform"),
    "verify": ("verify", "cli data errors model pmf reference transform"),
}


@pytest.mark.parametrize("case", sorted(MODULES_LOADED))
def test_each_command_loads_only_its_modules(tmp_path, case):
    command_line, modules = MODULES_LOADED[case]
    counts = tmp_path / "counts.txt"
    counts.write_text("\n".join(map(str, [0, 1, 2, 0, 3, 1, 4, 2, 0, 6] * 5)) + "\n")
    files = {name: str(path) for name, path in write_models(tmp_path).items()}
    argv = [arg.format(counts=counts, **files) for arg in command_line.split()]
    proc = fresh_python("-c", MODULES_SESSION, *argv)
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout) == [0, modules.split()]
