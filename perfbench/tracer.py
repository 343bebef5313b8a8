"""In-memory span recorder wrapped around the package's layer boundaries.

``install`` replaces each function in SPANS by a recording wrapper at every
import site: the defining module, every package module that imported it by
name, and the package namespace.  Methods are replaced on their class.  A
span stores its name, its parent span, its start and end on the monotonic
clock (shared by all processes of the machine, so spans of a CLI child nest
under the benchmark's op span), and one work size.  Spans stay in memory
until ``save`` writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

#: The package modules, one layer each.
LAYERS = (
    "cli",
    "data",
    "model",
    "pmf",
    "estimation",
    "selection",
    "sampling",
    "transform",
    "reference",
)


#: (layer, attribute, work size taken from (args, kwargs, result)).
#: Per-draw helpers (sample_poisson, SplitMix64) are deliberately absent:
#: a span around each draw would cost more than the draw.
SPANS = (
    ("cli", "main", None),
    ("data", "CountHistogram.from_observations", lambda a, k, r: len(r.bins)),
    ("data", "CountHistogram.from_mapping", lambda a, k, r: len(r.bins)),
    ("model", "HermiteParams.__post_init__", None),
    ("pmf", "PmfTable.__post_init__", None),
    ("pmf", "pmf_table", lambda a, k, r: len(r)),
    ("pmf", "adaptive_pmf", lambda a, k, r: len(r)),
    ("pmf", "log_likelihood", None),
    ("pmf", "loglik_gradient", None),
    ("estimation", "fit_mle", lambda a, k, r: r.iterations + (0.0 if r.converged else 0.5)),
    ("selection", "select_order", None),
    ("sampling", "sample_hermite", lambda a, k, r: len(r)),
    ("sampling", "thin_sample", lambda a, k, r: len(r)),
    ("transform", "thin_pmf_oracle", lambda a, k, r: len(a[0] if a else k["table"])),
    ("reference", "run_verification", None),
)
# fit_mle's size is its iteration count plus 0.5 when it did not converge,
# so one number carries both.


class Recorder:
    """Spans of one process, in start order."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.sizes = array("d")
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self.sizes.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def unwind(self) -> None:
        """Close every open span, after an exception escaped an op."""
        now = time.perf_counter()
        while self._stack:
            self.ends[self._stack.pop()] = now

    def wrap(self, name: str, fn, size=None):
        nid = self.name_id(name)
        begin, ends, sizes, stack = self.begin, self.ends, self.sizes, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if size is not None:
                sizes[idx] = size(args, kwargs, result)
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names, dtype=str),
            "name_ids": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "parents": np.frombuffer(self.parents, dtype=np.int64).copy(),
            "starts": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "ends": np.frombuffer(self.ends, dtype=np.float64).copy(),
            "sizes": np.frombuffer(self.sizes, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


def install(rec: Recorder) -> None:
    """Wrap every SPANS entry at every import site in the package."""
    package = importlib.import_module("hermite_counts")
    modules = {layer: importlib.import_module(f"hermite_counts.{layer}") for layer in LAYERS}
    namespaces = [package, *modules.values()]
    for layer, attr, size in SPANS:
        name = f"{layer}.{attr}"
        owner = modules[layer]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(rec.wrap(name, raw.__func__, size)))
            else:
                setattr(cls, meth, rec.wrap(name, raw, size))
            continue
        original = getattr(owner, attr)
        wrapped = rec.wrap(name, original, size)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapped)


def merge(parts: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Concatenate span sets, re-indexing parents and unifying name tables.

    A part may carry ``attach``: the index, in the merged set, of the span
    its roots belong under (a CLI child's spans go under the op span that
    ran it); roots of other parts stay roots.
    """
    ids: dict[str, int] = {}
    cols: dict[str, list[np.ndarray]] = {k: [] for k in ("name_ids", "parents", "starts", "ends", "sizes")}
    offset = 0
    for part in parts:
        remap = np.array([ids.setdefault(n, len(ids)) for n in part["names"].tolist()], dtype=np.int32)
        parents = part["parents"].copy()
        roots = parents < 0
        parents[~roots] += offset
        parents[roots] = int(part.get("attach", -1))
        cols["name_ids"].append(remap[part["name_ids"]])
        cols["parents"].append(parents)
        for k in ("starts", "ends", "sizes"):
            cols[k].append(part[k])
        offset += len(part["starts"])
    out = {k: np.concatenate(v) for k, v in cols.items()}
    out["names"] = np.array(list(ids), dtype=str)
    return out
