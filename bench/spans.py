"""Traced runs: spans around every public function of each pinchgt layer.

The wrappers are installed from outside by rebinding module and class
attributes, so nothing under ``src/`` changes; ``uninstall`` puts every
original object back. Spans (name, start, end, parent, op) stay in memory
and are written out once, when the run ends.

Count attributes (``n3`` = dim**3, computed ``bytes``, content keys) are
taken after the wrapped call returns, outside the span's own interval.
"""

import dataclasses
import functools
import gzip
import hashlib
import importlib
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

# modules that do work; policy and errors hold only data
LAYERS = ("cli", "matrixio", "verify", "pinching", "tensor", "functions", "spectral", "core")


def _array(x) -> np.ndarray:
    return np.asarray(getattr(x, "mat", x))


def _key(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for arr in arrays:
        h.update(np.ascontiguousarray(arr))
    return h.hexdigest()


def _cube(args, kwargs, result):
    n = _array(args[0]).shape[0]
    return {"n3": n**3, "dim": n}


def _eigh(args, kwargs, result):
    arr = _array(args[0])
    return {"n3": arr.shape[0] ** 3, "dim": arr.shape[0], "key": _key(arr)}


def _apply(args, kwargs, result):
    return {"n3": args[1].source_dim ** 3}


def _pinch(args, kwargs, result):
    op, x = args[0], args[1]
    key = _key(op.base.vectors, op.base.multiplicities, x.mat)
    return {"n3": op.dim**3, "key": key}


def _tensor_power(args, kwargs, result):
    return {"bytes": result.mat.nbytes}


def _init(args, kwargs, result):
    return {"bytes": args[0].mat.nbytes}


def _count(args, kwargs, result):
    n, m = args[0].n, args[1]
    return {"candidates": math.comb(m + n - 1, n - 1), "useful": result.distinct_count}


def _load(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# span name -> attributes read from the call's arguments and result
HOOKS = {
    "spectral.eigh": _eigh,
    "spectral.eigvals": _cube,
    "functions.apply_to_decomposition": _apply,
    "pinching.pinch": _pinch,
    "tensor.tensor_power": _tensor_power,
    "tensor.count_distinct_spectrum": _count,
    "core.HermitianMatrix.__init__": _init,
    "matrixio.load_matrix": _load,
}


class Tracer:
    """Installs span-recording wrappers into pinchgt and collects the spans.

    A span is the list [name, start, end, parent index, op, attrs]. Set
    ``op`` to the current op index before each traced call.
    """

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                span[5] = hook(args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the public functions and methods of every layer."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"pinchgt.{layer}")
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for name, member in list(vars(obj).items()):
                        public = not name.startswith("_") or (
                            name == "__init__" and not dataclasses.is_dataclass(obj)
                        )
                        if inspect.isfunction(member) and public:
                            qual = f"{layer}.{attr}.{name}"
                            self._set(obj, name, self._wrap(qual, member))
        # every module that imported a function by name holds its own reference
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "pinchgt" or mod_name.startswith("pinchgt."):
                for attr, value in list(vars(mod).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        self._set(mod, attr, wrappers[value])

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def write(self, path):
        """One JSON array [name, start, end, parent, op, attrs] per line, gzipped."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


# per_layer metric name -> unit
LAYER_METRICS = {
    "spectral.eigh.calls": "count",
    "spectral.eigh.self_s": "s",
    "spectral.eigh.n3_sum": "count",
    "spectral.eigh.max_dim": "count",
    "spectral.eigh.repeat_frac": "ratio",
    "spectral.eigvals.self_s": "s",
    "spectral.eigvals.n3_sum": "count",
    "spectral.decompose.self_s": "s",
    "spectral.SpectralDecomposition.reconstruct.calls": "count",
    "tensor.tensor_power.self_s": "s",
    "tensor.tensor_power.bytes": "B",
    "tensor.count_distinct_spectrum.self_s": "s",
    "tensor.count_distinct_spectrum.candidates": "count",
    "tensor.count_distinct_spectrum.useful_ratio": "ratio",
    "functions.apply_to_decomposition.self_s": "s",
    "functions.apply_to_decomposition.n3_sum": "count",
    "functions.herm_log.calls": "count",
    "functions.herm_exp.calls": "count",
    "pinching.pinch.calls": "count",
    "pinching.pinch.self_s": "s",
    "pinching.pinch.n3_sum": "count",
    "pinching.pinch.distinct_ratio": "ratio",
    "pinching.pinch_via_mixture.self_s": "s",
    "pinching.dephasing_family.self_s": "s",
    "pinching.lower_bound_margin.self_s": "s",
    "core.HermitianMatrix.__init__.calls": "count",
    "core.HermitianMatrix.__init__.self_s": "s",
    "core.HermitianMatrix.__init__.bytes": "B",
    "core.random.self_s": "s",
    "cli.main.self_s": "s",
    "matrixio.load_matrix.self_s": "s",
    "matrixio.load_matrix.bytes": "B",
    "matrixio.matrix_digest.self_s": "s",
    "verify.gt_check.self_s": "s",
    "verify.finite_power_sides.self_s": "s",
    "verify.chain_trace.self_s": "s",
    "trace.overhead_frac": "ratio",
}

# metrics computed from counts, which must repeat exactly for a fixed seed
COUNT_METRICS = tuple(
    name for name, unit in LAYER_METRICS.items()
    if unit != "s" and name != "trace.overhead_frac"
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, time_ops, count_ops) -> dict:
    """Per-op averages of the per-layer metrics.

    Times (``self_s``) average over the ops in `time_ops`; every count-based
    metric uses only the ops in `count_ops`, a fixed prefix of the run, so
    that it repeats exactly between two runs of one seed. A ratio whose base
    is zero (the layer was never called) is reported as 0.
    """
    time_ops, count_ops = set(time_ops), set(count_ops)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    sums = defaultdict(int)
    max_dim = 0
    seen = defaultdict(set)  # (name, op) -> content keys already met in that op
    repeats = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        name, op, attrs = span[0], span[4], span[5] or {}
        group = "core.random" if name.startswith("core.random_") else name
        if op in time_ops:
            self_s[group] += own
        if op not in count_ops:
            continue
        calls[name] += 1
        for field_name in ("n3", "bytes", "candidates", "useful"):
            sums[name, field_name] += attrs.get(field_name, 0)
        if name == "spectral.eigh":
            max_dim = max(max_dim, attrs["dim"])
        if "key" in attrs:
            keys = seen[name, op]
            repeats[name] += attrs["key"] in keys
            keys.add(attrs["key"])
    nt, nc = max(len(time_ops), 1), max(len(count_ops), 1)
    out = {}
    for metric in LAYER_METRICS:
        if metric == "trace.overhead_frac":
            continue
        name, _, kind = metric.rpartition(".")
        if kind == "self_s":
            out[metric] = self_s[name] / nt
        elif kind == "calls":
            out[metric] = calls[name] / nc
        elif kind == "n3_sum":
            out[metric] = sums[name, "n3"] / nc
        elif kind in ("bytes", "candidates"):
            out[metric] = sums[name, kind] / nc
        elif kind == "max_dim":
            out[metric] = max_dim
        elif kind == "useful_ratio":
            out[metric] = _ratio(sums[name, "useful"], sums[name, "candidates"])
        elif kind == "distinct_ratio":
            out[metric] = _ratio(calls[name] - repeats[name], calls[name])
        elif kind == "repeat_frac":
            out[metric] = _ratio(repeats[name], calls[name])
        else:
            raise AssertionError(f"no rule for metric {metric}")
    return out
