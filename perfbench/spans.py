"""Spans timed from outside the library.

`install()` replaces every binding of each traced rsbesov function (in its
defining module, in every module that imported it by value, and in the
package namespace) with a wrapper that records name, start, end and parent
span in memory.  Nothing inside `src/` is changed; the wrappers record only
while `Recorder.enabled` is true.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

import numpy as np

# The subcommands `rsbesov report` runs, in its order.
CLI_SUBCOMMANDS = ("synthesize", "besov", "dnorm", "reconstruct", "roundtrip", "embed", "lift", "schauder")

# (module, attribute path) of each traced callable.  The metric prefix is
# "<module>.<attribute path>", except for the gamma_apply_field overrides,
# which share the prefix "structures.gamma_apply_field".
TARGETS = [
    ("filters", "daubechies_filter"),
    ("filters", "cascade_father"),
    ("filters", "cascade_mother"),
    ("mra", "build_wavelet"),
    ("mra", "decompose_level"),
    ("mra", "reassemble_level"),
    ("mra", "forward_transform"),
    ("mra", "inverse_transform"),
    ("mra", "level_coefficients"),
    ("mra", "all_level_coefficients"),
    ("mra", "analyze_v_coefficients"),
    ("analysis", "analyze_kernel"),
    ("analysis", "smooth_coeffs_1d"),
    ("analysis", "periodic_samples"),
    ("analysis", "correlate"),
    ("besov", "profile_kernel"),
    ("besov", "critical_exponent"),
    ("besov", "besov_norm_wavelet"),
    ("besov", "synthesize_random_besov"),
    ("reconstruction", "reconstruct"),
    ("reconstruction", "reconstruction_bound"),
    ("reconstruction", "lift"),
    ("reconstruction", "two_model_compare"),
    ("reconstruction", "germ_of"),
    ("reconstruction", "sewing_limit"),
    ("modelled", "average"),
    ("modelled", "unaverage"),
    ("modelled", "d_norm"),
    ("modelled", "dbar_norm"),
    ("modelled", "md_distance"),
    ("structures", "Model.gamma_apply_field"),
    ("schauder", "ExtendedModel.gamma_apply_field"),
    ("schauder", "decompose_kernel"),
    ("schauder", "KernelDecomposition.p0_moment"),
    ("schauder", "KernelDecomposition.partial_sum"),
    ("schauder", "extend_structure"),
    ("schauder", "schauder_apply"),
    ("schauder", "convolution_identity_check"),
    ("pyramid", "save_rsbf"),
    ("pyramid", "load_rsbf"),
    ("reports", "write_rows"),
    ("embeddings", "embed_check"),
] + [("cli", f"cmd_{sub}") for sub in CLI_SUBCOMMANDS]

# Bindings made by `from .x import f`: each must still be the traced function,
# or the run fails, so that a rename cannot silently drop a span.
BY_VALUE = [
    ("reconstruction", "average", "modelled"),
    ("reconstruction", "unaverage", "modelled"),
    ("structures", "profile_kernel", "besov"),
    ("embeddings", "dbar_norm", "modelled"),
    ("schauder", "d_norm", "modelled"),
    ("cli", "save_rsbf", "pyramid"),
    ("cli", "write_rows", "reports"),
    ("io", "save_rsbf", "pyramid"),
]


def _metric_prefix(module: str, attr: str) -> str:
    if attr.endswith(".gamma_apply_field"):
        return "structures.gamma_apply_field"
    return f"{module}.{attr}"


def _size(a) -> int:
    return int(np.asarray(a).size)


def _grid_points(values) -> int:
    shape = np.shape(values)
    return int(np.prod(shape[:-1]))


# Argument probes, evaluated on the bound arguments at the call boundary.
# "key" feeds repeat_frac; "points" is a computed input grid size.
PROBES = {
    "mra.build_wavelet": {"key": lambda a: (a["order"], a["r"], a["cascade_depth"])},
    "besov.profile_kernel": {
        "key": lambda a: (a["profile"].name, tuple(a["scaling"].s), a["scale_n"])
    },
    "analysis.correlate": {"points": lambda a: _size(a["c"])},
    "modelled.average": {"points": lambda a: _grid_points(a["f"].values)},
    "mra.decompose_level": {"points": lambda a: _size(a["c"])},
    # coarse coefficients plus details: the fine grid being rebuilt
    "mra.reassemble_level": {"points": lambda a: _size(a["newc"]) + _size(a["details"])},
}
FILE_BYTES = {"pyramid.save_rsbf": "after", "pyramid.load_rsbf": "before"}


def _expand(prefixes, stats):
    return [f"{p}.{s}" for p in prefixes for s in stats]


# Every per-layer metric a traced run reports, in BENCHMARK.json order.
LAYER_METRICS = (
    _expand(["filters.daubechies_filter", "filters.cascade_father", "filters.cascade_mother"], ["self_s"])
    + _expand(["mra.build_wavelet"], ["calls", "self_s", "repeat_frac"])
    + _expand(["analysis.analyze_kernel", "analysis.smooth_coeffs_1d"], ["calls", "self_s"])
    + ["analysis.periodic_samples.self_s"]
    + _expand(["analysis.correlate"], ["calls", "self_s", "points"])
    + _expand(["besov.profile_kernel"], ["calls", "repeat_frac"])
    + _expand(
        [f"reconstruction.{f}" for f in
         ("reconstruct", "reconstruction_bound", "lift", "two_model_compare", "germ_of", "sewing_limit")],
        ["self_s"],
    )
    + _expand([f"modelled.{f}" for f in ("average", "unaverage", "d_norm", "dbar_norm", "md_distance")], ["self_s"])
    + _expand(["modelled.average"], ["calls", "points"])
    + _expand(["structures.gamma_apply_field"], ["calls", "self_s"])
    + _expand(["mra.decompose_level", "mra.reassemble_level"], ["calls", "self_s", "points"])
    + _expand(
        [f"mra.{f}" for f in
         ("forward_transform", "inverse_transform", "level_coefficients", "all_level_coefficients",
          "analyze_v_coefficients")],
        ["self_s"],
    )
    + ["schauder.decompose_kernel.self_s"]
    + _expand(["schauder.KernelDecomposition.p0_moment"], ["calls", "self_s"])
    + ["schauder.KernelDecomposition.partial_sum.self_s"]
    + _expand(
        [f"schauder.{f}" for f in ("extend_structure", "schauder_apply", "convolution_identity_check")],
        ["self_s"],
    )
    + _expand(["pyramid.save_rsbf", "pyramid.load_rsbf"], ["self_s", "bytes"])
    + _expand(["reports.write_rows"], ["calls", "self_s"])
    + _expand([f"besov.{f}" for f in ("critical_exponent", "besov_norm_wavelet", "synthesize_random_besov")],
              ["self_s"])
    + ["embeddings.embed_check.self_s"]
    + [f"cli.cmd_{sub}.total_s" for sub in CLI_SUBCOMMANDS]
    + ["trace.uncovered_s", "trace.overhead_frac"]
)
UNITS = {"calls": "count", "points": "count", "bytes": "bytes", "repeat_frac": "frac", "overhead_frac": "frac"}


def unit_of(metric: str) -> str:
    return UNITS.get(metric.rsplit(".", 1)[1], "s")


class Recorder:
    """In-memory span log plus boundary counters for one traced run."""

    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self.keys: dict[str, list] = {}
        self.points: dict[str, int] = {}
        self.bytes: dict[str, int] = {}

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        probes = PROBES.get(name)
        file_bytes = FILE_BYTES.get(name)
        sig = inspect.signature(fn) if probes or file_bytes else None
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            named = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                named = bound.arguments
                if probes and "key" in probes:
                    rec.keys.setdefault(name, []).append(probes["key"](named))
                if probes and "points" in probes:
                    rec.points[name] = rec.points.get(name, 0) + probes["points"](named)
                if file_bytes == "before":
                    rec.bytes[name] = rec.bytes.get(name, 0) + os.path.getsize(named["path"])
            idx = rec._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec._close(idx)
                if file_bytes == "after":
                    rec.bytes[name] = rec.bytes.get(name, 0) + os.path.getsize(named["path"])

        return wrapper

    def summary(self, wall_s: float) -> dict:
        """Per-name calls, total and self time, plus the trace's own health."""
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent, dtype=int)
        child = np.zeros(len(dur))
        has = parent >= 0
        if has.any():
            child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        self_s = dur - child
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += float(self_s[i])
            agg["total_s"] += float(dur[i])
        for name, keys in self.keys.items():
            seen = set()
            repeats = 0
            for k in keys:
                repeats += k in seen
                seen.add(k)
            out.setdefault(name, {})["repeat_frac"] = repeats / len(keys)
        for name, n in self.points.items():
            out.setdefault(name, {})["points"] = n
        for name, n in self.bytes.items():
            out.setdefault(name, {})["bytes"] = n
        roots = float(dur[~has].sum())
        return {"layers": out, "uncovered_s": wall_s - roots}


def _resolve(module, attr: str):
    owner = module
    parts = attr.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


def install(rec: Recorder) -> None:
    """Wrap every binding of every target."""
    mods = {
        name: importlib.import_module(f"rsbesov.{name}")
        for name in {m for m, _ in TARGETS} | {m for m, _, _ in BY_VALUE}
    }
    for mod, name, src in BY_VALUE:
        if getattr(mods[mod], name, None) is not getattr(mods[src], name, object()):
            raise RuntimeError(f"traced binding rsbesov.{mod}.{name} is missing or rebound")
    package = [
        m for k, m in list(sys.modules.items()) if m is not None and (k == "rsbesov" or k.startswith("rsbesov."))
    ]
    for mod, attr in TARGETS:
        owner, leaf = _resolve(mods[mod], attr)
        orig = owner.__dict__.get(leaf)
        if orig is None or not callable(orig):
            raise RuntimeError(f"traced target rsbesov.{mod}.{attr} is missing")
        wrapper = rec.wrap(_metric_prefix(mod, attr), orig)
        setattr(owner, leaf, wrapper)
        if isinstance(owner, type):
            continue
        for m in package:
            for k, v in list(vars(m).items()):
                if v is orig:
                    setattr(m, k, wrapper)
    for mod, name, src in BY_VALUE:
        if getattr(mods[mod], name) is not getattr(mods[src], name):
            raise RuntimeError(f"traced binding rsbesov.{mod}.{name} was not wrapped")
