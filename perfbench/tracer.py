"""Outside-in layer tracing for the benchmark worker.

The solver is not instrumented.  Instead, each traced layer is a public
function (or a `SparseMatrix` method) that is wrapped from here, at the same
seam the acceptance tests already monkeypatch: the modules call each other
through module attributes (`cones.project_primal_set`) or through names
imported at load time (`from .model import dual_objective`), so a wrapper
replaces every binding of the function object in every loaded `conic_pdhg`
module.

A wrapper records one span (layer, start, end, parent) per call into flat
in-memory lists; nothing is written until the run ends.  A layer whose
function has been renamed or removed is reported as absent, not as an error.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _trials(counters, args, out):
    trials = getattr(out, "trials", None)
    if trials is not None:
        counters["engine.line_search.trials"] += trials
        counters["engine.line_search.rejections"] += trials - 1


def _gap_sign(counters, args, out):
    if out < -1e-12:
        counters["restart.normalized_gap.negative"] += 1


def _fired(counters, args, out):
    if out:
        counters["restart.should_restart.fired"] += 1


def _path_bytes(key, index):
    def observe(counters, args, out):
        if len(args) > index and isinstance(args[index], str) and os.path.exists(args[index]):
            counters[key] += os.path.getsize(args[index])
    return observe


# (layer name, module, attribute path, observer of (counters, args, result))
LAYERS = (
    ("cli.main", "cli", "main", None),
    ("engine.solve", "engine", "solve", None),
    ("engine.adaptive_step_pdhg", "engine", "adaptive_step_pdhg", _trials),
    ("engine.reflected_halpern_step", "engine", "reflected_halpern_step", None),
    ("engine.update_weighted_average", "engine", "update_weighted_average", None),
    ("fileio.parse_problem", "fileio", "parse_problem", _path_bytes("fileio.parse_problem.bytes", 0)),
    ("fileio.write_result", "fileio", "write_result", _path_bytes("fileio.write_result.bytes", 2)),
    ("model.rsoc_to_soc", "model", "rsoc_to_soc", None),
    ("model.recover_dual", "model", "recover_dual", None),
    ("model.dual_objective", "model", "dual_objective", None),
    ("scaling.build_scaling", "scaling", "build_scaling", None),
    ("scaling.rescale_problem", "scaling", "rescale_problem", None),
    ("linalg.SparseMatrix.init", "linalg", "SparseMatrix.__init__", None),
    ("linalg.matvec", "linalg", "SparseMatrix.matvec", None),
    ("linalg.rmatvec", "linalg", "SparseMatrix.rmatvec", None),
    ("cones.project_primal_set", "cones", "project_primal_set", None),
    ("cones.project_dual_set", "cones", "project_dual_set", None),
    ("cones.project_dual_residual_set", "cones", "project_dual_residual_set", None),
    ("cones.project_primal_cone_dual", "cones", "project_primal_cone_dual", None),
    ("cones.project_primal_cone_part", "cones", "project_primal_cone_part", None),
    ("termination.compute_errors", "termination", "compute_errors", None),
    ("termination.adaptive_reflection_parameter", "termination", "adaptive_reflection_parameter", None),
    ("termination.check_termination", "termination", "check_termination", None),
    ("termination.check_infeasibility", "termination", "check_infeasibility", None),
    ("restart.normalized_gap", "restart", "normalized_gap", _gap_sign),
    ("restart.z_of_t", "restart", "z_of_t", None),
    ("restart.kkt_omega", "restart", "kkt_omega", None),
    ("restart.should_restart", "restart", "should_restart", _fired),
    ("restart.update_primal_weight", "restart", "update_primal_weight", None),
)

# Layers whose per-call block count comes from the cone layout.
CONE_LAYERS = tuple(name for name, mod, _, _ in LAYERS if mod == "cones")


class Recorder:
    """Spans in four parallel lists; parent -1 marks a root span."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self.absent: list[str] = []
        self.names: list[int] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.failed: list[int] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack = [-1]

    def wrap(self, name, fn, observe=None):
        code = len(self.layers)
        self.layers.append(name)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        failed, stack, counters, clock = self.failed, self._stack, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(code)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
                failed.append(idx)
                raise
            ends[idx] = clock()
            starts[idx] = t0
            stack.pop()
            if observe is not None:
                observe(counters, args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, package: str = "conic_pdhg") -> None:
        """Wrap every layer in LAYERS that exists in the loaded package."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == package or key.startswith(package + "."))]
        for name, mod, path, observe in LAYERS:
            try:
                owner = importlib.import_module(f"{package}.{mod}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, fn, observe)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)

    def arrays(self):
        return (np.asarray(self.names, dtype=np.int32), np.asarray(self.parents, dtype=np.int64),
                np.asarray(self.starts), np.asarray(self.ends))

    def save(self, path: str) -> None:
        names, parents, starts, ends = self.arrays()
        np.savez(path, layers=np.asarray(self.layers), names=names, parents=parents,
                 starts=starts, ends=ends, failed=np.asarray(self.failed, dtype=np.int64))


def layer_totals(rec: Recorder, lo: int = 0, hi: int | None = None) -> dict:
    """Per-layer calls, inclusive seconds, self seconds and failed calls over
    spans [lo, hi).  Self time is a span's duration minus its children's."""
    names, parents, starts, ends = rec.arrays()
    dur = ends - starts
    has_parent = parents >= 0
    child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
    own = dur - child
    hi = len(dur) if hi is None else hi
    sl = slice(lo, hi)
    k = len(rec.layers)
    calls = np.bincount(names[sl], minlength=k)
    secs = np.bincount(names[sl], weights=dur[sl], minlength=k)
    self_s = np.bincount(names[sl], weights=own[sl], minlength=k)
    failed = np.asarray([i for i in rec.failed if lo <= i < hi], dtype=np.int64)
    fails = np.bincount(names[failed], minlength=k) if failed.size else np.zeros(k, dtype=np.int64)
    return {
        layer: {"calls": int(calls[i]), "s": float(secs[i]), "self_s": float(self_s[i]),
                "failed": int(fails[i])}
        for i, layer in enumerate(rec.layers)
    }
