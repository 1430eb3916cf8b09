"""The solver functions the benchmark reaches into must exist.

`perfbench/run.py --trace 1` wraps each layer in `perfbench/tracer.LAYERS`
and reports the metrics BENCHMARK.json lists under `per_layer`.  A layer
whose function is renamed or removed yields no metrics, and the run stops
with "metrics not computed".  The worker also swaps `engine.adaptive_step_pdhg`
and `cli.solve` to stamp its timings.  These tests resolve those names the
way the tracer and the worker do, without installing any wrapper, and read
BENCHMARK.json and the tracer without changing them.
"""

import importlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The worker's own seams: `perfbench/worker.Stamps` replaces both.
WORKER_SEAMS = (("engine", "adaptive_step_pdhg"), ("cli", "solve"))


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(mod, path):
    """Whether `conic_pdhg.<mod>` has the attribute path, found as
    `Recorder.install` finds it: a method in the class's own namespace."""
    try:
        owner = importlib.import_module(f"conic_pdhg.{mod}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            return attr in owner.__dict__
        return hasattr(owner, attr)
    except (ImportError, AttributeError):
        return False


def measured_layers(layers, metrics):
    """The (layer, module, path) of every layer that has a metric in `metrics`."""
    return [(name, mod, path) for name, mod, path, _ in layers
            if any(metric.startswith(name + ".") for metric in metrics)]


def test_every_measured_layer_resolves():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [entry["name"] for entry in spec["per_layer"]]
    layers = measured_layers(load_tracer().LAYERS, metrics)
    assert layers, "no tracer layer has a per_layer metric"
    missing = [f"{name} (conic_pdhg.{mod}.{path})" for name, mod, path in layers
               if not resolves(mod, path)]
    assert not missing, f"traced layers with per_layer metrics are missing: {missing}"


def test_worker_seams_resolve():
    missing = [f"conic_pdhg.{mod}.{path}" for mod, path in WORKER_SEAMS if not resolves(mod, path)]
    assert not missing, f"benchmark worker seams are missing: {missing}"


def test_a_removed_function_is_named():
    layers = (("engine.gone", "engine", "no_such_function", None),
              ("linalg.SparseMatrix.gone", "linalg", "SparseMatrix.no_such_method", None),
              ("engine.unmeasured", "engine", "also_missing", None))
    found = measured_layers(layers, ["engine.gone.calls", "linalg.SparseMatrix.gone.s"])
    assert [name for name, _, _ in found] == ["engine.gone", "linalg.SparseMatrix.gone"]
    assert not any(resolves(mod, path) for _, mod, path in found)
