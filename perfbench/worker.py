"""Run one workload's CLI calls in a fresh process and time them.

Usage: python3 worker.py PLAN.json OUT.json

The plan (written by run.py) names the instances, their CLI arguments, how
many rounds of calls to make, and whether to trace.  Every call
goes through `conic_pdhg.cli.main`, the same path as the `conic-pdhg`
command.  The untraced run adds only once-per-solve hooks:

* a one-shot wrapper on `engine.adaptive_step_pdhg` that stamps the start
  of the first PDHG iteration and then puts the original back;
* a wrapper on the `solve` that `cli.main` calls, which stamps the end of
  the solve and keeps the returned result's summary;
* a `SparseMatrix.__del__` that adds each matrix's product counters (and
  the bytes those products compute) to a total when the matrix is freed.

With tracing on, the layers in tracer.LAYERS are wrapped first and the hooks
above sit on top of them, so both runs see the same stamps.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time


class Stamps:
    """Once-per-solve timestamps and the summary of the last result."""

    def __init__(self, engine, cli) -> None:
        self.engine = engine
        self.first_iteration = None
        self.solve_end = None
        self.result = None
        try:
            self._step = engine.adaptive_step_pdhg
            solve = cli.solve
        except AttributeError as exc:
            raise SystemExit(f"perfbench worker: solver seam missing: {exc}") from exc

        def stamped_solve(*args, **kwargs):
            result = solve(*args, **kwargs)
            self.solve_end = time.perf_counter()
            self.result = result
            return result

        cli.solve = stamped_solve

    def arm(self) -> None:
        self.first_iteration = self.solve_end = self.result = None
        step, engine = self._step, self.engine

        def first_step(*args, **kwargs):
            self.first_iteration = time.perf_counter()
            engine.adaptive_step_pdhg = step
            return step(*args, **kwargs)

        engine.adaptive_step_pdhg = first_step

    def disarm(self) -> None:
        self.engine.adaptive_step_pdhg = self._step


class ProductCounter:
    """Totals of G x / G^T y products and the bytes they compute, collected
    from each SparseMatrix as it is freed.  Bytes assume 8-byte values and
    4-byte indices: a CSR product reads values, column indices and row
    pointers, gathers the input vector once per nonzero, and writes the
    output once."""

    def __init__(self, matrix_class) -> None:
        self.products = 0
        self.bytes = 0
        counter = self

        def count_on_free(mat):
            nv = getattr(mat, "n_matvec", 0)
            nr = getattr(mat, "n_rmatvec", 0)
            if nv or nr:
                m, n = mat.shape
                nnz = mat.nnz
                counter.products += nv + nr
                counter.bytes += nv * (12 * nnz + 4 * (m + 1) + 8 * nnz + 8 * m)
                counter.bytes += nr * (12 * nnz + 4 * (n + 1) + 8 * nnz + 8 * n)

        matrix_class.__del__ = count_on_free


def _run_call(cli, stamps, counter, argv):
    gc.collect()
    products0, bytes0 = counter.products, counter.bytes
    stamps.arm()
    error = None
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception as exc:  # the benchmark records the failure and goes on
        code = None
        error = f"{type(exc).__name__}: {str(exc).splitlines()[0] if str(exc) else ''}"
    t1 = time.perf_counter()
    stamps.disarm()
    result = stamps.result
    gc.collect()
    rec = {
        "wall_s": t1 - t0,
        "code": code,
        "error": error,
        "setup_s": None if stamps.first_iteration is None else stamps.first_iteration - t0,
        "loop_s": (None if stamps.first_iteration is None or stamps.solve_end is None
                   else stamps.solve_end - stamps.first_iteration),
        "products": counter.products - products0,
        "product_bytes": counter.bytes - bytes0,
    }
    if result is not None:
        rec.update(status=result.exit_status, iterations=result.iterations,
                   p_obj=result.p_obj, d_obj=result.d_obj, restarts=result.restarts)
    return rec


def main(plan_path: str, out_path: str) -> int:
    with open(plan_path) as f:
        plan = json.load(f)
    src = plan["src"]
    sys.path.insert(0, src)
    import conic_pdhg
    from conic_pdhg import cli, engine, linalg

    if not os.path.abspath(conic_pdhg.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"perfbench worker: imported conic_pdhg from {conic_pdhg.__file__}, not {src}")

    recorder = None
    if plan["trace"]:
        import tracer

        recorder = tracer.Recorder()
        recorder.install()
    stamps = Stamps(engine, cli)
    counter = ProductCounter(linalg.SparseMatrix)

    # Calls go round-robin over the instances for a fixed number of whole
    # rounds, so every run makes the same calls whatever the host's speed.
    instances = plan["instances"]
    calls = [[] for _ in instances]
    roots = []
    for k in range(len(instances) * plan["rounds"]):
        i = k % len(instances)
        roots.append(len(recorder.names) if recorder else 0)
        calls[i].append(_run_call(cli, stamps, counter, instances[i]["argv"]))

    # Set-up is short next to a solve, so each instance is also set up again
    # (with --max-iter 1) until it has enough samples for a median.
    probes = {}
    for i, inst in enumerate(instances):
        samples = [c["setup_s"] for c in calls[i] if c["setup_s"] is not None]
        while 0 < len(samples) < plan["setup_samples"]:
            rec = _run_call(cli, stamps, counter, inst["probe_argv"])
            if rec["setup_s"] is None:
                break
            samples.append(rec["setup_s"])
        probes[inst["name"]] = samples

    out = {
        "calls": calls,
        "setup_samples": probes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder is not None:
        import tracer

        roots.append(len(recorder.names))
        out["absent"] = recorder.absent
        out["counters"] = dict(recorder.counters)
        out["layers"] = tracer.layer_totals(recorder)
        out["per_instance"] = [
            {name: tot["calls"] for name, tot in tracer.layer_totals(recorder, lo, hi).items()
             if name in tracer.CONE_LAYERS}
            for lo, hi in zip(roots, roots[1:])
        ]
        recorder.save(plan["spans_path"])
    with open(out_path, "w") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.stderr.write("usage: python3 worker.py PLAN.json OUT.json\n")
        raise SystemExit(64)
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
