"""Minimum-over-repeats timings of the loop's kernels on the benchmark's problems.

    python tests/kernel_timings.py [--seed 3] [--repeats 7]

builds the benchmark's instances (perfbench/workloads.py and
perfbench/generate.py, imported, not changed), writes each to a temporary
file and parses it as the CLI does, and prints one tab-separated line per
kernel:

    kernel  workload  shape  calls  us_per_call

* `matvec` / `rmatvec`: G x and G^T y into a preallocated `out`, on the
  scaled G of the first instance of lp-large, lp-solve and cone-solve;
* `project_dual_set`: the dual-set projection, on every 8th input that the
  cone-solve solves of `--seed` pass it, each with its own scaled problem
  (all 13 instances, solved through `conic_pdhg.cli.main` with the
  workload's options).  The projection writes into a preallocated `out`
  where the tree's `project_dual_set` takes one.

Each figure is the fastest of `--repeats` timed passes, divided by the
calls in a pass; the minimum is the least noisy estimate of a kernel's
cost on a shared host.  Run it from the root of each tree to compare them.
"""

import argparse
import inspect
import os
import sys
import tempfile
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402

from conic_pdhg import cli, cones, fileio, model, scaling  # noqa: E402

RECORD_EVERY = 8
PRODUCT_SECONDS = 0.05  # target length of one timed pass of products


def parsed(case, work_dir):
    path = os.path.join(work_dir, "problem.json")
    case.instance.write(path)
    return fileio.parse_problem(path)


def best(run, calls, repeats):
    """Microseconds per call of the fastest of `repeats` passes of `run`,
    which makes `calls` calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return 1e6 * min(times) / calls


def product_lines(seed, repeats, work_dir):
    for name in ("lp-large", "lp-solve", "cone-solve"):
        _, cases = workloads.build(name, seed)
        work = model.rsoc_to_soc(parsed(cases[0], work_dir))
        g = scaling.rescale_problem(work, scaling.build_scaling(work)).G
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(g.n), rng.standard_normal(g.m)
        gx, gty = np.empty(g.m), np.empty(g.n)
        for kernel, product in (("matvec", lambda: g.matvec(x, out=gx)),
                                ("rmatvec", lambda: g.rmatvec(y, out=gty))):
            t0 = time.perf_counter()
            product()
            calls = max(1, int(PRODUCT_SECONDS / max(time.perf_counter() - t0, 1e-7)))

            def run(product=product, calls=calls):
                for _ in range(calls):
                    product()

            us = best(run, calls, repeats)
            yield kernel, name, f"{g.m}x{g.n}", calls, us


def recorded_dual_inputs(seed, work_dir):
    """(y, scaled problem) for every RECORD_EVERY-th call that the seed's
    cone-solve solves make of `cones.project_dual_set`."""
    _, cases = workloads.build("cone-solve", seed)
    real = cones.project_dual_set
    seen, inputs = [0], []

    def recording(y, problem, *args, **kwargs):
        if seen[0] % RECORD_EVERY == 0:
            inputs.append((y.copy(), problem))
        seen[0] += 1
        return real(y, problem, *args, **kwargs)

    path, result = os.path.join(work_dir, "problem.json"), os.path.join(work_dir, "result.json")
    cones.project_dual_set = recording
    try:
        for case in cases:
            case.instance.write(path)
            cli.main(["--input", path, "--output", result,
                      "--time-limit", str(case.time_limit), *case.options])
    finally:
        cones.project_dual_set = real
    return inputs


def projection_line(seed, repeats, work_dir):
    inputs = recorded_dual_inputs(seed, work_dir)
    project = cones.project_dual_set
    if "out" in inspect.signature(project).parameters:
        calls = [(y, p, np.empty_like(y)) for y, p in inputs]
    else:
        calls = [(y, p) for y, p in inputs]

    def run():
        for args in calls:
            project(*args)

    sizes = sorted({y.size for y, _ in inputs})
    return "project_dual_set", "cone-solve", f"m={sizes[0]}-{sizes[-1]}", len(calls), \
        best(run, len(calls), repeats)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be positive")
    warnings.simplefilter("ignore", RuntimeWarning)
    print("kernel\tworkload\tshape\tcalls\tus_per_call")
    with tempfile.TemporaryDirectory() as work_dir:
        lines = [*product_lines(args.seed, args.repeats, work_dir),
                 projection_line(args.seed, args.repeats, work_dir)]
    for kernel, workload, shape, calls, us in lines:
        print(f"{kernel}\t{workload}\t{shape}\t{calls}\t{us:.2f}", flush=True)


if __name__ == "__main__":
    main()
