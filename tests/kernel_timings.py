"""Minimum-over-repeats timings of the loop's kernels on the benchmark's problems.

    python tests/kernel_timings.py [--seed 3] [--repeats 7]

builds the benchmark's instances (perfbench/workloads.py and
perfbench/generate.py, imported, not changed), writes each to a temporary
file and parses it as the CLI does, and prints one tab-separated line per
kernel:

    kernel  workload  shape  calls  us_per_call

* `matvec` / `rmatvec`: G x and G^T y into a preallocated `out`, on the
  scaled G of the first instance of lp-large, lp-solve and cone-solve;
* `halpern`: the solve loop's Halpern update
  (`engine.reflected_halpern_step` with `out` the iterate) on three
  buffers of the loop's length, 2 (n + m), for each of those instances,
  with BLAS on as many threads as a solve of the tree runs it
  (`linalg.one_blas_thread` where the tree has it);
* `line_search_step`: one accepted line-search trial
  (`engine.adaptive_step_pdhg` into a candidate buffer of the loop's
  length and a `StepWorkspace`) on each of those scaled problems, from a
  random point with its products given, at a step size that the first
  trial accepts;
* `iteration`: one accepted iteration of an lp-large solve (the line-search
  step, the candidate's two products and the Halpern update), one row per
  shard count, 1 and 2 (`traces.forced_shards`; a tree that does not shard
  its iterations prints the row of 1).  A pass is one solve of
  `ITERATION_PASS` iterations with the workload's tolerances, timed from
  each iteration callback to the next where the line search accepted its
  first trial, from the second callback on; the calls column counts those
  iterations;
* `termination_scan`: one termination scan with the infeasibility test
  (`engine._Loop._termination_scan(state, True)`) at the loop's initial
  state (`_Loop._init_state`) for each of those instances, with the
  instance's options;
* `project_dual_set`: the dual-set projection, on every 8th input that the
  cone-solve solves of `--seed` pass it, each with its own scaled problem
  (all 13 instances, solved through `conic_pdhg.cli.main` with the
  workload's options).  The projection writes into a preallocated `out`
  where the tree's `project_dual_set` takes one;
* `normalized_gap`: one restart check's gap evaluation
  (`restart.normalized_gap` with the arguments the solve loop passed), the
  middle one of the checks that the first cone-solve solve of `--seed`
  makes after its baseline; the shape column also gives the `z_of_t`
  calls that one evaluation makes;
* `parse_problem` / `write_result`: reading the lp-large file, and
  writing the result that a solve of it with the workload's options
  (200 iterations) returns;
* `from_coo` / `build_scaling`: building G from the triplets that
  `parse_problem` reads from the lp-large file, and the preconditioner's
  scales of the parsed problem;
* `cli_setup`: `cli.main` on the lp-large file with `--max-iter 1`, timed
  from the call to its first `engine.adaptive_step_pdhg` call, as
  perfbench/worker.py stamps a solve's set-up; the solve stops there;
* `rsoc_to_soc`: one round of `model.rsoc_to_soc` over the cone-solve
  problems of `--seed` that have rsoc blocks (the calls column counts
  rounds, and the shape column the problems in one);
* `cli_parse_args`: reading the first cone-solve command line of `--seed`
  as `cli.main` reads it: with its once-built parser, or, in a tree whose
  `cli.main` builds a parser per call, with a new one per call.

Each figure is the fastest of `--repeats` timed passes, divided by the
calls in a pass; the minimum is the least noisy estimate of a kernel's
cost on a shared host.  A pass makes as many calls as fill `PASS_SECONDS`
at the median of `WARM_CALLS` timed calls made after a first, untimed one,
and at least one.  Run it from the root of each tree to compare them.
"""

import argparse
import contextlib
import dataclasses
import inspect
import math
import os
import statistics
import sys
import tempfile
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402

from conic_pdhg import cli, cones, engine, fileio, linalg, model, restart, scaling  # noqa: E402

RECORD_EVERY = 8
ITERATION_PASS = 40  # iterations of an `iteration` pass
PASS_SECONDS = 0.05  # shortest timed pass
WARM_CALLS = 5  # timed calls whose median sets the calls per pass


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


def timed(kernel, repeats):
    """(calls per pass, microseconds per call) of `kernel()`, called in
    passes of at least PASS_SECONDS."""
    kernel()
    warm = []
    for _ in range(WARM_CALLS):
        t0 = time.perf_counter()
        kernel()
        warm.append(time.perf_counter() - t0)
    calls = max(1, math.ceil(PASS_SECONDS / max(statistics.median(warm), 1e-9)))

    def run():
        for _ in range(calls):
            kernel()

    return calls, best(run, calls, repeats)


def line_search_step(problem, x, y):
    """One `engine.adaptive_step_pdhg` call from (x, y) that the line
    search accepts at its first trial, as a function of no arguments.
    eta < 1 / ||G||_F <= 1 / ||G||_2 is always accepted: the step-size
    bound ||dz||_w^2 / (2 |dy' G dx|) is at least 1 / ||G||_2."""
    g, n, m = problem.G, problem.n, problem.m
    z = engine.IterateZ(x, y)
    gx, gty = g.matvec(x), g.rmatvec(y)
    omega = restart.initialize_primal_weight(problem.c, problem.h)
    eta = 0.5 / linalg.two_norm(g.data)
    phases = engine.StepPhases(problem, z, gx, gty, np.empty(2 * (n + m)),
                               engine.StepWorkspace.allocate(n, m))

    def step():
        return engine.adaptive_step_pdhg(problem, z, omega, eta, 1, phases=phases)

    if step().trials != 1:
        raise RuntimeError("the line search rejected a step below 1 / ||G||_2")
    return step


def termination_scan(problem, case):
    """One `_Loop._termination_scan` with the infeasibility test, at the
    initial state of a loop on `problem` with `case`'s options, as a
    function of no arguments."""
    args = cli.build_parser().parse_args(
        ["--input", "-", "--time-limit", str(case.time_limit), *case.options])
    loop = engine._Loop(problem, cli.options_from_args(args))
    state = loop._init_state()
    return lambda: loop._termination_scan(state, True)


def loop_kernel_lines(seed, repeats, work_dir):
    for name in ("lp-large", "lp-solve", "cone-solve"):
        _, cases = workloads.build(name, seed)
        problem = parsed(cases[0], work_dir)
        work = model.rsoc_to_soc(problem)
        scaled = scaling.rescale_problem(work, scaling.build_scaling(work))
        g = scaled.G
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(g.n), rng.standard_normal(g.m)
        gx, gty = np.empty(g.m), np.empty(g.n)
        z_hat, z, anchor = (rng.standard_normal(2 * (g.n + g.m)) for _ in range(3))
        halpern = engine.reflected_halpern_step
        for kernel, product in (("matvec", lambda: g.matvec(x, out=gx)),
                                ("rmatvec", lambda: g.rmatvec(y, out=gty)),
                                ("halpern", lambda: halpern(z_hat, z, anchor, 99, 0.5, out=z)),
                                ("line_search_step", line_search_step(scaled, x, y)),
                                ("termination_scan", termination_scan(problem, cases[0]))):
            with getattr(linalg, "one_blas_thread", contextlib.nullcontext)():
                calls, us = timed(product, repeats)
            shape = f"len={z.size}" if kernel == "halpern" else f"{g.m}x{g.n}"
            yield kernel, name, shape, calls, us


def iteration_lines(seed, repeats, work_dir):
    _, cases = workloads.build("lp-large", seed)
    problem = parsed(cases[0], work_dir)
    args = cli.build_parser().parse_args(["--input", "-", *cases[0].options,
                                          "--max-iter", str(ITERATION_PASS)])
    shard_counts = (1, 2) if hasattr(engine, "_SHARD_NNZ") else (None,)
    for shards in shard_counts:
        passes = []
        for _ in range(repeats):
            stamps = []
            options = cli.options_from_args(args)
            options.iteration_callback = lambda s: stamps.append((time.perf_counter(), s.k_bar))
            if shards is None:
                engine.solve(problem, options)
            else:
                from traces import forced_shards

                with forced_shards(shards):
                    engine.solve(problem, options)
            spans = [t1 - t0 for (t0, k0), (t1, k1) in zip(stamps[1:], stamps[2:]) if k1 == k0 + 1]
            passes.append((sum(spans), len(spans)))
        total, calls = min(passes, key=lambda p: p[0] / p[1])
        yield "iteration", "lp-large", f"shards={shards or 1}", calls, 1e6 * total / calls


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


def recorded_gap_check(seed, work_dir):
    """The query, with copies of its vectors, and the other arguments of the
    middle restart-check gap evaluation of the first cone-solve solve of
    the seed."""
    _, cases = workloads.build("cone-solve", seed)
    real, seen = restart.normalized_gap, []

    def recording(q, *args, **kwargs):
        copy = dataclasses.replace(q, x=q.x.copy(), y=q.y.copy(), b1=q.b1.copy(), b2=q.b2.copy())
        seen.append((copy, args, kwargs))
        return real(q, *args, **kwargs)

    path, result = os.path.join(work_dir, "problem.json"), os.path.join(work_dir, "result.json")
    cases[0].instance.write(path)
    restart.normalized_gap = recording
    try:
        cli.main(["--input", path, "--output", result,
                  "--time-limit", str(cases[0].time_limit), *cases[0].options])
    finally:
        restart.normalized_gap = real
    checks = seen[1:]  # the first is the baseline, before the first iteration
    return checks[len(checks) // 2]


def gap_line(seed, repeats, work_dir):
    q, args, kwargs = recorded_gap_check(seed, work_dir)
    real, calls = restart.z_of_t, []

    def counting(*a):
        calls.append(a)
        return real(*a)

    restart.z_of_t = counting
    try:
        restart.normalized_gap(q, *args, **kwargs)
    finally:
        restart.z_of_t = real
    shape = f"n={q.x.size} m={q.y.size} z_of_t={len(calls)}"
    return ("normalized_gap", "cone-solve", shape,
            *timed(lambda: restart.normalized_gap(q, *args, **kwargs), repeats))


def parsed_triplets(path):
    """The parsed problem, and the arguments `parse_problem` passes to
    `SparseMatrix.from_coo`: G's triplets in the file's order."""
    seen = []

    class Recording:
        @staticmethod
        def from_coo(*args):
            seen.append(args)
            return linalg.SparseMatrix.from_coo(*args)

    real, fileio.SparseMatrix = fileio.SparseMatrix, Recording
    try:
        problem = fileio.parse_problem(path)
    finally:
        fileio.SparseMatrix = real
    return problem, seen[0]


def set_up_lines(seed, repeats, work_dir):
    _, (case,) = workloads.build("lp-large", seed)
    path, out = os.path.join(work_dir, "problem.json"), os.path.join(work_dir, "result.json")
    case.instance.write(path)
    del case
    problem, triplets = parsed_triplets(path)
    shape = f"{problem.m}x{problem.n}"
    yield ("parse_problem", "lp-large", shape, *timed(lambda: fileio.parse_problem(path), repeats))
    yield ("from_coo", "lp-large", shape,
           *timed(lambda: linalg.SparseMatrix.from_coo(*triplets), repeats))
    del triplets
    work = model.rsoc_to_soc(problem)
    yield ("build_scaling", "lp-large", shape, *timed(lambda: scaling.build_scaling(work), repeats))
    del work
    options = cli.options_from_args(
        cli.build_parser().parse_args(["--input", path, *workloads.LARGE_OPTIONS]))
    result = engine.solve(problem, options)
    del problem
    yield ("write_result", "lp-large", shape,
           *timed(lambda: fileio.write_result(result, options, out), repeats))
    del result
    yield ("cli_setup", "lp-large", shape, 1,
           cli_setup(["--input", path, "--output", out, "--max-iter", "1"], repeats))


class FirstStep(BaseException):
    """Ends a timed `cli.main` call at its first PDHG step; a BaseException,
    so that no handler of the solver takes it."""


def cli_setup(argv, repeats):
    """Microseconds from calling `cli.main(argv)` to its first
    `engine.adaptive_step_pdhg` call, the fastest of `repeats` calls after
    a first, untimed one."""
    real, times = engine.adaptive_step_pdhg, []

    def first_step(*args, **kwargs):
        raise FirstStep(time.perf_counter())

    engine.adaptive_step_pdhg = first_step
    try:
        for _ in range(repeats + 1):
            t0 = time.perf_counter()
            try:
                cli.main(argv)
            except FirstStep as stamp:
                times.append(stamp.args[0] - t0)
            else:
                raise RuntimeError("cli.main returned before its first PDHG step")
    finally:
        engine.adaptive_step_pdhg = real
    return 1e6 * min(times[1:])


def cone_set_up_lines(seed, repeats, work_dir):
    _, cases = workloads.build("cone-solve", seed)
    problems = [p for p in (parsed(case, work_dir) for case in cases) if p.has_rsoc_blocks()]

    def rotate_all():
        for problem in problems:
            model.rsoc_to_soc(problem)

    yield ("rsoc_to_soc", "cone-solve", f"problems={len(problems)}",
           *timed(rotate_all, repeats))
    argv = ["--input", os.path.join(work_dir, "problem.json"),
            "--output", os.path.join(work_dir, "result.json"),
            "--time-limit", str(cases[0].time_limit), *cases[0].options]
    main_parser = getattr(cli, "_main_parser", cli.build_parser)
    yield ("cli_parse_args", "cone-solve", f"args={len(argv)}",
           *timed(lambda: main_parser().parse_args(argv), repeats))


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
        lines = [*loop_kernel_lines(args.seed, args.repeats, work_dir),
                 *iteration_lines(args.seed, args.repeats, work_dir),
                 projection_line(args.seed, args.repeats, work_dir),
                 gap_line(args.seed, args.repeats, work_dir),
                 *set_up_lines(args.seed, args.repeats, work_dir),
                 *cone_set_up_lines(args.seed, args.repeats, work_dir)]
    for kernel, workload, shape, calls, us in lines:
        print(f"{kernel}\t{workload}\t{shape}\t{calls}\t{us:.2f}", flush=True)


if __name__ == "__main__":
    main()
