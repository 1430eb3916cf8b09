"""Planted-optimum benchmark of the conic-pdhg command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload {lp-solve,cone-solve,lp-large} \
        --seed N --seconds S --trace {0,1}

The run generates the workload's instances from the seed, solves each one
through `conic_pdhg.cli.main` in a fresh worker process, checks every result
file against the planted optimum (or the expected status), and prints one
line per metric followed by a JSON summary as the last line.  With
`--trace 0` the summary holds the end-to-end metrics listed in
BENCHMARK.json; with `--trace 1` it runs the instances once untraced and
once traced, checks that both runs agree, and reports the per-layer metrics.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170.0  # the whole run, generation and both workers included
DEFINITIVE = {":optimal", ":primal_infeasible_low_acc", ":primal_infeasible_high_acc",
              ":dual_infeasible_low_acc", ":dual_infeasible_high_acc"}


class BenchError(RuntimeError):
    """The benchmark itself cannot produce a result."""


def _strict_json(path):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    with open(path) as f:
        return json.load(f, parse_constant=reject)


def _git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _environment(args):
    import numpy
    import scipy

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "conic_pdhg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------


def _run_worker(plan, run_dir, tag, t_start):
    plan_path = os.path.join(run_dir, f"plan-{tag}.json")
    out_path = os.path.join(run_dir, f"worker-{tag}.json")
    with open(plan_path, "w") as f:
        json.dump(plan, f)
    remaining = RUN_LIMIT_S - (time.perf_counter() - t_start)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), plan_path, out_path],
            cwd=ROOT, capture_output=True, text=True, timeout=max(remaining, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{tag} worker did not finish within the run limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{tag} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(out_path) as f:
        return json.load(f)


def _plan(cases, trace, rounds, setup_samples, run_dir):
    tag = "traced" if trace else "untraced"
    instances = []
    for k, case in enumerate(cases):
        problem = os.path.join(run_dir, f"{k:02d}-{case.instance.name}.json")
        argv = ["--input", problem, "--output", problem[:-5] + f".{tag}.json",
                "--time-limit", repr(case.time_limit), *case.options]
        probe = ["--input", problem, "--output", problem[:-5] + ".probe.json",
                 "--time-limit", repr(case.time_limit), *case.options, "--max-iter", "1"]
        instances.append({"name": case.instance.name, "argv": argv, "probe_argv": probe,
                          "result": argv[3]})
    return {
        "src": SRC,
        "trace": trace,
        "instances": instances,
        "rounds": rounds,
        "setup_samples": setup_samples,
        "spans_path": os.path.join(run_dir, "spans.npz"),
    }


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _check(case, rec, result_path, objective_tol):
    """(failure, wrong): why the call failed, and whether it failed by
    returning a wrong answer rather than by raising."""
    if rec["error"] is not None:
        return rec["error"], False
    inst = case.instance
    try:
        doc = _strict_json(result_path)
    except (OSError, ValueError) as exc:
        return f"unparsable result file: {exc}", True
    status = doc.get("exit_status")
    if status != inst.expected_status:
        return f"status {status}, expected {inst.expected_status}", True
    if rec["code"] != (0 if status in DEFINITIVE else 1):
        return f"exit code {rec['code']} does not match status {status}", True
    if doc.get("iterations") != rec.get("iterations"):
        return "result file disagrees with the returned result", True
    n, m = inst.document["n"], inst.document["m"]
    if (len(doc.get("primal", ())), len(doc.get("dual", ())), len(doc.get("slack", ()))) != (n, m, m):
        return "result vectors have the wrong lengths", True
    if not all(isinstance(doc.get(k), (int, float)) and math.isfinite(doc[k]) for k in ("pObj", "dObj")):
        return "objective values are not finite", True
    p_star = inst.planted_objective
    if status == ":optimal":
        for key in ("pObj", "dObj"):
            miss = abs(doc[key] - p_star) / (1.0 + abs(p_star))
            if miss > objective_tol:
                return f"{key} misses the planted optimum by {miss:.2e} (bound {objective_tol:g})", True
    return None, False


_SUMMARY = ("error", "status", "iterations", "p_obj", "d_obj", "restarts", "products")


def _summary(rec):
    error = rec["error"].split(":")[0] if rec["error"] else None
    return (error,) + tuple(rec.get(k) for k in _SUMMARY[1:])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _end_to_end(cases, worker, failures):
    calls = worker["calls"]
    solve = sum(case.time_limit if failures[k] else statistics.median(r["wall_s"] for r in recs)
                for k, (case, recs) in enumerate(zip(cases, calls)))
    timed = [(statistics.median(r["loop_s"] for r in recs), recs[-1]["iterations"])
             for recs in calls if recs[-1]["loop_s"] is not None and recs[-1].get("iterations")]
    iters = sum(it for _, it in timed)
    setup = [statistics.median(s) for s in worker["setup_samples"].values() if s]
    return {
        "solve_s": (solve, "s"),
        "setup_s": (sum(setup), "s"),
        "loop_ms_per_iter": (1000.0 * sum(t for t, _ in timed) / iters if iters else 0.0, "ms"),
        "iterations": (sum(recs[-1].get("iterations") or 0 for recs in calls), "count"),
        "fail_rate": (sum(bool(f) for f in failures) / len(cases), "ratio"),
        "peak_rss_mb": (worker["peak_rss_kb"] / 1024.0, "MB"),
        "calls_per_instance": (statistics.mean(len(recs) for recs in calls), "count"),
    }


def _per_layer(cases, untraced, traced):
    layers, counters = traced["layers"], traced["counters"]
    metrics = {}

    def layer(name, field, unit="s", key=None):
        tot = layers.get(name)
        metrics[key or f"{name}.{field}"] = (tot[field] if tot else 0, unit)

    for name in layers:
        layer(name, "calls", "count")
        layer(name, "s")
        layer(name, "self_s")
    layer("restart.normalized_gap", "failed", "count")
    for key in ("engine.line_search.trials", "engine.line_search.rejections",
                "restart.normalized_gap.negative", "restart.should_restart.fired",
                "fileio.parse_problem.bytes", "fileio.write_result.bytes"):
        metrics[key] = (counters.get(key, 0), "B" if key.endswith("bytes") else "count")

    blocks = 0
    for case, calls in zip(cases, traced["per_instance"]):
        b = case.instance.blocks
        blocks += b * (calls.get("cones.project_dual_set", 0) + calls.get("cones.project_dual_residual_set", 0))
        blocks += calls.get("cones.project_primal_set", 0)  # the box is one block
    cone_s = sum(tot["s"] for name, tot in layers.items() if name.startswith("cones."))
    metrics["cones.blocks"] = (blocks, "count")
    metrics["cones.us_per_block"] = (1e6 * cone_s / blocks if blocks else 0.0, "us")
    metrics["linalg.product.bytes_computed"] = (
        sum(recs[0]["product_bytes"] for recs in traced["calls"]), "B")
    metrics["linalg.products"] = (sum(recs[0]["products"] for recs in traced["calls"]), "count")

    wall_t = sum(recs[0]["wall_s"] for recs in traced["calls"])
    wall_u = sum(recs[0]["wall_s"] for recs in untraced["calls"])
    metrics["trace.overhead"] = (wall_t / wall_u - 1.0, "ratio")
    metrics["trace.untraced_s"] = (wall_u, "s")
    metrics["trace.self_s_total"] = (sum(tot["self_s"] for tot in layers.values()), "s")
    metrics["trace.absent_layers"] = (len(traced["absent"]), "count")
    return metrics


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(args, t_start):
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    spec = _benchmark_spec()
    env = _environment(args)
    print("env " + json.dumps(env, sort_keys=True))

    run_dir = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        summary, record = _measure(args, spec, run_dir, t_start)
    finally:
        # problem, result and plan files; the record and the spans stay
        for name in os.listdir(run_dir):
            if name.endswith(".json"):
                os.remove(os.path.join(run_dir, name))
    with open(os.path.join(run_dir, "record.json"), "w") as f:
        json.dump(dict(record, environment=env), f, indent=1)
    print(json.dumps(summary))
    return 0


def _measure(args, spec, run_dir, t_start):
    import workloads

    workload, cases = workloads.build(args.workload, args.seed)
    sizes = []
    for k, case in enumerate(cases):
        sizes.append(case.instance.write(os.path.join(run_dir, f"{k:02d}-{case.instance.name}.json")))
        # keep only what the checks need; lp-large's document is large
        case.instance.document = {key: case.instance.document[key] for key in ("n", "m")}
    print(f"generated {len(cases)} instances, {sum(sizes)} bytes, "
          f"in {time.perf_counter() - t_start:.2f} s")

    if args.trace:
        # one untraced and one traced round over the same instances
        plans = [_plan(cases, False, 1, 0, run_dir), _plan(cases, True, 1, 0, run_dir)]
    else:
        plans = [_plan(cases, False, workload.rounds(args.seconds),
                       workload.setup_samples, run_dir)]
    workers = [_run_worker(plan, run_dir, "traced" if plan["trace"] else "untraced", t_start)
               for plan in plans]
    untraced, traced = workers[0], (workers[1] if args.trace else None)

    failures, wrong_msgs = [], []
    for k, case in enumerate(cases):
        failure, wrong = None, False
        for plan, worker in zip(plans, workers):
            recs = worker["calls"][k]
            f, w = _check(case, recs[-1], plan["instances"][k]["result"], workload.objective_tol)
            failure, wrong = failure or f, wrong or w
            if any(_summary(r) != _summary(recs[0]) for r in recs):
                failure, wrong = "repeated calls disagree", True
        if traced is not None and _summary(traced["calls"][k][0]) != _summary(untraced["calls"][k][0]):
            failure, wrong = "traced and untraced runs disagree", True
        failures.append(failure)
        if wrong:
            wrong_msgs.append(f"{case.instance.name}: {failure}")
        rec = untraced["calls"][k][-1]
        print(f"instance {case.instance.name}: {'FAIL ' + failure if failure else 'ok'}; "
              f"status {rec.get('status')} iterations {rec.get('iterations')} "
              f"wall {rec['wall_s']:.3f} s planted {case.instance.planted_objective}")

    metrics = _end_to_end(cases, untraced, failures)
    if traced is not None:
        metrics.update(_per_layer(cases, untraced, traced))
        if traced["absent"]:
            print("absent layers: " + ", ".join(traced["absent"]))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")
    attempted = sum(len(recs) for recs in untraced["calls"])
    failed = sum(len(recs) for recs, f in zip(untraced["calls"], failures) if f)
    summary = {
        "correct": not wrong_msgs,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    record = {"failures": dict(zip((c.instance.name for c in cases), failures)),
              "wrong": wrong_msgs, "metrics": {k: v[0] for k, v in metrics.items()}, "summary": summary}
    for msg in wrong_msgs:
        print("WRONG " + msg)
    return summary, record


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "conic_pdhg", "cli.py")):
        sys.stderr.write(f"perfbench: no solver sources under {SRC}\n")
        return 2
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, HERE)
    try:
        return run(args, t_start)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
