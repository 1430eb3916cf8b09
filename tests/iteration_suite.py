"""Iteration counts of 63 planted instances, the gate for algorithm changes.

A change that moves iterates is measured here before it ships: run the
script from the root of both trees and compare the totals.

    python tests/iteration_suite.py > suite.txt

The instances come from the benchmark's generators (perfbench/generate.py
and perfbench/workloads.py, imported, not changed):

* planted LPs of 2000x4000 (500 equality rows), seeds 1-11;
* planted LPs of 3000x6000 (750 equality rows), seeds 1-2;
* infeasible LPs of 2000x4000, seeds 101-110;
* planted conic problems of 60 variables, base seed [777, s] and label
  seed [778, s] for s = 0-23, the exp mix for even s and the rsoc mix for
  odd s;
* the benchmark's seed-3 lp-solve and cone-solve instances.

Each is solved through `conic_pdhg.cli.main` with its workload's options
and `--time-limit 120`.  One tab-separated line per instance gives

    group  instance  status  iterations  objective

where `objective` is `ok` when both objectives of an `:optimal` result lie
within 1e-3 of the planted optimum relative to 1 + |p*|, `miss` when not,
and `-` for instances without one.  Per-group totals follow: instances,
iterations, definitive statuses, and objectives met out of those planted.
"""

import argparse
import json
import os
import sys
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import generate  # noqa: E402
import workloads  # noqa: E402

from conic_pdhg import cli  # noqa: E402

OBJECTIVE_TOL = 1e-3
TIME_LIMIT = "120"
DEFINITIVE = {":optimal", ":primal_infeasible_low_acc", ":primal_infeasible_high_acc",
              ":dual_infeasible_low_acc", ":dual_infeasible_high_acc"}


def rng(seed):
    return np.random.default_rng(seed)


def suite():
    """(group, instance, CLI options) for every instance, in a fixed order."""
    lp, cone = workloads.LP_OPTIONS, workloads.CONE_OPTIONS
    for s in range(1, 12):
        yield "lp 2000x4000", generate.planted_lp(rng(s), rng(s), f"lp-{s}",
                                                  2000, 4000, 8, 500), lp
    for s in (1, 2):
        yield "lp 3000x6000", generate.planted_lp(rng(s), rng(s), f"lp-large-{s}",
                                                  3000, 6000, 8, 750), lp
    for s in range(1, 11):
        yield "infeasible lp", generate.infeasible_lp(rng(100 + s), rng(100 + s),
                                                      f"infeasible-{100 + s}",
                                                      2000, 4000, 8, 500), lp
    for s in range(24):
        kind, mix = ("exp", workloads.EXP_MIX) if s % 2 == 0 else ("rsoc", workloads.RSOC_MIX)
        base = rng([777, s])
        blocks = generate.cone_blocks(base, mix)
        yield "cone", generate.planted_problem(base, rng([778, s]), f"{kind}-{s}",
                                               workloads.CONE_VARIABLES, blocks, 5), cone
    for name in ("lp-solve", "cone-solve"):
        _, cases = workloads.build(name, 3)
        for case in cases:
            yield f"{name} seed 3", case.instance, case.options


def solve(instance, options, work_dir):
    """(status, iterations, objective verdict) of one CLI solve."""
    problem = os.path.join(work_dir, "problem.json")
    result = os.path.join(work_dir, "result.json")
    instance.write(problem)
    code = cli.main(["--input", problem, "--output", result, "--time-limit", TIME_LIMIT, *options])
    if code not in (0, 1):
        raise SystemExit(f"{instance.name}: conic-pdhg exited {code}")
    with open(result) as f:
        doc = json.load(f)
    status = doc["exit_status"]
    p_star = instance.planted_objective
    if p_star is None:
        verdict = "-"
    else:
        miss = max(abs(doc[k] - p_star) for k in ("pObj", "dObj")) / (1.0 + abs(p_star))
        verdict = "ok" if status == ":optimal" and miss <= OBJECTIVE_TOL else "miss"
    return status, doc["iterations"], verdict


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.parse_args(argv)
    warnings.simplefilter("ignore", RuntimeWarning)
    totals = {}
    with tempfile.TemporaryDirectory() as work_dir:
        for group, instance, options in suite():
            status, iterations, verdict = solve(instance, options, work_dir)
            print(f"{group}\t{instance.name}\t{status}\t{iterations}\t{verdict}", flush=True)
            t = totals.setdefault(group, [0, 0, 0, 0, 0])
            t[0] += 1
            t[1] += iterations
            t[2] += status in DEFINITIVE
            t[3] += verdict == "ok"
            t[4] += verdict != "-"
    totals["total"] = [sum(column) for column in zip(*totals.values())]
    print("group\tinstances\titerations\tdefinitive\tobjective ok")
    for group, (count, iterations, definitive, ok, planted) in totals.items():
        print(f"{group}\t{count}\t{iterations}\t{definitive}\t{ok}/{planted}")


if __name__ == "__main__":
    main()
