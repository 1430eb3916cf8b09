"""Digests of 54 solves, for checking that a change keeps every iterate.

The set is six problems (a feasible, a primal-infeasible and a
dual-infeasible LP, and three planted soc/exp/dual-exp problems) under three
modes (default, no preconditioner, no restarts) at restart cadences 200,
512 (the default) and 2000.  Each
solve prints one tab-separated line:

    cadence  problem  mode  status  iterations  iterate  bookkeeping  result

The three digests are SHA-1s.  The iterate digest covers, at every
iteration callback, `traces.iterate_digest` of the loop state: the
iterate, the anchor, the step sizes, the primal weight, the reflection
parameter and the iteration and restart counters.  The bookkeeping digest
covers `traces.bookkeeping_digest` at every callback: the last restart
metric, the previous candidate's metric, the anchor's move and the restart
mode.  The result digest covers every result field except `iterations` and
the wall time.  Two trees that follow the same iterates and restart
decisions print the same iterate digests, whatever their restart metrics'
last bits; a change to how a gap is evaluated that moves no decision moves
only bookkeeping digests, and a change to how the result is built from
the last iterate moves only result digests.  A last line gives the total
iteration count.  Run it from the root of each tree and diff the outputs:

    python tests/bitwise_digests.py --max-iter 3000 > digests.txt

`--fail-gap-every N` makes every N-th gap evaluation of each solve raise
`GapEvaluationError`, so the solves also cover the loop's fall-back to
weighted-KKT checks and the restarts and baselines that follow one.  A
fall-back that restarts where the gap would have leaves the iterates as
they were but not the restart bookkeeping, so the bookkeeping digests
differ from the plain run's.

`--shards K` runs every solve on K shards (`traces.forced_shards`), the
thresholds under which a solve runs one shard set aside.  Every entry of
a sharded iteration is computed as on one shard, so the output is the
same at every K.

`--setup` prints, instead of the solves, one SHA-1 line per benchmark
problem (lp-solve and cone-solve seeds 1-4, lp-large seed 3, generated by
perfbench/workloads.py into a temporary directory) over what set-up builds
from its file: the parsed G, the G, h and c of `rsoc_to_soc`, the scales of
`build_scaling`, the G, c and h of `rescale_problem`, the induced infinity
norms of the parsed and the scaled G, and `SparseMatrix` of the parsed G as
a dense array, where it has at most 10^7 entries (all but lp-large).
Matrices enter with their shape and index dtypes.  A change to how G is
built or scaled that keeps every bit keeps these lines.
"""

import argparse
import contextlib
import hashlib
import os
import sys
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from test_lean_iteration import random_lp  # noqa: E402
from test_termination_scan import (  # noqa: E402
    MODES,
    dual_infeasible_lp,
    planted_conic,
    primal_infeasible_lp,
)
from traces import bookkeeping_digest, failing_every, forced_shards, iterate_digest  # noqa: E402

from conic_pdhg import restart  # noqa: E402
from conic_pdhg.engine import SolverOptions, solve  # noqa: E402
from conic_pdhg.fileio import parse_problem  # noqa: E402
from conic_pdhg.linalg import SparseMatrix  # noqa: E402
from conic_pdhg.model import rsoc_to_soc  # noqa: E402
from conic_pdhg.scaling import build_scaling, rescale_problem  # noqa: E402

PROBLEMS = {
    "feasible lp": lambda: random_lp(5, n=6, m=4),
    "primal-infeasible lp": primal_infeasible_lp,
    "dual-infeasible lp": dual_infeasible_lp,
    **{f"planted conic {seed}": (lambda seed=seed: planted_conic(seed)) for seed in (1, 2, 3)},
}

CADENCES = (200, 512, 2000)

SETUP_PROBLEMS = (*((name, seed) for name in ("lp-solve", "cone-solve") for seed in (1, 2, 3, 4)),
                  ("lp-large", 3))
DENSE_ENTRIES = 10**7


def solve_digest(problem, max_iter, cadence, mode, fail_gap_every=None):
    """(status, iterations, iterate digest, bookkeeping digest, result
    digest) of one solve, the digests in hex."""
    iterates, bookkeeping = hashlib.sha1(), hashlib.sha1()

    def record(state):
        iterates.update(iterate_digest(state))
        bookkeeping.update(bookkeeping_digest(state))

    options = SolverOptions(max_iter=max_iter, duality_gap_restart_freq=cadence,
                            iteration_callback=record, **MODES[mode])
    real = restart.normalized_gap
    if fail_gap_every is not None:
        restart.normalized_gap = failing_every(fail_gap_every)
    try:
        r = solve(problem, options)
    finally:
        restart.normalized_gap = real
    result = hashlib.sha1()
    for v in (r.x, r.y, r.lam, r.slack, [r.p_obj, r.d_obj, r.exit_code, r.restarts]):
        result.update(np.asarray(v, dtype=np.float64).tobytes())
    result.update(r.exit_status.encode())
    return (r.exit_status, r.iterations, iterates.hexdigest(), bookkeeping.hexdigest(),
            result.hexdigest())


def setup_digest(path):
    """The SHA-1, in hex, of what set-up builds from the problem file."""
    digest = hashlib.sha1()

    def add(*arrays):
        for a in map(np.asarray, arrays):
            digest.update(f"{a.dtype.str}{a.shape}".encode())
            digest.update(a.tobytes())

    def add_matrix(g):
        add(g.shape, g.indptr, g.indices, g.data)

    problem = parse_problem(path)
    add_matrix(problem.G)
    work = rsoc_to_soc(problem)
    add_matrix(work.G)
    add(work.h, work.c)
    scales = build_scaling(work)
    add(scales.d1, scales.d2)
    scaled = rescale_problem(work, scales)
    add_matrix(scaled.G)
    add(scaled.c, scaled.h)
    add([problem.G.induced_inf_norm(), scaled.G.induced_inf_norm()])
    if problem.m * problem.n <= DENSE_ENTRIES:
        add_matrix(SparseMatrix(problem.G.toarray()))
    return digest.hexdigest()


def print_setup_digests():
    """One line per benchmark problem: workload, seed, instance, digest."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    with tempfile.TemporaryDirectory() as work_dir:
        path = os.path.join(work_dir, "problem.json")
        for name, seed in SETUP_PROBLEMS:
            for case in workloads.build(name, seed)[1]:
                case.instance.write(path)
                print("\t".join([name, str(seed), case.instance.name, setup_digest(path)]),
                      flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-iter", type=int, default=3000)
    parser.add_argument("--fail-gap-every", type=int, metavar="N",
                        help="make every N-th gap evaluation of each solve raise")
    parser.add_argument("--shards", type=int, metavar="K",
                        help="run every solve on K shards, whatever its size")
    parser.add_argument("--setup", action="store_true",
                        help="print the set-up digests of the benchmark's problems instead")
    args = parser.parse_args(argv)
    if args.setup:
        print_setup_digests()
        return
    if args.fail_gap_every is not None and args.fail_gap_every < 1:
        parser.error("--fail-gap-every must be at least 1")
    if args.shards is not None and args.shards < 1:
        parser.error("--shards must be at least 1")
    warnings.simplefilter("ignore", RuntimeWarning)
    total = 0
    with forced_shards(args.shards) if args.shards else contextlib.nullcontext():
        for cadence in CADENCES:
            for name, make in PROBLEMS.items():
                for mode in MODES:
                    status, iterations, *digests = solve_digest(
                        make(), args.max_iter, cadence, mode, args.fail_gap_every)
                    total += iterations
                    print("\t".join([str(cadence), name, mode, status, str(iterations),
                                      *digests]), flush=True)
    print(f"total iterations\t{total}")


if __name__ == "__main__":
    main()
