"""Digests of 54 solves, for checking that a change keeps every iterate.

The set is six problems (a feasible, a primal-infeasible and a
dual-infeasible LP, and three planted soc/exp/dual-exp problems) under three
modes (default, no preconditioner, no restarts) at restart cadences 200,
512 (the default) and 2000.  Each
solve prints one tab-separated line:

    cadence  problem  mode  status  iterations  digest

The SHA-1 digest covers `traces.digest` of the loop state at every
iteration callback (the iterates and scalars, and the restart bookkeeping:
the last restart metric, the previous candidate's metric and the anchor's
move) and every result field except `iterations` and the wall time, so two
trees that follow the same iterates and restart decisions print the same
lines.  A
last line gives the total iteration count.  Run it from the root of each
tree and diff the outputs:

    python tests/bitwise_digests.py --max-iter 3000 > digests.txt

`--fail-gap-every N` makes every N-th gap evaluation of each solve raise
`GapEvaluationError`, so the solves also cover the loop's fall-back to
weighted-KKT checks and the restarts and baselines that follow one.  A
fall-back that restarts where the gap would have leaves the iterates as
they were but not the restart bookkeeping, so the lines differ from the
plain run's: at `--max-iter 3000` and N = 3, 16 of the 54 solves do.
"""

import argparse
import hashlib
import os
import sys
import warnings

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from test_lean_iteration import random_lp  # noqa: E402
from test_termination_scan import (  # noqa: E402
    MODES,
    dual_infeasible_lp,
    planted_conic,
    primal_infeasible_lp,
)
from traces import digest, failing_every  # noqa: E402

from conic_pdhg import restart  # noqa: E402
from conic_pdhg.engine import SolverOptions, solve  # noqa: E402

PROBLEMS = {
    "feasible lp": lambda: random_lp(5, n=6, m=4),
    "primal-infeasible lp": primal_infeasible_lp,
    "dual-infeasible lp": dual_infeasible_lp,
    **{f"planted conic {seed}": (lambda seed=seed: planted_conic(seed)) for seed in (1, 2, 3)},
}

CADENCES = (200, 512, 2000)


def solve_digest(problem, max_iter, cadence, mode, fail_gap_every=None):
    """(status, iterations, hex digest) of one solve."""
    h = hashlib.sha1()

    def record(state):
        k_bar, state_digest = digest(state)
        h.update(np.int64(k_bar).tobytes())
        h.update(state_digest)

    options = SolverOptions(max_iter=max_iter, duality_gap_restart_freq=cadence,
                            iteration_callback=record, **MODES[mode])
    real = restart.normalized_gap
    if fail_gap_every is not None:
        restart.normalized_gap = failing_every(fail_gap_every)
    try:
        r = solve(problem, options)
    finally:
        restart.normalized_gap = real
    for v in (r.x, r.y, r.lam, r.slack, [r.p_obj, r.d_obj, r.exit_code, r.restarts]):
        h.update(np.asarray(v, dtype=np.float64).tobytes())
    h.update(r.exit_status.encode())
    return r.exit_status, r.iterations, h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-iter", type=int, default=3000)
    parser.add_argument("--fail-gap-every", type=int, metavar="N",
                        help="make every N-th gap evaluation of each solve raise")
    args = parser.parse_args(argv)
    if args.fail_gap_every is not None and args.fail_gap_every < 1:
        parser.error("--fail-gap-every must be at least 1")
    warnings.simplefilter("ignore", RuntimeWarning)
    total = 0
    for cadence in CADENCES:
        for name, make in PROBLEMS.items():
            for mode in MODES:
                status, iterations, hexdigest = solve_digest(
                    make(), args.max_iter, cadence, mode, args.fail_gap_every)
                total += iterations
                print(f"{cadence}\t{name}\t{mode}\t{status}\t{iterations}\t{hexdigest}", flush=True)
    print(f"total iterations\t{total}")


if __name__ == "__main__":
    main()
