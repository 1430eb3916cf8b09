"""The benchmark's workloads: which planted instances each one solves, and
with which CLI options.  README.md gives the reasons for each choice.

The solve-to-tolerance workloads have a fixed suite of base problems, drawn
from constant seeds, and the run's `--seed` draws an exact relabelling of
each (generate._relabel): the files differ from seed to seed, the iterates
do not.  Iteration counts of this solver are chaotic in rounding, so a suite
that changed with the seed would put that chaos into every end-to-end metric
(README.md has the measurements).  lp-large stops at a fixed iteration cap,
so its work does not depend on the values and the seed draws a fresh problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import generate

_BASE_SEED = 20260317


@dataclass
class Case:
    """One CLI call of a workload."""

    instance: generate.Instance
    options: tuple[str, ...]
    time_limit: float


@dataclass(frozen=True)
class Workload:
    name: str
    objective_tol: float  # planted-objective bound, relative to 1 + |p*|
    index: int
    fresh: bool  # draw the base problems from the run's seed
    round_s: float  # seconds one round over the instances takes on a 2-vCPU VM
    setup_samples: int  # set-up timings per instance; setup_s sums their medians

    def rounds(self, seconds: float) -> int:
        """Whole rounds that fill `seconds` on the reference machine.  The
        count depends on `seconds` only, never on the measured speed, so
        that every run makes the same calls and `attempted` and `failed`
        repeat exactly."""
        return max(1, round(seconds / self.round_s))

    def rngs(self, seed: int, k: int):
        base = np.random.default_rng([seed if self.fresh else _BASE_SEED, self.index, k])
        label = np.random.default_rng([seed, self.index, k])
        return base, label


LP_OPTIONS = ("--rel-tol", "1e-4", "--abs-tol", "1e-4")
CONE_OPTIONS = ("--rel-tol", "1e-3", "--abs-tol", "1e-3", "--gap-restart-freq", "200")
LARGE_ITERATIONS = 200
LARGE_OPTIONS = LP_OPTIONS + ("--max-iter", str(LARGE_ITERATIONS))

EXP_MIX = {"zero": 4, "nonneg": 10, "soc": 8, "exp": 4, "dual_exp": 3}
RSOC_MIX = {"zero": 4, "nonneg": 10, "soc": 8, "rsoc": 7}
# Rotated blocks together with exp blocks: rejected at presolve (see README).
RSOC_EXP_MIX = {"zero": 4, "nonneg": 10, "soc": 4, "exp": 3, "rsoc": 3}
CONE_PAIRS = 6  # EXP_MIX and RSOC_MIX instances each
CONE_VARIABLES = 60


def lp_solve(w: Workload, seed: int) -> list[Case]:
    cases = []
    for k in range(2):
        inst = generate.planted_lp(*w.rngs(seed, k), f"lp-{k}", 2000, 4000, 8, 500)
        cases.append(Case(inst, LP_OPTIONS, 60.0))
    inst = generate.infeasible_lp(*w.rngs(seed, 2), "lp-infeasible", 2000, 4000, 8, 500)
    cases.append(Case(inst, LP_OPTIONS, 30.0))
    return cases


def cone_solve(w: Workload, seed: int) -> list[Case]:
    cases = []
    for k in range(2 * CONE_PAIRS):
        kind, mix = ("exp", EXP_MIX) if k % 2 == 0 else ("rsoc", RSOC_MIX)
        base, label = w.rngs(seed, k)
        blocks = generate.cone_blocks(base, mix)
        inst = generate.planted_problem(base, label, f"{kind}-{k // 2}", CONE_VARIABLES, blocks, 5)
        cases.append(Case(inst, CONE_OPTIONS, 30.0))
    base, label = w.rngs(seed, 2 * CONE_PAIRS)
    blocks = generate.cone_blocks(base, RSOC_EXP_MIX)
    inst = generate.planted_problem(base, label, "rsoc-exp", CONE_VARIABLES, blocks, 5)
    cases.append(Case(inst, CONE_OPTIONS, 5.0))
    return cases


def lp_large(w: Workload, seed: int) -> list[Case]:
    inst = generate.planted_lp(*w.rngs(seed, 0), "lp-large", 40000, 80000, 8, 10000)
    inst.expected_status = ":max_iter"
    return [Case(inst, LARGE_OPTIONS, 120.0)]


WORKLOADS = {
    "lp-solve": (Workload("lp-solve", 1e-4, 0, False, 15.0, 9), lp_solve),
    "cone-solve": (Workload("cone-solve", 1e-3, 1, False, 15.0, 9), cone_solve),
    "lp-large": (Workload("lp-large", 1e-4, 2, True, 6.0, 5), lp_large),
}


def build(name: str, seed: int) -> tuple[Workload, list[Case]]:
    workload, make = WORKLOADS[name]
    return workload, make(workload, seed)
