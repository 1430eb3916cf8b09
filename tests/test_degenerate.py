"""Degenerate instances end with an exit-table code, never an exception.

Each instance is solved under the default options, the fixed-step mode,
KKT restarts and the average restart candidate.  Where the status is
optimal, the objective must match the closed-form optimum; where the
instance is infeasible, every mode must certify it.
"""

import math

import numpy as np
import pytest

from conic_pdhg import termination as term
from conic_pdhg.engine import SolverOptions, solve
from conic_pdhg.linalg import SparseMatrix
from conic_pdhg.model import Cone, ConeSpec, ConicProblem

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def problem(c, G, h, l, u, dual_cones, primal_cones=()):
    c = np.asarray(c, dtype=float)
    return ConicProblem(
        c=c,
        G=SparseMatrix(np.asarray(G, dtype=float).reshape(len(h), len(c))),
        h=np.asarray(h, dtype=float),
        l=np.asarray(l, dtype=float),
        u=np.asarray(u, dtype=float),
        num_box=len(l),
        primal_cones=primal_cones,
        dual_cones=dual_cones,
    )


NONNEG2 = (ConeSpec(Cone.NONNEG, 2),)

# name -> (problem, optimal objective or None for a primal-infeasible instance)
INSTANCES = {
    # min x1 - x2 over [0, 1]^2 with G = 0: rows 0 >= -1 and 0 >= 0
    "zero G, feasible": (problem([1, -1], np.zeros((2, 2)), [-1, 0], [0, 0], [1, 1], NONNEG2), -1.0),
    # the row 0 >= 1 has no solution
    "zero G, primal infeasible": (problem([1, -1], np.zeros((2, 2)), [1, 0], [0, 0], [1, 1], NONNEG2), None),
    # row 2 and column 2 are empty: x = (0, *, 2)
    "empty row and column": (
        problem([1, 0, -1], [[1, 0, 1], [0, 0, 0]], [0.5, 0], [0, -1, 0], [2, 1, 2], NONNEG2), -2.0
    ),
    # x1 + 2 x2 = 1 twice, once negated: x = (-3, 2)
    "opposite equality rows": (
        problem([1, 1], [[1, 2], [-1, -2]], [1, -1], [-3, -3], [3, 3], (ConeSpec(Cone.ZERO, 2),)), -1.0
    ),
    # min x1 s.t. x1 + x2 >= 1 with x2 free at zero cost
    "zero-cost free variable": (
        problem([1, 0], [[1, 1]], [1], [0, -math.inf], [5, math.inf], (ConeSpec(Cone.NONNEG, 1),)), 0.0
    ),
    # min a + b over the primal rotated cone 2 a b >= s^2 with s = 1
    "primal rsoc block": (
        problem([0, 1, 1, 0], [[0, 0, 0, 1]], [1], [-5], [5], (ConeSpec(Cone.ZERO, 1),),
                (ConeSpec(Cone.RSOC, 3),)),
        math.sqrt(2.0),
    ),
    # no variables: the rows 0 >= -1 and 0 >= 0 hold
    "n = 0": (problem([], np.zeros((2, 0)), [-1, 0], [], [], NONNEG2), 0.0),
    # min x1 + x2 s.t. x1 + x2 >= 1 twice
    "duplicate inequality rows": (problem([1, 1], [[1, 1], [1, 1]], [1, 1], [0, 0], [5, 5], NONNEG2), 1.0),
    # min x1 + 2 x2 s.t. x1 + x2 = 1 twice: x = (1, 0)
    "duplicate equality rows": (
        problem([1, 2], [[1, 1], [1, 1]], [1, 1], [0, 0], [5, 5], (ConeSpec(Cone.ZERO, 2),)), 1.0
    ),
    # costs spread over 1e18: x = (0, 0, 1) on x1 + x2 + x3 >= 1 in [0, 5]^3
    "cost range 1e18": (
        problem([1e12, 1, 1e-6], [[1, 1, 1]], [1], [0, 0, 0], [5, 5, 5], (ConeSpec(Cone.NONNEG, 1),)),
        1e-6,
    ),
}

MODES = {
    "default": {},
    "fixed step": dict(use_adaptive_step_size_weight=False),
    "kkt": dict(use_kkt_restart=True, use_duality_gap_restart=False),
    "average": dict(method="average"),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", INSTANCES)
def test_degenerate_instance_ends_with_exit_code(name, mode):
    p, optimum = INSTANCES[name]
    opts = SolverOptions(max_iter=1000, duality_gap_restart_freq=100, kkt_restart_freq=100,
                         **MODES[mode])
    r = solve(p, opts)
    assert term.EXIT_STATUS[r.exit_code] == r.exit_status
    assert r.x.shape == (p.n,) and r.y.shape == (p.m,) and r.slack.shape == (p.m,)
    if optimum is None:
        assert r.exit_code in (term.EXIT_PRIMAL_INFEASIBLE_LOW, term.EXIT_PRIMAL_INFEASIBLE_HIGH)
    elif r.exit_code == term.EXIT_OPTIMAL:
        assert r.p_obj == pytest.approx(optimum, abs=1e-4)
