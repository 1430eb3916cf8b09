"""Degenerate instances end with an exit-table code, never an exception.

Each instance is solved in five modes: the default options, every third
gap evaluation failing (so that the restart checks also run the weighted
KKT fallback), no preconditioner, no restarts and the initial step size
from the induced infinity norm.  Where the status is optimal, the
objective must match the closed-form optimum; where the instance is
infeasible, every mode must certify it.  Instances with
entries near the ends of the double range must end with a code too, and a
bounded problem must not be certified dual infeasible whatever the scale
of its cost, nor a row of subnormal coefficients be read as satisfied.
"""

import math

import numpy as np
import pytest

from traces import FAILING_GAP, failing_every

from conic_pdhg import restart
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
    "failing gap": FAILING_GAP,
    "no preconditioner": dict(use_preconditioner=False),
    "no restarts": dict(use_adaptive_restart=False),
    "induced-inf initial step": dict(initial_step_norm="induced_inf"),
}


def solve_in_mode(p, mode, monkeypatch, **kw):
    """Solve `p` with checks every 100 of at most 1000 iterations, under
    MODES[mode] and then the options `kw`."""
    kw = {"max_iter": 1000, "duality_gap_restart_freq": 100, **MODES[mode], **kw}
    if "fail_gap_every" in kw:
        monkeypatch.setattr(restart, "normalized_gap", failing_every(kw.pop("fail_gap_every")))
    return solve(p, SolverOptions(**kw))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", INSTANCES)
def test_degenerate_instance_ends_with_exit_code(name, mode, monkeypatch):
    p, optimum = INSTANCES[name]
    r = solve_in_mode(p, mode, monkeypatch)
    assert term.EXIT_STATUS[r.exit_code] == r.exit_status
    assert r.x.shape == (p.n,) and r.y.shape == (p.m,) and r.slack.shape == (p.m,)
    if optimum is None:
        assert r.exit_code in (term.EXIT_PRIMAL_INFEASIBLE_LOW, term.EXIT_PRIMAL_INFEASIBLE_HIGH)
    elif r.exit_code == term.EXIT_OPTIMAL:
        assert r.p_obj == pytest.approx(optimum, abs=1e-4)


# name -> (problem, options)
EXTREME = {
    # ||c|| overflows, so the initial primal weight ||c|| / ||h|| would be
    # inf: x = (0, 1) with objective 1
    "cost 1e308": (problem([1e308, 1], [[1, 1]], [1], [0, 0], [5, 5], (ConeSpec(Cone.NONNEG, 1),)),
                   {}),
    "cost 1e308, no preconditioner": (
        problem([1e308, 1], [[1, 1]], [1], [0, 0], [5, 5], (ConeSpec(Cone.NONNEG, 1),)),
        dict(use_preconditioner=False),
    ),
    # ||h|| overflows, so the weight would be 0; the second row always holds
    "right-hand side -1e308": (problem([1, 1], [[1, 1], [1, 0]], [1, -1e308], [0, 0], [5, 5], NONNEG2),
                               {}),
    # 1 / max|G_ij| is inf for a subnormal largest entry
    "subnormal G, no preconditioner": (
        problem([1, 1], [[1e-310, 1e-310]], [1e-310], [0, 0], [5, 5], (ConeSpec(Cone.NONNEG, 1),)),
        dict(use_preconditioner=False),
    ),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", EXTREME)
def test_extreme_magnitudes_end_with_exit_code(name, mode, monkeypatch):
    p, options = EXTREME[name]
    r = solve_in_mode(p, mode, monkeypatch, **options)
    assert term.EXIT_STATUS[r.exit_code] == r.exit_status
    assert r.x.shape == (p.n,) and r.y.shape == (p.m,) and r.slack.shape == (p.m,)


def readme_example(s):
    """The README's problem with cost (s, s): minimize s (x1 + x2) over
    ||(x1, x2)|| <= 1 in the box [-5, 5]^2, bounded with optimum -s sqrt(2)."""
    G = np.zeros((3, 2))
    G[1, 0] = G[2, 1] = 1.0
    return problem([s, s], G, [-1, 0, 0], [-5, -5], [5, 5], (ConeSpec(Cone.SOC, 3),))


@pytest.mark.parametrize("s", [
    1e6,
    # primal_ray_quality divides an O(1) error by a ray objective of size
    # ||c||, so a large cost passes the ratio test (CHANGES.md FOUND:)
    pytest.param(1e12, marks=pytest.mark.xfail(strict=True, reason="dual_infeasible_low_acc")),
    pytest.param(1e16, marks=pytest.mark.xfail(strict=True, reason="dual_infeasible_high_acc")),
])
def test_bounded_problem_is_not_dual_infeasible_at_any_cost_scale(s):
    r = solve(readme_example(s), SolverOptions(max_iter=20000))
    assert r.exit_code not in (term.EXIT_DUAL_INFEASIBLE_LOW, term.EXIT_DUAL_INFEASIBLE_HIGH)
    if r.exit_code == term.EXIT_OPTIMAL:
        assert r.p_obj == pytest.approx(-s * math.sqrt(2), rel=1e-4)


@pytest.mark.xfail(strict=True, reason="ends :optimal at x = 0 (CHANGES.md FOUND:, the row "
                                       "1e-310 (x1 + x2) >= 1e-310)")
def test_subnormal_row_is_not_solved_at_zero():
    # x1 + x2 >= 1 written with subnormal coefficients has optimum 1; the
    # exit tests read the row's violation of x = 0 as 1e-310
    p = problem([1, 1], [[1e-310, 1e-310]], [1e-310], [0, 0], [5, 5], (ConeSpec(Cone.NONNEG, 1),))
    for precondition in (True, False):
        r = solve(p, SolverOptions(use_preconditioner=precondition))
        if r.exit_code == term.EXIT_OPTIMAL:
            assert r.p_obj == pytest.approx(1.0, abs=1e-4)
