"""Optimality error metrics, the adaptive reflection parameter, and exit logic.

Three metric families share the same residual vectors:

* 2-norm absolutes feeding the weighted KKT error, the restart checks'
  fallback when a gap evaluation fails,
* their 1-norm-denominator relatives feeding maxErr and the reflection rule,
* infinity-norm absolutes/relatives feeding the termination test.

`compute_errors` evaluates all three from one residual evaluation: on the
original problem at termination scans, on the scaled one for the KKT
fallback and for the reflection parameter (at the first iteration of
every inner loop and every 64 iterations).  The solve loop passes the
products it keeps for the point in each case, so none forms a product.

The metrics and the infeasibility certificates read the problem's box facts
(`ConicProblem.box`, built once per instance): the multiplier set Lambda,
the recession cone of the box, the finite bounds and the 1-norm denominators.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import cones
from .linalg import NumericalError, inf_norm, two_norm
from .model import ConicProblem, dual_objective, recover_dual

EXIT_OPTIMAL = 0
EXIT_MAX_ITER = 1
EXIT_PRIMAL_INFEASIBLE_LOW = 2
EXIT_PRIMAL_INFEASIBLE_HIGH = 3
EXIT_DUAL_INFEASIBLE_LOW = 4
EXIT_DUAL_INFEASIBLE_HIGH = 5
EXIT_TIME_LIMIT = 6
EXIT_CONTINUE = 7
EXIT_NUMERICAL_ERROR = 8

EXIT_STATUS = {
    EXIT_OPTIMAL: ":optimal",
    EXIT_MAX_ITER: ":max_iter",
    EXIT_PRIMAL_INFEASIBLE_LOW: ":primal_infeasible_low_acc",
    EXIT_PRIMAL_INFEASIBLE_HIGH: ":primal_infeasible_high_acc",
    EXIT_DUAL_INFEASIBLE_LOW: ":dual_infeasible_low_acc",
    EXIT_DUAL_INFEASIBLE_HIGH: ":dual_infeasible_high_acc",
    EXIT_TIME_LIMIT: ":time_limit",
    EXIT_CONTINUE: ":continue",
    EXIT_NUMERICAL_ERROR: ":numerical_error",
}


@dataclass(frozen=True)
class ErrorReport:
    """All eleven optimality metrics plus the two objectives; `abs_gap`,
    |p_obj - d_obj|, serves the KKT metric and the termination test."""

    abs_p: float
    abs_d: float
    abs_gap: float
    rel_p1: float
    rel_d1: float
    rel_gap1: float
    abs_p_inf: float
    abs_d_inf: float
    rel_p_inf: float
    rel_d_inf: float
    rel_gap_term: float
    primal_obj: float
    dual_obj: float

    def is_finite(self) -> bool:
        return all(
            math.isfinite(v)
            for v in (
                self.abs_p, self.abs_d, self.abs_gap,
                self.abs_p_inf, self.abs_d_inf,
                self.primal_obj, self.dual_obj,
            )
        )


def _multiplier_violation(problem: ConicProblem,
                          lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lam minus its projection onto Lambda x K_p*, as its box and cone parts."""
    lam1 = lam[: problem.num_box]
    lam2 = lam[problem.num_box:]
    return (lam1 - np.clip(lam1, problem.box.lam_lo, problem.box.lam_hi),
            lam2 - cones.project_primal_cone_dual(lam2, problem))


def compute_errors(
    problem: ConicProblem,
    x: np.ndarray,
    y: np.ndarray,
    gx: np.ndarray | None = None,
    gty: np.ndarray | None = None,
) -> ErrorReport:
    """Evaluate every metric family at (x, y) with lambda = c - G^T y.

    `gx`/`gty` accept precomputed products so the solver loop can reuse its
    cached matvecs.
    """
    if gx is None:
        gx = problem.G.matvec(x)
    if gty is None:
        gty = problem.G.rmatvec(y)
    lam = recover_dual(problem, y, gty=gty)

    residual = gx - problem.h
    res_proj = cones.project_dual_residual_set(residual, problem)
    res_viol = residual - res_proj

    lam1_viol, lam2_viol = _multiplier_violation(problem, lam)

    p_obj = float(np.dot(problem.c, x))
    d_obj = dual_objective(problem, y, lam)
    gap = abs(p_obj - d_obj)

    abs_p = two_norm(res_viol)
    abs_d = math.sqrt(two_norm(lam1_viol) ** 2 + two_norm(lam2_viol) ** 2)
    abs_p_inf = inf_norm(res_viol)
    abs_d_inf = max(inf_norm(lam1_viol), inf_norm(lam2_viol))

    denom_p_inf = 1.0 + max(inf_norm(problem.h), inf_norm(gx), inf_norm(res_proj))
    denom_d_inf = 1.0 + max(inf_norm(problem.c), inf_norm(gty))
    denom_gap_term = 1.0 + max(abs(p_obj), abs(d_obj))

    return ErrorReport(
        abs_p=abs_p,
        abs_d=abs_d,
        abs_gap=gap,
        rel_p1=abs_p / problem.box.h_denom,
        rel_d1=abs_d / problem.box.c_denom,
        rel_gap1=gap / (1.0 + abs(p_obj) + abs(d_obj)),
        abs_p_inf=abs_p_inf,
        abs_d_inf=abs_d_inf,
        rel_p_inf=abs_p_inf / denom_p_inf,
        rel_d_inf=abs_d_inf / denom_d_inf,
        rel_gap_term=gap / denom_gap_term,
        primal_obj=p_obj,
        dual_obj=d_obj,
    )


def max_err(report: ErrorReport) -> float:
    """Overall optimality error: the worst of the 1-norm-relative metrics."""
    return max(report.rel_p1, report.rel_d1, report.rel_gap1)


def adaptive_reflection_parameter(report: ErrorReport) -> float:
    """clamp(-0.1*log10(maxErr) + 0.2, 0, 1); an exact optimum gets the clamp limit 1.

    A NaN error (a non-finite iterate) raises NumericalError.
    """
    err = max_err(report)
    if math.isnan(err):
        raise NumericalError("optimality error is NaN")
    if err <= 0.0:
        return 1.0
    return min(max(-0.1 * math.log10(err) + 0.2, 0.0), 1.0)


def check_termination(report: ErrorReport, options, iterations: int,
                      elapsed: float) -> int | None:
    """Optimal iff every inf-norm absolute <= abs_tol AND every inf-norm
    relative <= rel_tol; otherwise map resource limits to their codes."""
    abs_ok = max(report.abs_p_inf, report.abs_d_inf, report.abs_gap) <= options.abs_tol
    rel_ok = max(report.rel_p_inf, report.rel_d_inf, report.rel_gap_term) <= options.rel_tol
    if abs_ok and rel_ok:
        return EXIT_OPTIMAL
    if elapsed > options.time_limit:
        return EXIT_TIME_LIMIT
    if iterations >= options.max_iter:
        return EXIT_MAX_ITER
    return None


@dataclass
class InfeasibilityHistory:
    """Objective trajectories sampled at check cadence (3-check trend window).

    The window spans three restart checks: 3 x 512 iterations at the default
    gap cadence, 3 x 64 at cadence 64.  It only filters the ratio test
    of `check_infeasibility` (below 1e-12 by default, on a normalized ray),
    which is what keeps feasible problems, whose iterates carry no improving
    ray, from a certificate."""

    dual_objs: deque = field(default_factory=lambda: deque(maxlen=3))
    neg_primal_objs: deque = field(default_factory=lambda: deque(maxlen=3))

    def push(self, report: ErrorReport) -> None:
        self.dual_objs.append(report.dual_obj)
        self.neg_primal_objs.append(-report.primal_obj)


def _strictly_increasing(values: deque) -> bool:
    if len(values) < 3:
        return False
    return all(b > a for a, b in zip(values, list(values)[1:]))


def dual_ray_quality(problem: ConicProblem, y: np.ndarray,
                     gty: np.ndarray) -> tuple[float, float] | None:
    """(error, objective) of the normalized dual ray y/||y||.

    The homogeneous certificate drops c: lambda_ray = -G^T y_hat must lie in
    Lambda x K_p* while y_hat h plus the bound support stays positive.  A
    positive objective with vanishing error certifies primal infeasibility.
    """
    ynorm = float(np.linalg.norm(y))
    if ynorm <= 1e-12:
        return None
    lam = -gty / ynorm
    obj = problem.box.support(lam[: problem.num_box], float(np.dot(y, problem.h)) / ynorm)
    lam1_viol, lam2_viol = _multiplier_violation(problem, lam)
    err = max(inf_norm(lam1_viol), inf_norm(lam2_viol))
    return err, obj


def primal_ray_quality(problem: ConicProblem, x: np.ndarray,
                       gx: np.ndarray) -> tuple[float, float] | None:
    """(error, objective) of the normalized primal ray x/||x||.

    The ray must lie in the recession cone of [l, u] x K_p with G x_hat in
    K_d* (h dropped); the objective is -<c, x_hat>."""
    xnorm = float(np.linalg.norm(x))
    if xnorm <= 1e-12:
        return None
    xhat = x / xnorm
    ghat = gx / xnorm
    res_viol = ghat - cones.project_dual_residual_set(ghat, problem)
    box = xhat[: problem.num_box]
    box_viol = box - np.clip(box, problem.box.rec_lo, problem.box.rec_hi)
    cone_part = xhat[problem.num_box:]
    cone_viol = cone_part - cones.project_primal_cone_part(cone_part, problem)
    err = max(inf_norm(res_viol), inf_norm(box_viol), inf_norm(cone_viol))
    obj = -float(np.dot(problem.c, xhat))
    return err, obj


def check_infeasibility(
    problem: ConicProblem,
    x: np.ndarray,
    y: np.ndarray,
    gx: np.ndarray,
    gty: np.ndarray,
    history: InfeasibilityHistory,
    options,
) -> int | None:
    """Ratio tests for the four infeasibility codes.

    Primal infeasibility divides the dual-side certificate error by the ray
    objective; dual infeasibility is symmetric on the primal ray.  The ratios
    are evaluated on normalized homogeneous rays so that feasible instances,
    whose iterates never carry an improving ray, cannot trip the test.
    Low-accuracy codes additionally require the corresponding objective to
    have increased strictly over the last three checks; high-accuracy codes
    fire on the ratio alone.  Nonpositive ray objectives are skipped.
    """
    dual_ray = dual_ray_quality(problem, y, gty)
    if dual_ray is not None and dual_ray[1] > 0.0:
        ratio = dual_ray[0] / dual_ray[1]
        if _strictly_increasing(history.dual_objs) and ratio < options.eps_primal_infeasible_low_acc:
            return EXIT_PRIMAL_INFEASIBLE_LOW
        if ratio < options.eps_primal_infeasible_high_acc:
            return EXIT_PRIMAL_INFEASIBLE_HIGH

    primal_ray = primal_ray_quality(problem, x, gx)
    if primal_ray is not None and primal_ray[1] > 0.0:
        ratio = primal_ray[0] / primal_ray[1]
        if _strictly_increasing(history.neg_primal_objs) and ratio < options.eps_dual_infeasible_low_acc:
            return EXIT_DUAL_INFEASIBLE_LOW
        if ratio < options.eps_dual_infeasible_high_acc:
            return EXIT_DUAL_INFEASIBLE_HIGH
    return None
