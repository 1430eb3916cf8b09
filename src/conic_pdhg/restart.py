"""Normalized duality gap, restart conditions, and primal-weight management.

The restart metric is the diagonal-metric surrogate of the normalized
duality gap,

    gap(r; z) = (1/r) * max{ b'(zh - z) : zh in X x Y, ||z - zh||_N <= r },

with b = (G'y - c, h - Gx) and N = diag(I/tau, I/sigma).  The maximizer on
the sphere of radius r is z(t) = (proj_X(x + t*tau*b1), proj_Y(y + t*sigma*b2))
for the t at which the constraint is tight, found by exponential search plus
bisection.  When bisection misbehaves (negative outputs from cancellation,
or an unbounded search), the solver falls back to the weighted KKT error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import WeightedNormContext, n_norm
from .termination import ErrorReport

_TINY_RADIUS = 1e-14
_MAX_DOUBLINGS = 200


class GapEvaluationError(RuntimeError):
    """The exponential search could not bracket the gap maximizer."""


@dataclass(frozen=True)
class RestartConstants:
    beta_sufficient: float = 0.4
    beta_necessary: float = 0.8
    beta_artificial: float = 0.223
    theta: float = 0.5
    omega_max: float = 1e5
    omega_min: float = 1e-5


_CONSTS = RestartConstants()


@dataclass
class GapQuery:
    """One normalized-gap evaluation: iterate, radius, step sizes, gradient b.

    The query owns one scratch buffer of length 2 (x.size + y.size).  Its
    first half holds the projection arguments of `z_of_t`, its second half
    the differences behind the distance and the gap value, so an evaluation
    allocates only what the projections return.  A projection may return
    its argument.
    """

    x: np.ndarray
    y: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    r: float
    ctx: WeightedNormContext
    proj_x: Callable[[np.ndarray], np.ndarray]
    proj_y: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        n, nm = self.x.size, self.x.size + self.y.size
        w = np.empty(2 * nm)
        self.arg_x, self.arg_y = w[:n], w[n:nm]
        self.diff_x, self.diff_y = w[nm:nm + n], w[nm + n:]


def z_of_t(q: GapQuery, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Maximizer of t*b'(z~ - z) - 0.5*||z~ - z||_N^2 over X x Y.  The
    result may view the query's buffer, so the next call can overwrite it."""
    np.multiply(q.b1, t * q.ctx.tau, out=q.arg_x)
    np.add(q.x, q.arg_x, out=q.arg_x)
    np.multiply(q.b2, t * q.ctx.sigma, out=q.arg_y)
    np.add(q.y, q.arg_y, out=q.arg_y)
    return q.proj_x(q.arg_x), q.proj_y(q.arg_y)


def _distance(q: GapQuery, zx: np.ndarray, zy: np.ndarray) -> float:
    np.subtract(q.x, zx, out=q.diff_x)
    np.subtract(q.y, zy, out=q.diff_y)
    return n_norm(q.diff_x, q.diff_y, q.ctx)


def _gap_value(q: GapQuery, zx: np.ndarray, zy: np.ndarray) -> float:
    np.subtract(zx, q.x, out=q.diff_x)
    np.subtract(zy, q.y, out=q.diff_y)
    return (float(np.dot(q.b1, q.diff_x)) + float(np.dot(q.b2, q.diff_y))) / q.r


def normalized_gap(q: GapQuery, t0: float = 1.0, eps_rel: float = 1e-8) -> float:
    """Bisection search for the normalized duality gap at radius q.r.

    Returns 0 for degenerate radii (candidate equal to the anchor).  If the
    distance saturates below r (bounded feasible set, or a saddle point where
    z(t) never moves), the supremum is attained with a slack ball constraint
    and the current value is returned.  Raises GapEvaluationError if the
    search cannot bracket within the doubling budget.

    Bisection stops once the bracket on t is narrower than
    eps_rel * max(1, t_right).  The default 1e-8 suits callers that read the
    gap as a number; the acceptance tests check it to 1e-6.  The solve loop
    passes 1e-4 (`engine._RESTART_GAP_TOL`), because it only compares gaps
    with fractions (0.4, 0.8) of an earlier gap.  On the benchmark's cone
    problems that saves 38% of the `z_of_t` calls, and on the solves of
    `tests/bitwise_digests.py` it moves no restart and no iterate.
    """
    if q.r <= _TINY_RADIUS:
        return 0.0

    t_left, t_right = 0.0, t0
    t_k = t0
    zx, zy = z_of_t(q, t_k)
    dist = _distance(q, zx, zy)
    bracketed = dist > q.r
    if not bracketed:
        prev_dist = dist
        stalls = 0
        for k in range(1, _MAX_DOUBLINGS + 1):
            t_k *= 2.0
            zx, zy = z_of_t(q, t_k)
            dist = _distance(q, zx, zy)
            if dist > q.r:
                t_right = t_k
                t_left = t_k / 2.0
                bracketed = True
                break
            if dist <= prev_dist * (1.0 + 1e-13):
                stalls += 1
                if stalls >= 2:
                    # Distance saturated: the ball constraint is slack and the
                    # current z(t) already attains the supremum.
                    return _gap_value(q, zx, zy)
            else:
                stalls = 0
            prev_dist = dist
        if not bracketed:
            raise GapEvaluationError(
                f"gap search did not bracket after {_MAX_DOUBLINGS} doublings"
            )

    # The value is taken at the last midpoint evaluated.
    eps = eps_rel * max(1.0, t_right)
    t_mid = 0.5 * (t_left + t_right)
    zx, zy = z_of_t(q, t_mid)
    while t_right - t_left > eps:
        if _distance(q, zx, zy) < q.r:
            t_left = t_mid
        else:
            t_right = t_mid
        if t_right - t_left <= eps:
            break
        t_mid = 0.5 * (t_left + t_right)
        zx, zy = z_of_t(q, t_mid)
    return _gap_value(q, zx, zy)


def should_restart(candidate_gap: float, prev_candidate_gap: float, last_restart_gap: float,
                   k: int, k_bar: int) -> bool:
    """The three restart triggers: sufficient decay, necessary decay without
    local progress, and an overlong inner loop."""
    if candidate_gap <= _CONSTS.beta_sufficient * last_restart_gap:
        return True
    if (
        candidate_gap > prev_candidate_gap
        and candidate_gap <= _CONSTS.beta_necessary * last_restart_gap
    ):
        return True
    return k >= _CONSTS.beta_artificial * k_bar


def kkt_omega(report: ErrorReport, omega: float) -> float:
    """Weighted KKT error sqrt(w^2 e_p^2 + e_d^2/w^2 + e_gap^2) from the
    2-norm absolute metrics."""
    return math.sqrt(
        (omega * report.abs_p) ** 2
        + (report.abs_d / omega) ** 2
        + report.abs_gap ** 2
    )


def initialize_primal_weight(c: np.ndarray, h: np.ndarray) -> float:
    """||c|| / ||h|| when both norms clear the guard and the ratio is a
    positive finite number (a norm overflows above about 1e154), else 1."""
    nc = float(np.linalg.norm(c))
    nh = float(np.linalg.norm(h))
    if nc > 1e-10 and nh > 1e-10 and 0.0 < nc / nh < math.inf:
        return nc / nh
    return 1.0


def update_primal_weight(dx: float, dy: float, omega_prev: float, omega_init: float) -> float:
    """Log-space smoothing toward dy/dx, with a reset outside the omega bounds.

    dx and dy are the norms of the primal/dual anchor movements over the last
    outer loop.
    """
    if dx > 1e-10 and dy > 1e-10:
        omega = math.exp(
            _CONSTS.theta * math.log(dy / dx) + (1.0 - _CONSTS.theta) * math.log(omega_prev)
        )
    else:
        omega = omega_prev
    if omega > _CONSTS.omega_max or omega < _CONSTS.omega_min:
        return omega_init
    return omega
