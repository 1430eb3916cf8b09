"""Normalized duality gap, restart conditions, and primal-weight management.

The restart metric is the diagonal-metric surrogate of the normalized
duality gap,

    gap(r; z) = (1/r) * max{ b'(zh - z) : zh in X x Y, ||z - zh||_N <= r },

with b = (G'y - c, h - Gx) and N = diag(I/tau, I/sigma).  The maximizer on
the sphere of radius r is z(t) = (proj_X(x + t*tau*b1), proj_Y(y + t*sigma*b2))
for the t at which the constraint is tight.  `normalized_gap` brackets that
t by doubling or halving from a start, which the solve loop takes from its
previous evaluation, and closes the bracket by interpolation steps that
never cost more projections than bisection would.  When the search
misbehaves (negative outputs from cancellation, or an unbounded search),
the solver falls back to the weighted KKT error.
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
# `_next_point` moves an estimate of the root by _HEDGE times its estimated
# error, and by at least _CLOSE_MIN times the bracket tolerance.
_HEDGE = 2.0
_CLOSE_MIN = 2.0 ** -10


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
    its argument.  `t` is the last t that `normalized_gap` evaluated.
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
        self.t = math.nan


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


def _bisection_calls(width: float, eps: float) -> int:
    """The `z_of_t` calls that bisection makes on a bracket of `width` until
    it is no wider than `eps`."""
    calls = 0
    while width > eps:
        width *= 0.5
        calls += 1
    return calls


def normalized_gap(q: GapQuery, t0: float = 1.0, eps_rel: float = 1e-8) -> float:
    """Normalized duality gap at radius q.r: the gap at the t where
    dist(t) = ||z(t) - z||_N, which is nondecreasing in t, reaches r.

    The search starts at t0.  It doubles t until dist(t) >= r or, when
    dist(t0) >= r already, halves it until dist(t) < r, so that a t0 near the
    root, such as the last t of an earlier search, brackets it in two calls.
    Inside the bracket [a, b] it evaluates the points of `_next_point` until
    the bracket is no wider than eps_rel * max(1, b), bisection's stopping
    rule, and it never makes more `z_of_t` calls there than bisection would
    on the same bracket.  The value is that of the last point evaluated, an
    end of the final bracket, and `q.t` records that point (t0 before the
    first call).

    Returns 0 for degenerate radii (candidate equal to the anchor).  If the
    distance saturates below r (bounded feasible set, or a saddle point where
    z(t) never moves), the supremum is attained with a slack ball constraint
    and the current value is returned.  Raises GapEvaluationError if the
    search cannot bracket within the doubling budget.

    The default eps_rel 1e-8 suits callers that read the gap as a number;
    the acceptance tests check it to 1e-6.  The solve loop passes 1e-4
    (`engine._RESTART_GAP_TOL`), because it only compares gaps with
    fractions (0.4, 0.8) of an earlier gap.
    """
    q.t = t0
    if q.r <= _TINY_RADIUS:
        return 0.0
    r = q.r
    last = None

    def dist(t: float) -> float:
        nonlocal last
        q.t = t
        last = z_of_t(q, t)
        return _distance(q, *last)

    # A bracket [a, b] with dist(a) < r <= dist(b), and (c, dc), a third
    # point for the interpolation: the search's previous one, or t = 0,
    # where dist is 0 for a feasible z.
    c, dc = 0.0, 0.0
    d_k = dist(t0)
    if d_k >= r:
        a, da, b, db = 0.0, 0.0, t0, d_k
        for _ in range(_MAX_DOUBLINGS):
            if b <= eps_rel:
                break
            t_k = 0.5 * b
            d_k = dist(t_k)
            if d_k < r:
                a, da = t_k, d_k
                break
            c, dc, b, db = b, db, t_k, d_k
    else:
        a, da = t0, d_k
        stalls = 0
        for _ in range(_MAX_DOUBLINGS):
            t_k = 2.0 * a
            d_k = dist(t_k)
            if d_k >= r:
                b, db = t_k, d_k
                break
            if d_k <= da * (1.0 + 1e-13):
                stalls += 1
                if stalls >= 2:
                    # Distance saturated: the ball constraint is slack and the
                    # current z(t) already attains the supremum.
                    return _gap_value(q, *last)
            else:
                stalls = 0
            c, dc, a, da = a, da, t_k, d_k
        else:
            raise GapEvaluationError(
                f"gap search did not bracket after {_MAX_DOUBLINGS} doublings"
            )

    eps = eps_rel * max(1.0, b)
    fa, fb, fc = da - r, db - r, dc - r
    for left in range(_bisection_calls(b - a, eps) - 1, -1, -1):
        t = _next_point(a, fa, b, fb, c, fc, eps, left)
        d_t = dist(t)
        if d_t < r:
            c, fc, a, fa = a, fa, t, d_t - r
        else:
            c, fc, b, fb = b, fb, t, d_t - r
        if b - a <= eps:
            break
    return _gap_value(q, *last)


def _next_point(a: float, fa: float, b: float, fb: float, c: float, fc: float,
                eps: float, left: int) -> float:
    """The next t of the search in the bracket (a, b), where f = dist - r has
    fa < 0 <= fb, given a third point (c, fc).

    The root's estimate is inverse quadratic interpolation through the three
    points, and its distance from regula falsi's estimate is taken as its
    error.  The point moves from the estimate toward the midpoint by twice
    that error, so that the root likely falls between the point and the
    nearer end, and the bracket shrinks to little more than their distance.
    Where the interpolation is undefined or leaves the bracket, the point is
    the midpoint.  Last, it is clipped into the window around the midpoint
    from which bisection shrinks the bracket below eps in the `left` calls
    that remain: the projection step of ITP (Oliveira and Takahashi, ACM
    TOMS, 2020), which keeps the search within bisection's count of calls.
    """
    width = b - a
    mid = 0.5 * (a + b)
    est = b - fb * width / (fb - fa)
    error = 0.5 * width
    da, db, dc = (fa - fb) * (fa - fc), (fb - fa) * (fb - fc), (fc - fa) * (fc - fb)
    if da and db and dc:  # fc is neither end's value, and no product underflows to 0
        iqi = a * fb * fc / da + b * fa * fc / db + c * fa * fb / dc
        if a <= iqi <= b:
            est, error = iqi, abs(iqi - est)
    shift = min(max(_HEDGE * error, _CLOSE_MIN * eps), abs(mid - est))
    t = est + shift if est < mid else est - shift
    reach = eps * 2.0 ** left - 0.5 * width
    t = min(max(t, mid - reach), mid + reach)
    return t if a < t < b else mid


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
