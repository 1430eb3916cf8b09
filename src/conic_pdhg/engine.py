"""The iteration core: adaptive-step PDHG, reflected Halpern combination,
and the restart-driven outer loop.

The loop keeps G x and G^T y for the current iterate as exact linear
combinations of the products already computed (the Halpern step is affine),
so each accepted iteration costs one G^T product, plus one G product per
line-search trial; the caches are refreshed from scratch at every check
to stop round-off drift.  The vectors of an iteration live in buffers the
loop allocates once: flat [x; y; G x; G^T y] buffers for the iterate, the
anchor and the candidate, and a `StepWorkspace` for the line search's
terms; products and projections are written into them through `out`,
and the Halpern step overwrites the iterate buffer in two BLAS passes
(`daxpby`, then `daxpy`) on numpy's own OpenBLAS, bound through ctypes in
`linalg`.  The products are scipy's
compiled kernels on `linalg.SparseMatrix`'s own CSC arrays, so a solve
imports neither scipy.linalg nor scipy.sparse.
A solve runs that OpenBLAS on one thread (`linalg.one_blas_thread`): a
threaded `ddot` splits its sum by thread, so the bits would otherwise
depend on the thread count.

Restart checks, termination scans and log rows each run at the first
iteration at or past every multiple of their period (`_reached`), since a
rejected line-search trial can step over one.  At the default restart
cadence of 512 every eighth scan is also a check.  A check evaluates the
restart candidate, the iterate: its gap takes the iterate's freshly
refreshed products and the anchor's stored ones, and bisects to
`_RESTART_GAP_TOL`.  A restart copies the iterate buffer, products
included, onto the anchor buffer.

Termination scans between restart checks run the optimality and limit
tests on their own G x and G^T y from the unscaled iterate and write no
loop state, so the iterates do not depend on the scan cadence.

The reflection parameter beta of the Halpern step is evaluated from the
candidate's error report (`termination.compute_errors` on the scaled
problem) at the first iteration of every inner loop and at the first
iteration at or past every multiple of `_REFLECTION_FREQ`; the iterations
in between reuse `state.beta`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import cones
from . import linalg
from . import restart as restarts
from . import scaling as scalings
from . import termination as term
from .linalg import NumericalError, WeightedNormContext, n_norm, omega_norm
from .model import ConicProblem, apply_rsoc_inverse, dual_objective, recover_dual, rsoc_to_soc

_ETA_FLOOR = 1e-12
_ETA_CEIL = 1e14
_MAX_LINE_SEARCH_TRIALS = 60
# Iterations between termination scans (README, "Termination").
_TERMINATION_SCAN_FREQ = 64
# Iterations between evaluations of the reflection parameter, besides the
# first iteration of every inner loop.  beta reads maxErr only through a
# clamped -0.1 log10, so it drifts slowly: on the 16 seed-3 benchmark
# instances an every-iteration beta strays from the value at the start of
# its window by a median of 0.002-0.049 per instance and by at most 0.22.
_REFLECTION_FREQ = 64
# Bisection tolerance of the restart checks' gap evaluations
# (restart.normalized_gap explains why it is looser than the default).
_RESTART_GAP_TOL = 1e-4


class IterateZ(NamedTuple):
    """Paired primal/dual iterate."""

    x: np.ndarray
    y: np.ndarray


@dataclass
class SolverOptions:
    """Solver parameters; defaults follow the direct-API documentation."""

    rel_tol: float = 1e-6
    abs_tol: float = 1e-6
    time_limit: float = 1000.0
    max_iter: int = 1_000_000
    print_freq: int = 2000
    use_preconditioner: bool = True
    use_adaptive_restart: bool = True
    # Not PDLP's 64: with these restart constants, checks that often restart
    # slowly converging LPs too early (README, "Termination").
    duality_gap_restart_freq: int = 512
    eps_primal_infeasible_low_acc: float = 1e-12
    eps_dual_infeasible_low_acc: float = 1e-12
    eps_primal_infeasible_high_acc: float = 1e-16
    eps_dual_infeasible_high_acc: float = 1e-16
    verbose: int = 0
    logfile: str | None = None
    initial_step_norm: str = "max_abs"  # or "induced_inf"
    iteration_callback: Callable | None = None

    def validate(self) -> None:
        for name in ("rel_tol", "abs_tol", "eps_primal_infeasible_low_acc",
                     "eps_dual_infeasible_low_acc", "eps_primal_infeasible_high_acc",
                     "eps_dual_infeasible_high_acc"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("print_freq", "duality_gap_restart_freq", "max_iter"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.initial_step_norm not in ("max_abs", "induced_inf"):
            raise ValueError(
                f"initial_step_norm must be 'max_abs' or 'induced_inf', got {self.initial_step_norm!r}"
            )
        if not self.time_limit > 0:
            raise ValueError("time_limit must be positive")


@dataclass
class SolverState:
    """Mutable per-solve bookkeeping, exposed to iteration callbacks.

    `z` and `z_anchor` are views into buffers that the loop overwrites in
    place every iteration and at every restart; a callback must `.copy()`
    any vector it keeps.  `mode` is the restart metric of this inner loop:
    "gap", or "kkt" once a gap evaluation has failed in it, the weighted-KKT
    fallback, until the next restart sets it back.
    `last_restart_metric` is that metric at the last restart, or None until
    a check forms it at the anchor; a change of mode clears it.
    `anchor_move` holds the squared primal and dual distances the anchor
    moved at the last restart.
    `beta` is the reflection parameter of the last Halpern step, evaluated
    from the candidate's error report at `k == 0` and every
    `_REFLECTION_FREQ` iterations and held between.
    """

    z: IterateZ
    z_anchor: IterateZ
    t: int = 0
    k: int = 0
    k_bar: int = 0
    eta: float = 0.0
    eta_hat: float = 0.0
    omega: float = 1.0
    beta: float = 0.0
    mode: str = "gap"
    last_restart_metric: float | None = None
    anchor_move: tuple[float, float] | None = None
    prev_candidate_gap: float = math.inf


@dataclass(frozen=True)
class SolveResult:
    """The point on the original problem (lam = c - G^T y, slack = G x - h)
    and how the solve ended.  `iterations` counts accepted PDHG steps plus
    rejected line-search trials up to the last completed iteration (0 when
    the entry scan exits); `p_obj` and `d_obj` are the returned point's."""

    x: np.ndarray
    y: np.ndarray
    lam: np.ndarray
    slack: np.ndarray
    exit_code: int
    iterations: int
    solve_time_s: float
    p_obj: float
    d_obj: float
    restarts: int

    @property
    def exit_status(self) -> str:
        return term.EXIT_STATUS[self.exit_code]


# ---------------------------------------------------------------------------
# Single PDHG iteration and the adaptive step-size line search
# ---------------------------------------------------------------------------


class StepWorkspace(NamedTuple):
    """Scratch vectors of a PDHG step, overwritten by every line-search
    trial: two of length n and two of length m."""

    grad_x: np.ndarray  # c - G^T y
    vx: np.ndarray  # x - tau grad_x, then 2 x_hat - x, then dx
    vy: np.ndarray  # y + sigma (h - w), then dy
    dw: np.ndarray  # w - G x

    @classmethod
    def allocate(cls, n: int, m: int) -> "StepWorkspace":
        return cls(np.empty(n), np.empty(n), np.empty(m), np.empty(m))


def _pdhg_candidate(problem, x, y, tau, sigma, grad_x, out, workspace=None):
    """One PDHG update given grad_x = c - G^T y, written into the flat buffer
    `out` as [x_hat; y_hat; w] with the extrapolated product w = G(2 x_hat - x);
    returns views of the three parts.  The terms go through `workspace`
    (allocated when None) in the operation order of the formulas."""
    n, m = x.size, y.size
    if workspace is None:
        workspace = StepWorkspace.allocate(n, m)
    vx, vy = workspace.vx, workspace.vy
    x_hat, y_hat, w = out[:n], out[n:n + m], out[n + m:n + 2 * m]
    np.multiply(grad_x, tau, out=vx)
    np.subtract(x, vx, out=vx)
    # a projection replaced by another function may return a fresh array
    px = cones.project_primal_set(vx, problem, x_hat)
    if px is not x_hat:
        x_hat[:] = px
    np.multiply(x_hat, 2.0, out=vx)
    np.subtract(vx, x, out=vx)
    problem.G.matvec(vx, out=w)
    np.subtract(problem.h, w, out=vy)
    np.multiply(vy, sigma, out=vy)
    np.add(y, vy, out=vy)
    py = cones.project_dual_set(vy, problem, y_hat)
    if py is not y_hat:
        y_hat[:] = py
    return x_hat, y_hat, w


def one_pdhg(problem: ConicProblem, z: IterateZ, tau: float, sigma: float) -> IterateZ:
    """x+ = proj_X(x - tau(c - G'y)); y+ = proj_Y(y + sigma(h - G(2x+ - x)))."""
    grad_x = problem.c - problem.G.rmatvec(z.y)
    x_hat, y_hat, _ = _pdhg_candidate(
        problem, z.x, z.y, tau, sigma, grad_x, np.empty(problem.n + 2 * problem.m)
    )
    return IterateZ(x_hat, y_hat)


class StepResult(NamedTuple):
    z_hat: IterateZ
    eta_used: float
    eta_next: float
    k_bar: int
    trials: int


def adaptive_step_pdhg(
    problem: ConicProblem,
    z: IterateZ,
    omega: float,
    eta: float,
    k_bar: int,
    gty: np.ndarray | None = None,
    gx: np.ndarray | None = None,
    out: np.ndarray | None = None,
    workspace: StepWorkspace | None = None,
) -> StepResult:
    """Line search accepting the first candidate with eta < eta_bar, where
    eta_bar = ||dz||_w^2 / (2 |dy' G dx|).

    Every trial writes [x_hat; y_hat; G(2 x_hat - x)] into `out` (a fresh
    buffer when None), so on return it holds the accepted candidate and
    `z_hat` views it; its other vectors go through `workspace`, allocated
    when None.  A zero interaction term makes the curvature condition
    vacuous, so the candidate is accepted with eta_bar = +inf.  Rejections
    shrink/grow eta by the (k_bar+1)^-0.3 / (k_bar+1)^-0.6 factors and
    advance k_bar; the returned proposal is floored at 1e-12.
    """
    if gty is None:
        gty = problem.G.rmatvec(z.y)
    if gx is None:
        gx = problem.G.matvec(z.x)
    if out is None:
        out = np.empty(problem.n + 2 * problem.m)
    if workspace is None:
        workspace = StepWorkspace.allocate(problem.n, problem.m)
    grad_x = np.subtract(problem.c, gty, out=workspace.grad_x)
    # below this movement the candidate is a numerical fixed point and the
    # curvature quotient is quantization noise
    noise_floor = 1e-14 * (1.0 + omega_norm(z.x, z.y, omega))

    for trial in range(_MAX_LINE_SEARCH_TRIALS):
        tau = eta / omega
        sigma = eta * omega
        x_hat, y_hat, w = _pdhg_candidate(problem, z.x, z.y, tau, sigma, grad_x, out, workspace)
        dx = np.subtract(x_hat, z.x, out=workspace.vx)
        dy = np.subtract(y_hat, z.y, out=workspace.vy)
        movement = omega * float(dx.dot(dx)) + float(dy.dot(dy)) / omega
        # G dx = G x_hat - G x reuses the extrapolated product: G x_hat = (w + gx)/2
        interaction = abs(float(dy.dot(np.subtract(w, gx, out=workspace.dw)))) / 2.0
        if math.isnan(movement) or math.isnan(interaction):
            raise NumericalError("non-finite quantities in the step-size line search")
        if interaction == 0.0 or math.sqrt(movement) <= noise_floor:
            eta_bar = math.inf
        else:
            eta_bar = movement / (2.0 * interaction)
        if math.isnan(eta_bar):
            raise NumericalError("undefined step-size bound in the line search")

        fac_shrink = 1.0 - (k_bar + 1.0) ** -0.3
        fac_grow = 1.0 + (k_bar + 1.0) ** -0.6
        if math.isinf(eta_bar):
            cand = math.inf if fac_shrink > 0.0 else 0.0
        else:
            cand = fac_shrink * eta_bar
        eta_next = min(max(_ETA_FLOOR, min(cand, fac_grow * eta)), _ETA_CEIL)

        if eta < eta_bar:
            return StepResult(IterateZ(x_hat, y_hat), eta, eta_next, k_bar, trial + 1)
        eta = eta_next
        k_bar += 1
    raise NumericalError(f"step-size line search exceeded {_MAX_LINE_SEARCH_TRIALS} trials")


def reflected_halpern_step(z_hat: np.ndarray, z_old: np.ndarray, z_anchor: np.ndarray,
                           k: int, beta: float, out: np.ndarray) -> np.ndarray:
    """(k+1)/(k+2) ((1+beta) z_hat - beta z_old) + 1/(k+2) z_anchor into `out`.

    The operands are 1-D contiguous float64 arrays of one length; `out` may
    be z_old, overlaps neither z_hat nor z_anchor, and is the only buffer
    written.  With a = (k+1)/(k+2) and b = 1/(k+2) the coefficients are
    combined first, and the result has the bits of three passes: out =
    (-a beta) z_old, then BLAS `daxpy` adds a(1+beta) z_hat and b z_anchor.
    They differ from the formula's order of operations in the last bits
    only.  The solve loop's call (out is z_old) fuses the first two passes
    into one `daxpby` on numpy's OpenBLAS, except at beta = 0, where
    `daxpby` would not read z_old.  The loop passes the same buffers at
    every iteration, so they are checked and their addresses taken once
    (`linalg.bound_update`); bad operands raise ValueError before anything
    is written.  Where numpy's BLAS cannot be bound (`linalg.BLAS` is None),
    the three passes run on `scipy.linalg.blas.daxpy`, imported on first
    use.  Returns `out`.
    """
    a = (k + 1.0) / (k + 2.0)
    b = 1.0 / (k + 2.0)
    if linalg.BLAS is None:
        return _halpern_on_scipy_blas(z_hat, z_old, z_anchor, a, b, beta, out)
    update = linalg.bound_update(z_hat, z_anchor, out)
    if z_old is out and beta != 0.0:
        update.axpby_axpy(a * (1.0 + beta), -a * beta, b)
        return out
    if z_old.shape != out.shape:
        raise ValueError(f"z_old must have shape {out.shape}, got {z_old.shape}")
    np.multiply(z_old, -a * beta, out=out)
    update.axpy_axpy(a * (1.0 + beta), b)
    return out


def _halpern_on_scipy_blas(z_hat, z_old, z_anchor, a, b, beta, out):
    """`reflected_halpern_step`'s three passes on scipy's BLAS."""
    from scipy.linalg.blas import daxpy

    np.multiply(z_old, -a * beta, out=out)
    if out.size == 0:
        return out  # daxpy rejects empty vectors
    # daxpy updates y in place and returns it, unless it had to copy y
    if (daxpy(z_hat, out, a=a * (1.0 + beta)) is not out
            or daxpy(z_anchor, out, a=b) is not out):
        raise ValueError("out must be a contiguous float64 array")
    return out


# Not called by the solve loop, which restarts to the iterate; kept because
# the benchmark's traced layer list names it.
def update_weighted_average(z_bar: np.ndarray, weight: float, z_new: np.ndarray, eta_new: float,
                            out: np.ndarray, scratch: np.ndarray) -> tuple[np.ndarray, float]:
    """Streaming step-size-weighted average of the inner-loop iterates:
    (weight z_bar + eta_new z_new) / (weight + eta_new) into `out`, or z_new
    when the average is empty (weight 0).  The operands are flat arrays of
    one length; `out` may be z_bar and `scratch` is the only other buffer
    written.  Returns `out` and the new weight."""
    if eta_new <= 0:
        raise ValueError("averaging weight must be positive")
    if weight == 0.0:
        np.copyto(out, z_new)
        return out, eta_new
    total = weight + eta_new
    np.multiply(z_bar, weight, out=out)
    np.multiply(z_new, eta_new, out=scratch)
    np.add(out, scratch, out=out)
    np.divide(out, total, out=out)
    return out, total


# ---------------------------------------------------------------------------
# The solve loop
# ---------------------------------------------------------------------------


def _reached(k_prev: int, k_bar: int, period: int) -> bool:
    """Whether the step from k_prev to k_bar reached or passed a multiple of
    `period`; a line-search rejection can step over one."""
    return k_bar // period > k_prev // period


class _Loop:
    def __init__(self, original: ConicProblem, options: SolverOptions):
        self.original = original
        self.options = options
        self.t_start = time.monotonic()
        self.work = rsoc_to_soc(original)
        if options.use_preconditioner and self.work.G.nnz > 0:
            self.scaling = scalings.build_scaling(self.work)
        else:
            self.scaling = scalings.ScalingPair.identity(self.work.m, self.work.n)
        self.scaled = scalings.rescale_problem(self.work, self.scaling)
        self.history = term.InfeasibilityHistory()
        self.logfile = None
        self._last_report: term.ErrorReport | None = None

    # -- initialization ----------------------------------------------------

    def _initial_eta(self) -> float:
        g = self.scaled.G
        if g.nnz == 0:
            # No coupling: PDHG degenerates to projected gradient steps and
            # any positive step scale works.
            return 1.0
        if self.options.initial_step_norm == "induced_inf":
            eta = 1.0 / g.induced_inf_norm()
        else:
            eta = 1.0 / g.max_abs()
        # a subnormal largest entry would give eta = inf
        return min(max(_ETA_FLOOR, eta), _ETA_CEIL)

    def _split(self, buf: np.ndarray) -> tuple[IterateZ, IterateZ]:
        """Views of a flat [x; y; G x; G^T y] buffer as (x, y) and (G x, G^T y)."""
        n, m = self.scaled.n, self.scaled.m
        return (IterateZ(buf[:n], buf[n:n + m]),
                IterateZ(buf[n + m:n + 2 * m], buf[n + 2 * m:]))

    def _init_state(self) -> SolverState:
        n, m = self.scaled.n, self.scaled.m
        # Flat [x; y; G x; G^T y] buffers for the iterate, the anchor and the
        # Halpern candidate; the products follow the iterate so that one
        # in-place Halpern update covers both, and one copy makes the
        # iterate the anchor.  Every state vector is a view into these
        # buffers.
        self.iterate, self.anchor, self.candidate = (np.zeros(2 * (n + m)) for _ in range(3))
        self.workspace = StepWorkspace.allocate(n, m)
        eta0 = self._initial_eta()
        omega0 = restarts.initialize_primal_weight(self.scaled.c, self.scaled.h)
        z, self.products = self._split(self.iterate)
        z_anchor, self.anchor_products = self._split(self.anchor)
        state = SolverState(
            z=z,
            z_anchor=z_anchor,
            eta=eta0,
            eta_hat=eta0,
            omega=omega0,
        )
        self.omega_init = omega0
        self._refresh_products(state)
        self.anchor[:] = self.iterate
        return state

    # -- scaled-problem helpers ---------------------------------------------

    def _refresh_products(self, state: SolverState) -> None:
        self.scaled.G.matvec(state.z.x, out=self.products.x)
        self.scaled.G.rmatvec(state.z.y, out=self.products.y)

    def _gap_metric(self, z: IterateZ, radius: float, ctx: WeightedNormContext,
                    products: IterateZ) -> float:
        """Normalized gap of z over the ball of `radius`, from z's products
        (G x, G^T y)."""
        return restarts.normalized_gap(restarts.GapQuery(
            x=z.x,
            y=z.y,
            b1=products.y - self.scaled.c,
            b2=self.scaled.h - products.x,
            r=radius,
            ctx=ctx,
            proj_x=lambda v: cones.project_primal_set(v, self.scaled),
            proj_y=lambda v: cones.project_dual_set(v, self.scaled),
        ), eps_rel=_RESTART_GAP_TOL)

    def _kkt_metric(self, z: IterateZ, omega: float) -> float:
        report = term.compute_errors(self.scaled, z.x, z.y)
        return restarts.kkt_omega(report, omega)

    def _baseline_gap(self, state: SolverState) -> None:
        """Restart baseline for the first outer loop: the gap of z0 at the
        radius of one plain PDHG step from z0."""
        ctx = WeightedNormContext(state.omega, state.eta_hat)
        z_ref = one_pdhg(self.scaled, state.z, ctx.tau, ctx.sigma)
        radius = n_norm(state.z.x - z_ref.x, state.z.y - z_ref.y, ctx)
        try:
            state.last_restart_metric = self._gap_metric(state.z, radius, ctx, self.products)
        except restarts.GapEvaluationError:
            state.mode = "kkt"
            state.last_restart_metric = self._kkt_metric(state.z, state.omega)

    # -- original-problem report --------------------------------------------

    def _original_report(self, z: IterateZ):
        x, y = scalings.unscale_solution(z.x, z.y, self.scaling)
        gx = self.work.G.matvec(x)
        gty = self.work.G.rmatvec(y)
        report = term.compute_errors(self.work, x, y, gx=gx, gty=gty)
        return report, x, y, gx, gty

    # -- logging -------------------------------------------------------------

    def _log_line(self, state: SolverState, report: term.ErrorReport | None) -> None:
        if report is None:
            return
        line = (
            f"{state.k_bar}\t{report.primal_obj:.9e}\t{report.dual_obj:.9e}"
            f"\t{report.rel_p_inf:.3e}\t{report.rel_d_inf:.3e}\t{report.rel_gap_term:.3e}"
            f"\t{state.eta:.3e}\t{state.omega:.3e}\t{state.t}"
        )
        if self.options.verbose >= 1:
            print(line)
        if self.logfile is not None:
            self.logfile.write(line + "\n")

    # -- main loop -----------------------------------------------------------

    def run(self) -> SolveResult:
        options = self.options
        if options.logfile:
            self.logfile = open(options.logfile, "w")
        try:
            return self._run()
        finally:
            if self.logfile is not None:
                self.logfile.close()

    def _termination_scan(self, state: SolverState, with_infeasibility: bool) -> int | None:
        """Evaluate the original-problem report at the current iterate and run
        the exit tests, returning the exit code of the first that fires; a
        non-finite iterate or report raises NumericalError.
        Apart from `_last_report` and, at checks, the infeasibility history,
        it writes no loop state, so scans between checks leave the iterates
        unchanged."""
        report, x, y, gx, gty = self._original_report(state.z)
        self._last_report = report
        if not (
            np.all(np.isfinite(state.z.x))
            and np.all(np.isfinite(state.z.y))
            and report.is_finite()
        ):
            raise NumericalError("non-finite iterate or optimality report")
        code = term.check_termination(
            report, self.options, state.k_bar, time.monotonic() - self.t_start
        )
        if code is None and with_infeasibility:
            self.history.push(report)
            code = term.check_infeasibility(self.work, x, y, gx, gty, self.history, self.options)
        return code

    def _restart_check(self, state: SolverState) -> None:
        """Evaluate the restart metric of the iterate and restart to it if
        any trigger fires.  A failed gap evaluation flips the rest of this
        inner loop to the weighted-KKT fallback.  The gap takes the
        iterate's products, refreshed for this check, and the anchor's from
        the loop."""
        z = state.z
        if state.mode == "gap":
            ctx = WeightedNormContext(state.omega, state.eta)
            anchor = state.z_anchor
            try:
                if state.last_restart_metric is None:
                    # after a restart in the KKT fallback: the anchor's gap
                    # over the ball through the previous anchor
                    dx2, dy2 = state.anchor_move
                    radius = math.sqrt(dx2 / ctx.tau + dy2 / ctx.sigma)
                    state.last_restart_metric = self._gap_metric(
                        anchor, radius, ctx, self.anchor_products)
                cand_val = self._gap_metric(
                    z, n_norm(z.x - anchor.x, z.y - anchor.y, ctx), ctx, self.products)
                if cand_val < -1e-12 or state.last_restart_metric < -1e-12:
                    raise restarts.GapEvaluationError("negative normalized gap")
            except restarts.GapEvaluationError:
                state.mode = "kkt"
                state.last_restart_metric = None
        if state.mode == "kkt":
            # the fallback, with its baseline at the current weight
            if state.last_restart_metric is None:
                state.last_restart_metric = self._kkt_metric(state.z_anchor, state.omega)
            cand_val = self._kkt_metric(z, state.omega)

        if restarts.should_restart(
            cand_val, state.prev_candidate_gap, state.last_restart_metric, state.k, state.k_bar
        ):
            self._do_restart(state, cand_val)
        else:
            state.prev_candidate_gap = cand_val

    def _do_restart(self, state: SolverState, cand_val: float) -> None:
        """Make the iterate the new anchor and return to gap mode.
        `cand_val` is the next baseline unless the inner loop fell back to
        the KKT metric; then the next check forms a gap baseline, at the new
        primal weight, from `state.anchor_move`, the squared distances the
        anchor moves, taken before the anchor buffer is overwritten.  The
        primal-weight update takes their square roots.  The one buffer copy
        carries the products the check refreshed."""
        dx, dy = state.z.x - state.z_anchor.x, state.z.y - state.z_anchor.y
        state.anchor_move = (float(np.dot(dx, dx)), float(np.dot(dy, dy)))
        self.anchor[:] = self.iterate
        state.omega = restarts.update_primal_weight(
            *map(math.sqrt, state.anchor_move), state.omega, self.omega_init)
        state.t += 1
        state.k = 0
        state.prev_candidate_gap = math.inf
        state.last_restart_metric = cand_val if state.mode == "gap" else None
        state.mode = "gap"

    def _run(self) -> SolveResult:
        state = self._init_state()
        try:
            code = self._iterate(state)
        except NumericalError:
            # the one numerical-failure exit, wherever after set-up it arises
            code = term.EXIT_NUMERICAL_ERROR

        if self.options.verbose >= 1 or self.logfile is not None:
            self._log_line(state, self._last_report)
            if self.options.verbose >= 1:
                print(f"status {term.EXIT_STATUS[code]} code {code} iters {state.k_bar} "
                      f"time {time.monotonic() - self.t_start:.3f}s")

        return self._build_result(state, code)

    def _iterate(self, state: SolverState) -> int:
        """Run the loop from the initial state until an exit test fires, and
        return its exit code."""
        options = self.options
        if options.use_adaptive_restart:
            self._baseline_gap(state)

        if options.verbose >= 2:
            print(
                f"conic-pdhg: n={self.original.n} m={self.original.m} "
                f"nnz={self.original.G.nnz} precondition={options.use_preconditioner}"
            )

        # Entry check: a solve started at an optimum must return immediately.
        code = self._termination_scan(state, with_infeasibility=False)
        if code is not None:
            return code
        self._log_line(state, self._last_report)
        z_hat, products_hat = self._split(self.candidate)
        log_rows = options.verbose >= 1 or self.logfile is not None

        while True:
            k_prev = state.k_bar
            # k_bar counts every PDHG computation, including the one about
            # to happen, so the line-search factors never see the
            # degenerate value 0 after the solve starts.  It reaches `state`
            # only once the iteration completes.
            k_bar = k_prev + 1
            gx, gty = self.products
            # writes [x_hat; y_hat; G(2 x_hat - x)] into the candidate
            step = adaptive_step_pdhg(
                self.scaled, state.z, state.omega, state.eta_hat, k_bar,
                gty=gty, gx=gx, out=self.candidate, workspace=self.workspace,
            )
            state.eta = step.eta_used
            state.eta_hat = step.eta_next
            k_bar = step.k_bar  # rejected trials also advance the count

            # G x_hat = (G(2 x_hat - x) + G x) / 2, in place
            np.add(products_hat.x, gx, out=products_hat.x)
            np.multiply(products_hat.x, 0.5, out=products_hat.x)
            self.scaled.G.rmatvec(z_hat.y, out=products_hat.y)
            if state.k == 0 or _reached(k_prev, k_bar, _REFLECTION_FREQ):
                state.beta = term.adaptive_reflection_parameter(term.compute_errors(
                    self.scaled, z_hat.x, z_hat.y, products_hat.x, products_hat.y
                ))

            reflected_halpern_step(self.candidate, self.iterate, self.anchor, state.k, state.beta,
                                   out=self.iterate)
            state.k += 1
            state.k_bar = k_bar

            if options.iteration_callback is not None:
                options.iteration_callback(state)

            elapsed = time.monotonic() - self.t_start
            out_of_budget = state.k_bar >= options.max_iter or elapsed > options.time_limit
            at_check = (_reached(k_prev, state.k_bar, options.duality_gap_restart_freq)
                        or out_of_budget)
            at_scan = at_check or _reached(k_prev, state.k_bar, _TERMINATION_SCAN_FREQ)
            at_print = _reached(k_prev, state.k_bar, options.print_freq)

            if at_check:
                self._refresh_products(state)
            if at_scan:
                code = self._termination_scan(state, with_infeasibility=at_check)
                if code is not None:
                    return code
            if at_print and log_rows:
                if not at_scan:
                    self._last_report = self._original_report(state.z)[0]
                self._log_line(state, self._last_report)
            if at_check and options.use_adaptive_restart:
                before = state.t
                self._restart_check(state)
                if state.t != before:
                    # Restart boundary: re-test termination at the new anchor.
                    code = self._termination_scan(state, with_infeasibility=False)
                    if code is not None:
                        return code

    def _build_result(self, state: SolverState, code: int) -> SolveResult:
        """Map the iterate back to the original problem and build the result
        for exit `code`."""
        x_w, y_w = scalings.unscale_solution(state.z.x, state.z.y, self.scaling)
        slack_w = self.work.G.matvec(x_w) - self.work.h
        x, y, slack = apply_rsoc_inverse(self.original, x_w, y_w, slack_w)
        lam = recover_dual(self.original, y)
        return SolveResult(
            x=x, y=y, lam=lam, slack=slack, exit_code=code, iterations=state.k_bar,
            solve_time_s=time.monotonic() - self.t_start,
            p_obj=float(np.dot(self.original.c, x)),
            d_obj=dual_objective(self.original, y, lam), restarts=state.t,
        )


def solve(problem: ConicProblem, options: SolverOptions | None = None) -> SolveResult:
    """Presolve rotated blocks, precondition, run the restarted PDHG loop,
    and map the solution back to the original instance.  numpy's OpenBLAS
    runs on one thread meanwhile, and on the caller's count again after."""
    if options is None:
        options = SolverOptions()
    options.validate()
    with linalg.one_blas_thread():
        return _Loop(problem, options).run()
