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
depend on the thread count.  A large solve (`_SHARD_NNZ` entries of G or
more, and no more than `_SHARD_KERNEL_BLOCKS` soc or exp blocks) splits
its iterations instead, by `StepPhases`: the step's
elementwise passes, projections and products and the Halpern update run
over contiguous shards, one on the calling thread and one on a helper
(`linalg.Sharder`, at most `_MAX_SHARDS`, no more than the CPUs the
process may use), while the dots stay whole on the calling thread.  Each
entry is computed as on one shard, so the iterates have the same bits at
any shard count.

Restart checks, termination scans and log rows each run at the first
iteration at or past every multiple of their period (`_reached`), since a
rejected line-search trial can step over one.  At the default restart
cadence of 512 every eighth scan is also a check.  A check evaluates the
restart candidate, the iterate: its gap takes the iterate's freshly
refreshed products and the anchor's stored ones, and its search for the
trust-region radius starts from the t where the solve's previous gap
search ended and stops at `_RESTART_GAP_TOL`.  A restart copies the
iterate buffer, products included, onto the anchor buffer.

Termination scans, log rows and the result read the iterate buffer's
products (running between checks), mapped back to the unscaled problem, so
after the preconditioner is built the solve forms products on the scaled
matrix only; scans write no loop state, so the iterates do not depend on
the scan cadence.

The reflection parameter beta of the Halpern step is evaluated from the
candidate's error report (`termination.compute_errors` on the scaled
problem) at the first iteration of every inner loop and at the first
iteration at or past every multiple of `_REFLECTION_FREQ`; the iterations
in between reuse `state.beta`.
"""

from __future__ import annotations

import math
import os
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
# Relative bracket width at which the restart checks' gap searches stop
# (restart.normalized_gap explains why it is looser than the default).  On
# the solves of `tests/bitwise_digests.py` and the benchmark's seed-3
# problems it moves no restart and no iterate.
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
    and how the solve ended.  `lam` and `slack` come from the loop's own
    products of the point, mapped back, and match fresh products on the
    caller's G to rounding.  `iterations` counts accepted PDHG steps plus
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
    trial: three of length n and two of length m."""

    grad_x: np.ndarray  # c - G^T y
    vx: np.ndarray  # x - tau grad_x, then 2 x_hat - x
    vy: np.ndarray  # y + sigma (h - w), then dy
    dw: np.ndarray  # w - G x
    dx: np.ndarray  # x_hat - x

    @classmethod
    def allocate(cls, n: int, m: int) -> "StepWorkspace":
        return cls(np.empty(n), np.empty(n), np.empty(m), np.empty(m), np.empty(n))


# ---------------------------------------------------------------------------
# The phases of an iteration, on one shard or on several
# ---------------------------------------------------------------------------

# Entries of the scaled G from which a solve splits its iterations into
# shards: below it the three hand-offs of an iteration (about 25-115 us
# each on a 2-vCPU VM) cost more than the second shard saves.  Planted LPs of
# perfbench/generate.py (8 entries per column, m = n/2), medians of three
# alternating runs of 5 solves of 200 iterations, ms per iteration on one
# -> two shards: 2000x4000 (nnz 32000, lp-solve's size) 0.120-0.170 ->
# 0.450-0.483; 7000x14000 (112000) 0.58-0.92 -> 0.77-0.96; 14000x28000
# (224000) 0.97-1.08 -> 1.01-1.17; 17000x34000 (272000) 1.15-1.47 ->
# 1.09-1.38; 20000x40000 (320000) 1.36-1.78 -> 1.56-1.69.
_SHARD_NNZ = 300_000
# Cone blocks projected by a Python kernel (soc, exp and dual-exp blocks,
# rescaled or not: those `cones.unsplit_blocks` lists) above which a solve
# runs one shard whatever its size.  Such a kernel holds the GIL, so the
# shards' projections of these blocks run one after the other, and two
# threads contending for the GIL run them slower than one.  Planted problems
# of perfbench/generate.py with 80000 variables, 5 entries per column and
# about 40000 rows (nnz 400000), soc blocks of 3-7 rows, exp blocks of 3;
# medians of 3 solves of 100 iterations in each of 3 alternating rounds, ms
# per iteration on one -> two shards: 8000 soc blocks 20.5-24.0 ->
# 43.2-47.1; 13333 exp blocks (one solve of 20 iterations a round)
# 142-169 -> 208-251; nonneg rows and 1333 exp blocks 18.3-25.7 ->
# 22.0-27.3; nonneg rows and 800 soc blocks 4.6-7.7 -> 4.8-5.9; nonneg rows
# and 80 soc blocks 3.2-3.8 -> 2.5-3.3.  The break-even depends on the
# blocks' kinds as well as their count; only a problem with none of them
# is sure to gain.
_SHARD_KERNEL_BLOCKS = 0
# Shards of a solve above these thresholds, where the process may run on as
# many CPUs (`taskset` pins a solve to one).
_MAX_SHARDS = 2


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def _shard_count(problem: ConicProblem) -> int:
    """The shards of a solve of the scaled `problem`: one below
    `_SHARD_NNZ` entries of G or above `_SHARD_KERNEL_BLOCKS` blocks with a
    Python kernel.  Without numpy's OpenBLAS (`linalg.BLAS`) there is no
    GIL-releasing Halpern pass, and a solve runs one shard."""
    if problem.G.nnz < _SHARD_NNZ or linalg.BLAS is None:
        return 1
    kernel_blocks = sum(len(cones.unsplit_blocks(problem, dual)) for dual in (False, True))
    if kernel_blocks > _SHARD_KERNEL_BLOCKS:
        return 1
    return min(_MAX_SHARDS, _cpu_count())


class _Shard:
    """One shard's views of the step's vectors, built once: entries
    [c0, c1) of those of length n (the x side) and [r0, r1) of those of
    length m (the y side), and the whole vectors its operations take.

    This class is the shard of a one-shard step, whose views are the whole
    vectors.  It projects, multiplies and updates through the functions
    the tracer and the tests patch (`cones.project_primal_set` and
    `project_dual_set`, `SparseMatrix.matvec` and `rmatvec`,
    `reflected_halpern_step`), looked up at each call."""

    def __init__(self, step: "StepPhases", cols: tuple[int, int], rows: tuple[int, int]) -> None:
        p, ws = step.problem, step.workspace
        self.problem, self.cols, self.rows = p, cols, rows
        self.loop_buffers = step.loop_buffers
        # the whole vectors, which the products and projections take
        self._vx, self._x_hat, self._vy, self._y_hat = ws.vx, step.x_hat, ws.vy, step.y_hat
        self._w, self._gty_hat = step.w, step.gty_hat
        c, r = slice(*cols), slice(*rows)
        self.c, self.gty, self.grad_x, self.vx, self.x, self.x_hat, self.dx = (
            v[c] for v in (p.c, step.gty, ws.grad_x, ws.vx, step.z.x, step.x_hat, ws.dx))
        self.h, self.w, self.vy, self.y, self.y_hat, self.gx, self.dw = (
            v[r] for v in (p.h, step.w, ws.vy, step.z.y, step.y_hat, step.gx, ws.dw))

    def project_x(self) -> None:
        # a projection replaced by another function may return a fresh array
        px = cones.project_primal_set(self._vx, self.problem, self._x_hat)
        if px is not self._x_hat:
            self._x_hat[:] = px

    def project_y(self) -> None:
        py = cones.project_dual_set(self._vy, self.problem, self._y_hat)
        if py is not self._y_hat:
            self._y_hat[:] = py

    def extrapolated_product(self) -> None:
        """w = G(2 x_hat - x), from the workspace's vx."""
        self.problem.G.matvec(self._vx, out=self._w)

    def dual_product(self) -> None:
        """G^T y_hat into the candidate's products."""
        self.problem.G.rmatvec(self._y_hat, out=self._gty_hat)

    def halpern(self, k: int, beta: float) -> None:
        candidate, iterate, anchor = self.loop_buffers
        reflected_halpern_step(candidate, iterate, anchor, k, beta, out=iterate)


class _RangeShard(_Shard):
    """A shard of a sharded step, which runs on its own thread: it projects
    and multiplies on its ranges alone (`cones.RangeProjection`,
    `SparseMatrix.matvec_rows` and `rmatvec_cols`), and updates its four
    regions of the loop's flat [x; y; G x; G^T y] buffers by GIL-releasing
    BLAS passes.  Every entry gets the whole operation's bits."""

    def __init__(self, step: "StepPhases", cols: tuple[int, int], rows: tuple[int, int]) -> None:
        super().__init__(step, cols, rows)
        p = self.problem
        self._project_x = cones.RangeProjection(p, False, *cols)
        self._project_y = cones.RangeProjection(p, True, *rows)
        self._regions = []
        if self.loop_buffers is not None:
            n, m = p.n, p.m
            (c0, c1), (r0, r1) = cols, rows
            candidate, iterate, anchor = self.loop_buffers
            for lo, hi in ((c0, c1), (n + r0, n + r1), (n + m + r0, n + m + r1),
                           (n + 2 * m + c0, n + 2 * m + c1)):
                part = iterate[lo:hi]
                # the views are held here: a BoundUpdate keeps weak references
                views = candidate[lo:hi], anchor[lo:hi]
                self._regions.append(
                    (part, linalg.BoundUpdate(views[0], views[1], part, nogil=True), views))

    def project_x(self) -> None:
        self._project_x(self._vx, self._x_hat)

    def project_y(self) -> None:
        self._project_y(self._vy, self._y_hat)

    def extrapolated_product(self) -> None:
        self.problem.G.matvec_rows(self._vx, *self.rows, self._w)

    def dual_product(self) -> None:
        self.problem.G.rmatvec_cols(self._y_hat, *self.cols, self._gty_hat)

    def halpern(self, k: int, beta: float) -> None:
        a, b = _halpern_weights(k)
        for part, update, _ in self._regions:
            _halpern_in_place(update, part, a, b, beta)


class StepPhases:
    """The body of a PDHG iteration on fixed buffers, as phases over the
    shards of `sharder`; without one, or with one shard, the phases run on
    the whole vectors, on the calling thread.

    The buffers are the iterate z with its products gx = G x and gty =
    G^T y, the candidate `out` ([x_hat; y_hat; w] with w = G(2 x_hat - x),
    then the candidate's G^T product in a loop's [x; y; G x; G^T y]
    candidate) and the `workspace`.  `loop_buffers`, the loop's flat
    (candidate, iterate, anchor), enables the Halpern phase.

    A trial (`candidate`) runs two phases: the x side (c - G^T y on the
    first trial, the prox step, the box clamp and the cone part, 2 x_hat -
    x and dx) over column ranges, then the y side (its rows of G(2 x_hat -
    x), the dual step and projection, dy and w - G x) over row ranges.
    After acceptance, `candidate_products` forms the candidate's products
    (G x_hat from the average of w and G x, the columns of G^T y_hat) and
    `halpern` runs the Halpern update on each shard's regions of the flat
    buffers, both in one phase where no reflection parameter is evaluated
    between them.  Range ends are balanced by the entries of G and lie on
    the ends of the cone blocks a kernel projects whole
    (`linalg.shard_cuts`).  Every entry is computed as the one-shard step
    computes it, and the dots stay on the calling thread, so the bits do
    not depend on the shard count.  A product made of ranges counts as one
    (`n_matvec`, `n_rmatvec`), on the calling thread.
    """

    def __init__(self, problem: ConicProblem, z: IterateZ, gx: np.ndarray, gty: np.ndarray,
                 out: np.ndarray, workspace: StepWorkspace, sharder: linalg.Sharder | None = None,
                 loop_buffers: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None) -> None:
        n, m = problem.n, problem.m
        self.problem, self.z, self.gx, self.gty = problem, z, gx, gty
        self.workspace, self.loop_buffers = workspace, loop_buffers
        self.x_hat, self.y_hat = out[:n], out[n:n + m]
        self.w, self.gty_hat = out[n + m:n + 2 * m], out[n + 2 * m:]
        self._tau = self._sigma = 0.0
        self._first_trial = True
        self._k, self._beta = 0, 0.0
        self._sharder = sharder
        count = 1 if sharder is None else sharder.count
        self.sharded = count > 1
        if not self.sharded:
            self.shards = (_Shard(self, (0, n), (0, m)),)
            return
        g = problem.G
        cols = linalg.shard_cuts(g.indptr, count, cones.unsplit_blocks(problem, dual=False))
        rows = linalg.shard_cuts(g.rows()[0], count, cones.unsplit_blocks(problem, dual=True))
        self.shards = tuple(_RangeShard(self, (cols[i], cols[i + 1]), (rows[i], rows[i + 1]))
                            for i in range(count))

    # -- the phases, each a function of the shard index ----------------------

    def _x_side(self, i: int) -> None:
        s = self.shards[i]
        if self._first_trial:
            np.subtract(s.c, s.gty, out=s.grad_x)
        np.multiply(s.grad_x, self._tau, out=s.vx)
        np.subtract(s.x, s.vx, out=s.vx)
        s.project_x()
        np.multiply(s.x_hat, 2.0, out=s.vx)
        np.subtract(s.vx, s.x, out=s.vx)
        np.subtract(s.x_hat, s.x, out=s.dx)

    def _y_side(self, i: int) -> None:
        s = self.shards[i]
        s.extrapolated_product()
        np.subtract(s.h, s.w, out=s.vy)
        np.multiply(s.vy, self._sigma, out=s.vy)
        np.add(s.y, s.vy, out=s.vy)
        s.project_y()
        np.subtract(s.y_hat, s.y, out=s.vy)
        np.subtract(s.w, s.gx, out=s.dw)

    def _products(self, i: int) -> None:
        s = self.shards[i]
        # G x_hat = (G(2 x_hat - x) + G x) / 2, in place
        np.add(s.w, s.gx, out=s.w)
        np.multiply(s.w, 0.5, out=s.w)
        s.dual_product()

    def _halpern(self, i: int) -> None:
        self.shards[i].halpern(self._k, self._beta)

    def _products_and_halpern(self, i: int) -> None:
        self._products(i)
        self.shards[i].halpern(self._k, self._beta)

    # -- what the step and the loop call; one shard runs its phases with no
    # -- hand-off, so a small solve makes the calls of the one-thread loop

    def candidate(self, tau: float, sigma: float, first_trial: bool) -> None:
        """One trial: x_hat and y_hat, w = G(2 x_hat - x) into `out`, and
        dx, dy (in vy) and dw = w - G x into the workspace.  The first
        trial of a step also forms c - G^T y, which the others reuse."""
        self._tau, self._sigma, self._first_trial = tau, sigma, first_trial
        if self.sharded:
            self._sharder.run(self._x_side)
            self._sharder.run(self._y_side)
            self.problem.G.n_matvec += 1
        else:
            self._x_side(0)
            self._y_side(0)

    def candidate_products(self) -> None:
        """G x_hat and G^T y_hat of the accepted candidate, into the loop's
        candidate buffer."""
        if self.sharded:
            self._sharder.run(self._products)
            self.problem.G.n_rmatvec += 1
        else:
            self._products(0)

    def halpern(self, k: int, beta: float, with_products: bool = False) -> None:
        """`reflected_halpern_step` of the loop's buffers, the iterate
        overwritten; with `with_products`, each shard first forms its part
        of `candidate_products`, in the same phase."""
        self._k, self._beta = k, beta
        phase = self._products_and_halpern if with_products else self._halpern
        if self.sharded:
            self._sharder.run(phase)
            self.problem.G.n_rmatvec += with_products
        else:
            phase(0)


def one_pdhg(problem: ConicProblem, z: IterateZ, tau: float, sigma: float) -> IterateZ:
    """x+ = proj_X(x - tau(c - G'y)); y+ = proj_Y(y + sigma(h - G(2x+ - x)))."""
    n, m = problem.n, problem.m
    out = np.empty(n + 2 * m)
    # the step's interaction term is not read, so no G x is formed for it
    StepPhases(problem, z, np.zeros(m), problem.G.rmatvec(z.y), out,
               StepWorkspace.allocate(n, m)).candidate(tau, sigma, first_trial=True)
    return IterateZ(out[:n], out[n:n + m])


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
    phases: StepPhases | None = None,
) -> StepResult:
    """Line search accepting the first candidate with eta < eta_bar, where
    eta_bar = ||dz||_w^2 / (2 |dy' G dx|).

    The trials run as `phases`, a `StepPhases` of `problem` built on z, its
    products and the buffers the step writes (when None, one on fresh
    buffers, with z's products formed here).  Every trial writes [x_hat;
    y_hat; G(2 x_hat - x)] into the candidate buffer, so on return it holds
    the accepted candidate and `z_hat` views it.  Phases of another problem
    or iterate raise ValueError.  A zero interaction term makes the
    curvature condition vacuous, so the candidate is accepted with eta_bar =
    +inf.  Rejections shrink/grow eta by the (k_bar+1)^-0.3 /
    (k_bar+1)^-0.6 factors and advance k_bar; the returned proposal is
    floored at 1e-12.
    """
    if phases is None:
        n, m = problem.n, problem.m
        phases = StepPhases(problem, z, problem.G.matvec(z.x), problem.G.rmatvec(z.y),
                            np.empty(n + 2 * m), StepWorkspace.allocate(n, m))
    elif phases.problem is not problem or phases.z.x is not z.x or phases.z.y is not z.y:
        raise ValueError("the step's phases are built on another problem or iterate")
    workspace = phases.workspace
    dx, dy, dw = workspace.dx, workspace.vy, workspace.dw
    # below this movement the candidate is a numerical fixed point and the
    # curvature quotient is quantization noise
    noise_floor = 1e-14 * (1.0 + omega_norm(z.x, z.y, omega))

    for trial in range(_MAX_LINE_SEARCH_TRIALS):
        tau = eta / omega
        sigma = eta * omega
        phases.candidate(tau, sigma, trial == 0)
        movement = omega * float(dx.dot(dx)) + float(dy.dot(dy)) / omega
        # dw = w - G x reuses the extrapolated product: G x_hat = (w + G x)/2,
        # so G dx = dw/2
        interaction = abs(float(dy.dot(dw))) / 2.0
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
            return StepResult(IterateZ(phases.x_hat, phases.y_hat), eta, eta_next, k_bar,
                              trial + 1)
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
    a, b = _halpern_weights(k)
    if linalg.BLAS is None:
        return _halpern_on_scipy_blas(z_hat, z_old, z_anchor, a, b, beta, out)
    update = linalg.bound_update(z_hat, z_anchor, out)
    if z_old is out:
        _halpern_in_place(update, out, a, b, beta)
        return out
    if z_old.shape != out.shape:
        raise ValueError(f"z_old must have shape {out.shape}, got {z_old.shape}")
    np.multiply(z_old, -a * beta, out=out)
    update.axpy_axpy(a * (1.0 + beta), b)
    return out


def _halpern_weights(k: int) -> tuple[float, float]:
    """a = (k+1)/(k+2) and b = 1/(k+2) of the Halpern step at inner iteration k."""
    return (k + 1.0) / (k + 2.0), 1.0 / (k + 2.0)


def _halpern_in_place(update: linalg.BoundUpdate, out: np.ndarray, a: float, b: float,
                      beta: float) -> None:
    """The Halpern step with z_old = out, through `update`, bound on
    (z_hat, z_anchor, out): one `daxpby` and one `daxpy`, or at beta = 0,
    where `daxpby` would not read out, the scaling and two `daxpy`."""
    if beta != 0.0:
        update.axpby_axpy(a * (1.0 + beta), -a * beta, b)
    else:
        np.multiply(out, -a * beta, out=out)
        update.axpy_axpy(a * (1.0 + beta), b)


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
        self._gap_t = 1.0
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
        (G x, G^T y).  The search starts from the last t of the solve's
        previous gap evaluation (`_gap_t`), and records its own."""
        query = restarts.GapQuery(
            x=z.x,
            y=z.y,
            b1=products.y - self.scaled.c,
            b2=self.scaled.h - products.x,
            r=radius,
            ctx=ctx,
            proj_x=lambda v: cones.project_primal_set(v, self.scaled),
            proj_y=lambda v: cones.project_dual_set(v, self.scaled),
        )
        value = restarts.normalized_gap(query, self._gap_t, _RESTART_GAP_TOL)
        self._gap_t = query.t
        return value

    def _kkt_metric(self, z: IterateZ, products: IterateZ, omega: float) -> float:
        report = term.compute_errors(self.scaled, z.x, z.y, products.x, products.y)
        return restarts.kkt_omega(report, omega)

    def _baseline_gap(self, state: SolverState) -> None:
        """Restart baseline for the first outer loop: the gap of z0 at the
        radius of one plain PDHG step from z0, a line-search trial of the
        solve's phases.  The step reads the G^T y of z0 that `_init_state`
        left in the iterate's products, and goes through the candidate
        buffer and the workspace, which the first iteration overwrites."""
        ctx = WeightedNormContext(state.omega, state.eta_hat)
        self.phases.candidate(ctx.tau, ctx.sigma, first_trial=True)
        x_ref, y_ref = self.phases.x_hat, self.phases.y_hat
        radius = n_norm(state.z.x - x_ref, state.z.y - y_ref, ctx)
        try:
            state.last_restart_metric = self._gap_metric(state.z, radius, ctx, self.products)
        except restarts.GapEvaluationError:
            state.mode = "kkt"
            state.last_restart_metric = self._kkt_metric(state.z, self.products, state.omega)

    # -- original-problem report --------------------------------------------

    def _unscaled(self, z: IterateZ, products: IterateZ):
        """x, y, G x and G^T y on the unscaled problem `work`, mapped back
        from a point of the scaled loop and its products (`z` and
        `products` of one [x; y; G x; G^T y] buffer)."""
        x, y = scalings.unscale_solution(z.x, z.y, self.scaling)
        gx, gty = scalings.unscale_products(products.x, products.y, self.scaling)
        return x, y, gx, gty

    def _original_report(self, z: IterateZ, products: IterateZ):
        x, y, gx, gty = self._unscaled(z, products)
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
        """Run the exit tests on the original-problem report of the iterate,
        from the loop's products (fresh at checks, running between them), and
        return the code of the first that fires; a non-finite iterate or
        report raises NumericalError.  It writes no loop state but
        `_last_report` and, at checks, the infeasibility history."""
        report, x, y, gx, gty = self._original_report(state.z, self.products)
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
        inner loop to the weighted-KKT fallback.  Both metrics take the
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
                state.last_restart_metric = self._kkt_metric(
                    state.z_anchor, self.anchor_products, state.omega)
            cand_val = self._kkt_metric(z, self.products, state.omega)

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
        # the helper threads are joined however the loop ends
        with linalg.Sharder(_shard_count(self.scaled)) as sharder:
            self.phases = StepPhases(self.scaled, state.z, *self.products, self.candidate,
                                     self.workspace, sharder,
                                     (self.candidate, self.iterate, self.anchor))
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
        phases = self.phases

        while True:
            k_prev = state.k_bar
            # k_bar counts every PDHG computation, including the one about
            # to happen, so the line-search factors never see the
            # degenerate value 0 after the solve starts.  It reaches `state`
            # only once the iteration completes.
            k_bar = k_prev + 1
            # writes [x_hat; y_hat; G(2 x_hat - x)] into the candidate
            step = adaptive_step_pdhg(self.scaled, state.z, state.omega, state.eta_hat, k_bar,
                                      phases=phases)
            state.eta = step.eta_used
            state.eta_hat = step.eta_next
            k_bar = step.k_bar  # rejected trials also advance the count

            # the candidate's products, then the Halpern step on the iterate
            # buffer: one phase, or two around a reflection parameter
            if state.k == 0 or _reached(k_prev, k_bar, _REFLECTION_FREQ):
                phases.candidate_products()
                state.beta = term.adaptive_reflection_parameter(term.compute_errors(
                    self.scaled, z_hat.x, z_hat.y, products_hat.x, products_hat.y
                ))
                phases.halpern(state.k, state.beta)
            else:
                phases.halpern(state.k, state.beta, with_products=True)
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
                    self._last_report = self._original_report(state.z, self.products)[0]
                self._log_line(state, self._last_report)
            if at_check and options.use_adaptive_restart:
                self._restart_check(state)

    def _build_result(self, state: SolverState, code: int) -> SolveResult:
        """Map the iterate back to the original problem and build the result
        for exit `code`.  The slack G x - h and the multiplier c - G^T y
        come from the iterate buffer's products, as a scan reads them, so
        an exit at a scan returns the vectors its tests judged; no product
        is formed.  Only the objectives are evaluated on the caller's
        problem."""
        x_w, y_w, gx, gty = self._unscaled(state.z, self.products)
        x, y, slack, lam = apply_rsoc_inverse(self.original, x_w, y_w, gx - self.work.h,
                                              recover_dual(self.work, y_w, gty))
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
