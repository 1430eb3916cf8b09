"""Diagonal preconditioning: build D1, D2, rescale the instance, map back.

The rescaled instance replaces G by D1 G D2 with c_hat = D2 c, h_hat = D1 h,
l_hat = D2^-1 l, u_hat = D2^-1 u.  Each cone block's scale is multiplied
by its diagonal slice (primal blocks a slice of d2, dual blocks a slice of
d1), so a block the caller scaled by s holds s * slice.  Exponential blocks
only admit block-uniform scaling, enforced here by a geometric mean, as are
dual-side second-order blocks.

The scales come from one array of entry magnitudes |G_ij|, in the stored
CSC order (by column, then row).  Each Ruiz round takes its row and column
maxima and rescales the array in place, instead of rebuilding the matrix.
Two orders are fixed so that the scales equal, bit for bit, those of the
matrix formulation diag(r) @ A @ diag(c) reduced by scipy:

* a round multiplies each magnitude as (r_i a_ij) c_j, the order of the two
  sparse products; maxima are exact, so their order is free;
* the Pock-Chambolle sums reduce each column in CSC order and each row in
  CSR order, as scipy's `sum(axis=...)` does (`linalg.line_sums`).

Sparse products drop entries that round to zero, so the sums skip the
magnitudes that the Ruiz rounds rounded to zero (`linalg.drop_zeros`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import drop_zeros, line_sums
from .model import Cone, ConicProblem, block_slices

_SCALE_CLAMP_LO = 1e-8
_SCALE_CLAMP_HI = 1e8
_RUIZ_ROUNDS = 10


@dataclass(frozen=True)
class ScalingPair:
    """Row scales d1 (length m) and column scales d2 (length n)."""

    d1: np.ndarray
    d2: np.ndarray

    def __post_init__(self) -> None:
        for name, d in (("d1", self.d1), ("d2", self.d2)):
            if np.any(d <= 0) or not np.all(np.isfinite(d)):
                raise ValueError(f"{name} entries must be strictly positive and finite")

    @classmethod
    def identity(cls, m: int, n: int) -> "ScalingPair":
        return cls(np.ones(m), np.ones(n))


def _safe_inv_sqrt(v: np.ndarray) -> np.ndarray:
    """1/sqrt(v) with zero entries mapped to a unit (no-op) scale."""
    return np.divide(1.0, np.sqrt(v), out=np.ones_like(v), where=v > 0)


def _geometric_mean(v: np.ndarray) -> float:
    return float(np.exp(np.mean(np.log(v))))


def _enforce_block_uniformity(
    d: np.ndarray, specs, offset: int, allow_nonuniform_soc: bool
) -> np.ndarray:
    out = d.copy()
    for spec, sl in block_slices(specs, offset):
        uniform = spec.kind in (Cone.EXP, Cone.DUAL_EXP, Cone.RSOC) or (
            spec.kind is Cone.SOC and not allow_nonuniform_soc
        )
        if uniform:
            out[sl] = _geometric_mean(out[sl])
    return out


def _ruiz_rounds(rows: np.ndarray, cols: np.ndarray, a: np.ndarray, m: int, n: int):
    """`_RUIZ_ROUNDS` Ruiz rounds on the magnitudes `a` of an m x n matrix,
    at (rows, cols) in any order, rescaled in place: the row scales d1, the
    column scales d2 and `a`.  The buffers are allocated once."""
    d1, d2 = np.ones(m), np.ones(n)
    row_max, col_max, factors = np.empty(m), np.empty(n), np.empty_like(a)
    for _ in range(_RUIZ_ROUNDS):
        row_max.fill(0.0)
        col_max.fill(0.0)
        np.maximum.at(row_max, rows, a)
        np.maximum.at(col_max, cols, a)
        r = _safe_inv_sqrt(row_max)
        c = _safe_inv_sqrt(col_max)
        d1 *= r
        d2 *= c
        # mode="clip" writes `out` directly, where "raise" buffers it
        a *= np.take(r, rows, out=factors, mode="clip")
        a *= np.take(c, cols, out=factors, mode="clip")
    return d1, d2, a


def build_scaling(problem: ConicProblem) -> ScalingPair:
    """Ten Ruiz rounds followed by a Pock-Chambolle (alpha=1) pass.

    Each Ruiz round divides rows and columns by the square root of their
    current max-abs (computed simultaneously from the same snapshot); the
    Pock-Chambolle pass uses 1/sqrt of the row/column 1-norms.  Afterwards
    block-uniformity constraints are enforced and scales clamped to
    [1e-8, 1e8].
    """
    if problem.G.nnz == 0:
        raise ValueError("build_scaling needs a nonzero constraint matrix")

    m, n = problem.m, problem.n
    rows, cols, vals = problem.G.triplets()  # CSC order
    rows = rows.astype(np.intp)  # numpy converts other index arrays at every gather
    d1, d2, a = _ruiz_rounds(rows, cols, np.abs(vals), m, n)

    nonzero = drop_zeros((m, n), problem.G.indptr, problem.G.indices, a)
    row_sums, col_sums = line_sums((m, n), *nonzero)
    d1 *= _safe_inv_sqrt(row_sums)
    d2 *= _safe_inv_sqrt(col_sums)

    # Primal cone blocks sit after the box variables in the columns; exp and
    # dual soc blocks must stay projectable in closed/1-d form.
    d2 = _enforce_block_uniformity(d2, problem.primal_cones, problem.num_box, True)
    d1 = _enforce_block_uniformity(d1, problem.dual_cones, 0, False)

    return ScalingPair(
        d1=np.clip(d1, _SCALE_CLAMP_LO, _SCALE_CLAMP_HI),
        d2=np.clip(d2, _SCALE_CLAMP_LO, _SCALE_CLAMP_HI),
    )


def rescale_problem(problem: ConicProblem, s: ScalingPair) -> ConicProblem:
    """Apply (d1, d2), built from `problem`: each block of the returned
    instance stores its own scale times its slice.  `SparseMatrix.scaled`
    scales G on its own pattern, in the order of the matrix formulation,
    (d1_i g_ij) d2_j."""
    d1, d2 = s.d1, s.d2

    d2_box = d2[: problem.num_box]
    with np.errstate(invalid="ignore"):
        l_hat = problem.l / d2_box
        u_hat = problem.u / d2_box

    primal = tuple(
        spec.with_scale(spec.scale * d2[sl])
        for spec, sl in block_slices(problem.primal_cones, problem.num_box)
    )
    dual = tuple(spec.with_scale(spec.scale * d1[sl])
                 for spec, sl in block_slices(problem.dual_cones))

    return ConicProblem(
        c=problem.c * d2,
        G=problem.G.scaled(d1, d2),
        h=problem.h * d1,
        l=l_hat,
        u=u_hat,
        num_box=problem.num_box,
        primal_cones=primal,
        dual_cones=dual,
    )


def unscale_solution(x_tilde: np.ndarray, y_tilde: np.ndarray, s: ScalingPair):
    """Map a rescaled-problem solution back: x = D2 x~, y = D1 y~."""
    return x_tilde * s.d2, y_tilde * s.d1


def unscale_products(gx_tilde: np.ndarray, gty_tilde: np.ndarray, s: ScalingPair):
    """Map rescaled products back: G x = D1^-1 (G~ x~), G^T y = D2^-1 (G~^T y~)."""
    return gx_tilde / s.d1, gty_tilde / s.d2
