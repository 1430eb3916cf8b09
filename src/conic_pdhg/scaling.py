"""Diagonal preconditioning: build D1, D2, rescale the instance, map back.

The rescaled instance replaces G by D1 G D2 with c_hat = D2 c, h_hat = D1 h,
l_hat = D2^-1 l, u_hat = D2^-1 u.  Each cone block's scale is multiplied
by its diagonal slice (primal blocks a slice of d2, dual blocks a slice of
d1), so a block the caller scaled by s holds s * slice.  Exponential blocks
only admit block-uniform scaling, enforced here by a geometric mean, as are
dual-side second-order blocks.

The scales come from one array of entry magnitudes |G_ij|, read once in
the stored CSC order (by column, then row).  Each Ruiz round takes its row and column
maxima and rescales it, instead of rebuilding the matrix.  Two orders are
fixed so that the scales equal, bit for bit, those of the matrix
formulation diag(r) @ A @ diag(c) reduced by scipy:

* a round multiplies each magnitude as (r_i a_ij) c_j, the order of the two
  sparse products; maxima are exact, so their order is free;
* the Pock-Chambolle sums reduce each column in CSC order and each row in
  CSR order with `np.add.reduceat`, as scipy's `sum(axis=...)` does; a
  reordered or differently blocked float sum can change the last bit.

Sparse products drop entries that round to zero, so the sums skip the
magnitudes that the Ruiz rounds rounded to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    out = np.ones_like(v)
    nz = v > 0
    out[nz] = 1.0 / np.sqrt(v[nz])
    return out


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


def _run_sums(values: np.ndarray, keys: np.ndarray, size: int) -> np.ndarray:
    """Sums of `values` over the runs of equal ascending `keys`, by
    np.add.reduceat as scipy sums a compressed matrix along its major axis;
    0 where a key has no entry."""
    out = np.zeros(size)
    if keys.size:
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        out[keys[starts]] = np.add.reduceat(values, starts)
    return out


def _ruiz_rounds(rows: np.ndarray, cols: np.ndarray, a: np.ndarray, m: int, n: int):
    """`_RUIZ_ROUNDS` Ruiz rounds on the magnitudes `a` of an m x n matrix,
    at (rows, cols) in any order: the row scales d1, the column scales d2
    and the rescaled magnitudes."""
    d1 = np.ones(m)
    d2 = np.ones(n)
    for _ in range(_RUIZ_ROUNDS):
        row_max, col_max = np.zeros(m), np.zeros(n)
        np.maximum.at(row_max, rows, a)
        np.maximum.at(col_max, cols, a)
        r = _safe_inv_sqrt(row_max)
        c = _safe_inv_sqrt(col_max)
        d1 *= r
        d2 *= c
        a = r[rows] * a * c[cols]
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
    d1, d2, a = _ruiz_rounds(rows, cols, np.abs(vals), m, n)

    kept = a > 0
    rows, cols, a = rows[kept], cols[kept], a[kept]
    # CSR order: by row, then column (the pairs are unique)
    csr = np.argsort(rows.astype(np.int64) * n + cols)
    d1 *= _safe_inv_sqrt(_run_sums(a[csr], rows[csr], m))
    d2 *= _safe_inv_sqrt(_run_sums(a, cols, n))

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
