"""Conic-program instance data, dual recovery, and cone-block layout.

The problem solved is

    min <c, x>   s.t.  Gx - h in K_d*,  l <= x_1 <= u,  x_2 in K_p,

where x = (x_1, x_2) splits into num_box box-bounded variables and cone
variables.  `dual_cones` describes the constraint-residual cone K_d* block
by block, in any order and with any number of blocks of each kind (rsoc
blocks only until presolve promotes them in place to soc); the dual iterate
y lives in K_d, the blockwise dual of that product, so equality-row duals
are sign-free.  Only the problem file fixes an order of blocks (`fileio`).

Which of l_i and u_i are finite fixes the box, the multiplier set Lambda and
the box's recession cone as intervals; each ConicProblem builds them once,
as its `box` (BoxFacts), and no other module reads l and u for that.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import SparseMatrix, canonical_lines, one_norm

_SQRT2 = math.sqrt(2.0)
_INV_SQRT2 = 1.0 / _SQRT2


class Cone(enum.Enum):
    ZERO = "zero"
    NONNEG = "nonneg"
    SOC = "soc"
    RSOC = "rsoc"
    EXP = "exp"
    DUAL_EXP = "dual_exp"
    # FREE is a projection-dispatch target (the dual of ZERO); it is not a
    # valid block kind in a ConeSpec.
    FREE = "free"


@dataclass(frozen=True)
class ConeSpec:
    """One cone block: its kind, dimension, and diagonal scaling vector.

    The scale is all-ones unless given, and the scaling module multiplies it
    by the preconditioner's slice.  A primal block constrains its variables
    v through `diag(scale) @ v in K(kind)`; a dual block constrains its rows
    of the residual through `diag(1/scale) @ (G x - h) in K(kind)`, and so
    its dual variables y through `diag(scale) @ y in K(kind)*`.
    """

    kind: Cone
    dim: int
    scale: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.kind is Cone.FREE:
            raise ValueError("free blocks are implicit; they cannot appear in a ConeSpec")
        if self.dim < 1:
            raise ValueError(f"cone block dimension must be positive, got {self.dim}")
        if self.kind in (Cone.EXP, Cone.DUAL_EXP) and self.dim != 3:
            raise ValueError(f"{self.kind.value} blocks are 3-dimensional, got dim={self.dim}")
        if self.kind is Cone.SOC and self.dim < 2:
            raise ValueError(f"soc blocks need dim >= 2, got {self.dim}")
        if self.kind is Cone.RSOC and self.dim < 3:
            raise ValueError(f"rsoc blocks need dim >= 3, got {self.dim}")
        if self.scale is None:
            # all ones, which passes every check below
            object.__setattr__(self, "scale", np.ones(self.dim))
            return
        scale = np.asarray(self.scale, dtype=np.float64)
        object.__setattr__(self, "scale", scale)
        if scale.shape != (self.dim,):
            raise ValueError(f"scale must have length {self.dim}, got {scale.shape}")
        if not np.all(np.isfinite(scale)) or np.any(scale <= 0):
            raise ValueError("scale entries must be strictly positive and finite")
        if self.kind in (Cone.EXP, Cone.DUAL_EXP) and not np.all(scale == scale[0]):
            raise ValueError(f"{self.kind.value} blocks require block-uniform scales")
        # rsoc_to_soc rotates the first two coordinates, which commutes with
        # the diagonal scale only where those two entries are equal
        if self.kind is Cone.RSOC and scale[0] != scale[1]:
            raise ValueError("rsoc blocks require equal first two scale entries")

    def with_scale(self, scale: np.ndarray) -> "ConeSpec":
        return replace(self, scale=np.asarray(scale, dtype=np.float64))


@dataclass(frozen=True)
class ConicProblem:
    """Immutable instance data; all operations on it are pure functions.

    The blocks of `primal_cones` and `dual_cones` may come in any order,
    and any kind may repeat: every projection, scale and exit test works
    block by block."""

    c: np.ndarray
    G: SparseMatrix
    h: np.ndarray
    l: np.ndarray
    u: np.ndarray
    num_box: int
    primal_cones: tuple[ConeSpec, ...] = ()
    dual_cones: tuple[ConeSpec, ...] = ()
    # Derived from the fields above, so init, repr and == ignore them: the
    # box facts, built in __post_init__, and the cones.ConeLayout, set by
    # cones.cone_layout on first use.
    box: BoxFacts = field(default=None, init=False, repr=False, compare=False)
    _cone_layout: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Copies, so the caller's arrays cannot change what `box` was built from.
        c = np.array(self.c, dtype=np.float64)
        h = np.array(self.h, dtype=np.float64)
        l = np.array(self.l, dtype=np.float64)
        u = np.array(self.u, dtype=np.float64)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "primal_cones", tuple(self.primal_cones))
        object.__setattr__(self, "dual_cones", tuple(self.dual_cones))

        n, m, n1 = self.n, self.m, self.num_box
        if self.G.shape != (m, n):
            raise ValueError(f"G has shape {self.G.shape}, expected {(m, n)}")
        if not 0 <= n1 <= n:
            raise ValueError(f"num_box must lie in [0, {n}], got {n1}")
        if l.shape != (n1,) or u.shape != (n1,):
            raise ValueError(f"l and u must have length num_box={n1}")
        if np.any(np.isnan(l)) or np.any(np.isnan(u)):
            raise ValueError("bounds must not contain NaN")
        object.__setattr__(self, "box", BoxFacts(l, u, c, h))
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(h))):
            raise ValueError("c and h must be finite")

        if sum(s.dim for s in self.primal_cones) != n - n1:
            raise ValueError(
                f"primal cone dims sum to {sum(s.dim for s in self.primal_cones)}, expected n - num_box = {n - n1}"
            )
        if sum(s.dim for s in self.dual_cones) != m:
            raise ValueError(
                f"dual cone dims sum to {sum(s.dim for s in self.dual_cones)}, expected m = {m}"
            )

    @property
    def n(self) -> int:
        return int(self.c.shape[0])

    @property
    def m(self) -> int:
        return int(self.h.shape[0])

    @property
    def num_cone_vars(self) -> int:
        return self.n - self.num_box

    def has_rsoc_blocks(self) -> bool:
        return any(s.kind is Cone.RSOC for s in self.primal_cones + self.dual_cones)


def block_slices(specs: tuple[ConeSpec, ...], offset: int = 0) -> list[tuple[ConeSpec, slice]]:
    out = []
    start = offset
    for spec in specs:
        out.append((spec, slice(start, start + spec.dim)))
        start += spec.dim
    return out


def finite_bounds(l: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The finiteness masks of l and u, checking that every [l_i, u_i] is
    nonempty: l_i <= u_i where both are finite, and no l_i = +inf or u_i = -inf."""
    lower_finite = np.isfinite(l)
    upper_finite = np.isfinite(u)
    both = lower_finite & upper_finite
    if np.any(l[both] > u[both]):
        raise ValueError("componentwise l <= u violated")
    if np.any(l == np.inf) or np.any(u == -np.inf):
        raise ValueError("empty box: a lower bound is +inf or an upper bound is -inf")
    return lower_finite, upper_finite


def _positions(mask: np.ndarray) -> slice | np.ndarray:
    """Where `mask` holds: a slice when it holds everywhere, so that indexing
    with it is a view, not a gather."""
    return slice(None) if mask.all() else np.flatnonzero(mask)


class BoxFacts:
    """What the bounds of one ConicProblem fix, computed once.

    The multiplier set Lambda of lambda_1 is the interval [lam_lo, lam_hi].
    By the finiteness of (l_i, u_i) it is {0} when both are infinite, R- when
    only l is, R+ when only u is, and R when both are finite.  The recession
    cone of [l, u] is [rec_lo, rec_hi]: 0 on a finite side, else infinite.
    Then the positions (index arrays, or a full slice when a side is finite
    throughout) and values of the finite l and u, and h_denom, c_denom =
    1 + ||h||_1, 1 + ||c||_1.
    """

    def __init__(self, l: np.ndarray, u: np.ndarray, c: np.ndarray, h: np.ndarray) -> None:
        lower_finite, upper_finite = finite_bounds(l, u)
        self.lam_lo = np.where(upper_finite, -np.inf, 0.0)
        self.lam_hi = np.where(lower_finite, np.inf, 0.0)
        self.rec_lo = np.where(lower_finite, 0.0, -np.inf)
        self.rec_hi = np.where(upper_finite, 0.0, np.inf)
        self.l_idx = _positions(lower_finite)
        self.l_val = l[self.l_idx]
        self.u_idx = _positions(upper_finite)
        self.u_val = u[self.u_idx]
        self.h_denom = 1.0 + one_norm(h)
        self.c_denom = 1.0 + one_norm(c)

    def support(self, lam1: np.ndarray, start: float) -> float:
        """start + l' lam1^+ - u' lam1^-, over the finite bounds only, summed
        in that order."""
        start += float(np.dot(self.l_val, np.maximum(lam1[self.l_idx], 0.0)))
        start -= float(np.dot(self.u_val, np.maximum(-lam1[self.u_idx], 0.0)))
        return start


def recover_dual(problem: ConicProblem, y: np.ndarray, gty: np.ndarray | None = None) -> np.ndarray:
    """lambda = c - G^T y.  `gty` may carry a precomputed G^T y."""
    if gty is None:
        gty = problem.G.rmatvec(y)
    return problem.c - gty


def dual_objective(problem: ConicProblem, y: np.ndarray, lam: np.ndarray) -> float:
    """<y, h> + l' lambda_1^+ - u' lambda_1^-, with lambda_1 the first num_box
    entries of `lam`.

    Terms with an infinite bound contribute 0 regardless of the multiplier;
    a nonzero multiplier against an infinite bound is dual infeasibility and
    is captured by the Lambda projection in the error metrics, so the
    objective stays finite.
    """
    return problem.box.support(lam[: problem.num_box], float(np.dot(y, problem.h)))


def _rotation_blocks(specs, offset):
    """Slices of rsoc blocks whose first two coordinates get the orthogonal map."""
    return [sl for spec, sl in block_slices(specs, offset) if spec.kind is Cone.RSOC]


def rotate_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The symmetric involutive map (p, q) -> ((p+q)/sqrt(2), (p-q)/sqrt(2))."""
    return (a + b) / _SQRT2, (a - b) / _SQRT2


def _rotation(size: int, starts: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The orthogonal involution R that mixes each pair (i, i + 1), i in
    `starts`, by the rsoc map, as its diagonal and each index's partner in
    its pair (the index itself outside the pairs): R[k, k] is 1, 1/sqrt(2)
    or -1/sqrt(2), and R[k, partner[k]] = 1/sqrt(2) off the diagonal."""
    i = np.array(starts, dtype=np.int64)
    diagonal, partner = np.ones(size), np.arange(size)
    diagonal[i], diagonal[i + 1] = _INV_SQRT2, -_INV_SQRT2
    partner[i], partner[i + 1] = i + 1, i
    return diagonal, partner


def _rotate_vector(v: np.ndarray, diagonal: np.ndarray, partner: np.ndarray) -> np.ndarray:
    """R v, each entry summed from 0.0 as `csr_matvec` sums it, so -0.0
    becomes 0.0.  From 0.0 a sum of two terms does not depend on their order."""
    out = 0.0 + diagonal * v
    paired = np.flatnonzero(partner != np.arange(v.size))
    out[paired] += _INV_SQRT2 * v[partner[paired]]
    return out


def _rotate_lines(lines, others, vals, shape, diagonal, partner):
    """The triplets (lines, others, vals) of R M, where M is the matrix of
    `shape` with `lines` as its row indices.  An entry of R M has at most
    two terms; `canonical_lines` adds them, and entries that sum to zero
    are dropped.  The sparse product R M adds them from 0.0 in another
    order, which changes only a zero sum, and drops those too."""
    moved = partner[lines] != lines
    indptr, others, vals = canonical_lines(
        np.concatenate((lines, partner[lines[moved]])),
        np.concatenate((others, others[moved])),
        np.concatenate((diagonal[lines] * vals, _INV_SQRT2 * vals[moved])), shape)
    kept = vals != 0.0
    lines = np.repeat(np.arange(shape[0]), np.diff(indptr))
    return lines[kept], others[kept], vals[kept]


def rsoc_to_soc(problem: ConicProblem) -> ConicProblem:
    """Rewrite each rotated second-order block as a standard one.

    A rotated block (p, q, w) with 2pq >= ||w||^2, p, q >= 0 maps to
    (t, s, w) in K_soc via t = (p+q)/sqrt(2), s = (p-q)/sqrt(2); the map is
    orthogonal and involutive, so rows of G and h (dual blocks) or columns
    of G and entries of c (primal blocks) transform by the same matrix.
    Each promoted block keeps its place, so no row or column moves.
    `apply_rsoc_inverse` maps solutions back to the original blocks.
    """
    if not problem.has_rsoc_blocks():
        return problem

    m, n = problem.G.shape
    rows, cols, vals = problem.G.triplets()
    h, c = problem.h, problem.c
    row_starts = [sl.start for sl in _rotation_blocks(problem.dual_cones, 0)]
    col_starts = [sl.start for sl in _rotation_blocks(problem.primal_cones, problem.num_box)]
    if row_starts:
        rotation = _rotation(m, row_starts)
        rows, cols, vals = _rotate_lines(rows, cols, vals, (m, n), *rotation)
        h = _rotate_vector(h, *rotation)
    if col_starts:
        rotation = _rotation(n, col_starts)
        cols, rows, vals = _rotate_lines(cols, rows, vals, (n, m), *rotation)
        c = _rotate_vector(c, *rotation)

    def promote(specs):
        return tuple(
            ConeSpec(Cone.SOC, s.dim, s.scale) if s.kind is Cone.RSOC else s for s in specs
        )

    return ConicProblem(
        c=c,
        G=SparseMatrix.from_coo(rows, cols, vals, (m, n)),
        h=h,
        l=problem.l,
        u=problem.u,
        num_box=problem.num_box,
        primal_cones=promote(problem.primal_cones),
        dual_cones=promote(problem.dual_cones),
    )


def apply_rsoc_inverse(original: ConicProblem, x: np.ndarray, y: np.ndarray,
                       slack: np.ndarray, lam: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Map a solution of the reformulated problem back to the original
    blocks: x, y, slack = G x - h and lam = c - G^T y.

    With G_w = R_r G R_c, h_w = R_r h and c_w = R_c c (R_r, R_c the
    involutive rotations), x and lam are rotated back by R_c, and y and
    slack by R_r."""
    if not original.has_rsoc_blocks():
        return x, y, slack, lam
    x, y, slack, lam = x.copy(), y.copy(), slack.copy(), lam.copy()
    for sl in _rotation_blocks(original.primal_cones, original.num_box):
        i, j = sl.start, sl.start + 1
        x[i], x[j] = rotate_pair(x[i], x[j])
        lam[i], lam[j] = rotate_pair(lam[i], lam[j])
    for sl in _rotation_blocks(original.dual_cones, 0):
        i, j = sl.start, sl.start + 1
        y[i], y[j] = rotate_pair(y[i], y[j])
        slack[i], slack[j] = rotate_pair(slack[i], slack[j])
    return x, y, slack, lam
