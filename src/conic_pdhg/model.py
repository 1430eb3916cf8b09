"""Conic-program instance data, dual recovery, and cone-block layout.

The problem solved is

    min <c, x>   s.t.  Gx - h in K_d*,  l <= x_1 <= u,  x_2 in K_p,

where x = (x_1, x_2) splits into num_box box-bounded variables and cone
variables.  `dual_cones` describes the constraint-residual cone K_d* block
by block in the fixed layout zero -> nonneg -> soc -> exp -> dual-exp
(-> rsoc, transient until presolve); the dual iterate y lives in K_d, the
blockwise dual of that product, so equality-row duals are sign-free.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .linalg import SparseMatrix

_SQRT2 = math.sqrt(2.0)


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


# Fixed ordering of dual residual-cone groups (rsoc last: extension blocks
# must not shift the positions of the standard groups).
_DUAL_GROUP_ORDER = (Cone.ZERO, Cone.NONNEG, Cone.SOC, Cone.EXP, Cone.DUAL_EXP, Cone.RSOC)


@dataclass(frozen=True)
class ConeSpec:
    """One cone block: its kind, dimension, and diagonal scaling vector.

    The scale is all-ones until the scaling module populates it.  Membership
    in the scaled block is `diag(scale) @ v in K(kind)`.
    """

    kind: Cone
    dim: int
    scale: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.scale is None:
            object.__setattr__(self, "scale", np.ones(self.dim))
        scale = np.asarray(self.scale, dtype=np.float64)
        object.__setattr__(self, "scale", scale)
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
        if scale.shape != (self.dim,):
            raise ValueError(f"scale must have length {self.dim}, got {scale.shape}")
        if not np.all(np.isfinite(scale)) or np.any(scale <= 0):
            raise ValueError("scale entries must be strictly positive and finite")
        if self.kind in (Cone.EXP, Cone.DUAL_EXP) and not np.all(scale == scale[0]):
            raise ValueError(f"{self.kind.value} blocks require block-uniform scales")

    def with_scale(self, scale: np.ndarray) -> "ConeSpec":
        return replace(self, scale=np.asarray(scale, dtype=np.float64))


def _check_cone_order(specs: tuple[ConeSpec, ...], where: str) -> None:
    ranks = [_DUAL_GROUP_ORDER.index(s.kind) for s in specs]
    if any(b < a for a, b in zip(ranks, ranks[1:])):
        raise ValueError(f"{where} blocks must follow the order zero, nonneg, soc, exp, dual-exp, rsoc")
    for kind in (Cone.ZERO, Cone.NONNEG):
        if sum(1 for s in specs if s.kind is kind) > 1:
            raise ValueError(f"{where} may contain at most one {kind.value} block")


@dataclass(frozen=True)
class ConicProblem:
    """Immutable instance data; all operations on it are pure functions."""

    c: np.ndarray
    G: SparseMatrix
    h: np.ndarray
    l: np.ndarray
    u: np.ndarray
    num_box: int
    primal_cones: tuple[ConeSpec, ...] = ()
    dual_cones: tuple[ConeSpec, ...] = ()
    # Cache of the cones.ConeLayout, set by cones.cone_layout on first use.
    # It is derived from the fields above, so init, repr and == ignore it.
    _cone_layout: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=np.float64)
        h = np.asarray(self.h, dtype=np.float64)
        l = np.asarray(self.l, dtype=np.float64)
        u = np.asarray(self.u, dtype=np.float64)
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
        finite = np.isfinite(l) & np.isfinite(u)
        if np.any(l[finite] > u[finite]):
            raise ValueError("componentwise l <= u violated")
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
        _check_cone_order(self.dual_cones, "dual_cones")

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


@dataclass(frozen=True)
class LambdaSet:
    """Per-coordinate sign set for the box multipliers lambda_1.

    Tags follow the finiteness of (l_i, u_i): both infinite -> {0},
    l only infinite -> R-, u only infinite -> R+, both finite -> R.
    """

    lower_finite: np.ndarray
    upper_finite: np.ndarray

    @classmethod
    def from_bounds(cls, l: np.ndarray, u: np.ndarray) -> "LambdaSet":
        return cls(np.isfinite(l), np.isfinite(u))

    def project(self, lam: np.ndarray) -> np.ndarray:
        out = lam.copy()
        zero = ~self.lower_finite & ~self.upper_finite
        nonpos = ~self.lower_finite & self.upper_finite
        nonneg = self.lower_finite & ~self.upper_finite
        out[zero] = 0.0
        out[nonpos] = np.minimum(lam[nonpos], 0.0)
        out[nonneg] = np.maximum(lam[nonneg], 0.0)
        return out


@dataclass(frozen=True)
class DualRecovery:
    """Dual multipliers recovered from y via lambda = c - G^T y."""

    y: np.ndarray
    lam: np.ndarray
    num_box: int

    @property
    def lam_box(self) -> np.ndarray:
        return self.lam[: self.num_box]

    @property
    def lam_cone(self) -> np.ndarray:
        return self.lam[self.num_box:]


def recover_dual(problem: ConicProblem, y: np.ndarray, gty: np.ndarray | None = None) -> DualRecovery:
    """lambda = c - G^T y, split at num_box.  `gty` may carry a precomputed G^T y."""
    if y.shape != (problem.m,):
        raise ValueError(f"y must have length {problem.m}, got {y.shape}")
    if gty is None:
        gty = problem.G.rmatvec(y)
    return DualRecovery(y=y, lam=problem.c - gty, num_box=problem.num_box)


def dual_objective(problem: ConicProblem, rec: DualRecovery) -> float:
    """<y, h> + l' lambda_1^+ - u' lambda_1^-.

    Terms with an infinite bound contribute 0 regardless of the multiplier;
    a nonzero multiplier against an infinite bound is dual infeasibility and
    is captured by the Lambda projection in the error metrics, so the
    objective stays finite.
    """
    lam1 = rec.lam_box
    if lam1.shape != (problem.num_box,):
        raise ValueError("dual recovery does not match problem")
    val = float(np.dot(rec.y, problem.h))
    lo_fin = np.isfinite(problem.l)
    up_fin = np.isfinite(problem.u)
    pos = np.maximum(lam1, 0.0)
    neg = np.maximum(-lam1, 0.0)
    val += float(np.dot(problem.l[lo_fin], pos[lo_fin]))
    val -= float(np.dot(problem.u[up_fin], neg[up_fin]))
    return val


def _rotation_blocks(specs, offset):
    """Slices of rsoc blocks whose first two coordinates get the orthogonal map."""
    return [sl for spec, sl in block_slices(specs, offset) if spec.kind is Cone.RSOC]


def _promoted_order(specs: tuple[ConeSpec, ...]) -> tuple[list[int], np.ndarray] | None:
    """Block order, and the row order it induces, that moves rotated blocks,
    once promoted to soc, into the soc group ahead of any exp and dual-exp
    blocks; None when nothing moves."""
    rank = [_DUAL_GROUP_ORDER.index(Cone.SOC if s.kind is Cone.RSOC else s.kind) for s in specs]
    if rank == sorted(rank):
        return None
    blocks = sorted(range(len(specs)), key=rank.__getitem__)
    slices = block_slices(specs)
    rows = np.concatenate([np.arange(slices[i][1].start, slices[i][1].stop) for i in blocks])
    return blocks, rows


def rotate_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The symmetric involutive map (p, q) -> ((p+q)/sqrt(2), (p-q)/sqrt(2))."""
    return (a + b) / _SQRT2, (a - b) / _SQRT2


def _rotation_matrix(size: int, pairs: list[tuple[int, int]]):
    """Sparse orthogonal involution mixing each (i, j) pair by the rsoc map."""
    r = sp.lil_matrix(sp.identity(size))
    inv = 1.0 / _SQRT2
    for i, j in pairs:
        r[i, i] = inv
        r[i, j] = inv
        r[j, i] = inv
        r[j, j] = -inv
    return r.tocsr()


def rsoc_to_soc(problem: ConicProblem) -> ConicProblem:
    """Rewrite each rotated second-order block as a standard one.

    A rotated block (p, q, w) with 2pq >= ||w||^2, p, q >= 0 maps to
    (t, s, w) in K_soc via t = (p+q)/sqrt(2), s = (p-q)/sqrt(2); the map is
    orthogonal and involutive, so rows of G and h (dual blocks) or columns
    of G and entries of c (primal blocks) transform by the same matrix.
    Promoted dual blocks then move into the soc group, so the rows follow
    the order zero, nonneg, soc, exp, dual-exp.  `apply_rsoc_inverse` maps
    solutions back to the original blocks and row order.
    """
    if not problem.has_rsoc_blocks():
        return problem

    g = problem.G.tocoo().tocsr()
    h, c = problem.h, problem.c
    row_pairs = [(sl.start, sl.start + 1) for sl in _rotation_blocks(problem.dual_cones, 0)]
    col_pairs = [
        (sl.start, sl.start + 1)
        for sl in _rotation_blocks(problem.primal_cones, problem.num_box)
    ]
    if row_pairs:
        r = _rotation_matrix(problem.m, row_pairs)
        g = r @ g
        h = r @ h
    if col_pairs:
        r = _rotation_matrix(problem.n, col_pairs)
        g = g @ r
        c = r @ c

    def promote(specs):
        return tuple(
            ConeSpec(Cone.SOC, s.dim, s.scale) if s.kind is Cone.RSOC else s for s in specs
        )

    dual_cones = promote(problem.dual_cones)
    order = _promoted_order(problem.dual_cones)
    if order is not None:
        blocks, rows = order
        g = g[rows]
        h = h[rows]
        dual_cones = tuple(dual_cones[i] for i in blocks)

    return ConicProblem(
        c=c,
        G=SparseMatrix(g),
        h=h,
        l=problem.l,
        u=problem.u,
        num_box=problem.num_box,
        primal_cones=promote(problem.primal_cones),
        dual_cones=dual_cones,
    )


def apply_rsoc_inverse(original: ConicProblem, x: np.ndarray, y: np.ndarray,
                       slack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map a solution of the reformulated problem back to the original blocks
    and the original row order."""
    if not original.has_rsoc_blocks():
        return x, y, slack
    x = x.copy()
    order = _promoted_order(original.dual_cones)
    if order is None:
        y = y.copy()
        slack = slack.copy()
    else:
        back = np.argsort(order[1])
        y = y[back]
        slack = slack[back]
    for sl in _rotation_blocks(original.primal_cones, original.num_box):
        i, j = sl.start, sl.start + 1
        x[i], x[j] = rotate_pair(x[i], x[j])
    for sl in _rotation_blocks(original.dual_cones, 0):
        i, j = sl.start, sl.start + 1
        y[i], y[j] = rotate_pair(y[i], y[j])
        slack[i], slack[j] = rotate_pair(slack[i], slack[j])
    return x, y, slack
