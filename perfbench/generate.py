"""Seeded conic instances with a planted optimum, written as problem files.

Every generator picks a primal point x*, a residual s* = G x* - h and a dual
point y* first, block by block, so that

* s* lies in the residual cone K_d* and y* in its dual K_d, with
  <s*_b, y*_b> = 0 on every block b;
* lambda* = c - G^T y* is a box multiplier complementary to x*
  (positive at a lower bound, negative at an upper bound, zero inside);

and then sets h = G x* - s* and c = G^T y* + lambda*.  These are the KKT
conditions, so x* is optimal and <c, x*> is the optimal value.  Each
generator re-checks its planted pair with the closed forms below before it
returns; the checks use numpy only and never import the solver, so they
stay an independent oracle for the objective the benchmark compares with.

Cone conventions are those of the problem-file format:
  soc     (t, w)       with t >= ||w||
  rsoc    (p, q, w)    with 2 p q >= ||w||^2, p, q >= 0
  exp     (a, b, c)    with b > 0, c >= b exp(a / b)   (closure)
  dual_exp (u, v, w)   with u < 0, -u exp(v / u) <= e w (closure)
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

_SQRT2 = math.sqrt(2.0)
_E = math.e

# file-format order of the row blocks
BLOCK_ORDER = ("zero", "nonneg", "soc", "exp", "dual_exp", "rsoc")


class PlantError(RuntimeError):
    """The planted pair failed its own optimality self-check."""


@dataclass
class Instance:
    """One generated problem plus what the benchmark expects back."""

    name: str
    document: dict
    expected_status: str
    planted_objective: float | None
    blocks: int  # row blocks in the problem file (zero and nonneg count as one each)

    def write(self, path: str) -> int:
        text = json.dumps(self.document, separators=(",", ":"), allow_nan=False)
        with open(path, "w") as f:
            f.write(text)
            f.write("\n")
        return len(text) + 1


# ---------------------------------------------------------------------------
# Closed-form cone membership (the oracle; independent of the solver)
# ---------------------------------------------------------------------------


def _in_soc(v, tol):
    return v[0] >= float(np.linalg.norm(v[1:])) - tol


def _in_rsoc(v, tol):
    p, q, w = v[0], v[1], v[2:]
    return p >= -tol and q >= -tol and 2.0 * p * q >= float(w @ w) - tol * (1.0 + abs(p) + abs(q))


def _in_exp(v, tol):
    a, b, c = v
    if b > tol:
        return c >= b * math.exp(min(a / b, 700.0)) - tol * (1.0 + abs(c))
    return abs(b) <= tol and a <= tol and c >= -tol


def _in_dual_exp(v, tol):
    u, vv, w = v
    if u < -tol:
        return w > 0.0 and -u * math.exp(min(vv / u, 700.0)) <= _E * w + tol * (1.0 + abs(w))
    return abs(u) <= tol and vv >= -tol and w >= -tol


def _in_cone(kind, v, tol):
    if kind == "zero":
        return bool(np.all(np.abs(v) <= tol))
    if kind == "nonneg":
        return bool(np.all(v >= -tol))
    if kind == "soc":
        return _in_soc(v, tol)
    if kind == "rsoc":
        return _in_rsoc(v, tol)
    if kind == "exp":
        return _in_exp(v, tol)
    if kind == "dual_exp":
        return _in_dual_exp(v, tol)
    raise ValueError(kind)


# y lives in the dual of the residual block's cone
_DUAL_OF = {"zero": None, "nonneg": "nonneg", "soc": "soc", "rsoc": "rsoc",
            "exp": "dual_exp", "dual_exp": "exp"}


def self_check(kinds, dims, s, y, x, l, u, lam, c, h, gx, gty, tol=1e-9) -> float:
    """Verify the planted KKT pair; return the planted optimal value.

    Raises PlantError on any violated membership or complementarity, or when
    the primal and dual objectives of the pair disagree.
    """
    if not np.allclose(gx - h, s, rtol=0.0, atol=tol * (1.0 + np.abs(h).max())):
        raise PlantError("h does not reproduce the planted residual")
    if not np.allclose(gty + lam, c, rtol=0.0, atol=tol * (1.0 + np.abs(c).max())):
        raise PlantError("c does not reproduce the planted multiplier")
    off = 0
    for kind, d in zip(kinds, dims):
        sb, yb = s[off:off + d], y[off:off + d]
        off += d
        if not _in_cone(kind, sb, tol):
            raise PlantError(f"residual block {kind} (row {off - d}) is outside its cone")
        dual = _DUAL_OF[kind]
        if dual is not None and not _in_cone(dual, yb, tol):
            raise PlantError(f"dual block {kind} (row {off - d}) is outside the dual cone")
        if abs(float(sb @ yb)) > tol * (1.0 + float(np.linalg.norm(sb) * np.linalg.norm(yb))):
            raise PlantError(f"block {kind} (row {off - d}) is not complementary")
    if off != s.size:
        raise PlantError("block dimensions do not cover the rows")
    if np.any(x < l - tol) or np.any(x > u + tol):
        raise PlantError("x* leaves its box")
    at_lo = np.isfinite(l) & (np.abs(x - l) <= tol)
    at_up = np.isfinite(u) & (np.abs(x - u) <= tol)
    if np.any(lam[~at_lo] > tol) or np.any(lam[~at_up] < -tol):
        raise PlantError("box multiplier is not complementary to x*")
    p_obj = float(c @ x)
    lo, up = np.isfinite(l), np.isfinite(u)
    d_obj = (float(y @ h) + float(l[lo] @ np.maximum(lam[lo], 0.0))
             - float(u[up] @ np.maximum(-lam[up], 0.0)))
    if abs(p_obj - d_obj) > 1e-7 * (1.0 + abs(p_obj)):
        raise PlantError(f"planted objectives disagree: {p_obj} vs {d_obj}")
    return p_obj


# ---------------------------------------------------------------------------
# Complementary (s, y) pairs per block kind
# ---------------------------------------------------------------------------


def _soc_pair(rng, d):
    """Boundary pair (a(1, w), b(1, -w)) with |w| = 1 most of the time; else
    one side strictly inside and the other zero."""
    w = rng.standard_normal(d - 1)
    w /= np.linalg.norm(w)
    a, b = rng.uniform(0.5, 1.5, 2)
    case = rng.random()
    if case < 0.6:
        return a * np.concatenate(([1.0], w)), b * np.concatenate(([1.0], -w))
    inner = np.concatenate(([1.0], 0.5 * w))
    if case < 0.8:
        return a * inner, np.zeros(d)
    return np.zeros(d), b * inner


def _rotate(v):
    """(t, s, w) -> ((t+s)/sqrt2, (t-s)/sqrt2, w): maps SOC onto RSOC."""
    out = v.copy()
    out[0], out[1] = (v[0] + v[1]) / _SQRT2, (v[0] - v[1]) / _SQRT2
    return out


def _exp_pair(rng):
    """(s in K_exp, y in K_exp*) with <s, y> = 0.

    On the boundary, s = sigma (r, 1, e^r) and y = mu (-e^r, -e^r (1 - r), 1)
    is the inward normal there; otherwise one side is strictly inside.
    """
    r = rng.uniform(-1.0, 1.0)
    sigma, mu = rng.uniform(0.5, 1.5, 2)
    case = rng.random()
    if case < 0.6:
        er = math.exp(r)
        return sigma * np.array([r, 1.0, er]), mu * np.array([-er, -er * (1.0 - r), 1.0])
    if case < 0.8:
        return sigma * np.array([r, 1.0, math.exp(r) + 1.0]), np.zeros(3)
    return np.zeros(3), mu * np.array([-1.0, rng.uniform(-0.5, 1.0), 1.0])


def _block_pair(rng, kind, d):
    if kind == "zero":
        return np.zeros(d), rng.standard_normal(d)
    if kind == "nonneg":
        active = rng.random(d) < 0.5
        s = np.where(active, 0.0, rng.uniform(0.2, 1.5, d))
        y = np.where(active, rng.uniform(0.2, 1.5, d), 0.0)
        return s, y
    if kind == "soc":
        return _soc_pair(rng, d)
    if kind == "rsoc":
        s, y = _soc_pair(rng, d)
        return _rotate(s), _rotate(y)
    if kind == "exp":
        return _exp_pair(rng)
    if kind == "dual_exp":
        s, y = _exp_pair(rng)
        return y, s
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# Problem assembly
# ---------------------------------------------------------------------------


def _sparse_columns(rng, m, n, per_col):
    """COO triplets with `per_col` distinct rows in every column and at
    least one entry in every row."""
    rows = rng.integers(0, m, size=(n, per_col))
    rows.sort(axis=1)
    dup = np.zeros_like(rows, dtype=bool)
    dup[:, 1:] = rows[:, 1:] == rows[:, :-1]
    while dup.any():  # redraw repeated rows within a column
        rows[dup] = rng.integers(0, m, size=int(dup.sum()))
        rows.sort(axis=1)
        dup[:, 1:] = rows[:, 1:] == rows[:, :-1]
    rows = rows.ravel()
    cols = np.repeat(np.arange(n), per_col)
    empty = np.setdiff1d(np.arange(m), rows)
    if empty.size:
        rows = np.concatenate((rows, empty))
        cols = np.concatenate((cols, rng.integers(0, n, size=empty.size)))
    vals = rng.standard_normal(rows.size)
    return rows.astype(np.int64), cols.astype(np.int64), vals


def _coo_products(rows, cols, vals, x, y, m, n):
    gx = np.bincount(rows, weights=vals * x[cols], minlength=m)
    gty = np.bincount(cols, weights=vals * y[rows], minlength=n)
    return gx, gty


def _planted_box(rng, n, upper_inf_frac):
    """Bounds, x* and a complementary multiplier: 40% at the lower bound,
    20% at the upper bound, 40% strictly inside; some upper bounds infinite."""
    l = -rng.uniform(0.0, 1.0, n)
    u = rng.uniform(0.5, 2.0, n)
    status = rng.choice(3, size=n, p=(0.4, 0.2, 0.4))  # 0 lower, 1 upper, 2 inside
    u[(status != 1) & (rng.random(n) < upper_inf_frac)] = math.inf
    x = np.where(status == 0, l, 0.0)
    x = np.where(status == 1, u, x)
    inside = status == 2
    hi = np.where(np.isfinite(u), u, l + 2.0)
    x[inside] = l[inside] + rng.uniform(0.2, 0.8, int(inside.sum())) * (hi[inside] - l[inside])
    mag = rng.uniform(0.2, 1.5, n)
    lam = np.where(status == 0, mag, 0.0)
    lam = np.where(status == 1, -mag, lam)
    return l, u, x, lam


def _bound_list(v):
    return ["inf" if b == math.inf else "-inf" if b == -math.inf else float(b) for b in v]


def _relabel(rng, h, rows, cols, vals, zero_rows):
    """Flip the sign of a random subset of the equality rows and shuffle the
    order of the matrix triplets.  Both are exact: negation is exact in
    floating point and the solver sorts the triplets, so the solver does the
    same arithmetic, up to signs, on every relabelling of one base problem."""
    sign = np.ones(h.size)
    sign[:zero_rows] = np.where(rng.random(zero_rows) < 0.5, -1.0, 1.0)
    shuffle = rng.permutation(rows.size)
    return h * sign, rows[shuffle], cols[shuffle], (vals * sign[rows])[shuffle]


def _plant(base_rng, n, blocks, per_col, upper_inf_frac):
    """Draw a planted problem from (kind, dim) row blocks in file order (zero
    and nonneg at most once each) and self-check it."""
    kinds = [k for k, _ in blocks]
    if sorted(kinds, key=BLOCK_ORDER.index) != kinds:
        raise ValueError("blocks must follow the file-format order")
    dims = [d for _, d in blocks]
    m = sum(dims)
    pairs = [_block_pair(base_rng, k, d) for k, d in blocks]
    s = np.concatenate([p[0] for p in pairs])
    y = np.concatenate([p[1] for p in pairs])
    l, u, x, lam = _planted_box(base_rng, n, upper_inf_frac)
    rows, cols, vals = _sparse_columns(base_rng, m, n, per_col)
    gx, gty = _coo_products(rows, cols, vals, x, y, m, n)
    h = gx - s
    c = gty + lam
    p_star = self_check(kinds, dims, s, y, x, l, u, lam, c, h, gx, gty)
    return c, h, l, u, rows, cols, vals, p_star


def _instance(label_rng, name, blocks, c, h, l, u, rows, cols, vals, status, p_star):
    zero_rows = blocks[0][1] if blocks[0][0] == "zero" else 0
    h, rows, cols, vals = _relabel(label_rng, h, rows, cols, vals, zero_rows)
    return Instance(
        name=name,
        document=_document(c.size, h.size, c, h, l, u, rows, cols, vals, blocks),
        expected_status=status,
        planted_objective=p_star,
        blocks=len(blocks),
    )


def planted_problem(base_rng, label_rng, name, n, blocks, per_col):
    """A planted instance; `base_rng` draws the problem, `label_rng` its
    relabelling.  A tenth of the upper bounds are infinite."""
    *problem, p_star = _plant(base_rng, n, blocks, per_col, upper_inf_frac=0.1)
    return _instance(label_rng, name, blocks, *problem, ":optimal", p_star)


def _document(n, m, c, h, l, u, rows, cols, vals, blocks):
    count = {k: 0 for k in BLOCK_ORDER}
    soc, rsoc = [], []
    for kind, d in blocks:
        if kind == "soc":
            soc.append(d)
        elif kind == "rsoc":
            rsoc.append(d)
        elif kind in ("exp", "dual_exp"):
            count[kind] += 1
        else:
            count[kind] += d
    doc = {
        "format_version": 1,
        "n": n, "m": m, "nb": n,
        "c": c.tolist(), "h": h.tolist(),
        "bl": _bound_list(l), "bu": _bound_list(u),
        "G": {"rows": rows.tolist(), "cols": cols.tolist(), "vals": vals.tolist()},
        "mGzero": count["zero"], "mGnonnegative": count["nonneg"],
        "socG": soc, "expG": count["exp"], "dual_expG": count["dual_exp"],
    }
    if rsoc:
        doc["rsocG"] = rsoc
    return doc


def planted_lp(base_rng, label_rng, name, m, n, per_col, zero_rows):
    blocks = [("zero", zero_rows), ("nonneg", m - zero_rows)]
    return planted_problem(base_rng, label_rng, name, n, blocks, per_col)


def infeasible_lp(base_rng, label_rng, name, m, n, per_col, zero_rows):
    """A planted LP plus a copy of one equality row whose right-hand side is
    moved by one: G x = h cannot hold for both copies, and y = e_i - e_j is
    an exact Farkas ray (G^T y = 0, <h, y> = -1).  All bounds are finite, so
    any box multiplier completes the ray, and the cost is zero, so the ray's
    objective is not masked by the dual objective of the feasible part."""
    blocks = [("zero", zero_rows), ("nonneg", m - zero_rows)]
    c, h, l, u, rows, cols, vals, _ = _plant(base_rng, n, blocks, per_col, upper_inf_frac=0.0)
    i = int(base_rng.integers(zero_rows))
    take = rows == i
    # the copy becomes equality row `zero_rows`; later rows shift down by one
    rows = np.concatenate((np.where(rows >= zero_rows, rows + 1, rows), np.full(take.sum(), zero_rows)))
    cols = np.concatenate((cols, cols[take]))
    vals = np.concatenate((vals, vals[take]))
    h = np.concatenate((h[:zero_rows], [h[i] + 1.0], h[zero_rows:]))
    blocks = [("zero", zero_rows + 1), ("nonneg", m - zero_rows)]
    return _instance(label_rng, name, blocks, np.zeros(n), h, l, u, rows, cols, vals,
                     ":primal_infeasible_high_acc", None)


def cone_blocks(rng, counts, lo=3, hi=7):
    """Row blocks in file order from per-kind counts; SOC and RSOC dimensions
    are drawn from [lo, hi]."""
    blocks = []
    if counts.get("zero"):
        blocks.append(("zero", counts["zero"]))
    if counts.get("nonneg"):
        blocks.append(("nonneg", counts["nonneg"]))
    blocks += [("soc", int(d)) for d in rng.integers(lo, hi + 1, counts.get("soc", 0))]
    blocks += [("exp", 3)] * counts.get("exp", 0)
    blocks += [("dual_exp", 3)] * counts.get("dual_exp", 0)
    blocks += [("rsoc", int(d)) for d in rng.integers(lo, hi + 1, counts.get("rsoc", 0))]
    return blocks
