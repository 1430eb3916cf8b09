"""Independent oracles used by the test suite.

Everything here is deliberately implemented along a different route than the
package code it checks: dense linear algebra, brute-force enumeration,
first-order minimization with closed-form projections only.
"""

import itertools
import math

import numpy as np
from scipy.optimize import minimize


# ---------------------------------------------------------------------------
# LP: brute-force vertex enumeration
# ---------------------------------------------------------------------------


def lp_vertex_enumeration(c, G, h, l, u, feas_tol=1e-7):
    """Optimal value/point of min c'x s.t. Gx >= h, l <= x <= u by enumerating
    vertices (n-subsets of tight constraints).  Requires finite bounds."""
    c = np.asarray(c, float)
    G = np.asarray(G, float)
    h = np.asarray(h, float)
    l = np.asarray(l, float)
    u = np.asarray(u, float)
    m, n = G.shape
    rows = np.vstack([G, np.eye(n), -np.eye(n)])
    rhs = np.concatenate([h, l, -u])

    best_val = math.inf
    best_x = None
    idx = np.arange(rows.shape[0])
    for combo in itertools.combinations(idx, n):
        a = rows[list(combo)]
        b = rhs[list(combo)]
        det = np.linalg.det(a)
        if abs(det) < 1e-10:
            continue
        x = np.linalg.solve(a, b)
        if np.all(G @ x >= h - feas_tol) and np.all(x >= l - feas_tol) and np.all(x <= u + feas_tol):
            val = float(c @ x)
            if val < best_val:
                best_val, best_x = val, x
    return best_val, best_x


# ---------------------------------------------------------------------------
# Rescaled second-order cone: accelerated projected gradient in w = Dz space
# ---------------------------------------------------------------------------


def _soc_proj(v):
    t, x = v[0], v[1:]
    nx = np.linalg.norm(x)
    if nx <= t:
        return v.copy()
    if nx <= -t:
        return np.zeros_like(v)
    coef = 0.5 * (t + nx)
    out = np.empty_like(v)
    out[0] = coef
    out[1:] = coef * x / nx
    return out


def rescaled_soc_projection_fista(v, d, iters=20000, tol=1e-12):
    """Solve min ||z - v||^2 s.t. diag(d) z in K_soc by FISTA on
    w = diag(d) z with the closed-form standard SOC projection."""
    v = np.asarray(v, float)
    d = np.asarray(d, float)
    dinv = 1.0 / d
    lip = np.max(dinv**2)
    step = 1.0 / lip
    w = _soc_proj(d * v)
    w_prev = w.copy()
    tk = 1.0
    for _ in range(iters):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk))
        yk = w + ((tk - 1.0) / t_next) * (w - w_prev)
        grad = dinv * (dinv * yk - v)
        w_new = _soc_proj(yk - step * grad)
        if np.max(np.abs(w_new - w)) <= tol * max(1.0, np.max(np.abs(w))):
            w_prev, w = w, w_new
            break
        w_prev, w, tk = w, w_new, t_next
    return dinv * w


# ---------------------------------------------------------------------------
# Exponential cone: distance oracle by minimizing over the boundary surface
# ---------------------------------------------------------------------------


def exp_cone_distance(v, n_starts=6):
    """Distance from v to K_exp: best of the flat piece and local searches on
    the curved boundary {(a, b, b e^{a/b}) : b > 0}."""
    v = np.asarray(v, float)

    flat = np.array([min(v[0], 0.0), 0.0, max(v[2], 0.0)])
    best = float(np.linalg.norm(v - flat))

    def objective(p):
        a, logb = p
        if abs(logb) > 60.0:
            return 1e100
        b = math.exp(logb)
        ratio = a / b
        if ratio > 500.0:
            return 1e100
        z = np.array([a, b, b * math.exp(ratio)])
        diff = z - v
        if np.any(np.abs(diff) > 1e50):
            return 1e100
        return float(np.sum(diff**2))

    starts = [(v[0], 0.0), (0.0, 0.0), (v[0], math.log(abs(v[1]) + 0.5)),
              (-1.0, -2.0), (1.0, 1.0), (v[0] / 2.0, -1.0)][:n_starts]
    for p0 in starts:
        res = minimize(objective, np.array(p0), method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-18, "maxiter": 4000})
        if res.fun < best * best:
            best = math.sqrt(max(res.fun, 0.0))
    return best


def exp_membership_direct(v, atol=0.0):
    """K_exp membership straight from the definition (test-side duplicate)."""
    a, b, c = float(v[0]), float(v[1]), float(v[2])
    if b > 0:
        try:
            return c + atol >= b * math.exp(a / b)
        except OverflowError:
            return False
    if abs(b) <= atol:
        return a <= atol and c >= -atol
    return False


def near_exp_cone(point, tol):
    """Membership within distance ~tol of K_exp (perturb toward the cone)."""
    from conic_pdhg.cones import in_exp

    a, b, c = float(point[0]), float(point[1]), float(point[2])
    b2 = max(b, 0.0) if b >= -tol else b
    return in_exp((a - tol, b2, c + tol), atol=tol)


def near_dual_exp_cone(point, tol):
    """Membership within distance ~tol of K_exp* (perturb toward the cone)."""
    from conic_pdhg.cones import in_dual_exp

    u, vv, w = float(point[0]), float(point[1]), float(point[2])
    u2 = min(u, 0.0) if u <= tol else u
    return in_dual_exp((u2, vv + tol, w + tol))


def dual_exp_membership_by_sampling(v, rng, samples=4000):
    """Check <v, z> >= 0 against sampled members of K_exp."""
    v = np.asarray(v, float)
    a = rng.uniform(-6, 6, samples)
    b = rng.uniform(1e-3, 6, samples)
    c = b * np.exp(np.clip(a / b, None, 80)) * rng.uniform(1.0, 3.0, samples)
    keep = c < 1e30
    pts = np.stack([a[keep], b[keep], c[keep]], axis=1)
    rays = np.stack([-rng.uniform(0, 6, 200), np.zeros(200), rng.uniform(0, 6, 200)], axis=1)
    pts = np.vstack([pts, rays])
    return bool(np.all(pts @ v >= -1e-9 * np.maximum(1.0, np.linalg.norm(pts, axis=1))))


# ---------------------------------------------------------------------------
# Exponential cone: the numpy-wrapped projection the block kernels replaced,
# with its Newton step on separate h and h' evaluations
# ---------------------------------------------------------------------------


def _exp_hfun_grad(r0, s0, t0, rho):
    """h(rho) by `cones._hfun` and h'(rho), each on its own e^rho and e^-rho."""
    from conic_pdhg.cones import _hfun, _safe_exp

    ep = _safe_exp(rho)
    en = _safe_exp(-rho)
    f = _hfun(r0, s0, t0, rho)
    df = (rho * r0 + s0) * ep + (r0 - (rho - 1.0) * s0) * en - (2.0 * rho - 1.0) * t0
    return f, df


def _exp_root_reference(r0, s0, t0, xl, xu):
    """Damped Newton on h within [xl, xu], bisection fallback."""
    from conic_pdhg.cones import _MAX_ROOT_ITERS, _NEWTON_ITERS, _ROOT_TOL, _hfun

    x = 0.5 * (xl + xu)
    converged = False
    for _ in range(_NEWTON_ITERS):
        f, df = _exp_hfun_grad(r0, s0, t0, x)
        if abs(f) <= 1e-15:
            converged = True
            break
        if f < 0.0:
            xl = x
        else:
            xu = x
        if xu <= xl:
            return 0.5 * (xl + xu)
        if not math.isfinite(f) or df < 1e-13:
            break
        x_new = x - f / df
        if abs(x_new - x) <= 1e-15 * max(1.0, abs(x_new)):
            x = min(max(x_new, xl), xu)
            converged = True
            break
        if x_new >= xu:
            x = min(0.5 * x + 0.95 * xu, xu)
        elif x_new <= xl:
            x = max(0.5 * x + 0.95 * xl, xl)
        else:
            x = x_new
    if converged:
        return min(max(x, xl), xu)
    for _ in range(_MAX_ROOT_ITERS - _NEWTON_ITERS):
        x = 0.5 * (xl + xu)
        f = _hfun(r0, s0, t0, x)
        if f < 0.0:
            xl = x
        else:
            xu = x
        if xu - xl <= _ROOT_TOL * max(1.0, abs(xu)):
            break
    return 0.5 * (xl + xu)


def project_exp_reference(v):
    """Projection onto the exponential cone through numpy arrays, the
    membership functions `in_exp` / `in_dual_exp` and `np.ldexp`; the
    heuristics, the bracket and the candidate from the root are the
    package's own scalar helpers."""
    from conic_pdhg import cones
    from conic_pdhg.linalg import NumericalError

    r0, s0, t0 = float(v[0]), float(v[1]), float(v[2])
    if not (math.isfinite(r0) and math.isfinite(s0) and math.isfinite(t0)):
        raise NumericalError("exponential-cone projection of a non-finite point")
    e = cones._rescale_exponent(max(abs(r0), abs(s0), abs(t0)))
    if e is not None:
        return np.ldexp(project_exp_reference(np.ldexp([r0, s0, t0], -e)), e)
    if cones.in_exp((r0, s0, t0)):
        return np.asarray(v, dtype=np.float64).copy()
    if cones.in_dual_exp((-r0, -s0, -t0)):
        return np.zeros(3)
    if r0 <= 0.0 and s0 <= 0.0:
        return np.array([r0, 0.0, max(t0, 0.0)])

    vp, pdist = cones._exp_heuristic_primal(r0, s0, t0)
    vd, ddist = cones._exp_heuristic_polar(r0, s0, t0)
    tol = 1e-12 * max(1.0, abs(r0), abs(s0), abs(t0))
    moreau_err = max(
        abs(vp[0] + vd[0] - r0), abs(vp[1] + vd[1] - s0), abs(vp[2] + vd[2] - t0)
    )
    inner = vp[0] * vd[0] + vp[1] * vd[1] + vp[2] * vd[2]
    if min(pdist, ddist) <= tol or (moreau_err <= tol and inner <= tol):
        return np.array(vp)

    xl, xu = cones._exp_bracket(r0, s0, t0, pdist, ddist)
    rho = _exp_root_reference(r0, s0, t0, xl, xu)
    vp_root, dist_root = cones._exp_primal_from_rho(r0, s0, t0, rho)
    if vp_root is not None and dist_root <= pdist:
        return np.array(vp_root)
    return np.array(vp)


def project_dual_exp_reference(v):
    """Moreau identity on arrays: v + proj_K(-v)."""
    return v + project_exp_reference(-np.asarray(v, dtype=np.float64))


# ---------------------------------------------------------------------------
# Box bounds: the boolean-mask forms the solver used before it classified the
# bounds once per problem as intervals and index arrays
# ---------------------------------------------------------------------------


def lambda_projection_masks(lam, l, u):
    """Projection onto the multiplier set Lambda, one boolean mask per tag:
    both bounds infinite -> {0}, only l infinite -> R-, only u infinite -> R+,
    both finite -> R."""
    lower_finite = np.isfinite(l)
    upper_finite = np.isfinite(u)
    out = lam.copy()
    zero = ~lower_finite & ~upper_finite
    nonpos = ~lower_finite & upper_finite
    nonneg = lower_finite & ~upper_finite
    out[zero] = 0.0
    out[nonpos] = np.minimum(lam[nonpos], 0.0)
    out[nonneg] = np.maximum(lam[nonneg], 0.0)
    return out


def box_recession_projection_masks(d, l, u):
    """Projection onto the recession cone of [l, u]: {0} where both bounds are
    finite, half-lines where one is, all of R where neither is."""
    out = d.copy()
    lo_fin = np.isfinite(l)
    up_fin = np.isfinite(u)
    out[lo_fin & up_fin] = 0.0
    only_lo = lo_fin & ~up_fin
    only_up = up_fin & ~lo_fin
    out[only_lo] = np.maximum(d[only_lo], 0.0)
    out[only_up] = np.minimum(d[only_up], 0.0)
    return out


def bound_support_masks(lam1, l, u, start=0.0):
    """start + l' lam1^+ - u' lam1^- over the finite bounds, selected by
    boolean masks and summed in that order."""
    lo_fin = np.isfinite(l)
    up_fin = np.isfinite(u)
    pos = np.maximum(lam1, 0.0)
    neg = np.maximum(-lam1, 0.0)
    start += float(np.dot(l[lo_fin], pos[lo_fin]))
    start -= float(np.dot(u[up_fin], neg[up_fin]))
    return start


# ---------------------------------------------------------------------------
# Halpern and averaging updates: the allocating (x, y)-pair formulas the
# solve loop used before it updated flat buffers in place
# ---------------------------------------------------------------------------


def halpern_step_allocating(z_hat, z_old, z_anchor, k, beta):
    """(k+1)/(k+2) ((1+beta) z_hat - beta z_old) + 1/(k+2) z_anchor on
    (x, y) pairs, one temporary per operation."""
    a = (k + 1.0) / (k + 2.0)
    b = 1.0 / (k + 2.0)
    return tuple(a * ((1.0 + beta) * zh - beta * zo) + b * za
                 for zh, zo, za in zip(z_hat, z_old, z_anchor))


def weighted_average_allocating(z_bar, weight, z_new, eta_new):
    """(weight z_bar + eta_new z_new) / (weight + eta_new) on (x, y) pairs,
    or a copy of z_new when the average is empty."""
    if z_bar is None or weight == 0.0:
        return tuple(v.copy() for v in z_new), eta_new
    total = weight + eta_new
    return tuple((weight * zb + eta_new * zn) / total for zb, zn in zip(z_bar, z_new)), total


# ---------------------------------------------------------------------------
# Preconditioner: the Ruiz rounds and the Pock-Chambolle pass as sparse
# matrix algebra, one rebuilt matrix per round
# ---------------------------------------------------------------------------


def build_scaling_matrix_algebra(problem):
    """d1, d2 of the diagonal preconditioner, each of the ten Ruiz rounds
    rebuilding diag(r) |A| diag(c) with scipy and reducing it with scipy's
    own `max`, then the Pock-Chambolle pass with scipy's `sum` (row sums on
    the CSR matrix, column sums on its CSC copy).  Then the exp, rsoc and
    dual soc blocks take the geometric mean of their slice, and the scales
    are clipped to [1e-8, 1e8]."""
    import scipy.sparse as sp

    from conic_pdhg.model import Cone, block_slices

    def inv_sqrt(v):
        v = np.asarray(v.todense() if sp.issparse(v) else v, dtype=float).ravel()
        return np.array([1.0 / math.sqrt(e) if e > 0 else 1.0 for e in v])

    a = abs(problem.G.tocsr())
    d1, d2 = np.ones(problem.m), np.ones(problem.n)
    for _ in range(10):
        r, c = inv_sqrt(a.max(axis=1)), inv_sqrt(a.max(axis=0))
        d1 *= r
        d2 *= c
        a = sp.diags(r) @ a @ sp.diags(c)
    d1 *= inv_sqrt(a.sum(axis=1))
    d2 *= inv_sqrt(a.tocsc().sum(axis=0))

    def uniform(d, specs, offset, soc):
        d = d.copy()
        for spec, sl in block_slices(specs, offset):
            if spec.kind in (Cone.EXP, Cone.DUAL_EXP, Cone.RSOC) or (spec.kind is Cone.SOC and soc):
                d[sl] = float(np.exp(np.mean(np.log(d[sl]))))
        return d

    d2 = uniform(d2, problem.primal_cones, problem.num_box, False)
    d1 = uniform(d1, problem.dual_cones, 0, True)
    return np.clip(d1, 1e-8, 1e8), np.clip(d2, 1e-8, 1e8)
