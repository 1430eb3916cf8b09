"""Euclidean projections onto the supported cone blocks and their duals.

Closed forms cover the box, zero, nonnegative, and second-order cones.  The
exponential cone is projected by reducing the KKT conditions to a univariate
root-finding problem in the exponent multiplier rho (heuristic candidates,
a bracketing step, then safeguarded damped Newton with bisection fallback).
Diagonally rescaled second-order cones reduce to a scalar root in the KKT
multiplier mu.  Dual/polar projections come from the Moreau identity
proj_{K*}(v) = v + proj_K(-v).

One table, `_KERNELS`, maps each block kind to the kernel of its cone and
the kernel of its dual cone; `project_cone`, `project_cone_dual` and the
layout read only it.  The whole-vector set projections run a `ConeLayout`,
built once per ConicProblem instance and cached on it: for each of the four
block sequences (primal cone, its dual, dual iterate, constraint residual)
a tuple of (kernel, start, stop) operations in which the kernel, the
uniform-scale test and a non-uniform soc block's scale (or its inverse)
are already decided.  A kernel reads its block of the input by index and
writes the same block of `out`, so no block view is made that it does not
need, and each set projection writes into an `out` the caller may pass
(the solve loop passes its candidate buffer).  The box part of the primal set
is one clamp onto the problem's bounds, which ConicProblem has already
checked.

The exp kernels read a block with one `tolist()`, project it on Python
floats (`_exp_point`) and write three floats into `out`; the dual kernel
forms v + P(-v) as three float additions, the IEEE operations numpy's
elementwise add makes, and the rescaling uses `math.ldexp`, the C `ldexp`
that `np.ldexp` calls.  So the bits are those of the array-wrapped
projection that `tests/oracles.py` keeps as the reference, without its
arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import NumericalError
from .model import Cone, ConeSpec, ConicProblem, block_slices, finite_bounds

# Root finding in the exp and rescaled-soc projections: relative bracket
# width at which exp bisection stops, and the iteration cap of each root
# finder (the first _NEWTON_ITERS exp iterations are Newton steps).
_ROOT_TOL = 1e-12
_MAX_ROOT_ITERS = 100
_NEWTON_ITERS = 20

_UNSCALED_MIN = 2.0 ** -500
_UNSCALED_MAX = 2.0 ** 500


def _safe_exp(x: float) -> float:
    if x >= 709.0:
        return math.inf
    return math.exp(x)


def _rescale_exponent(big: float) -> int | None:
    """The e with big / 2^e in [0.5, 1) when a block's largest magnitude
    `big` is finite, nonzero and outside [2^-500, 2^500], else None.  The
    projections are positively homogeneous, so such a block is projected as
    v / 2^e, where squares stay in range, and scaled back by 2^e exactly."""
    if _UNSCALED_MAX < big < math.inf or 0.0 < big < _UNSCALED_MIN:
        return math.frexp(big)[1]
    return None


def _log_ratio(a: float, b: float) -> float:
    """log(a / b) for positive a and b, also where a / b leaves the float range."""
    q = a / b
    if 0.0 < q < math.inf:
        return math.log(q)
    return math.log(a) - math.log(b)


# ---------------------------------------------------------------------------
# Box and second-order cone (closed form)
# ---------------------------------------------------------------------------


def project_box(v: np.ndarray, l: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Componentwise clamp onto [l, u]; bounds may be infinite."""
    finite_bounds(l, u)
    return np.clip(v, l, u)


def project_soc(v: np.ndarray) -> np.ndarray:
    """Project (t, xbar) onto {t >= ||xbar||}."""
    out = np.empty_like(v)
    _soc(v, out, 0, v.size)
    return out


def _soc(v, out, start, stop):
    # np.linalg.norm evaluates a contiguous 1-d float64 vector as sqrt(x.x),
    # so this is bit-identical to it without its per-call overhead.  An nx
    # in range is accurate, and then a large |t| takes an exact branch.  t is
    # v's first entry as a Python float: the same double, cheaper to use.
    t = v.item(start)
    x = v[start + 1:stop]
    nx = math.sqrt(x.dot(x))
    if not _UNSCALED_MIN <= nx <= _UNSCALED_MAX:
        block = v[start:stop]
        e = _rescale_exponent(float(np.max(np.abs(block))))
        if e is not None:
            target = out[start:stop]
            _soc(np.ldexp(block, -e), target, 0, stop - start)
            np.ldexp(target, e, out=target)
            return
    if nx <= t:
        out[start:stop] = v[start:stop]
    elif nx <= -t:
        out[start:stop] = 0.0
    else:
        coef = 0.5 * (t + nx)
        out[start] = coef
        np.multiply(coef / nx, x, out=out[start + 1:stop])


# ---------------------------------------------------------------------------
# Exponential cone
# ---------------------------------------------------------------------------
#
# K_exp = cl{(a, b, c) : b > 0, c >= b * exp(a/b)}
#       = {b > 0, c >= b e^{a/b}} u {(a, 0, c) : a <= 0, c >= 0}
# K_exp* = {(u, v, w) : u < 0, w > 0, u*log(-u/w) - u + v >= 0}
#          u {(0, v, w) : v >= 0, w >= 0}


def in_exp(v, atol: float = 0.0) -> bool:
    a, b, c = float(v[0]), float(v[1]), float(v[2])
    if b > 0.0:
        ratio = a / b
        if ratio < 709.0 and c >= -atol and c + atol >= b * math.exp(ratio):
            return True
    if -atol <= b <= atol and a <= atol and c >= -atol:
        return True
    return False


def in_dual_exp(v, atol: float = 0.0) -> bool:
    u, vv, w = float(v[0]), float(v[1]), float(v[2])
    if u > atol:
        return False
    if u >= -atol:
        return vv >= -atol and w >= -atol
    if w <= 0.0:
        return False
    return u * _log_ratio(-u, w) - u + vv >= -atol


def _exp_heuristic_primal(r0, s0, t0):
    """Cheap feasible candidate: the flat piece, or lifting t to the graph."""
    vp = (min(r0, 0.0), 0.0, max(t0, 0.0))
    dist = math.sqrt((r0 - vp[0]) ** 2 + s0 * s0 + (t0 - vp[2]) ** 2)
    if s0 > 0.0:
        tp = s0 * _safe_exp(r0 / s0)
        if math.isfinite(tp):
            tp = max(t0, tp)
            if tp - t0 < dist:
                vp = (r0, s0, tp)
                dist = tp - t0
    return vp, dist


def _exp_heuristic_polar(r0, s0, t0):
    vd = (0.0, min(s0, 0.0), min(t0, 0.0))
    dist = math.sqrt(r0 * r0 + (s0 - vd[1]) ** 2 + (t0 - vd[2]) ** 2)
    if r0 > 0.0:
        td = -r0 * _safe_exp(s0 / r0 - 1.0)
        if math.isfinite(td):
            td = min(t0, td)
            if t0 - td < dist:
                vd = (r0, s0, td)
                dist = t0 - td
    return vd, dist


def _hfun(r0, s0, t0, rho):
    quad = rho * (rho - 1.0) + 1.0
    ep = _safe_exp(rho)
    en = _safe_exp(-rho)
    ca = (rho - 1.0) * r0 + s0
    cb = r0 - rho * s0
    # inf * 0 -> treat the vanished coefficient as an exact zero term
    term1 = ca * ep if (math.isfinite(ep) or ca != 0.0) else 0.0
    term2 = cb * en if (math.isfinite(en) or cb != 0.0) else 0.0
    return term1 - term2 - quad * t0


def _ppsi(r0, s0):
    root = math.sqrt(r0 * r0 + s0 * s0 - r0 * s0)
    if r0 > s0:
        psi = (r0 - s0 + root) / r0
    else:
        psi = -s0 / (r0 - s0 - root)
    return ((psi - 1.0) * r0 + s0) / (psi * (psi - 1.0) + 1.0)


def _dpsi(r0, s0):
    root = math.sqrt(r0 * r0 + s0 * s0 - r0 * s0)
    if s0 > r0:
        psi = (r0 - root) / s0
    else:
        psi = (r0 - s0) / (r0 + root)
    return (r0 - psi * s0) / (psi * (psi - 1.0) + 1.0)


def _pomega(rho):
    val = _safe_exp(rho) / (rho * (rho - 1.0) + 1.0)
    if rho < 2.0:
        val = min(val, math.exp(2.0) / 3.0)
    return val


def _domega(rho):
    val = -_safe_exp(-rho) / (rho * (rho - 1.0) + 1.0)
    if rho > -1.0:
        val = max(val, -math.e / 3.0)
    return val


def _exp_bracket(r0, s0, t0, pdist, ddist):
    """Lower/upper bounds on the root of rho -> h(rho)."""
    eps = 1e-12
    big = 1e15
    low, upr = -big, big
    s0m = min(s0, 0.0)
    r0m = min(r0, 0.0)
    dp = math.sqrt(max(pdist * pdist - s0m * s0m, 0.0))
    dd = math.sqrt(max(ddist * ddist - r0m * r0m, 0.0))

    if t0 > 0.0:
        low = max(low, _log_ratio(t0, _ppsi(r0, s0)))
    elif t0 < 0.0:
        upr = min(upr, -_log_ratio(-t0, _dpsi(r0, s0)))

    if r0 > 0.0:
        baselow = 1.0 - s0 / r0
        low = max(low, baselow)
        tpu = max(eps, min(dd, dp + t0))
        pw = _pomega(low)
        if pw > 0.0:
            upr = min(upr, max(low, baselow + tpu / r0 / pw))
    if s0 > 0.0:
        baseupr = r0 / s0
        upr = min(upr, baseupr)
        tdl = -max(eps, min(dp, dd - t0))
        dw = _domega(upr)
        if dw < 0.0:
            low = max(low, min(upr, baseupr - tdl / s0 / dw))

    if low > upr:
        low = upr = 0.5 * (low + upr)
    if low != upr:
        fl = _hfun(r0, s0, t0, low)
        fu = _hfun(r0, s0, t0, upr)
        if fl * fu > 0.0:
            # keep the endpoint closer to a sign change
            if abs(fl) < abs(fu):
                upr = low
            else:
                low = upr
    return low, upr


def _exp_root(r0, s0, t0, xl, xu):
    """Damped Newton on h within [xl, xu], bisection fallback."""
    x = 0.5 * (xl + xu)
    converged = False
    for _ in range(_NEWTON_ITERS):
        # h(x) as _hfun forms it, and h'(x), on one e^x and one e^-x
        ep = math.inf if x >= 709.0 else math.exp(x)
        en = math.inf if -x >= 709.0 else math.exp(-x)
        ca = (x - 1.0) * r0 + s0
        cb = r0 - x * s0
        term1 = ca * ep if (math.isfinite(ep) or ca != 0.0) else 0.0
        term2 = cb * en if (math.isfinite(en) or cb != 0.0) else 0.0
        f = term1 - term2 - (x * (x - 1.0) + 1.0) * t0
        df = (x * r0 + s0) * ep + (r0 - (x - 1.0) * s0) * en - (2.0 * x - 1.0) * t0
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


def _exp_primal_from_rho(r0, s0, t0, rho):
    """Projection candidate from the root rho of h.

    lin = (rho-1) r0 + s0 cancels catastrophically when the projection sits
    near the vertical ray (rho large, lin ~ exp(-rho)).  At the root,
    lin * e^rho = (r0 - rho*s0) e^-rho + quad*t0 exactly, and that right side
    is well conditioned precisely where the direct formula is not, so pick
    whichever evaluation has the smaller error scale.
    """
    quad = rho * (rho - 1.0) + 1.0
    en = _safe_exp(-rho)
    lin_direct = (rho - 1.0) * r0 + s0
    lin_exp_id = (r0 - rho * s0) * en + quad * t0  # equals lin * e^rho at the root
    cond_direct = abs(rho - 1.0) * abs(r0) + abs(s0)
    cond_id = (abs(r0 - rho * s0) * en + quad * abs(t0)) * en
    if cond_direct <= cond_id:
        lin = lin_direct
        ep = _safe_exp(rho)
        if lin <= 0.0 or not math.isfinite(ep):
            return None, math.inf
        vp = (rho * lin / quad, lin / quad, ep * lin / quad)
    else:
        lin = lin_exp_id * en
        if lin <= 0.0:
            return None, math.inf
        vp = (rho * lin / quad, lin / quad, lin_exp_id / quad)
    dist = math.sqrt((vp[0] - r0) ** 2 + (vp[1] - s0) ** 2 + (vp[2] - t0) ** 2)
    return vp, dist


def _ldexp(x: float, e: int) -> float:
    """x * 2^e, or +-inf where that overflows (as np.ldexp gives)."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _exp_point(r0: float, s0: float, t0: float) -> tuple[float, float, float]:
    """The Euclidean projection of (r0, s0, t0) onto the exponential cone.

    A point whose largest magnitude lies outside [2^-500, 2^500] is
    projected after an exact power-of-two rescaling (`_rescale_exponent`).
    """
    if not (math.isfinite(r0) and math.isfinite(s0) and math.isfinite(t0)):
        raise NumericalError("exponential-cone projection of a non-finite point")
    big = max(abs(r0), abs(s0), abs(t0))
    if not _UNSCALED_MIN <= big <= _UNSCALED_MAX:
        e = _rescale_exponent(big)
        if e is not None:
            r, s, t = _exp_point(math.ldexp(r0, -e), math.ldexp(s0, -e), math.ldexp(t0, -e))
            return _ldexp(r, e), _ldexp(s, e), _ldexp(t, e)
    # in_exp((r0, s0, t0)), then in_dual_exp((-r0, -s0, -t0)), both with
    # atol 0, written out on the floats
    if s0 > 0.0:
        ratio = r0 / s0
        if ratio < 709.0 and t0 >= 0.0 and t0 >= s0 * math.exp(ratio):
            return r0, s0, t0
    elif s0 == 0.0 and r0 <= 0.0 and t0 >= 0.0:
        return r0, s0, t0
    if r0 == 0.0 and s0 <= 0.0 and t0 <= 0.0:
        return 0.0, 0.0, 0.0
    if r0 > 0.0 and t0 < 0.0 and -r0 * _log_ratio(r0, -t0) + r0 - s0 >= 0.0:
        return 0.0, 0.0, 0.0
    if r0 <= 0.0 and s0 <= 0.0:
        # Flat piece {(a, 0, c) : a <= 0, c >= 0} is exact in this region.
        return r0, 0.0, max(t0, 0.0)

    vp, pdist = _exp_heuristic_primal(r0, s0, t0)
    vd, ddist = _exp_heuristic_polar(r0, s0, t0)
    tol = 1e-12 * max(1.0, abs(r0), abs(s0), abs(t0))
    moreau_err = max(
        abs(vp[0] + vd[0] - r0), abs(vp[1] + vd[1] - s0), abs(vp[2] + vd[2] - t0)
    )
    inner = vp[0] * vd[0] + vp[1] * vd[1] + vp[2] * vd[2]
    if min(pdist, ddist) <= tol or (moreau_err <= tol and inner <= tol):
        return vp

    xl, xu = _exp_bracket(r0, s0, t0, pdist, ddist)
    rho = _exp_root(r0, s0, t0, xl, xu)
    vp_root, dist_root = _exp_primal_from_rho(r0, s0, t0, rho)
    if vp_root is not None and dist_root <= pdist:
        return vp_root
    return vp


def project_exp(v: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection onto the exponential cone."""
    out = np.empty(3)
    _exp(np.asarray(v, dtype=np.float64), out, 0, 3)
    return out


def project_dual_exp(v: np.ndarray) -> np.ndarray:
    """Moreau identity: proj_{K*}(v) = v + proj_K(-v)."""
    out = np.empty(3)
    _dual_exp(np.asarray(v, dtype=np.float64), out, 0, 3)
    return out


# ---------------------------------------------------------------------------
# Diagonally rescaled second-order cone
# ---------------------------------------------------------------------------
#
# The set is {z : diag(d) z in K_soc} = {(t, y) : t >= ||a o y||} with
# a = d[1:]/d[0].  Stationarity of 0.5||z - v||^2 with multiplier mu on the
# boundary ||a o y||^2 - t^2 = 0 gives
#     y_i(mu) = v_i / (1 + 2 mu a_i^2),   t(mu) = v_0 / (1 - 2 mu),
# and mu solves phi(mu) = ||a o y(mu)||^2 - t(mu)^2 = 0.  For v_0 > 0 the
# root lies in (0, 1/2); for v_0 < 0 in (1/2, inf); v_0 = 0 degenerates to
# mu = 1/2 with t recovered from the boundary equation.


def _rescaled_soc_residual(mu, t0, ay2_over, a2):
    z = ay2_over / (1.0 + 2.0 * mu * a2) ** 2
    t = t0 / (1.0 - 2.0 * mu)
    return float(np.sum(z) - t * t)


def project_rescaled_soc(v: np.ndarray, d: np.ndarray) -> np.ndarray:
    if np.all(d == d[0]):
        # A uniform positive scaling leaves the cone unchanged.
        return project_soc(v)
    e = _rescale_exponent(float(np.max(np.abs(v))))
    if e is not None:
        return np.ldexp(project_rescaled_soc(np.ldexp(v, -e), d), e)

    a = d[1:] / d[0]
    t0 = float(v[0])
    y = v[1:]
    a2 = a * a
    ay2 = a2 * y * y
    # Membership tests share phi's squared arithmetic so a boundary point
    # cannot fall between the fast path and the root bracket.
    if t0 >= 0.0 and t0 * t0 >= float(np.sum(ay2)):
        return v.copy()
    if t0 <= 0.0 and t0 * t0 >= float(np.sum((y / a) ** 2)):
        return np.zeros_like(v)

    if t0 == 0.0:
        zbar = y / (1.0 + a2)
        out = np.empty_like(v)
        out[1:] = zbar
        out[0] = np.linalg.norm(a * zbar)
        return out

    def phi(mu):
        return _rescaled_soc_residual(mu, t0, ay2, a2)

    if t0 > 0.0:
        lo = 0.0
        hi = None
        for j in range(1, 53):
            cand = 0.5 * (1.0 - 2.0 ** (-j))
            if phi(cand) < 0.0:
                hi = cand
                break
        if hi is None:
            raise NumericalError("rescaled-soc projection failed to bracket the multiplier")
    else:
        lo = None
        for j in range(1, 53):
            cand = 0.5 * (1.0 + 2.0 ** (-j))
            if phi(cand) < 0.0:
                lo = cand
                break
        if lo is None:
            raise NumericalError("rescaled-soc projection failed to bracket the multiplier")
        hi = 1.0
        for _ in range(80):
            if phi(hi) > 0.0:
                break
            hi *= 2.0
        else:
            raise NumericalError("rescaled-soc projection failed to bracket the multiplier")

    # imported here: scipy.optimize costs about 20 MB, and only this branch needs it
    from scipy.optimize import brentq

    try:
        mu = brentq(
            phi,
            lo,
            hi,
            xtol=1e-16,
            rtol=8.9e-16,
            maxiter=_MAX_ROOT_ITERS,
        )
    except (ValueError, RuntimeError) as exc:  # pragma: no cover - defensive
        raise NumericalError(f"rescaled-soc root finding failed: {exc}") from exc

    out = np.empty_like(v)
    out[1:] = y / (1.0 + 2.0 * mu * a2)
    out[0] = t0 / (1.0 - 2.0 * mu)
    return out


# ---------------------------------------------------------------------------
# Block kernels
# ---------------------------------------------------------------------------
#
# A kernel writes the projection of the block v[start:stop] into
# out[start:stop], and all take (v, out, start, stop), so that one loop can
# run any mix of them.  _KERNELS maps each block kind to the kernel of its
# cone and the kernel of its dual cone.  The zero cone's dual is all of R^d,
# which `_free` projects onto; it is a kernel, not a block kind.


def _free(v, out, start, stop):
    out[start:stop] = v[start:stop]


def _zero(v, out, start, stop):
    out[start:stop] = 0.0


def _nonneg(v, out, start, stop):
    np.maximum(v[start:stop], 0.0, out=out[start:stop])


def _exp(v, out, start, stop):
    out[start], out[start + 1], out[start + 2] = _exp_point(*v[start:stop].tolist())


def _dual_exp(v, out, start, stop):
    r0, s0, t0 = v[start:stop].tolist()
    a, b, c = _exp_point(-r0, -s0, -t0)
    out[start], out[start + 1], out[start + 2] = r0 + a, s0 + b, t0 + c


_KERNELS = {
    Cone.ZERO: (_zero, _free),
    Cone.NONNEG: (_nonneg, _nonneg),
    Cone.SOC: (_soc, _soc),
    Cone.EXP: (_exp, _dual_exp),
    Cone.DUAL_EXP: (_dual_exp, _exp),
}


def _rescaled_soc(d: np.ndarray):
    """The kernel of the rescaled cone {z : diag(d) z in K_soc}, with d bound."""

    def kernel(v, out, start, stop):
        out[start:stop] = project_rescaled_soc(v[start:stop], d)

    return kernel


def _kernel(kind: Cone, dual: bool, scale: np.ndarray | None):
    """The kernel that projects a block of `kind` onto {z : diag(scale) z in
    K}, K its cone or, when `dual`, its dual cone; `scale` is None where it
    is uniform.  Zero and nonneg blocks ignore the scale, which leaves their
    cones unchanged."""
    if kind is Cone.RSOC:
        raise ValueError("rotated blocks must be reformulated (rsoc_to_soc) before projection")
    kernel = _KERNELS[kind][dual]
    if scale is None or kind in (Cone.ZERO, Cone.NONNEG):
        return kernel
    if kind is Cone.SOC:
        return _rescaled_soc(scale)
    raise ValueError(f"{kind.value} blocks support only block-uniform scaling; rebuild the scaling")


def _varies(scale: np.ndarray | None) -> bool:
    return scale is not None and not bool(np.all(scale == scale[0]))


def project_cone(v: np.ndarray, kind: Cone, scale: np.ndarray | None = None) -> np.ndarray:
    """Project onto {z : diag(scale) z in K(kind)} (scale None or uniform = plain cone)."""
    out = np.empty_like(v)
    _kernel(kind, False, scale if _varies(scale) else None)(v, out, 0, v.size)
    return out


def project_cone_dual(v: np.ndarray, kind: Cone, scale: np.ndarray | None = None) -> np.ndarray:
    """Project onto the dual of {z : diag(scale) z in K(kind)}, i.e.
    {w : diag(1/scale) w in K(kind)*}."""
    out = np.empty_like(v)
    _kernel(kind, True, 1.0 / scale if _varies(scale) else None)(v, out, 0, v.size)
    return out


# ---------------------------------------------------------------------------
# Cone layout and the whole-vector set projections
# ---------------------------------------------------------------------------


def _plans(specs: tuple[ConeSpec, ...], dual: bool) -> tuple[tuple, tuple]:
    """Two plans of one (kernel, start, stop) operation per block of
    `specs`: one onto the sets of the stored scales, each block's cone (its
    dual cone when `dual`), and one onto the sets of their inverses, each
    block's dual cone (its cone when `dual`).

    Which blocks are uniform comes from one reduction over the concatenated
    scales, since a scale is constant exactly where its least and greatest
    entries are equal (the entries are positive and finite).  A constant
    scale has a constant inverse, and where a non-uniform scale's inverse
    rounds to a constant, `project_rescaled_soc` projects as `project_soc`
    does, so the uniform test on the inverses would give the same bits."""
    if not specs:
        return (), ()
    slices = [sl for _, sl in block_slices(specs)]
    scales = np.concatenate([spec.scale for spec in specs])
    starts = [sl.start for sl in slices]
    lo, hi = (reduce.reduceat(scales, starts).tolist() for reduce in (np.minimum, np.maximum))
    direct, inverse = [], []
    for spec, sl, lo_i, hi_i in zip(specs, slices, lo, hi):
        scale, inv = (None, None) if lo_i == hi_i else (spec.scale, 1.0 / spec.scale)
        direct.append((_kernel(spec.kind, dual, scale), sl.start, sl.stop))
        inverse.append((_kernel(spec.kind, not dual, inv), sl.start, sl.stop))
    return tuple(direct), tuple(inverse)


class ConeLayout:
    """The per-block projection plans of one ConicProblem.

    A block of kind K with stored scale d constrains the iterates through
    diag(d): diag(d) x_2 in K_p, and diag(d) y in the dual of the residual
    block.  The residual Gx - h and the multiplier lambda_2 live in the dual
    sets, which are rescaled by 1/d.  So each set projection is one of four
    plans, fixed when the layout is built.
    """

    def __init__(self, problem: ConicProblem) -> None:
        self.primal, self.primal_dual = _plans(problem.primal_cones, dual=False)
        self.dual, self.dual_residual = _plans(problem.dual_cones, dual=True)


def cone_layout(problem: ConicProblem) -> ConeLayout:
    """The problem's layout, built on first use and cached on the instance."""
    layout = problem._cone_layout
    if layout is None:
        layout = ConeLayout(problem)
        object.__setattr__(problem, "_cone_layout", layout)
    return layout


def _project(ops: tuple, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    for kernel, start, stop in ops:
        kernel(v, out, start, stop)
    return out


def project_primal_set(x: np.ndarray, problem: ConicProblem,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Projection onto [l, u] x K_p (with any stored block scalings)."""
    n1 = problem.num_box
    if out is None:
        out = np.empty_like(x)
    # bitwise np.clip, NaN and signed zeros included, in about half the time
    box = out[:n1]
    np.minimum(np.maximum(x[:n1], problem.l, out=box), problem.u, out=box)
    _project(cone_layout(problem).primal, x[n1:], out[n1:])
    return out


def project_dual_set(y: np.ndarray, problem: ConicProblem,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Projection of the dual iterate onto K_d.

    Stored block kinds describe the residual cone K_d*, so each y-block is
    projected onto the dual kind of its stored block; zero-tagged blocks
    leave y free because equality-row multipliers are sign-free.
    """
    return _project(cone_layout(problem).dual, y, np.empty_like(y) if out is None else out)


def project_dual_residual_set(r: np.ndarray, problem: ConicProblem,
                              out: np.ndarray | None = None) -> np.ndarray:
    """Projection of the constraint residual Gx - h onto K_d*."""
    return _project(cone_layout(problem).dual_residual, r,
                    np.empty_like(r) if out is None else out)


def project_primal_cone_part(v: np.ndarray, problem: ConicProblem,
                             out: np.ndarray | None = None) -> np.ndarray:
    """Projection of a length n - num_box vector onto K_p alone."""
    return _project(cone_layout(problem).primal, v, np.empty_like(v) if out is None else out)


def project_primal_cone_dual(lam: np.ndarray, problem: ConicProblem,
                             out: np.ndarray | None = None) -> np.ndarray:
    """Projection of the cone part of the multiplier lambda_2 onto K_p*."""
    return _project(cone_layout(problem).primal_dual, lam,
                    np.empty_like(lam) if out is None else out)


# ---------------------------------------------------------------------------
# The set projections restricted to one shard's range
# ---------------------------------------------------------------------------
#
# A blockwise projection computes each entry from its own block only, so a
# sharded solve projects contiguous ranges of a vector on different threads
# and gets the whole projection's bits.  The kernels below are separable
# (entry by entry), so a range may cut their blocks; any other block lies
# wholly inside one range.

_SEPARABLE = (_zero, _free, _nonneg)


def _plan(problem: ConicProblem, dual: bool) -> tuple[tuple, int]:
    """The plan of the primal set's cone part, or with `dual` of the dual
    iterate's set, and the plan's offset in the projected vector."""
    layout = cone_layout(problem)
    return (layout.dual, 0) if dual else (layout.primal, problem.num_box)


def unsplit_blocks(problem: ConicProblem, dual: bool) -> np.ndarray:
    """(start, stop) rows, ascending, of the blocks of the primal set's
    vector (with `dual`, the dual iterate's) that a range must hold whole:
    those whose kernel is not separable."""
    ops, offset = _plan(problem, dual)
    return np.array([(start + offset, stop + offset) for kernel, start, stop in ops
                     if kernel not in _SEPARABLE], dtype=np.int64).reshape(-1, 2)


class RangeProjection:
    """`project_primal_set`, or with `dual` `project_dual_set`, on the
    entries [lo, hi) of the vector alone: the box clamp of the box entries
    in the range and the layout's operations on its blocks, a separable
    block that crosses an end clipped to the range.  A range end inside any
    other block raises ValueError (`unsplit_blocks` lists them).  Called
    with the whole input and output vectors, it writes out[lo:hi] only,
    with the bits of the whole projection."""

    __slots__ = ("_box", "_offset", "_ops")

    def __init__(self, problem: ConicProblem, dual: bool, lo: int, hi: int) -> None:
        ops, offset = _plan(problem, dual)
        self._box = None
        if offset:
            b0, b1 = min(lo, offset), min(hi, offset)
            if b0 < b1:
                self._box = slice(b0, b1), problem.l[b0:b1], problem.u[b0:b1]
        clipped = []
        for kernel, start, stop in ops:
            a, b = max(start + offset, lo) - offset, min(stop + offset, hi) - offset
            if a >= b:
                continue
            if (a, b) != (start, stop) and kernel not in _SEPARABLE:
                raise ValueError(f"the range [{lo}, {hi}) splits the block "
                                 f"[{start + offset}, {stop + offset})")
            clipped.append((kernel, a, b))
        self._offset, self._ops = offset, tuple(clipped)

    def __call__(self, v: np.ndarray, out: np.ndarray) -> None:
        if self._box is not None:
            part, l, u = self._box
            box = out[part]
            np.minimum(np.maximum(v[part], l, out=box), u, out=box)
        if self._ops:
            offset = self._offset
            _project(self._ops, v[offset:], out[offset:])
