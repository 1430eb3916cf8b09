"""Differential tests of the box facts against boolean-mask references.

A ConicProblem classifies its bounds once (`ConicProblem.box`): the
multiplier set Lambda and the recession cone of [l, u] become intervals
projected by one `np.clip`, and the finite bounds become index arrays for
the bound support l' lambda^+ - u' lambda^-.  Each form is compared with the
mask form in `oracles` over all four finiteness classes of (l_i, u_i), +-0,
NaN entries and magnitudes from 1e-300 to 1e300.  Projections may differ
from the masks in the sign of a zero, which no norm sees, so violations are
compared by absolute value; the bound support is compared bit for bit.
"""

import dataclasses
import math
import struct

import numpy as np
import pytest

from oracles import bound_support_masks, box_recession_projection_masks, lambda_projection_masks

import conic_pdhg.model as model
from conic_pdhg import cones
from conic_pdhg.linalg import SparseMatrix
from conic_pdhg.model import Cone, ConeSpec, ConicProblem, dual_objective
from conic_pdhg.termination import compute_errors, dual_ray_quality, primal_ray_quality

pytestmark = pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")

SEEDS = range(200)


def extreme(rng, n):
    """Random signs and magnitudes 10^[-300, 300], with some +-0 entries."""
    v = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
    v[rng.random(n) < 0.1] = 0.0
    v[rng.random(n) < 0.1] = -0.0
    return v


def with_nans(rng, v):
    v = v.copy()
    v[rng.random(v.size) < 0.1] = math.nan
    return v


def bounds(rng, n):
    """Bounds whose finiteness classes cover all four (l_i, u_i) cases."""
    a, b = extreme(rng, n), extreme(rng, n)
    l, u = np.minimum(a, b), np.maximum(a, b)
    cls = np.arange(n) % 4
    rng.shuffle(cls)
    l[(cls == 2) | (cls == 3)] = -math.inf
    u[(cls == 1) | (cls == 3)] = math.inf
    return l, u


def problem(rng, n, m=3):
    l, u = bounds(rng, n)
    return ConicProblem(
        c=extreme(rng, n), G=SparseMatrix(np.zeros((m, n))), h=extreme(rng, m),
        l=l, u=u, num_box=n, dual_cones=(ConeSpec(Cone.NONNEG, m),) if m else (),
    )


def same_bits(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


def assert_same_violation(v, proj, ref):
    np.testing.assert_array_equal(np.abs(v - proj), np.abs(v - ref))


def test_multiplier_projection_matches_masks():
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        p = problem(rng, 16)
        lam = with_nans(rng, extreme(rng, 16))
        ref = lambda_projection_masks(lam, p.l, p.u)
        assert_same_violation(lam, np.clip(lam, p.box.lam_lo, p.box.lam_hi), ref)


def test_recession_projection_matches_masks():
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        p = problem(rng, 16)
        d = with_nans(rng, extreme(rng, 16))
        assert_same_violation(d, np.clip(d, p.box.rec_lo, p.box.rec_hi),
                              box_recession_projection_masks(d, p.l, p.u))


def test_dual_objective_bitwise():
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        p = problem(rng, 16)
        y = extreme(rng, p.m)
        lam = extreme(rng, 16)
        if seed % 2:
            lam = with_nans(rng, lam)
        got = dual_objective(p, y, lam)
        ref = bound_support_masks(lam, p.l, p.u, float(np.dot(y, p.h)))
        assert same_bits(got, ref), seed


def test_ray_qualities_match_masks():
    # With G = 0 and no cone variables, the certificate errors reduce to the
    # box terms, so the reference is the mask form alone.
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        p = problem(rng, 16)
        y = rng.standard_normal(p.m)
        gty = extreme(rng, 16)
        err, obj = dual_ray_quality(p, y, gty)
        ynorm = float(np.linalg.norm(y))
        lam = -gty / ynorm
        assert same_bits(obj, bound_support_masks(lam, p.l, p.u, float(np.dot(y, p.h)) / ynorm)), seed
        ref_err = float(np.max(np.abs(lam - lambda_projection_masks(lam, p.l, p.u))))
        assert same_bits(err, max(ref_err, 0.0)), seed

        x = rng.standard_normal(16) * 10.0 ** rng.uniform(-100, 100, 16)
        err, obj = primal_ray_quality(p, x, np.zeros(p.m))
        xhat = x / float(np.linalg.norm(x))
        ref_err = float(np.max(np.abs(xhat - box_recession_projection_masks(xhat, p.l, p.u))))
        assert same_bits(err, max(0.0, ref_err, 0.0)), seed
        assert same_bits(obj, -float(np.dot(p.c, xhat))), seed


def test_box_facts_built_once(monkeypatch):
    rng = np.random.default_rng(1)
    l, u = bounds(rng, 8)
    calls = []
    real_isfinite = np.isfinite

    def counting(a, *args, **kwargs):
        calls.append(a)
        return real_isfinite(a, *args, **kwargs)

    monkeypatch.setattr(model.np, "isfinite", counting)
    p = ConicProblem(
        c=rng.standard_normal(8), G=SparseMatrix(rng.standard_normal((3, 8))),
        h=rng.standard_normal(3), l=l, u=u, num_box=8,
        dual_cones=(ConeSpec(Cone.NONNEG, 3),),
    )
    assert sum(a is p.l for a in calls) == 1 and sum(a is p.u for a in calls) == 1
    facts = p.box
    calls.clear()

    x, y = rng.standard_normal(8), rng.standard_normal(3)
    cones.project_primal_set(x, p)
    compute_errors(p, x, y)
    dual_ray_quality(p, y, p.G.rmatvec(y))
    primal_ray_quality(p, x, p.G.matvec(x))
    assert p.box is facts
    assert not any(a is p.l or a is p.u for a in calls)

    # a problem with other bounds gets its own facts
    q = dataclasses.replace(p, u=np.full(8, math.inf))
    assert q.box is not facts
    assert q.box.u_idx.size == 0 and np.all(q.box.rec_hi == math.inf)


def test_box_facts_ignore_later_writes_to_the_callers_bounds():
    l, u = np.array([0.0]), np.array([1.0])
    p = ConicProblem(c=np.array([-1.0]), G=SparseMatrix(np.zeros((0, 1))), h=np.zeros(0),
                     l=l, u=u, num_box=1)
    u[0] = math.inf
    assert p.u[0] == 1.0 and np.array_equal(p.box.u_val, [1.0])
