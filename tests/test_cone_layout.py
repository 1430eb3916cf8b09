"""Differential tests of the cone layout against per-block projections.

The whole-vector set projections run precomputed per-block plans.  Each is
compared bit for bit with a loop that projects every block through the
public per-cone projections (`project_soc`, `project_rescaled_soc`,
`project_exp`, `project_dual_exp`), mapping each kind to its dual cone
itself, over random block mixes, scales up to the scaling clamps,
magnitudes from 1e-300 to 1e300, and points on the cone boundaries.
`project_cone` and `project_cone_dual` are compared with the same per-block
reference.
"""

import dataclasses
import math

import numpy as np
import pytest

from conic_pdhg import cones
from conic_pdhg.cones import (
    project_box,
    project_cone,
    project_cone_dual,
    project_dual_exp,
    project_dual_residual_set,
    project_dual_set,
    project_exp,
    project_primal_cone_dual,
    project_primal_cone_part,
    project_primal_set,
    project_rescaled_soc,
    project_soc,
)
from conic_pdhg.engine import SolverOptions, solve
from conic_pdhg.linalg import NumericalError, SparseMatrix
from conic_pdhg.model import Cone, ConeSpec, ConicProblem, block_slices

# ---------------------------------------------------------------------------
# Reference: one projection per block, with each kind's dual cone named here
# ---------------------------------------------------------------------------


def ref_block(v, kind, scale, dual):
    """The projection of one block onto {z : diag(scale) z in K}, K the cone
    of `kind` or, when `dual`, its dual cone.  Zero and nonneg cones are
    unchanged by a positive diagonal scale, an exp block's scale is uniform,
    and `project_rescaled_soc` projects as `project_soc` does where its
    scale is uniform."""
    if kind is Cone.ZERO:
        return v.copy() if dual else np.zeros_like(v)
    if kind is Cone.NONNEG:
        return np.maximum(v, 0.0)
    if kind is Cone.SOC:
        return project_rescaled_soc(v, scale)
    return project_dual_exp(v) if (kind is Cone.DUAL_EXP) != dual else project_exp(v)


def _ref_blocks(v, specs, dual, inverse):
    """Each block of `v` onto its set: the stored scale's, or its inverse's
    when `inverse`."""
    out = np.empty_like(v)
    for spec, sl in block_slices(specs):
        scale = 1.0 / spec.scale if inverse else spec.scale
        out[sl] = ref_block(v[sl], spec.kind, scale, dual)
    return out


def ref_primal_cone_part(v, p):
    return _ref_blocks(v, p.primal_cones, dual=False, inverse=False)


def ref_primal_set(x, p):
    n1 = p.num_box
    return np.concatenate([project_box(x[:n1], p.l, p.u), ref_primal_cone_part(x[n1:], p)])


def ref_primal_cone_dual(lam, p):
    return _ref_blocks(lam, p.primal_cones, dual=True, inverse=True)


def ref_dual_set(y, p):
    return _ref_blocks(y, p.dual_cones, dual=True, inverse=False)


def ref_dual_residual_set(r, p):
    return _ref_blocks(r, p.dual_cones, dual=False, inverse=True)


PAIRS = (
    (project_primal_set, ref_primal_set, "n"),
    (project_primal_cone_part, ref_primal_cone_part, "cone"),
    (project_primal_cone_dual, ref_primal_cone_dual, "cone"),
    (project_dual_set, ref_dual_set, "m"),
    (project_dual_residual_set, ref_dual_residual_set, "m"),
)


def soc_with_linalg_norm(v):
    """The second-order projection written with np.linalg.norm."""
    t, x = v[0], v[1:]
    nx = float(np.linalg.norm(x))
    if nx <= t:
        return v.copy()
    if nx <= -t:
        return np.zeros_like(v)
    coef = 0.5 * (t + nx)
    out = np.empty_like(v)
    out[0] = coef
    out[1:] = (coef / nx) * x
    return out


# ---------------------------------------------------------------------------
# Random instances and points
# ---------------------------------------------------------------------------

CLAMPS = (1e-8, 1e8)


def _scale(rng, kind, dim, uniform):
    if kind in (Cone.EXP, Cone.DUAL_EXP) or uniform:
        value = rng.choice([1.0, rng.uniform(0.1, 10.0), *CLAMPS])
        return np.full(dim, value)
    scale = np.exp(rng.uniform(-3.0, 3.0, dim))
    scale[rng.random(dim) < 0.3] = rng.choice(CLAMPS)
    return scale


def _blocks(rng, count, uniform):
    specs = []
    kinds = [Cone.NONNEG, Cone.SOC, Cone.EXP, Cone.DUAL_EXP, Cone.ZERO]
    for _ in range(count):
        kind = kinds[rng.integers(len(kinds))]
        dim = {Cone.ZERO: int(rng.integers(1, 4)), Cone.NONNEG: int(rng.integers(1, 4)),
               Cone.SOC: int(rng.integers(2, 10))}.get(kind, 3)
        specs.append(ConeSpec(kind, dim, _scale(rng, kind, dim, uniform)))
    return specs


def random_problem(rng, uniform):
    """Primal and dual blocks of random kinds, in any order."""
    primal = _blocks(rng, int(rng.integers(0, 6)), uniform)
    dual = _blocks(rng, int(rng.integers(1, 9)), uniform)
    n1 = int(rng.integers(0, 3))
    n = n1 + sum(s.dim for s in primal)
    m = sum(s.dim for s in dual)
    return ConicProblem(
        c=np.zeros(n),
        G=SparseMatrix((m, n)),
        h=np.zeros(m),
        l=-np.ones(n1),
        u=np.ones(n1),
        num_box=n1,
        primal_cones=tuple(primal),
        dual_cones=tuple(dual),
    )


def _boundary_block(rng, kind, dim, mag):
    if kind is Cone.SOC:
        x = rng.standard_normal(dim - 1) * mag
        with np.errstate(over="ignore"):
            t = math.sqrt(x.dot(x))
        return np.concatenate([[t * rng.choice([1.0, -1.0])], x])
    if kind in (Cone.EXP, Cone.DUAL_EXP):
        a, b = rng.uniform(-3.0, 1.0), rng.uniform(0.1, 2.0)
        point = np.array([a, b, b * math.exp(a / b)]) * mag
        return point * rng.choice([1.0, -1.0])
    return np.zeros(dim)


def random_point(rng, size, specs, offset=0):
    """Entries of random sign with magnitudes spread over 1e-300..1e300;
    about a third of the cone blocks are put on a cone boundary."""
    v = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-300.0, 300.0, size)
    if rng.random() < 0.5:
        v = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 301)
    for spec, sl in block_slices(specs, offset):
        if rng.random() < 0.35:
            mag = 10.0 ** rng.choice([-300, -8, 0, 8, 300])
            v[sl] = _boundary_block(rng, spec.kind, spec.dim, mag)
    return v


def _outcome(fn, v, p):
    # Exp projections of points near 1e300 can overflow inside Python float
    # arithmetic; the layout must then fail the same way as the reference.
    try:
        with np.errstate(all="ignore"):
            return fn(v, p).tobytes()
    except (ValueError, NumericalError, OverflowError) as exc:
        return type(exc)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "nonuniform"])
def test_set_projections_match_per_block_reference_bitwise(uniform):
    rng = np.random.default_rng(41 if uniform else 42)
    for _ in range(60):
        p = random_problem(rng, uniform)
        for _ in range(5):
            for fn, ref, length in PAIRS:
                if length == "m":
                    v = random_point(rng, p.m, p.dual_cones)
                elif length == "n":
                    v = random_point(rng, p.n, p.primal_cones, p.num_box)
                else:
                    v = random_point(rng, p.n - p.num_box, p.primal_cones)
                assert _outcome(fn, v, p) == _outcome(ref, v, p), (fn.__name__, p)


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "nonuniform"])
def test_project_cone_and_its_dual_match_per_block_reference_bitwise(uniform):
    # project_cone_dual(v, kind, d) projects onto the dual cone rescaled by
    # 1/d, which the reference is given as computed, never as 1/(1/d)
    rng = np.random.default_rng(45 if uniform else 46)
    for _ in range(300):
        spec = _blocks(rng, 1, uniform)[0]
        v = random_point(rng, spec.dim, (spec,))
        for fn, scale, dual in ((project_cone, spec.scale, False),
                                (project_cone_dual, 1.0 / spec.scale, True)):
            got = _outcome(lambda w, _: fn(w, spec.kind, spec.scale), v, None)
            want = _outcome(lambda w, _: ref_block(w, spec.kind, scale, dual), v, None)
            assert got == want, (fn.__name__, spec, v)


def test_soc_kernel_matches_linalg_norm_bitwise():
    # The np.linalg.norm formula is the reference only where the squares stay
    # in the float range: blocks whose largest magnitude lies in
    # [2^-500, 2^500], or that are not finite.  Beyond that range the kernel
    # rescales (test_cones.py checks the contracts there).
    rng = np.random.default_rng(43)
    compared = 0
    while compared < 3000:
        dim = int(rng.integers(2, 16))
        v = rng.standard_normal(dim) * 10.0 ** rng.uniform(-300.0, 300.0)
        if rng.random() < 0.3:
            v = _boundary_block(rng, Cone.SOC, dim, 10.0 ** rng.integers(-300, 301))
        big = float(np.max(np.abs(v)))
        if math.isfinite(big) and not 2.0 ** -500 <= big <= 2.0 ** 500:
            continue
        compared += 1
        with np.errstate(all="ignore"):
            assert project_soc(v).tobytes() == soc_with_linalg_norm(v).tobytes()


def test_non_finite_exp_block_raises():
    p = ConicProblem(
        c=np.zeros(1), G=SparseMatrix((5, 1)), h=np.zeros(5),
        l=-np.ones(1), u=np.ones(1), num_box=1,
        dual_cones=(ConeSpec(Cone.SOC, 2), ConeSpec(Cone.EXP, 3)),
    )
    for bad in (math.nan, math.inf, -math.inf):
        y = np.array([1.0, 0.5, 0.0, bad, 1.0])
        with pytest.raises(NumericalError):
            project_dual_set(y, p)
        with pytest.raises(NumericalError):
            project_dual_residual_set(y, p)


def test_layout_is_built_once_per_problem_instance(monkeypatch):
    built = []

    class CountingLayout(cones.ConeLayout):
        def __init__(self, problem):
            built.append(problem)
            super().__init__(problem)

    monkeypatch.setattr(cones, "ConeLayout", CountingLayout)
    rng = np.random.default_rng(44)
    p = random_problem(rng, uniform=True)
    for fn, _, length in PAIRS:
        size = {"m": p.m, "n": p.n, "cone": p.n - p.num_box}[length]
        for _ in range(3):
            with np.errstate(all="ignore"):
                fn(rng.standard_normal(size), p)
    assert built == [p]
    assert cones.cone_layout(p) is cones.cone_layout(p)

    # A copy is a new instance with its own layout.
    q = dataclasses.replace(p)
    project_dual_set(np.zeros(q.m), q)
    assert len(built) == 2 and built[1] is q

    # A solve builds one layout for the work problem and one for the
    # scaled problem, however many iterations it runs.
    built.clear()
    lp = ConicProblem(
        c=np.array([1.0, 2.0]),
        G=SparseMatrix(np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])),
        h=np.array([1.0, 0.0, 0.0, 0.0]),
        l=np.zeros(2),
        u=np.full(2, 10.0),
        num_box=2,
        dual_cones=(ConeSpec(Cone.ZERO, 1), ConeSpec(Cone.SOC, 3)),
    )
    result = solve(lp, SolverOptions(max_iter=300, duality_gap_restart_freq=50))
    assert result.iterations > 0
    assert len(built) == 2


def _legal_cuts(rng, size, blocks, count):
    """`count` - 1 random ascending cuts of [0, size) outside the interiors
    of `blocks`, some of them equal, so that some ranges are empty."""
    inside = np.zeros(size + 1, bool)
    for start, stop in blocks:
        inside[start + 1:stop] = True
    allowed = np.flatnonzero(~inside)
    return [0, *sorted(rng.choice(allowed, count - 1).tolist()), size]


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "nonuniform"])
def test_range_projections_make_up_the_set_projections_bitwise(uniform):
    # a sharded step projects each shard's range on its own thread; the
    # ranges together must write the whole projection's bits
    rng = np.random.default_rng(47 if uniform else 48)
    for _ in range(60):
        p = random_problem(rng, uniform)
        for dual, whole, size, specs, offset in (
                (False, cones.project_primal_set, p.n, p.primal_cones, p.num_box),
                (True, cones.project_dual_set, p.m, p.dual_cones, 0)):
            blocks = cones.unsplit_blocks(p, dual)
            expect = [[sl.start, sl.stop] for spec, sl in block_slices(specs, offset)
                      if spec.kind not in (Cone.ZERO, Cone.NONNEG)]
            assert blocks.tolist() == expect
            for _ in range(5):
                v = random_point(rng, size, specs, offset)
                want = _outcome(whole, v, p)
                if not isinstance(want, bytes):
                    continue
                cuts = _legal_cuts(rng, size, blocks, int(rng.integers(1, 5)))
                out = np.full(size, math.nan)
                with np.errstate(all="ignore"):
                    for lo, hi in zip(cuts, cuts[1:]):
                        cones.RangeProjection(p, dual, lo, hi)(v, out)
                assert out.tobytes() == want, (dual, cuts, p)


def test_a_range_that_splits_a_block_is_rejected():
    p = ConicProblem(c=np.zeros(8), G=SparseMatrix((6, 8)), h=np.zeros(6),
                     l=-np.ones(2), u=np.ones(2), num_box=2,
                     primal_cones=(ConeSpec(Cone.NONNEG, 3), ConeSpec(Cone.SOC, 3)),
                     dual_cones=(ConeSpec(Cone.EXP, 3), ConeSpec(Cone.ZERO, 3)))
    assert cones.unsplit_blocks(p, False).tolist() == [[5, 8]]
    assert cones.unsplit_blocks(p, True).tolist() == [[0, 3]]
    for lo, hi in ((1, 4), (0, 5), (3, 8), (8, 8)):  # box and nonneg entries split freely
        cones.RangeProjection(p, False, lo, hi)
    for lo, hi in ((0, 6), (6, 8), (2, 7)):
        with pytest.raises(ValueError, match="splits the block"):
            cones.RangeProjection(p, False, lo, hi)
    cones.RangeProjection(p, True, 4, 5)
    with pytest.raises(ValueError, match="splits the block"):
        cones.RangeProjection(p, True, 1, 6)
