"""Unit tests for cone projections: closed forms, KKT checks, and oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    dual_exp_membership_by_sampling,
    exp_cone_distance,
    exp_membership_direct,
    near_dual_exp_cone,
    near_exp_cone,
    project_dual_exp_reference,
    project_exp_reference,
    rescaled_soc_projection_fista,
)

from conic_pdhg import cones

from conic_pdhg.cones import (
    in_dual_exp,
    in_exp,
    project_box,
    project_cone,
    project_cone_dual,
    project_dual_exp,
    project_dual_residual_set,
    project_dual_set,
    project_exp,
    project_primal_set,
    project_rescaled_soc,
    project_soc,
)
from conic_pdhg.linalg import NumericalError, SparseMatrix
from conic_pdhg.model import Cone, ConeSpec, ConicProblem
from conic_pdhg.scaling import _SCALE_CLAMP_HI, _SCALE_CLAMP_LO


class TestBox:
    def test_clamp(self):
        v = np.array([2.0, -3.0])
        out = project_box(v, np.array([0.0, 0.0]), np.array([1.0, math.inf]))
        np.testing.assert_allclose(out, [1.0, 0.0])

    def test_interior_identity(self):
        v = np.array([0.5, -0.5])
        out = project_box(v, np.array([0.0, -1.0]), np.array([1.0, 0.0]))
        np.testing.assert_array_equal(out, v)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            project_box(np.zeros(1), np.array([1.0]), np.array([0.0]))

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError, match="empty box"):
            project_box(np.zeros(2), np.array([0.0, math.inf]), np.array([1.0, 5.0]))
        with pytest.raises(ValueError, match="empty box"):
            project_box(np.zeros(1), np.array([-math.inf]), np.array([-math.inf]))

    def test_grid_oracle(self):
        rng = np.random.default_rng(11)
        l = np.array([-1.0, 0.5])
        u = np.array([2.0, 3.0])
        grid = np.stack(
            np.meshgrid(np.linspace(l[0], u[0], 100), np.linspace(l[1], u[1], 100)),
            axis=-1,
        ).reshape(-1, 2)
        for _ in range(20):
            v = rng.uniform(-5, 5, 2)
            best_grid = np.min(np.linalg.norm(grid - v, axis=1))
            assert np.linalg.norm(project_box(v, l, u) - v) <= best_grid + 1e-9


class TestSoc:
    def test_interior_point(self):
        v = np.array([1.0, 0.5, 0.0])
        np.testing.assert_array_equal(project_soc(v), v)

    def test_polar_interior(self):
        v = np.array([-2.0, 1.0, 0.0])
        np.testing.assert_array_equal(project_soc(v), np.zeros(3))

    def test_halfway_point(self):
        out = project_soc(np.array([0.0, 1.0, 0.0]))
        np.testing.assert_allclose(out, [0.5, 0.5, 0.0])

    def test_discretization_oracle(self):
        # argmin over a fine sample of the cone (boundary rays + interior)
        v = np.array([0.0, 1.0, 0.0])
        thetas = np.linspace(0, 2 * math.pi, 721)
        radii = np.linspace(0, 3, 301)
        best = math.inf
        for t in thetas:
            ray = np.array([1.0, math.cos(t), math.sin(t)])
            for alpha in (0.5, 1.0):  # boundary and an interior shrink of xbar
                pts = radii[:, None] * np.array([1.0, alpha * ray[1], alpha * ray[2]])
                best = min(best, np.min(np.linalg.norm(pts - v, axis=1)))
        assert np.linalg.norm(project_soc(v) - v) <= best + 1e-3

    def test_kkt_on_random_points(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            v = rng.standard_normal(rng.integers(2, 7)) * 3.0
            p = project_soc(v)
            r = p - v
            assert p[0] >= np.linalg.norm(p[1:]) - 1e-10
            assert r[0] >= np.linalg.norm(r[1:]) - 1e-10  # residual in the (self-)dual cone
            assert abs(np.dot(p, r)) <= 1e-9 * max(1.0, np.dot(v, v))

    def test_self_duality(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            v = rng.standard_normal(4) * 2.0
            # proj onto K* via Moreau must equal proj onto K for the SOC
            moreau = v + project_soc(-v)
            np.testing.assert_allclose(moreau, project_soc(v), atol=1e-12)


class TestExp:
    def test_members_unchanged(self):
        for v in ([0.0, 1.0, math.e], [1.0, 1.0, math.e], [-3.0, 0.0, 2.0], [0.0, 0.0, 0.0]):
            np.testing.assert_array_equal(project_exp(np.array(v)), np.array(v))

    def test_polar_interior_maps_to_zero(self):
        # -v must satisfy the dual-cone inequality u log(-u/w) - u + vv >= 0
        v = np.array([1.0, -0.5, -1.0])
        u, vv, w = -v
        assert u < 0 < w and u * math.log(-u / w) - u + vv > 0
        np.testing.assert_allclose(project_exp(v), np.zeros(3), atol=1e-12)

    def test_flat_region_point(self):
        # Derived via the KKT oracle: both components of v nonpositive project
        # onto the flat piece, not onto zero.
        v = np.array([-1.0, -1.0, -1.0])
        out = project_exp(v)
        np.testing.assert_allclose(out, [-1.0, 0.0, 0.0], atol=1e-12)
        residual = out - v
        assert in_dual_exp(-(v - out), atol=1e-9)
        assert abs(np.dot(out, residual)) <= 1e-10

    def test_membership_helper_against_direct_formula(self):
        rng = np.random.default_rng(14)
        for _ in range(2000):
            v = rng.uniform(-5, 5, 3)
            assert in_exp(v) == exp_membership_direct(v)

    def test_dual_membership_against_sampling_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            v = rng.uniform(-3, 3, 3)
            claimed = in_dual_exp(v, atol=1e-12)
            sampled = dual_exp_membership_by_sampling(v, rng)
            if claimed:
                assert sampled
            # sampling can only certify violations on sampled points
            if not sampled:
                assert not in_dual_exp(v, atol=-1e-6)

    def test_kkt_on_random_points(self):
        rng = np.random.default_rng(16)
        for _ in range(1000):
            v = rng.uniform(-5, 5, 3)
            p = project_exp(v)
            assert in_exp(p, atol=1e-9)
            assert near_dual_exp_cone(p - v, 1e-9)
            assert abs(np.dot(p, v - p)) <= 1e-9 * max(1.0, float(np.dot(v, v)))

    def test_extreme_magnitudes_finite_or_numerical_error(self):
        # magnitudes 1e-300..1e300, shared by a point's components or drawn
        # per component, some components zero
        rng = np.random.default_rng(18)
        for i in range(3000):
            v = rng.choice([-1.0, 1.0], 3) * 10.0 ** rng.uniform(-300, 300, 1 + 2 * (i % 2))
            if i % 5 == 0:
                v[rng.integers(3)] = 0.0
            for project in (project_exp, project_dual_exp):
                try:
                    out = project(v)
                except NumericalError:
                    continue
                assert out.shape == (3,) and np.all(np.isfinite(out))

    @pytest.mark.parametrize("power", [600, -600])
    def test_homogeneous_beyond_the_rescaling_bounds(self, power):
        rng = np.random.default_rng(19)
        for _ in range(300):
            v = rng.uniform(-5, 5, 3)
            scale = 2.0 ** power
            np.testing.assert_allclose(
                project_exp(v * scale) / scale, project_exp(v), rtol=0, atol=1e-9
            )

    def test_distance_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            v = rng.uniform(-4, 4, 3)
            dist = np.linalg.norm(project_exp(v) - v)
            assert dist <= exp_cone_distance(v) + 1e-7

    def test_idempotence_and_nonexpansiveness(self):
        rng = np.random.default_rng(18)
        for _ in range(500):
            a = rng.uniform(-5, 5, 3)
            b = rng.uniform(-5, 5, 3)
            pa, pb = project_exp(a), project_exp(b)
            assert np.linalg.norm(project_exp(pa) - pa) <= 1e-10
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


class TestDualExp:
    def test_member_unchanged(self):
        v = np.array([-1.0, 0.5, 1.0])
        assert in_dual_exp(v)
        np.testing.assert_allclose(project_dual_exp(v), v, atol=1e-12)

    def test_kkt_on_random_points(self):
        rng = np.random.default_rng(19)
        for _ in range(1000):
            v = rng.uniform(-5, 5, 3)
            p = project_dual_exp(v)
            assert near_dual_exp_cone(p, 1e-9)
            # the reversed residual lies in the dual of K*, which is K_exp
            assert near_exp_cone(p - v, 1e-9)
            assert abs(np.dot(p, v - p)) <= 1e-9 * max(1.0, float(np.dot(v, v)))

    def test_moreau_identity(self):
        rng = np.random.default_rng(20)
        for _ in range(1000):
            v = rng.uniform(-5, 5, 3)
            lhs = project_exp(v) - project_dual_exp(-v)
            assert np.linalg.norm(lhs - v) <= 1e-9


def exp_path(v):
    """The branch of the exp-cone projection that `v` takes."""
    r0, s0, t0 = (float(c) for c in v)
    big = max(abs(r0), abs(s0), abs(t0))
    if cones._rescale_exponent(big) is not None:
        return "rescaled up" if big < 1.0 else "rescaled down"
    if in_exp((r0, s0, t0)):
        return "cone"
    if in_dual_exp((-r0, -s0, -t0)):
        return "polar"
    if r0 <= 0.0 and s0 <= 0.0:
        return "flat"
    vp, pdist = cones._exp_heuristic_primal(r0, s0, t0)
    vd, ddist = cones._exp_heuristic_polar(r0, s0, t0)
    tol = 1e-12 * max(1.0, abs(r0), abs(s0), abs(t0))
    moreau_err = max(abs(vp[0] + vd[0] - r0), abs(vp[1] + vd[1] - s0), abs(vp[2] + vd[2] - t0))
    inner = vp[0] * vd[0] + vp[1] * vd[1] + vp[2] * vd[2]
    if min(pdist, ddist) <= tol or (moreau_err <= tol and inner <= tol):
        return "heuristic"
    return "root"


EXP_PATH_POINTS = {
    "cone": [(0.0, 1.0, 1.0), (1.0, 1.0, math.e), (0.0, -0.0, 5.0), (-0.0, 0.0, 0.0),
             (-3.0, 0.0, 2.0), (-2.0, 1.0, 1.0)],
    "polar": [(1.0, 1.0, -1.0), (1.0, -0.5, -1.0), (0.0, -1.0, -0.0), (0.0, 0.0, -2.0)],
    "flat": [(-1.0, -1.0, -1.0), (-1.0, -1.0, -0.0), (-2.0, -1.0, 3.0), (-0.0, -1.0, 0.5)],
    "heuristic": [(1.0, 1.0, math.e - 1e-14), (2.0, 1.0, math.exp(2.0) * (1.0 - 1e-15))],
    "root": [(1.0, 1.0, 1.0), (0.5, -1.0, 2.0), (3.0, 0.1, -1.0), (-1.0, 2.0, -0.5)],
    "rescaled up": [(2.0 ** -600, 2.0 ** -600, 2.0 ** -600), (1e-300, -1e-301, 0.0),
                    (5e-324, 5e-324, -5e-324)],
    # the last two project onto points with an entry of +inf and of -inf
    "rescaled down": [(2.0 ** 600, 2.0 ** 600, 2.0 ** 600), (1e300, 1e299, -1e300),
                      (-1e308, 1e308, 0.0), (1.7e308, 1.7e308, 1.7e308),
                      (-1.7893197942457102e308, 4.729903569503219e307, -7.123341480893963e307)],
}


def exp_kernel_outputs(v):
    """`v` projected onto K_exp and K_exp* by the block kernels (into a
    NaN-filled buffer at an offset, which must stay NaN around the block)
    and by `project_exp` / `project_dual_exp`."""
    outs = []
    for kernel, project in ((cones._exp, project_exp), (cones._dual_exp, project_dual_exp)):
        buf, src = np.full(7, np.nan), np.zeros(7)
        src[2:5] = v
        kernel(src, buf, 2, 5)
        assert np.isnan(buf[:2]).all() and np.isnan(buf[5:]).all()
        outs.append((buf[2:5].copy(), project(np.array(v))))
    return outs


def assert_exp_kernels_match_reference(v):
    v = np.array(v, dtype=np.float64)
    want = (project_exp_reference(v), project_dual_exp_reference(v))
    for (from_kernel, from_wrapper), w in zip(exp_kernel_outputs(v), want):
        np.testing.assert_array_equal(bits(from_kernel), bits(w))
        np.testing.assert_array_equal(bits(from_wrapper), bits(w))


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestExpKernelsAgainstReference:
    """The float-level exp kernels against the numpy projection they
    replaced (`oracles.project_exp_reference`), bit for bit, signed zeros
    included.  Near the largest double the reference's `np.ldexp` and its
    `v + P(-v)` overflow to +-inf, with a warning, where the kernels do so
    quietly."""

    @pytest.mark.parametrize("path", sorted(EXP_PATH_POINTS))
    def test_every_path(self, path):
        for v in EXP_PATH_POINTS[path]:
            assert exp_path(v) == path, v
            assert_exp_kernels_match_reference(v)

    def test_scaled_root_points_take_both_rescale_branches(self):
        for scale, path in ((2.0 ** -700, "rescaled up"), (2.0 ** 700, "rescaled down")):
            for v in EXP_PATH_POINTS["root"]:
                w = tuple(scale * c for c in v)
                assert exp_path(w) == path
                assert exp_path(tuple(math.ldexp(c, -math.frexp(max(map(abs, w)))[1])
                                      for c in w)) == "root"
                assert_exp_kernels_match_reference(w)

    @given(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3))
    @settings(max_examples=600, deadline=None)
    def test_any_finite_point(self, v):
        assert_exp_kernels_match_reference(v)

    @given(st.tuples(*[st.floats(-8.0, 8.0)] * 3),
           st.sampled_from([2.0 ** -1000, 2.0 ** -600, 2.0 ** -501, 1.0, 2.0 ** 501,
                            2.0 ** 600, 2.0 ** 1000]))
    @settings(max_examples=600, deadline=None)
    def test_moderate_points_at_every_scale(self, v, scale):
        assert_exp_kernels_match_reference(tuple(scale * c for c in v))

    @given(st.floats(-20.0, 20.0), st.floats(0.1, 10.0), st.sampled_from([-1, 0, 1]))
    @settings(max_examples=300, deadline=None)
    def test_points_on_and_next_to_the_boundary(self, a, b, ulps):
        c = b * math.exp(a / b)
        for _ in range(abs(ulps)):
            c = math.nextafter(c, math.copysign(math.inf, ulps))
        assert_exp_kernels_match_reference((a, b, c))
        assert_exp_kernels_match_reference((-a, -b, -c))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_non_finite_point_raises(self, bad, at):
        v = [1.0, 1.0, 1.0]
        v[at] = bad
        for project in (project_exp_reference, project_dual_exp_reference,
                        project_exp, project_dual_exp):
            with pytest.raises(NumericalError):
                project(np.array(v))
        for kernel in (cones._exp, cones._dual_exp):
            with pytest.raises(NumericalError):
                kernel(np.array(v), np.empty(3), 0, 3)


class TestRescaledSoc:
    def test_unit_scale_matches_soc(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            v = rng.standard_normal(5) * 2.0
            np.testing.assert_allclose(
                project_rescaled_soc(v, np.ones(5)), project_soc(v), atol=1e-12
            )

    def test_feasible_point_unchanged(self):
        d = np.array([2.0, 0.5, 1.0])
        v = np.array([3.0, 1.0, 1.0])
        assert 2.0 * v[0] >= np.linalg.norm(d[1:] * v[1:])
        np.testing.assert_array_equal(project_rescaled_soc(v, d), v)

    def test_projected_gradient_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            dim = int(rng.integers(2, 6))
            v = rng.standard_normal(dim) * 3.0
            d = rng.uniform(0.1, 10.0, dim)
            mine = project_rescaled_soc(v, d)
            ref = rescaled_soc_projection_fista(v, d)
            assert np.linalg.norm(mine - ref) <= 1e-6 * max(1.0, np.linalg.norm(v))

    def test_kkt_and_idempotence(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            dim = int(rng.integers(2, 6))
            v = rng.standard_normal(dim) * 3.0
            d = rng.uniform(0.1, 10.0, dim)
            p = project_rescaled_soc(v, d)
            w = d * p
            assert w[0] >= np.linalg.norm(w[1:]) - 1e-9  # feasibility
            r = p - v
            # the reversed residual lies in the dual set {s : diag(1/d) s in K_soc}
            s = r / d
            assert s[0] >= np.linalg.norm(s[1:]) - 1e-9
            assert abs(np.dot(p, r)) <= 1e-9 * max(1.0, float(np.dot(v, v)))
            assert np.linalg.norm(project_rescaled_soc(p, d) - p) <= 1e-10

    def test_moreau_via_dual_dispatch(self):
        rng = np.random.default_rng(24)
        d = rng.uniform(0.2, 5.0, 4)
        for _ in range(300):
            v = rng.standard_normal(4) * 2.0
            moreau = project_cone(v, Cone.SOC, d) - project_cone_dual(-v, Cone.SOC, d)
            assert np.linalg.norm(moreau - v) <= 1e-9

    def test_axis_zero_leading_component(self):
        d = np.array([1.0, 3.0])
        v = np.array([0.0, 2.0])
        p = project_rescaled_soc(v, d)
        w = d * p
        assert w[0] >= np.linalg.norm(w[1:]) - 1e-12
        ref = rescaled_soc_projection_fista(v, d)
        assert np.linalg.norm(p - ref) <= 1e-6

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_non_finite_point_raises(self, bad, at):
        v = np.array([1.0, 1.0, 1.0])
        v[at] = bad
        with pytest.raises(NumericalError):
            project_rescaled_soc(v, np.array([1.0, 2.0, 3.0]))

    def test_newton_that_does_not_converge_raises(self, monkeypatch):
        monkeypatch.setattr(cones, "_MAX_ROOT_ITERS", 1)
        with pytest.raises(NumericalError):
            project_rescaled_soc(np.array([0.5, 1.0, -2.0]), np.array([1.0, 2.0, 3.0]))

    def test_scale_validation(self):
        # project_rescaled_soc trusts d: the scales it is given are those of
        # a ConeSpec, or their inverses, and a spec rejects nonpositive or
        # misshapen scales when it is built
        with pytest.raises(ValueError):
            ConeSpec(Cone.SOC, 3, scale=np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ValueError):
            ConeSpec(Cone.SOC, 3, scale=np.ones(2))


def assert_rescaled_soc_contracts(v, d):
    """Membership, idempotence and Moreau (v = P_K(v) - P_K*(-v) with
    orthogonal parts) of `project_rescaled_soc`, relative to the block's
    magnitude.  The set of d is that of d / max(d), on which membership is
    judged, so that the tolerance does not grow with the scale.  A
    `NumericalError` fails too."""
    s = float(np.max(np.abs(v)))
    p = project_rescaled_soc(v, d)
    if s == 0.0:
        np.testing.assert_array_equal(p, v)
        return
    polar = -project_rescaled_soc(-v, 1.0 / d)
    w = d / np.max(d) * p / s
    assert w[0] >= np.linalg.norm(w[1:]) - 1e-9
    assert np.linalg.norm((project_rescaled_soc(p, d) - p) / s) <= 1e-9
    assert np.linalg.norm((p + polar - v) / s) <= 1e-9
    assert abs(np.dot(p / s, polar / s)) <= 1e-9


@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
@pytest.mark.parametrize("dims, scales", [
    pytest.param((2, 8), (1.0, 1.0), id="project_soc"),
    pytest.param((2, 8), (0.5, 2.0), id="project_rescaled_soc"),
    *(pytest.param((dim, dim + 1), (_SCALE_CLAMP_LO, _SCALE_CLAMP_HI),
                   id=f"project_rescaled_soc-dim{dim}") for dim in (50, 200, 1000)),
])
def test_soc_contracts_from_1e_minus_300_to_1e300(dims, scales):
    """`assert_rescaled_soc_contracts` in bands from 1e-300 to 1e300, where
    squares leave the float range below about 1e-154 and above 1e154 and the
    norms must not, with scales log-uniform in `scales` (equal scales take
    `project_soc`)."""
    rng = np.random.default_rng(25)
    lo, hi = np.log10(scales)
    for exponent in range(-300, 301, 20):
        for _ in range(20):
            dim = int(rng.integers(*dims))
            d = 10.0 ** rng.uniform(lo, hi, dim)
            assert_rescaled_soc_contracts(rng.standard_normal(dim) * 10.0 ** exponent, d)


_CLAMP_SCALES = st.one_of(
    st.sampled_from([_SCALE_CLAMP_LO, _SCALE_CLAMP_HI]),
    st.floats(math.log10(_SCALE_CLAMP_LO), math.log10(_SCALE_CLAMP_HI)).map(lambda u: 10.0 ** u))


@st.composite
def soc_blocks(draw):
    """A block of dim 2-7, scales log-uniform between the scaling clamps (so
    their ratios reach 1e16) and the clamps themselves, and a point of
    largest magnitude 1: any, or one on the boundary of the cone or of its
    polar."""
    dim = draw(st.integers(2, 7))
    d = np.array(draw(st.lists(_CLAMP_SCALES, min_size=dim, max_size=dim)))
    m = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
    a = d[1:] / d[0]
    where = draw(st.sampled_from(["any", "cone boundary", "polar boundary"]))
    if where == "cone boundary":
        m[0] = np.linalg.norm(a * m[1:])
    elif where == "polar boundary":
        m[0] = -np.linalg.norm(m[1:] / a)
    big = float(np.max(np.abs(m)))
    return (m if big == 0.0 else m / big), d


@st.composite
def rescaled_soc_points(draw):
    """A `soc_blocks` point scaled to a largest magnitude of 1e-300 to 1e300."""
    m, d = draw(soc_blocks())
    return m * 10.0 ** draw(st.integers(-300, 300)), d


# Cases the property below found, each failing one of its contracts in the
# kernel that solved for the multiplier mu of the boundary constraint, in
# absolute terms: its candidates for a bracket stopped 2^-53 from 1/2, its
# doublings at 2^80, and brentq's xtol was 1e-16.
_RESCALED_SOC_FAILURES = {
    "leading entry 1e-17 of the block: 1 - 2 mu is below 2^-53, no bracket":
        ((1e-17, 1.0), (1.0, 2.0)),
    "leading entry 1e-15 of the block: 1 - 2 mu 2% off, orthogonality off by 0.008":
        ((1e-15, 1.0), (1.0, 2.0)),
    "cone boundary point: -v within rounding of the polar set, no bracket":
        ((0.304138126514911, 0.1, 0.2), (2.0, 1.0, 3.0)),
    "scale ratio 1e16: mu about 5e30, beyond the 2^80 doublings":
        ((-1.0, 1e-15), (1e8, 1e-8)),
    "scale ratio 1e8: mu about 5e-17 under xtol 1e-16, membership off by 1.06e-9":
        ((1.0, 2e-8), (1e-8, 1.0)),
}


@pytest.mark.parametrize("v, d", [
    pytest.param(np.array(v), np.array(d), id=name)
    for name, (v, d) in _RESCALED_SOC_FAILURES.items()])
def test_rescaled_soc_contracts_where_mu_was_not_resolved(v, d):
    assert_rescaled_soc_contracts(v, d)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@given(rescaled_soc_points())
@settings(max_examples=300, deadline=None)
def test_rescaled_soc_contracts_at_the_scaling_clamps(case):
    v, d = case
    assert_rescaled_soc_contracts(v, d)


def test_rescaled_soc_matches_the_fista_oracle_at_dim_50():
    rng = np.random.default_rng(50)
    for _ in range(10):
        v = rng.standard_normal(50) * 3.0
        d = 10.0 ** rng.uniform(-0.5, 0.5, 50)
        ref = rescaled_soc_projection_fista(v, d)
        assert np.linalg.norm(project_rescaled_soc(v, d) - ref) <= 1e-6 * np.linalg.norm(v)


def _normal_or_zero(*arrays):
    return all(np.all((x == 0.0) | ((np.abs(x) >= np.finfo(float).tiny) & np.isfinite(x)))
               for x in arrays)


@st.composite
def homogeneity_cases(draw):
    m, d = draw(soc_blocks())
    return m, d, draw(st.integers(-900, 900))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("scaled", [False, True], ids=["project_soc", "project_rescaled_soc"])
@given(case=homogeneity_cases())
@settings(max_examples=300, deadline=None)
def test_soc_projections_are_positively_homogeneous_bit_for_bit(scaled, case):
    """P(2^e v) == 2^e P(v) exactly, wherever no entry of either side, or of
    the two inputs, is subnormal or overflows, so that each ldexp is exact."""
    v, d, e = case

    def project(w):
        return project_rescaled_soc(w, d) if scaled else project_soc(w)

    w = np.ldexp(v, e)
    lhs, rhs = project(w), np.ldexp(project(v), e)
    if _normal_or_zero(v, w, lhs, rhs, project(v)):
        np.testing.assert_array_equal(lhs, rhs)


class TestDispatch:
    def test_rsoc_projection_rejected(self):
        with pytest.raises(ValueError, match="reformulated"):
            project_cone(np.zeros(3), Cone.RSOC)

    def test_nonuniform_exp_scale_rejected(self):
        with pytest.raises(ValueError, match="block-uniform"):
            project_cone(np.zeros(3), Cone.EXP, np.array([1.0, 2.0, 1.0]))


def _mixed_problem():
    n1, soc_dim = 2, 3
    n = n1 + soc_dim
    m = 1 + 2 + 3  # zero + nonneg + soc rows
    return ConicProblem(
        c=np.zeros(n),
        G=SparseMatrix(np.eye(m, n)),
        h=np.zeros(m),
        l=np.array([0.0, -1.0]),
        u=np.array([1.0, 1.0]),
        num_box=n1,
        primal_cones=(ConeSpec(Cone.SOC, soc_dim),),
        dual_cones=(
            ConeSpec(Cone.ZERO, 1),
            ConeSpec(Cone.NONNEG, 2),
            ConeSpec(Cone.SOC, 3),
        ),
    )


class TestSetProjections:
    def test_primal_set_block_concatenation(self):
        rng = np.random.default_rng(25)
        p = _mixed_problem()
        for _ in range(200):
            x = rng.standard_normal(p.n) * 2.0
            out = project_primal_set(x, p)
            expected = np.concatenate([
                np.clip(x[:2], p.l, p.u),
                project_soc(x[2:]),
            ])
            np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_box_part_is_np_clip_bit_for_bit(self):
        # The box projection is maximum-then-minimum in place of np.clip;
        # the bits must agree on NaN, signed zeros, subnormals, huge values
        # and infinite bounds.
        import itertools

        values = [math.nan, -math.inf, math.inf, 0.0, -0.0, 1.0, -1.0, 2.0, -2.0,
                  5e-324, -5e-324, 1e308, -1e308]
        lows = [-math.inf, -1e308, -1.0, -0.0, 0.0, 5e-324, 1.0]
        highs = [math.inf, 1e308, 2.0, 1.0, 0.0, -0.0, 5e-324]
        triples = [(v, lo, hi) for v, lo, hi in itertools.product(values, lows, highs) if lo <= hi]
        x, lo, hi = (np.array(col) for col in zip(*triples))
        # long enough for numpy's vectorized loops, and a short odd tail
        for reps in (1, 7):
            xs, ls, us = (np.tile(a, reps) for a in (x, lo, hi))
            p = ConicProblem(c=np.zeros(xs.size), G=SparseMatrix(np.zeros((1, xs.size))),
                             h=np.zeros(1), l=ls, u=us, num_box=xs.size,
                             dual_cones=(ConeSpec(Cone.NONNEG, 1),))
            got = project_primal_set(xs, p)
            np.testing.assert_array_equal(got.view(np.uint64),
                                          np.clip(xs, ls, us).view(np.uint64))

    def test_dual_set_zero_block_leaves_y_free(self):
        # Equality-row multipliers are sign-free: the zero-tagged residual
        # block imposes no constraint on y.
        rng = np.random.default_rng(26)
        p = _mixed_problem()
        y = rng.standard_normal(p.m) * 2.0
        out = project_dual_set(y, p)
        assert out[0] == y[0]
        np.testing.assert_allclose(out[1:3], np.maximum(y[1:3], 0.0))
        np.testing.assert_allclose(out[3:], project_soc(y[3:]), atol=1e-14)

    def test_dual_residual_set_zero_block_truncates(self):
        rng = np.random.default_rng(27)
        p = _mixed_problem()
        r = rng.standard_normal(p.m) * 2.0
        out = project_dual_residual_set(r, p)
        assert out[0] == 0.0
        np.testing.assert_allclose(out[1:3], np.maximum(r[1:3], 0.0))
        np.testing.assert_allclose(out[3:], project_soc(r[3:]), atol=1e-14)

    def test_feasible_point_unchanged(self):
        p = _mixed_problem()
        x = np.array([0.5, 0.0, 1.0, 0.3, 0.4])
        np.testing.assert_array_equal(project_primal_set(x, p), x)
        y = np.array([-3.0, 1.0, 0.5, 1.0, 0.1, 0.2])
        np.testing.assert_array_equal(project_dual_set(y, p), y)

    def test_moreau_links_dual_set_and_residual_set(self):
        rng = np.random.default_rng(28)
        p = _mixed_problem()
        for _ in range(200):
            v = rng.standard_normal(p.m) * 2.0
            lhs = project_dual_residual_set(v, p)
            rhs = v + project_dual_set(-v, p)
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)
