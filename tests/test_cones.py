"""Unit tests for cone projections: closed forms, KKT checks, and oracles."""

import math

import numpy as np
import pytest

from oracles import (
    dual_exp_membership_by_sampling,
    exp_cone_distance,
    exp_membership_direct,
    near_dual_exp_cone,
    near_exp_cone,
    rescaled_soc_projection_fista,
)

from conic_pdhg.cones import (
    dual_cone_kind,
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

    def test_scale_validation(self):
        # project_rescaled_soc trusts d: the scales it is given are those of
        # a ConeSpec, or their inverses, and a spec rejects nonpositive or
        # misshapen scales when it is built
        with pytest.raises(ValueError):
            ConeSpec(Cone.SOC, 3, scale=np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ValueError):
            ConeSpec(Cone.SOC, 3, scale=np.ones(2))


@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
@pytest.mark.parametrize("scaled", [False, True], ids=["project_soc", "project_rescaled_soc"])
def test_soc_contracts_from_1e_minus_300_to_1e300(scaled):
    """Membership, idempotence and Moreau (v = P_K(v) - P_K*(-v) with
    orthogonal parts), relative to the block's magnitude, in bands from
    1e-300 to 1e300: squares leave the float range below about 1e-154 and
    above 1e154, the norms must not."""

    def project(w, d):
        return project_rescaled_soc(w, d) if scaled else project_soc(w)

    rng = np.random.default_rng(25)
    for exponent in range(-300, 301, 20):
        for _ in range(20):
            dim = int(rng.integers(2, 8))
            d = rng.uniform(0.5, 2.0, dim) if scaled else np.ones(dim)
            v = rng.standard_normal(dim) * 10.0 ** exponent
            s = float(np.max(np.abs(v)))
            p = project(v, d)
            polar = -project(-v, 1.0 / d)
            w = d * p / s
            assert w[0] >= np.linalg.norm(w[1:]) - 1e-9, (exponent, v)
            assert np.linalg.norm((project(p, d) - p) / s) <= 1e-9, (exponent, v)
            assert np.linalg.norm((p + polar - v) / s) <= 1e-9, (exponent, v)
            assert abs(np.dot(p / s, polar / s)) <= 1e-9, (exponent, v)


class TestDispatch:
    def test_dual_kind_mapping(self):
        assert dual_cone_kind(Cone.ZERO) is Cone.FREE
        assert dual_cone_kind(Cone.FREE) is Cone.ZERO
        assert dual_cone_kind(Cone.NONNEG) is Cone.NONNEG
        assert dual_cone_kind(Cone.SOC) is Cone.SOC
        assert dual_cone_kind(Cone.EXP) is Cone.DUAL_EXP
        assert dual_cone_kind(Cone.DUAL_EXP) is Cone.EXP

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
