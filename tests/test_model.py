"""Unit tests for the problem model, dual recovery, and rsoc reformulation."""

import math

import numpy as np
import pytest

from conic_pdhg.linalg import SparseMatrix
from conic_pdhg.model import (
    BoxFacts,
    Cone,
    ConeSpec,
    ConicProblem,
    apply_rsoc_inverse,
    dual_objective,
    recover_dual,
    rsoc_to_soc,
)


def box_lp(c, G, h, l, u, dual_cones):
    c = np.asarray(c, dtype=float)
    return ConicProblem(
        c=c,
        G=SparseMatrix(np.asarray(G, dtype=float)),
        h=np.asarray(h, dtype=float),
        l=np.asarray(l, dtype=float),
        u=np.asarray(u, dtype=float),
        num_box=len(c),
        dual_cones=dual_cones,
    )


class TestValidation:
    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            box_lp([1.0], np.zeros((2, 1)), [0.0], [0.0], [1.0], (ConeSpec(Cone.NONNEG, 2),))
        with pytest.raises(ValueError, match="l <= u"):
            box_lp([1.0], np.zeros((1, 1)), [0.0], [2.0], [1.0], (ConeSpec(Cone.NONNEG, 1),))

    @pytest.mark.parametrize("l, u", [(math.inf, 5.0), (0.0, -math.inf), (math.inf, math.inf),
                                      (-math.inf, -math.inf), (math.inf, -math.inf)])
    def test_empty_box_rejected(self, l, u):
        # +inf lower or -inf upper bounds leave [l_i, u_i] empty even though
        # the finite-pair comparison has nothing to compare
        with pytest.raises(ValueError, match="empty box"):
            box_lp([1.0], np.zeros((0, 1)), [], [l], [u], ())

    def test_cone_sum_checks(self):
        with pytest.raises(ValueError, match="dual cone dims"):
            box_lp([1.0], np.zeros((2, 1)), [0.0, 0.0], [0.0], [1.0], (ConeSpec(Cone.NONNEG, 1),))

    def test_dual_cone_order(self):
        with pytest.raises(ValueError, match="order"):
            box_lp(
                [1.0], np.zeros((2, 1)), [0.0, 0.0], [0.0], [1.0],
                (ConeSpec(Cone.NONNEG, 1), ConeSpec(Cone.ZERO, 1)),
            )

    def test_cone_spec_constraints(self):
        with pytest.raises(ValueError):
            ConeSpec(Cone.EXP, 4)
        with pytest.raises(ValueError):
            ConeSpec(Cone.SOC, 1)
        with pytest.raises(ValueError):
            ConeSpec(Cone.RSOC, 2)
        with pytest.raises(ValueError):
            ConeSpec(Cone.SOC, 2, scale=np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            ConeSpec(Cone.EXP, 3, scale=np.array([1.0, 2.0, 1.0]))
        with pytest.raises(ValueError):
            ConeSpec(Cone.FREE, 2)


class TestLambdaSet:
    def test_tag_table(self):
        inf = math.inf
        l = np.array([-inf, -inf, 0.0, 0.0])
        u = np.array([inf, 1.0, inf, 1.0])
        lam = np.array([5.0, 5.0, -5.0, -5.0])
        box = BoxFacts(l, u, np.zeros(4), np.zeros(0))
        proj = np.clip(lam, box.lam_lo, box.lam_hi)
        # (-inf, inf) -> {0}; (-inf, fin) -> R-; (fin, inf) -> R+; (fin, fin) -> R
        np.testing.assert_allclose(proj, [0.0, 0.0, 0.0, -5.0])
        lam2 = np.array([-5.0, -5.0, 5.0, 5.0])
        np.testing.assert_allclose(np.clip(lam2, box.lam_lo, box.lam_hi), [0.0, -5.0, 5.0, 5.0])


class TestRecoverDual:
    def test_zero_y(self):
        p = box_lp([3.0, 1.0], np.eye(2), [0.0, 0.0], [0.0, 0.0], [1.0, 1.0],
                   (ConeSpec(Cone.NONNEG, 2),))
        lam = recover_dual(p, np.zeros(2))
        np.testing.assert_array_equal(lam, p.c)

    def test_identity_example(self):
        p = box_lp([3.0, 1.0], np.eye(2), [0.0, 0.0], [0.0, 0.0], [1.0, 1.0],
                   (ConeSpec(Cone.NONNEG, 2),))
        lam = recover_dual(p, np.array([1.0, 1.0]))
        np.testing.assert_allclose(lam, [2.0, 0.0])

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(7)
        dense = rng.standard_normal((5, 4))
        p = box_lp(rng.standard_normal(4), dense, rng.standard_normal(5),
                   -np.ones(4), np.ones(4), (ConeSpec(Cone.NONNEG, 5),))
        y = rng.standard_normal(5)
        lam = recover_dual(p, y)
        assert np.max(np.abs(lam - (p.c - dense.T @ y))) <= 1e-12

    def test_dimension_error(self):
        p = box_lp([1.0], np.zeros((1, 1)), [0.0], [0.0], [1.0], (ConeSpec(Cone.NONNEG, 1),))
        with pytest.raises(ValueError):
            recover_dual(p, np.zeros(2))


class TestDualObjective:
    def test_zero(self):
        p = box_lp([0.0], np.zeros((1, 1)), [0.0], [0.0], [1.0], (ConeSpec(Cone.NONNEG, 1),))
        y = np.zeros(1)
        lam = recover_dual(p, y)
        assert dual_objective(p, y, lam) == 0.0

    def test_hand_arithmetic(self):
        # h=(1,2), y=(1,1), l=(0), u=(+inf), lam1=(0.5) -> 3 + 0*0.5 = 3
        p = ConicProblem(
            c=np.array([0.5]),
            G=SparseMatrix(np.zeros((2, 1))),
            h=np.array([1.0, 2.0]),
            l=np.array([0.0]),
            u=np.array([math.inf]),
            num_box=1,
            dual_cones=(ConeSpec(Cone.NONNEG, 2),),
        )
        y = np.array([1.0, 1.0])
        lam = recover_dual(p, y)
        np.testing.assert_allclose(lam, [0.5])
        assert dual_objective(p, y, lam) == pytest.approx(3.0)

    def test_one_dim_lp_duality(self):
        # min -x s.t. x <= 1, x >= 0 (as the box), no rows: optimum -1.
        # Dual optimum: lambda = c = -1, contribution -u*lam^- = -1.
        p = ConicProblem(
            c=np.array([-1.0]),
            G=SparseMatrix(np.zeros((0, 1))),
            h=np.zeros(0),
            l=np.array([0.0]),
            u=np.array([1.0]),
            num_box=1,
        )
        y = np.zeros(0)
        lam = recover_dual(p, y)
        assert dual_objective(p, y, lam) == pytest.approx(-1.0)

    def test_infinite_bound_skip(self):
        # A nonzero multiplier against an infinite bound contributes 0.
        p = ConicProblem(
            c=np.array([2.0]),
            G=SparseMatrix(np.zeros((0, 1))),
            h=np.zeros(0),
            l=np.array([-math.inf]),
            u=np.array([1.0]),
            num_box=1,
        )
        y = np.zeros(0)
        lam = recover_dual(p, y)
        assert math.isfinite(dual_objective(p, y, lam))
        assert dual_objective(p, y, lam) == 0.0


def rsoc_member(p, q, w):
    return p >= 0 and q >= 0 and 2.0 * p * q >= float(np.dot(w, w))


def soc_member(t, s_and_w):
    return t >= np.linalg.norm(s_and_w)


class TestRsocToSoc:
    def _problem_with_dual_rsoc(self, rng, dim=4):
        n = dim
        g = rng.standard_normal((dim, n))
        return ConicProblem(
            c=rng.standard_normal(n),
            G=SparseMatrix(g),
            h=rng.standard_normal(dim),
            l=-np.ones(n),
            u=np.ones(n),
            num_box=n,
            dual_cones=(ConeSpec(Cone.RSOC, dim),),
        )

    def test_no_rotated_blocks_identity(self):
        p = box_lp([1.0], np.ones((1, 1)), [0.0], [0.0], [1.0], (ConeSpec(Cone.NONNEG, 1),))
        assert rsoc_to_soc(p) is p

    def test_boundary_point(self):
        t, s = (1.0 + 0.0) / math.sqrt(2.0), (1.0 - 0.0) / math.sqrt(2.0)
        assert rsoc_member(1.0, 0.0, np.zeros(1))
        assert soc_member(t, np.array([s, 0.0]))
        assert t == pytest.approx(1 / math.sqrt(2))
        assert s == pytest.approx(1 / math.sqrt(2))

    def test_membership_equivalence_on_random_points(self):
        rng = np.random.default_rng(8)
        p = self._problem_with_dual_rsoc(rng)
        q = rsoc_to_soc(p)
        assert all(s.kind is Cone.SOC for s in q.dual_cones)
        for _ in range(1000):
            x = rng.standard_normal(p.n) * 2.0
            r_orig = p.G.toarray() @ x - p.h
            r_new = q.G.toarray() @ x - q.h
            lhs = rsoc_member(r_orig[0], r_orig[1], r_orig[2:])
            rhs = soc_member(r_new[0], r_new[1:])
            assert lhs == rhs

    def test_rows_isometry(self):
        rng = np.random.default_rng(9)
        p = self._problem_with_dual_rsoc(rng)
        q = rsoc_to_soc(p)
        assert np.linalg.norm(q.h) == pytest.approx(np.linalg.norm(p.h), abs=1e-12)
        for _ in range(50):
            x = rng.standard_normal(p.n)
            assert np.linalg.norm(q.G.matvec(x)) == pytest.approx(
                np.linalg.norm(p.G.matvec(x)), abs=1e-12
            )

    def test_primal_blocks_and_inverse(self):
        rng = np.random.default_rng(10)
        n1, dim = 2, 3
        n = n1 + dim
        p = ConicProblem(
            c=rng.standard_normal(n),
            G=SparseMatrix(rng.standard_normal((2, n))),
            h=rng.standard_normal(2),
            l=-np.ones(n1),
            u=np.ones(n1),
            num_box=n1,
            primal_cones=(ConeSpec(Cone.RSOC, dim),),
            dual_cones=(ConeSpec(Cone.NONNEG, 2),),
        )
        q = rsoc_to_soc(p)
        assert q.primal_cones[0].kind is Cone.SOC
        # objective invariance under the change of variables
        for _ in range(100):
            x = rng.standard_normal(n)
            x_tilde = x.copy()
            x_tilde[n1], x_tilde[n1 + 1] = (
                (x[n1] + x[n1 + 1]) / math.sqrt(2),
                (x[n1] - x[n1 + 1]) / math.sqrt(2),
            )
            assert float(np.dot(q.c, x_tilde)) == pytest.approx(float(np.dot(p.c, x)), abs=1e-10)
            np.testing.assert_allclose(q.G.matvec(x_tilde), p.G.matvec(x), atol=1e-10)
        # the inverse map undoes the variable transform
        x_back, _, _ = apply_rsoc_inverse(p, x_tilde, np.zeros(2), np.zeros(2))
        np.testing.assert_allclose(x_back, x, atol=1e-12)

    def test_promoted_blocks_join_the_soc_group(self):
        # Rotated rows follow exp rows in the input; after promotion they
        # must precede them, and the inverse map restores the input order.
        rng = np.random.default_rng(11)
        dual = (ConeSpec(Cone.NONNEG, 2), ConeSpec(Cone.SOC, 3), ConeSpec(Cone.EXP, 3),
                ConeSpec(Cone.DUAL_EXP, 3), ConeSpec(Cone.RSOC, 4), ConeSpec(Cone.RSOC, 3))
        m, n = sum(s.dim for s in dual), 5
        p = ConicProblem(
            c=rng.standard_normal(n),
            G=SparseMatrix(rng.standard_normal((m, n))),
            h=rng.standard_normal(m),
            l=-np.ones(n),
            u=np.ones(n),
            num_box=n,
            dual_cones=dual,
        )
        q = rsoc_to_soc(p)
        assert [(s.kind, s.dim) for s in q.dual_cones] == [
            (Cone.NONNEG, 2), (Cone.SOC, 3), (Cone.SOC, 4), (Cone.SOC, 3),
            (Cone.EXP, 3), (Cone.DUAL_EXP, 3),
        ]
        for _ in range(20):
            x = rng.standard_normal(n)
            r_orig = p.G.matvec(x) - p.h
            r_new = q.G.matvec(x) - q.h
            _, y_back, slack_back = apply_rsoc_inverse(p, x, r_new, r_new)
            np.testing.assert_allclose(slack_back, r_orig, atol=1e-12)
            np.testing.assert_allclose(y_back, r_orig, atol=1e-12)

    def test_rotated_dim_validation(self):
        with pytest.raises(ValueError):
            ConeSpec(Cone.RSOC, 2)
