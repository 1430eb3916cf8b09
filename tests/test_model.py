"""Unit tests for the problem model, dual recovery, and rsoc reformulation."""

import math

import numpy as np
import pytest

from conic_pdhg.cones import cone_layout
from conic_pdhg.engine import SolverOptions, solve
from conic_pdhg.linalg import SparseMatrix
from conic_pdhg.model import (
    BoxFacts,
    Cone,
    ConeSpec,
    ConicProblem,
    apply_rsoc_inverse,
    block_slices,
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

    @pytest.mark.parametrize("kind, dim", [(Cone.ZERO, 1), (Cone.NONNEG, 4), (Cone.SOC, 3),
                                           (Cone.EXP, 3), (Cone.DUAL_EXP, 3), (Cone.RSOC, 5)])
    def test_spec_without_a_scale_is_the_all_ones_spec(self, kind, dim):
        # a spec built without a scale skips the checks of its scale
        bare, ones = ConeSpec(kind, dim), ConeSpec(kind, dim, scale=np.ones(dim))
        assert (bare.kind, bare.dim) == (ones.kind, ones.dim)
        assert bare.scale.dtype == ones.scale.dtype == np.float64
        np.testing.assert_array_equal(bare.scale, ones.scale)
        if dim == 1:
            assert bare == ones
        n = 2
        problems = [ConicProblem(c=np.ones(n), G=SparseMatrix(np.ones((dim, n))), h=np.zeros(dim),
                                 l=-np.ones(n), u=np.ones(n), num_box=n, dual_cones=(spec,))
                    for spec in (bare, ones)]
        layouts = [cone_layout(rsoc_to_soc(p)) for p in problems]
        for plan in ("primal", "primal_dual", "dual", "dual_residual"):
            got, want = (getattr(layout, plan) for layout in layouts)
            assert got == want


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
        # the inverse map undoes the variable transform, and maps the
        # multiplier c - G^T y of the reformulation to the original's
        y = rng.standard_normal(2)
        lam_w = q.c - q.G.rmatvec(y)
        x_back, _, _, lam_back = apply_rsoc_inverse(p, x_tilde, y, np.zeros(2), lam_w)
        np.testing.assert_allclose(x_back, x, atol=1e-12)
        lam = p.c - p.G.rmatvec(y)
        assert np.max(np.abs(lam_back - lam)) <= 1e-12 * np.max(np.abs(lam))

    def test_inverse_undoes_the_forward_rotation(self):
        # rsoc_to_soc rotates c by the column rotation and h by the row
        # rotation; apply_rsoc_inverse rotates them back within a few ulps
        # of the largest entry, with rotated rows, columns or both
        rng = np.random.default_rng(13)
        for trial in range(60):
            dual = (ConeSpec(Cone.NONNEG, 2), ConeSpec(Cone.RSOC, 3), ConeSpec(Cone.SOC, 3),
                    ConeSpec(Cone.RSOC, 4))[: 4 if trial % 3 else 1]
            primal = (ConeSpec(Cone.RSOC, 3), ConeSpec(Cone.NONNEG, 1),
                      ConeSpec(Cone.RSOC, 4))[: 3 if trial % 3 != 1 else 0]
            m, nb = sum(s.dim for s in dual), 2
            n = nb + sum(s.dim for s in primal)
            c = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n)
            h = rng.standard_normal(m) * 10.0 ** rng.uniform(-300, 300, m)
            c[::4], h[::4] = -0.0, 0.0
            p = ConicProblem(c=c, G=SparseMatrix(rng.standard_normal((m, n))), h=h,
                             l=-np.ones(nb), u=np.ones(nb), num_box=nb,
                             primal_cones=primal, dual_cones=dual)
            q = rsoc_to_soc(p)
            x, y, slack, lam = apply_rsoc_inverse(p, q.c, q.h, q.h, q.c)
            for back, want in ((x, c), (lam, c), (y, h), (slack, h)):
                assert np.max(np.abs(back - want)) <= 4 * np.spacing(np.max(np.abs(want)))

    def test_promoted_blocks_stay_in_place(self):
        # Rotated rows follow exp rows in the input; each promoted block
        # keeps its rows, and the inverse map rotates them back in place.
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
            (Cone.NONNEG, 2), (Cone.SOC, 3), (Cone.EXP, 3), (Cone.DUAL_EXP, 3),
            (Cone.SOC, 4), (Cone.SOC, 3),
        ]
        # rows outside the rotated pairs are the input's, bit for bit
        fixed = np.r_[0:11, 13:15, 17]
        np.testing.assert_array_equal(q.h[fixed], p.h[fixed])
        np.testing.assert_array_equal(q.G.toarray()[fixed], p.G.toarray()[fixed])
        for _ in range(20):
            x = rng.standard_normal(n)
            r_orig = p.G.matvec(x) - p.h
            r_new = q.G.matvec(x) - q.h
            _, y_back, slack_back, lam_back = apply_rsoc_inverse(
                p, x, r_new, r_new, q.c - q.G.rmatvec(r_new))
            np.testing.assert_allclose(slack_back, r_orig, atol=1e-12)
            np.testing.assert_allclose(y_back, r_orig, atol=1e-12)
            # no primal block rotates, so c - G^T y needs no map back
            np.testing.assert_allclose(lam_back, p.c - p.G.rmatvec(y_back), atol=1e-12)

    def test_rotation_has_the_bits_of_scipys_products(self):
        # r @ g, r @ h, g @ r, r @ c and g[rows] on scipy matrices, as the
        # rotation was computed with scipy.sparse: each entry sums from 0.0,
        # zero results (cancellations, explicit zeros) are dropped, and -0.0
        # in h and c becomes 0.0
        import scipy.sparse as sp

        def rotation(size, pairs):
            r = sp.lil_matrix(sp.identity(size))
            for i, j in pairs:
                r[i, i] = r[i, j] = r[j, i] = 1.0 / math.sqrt(2.0)
                r[j, j] = -1.0 / math.sqrt(2.0)
            return r.tocsr()

        def reference(p):
            g = sp.csc_matrix((p.G.data, p.G.indices, p.G.indptr), shape=p.G.shape).tocsr()
            h, c = p.h, p.c
            rows, cols = ([(sl.start, sl.start + 1) for spec, sl in block_slices(specs, offset)
                           if spec.kind is Cone.RSOC]
                          for specs, offset in ((p.dual_cones, 0), (p.primal_cones, p.num_box)))
            if rows:
                r = rotation(p.m, rows)
                g, h = r @ g, r @ h
            if cols:
                r = rotation(p.n, cols)
                g, c = g @ r, r @ c
            g = sp.csr_matrix(g)
            if not g.has_canonical_format:
                g = g.copy()
                g.sum_duplicates()
            return g.tocsc(), h, c

        def bits(a):
            return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)

        def check(p):
            q = rsoc_to_soc(p)
            g, h, c = reference(p)
            assert q.G.indptr.dtype == g.indptr.dtype and q.G.indices.dtype == g.indices.dtype
            np.testing.assert_array_equal(q.G.indptr, g.indptr)
            np.testing.assert_array_equal(q.G.indices, g.indices)
            for got, want in ((q.G.data, g.data), (q.h, h), (q.c, c)):
                np.testing.assert_array_equal(bits(got), bits(want))

        rng = np.random.default_rng(12)
        for trial in range(60):
            dual = [ConeSpec(Cone.NONNEG, 2)] if trial % 2 else []
            dual += [ConeSpec(Cone.SOC, 3), ConeSpec(Cone.EXP, 3)][:trial % 3]
            dual += [ConeSpec(Cone.RSOC, int(d)) for d in rng.integers(3, 5, trial % 3 + 1)]
            primal = tuple(ConeSpec(Cone.RSOC, 3) for _ in range(trial % 4 // 2))
            m, nb = sum(s.dim for s in dual), 2
            n = nb + 3 * len(primal)
            dense = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-300, 300, (m, n))
            dense[1] = dense[0]  # rotated rows that cancel
            rows, cols = np.nonzero(rng.random((m, n)) < 0.6)
            vals = dense[rows, cols]
            vals[rng.random(vals.size) < 0.1] = 0.0  # explicit zeros
            h, c = rng.standard_normal(m), rng.standard_normal(n)
            h[::3], c[::3] = -0.0, -0.0
            p = ConicProblem(c=c, G=SparseMatrix.from_coo(rows, cols, vals, (m, n)), h=h,
                             l=-np.ones(nb), u=np.ones(nb), num_box=nb,
                             primal_cones=primal, dual_cones=tuple(dual))
            check(p)

        # primal blocks alone (column rotations only, at even trials) or with
        # dual ones, rotated columns that cancel, and repeated triplets, some
        # of which sum to explicit zeros
        for trial in range(60):
            dual = [ConeSpec(Cone.NONNEG, 2)] + [ConeSpec(Cone.SOC, 3), ConeSpec(Cone.EXP, 3)][
                :trial % 3]
            dual += [ConeSpec(Cone.RSOC, 3)] * (trial % 2)
            primal = tuple(ConeSpec(Cone.RSOC, int(d)) for d in rng.integers(3, 5, trial % 2 + 1))
            m, nb = sum(s.dim for s in dual), 2
            n = nb + sum(s.dim for s in primal)
            dense = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-300, 300, (m, n))
            mask = rng.random((m, n)) < 0.6
            dense[:, nb + 1], mask[:, nb + 1] = dense[:, nb], mask[:, nb]  # columns that cancel
            rows, cols = np.nonzero(mask)
            vals = dense[rows, cols]
            again = rng.random(vals.size) < 0.3
            rows = np.concatenate((rows, rows[again], rows[again]))
            cols = np.concatenate((cols, cols[again], cols[again]))
            twice = rng.standard_normal(again.sum()) * 10.0 ** rng.uniform(-300, 300, again.sum())
            vals = np.concatenate((vals, twice, np.where(rng.random(twice.size) < 0.5, -twice,
                                                         rng.standard_normal(twice.size))))
            shuffle = rng.permutation(vals.size)
            h, c = rng.standard_normal(m), rng.standard_normal(n)
            h[::3], c[::3] = -0.0, -0.0
            p = ConicProblem(c=c, G=SparseMatrix.from_coo(rows[shuffle], cols[shuffle],
                                                          vals[shuffle], (m, n)),
                             h=h, l=-np.ones(nb), u=np.ones(nb), num_box=nb,
                             primal_cones=primal, dual_cones=tuple(dual))
            check(p)

    def test_rotated_dim_validation(self):
        with pytest.raises(ValueError):
            ConeSpec(Cone.RSOC, 2)

    @staticmethod
    def _scaled_rsoc_problem(scale):
        # minimize x1 s.t. diag(1/scale) (x1, 1, 1) in the rotated cone
        return ConicProblem(
            c=np.array([1.0]), G=SparseMatrix(np.array([[1.0], [0.0], [0.0]])),
            h=np.array([0.0, -1.0, -1.0]), l=np.array([-5.0]), u=np.array([5.0]), num_box=1,
            dual_cones=(ConeSpec(Cone.RSOC, 3, scale=np.array(scale, dtype=float)),),
        )

    @pytest.mark.parametrize("scale, optimum", [
        ((1, 1, 1), 0.5),  # 2 x1 >= 1
        ((2, 2, 1), 2.0),  # 2 (x1 / 2) (1 / 2) >= 1
        ((1, 1, 3), 1.0 / 18.0),  # 2 x1 >= 1 / 9
    ])
    @pytest.mark.parametrize("precondition", [True, False])
    def test_scaled_rotated_block_solves_its_own_problem(self, scale, optimum, precondition):
        r = solve(self._scaled_rsoc_problem(scale), SolverOptions(use_preconditioner=precondition))
        assert r.exit_status == ":optimal"
        assert r.x[0] == pytest.approx(optimum, rel=1e-4)

    @pytest.mark.parametrize("scale", [(1, 2, 1), (2, 1, 1)])
    def test_unequal_first_two_scale_entries_rejected(self, scale):
        # rsoc_to_soc rotates those two coordinates, which a diagonal scale
        # with unequal entries there does not commute with: the block would
        # be solved as another problem (x1 >= 1 is what both scales mean)
        with pytest.raises(ValueError, match="equal first two scale entries"):
            self._scaled_rsoc_problem(scale)


class TestBlockOrder:
    """No projection, scale or exit test depends on the order of the dual
    blocks.  A problem with its blocks shuffled, and the rows of G and h
    moved along with them, solves to the point of the problem in file
    order, and each solve returns y, slack and lam in its caller's rows."""

    # (slack, dual) on the boundaries of each cone and of its dual, with
    # <slack, dual> = 0, so that the planted point is optimal with every
    # block active
    PAIRS = {Cone.SOC: ([1.0, 0.6, 0.8], [1.0, -0.6, -0.8]),
             Cone.RSOC: ([1.0, 0.5, 0.6, 0.8], [0.5, 1.0, -0.6, -0.8]),
             Cone.EXP: ([0.0, 1.0, 1.0], [-1.0, -1.0, 1.0]),
             Cone.DUAL_EXP: ([-1.0, -1.0, 1.0], [0.0, 1.0, 1.0])}
    FILE_ORDER = (ConeSpec(Cone.ZERO, 2), ConeSpec(Cone.NONNEG, 2), ConeSpec(Cone.NONNEG, 3),
                  ConeSpec(Cone.SOC, 3), ConeSpec(Cone.EXP, 3), ConeSpec(Cone.DUAL_EXP, 3),
                  ConeSpec(Cone.RSOC, 4))
    SHUFFLE = (6, 4, 2, 3, 0, 5, 1)  # rsoc, exp, nonneg, soc, zero, dual-exp, nonneg

    @classmethod
    def problems(cls):
        """The planted problem in file order and shuffled, and its optimum:
        x inside [-1, 1]^5 has slack s, and c = G^T y with y complementary
        to s."""
        rng = np.random.default_rng(13)
        slack, dual = [], []
        for spec in cls.FILE_ORDER:
            if spec.kind is Cone.ZERO:
                slack.append(np.zeros(spec.dim))
                dual.append(rng.standard_normal(spec.dim))
            elif spec.kind is Cone.NONNEG:
                value, active = rng.uniform(0.1, 1.0, spec.dim), np.arange(spec.dim) % 2 == 0
                slack.append(np.where(active, 0.0, value))
                dual.append(np.where(active, value, 0.0))
            else:
                slack.append(np.array(cls.PAIRS[spec.kind][0]))
                dual.append(np.array(cls.PAIRS[spec.kind][1]))
        m, n = sum(s.dim for s in cls.FILE_ORDER), 5
        g = rng.standard_normal((m, n))
        g[rng.random((m, n)) < 0.3] = 0.0
        x = rng.uniform(-0.5, 0.5, n)
        h = g @ x - np.concatenate(slack)
        c = g.T @ np.concatenate(dual)
        return [ConicProblem(c=c, G=SparseMatrix(g[order]), h=h[order], l=-np.ones(n),
                             u=np.ones(n), num_box=n, dual_cones=cones)
                for order, cones in ((slice(None), cls.FILE_ORDER),
                                     (cls.shuffled_rows(),
                                      tuple(cls.FILE_ORDER[i] for i in cls.SHUFFLE)))], c @ x

    @classmethod
    def shuffled_rows(cls):
        """The file-order row of each shuffled row."""
        starts = np.cumsum([0] + [s.dim for s in cls.FILE_ORDER])
        return np.concatenate([np.arange(starts[i], starts[i + 1]) for i in cls.SHUFFLE])

    def test_shuffled_blocks_solve_to_the_same_point(self):
        problems, optimum = self.problems()
        in_order, shuffled = (solve(p) for p in problems)
        assert in_order.exit_status == shuffled.exit_status == ":optimal"
        for r in (in_order, shuffled):
            assert r.p_obj == pytest.approx(optimum, rel=1e-4, abs=1e-4)
            assert r.d_obj == pytest.approx(optimum, rel=1e-4, abs=1e-4)
        # only the order of the floating-point sums differs between the two
        rows = self.shuffled_rows()
        np.testing.assert_allclose(shuffled.x, in_order.x, atol=1e-3)
        np.testing.assert_allclose(shuffled.y, in_order.y[rows], atol=1e-3)
        np.testing.assert_allclose(shuffled.slack, in_order.slack[rows], atol=1e-3)
        np.testing.assert_allclose(shuffled.lam, in_order.lam, atol=1e-3)

    @pytest.mark.parametrize("which", ["file order", "shuffled"])
    def test_results_come_back_in_the_callers_rows(self, which):
        p = self.problems()[0][which == "shuffled"]
        r = solve(p)
        g = p.G.toarray()
        np.testing.assert_allclose(r.slack, g @ r.x - p.h, atol=1e-9)
        np.testing.assert_allclose(r.lam, p.c - g.T @ r.y, atol=1e-9)
