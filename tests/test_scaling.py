"""Unit tests for diagonal preconditioning."""

import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import build_scaling_matrix_algebra
from test_lean_iteration import random_lp
from test_termination_scan import planted_conic, primal_infeasible_lp
from traces import FAILING_GAP, traced_solve

from conic_pdhg import scaling
from conic_pdhg.engine import SolverOptions, solve
from conic_pdhg.linalg import SparseMatrix
from conic_pdhg.model import Cone, ConeSpec, ConicProblem
from conic_pdhg.scaling import (
    ScalingPair,
    build_scaling,
    rescale_problem,
    unscale_products,
    unscale_solution,
)


def make_problem(G, num_box=None, primal_cones=(), dual_cones=None, l=None, u=None, rng=None):
    G = np.asarray(G, dtype=float)
    m, n = G.shape
    if num_box is None:
        num_box = n
    if dual_cones is None:
        dual_cones = (ConeSpec(Cone.NONNEG, m),) if m else ()
    rng = rng or np.random.default_rng(0)
    if l is None:
        l = -np.ones(num_box)
    if u is None:
        u = np.ones(num_box)
    return ConicProblem(
        c=rng.standard_normal(n),
        G=SparseMatrix(G),
        h=rng.standard_normal(m),
        l=np.asarray(l, dtype=float),
        u=np.asarray(u, dtype=float),
        num_box=num_box,
        primal_cones=primal_cones,
        dual_cones=dual_cones,
    )


def test_only_linalg_calls_the_sparse_kernels(monkeypatch):
    # the set-up modules name no kernel and no transposition of their own,
    # so counting linalg's kernels counts the ones build_scaling runs
    import inspect

    from test_linalg import CountingKernels

    from conic_pdhg import cones, engine, fileio, linalg, model

    for module in (scaling, model, fileio, engine, cones):
        source = inspect.getsource(module)
        for name in ("_sparsetools", "_compressed_transpose"):
            assert name not in source, (module.__name__, name)
    rng = np.random.default_rng(23)
    p = make_problem(rng.standard_normal((6, 9)) * (rng.random((6, 9)) < 0.5))
    kernels = CountingKernels(linalg._sparsetools)
    monkeypatch.setattr(linalg, "_sparsetools", kernels)
    build_scaling(p)
    assert kernels.calls == {"csr_tocsc": 1}


class TestBuildScaling:
    def test_identity_matrix_gives_unit_scales(self):
        p = make_problem(np.eye(3))
        s = build_scaling(p)
        np.testing.assert_allclose(s.d1, np.ones(3))
        np.testing.assert_allclose(s.d2, np.ones(3))

    def test_diagonal_hand_example(self):
        # the first round on diag(100, 0.01): row and column max-abs are the
        # same, so both scales are (1/10, 10) and the rescaled matrix is I,
        # which the later rounds and the Pock-Chambolle pass leave alone
        p = make_problem(np.diag([100.0, 0.01]))
        s = build_scaling(p)
        np.testing.assert_allclose(s.d1, [0.1, 10.0])
        np.testing.assert_allclose(s.d2, [0.1, 10.0])
        np.testing.assert_allclose(p.G.scaled(s.d1, s.d2).toarray(), np.eye(2), atol=1e-14)

    def test_single_ruiz_round_hand_example(self, monkeypatch):
        # one round on [[4, 1], [1, 1/4]]: row and column max-abs are both
        # (4, 1), so both scales are (1/2, 1), which a second round would
        # change again
        monkeypatch.setattr(scaling, "_RUIZ_ROUNDS", 1)
        rows, cols, vals = SparseMatrix(np.array([[4.0, 1.0], [1.0, 0.25]])).triplets()
        d1, d2, a = scaling._ruiz_rounds(rows, cols, np.abs(vals), 2, 2)
        np.testing.assert_array_equal(d1, [0.5, 1.0])
        np.testing.assert_array_equal(d2, [0.5, 1.0])
        np.testing.assert_array_equal(a, [1.0, 0.5, 0.5, 0.25])

    def test_equilibration_quality_ruiz_only(self):
        rng = np.random.default_rng(30)
        dense = rng.standard_normal((30, 20)) * np.exp(rng.uniform(-6, 6, (30, 20)))
        dense *= rng.random((30, 20)) < 0.3
        dense[:, 0] = 1.0  # avoid empty columns
        dense[0, :] = 1.0
        p = make_problem(dense, dual_cones=(ConeSpec(Cone.NONNEG, 30),))
        rows, cols, vals = p.G.triplets()
        d1, d2, _ = scaling._ruiz_rounds(rows, cols, np.abs(vals), 30, 20)
        scaled = np.abs(p.G.scaled(d1, d2).toarray())
        row_max = scaled.max(axis=1)
        col_max = scaled.max(axis=0)
        assert np.all(row_max[row_max > 0] >= 0.5) and np.all(row_max <= 2.0)
        assert np.all(col_max[col_max > 0] >= 0.5) and np.all(col_max <= 2.0)

    def test_equilibration_quality_default(self):
        rng = np.random.default_rng(31)
        dense = rng.standard_normal((30, 20)) * np.exp(rng.uniform(-4, 4, (30, 20)))
        dense *= rng.random((30, 20)) < 0.25
        dense[:, 0] = 1.0
        dense[0, :] = 1.0
        p = make_problem(dense, dual_cones=(ConeSpec(Cone.NONNEG, 30),))
        s = build_scaling(p)
        scaled = np.abs(p.G.scaled(s.d1, s.d2).toarray())
        row_max = scaled.max(axis=1)
        col_max = scaled.max(axis=0)
        assert np.all(row_max[row_max > 0] >= 0.1) and np.all(row_max <= 10.0)
        assert np.all(col_max[col_max > 0] >= 0.1) and np.all(col_max <= 10.0)

    def test_zero_rows_and_cols_are_noops(self):
        g = np.zeros((3, 3))
        g[0, 0] = 4.0
        p = make_problem(g)
        s = build_scaling(p)
        assert s.d1[1] == 1.0 and s.d1[2] == 1.0
        assert s.d2[1] == 1.0 and s.d2[2] == 1.0

    def test_exp_blocks_forced_uniform(self):
        rng = np.random.default_rng(32)
        g = np.exp(rng.uniform(-3, 3, (3, 2)))
        p = make_problem(g, dual_cones=(ConeSpec(Cone.EXP, 3),))
        s = build_scaling(p)
        assert s.d1[0] == s.d1[1] == s.d1[2]

    def test_dual_soc_forced_uniform(self):
        # the same rows as a nonneg block keep their own scales; as a soc
        # block they take the geometric mean of those
        rng = np.random.default_rng(33)
        g = np.exp(rng.uniform(-3, 3, (4, 3)))
        p = make_problem(g, dual_cones=(ConeSpec(Cone.SOC, 4),))
        s = build_scaling(p)
        assert len(set(s.d1.tolist())) == 1
        s2 = build_scaling(replace(p, dual_cones=(ConeSpec(Cone.NONNEG, 4),)))
        assert len(set(s2.d1.tolist())) > 1
        assert s.d1[0] == float(np.exp(np.mean(np.log(s2.d1))))

    def test_dual_soc_uniform_unless_allowed(self):
        # the flag that lets primal soc blocks keep their own scales
        rng = np.random.default_rng(33)
        d = np.exp(rng.uniform(-3, 3, 7))
        specs = (ConeSpec(Cone.SOC, 4), ConeSpec(Cone.RSOC, 3))
        forced = scaling._enforce_block_uniformity(d, specs, 0, False)
        allowed = scaling._enforce_block_uniformity(d, specs, 0, True)
        assert len(set(forced[:4].tolist())) == 1
        assert forced[0] == float(np.exp(np.mean(np.log(d[:4]))))
        np.testing.assert_array_equal(allowed[:4], d[:4])
        # rsoc blocks are uniform either way
        np.testing.assert_array_equal(allowed[4:], forced[4:])
        assert len(set(allowed[4:].tolist())) == 1

    def test_primal_soc_scales_may_differ(self):
        rng = np.random.default_rng(34)
        g = np.exp(rng.uniform(-3, 3, (2, 5)))
        p = make_problem(
            g, num_box=2,
            primal_cones=(ConeSpec(Cone.SOC, 3),),
            dual_cones=(ConeSpec(Cone.NONNEG, 2),),
        )
        s = build_scaling(p)
        assert len(set(s.d2[2:].tolist())) > 1

    def test_clamping(self):
        p = make_problem(np.array([[1e-18]]), dual_cones=(ConeSpec(Cone.NONNEG, 1),))
        s = build_scaling(p)
        assert s.d1[0] <= 1e8 and s.d2[0] <= 1e8

    def test_zero_matrix_rejected(self):
        p = make_problem(np.zeros((1, 1)))
        with pytest.raises(ValueError):
            build_scaling(p)


class TestRescaleProblem:
    def test_identity_scaling_is_noop(self):
        rng = np.random.default_rng(35)
        p = make_problem(rng.standard_normal((3, 4)), dual_cones=(ConeSpec(Cone.NONNEG, 3),))
        q = rescale_problem(p, ScalingPair.identity(3, 4))
        np.testing.assert_array_equal(q.c, p.c)
        np.testing.assert_array_equal(q.h, p.h)
        np.testing.assert_array_equal(q.G.toarray(), p.G.toarray())

    def test_one_dim_lp_hand_example(self):
        # min -x, x <= 1 with d2 = 2: c_hat = -2, u_hat = 0.5; the rescaled
        # optimum x~ = 0.5 maps back to x = 1
        p = ConicProblem(
            c=np.array([-1.0]),
            G=SparseMatrix(np.array([[1.0]])),
            h=np.array([0.0]),
            l=np.array([0.0]),
            u=np.array([1.0]),
            num_box=1,
            dual_cones=(ConeSpec(Cone.NONNEG, 1),),
        )
        s = ScalingPair(np.ones(1), np.array([2.0]))
        q = rescale_problem(p, s)
        assert q.c[0] == -2.0
        assert q.u[0] == 0.5
        x, y = unscale_solution(np.array([0.5]), np.zeros(1), s)
        assert x[0] == 1.0

    def test_infinite_bounds_preserved(self):
        p = ConicProblem(
            c=np.array([1.0]),
            G=SparseMatrix(np.array([[1.0]])),
            h=np.array([0.0]),
            l=np.array([-math.inf]),
            u=np.array([math.inf]),
            num_box=1,
            dual_cones=(ConeSpec(Cone.NONNEG, 1),),
        )
        q = rescale_problem(p, ScalingPair(np.ones(1), np.array([3.0])))
        assert q.l[0] == -math.inf and q.u[0] == math.inf

    def test_round_trip_recovers_data(self):
        rng = np.random.default_rng(36)
        p = make_problem(rng.standard_normal((4, 5)), dual_cones=(ConeSpec(Cone.NONNEG, 4),))
        s = build_scaling(p)
        q = rescale_problem(p, s)
        back = rescale_problem(q, ScalingPair(1.0 / s.d1, 1.0 / s.d2))
        np.testing.assert_allclose(back.c, p.c, atol=1e-12)
        np.testing.assert_allclose(back.h, p.h, atol=1e-12)
        np.testing.assert_allclose(back.l, p.l, atol=1e-12)
        np.testing.assert_allclose(back.u, p.u, atol=1e-12)
        np.testing.assert_allclose(back.G.toarray(), p.G.toarray(), atol=1e-12)

    def test_cone_scale_slices_populated(self):
        rng = np.random.default_rng(37)
        g = rng.standard_normal((4, 5))
        p = make_problem(
            g, num_box=2,
            primal_cones=(ConeSpec(Cone.SOC, 3),),
            dual_cones=(ConeSpec(Cone.NONNEG, 1), ConeSpec(Cone.SOC, 3)),
        )
        s = build_scaling(p)
        q = rescale_problem(p, s)
        np.testing.assert_array_equal(q.primal_cones[0].scale, s.d2[2:])
        np.testing.assert_array_equal(q.dual_cones[1].scale, s.d1[1:])

    @pytest.mark.parametrize("precondition", [True, False])
    def test_block_scale_kept_through_the_preconditioner(self, precondition):
        # minimize x1 s.t. diag(1/scale) (1, x1, x2) in K_soc, that is
        # x1^2 / 4 + x2^2 / 9 <= 1: the optimum is x1 = -2
        g = np.zeros((3, 2))
        g[1, 0] = g[2, 1] = 1.0
        scale = np.array([1.0, 2.0, 3.0])
        p = ConicProblem(c=np.array([1.0, 0.0]), G=SparseMatrix(g), h=np.array([-1.0, 0.0, 0.0]),
                         l=np.full(2, -5.0), u=np.full(2, 5.0), num_box=2,
                         dual_cones=(ConeSpec(Cone.SOC, 3, scale=scale),))
        s = build_scaling(p)
        assert np.array_equal(rescale_problem(p, s).dual_cones[0].scale, scale * s.d1)
        r = solve(p, SolverOptions(use_preconditioner=precondition))
        assert r.exit_status == ":optimal"
        assert r.x[0] == pytest.approx(-2.0, abs=1e-5)
        assert r.p_obj == pytest.approx(-2.0, abs=1e-5)

    def test_membership_equivalence(self):
        # x in K_p iff the stored scaled membership test accepts x~ = x / d2
        rng = np.random.default_rng(38)
        g = rng.standard_normal((1, 3))
        p = make_problem(
            g, num_box=0,
            primal_cones=(ConeSpec(Cone.SOC, 3),),
            dual_cones=(ConeSpec(Cone.NONNEG, 1),),
            l=np.zeros(0), u=np.zeros(0),
        )
        s = build_scaling(p)
        q = rescale_problem(p, s)
        scale = q.primal_cones[0].scale
        for _ in range(500):
            x = rng.standard_normal(3) * 2.0
            in_orig = x[0] >= np.linalg.norm(x[1:])
            x_t = x / s.d2
            w = scale * x_t
            assert (w[0] >= np.linalg.norm(w[1:]) - 1e-12) == in_orig or math.isclose(
                x[0], np.linalg.norm(x[1:]), abs_tol=1e-9
            )


class TestUnscale:
    def test_identity(self):
        x, y = unscale_solution(np.array([1.0, 2.0]), np.array([3.0]), ScalingPair.identity(1, 2))
        np.testing.assert_array_equal(x, [1.0, 2.0])
        np.testing.assert_array_equal(y, [3.0])

    def test_componentwise(self):
        x, y = unscale_solution(np.array([0.5]), np.array([4.0]), ScalingPair(np.array([0.25]), np.array([2.0])))
        assert x[0] == 1.0 and y[0] == 1.0

    def test_rescale_then_unscale_round_trip_on_feasible_points(self):
        rng = np.random.default_rng(39)
        p = make_problem(rng.standard_normal((3, 4)), dual_cones=(ConeSpec(Cone.NONNEG, 3),))
        s = build_scaling(p)
        for _ in range(100):
            x = rng.uniform(-1, 1, 4)
            y = rng.uniform(0, 1, 3)
            x_t, y_t = x / s.d2, y / s.d1
            x_back, y_back = unscale_solution(x_t, y_t, s)
            np.testing.assert_allclose(x_back, x, atol=1e-12)
            np.testing.assert_allclose(y_back, y, atol=1e-12)

    def test_scaled_products_map_to_the_unscaled_points_products(self):
        rng = np.random.default_rng(40)
        g = rng.standard_normal((3, 4)) * 10.0 ** rng.uniform(-6, 6, (3, 4))
        p = make_problem(g, dual_cones=(ConeSpec(Cone.NONNEG, 3),))
        s = build_scaling(p)
        q = rescale_problem(p, s)
        x_t, y_t = rng.standard_normal(4), rng.standard_normal(3)
        x, y = unscale_solution(x_t, y_t, s)
        gx, gty = unscale_products(q.G.matvec(x_t), q.G.rmatvec(y_t), s)
        # to rounding, relative to the sums of the terms' magnitudes
        assert np.all(np.abs(gx - g @ x) <= 1e-12 * (np.abs(g) @ np.abs(x)))
        assert np.all(np.abs(gty - g.T @ y) <= 1e-12 * (np.abs(g).T @ np.abs(y)))

    def test_validation(self):
        with pytest.raises(ValueError):
            ScalingPair(np.array([0.0]), np.array([1.0]))


# ---------------------------------------------------------------------------
# Against the matrix-algebra reference: the same bits, no rebuilt matrices
# ---------------------------------------------------------------------------


def reference_scaling(problem):
    return ScalingPair(*build_scaling_matrix_algebra(problem))


def random_block_problem(rng, decades):
    """Box columns, then soc, exp and dual-exp primal blocks; zero, nonneg,
    soc, exp and dual-exp dual blocks.  G has duplicate triplets, explicit
    zeros, an empty row and an empty column, and magnitudes spread over
    `decades` decades either side of 1."""
    nb = int(rng.integers(1, 6))
    primal = (ConeSpec(Cone.SOC, 3), ConeSpec(Cone.EXP, 3), ConeSpec(Cone.DUAL_EXP, 3))
    dual = (ConeSpec(Cone.ZERO, int(rng.integers(1, 4))), ConeSpec(Cone.NONNEG, int(rng.integers(1, 12))),
            ConeSpec(Cone.SOC, 4), ConeSpec(Cone.EXP, 3), ConeSpec(Cone.DUAL_EXP, 3))
    n, m = nb + 9, sum(spec.dim for spec in dual)
    k = int(rng.integers(n, 4 * n * m // 5))
    rows, cols = rng.integers(0, m, k), rng.integers(0, n, k)
    vals = rng.standard_normal(k) * 10.0 ** rng.uniform(-decades, decades, k)
    vals[rng.random(k) < 0.15] = 0.0
    keep = (rows != rng.integers(0, m)) & (cols != rng.integers(0, n))
    return ConicProblem(
        c=rng.standard_normal(n), G=SparseMatrix.from_coo(rows[keep], cols[keep], vals[keep], (m, n)),
        h=rng.standard_normal(m), l=-np.ones(nb), u=np.ones(nb), num_box=nb,
        primal_cones=primal, dual_cones=dual,
    )


@pytest.mark.parametrize("decades", [0, 6, 200])
def test_scales_equal_the_matrix_algebra_bit_for_bit(decades):
    rng = np.random.default_rng(decades)
    for _ in range(25):
        p = random_block_problem(rng, decades)
        got, want = build_scaling(p), reference_scaling(p)
        assert np.array_equal(got.d1, want.d1)
        assert np.array_equal(got.d2, want.d2)


def test_scales_when_rounds_leave_whole_lines_zero():
    # row 0 holds 1e300 and 5e-324s, which round to zero in the first round;
    # a row's largest magnitude never does, so the all-zero row 2 and column
    # 2 hold explicit zeros only.  Their sums are empty, as the products'
    # are, and the other rows and columns sum 9 to 14 entries around zeros,
    # enough for numpy's pairwise sum to tell a skipped zero from a summed one
    rng = np.random.default_rng(35)
    for _ in range(20):
        m, n = 12, 14
        dense = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-3, 3, (m, n))
        dense[0] = 5e-324
        dense[0, 0] = 1e300
        dense[2], dense[:, 2] = 0.0, -0.0
        rows, cols = np.nonzero(np.ones((m, n)))
        vals = dense[rows, cols]
        vals[(rng.random(vals.size) < 0.25) & (rows > 0)] = 0.0  # explicit zeros
        p = replace(make_problem(np.ones((m, n)), rng=rng),
                    G=SparseMatrix.from_coo(rows, cols, vals, (m, n)))
        r, c, v = p.G.triplets()
        _, _, a = scaling._ruiz_rounds(r.astype(np.intp), c, np.abs(v), m, n)
        ruiz = np.zeros((m, n))
        ruiz[r, c] = a
        assert not ruiz[2].any() and not ruiz[:, 2].any()
        assert not ruiz[0, 1:].any()
        assert np.sum(a == 0.0) - np.sum(v == 0.0) == n - 2  # the 5e-324s
        got, want = build_scaling(p), reference_scaling(p)
        assert np.array_equal(got.d1, want.d1) and np.array_equal(got.d2, want.d2)


def test_scales_when_no_magnitude_is_zero():
    rng = np.random.default_rng(33)
    for _ in range(10):
        m, n = (int(k) for k in rng.integers(2, 25, 2))
        p = make_problem(rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-20, 20, (m, n)), rng=rng)
        r, c, v = p.G.triplets()
        _, _, a = scaling._ruiz_rounds(r.astype(np.intp), c, np.abs(v), m, n)
        assert a.size == m * n and np.all(a > 0)
        got, want = build_scaling(p), reference_scaling(p)
        assert np.array_equal(got.d1, want.d1) and np.array_equal(got.d2, want.d2)


def test_build_scaling_leaves_the_callers_matrix_unchanged():
    # the rounds rescale a copy of the magnitudes in place
    rng = np.random.default_rng(34)
    for decades in (0, 6, 200):
        p = random_block_problem(rng, decades)
        before = [arr.copy() for arr in (p.G.indptr, p.G.indices, p.G.data)]
        build_scaling(p)
        for old, new in zip(before, (p.G.indptr, p.G.indices, p.G.data)):
            assert old.dtype == new.dtype
            assert old.tobytes() == new.tobytes()


def rsoc_problem():
    # min x1 + x2 s.t. x1 >= 0 and 2 x1 x2 >= 1
    g = np.zeros((4, 2))
    g[0, 0] = g[1, 0] = g[2, 1] = 1.0
    return ConicProblem(c=np.ones(2), G=SparseMatrix(g), h=np.array([0.0, 0.0, 0.0, -1.0]),
                        l=np.full(2, -10.0), u=np.full(2, 10.0), num_box=2,
                        dual_cones=(ConeSpec(Cone.NONNEG, 1), ConeSpec(Cone.RSOC, 3)))


def test_matrices_built_per_solve(monkeypatch):
    # every matrix, built from entries or scaled from another, sets its arrays
    built = []
    real = SparseMatrix._set_arrays

    def counting(self, *arrays):
        built.append(arrays)
        real(self, *arrays)

    lp, rsoc = random_lp(3), rsoc_problem()
    monkeypatch.setattr(SparseMatrix, "_set_arrays", counting)
    build_scaling(lp)
    assert len(built) == 0
    solve(lp, SolverOptions(max_iter=10))
    assert len(built) == 1  # the scaled matrix
    built.clear()
    solve(rsoc, SolverOptions(max_iter=10))
    assert len(built) == 2  # the rotated blocks' matrix and its scaled copy


def held_bytes(mat):
    """Bytes of the distinct arrays `mat` holds; an array held twice (as a
    view for G^T would be) counts once."""
    arrays = {}
    for held in vars(mat).values():
        if isinstance(held, np.ndarray):
            arrays[held.__array_interface__["data"][0], held.nbytes] = held.nbytes
    return sum(arrays.values())


def test_each_matrix_holds_one_compressed_copy(monkeypatch):
    built = []
    real = SparseMatrix._set_arrays

    def recording(self, *arrays):
        built.append(self)
        real(self, *arrays)

    lp, rsoc = random_lp(3), rsoc_problem()
    s = build_scaling(lp)
    monkeypatch.setattr(SparseMatrix, "_set_arrays", recording)
    solve(rsoc, SolverOptions(max_iter=10))
    assert len(built) == 2  # the rotated blocks' matrix and its scaled copy
    for mat in (lp.G, lp.G.scaled(s.d1, s.d2), *built):
        itemsize = mat.indices.itemsize
        assert held_bytes(mat) == mat.nnz * (8 + itemsize) + (mat.n + 1) * itemsize


TRACED_PROBLEMS = {
    "feasible lp": lambda: random_lp(5, n=6, m=4),
    "primal-infeasible lp": primal_infeasible_lp,
    "soc-exp-dual-exp": lambda: planted_conic(1),
}

TRACED_MODES = {
    "default": {},
    "failing gap": FAILING_GAP,
    "no restarts": dict(use_adaptive_restart=False),
    "induced-inf initial step": dict(initial_step_norm="induced_inf"),
}


@pytest.mark.parametrize("mode", TRACED_MODES)
@pytest.mark.parametrize("name", TRACED_PROBLEMS)
def test_solves_follow_the_reference_scales(name, mode, monkeypatch):
    kw = dict(rel_tol=1e-4, abs_tol=1e-4, max_iter=1000, duality_gap_restart_freq=200,
              **TRACED_MODES[mode])
    r, _, _, trace = traced_solve(TRACED_PROBLEMS[name](), monkeypatch, **kw)
    calls = []

    def reference(problem):
        calls.append(problem)
        return reference_scaling(problem)

    with monkeypatch.context() as mp:
        mp.setattr(scaling, "build_scaling", reference)
        r_ref, _, _, trace_ref = traced_solve(TRACED_PROBLEMS[name](), monkeypatch, **kw)
    assert len(calls) == 1
    assert trace == trace_ref
    assert repr(replace(r, solve_time_s=0.0)) == repr(replace(r_ref, solve_time_s=0.0))
    for field in ("x", "y", "lam", "slack"):
        assert np.array_equal(getattr(r, field), getattr(r_ref, field)), field
