"""Unit tests for error metrics, reflection parameter, and exit logic."""

import math

import numpy as np
import pytest

from conic_pdhg.linalg import SparseMatrix
from conic_pdhg.model import Cone, ConeSpec, ConicProblem
from conic_pdhg.termination import (
    EXIT_CODE_FOR_STATUS,
    EXIT_STATUS,
    ErrorReport,
    InfeasibilityHistory,
    adaptive_reflection_parameter,
    check_infeasibility,
    check_termination,
    compute_errors,
    max_err,
)
from conic_pdhg.engine import SolverOptions


def one_dim_lp():
    # min -x, x in [0, 1], one benign row x <= 5
    return ConicProblem(
        c=np.array([-1.0]),
        G=SparseMatrix(np.array([[-1.0]])),
        h=np.array([-5.0]),
        l=np.array([0.0]),
        u=np.array([1.0]),
        num_box=1,
        dual_cones=(ConeSpec(Cone.NONNEG, 1),),
    )


def dummy_report(**overrides):
    fields = dict(
        abs_p=0.0, abs_d=0.0, abs_gap=0.0,
        rel_p1=0.0, rel_d1=0.0, rel_gap1=0.0,
        abs_p_inf=0.0, abs_d_inf=0.0,
        rel_p_inf=0.0, rel_d_inf=0.0, rel_gap_term=0.0,
        primal_obj=0.0, dual_obj=0.0,
    )
    fields.update(overrides)
    return ErrorReport(**fields)


class TestComputeErrors:
    def test_exact_optimum_all_zero(self):
        p = one_dim_lp()
        # optimum x = 1; dual: lambda = c = -1 (y = 0), both finite bounds -> Lambda = R
        r = compute_errors(p, np.array([1.0]), np.zeros(1))
        for name in ("abs_p", "abs_d", "abs_gap", "rel_p1", "rel_d1", "rel_gap1",
                     "abs_p_inf", "abs_d_inf",
                     "rel_p_inf", "rel_d_inf", "rel_gap_term"):
            assert getattr(r, name) <= 1e-12, name

    def test_single_row_violation(self):
        # x violating one nonneg row by 0.3 and nothing else
        p = ConicProblem(
            c=np.array([0.0]),
            G=SparseMatrix(np.array([[1.0]])),
            h=np.array([1.0]),
            l=np.array([-5.0]),
            u=np.array([5.0]),
            num_box=1,
            dual_cones=(ConeSpec(Cone.NONNEG, 1),),
        )
        r = compute_errors(p, np.array([0.7]), np.zeros(1))
        assert r.abs_p == pytest.approx(0.3)
        assert r.abs_p_inf == pytest.approx(0.3)

    def test_denominators(self):
        p = ConicProblem(
            c=np.array([0.0]),
            G=SparseMatrix(np.array([[1.0], [-2.0]])),
            h=np.array([1.0, -2.0]),
            l=np.array([-5.0]),
            u=np.array([5.0]),
            num_box=1,
            dual_cones=(ConeSpec(Cone.NONNEG, 2),),
        )
        x = np.array([0.0])
        r = compute_errors(p, x, np.zeros(2))
        # Eq-11-style divisor: 1 + ||h||_1 = 4
        assert r.rel_p1 == pytest.approx(r.abs_p / 4.0)
        # inf-norm divisor: 1 + max(||h||_inf, ||Gx||_inf, ||proj||_inf)
        assert r.rel_p_inf == pytest.approx(r.abs_p_inf / (1.0 + 2.0))

    def test_inf_norm_vs_two_norm_relation(self):
        rng = np.random.default_rng(40)
        p = ConicProblem(
            c=rng.standard_normal(3),
            G=SparseMatrix(rng.standard_normal((4, 3))),
            h=rng.standard_normal(4),
            l=-np.ones(3),
            u=np.ones(3),
            num_box=3,
            dual_cones=(ConeSpec(Cone.ZERO, 4),),
        )
        for _ in range(100):
            r = compute_errors(p, rng.standard_normal(3), rng.standard_normal(4))
            assert r.abs_p_inf <= r.abs_p + 1e-12
            assert r.abs_p <= math.sqrt(p.m) * r.abs_p_inf + 1e-12

    def test_residual_projection_idempotent_pass_through(self):
        from conic_pdhg.cones import project_dual_residual_set

        rng = np.random.default_rng(41)
        p = one_dim_lp()
        v = rng.standard_normal(1)
        proj = project_dual_residual_set(v, p)
        np.testing.assert_allclose(project_dual_residual_set(proj, p), proj, atol=1e-12)


class TestMaxErr:
    def test_zero(self):
        assert max_err(dummy_report()) == 0.0

    def test_picks_largest(self):
        r = dummy_report(rel_p1=0.1, rel_d1=0.01, rel_gap1=0.001)
        assert max_err(r) == pytest.approx(0.1)

    def test_matches_recomputed_family(self):
        p = one_dim_lp()
        rng = np.random.default_rng(42)
        x = rng.standard_normal(1)
        y = rng.standard_normal(1)
        r = compute_errors(p, x, y)
        assert max_err(r) == pytest.approx(max(r.rel_p1, r.rel_d1, r.rel_gap1))


class TestReflectionParameter:
    def test_table(self):
        assert adaptive_reflection_parameter(dummy_report(rel_p1=1e-2)) == pytest.approx(0.4)
        assert adaptive_reflection_parameter(dummy_report(rel_p1=100.0)) == 0.0
        assert adaptive_reflection_parameter(dummy_report(rel_p1=1e-8)) == 1.0
        assert adaptive_reflection_parameter(dummy_report()) == 1.0

    def test_monotone_nonincreasing_and_clamped(self):
        errs = np.logspace(-12, 6, 50)
        betas = [adaptive_reflection_parameter(dummy_report(rel_p1=float(e))) for e in errs]
        assert all(0.0 <= b <= 1.0 for b in betas)
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(betas, betas[1:]))


class TestExitTable:
    def test_bijection(self):
        assert len(EXIT_STATUS) == 9
        assert set(EXIT_STATUS) == set(range(9))
        assert len(set(EXIT_STATUS.values())) == 9
        for code, status in EXIT_STATUS.items():
            assert EXIT_CODE_FOR_STATUS[status] == code
        assert EXIT_STATUS[0] == ":optimal"
        assert EXIT_STATUS[6] == ":time_limit"
        assert EXIT_STATUS[7] == ":continue"
        assert EXIT_STATUS[8] == ":numerical_error"


class TestCheckTermination:
    OPTS = SolverOptions(max_iter=1000, time_limit=100.0)

    def test_optimal_requires_both_families(self):
        r = dummy_report(abs_p_inf=1e-7, rel_p_inf=1e-7)
        code = check_termination(r, self.OPTS, 10, 0.0)
        assert code == 0 and EXIT_STATUS[code] == ":optimal"

    def test_rel_violation_blocks_exit(self):
        r = dummy_report(rel_gap_term=1e-5)
        assert check_termination(r, self.OPTS, 10, 0.0) is None
        r2 = dummy_report(abs_gap=1e-5)
        assert check_termination(r2, self.OPTS, 10, 0.0) is None

    def test_time_limit(self):
        r = dummy_report(rel_gap_term=1.0)
        assert check_termination(r, self.OPTS, 10, 200.0) == 6

    def test_max_iter(self):
        r = dummy_report(rel_gap_term=1.0)
        assert check_termination(r, self.OPTS, 1000, 0.0) == 1


class TestCheckInfeasibility:
    def _setup_infeasible(self):
        # -x = 1 with x >= 0: primal infeasible; the dual ray is y -> +inf
        p = ConicProblem(
            c=np.array([0.0]),
            G=SparseMatrix(np.array([[-1.0]])),
            h=np.array([1.0]),
            l=np.array([0.0]),
            u=np.array([math.inf]),
            num_box=1,
            dual_cones=(ConeSpec(Cone.ZERO, 1),),
        )
        return p

    def test_feasible_lp_never_fires(self):
        p = one_dim_lp()
        opts = SolverOptions()
        hist = InfeasibilityHistory()
        rng = np.random.default_rng(43)
        for _ in range(300):
            x = rng.uniform(-2, 2, 1)
            y = rng.uniform(0, 50, 1)
            gx = p.G.matvec(x)
            gty = p.G.rmatvec(y)
            r = compute_errors(p, x, y, gx=gx, gty=gty)
            hist.push(r)
            assert check_infeasibility(p, x, y, gx, gty, hist, opts) is None

    def test_primal_infeasible_high_acc(self):
        p = self._setup_infeasible()
        opts = SolverOptions()
        hist = InfeasibilityHistory()
        x = np.array([0.0])
        y = np.array([50.0])  # exact certificate direction
        gx = p.G.matvec(x)
        gty = p.G.rmatvec(y)
        assert check_infeasibility(p, x, y, gx, gty, hist, opts) == 3

    def test_primal_infeasible_low_acc_needs_trend(self):
        p = self._setup_infeasible()
        opts = SolverOptions(
            eps_primal_infeasible_low_acc=1e-1,
            eps_primal_infeasible_high_acc=1e-300,
        )
        hist = InfeasibilityHistory()
        x = np.array([0.0])
        codes = []
        # off-ray duals with growing magnitude: a persistent relative
        # certificate error of 1e-3, increasing dual objective
        for scale in (1.0, 2.0, 4.0):
            y = np.array([scale])
            gty = np.array([1e-3 * scale])  # lambda_ray = -1e-3 violates R+
            gx = p.G.matvec(x)
            r = compute_errors(p, x, y, gx=gx, gty=gty)
            hist.push(r)
            codes.append(check_infeasibility(p, x, y, gx, gty, hist, opts))
        assert codes[0] is None and codes[1] is None  # trend not established
        assert codes[2] == 2

    def test_dual_infeasible_high_acc(self):
        # min -x, x >= 0 box, benign row x >= -1: unbounded below in c'x
        p = ConicProblem(
            c=np.array([-1.0]),
            G=SparseMatrix(np.array([[1.0]])),
            h=np.array([-1.0]),
            l=np.array([0.0]),
            u=np.array([math.inf]),
            num_box=1,
            dual_cones=(ConeSpec(Cone.NONNEG, 1),),
        )
        opts = SolverOptions()
        hist = InfeasibilityHistory()
        x = np.array([40.0])
        y = np.array([0.0])
        gx = p.G.matvec(x)
        gty = p.G.rmatvec(y)
        assert check_infeasibility(p, x, y, gx, gty, hist, opts) == 5
