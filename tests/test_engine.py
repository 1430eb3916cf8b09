"""Unit tests for the PDHG iteration core and the solve loop."""

import math

import numpy as np
import pytest

from oracles import lp_vertex_enumeration

from conic_pdhg.engine import (
    IterateZ,
    SolverOptions,
    StepPhases,
    StepWorkspace,
    adaptive_step_pdhg,
    one_pdhg,
    reflected_halpern_step,
    solve,
    update_weighted_average,
)
from conic_pdhg.linalg import NumericalError, SparseMatrix
from conic_pdhg.model import Cone, ConeSpec, ConicProblem


def box_lp(c, G, h, l, u, dual_cones=None):
    c = np.asarray(c, dtype=float)
    G = np.asarray(G, dtype=float)
    if dual_cones is None and G.shape[0]:
        dual_cones = (ConeSpec(Cone.NONNEG, G.shape[0]),)
    return ConicProblem(
        c=c,
        G=SparseMatrix(G),
        h=np.asarray(h, dtype=float),
        l=np.asarray(l, dtype=float),
        u=np.asarray(u, dtype=float),
        num_box=len(c),
        dual_cones=dual_cones or (),
    )


def tiny_lp():
    # min -x1 - x2 s.t. x1 + x2 >= 0.5 (benign), x in [0,1]^2
    return box_lp([-1.0, -1.0], [[1.0, 1.0]], [0.5], [0.0, 0.0], [1.0, 1.0])


class TestOnePdhg:
    def test_fixed_point_at_saddle(self):
        # min -x, x in [0,1], row x <= 5: saddle (x, y) = (1, 0)
        p = box_lp([-1.0], [[-1.0]], [-5.0], [0.0], [1.0])
        z = IterateZ(np.array([1.0]), np.array([0.0]))
        out = one_pdhg(p, z, 0.3, 0.3)
        np.testing.assert_allclose(out.x, z.x, atol=1e-14)
        np.testing.assert_allclose(out.y, z.y, atol=1e-14)

    def test_no_rows_hand_iteration(self):
        # min -x, x in [0,1], m=0: x+ = clamp(x + tau)
        p = box_lp([-1.0], np.zeros((0, 1)), [], [0.0], [1.0])
        z = IterateZ(np.array([0.25]), np.zeros(0))
        out = one_pdhg(p, z, 0.5, 0.5)
        assert out.x[0] == pytest.approx(0.75)
        out2 = one_pdhg(p, IterateZ(np.array([0.9]), np.zeros(0)), 0.5, 0.5)
        assert out2.x[0] == pytest.approx(1.0)

    def test_converges_to_vertex_enumeration_optimum(self):
        p = tiny_lp()
        opt_val, _ = lp_vertex_enumeration(p.c, p.G.toarray(), p.h, p.l, p.u)
        norm2 = np.linalg.norm(p.G.toarray(), 2)
        eta = 0.9 / norm2
        z = IterateZ(np.zeros(2), np.zeros(1))
        for _ in range(10000):
            z = one_pdhg(p, z, eta, eta)
        assert float(np.dot(p.c, z.x)) == pytest.approx(opt_val, abs=1e-6)

    def test_positive_steps_required(self, monkeypatch):
        # The PDHG steps trust tau, sigma > 0: the loop forms them from a
        # primal weight and a step scale that stay positive and finite; the
        # scale stays finite even where the line search's bound is infinite,
        # as on a problem with a zero constraint matrix.
        import conic_pdhg.engine as engine

        steps = []
        candidate, adaptive = engine.StepPhases.candidate, engine.adaptive_step_pdhg

        def record_candidate(phases, tau, sigma, *args, **kwargs):
            steps.append((tau, sigma))
            return candidate(phases, tau, sigma, *args, **kwargs)

        def record_adaptive(problem, z, omega, eta, *args, **kwargs):
            step = adaptive(problem, z, omega, eta, *args, **kwargs)
            for e in (eta, step.eta_used, step.eta_next):
                steps.append((e / omega, e * omega))
            return step

        monkeypatch.setattr(engine.StepPhases, "candidate", record_candidate)
        monkeypatch.setattr(engine, "adaptive_step_pdhg", record_adaptive)
        solve(tiny_lp(), SolverOptions(max_iter=500))
        zero_rows = box_lp([-1.0, 1.0], np.zeros((1, 2)), [-1.0], [0.0, 0.0], [1.0, 1.0])
        solve(zero_rows, SolverOptions(max_iter=200, use_preconditioner=False))
        assert len(steps) > 100
        assert all(0.0 < s < math.inf for pair in steps for s in pair)


class TestAdaptiveStep:
    def test_zero_interaction_accepts_immediately(self):
        # a zero matrix row block makes dy' G dx = 0: eta_bar = inf
        p = box_lp([1.0], [[0.0]], [-1.0], [0.0], [1.0])
        z = IterateZ(np.array([0.5]), np.array([0.0]))
        res = adaptive_step_pdhg(p, z, omega=1.0, eta=0.7, k_bar=5)
        assert res.trials == 1
        assert res.eta_used == 0.7

    def test_k_bar_zero_floors_eta_next(self):
        # hand evaluation at k_bar = 0: accepted candidate with eta < eta_bar
        # proposes min{(1-1)*eta_bar, 2*eta} = 0, floored at 1e-12
        p = tiny_lp()
        z = IterateZ(np.zeros(2), np.zeros(1))
        res = adaptive_step_pdhg(p, z, omega=1.0, eta=1e-3, k_bar=0)
        assert res.eta_used == 1e-3
        assert res.eta_next == 1e-12

    def test_accepted_eta_below_bar_recomputed_post_hoc(self):
        rng = np.random.default_rng(60)
        p = tiny_lp()
        for _ in range(200):
            z = IterateZ(rng.uniform(0, 1, 2), rng.uniform(0, 2, 1))
            eta0 = float(rng.uniform(1e-4, 2.0))
            k_bar = int(rng.integers(1, 50))
            res = adaptive_step_pdhg(p, z, 1.0, eta0, k_bar)
            dx = res.z_hat.x - z.x
            dy = res.z_hat.y - z.y
            movement = float(np.dot(dx, dx) + np.dot(dy, dy))
            inter = abs(float(dy @ (p.G.toarray() @ dx)))
            eta_bar = math.inf if inter == 0 else movement / (2 * inter)
            assert res.eta_used < eta_bar or math.isinf(eta_bar)
            # growth bound on the proposal
            assert res.eta_next <= (1 + (res.k_bar + 1) ** -0.6) * res.eta_used + 1e-15

    def test_one_pdhg_matvec_budget(self):
        p = tiny_lp()
        p.G.reset_counters()
        one_pdhg(p, IterateZ(np.zeros(2), np.zeros(1)), 0.3, 0.3)
        assert (p.G.n_matvec, p.G.n_rmatvec) == (1, 1)

    def test_matvec_budget(self):
        p = tiny_lp()
        z = IterateZ(np.zeros(2), np.zeros(1))
        p.G.reset_counters()
        res = adaptive_step_pdhg(p, z, omega=1.0, eta=1.0, k_bar=3)
        # one G product per trial, one G^T product for the call, plus the
        # G x cache build (gx not supplied here)
        assert p.G.n_matvec == res.trials + 1
        assert p.G.n_rmatvec == 1
        p.G.reset_counters()
        gty = p.G.rmatvec(z.y)
        gx = p.G.matvec(z.x)
        p.G.reset_counters()
        phases = StepPhases(p, z, gx, gty, np.empty(p.n + 2 * p.m),
                            StepWorkspace.allocate(p.n, p.m))
        res = adaptive_step_pdhg(p, z, omega=1.0, eta=1.0, k_bar=3, phases=phases)
        assert p.G.n_matvec == res.trials
        assert p.G.n_rmatvec == 0

    def test_phases_of_another_problem_or_iterate_raise(self):
        # the noise floor and the movement read z, the candidate the
        # phases' iterate: a step may not mix two
        p = tiny_lp()
        z = IterateZ(np.zeros(2), np.zeros(1))
        phases = StepPhases(p, z, np.zeros(1), np.zeros(2), np.empty(p.n + 2 * p.m),
                            StepWorkspace.allocate(p.n, p.m))
        for args in ((p, IterateZ(z.x.copy(), z.y)), (p, IterateZ(z.x, z.y.copy())),
                     (tiny_lp(), z)):
            with pytest.raises(ValueError, match="another problem or iterate"):
                adaptive_step_pdhg(*args, 1.0, 1.0, 3, phases=phases)
        assert adaptive_step_pdhg(p, IterateZ(z.x, z.y), 1.0, 1.0, 3, phases=phases).trials >= 1

    def test_nan_raises_numerical_error(self):
        p = tiny_lp()
        z = IterateZ(np.array([math.nan, 0.0]), np.zeros(1))
        with pytest.raises(NumericalError):
            adaptive_step_pdhg(p, z, 1.0, 1.0, 0)


def halpern(z_hat, z_old, anchor, k, beta):
    """The flat update into fresh buffers."""
    return reflected_halpern_step(z_hat, z_old, anchor, k, beta, out=np.empty_like(z_hat))


def average(z_bar, weight, z_new, eta):
    """The flat update into fresh buffers."""
    return update_weighted_average(z_bar, weight, z_new, eta,
                                   out=np.empty_like(z_new), scratch=np.empty_like(z_new))


class TestHalpernStep:
    # flat [x; y] operands
    def test_beta_zero_k_zero_is_midpoint(self):
        z_hat = np.array([2.0, 0.0])
        z_old = np.array([-1.0, 1.0])
        anchor = np.array([0.0, 4.0])
        out = halpern(z_hat, z_old, anchor, k=0, beta=0.0)
        np.testing.assert_allclose(out, [1.0, 2.0])

    def test_coincident_points_fixed(self):
        p = np.array([0.3, -0.7, 1.5])
        for beta in (0.0, 0.5, 1.0):
            for k in (0, 1, 7):
                out = halpern(p, p, p, k, beta)
                np.testing.assert_allclose(out, p, atol=1e-15)

    def test_beta_one_k_one_hand_arithmetic(self):
        rng = np.random.default_rng(61)
        z_hat = np.concatenate([rng.standard_normal(3), rng.standard_normal(2)])
        z_old = np.concatenate([rng.standard_normal(3), rng.standard_normal(2)])
        anchor = np.concatenate([rng.standard_normal(3), rng.standard_normal(2)])
        out = halpern(z_hat, z_old, anchor, k=1, beta=1.0)
        expect = (2.0 / 3.0) * (2.0 * z_hat - z_old) + (1.0 / 3.0) * anchor
        np.testing.assert_allclose(out[:3], expect[:3], atol=1e-14)

    def test_beta_range_enforced(self, monkeypatch):
        # The Halpern step trusts beta in [0, 1] and k >= 0: beta is the
        # clamp of `adaptive_reflection_parameter` and k counts up from 0,
        # back to 0 at a restart.
        import conic_pdhg.engine as engine

        calls = []
        step = engine.reflected_halpern_step

        def record(z_hat, z_old, z_anchor, k, beta, out):
            calls.append((k, beta))
            return step(z_hat, z_old, z_anchor, k, beta, out=out)

        monkeypatch.setattr(engine, "reflected_halpern_step", record)
        solve(tiny_lp(), SolverOptions(max_iter=2000))
        ks = [k for k, _ in calls]
        betas = [beta for _, beta in calls]
        assert ks[0] == 0 and all(b in (0, a + 1) for a, b in zip(ks, ks[1:]))
        assert all(0.0 <= beta <= 1.0 for beta in betas)
        assert min(betas) < max(betas)


class TestWeightedAverage:
    # flat [x; y] operands; weight 0 marks the empty average
    def test_first_update_returns_point(self):
        z = np.array([2.0, 3.0])
        z_bar, w = average(np.full(2, np.nan), 0.0, z, 0.5)
        np.testing.assert_array_equal(z_bar[:1], z[:1])
        assert w == 0.5

    def test_equal_weights_midpoint(self):
        a = np.array([0.0, 0.0])
        b = np.array([1.0, 2.0])
        z_bar, w = average(np.full(2, np.nan), 0.0, a, 1.0)
        z_bar, w = average(z_bar, w, b, 1.0)
        np.testing.assert_allclose(z_bar, [0.5, 1.0])

    def test_streaming_matches_batch(self):
        rng = np.random.default_rng(62)
        etas = rng.uniform(0.1, 2.0, 10)
        zs = [np.concatenate([rng.standard_normal(3), rng.standard_normal(2)]) for _ in range(10)]
        z_bar, w = np.full(5, np.nan), 0.0
        for eta, z in zip(etas, zs):
            z_bar, w = average(z_bar, w, z, float(eta))
        batch = sum(e * z for e, z in zip(etas, zs)) / etas.sum()
        np.testing.assert_allclose(z_bar[:3], batch[:3], atol=1e-12)
        np.testing.assert_allclose(z_bar[3:], batch[3:], atol=1e-12)


class TestSolve:
    def test_one_dim_box_lp_no_rows(self):
        p = box_lp([-1.0], np.zeros((0, 1)), [], [0.0], [1.0])
        r = solve(p)
        assert r.exit_code == 0 and r.exit_status == ":optimal"
        assert r.p_obj == pytest.approx(-1.0, abs=1e-5)
        assert r.x[0] == pytest.approx(1.0, abs=1e-5)

    def test_socp_unit_ball(self):
        G = np.zeros((3, 2))
        G[1, 0] = 1.0
        G[2, 1] = 1.0
        p = ConicProblem(
            c=np.array([1.0, 0.0]),
            G=SparseMatrix(G),
            h=np.array([-1.0, 0.0, 0.0]),
            l=np.array([-5.0, -5.0]),
            u=np.array([5.0, 5.0]),
            num_box=2,
            dual_cones=(ConeSpec(Cone.SOC, 3),),
        )
        r = solve(p)
        assert r.exit_code == 0
        assert r.p_obj == pytest.approx(-1.0, abs=1e-5)

    def test_exp_cone_instance(self):
        G = np.zeros((3, 1))
        G[2, 0] = 1.0
        p = ConicProblem(
            c=np.array([1.0]),
            G=SparseMatrix(G),
            h=np.array([-1.0, -1.0, 0.0]),
            l=np.array([-math.inf]),
            u=np.array([math.inf]),
            num_box=1,
            dual_cones=(ConeSpec(Cone.EXP, 3),),
        )
        r = solve(p)
        assert r.exit_code == 0
        assert r.p_obj == pytest.approx(math.e, abs=1e-4)

    def test_dual_exp_cone_instance(self):
        # min x s.t. (-1, 1, x) in K_exp*: x* = exp(-2)
        G = np.zeros((3, 1))
        G[2, 0] = 1.0
        p = ConicProblem(
            c=np.array([1.0]),
            G=SparseMatrix(G),
            h=np.array([1.0, -1.0, 0.0]),
            l=np.array([-math.inf]),
            u=np.array([math.inf]),
            num_box=1,
            dual_cones=(ConeSpec(Cone.DUAL_EXP, 3),),
        )
        r = solve(p)
        assert r.exit_code == 0
        assert r.p_obj == pytest.approx(math.exp(-2.0), abs=1e-4)

    def test_rsoc_instance_end_to_end(self):
        # min x1 + x2 s.t. (x1, x2, 1) rotated-soc: 2 x1 x2 >= 1 -> optimum sqrt(2)
        G = np.zeros((3, 2))
        G[0, 0] = 1.0
        G[1, 1] = 1.0
        p = ConicProblem(
            c=np.array([1.0, 1.0]),
            G=SparseMatrix(G),
            h=np.array([0.0, 0.0, -1.0]),
            l=np.array([-10.0, -10.0]),
            u=np.array([10.0, 10.0]),
            num_box=2,
            dual_cones=(ConeSpec(Cone.RSOC, 3),),
        )
        r = solve(p)
        assert r.exit_code == 0
        assert r.p_obj == pytest.approx(math.sqrt(2.0), abs=1e-4)
        # slack is reported in the original rotated coordinates
        assert 2.0 * r.slack[0] * r.slack[1] >= np.dot(r.slack[2:], r.slack[2:]) - 1e-6

    def test_rsoc_with_exp_instance_end_to_end(self):
        # Rows in file order: nonneg a >= 0, exp (s, 1, b), rotated (a, b, 1).
        # b >= e^s and 2ab >= 1 make min a + b - s equal to
        # min_b 1/(2b) + b - ln b, attained at b = (1 + sqrt 3)/2.
        G = np.zeros((7, 3))
        G[0, 0] = G[1, 2] = G[3, 1] = G[4, 0] = G[5, 1] = 1.0
        h = np.array([0.0, 0.0, -1.0, 0.0, 0.0, 0.0, -1.0])
        p = ConicProblem(
            c=np.array([1.0, 1.0, -1.0]),
            G=SparseMatrix(G),
            h=h,
            l=np.full(3, -10.0),
            u=np.full(3, 10.0),
            num_box=3,
            dual_cones=(ConeSpec(Cone.NONNEG, 1), ConeSpec(Cone.EXP, 3), ConeSpec(Cone.RSOC, 3)),
        )
        r = solve(p)
        assert r.exit_status == ":optimal"
        b = (1.0 + math.sqrt(3.0)) / 2.0
        assert r.p_obj == pytest.approx(math.sqrt(3.0) - math.log(b), abs=1e-4)
        np.testing.assert_allclose(r.x, [1.0 / (2.0 * b), b, math.log(b)], atol=1e-3)
        # slack and y come back in the input's row order and blocks
        np.testing.assert_allclose(r.slack, G @ r.x - h, atol=1e-12)
        u, v, w = r.y[1:4]
        assert u < 0.0 < w and u * math.log(-u / w) - u + v >= -1e-4
        assert min(r.y[4], r.y[5]) >= 0.0
        assert 2.0 * r.y[4] * r.y[5] >= r.y[6] ** 2 - 1e-4

    def test_fixed_point_entry(self):
        # optimum at the initial iterate z0 = 0: exits without iterating
        p = box_lp([1.0], np.zeros((0, 1)), [], [0.0], [1.0])
        r = solve(p)
        assert r.exit_code == 0
        assert r.iterations == 0
        assert abs(r.x[0]) <= 1e-9

    def test_max_iter_exit(self):
        p = tiny_lp()
        r = solve(p, SolverOptions(max_iter=5, rel_tol=1e-12, abs_tol=1e-12))
        assert r.exit_code == 1 and r.exit_status == ":max_iter"
        assert r.iterations == 5

    def test_time_limit_exit(self):
        p = tiny_lp()
        r = solve(p, SolverOptions(time_limit=1e-9, rel_tol=1e-12, abs_tol=1e-12))
        assert r.exit_code == 6 and r.exit_status == ":time_limit"

    def test_time_limit_mid_solve(self, monkeypatch):
        # A clock that advances 1 s per reading passes the limit mid-solve.
        # The loop reads it after every iteration's callback, so the solve
        # must end at the first iteration after which that reading is past
        # the limit, not one later.
        import types

        import conic_pdhg.engine as eng
        from test_lean_iteration import random_lp

        readings = []

        def monotonic():
            readings.append(float(len(readings)))
            return readings[-1]

        monkeypatch.setattr(eng, "time", types.SimpleNamespace(monotonic=monotonic))
        seen = []  # the number of clock readings before each callback
        r = solve(random_lp(7), SolverOptions(
            time_limit=40.0, iteration_callback=lambda s: seen.append(len(readings))))
        assert r.exit_status == ":time_limit"
        past = [readings[n] - readings[0] > 40.0 for n in seen]
        assert past.index(True) == len(seen) - 1

    def test_time_limit_passed_in_a_restart_check(self, monkeypatch):
        # The clock passes the limit inside a restart check that restarts.
        # The check scanned before it restarted, so the solve runs one more
        # iteration, whose budget check ends it.
        import types

        import conic_pdhg.engine as eng
        from test_lean_iteration import random_lp

        now = [0.0]
        monkeypatch.setattr(eng, "time", types.SimpleNamespace(monotonic=lambda: now[0]))
        k_bars, restarted_at = [], []
        real = eng.restarts.update_primal_weight

        def update_primal_weight(*args):
            if not restarted_at:
                restarted_at.append(k_bars[-1])
                now[0] = 100.0
            return real(*args)

        monkeypatch.setattr(eng.restarts, "update_primal_weight", update_primal_weight)
        r = solve(random_lp(7), SolverOptions(
            time_limit=50.0, rel_tol=1e-14, abs_tol=1e-14, duality_gap_restart_freq=64,
            iteration_callback=lambda s: k_bars.append(s.k_bar)))
        assert r.exit_status == ":time_limit" and r.restarts == 1
        assert k_bars[-2] == restarted_at[0] and r.iterations == k_bars[-1]

    def test_numerical_error_on_injected_nan(self, monkeypatch):
        import conic_pdhg.engine as eng

        p = tiny_lp()
        calls = {"n": 0}
        orig = eng.cones.project_primal_set

        def poisoned(x, problem, settings=None):
            calls["n"] += 1
            if calls["n"] > 10:
                out = orig(x, problem)
                out[0] = math.nan
                return out
            return orig(x, problem)

        monkeypatch.setattr(eng.cones, "project_primal_set", poisoned)
        r = solve(p, SolverOptions(use_preconditioner=False))
        assert r.exit_code == 8 and r.exit_status == ":numerical_error"

    def test_reflection_parameter_rejects_nan_error(self):
        import conic_pdhg.termination as term

        rep = term.ErrorReport(*([math.nan] * 13))
        with pytest.raises(NumericalError):
            term.adaptive_reflection_parameter(rep)

    @pytest.mark.parametrize("verbose, print_freq", [(0, 2000), (1, 10)], ids=["check", "print"])
    def test_numerical_error_in_original_report(self, monkeypatch, verbose, print_freq):
        # After the entry check, the next report on the unscaled problem is
        # the first periodic scan or, with print_freq below the check
        # cadence, a print-only report; both must end with code 8.
        import conic_pdhg.engine as eng

        loop = eng._Loop(tiny_lp(), SolverOptions(verbose=verbose, print_freq=print_freq))
        calls = {"n": 0}
        orig = eng.term.compute_errors

        def failing(problem, *args, **kwargs):
            if problem is loop.work:
                calls["n"] += 1
                if calls["n"] > 1:
                    raise NumericalError("injected")
            return orig(problem, *args, **kwargs)

        monkeypatch.setattr(eng.term, "compute_errors", failing)
        r = loop.run()
        assert calls["n"] == 2
        assert r.exit_code == 8 and r.exit_status == ":numerical_error"

    def test_deterministic_iterates(self):
        p = tiny_lp()
        runs = []
        for _ in range(2):
            trace = []
            opts = SolverOptions(
                iteration_callback=lambda s: trace.append((s.z.x.copy(), s.z.y.copy(), s.eta))
            )
            solve(p, opts)
            runs.append(trace)
        assert len(runs[0]) == len(runs[1])
        for (x0, y0, e0), (x1, y1, e1) in zip(*runs):
            assert np.array_equal(x0, x1) and np.array_equal(y0, y1) and e0 == e1

    def test_no_restart_replays_reflected_halpern(self):
        # Without restarts every iteration is one PDHG step at the accepted
        # eta and the weight omega, followed by the reflected Halpern
        # combination with the anchor z0 = 0.
        p = tiny_lp()
        trace = []
        opts = SolverOptions(
            use_preconditioner=False,
            use_adaptive_restart=False,
            max_iter=200,
            rel_tol=1e-14,
            abs_tol=1e-14,
            iteration_callback=lambda s: trace.append(
                (IterateZ(s.z.x.copy(), s.z.y.copy()), s.k, s.eta, s.omega, s.beta)),
        )
        solve(p, opts)
        assert len(trace) > 100 and len({beta for *_, beta in trace}) > 1
        z = anchor = IterateZ(np.zeros(2), np.zeros(1))
        for recorded, k, eta, omega, beta in trace:
            z_hat = one_pdhg(p, z, eta / omega, eta * omega)
            a, b = k / (k + 1.0), 1.0 / (k + 1.0)  # k was incremented after the step
            z = IterateZ(
                a * ((1.0 + beta) * z_hat.x - beta * z.x) + b * anchor.x,
                a * ((1.0 + beta) * z_hat.y - beta * z.y) + b * anchor.y,
            )
            np.testing.assert_allclose(recorded.x, z.x, atol=1e-9)
            np.testing.assert_allclose(recorded.y, z.y, atol=1e-9)

    def test_engine_matvec_budget_per_iteration(self):
        p = tiny_lp()
        k_bars = []
        opts = SolverOptions(
            use_preconditioner=False,
            use_adaptive_restart=False,
            max_iter=30,
            rel_tol=1e-14,
            abs_tol=1e-14,
            iteration_callback=lambda s: k_bars.append(s.k_bar),
        )
        import conic_pdhg.engine as eng

        loop = eng._Loop(p, opts)
        loop.scaled.G.reset_counters()
        loop._run()
        # init (1+1), one G per line-search trial (k_bar counts them all),
        # one G^T per accepted iteration, final check refresh (1+1)
        assert k_bars[-1] == 30
        assert loop.scaled.G.n_matvec == 1 + k_bars[-1] + 1
        assert loop.scaled.G.n_rmatvec == 1 + len(k_bars) + 1

    def test_step_size_growth_bound_along_solve(self):
        p = tiny_lp()
        etas = []
        opts = SolverOptions(
            max_iter=300, rel_tol=1e-14, abs_tol=1e-14,
            iteration_callback=lambda s: etas.append((s.eta, s.eta_hat, s.k_bar)),
        )
        solve(p, opts)
        # the recorded k_bar includes the engine's +1 for the accepted step, so
        # the line search used (k_bar - 1 + 1) = k_bar in its growth factor
        for eta_used, eta_next, k_bar in etas:
            assert eta_next <= (1 + k_bar ** -0.6) * eta_used + 1e-15

    def test_validation(self):
        p = tiny_lp()
        with pytest.raises(ValueError):
            solve(p, SolverOptions(rel_tol=0.0))
        with pytest.raises(ValueError):
            solve(p, SolverOptions(initial_step_norm="spectral"))

    def test_method_option_is_gone(self):
        # the iterate is the only restart point
        with pytest.raises(TypeError):
            SolverOptions(method="halpern")

    def test_nan_time_limit_rejected(self):
        with pytest.raises(ValueError, match="time_limit"):
            SolverOptions(time_limit=math.nan).validate()

    def test_induced_inf_initial_step(self):
        p = tiny_lp()
        r = solve(p, SolverOptions(initial_step_norm="induced_inf"))
        assert r.exit_code == 0
        assert r.p_obj == pytest.approx(-2.0, abs=1e-5)

    def test_verbose_log_lines(self, capsys):
        p = tiny_lp()
        solve(p, SolverOptions(verbose=1, print_freq=2000))
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if "\t" in ln]
        assert lines, "expected tab-separated iteration log lines"
        assert len(lines[0].split("\t")) == 9

    def test_verbose_two_prints_preamble(self, capsys):
        p = tiny_lp()
        solve(p, SolverOptions(verbose=2))
        out = capsys.readouterr().out
        assert "n=2" in out and "m=1" in out

    def test_kkt_fallback_on_negative_gap(self, monkeypatch):
        # forcing negative gap outputs switches the restart metric to
        # the weighted KKT error; the solver must still reach optimality
        import conic_pdhg.engine as eng

        monkeypatch.setattr(eng.restarts, "normalized_gap", lambda *a, **k: -1.0)
        kkt_calls = {"n": 0}
        orig_kkt = eng._Loop._kkt_metric

        def spy(self, z, products, omega):
            kkt_calls["n"] += 1
            return orig_kkt(self, z, products, omega)

        monkeypatch.setattr(eng._Loop, "_kkt_metric", spy)
        p = tiny_lp()
        r = solve(p, SolverOptions(duality_gap_restart_freq=100))
        assert r.exit_code == 0
        assert r.p_obj == pytest.approx(-2.0, abs=1e-5)
        assert kkt_calls["n"] > 0  # the fallback metric was actually used

    def test_kkt_fallback_on_gap_evaluation_error(self, monkeypatch):
        import conic_pdhg.engine as eng
        from conic_pdhg.restart import GapEvaluationError

        def boom(*a, **k):
            raise GapEvaluationError("forced")

        monkeypatch.setattr(eng.restarts, "normalized_gap", boom)
        p = tiny_lp()
        r = solve(p, SolverOptions(duality_gap_restart_freq=100))
        assert r.exit_code == 0
        assert r.p_obj == pytest.approx(-2.0, abs=1e-5)

    def test_restarts_disabled_still_solves(self):
        # without restarts the anchored iteration converges only at a O(1/k)
        # rate, so ask for a loose tolerance within a bounded budget
        p = tiny_lp()
        r = solve(p, SolverOptions(
            use_adaptive_restart=False, rel_tol=1e-3, abs_tol=1e-3,
            duality_gap_restart_freq=200, max_iter=100_000,
        ))
        assert r.exit_code == 0
        assert r.p_obj == pytest.approx(-2.0, abs=1e-2)


# One instance per exit code the solve loop reaches, from criterion 9 of the
# acceptance tests: (code, problem, options, where a numerical failure is
# injected).
EXIT_CASES = {
    "optimal at entry": (0, lambda: box_lp([1.0], np.zeros((0, 1)), [], [0.0], [1.0]), {}, None),
    "optimal": (0, lambda: box_lp([-1.0], np.zeros((0, 1)), [], [0.0], [1.0]), {}, None),
    "max_iter": (1, tiny_lp, dict(max_iter=5, rel_tol=1e-12, abs_tol=1e-12), None),
    "primal infeasible low": (
        2,
        lambda: box_lp([0.0], [[1.0], [-1.0]], [1.0, 0.0], [-math.inf], [math.inf]),
        dict(duality_gap_restart_freq=10, use_preconditioner=False, use_adaptive_restart=False,
             eps_primal_infeasible_low_acc=1e-2, eps_primal_infeasible_high_acc=1e-300),
        None,
    ),
    "primal infeasible high": (
        3,
        lambda: box_lp([0.0], [[-1.0]], [1.0], [0.0], [math.inf], (ConeSpec(Cone.ZERO, 1),)),
        dict(duality_gap_restart_freq=50, use_preconditioner=False),
        None,
    ),
    "dual infeasible low": (
        4,
        lambda: box_lp([-1.0, 0.0], [[1.0, -1.0]], [0.0], [-math.inf, 0.0],
                       [math.inf, math.inf], (ConeSpec(Cone.ZERO, 1),)),
        dict(duality_gap_restart_freq=10, use_preconditioner=False, use_adaptive_restart=False,
             eps_dual_infeasible_low_acc=1e-1, eps_dual_infeasible_high_acc=1e-300),
        None,
    ),
    "dual infeasible high": (
        5,
        lambda: box_lp([-1.0], [[1.0]], [-1.0], [0.0], [math.inf]),
        dict(duality_gap_restart_freq=50, use_preconditioner=False),
        None,
    ),
    "time_limit at entry": (6, tiny_lp, dict(time_limit=1e-9, rel_tol=1e-12, abs_tol=1e-12), None),
    "numerical_error in a step": (8, tiny_lp, dict(use_preconditioner=False), "step"),
    "numerical_error in a scan": (8, tiny_lp, {}, "scan"),
}


@pytest.mark.parametrize("case", EXIT_CASES)
def test_exit_record(case, monkeypatch):
    """Every exit's record: the status of its code, the iterations counted at
    the last callback (0 when the entry scan exits) and both objectives of
    the returned point, bit for bit."""
    import itertools

    import conic_pdhg.engine as eng
    from conic_pdhg.model import dual_objective
    from conic_pdhg.termination import EXIT_STATUS, ErrorReport

    code, make, kw, failure = EXIT_CASES[case]
    k_bars = []
    if failure == "scan":
        # the report of the first scan after the entry scan reads non-finite
        scans = itertools.count()
        monkeypatch.setattr(ErrorReport, "is_finite", lambda self: next(scans) == 0)
    if failure == "step":
        # primal projections turn NaN once five iterations were accepted
        orig = eng.cones.project_primal_set

        def poisoned(x, problem, out=None):
            out = orig(x, problem, out)
            if len(k_bars) >= 5:
                out[0] = math.nan
            return out

        monkeypatch.setattr(eng.cones, "project_primal_set", poisoned)
    p = make()
    r = solve(p, SolverOptions(iteration_callback=lambda state: k_bars.append(state.k_bar), **kw))
    assert r.exit_code == code
    assert r.exit_status == EXIT_STATUS[code]
    assert (not k_bars) == case.endswith("at entry")
    assert r.iterations == (k_bars[-1] if k_bars else 0)
    assert r.p_obj.hex() == float(np.dot(p.c, r.x)).hex()
    assert r.d_obj.hex() == dual_objective(p, r.y, r.lam).hex()


class TestGapAlongSolve:
    def test_gap_positive_far_from_optimum_small_at_optimum(self):
        from conic_pdhg.linalg import WeightedNormContext, n_norm
        from conic_pdhg.restart import GapQuery, normalized_gap
        import conic_pdhg.cones as cones

        p = tiny_lp()
        ctx = WeightedNormContext(1.0, 0.25)

        def gap_at(x, y, anchor_x, anchor_y):
            gx = p.G.matvec(x)
            gty = p.G.rmatvec(y)
            r = n_norm(x - anchor_x, y - anchor_y, ctx)
            q = GapQuery(
                x=x, y=y, b1=gty - p.c, b2=p.h - gx, r=r, ctx=ctx,
                proj_x=lambda v: cones.project_primal_set(v, p),
                proj_y=lambda v: cones.project_dual_set(v, p),
            )
            return normalized_gap(q)

        # far from the optimum the gap is clearly positive
        val = gap_at(np.zeros(2), np.zeros(1), np.array([0.3, 0.3]), np.array([0.1]))
        assert val > 1e-3
        # at the certified optimum (x=(1,1), y=0) it collapses
        x_opt, y_opt = np.array([1.0, 1.0]), np.zeros(1)
        val_opt = gap_at(x_opt, y_opt, np.zeros(2), np.ones(1))
        assert abs(val_opt) <= 1e-7
