"""The per-iteration path of the solve loop.

The reflection parameter comes from the candidate's error report on the
scaled problem, evaluated at the first iteration of every inner loop and
every 64 iterations, and each accepted iteration updates flat
[x; y; G x; G^T y] buffers in place.  These tests compare the in-place
updates with the allocating formulas in `oracles`: the average bit for
bit, the three-pass Halpern update to a rounding bound per entry and, over
the first iterations of a solve, along the loop's trajectory; check that
a restart, after a gap check or a KKT fallback check, moves the anchor to
the iterate and updates the primal weight from the anchor's move, that
the loop forms no average, that the weighted
KKT error is evaluated only as the fallback of a failed gap evaluation, at
the check's primal weight, and that the restart checks' gap from the
loop's products and from the anchor's move is the gap from fresh ones; and
count the error reports a solve makes and check when beta is evaluated.
"""

import tracemalloc

import numpy as np
import pytest

from oracles import halpern_step_allocating, weighted_average_allocating
from test_engine import tiny_lp
from traces import failing_every

import conic_pdhg.engine as eng
from conic_pdhg import restart as restarts
from conic_pdhg import termination as term
from conic_pdhg.engine import IterateZ, SolverOptions, reflected_halpern_step, update_weighted_average
from conic_pdhg.linalg import SparseMatrix, WeightedNormContext, n_norm
from conic_pdhg.model import Cone, ConeSpec, ConicProblem

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def extreme(rng, n):
    """Random signs and magnitudes 10^[-300, 300], with some +-0 entries."""
    v = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
    v[rng.random(n) < 0.1] = 0.0
    v[rng.random(n) < 0.1] = -0.0
    return v


def moderate(rng, n):
    return rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def assert_same_bits(a, b):
    np.testing.assert_array_equal(bits(a), bits(b))


def same_float(a, b):
    return bits(np.array([a]))[0] == bits(np.array([b]))[0]


# ---------------------------------------------------------------------------
# In-place vector updates against the allocating formulas
# ---------------------------------------------------------------------------


def pair(rng, n, m, draw):
    return IterateZ(draw(rng, n), draw(rng, m))


def flat(z):
    return np.concatenate(z)


@pytest.mark.parametrize("draw", [extreme, moderate], ids=["1e-300..1e300", "moderate"])
def test_halpern_step_equals_allocating_formula(draw):
    # The three-pass update rounds differently from the formula's six
    # operations.  Per entry, each differs from the exact value by at most
    # 2 eps per term to first order, after the rounding of a and 1 + beta
    # that both share, so the two lie within 4 eps of the terms' magnitudes
    # of each other, plus a few subnormal units of underflow.
    eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).smallest_subnormal
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 12)), int(rng.integers(0, 12))
        z_hat, z_old, anchor = (pair(rng, n, m, draw) for _ in range(3))
        k = int(rng.integers(0, 10**6)) if seed % 3 else int(rng.integers(0, 3))
        beta = (0.0, 1.0, float(rng.uniform()))[seed % 3]
        ref = flat(halpern_step_allocating(z_hat, z_old, anchor, k, beta))

        zh, zo, za = flat(z_hat), flat(z_old), flat(anchor)
        a, b = (k + 1.0) / (k + 2.0), 1.0 / (k + 2.0)
        tol = 4 * eps * (np.abs(a * (1.0 + beta) * zh) + np.abs(a * beta * zo)
                         + np.abs(b * za)) + 8 * tiny
        out = np.full(n + m, np.nan)
        assert reflected_halpern_step(zh, zo, za, k, beta, out=out) is out
        assert np.all(np.abs(out - ref) <= tol)
        # the solve loop's call: the result overwrites z_old, with the same bits
        assert reflected_halpern_step(zh, zo, za, k, beta, out=zo) is zo
        assert_same_bits(zo, out)
        assert_same_bits(zh, flat(z_hat))
        assert_same_bits(za, flat(anchor))


@pytest.mark.parametrize("draw", [extreme, moderate], ids=["1e-300..1e300", "moderate"])
def test_weighted_average_equals_allocating_formula(draw):
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 12)), int(rng.integers(0, 12))
        z_bar, z_new = pair(rng, n, m, draw), pair(rng, n, m, draw)
        weight = (0.0, float(10.0 ** rng.uniform(-8, 8)))[seed % 2]
        eta = float(10.0 ** rng.uniform(-8, 8))
        ref, ref_total = weighted_average_allocating(z_bar, weight, z_new, eta)

        zb, zn = flat(z_bar), flat(z_new)
        out, scratch = np.full(n + m, np.nan), np.full(n + m, np.nan)
        got, total = update_weighted_average(zb, weight, zn, eta, out=out, scratch=scratch)
        assert got is out and same_float(total, ref_total)
        assert_same_bits(out, flat(ref))
        # the solve loop's call: the result overwrites z_bar
        got, total = update_weighted_average(zb, weight, zn, eta, out=zb, scratch=scratch)
        assert got is zb and same_float(total, ref_total)
        assert_same_bits(zb, flat(ref))
        assert_same_bits(zn, flat(z_new))


@pytest.mark.parametrize("mode", ["default", "no preconditioner", "no restarts",
                                  "no preconditioner, induced-inf initial step",
                                  "every gap failing"])
@pytest.mark.parametrize("name", ["feasible lp", "primal-infeasible lp", "dual-infeasible lp",
                                  "planted conic 1", "planted conic 2", "planted conic 3"])
def test_trajectory_follows_the_six_operation_update(name, mode, monkeypatch):
    # The three-pass update rounds differently from the formula's order of
    # operations, and nothing else: over the first 40 iterations, before
    # any restart check, the iterates stay close to those of a loop that
    # runs the six-operation oracle (the bits of the six-pass update it
    # replaced), with the same k_bar.  The line search's curvature quotient
    # amplifies rounding differences: most solves part by under 1e-12, the
    # feasible LP without the preconditioner by 2.2e-10 at k_bar 34 after
    # growing 3-5 times per iteration from k_bar 30, hence 1e-9.  With
    # every gap evaluation failing, the loop starts in the weighted KKT
    # fallback from its first baseline and stays in it.
    from bitwise_digests import PROBLEMS
    from test_termination_scan import MODES

    options = {**MODES, "no preconditioner, induced-inf initial step": dict(
        use_preconditioner=False, initial_step_norm="induced_inf")}

    def six_operations(z_hat, z_old, z_anchor, k, beta, out):
        out[:] = halpern_step_allocating((z_hat,), (z_old,), (z_anchor,), k, beta)[0]
        return out

    def trajectory(step):
        seen, modes = [], set()

        def record(s):
            seen.append((s.k_bar, np.concatenate(s.z)))
            modes.add(s.mode)

        with monkeypatch.context() as mp:
            if step is not None:
                mp.setattr(eng, "reflected_halpern_step", step)
            if mode == "every gap failing":
                mp.setattr(restarts, "normalized_gap", failing_every(1))
            eng.solve(PROBLEMS[name](), SolverOptions(
                max_iter=40, rel_tol=1e-14, abs_tol=1e-14, **options.get(mode, {}),
                iteration_callback=record))
        assert modes == ({"kkt"} if mode == "every gap failing" else {"gap"})
        return seen

    new, old = trajectory(None), trajectory(six_operations)
    assert [k for k, _ in new] == [k for k, _ in old] and new[-1][0] == 40
    for (_, z_new), (_, z_old) in zip(new, old):
        assert np.linalg.norm(z_new - z_old) <= 1e-9 * np.linalg.norm(z_old)


def test_empty_average_takes_the_new_point():
    zn = np.array([1.0, -2.0, 3.0])
    out = np.zeros(3)
    got, total = update_weighted_average(np.full(3, np.nan), 0.0, zn, 0.5,
                                         out=out, scratch=np.full(3, np.nan))
    assert got is out and total == 0.5
    np.testing.assert_array_equal(out, zn)


def test_in_place_updates_allocate_no_vectors():
    size = 200_000  # 1.6 MB per vector
    rng = np.random.default_rng(0)
    zh, zo, za, scratch = (rng.standard_normal(size) for _ in range(4))
    zb = rng.standard_normal(size)
    tracemalloc.start()
    try:
        reflected_halpern_step(zh, zo, za, 5, 0.3, out=zo)
        update_weighted_average(zb, 1.5, zo, 0.25, out=zb, scratch=scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * size // 10


def test_step_with_buffers_allocates_no_vectors():
    # products go straight into the step's buffers and the projections
    # write into the candidate, so no vector is allocated and copied
    import scipy.sparse as sp

    n, m = 200_000, 100_000
    rng = np.random.default_rng(1)
    g = sp.random(m, n, density=2.0 / m, format="csc", random_state=rng)
    x0 = rng.uniform(-1.0, 1.0, n)
    p = ConicProblem(c=rng.standard_normal(n), G=SparseMatrix(g), h=g @ x0 - 0.5,
                     l=np.full(n, -2.0), u=np.full(n, 3.0), num_box=n,
                     dual_cones=(ConeSpec(Cone.NONNEG, m),))
    z = IterateZ(np.zeros(n), np.zeros(m))
    gx, gty = p.G.matvec(z.x), p.G.rmatvec(z.y)
    out, workspace = np.empty(n + 2 * m), eng.StepWorkspace.allocate(n, m)
    step = eng.adaptive_step_pdhg(p, z, 1.0, 1.0, 1, gty=gty, gx=gx, out=out, workspace=workspace)
    tracemalloc.start()
    try:
        step = eng.adaptive_step_pdhg(p, z, 1.0, step.eta_next, 2, gty=gty, gx=gx,
                                      out=out, workspace=workspace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert step.z_hat.x.base is out and step.z_hat.y.base is out
    assert peak < 8 * m // 10


# ---------------------------------------------------------------------------
# The solve loop
# ---------------------------------------------------------------------------


def random_lp(seed, n=10, m=7):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m, n))
    g[rng.random((m, n)) < 0.4] = 0.0
    x0 = rng.uniform(-1.0, 1.0, n)
    return ConicProblem(
        c=rng.standard_normal(n), G=SparseMatrix(g), h=g @ x0 - rng.uniform(0.1, 1.0, m),
        l=np.full(n, -2.0), u=np.full(n, 3.0), num_box=n,
        dual_cones=(ConeSpec(Cone.NONNEG, m),),
    )


RESTART_METRICS = pytest.mark.parametrize("every", [None, 1], ids=["gap", "kkt fallback"])


def fail_gaps(monkeypatch, every):
    """With `every` set, make every `every`-th gap evaluation fail, so that
    the restart checks run the weighted KKT fallback."""
    if every is not None:
        monkeypatch.setattr(restarts, "normalized_gap", failing_every(every))


@RESTART_METRICS
def test_restart_updates_primal_weight_from_new_and_previous_anchor(every, monkeypatch):
    # The loop overwrites the anchor buffer at a restart, so the anchor's
    # move must be taken before the new anchor is written; the primal-weight
    # update reads the norms of that move.
    fail_gaps(monkeypatch, every)
    seen = []
    opts = SolverOptions(
        duality_gap_restart_freq=40, max_iter=3000, rel_tol=1e-12, abs_tol=1e-12,
        iteration_callback=lambda s: seen.append(
            (s.t, s.omega, IterateZ(s.z_anchor.x.copy(), s.z_anchor.y.copy()))
        ),
    )
    loop = eng._Loop(random_lp(7), opts)
    loop.run()
    moved = 0
    for (t0, omega0, old), (t1, omega1, new) in zip(seen, seen[1:]):
        if t1 == t0:
            assert omega1 == omega0
            continue
        assert t1 == t0 + 1
        dx = float(np.linalg.norm(new.x - old.x))
        dy = float(np.linalg.norm(new.y - old.y))
        assert omega1 == restarts.update_primal_weight(dx, dy, omega0, loop.omega_init)
        moved += dx > 1e-10 and dy > 1e-10 and omega1 != omega0
    assert moved >= 3


@RESTART_METRICS
def test_restart_point_is_the_methods_candidate(every, monkeypatch):
    # A restart makes the iterate the last callback saw the new anchor, bit
    # for bit, whichever metric the check compared.  The loop forms no
    # average.
    fail_gaps(monkeypatch, every)
    calls = {"n": 0}
    real = eng.update_weighted_average

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(eng, "update_weighted_average", counting)
    seen = []  # (t, iterate, anchor) at every callback

    def record(s):
        seen.append((s.t, np.concatenate(s.z), np.concatenate(s.z_anchor)))

    eng.solve(random_lp(7), SolverOptions(
        duality_gap_restart_freq=40, max_iter=3000, rel_tol=1e-12, abs_tol=1e-12,
        iteration_callback=record,
    ))
    restarted = 0
    for (t0, z, _), (t1, _, anchor) in zip(seen, seen[1:]):
        if t1 != t0:
            assert_same_bits(anchor, z)
            restarted += 1
    assert restarted >= 3 and calls["n"] == 0


@RESTART_METRICS
def test_products_formed_at_a_restart(every, monkeypatch):
    # The check before a restart refreshed the iterate's products, so a
    # restart keeps them and forms none: the iterate's and the anchor's
    # products are fresh ones, bit for bit, whichever metric the check
    # compared.
    fail_gaps(monkeypatch, every)
    spent = []
    real = eng._Loop._do_restart

    def counted(self, state, cand_val):
        g = self.scaled.G
        before = (g.n_matvec, g.n_rmatvec)
        real(self, state, cand_val)
        spent.append((g.n_matvec - before[0], g.n_rmatvec - before[1]))
        for products in (self.products, self.anchor_products):
            assert_same_bits(products.x, g.matvec(state.z.x))
            assert_same_bits(products.y, g.rmatvec(state.z.y))

    monkeypatch.setattr(eng._Loop, "_do_restart", counted)
    r = eng.solve(random_lp(7), SolverOptions(duality_gap_restart_freq=40, max_iter=3000,
                                              rel_tol=1e-12, abs_tol=1e-12))
    assert r.restarts >= 3 and len(spent) == r.restarts
    assert set(spent) == {(0, 0)}


def test_step_workspace_leaves_the_bits(monkeypatch):
    # adaptive_step_pdhg gives the same step with a loop-owned workspace
    # (filled with NaN, and reused across calls) as with fresh buffers
    rng = np.random.default_rng(11)
    p = random_lp(3)
    workspace = eng.StepWorkspace(*(np.full(v.size, np.nan) for v in
                                    eng.StepWorkspace.allocate(p.n, p.m)))
    rejected = 0
    for _ in range(50):
        z = IterateZ(rng.uniform(-2.0, 3.0, p.n), rng.uniform(0.0, 2.0, p.m))
        eta, k_bar = float(10.0 ** rng.uniform(-2, 1)), int(rng.integers(1, 100))
        fresh = eng.adaptive_step_pdhg(p, z, 1.3, eta, k_bar)
        out = np.full(p.n + 2 * p.m, np.nan)
        reused = eng.adaptive_step_pdhg(p, z, 1.3, eta, k_bar, out=out, workspace=workspace)
        assert reused[1:] == fresh[1:]
        assert_same_bits(np.concatenate(reused.z_hat), np.concatenate(fresh.z_hat))
        assert_same_bits(reused.z_hat.x, out[:p.n])
        rejected += fresh.trials > 1
    assert rejected > 0


@pytest.mark.parametrize("every", [1, 2, 3])
def test_kkt_error_is_evaluated_only_after_a_gap_evaluation_fails(every, monkeypatch):
    # The weighted KKT error is only the gap's fallback: a default solve
    # never evaluates it, and one whose every `every`-th gap evaluation
    # fails evaluates it right after each failure, for the anchor's
    # baseline and then for a candidate.  With every evaluation failing,
    # the fallback alone carries the solve's restarts.
    events = []
    real_kkt = restarts.kkt_omega

    def kkt_omega(*args):
        events.append("kkt")
        return real_kkt(*args)

    monkeypatch.setattr(restarts, "kkt_omega", kkt_omega)
    r = eng.solve(random_lp(5, n=6, m=4), SolverOptions())
    assert r.exit_status == ":optimal" and r.restarts > 0 and events == []

    failing = failing_every(every)

    def normalized_gap(*args, **kwargs):
        try:
            return failing(*args, **kwargs)
        except restarts.GapEvaluationError:
            events.append("gap failed")
            raise

    monkeypatch.setattr(restarts, "normalized_gap", normalized_gap)
    r = eng.solve(random_lp(5, n=6, m=4), SolverOptions())
    assert r.exit_status == ":optimal" and events[0] == "gap failed"
    failures = [i for i, event in enumerate(events) if event == "gap failed"]
    assert all(events[i + 1:i + 3] == ["kkt", "kkt"] for i in failures)


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_gap_from_the_loops_products_equals_the_gap_from_fresh_ones(seed, monkeypatch):
    # At every restart check the iterate's products were just refreshed and
    # the anchor's were refreshed at the last restart, so the gap the loop
    # computes from them must be the gap from freshly formed products, bit
    # for bit: for the iterate against the anchor, and for the anchor over
    # the ball through the previous anchor, the baseline a gap-mode check
    # forms after a KKT-mode restart.  Every third gap evaluation fails, so
    # that KKT-mode restarts happen.  Checks every 20 iterations give each
    # seed at least 10 gap-mode checks before it converges.
    anchors = []  # the anchor of every outer loop, copied by the callback
    state_of = {}
    checked = {"iterate": 0, "anchor": 0}
    failing = {"on": True, "calls": 0}
    real_gap = restarts.normalized_gap
    real_check = eng._Loop._restart_check
    real_metric = eng._Loop._gap_metric

    def record(state):
        state_of["state"] = state
        if len(anchors) == state.t:
            anchors.append(IterateZ(state.z_anchor.x.copy(), state.z_anchor.y.copy()))

    def failing_gap(*args, **kwargs):
        if failing["on"]:
            failing["calls"] += 1
            if failing["calls"] % 3 == 0:
                raise restarts.GapEvaluationError("forced")
        return real_gap(*args, **kwargs)

    def fresh_gap(loop, z, ref, ctx):
        failing["on"] = False
        try:
            products = IterateZ(loop.scaled.G.matvec(z.x), loop.scaled.G.rmatvec(z.y))
            return real_metric(loop, z, n_norm(z.x - ref.x, z.y - ref.y, ctx), ctx, products)
        finally:
            failing["on"] = True

    def check_spy(self, state):
        if state.mode == "gap":
            ctx = WeightedNormContext(state.omega, state.eta)
            z = state.z
            assert_same_bits(self.products.x, self.scaled.G.matvec(z.x))
            assert_same_bits(self.products.y, self.scaled.G.rmatvec(z.y))
            cached = real_metric(
                self, z, n_norm(z.x - state.z_anchor.x, z.y - state.z_anchor.y, ctx), ctx,
                self.products,
            )
            assert cached != 0.0 and same_float(cached, fresh_gap(self, z, state.z_anchor, ctx))
            checked["iterate"] += 1
        return real_check(self, state)

    def metric_spy(self, z, radius, ctx, products):
        value = real_metric(self, z, radius, ctx, products)
        if products is self.anchor_products:
            state = state_of["state"]
            assert_same_bits(self.anchor_products.x, self.scaled.G.matvec(z.x))
            assert_same_bits(self.anchor_products.y, self.scaled.G.rmatvec(z.y))
            assert_same_bits(z.x, anchors[state.t].x)
            assert_same_bits(z.y, anchors[state.t].y)
            assert value != 0.0 and same_float(value, fresh_gap(self, z, anchors[state.t - 1], ctx))
            checked["anchor"] += 1
        return value

    monkeypatch.setattr(restarts, "normalized_gap", failing_gap)
    monkeypatch.setattr(eng._Loop, "_restart_check", check_spy)
    monkeypatch.setattr(eng._Loop, "_gap_metric", metric_spy)
    r = eng.solve(random_lp(seed), SolverOptions(duality_gap_restart_freq=20, max_iter=2000,
                                                 rel_tol=1e-12, abs_tol=1e-12,
                                                 iteration_callback=record))
    assert r.restarts >= 3
    assert checked["iterate"] >= 10 and checked["anchor"] >= 5


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_kkt_fallback_weighs_at_the_checks_primal_weight(seed, monkeypatch):
    # In the fallback the baseline is the anchor's weighted KKT error at the
    # check's own primal weight, and it holds for the rest of the inner
    # loop because omega changes only at restarts.  A restart in the
    # fallback leaves no baseline, so the next check returns to the gap,
    # starting with the anchor's gap at the new weight.
    seen = {"kkt checks": 0, "gap checks after a kkt restart": 0}
    now = {"gap_metric_calls": []}
    real_check = eng._Loop._restart_check
    real_should = restarts.should_restart
    real_metric = eng._Loop._gap_metric

    def check_spy(self, state):
        after_kkt_restart = state.last_restart_metric is None
        if after_kkt_restart:
            assert state.t > 0 and state.mode == "gap"
        now.update(loop=self, state=state, gap_metric_calls=[])
        omega = state.omega
        real_check(self, state)
        if after_kkt_restart:
            assert now["gap_metric_calls"][0] == (True, omega)
            seen["gap checks after a kkt restart"] += 1

    def metric_spy(self, z, radius, ctx, products):
        now["gap_metric_calls"].append((products is self.anchor_products, ctx.omega))
        return real_metric(self, z, radius, ctx, products)

    def should_spy(cand_val, prev, baseline, k, k_bar):
        state, scaled = now["state"], now["loop"].scaled
        if state.mode == "kkt":
            report = term.compute_errors(scaled, state.z_anchor.x, state.z_anchor.y)
            assert same_float(baseline, restarts.kkt_omega(report, state.omega))
            seen["kkt checks"] += 1
        return real_should(cand_val, prev, baseline, k, k_bar)

    monkeypatch.setattr(restarts, "normalized_gap", failing_every(3))
    monkeypatch.setattr(restarts, "should_restart", should_spy)
    monkeypatch.setattr(eng._Loop, "_restart_check", check_spy)
    monkeypatch.setattr(eng._Loop, "_gap_metric", metric_spy)
    eng.solve(random_lp(seed), SolverOptions(duality_gap_restart_freq=20, max_iter=2000,
                                             rel_tol=1e-12, abs_tol=1e-12))
    assert seen["kkt checks"] >= 5 and seen["gap checks after a kkt restart"] >= 3


def test_digests_show_a_kkt_fallback_that_keeps_the_iterates():
    # On this solve every forced gap failure falls back to a KKT-mode check
    # that restarts where the gap would have, so the iterates, the status
    # and the iteration count stay those of the plain solve.  The fallback
    # still leaves other restart bookkeeping, which the digests must show.
    from bitwise_digests import PROBLEMS, solve_digest

    plain = solve_digest(PROBLEMS["feasible lp"](), 3000, 200, "default")
    failing = solve_digest(PROBLEMS["feasible lp"](), 3000, 200, "default", fail_gap_every=3)
    assert plain[:2] == failing[:2] == (":optimal", 576)
    assert plain[2] != failing[2]


def counting_error_reports(loop, monkeypatch):
    """Patch `termination.compute_errors` to count its calls on the loop's
    unscaled problem (termination scans) and on its scaled problem (the
    reflection parameter and the KKT restart metric)."""
    calls = {"work": 0, "scaled": 0}
    real = term.compute_errors

    def counting(problem, *args, **kwargs):
        if problem is loop.work:
            calls["work"] += 1
        elif problem is loop.scaled:
            calls["scaled"] += 1
        return real(problem, *args, **kwargs)

    monkeypatch.setattr(term, "compute_errors", counting)
    return calls


def test_error_reports_only_at_entry_checks_and_reflection_evaluations(monkeypatch):
    opts = SolverOptions(
        use_adaptive_restart=False,
        duality_gap_restart_freq=10, max_iter=30, rel_tol=1e-14, abs_tol=1e-14,
    )
    loop = eng._Loop(tiny_lp(), opts)
    calls = counting_error_reports(loop, monkeypatch)
    r = loop.run()
    assert r.iterations == 30 and r.exit_status == ":max_iter"
    # the entry scan and the checks at iterations 10, 20 and 30
    assert calls["work"] == 1 + 3
    # the reflection parameter at the first iteration only: no restart runs
    # and no multiple of _REFLECTION_FREQ falls within 30 iterations
    assert calls["scaled"] == 1


@pytest.mark.parametrize("jump", [False, True], ids=["no jump", "jump from 63 to 65"])
def test_reflection_parameter_schedule(jump, monkeypatch):
    # beta is evaluated at the first iteration of every inner loop and at the
    # first k_bar at or past each multiple of 64, from the candidate's
    # error report, and held in between.  The candidate buffer still holds
    # [x_hat; y_hat; G x_hat; G^T y_hat] when the callback runs.
    from test_termination_scan import jump_over_64

    if jump:
        jump_over_64(monkeypatch)
    real = term.compute_errors
    seen = []
    last = {"k_bar": 0, "calls": 0, "beta": None}

    def record(state):
        # the gap-mode checks of this solve form no error report on the
        # scaled problem, so every such report is a reflection evaluation
        evaluated = calls["scaled"] > last["calls"]
        expected = (state.k == 1
                    or state.k_bar // eng._REFLECTION_FREQ > last["k_bar"] // eng._REFLECTION_FREQ)
        assert evaluated == expected and calls["scaled"] - last["calls"] <= 1
        if evaluated:
            (x_hat, y_hat), (gx_hat, gty_hat) = loop._split(loop.candidate)
            beta = term.adaptive_reflection_parameter(
                real(loop.scaled, x_hat, y_hat, gx_hat, gty_hat))
            assert same_float(state.beta, beta)
        else:
            assert same_float(state.beta, last["beta"])
        seen.append((state.k_bar, state.k, evaluated))
        last.update(k_bar=state.k_bar, calls=calls["scaled"], beta=state.beta)

    opts = SolverOptions(duality_gap_restart_freq=40, max_iter=400, rel_tol=1e-14,
                         abs_tol=1e-14, iteration_callback=record)
    loop = eng._Loop(random_lp(7), opts)
    calls = counting_error_reports(loop, monkeypatch)
    r = loop.run()
    assert r.exit_status == ":max_iter" and r.restarts >= 2
    k_bars = [k for k, _, _ in seen]
    assert (64 not in k_bars and 65 in k_bars) if jump else 64 in k_bars
    evaluated_at = [k for k, _, ev in seen if ev]
    assert (65 if jump else 64) in evaluated_at
    # restarts away from the multiples of 64 evaluate too
    assert any(k % 64 and inner == 1 and k > 1 for k, inner, _ in seen)
    assert len(evaluated_at) < len(seen) // 10


def test_line_search_product_budget_along_solve(monkeypatch):
    # One G product per line-search trial and one G^T product per accepted
    # step, plus one of each at the start and at the final check.
    steps = {"accepted": 0, "trials": 0}
    real = eng.adaptive_step_pdhg

    def counted(*args, **kwargs):
        res = real(*args, **kwargs)
        steps["accepted"] += 1
        steps["trials"] += res.trials
        return res

    monkeypatch.setattr(eng, "adaptive_step_pdhg", counted)
    loop = eng._Loop(random_lp(7), SolverOptions(use_adaptive_restart=False, max_iter=30))
    loop.scaled.G.reset_counters()
    r = loop.run()
    assert r.exit_status == ":max_iter" and r.iterations == 30
    # rejected trials advance k_bar too, so fewer steps than iterations
    assert steps["trials"] > steps["accepted"]
    assert loop.scaled.G.n_matvec == 2 + steps["trials"]
    assert loop.scaled.G.n_rmatvec == 2 + steps["accepted"]
