"""The per-iteration path of the solve loop.

The reflection parameter comes from the three 1-norm relative metrics
(`termination.relative_errors`), evaluated at the first iteration of every
inner loop and every 64 iterations, and each accepted iteration updates
flat [x; y; G x; G^T y] buffers in place.  These tests compare the relative
metrics with `compute_errors` and the in-place updates with the allocating
formulas in `oracles`, bit for bit; check that a restart updates the
primal weight from the anchor's move, that `use_kkt_restart` alone selects
KKT restarts, and that the restart checks' gap from the loop's products and
from the anchor's move is the gap from fresh ones; and count the full
error reports a solve makes and check when beta is evaluated.
"""

import math
import tracemalloc

import numpy as np
import pytest

from oracles import halpern_step_allocating, weighted_average_allocating
from test_engine import tiny_lp

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


def scaled(rng, n):
    """One magnitude 10^[-150, 150] per vector, so that products stay finite."""
    return rng.standard_normal(n) * 10.0 ** rng.uniform(-150, 150)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def assert_same_bits(a, b):
    np.testing.assert_array_equal(bits(a), bits(b))


def same_float(a, b):
    return bits(np.array([a]))[0] == bits(np.array([b]))[0]


# ---------------------------------------------------------------------------
# relative_errors against compute_errors
# ---------------------------------------------------------------------------


def random_conic_problem(rng, draw):
    """Box variables in all four finiteness classes, soc/exp/dual-exp blocks
    on the primal and the dual side, entries drawn by `draw`."""
    nb = 8
    lo, hi = np.sort(np.vstack([draw(rng, nb), draw(rng, nb)]), axis=0)
    cls = rng.permutation(np.arange(nb) % 4)
    lo[cls >= 2] = -math.inf
    hi[(cls == 1) | (cls == 3)] = math.inf
    primal = (ConeSpec(Cone.SOC, int(rng.integers(2, 5))), ConeSpec(Cone.EXP, 3),
              ConeSpec(Cone.DUAL_EXP, 3))
    dual = (ConeSpec(Cone.ZERO, 2), ConeSpec(Cone.NONNEG, 3),
            ConeSpec(Cone.SOC, int(rng.integers(2, 5))), ConeSpec(Cone.EXP, 3),
            ConeSpec(Cone.DUAL_EXP, 3))
    n = nb + sum(s.dim for s in primal)
    m = sum(s.dim for s in dual)
    g = draw(rng, m * n).reshape(m, n)
    g[rng.random((m, n)) < 0.5] = 0.0
    return ConicProblem(c=draw(rng, n), G=SparseMatrix(g), h=draw(rng, m), l=lo, u=hi,
                        num_box=nb, primal_cones=primal, dual_cones=dual)


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type: both paths must fail alike
        return type(exc)


@pytest.mark.parametrize("draw", [extreme, scaled, moderate],
                         ids=["1e-300..1e300", "1e-150..1e150", "moderate"])
def test_relative_errors_equal_compute_errors(draw):
    for seed in range(150):
        rng = np.random.default_rng(seed)
        p = random_conic_problem(rng, draw)
        x, y = draw(rng, p.n), draw(rng, p.m)
        gx, gty = (draw(rng, p.m), draw(rng, p.n)) if seed % 2 else (p.G.matvec(x), p.G.rmatvec(y))
        full = outcome(term.compute_errors, p, x, y, gx, gty)
        rel = outcome(term.relative_errors, p, x, y, gx, gty)
        if isinstance(full, type):
            assert rel is full, seed
            continue
        assert isinstance(rel, term.RelativeErrors), seed
        for name in term.RelativeErrors._fields:
            assert same_float(getattr(rel, name), getattr(full, name)), (seed, name)
        assert same_float(term.max_err(rel), term.max_err(full)), seed


# ---------------------------------------------------------------------------
# In-place vector updates against the allocating formulas
# ---------------------------------------------------------------------------


def pair(rng, n, m, draw):
    return IterateZ(draw(rng, n), draw(rng, m))


def flat(z):
    return np.concatenate(z)


@pytest.mark.parametrize("draw", [extreme, moderate], ids=["1e-300..1e300", "moderate"])
def test_halpern_step_equals_allocating_formula(draw):
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 12)), int(rng.integers(0, 12))
        z_hat, z_old, anchor = (pair(rng, n, m, draw) for _ in range(3))
        k = int(rng.integers(0, 10**6)) if seed % 3 else int(rng.integers(0, 3))
        beta = (0.0, 1.0, float(rng.uniform()))[seed % 3]
        ref = halpern_step_allocating(z_hat, z_old, anchor, k, beta)

        zh, zo, za = flat(z_hat), flat(z_old), flat(anchor)
        out, scratch = np.full(n + m, np.nan), np.full(n + m, np.nan)
        assert reflected_halpern_step(zh, zo, za, k, beta, out=out, scratch=scratch) is out
        assert_same_bits(out, flat(ref))
        # the solve loop's call: the result overwrites z_old
        assert reflected_halpern_step(zh, zo, za, k, beta, out=zo, scratch=scratch) is zo
        assert_same_bits(zo, flat(ref))
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
        reflected_halpern_step(zh, zo, za, 5, 0.3, out=zo, scratch=scratch)
        update_weighted_average(zb, 1.5, zo, 0.25, out=zb, scratch=scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * size // 10


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


@pytest.mark.parametrize("method", ["halpern", "average"])
def test_restart_updates_primal_weight_from_new_and_previous_anchor(method):
    # The loop overwrites the anchor buffer at a restart, so the anchor's
    # move must be taken before the new anchor is written; the primal-weight
    # update reads the norms of that move.
    seen = []
    opts = SolverOptions(
        method=method, duality_gap_restart_freq=40, max_iter=3000,
        rel_tol=1e-12, abs_tol=1e-12,
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
        assert omega1 == restarts.update_primal_weight(
            dx, dy, omega0, loop.omega_init, restarts.RestartConstants())
        moved += dx > 1e-10 and dy > 1e-10 and omega1 != omega0
    assert moved >= 3


def test_kkt_restart_option_alone_selects_kkt_restarts(monkeypatch):
    calls = {"kkt_omega": 0, "normalized_gap": 0}
    for name in calls:
        real = getattr(restarts, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(restarts, name, counting)
    r = eng.solve(random_lp(5, n=6, m=4), SolverOptions(use_kkt_restart=True))
    assert r.exit_status == ":optimal"
    assert calls["kkt_omega"] > 0 and calls["normalized_gap"] == 0


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_gap_from_the_loops_products_equals_the_gap_from_fresh_ones(seed, monkeypatch):
    # At every restart check the iterate's products were just refreshed and
    # the anchor's were refreshed at the last restart, so the gap the loop
    # computes from them must be the gap from freshly formed products, bit
    # for bit: for the iterate against the anchor, and for the anchor over
    # the ball through the previous anchor, the baseline a gap-mode check
    # forms after a KKT-mode restart.  Every third gap evaluation fails, so
    # that KKT-mode restarts happen.
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
            anchors.append(state.z_anchor.copy())

    def failing_gap(*args, **kwargs):
        if failing["on"]:
            failing["calls"] += 1
            if failing["calls"] % 3 == 0:
                raise restarts.GapEvaluationError("forced")
        return real_gap(*args, **kwargs)

    def fresh_gap(loop, z, ref, ctx):
        failing["on"] = False
        try:
            return real_metric(loop, z, n_norm(z.x - ref.x, z.y - ref.y, ctx), ctx)
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

    def metric_spy(self, z, radius, ctx, products=None):
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
    r = eng.solve(random_lp(seed), SolverOptions(duality_gap_restart_freq=40, max_iter=2000,
                                                 rel_tol=1e-12, abs_tol=1e-12,
                                                 iteration_callback=record))
    assert r.restarts >= 3
    assert checked["iterate"] >= 10 and checked["anchor"] >= 5


def test_full_error_reports_only_at_entry_and_checks(monkeypatch):
    calls = {"compute_errors": 0, "relative_errors": 0}
    for name in calls:
        real = getattr(term, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(term, name, counting)
    opts = SolverOptions(
        use_adaptive_restart=False, use_adaptive_step_size_weight=False,
        duality_gap_restart_freq=10, max_iter=30, rel_tol=1e-14, abs_tol=1e-14,
    )
    r = eng.solve(tiny_lp(), opts)
    assert r.iterations == 30 and r.exit_status == ":max_iter"
    # the entry scan and the checks at iterations 10, 20 and 30
    assert calls["compute_errors"] == 1 + 3
    # the reflection parameter at the first iteration only: no restart runs
    # and no multiple of _REFLECTION_FREQ falls within 30 iterations
    assert calls["relative_errors"] == 1


@pytest.mark.parametrize("jump", [False, True], ids=["no jump", "jump from 63 to 65"])
def test_reflection_parameter_schedule(jump, monkeypatch):
    # beta is evaluated at the first iteration of every inner loop and at the
    # first k_bar at or past each multiple of 64, from the candidate's
    # relative errors, and held in between.  The candidate buffer still holds
    # [x_hat; y_hat; G x_hat; G^T y_hat] when the callback runs.
    from test_termination_scan import jump_over_64

    if jump:
        jump_over_64(monkeypatch)
    calls = {"n": 0}
    real = term.relative_errors

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(term, "relative_errors", counting)
    seen = []
    last = {"k_bar": 0, "calls": 0, "beta": None}

    def record(state):
        evaluated = calls["n"] > last["calls"]
        expected = (state.k == 1
                    or state.k_bar // eng._REFLECTION_FREQ > last["k_bar"] // eng._REFLECTION_FREQ)
        assert evaluated == expected and calls["n"] - last["calls"] <= 1
        if evaluated:
            (x_hat, y_hat), (gx_hat, gty_hat) = loop._split(loop.candidate)
            beta = term.adaptive_reflection_parameter(
                real(loop.scaled, x_hat, y_hat, gx_hat, gty_hat))
            assert same_float(state.beta, beta)
        else:
            assert same_float(state.beta, last["beta"])
        seen.append((state.k_bar, state.k, evaluated))
        last.update(k_bar=state.k_bar, calls=calls["n"], beta=state.beta)

    opts = SolverOptions(duality_gap_restart_freq=40, max_iter=400, rel_tol=1e-14,
                         abs_tol=1e-14, iteration_callback=record)
    loop = eng._Loop(random_lp(7), opts)
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
