"""The per-iteration path of the solve loop.

Each accepted iteration evaluates only the three 1-norm relative metrics
(`termination.relative_errors`) for the reflection parameter, and updates
flat [x; y; G x; G^T y] buffers in place.  These tests compare the relative
metrics with `compute_errors` and the in-place updates with the allocating
formulas in `oracles`, bit for bit; check that a restart reads the new and
the previous anchor in the right order and that the restart checks' gap
from the loop's products is the gap from fresh ones; and count the full
error reports a solve makes.
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
from conic_pdhg.linalg import SparseMatrix, WeightedNormContext
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
    # The loop overwrites the anchor buffer at a restart, so the previous
    # anchor must be copied first and the new one written before the
    # primal-weight update reads their distance.
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
        assert omega1 == restarts.update_primal_weight(dx, dy, omega0, loop.omega_init, loop.consts)
        moved += dx > 1e-10 and dy > 1e-10 and omega1 != omega0
    assert moved >= 3


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_gap_from_the_loops_products_equals_the_gap_from_fresh_ones(seed, monkeypatch):
    # At every restart check the iterate's products were just refreshed and
    # the anchor's were refreshed at the last restart, so the gap the loop
    # computes from them must be the gap from freshly formed products, bit
    # for bit, for the iterate against the anchor and the anchor against
    # the previous anchor.
    checked = {"iterate": 0, "anchor": 0}
    real = eng._Loop._restart_check

    def spy(self, state):
        ctx = WeightedNormContext(state.omega, state.eta)
        points = [("iterate", state.z, self.products, state.z_anchor)]
        if state.z_prev_anchor is not None:
            points.append(("anchor", state.z_anchor, self.anchor_products, state.z_prev_anchor))
        for name, z, products, ref in points:
            assert_same_bits(products.x, self.scaled.G.matvec(z.x))
            assert_same_bits(products.y, self.scaled.G.rmatvec(z.y))
            cached = self._gap_metric(z, ref, ctx, products)
            assert cached != 0.0 and same_float(cached, self._gap_metric(z, ref, ctx))
            checked[name] += 1
        return real(self, state)

    monkeypatch.setattr(eng._Loop, "_restart_check", spy)
    r = eng.solve(random_lp(seed), SolverOptions(duality_gap_restart_freq=40, max_iter=2000,
                                                 rel_tol=1e-12, abs_tol=1e-12))
    assert r.restarts >= 3
    assert checked["iterate"] >= 10 and checked["anchor"] >= 3


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
    assert calls["relative_errors"] == 30


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
