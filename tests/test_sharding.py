"""Sharded iterations: a solve split into shards on helper threads follows
the iterates of the one-shard solve bit for bit, and leaves no thread
behind however it ends.

`traces.forced_shards` sets aside the engine's private thresholds, so
these small problems, the planted one with soc and exp blocks too, run 1,
2 and 3 shards (at most two helper threads)."""

import math
import sys
import threading
import time

import numpy as np
import pytest

import conic_pdhg.engine as eng
from conic_pdhg import cones, linalg
from conic_pdhg.engine import SolverOptions
from conic_pdhg.linalg import SparseMatrix
from conic_pdhg.model import Cone, ConeSpec, ConicProblem, block_slices
from test_termination_scan import planted_conic
from traces import forced_shards, iterate_digest

pytestmark = pytest.mark.skipif(linalg.BLAS is None,
                                reason="a sharded solve needs numpy's OpenBLAS")

SHARDS = [1, 2, 3]


def box_lp_with_equalities(seed=4, n=60, m=40, zero=10):
    """A feasible box LP with `zero` equality rows and m - zero inequality
    rows, sparse enough that short row and column ranges hold few entries."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m, n))
    g[rng.random((m, n)) < 0.7] = 0.0
    x0 = rng.uniform(-1.0, 1.0, n)
    h = g @ x0 - np.concatenate([np.zeros(zero), rng.uniform(0.1, 1.0, m - zero)])
    return ConicProblem(c=rng.standard_normal(n), G=SparseMatrix(g), h=h,
                        l=np.full(n, -2.0), u=np.full(n, 3.0), num_box=n,
                        dual_cones=(ConeSpec(Cone.ZERO, zero), ConeSpec(Cone.NONNEG, m - zero)))


PROBLEMS = {
    "box lp with zero and nonneg rows": (box_lp_with_equalities,
                                         dict(duality_gap_restart_freq=40, max_iter=1500)),
    "planted soc, exp and dual-exp": (lambda: planted_conic(2),
                                      dict(duality_gap_restart_freq=100, max_iter=1500)),
}


def result_bytes(r):
    """Every result field but the wall time, as bytes."""
    parts = [np.asarray(v, dtype=np.float64).tobytes() for v in (r.x, r.y, r.lam, r.slack)]
    parts.append(np.array([r.p_obj, r.d_obj]).tobytes())
    parts.append(repr((r.exit_code, r.exit_status, r.iterations, r.restarts)).encode())
    return b"".join(parts)


def sharded_solve(problem, tmp_path, name, **kw):
    """The result, the loop, the per-callback trace (k_bar, restarts, beta,
    iterate digest, product counters) and the logfile's bytes."""
    trace = []

    def record(state):
        g = loop.scaled.G
        trace.append((state.k_bar, state.t, state.beta, iterate_digest(state),
                      g.n_matvec, g.n_rmatvec))

    log = tmp_path / f"{name}.log"
    opts = SolverOptions(rel_tol=1e-9, abs_tol=1e-9, logfile=str(log), print_freq=50,
                         iteration_callback=record, **kw)
    loop = eng._Loop(problem, opts)
    loop.scaled.G.reset_counters()
    r = loop.run()
    return r, loop, trace, log.read_bytes()


@pytest.mark.parametrize("shards", SHARDS)
@pytest.mark.parametrize("name", PROBLEMS)
def test_sharded_solve_keeps_every_bit(name, shards, tmp_path):
    make, kw = PROBLEMS[name]
    r0, loop0, trace0, log0 = sharded_solve(make(), tmp_path, "serial", **kw)
    assert not loop0.phases.sharded  # below the threshold
    with forced_shards(shards):
        r, loop, trace, log = sharded_solve(make(), tmp_path, "sharded", **kw)
    assert loop.phases.sharded == (shards > 1)
    assert len(loop.phases.shards) == shards
    # the trace covers line-search rejections, restarts and beta updates
    assert any(b[0] - a[0] > 1 for a, b in zip(trace0, trace0[1:]))
    assert trace0[-1][1] >= 2
    assert len({beta for _, _, beta, *_ in trace0}) > 2
    assert trace == trace0
    assert result_bytes(r) == result_bytes(r0)
    assert log == log0
    assert (loop.scaled.G.n_matvec, loop.scaled.G.n_rmatvec) == (
        loop0.scaled.G.n_matvec, loop0.scaled.G.n_rmatvec)


def test_cuts_fall_next_to_blocks():
    # planted_conic has 4 box columns and 9 of primal cones, and 5 zero or
    # nonneg rows before 9 of soc, exp and dual-exp: the balanced cuts land
    # inside blocks a kernel projects whole, and move to their ends
    problem = planted_conic(2)
    with forced_shards(3):
        loop = eng._Loop(problem, SolverOptions(max_iter=5))
        loop.run()
    shards = loop.phases.shards
    scaled = loop.scaled
    for dual, ranges in ((False, [s.cols for s in shards]), (True, [s.rows for s in shards])):
        blocks = cones.unsplit_blocks(scaled, dual)
        ends = {int(v) for v in blocks.ravel()}
        cuts = [hi for _, hi in ranges[:-1]]
        assert all(not start < cut < stop for cut in cuts for start, stop in blocks)
        assert ranges[0][0] == 0 and ranges[-1][1] == (scaled.m if dual else scaled.n)
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        assert any(cut in ends for cut in cuts)
    # the nnz balance alone would split a block somewhere
    indptr = scaled.G.indptr
    raw = [int(np.searchsorted(indptr, indptr[-1] * i / 3)) for i in (1, 2)]
    blocks = cones.unsplit_blocks(scaled, False)
    assert any(start < cut < stop for cut in raw for start, stop in blocks)


# ---------------------------------------------------------------------------
# Lifecycle: the helpers are joined however a solve ends
# ---------------------------------------------------------------------------


def assert_no_thread_left(before):
    assert threading.active_count() == before
    assert not [t for t in threading.enumerate() if t.name.startswith("conic-pdhg shard")]


def test_normal_exit_joins_the_helpers():
    before = threading.active_count()
    seen = []
    with forced_shards(3):
        r = eng.solve(box_lp_with_equalities(), SolverOptions(
            max_iter=200, iteration_callback=lambda s: seen.append(threading.active_count())))
    assert r.exit_status == ":max_iter"
    assert set(seen) == {before + 2}
    assert_no_thread_left(before)


def test_time_limit_exit_joins_the_helpers():
    before = threading.active_count()
    with forced_shards(2):
        r = eng.solve(box_lp_with_equalities(), SolverOptions(time_limit=1e-9))
    assert r.exit_status == ":time_limit"
    assert_no_thread_left(before)


def test_callback_exception_joins_the_helpers():
    before = threading.active_count()

    def fail(state):
        if state.k_bar >= 10:
            raise KeyError("stop here")

    with forced_shards(3), pytest.raises(KeyError, match="stop here"):
        eng.solve(box_lp_with_equalities(), SolverOptions(iteration_callback=fail))
    assert_no_thread_left(before)


def test_numerical_error_in_a_helper_shard_ends_the_solve(monkeypatch):
    # A non-finite point in an exp block of the last shard's rows: its
    # projection raises NumericalError on the helper thread, the solve ends
    # :numerical_error on the calling thread, and no helper writes after.
    before = threading.active_count()
    raised_on = []
    real = cones._exp_point

    def exp_point(*args):
        try:
            return real(*args)
        except linalg.NumericalError:
            raised_on.append(threading.current_thread().name)
            raise

    monkeypatch.setattr(cones, "_exp_point", exp_point)

    def poison(state):
        if state.k_bar >= 20:
            lo, hi = loop.phases.shards[-1].rows
            exp_rows = [sl.start for spec, sl in block_slices(loop.scaled.dual_cones)
                        if spec.kind is Cone.EXP and lo <= sl.start]
            state.z.y[exp_rows[0]] = math.nan

    with forced_shards(2):
        loop = eng._Loop(planted_conic(2), SolverOptions(iteration_callback=poison))
        kinds = [spec.kind for spec in loop.scaled.dual_cones]
        assert kinds[-2:] == [Cone.EXP, Cone.DUAL_EXP]
        r = loop.run()
    assert r.exit_status == ":numerical_error"
    assert raised_on and all(name == "conic-pdhg shard 1" for name in raised_on)
    assert_no_thread_left(before)
    buffers = [b.copy() for b in (loop.iterate, loop.anchor, loop.candidate, *loop.workspace)]
    time.sleep(0.05)
    for kept, b in zip(buffers, (loop.iterate, loop.anchor, loop.candidate, *loop.workspace)):
        assert kept.tobytes() == b.tobytes()


def test_sharder_runs_every_shard_and_raises_on_the_caller():
    before = threading.active_count()
    with linalg.Sharder(3) as sharder:
        assert threading.active_count() == before + 2
        seen = []
        sharder.run(lambda i: seen.append((i, threading.current_thread().name)))
        assert sorted(i for i, _ in seen) == [0, 1, 2]
        assert dict(seen)[0] == threading.current_thread().name

        def fail(i):
            if i == 2:
                raise linalg.NumericalError(f"shard {i}")

        with pytest.raises(linalg.NumericalError, match="shard 2"):
            sharder.run(fail)
        seen.clear()
        sharder.run(lambda i: seen.append(i))  # the error is not raised again
        assert sorted(seen) == [0, 1, 2]
    assert_no_thread_left(before)
    sharder.close()  # a second close does nothing
    with linalg.Sharder(1) as one:
        assert threading.active_count() == before
        one.run(lambda i: seen.append(("one", i)))
    assert seen[-1] == ("one", 0)
    with pytest.raises(ValueError):
        linalg.Sharder(0)


def test_shard_count_follows_the_thresholds_and_the_cpus(monkeypatch):
    lp, conic = box_lp_with_equalities(), planted_conic(2)
    kernel_blocks = sum(len(cones.unsplit_blocks(conic, dual)) for dual in (False, True))
    assert kernel_blocks > 0 and not any(len(cones.unsplit_blocks(lp, d)) for d in (False, True))
    monkeypatch.setattr(eng, "_cpu_count", lambda: 2)
    monkeypatch.setattr(eng, "_SHARD_NNZ", lp.G.nnz + 1)
    assert eng._shard_count(lp) == 1
    monkeypatch.setattr(eng, "_SHARD_NNZ", lp.G.nnz)
    assert eng._shard_count(lp) == 2
    monkeypatch.setattr(eng, "_cpu_count", lambda: 1)  # as under `taskset -c 0`
    assert eng._shard_count(lp) == 1
    monkeypatch.setattr(eng, "_cpu_count", lambda: 8)
    assert eng._shard_count(lp) == eng._MAX_SHARDS == 2
    # soc and exp blocks, projected by kernels that hold the GIL, keep a
    # solve above the entry threshold on one shard
    monkeypatch.setattr(eng, "_SHARD_NNZ", 0)
    monkeypatch.setattr(eng, "_SHARD_KERNEL_BLOCKS", kernel_blocks - 1)
    assert eng._shard_count(conic) == 1
    monkeypatch.setattr(eng, "_SHARD_KERNEL_BLOCKS", kernel_blocks)
    assert eng._shard_count(conic) == 2


def test_sharder_hands_off_every_phase_under_a_short_switch_interval():
    # more threads than this 2-CPU host has cores, switching as often as
    # the interpreter allows: each run must return only after every shard
    # wrote its part, and no phase may be run twice or skipped
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with linalg.Sharder(3) as sharder:
            runs = np.zeros(3, np.int64)
            out = np.zeros(3 * 500)

            def phase(i):
                out[500 * i:500 * (i + 1)] = rounds
                runs[i] += 1

            for rounds in range(1, 1501):
                sharder.run(phase)
                assert (out == rounds).all()
            assert runs.tolist() == [1500] * 3
    finally:
        sys.setswitchinterval(interval)
