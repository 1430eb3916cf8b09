"""Per-iteration callback traces for comparing two solves bit for bit.

`traced_solve` runs the solve loop with a callback that records, per
iteration, k_bar, a digest of the loop state and the scaled matrix's
product counters.  Two solves that follow the same iterates give equal
traces; a change in the last bit of any state vector or scalar shows.
"""

import contextlib
import hashlib
import math

import numpy as np

import conic_pdhg.engine as eng
from conic_pdhg import restart
from conic_pdhg.engine import SolverOptions


def iterate_digest(state):
    """SHA-1 of the iterate, the anchor, the step sizes, the primal weight,
    the reflection parameter and the counters k, k_bar and t (restarts)."""
    h = hashlib.sha1()
    for v in (state.z.x, state.z.y, state.z_anchor.x, state.z_anchor.y,
              [state.eta, state.eta_hat, state.omega, state.beta, state.k, state.k_bar, state.t]):
        h.update(np.asarray(v, dtype=np.float64).tobytes())
    return h.digest()


def bookkeeping_digest(state):
    """SHA-1 of the restart bookkeeping: the last restart metric, the
    previous candidate's metric, the anchor's move and the restart mode.
    None hashes as NaN."""
    h = hashlib.sha1()
    h.update(np.array([state.prev_candidate_gap,
                       math.nan if state.last_restart_metric is None else state.last_restart_metric,
                       *(state.anchor_move or (math.nan, math.nan))]).tobytes())
    h.update(state.mode.encode())
    return h.digest()


def digest(state):
    """(k_bar, the iterate digest followed by the bookkeeping digest).  The
    bookkeeping is what a gap evaluation that falls back to the KKT metric,
    or a gap value that moves within its tolerance, leaves; the iterates
    move only if a restart decision does."""
    return state.k_bar, iterate_digest(state) + bookkeeping_digest(state)


@contextlib.contextmanager
def forced_shards(count):
    """Make the solves inside run their iterations on `count` shards,
    whatever the size of their G, their cone blocks and the CPUs the
    process may use: the engine's private thresholds and shard limit, set
    and restored."""
    names = "_SHARD_NNZ", "_SHARD_KERNEL_BLOCKS", "_MAX_SHARDS", "_cpu_count"
    saved = [getattr(eng, name) for name in names]
    for name, value in zip(names, (0, math.inf, count, lambda: count)):
        setattr(eng, name, value)
    try:
        yield
    finally:
        for name, value in zip(names, saved):
            setattr(eng, name, value)


def failing_every(n):
    """`restart.normalized_gap` with every n-th call raising GapEvaluationError."""
    real = restart.normalized_gap
    calls = 0

    def normalized_gap(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls % n == 0:
            raise restart.GapEvaluationError(f"forced failure of gap evaluation {calls}")
        return real(*args, **kwargs)

    return normalized_gap


# The forced-failure entry of the tests' mode tables: every third gap
# evaluation of a solve fails, so its restart checks also run the weighted
# KKT fallback and the gap baselines that follow a restart in it.
FAILING_GAP = dict(fail_gap_every=3)


def traced_solve(problem, monkeypatch, scan_freq=None, fail_gap_every=None, **kw):
    """Solve with the options `kw`, scanning every `scan_freq` iterations
    (the engine's cadence when None) and, when `fail_gap_every` is set,
    with `failing_every(fail_gap_every)` in place of the gap evaluation,
    counting from the solve's first call.  Returns the result, the loop, the
    (k_bar, with_infeasibility) of every termination scan and, per
    iteration, k_bar, a digest of the state and the scaled matrix's product
    counters."""
    trace, scans = [], []
    real = eng._Loop._termination_scan

    def spy(self, state, with_infeasibility):
        scans.append((state.k_bar, with_infeasibility))
        return real(self, state, with_infeasibility)

    def record(state):
        trace.append((*digest(state), (loop.scaled.G.n_matvec, loop.scaled.G.n_rmatvec)))

    opts = SolverOptions(iteration_callback=record, **kw)
    opts.validate()
    loop = eng._Loop(problem, opts)
    loop.scaled.G.reset_counters()
    loop.work.G.reset_counters()
    with monkeypatch.context() as mp:
        mp.setattr(eng._Loop, "_termination_scan", spy)
        if scan_freq is not None:
            mp.setattr(eng, "_TERMINATION_SCAN_FREQ", scan_freq)
        if fail_gap_every is not None:
            mp.setattr(restart, "normalized_gap", failing_every(fail_gap_every))
        r = loop.run()
    return r, loop, scans, trace
