"""Per-iteration callback traces for comparing two solves bit for bit.

`traced_solve` runs the solve loop with a callback that records, per
iteration, k_bar, a digest of the loop state and the scaled matrix's
product counters.  Two solves that follow the same iterates give equal
traces; a change in the last bit of any state vector or scalar shows.
"""

import hashlib
import math

import numpy as np

import conic_pdhg.engine as eng
from conic_pdhg import restart
from conic_pdhg.engine import SolverOptions


def digest(state):
    """(k_bar, SHA-1 of the iterate, anchor, step sizes, weights, counters,
    restart mode and restart bookkeeping).  The bookkeeping, the last restart metric,
    the previous candidate's metric and the anchor's move, is what a gap
    evaluation that falls back to the KKT metric leaves; None hashes as
    NaN."""
    h = hashlib.sha1()
    vectors = [state.z.x, state.z.y, state.z_anchor.x, state.z_anchor.y]
    scalars = [state.eta, state.eta_hat, state.omega, state.beta, state.prev_candidate_gap,
               math.nan if state.last_restart_metric is None else state.last_restart_metric,
               *(state.anchor_move or (math.nan, math.nan))]
    for v in (*vectors, scalars + [state.k, state.k_bar, state.t]):
        h.update(np.asarray(v, dtype=np.float64).tobytes())
    h.update(state.mode.encode())
    return state.k_bar, h.digest()


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
