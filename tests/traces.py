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
from conic_pdhg.engine import SolverOptions


def digest(state):
    """(k_bar, SHA-1 of the iterate, anchor, step sizes, weights, counters,
    restart mode and restart bookkeeping, and of the average and its weight
    where the solve forms them).  The bookkeeping, the last restart metric,
    the previous candidate's metric and the anchor's move, is what a gap
    evaluation that falls back to the KKT metric leaves; None hashes as
    NaN."""
    h = hashlib.sha1()
    vectors = [state.z.x, state.z.y, state.z_anchor.x, state.z_anchor.y]
    scalars = [state.eta, state.eta_hat, state.omega, state.beta, state.prev_candidate_gap,
               math.nan if state.last_restart_metric is None else state.last_restart_metric,
               *(state.anchor_move or (math.nan, math.nan))]
    if state.z_bar is not None:
        vectors += [state.z_bar.x, state.z_bar.y]
        scalars.append(state.avg_weight)
    for v in (*vectors, scalars + [state.k, state.k_bar, state.t]):
        h.update(np.asarray(v, dtype=np.float64).tobytes())
    h.update(state.mode.encode())
    return state.k_bar, h.digest()


def traced_solve(problem, monkeypatch, scan_freq=None, **kw):
    """Solve with the options `kw`, scanning every `scan_freq` iterations
    (the engine's cadence when None).  Returns the result, the loop, the
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
        r = loop.run()
    return r, loop, scans, trace
