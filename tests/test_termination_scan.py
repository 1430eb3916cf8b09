"""Termination scans between restart checks.

The loop runs the optimality and limit tests at the first iteration at or
past each multiple of `engine._TERMINATION_SCAN_FREQ`, besides every restart
check.  A scan forms its own products on the unscaled problem and writes no
loop state, so a run with scans follows the run without them bit for bit
and can only stop sooner.  These tests compare runs with scans against runs
with the cadence patched to 10**9, which scan only at checks as the loop did
before scans existed: callback traces, exits, infeasibility certificates,
product counters, error-report counts and log rows.
"""

import math

import numpy as np
import pytest

from test_cli import random_lp_doc, write_doc
from test_degenerate import INSTANCES as DEGENERATE
from test_engine import tiny_lp
from test_lean_iteration import counting_error_reports, random_lp
from traces import FAILING_GAP, traced_solve

import conic_pdhg.engine as eng
from conic_pdhg import termination as term
from conic_pdhg.cli import main
from conic_pdhg.engine import SolverOptions, solve
from conic_pdhg.fileio import load_result
from conic_pdhg.linalg import SparseMatrix
from conic_pdhg.model import Cone, ConeSpec, ConicProblem

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

CHECK_FREQ = 200
NO_SCANS = 10**9


def planted_conic(seed):
    """Box variables with soc, exp and dual-exp blocks on both sides.  The
    point x is feasible, and c = G^T y + lam with y and lam in the dual
    cones, so the problem is feasible and bounded."""
    rng = np.random.default_rng(seed)
    nb = 4
    soc = np.array([2.0, 0.5, -0.7])
    exp = np.array([-1.0, 1.0, 2.0])  # in K_exp and in K_exp*
    primal = (ConeSpec(Cone.SOC, 3), ConeSpec(Cone.EXP, 3), ConeSpec(Cone.DUAL_EXP, 3))
    dual = (ConeSpec(Cone.ZERO, 2), ConeSpec(Cone.NONNEG, 3), ConeSpec(Cone.SOC, 3),
            ConeSpec(Cone.EXP, 3), ConeSpec(Cone.DUAL_EXP, 3))
    n, m = nb + 9, 14
    g = rng.standard_normal((m, n))
    g[rng.random((m, n)) < 0.5] = 0.0
    x = np.concatenate([rng.uniform(-0.5, 0.5, nb), soc, exp, exp])
    s = np.concatenate([np.zeros(2), rng.uniform(0.1, 1.0, 3), soc, exp, exp])
    y = np.concatenate([rng.standard_normal(2), rng.uniform(0.1, 1.0, 3), soc, exp, exp])
    lam = np.concatenate([np.zeros(nb), soc, exp, exp])
    return ConicProblem(c=g.T @ y + lam, G=SparseMatrix(g), h=g @ x - s,
                        l=np.full(nb, -1.0), u=np.full(nb, 1.0), num_box=nb,
                        primal_cones=primal, dual_cones=dual)


PROBLEMS = {
    "lp": lambda: random_lp(5, n=6, m=4),
    "soc-exp-dual-exp": lambda: planted_conic(1),
}

MODES = {
    "default": {},
    "no preconditioner": dict(use_preconditioner=False),
    "no restarts": dict(use_adaptive_restart=False),
}
# MODES, which bitwise_digests.py runs, the forced gap failures, which
# `traced_solve` applies, and the other initial step size
TRACED_MODES = {**MODES, "failing gap": FAILING_GAP,
                "induced-inf initial step": dict(initial_step_norm="induced_inf")}


def assert_scan_schedule(r, trace, scans, scan_freq, check_freq, max_iter):
    """Scans run at entry, at every restart check, after every restart, and
    at the first k_bar at or past each multiple of the scan cadence; checks
    run at the first k_bar at or past each multiple of the check cadence
    and at the last iteration, and only checks test infeasibility."""
    checks, between, k_prev = [], [], 0
    for k, *_ in trace:
        if k // check_freq > k_prev // check_freq or k >= max_iter:
            checks.append(k)
        elif k // scan_freq > k_prev // scan_freq:
            between.append(k)
        k_prev = k
    assert scans[0] == (0, False)
    assert sorted({k for k, _ in scans[1:]}) == sorted(checks + between)
    assert [k for k, infeasibility in scans if infeasibility] == checks
    assert len(scans) == 1 + len(checks) + len(between) + r.restarts
    return between


@pytest.mark.parametrize("mode", TRACED_MODES)
@pytest.mark.parametrize("name", PROBLEMS)
def test_scans_stop_sooner_on_the_same_trace(name, mode, monkeypatch):
    kw = dict(rel_tol=1e-4, abs_tol=1e-4, max_iter=1000, duality_gap_restart_freq=CHECK_FREQ,
              **TRACED_MODES[mode])
    r_off, _, scans_off, trace_off = traced_solve(PROBLEMS[name](), monkeypatch, NO_SCANS, **kw)
    r64, _, scans64, trace64 = traced_solve(PROBLEMS[name](), monkeypatch, 64, **kw)

    # the reference run scans only at checks
    assert assert_scan_schedule(r_off, trace_off, scans_off, NO_SCANS, CHECK_FREQ, 1000) == []

    # scans leave the iterates alone and can only move the exit forward
    assert trace64 == trace_off[:len(trace64)]
    assert r64.iterations <= r_off.iterations
    assert r64.exit_status == r_off.exit_status
    assert assert_scan_schedule(r64, trace64, scans64, 64, CHECK_FREQ, 1000)
    if r_off.exit_status == ":optimal":
        # on these instances the tolerance is met between two checks
        assert r64.iterations < r_off.iterations


def jump_over_64(monkeypatch):
    """Patch the line search so that the step that would end at k_bar = 63
    ends at 65, as a rejected trial would, and no iteration carries 64."""
    real = eng.adaptive_step_pdhg

    def jump(*args, **kwargs):
        step = real(*args, **kwargs)
        return step._replace(k_bar=65) if step.k_bar == 63 else step

    monkeypatch.setattr(eng, "adaptive_step_pdhg", jump)


@pytest.mark.parametrize("check_freq, scanned, at_65", [(CHECK_FREQ, [65, 128], (65, False)),
                                                        (64, [], (65, True))],
                         ids=["scan cadence below check cadence", "equal cadences"])
def test_scan_runs_after_a_line_search_jump_over_a_multiple(check_freq, scanned, at_65,
                                                            monkeypatch):
    # At equal cadences the scan at 65 is the restart check, with its
    # infeasibility test.
    jump_over_64(monkeypatch)
    r, _, scans, trace = traced_solve(random_lp(7), monkeypatch, 64,
                                   rel_tol=1e-14, abs_tol=1e-14, max_iter=150,
                                   duality_gap_restart_freq=check_freq)
    k_bars = [k for k, *_ in trace]
    assert r.exit_status == ":max_iter" and 64 not in k_bars and 65 in k_bars
    assert at_65 in scans
    assert assert_scan_schedule(r, trace, scans, 64, check_freq, 150) == scanned


def test_restart_check_runs_after_a_line_search_jump_over_a_multiple(monkeypatch):
    # The restart check due at 64 runs at 65: the product refresh, the scan
    # with the infeasibility test and the restart test, in that order.
    jump_over_64(monkeypatch)
    events = []
    for name in ("_refresh_products", "_restart_check"):
        real = getattr(eng._Loop, name)

        def spy(self, state, _name=name, _real=real):
            events.append((_name, state.k_bar))
            return _real(self, state)

        monkeypatch.setattr(eng._Loop, name, spy)
    real_push = term.InfeasibilityHistory.push
    k_bar = {"now": 0}

    def push(self, report):
        events.append(("infeasibility", k_bar["now"]))
        real_push(self, report)

    monkeypatch.setattr(term.InfeasibilityHistory, "push", push)

    def record(state):
        k_bar["now"] = state.k_bar

    r = solve(random_lp(7), SolverOptions(rel_tol=1e-14, abs_tol=1e-14, max_iter=150,
                                          duality_gap_restart_freq=64, iteration_callback=record))
    assert r.exit_status == ":max_iter"
    at = {k for _, k in events}
    assert 64 not in at and 65 in at
    first = [e for e in events if e[1] == 65][:3]
    assert first == [("_refresh_products", 65), ("infeasibility", 65), ("_restart_check", 65)]
    # the next check comes at 128; at 150 the iteration limit ends the run
    # before the infeasibility test
    assert [k for name, k in events if name == "infeasibility"] == [65, 128]
    assert ("_refresh_products", 150) in events


# ---------------------------------------------------------------------------
# Infeasibility stays at the restart cadence
# ---------------------------------------------------------------------------


def primal_infeasible_lp():
    # the appended row asks g0 x <= h0 - 3 against row 0's g0 x >= h0
    p = random_lp(3, n=8, m=6)
    g = p.G.toarray()
    return ConicProblem(c=np.zeros(8), G=SparseMatrix(np.vstack([g, -g[0]])),
                        h=np.append(p.h, 3.0 - p.h[0]), l=p.l, u=p.u, num_box=8,
                        dual_cones=(ConeSpec(Cone.NONNEG, 7),))


def dual_infeasible_lp():
    # x1 - x2 >= 0 and 0.5 x1 + x2 >= -1 admit x1 -> +inf along (1, 0.5)
    return ConicProblem(c=np.array([-1.0, 0.5]), G=SparseMatrix(np.array([[1.0, -1.0], [0.5, 1.0]])),
                        h=np.array([0.0, -1.0]), l=np.array([-math.inf, 0.0]),
                        u=np.array([math.inf, math.inf]), num_box=2,
                        dual_cones=(ConeSpec(Cone.NONNEG, 2),))


def low_accuracy(**eps):
    return dict(duality_gap_restart_freq=100, use_preconditioner=False,
                use_adaptive_restart=False, **eps)


INFEASIBLE = {
    # the instances of acceptance criterion 9, whose low-accuracy codes need
    # a trend over three checks
    "primal, low accuracy": (
        lambda: ConicProblem(c=np.array([0.0]), G=SparseMatrix(np.array([[1.0], [-1.0]])),
                             h=np.array([1.0, 0.0]), l=np.array([-math.inf]),
                             u=np.array([math.inf]), num_box=1,
                             dual_cones=(ConeSpec(Cone.NONNEG, 2),)),
        low_accuracy(eps_primal_infeasible_low_acc=1e-2, eps_primal_infeasible_high_acc=1e-300),
        ":primal_infeasible_low_acc",
    ),
    "dual, low accuracy": (
        lambda: ConicProblem(c=np.array([-1.0, 0.0]), G=SparseMatrix(np.array([[1.0, -1.0]])),
                             h=np.array([0.0]), l=np.array([-math.inf, 0.0]),
                             u=np.array([math.inf, math.inf]), num_box=2,
                             dual_cones=(ConeSpec(Cone.ZERO, 1),)),
        low_accuracy(eps_dual_infeasible_low_acc=1e-1, eps_dual_infeasible_high_acc=1e-300),
        ":dual_infeasible_low_acc",
    ),
    "primal, high accuracy": (primal_infeasible_lp, dict(duality_gap_restart_freq=CHECK_FREQ),
                              ":primal_infeasible_high_acc"),
    "dual, high accuracy": (dual_infeasible_lp, dict(duality_gap_restart_freq=CHECK_FREQ),
                            ":dual_infeasible_high_acc"),
}


@pytest.mark.parametrize("name", INFEASIBLE)
def test_infeasible_lps_certify_at_the_same_check(name, monkeypatch):
    make, kw, status = INFEASIBLE[name]
    runs = {}
    for freq in (16, NO_SCANS):
        pushed = []
        real_push = term.InfeasibilityHistory.push

        def spy(self, report, _pushed=pushed, _real=real_push):
            _pushed.append((report.dual_obj, report.primal_obj))
            _real(self, report)

        with monkeypatch.context() as mp:
            mp.setattr(term.InfeasibilityHistory, "push", spy)
            r, _, scans, trace = traced_solve(make(), monkeypatch, freq, max_iter=3000, **kw)
        runs[freq] = (r, trace, pushed, scans)
    (r16, trace16, pushed16, scans16), (r_off, trace_off, pushed_off, _) = runs[16], runs[NO_SCANS]
    assert r16.exit_status == r_off.exit_status == status
    assert r16.iterations == r_off.iterations and trace16 == trace_off
    # one push per restart check, none per scan, with the same reports
    checks = [k for k, infeasibility in scans16 if infeasibility]
    assert len(checks) < len(scans16) - 1
    assert len(pushed16) == len(checks) and pushed16 == pushed_off


FEASIBLE = {
    **{f"lp {seed}": (lambda seed=seed: random_lp(seed)) for seed in range(6)},
    **{f"planted conic {seed}": (lambda seed=seed: planted_conic(seed)) for seed in (1, 2, 3)},
    **{f"degenerate: {name}": (lambda p=p: p)
       for name, (p, optimum) in DEGENERATE.items() if optimum is not None},
}


@pytest.mark.parametrize("cadence", [None, 64], ids=["default cadence", "cadence 64"])
@pytest.mark.parametrize("name", FEASIBLE)
def test_feasible_problems_get_no_infeasibility_certificate(name, cadence, monkeypatch):
    """The low-accuracy trend window spans three checks, 3 x 512 iterations
    at the default gap cadence and 3 x 64 at cadence 64, so the ratio tests
    alone must keep feasible problems from a certificate at every check."""
    cadence = cadence or SolverOptions().duality_gap_restart_freq
    codes = []
    real_check = term.check_infeasibility

    def spy(*args):
        codes.append(real_check(*args))
        return codes[-1]

    monkeypatch.setattr(term, "check_infeasibility", spy)
    r = solve(FEASIBLE[name](), SolverOptions(max_iter=10000, duality_gap_restart_freq=cadence))
    # every check but an optimal last one runs the infeasibility test
    assert len(codes) >= r.iterations // cadence - 1 and set(codes) <= {None}
    if name != "degenerate: cost range 1e18":  # never converges (CHANGES.md FOUND:)
        assert r.exit_status == ":optimal"


# ---------------------------------------------------------------------------
# Work per scan
# ---------------------------------------------------------------------------


def test_error_reports_at_entry_scans_checks_and_restarts(monkeypatch):
    monkeypatch.setattr(eng, "_TERMINATION_SCAN_FREQ", 8)
    loop = eng._Loop(tiny_lp(), SolverOptions(duality_gap_restart_freq=20, max_iter=100,
                                              rel_tol=1e-14, abs_tol=1e-14))
    calls = counting_error_reports(loop, monkeypatch)
    r = loop.run()
    assert r.exit_status == ":max_iter" and r.iterations == 100 and r.restarts == 4
    # the entry scan, scans at the ten multiples of 8 up to 100 that are not
    # checks (all but 40 and 80), the checks at 20, 40, 60, 80 and 100, and
    # one scan after each restart
    assert calls["work"] == 1 + 10 + 5 + 4
    # the reflection parameter at the first iteration of each of the five
    # inner loops and at 64; the gap-mode checks form no report
    assert calls["scaled"] == 5 + 1


def test_scan_products_land_on_the_unscaled_matrix(monkeypatch):
    kw = dict(duality_gap_restart_freq=CHECK_FREQ, rel_tol=1e-4, abs_tol=1e-4)
    r64, loop64, scans64, trace64 = traced_solve(random_lp(7), monkeypatch, 64, **kw)
    r_off, loop_off, scans_off, trace_off = traced_solve(random_lp(7), monkeypatch, NO_SCANS, **kw)
    assert r64.exit_status == r_off.exit_status == ":optimal"
    assert r64.iterations < r_off.iterations and len(scans64) > len(scans_off)
    # the scaled products match the run without scans iteration by
    # iteration, and the exit between checks adds none
    assert loop64.scaled.G is not loop64.work.G
    assert trace64 == trace_off[:len(trace64)]
    assert (loop64.scaled.G.n_matvec, loop64.scaled.G.n_rmatvec) == trace64[-1][2]
    # each scan forms one G x and one G^T y on the unscaled matrix; the
    # result adds the slack G x and the multiplier c - G^T y
    for loop, scans in ((loop64, scans64), (loop_off, scans_off)):
        assert loop.work.G.n_matvec == len(scans) + 1
        assert loop.work.G.n_rmatvec == len(scans) + 1


# ---------------------------------------------------------------------------
# Log rows
# ---------------------------------------------------------------------------


def test_log_rows_match_the_run_without_scans(tmp_path, monkeypatch):
    inp = write_doc(tmp_path, random_lp_doc(np.random.default_rng(0), n=8, m=8))
    runs = {}
    for freq in (64, NO_SCANS):
        calls = {"scan": 0, "report": 0}
        real_scan, real_report = eng._Loop._termination_scan, eng._Loop._original_report

        def scan(self, *args, _calls=calls, **kwargs):
            _calls["scan"] += 1
            return real_scan(self, *args, **kwargs)

        def report(self, *args, _calls=calls, **kwargs):
            _calls["report"] += 1
            return real_report(self, *args, **kwargs)

        log, out = tmp_path / f"{freq}.log", str(tmp_path / f"{freq}.json")
        with monkeypatch.context() as mp:
            mp.setattr(eng._Loop, "_termination_scan", scan)
            mp.setattr(eng._Loop, "_original_report", report)
            mp.setattr(eng, "_TERMINATION_SCAN_FREQ", freq)
            # checks sparser than the scans, so that scans stop the run sooner
            assert main(["--input", inp, "--output", out, "--print-freq", "128",
                         "--gap-restart-freq", "2000", "--logfile", str(log)]) == 0
        runs[freq] = (log.read_text().splitlines(), load_result(out), calls)
    (rows64, doc64, calls64), (rows_off, doc_off, calls_off) = runs[64], runs[NO_SCANS]
    assert doc64["exit_status"] == doc_off["exit_status"] == ":optimal"
    assert doc64["iterations"] < doc_off["iterations"]
    assert len(rows64) > 10
    # every row but the exit row repeats the run without scans byte for byte
    assert rows64[:-1] == rows_off[:len(rows64) - 1]
    assert rows64[-1].split("\t")[0] == str(doc64["iterations"])
    # every print row falls on a scan and reuses its report
    assert calls64["report"] == calls64["scan"]
    assert calls_off["report"] > calls_off["scan"]


def test_log_rows_at_or_past_every_multiple(tmp_path):
    # at restart cadence 2000 a line-search rejection steps over 3200 in this
    # run; the row comes at the first iteration past it
    inp = write_doc(tmp_path, random_lp_doc(np.random.default_rng(0), n=8, m=8))
    log, out = tmp_path / "run.log", str(tmp_path / "run.json")
    assert main(["--input", inp, "--output", out, "--print-freq", "128",
                 "--gap-restart-freq", "2000", "--logfile", str(log)]) == 0
    k_bars = [int(row.split("\t")[0]) for row in log.read_text().splitlines()]
    iterations = load_result(out)["iterations"]
    assert k_bars[0] == 0 and k_bars[-1] == iterations
    assert any(k % 128 for k in k_bars[1:-1])
    assert sorted({k // 128 for k in k_bars}) == list(range(iterations // 128 + 1))
