"""Termination scans between restart checks.

The loop runs the optimality and limit tests at the first iteration at or
past each multiple of `engine._TERMINATION_SCAN_FREQ`, besides every restart
check.  A scan reads the loop's own products of the iterate, mapped back to
the unscaled problem, and writes no loop state, so a run with scans follows
the run without them bit for bit and can only stop sooner.  These tests
compare runs with scans against runs with the cadence patched to 10**9,
which scan only at checks as the loop did before scans existed: callback
traces, exits, infeasibility certificates, product counters, error-report
counts and log rows.  The result is built from the same products, so it
returns the slack and multiplier that the exit scan judged.
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
from conic_pdhg.model import Cone, ConeSpec, ConicProblem, apply_rsoc_inverse

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


def assert_scan_schedule(trace, scans, scan_freq, check_freq, max_iter):
    """Scans run at entry, at every restart check and at the first k_bar at
    or past each multiple of the scan cadence; checks run at the first k_bar
    at or past each multiple of the check cadence and at the last iteration,
    and only checks test infeasibility."""
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
    assert len(scans) == 1 + len(checks) + len(between)
    return between


@pytest.mark.parametrize("mode", TRACED_MODES)
@pytest.mark.parametrize("name", PROBLEMS)
def test_scans_stop_sooner_on_the_same_trace(name, mode, monkeypatch):
    kw = dict(rel_tol=1e-4, abs_tol=1e-4, max_iter=1000, duality_gap_restart_freq=CHECK_FREQ,
              **TRACED_MODES[mode])
    r_off, _, scans_off, trace_off = traced_solve(PROBLEMS[name](), monkeypatch, NO_SCANS, **kw)
    r64, _, scans64, trace64 = traced_solve(PROBLEMS[name](), monkeypatch, 64, **kw)

    # the reference run scans only at checks
    assert assert_scan_schedule(trace_off, scans_off, NO_SCANS, CHECK_FREQ, 1000) == []

    # scans leave the iterates alone and can only move the exit forward
    assert trace64 == trace_off[:len(trace64)]
    assert r64.iterations <= r_off.iterations
    assert r64.exit_status == r_off.exit_status
    assert assert_scan_schedule(trace64, scans64, 64, CHECK_FREQ, 1000)
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
    assert assert_scan_schedule(trace, scans, 64, check_freq, 150) == scanned


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


def rsoc_exp():
    """A nonneg, an exp and a rotated soc block (the instance of
    `test_engine`'s rsoc-with-exp test).  Rotating the rsoc rows makes the
    loop's unscaled problem another instance than the caller's."""
    g = np.zeros((7, 3))
    g[0, 0] = g[1, 2] = g[3, 1] = g[4, 0] = g[5, 1] = 1.0
    return ConicProblem(c=np.array([1.0, 1.0, -1.0]), G=SparseMatrix(g),
                        h=np.array([0.0, 0.0, -1.0, 0.0, 0.0, 0.0, -1.0]),
                        l=np.full(3, -10.0), u=np.full(3, 10.0), num_box=3,
                        dual_cones=(ConeSpec(Cone.NONNEG, 1), ConeSpec(Cone.EXP, 3),
                                    ConeSpec(Cone.RSOC, 3)))


def rsoc_both_sides():
    """Box variables and a rotated soc block on each side, planted like
    `planted_conic`: x is feasible, and c = G^T y + lam with y and lam in
    the dual cones.  The primal block rotates the multiplier c - G^T y of
    the reformulation; the dual block follows an exp block, and promoting
    it to soc leaves its rows there."""
    rng = np.random.default_rng(4)
    nb = 3
    rsoc = np.array([1.0, 1.5, 0.8])  # 2 p q > ||w||^2, in the self-dual cone
    exp = np.array([-1.0, 1.0, 2.0])  # in K_exp and in K_exp*
    n, m = nb + 3, 8
    g = rng.standard_normal((m, n))
    g[rng.random((m, n)) < 0.4] = 0.0
    x = np.concatenate([rng.uniform(-0.5, 0.5, nb), rsoc])
    s = np.concatenate([rng.uniform(0.1, 1.0, 2), exp, rsoc])
    y = np.concatenate([rng.uniform(0.1, 1.0, 2), exp, rsoc])
    lam = np.concatenate([np.zeros(nb), rsoc])
    return ConicProblem(c=g.T @ y + lam, G=SparseMatrix(g), h=g @ x - s,
                        l=np.full(nb, -1.0), u=np.full(nb, 1.0), num_box=nb,
                        primal_cones=(ConeSpec(Cone.RSOC, 3),),
                        dual_cones=(ConeSpec(Cone.NONNEG, 2), ConeSpec(Cone.EXP, 3),
                                    ConeSpec(Cone.RSOC, 3)))


REPORT_PROBLEMS = {**PROBLEMS, "rsoc-exp": rsoc_exp, "rsoc both sides": rsoc_both_sides}
RESULT_PROBLEMS = {**PROBLEMS, "rsoc both sides": rsoc_both_sides}
REPORT_METRICS = ("rel_p1", "rel_d1", "rel_gap1", "rel_p_inf", "rel_d_inf", "rel_gap_term")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", REPORT_PROBLEMS)
def test_scan_reports_match_fresh_unscaled_products(name, mode, monkeypatch):
    # A scan maps the loop's scaled products back, the running ones between
    # checks.  Its report must match the one on fresh products of the
    # unscaled matrix, each metric to 1e-12 of its denominator: the relative
    # metrics to 1e-12, the objectives to 1e-12 of the gap's denominator.
    # The result's slack and multiplier, built from the same products, must
    # match fresh products on the caller's matrix to 1e-12 of the larger
    # term (lam cancels to 1e-12 at the optimum of the rsoc-exp problem).
    pairs = []
    real = eng._Loop._original_report

    def spy(self, z, products):
        report, x, y, gx, gty = real(self, z, products)
        pairs.append((report, term.compute_errors(self.work, x, y)))
        return report, x, y, gx, gty

    monkeypatch.setattr(eng._Loop, "_original_report", spy)
    loop = eng._Loop(REPORT_PROBLEMS[name](), SolverOptions(rel_tol=1e-9, abs_tol=1e-9,
                                                             max_iter=3000, **MODES[mode]))
    r = loop.run()
    assert (loop.work is not loop.original) == name.startswith("rsoc")
    assert len(pairs) > 10
    assert r.exit_status in (":optimal", ":max_iter")
    for derived, fresh in pairs:
        for metric in REPORT_METRICS:
            assert abs(getattr(derived, metric) - getattr(fresh, metric)) <= 1e-12, metric
        denom = 1.0 + max(abs(fresh.primal_obj), abs(fresh.dual_obj))
        assert derived.primal_obj == fresh.primal_obj
        assert abs(derived.dual_obj - fresh.dual_obj) <= 1e-12 * denom
    p = loop.original
    for got, (a, b) in ((r.slack, (p.G.matvec(r.x), p.h)), (r.lam, (p.c, p.G.rmatvec(r.y)))):
        assert np.max(np.abs(got - (a - b))) <= 1e-12 * max(np.max(np.abs(a)), np.max(np.abs(b)))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", RESULT_PROBLEMS)
def test_result_returns_the_slack_and_multiplier_the_exit_judged(name, mode, monkeypatch):
    # The exit fires at a scan, on a report of G x - h and c - G^T y from
    # the loop's products.  The result returns those very vectors, mapped
    # to the caller's blocks and row order, bit for bit, and forms no
    # product on the caller's matrix or its reformulation.
    reports = []
    real = eng._Loop._original_report

    def spy(self, z, products):
        reports.append(real(self, z, products))
        return reports[-1]

    monkeypatch.setattr(eng._Loop, "_original_report", spy)
    loop = eng._Loop(RESULT_PROBLEMS[name](), SolverOptions(rel_tol=1e-9, abs_tol=1e-9,
                                                             max_iter=3000, **MODES[mode]))
    loop.original.G.reset_counters()
    loop.work.G.reset_counters()
    r = loop.run()
    assert (loop.work is not loop.original) == (name == "rsoc both sides")
    assert r.exit_status in (":optimal", ":max_iter")
    _, x, y, gx, gty = reports[-1]
    expected = apply_rsoc_inverse(loop.original, x, y, gx - loop.work.h, loop.work.c - gty)
    for got, want in zip((r.x, r.y, r.slack, r.lam), expected):
        assert got.tobytes() == want.tobytes()
    for g in (loop.original.G, loop.work.G):
        assert (g.n_matvec, g.n_rmatvec) == (0, 0)


def test_error_reports_at_entry_scans_and_checks(monkeypatch):
    monkeypatch.setattr(eng, "_TERMINATION_SCAN_FREQ", 8)
    loop = eng._Loop(tiny_lp(), SolverOptions(duality_gap_restart_freq=20, max_iter=100,
                                              rel_tol=1e-14, abs_tol=1e-14))
    calls = counting_error_reports(loop, monkeypatch)
    r = loop.run()
    assert r.exit_status == ":max_iter" and r.iterations == 100 and r.restarts == 4
    # the entry scan, scans at the ten multiples of 8 up to 100 that are not
    # checks (all but 40 and 80) and the checks at 20, 40, 60, 80 and 100;
    # a restart adds none
    assert calls["work"] == 1 + 10 + 5
    # the reflection parameter at the first iteration of each of the five
    # inner loops and at 64; the gap-mode checks form no report
    assert calls["scaled"] == 5 + 1


def test_solve_forms_no_product_on_the_unscaled_matrix(monkeypatch):
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
    # scans and the result read the loop's products and form none on the
    # unscaled matrix
    for loop in (loop64, loop_off):
        assert (loop.work.G.n_matvec, loop.work.G.n_rmatvec) == (0, 0)


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
