"""Tests for the command-line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conic_pdhg.cli import USAGE_EXIT, build_parser, main, options_from_args
from conic_pdhg.engine import SolverOptions
from conic_pdhg.fileio import load_result


def one_dim_lp_doc():
    return {
        "format_version": 1,
        "n": 1, "m": 0, "nb": 1,
        "c": [-1.0], "h": [],
        "bl": [0.0], "bu": [1.0],
        "G": {"rows": [], "cols": [], "vals": []},
        "mGzero": 0, "mGnonnegative": 0,
        "socG": [], "expG": 0, "dual_expG": 0,
    }


def random_lp_doc(rng, n=6, m=6):
    G = rng.standard_normal((m, n))
    x0 = rng.uniform(-1, 1, n)
    h = G @ x0 - rng.uniform(0.1, 1.0, m)
    coo_rows, coo_cols = np.nonzero(np.ones_like(G))
    return {
        "format_version": 1,
        "n": n, "m": m, "nb": n,
        "c": [float(v) for v in rng.standard_normal(n)],
        "h": [float(v) for v in h],
        "bl": [-2.0] * n, "bu": [2.0] * n,
        "G": {
            "rows": [int(i) for i in coo_rows],
            "cols": [int(j) for j in coo_cols],
            "vals": [float(G[i, j]) for i, j in zip(coo_rows, coo_cols)],
        },
        "mGzero": 0, "mGnonnegative": m,
        "socG": [], "expG": 0, "dual_expG": 0,
    }


def write_doc(tmp_path, doc, name="p.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestCli:
    def test_one_dim_lp(self, tmp_path):
        inp = write_doc(tmp_path, one_dim_lp_doc())
        out = str(tmp_path / "r.json")
        code = main(["--input", inp, "--output", out])
        assert code == 0
        doc = load_result(out)
        assert doc["exit_status"] == ":optimal"
        assert doc["pObj"] == pytest.approx(-1.0, abs=1e-5)

    def test_time_limit_exit(self, tmp_path):
        rng = np.random.default_rng(70)
        inp = write_doc(tmp_path, random_lp_doc(rng, n=8, m=8))
        out = str(tmp_path / "r.json")
        code = main([
            "--input", inp, "--output", out,
            "--time-limit", "0.0001", "--rel-tol", "1e-14", "--abs-tol", "1e-14",
        ])
        assert code == 1  # a resource limit is not a definitive answer
        doc = load_result(out)
        assert doc["exit_status"] == ":time_limit" and doc["exit_code"] == 6

    def test_verbose_zero_is_silent(self, tmp_path, capsys):
        inp = write_doc(tmp_path, one_dim_lp_doc())
        main(["--input", inp, "--verbose", "0"])
        assert capsys.readouterr().out == ""

    def test_verbose_prints(self, tmp_path, capsys):
        inp = write_doc(tmp_path, one_dim_lp_doc())
        main(["--input", inp, "--verbose", "1"])
        out = capsys.readouterr().out
        assert ":optimal" in out

    def test_bad_flags_exit_64(self, capsys):
        assert main(["--no-such-flag"]) == USAGE_EXIT
        assert main([]) == USAGE_EXIT  # --input is required

    def test_nan_time_limit_exit_64(self, tmp_path):
        inp = write_doc(tmp_path, one_dim_lp_doc())
        assert main(["--input", inp, "--time-limit", "nan"]) == USAGE_EXIT

    def test_empty_box_exit_64(self, tmp_path, capsys):
        doc = one_dim_lp_doc()
        doc["bl"], doc["bu"] = ["inf"], [5.0]
        assert main(["--input", write_doc(tmp_path, doc)]) == USAGE_EXIT
        assert "empty box" in capsys.readouterr().err

    def test_missing_file_exit_64(self, tmp_path, capsys):
        path = str(tmp_path / "nope.json")
        assert main(["--input", path]) == USAGE_EXIT
        assert capsys.readouterr().err == f"error: no such file: {path}\n"

    def test_unreadable_input_exit_64(self, tmp_path, capsys):
        # a directory raises IsADirectoryError, an OSError other than
        # FileNotFoundError
        assert main(["--input", str(tmp_path)]) == USAGE_EXIT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err

    @pytest.mark.parametrize("flag", ["--output", "--logfile"])
    def test_unwritable_output_or_logfile_exit_64(self, tmp_path, capsys, flag):
        target = tmp_path / "no-such-dir" / "out"
        inp = write_doc(tmp_path, one_dim_lp_doc())
        assert main(["--input", inp, flag, str(target)]) == USAGE_EXIT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err
        assert not target.parent.exists()

    def test_malformed_file_exit_64(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["--input", str(path)]) == USAGE_EXIT
        doc = one_dim_lp_doc()
        doc["mGzero"] = 3
        path2 = write_doc(tmp_path, doc, "bad2.json")
        assert main(["--input", path2]) == USAGE_EXIT

    @pytest.mark.parametrize("key, value", [
        ("G", [1, 2]), ("G", None), ("c", None), ("c", 3.0), ("bl", None), ("socG", 3),
        ("bl", [[0.0]]),
        ("G", {"rows": [[0], [1]], "cols": [0, 0], "vals": [1.0, 1.0]}),
        ("G", {"rows": [[0], 1], "cols": [0, 0], "vals": [1.0, 1.0]}),
        ("G", {"rows": [1.5, 2], "cols": [0, 0], "vals": [1.0, 1.0]}),
    ], ids=lambda v: repr(v)[:24])
    def test_malformed_entries_exit_64(self, tmp_path, capsys, key, value):
        doc = random_lp_doc(np.random.default_rng(0), n=1, m=3)
        doc[key] = value
        assert main(["--input", write_doc(tmp_path, doc), "--max-iter", "10"]) == USAGE_EXIT
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("key", ["c", "h", "G.rows", "G.cols", "G.vals"])
    def test_boolean_entries_exit_64(self, tmp_path, capsys, key):
        # NumPy reads true mixed with numbers as 1, a valid index or value
        doc = random_lp_doc(np.random.default_rng(0), n=8, m=8)
        entries = doc["G"][key[2:]] if key.startswith("G.") else doc[key]
        entries[0] = True
        assert main(["--input", write_doc(tmp_path, doc), "--max-iter", "10"]) == USAGE_EXIT
        assert capsys.readouterr().err.startswith(f"error: {key} ")

    def test_logfile_written(self, tmp_path):
        inp = write_doc(tmp_path, one_dim_lp_doc())
        log = tmp_path / "run.log"
        main(["--input", inp, "--logfile", str(log)])
        lines = log.read_text().strip().splitlines()
        assert lines and all(len(l.split("\t")) == 9 for l in lines)

    def test_flag_plumbing(self):
        parser = build_parser()
        args = parser.parse_args([
            "--input", "x.json", "--no-preconditioner",
            "--no-adaptive-restart", "--gap-restart-freq", "88", "--print-freq", "99",
            "--max-iter", "123",
        ])
        opts = options_from_args(args)
        assert not opts.use_preconditioner
        assert not opts.use_adaptive_restart
        assert opts.duality_gap_restart_freq == 88
        assert opts.print_freq == 99
        assert opts.max_iter == 123

    def test_defaults_are_the_solver_defaults(self):
        assert options_from_args(build_parser().parse_args(["--input", "x.json"])) == SolverOptions()

    def test_two_main_calls_build_the_parser_once(self, tmp_path, monkeypatch):
        # a build costs a few hundred microseconds of every solve's set-up;
        # a usage error between the calls leaves the parser as it was
        import conic_pdhg.cli as cli

        builds = []

        def counted_build():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted_build)
        cli._main_parser.cache_clear()
        inp = write_doc(tmp_path, one_dim_lp_doc())
        try:
            assert main(["--input", inp]) == 0
            assert main(["--no-such-flag"]) == USAGE_EXIT
            assert main(["--input", inp, "--max-iter", "1", "--verbose", "0"]) in (0, 1)
        finally:
            cli._main_parser.cache_clear()
        assert len(builds) == 1

    @pytest.mark.parametrize("flags", [["--kkt-restart"], ["--kkt-restart-freq", "50"]])
    def test_kkt_restart_flags_are_gone(self, tmp_path, capsys, flags):
        # the gap is the only restart metric; the weighted KKT error is its
        # fallback, with no flag of its own
        inp = write_doc(tmp_path, random_lp_doc(np.random.default_rng(0), n=8, m=8))
        assert main(["--input", inp, *flags]) == USAGE_EXIT
        assert "error:" in capsys.readouterr().err

    def test_method_flag_is_gone(self, tmp_path, capsys):
        # the iterate is the only restart point
        inp = write_doc(tmp_path, random_lp_doc(np.random.default_rng(0), n=8, m=8))
        assert main(["--input", inp, "--method", "average"]) == USAGE_EXIT
        assert "unrecognized arguments: --method average" in capsys.readouterr().err

    def test_result_file_echoes_every_option_but_the_callback(self, tmp_path):
        import dataclasses

        inp = write_doc(tmp_path, one_dim_lp_doc())
        out = str(tmp_path / "r.json")
        assert main(["--input", inp, "--output", out]) == 0
        echo = load_result(out)["options"]
        names = {f.name for f in dataclasses.fields(SolverOptions)} - {"iteration_callback"}
        assert set(echo) == names and len(echo) == 15
        assert "method" not in echo

    def test_deterministic_result_files_modulo_time(self, tmp_path):
        rng = np.random.default_rng(71)
        inp = write_doc(tmp_path, random_lp_doc(rng))
        outs = []
        for name in ("a.json", "b.json"):
            out = str(tmp_path / name)
            assert main(["--input", inp, "--output", out]) == 0
            doc = load_result(out)
            doc["solve_time_sec"] = 0.0
            outs.append(json.dumps(doc, sort_keys=True))
        assert outs[0] == outs[1]

    def test_benchmark_seams_are_looked_up_at_call_time(self, tmp_path, monkeypatch):
        # perfbench/worker.py stamps set-up and loop time by replacing
        # engine.adaptive_step_pdhg and cli.solve on their modules
        import conic_pdhg.cli as cli
        import conic_pdhg.engine as engine

        counts = {"solve": 0, "step": 0, "accepted": 0}
        step, solve = engine.adaptive_step_pdhg, cli.solve

        def counted_step(*args, **kwargs):
            counts["step"] += 1
            return step(*args, **kwargs)

        def counted_solve(problem, options):
            counts["solve"] += 1
            options.iteration_callback = lambda _: counts.update(accepted=counts["accepted"] + 1)
            return solve(problem, options)

        monkeypatch.setattr(engine, "adaptive_step_pdhg", counted_step)
        monkeypatch.setattr(cli, "solve", counted_solve)
        inp = write_doc(tmp_path, random_lp_doc(np.random.default_rng(3)))
        assert main(["--input", inp, "--max-iter", "50"]) in (0, 1)
        assert counts["solve"] == 1
        assert counts["step"] >= counts["accepted"] > 0


def test_import_leaves_scipy_optimize_out():
    # scipy.optimize costs about 20 MB of every solve process; only the
    # rescaled-soc root finder uses it, and imports it when it runs
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, conic_pdhg, conic_pdhg.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src))).stdout
    assert out.split() == ["False"]


def test_import_leaves_scipy_linalg_out():
    # the Halpern update runs on numpy's own OpenBLAS, so scipy.linalg (43
    # modules, about 8 MB, and a second OpenBLAS thread pool) stays unloaded
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, conic_pdhg, conic_pdhg.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src))).stdout
    assert out.split() == ["[]"]


def all_cones_doc():
    """x in [-2, 2]^3 with x1 = x2, x1 >= -1, ||(x1, x2)|| <= 3,
    (x3, 1, 8) in the exp cone, a constant dual-exp block and the rotated
    block 2 * 1 * 1 >= (x1 / 2)^2."""
    rows = [0, 0, 1, 3, 4, 9, 13]
    cols = [0, 1, 0, 0, 1, 2, 0]
    vals = [1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 0.5]
    h = [0.0, -1.0, -3.0, 0.0, 0.0, 0.0, -1.0, -8.0, 1.0, 0.0, -1.0, -1.0, -1.0, 0.0]
    return {
        "format_version": 1,
        "n": 3, "m": len(h), "nb": 3,
        "c": [1.0, 1.0, 1.0], "h": h,
        "bl": [-2.0] * 3, "bu": [2.0] * 3,
        "G": {"rows": rows, "cols": cols, "vals": vals},
        "mGzero": 1, "mGnonnegative": 1,
        "socG": [3], "expG": 1, "dual_expG": 1, "rsocG": [3],
    }


def test_import_leaves_scipy_sparse_out(tmp_path):
    # the products and the conversions that build G call scipy's compiled
    # kernels, loaded from their extension file, so neither scipy.sparse nor
    # the scipy._lib layer (which loads numpy.testing and numpy.f2py) is
    # imported, by the package or by a solve of every cone kind
    src = Path(__file__).resolve().parent.parent / "src"
    inp = write_doc(tmp_path, all_cones_doc())
    code = ("import sys\n"
            "from conic_pdhg import cli\n"
            "code = cli.main(['--input', sys.argv[1], '--output', sys.argv[2],\n"
            "                 '--max-iter', '300'])\n"
            "assert code in (0, 1), code\n"
            "prefixes = ('scipy.sparse', 'numpy.testing', 'numpy.f2py')\n"
            "print(sorted(m for m in sys.modules if m.startswith(prefixes)))")
    out = subprocess.run([sys.executable, "-c", code, inp, str(tmp_path / "r.json")],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src))).stdout
    assert out.split() == ["[]"]
    assert len(load_result(str(tmp_path / "r.json"))["slack"]) == 14
