"""Unit tests for the problem/result file formats."""

import json
import math

import numpy as np
import pytest

from conic_pdhg.engine import SolverOptions, solve
from conic_pdhg.fileio import (
    ProblemFormatError,
    document_to_problem,
    load_result,
    parse_problem,
    problem_to_document,
    result_to_document,
    serialize_problem,
    write_result,
)
from conic_pdhg.linalg import SparseMatrix
from conic_pdhg.model import Cone, ConeSpec, ConicProblem


def minimal_doc():
    return {
        "format_version": 1,
        "n": 1, "m": 0, "nb": 1,
        "c": [-1.0], "h": [],
        "bl": [0.0], "bu": [1.0],
        "G": {"rows": [], "cols": [], "vals": []},
        "mGzero": 0, "mGnonnegative": 0,
        "socG": [], "expG": 0, "dual_expG": 0,
    }


def mixed_doc():
    # rows: 1 zero + 2 nonneg + soc(3) + soc(4) + exp + dual-exp = 16
    m = 1 + 2 + 3 + 4 + 3 + 3
    n = 3
    rows = list(range(m))
    cols = [i % n for i in range(m)]
    vals = [float(i + 1) for i in range(m)]
    return {
        "format_version": 1,
        "n": n, "m": m, "nb": n,
        "c": [1.0, -2.0, 0.5],
        "h": [0.1 * i for i in range(m)],
        "bl": [0.0, "-inf", -1.0],
        "bu": [1.0, 2.0, "inf"],
        "G": {"rows": rows, "cols": cols, "vals": vals},
        "mGzero": 1, "mGnonnegative": 2,
        "socG": [3, 4], "expG": 1, "dual_expG": 1,
    }


class TestParse:
    def test_minimal_box_lp(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(minimal_doc()))
        p = parse_problem(str(path))
        assert p.n == 1 and p.m == 0 and p.num_box == 1
        assert p.c[0] == -1.0

    def test_soc_layout(self):
        p = document_to_problem(mixed_doc())
        kinds = [s.kind for s in p.dual_cones]
        dims = [s.dim for s in p.dual_cones]
        assert kinds == [Cone.ZERO, Cone.NONNEG, Cone.SOC, Cone.SOC, Cone.EXP, Cone.DUAL_EXP]
        assert dims == [1, 2, 3, 4, 3, 3]
        # socG=[3,4]: rows start+1..start+3 and start+4..start+7 (1-based)
        start = 1 + 2
        assert p.dual_cones[2].dim == 3
        offsets = np.cumsum([0] + dims)
        assert offsets[2] == start and offsets[3] == start + 3 and offsets[4] == start + 7

    def test_infinity_decoding(self):
        p = document_to_problem(mixed_doc())
        assert p.l[1] == -math.inf and p.u[2] == math.inf

    def test_row_count_identity_error(self):
        doc = mixed_doc()
        doc["mGnonnegative"] = 3
        with pytest.raises(ProblemFormatError, match="mGzero \\+ mGnonnegative"):
            document_to_problem(doc)

    def test_nb_must_equal_n(self):
        doc = minimal_doc()
        doc["n"] = 2
        doc["c"] = [1.0, 1.0]
        with pytest.raises(ProblemFormatError, match="nb must equal n"):
            document_to_problem(doc)

    def test_unknown_keys_warn_and_ignored(self):
        doc = minimal_doc()
        doc["frobnicate"] = 7
        with pytest.warns(UserWarning, match="frobnicate"):
            p = document_to_problem(doc)
        assert p.n == 1

    def test_bad_infinity_string(self):
        doc = minimal_doc()
        doc["bl"] = ["minus-infinity"]
        with pytest.raises(ProblemFormatError):
            document_to_problem(doc)

    def test_ieee_infinity_rejected_in_numeric_fields(self):
        doc = minimal_doc()
        doc["c"] = [math.inf]
        with pytest.raises(ProblemFormatError):
            document_to_problem(doc)

    def test_bad_version(self):
        doc = minimal_doc()
        doc["format_version"] = 99
        with pytest.raises(ProblemFormatError):
            document_to_problem(doc)

    @pytest.mark.parametrize("key, value, match", [
        ("G", [1, 2], "G must be an object"),
        ("G", None, "G must be an object"),
        ("c", None, "c must be a flat list"),
        ("c", 3.0, "c must be a flat list"),
        ("c", ["-1.0"], "c must be a flat list"),
        ("c", [10**400], "c must be a flat list"),
        ("h", [[0.5]], "h must be a flat list"),
        ("bl", None, "bl must be a list"),
        ("bl", [[0.0]], "bl: entries must be numbers"),
        ("bl", [10**400], "bl: numeric entries must be finite"),
        ("socG", 3, "socG must be a list"),
        ("socG", [2.5], "socG must be a nonnegative integer"),
        ("n", None, "n must be a nonnegative integer"),
        ("n", 1.5, "n must be a nonnegative integer"),
        ("m", -1, "m must be a nonnegative integer"),
        ("expG", [1], "expG must be a nonnegative integer"),
    ], ids=lambda v: repr(v)[:20])
    def test_malformed_entries_raise_format_error(self, key, value, match):
        doc = mixed_doc()
        doc[key] = value
        with pytest.raises(ProblemFormatError, match=match):
            document_to_problem(doc)

    @pytest.mark.parametrize("rows, match", [
        ([[0]] * 16, "G.rows must be a flat list"),
        ([[0], 1] + list(range(2, 16)), "G.rows must be a flat list"),
        ([1.5] + list(range(1, 16)), "G.rows entries must be integers"),
        (["0"] + list(range(1, 16)), "G.rows must be a flat list"),
    ])
    def test_malformed_row_indices_raise_format_error(self, rows, match):
        doc = mixed_doc()
        doc["G"]["rows"] = rows
        with pytest.raises(ProblemFormatError, match=match):
            document_to_problem(doc)

    def test_integral_float_counts_and_indices_accepted(self):
        doc = mixed_doc()
        ref = document_to_problem(mixed_doc())
        doc["n"], doc["nb"] = 3.0, 3.0
        doc["G"]["rows"] = [float(i) for i in doc["G"]["rows"]]
        p = document_to_problem(doc)
        assert p.n == 3
        np.testing.assert_array_equal(p.G.toarray(), ref.G.toarray())

    def test_document_must_be_an_object(self):
        with pytest.raises(ProblemFormatError, match="JSON object"):
            document_to_problem([1, 2])

    def test_rsoc_extension_rows(self):
        doc = {
            "format_version": 1,
            "n": 2, "m": 3, "nb": 2,
            "c": [1.0, 1.0], "h": [0.0, 0.0, -1.0],
            "bl": [-10.0, -10.0], "bu": [10.0, 10.0],
            "G": {"rows": [0, 1], "cols": [0, 1], "vals": [1.0, 1.0]},
            "mGzero": 0, "mGnonnegative": 0,
            "socG": [], "expG": 0, "dual_expG": 0,
            "rsocG": [3],
        }
        p = document_to_problem(doc)
        assert p.dual_cones[0].kind is Cone.RSOC
        r = solve(p)
        assert r.exit_code == 0
        assert r.p_obj == pytest.approx(math.sqrt(2.0), abs=1e-4)


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self, tmp_path):
        p1 = document_to_problem(mixed_doc())
        path = tmp_path / "q.json"
        serialize_problem(p1, str(path))
        p2 = parse_problem(str(path))
        np.testing.assert_array_equal(p1.c, p2.c)
        np.testing.assert_array_equal(p1.h, p2.h)
        np.testing.assert_array_equal(p1.l, p2.l)
        np.testing.assert_array_equal(p1.u, p2.u)
        np.testing.assert_array_equal(p1.G.toarray(), p2.G.toarray())
        assert [s.kind for s in p1.dual_cones] == [s.kind for s in p2.dual_cones]
        # and the emitted bytes are stable under a second round trip
        path2 = tmp_path / "q2.json"
        serialize_problem(p2, str(path2))
        assert path.read_bytes() == path2.read_bytes()

    def test_seventeen_digit_floats_survive(self, tmp_path):
        doc = minimal_doc()
        doc["c"] = [-0.12345678901234567]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        p = parse_problem(str(path))
        assert p.c[0] == -0.12345678901234567
        out = tmp_path / "o.json"
        serialize_problem(p, str(out))
        assert parse_problem(str(out)).c[0] == p.c[0]


class TestResultFile:
    def test_slack_recomputation(self, tmp_path):
        p = document_to_problem(mixed_doc())
        opts = SolverOptions(max_iter=50, rel_tol=1e-3, abs_tol=1e-3)
        r = solve(p, opts)
        path = tmp_path / "r.json"
        write_result(r, opts, str(path))
        doc = load_result(str(path))
        x = np.array(doc["primal"])
        slack = np.array(doc["slack"])
        recomputed = p.G.toarray() @ x - p.h
        assert np.max(np.abs(slack - recomputed)) <= 1e-12
        assert doc["exit_code"] in range(9)
        assert doc["exit_status"].startswith(":")
        assert doc["options"]["rel_tol"] == 1e-3

    def test_result_document_fields(self):
        p = document_to_problem(minimal_doc())
        opts = SolverOptions()
        r = solve(p, opts)
        doc = result_to_document(r, opts)
        for key in ("exit_code", "exit_status", "pObj", "dObj", "iterations",
                    "solve_time_sec", "primal", "dual", "slack", "options"):
            assert key in doc
        assert doc["exit_status"] == ":optimal"
        assert doc["pObj"] == pytest.approx(-1.0, abs=1e-5)

    def test_non_finite_values_written_as_strict_json(self, tmp_path):
        from conic_pdhg.engine import SolveResult

        r = SolveResult(
            x=np.array([1.0, math.inf, -math.inf]),
            y=np.array([0.5]),
            lam=np.zeros(3),
            slack=np.array([math.nan]),
            exit_code=8,
            iterations=3,
            solve_time_s=0.0,
            p_obj=math.nan,
            d_obj=2.0,
            restarts=0,
        )
        path = tmp_path / "r.json"
        write_result(r, SolverOptions(time_limit=math.inf), str(path))

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        with open(path) as f:
            doc = json.load(f, parse_constant=reject)
        assert doc["pObj"] == "nan" and doc["dObj"] == 2.0
        assert doc["primal"] == [1.0, "inf", "-inf"]
        assert doc["dual"] == [0.5] and doc["slack"] == ["nan"]
        assert doc["options"]["time_limit"] == "inf"

    def test_options_echo_is_complete(self):
        import dataclasses

        opts = SolverOptions(fixed_reflection_beta=0.5)
        r = solve(document_to_problem(minimal_doc()), opts)
        echo = result_to_document(r, opts)["options"]
        names = {f.name for f in dataclasses.fields(SolverOptions)} - {"iteration_callback"}
        assert set(echo) == names
        assert echo["fixed_reflection_beta"] == 0.5
        assert echo["restart_constants"] == dataclasses.asdict(opts.restart_constants)

    def test_problem_with_primal_cones_not_serializable(self):
        p = ConicProblem(
            c=np.zeros(3),
            G=SparseMatrix(np.zeros((1, 3))),
            h=np.zeros(1),
            l=np.zeros(0),
            u=np.zeros(0),
            num_box=0,
            primal_cones=(ConeSpec(Cone.SOC, 3),),
            dual_cones=(ConeSpec(Cone.NONNEG, 1),),
        )
        with pytest.raises(ProblemFormatError, match="nb == n"):
            problem_to_document(p)
