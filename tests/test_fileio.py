"""Unit tests for the problem/result file formats."""

import decimal
import importlib
import io
import json
import math
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conic_pdhg import fileio
from conic_pdhg.engine import SolveResult, SolverOptions, solve
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

ROOT = Path(__file__).resolve().parent.parent


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

        opts = SolverOptions(eps_dual_infeasible_low_acc=1e-11)
        r = solve(document_to_problem(minimal_doc()), opts)
        echo = result_to_document(r, opts)["options"]
        names = {f.name for f in dataclasses.fields(SolverOptions)} - {"iteration_callback"}
        assert set(echo) == names
        assert echo["eps_dual_infeasible_low_acc"] == 1e-11

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

    @staticmethod
    def box_problem(dual_cones):
        m = sum(s.dim for s in dual_cones)
        return ConicProblem(c=np.ones(2), G=SparseMatrix(np.ones((m, 2))), h=np.zeros(m),
                            l=-np.ones(2), u=np.ones(2), num_box=2, dual_cones=dual_cones)

    @pytest.mark.parametrize("dual_cones", [
        (ConeSpec(Cone.NONNEG, 1), ConeSpec(Cone.ZERO, 1)),
        (ConeSpec(Cone.ZERO, 1), ConeSpec(Cone.NONNEG, 1), ConeSpec(Cone.ZERO, 1)),
        (ConeSpec(Cone.EXP, 3), ConeSpec(Cone.SOC, 3)),
        (ConeSpec(Cone.DUAL_EXP, 3), ConeSpec(Cone.EXP, 3)),
        (ConeSpec(Cone.RSOC, 3), ConeSpec(Cone.DUAL_EXP, 3)),
    ])
    def test_blocks_out_of_file_order_not_serializable(self, dual_cones, tmp_path):
        # a ConicProblem takes its blocks in any order; the file holds them
        # grouped in its own, so another order would be read back as
        # another problem
        path = tmp_path / "p.json"
        with pytest.raises(ProblemFormatError, match="order zero, nonneg, soc, exp"):
            serialize_problem(self.box_problem(dual_cones), str(path))
        assert not path.exists()

    def test_adjacent_blocks_of_one_kind_are_written_as_their_group(self):
        dual_cones = (ConeSpec(Cone.ZERO, 1), ConeSpec(Cone.ZERO, 2), ConeSpec(Cone.NONNEG, 2),
                      ConeSpec(Cone.NONNEG, 1), ConeSpec(Cone.SOC, 3), ConeSpec(Cone.SOC, 4),
                      ConeSpec(Cone.EXP, 3), ConeSpec(Cone.EXP, 3), ConeSpec(Cone.DUAL_EXP, 3),
                      ConeSpec(Cone.RSOC, 3), ConeSpec(Cone.RSOC, 5))
        doc = problem_to_document(self.box_problem(dual_cones))
        assert (doc["mGzero"], doc["mGnonnegative"], doc["socG"], doc["expG"],
                doc["dual_expG"], doc["rsocG"]) == (3, 3, [3, 4], 2, 1, [3, 5])
        assert [(s.kind, s.dim) for s in document_to_problem(doc).dual_cones] == [
            (Cone.ZERO, 3), (Cone.NONNEG, 3), (Cone.SOC, 3), (Cone.SOC, 4), (Cone.EXP, 3),
            (Cone.EXP, 3), (Cone.DUAL_EXP, 3), (Cone.RSOC, 3), (Cone.RSOC, 5)]

    def test_scaled_blocks_not_serializable(self, tmp_path):
        # the README's scaled example: x1^2/4 + x2^2/9 <= 1 with optimum -2;
        # the file has no scales, so it would be read back as
        # ||(x1, x2)|| <= 1, with optimum -1
        G = np.zeros((3, 2))
        G[1, 0] = G[2, 1] = 1.0
        p = ConicProblem(c=np.array([1.0, 0.0]), G=SparseMatrix(G), h=np.array([-1.0, 0.0, 0.0]),
                         l=np.array([-5.0, -5.0]), u=np.array([5.0, 5.0]), num_box=2,
                         dual_cones=(ConeSpec(Cone.SOC, 3, scale=(1, 2, 3)),))
        r = solve(p)
        assert r.exit_status == ":optimal" and r.p_obj == pytest.approx(-2.0, abs=1e-4)
        path = tmp_path / "p.json"
        with pytest.raises(ProblemFormatError, match="block scales"):
            serialize_problem(p, str(path))
        assert not path.exists()


class TestBounds:
    """bl and bu are decoded in bulk with the per-entry decoder's results."""

    ENTRY = st.one_of(
        st.floats(), st.integers(-2**60, 2**60), st.integers(2**1023, 2**1025),
        st.sampled_from([0, -0.0, 2**53 + 1, 2**63, -2**63 - 1, 10**400, True, False, None,
                         "inf", "-inf", "nan", "Infinity", "1.0", "", [], [1.0], {}]),
    )

    @staticmethod
    def per_entry(values):
        try:
            return np.array([fileio._decode_bound(v, "bl") for v in values]).tobytes()
        except ProblemFormatError as exc:
            return str(exc)

    @given(st.lists(ENTRY, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_bulk_pass_equals_the_per_entry_decoder(self, values):
        try:
            got = fileio._bound_array(values, "bl")
        except ProblemFormatError as exc:
            got = str(exc)
        else:
            assert got.dtype == np.float64 and got.shape == (len(values),)
            got = got.tobytes()
        assert got == self.per_entry(values)

    @pytest.mark.parametrize("values, match", [
        ([0.0, "minus-infinity", True], "infinite bounds must be 'inf' or '-inf', got 'minus-infinity'"),
        ([0.0, True, "x"], "entries must be numbers or 'inf'/'-inf', got True"),
        ([0.0, None], "entries must be numbers or 'inf'/'-inf', got None"),
        ([10**400, "x"], "numeric entries must be finite"),
        ([1.0, math.nan], "numeric entries must be finite"),
        (["inf", -math.inf], "numeric entries must be finite"),
    ])
    def test_error_names_the_first_bad_entry(self, values, match):
        with pytest.raises(ProblemFormatError, match=match):
            fileio._bound_array(values, "bl")

    def test_values_and_infinities(self):
        arr = fileio._bound_array([1, -0.0, "inf", 2.5, "-inf", 2**53 + 1], "bu")
        assert arr.dtype == np.float64
        assert arr.tolist() == [1.0, 0.0, math.inf, 2.5, -math.inf, 2.0**53]
        assert math.copysign(1.0, arr[1]) == -1.0


def reference_parse(path):
    """The whole-document parse: `json.load`, then `document_to_problem`."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"{path} is not valid JSON: {exc}") from exc
    return document_to_problem(doc)


def outcome(parse, path):
    """The bits of every array of the parsed problem, or the error raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            p = parse(path)
        except ValueError as exc:
            return type(exc), str(exc)
    arrays = (p.c, p.h, p.l, p.u, p.G.toarray())
    return ([(a.dtype.str, a.shape, a.tobytes()) for a in arrays],
            [(s.kind, s.dim) for s in p.dual_cones], p.n, p.m, p.num_box)


def assert_parses_alike(text):
    """parse_problem fails exactly where the whole-document parse fails, with
    the same error and message, and otherwise gives bit-identical arrays."""
    with tempfile.TemporaryDirectory() as work_dir:
        path = str(Path(work_dir) / "p.json")
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        assert outcome(parse_problem, path) == outcome(reference_parse, path)


class Members(list):
    """The (key, value) pairs of a JSON object, duplicates allowed."""


ODD = st.one_of(
    st.none(), st.booleans(), st.floats(), st.integers(-2, 2), st.integers(2**64, 2**1100),
    st.sampled_from(["inf", "-inf", "nan", "1"]),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.sampled_from(["rows", "vals"]), st.lists(st.integers(0, 2), max_size=2),
                    max_size=2),
)
SPACE = st.sampled_from(["", "", " ", "\n", "\t", "\r\n", " \n  "])
SEPARATORS = st.sampled_from([(",", ":"), (", ", ": "), (",\n", " : ")])


@st.composite
def problem_members(draw):
    """A small problem document as Members, some members malformed, missing,
    unknown or repeated, in a random order."""
    n = draw(st.integers(1, 3))
    m_zero, m_nonneg, exp = draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(0, 1))
    soc = draw(st.lists(st.integers(2, 3), max_size=2))
    m = m_zero + m_nonneg + sum(soc) + 3 * exp
    nnz = draw(st.integers(0, 5)) if m else 0
    number = st.one_of(st.floats(-10, 10), st.integers(-3, 3))

    def vector(elements, size):
        return draw(st.lists(elements, min_size=size, max_size=size))

    g = Members([("rows", vector(st.integers(0, max(m - 1, 0)), nnz)),
                 ("cols", vector(st.integers(0, n - 1), nnz)),
                 ("vals", vector(number, nnz))])
    doc = Members([
        ("format_version", 1), ("n", n), ("m", m), ("nb", n),
        ("c", vector(number, n)), ("h", vector(number, m)),
        ("bl", vector(st.one_of(st.floats(-10, 0), st.just("-inf")), n)),
        ("bu", vector(st.one_of(st.floats(0, 10), st.integers(0, 3), st.just("inf")), n)),
        ("G", g), ("mGzero", m_zero), ("mGnonnegative", m_nonneg),
        ("socG", soc), ("expG", exp), ("dual_expG", 0),
    ])
    for members, unknown in ((doc, "frobnicate"), (g, "extra")):
        for i in draw(st.sets(st.integers(0, len(members) - 1), max_size=2)):
            members[i] = (members[i][0], draw(ODD))
        for i in sorted(draw(st.sets(st.integers(0, len(members) - 1), max_size=1)), reverse=True):
            del members[i]
        if draw(st.booleans()):
            members.append((unknown, draw(ODD)))
        for i in draw(st.lists(st.integers(0, len(members) - 1), max_size=2)):
            members.append((members[i][0], draw(st.one_of(st.just(members[i][1]), ODD))))
        members[:] = draw(st.permutations(members))
    return doc


def render(draw, members):
    """JSON text of Members, with random whitespace between the tokens."""
    items = []
    for key, value in members:
        text = (render(draw, value) if isinstance(value, Members)
                else json.dumps(value, separators=draw(SEPARATORS)))
        items.append(json.dumps(key) + draw(SPACE) + ":" + draw(SPACE) + text)
    inner = "".join(f"{draw(SPACE)},{draw(SPACE)}" + item for item in items[1:])
    return "{" + draw(SPACE) + (items[0] + inner if items else "") + draw(SPACE) + "}"


@st.composite
def problem_texts(draw):
    """Problem files, valid or not: random documents, with trailing data, a
    `,` or `:` dropped, a byte-order mark, or wrapped in a list."""
    text = draw(SPACE) + render(draw, draw(problem_members())) + draw(SPACE)
    how = draw(st.sampled_from(["as is", "as is", "trailing", "drop", "bom", "list"]))
    if how == "trailing":
        text += draw(st.sampled_from(["x", " {}", "1", ",", "]", " \n", "}"]))
    elif how == "drop":
        marks = [i for i, ch in enumerate(text) if ch in ",:"]
        if marks:
            i = draw(st.sampled_from(marks))
            text = text[:i] + text[i + 1:]
    elif how == "bom":
        text = "\ufeff" + text
    elif how == "list":
        text = "[" + text + "]"
    return text


class TestMemberByMemberParse:
    @given(problem_texts())
    @settings(max_examples=400, deadline=None)
    def test_equals_the_whole_document_parse(self, text):
        assert_parses_alike(text)

    @pytest.mark.parametrize("indent", [None, 1])
    def test_every_truncation_fails_alike(self, indent):
        text = json.dumps(mixed_doc(), indent=indent) + "\n"
        assert_parses_alike(text)
        for end in range(len(text) - 1):
            assert_parses_alike(text[:end])

    @pytest.mark.parametrize("text", [
        "", "  ", "[]", "null", "3", '"G"', "{}", "{,}", '{"n":1,}', '{"n" 1}', '{"n":}',
        '{"n":1 "m":2}', '{"G":{"rows":[],}}', '{"G":{"rows" []}}', '{"G":{"rows":[]}',
        '{"G":[1, 2]}', '{"G":{"rows":[NaN]}}', '{"c":[Infinity]}', '{"n":1}}', '{"n":1,',
        '{"n":1, ', '{"n":1 , }', '{"n":[1,]}', '{ "n"', '{"n\\u0041":1}', '{"n":"\t"}',
    ])
    def test_malformed_texts_fail_alike(self, text):
        assert_parses_alike(text)

    def test_last_duplicate_wins_and_earlier_errors_are_dropped(self, tmp_path):
        text = json.dumps(mixed_doc())
        path = tmp_path / "p.json"
        path.write_text('{"c": [true], "G": [1], ' + text[1:-1] + ', "h": "bad"}')
        with pytest.raises(ProblemFormatError, match="h must be a flat list"):
            parse_problem(str(path))
        path.write_text('{"c": [true], "G": [1], "bu": [1, 2], ' + text[1:])
        assert_parses_alike(path.read_text())
        np.testing.assert_array_equal(parse_problem(str(path)).c, [1.0, -2.0, 0.5])

    def test_document_to_problem_leaves_its_argument(self):
        doc = mixed_doc()
        doc["frobnicate"] = [1, 2]
        before = json.dumps(doc)
        with pytest.warns(UserWarning, match="frobnicate"):
            document_to_problem(doc)
        assert json.dumps(doc) == before

    def test_peak_memory_bounded_by_the_file_size(self, tmp_path, monkeypatch):
        # The text stays alive through the scan, but only one raw JSON list
        # at a time does: the whole-document parse peaked at 4.8 times the
        # size of this file
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        generate = importlib.import_module("generate")
        rng = np.random.default_rng
        instance = generate.planted_lp(rng(1), rng(1), "lp-1", 2000, 4000, 8, 500)
        path = str(tmp_path / "lp.json")
        size = instance.write(path)
        del instance
        tracemalloc.start()
        try:
            problem = parse_problem(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert problem.G.shape == (2000, 4000)
        assert peak <= 3.5 * size, f"parse peak {peak / size:.2f}x the file size"


def with_raw(**members):
    """mixed_doc's text with the named members, `G_rows` for G's rows, spelt
    as the given raw JSON text."""
    doc = mixed_doc()
    for name in members:
        *outer, key = name.split("_")
        (doc[outer[0]] if outer else doc)[key] = "@" + name
    text = json.dumps(doc)
    for name, raw in members.items():
        text = text.replace(json.dumps("@" + name), raw)
    return text


BIG = 2**64  # orjson reads integers outside [-2**63, 2**64) as floats
# what the bytes walk raises for the whole-document parse to read the file
LEFT_TO_FALLBACK = (fileio._Fallback, ProblemFormatError, orjson.JSONDecodeError)


class TestListsReadByOrjson:
    """Lists that orjson reads otherwise than the standard library, or not at
    all, are read again by the standard library's scanner."""

    @pytest.mark.parametrize("members", [
        {"c": f"[1.0, -2.0, {BIG}]"},
        {"c": f"[{-2**63 - 1}, -2.0, 0.5]"},
        {"c": f"[1, 2, {BIG - 1}]"},
        {"c": "[1e19, -2.0, 0.5]"},
        {"G_rows": "[" + ", ".join(map(str, range(15))) + f", {BIG}]"},
        {"G_rows": f"[{-2**63 - 1}" + "".join(f", {i}" for i in range(1, 16)) + "]"},
        {"G_cols": "[" + ", ".join(["0"] * 15) + f", {BIG * 2**70}]"},
        {"socG": f"[3, {BIG + 1}]"},
        {"socG": f"[{BIG}, 4]"},
        {"socG": f"[3, {-BIG - 1}]"},
        {"G_rows": f"[{BIG}, 0.5" + "".join(f", {i}" for i in range(2, 16)) + "]"},
        {"bl": f'[0.0, "-inf", {BIG + 1}]'},
        {"bu": f'[{-2**63 - 3}, 2.0, "inf"]'},
        {"c": "[1.0, NaN, 0.5]"},
        {"c": "[Infinity, -2.0, 0.5]"},
        {"h": "[" + ", ".join(["0.5"] * 15) + ", -Infinity]"},
        {"G_vals": "[" + ", ".join(["1.5"] * 15) + ", 1e400]"},
        {"bl": '[0.0, "-inf", -1e400]'},
        {"bl": '[0.0, "-i,nf", -1.0]'},
        {"bu": '["]", 2.0, "inf"]'},
        {"bu": '[1.0, 2.0, "in]f"]'},
        {"frobnicate": '["a,b", "c]d", ",", "]", 1]'},
        {"frobnicate": '[[1, 2], [3], []]'},
        {"frobnicate": '[{"a": [1, {"b": 2}]}, 3]'},
        {"frobnicate": '["\\ud800", 1]'},
        {"bl": '["\\ud800", "-inf", -1.0]'},
        {"c": "[1.0, -2.0, 0.5,]"},
        {"c": "[, 1.0, -2.0, 0.5]"},
        {"c": "[1.0, , -2.0, 0.5]"},
        {"c": "[1.0, -2.0, 0.5 , ]"},
        {"h": "[ ]"},
        {"socG": "[]", "mGnonnegative": "9"},
    ], ids=lambda members: repr(members)[:40])
    @pytest.mark.parametrize("piece", [1, 2, 3, 7, 1 << 16])
    def test_parse_equals_the_whole_document_parse(self, members, piece, monkeypatch):
        monkeypatch.setattr(fileio, "_PIECE", piece)
        assert_parses_alike(with_raw(**members))

    def test_huge_integer_in_c_is_not_a_number(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(with_raw(c=f"[1.0, -2.0, {BIG}]"))
        with pytest.raises(ProblemFormatError, match="c must be a flat list of numbers"):
            parse_problem(str(path))

    def test_huge_soc_sizes_are_counted_exactly(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(with_raw(socG=f"[3, {BIG + 1}]"))
        with pytest.raises(ProblemFormatError, match=f"= {BIG + 13} but m = 16"):
            parse_problem(str(path))

    def test_deep_nesting_under_an_unknown_key_fails_alike(self, tmp_path):
        # orjson reads objects nested deeper than the stdlib's recursion limit
        depth = 2 * sys.getrecursionlimit()
        path = tmp_path / "p.json"
        path.write_text(with_raw(frobnicate="[" + '{"a": ' * depth + "1" + "}" * depth + "]"))
        for parse in (reference_parse, parse_problem):
            with pytest.raises(RecursionError):
                parse(str(path))

    @pytest.mark.parametrize("text", ["[1,]", "[,1]", "[1,,2]", "[1, ]", "[ ,1]", "[1,\n,2]"])
    @pytest.mark.parametrize("rule", [fileio._finite_array, fileio._index_array])
    def test_empty_pieces_are_rejected(self, text, rule, monkeypatch):
        for piece in (1, 2, 3, 7, 1 << 16):
            monkeypatch.setattr(fileio, "_PIECE", piece)
            with pytest.raises(LEFT_TO_FALLBACK):
                fileio._read_list(text.encode(), 0, rule, "x")

    @pytest.mark.parametrize("text, rule, values", [
        ("[]", fileio._finite_array, []), ("[ ]", fileio._finite_array, []),
        ("[\n]", fileio._index_array, []), ("[1]", fileio._finite_array, [1.0]),
        (" [1, 2.5 ,\t3 ] ", fileio._finite_array, [1.0, 2.5, 3.0]),
        (' ["inf", -0.0, 0, "-inf", 1e18] ', fileio._bound_array,
         [math.inf, -0.0, 0.0, -math.inf, 1e18]),
    ])
    def test_lists_read_in_any_pieces(self, text, rule, values, monkeypatch):
        start = text.index("[")
        want = rule(json.loads(text), "x")
        for piece in (1, 2, 3, 7, 1 << 16):
            monkeypatch.setattr(fileio, "_PIECE", piece)
            got, end = fileio._read_list(text.encode(), start, rule, "x")
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert got.tolist() == values
            assert end == text.index("]") + 1

    @pytest.mark.parametrize("text", [
        "[[1]]", '["]"]', '["a]b", 1]', "[1, NaN]", "[Infinity]", "[1e400]", '["\\ud800"]',
        "[1", "[1,", "[1 2]", "[01]", "[\ufeff1]", '["inf", -0.0, 0, true, null, {}]',
    ])
    def test_rejected_lists(self, text, monkeypatch):
        for piece in (1, 2, 3, 7, 1 << 16):
            monkeypatch.setattr(fileio, "_PIECE", piece)
            for rule in (fileio._finite_array, fileio._bound_array):
                with pytest.raises(LEFT_TO_FALLBACK):
                    fileio._read_list(text.encode(), 0, rule, "x")

    @pytest.mark.parametrize("text", ['[","]', '["a,b"]', '["a", ",", "b,,", 1]'])
    def test_a_cut_inside_a_string_is_rejected(self, text, monkeypatch):
        def read(piece):
            monkeypatch.setattr(fileio, "_PIECE", piece)
            try:
                got, end = fileio._read_list(text.encode(), 0, as_objects, "x")
            except LEFT_TO_FALLBACK:
                return None
            return got.tolist(), end

        for piece in (1, 2, 3, 7, 1 << 16):
            assert read(piece) in [None, (json.loads(text), len(text))]
        assert read(1 << 16) == (json.loads(text), len(text))  # read whole
        assert read(1) is None


def as_objects(values, key):
    """A rule that keeps any list, as an object array."""
    return np.array(values, dtype=object)


def halfway(x):
    """The exact decimal halfway between the positive float x and the next."""
    with decimal.localcontext() as ctx:
        ctx.prec = 2000
        return str((decimal.Decimal(x) + decimal.Decimal(math.nextafter(x, math.inf))) / 2)


@st.composite
def float_literals(draw):
    """JSON float literals: shortest reprs, long mantissas with exponents from
    -400 to 400, and exact halfway points between neighbouring floats."""
    how = draw(st.sampled_from(["repr", "digits", "halfway"]))
    if how == "repr":
        text = repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
    elif how == "digits":
        digits = draw(st.text("0123456789", min_size=17, max_size=40))
        digits = str(draw(st.integers(1, 9))) + digits[1:]
        point = draw(st.integers(1, len(digits)))
        text = f"{digits[:point]}.{digits[point:] or '0'}e{draw(st.integers(-400, 400))}"
    else:
        x = draw(st.floats(min_value=5e-324, max_value=1e308, allow_infinity=False))
        text = halfway(x).replace("E", "e")
    return draw(st.sampled_from(["", "-"])) + text.lstrip("-")


class TestOrjsonFloats:
    @given(float_literals())
    @settings(max_examples=1000, deadline=None)
    def test_orjson_reads_the_bits_of_float(self, text):
        x = float(text)
        if math.isinf(x):
            with pytest.raises(orjson.JSONDecodeError):
                orjson.loads(text)
        else:
            assert np.float64(orjson.loads(text)).tobytes() == np.float64(x).tobytes()

    @pytest.mark.parametrize("text", ["0.5", "2.5e-324", "7.4e-324", "1.7976931348623158e308",
                                      "1.7976931348623157e308", "4.9406564584124654e-324"])
    def test_named_roundings(self, text):
        assert np.float64(orjson.loads(text)).tobytes() == np.float64(float(text)).tobytes()


class TestMemberByMemberParseInSmallPieces(TestMemberByMemberParse):
    """The same texts with orjson's pieces cut after 1, 2, 3 or 7 characters,
    so that every comma of a list is a cut point."""

    @pytest.fixture(autouse=True, scope="class", params=[1, 2, 3, 7])
    def small_pieces(self, request):
        size = fileio._PIECE
        fileio._PIECE = request.param
        yield
        fileio._PIECE = size

    @given(problem_texts())
    @settings(max_examples=100, deadline=None)
    def test_equals_the_whole_document_parse(self, text):
        assert_parses_alike(text)


# Mutations of one entry of an index list, or of the list's end
INDEX_MUTATIONS = {
    "leading zeros": lambda e, draw: "0" * draw(st.integers(1, 3)) + e,
    "minus zero": lambda e, draw: "-0",
    "plus sign": lambda e, draw: "+" + e,
    "19 digits": lambda e, draw: str(draw(st.integers(10**18, 10**19 - 1))),
    "20 digits": lambda e, draw: str(draw(st.integers(10**19, 10**20 - 1))),
    "2**63": lambda e, draw: str(2**63),
    "space inside": lambda e, draw: e[:1] + draw(st.sampled_from([" ", "\t"])) + "1" + e[1:],
    "empty entry": lambda e, draw: draw(st.sampled_from(["", " ", "\n", "\t\r"])),
    "trailing comma": lambda e, draw: e + "," + draw(st.sampled_from(["", " ", "\r\n"])),
    "float": lambda e, draw: e + ".0",
    "true": lambda e, draw: "true",
}
INDEX_SPACE = st.sampled_from(["", "", "", " ", "\n", "\t", "\r", "\r\n ", " \t"])


@st.composite
def index_bodies(draw, values):
    """The text between an index list's brackets: `values`' entries joined by
    commas, with whitespace before and after each, and up to two mutations.
    Returns the text and whether it is unmutated."""
    entries = [str(v) for v in draw(values)]
    mutations = draw(st.lists(st.sampled_from(sorted(INDEX_MUTATIONS)), max_size=2)) if entries else []
    for how in mutations:
        i = draw(st.integers(0, len(entries) - 1))
        entries[i] = INDEX_MUTATIONS[how](entries[i], draw)
    text = ",".join(draw(INDEX_SPACE) + e + draw(INDEX_SPACE) for e in entries)
    return text, not mutations


INDEX_VALUES = st.lists(st.one_of(st.integers(0, 40), st.integers(0, 10**6),
                                  st.integers(0, 10**18 - 1), st.sampled_from([0, 9, 10, 99, 100])),
                        max_size=12)


class TestIndexLists:
    """Index lists of plain digits are read by `np.fromstring`, which reads
    some texts that JSON forbids (`01`, `1,`, a field of whitespace) or
    reads them otherwise (numbers beyond 2**63 - 1).  Where it accepts a
    list, it reads orjson's array; every other list, and every file, reads
    as the whole-document parse reads it."""

    @given(index_bodies(INDEX_VALUES))
    @settings(max_examples=1000, deadline=None)
    def test_accepted_lists_read_as_orjson_reads_them(self, body):
        text, canonical = body
        got = fileio._digit_list(text.encode())
        if canonical and text.strip(" \t\n\r"):
            assert got is not None
        if got is not None:
            want = np.asarray(orjson.loads("[" + text + "]"))
            assert got.dtype == want.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("text", ["01", "1,", " ,00", "00, ", "1,,02", ",01", "1 2", "1\t,0 0",
                                      str(2**63), "9" * 19, "1" + "0" * 18, "-0", "+1", "1.0", ""])
    def test_named_texts_are_rejected(self, text):
        assert fileio._digit_list(text.encode()) is None


class TestIndexListsInSmallPieces:
    """Files whose index lists are mutated parse as the whole-document parse
    does, with orjson's pieces cut after 1, 2, 3 or 7 bytes."""

    @pytest.fixture(autouse=True, scope="class", params=[1, 2, 3, 7])
    def small_pieces(self, request):
        size = fileio._PIECE
        fileio._PIECE = request.param
        yield
        fileio._PIECE = size

    @given(st.one_of(*(st.tuples(st.just(member), index_bodies(st.lists(
        st.integers(0, bound - 1), min_size=16, max_size=16))) for member, bound in (
            ("G_rows", 16), ("G_cols", 3)))))
    @settings(max_examples=100, deadline=None)
    def test_parse_equals_the_whole_document_parse(self, member_body):
        member, (body, _) = member_body
        assert_parses_alike(with_raw(**{member: "[" + body + "]"}))


class TestBooleans:
    """JSON booleans are not numbers, wherever they stand in a list."""

    @pytest.mark.parametrize("base", [[3, 0, 1, 2], [3.5, 0.0, 1.0, 2.5]], ids=["ints", "floats"])
    @pytest.mark.parametrize("where", [0, 2, 4])
    @pytest.mark.parametrize("flag", [True, False])
    def test_rejected(self, base, where, flag):
        values = base[:where] + [flag] + base[where:]
        for convert in (fileio._finite_array, fileio._index_array):
            with pytest.raises(ProblemFormatError, match="x must be a flat list of numbers"):
                convert(values, "x")

    def test_zeros_and_ones_accepted(self):
        arr = fileio._finite_array([1, 0, 1.0], "c")
        assert arr.dtype == np.float64 and arr.tolist() == [1.0, 0.0, 1.0]
        assert fileio._index_array([1, 0, 1], "G.rows").tolist() == [1, 0, 1]

    def test_booleans_alone_rejected(self):
        with pytest.raises(ProblemFormatError, match="c must be a flat list of numbers"):
            fileio._finite_array([True, False], "c")


class TestIndexRange:
    """Integral floats beyond the int64 range are rejected before the cast
    to int64, whose result there is undefined, by both readers."""

    @staticmethod
    def parse_both(text):
        """parse_problem's and the whole-document parse's errors, with
        warnings raised as errors."""
        errors = []
        with tempfile.TemporaryDirectory() as work_dir:
            path = str(Path(work_dir) / "p.json")
            Path(path).write_text(text)
            for parse in (parse_problem, reference_parse):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ProblemFormatError) as info:
                        parse(path)
                errors.append(str(info.value))
        return errors

    @pytest.mark.parametrize("entry", ["1e19", "-1e19", "9.3e18", "9223372036854775808.0",
                                       "Infinity", "-Infinity"])
    @pytest.mark.parametrize("key", ["rows", "cols"])
    def test_beyond_int64_rejected_with_its_own_message(self, key, entry):
        doc = mixed_doc()
        text = json.dumps(doc).replace(f'"{key}": [0', f'"{key}": [{entry}', 1)
        assert text != json.dumps(doc)
        message = f"G.{key} entries must lie in the int64 range [-2^63, 2^63)"
        assert self.parse_both(text) == [message, message]

    @pytest.mark.parametrize("entry, bound", [("-9223372036854775808.0", "[0, m)"),
                                              ("9223372036854774784.0", "[0, m)")])
    def test_int64_edges_reach_the_index_check(self, entry, bound):
        # -2^63 and the largest float below 2^63 cast exactly
        text = json.dumps(mixed_doc()).replace('"rows": [0', f'"rows": [{entry}', 1)
        message = f"G.rows entries must lie in {bound}"
        assert self.parse_both(text) == [message, message]

    def test_range_checked_after_integrality(self):
        with pytest.raises(ProblemFormatError, match="G.rows entries must be integers"):
            fileio._index_array([1e19, 0.5], "G.rows")
        assert fileio._index_array([0.0, 2.0**62], "G.rows").tolist() == [0.0, 2.0**62]


class TestWriteResultBytes:
    """write_result writes what `json.dump(..., indent=1, sort_keys=True)`
    writes, byte for byte."""

    @staticmethod
    def assert_bytes_alike(result, options, tmp_path):
        path = tmp_path / "r.json"
        write_result(result, options, str(path))
        expected = io.StringIO()
        json.dump(result_to_document(result, options), expected, indent=1, sort_keys=True,
                  allow_nan=False)
        assert path.read_text() == expected.getvalue() + "\n"

    @pytest.mark.parametrize("x, y, slack", [
        ([1.0, -0.0, 5e-324, 1e308, 2.0**53 + 2, 0.1], [-1e-5], [1e16]),
        ([1.0, math.inf, -math.inf], [math.nan], [0.5]),
        ([], [], []),
        ([0.25], [], [math.nan, 1.0]),
    ], ids=["finite", "non-finite", "empty", "mixed"])
    def test_vectors(self, x, y, slack, tmp_path):
        r = SolveResult(x=np.array(x, dtype=float), y=np.array(y, dtype=float), lam=np.zeros(1),
                        slack=np.array(slack, dtype=float), exit_code=0, iterations=3,
                        solve_time_s=0.125, p_obj=1.5, d_obj=math.nan, restarts=0)
        self.assert_bytes_alike(r, SolverOptions(), tmp_path)
        self.assert_bytes_alike(r, SolverOptions(time_limit=math.inf, max_iter=7), tmp_path)

    def test_a_solve(self, tmp_path):
        p = document_to_problem(mixed_doc())
        opts = SolverOptions(max_iter=50, time_limit=math.inf)
        self.assert_bytes_alike(solve(p, opts), opts, tmp_path)


def _neighbours(x, steps=64):
    """Floats within `steps` ulps of x, of either sign."""
    up = np.nextafter(np.float64(x), np.inf)
    ulp = float(up - np.float64(x))
    return st.integers(-steps, steps).map(lambda k: x + k * ulp) | st.integers(
        -steps, steps).map(lambda k: -(x + k * ulp))


FINITE_FLOATS = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))
    .filter(math.isfinite),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-4, 1e16,
                     1.7976931348623157e308]),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    _neighbours(1e-4),
    _neighbours(1e16),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestFloatListAgainstJson:
    """The bulk writer of float vectors against `json.dumps` of the list."""

    @given(st.lists(FINITE_FLOATS, min_size=1, max_size=40))
    @settings(max_examples=1500, deadline=None)
    def test_matches_json_dumps(self, values):
        want = json.dumps(values, indent=1).replace("\n", "\n ")
        assert fileio._indented_member(np.array(values, dtype=np.float64)) == want

    def test_boundaries_and_a_strided_vector(self):
        edges = [1e-4, np.nextafter(1e-4, 0.0), 1e16, np.nextafter(1e16, 0.0), 5e-324, -0.0]
        values = np.array([[v, -v] for v in edges]).ravel()
        for v in (values, values[::2]):
            want = json.dumps(v.tolist(), indent=1).replace("\n", "\n ")
            assert fileio._indented_member(v) == want
