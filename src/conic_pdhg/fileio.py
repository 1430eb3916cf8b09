"""Problem and result files.

Problems are versioned JSON documents whose keys mirror the direct solver
API: n, m, nb, c, h, bl, bu, G (coordinate triplets, 0-based), mGzero,
mGnonnegative, socG, expG, dual_expG, and the optional rsocG extension
(rotated rows appended after the dual-exp rows).  Infinities in bl/bu are
encoded as the strings "inf"/"-inf", never as IEEE infinities in text.
The format only expresses box variables, so nb must equal n.
"""

from __future__ import annotations

import dataclasses
import json
import math
import warnings

import numpy as np

from .linalg import SparseMatrix
from .model import Cone, ConeSpec, ConicProblem

FORMAT_VERSION = 1

_KNOWN_KEYS = {
    "format_version", "n", "m", "nb", "c", "h", "bl", "bu", "G",
    "mGzero", "mGnonnegative", "socG", "expG", "dual_expG", "rsocG",
}


class ProblemFormatError(ValueError):
    """Raised when a problem file violates the format."""


def _encode_float(x: float):
    if math.isfinite(x):
        return float(x)
    if math.isnan(x):
        return "nan"
    return "inf" if x > 0 else "-inf"


def _encode_vector(v: np.ndarray) -> list:
    return [_encode_float(e) for e in v]


def _encode_option(value):
    """An option value as JSON; dataclass-valued options become nested dicts."""
    if isinstance(value, float):
        return _encode_float(value)
    if dataclasses.is_dataclass(value):
        return {f.name: _encode_option(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


def _decode_bound(v, key: str) -> float:
    if isinstance(v, str):
        if v == "inf":
            return math.inf
        if v == "-inf":
            return -math.inf
        raise ProblemFormatError(f"{key}: infinite bounds must be 'inf' or '-inf', got {v!r}")
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ProblemFormatError(f"{key}: entries must be numbers or 'inf'/'-inf', got {v!r}")
    try:
        x = float(v)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if math.isinf(x) or math.isnan(x):
        raise ProblemFormatError(f"{key}: numeric entries must be finite (use 'inf'/'-inf' strings)")
    return x


def _require(doc: dict, key: str):
    if key not in doc:
        raise ProblemFormatError(f"missing required key {key!r}")
    return doc[key]


def _list(value, key: str) -> list:
    if not isinstance(value, list):
        raise ProblemFormatError(f"{key} must be a list, got {type(value).__name__}")
    return value


def _count(value, key: str) -> int:
    """A nonnegative integer; an integral float such as 3.0 is accepted."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ProblemFormatError(f"{key} must be a nonnegative integer, got {value!r}")
    return value


def _number_array(values, key: str) -> np.ndarray:
    """A JSON list of numbers as a flat array of integer or float dtype."""
    try:
        arr = np.asarray(_list(values, key))
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iuf"):
        raise ProblemFormatError(f"{key} must be a flat list of numbers")
    return arr


def _finite_array(values, key: str) -> np.ndarray:
    arr = _number_array(values, key).astype(np.float64)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ProblemFormatError(f"{key}: entries must be finite")
    return arr


def _index_array(values, key: str) -> np.ndarray:
    arr = _number_array(values, key)
    if arr.dtype.kind == "f" and not np.array_equal(arr, np.trunc(arr)):
        raise ProblemFormatError(f"{key} entries must be integers")
    return arr.astype(np.int64)


def problem_to_document(problem: ConicProblem) -> dict:
    """Serialize a box-variable ConicProblem into the file schema."""
    if problem.num_box != problem.n:
        raise ProblemFormatError(
            "the file format only expresses box variables (nb == n); "
            f"got num_box={problem.num_box}, n={problem.n}"
        )
    counts = {Cone.ZERO: 0, Cone.NONNEG: 0}
    soc, exp, dexp, rsoc = [], 0, 0, []
    for spec in problem.dual_cones:
        if spec.kind is Cone.ZERO:
            counts[Cone.ZERO] += spec.dim
        elif spec.kind is Cone.NONNEG:
            counts[Cone.NONNEG] += spec.dim
        elif spec.kind is Cone.SOC:
            soc.append(spec.dim)
        elif spec.kind is Cone.EXP:
            exp += 1
        elif spec.kind is Cone.DUAL_EXP:
            dexp += 1
        elif spec.kind is Cone.RSOC:
            rsoc.append(spec.dim)
    coo = problem.G.tocoo()
    doc = {
        "format_version": FORMAT_VERSION,
        "n": problem.n,
        "m": problem.m,
        "nb": problem.num_box,
        "c": [float(v) for v in problem.c],
        "h": [float(v) for v in problem.h],
        "bl": _encode_vector(problem.l),
        "bu": _encode_vector(problem.u),
        "G": {
            "rows": [int(i) for i in coo.row],
            "cols": [int(j) for j in coo.col],
            "vals": [float(v) for v in coo.data],
        },
        "mGzero": counts[Cone.ZERO],
        "mGnonnegative": counts[Cone.NONNEG],
        "socG": soc,
        "expG": exp,
        "dual_expG": dexp,
    }
    if rsoc:
        doc["rsocG"] = rsoc
    return doc


def document_to_problem(doc: dict) -> ConicProblem:
    if not isinstance(doc, dict):
        raise ProblemFormatError("a problem file must hold a JSON object")
    unknown = set(doc) - _KNOWN_KEYS
    if unknown:
        warnings.warn(f"ignoring unknown problem-file keys: {sorted(unknown)}", stacklevel=2)
    version = _require(doc, "format_version")
    if version != FORMAT_VERSION:
        raise ProblemFormatError(f"unsupported format_version {version}")

    n, m, nb = (_count(_require(doc, key), key) for key in ("n", "m", "nb"))
    if nb != n:
        raise ProblemFormatError(f"nb must equal n (box variables only), got nb={nb}, n={n}")

    c = _finite_array(_require(doc, "c"), "c")
    h = _finite_array(_require(doc, "h"), "h")
    if c.shape != (n,):
        raise ProblemFormatError(f"c must have length n={n}, got {c.shape[0]}")
    if h.shape != (m,):
        raise ProblemFormatError(f"h must have length m={m}, got {h.shape[0]}")

    bl = np.array([_decode_bound(v, "bl") for v in _list(_require(doc, "bl"), "bl")])
    bu = np.array([_decode_bound(v, "bu") for v in _list(_require(doc, "bu"), "bu")])
    if bl.shape != (nb,) or bu.shape != (nb,):
        raise ProblemFormatError(f"bl and bu must have length nb={nb}")

    g = _require(doc, "G")
    if not isinstance(g, dict):
        raise ProblemFormatError("G must be an object with rows, cols and vals")
    rows = _index_array(g.get("rows", []), "G.rows")
    cols = _index_array(g.get("cols", []), "G.cols")
    vals = _finite_array(g.get("vals", []), "G.vals")
    if not (rows.shape == cols.shape == vals.shape):
        raise ProblemFormatError("G.rows, G.cols, G.vals must have equal lengths")
    if rows.size and (rows.min() < 0 or rows.max() >= m):
        raise ProblemFormatError("G.rows entries must lie in [0, m)")
    if cols.size and (cols.min() < 0 or cols.max() >= n):
        raise ProblemFormatError("G.cols entries must lie in [0, n)")

    m_zero = _count(doc.get("mGzero", 0), "mGzero")
    m_nonneg = _count(doc.get("mGnonnegative", 0), "mGnonnegative")
    soc = [_count(d, "socG") for d in _list(doc.get("socG", []), "socG")]
    exp = _count(doc.get("expG", 0), "expG")
    dexp = _count(doc.get("dual_expG", 0), "dual_expG")
    rsoc = [_count(d, "rsocG") for d in _list(doc.get("rsocG", []), "rsocG")]
    total = m_zero + m_nonneg + sum(soc) + 3 * exp + 3 * dexp + sum(rsoc)
    if total != m:
        raise ProblemFormatError(
            "row blocks are inconsistent: mGzero + mGnonnegative + sum(socG) "
            f"+ 3*expG + 3*dual_expG + sum(rsocG) = {total} but m = {m}"
        )

    dual = []
    if m_zero:
        dual.append(ConeSpec(Cone.ZERO, m_zero))
    if m_nonneg:
        dual.append(ConeSpec(Cone.NONNEG, m_nonneg))
    dual.extend(ConeSpec(Cone.SOC, d) for d in soc)
    dual.extend(ConeSpec(Cone.EXP, 3) for _ in range(exp))
    dual.extend(ConeSpec(Cone.DUAL_EXP, 3) for _ in range(dexp))
    dual.extend(ConeSpec(Cone.RSOC, d) for d in rsoc)

    return ConicProblem(
        c=c,
        G=SparseMatrix.from_coo(rows, cols, vals, (m, n)),
        h=h,
        l=bl,
        u=bu,
        num_box=nb,
        primal_cones=(),
        dual_cones=tuple(dual),
    )


def parse_problem(path: str) -> ConicProblem:
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"{path} is not valid JSON: {exc}") from exc
    return document_to_problem(doc)


def serialize_problem(problem: ConicProblem, path: str) -> None:
    with open(path, "w") as f:
        json.dump(problem_to_document(problem), f, indent=1, sort_keys=True, allow_nan=False)
        f.write("\n")


def result_to_document(result, options) -> dict:
    """The result file's document.  Non-finite numbers are written as the
    strings "inf", "-inf" and "nan", as in problem files, so the document is
    strict JSON; every solver option except the callback is echoed."""
    return {
        "format_version": FORMAT_VERSION,
        "exit_code": result.exit_code,
        "exit_status": result.exit_status,
        "pObj": _encode_float(result.p_obj),
        "dObj": _encode_float(result.d_obj),
        "iterations": result.iterations,
        "solve_time_sec": result.solve_time_s,
        "primal": _encode_vector(result.x),
        "dual": _encode_vector(result.y),
        "slack": _encode_vector(result.slack),
        "options": {
            f.name: _encode_option(getattr(options, f.name))
            for f in dataclasses.fields(options)
            if f.name != "iteration_callback"
        },
    }


def write_result(result, options, path: str) -> None:
    with open(path, "w") as f:
        json.dump(result_to_document(result, options), f, indent=1, sort_keys=True, allow_nan=False)
        f.write("\n")


def load_result(path: str) -> dict:
    with open(path) as f:
        return json.load(f)
