"""Problem and result files.

Problems are versioned JSON documents whose keys mirror the direct solver
API: n, m, nb, c, h, bl, bu, G (coordinate triplets, 0-based), mGzero,
mGnonnegative, socG, expG, dual_expG, and the optional rsocG extension
(rotated rows appended after the dual-exp rows).  Infinities in bl/bu are
encoded as the strings "inf"/"-inf", never as IEEE infinities in text.
The format only expresses box variables, so nb must equal n.

`parse_problem` reads a file's top-level object, and the object under G,
one member at a time: each value goes to its key's converter as soon as it
is scanned, so at most one raw JSON list is alive at once.  Lists are read
by orjson, in comma-cut pieces; a list orjson rejects, or one whose numbers
it may read otherwise than the standard library, is scanned again by the
standard library's scanner, so the two readers give the same problems and
the same errors.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import json.decoder
import json.scanner
import math
import warnings

import numpy as np
import orjson

from .linalg import SparseMatrix
from .model import Cone, ConeSpec, ConicProblem

FORMAT_VERSION = 1

_scan_value = json.scanner.make_scanner(json.JSONDecoder())
_skip_space = json.decoder.WHITESPACE.match
_PIECE = 1 << 16  # characters of a list that one orjson.loads call reads, up to the next comma
_BIG_INT = 2.0**63  # orjson reads integers beyond [-2**63, 2**64) as floats at least this large


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
    """An option value as JSON."""
    if isinstance(value, float):
        return _encode_float(value)
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
    """A JSON list of numbers as a flat array of integer or float dtype.

    JSON booleans are rejected: NumPy reads a list mixing them with numbers
    as 0 and 1, so only the entries that read as 0 or 1 are looked at."""
    try:
        arr = np.asarray(_list(values, key))
    except ValueError:  # ragged nesting
        arr = None
    if (arr is None or arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iuf")
            or any(type(values[i]) is bool for i in np.flatnonzero((arr == 0) | (arr == 1)).tolist())):
        raise ProblemFormatError(f"{key} must be a flat list of numbers")
    return arr


def _finite_array(values, key: str) -> np.ndarray:
    arr = _number_array(values, key).astype(np.float64, copy=False)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ProblemFormatError(f"{key}: entries must be finite")
    return arr


def _index_array(values, key: str) -> np.ndarray:
    """Integral numbers; `_assemble` casts them to int64.  Floats are checked
    against the int64 range first: numpy's cast of a float beyond it is
    undefined (with a warning)."""
    arr = _number_array(values, key)
    if arr.dtype.kind == "f" and arr.size:
        if not np.array_equal(arr, np.trunc(arr)):
            raise ProblemFormatError(f"{key} entries must be integers")
        if not (-_BIG_INT <= arr.min() and arr.max() < _BIG_INT):
            raise ProblemFormatError(f"{key} entries must lie in the int64 range [-2^63, 2^63)")
    return arr


def _bound_array(values, key: str) -> np.ndarray:
    """bl or bu: finite numbers, and the strings "inf" and "-inf".

    The pass is in bulk; a list it rejects goes through `_decode_bound`
    entry by entry, so the error names the first bad entry."""
    entries = np.fromiter(_list(values, key), dtype=object, count=len(values))
    upper, lower = entries == "inf", entries == "-inf"
    entries[upper], entries[lower] = math.inf, -math.inf
    if set(map(type, entries)) <= {int, float}:
        try:
            arr = entries.astype(np.float64)
        except OverflowError:  # an integer beyond the float range
            pass
        else:
            if np.all(np.isfinite(arr) | upper | lower):
                return arr
    return np.array([_decode_bound(v, key) for v in values])


def _version(value, key: str):
    if value != FORMAT_VERSION:
        raise ProblemFormatError(f"unsupported format_version {value}")
    return value


def _counts(values, key: str) -> list:
    return [_count(d, key) for d in _list(values, key)]


# One converter per key, shared by parse_problem and document_to_problem.
# A converter takes the key's JSON value and name and returns what the
# assembly step reads; a nested table converts an object member by member.
_G_MEMBERS = {"rows": _index_array, "cols": _index_array, "vals": _finite_array}
_MEMBERS = {
    "format_version": _version,
    "n": _count, "m": _count, "nb": _count,
    "c": _finite_array, "h": _finite_array,
    "bl": _bound_array, "bu": _bound_array,
    "G": _G_MEMBERS,
    "mGzero": _count, "mGnonnegative": _count,
    "socG": _counts, "expG": _count, "dual_expG": _count, "rsocG": _counts,
}


def _convert(rule, value, key: str):
    """One member's converted value, or the error its conversion raised.

    The error is kept, not raised: as in `json`, a later duplicate of the
    key replaces the member, and its error with it.  Unknown keys convert
    to None."""
    if rule is None:
        return None
    try:
        if isinstance(rule, dict):
            if not isinstance(value, dict):
                raise ProblemFormatError(f"{key} must be an object with rows, cols and vals")
            return {k: _convert(rule.get(k), v, f"{key}.{k}") for k, v in value.items()}
        return rule(value, key)
    except ProblemFormatError as exc:
        return exc


_REQUIRED = object()


def _member(members: dict, key: str, default=_REQUIRED):
    """A converted member, raising the error its conversion stored."""
    if key not in members:
        if default is _REQUIRED:
            raise ProblemFormatError(f"missing required key {key!r}")
        return default
    value = members[key]
    if isinstance(value, ProblemFormatError):
        raise value
    return value


class _NotJson(Exception):
    """The text breaks the JSON grammar; `json.loads` reports where."""


def _scan_members(s: str, end: int, rules: dict, prefix: str):
    """Convert the members of the JSON object whose `{` is at s[end - 1].

    Returns the converted members and the index after the closing `}`.  The
    grammar is `json.decoder.JSONObject`'s and every value is scanned as
    `_scan_converted` says; a member whose rule is a table and whose value
    is an object is walked the same way.  Malformed text raises `_NotJson`,
    `StopIteration` or `json.JSONDecodeError`."""
    members = {}
    end = _skip_space(s, end).end()
    if s[end:end + 1] == "}":
        return members, end + 1
    while True:
        if s[end:end + 1] != '"':
            raise _NotJson
        key, end = json.decoder.scanstring(s, end + 1)
        end = _skip_space(s, end).end()
        if s[end:end + 1] != ":":
            raise _NotJson
        end = _skip_space(s, end + 1).end()
        rule = rules.get(key)
        if isinstance(rule, dict) and s[end:end + 1] == "{":
            members[key], end = _scan_members(s, end + 1, rule, f"{prefix}{key}.")
        else:
            members[key], end = _scan_converted(s, end, rule, prefix + key)
        end = _skip_space(s, end).end()
        if s[end:end + 1] == "}":
            return members, end + 1
        if s[end:end + 1] != ",":
            raise _NotJson
        end = _skip_space(s, end + 1).end()


def _load_list(s: str, start: int):
    """The list whose `[` is at s[start], read by orjson, and the index after
    its `]`; (None, None) if orjson rejects it.

    The list ends at the first `]`, so a nested list, or a string holding
    `]`, leaves a piece that orjson rejects.  Pieces are cut at commas, so a
    cut inside a string leaves one too.  A piece that reads as no value, as
    `[1,]`, `[,1]` and `[1,,2]` leave, is rejected unless it is the whole
    list."""
    close = s.find("]", start)
    if close < 0:
        return None, None
    values, begin = [], start + 1
    while True:
        cut = s.find(",", begin + _PIECE, close)
        if cut < 0:
            cut = close
        try:
            piece = orjson.loads("[" + s[begin:cut] + "]")
        except orjson.JSONDecodeError:
            return None, None
        if not piece and (begin > start + 1 or cut < close):
            return None, None
        values += piece
        if cut == close:
            return values, close + 1
        begin = cut + 1


def _read_alike(converted) -> bool:
    """Whether a list that orjson read converts as the stdlib's reading of
    it does.

    orjson reads integers outside [-2**63, 2**64) as floats, so a converted
    list holding a finite number that large is no proof, nor is a conversion
    that failed.  Infinite bounds come from the strings "inf" and "-inf"."""
    if isinstance(converted, np.ndarray):  # orjson's huge integers are floats
        return (converted.dtype.kind != "f"
                or not np.isfinite(converted[np.abs(converted) >= _BIG_INT]).any())
    if isinstance(converted, list):  # counts
        return max(converted, default=0) < _BIG_INT
    return False  # a failed conversion


def _scan_converted(s: str, end: int, rule, key: str):
    """The value at s[end] converted by `rule`, and the index after it.

    A known key's list goes to orjson first; the stdlib's scanner reads what
    orjson rejects and every list whose conversion `_read_alike` cannot
    vouch for.  An unknown key's value is only checked for well-formedness,
    which orjson judges otherwise for objects nested too deep for the
    stdlib's recursion limit, so the stdlib reads it."""
    if rule is not None and s[end:end + 1] == "[":
        value, after = _load_list(s, end)
        if value is not None:
            converted = _convert(rule, value, key)
            del value  # before any second reading
            if _read_alike(converted):
                return converted, after
    value, end = _scan_value(s, end)
    return _convert(rule, value, key), end


def _document_members(doc) -> dict:
    if not isinstance(doc, dict):
        raise ProblemFormatError("a problem file must hold a JSON object")
    return {key: _convert(_MEMBERS.get(key), value, key) for key, value in doc.items()}


def _read_members(path: str) -> dict:
    """The converted members of a problem file's top-level object."""
    with open(path) as f:
        text = f.read()
    start = _skip_space(text, 0).end()
    if text[start:start + 1] == "{":
        try:
            members, end = _scan_members(text, start + 1, _MEMBERS, "")
            if _skip_space(text, end).end() == len(text):
                return members
        except (_NotJson, StopIteration, json.JSONDecodeError):
            pass
    # not an object, or not JSON: the whole-document parse says why
    return _document_members(json.loads(text))


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
    rows, cols, vals = problem.G.triplets()  # column-major; the reader takes any order
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
            "rows": [int(i) for i in rows],
            "cols": [int(j) for j in cols],
            "vals": [float(v) for v in vals],
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
    """The problem a parsed JSON document describes; `doc` is not changed."""
    return _assemble(_document_members(doc))


def parse_problem(path: str) -> ConicProblem:
    try:
        members = _read_members(path)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"{path} is not valid JSON: {exc}") from exc
    return _assemble(members)


def _assemble(members: dict) -> ConicProblem:
    """The cross-field checks and the problem, from converted members."""
    unknown = set(members) - set(_MEMBERS)
    if unknown:
        warnings.warn(f"ignoring unknown problem-file keys: {sorted(unknown)}", stacklevel=3)
    _member(members, "format_version")

    n, m, nb = (_member(members, key) for key in ("n", "m", "nb"))
    if nb != n:
        raise ProblemFormatError(f"nb must equal n (box variables only), got nb={nb}, n={n}")

    c = _member(members, "c")
    h = _member(members, "h")
    if c.shape != (n,):
        raise ProblemFormatError(f"c must have length n={n}, got {c.shape[0]}")
    if h.shape != (m,):
        raise ProblemFormatError(f"h must have length m={m}, got {h.shape[0]}")

    bl = _member(members, "bl")
    bu = _member(members, "bu")
    if bl.shape != (nb,) or bu.shape != (nb,):
        raise ProblemFormatError(f"bl and bu must have length nb={nb}")

    g = _member(members, "G")
    rows = _member(g, "rows", np.zeros(0)).astype(np.int64, copy=False)
    cols = _member(g, "cols", np.zeros(0)).astype(np.int64, copy=False)
    vals = _member(g, "vals", np.zeros(0))
    if not (rows.shape == cols.shape == vals.shape):
        raise ProblemFormatError("G.rows, G.cols, G.vals must have equal lengths")
    if rows.size and (rows.min() < 0 or rows.max() >= m):
        raise ProblemFormatError("G.rows entries must lie in [0, m)")
    if cols.size and (cols.min() < 0 or cols.max() >= n):
        raise ProblemFormatError("G.cols entries must lie in [0, n)")

    m_zero = _member(members, "mGzero", 0)
    m_nonneg = _member(members, "mGnonnegative", 0)
    soc = _member(members, "socG", [])
    exp = _member(members, "expG", 0)
    dexp = _member(members, "dual_expG", 0)
    rsoc = _member(members, "rsocG", [])
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


def serialize_problem(problem: ConicProblem, path: str) -> None:
    with open(path, "w") as f:
        json.dump(problem_to_document(problem), f, indent=1, sort_keys=True, allow_nan=False)
        f.write("\n")


def result_to_document(result, options) -> dict:
    """The result file's document.  Non-finite numbers are written as the
    strings "inf", "-inf" and "nan", as in problem files, so the document is
    strict JSON; every solver option except the callback is echoed."""
    return _result_members(result, options, _encode_vector)


def _result_members(result, options, vector) -> dict:
    """The result document, with `vector` applied to each solution vector."""
    return {
        "format_version": FORMAT_VERSION,
        "exit_code": result.exit_code,
        "exit_status": result.exit_status,
        "pObj": _encode_float(result.p_obj),
        "dObj": _encode_float(result.d_obj),
        "iterations": result.iterations,
        "solve_time_sec": result.solve_time_s,
        "primal": vector(result.x),
        "dual": vector(result.y),
        "slack": vector(result.slack),
        "options": {
            f.name: _encode_option(getattr(options, f.name))
            for f in dataclasses.fields(options)
            if f.name != "iteration_callback"
        },
    }


def _float_list(v: np.ndarray) -> str:
    """A non-empty, all-finite float64 vector as `json.dumps` writes it at a
    member's indentation: each float as its `repr`, one to a line.

    orjson writes the list in bulk.  Its text for a float is `repr`'s except
    where 0 < |v| < 1e-4 (`0.000015` against `1.5e-05`) or |v| >= 1e16
    (`1e16` against `1e+16`); those entries go to orjson as NaN, which it
    writes as `null`, and their `repr` is put in its place."""
    v = np.ascontiguousarray(v)
    magnitude = np.abs(v)
    odd = ((magnitude > 0.0) & (magnitude < 1e-4)) | (magnitude >= 1e16)
    if odd.any():
        pieces = orjson.dumps(np.where(odd, np.nan, v), option=orjson.OPT_SERIALIZE_NUMPY
                              ).decode().split("null")
        reprs = map(float.__repr__, v[odd].tolist())
        text = "".join(itertools.chain.from_iterable(zip(pieces, reprs))) + pieces[-1]
    else:
        text = orjson.dumps(v, option=orjson.OPT_SERIALIZE_NUMPY).decode()
    return "[\n  " + text[1:-1].replace(",", ",\n  ") + "\n ]"


def _indented_member(value) -> str:
    """A top-level member's value as `json.dump(..., indent=1)` writes it.

    An all-finite float vector is written in bulk (`_float_list`)."""
    if isinstance(value, np.ndarray):
        if value.size and value.dtype == np.float64 and np.isfinite(value).all():
            return _float_list(value)
        value = _encode_vector(value)
    # the encoder's only newlines are its indentation: strings escape theirs
    return json.dumps(value, indent=1, sort_keys=True, allow_nan=False).replace("\n", "\n ")


def write_result(result, options, path: str) -> None:
    """Write `result_to_document` as `json.dump(..., indent=1, sort_keys=True)`
    writes it, byte for byte, and a final newline."""
    doc = _result_members(result, options, np.asarray)
    text = ",".join(f"\n {json.dumps(key)}: {_indented_member(doc[key])}" for key in sorted(doc))
    with open(path, "w") as f:
        f.write("{" + text + "\n}\n")


def load_result(path: str) -> dict:
    with open(path) as f:
        return json.load(f)
