"""Problem and result files.

Problems are versioned JSON documents whose keys mirror the direct solver
API: n, m, nb, c, h, bl, bu, G (coordinate triplets, 0-based), mGzero,
mGnonnegative, socG, expG, dual_expG, and the optional rsocG extension
(rotated rows appended after the dual-exp rows).  Infinities in bl/bu are
encoded as the strings "inf"/"-inf", never as IEEE infinities in text.
The format only expresses box variables, so nb must equal n; it fixes the
order of the row blocks (`_FILE_ORDER`), which no other module needs, and
it holds no block scales.

`parse_problem` reads a file as bytes and walks its top-level object, and
the object under G, member by member.  orjson reads lists in comma-cut
pieces, turned into arrays a few thousand entries at a time, and
`np.fromstring` reads index lists of plain digits.  Whatever the walk
cannot vouch for (unknown or escaped keys, values orjson rejects or may
read otherwise, any error) takes one fallback: `json.loads` of the text.
"""

from __future__ import annotations

import dataclasses
import itertools
import io
import json
import math
import re
import warnings

import numpy as np
import orjson

from .linalg import SparseMatrix
from .model import Cone, ConeSpec, ConicProblem

FORMAT_VERSION = 1

_PIECE = 1 << 16  # bytes of a list that one orjson.loads call reads, up to the next comma
_BATCH = 1 << 12  # list entries converted to one array at a time
_BIG_INT = 2.0**63  # orjson reads integers beyond [-2**63, 2**64) as floats at least this large
_SPACE = rb"[ \t\n\r]*"  # JSON's whitespace
_OPEN = re.compile(_SPACE + rb"\{")
_KEY = re.compile(_SPACE + rb'"(\w*)"' + _SPACE + rb":" + _SPACE)  # a key without escapes
_NEXT = re.compile(_SPACE + rb"([,}])")
_SCALAR = re.compile(rb"[^,}]*")
_FILE_ORDER = (Cone.ZERO, Cone.NONNEG, Cone.SOC, Cone.EXP, Cone.DUAL_EXP, Cone.RSOC)


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

    The error is kept, not raised, so that `_assemble` reports errors in
    its own order of keys.  Unknown keys convert to None."""
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


class _Fallback(Exception):
    """The bytes walk cannot vouch for a file; the whole-document parse reads it."""


def _object_members(data: bytes, pos: int, rules: dict, prefix: str):
    """The converted members of the object at data[pos] (after whitespace),
    and the index after its `}`.

    Keys must be in `rules`, spelt without escapes; a table's value must be
    a nonempty object, walked alike.  A list goes to `_read_list`, any other
    value to orjson, cut at the next `,` or `}` (a string or object cut
    there is rejected).  The rest is the fallback's: unknown keys, which it
    warns of, and errors, which it reports."""
    members, start = {}, _OPEN.match(data, pos)
    if not start:
        raise _Fallback
    pos = start.end()
    while True:
        key = _KEY.match(data, pos)
        name = key.group(1).decode() if key else ""
        rule = rules.get(name)
        if rule is None:
            raise _Fallback
        pos = key.end()
        if isinstance(rule, dict):
            members[name], pos = _object_members(data, pos, rule, f"{prefix}{name}.")
        elif data[pos:pos + 1] == b"[":
            members[name], pos = _read_list(data, pos, rule, prefix + name)
        else:
            end = _SCALAR.match(data, pos).end()
            members[name], pos = _vouched(rule, orjson.loads(data[pos:end]), prefix + name), end
        sep = _NEXT.match(data, pos)
        if sep is None:
            raise _Fallback
        pos = sep.end()
        if sep.group(1) == b"}":
            return members, pos


def _vouched(rule, value, key: str):
    """`rule`'s conversion of a value read by orjson, where the standard
    library's reading converts alike: orjson reads integers outside
    [-2**63, 2**64) as floats, so a finite number that large is no proof.
    Infinite bounds come from "inf" strings.  Conversion errors propagate."""
    converted = rule(value, key)
    if isinstance(converted, np.ndarray):
        huge = converted.dtype.kind == "f" and np.isfinite(
            converted[np.abs(converted) >= _BIG_INT]).any()
    else:  # counts, a count or the version
        huge = max(converted if isinstance(converted, list) else [converted], default=0) >= _BIG_INT
    if huge:
        raise _Fallback
    return converted


def _read_list(data: bytes, start: int, rule, key: str):
    """The list whose `[` is at data[start], converted by `rule`, and the
    index after its `]`.

    An index list of plain digits goes to `_digit_list`.  Other lists are
    read by orjson in pieces cut at commas, and converted `_BATCH` entries
    at a time into arrays, joined only if they share a dtype (numpy reads a
    whole list as one).  The list ends at the first `]`, so a nested list,
    or a string holding `]` or cut at a comma, leaves a piece that orjson
    rejects; so does an empty piece of a list that is not empty (`[1,]`)."""
    close = data.find(b"]", start)
    if close < 0:
        raise _Fallback
    if rule is _index_array:
        values = _digit_list(data[start + 1:close])
        if values is not None:
            return values, close + 1
    parts, values, begin = [], [], start + 1
    while begin <= close:
        cut = data.find(b",", begin + _PIECE, close)
        cut = close if cut < 0 else cut
        piece = orjson.loads(b"[" + data[begin:cut] + b"]")
        if not piece and (begin > start + 1 or cut < close):
            raise _Fallback
        values += piece
        if len(values) >= _BATCH or cut == close:
            parts.append(_vouched(rule, values, key))
            values = []
        begin = cut + 1
    if isinstance(parts[0], list):  # counts
        return sum(parts, []), close + 1
    if len({part.dtype for part in parts}) > 1:
        raise _Fallback
    return np.concatenate(parts), close + 1


def _digit_list(body: bytes):
    """An index list's body as int64 by `np.fromstring`, where it holds only
    canonical decimal integers below 10**18, commas and whitespace; else None.

    numpy reads `01` as 1, a field of whitespace as 0, `1,` as [1], and a
    number beyond 2**63 - 1 as 2**63 - 1.  So no field may be empty, each
    must give one value, and the digits must number those of the values'
    canonical decimals: no field has fewer."""
    space = body.translate(None, b"0123456789,")
    if space.translate(None, b" \t\n\r"):
        return None
    compact = body.translate(None, b" \t\n\r") if space else body
    comma = np.frombuffer(compact, np.uint8) == ord(",")
    if not comma.size or comma[0] or comma[-1] or (comma[1:] & comma[:-1]).any():
        return None  # an empty field
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)  # numpy < 2 only warns
        try:
            values = np.fromstring(body, dtype=np.int64, sep=",")
        except (ValueError, DeprecationWarning):  # whitespace inside a number
            return None
    commas = int(np.count_nonzero(comma))
    if values.size != commas + 1 or values.max() >= 10**18:
        return None
    beyond_first = sum(np.count_nonzero(values >= 10**k) for k in range(1, len(str(values.max()))))
    return values if values.size + beyond_first == comma.size - commas else None


def _document_members(doc) -> dict:
    if not isinstance(doc, dict):
        raise ProblemFormatError("a problem file must hold a JSON object")
    return {key: _convert(_MEMBERS.get(key), value, key) for key, value in doc.items()}


def _read_members(path: str) -> dict:
    """The converted members of a problem file's top-level object: the walk's,
    else the whole-document parse's, of the text as `open(path)` decodes it."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        members, end = _object_members(data, 0, _MEMBERS, "")
        if not data[end:].strip(b" \t\n\r"):
            return members
    except (_Fallback, ProblemFormatError, orjson.JSONDecodeError):
        pass
    return _document_members(json.loads(io.TextIOWrapper(io.BytesIO(data)).read()))


def problem_to_document(problem: ConicProblem) -> dict:
    """Serialize a box-variable ConicProblem into the file schema."""
    if problem.num_box != problem.n:
        raise ProblemFormatError(
            "the file format only expresses box variables (nb == n); "
            f"got num_box={problem.num_box}, n={problem.n}"
        )
    ranks = [_FILE_ORDER.index(spec.kind) for spec in problem.dual_cones]
    if ranks != sorted(ranks):
        raise ProblemFormatError(
            "the file format holds row blocks in the order zero, nonneg, soc, exp, dual-exp, rsoc")
    if any(np.any(spec.scale != 1.0) for spec in problem.dual_cones):
        raise ProblemFormatError("the file format holds no block scales; every scale must be all ones")
    dims = {kind: [spec.dim for spec in problem.dual_cones if spec.kind is kind] for kind in Cone}
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
        "mGzero": sum(dims[Cone.ZERO]),
        "mGnonnegative": sum(dims[Cone.NONNEG]),
        "socG": dims[Cone.SOC],
        "expG": len(dims[Cone.EXP]),
        "dual_expG": len(dims[Cone.DUAL_EXP]),
    }
    if dims[Cone.RSOC]:
        doc["rsocG"] = dims[Cone.RSOC]
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

    c, h = _member(members, "c"), _member(members, "h")
    if c.shape != (n,):
        raise ProblemFormatError(f"c must have length n={n}, got {c.shape[0]}")
    if h.shape != (m,):
        raise ProblemFormatError(f"h must have length m={m}, got {h.shape[0]}")

    bl, bu = _member(members, "bl"), _member(members, "bu")
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

    dual = [ConeSpec(kind, dim) for kind, dim in ((Cone.ZERO, m_zero), (Cone.NONNEG, m_nonneg)) if dim]
    dual += [ConeSpec(Cone.SOC, d) for d in soc]
    dual += [ConeSpec(Cone.EXP, 3) for _ in range(exp)]
    dual += [ConeSpec(Cone.DUAL_EXP, 3) for _ in range(dexp)]
    dual += [ConeSpec(Cone.RSOC, d) for d in rsoc]

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
    doc = problem_to_document(problem)  # before the file exists, so a refusal leaves none
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True, allow_nan=False)
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
