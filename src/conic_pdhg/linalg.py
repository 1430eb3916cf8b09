"""Sparse matrix storage and the vector/matrix kernels used by the solver.

`SparseMatrix` holds G as three canonical CSC arrays of its own and runs
its two products through scipy's compiled sparse kernels, called directly.
They are loaded once, from the `_sparsetools` extension file in scipy's
package directory, so neither scipy.sparse nor the scipy._lib layer it
imports (which loads numpy.testing and numpy.f2py) enters a solve process.
No other module calls them: every `SparseMatrix` input is read as triplets
and converted by one routine, `_csc_of_triplets`, and set-up code that
changes G (the rsoc rotations in `model`, the scaling) works on its
entries through `canonical_lines`, `drop_zeros` and `line_sums`.  Each
conversion runs the kernels that scipy.sparse runs for it, in scipy's
order and with its index dtypes, so the arrays are the ones scipy would
build, bit for bit.  No code forms a product of two sparse matrices.

A sharded solve runs its phases on helper threads (`Sharder`), over
contiguous line ranges (`shard_cuts`): row ranges of G x on the CSR copy
(`SparseMatrix.rows`, `matvec_rows`), column ranges of G^T y
(`rmatvec_cols`), and BLAS passes on the GIL-releasing binding
(`BoundUpdate` with `nogil`).  Each kernel computes an entry as the whole
call does, so the bits do not depend on the ranges.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
import weakref
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np


class NumericalError(RuntimeError):
    """Raised when an internal kernel cannot produce a finite result."""


def one_norm(v: np.ndarray) -> float:
    return float(np.sum(np.abs(v)))


def inf_norm(v: np.ndarray) -> float:
    return float(np.max(np.abs(v))) if v.size else 0.0


def two_norm(v: np.ndarray) -> float:
    """sqrt(v . v), the bits of `np.linalg.norm`, where the dot is finite.
    Where it overflows on finite entries, v is rescaled by its largest
    magnitude first."""
    with np.errstate(over="ignore"):
        square = v.dot(v)
    if math.isinf(square) and np.isfinite(v).all():
        scale = inf_norm(v)
        w = v / scale
        return float(scale * math.sqrt(w.dot(w)))
    return float(np.sqrt(square))


# ---------------------------------------------------------------------------
# scipy's compiled sparse kernels, without scipy.sparse
# ---------------------------------------------------------------------------

_SPARSETOOLS = "scipy.sparse._sparsetools"


def _load_sparsetools():
    """scipy's `_sparsetools` extension module, loaded from its file.

    `find_spec` locates scipy's package directory without importing the
    package.  The extension enters itself in `sys.modules` as it is created
    and is taken back out, so a later `import scipy.sparse` runs as it would
    have.  Where scipy.sparse has already loaded the module, that module is
    used.  A scipy without the file fails here, at import, not in a solve.
    """
    if _SPARSETOOLS in sys.modules:
        return sys.modules[_SPARSETOOLS]
    package = importlib.util.find_spec("scipy")
    for directory in (package.submodule_search_locations or ()) if package else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(directory, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(_SPARSETOOLS, path)
                try:
                    module = importlib.util.module_from_spec(spec)
                    spec.loader.exec_module(module)
                finally:
                    sys.modules.pop(_SPARSETOOLS, None)
                return module
    raise ImportError("conic_pdhg needs scipy's compiled sparse kernels "
                      "(scipy/sparse/_sparsetools), which were not found")


_sparsetools = _load_sparsetools()
csc_matvec, csr_matvec = _sparsetools.csc_matvec, _sparsetools.csr_matvec

_INT32_MAX = int(np.iinfo(np.int32).max)


def _index_dtype(*sizes: int) -> type:
    """scipy's index dtype for compressed arrays: int32 where every size
    (dimensions, entry count) fits in it, else int64."""
    return np.int32 if max(sizes, default=0) <= _INT32_MAX else np.int64


def _compressed_transpose(major: int, minor: int, indptr, indices, data):
    """The compressed arrays of the transpose (CSR to CSC, or CSC to CSR),
    by `csr_tocsc`: it visits the major lines in order, so each minor line
    comes out with its indices in ascending order, repeats adjacent."""
    nnz = int(indptr[-1])
    dtype = _index_dtype(major, minor, nnz)
    out = np.empty(minor + 1, dtype), np.empty(nnz, dtype), np.empty(nnz, data.dtype)
    _sparsetools.csr_tocsc(major, minor, indptr.astype(dtype, copy=False),
                           indices.astype(dtype, copy=False), data, *out)
    return out


def _checked_triplets(rows, cols, vals, shape):
    """(rows, cols, vals, (m, n)) as int64, int64 and float64 arrays and
    ints, or ValueError where they do not describe an m x n matrix:
    `coo_tocsr` does not check its indices."""
    m, n = (int(d) for d in shape)
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    if m < 0 or n < 0:
        raise ValueError(f"matrix dimensions must be nonnegative, got {(m, n)}")
    if not (rows.ndim == cols.ndim == vals.ndim == 1 and rows.size == cols.size == vals.size):
        raise ValueError("rows, cols and vals must be 1-D arrays of one length")
    for name, idx, dim in (("row", rows, m), ("column", cols, n)):
        if vals.size and (idx.min() < 0 or idx.max() >= dim):
            raise ValueError(f"{name} indices must lie in [0, {dim})")
    return rows, cols, vals, (m, n)


def _coo_tocsr(m: int, n: int, rows, cols, vals):
    """The CSR arrays that `coo_tocsr` writes for checked triplets of an
    m x n matrix: each row holds its entries in the triplets' order,
    repeats included."""
    nnz = vals.size
    dtype = _index_dtype(m, n, nnz)
    indptr, indices, data = np.empty(m + 1, dtype), np.empty(nnz, dtype), np.empty(nnz)
    _sparsetools.coo_tocsr(m, n, nnz, rows.astype(dtype, copy=False),
                           cols.astype(dtype, copy=False), vals, indptr, indices, data)
    return indptr, indices, data


def _canonical(m: int, n: int, indptr, indices, data):
    """CSR arrays of an m x n matrix made canonical in place, by scipy's
    `sum_duplicates` sequence: `csr_has_canonical_format`, then
    `csr_sort_indices` on rows that are not sorted yet, then
    `csr_sum_duplicates` (which keeps explicit zeros).  The sort is not
    stable, so only this sequence sums repeated entries in scipy's order."""
    if _sparsetools.csr_has_canonical_format(m, indptr, indices):
        return indptr, indices, data
    if not _sparsetools.csr_has_sorted_indices(m, indptr, indices):
        _sparsetools.csr_sort_indices(m, indptr, indices, data)
    _sparsetools.csr_sum_duplicates(m, n, indptr, indices, data)
    nnz = int(indptr[-1])
    return indptr, indices[:nnz], data[:nnz]


def canonical_lines(lines, others, vals, shape):
    """The canonical CSR arrays (indptr, indices, data) of the matrix of
    `shape` with the triplets (lines, others, vals) as its (row, col,
    value) entries, repeats summed: `coo_tocsr`, then `_canonical`, as
    scipy converts a COO matrix to CSR.  Passed the transposed triplets and
    shape, they are the CSC arrays."""
    rows, cols, vals, (m, n) = _checked_triplets(lines, others, vals, shape)
    return _canonical(m, n, *_coo_tocsr(m, n, rows, cols, vals))


def _csc_of_triplets(rows, cols, vals, shape):
    """(shape, indptr, indices, data): the canonical CSC arrays of the
    triplets, repeats summed.  `coo_tocsr` of the transposed triplets, each
    column then sorted where it is not, as scipy's `tocsc` of a COO matrix
    runs; without a repeat the canonical arrays are unique, so these are
    scipy's.  Where an entry repeats, the CSC conversion of the canonical
    CSR arrays instead, which sums repeats in scipy's order."""
    rows, cols, vals, (m, n) = _checked_triplets(rows, cols, vals, shape)
    arrays = _coo_tocsr(n, m, cols, rows, vals)
    if not _sparsetools.csr_has_sorted_indices(n, *arrays[:2]):
        _sparsetools.csr_sort_indices(n, *arrays)
    if not _sparsetools.csr_has_canonical_format(n, *arrays[:2]):  # a column repeats a row
        csr = _canonical(m, n, *_coo_tocsr(m, n, rows, cols, vals))
        arrays = _compressed_transpose(m, n, *csr)
    return (m, n), *arrays


def drop_zeros(shape, indptr, indices, data):
    """The CSC arrays of an m x n matrix without its entries that are zero,
    compacted by `csr_eliminate_zeros`, as scipy's sparse products drop
    them.  `data` is compacted in place; where no entry is zero the arrays
    are returned as they are, else the index arrays are copied first."""
    if np.all(data != 0.0):
        return indptr, indices, data
    m, n = shape
    indptr, indices = indptr.copy(), indices.copy()
    _sparsetools.csr_eliminate_zeros(n, m, indptr, indices, data)
    nnz = int(indptr[-1])
    return indptr, indices[:nnz].copy(), data[:nnz].copy()


def line_sums(shape, indptr, indices, data) -> tuple[np.ndarray, np.ndarray]:
    """The row sums and the column sums of an m x n matrix held as CSC
    arrays, 0 for an empty line.  Each line is summed by np.add.reduceat in
    its compressed order, as scipy's `sum(axis=...)` sums it: the columns in
    CSC order, the rows in CSR order, which one transposition (`csr_tocsc`)
    gives.  A reordered or differently blocked float sum can change the
    last bit."""
    m, n = shape
    row_indptr, _, row_data = _compressed_transpose(n, m, indptr, indices, data)
    sums = np.zeros(m), np.zeros(n)
    for out, ptr, values in zip(sums, (row_indptr, indptr), (row_data, data)):
        nonempty = np.flatnonzero(np.diff(ptr))
        out[nonempty] = np.add.reduceat(values, ptr[nonempty])
    return sums


class SparseMatrix:
    """G stored once, as canonical CSC arrays (`indptr`, `indices`, `data`),
    built once and never mutated.

    G x runs on the CSC arrays (a scatter, a few percent faster than the
    CSR gather on the benchmark's LPs) and G^T y reads the same arrays as
    the CSR matrix of G^T (a gather, faster there than the scatter).  The
    scatter sums every row in ascending column order from 0.0, as the CSR
    kernel does, so G x has the bits of the CSR product.  Both products
    call `csc_matvec` / `csr_matvec` on a zero-filled `out`: these are the
    kernels, and the zero start, that scipy's `@` runs, so the bits are
    `@`'s, without its allocation, its dispatch and the copy into the
    caller's buffer.  Every input is read as triplets and converted by
    `_csc_of_triplets`, so the CSC arrays are G's canonical ones, as scipy
    builds them.  Index arrays are int32 where the dimensions and the
    entry count fit, as scipy's are.  A CSR copy of G, the row arrays, is
    built only on request (`rows`), for the row-range products of a sharded
    solve (`matvec_rows`); other code that reads G by rows transposes its
    entries once (`line_sums`).
    Products are counted (`n_matvec` / `n_rmatvec`) so tests can assert the
    per-iteration matvec budget of the solver loop.
    """

    def __init__(self, matrix) -> None:
        """`matrix` is a dense 2-D array, a shape (m, n) for the all-zero
        matrix, or a scipy sparse matrix, read through its own `tocoo()`.
        Values are float64."""
        if hasattr(matrix, "tocoo"):
            coo = matrix.tocoo()
            triplets = coo.row, coo.col, coo.data, coo.shape
        elif isinstance(matrix, tuple) and len(matrix) == 2 and all(
                isinstance(d, (int, np.integer)) for d in matrix):
            triplets = (), (), (), matrix
        else:
            dense = np.atleast_2d(np.asarray(matrix))
            if dense.ndim != 2:
                raise ValueError(f"expected a 2-D array, got {dense.ndim}-D")
            rows, cols = dense.nonzero()
            triplets = rows, cols, dense[rows, cols], dense.shape
        self._set_arrays(*_csc_of_triplets(*triplets))

    def _set_arrays(self, shape, indptr, indices, data) -> None:
        self.shape = shape
        self.indptr, self.indices, self.data = indptr, indices, data
        self._rows = None
        self.n_matvec = 0
        self.n_rmatvec = 0

    @classmethod
    def from_coo(cls, rows, cols, vals, shape) -> "SparseMatrix":
        """G from (row, col, value) triplets, duplicates summed
        (`_csc_of_triplets`)."""
        out = cls.__new__(cls)
        out._set_arrays(*_csc_of_triplets(rows, cols, vals, shape))
        return out

    @property
    def m(self) -> int:
        return self.shape[0]

    @property
    def n(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        return self.data.size

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """G x, written into `out` (and returned) when it is given; `out`
        must not overlap `x`."""
        m, n = self.shape
        if x.shape != (n,):
            raise ValueError(f"matvec expects a vector of length {n}, got {x.shape}")
        self.n_matvec += 1
        if out is None:
            out = np.zeros(m)
        elif out.shape == (m,):
            out.fill(0.0)
        else:  # the kernel does not check bounds
            raise ValueError(f"out must have length {m}, got {out.shape}")
        csc_matvec(m, n, self.indptr, self.indices, self.data, x, out)
        return out

    def rmatvec(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """G^T y, written into `out` (and returned) when it is given; `out`
        must not overlap `y`."""
        m, n = self.shape
        if y.shape != (m,):
            raise ValueError(f"rmatvec expects a vector of length {m}, got {y.shape}")
        self.n_rmatvec += 1
        if out is None:
            out = np.zeros(n)
        elif out.shape == (n,):
            out.fill(0.0)
        else:  # the kernel does not check bounds
            raise ValueError(f"out must have length {n}, got {out.shape}")
        csr_matvec(n, m, self.indptr, self.indices, self.data, y, out)
        return out

    def rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """G's CSR arrays (indptr, indices, data), built on first use by one
        transposition (`csr_tocsc`) and kept: each row holds its entries in
        ascending column order, the order in which the CSC scatter of
        `matvec` sums them."""
        if self._rows is None:
            self._rows = _compressed_transpose(self.n, self.m, self.indptr, self.indices,
                                               self.data)
        return self._rows

    def matvec_rows(self, x: np.ndarray, lo: int, hi: int, out: np.ndarray) -> None:
        """Rows [lo, hi) of G x into out[lo:hi], from the row arrays
        (`rows`, built on first use): `csr_matvec` sums each row in
        ascending column order from 0.0, so the entries have `matvec`'s
        bits.  Not counted: the caller counts the whole product that its
        ranges make up."""
        indptr, indices, data = self.rows()
        if x.shape != (self.n,) or out.shape != (self.m,) or not 0 <= lo <= hi <= self.m:
            raise ValueError("matvec_rows expects x of length n, out of length m "
                             "and 0 <= lo <= hi <= m")
        part = out[lo:hi]
        part.fill(0.0)
        csr_matvec(hi - lo, self.n, indptr[lo:hi + 1], indices, data, x, part)

    def rmatvec_cols(self, y: np.ndarray, lo: int, hi: int, out: np.ndarray) -> None:
        """Entries [lo, hi) of G^T y into out[lo:hi], the `rmatvec` kernel
        on columns lo to hi - 1, with its bits.  Not counted."""
        if y.shape != (self.m,) or out.shape != (self.n,) or not 0 <= lo <= hi <= self.n:
            raise ValueError("rmatvec_cols expects y of length m, out of length n "
                             "and 0 <= lo <= hi <= n")
        part = out[lo:hi]
        part.fill(0.0)
        csr_matvec(hi - lo, self.m, self.indptr[lo:hi + 1], self.indices, self.data, y, part)

    def max_abs(self) -> float:
        """Largest absolute entry; errors on an all-zero matrix because the
        initial step size 1/max_abs would be undefined."""
        if self.nnz == 0:
            raise NumericalError("matrix_max_abs undefined for an all-zero matrix")
        return float(np.max(np.abs(self.data)))

    def induced_inf_norm(self) -> float:
        """Max absolute row sum (the operator infinity norm), each row summed
        in CSR order (`line_sums`), as scipy's `sum(axis=1)` reduces a CSR
        matrix: a scatter over the CSC arrays sums the rows in another
        order."""
        if self.nnz == 0:
            raise NumericalError("induced infinity norm undefined for an all-zero matrix")
        return float(np.max(line_sums(self.shape, self.indptr, self.indices,
                                      np.abs(self.data))[0]))

    def scaled(self, d_row: np.ndarray, d_col: np.ndarray) -> "SparseMatrix":
        """Return diag(d_row) @ A @ diag(d_col) as a new matrix.

        The CSC data are scaled on their own pattern as (d_row_i a_ij) d_col_j,
        the order of the two sparse products, and entries that round to zero
        are dropped (`drop_zeros`), as the products drop them; so the result
        equals the products' bit for bit without forming them or re-sorting.
        The index arrays are shared when no entry is dropped.
        """
        data = d_row[self.indices] * self.data * np.repeat(d_col, np.diff(self.indptr))
        out = SparseMatrix.__new__(SparseMatrix)
        out._set_arrays(self.shape, *drop_zeros(self.shape, self.indptr, self.indices, data))
        return out

    def toarray(self) -> np.ndarray:
        """G as a dense Fortran-ordered array (`csr_todense`, as scipy's
        `toarray` writes a CSC matrix)."""
        out = np.zeros(self.shape, order="F")
        _sparsetools.csr_todense(self.n, self.m, self.indptr, self.indices, self.data, out.T)
        return out

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, vals) of the entries in column-major order (by
        column, then row).  `rows` and `vals` are the stored CSC arrays, not
        copies, so callers must not write to them; `cols` is expanded from
        the column pointers."""
        return self.indices, np.repeat(np.arange(self.n), np.diff(self.indptr)), self.data

    def reset_counters(self) -> None:
        self.n_matvec = 0
        self.n_rmatvec = 0


@dataclass(frozen=True)
class WeightedNormContext:
    """Primal weight omega and step-size scale eta; tau = eta/omega, sigma = eta*omega."""

    omega: float
    eta: float = 1.0

    def __post_init__(self) -> None:
        if not (self.omega > 0 and np.isfinite(self.omega)):
            raise ValueError(f"omega must be a positive finite real, got {self.omega}")
        if not (self.eta > 0 and np.isfinite(self.eta)):
            raise ValueError(f"eta must be a positive finite real, got {self.eta}")

    @property
    def tau(self) -> float:
        return self.eta / self.omega

    @property
    def sigma(self) -> float:
        return self.eta * self.omega


def omega_norm(x: np.ndarray, y: np.ndarray, omega: float) -> float:
    """sqrt(omega*||x||^2 + ||y||^2/omega)."""
    return float(np.sqrt(omega * x.dot(x) + y.dot(y) / omega))


def n_norm(x: np.ndarray, y: np.ndarray, ctx: WeightedNormContext) -> float:
    """sqrt(||x||^2/tau + ||y||^2/sigma), the diagonal surrogate of the PDHG metric.

    Equals omega_norm(x, y, omega) / sqrt(eta).
    """
    return float(np.sqrt(np.dot(x, x) / ctx.tau + np.dot(y, y) / ctx.sigma))


# ---------------------------------------------------------------------------
# numpy's own OpenBLAS, bound through ctypes
# ---------------------------------------------------------------------------


class OpenBLAS(NamedTuple):
    """The routines of the OpenBLAS that numpy has loaded; `index` is the C
    type of the vector routines' lengths and strides, 64-bit in an ILP64
    build.  `daxpby_nogil` and `daxpy_nogil` are the same two symbols bound
    a second time, through `ctypes.CDLL`, which releases the GIL for the
    call, so that the shards of a sharded solve (`Sharder`) run them at
    once."""

    daxpby: Callable[..., None]
    daxpy: Callable[..., None]
    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]
    index: type
    daxpby_nogil: Callable[..., None]
    daxpy_nogil: Callable[..., None]


def _bind_openblas() -> OpenBLAS | None:
    """numpy's OpenBLAS, or None where it cannot be bound.

    The symbols are looked up through numpy's own extension module: dlsym
    on a library's handle also searches the libraries it depends on, so
    this finds the copy numpy loaded (scipy-openblas wheels prefix its
    symbols with `scipy_`, ILP64 builds suffix them with `64_`) and loads
    no other.  A numpy on another BLAS (MKL, Accelerate), or a platform
    whose loader does not search dependencies, gives None.
    """
    try:
        try:
            from numpy._core import _multiarray_umath as umath
        except ImportError:  # numpy < 2
            from numpy.core import _multiarray_umath as umath
        # PyDLL keeps the GIL through a call, as scipy's BLAS wrappers do:
        # releasing and taking it back costs more than a short pass
        lib, released = ctypes.PyDLL(umath.__file__), ctypes.CDLL(umath.__file__)
    except (ImportError, OSError):
        return None
    for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
        try:
            config, daxpby, daxpy, get_threads, set_threads = (
                getattr(lib, f"{prefix}{name}{suffix}") for name in (
                    "openblas_get_config", "cblas_daxpby", "cblas_daxpy",
                    "openblas_get_num_threads", "openblas_set_num_threads"))
            daxpby_nogil, daxpy_nogil = (getattr(released, f"{prefix}{name}{suffix}")
                                         for name in ("cblas_daxpby", "cblas_daxpy"))
        except AttributeError:
            continue
        config.restype = ctypes.c_char_p
        index = ctypes.c_int64 if b"USE64BITINT" in (config() or b"") else ctypes.c_int
        double, pointer = ctypes.c_double, ctypes.c_void_p
        for f in (daxpby, daxpby_nogil):
            f.argtypes, f.restype = (index, double, pointer, index, double, pointer, index), None
        for f in (daxpy, daxpy_nogil):
            f.argtypes, f.restype = (index, double, pointer, index, pointer, index), None
        set_threads.restype = None
        get_threads.argtypes, get_threads.restype = (), ctypes.c_int
        set_threads.argtypes = (ctypes.c_int,)
        return OpenBLAS(daxpby, daxpy, get_threads, set_threads, index, daxpby_nogil, daxpy_nogil)
    return None


# None where numpy's BLAS is not an OpenBLAS that can be bound; the vector
# updates then fall back to scipy.linalg.blas and the thread count is left alone.
BLAS = _bind_openblas()


def _pointer(arr, name: str, writeable: bool = False) -> ctypes.c_void_p:
    """The address of a 1-D contiguous float64 array, or ValueError."""
    if not (isinstance(arr, np.ndarray) and arr.dtype == np.float64 and arr.ndim == 1
            and arr.flags.c_contiguous):
        raise ValueError(f"{name} must be a 1-D contiguous float64 array")
    if writeable and not arr.flags.writeable:
        raise ValueError(f"{name} must be writeable")
    return ctypes.c_void_p(arr.ctypes.data)


class BoundUpdate:
    """In-place updates of `y` from `x` and `w` through numpy's OpenBLAS, on
    three fixed arrays whose addresses are taken once.

    The arrays must be 1-D contiguous float64 of one length, with `y`
    writeable and overlapping neither of the others; the constructor checks
    this and raises ValueError, so no update writes through a bad pointer.
    The BLAS arguments are built once, as ctypes objects of the declared
    types, and a call only sets the coefficients: converting Python numbers
    costs more than a pass at the loop's shorter lengths.  The object holds
    weak references only, so it keeps no buffer alive; its caller holds the
    arrays through a call.  Needs `BLAS`.  With `nogil` the updates call
    the GIL-releasing binding (`OpenBLAS.daxpby_nogil`), for a shard that
    another thread's shard runs beside.
    """

    __slots__ = ("refs", "_coef", "_axpby", "_axpy_x", "_axpy_w", "_daxpby", "_daxpy")

    def __init__(self, x: np.ndarray, w: np.ndarray, y: np.ndarray, nogil: bool = False) -> None:
        px, pw, py = _pointer(x, "x"), _pointer(w, "w"), _pointer(y, "y", writeable=True)
        if not x.size == w.size == y.size:
            raise ValueError(f"operands must have one length, got {x.size}, {w.size} and {y.size}")
        if np.may_share_memory(y, x) or np.may_share_memory(y, w):
            raise ValueError("y must not overlap the vectors it is updated from")
        self.refs = (weakref.ref(x), weakref.ref(w), weakref.ref(y))
        n, one = BLAS.index(y.size), BLAS.index(1)
        self._coef = alpha, beta, gamma = ctypes.c_double(), ctypes.c_double(), ctypes.c_double()
        self._axpby = (n, alpha, px, one, beta, py, one)
        self._axpy_x = (n, alpha, px, one, py, one)
        self._axpy_w = (n, gamma, pw, one, py, one)
        self._daxpby, self._daxpy = ((BLAS.daxpby_nogil, BLAS.daxpy_nogil) if nogil
                                     else (BLAS.daxpby, BLAS.daxpy))

    def axpby_axpy(self, alpha: float, beta: float, gamma: float) -> None:
        """y = alpha x + beta y (`daxpby`), then y += gamma w (`daxpy`).  As
        in BLAS, beta = 0 sets alpha x without reading y."""
        a, b, g = self._coef
        a.value, b.value, g.value = alpha, beta, gamma
        self._daxpby(*self._axpby)
        self._daxpy(*self._axpy_w)

    def axpy_axpy(self, alpha: float, gamma: float) -> None:
        """y += alpha x, then y += gamma w (two `daxpy`)."""
        a, _, g = self._coef
        a.value, g.value = alpha, gamma
        daxpy = self._daxpy
        daxpy(*self._axpy_x)
        daxpy(*self._axpy_w)


_last_update: BoundUpdate | None = None


def bound_update(x: np.ndarray, w: np.ndarray, y: np.ndarray) -> BoundUpdate:
    """The `BoundUpdate` of (x, w, y): the last one built, when it was built
    on these three arrays (a solve's Halpern step passes the same buffers at
    every iteration), else a new one, checked and kept in its place.  The
    one-entry memo is process-wide but keyed by the live arrays themselves,
    so interleaved callers cost a rebuild each and never share a binding."""
    global _last_update
    update = _last_update
    if update is not None:
        rx, rw, ry = update.refs
        if rx() is x and rw() is w and ry() is y:
            return update
    update = _last_update = BoundUpdate(x, w, y)
    return update


_pin_lock = threading.Lock()
_pins = 0
_caller_threads = 1


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, and give the
    caller's thread count back after it, however it ends.

    A threaded `ddot` splits its sum by thread, so its bits, and a solve's,
    would depend on the count.  The count is process-wide: nested and
    concurrent blocks share one pin, which the first block in sets and the
    last one out restores.  Without `BLAS` the block runs as it is.
    """
    global _pins, _caller_threads
    if BLAS is None:
        yield
        return
    with _pin_lock:
        if _pins == 0:
            _caller_threads = BLAS.get_num_threads()
            BLAS.set_num_threads(1)
        _pins += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pins -= 1
            if _pins == 0:
                BLAS.set_num_threads(_caller_threads)


# ---------------------------------------------------------------------------
# Shards: contiguous ranges of a solve's vectors, run on helper threads
# ---------------------------------------------------------------------------


def shard_cuts(indptr: np.ndarray, count: int, whole: np.ndarray | None = None) -> list[int]:
    """`count` + 1 line indices 0 = cut_0 <= ... <= cut_count = lines that
    split the lines of compressed arrays (`indptr`, lines + 1 pointers) into
    `count` contiguous ranges of about equal entry counts: cut i is the
    first line whose entries start at or past i/count of them.  `whole`
    holds (start, stop) rows of line blocks, ascending and disjoint, that a
    range must hold whole; a cut inside one moves to the nearer of its two
    ends (to the start at the middle)."""
    lines, nnz = indptr.size - 1, int(indptr[-1])
    targets = [nnz * i / count for i in range(1, count)]
    cuts = [0, *np.searchsorted(indptr, targets, side="left").tolist(), lines]
    if whole is not None and len(whole):
        starts = whole[:, 0]
        for i in range(1, count):
            j = int(np.searchsorted(starts, cuts[i], side="right")) - 1
            if j >= 0:
                start, stop = int(whole[j, 0]), int(whole[j, 1])
                if start < cuts[i] < stop:
                    cuts[i] = start if cuts[i] - start <= stop - cuts[i] else stop
    for i in range(1, count + 1):  # a snap may pass the cut after it
        cuts[i] = max(cuts[i], cuts[i - 1])
    return cuts


class Sharder:
    """Runs a phase of a sharded solve, a function of the shard index, on
    `count` shards at once: shard 0 on the calling thread and shard i >= 1
    on helper thread i, started here and stopped by `close`.

    `run` hands the phase to the helpers, runs shard 0, and returns once
    every shard has finished, so no helper is left writing into a buffer;
    it then raises the first exception of any shard, the caller's first.
    A helper waits on a lock between phases, so one phase costs one wake-up
    per helper.  The phases do their work in numpy, scipy `_sparsetools`
    and GIL-releasing BLAS calls (`BoundUpdate` with `nogil`), which run in
    parallel.  With one shard no thread is started and `run` calls the
    phase with index 0.  Use as a context manager, or call `close`.
    """

    def __init__(self, count: int) -> None:
        if count < 1:
            raise ValueError(f"a sharder needs at least one shard, got {count}")
        self.count = count
        self._phase = None
        self._errors: list[BaseException | None] = [None] * count
        self._go = [threading.Lock() for _ in range(count - 1)]
        self._done = [threading.Lock() for _ in range(count - 1)]
        for lock in self._go + self._done:
            lock.acquire()
        self._threads = []
        try:
            for i in range(1, count):
                thread = threading.Thread(target=self._serve, args=(i,), daemon=True,
                                          name=f"conic-pdhg shard {i}")
                thread.start()
                self._threads.append(thread)
        except BaseException:
            self.close()
            raise

    def _serve(self, i: int) -> None:
        go, done = self._go[i - 1], self._done[i - 1]
        while True:
            go.acquire()
            phase = self._phase
            if phase is None:
                return
            try:
                phase(i)
            except BaseException as exc:  # raised on the calling thread by `run`
                self._errors[i] = exc
            finally:
                done.release()

    def run(self, phase: Callable[[int], None]) -> None:
        if self.count == 1:
            phase(0)
            return
        self._phase = phase
        for go in self._go:
            go.release()
        try:
            phase(0)
        finally:
            for done in self._done:
                done.acquire()
            errors, self._errors = self._errors, [None] * self.count
        error = next((e for e in errors if e is not None), None)
        if error is not None:
            raise error

    def close(self) -> None:
        """Stop and join the helpers; a second call does nothing."""
        self._phase = None
        threads, self._threads = self._threads, []
        for go, _ in zip(self._go, threads):  # thread i - 1 waits on go lock i - 1
            go.release()
        for thread in threads:
            thread.join()

    def __enter__(self) -> "Sharder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
