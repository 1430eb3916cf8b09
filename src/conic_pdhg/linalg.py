"""Sparse matrix storage and the vector/matrix kernels used by the solver."""

from __future__ import annotations

import contextlib
import ctypes
import threading
import weakref
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csc_matvec, csr_matvec


class NumericalError(RuntimeError):
    """Raised when an internal kernel cannot produce a finite result."""


def one_norm(v: np.ndarray) -> float:
    return float(np.sum(np.abs(v)))


def inf_norm(v: np.ndarray) -> float:
    return float(np.max(np.abs(v))) if v.size else 0.0


def two_norm(v: np.ndarray) -> float:
    return float(np.linalg.norm(v))


class SparseMatrix:
    """G stored once, as a canonical CSC matrix, built once and never mutated.

    G x runs on the CSC arrays (a scatter, a few percent faster than the
    CSR gather on the benchmark's LPs) and G^T y reads the same arrays as
    the CSR matrix of G^T (a gather, faster there than the scatter).  The
    scatter sums every row in ascending column order from 0.0, as the CSR
    kernel does, so G x has the bits of the CSR product.  Both products
    call scipy's `_sparsetools.csc_matvec` / `csr_matvec` on a zero-filled
    `out`: these are the kernels, and the zero start, that `@` runs, so the
    bits are `@`'s, without its allocation, its dispatch and the copy into
    the caller's buffer.  The private module is imported at load, so a
    scipy that moves it fails at import rather than in a solve.  The
    entries are canonicalized through a CSR matrix that lives only in
    `__init__`: it sums duplicate triplets in row order, which building the
    CSC matrix straight from triplets does not, and only its CSC conversion
    is kept.  Products are counted (`n_matvec` / `n_rmatvec`) so tests can
    assert the per-iteration matvec budget of the solver loop.
    """

    def __init__(self, matrix) -> None:
        csr = sp.csr_matrix(matrix)
        if not csr.has_canonical_format:
            # sum_duplicates sorts in place, and a CSR `matrix` shares these arrays
            csr = csr.copy()
            csr.sum_duplicates()
        self._set_views(csr.tocsc())

    def _set_views(self, csc) -> None:
        self._csc = csc
        self.shape = csc.shape
        self.n_matvec = 0
        self.n_rmatvec = 0

    @classmethod
    def from_coo(cls, rows, cols, vals, shape) -> "SparseMatrix":
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        return cls(sp.coo_matrix((vals, (rows, cols)), shape=shape))

    @property
    def m(self) -> int:
        return self.shape[0]

    @property
    def n(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        return self._csc.nnz

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
        csc = self._csc
        csc_matvec(m, n, csc.indptr, csc.indices, csc.data, x, out)
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
        csc = self._csc
        csr_matvec(n, m, csc.indptr, csc.indices, csc.data, y, out)
        return out

    def max_abs(self) -> float:
        """Largest absolute entry; errors on an all-zero matrix because the
        initial step size 1/max_abs would be undefined."""
        if self.nnz == 0:
            raise NumericalError("matrix_max_abs undefined for an all-zero matrix")
        return float(np.max(np.abs(self._csc.data)))

    def induced_inf_norm(self) -> float:
        """Max absolute row sum (the operator infinity norm).  The rows are
        summed on a transient CSR copy, by np.add.reduceat in CSR order: a
        scatter over the CSC arrays sums them in another order."""
        if self.nnz == 0:
            raise NumericalError("induced infinity norm undefined for an all-zero matrix")
        return float(np.max(np.abs(self._csc).tocsr().sum(axis=1)))

    def scaled(self, d_row: np.ndarray, d_col: np.ndarray) -> "SparseMatrix":
        """Return diag(d_row) @ A @ diag(d_col) as a new matrix.

        The CSC data are scaled on their own pattern as (d_row_i a_ij) d_col_j,
        the order of the two sparse products, and entries that round to zero
        are dropped, as the products drop them; so the result equals the
        products' bit for bit without forming them or re-sorting.
        """
        rows, cols, vals = self.triplets()
        out = SparseMatrix.__new__(SparseMatrix)
        out._set_views(_with_data(self._csc, d_row[rows] * vals * d_col[cols]))
        return out

    def toarray(self) -> np.ndarray:
        return self._csc.toarray()

    def tocsr(self):
        """A CSR copy of G."""
        return self._csc.tocsr()

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, vals) of the entries in column-major order (by
        column, then row).  `rows` and `vals` are the stored CSC arrays, not
        copies, so callers must not write to them; `cols` is expanded from
        the column pointers."""
        csc = self._csc
        return csc.indices, np.repeat(np.arange(self.n), np.diff(csc.indptr)), csc.data

    def reset_counters(self) -> None:
        self.n_matvec = 0
        self.n_rmatvec = 0


def _with_data(csc, data):
    """`csc`'s pattern with the values `data`, less the entries that are zero;
    shares `csc`'s index arrays when none is."""
    if np.all(data != 0.0):
        return sp.csc_matrix((data, csc.indices, csc.indptr), shape=csc.shape)
    out = sp.csc_matrix((data, csc.indices.copy(), csc.indptr.copy()), shape=csc.shape)
    out.eliminate_zeros()
    return out


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
    build."""

    daxpby: Callable[..., None]
    daxpy: Callable[..., None]
    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]
    index: type


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
        lib = ctypes.PyDLL(umath.__file__)
    except (ImportError, OSError):
        return None
    for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
        try:
            config, daxpby, daxpy, get_threads, set_threads = (
                getattr(lib, f"{prefix}{name}{suffix}") for name in (
                    "openblas_get_config", "cblas_daxpby", "cblas_daxpy",
                    "openblas_get_num_threads", "openblas_set_num_threads"))
        except AttributeError:
            continue
        config.restype = ctypes.c_char_p
        index = ctypes.c_int64 if b"USE64BITINT" in (config() or b"") else ctypes.c_int
        double, pointer = ctypes.c_double, ctypes.c_void_p
        daxpby.argtypes = (index, double, pointer, index, double, pointer, index)
        daxpy.argtypes = (index, double, pointer, index, pointer, index)
        daxpby.restype = daxpy.restype = set_threads.restype = None
        get_threads.argtypes, get_threads.restype = (), ctypes.c_int
        set_threads.argtypes = (ctypes.c_int,)
        return OpenBLAS(daxpby, daxpy, get_threads, set_threads, index)
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
    arrays through a call.  Needs `BLAS`.
    """

    __slots__ = ("refs", "_coef", "_axpby", "_axpy_x", "_axpy_w")

    def __init__(self, x: np.ndarray, w: np.ndarray, y: np.ndarray) -> None:
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

    def axpby_axpy(self, alpha: float, beta: float, gamma: float) -> None:
        """y = alpha x + beta y (`daxpby`), then y += gamma w (`daxpy`).  As
        in BLAS, beta = 0 sets alpha x without reading y."""
        a, b, g = self._coef
        a.value, b.value, g.value = alpha, beta, gamma
        BLAS.daxpby(*self._axpby)
        BLAS.daxpy(*self._axpy_w)

    def axpy_axpy(self, alpha: float, gamma: float) -> None:
        """y += alpha x, then y += gamma w (two `daxpy`)."""
        a, _, g = self._coef
        a.value, g.value = alpha, gamma
        BLAS.daxpy(*self._axpy_x)
        BLAS.daxpy(*self._axpy_w)


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
