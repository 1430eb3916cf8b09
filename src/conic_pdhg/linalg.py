"""Sparse matrix storage and the vector/matrix kernels used by the solver."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


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
    CSR gather on the benchmark's LPs) and G^T y on the CSR view of G^T
    that the same arrays give (a gather, faster there than the scatter).
    The scatter sums every row in ascending column order from 0.0, as the
    CSR kernel does, so G x has the bits of the CSR product.  The entries
    are canonicalized through a CSR matrix that lives only in `__init__`:
    it sums duplicate triplets in row order, which building the CSC matrix
    straight from triplets does not, and only its CSC conversion is kept.
    Products are counted (`n_matvec` / `n_rmatvec`) so tests can assert the
    per-iteration matvec budget of the solver loop.
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
        self._csc_t = csc.T  # CSR view of G^T on the CSC arrays
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
        """G x, written into `out` (and returned) when it is given."""
        if x.shape != (self.n,):
            raise ValueError(f"matvec expects a vector of length {self.n}, got {x.shape}")
        self.n_matvec += 1
        if out is None:
            return self._csc @ x
        out[:] = self._csc @ x
        return out

    def rmatvec(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """G^T y, written into `out` (and returned) when it is given."""
        if y.shape != (self.m,):
            raise ValueError(f"rmatvec expects a vector of length {self.m}, got {y.shape}")
        self.n_rmatvec += 1
        if out is None:
            return self._csc_t @ y
        out[:] = self._csc_t @ y
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
        csc = self._csc
        cols = np.repeat(np.arange(self.n), np.diff(csc.indptr))
        out = SparseMatrix.__new__(SparseMatrix)
        out._set_views(_with_data(csc, d_row[csc.indices] * csc.data * d_col[cols]))
        return out

    def toarray(self) -> np.ndarray:
        return self._csc.toarray()

    def tocoo(self):
        """The entries as triplets in column-major order (by column, then row)."""
        return self._csc.tocoo()

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
    return float(np.sqrt(omega * np.dot(x, x) + np.dot(y, y) / omega))


def n_norm(x: np.ndarray, y: np.ndarray, ctx: WeightedNormContext) -> float:
    """sqrt(||x||^2/tau + ||y||^2/sigma), the diagonal surrogate of the PDHG metric.

    Equals omega_norm(x, y, omega) / sqrt(eta).
    """
    return float(np.sqrt(np.dot(x, x) / ctx.tau + np.dot(y, y) / ctx.sigma))
