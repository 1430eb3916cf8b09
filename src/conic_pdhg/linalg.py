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
    """CSR matrix with a CSC mirror so both Gx and G^T y stream row-wise.

    The two views are built once from the same data and never mutated.
    Products are counted (`n_matvec` / `n_rmatvec`) so tests can assert
    the per-iteration matvec budget of the solver loop.
    """

    def __init__(self, matrix) -> None:
        csr = sp.csr_matrix(matrix)
        if not csr.has_canonical_format:
            # sum_duplicates sorts in place, and a CSR `matrix` shares these arrays
            csr = csr.copy()
            csr.sum_duplicates()
        self._csr = csr
        self._csc_t = csr.tocsc().T  # CSR view of G^T on the CSC arrays
        self.shape = csr.shape
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
        return self._csr.nnz

    def matvec(self, x: np.ndarray) -> np.ndarray:
        if x.shape != (self.n,):
            raise ValueError(f"matvec expects a vector of length {self.n}, got {x.shape}")
        self.n_matvec += 1
        return self._csr @ x

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        if y.shape != (self.m,):
            raise ValueError(f"rmatvec expects a vector of length {self.m}, got {y.shape}")
        self.n_rmatvec += 1
        return self._csc_t @ y

    def max_abs(self) -> float:
        """Largest absolute entry; errors on an all-zero matrix because the
        initial step size 1/max_abs would be undefined."""
        if self.nnz == 0:
            raise NumericalError("matrix_max_abs undefined for an all-zero matrix")
        return float(np.max(np.abs(self._csr.data)))

    def induced_inf_norm(self) -> float:
        """Max absolute row sum (the operator infinity norm)."""
        if self.nnz == 0:
            raise NumericalError("induced infinity norm undefined for an all-zero matrix")
        return float(np.max(np.abs(self._csr).sum(axis=1)))

    def scaled(self, d_row: np.ndarray, d_col: np.ndarray) -> "SparseMatrix":
        """Return diag(d_row) @ A @ diag(d_col) as a new matrix."""
        return SparseMatrix(sp.diags(d_row) @ self._csr @ sp.diags(d_col))

    def toarray(self) -> np.ndarray:
        return self._csr.toarray()

    def tocoo(self):
        return self._csr.tocoo()

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
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    return float(np.sqrt(omega * np.dot(x, x) + np.dot(y, y) / omega))


def n_norm(x: np.ndarray, y: np.ndarray, ctx: WeightedNormContext) -> float:
    """sqrt(||x||^2/tau + ||y||^2/sigma), the diagonal surrogate of the PDHG metric.

    Equals omega_norm(x, y, omega) / sqrt(eta).
    """
    return float(np.sqrt(np.dot(x, x) / ctx.tau + np.dot(y, y) / ctx.sigma))
