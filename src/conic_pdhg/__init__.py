"""Matrix-free restarted primal-dual hybrid gradient solver for conic programs
whose feasible sets are Cartesian products of basic cone blocks."""

from .engine import (
    IterateZ,
    SolveResult,
    SolverOptions,
    SolverState,
    solve,
)
from .fileio import parse_problem, serialize_problem, write_result
from .linalg import NumericalError, SparseMatrix, WeightedNormContext
from .model import Cone, ConeSpec, ConicProblem
from .termination import EXIT_STATUS, ErrorReport

__version__ = "0.1.0"

__all__ = [
    "Cone",
    "ConeSpec",
    "ConicProblem",
    "ErrorReport",
    "EXIT_STATUS",
    "IterateZ",
    "NumericalError",
    "SolveResult",
    "SolverOptions",
    "SolverState",
    "SparseMatrix",
    "WeightedNormContext",
    "parse_problem",
    "serialize_problem",
    "solve",
    "write_result",
]
