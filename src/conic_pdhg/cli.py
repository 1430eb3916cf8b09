"""Command-line front end: solve a problem file, write a result file."""

from __future__ import annotations

import argparse
import sys

from . import termination as term
from .engine import SolverOptions, solve
from .fileio import ProblemFormatError, parse_problem, write_result

USAGE_EXIT = 64

# A definitive answer (optimal or a certified infeasibility) exits 0; hitting
# a resource limit or a numerical failure exits 1.
_DEFINITIVE_CODES = {term.EXIT_OPTIMAL, term.EXIT_PRIMAL_INFEASIBLE_LOW,
                     term.EXIT_PRIMAL_INFEASIBLE_HIGH, term.EXIT_DUAL_INFEASIBLE_LOW,
                     term.EXIT_DUAL_INFEASIBLE_HIGH}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def build_parser() -> argparse.ArgumentParser:
    defaults = SolverOptions()
    p = _Parser(prog="conic-pdhg", description=__doc__)
    p.add_argument("--input", required=True, help="problem file (JSON)")
    p.add_argument("--output", help="result file to write (JSON)")
    p.add_argument("--rel-tol", type=float, default=defaults.rel_tol)
    p.add_argument("--abs-tol", type=float, default=defaults.abs_tol)
    p.add_argument("--time-limit", type=float, default=defaults.time_limit, help="seconds")
    p.add_argument("--max-iter", type=int, default=defaults.max_iter)
    p.add_argument("--no-preconditioner", action="store_true")
    p.add_argument("--no-adaptive-restart", action="store_true")
    p.add_argument("--gap-restart-freq", type=int, default=defaults.duality_gap_restart_freq)
    p.add_argument("--print-freq", type=int, default=defaults.print_freq)
    p.add_argument("--verbose", type=int, choices=(0, 1, 2), default=defaults.verbose)
    p.add_argument("--logfile", help="write iteration log lines to this file")
    return p


def options_from_args(args) -> SolverOptions:
    return SolverOptions(
        rel_tol=args.rel_tol,
        abs_tol=args.abs_tol,
        time_limit=args.time_limit,
        max_iter=args.max_iter,
        use_preconditioner=not args.no_preconditioner,
        use_adaptive_restart=not args.no_adaptive_restart,
        duality_gap_restart_freq=args.gap_restart_freq,
        print_freq=args.print_freq,
        verbose=args.verbose,
        logfile=args.logfile,
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_EXIT

    try:
        problem = parse_problem(args.input)
    except FileNotFoundError:
        sys.stderr.write(f"error: no such file: {args.input}\n")
        return USAGE_EXIT
    except (OSError, ProblemFormatError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_EXIT

    options = options_from_args(args)
    try:
        options.validate()
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_EXIT

    try:
        # an unwritable --logfile fails as the solve starts, --output after it
        result = solve(problem, options)
        if args.output:
            write_result(result, options, args.output)
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_EXIT
    if args.verbose >= 1:
        print(f"exit_status {result.exit_status} pObj {result.p_obj:.9e} dObj {result.d_obj:.9e}")
    return 0 if result.exit_code in _DEFINITIVE_CODES else 1


if __name__ == "__main__":
    raise SystemExit(main())
