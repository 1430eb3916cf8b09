"""The solver's own memory: its import, a parse, and an lp-large-sized solve.

    python tests/footprint.py [--seed 3]

generates the benchmark's lp-large instance (a planted 40000x80000 LP,
perfbench/workloads.py, imported, not changed) into a temporary file and
prints six tab-separated lines:

    import  VmHWM after `import conic_pdhg, conic_pdhg.cli`
    import  the time that `import conic_pdhg.cli` takes, the VmHWM after it
            and the number of `scipy*` modules it loads
    parse   tracemalloc peak of `fileio.parse_problem` on that file, in MB
            and as a multiple of the file's size
    parse   VmHWM after `fileio.parse_problem` reads that file: tracemalloc
            does not see the buffers that orjson allocates
    matrix  bytes of the index and data arrays that the parsed G and its
            rescaled copy (`scaling.rescale_problem`) hold, each on its own
            and both together, an array shared by the two counted once;
            the rescaled copy with the row arrays that a sharded solve
            builds (`SparseMatrix.rows`, where the tree has it), which the
            last figure gives on their own
    cli     VmHWM after `cli.main` solves that file with the lp-large
            options (200 iterations) and writes its result

Each figure comes from a fresh interpreter of its own, which reads its own
/proc/self/status (Linux).  `VmHWM` starts afresh at exec, so the memory
this script spends generating the problem does not show, as it does in a
child's `ru_maxrss`.  The matrix bytes are exact; the other figures are
deterministic enough to compare two trees with one run each.
"""

import argparse
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

VM_HWM = """
with open("/proc/self/status") as f:
    print(next(int(line.split()[1]) for line in f if line.startswith("VmHWM:")))
"""
IMPORT = "import conic_pdhg, conic_pdhg.cli\n" + VM_HWM
IMPORT_CLI = """
import sys, time
t0 = time.perf_counter()
import conic_pdhg.cli
elapsed_us = round(1e6 * (time.perf_counter() - t0))
with open("/proc/self/status") as f:
    kb = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
print(elapsed_us, kb, sum(name.split(".")[0] == "scipy" for name in sys.modules))
"""
PARSE = """
import sys, tracemalloc
from conic_pdhg.fileio import parse_problem
tracemalloc.start()
parse_problem(sys.argv[1])
print(tracemalloc.get_traced_memory()[1])
"""
PARSE_HWM = """
import sys
from conic_pdhg.fileio import parse_problem
parse_problem(sys.argv[1])
""" + VM_HWM
MATRIX = """
import sys
import numpy as np
from conic_pdhg.fileio import parse_problem
from conic_pdhg.scaling import build_scaling, rescale_problem

def arrays(*mats):
    held = {}
    for mat in mats:
        for v in vars(mat).values():
            for a in v if isinstance(v, tuple) else (v,):
                if isinstance(a, np.ndarray):
                    held[a.__array_interface__["data"][0], a.nbytes] = a.nbytes
    return sum(held.values())

p = parse_problem(sys.argv[1])
g, g_scaled = p.G, rescale_problem(p, build_scaling(p)).G
without_rows = arrays(g_scaled)
if hasattr(g_scaled, "rows"):
    g_scaled.rows()
print(arrays(g), arrays(g_scaled), arrays(g, g_scaled), arrays(g_scaled) - without_rows)
"""
CLI = """
import sys
from conic_pdhg import cli
if cli.main(sys.argv[1:]) not in (0, 1):
    raise SystemExit("conic-pdhg failed")
""" + VM_HWM


def child(code, *args):
    """The numbers on the last line that a fresh interpreter running `code`
    prints."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                         capture_output=True, text=True).stdout
    return [int(v) for v in out.splitlines()[-1].split()]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=3, help="lp-large instance seed")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    with tempfile.TemporaryDirectory() as work_dir:
        problem = os.path.join(work_dir, "problem.json")
        _, (case,) = workloads.build("lp-large", args.seed)
        size = case.instance.write(problem)
        del case
        (kb,) = child(IMPORT)
        print(f"import\tVmHWM\t{kb / 1024:.1f} MB")
        elapsed_us, kb, scipy_modules = child(IMPORT_CLI)
        print(f"import\tconic_pdhg.cli\t{elapsed_us / 1e6:.3f} s\tVmHWM {kb / 1024:.1f} MB\t"
              f"{scipy_modules} scipy modules")
        (peak,) = child(PARSE, problem)
        print(f"parse\ttracemalloc peak\t{peak / 2**20:.1f} MB\t{peak / size:.2f}x "
              f"the {size / 2**20:.1f} MB file")
        (kb,) = child(PARSE_HWM, problem)
        print(f"parse\tVmHWM\t{kb / 1024:.1f} MB")
        parsed, scaled, both, rows = child(MATRIX, problem)
        print(f"matrix\tbytes held\tparsed {parsed}\tscaled {scaled}\ttogether {both}"
              f"\trow arrays {rows}")
        (kb,) = child(CLI, "--input", problem, "--output", os.path.join(work_dir, "result.json"),
                   *workloads.LARGE_OPTIONS)
        print(f"cli\tVmHWM\t{kb / 1024:.1f} MB")


if __name__ == "__main__":
    main()
