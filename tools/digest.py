"""Fixed-seed digests of fopsolve's outputs: one line per corpus entry, then a total.

    python3 tools/digest.py [CHECKOUT]

CHECKOUT is a source checkout whose `src/` fopsolve is digested; it
defaults to the checkout that holds this script. The corpus is this
script's own, so two checkouts are digested on the same inputs:

* the benchmark problems of this checkout's `perfbench/workloads.py` at
  fixed seeds, each solve digested as `x.tobytes()` and
  `repr(SolveReport)`, one line per workload and seed;
* everything `fopsolve solve --gen tridiag:16 --seed 3` writes: exit code,
  standard output and error, report, history and solution; the same for
  `diag:0,0,0` and `diag:1e300,1e300,1e300`, whose first bootstrap fails
  and whose restarts run out (five on True, one on Overflow);
* everything `fopsolve verify --report` writes.

The digests depend on the BLAS kernel and its thread count, so BLAS runs
on one thread here, and a total is comparable only with one taken on the
same machine. Equal totals mean bit-identical numerics on this corpus.
`tools/digest-epoch` is bumped by a change that means to alter them.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile

# Before numpy loads its BLAS, here and in the commands run below.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOLVES = (("desk", range(701, 706)), ("restart-long", range(701, 704)), ("sparse-1e6", (9, 701)))
OUTPUTS = ["--report", "report", "--history", "history", "--solution", "solution"]
COMMANDS = (("solve --gen tridiag:16 --seed 3", ["solve", "--gen", "tridiag:16", "--seed", "3", *OUTPUTS]),
            # First bootstraps that fail: five True restarts, then one Overflow restart; both exit 2.
            ("solve --gen diag:0,0,0 --seed 3", ["solve", "--gen", "diag:0,0,0", "--seed", "3", *OUTPUTS]),
            ("solve --gen diag:1e300,1e300,1e300 --seed 3",
             ["solve", "--gen", "diag:1e300,1e300,1e300", "--seed", "3", *OUTPUTS]),
            ("verify --report", ["verify", "--report", "report"]))


def solve_digests(workloads, solver):
    """(label, digest) of every solve of the benchmark problems at the fixed seeds."""
    for workload, seeds in SOLVES:
        for seed in seeds:
            digest = hashlib.sha256()
            for problem in workloads.BUILDERS[workload](seed):
                x, report = solver.solve(problem.matrix, problem.b, config=problem.config)
                digest.update(x.tobytes())
                digest.update(repr(report).encode())
            yield f"{workload}:{seed}", digest.hexdigest()


def command_digests(src: str):
    """(label, digest) of everything each command writes, run on `src` in a
    fresh interpreter and a fresh directory."""
    env = {**os.environ, "PYTHONPATH": src}
    for label, argv in COMMANDS:
        with tempfile.TemporaryDirectory() as cwd:
            done = subprocess.run([sys.executable, "-m", "fopsolve", *argv], cwd=cwd, env=env, capture_output=True)
            digest = hashlib.sha256(f"exit {done.returncode}\n".encode() + done.stdout + b"\0" + done.stderr)
            for name in sorted(os.listdir(cwd)):
                with open(os.path.join(cwd, name), "rb") as fh:
                    digest.update(b"\0" + name.encode() + b"\0" + fh.read())
        yield label, digest.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 64
    src = os.path.join(os.path.abspath(argv[0] if argv else ROOT), "src")
    if not os.path.isfile(os.path.join(src, "fopsolve", "__init__.py")):
        print(f"digest: no fopsolve sources under {src}", file=sys.stderr)
        return 65
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench")]  # ahead of an installed fopsolve
    from fopsolve import solver
    import workloads

    total = hashlib.sha256()
    for label, digest in (*solve_digests(workloads, solver), *command_digests(src)):
        line = f"{label} {digest}"
        print(line, flush=True)
        total.update(line.encode() + b"\n")
    print(f"total {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
