"""Command-line harness: problem ingestion/generation, solving, relation verification.

Two commands:

    fopsolve solve  --gen tridiag:30 --rhs ones --report out.json --history out.csv
    fopsolve verify --report verify.json

`solve` writes a JSON report and a CSV residual history; its exit code
encodes the outcome (0 converged, 1 iteration cap, 2 breakdown budget
exhausted, 64 usage error, a problem too large for memory among them, 65
unreadable input or unwritable output, standard output among them).
`verify` fits the five candidate recurrence shapes on twenty seeded
fixtures and exits 0 iff the existence consensus matches the expected
dichotomy: A13, A14 and B13 representable, A11 and B11 not; it also
exits 65 on an unwritable --report path or standard output. Each command
writes standard output first, each print flushed, and stops at the first
output it cannot write.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import statistics
import sys

import numpy as np

from . import linalg, moments, recurrences, solver
from .errors import NonexistentPolynomial, NumericOverflow, RankDeficient

EXIT_CONVERGED = 0
EXIT_MAX_ITERATIONS = 1
EXIT_BREAKDOWN = 2
EXIT_USAGE = 64
EXIT_INPUT = 65

VERIFY_SEEDS = 20
VERIFY_N = 10
VERIFY_DEGREE = 6
VERIFY_EXPECTED = {"A11": False, "A13": True, "A14": True, "B11": False, "B13": True}


class UsageError(Exception):
    pass


class InputError(Exception):
    pass


# ---------------------------------------------------------------------------
# matrix sources
# ---------------------------------------------------------------------------

def read_matrix_market(path: str) -> linalg.Matrix:
    """Parse a Matrix Market file (coordinate real general, 1-based indices).

    As the reference reader mmio.c does, the banner is split on whitespace
    and its four qualifiers compared in any case; words after them are ignored."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: cannot read file ({exc})") from exc
    if not lines:
        raise InputError(f"{path}:1: empty file")
    banner = lines[0].split()
    if banner[:1] != ["%%MatrixMarket"] or " ".join(banner[1:5]).lower() != "matrix coordinate real general":
        raise InputError(f"{path}:1: header must begin "
                         f"'%%MatrixMarket matrix coordinate real general', got {lines[0].strip()!r}")
    size_line = None
    triplets = []
    for lineno, raw in enumerate(lines[1:], start=2):
        text = raw.strip()
        if not text or text.startswith("%"):
            continue
        parts = text.split()
        if size_line is None:
            if len(parts) != 3:
                raise InputError(f"{path}:{lineno}: expected 'rows cols nnz', got {text!r}")
            try:
                size_line = tuple(int(p) for p in parts)
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: non-integer size entry in {text!r}") from exc
            continue
        if len(parts) != 3:
            raise InputError(f"{path}:{lineno}: expected 'i j value', got {text!r}")
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: malformed entry {text!r}") from exc
        if i < 1 or j < 1 or i > size_line[0] or j > size_line[1]:
            raise InputError(f"{path}:{lineno}: index ({i}, {j}) outside {size_line[0]}x{size_line[1]}")
        triplets.append((i - 1, j - 1, v))
    if size_line is None:
        raise InputError(f"{path}: missing size line")
    rows, cols, nnz = size_line
    if len(triplets) != nnz:
        raise InputError(f"{path}: size line promises {nnz} entries, found {len(triplets)}")
    try:
        return linalg.Matrix.from_triplets((rows, cols), triplets)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def random_sdd_matrix(n: int, seed: int) -> linalg.Matrix:
    """Seeded diagonally dominant matrix: unit normal entries, diagonal
    shifted by the off-diagonal row sums, rescaled to unit diagonal mean."""
    if n < 1:
        raise ValueError(f"randsdd needs n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    off = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
    a[np.diag_indices(n)] = off + 1.0
    a /= np.mean(np.diag(a))
    return linalg.Matrix.from_dense(a)


def build_generator(descriptor: str) -> tuple[linalg.Matrix, dict]:
    """Build a matrix from a name:params descriptor."""
    name, _, params = descriptor.partition(":")
    meta = {"source": f"gen:{descriptor}"}
    try:
        if name == "identity":
            n = int(params)
            return linalg.Matrix.identity(n), meta
        if name == "diag":
            values = [float(p) for p in params.split(",") if p]
            if not values:
                raise ValueError("diag needs at least one value")
            return linalg.Matrix.diagonal(values), meta
        if name == "tridiag":
            n = int(params)
            return linalg.Matrix.tridiagonal(n), meta
        if name == "randsdd":
            n_str, _, seed_str = params.partition(",")
            return random_sdd_matrix(int(n_str), int(seed_str or 0)), meta
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad generator descriptor {descriptor!r}: {exc}") from exc
    except MemoryError as exc:
        raise UsageError(f"generator descriptor {descriptor!r} needs more memory than is available: {exc}") from exc
    raise UsageError(f"unknown generator {name!r} (expected identity, diag, tridiag, randsdd)")


def build_rhs(descriptor: str, n: int) -> np.ndarray:
    if descriptor == "ones":
        return np.ones(n)
    kind, _, arg = descriptor.partition(":")
    if kind == "rand":
        try:
            seed = int(arg or 0)
            if seed < 0:
                raise ValueError("seeds are non-negative")
        except ValueError as exc:
            raise UsageError(f"bad rhs seed {arg!r}") from exc
        return np.random.default_rng(seed).standard_normal(n)
    if kind == "file":
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                values = [float(tok) for tok in fh.read().split()]
        except OSError as exc:
            raise InputError(f"{arg}: cannot read rhs file ({exc})") from exc
        except ValueError as exc:
            raise InputError(f"{arg}: rhs file must hold whitespace-separated reals ({exc})") from exc
        if len(values) != n:
            raise InputError(f"{arg}: rhs has {len(values)} entries, matrix needs {n}")
        if not all(map(math.isfinite, values)):
            raise InputError(f"{arg}: rhs entries must be finite")
        return np.array(values)
    raise UsageError(f"unknown rhs descriptor {descriptor!r} (expected ones, rand:SEED, file:PATH)")


def ring_spectrum_fixture(n: int, seed: int) -> tuple[linalg.Matrix, np.ndarray, np.ndarray]:
    """Seeded verification fixture: 2x2 rotation-scaling blocks under a
    random orthogonal similarity, plus unit start vectors.

    The eigenvalues sit on a complex ring of radius about one, which
    keeps the moment problem well conditioned at every degree the
    verification needs and makes the nonexistent shapes visibly
    unreachable. One-sided real spectra do neither.
    """
    rng = np.random.default_rng(seed)
    m = np.zeros((n, n))
    for i in range(n // 2):
        rho = rng.uniform(0.8, 1.2)
        theta = rng.uniform(0.35, np.pi - 0.35)
        c, s = rho * np.cos(theta), rho * np.sin(theta)
        m[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[c, -s], [s, c]]
    if n % 2:
        m[n - 1, n - 1] = rng.uniform(0.8, 1.2)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = q @ m @ q.T
    r0 = rng.standard_normal(n)
    r0 /= linalg.norm(r0)
    y = rng.standard_normal(n)
    y /= linalg.norm(y)
    return linalg.Matrix.from_dense(a), r0, y


@contextlib.contextmanager
def _output(path: str, newline: str | None = None):
    """An output file opened for writing; failing to open or write it is an InputError."""
    try:
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise InputError(f"{path}: cannot write file ({exc})") from exc


# ---------------------------------------------------------------------------
# solve command
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    if (args.matrix is None) == (args.gen is None):
        raise UsageError("exactly one of --matrix or --gen is required")
    if args.matrix is not None:
        matrix = read_matrix_market(args.matrix)
        meta = {"source": f"file:{args.matrix}"}
    else:
        matrix, meta = build_generator(args.gen)
    if matrix.rows != matrix.cols:
        raise InputError(f"matrix is {matrix.rows}x{matrix.cols}, solve needs square")
    meta.update({"rows": matrix.rows, "cols": matrix.cols, "nnz": matrix.nnz})

    try:
        b = build_rhs(args.rhs, matrix.rows)
        try:
            config = solver.SolverConfig(
                tol=args.tol, max_iter=args.max_iter,
                max_restarts=args.max_restarts, seed=args.seed,
            )
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        x, report = solver.solve(matrix, b, config=config)
    except MemoryError as exc:
        raise UsageError(f"a problem of n = {matrix.rows} needs more memory than is available: {exc}") from exc

    doc = {
        "status": report.status,
        "iterations": report.iterations,
        "restarts": report.restarts,
        "restart_causes": list(report.restart_causes),
        "final_relative_residual": report.final_relative_residual,
        "config": {
            "tol": config.tol,
            "max_iter": config.max_iter,
            "max_restarts": config.max_restarts,
            "breakdown_eps": recurrences.BREAKDOWN_EPS,
            "seed": config.seed,
        },
        "matrix": meta,
        "rhs": args.rhs,
    }
    text = json.dumps(doc, sort_keys=True, indent=2)
    print(text, flush=True)
    if args.report:
        with _output(args.report) as fh:
            fh.write(text + "\n")
    if args.history:
        with _output(args.history, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "residual_norm", "event"])
            for k, rn, ev in report.entries:
                writer.writerow([k, repr(rn), ev])
    if args.solution:
        with _output(args.solution) as fh:
            fh.write("\n".join(repr(float(v)) for v in x) + "\n")

    if report.status == solver.STATUS_CONVERGED:
        return EXIT_CONVERGED
    if report.status == solver.STATUS_MAX_ITERATIONS:
        return EXIT_MAX_ITERATIONS
    return EXIT_BREAKDOWN


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------

def run_verification(seeds: int = VERIFY_SEEDS, n: int = VERIFY_N, k: int = VERIFY_DEGREE) -> dict:
    """Fit every registered relation shape on seeded fixtures.

    Returns per-form consensus rows; a form is `ok` when its observed
    existence behavior matches the expected dichotomy (median residual
    below 1e-8 for the representable shapes, residual above 1e-3 in at
    least 95 percent of runs for the unrepresentable ones).
    """
    needed = 2 * k  # c_0..c_2k: the fits read P_j and P1_j for j <= k
    rows = []
    results = {name: [] for name in recurrences.FORMS}
    skipped = {name: 0 for name in recurrences.FORMS}
    for seed in range(seeds):
        c = moments.compute_moments(*ring_spectrum_fixture(n, seed), needed)
        for name, form in recurrences.FORMS.items():
            try:
                report = recurrences.fit_relation(form, c, k)
            except (NonexistentPolynomial, RankDeficient, NumericOverflow):
                skipped[name] += 1
                continue
            results[name].append(report.relative_residual)

    for name in sorted(recurrences.FORMS):
        residuals = results[name]
        expected = VERIFY_EXPECTED[name]
        runs = len(residuals)
        consensus = median = ok = None  # no run: no consensus, and not ok
        if runs:
            median = statistics.median(residuals)
            frac_exists = np.mean([r < recurrences.EXISTS_TOL for r in residuals])
            frac_nonexistent = np.mean([r > recurrences.NONEXISTENCE_TOL for r in residuals])
            consensus = bool(frac_exists >= 0.5)
            ok = ((consensus and median < recurrences.EXISTS_TOL) if expected
                  else not consensus and frac_nonexistent >= 0.95)
        rows.append({"form": name, "runs": runs, "skipped": skipped[name],
                     "exists_consensus": consensus, "median_residual": median,
                     "expected_exists": expected, "ok": bool(ok)})
    return {"fixtures": {"count": seeds, "n": n, "degree": k},
            "forms": rows, "all_ok": all(row["ok"] for row in rows)}


def cmd_verify(args) -> int:
    doc = run_verification()
    table = [f"{'form':<6} {'runs':>4} {'skip':>4} {'exists':>7} {'median residual':>16} {'expected':>9} {'ok':>4}"]
    for row in doc["forms"]:
        median = "-" if row["median_residual"] is None else f"{row['median_residual']:.3e}"
        exists = "-" if row["exists_consensus"] is None else str(row["exists_consensus"])
        table.append(f"{row['form']:<6} {row['runs']:>4} {row['skipped']:>4} {exists:>7} "
                     f"{median:>16} {str(row['expected_exists']):>9} {str(row['ok']):>4}")
    print(*table, f"all_ok: {doc['all_ok']}", sep="\n", flush=True)
    text = json.dumps(doc, sort_keys=True, indent=2)
    if args.report:
        with _output(args.report) as fh:
            fh.write(text + "\n")
    else:
        print(text, flush=True)
    return EXIT_CONVERGED if doc["all_ok"] else EXIT_MAX_ITERATIONS


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fopsolve", add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run the iterative solver on a matrix")
    ps.add_argument("--matrix", help="Matrix Market file (coordinate real general)")
    ps.add_argument("--gen", help="generator descriptor: identity:N | diag:V1,V2,... | tridiag:N | randsdd:N,SEED")
    ps.add_argument("--rhs", default="ones", help="ones | rand:SEED | file:PATH (default: ones)")
    ps.add_argument("--tol", type=float, default=solver.SolverConfig.tol)
    ps.add_argument("--max-iter", type=int, default=solver.SolverConfig.max_iter, dest="max_iter")
    ps.add_argument("--max-restarts", type=int, default=solver.SolverConfig.max_restarts, dest="max_restarts")
    ps.add_argument("--seed", type=int, default=solver.SolverConfig.seed)
    ps.add_argument("--report", help="write the JSON report here")
    ps.add_argument("--history", help="write the CSV residual history here")
    ps.add_argument("--solution", help="write the solution vector here, one value per line")

    pv = sub.add_parser("verify", help="fit the candidate recurrence shapes on seeded fixtures")
    pv.add_argument("--report", help="write the JSON consensus table here")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 for --help
        return EXIT_USAGE if exc.code else 0
    try:
        if args.command == "solve":
            return cmd_solve(args)
        return cmd_verify(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:  # the commands' files fail as InputError: this is a print to standard output
        print(f"input error: standard output: cannot write ({exc})", file=sys.stderr)
        # The unwritten text stays buffered: point standard output at devnull, or the
        # interpreter's flush at exit fails again and prints "Exception ignored".
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
