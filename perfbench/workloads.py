"""Seeded workloads of the fopsolve benchmark and the checks on their outputs.

Every input is made from the workload seed alone; fopsolve receives only
the generated matrices, right-hand sides and `SolverConfig`. An operation
is one `solver.solve(...)` or one `cli.run_verification()` call; a round is
one pass over a workload's fixed list of operations.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from fopsolve import cli, linalg, solver

DESK_RING_SIZES = tuple(range(12, 101, 4))
DESK_TRIDIAG_SIZES = (30, 50)
RESTART_LONG_N = 100
# The 3000-degree cap binds long before tol is met (about 5000-6700 degrees
# on tridiag:100), so every seed does the same amount of work.
RESTART_LONG_CONFIG = solver.SolverConfig(tol=1e-10, max_iter=3000, max_restarts=1000)
SPARSE_N = 1_000_000
# With a random right-hand side, the first Ghost breakdown on this problem
# came at degree 10 or later on each of the 110 seeds 501-610 (at degree 10
# on three of them); a 9-degree cap keeps the work of one solve the same for
# every seed.
SPARSE_CONFIG = solver.SolverConfig(max_iter=9)
VERIFY_CALLS_PER_ROUND = 10

# Reported and recomputed relative residuals must agree to this relative
# tolerance; below the floor both are roundoff and are not compared.
RESIDUAL_RTOL = 1e-2
RESIDUAL_FLOOR = 1e-12
DIGITS_CAP = -math.log10(np.finfo(float).eps)


@dataclass
class Problem:
    label: str
    matrix: linalg.Matrix
    b: np.ndarray
    config: solver.SolverConfig


def build_desk(seed: int) -> list[Problem]:
    """A ring-spectrum fixture for each size, then small tridiagonals; default config."""
    rng = np.random.default_rng([seed, 0])
    problems = []
    for n in DESK_RING_SIZES:
        fixture_seed = int(rng.integers(2**31))
        matrix, _, _ = cli.ring_spectrum_fixture(n, fixture_seed)
        problems.append(Problem(f"ring:{n}:{fixture_seed}", matrix, rng.standard_normal(n),
                                solver.SolverConfig()))
    for n in DESK_TRIDIAG_SIZES:
        matrix, _ = cli.build_generator(f"tridiag:{n}")
        problems.append(Problem(f"tridiag:{n}", matrix, rng.standard_normal(n), solver.SolverConfig()))
    return problems


def build_restart_long(seed: int) -> list[Problem]:
    rng = np.random.default_rng([seed, 1])
    n = RESTART_LONG_N
    matrix, _ = cli.build_generator(f"tridiag:{n}")
    return [Problem(f"tridiag:{n}", matrix, rng.standard_normal(n), RESTART_LONG_CONFIG)]


def build_sparse(seed: int) -> list[Problem]:
    rng = np.random.default_rng([seed, 2])
    n = SPARSE_N
    matrix, _ = cli.build_generator(f"tridiag:{n}")
    return [Problem(f"tridiag:{n}", matrix, rng.standard_normal(n), SPARSE_CONFIG)]


def build_verify(seed: int) -> list[Problem]:
    """The verify command builds its own fixed fixtures; there are no inputs to make."""
    return []


# The calibration whose work resembles each workload's (see calibration.py).
CALIBRATION = {"desk": "interp", "restart-long": "interp", "sparse-1e6": "stream", "verify": "interp"}

BUILDERS = {
    "desk": build_desk,
    "restart-long": build_restart_long,
    "sparse-1e6": build_sparse,
    "verify": build_verify,
}


# ---------------------------------------------------------------------------
# operations and their checks
# ---------------------------------------------------------------------------

@dataclass
class Verdict:
    ok: bool
    reason: str
    fingerprint: object  # equal between two runs of a deterministic operation
    iterations: int = 0
    restarts: int = 0
    converged: bool = False
    digits: float | None = None


def reference_product(problem: Problem):
    """A -> (x -> A x) computed with numpy alone, never through fopsolve's products."""
    if problem.label.startswith("tridiag:"):
        def stencil(x):
            y = 2.0 * x
            y[:-1] -= x[1:]
            y[1:] -= x[:-1]
            return y
        return stencil
    dense = problem.matrix.to_dense()
    return lambda x: dense @ x


class SolveOp:
    """One `solver.solve` call on a problem, looked up at call time so tracing can wrap it."""

    def __init__(self, problem: Problem):
        self.problem = problem
        self.matrix = problem.matrix
        self.reference = reference_product(problem)

    def __call__(self):
        p = self.problem
        t0 = time.perf_counter()
        try:
            value = solver.solve(self.matrix, p.b, config=p.config)
        except Exception as exc:  # solve promises never to raise; a raise is a failed operation
            value = exc
        return time.perf_counter() - t0, value

    def check(self, value) -> Verdict:
        if isinstance(value, Exception):
            return Verdict(False, f"solve raised {type(value).__name__}: {value}", None)
        x, report = value
        if not np.all(np.isfinite(x)):
            return Verdict(False, "non-finite solution", report.entries)
        b = self.problem.b
        true_rel = float(np.linalg.norm(b - self.reference(x)) / np.linalg.norm(b))
        reported = report.final_relative_residual
        verdict = Verdict(
            True, "", report.entries, report.iterations, report.restarts,
            report.status == solver.STATUS_CONVERGED and true_rel <= self.problem.config.tol,
            min(-math.log10(max(true_rel, 1e-300)), DIGITS_CAP),
        )
        if not residuals_agree(true_rel, reported):
            verdict.ok = False
            verdict.reason = f"reported residual {reported:.3e} but recomputed {true_rel:.3e}"
        return verdict


class VerifyOp:
    """One `cli.run_verification()` call."""

    matrix = None

    def __call__(self):
        t0 = time.perf_counter()
        try:
            value = cli.run_verification()
        except Exception as exc:  # the verify command reports through all_ok, never by raising
            value = exc
        return time.perf_counter() - t0, value

    def check(self, value) -> Verdict:
        if isinstance(value, Exception):
            return Verdict(False, f"run_verification raised {type(value).__name__}: {value}", None)
        if not value["all_ok"]:
            return Verdict(False, "verification consensus does not match", value)
        return Verdict(True, "", value)


def residuals_agree(true_rel: float, reported: float) -> bool:
    if max(true_rel, reported) <= RESIDUAL_FLOOR:
        return True
    return abs(true_rel - reported) <= RESIDUAL_RTOL * max(true_rel, reported)


def operations(workload: str, problems: list[Problem]) -> list:
    if workload == "verify":
        return [VerifyOp() for _ in range(VERIFY_CALLS_PER_ROUND)]
    return [SolveOp(p) for p in problems]


def warm_up() -> None:
    """Run each code path once on a small input so that lazy set-up is not timed."""
    matrix, _ = cli.build_generator("tridiag:30")
    solver.solve(matrix, np.ones(30))
    cli.run_verification(seeds=1)
