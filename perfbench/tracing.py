"""Span tracing of fopsolve from outside the package.

`Tracer` keeps a stack of open spans and aggregates, per span name, the
number of calls and the self time (a span's duration minus the time its
child spans cover). `instrument` replaces the public functions of the
fopsolve modules with timing wrappers by `setattr` on the module
attributes; this works because the modules call one another through
`linalg.x` / `recurrences.x` / module globals, never through names bound
at import. `CountingMatrix` reports every product to the tracer, so
matrix products are attributed to the span that was open when they ran.

Spans are aggregated when they close instead of being stored, which keeps
long solves (hundreds of thousands of spans) cheap in memory.
"""
from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

from fopsolve import cli, linalg, moments, oracle, recurrences, solver
from fopsolve.errors import BreakdownError

# (module, attribute, span name). Several attributes may share a span name,
# which sums them into one layer figure.
PATCHES = (
    (linalg, "matvec", "linalg.matvec"),
    (linalg, "transpose_matvec", "linalg.rmatvec"),
    (linalg, "solve_dense", "linalg.solve_dense"),
    (moments, "krylov_vectors", "moments.krylov_vectors"),
    (moments, "compute_moments", "moments.compute_moments"),
    (oracle, "oracle_p", "oracle"),
    (oracle, "oracle_p1", "oracle"),
    (recurrences, "assemble_scalar_products", "recurrences.scalar_products"),
    (recurrences, "a13_coefficients", "recurrences.coefficients"),
    (recurrences, "b13_coefficients", "recurrences.coefficients"),
    (recurrences, "fit_relation", "recurrences.fit_relation"),
    (solver, "solve", "solver.solve"),
    (solver, "step", "solver.step"),
    (solver, "bootstrap", "solver.bootstrap"),
    (solver, "restart", "solver.restart"),
    (solver, "_draw_left_seed", "solver.draw_left_seed"),
    (cli, "build_generator", "cli.build_generator"),
    (cli, "ring_spectrum_fixture", "cli.ring_spectrum_fixture"),
    (cli, "run_verification", "cli.run_verification"),
)
FROM_TRIPLETS_SPAN = "linalg.from_triplets"

# The cost contract of the solver docstrings, as (matvecs, rmatvecs) per span.
# A step that breaks down raises before its first product; one that
# overflows raises after its six products with A, before the one with A^T.
STEP_PRODUCTS = (6, 1)
STEP_BREAKDOWN_PRODUCTS = (0, 0)
STEP_OVERFLOW_PRODUCTS = (6, 0)
BOOTSTRAP_PRODUCTS = (10, 7)
DRAW_PRODUCTS = (1, 0)
BREAKDOWN_CAUSES = ("Ghost", "True", "Normalization", "Divisor")


class Frame:
    """One open span. Product counts are inclusive of child spans."""

    __slots__ = ("name", "start", "child_s", "matvecs", "rmatvecs")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.matvecs = 0
        self.rmatvecs = 0


class Tracer:
    """Aggregates calls and self time per span name, plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[Frame] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()

    def open(self, name: str) -> Frame:
        frame = Frame(name, self.clock())
        self.stack.append(frame)
        return frame

    def close(self, frame: Frame) -> None:
        duration = self.clock() - frame.start
        top = self.stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame.name} closed while {top.name} is open")
        self.calls[frame.name] += 1
        self.self_s[frame.name] += duration - frame.child_s
        if self.stack:
            parent = self.stack[-1]
            parent.child_s += duration
            parent.matvecs += frame.matvecs
            parent.rmatvecs += frame.rmatvecs

    def count_product(self, kind: str, nbytes: int) -> None:
        """Record one matrix product ("matvec" or "rmatvec") in the open span."""
        self.counters[f"products.{kind}"] += 1
        self.counters[f"products.{kind}.bytes"] += nbytes
        if self.stack:
            frame = self.stack[-1]
            if kind == "matvec":
                frame.matvecs += 1
            else:
                frame.rmatvecs += 1


class CountingMatrix(linalg.Matrix):
    """A `Matrix` that reports each product to a tracer.

    It shares the storage of the matrix it wraps and computes products with
    the inherited kernels, so results are bit-identical to the original.
    """

    @classmethod
    def wrap(cls, matrix: linalg.Matrix, tracer: Tracer) -> "CountingMatrix":
        counted = cls.__new__(cls)
        counted.__dict__.update(matrix.__dict__)
        counted.tracer = tracer
        counted.product_bytes = operand_bytes(matrix)
        return counted

    def matvec(self, v):
        self.tracer.count_product("matvec", self.product_bytes)
        return super().matvec(v)

    def rmatvec(self, v):
        self.tracer.count_product("rmatvec", self.product_bytes)
        return super().rmatvec(v)


def storage_bytes(matrix: linalg.Matrix) -> int:
    """Bytes of a matrix's arrays: rows*cols doubles when dense; a row index,
    a column index and a value per stored entry otherwise."""
    rows, cols = matrix.shape
    return 8 * rows * cols if matrix.is_dense else 24 * matrix.nnz


def operand_bytes(matrix: linalg.Matrix) -> int:
    """Bytes one product reads and writes, computed from array sizes: the
    matrix storage plus the input and output vectors. Cache misses are not
    modelled."""
    return storage_bytes(matrix) + 8 * (matrix.rows + matrix.cols)


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.open(name)
        result = error = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            tracer.close(frame)
            _record_outcome(tracer, frame, result, error)
    return traced


def _record_outcome(tracer: Tracer, frame: Frame, result, error) -> None:
    """Count outcomes of a closed span: breakdowns, completed steps and
    bootstraps, and spans whose products break the solver's cost contract."""
    name = frame.name
    got = (frame.matvecs, frame.rmatvecs)
    if name == "solver.step":
        tracer.counters["solver.step.attempts"] += 1
        if isinstance(error, BreakdownError):
            expected = STEP_BREAKDOWN_PRODUCTS
        elif error is not None:
            expected = STEP_OVERFLOW_PRODUCTS
        else:
            expected = STEP_PRODUCTS
            tracer.counters["solver.step.completed"] += 1
            tracer.counters["solver.step.matvecs"] += got[0]
            tracer.counters["solver.step.rmatvecs"] += got[1]
    elif name == "solver.bootstrap":
        tracer.counters["solver.bootstrap.attempts"] += 1
        if error is None:
            tracer.counters["solver.bootstrap.ok"] += 1
        if error is not None or result.converged or result.u_window is None:
            return  # only bootstraps that hand off to the recurrences have a fixed cost
        expected = BOOTSTRAP_PRODUCTS
        tracer.counters["solver.bootstrap.handoffs"] += 1
        tracer.counters["solver.bootstrap.matvecs"] += got[0]
        tracer.counters["solver.bootstrap.rmatvecs"] += got[1]
    elif name == "solver.draw_left_seed":
        if error is not None:
            return
        expected = DRAW_PRODUCTS
    elif name == "recurrences.coefficients":
        cause = getattr(error, "cause", None)
        if cause is not None:
            tracer.counters[f"recurrences.breakdowns.{cause}"] += 1
        return
    else:
        return
    if got != expected:
        tracer.counters["solver.contract_violations"] += 1


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the fopsolve layer functions for the duration of the block."""
    saved = []
    try:
        for module, attr, name in PATCHES:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, name, original))
        original = linalg.Matrix.__dict__["from_triplets"]
        saved.append((linalg.Matrix, "from_triplets", original))
        linalg.Matrix.from_triplets = classmethod(_wrap(tracer, FROM_TRIPLETS_SPAN, original.__func__))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
