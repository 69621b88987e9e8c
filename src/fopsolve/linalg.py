"""Dense/sparse matrix and vector kernels.

Everything is double precision. A `Matrix` is immutable after
construction and safe to share across threads; the products and the
solve return new values, while `blockwise` runs a kernel that writes
into vectors among its arguments. A `Matrix` has one of three storages:
dense, one coefficient per diagonal (the tridiagonal stencil) or
coordinate triplets (general sparse input).
Matrix and vector products run in numpy; the small pivoted solve
(`solve_dense`, n <= 10) runs on Python floats, because at that size
numpy's per-call overhead costs more than the arithmetic.

On vectors longer than `BLOCK` rows, the element-wise kernels that
callers hand to `blockwise`, the diagonal-storage products' rows with
both neighbours among them, work one block of rows at a time, so that
each block's operands stay in cache across all the operations that touch
them instead of streaming every whole vector through memory once per
operation; `blockwise` splits the blocks across the usable CPUs. Each
element still sees the same operations in the same order, so the results
are bit-identical to the whole-vector code at any block size and CPU
count. The products keep the whole-vector code on vectors of at most
`BLOCK` rows, where the blocked path's extra calls would cost more than
the arithmetic. Inner products are not split: a split sum would round
differently, so each stays a whole-vector call in one thread, and
`parallel_map` runs independent ones side by side instead. Both hand
their work to one pool of daemon helper threads (`_Helpers`), started
on first use and kept for the life of the process; a forked child starts
its own.
"""
from __future__ import annotations

import itertools
import math
import os
import queue
import threading
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, SingularSystem

SOLVE_DENSE_MAX_N = 10
_PIVOT_RTOL = 1e-13
BLOCK = 1 << 15  # rows per block of the long-vector kernels: 256 KiB of float64 per operand


def as_vector(values) -> np.ndarray:
    """Validate and return a 1-D float64 vector (length >= 1, all finite)."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise DimensionMismatch(f"expected a 1-D vector of length >= 1, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


class Matrix:
    """Real matrix, stored dense (row-ordered), as one coefficient per
    diagonal or as coordinate triplets.

    The diagonal storage `bands` is (main, upper, lower): the constant
    entries at offsets 0, +1 and -1, as read-only 0-d float64 arrays (a
    cheaper numpy operand than a Python float). Duplicate (row, col)
    triplets are rejected, all values must be finite.
    Instances are read-only; build new ones instead of mutating.
    """

    def __init__(self, shape, dense=None, coo=None, bands=None):
        rows, cols = int(shape[0]), int(shape[1])
        if rows < 1 or cols < 1:
            raise DimensionMismatch(f"invalid shape {shape}")
        self._shape = (rows, cols)
        self._dense = dense
        self._coo = coo
        self._bands = bands

    # -- constructors -------------------------------------------------

    @classmethod
    def from_dense(cls, array) -> "Matrix":
        a = np.array(array, dtype=float)
        if a.ndim != 2:
            raise DimensionMismatch(f"dense matrix must be 2-D, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        a.setflags(write=False)
        return cls(a.shape, dense=a)

    @classmethod
    def from_triplets(cls, shape, triplets: Iterable[tuple[int, int, float]]) -> "Matrix":
        rows, cols, vals = [], [], []
        for i, j, v in triplets:
            rows.append(int(i))
            cols.append(int(j))
            vals.append(float(v))
        r = np.asarray(rows, dtype=np.intp)
        c = np.asarray(cols, dtype=np.intp)
        v = np.asarray(vals, dtype=float)
        nr, nc = int(shape[0]), int(shape[1])
        if r.size and (r.min() < 0 or r.max() >= nr or c.min() < 0 or c.max() >= nc):
            raise DimensionMismatch("triplet index out of range")
        if not np.all(np.isfinite(v)):
            raise ValueError("matrix entries must be finite")
        keys = r * nc + c
        if np.unique(keys).size != keys.size:
            raise ValueError("duplicate (row, col) triplets are forbidden")
        for arr in (r, c, v):
            arr.setflags(write=False)
        return cls((nr, nc), coo=(r, c, v))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.from_dense(np.eye(int(n)))

    @classmethod
    def diagonal(cls, values) -> "Matrix":
        return cls.from_dense(np.diag(as_vector(values)))

    @classmethod
    def tridiagonal(cls, n: int) -> "Matrix":
        """The (-1, 2, -1) stencil of size n, stored as one coefficient per diagonal."""
        n = int(n)
        if n < 1:
            raise DimensionMismatch(f"invalid shape {(n, n)}")
        bands = (np.array(2.0), np.array(-1.0), np.array(-1.0))
        for band in bands:
            band.setflags(write=False)
        return cls((n, n), bands=bands)

    # -- queries ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def rows(self) -> int:
        return self._shape[0]

    @property
    def cols(self) -> int:
        return self._shape[1]

    @property
    def is_dense(self) -> bool:
        return self._dense is not None

    @property
    def nnz(self) -> int:
        if self._dense is not None:
            return int(np.count_nonzero(self._dense))
        if self._bands is not None:
            return 3 * self.rows - 2
        return int(self._coo[0].size)

    def to_dense(self) -> np.ndarray:
        if self._dense is not None:
            return self._dense.copy()
        if self._bands is not None:
            main, upper, lower = self._bands
            out = np.diag(np.full(self.rows, main))
            np.fill_diagonal(out[:, 1:], upper)
            np.fill_diagonal(out[1:], lower)
            return out
        r, c, v = self._coo
        out = np.zeros(self._shape)
        out[r, c] = v
        return out

    # -- products -----------------------------------------------------
    #
    # The diagonal products add each row's terms in the order main, upper,
    # lower: the order in which the coordinate kernel's np.bincount adds
    # the stencil's triplets when they are listed diagonal by diagonal, so
    # both storages give the same bits. (np.bincount starts each sum from
    # +0.0, so a row whose terms are all -0.0 sums to +0.0 there and to
    # -0.0 here.) `head += ...` on a bound view updates `y` in place
    # without the copy-back of `y[:-1] += ...`. On vectors longer than
    # BLOCK, `blockwise` runs `_stencil_rows` on the rows with both
    # neighbours, and rows 0 and n-1 take their two terms in the same order.

    def matvec(self, v: np.ndarray) -> np.ndarray:
        if len(v) != self.cols:
            raise DimensionMismatch(f"matvec: matrix is {self._shape}, vector has length {len(v)}")
        if self._dense is not None:
            return self._dense @ v
        if self._bands is not None:
            main, upper, lower = self._bands
            if len(v) > BLOCK:
                y = np.empty(len(v))
                blockwise(_stencil_rows, y[1:-1], v[1:-1], v[2:], v[:-2], main, upper, lower)
                y[0], y[-1] = main * v[0] + upper * v[1], main * v[-1] + lower * v[-2]
                return y
            y = main * v
            head, tail = y[:-1], y[1:]
            head += upper * v[1:]
            tail += lower * v[:-1]
            return y
        r, c, vals = self._coo
        return np.bincount(r, weights=vals * v[c], minlength=self.rows)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        if len(v) != self.rows:
            raise DimensionMismatch(f"transpose matvec: matrix is {self._shape}, vector has length {len(v)}")
        if self._dense is not None:
            return self._dense.T @ v
        if self._bands is not None:
            main, upper, lower = self._bands
            if len(v) > BLOCK:
                y = np.empty(len(v))
                blockwise(_stencil_rows, y[1:-1], v[1:-1], v[:-2], v[2:], main, upper, lower)
                y[0], y[-1] = main * v[0] + lower * v[1], main * v[-1] + upper * v[-2]
                return y
            y = main * v
            head, tail = y[:-1], y[1:]
            tail += upper * v[:-1]
            head += lower * v[1:]
            return y
        r, c, vals = self._coo
        return np.bincount(c, weights=vals * v[r], minlength=self.cols)


def _stencil_rows(y, v, w1, w2, main, b1, b2, *, scratch) -> None:
    """y = main * v + b1 * w1 + b2 * w2, added in that order: the diagonal
    products on the rows that have both neighbours, w1 and w2 holding them."""
    np.multiply(main, v, out=y)
    np.add(y, np.multiply(b1, w1, out=scratch), out=y)
    np.add(y, np.multiply(b2, w2, out=scratch), out=y)


def blockwise(kernel, *args) -> None:
    """Run the in-place element-wise `kernel(*args, scratch=...)`, BLOCK
    rows at a time when its vectors are longer than BLOCK.

    The first argument is a vector; every ndarray argument of one or more
    dimensions is a vector of that length and is cut into blocks, the
    others (coefficients, 0-d arrays among them) reach each block whole.
    `kernel` writes its results into vectors among its arguments and must
    be element-wise: row i of what it writes depends on row i of the
    vectors alone. It then gives each element the same operations in the
    same order on a block as on the whole vectors, so the blocked result is
    bit-identical. `scratch`, the `out` of the kernel's intermediate terms,
    is a vector of the block's length, cut from a BLOCK-row vector that each
    thread keeps for all its blocks; on whole vectors it is None, so numpy
    allocates those terms as the whole-vector code does.

    The blocks are cut into one contiguous run per usable CPU (at most one
    per block). The caller works through the first run, the helper pool
    (`_Helpers`) the others, each under the caller's numpy error settings;
    every run has finished before this returns or raises, and a failing
    run's exception is then raised in the caller. `kernel` calls numpy
    only, never the package's public functions: a profiler that wraps
    those keeps state that concurrent calls would corrupt.
    """
    n = len(args[0])
    if n <= BLOCK:
        kernel(*args, scratch=None)
        return

    def part(starts: range):
        def run() -> None:
            scratch = _block_scratch()
            for start in starts:
                rows = slice(start, start + BLOCK)
                block = [a[rows] if isinstance(a, np.ndarray) and a.ndim else a for a in args]
                kernel(*block, scratch=scratch[:len(block[0])])
        return run

    _helpers.run([part(starts) for starts in _runs(range(0, n, BLOCK))])


def parallel_map(fn, vectors: Sequence[np.ndarray]) -> list:
    """Return [fn(v) for v in vectors], the calls spread over the usable
    CPUs when the vectors are longer than BLOCK rows.

    Each call is whole and runs in one thread, so every result is the bits
    that the serial call gives; the calls are cut into contiguous runs as
    `blockwise` cuts its blocks, the caller working through the first.
    `fn` calls numpy only, runs under the caller's numpy error settings,
    and must not write what another call reads. A failing call ends its
    run; every run has finished before this returns or raises, and the
    exception of the first failing run is then raised in the caller.
    """
    if len(vectors[0]) <= BLOCK:
        return [fn(v) for v in vectors]
    results = [None] * len(vectors)

    def part(indices: range):
        def run() -> None:
            for i in indices:
                results[i] = fn(vectors[i])
        return run

    _helpers.run([part(indices) for indices in _runs(range(len(vectors)))])
    return results


def _runs(items: range) -> list[range]:
    """`items` cut into one contiguous run per usable CPU, at most one per item."""
    count = min(_usable_cpus(), len(items))
    return [items[i * len(items) // count:(i + 1) * len(items) // count] for i in range(count)]


_scratch = threading.local()


def _block_scratch() -> np.ndarray:
    """This thread's scratch vector of BLOCK rows, reallocated only when BLOCK changes."""
    vector = getattr(_scratch, "vector", None)
    if vector is None or len(vector) != BLOCK:
        vector = _scratch.vector = np.empty(BLOCK)
    return vector


class _Helpers:
    """Daemon helper threads that run the parts of split calls beside their callers.

    Helpers start lazily, as many as the widest split so far asks for (at
    most the usable CPUs less one, the caller's), and then wait for parts
    for the life of the process, one inbox each. Each part runs under its
    caller's numpy error settings (`np.errstate`), which the helper sets
    for it: numpy 2 keeps them per context and numpy 1 per thread, and
    neither reaches another thread. A part must not itself submit parts,
    since it could then wait on its own helper. A forked child starts with
    no helpers (see `_forget_helpers`): the parent's threads do not exist
    there.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._inboxes: list[queue.SimpleQueue] = []

    def run(self, parts: list) -> None:
        """Call parts[0]() in this thread and each other part on a helper.

        Returns once every part has finished. The caller's exception is then
        raised, or else that of the first failing helper part, in order.
        """
        if len(parts) == 1:
            parts[0]()
            return
        settings = dict(np.geterr(), call=np.geterrcall())
        done = queue.SimpleQueue()
        for index, (inbox, part) in enumerate(zip(self._inboxes_for(len(parts) - 1), parts[1:])):
            inbox.put((index, part, settings, done))
        try:
            parts[0]()
        finally:
            errors = sorted(done.get() for _ in parts[1:])
        for _, error in errors:
            if error is not None:
                raise error

    def _inboxes_for(self, count: int) -> list:
        with self._lock:
            while len(self._inboxes) < count:
                _hook_fork()
                inbox = queue.SimpleQueue()
                threading.Thread(target=_serve, args=(inbox,), name=f"fopsolve-helper-{len(self._inboxes)}",
                                 daemon=True).start()
                self._inboxes.append(inbox)
            return self._inboxes[:count]


def _serve(inbox: queue.SimpleQueue) -> None:
    """A helper's loop: run each part it receives and report how it ended."""
    while True:
        _run_part(*inbox.get())


def _run_part(index: int, part, settings: dict, done: queue.SimpleQueue) -> None:
    try:
        with np.errstate(**settings):
            part()
    except BaseException as exc:  # raised again in the caller
        done.put((index, exc))
    else:
        done.put((index, None))


_helpers = _Helpers()
_fork_hooked = False


def _forget_helpers() -> None:
    """Give a forked child an empty pool; it starts its own helpers on demand."""
    global _helpers
    _helpers = _Helpers()


def _hook_fork() -> None:
    """Have every forked child run `_forget_helpers`, registered once, before
    the first helper starts. Not at import: the hook keeps this module alive,
    so a module imported afresh and dropped again would stay in memory."""
    global _fork_hooked
    if not _fork_hooked and hasattr(os, "register_at_fork"):
        os.register_at_fork(after_in_child=_forget_helpers)
        _fork_hooked = True


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def matvec(M: Matrix, v) -> np.ndarray:
    """Return M @ v."""
    return M.matvec(np.asarray(v, dtype=float))


def transpose_matvec(M: Matrix, v) -> np.ndarray:
    """Return M^T @ v without forming the transpose."""
    return M.rmatvec(np.asarray(v, dtype=float))


def solve_dense(M: np.ndarray | Sequence[Sequence[float]], b, *more_b) -> list[float] | list[list[float]]:
    """Solve a small square system by Gaussian elimination with row pivoting.

    The single elimination routine of the package: its consumers are the
    3x3 recurrence-coefficient systems, the bootstrap's degree 1..4
    orthogonality systems and the oracle's Hankel moment systems, all
    with n <= 10. `M` is an ndarray or a sequence of rows and is not
    modified; the arithmetic runs on Python floats, and the solution is a
    list of them. The pivot of each column is the first row with the
    largest |entry|; back substitution accumulates each row's dot product
    with fused multiply-adds. Raises SingularSystem (carrying the
    offending elimination step) when that pivot falls below
    1e-13 * max|M|, ValueError on non-finite entries.

    Further right-hand sides `more_b` ride along the one elimination of
    `M`; the result is then one solution list per right-hand side, in
    order, each bit-identical to solving for that right-hand side alone.
    """
    try:
        rows = M.tolist() if isinstance(M, np.ndarray) else M
        rhs = list(map(float, b.tolist() if isinstance(b, np.ndarray) else b))
        n = len(rows)
        # Eliminate on the augmented rows [M | b | more_b].
        a = [[*map(float, row), value] for row, value in zip(rows, rhs)]
        if more_b:
            more = [list(map(float, v.tolist() if isinstance(v, np.ndarray) else v)) for v in more_b]
    except TypeError as exc:
        raise DimensionMismatch("solve_dense needs a matrix of rows and 1-D right-hand sides") from exc
    if not 1 <= n <= SOLVE_DENSE_MAX_N or len(rhs) != n or list(map(len, a)) != [n + 1] * n:
        raise DimensionMismatch(f"solve_dense needs an n x n matrix, n <= {SOLVE_DENSE_MAX_N}, and n right-hand "
                                f"side entries; got {n} rows of lengths {[len(r) - 1 for r in a]}, {len(rhs)} entries")
    entries = [*itertools.chain(*a)]
    if not all(map(math.isfinite, entries)):
        raise ValueError("solve_dense: entries must be finite")
    del entries[n::n + 1]  # the right-hand side
    width = n + 1
    if more_b:
        if list(map(len, more)) != [n] * len(more):
            raise DimensionMismatch(f"solve_dense needs n = {n} entries in each right-hand side, "
                                    f"got {[n, *map(len, more)]}")
        if not all(map(math.isfinite, itertools.chain(*more))):
            raise ValueError("solve_dense: entries must be finite")
        for row, values in zip(a, zip(*more)):
            row += values
        width += len(more)

    pivot_floor = _PIVOT_RTOL * max(max(entries), -min(entries))  # max|M|
    for col in range(n):
        p, big = col, abs(a[col][col])
        for i in range(col + 1, n):
            if (candidate := abs(a[i][col])) > big:
                p, big = i, candidate
        if big <= pivot_floor:
            raise SingularSystem(col)
        a[col], a[p] = a[p], a[col]
        pivot_row = a[col]
        pivot = pivot_row[col]
        for row in a[col + 1:]:
            factor = row[col] / pivot
            for j in range(col + 1, width):
                row[j] -= factor * pivot_row[j]

    if more_b:
        return [_back_substitute(a, j) for j in range(n, width)]
    return _back_substitute(a, n)


def _back_substitute(a: list[list[float]], rhs_col: int) -> list[float]:
    """The solution for column `rhs_col` of the eliminated rows `a`."""
    n = len(a)
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        dot = 0.0
        for j in range(i + 1, n):
            dot = _fma(row[j], x[j], dot) if dot else row[j] * x[j] + dot
        x[i] = (row[rhs_col] - dot) / row[i]
    return x


def _fma(a: float, b: float, c: float) -> float:
    """a * b + c rounded once, for a nonzero c: the fused multiply-add with
    which BLAS dot kernels accumulate, so the back substitution rounds as
    numpy's `row @ x` does with an FMA BLAS, on any machine. (A zero c adds
    exactly as `a * b + c`.)

    Exact on the operands' integer ratios, whose denominators are powers
    of two; int true division rounds correctly.
    """
    try:
        (na, da), (nb, db), (nc, dc) = a.as_integer_ratio(), b.as_integer_ratio(), c.as_integer_ratio()
        d = da * db
        if d < dc:
            return (na * nb * (dc // d) + nc) / dc
        return (na * nb + nc * (d // dc)) / d
    except (OverflowError, ValueError):  # an infinite or NaN operand, or an overflowing result
        return a * b + c
