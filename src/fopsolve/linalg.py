"""Dense/sparse matrix and vector kernels.

Everything is double precision. A `Matrix` is immutable after
construction and safe to share across threads. Each product returns a
fresh, writable array that nothing else holds (the solver writes its
iterates over them), the solve new values; `blockwise` runs a kernel
that writes into vectors among its arguments. A `Matrix` has one of
three storages: dense, one coefficient per diagonal (the tridiagonal
stencil) or coordinate triplets (general sparse input). Matrix and
vector products run in numpy; the small pivoted solve (`eliminate`, and
`solve_dense`, n <= 10, which checks its input for it) runs on Python
floats, because at that size numpy's per-call overhead costs more than
the arithmetic.

On vectors longer than `BLOCK` rows, the element-wise kernels that
callers hand to `blockwise` work one block of rows at a time, so that
each block's operands stay in cache across all the operations that touch
them instead of streaming every whole vector through memory once per
operation, and so do the diagonal-storage products, each block with one
row of context on either side; the blocks are split across the usable
CPUs. Each element still sees the same operations in the same order, so
the results are bit-identical to the whole-vector code at any block size
and CPU count. Vectors of at most `BLOCK` rows keep the whole-vector
code, where the blocked path's extra calls would cost more than the
arithmetic. Inner products are not split: a split sum would round
differently, so each stays one whole-vector BLAS call, and `parallel_map`
runs independent ones side by side instead. A multithreaded BLAS may
still split such a sum itself, so results that depend on inner products,
the solver's among them, are bit-identical only at a fixed BLAS thread
count. Both hand their work to `_spread` and its pool of helper threads;
its docstring states what the pool promises.
"""
from __future__ import annotations

import itertools
import math
import os
import queue
import threading
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, SingularSystem

SOLVE_DENSE_MAX_N = 10
_PIVOT_RTOL = 1e-13
BLOCK = 1 << 15  # rows per block of the long-vector kernels: 256 KiB of float64 per operand
_MAX_DIM = np.iinfo(np.intp).max // 8  # rows of the longest float64 vector numpy can size


def as_vector(values) -> np.ndarray:
    """Validate and return a 1-D float64 vector (length >= 1, all finite)."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise DimensionMismatch(f"expected a 1-D vector of length >= 1, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


class Matrix:
    """Real matrix, stored dense (row-ordered), as one coefficient per
    diagonal or as coordinate triplets.

    The diagonal storage `bands` is (main, upper, lower): the constant
    entries at offsets 0, +1 and -1, as read-only 0-d float64 arrays (a
    cheaper numpy operand than a Python float). Duplicate (row, col)
    triplets are rejected, all values must be finite. Each dimension is
    at most `_MAX_DIM`, beyond which numpy cannot size a float64 vector.
    Instances are read-only; build new ones instead of mutating.
    """

    def __init__(self, shape, dense=None, coo=None, bands=None):
        self._shape = _checked_shape(shape)
        self._dense = dense
        self._coo = coo
        self._bands = bands

    # -- constructors -------------------------------------------------

    @classmethod
    def from_dense(cls, array) -> "Matrix":
        a = np.array(array, dtype=float)
        if a.ndim != 2:
            raise DimensionMismatch(f"dense matrix must be 2-D, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        a.setflags(write=False)
        return cls(a.shape, dense=a)

    @classmethod
    def from_triplets(cls, shape, triplets: Iterable[tuple[int, int, float]]) -> "Matrix":
        nr, nc = _checked_shape(shape)
        rows, cols, vals = [], [], []
        for i, j, v in triplets:
            rows.append(int(i))
            cols.append(int(j))
            vals.append(float(v))
        r = np.asarray(rows, dtype=np.intp)
        c = np.asarray(cols, dtype=np.intp)
        v = np.asarray(vals, dtype=float)
        if r.size and (r.min() < 0 or r.max() >= nr or c.min() < 0 or c.max() >= nc):
            raise DimensionMismatch("triplet index out of range")
        if not np.isfinite(v).all():
            raise ValueError("matrix entries must be finite")
        order = np.lexsort((c, r))  # no r * nc + c key: it wraps past 2**63
        r_sorted, c_sorted = r[order], c[order]
        if np.any((r_sorted[1:] == r_sorted[:-1]) & (c_sorted[1:] == c_sorted[:-1])):
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
    # The diagonal products, `_stencil` (block by block through
    # `_in_segments` on vectors longer than BLOCK), add each row's terms in
    # the order main, upper, lower: the order in which the coordinate
    # kernel's np.bincount adds the stencil's triplets when they are listed
    # diagonal by diagonal, so both storages give the same bits. (np.bincount
    # starts each sum from +0.0, so a row whose terms are all -0.0 sums to
    # +0.0 there and to -0.0 here. With no stored entry it gives integer
    # zeros, hence the cast, which returns a float result itself.) Dense
    # products call ndarray.dot, the BLAS gemv that `@` calls on a vector
    # of positive stride (so the same bits there), without the matmul
    # ufunc's dispatch; on a reversed view, where `@` leaves BLAS for a loop
    # of its own, they give the bits of the product with a contiguous copy.
    # The length checks read `_shape` itself: a call of the `rows` or `cols`
    # property costs more than the test, and a step makes seven products.

    def matvec(self, v: np.ndarray) -> np.ndarray:
        if len(v) != self._shape[1]:
            raise DimensionMismatch(f"matvec: matrix is {self._shape}, vector has length {len(v)}")
        if self._dense is not None:
            return self._dense.dot(v)
        if self._bands is not None:
            return (_in_segments if len(v) > BLOCK else _stencil)(v, *self._bands, _HEAD, _TAIL)
        r, c, vals = self._coo
        return np.bincount(r, weights=vals * v[c], minlength=self.rows).astype(float, copy=False)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        if len(v) != self._shape[0]:
            raise DimensionMismatch(f"transpose matvec: matrix is {self._shape}, vector has length {len(v)}")
        if self._dense is not None:
            return self._dense.T.dot(v)
        if self._bands is not None:
            return (_in_segments if len(v) > BLOCK else _stencil)(v, *self._bands, _TAIL, _HEAD)
        r, c, vals = self._coo
        return np.bincount(c, weights=vals * v[r], minlength=self.cols).astype(float, copy=False)


def _checked_shape(shape) -> tuple[int, int]:
    """(rows, cols) as ints; DimensionMismatch unless each is 1 to `_MAX_DIM`."""
    rows, cols = int(shape[0]), int(shape[1])
    if not (1 <= rows <= _MAX_DIM and 1 <= cols <= _MAX_DIM):
        raise DimensionMismatch(f"invalid shape {shape}: each dimension must be 1 to {_MAX_DIM}")
    return rows, cols


_HEAD, _TAIL = slice(None, -1), slice(1, None)  # the rows with a successor, and those with a predecessor


def _stencil(v, main, b1, b2, near, far) -> np.ndarray:
    """main * v, then b1 * v[far] added on rows `near` and b2 * v[near] on
    rows `far`: A v for (near, far) = (_HEAD, _TAIL), A^T v for the two
    swapped, b1 and b2 the upper and lower coefficients. `+=` on a bound
    view updates `y` in place without the copy-back of `y[near] += ...`."""
    y = main * v
    y_near, y_far = y[near], y[far]
    y_near += b1 * v[far]
    y_far += b2 * v[near]
    return y


def _in_segments(v, *stencil) -> np.ndarray:
    """`_stencil(v, *stencil)`, one block of rows per `_spread` item, each
    from its rows and one row of context on either side: every row takes
    the same terms in the same order as on the whole vector."""
    n = len(v)
    y = np.empty(n)

    def each(start: int) -> None:
        first = max(start - 1, 0)
        rows = slice(start - first, start - first + BLOCK)
        y[start:start + BLOCK] = _stencil(v[first:start + BLOCK + 1], *stencil)[rows]

    _spread(range(0, n, BLOCK), each)
    return y


def blockwise(kernel, *args) -> None:
    """Run the in-place element-wise `kernel(*args)`, BLOCK rows at a time
    when its vectors are longer than BLOCK.

    The first argument is a vector; every ndarray argument of one or more
    dimensions is a vector of that length and is cut into blocks, the
    others (coefficients, 0-d arrays among them) reach each block whole.
    `kernel` writes its results into vectors among its arguments and must
    be element-wise: row i of what it writes depends on row i of the
    vectors alone. It then gives each element the same operations in the
    same order on a block as on the whole vectors, so the blocked result is
    bit-identical. A numpy ufunc with its `out` passed positionally, such as
    `np.divide`, is such a kernel. `_spread` runs the blocks.
    """
    n = len(args[0])
    if n <= BLOCK:
        kernel(*args)
        return

    def each(start: int) -> None:
        rows = slice(start, start + BLOCK)
        kernel(*(a[rows] if isinstance(a, np.ndarray) and a.ndim else a for a in args))

    _spread(range(0, n, BLOCK), each)


def parallel_map(fn, vectors: Sequence[np.ndarray]) -> list:
    """Return [fn(v) for v in vectors], the calls spread over the usable
    CPUs when the vectors are longer than BLOCK rows.

    Each call is whole and runs in one thread, so every result is the bits
    that the serial call gives; `fn` must not write what another call
    reads. `_spread` runs the calls, and a failing call ends its run.
    """
    if len(vectors[0]) <= BLOCK:
        return [fn(v) for v in vectors]
    results = [None] * len(vectors)

    def each(i: int) -> None:
        results[i] = fn(vectors[i])

    _spread(range(len(vectors)), each)
    return results


# The helper pool of `_spread`, shared by callers in any thread under
# `_lock`: one inbox per daemon helper thread, which works through the runs
# put there in turn for the life of the process. Helpers start as the widest
# call so far asks for. A fork waits for any hand-off that holds `_lock`, and
# the child, which has none of the parent's threads, starts with an empty pool.
# The hooks are bound methods of the lock and the list, so they keep no
# function of this module, nor the module, alive.
_lock = threading.Lock()
_inboxes: list[queue.SimpleQueue] = []
if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_lock.acquire, after_in_parent=_lock.release, after_in_child=_lock.release)
    os.register_at_fork(after_in_child=_inboxes.clear)


def _spread(items: range, each) -> None:
    """Call each(i) for every i in `items`, cut into one contiguous run per
    usable CPU (at most one per item).

    The caller works through the first run and the helpers through the
    others, each helper under the caller's numpy error settings
    (`np.errstate`), which it sets itself: numpy 2 keeps them per context
    and numpy 1 per thread, and neither reaches another thread. Returns once
    every run has finished and no helper holds `each` any more (`_serve`);
    the caller's exception is then raised, or else
    that of the first failing helper run, in run order. `each` calls numpy
    only, never the package's public functions (a profiler that wraps those
    keeps state that concurrent calls would corrupt), and must not itself
    call `_spread`, since it could then wait on its own helper.
    """
    count = min(_usable_cpus(), len(items))
    runs = [items[i * len(items) // count:(i + 1) * len(items) // count] for i in range(count)]
    settings, done = dict(np.geterr(), call=np.geterrcall()), queue.SimpleQueue()
    with _lock:
        while len(_inboxes) < count - 1:
            _inboxes.append(queue.SimpleQueue())
            threading.Thread(target=_serve, args=(_inboxes[-1],), name=f"fopsolve-helper-{len(_inboxes) - 1}",
                             daemon=True).start()
        for index, inbox in enumerate(_inboxes[:count - 1], 1):
            inbox.put((index, runs[index], each, settings, done))
    try:
        for i in runs[0]:
            each(i)
    finally:
        outcomes = sorted(done.get() for _ in runs[1:])
    for _, error in outcomes:
        if error is not None:
            raise error


def _serve(inbox: queue.SimpleQueue) -> None:
    """A helper's loop: work through each run it receives and report how it ended.

    The run's callable is dropped before the report, so once `_spread`
    returns no helper holds anything of the caller's: a vector the caller
    drops then is freed at once, in the caller's thread, and not whenever
    the helper gets round to it, where it would race the caller's next
    allocation for the memory."""
    while True:
        index, run, each, settings, done = inbox.get()
        error = None
        try:
            with np.errstate(**settings):
                for i in run:
                    each(i)
        except BaseException as exc:  # raised again in the caller
            error = exc
        del each, settings
        done.put((index, error))
        del error  # nor, while idle, a failed run's traceback


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

    Checks and converts its input, then calls `eliminate`, the package's
    one elimination routine. Its consumer is the oracle, whose Hankel
    moment systems have n <= 10; the solver's systems (the bootstrap's
    degree 1..4 orthogonality systems, the recurrences' 3x3 systems) are
    Python floats it has checked itself, and go to `eliminate` directly.
    `M` is an ndarray or a sequence of rows and
    is not modified; the solution is a list of Python floats. Raises
    SingularSystem as `eliminate` does, ValueError on non-finite entries.

    Further right-hand sides `more_b` ride along the one elimination of
    `M`; the result is then one solution list per right-hand side, in
    order, each bit-identical to solving for that right-hand side alone.
    """
    try:
        rows = M.tolist() if isinstance(M, np.ndarray) else M
        rhs = [[*map(float, v.tolist() if isinstance(v, np.ndarray) else v)] for v in (b, *more_b)]
        n = len(rows)
        # Eliminate on the augmented rows [M | b | more_b].
        a = [[*map(float, row), *values] for row, values in zip(rows, zip(*rhs))]
    except TypeError as exc:
        raise DimensionMismatch("solve_dense needs a matrix of rows and 1-D right-hand sides") from exc
    m = len(rhs)
    if not 1 <= n <= SOLVE_DENSE_MAX_N or list(map(len, rhs)) != [n] * m or list(map(len, a)) != [n + m] * n:
        raise DimensionMismatch(f"solve_dense needs an n x n matrix, n <= {SOLVE_DENSE_MAX_N}, and n entries in each "
                                f"right-hand side; got {n} rows of lengths {[len(r) - m for r in a]}, "
                                f"right-hand sides of lengths {[*map(len, rhs)]}")
    entries = [*itertools.chain(*a)]
    if not all(map(math.isfinite, entries)):
        raise ValueError("solve_dense: entries must be finite")
    for width in range(n + m, n, -1):  # drop the right-hand sides, one column a pass: the floor reads M alone
        del entries[n::width]
    solutions = eliminate(a, max(max(entries), -min(entries)))
    return solutions if more_b else solutions[0]


def eliminate(a: list[list[float]], max_abs: float) -> list[list[float]]:
    """Solve the augmented rows `a` = [M | b_1 | ... | b_m], n rows of
    n + m finite Python floats, in place, given `max_abs` = max|M|: one
    solution list per right-hand side, in order. The package's one
    elimination loop. The pivot of each column is the first row with the
    largest |entry|; one at or below 1e-13 * max_abs raises
    SingularSystem, carrying the offending elimination step. The back
    substitution of each right-hand side follows in the same loop,
    accumulating each row's dot product with the solved entries from the
    last column on, the first term rounded alone and each further one
    fused (`_fma`).
    """
    n, width = len(a), len(a[0])
    pivot_floor = _PIVOT_RTOL * max_abs
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
    solutions = []
    for rhs in range(n, width):
        x = [0.0] * n
        for i in range(n - 1, -1, -1):
            row = a[i]
            dot = 0.0
            for j in range(i + 1, n):
                dot = _fma(row[j], x[j], dot) if dot else row[j] * x[j] + dot
            x[i] = (row[rhs] - dot) / row[i]
        solutions.append(x)
    return solutions


_SPLIT = 2.0 ** 27 + 1.0  # Veltkamp's constant: a double splits into two halves of 26 bits


def _fma(a: float, b: float, c: float) -> float:
    """a * b + c rounded once, for a nonzero c: the fused multiply-add with
    which BLAS dot kernels accumulate, so the back substitution rounds as
    numpy's `row @ x` does with an FMA BLAS, on any machine. (A zero c adds
    exactly as `a * b + c`.)

    Where 1e-280 < |a * b| < 1e280 and |a|, |b| < 1e290, Dekker's
    TwoProduct (Numer. Math. 18, 1971) gives the rounding error e of
    p = a * b exactly, a * b = p + e. Veltkamp's split of a and b into
    halves of at most 26 significant bits cannot overflow below 1e290 *
    (2**27 + 1). The four half products are then exact, and so are the
    sums that form e, as nothing underflows: each is a multiple of the
    product of the lowest bits of a and b, at least |a| |b| 2**-107 >
    2**-1040. `math.fsum` rounds p + e + c once, correctly. It cannot
    overflow on finite c, as |p + e| < 1e280 is below half an ulp of the
    largest double; an infinite or NaN c is its own result, as in
    a * b + c.

    With a zero operand and a nonzero c, p is exactly +-0, or NaN against
    an infinite or NaN operand, and p + c is the result. Elsewhere (a
    product that is tiny, huge or not finite) the result is the exact
    rational a * b + c rounded once by `Fraction`, whose float conversion
    is int true division.
    """
    p = a * b
    if 1e-280 < abs(p) < 1e280 and abs(a) < 1e290 and abs(b) < 1e290:
        t = _SPLIT * a
        a_hi = t - (t - a)
        a_lo = a - a_hi
        t = _SPLIT * b
        b_hi = t - (t - b)
        b_lo = b - b_hi
        return math.fsum((p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo, c))
    if c and not (a and b):
        return p + c
    try:
        return float(Fraction(a) * Fraction(b) + Fraction(c))
    except (OverflowError, ValueError):  # an infinite or NaN operand, or an overflowing result
        return a * b + c
