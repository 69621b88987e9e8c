import gc
import importlib.util
import math
import os
import queue
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fopsolve as fs
from fopsolve import linalg
from fopsolve.errors import DimensionMismatch, SingularSystem

import helpers
from helpers import float_bits, outcome, reference_eliminate, reference_solve_dense, within


def test_matvec_identity():
    assert np.array_equal(fs.matvec(fs.Matrix.identity(2), [3.0, 4.0]), [3.0, 4.0])


def test_matvec_diagonal_scaling():
    assert np.array_equal(fs.matvec(fs.Matrix.diagonal([1.0, 2.0]), [1.0, 1.0]), [1.0, 2.0])


def test_matvec_tridiagonal_row_sums():
    got = fs.matvec(fs.Matrix.tridiagonal(3), [1.0, 1.0, 1.0])
    assert np.allclose(got, [1.0, 0.0, 1.0], atol=0)


def test_matvec_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        fs.matvec(fs.Matrix.identity(3), [1.0, 2.0])


def test_transpose_matvec_identity():
    assert np.array_equal(fs.transpose_matvec(fs.Matrix.identity(2), [3.0, 4.0]), [3.0, 4.0])


def test_transpose_matvec_symmetric_equals_matvec():
    m = fs.Matrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
    v = np.array([0.3, -1.2])
    assert np.array_equal(fs.transpose_matvec(m, v), fs.matvec(m, v))


def test_transpose_matvec_hand_expansion():
    m = fs.Matrix.from_dense([[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(fs.transpose_matvec(m, [1.0, 0.0]), [0.0, 1.0])


@pytest.mark.parametrize("sparse", [False, True])
def test_adjoint_identity(sparse):
    rng = np.random.default_rng(7)
    for _ in range(20):
        rows, cols = rng.integers(1, 9, size=2)
        dense = rng.standard_normal((rows, cols))
        if sparse:
            trips = [(i, j, dense[i, j]) for i in range(rows) for j in range(cols)]
            m = fs.Matrix.from_triplets((rows, cols), trips)
        else:
            m = fs.Matrix.from_dense(dense)
        u = rng.standard_normal(rows)
        v = rng.standard_normal(cols)
        left = float(fs.transpose_matvec(m, u) @ v)
        right = float(u @ fs.matvec(m, v))
        assert abs(left - right) <= 1e-12 * max(1.0, abs(left), abs(right))


def test_sparse_coo_matches_dense():
    rng = np.random.default_rng(3)
    dense = rng.standard_normal((5, 4))
    trips = [(i, j, dense[i, j]) for i in range(5) for j in range(4) if (i + j) % 2 == 0]
    m = fs.Matrix.from_triplets((5, 4), trips)
    ref = np.zeros((5, 4))
    for i, j, v in trips:
        ref[i, j] = v
    v = rng.standard_normal(4)
    assert np.allclose(fs.matvec(m, v), ref @ v, rtol=1e-14)
    assert np.allclose(m.to_dense(), ref)


def test_dense_products_equal_the_matmul_operator_bit_for_bit():
    # Dense storage takes its products with ndarray.dot, the gemv of `@`
    # without the matmul dispatch: A v and A^T v must be the bits of A @ v
    # and A.T @ v, on contiguous vectors and on the strided views (a column,
    # every other entry of a row) that linalg.matvec passes through without
    # a copy. On a reversed view, where `@` leaves BLAS for a loop of its
    # own, they are the bits of the product with a contiguous copy.
    rng = np.random.default_rng(29)
    shapes = [(n, n) for n in range(1, 131)]
    shapes += [(int(rng.integers(1, 131)), int(rng.integers(1, 131))) for _ in range(30)] + [(3, 70001)]
    for rows, cols in shapes:
        # mixed magnitudes, so that a different summation order would round differently
        dense = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-8, 9, (rows, cols))
        m = fs.Matrix.from_dense(dense)
        block = rng.standard_normal((max(rows, cols), 2))
        for v, u in ((rng.standard_normal(cols), rng.standard_normal(rows)),
                     (block[:cols, 1], rng.standard_normal(2 * rows)[::2])):
            want_y, want_t = dense @ v, dense.T @ u
            for y, want in ((m.matvec(v), want_y), (fs.matvec(m, v), want_y),
                            (m.rmatvec(u), want_t), (fs.transpose_matvec(m, u), want_t)):
                assert y.tobytes() == want.tobytes()
        v, u = rng.standard_normal(cols)[::-1], rng.standard_normal(rows)[::-1]
        assert fs.matvec(m, v).tobytes() == (dense @ v.copy()).tobytes()
        assert fs.transpose_matvec(m, u).tobytes() == (dense.T @ u.copy()).tobytes()


def _stencil_triplets(n):
    """The (-1, 2, -1) stencil as coordinate triplets, diagonal by diagonal:
    main, then upper, then lower."""
    trips = [(i, i, 2.0) for i in range(n)]
    trips += [(i, i + 1, -1.0) for i in range(n - 1)]
    trips += [(i + 1, i, -1.0) for i in range(n - 1)]
    return fs.Matrix.from_triplets((n, n), trips)


# Lengths up to BLOCK run the whole-vector products, longer ones the blocked ones.
BLOCK = linalg.BLOCK


@pytest.mark.parametrize("n", [1, 2, 3, 7, 1000, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, BLOCK + 2, BLOCK + 3])
def test_tridiagonal_bands_match_the_coordinate_kernel_bit_for_bit(n):
    banded, coo = fs.Matrix.tridiagonal(n), _stencil_triplets(n)
    rng = np.random.default_rng(n)
    for _ in range(5):
        # mixed magnitudes, so that a different summation order would round differently
        v = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
        assert fs.matvec(banded, v).tobytes() == fs.matvec(coo, v).tobytes()
        assert fs.transpose_matvec(banded, v).tobytes() == fs.transpose_matvec(coo, v).tobytes()
    if n <= 1000:  # a dense copy of the long sizes would take gigabytes
        assert np.array_equal(banded.to_dense(), coo.to_dense())
    assert banded.nnz == coo.nnz == 3 * n - 2
    assert banded.shape == coo.shape == (n, n)
    assert not banded.is_dense


def _random_bands(rng, zero=None):
    """Main, upper and lower coefficients (read-only 0-d arrays) of mixed
    magnitudes and signs; the one at index `zero`, if any, is 0.0."""
    bands = []
    for i in range(3):
        band = np.array(0.0 if i == zero else rng.standard_normal() * 10.0 ** rng.integers(-8, 9))
        band.setflags(write=False)
        bands.append(band)
    return bands


def _whole_vector_products(main, upper, lower, v):
    """A v and A^T v by the whole-vector formula: main, then upper, then lower terms."""
    y = main * v
    y[:-1] += upper * v[1:]
    y[1:] += lower * v[:-1]
    t = main * v
    t[1:] += upper * v[:-1]
    t[:-1] += lower * v[1:]
    return y, t


# CPU counts for the split kernels: one run, one per core here, more runs than cores.
CPU_COUNTS = (1, 2, 5)


@pytest.mark.parametrize("block, sizes", [
    (7, [8, 13, 14, 15, 22, 50, 9, 10, 17]),
    (16, [17, 31, 32, 33, 49, 100]),
    (BLOCK, [BLOCK + 1, 2 * BLOCK + 1, BLOCK + 2, BLOCK + 3]),
])
def test_blocked_banded_products_match_the_whole_vector_formula_bit_for_bit(monkeypatch, block, sizes):
    # Random (non-stencil) coefficients across block edges, a one-row last
    # block included; each length also runs with one coefficient 0.0 and
    # with a vector of some ±0.0 entries, so that signed zeros meet at block
    # edges, and the blocks are split into runs for every CPU count. The
    # blocks cut rows 0..n-1, so n = block + 1 and 2 * block + 1 end in a
    # one-row block.
    monkeypatch.setattr(linalg, "BLOCK", block)
    rng = np.random.default_rng(block)
    for i, n in enumerate(sizes):
        for zero, signed_zeros in ((None, False), (i % 3, False), (None, True)):
            main, upper, lower = _random_bands(rng, zero)
            m = fs.Matrix((n, n), bands=(main, upper, lower))
            v = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
            if signed_zeros:
                v[::3], v[1::5] = 0.0, -0.0
            want_y, want_t = _whole_vector_products(main, upper, lower, v)
            for cpus in CPU_COUNTS:
                monkeypatch.setattr(linalg, "_usable_cpus", lambda: cpus)
                assert fs.matvec(m, v).tobytes() == want_y.tobytes()
                assert fs.transpose_matvec(m, v).tobytes() == want_t.tobytes()
            if n <= 100:
                dense = m.to_dense()
                assert np.allclose(fs.matvec(m, v), dense @ v, rtol=1e-12, atol=1e-300)
                assert np.allclose(fs.transpose_matvec(m, v), dense.T @ v, rtol=1e-12, atol=1e-300)


def test_full_size_stencil_products_match_the_per_entry_bands_bit_for_bit():
    # The stencil's coefficients give the bits of the per-entry bands that
    # stored it before (np.full), at the benchmark's largest size.
    n = 10**6
    rng = np.random.default_rng(6)
    v = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
    want_y, want_t = _whole_vector_products(np.full(n, 2.0), np.full(n - 1, -1.0), np.full(n - 1, -1.0), v)
    m = fs.Matrix.tridiagonal(n)
    assert fs.matvec(m, v).tobytes() == want_y.tobytes()
    assert fs.transpose_matvec(m, v).tobytes() == want_t.tobytes()


def test_tridiagonal_storage_does_not_grow_with_n():
    tracemalloc.start()
    try:
        m = fs.Matrix.tridiagonal(10**6)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024, (size, peak)
    assert m.nnz == 3 * 10**6 - 2


def test_blockwise_matches_the_whole_vector_kernel(monkeypatch):
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal(23), rng.standard_normal(23)
    a[3], b[3] = -0.0, 0.0  # signed zeros: -0.0 + 0.0 is +0.0, -0.0 - 0.0 stays -0.0

    def kernel(total, product, a, b, coefficients):
        np.add(a, np.multiply(coefficients[0], b), out=total)
        np.subtract(np.multiply(a, b), coefficients[1], out=product)

    def in_place(a, b, coefficient):
        assert np.ndim(coefficient) == 0  # a 0-d array coefficient reaches each block whole
        a -= np.multiply(coefficient, b)

    zero_d = np.array(1.7)
    zero_d.setflags(write=False)
    want = [(a + 0.3 * b).tobytes(), (a * b - 0.0).tobytes()]
    want_a = (a - 1.7 * b).tobytes()
    want_quotient = (a / 1.7).tobytes()
    for block, cpus in [(BLOCK, 1), *((5, cpus) for cpus in CPU_COUNTS)]:  # whole vectors, then 5 blocks
        monkeypatch.setattr(linalg, "BLOCK", block)
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: cpus)
        total, product = np.empty(23), np.empty(23)
        assert linalg.blockwise(kernel, total, product, a, b, [0.3, 0.0]) is None
        assert [total.tobytes(), product.tobytes()] == want
        for coefficient in (1.7, zero_d):
            blocked_a = a.copy()
            assert linalg.blockwise(in_place, blocked_a, b, coefficient) is None
            assert blocked_a.tobytes() == want_a
            quotient = np.empty(23)  # a ufunc with its out positional is a kernel too
            assert linalg.blockwise(np.divide, a, coefficient, quotient) is None
            assert quotient.tobytes() == want_quotient


def test_split_blockwise_runs_every_block_under_the_callers_error_settings(monkeypatch):
    # Every block overflows. The helper threads set the caller's np.errstate
    # themselves, callback included, so each block reports to the caller's
    # callback, and a raising setting raises in the caller.
    monkeypatch.setattr(linalg, "BLOCK", 7)
    monkeypatch.setattr(linalg, "_usable_cpus", lambda: 5)

    def kernel(v, out):
        np.multiply(v, 1e300, out=out)

    def overflow(**settings):  # within's thread is the caller
        with np.errstate(**settings):
            linalg.blockwise(kernel, v, out)

    v, out, seen = np.full(50, 1e300), np.zeros(50), []
    within(60, lambda: overflow(over="call", call=lambda kind, flag: seen.append(kind)))
    assert seen == ["overflow"] * 8
    assert np.isposinf(out).all()
    with pytest.raises(FloatingPointError, match="overflow"):
        within(60, lambda: overflow(over="raise"))


@pytest.mark.parametrize("bad_row", [0, 25, 49], ids=["caller", "helper", "last-helper"])
def test_split_blockwise_raises_a_failing_block_in_the_caller(monkeypatch, bad_row):
    # 50 rows in 8 blocks of 7 rows, split into five runs: blocks 0 | 1-2 |
    # 3 | 4-5 | 6-7, the first the caller's. Each bad row is in the last
    # block of its run, so every other block is written before the exception
    # reaches the caller. The helper pool grows to at most four threads on
    # the first split call and keeps them through failing calls.
    monkeypatch.setattr(linalg, "BLOCK", 7)
    monkeypatch.setattr(linalg, "_usable_cpus", lambda: 5)

    def kernel(rows, out):
        if rows[0] <= bad_row <= rows[-1]:
            raise ZeroDivisionError(f"block of row {bad_row}")
        time.sleep(0.01)  # the failing block ends first
        np.add(rows, 1.0, out=out)

    rows, out = np.arange(50.0), np.zeros(50)
    before = threading.active_count()
    with pytest.raises(ZeroDivisionError, match=f"block of row {bad_row}$"):
        within(60, linalg.blockwise, kernel, rows, out)
    pooled = threading.active_count()
    assert pooled - before <= 4
    failed = slice(bad_row // 7 * 7, bad_row // 7 * 7 + 7)
    assert not out[failed].any()
    out[failed] = rows[failed] + 1.0
    assert np.array_equal(out, rows + 1.0)
    out[:] = 0.0
    with pytest.raises(ZeroDivisionError, match=f"block of row {bad_row}$"):
        within(60, linalg.blockwise, kernel, rows, out)
    assert threading.active_count() == pooled
    bad_row, out[:] = -1, 0.0  # no block fails
    within(60, linalg.blockwise, kernel, rows, out)
    assert np.array_equal(out, rows + 1.0)
    assert threading.active_count() == pooled


def test_parallel_map_gives_the_bits_of_the_serial_calls(monkeypatch):
    # The window products of a step: (7, n) @ v for three vectors, whole
    # (serial) and spread over one run, one per core here and more runs
    # than calls. Each is the one BLAS call it is alone.
    rng = np.random.default_rng(8)
    window = rng.standard_normal((7, 40)) * 10.0 ** rng.integers(-8, 9, (7, 40))
    vectors = [rng.standard_normal(40) * 10.0 ** rng.integers(-8, 9, 40) for _ in range(3)]
    want = [window.dot(v).tobytes() for v in vectors]
    monkeypatch.setattr(linalg, "BLOCK", 7)
    for cpus in CPU_COUNTS:
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: cpus)
        assert [p.tobytes() for p in within(60, linalg.parallel_map, window.dot, vectors)] == want
    monkeypatch.setattr(linalg, "BLOCK", 40)  # vectors of at most BLOCK rows: serial calls in the caller
    caller, threads = threading.get_ident(), []

    def product(v):
        threads.append(threading.get_ident())
        return window.dot(v)

    assert [p.tobytes() for p in linalg.parallel_map(product, vectors)] == want
    assert threads == [caller] * 3


@pytest.mark.parametrize("bad", [0, 2, 4], ids=["caller", "helper", "last-helper"])
def test_parallel_map_raises_a_failing_call_after_every_other_call_finished(monkeypatch, bad):
    # Five calls in three runs, 0 | 1-2 | 3-4, the first the caller's; each
    # failing call ends its run. It fails at once, the others only after a
    # pause, so an exception that outran them would find them unfinished.
    monkeypatch.setattr(linalg, "BLOCK", 7)
    monkeypatch.setattr(linalg, "_usable_cpus", lambda: 3)
    vectors, finished = [np.full(8, float(i)) for i in range(5)], []

    def call(v):
        if v[0] == bad:
            raise ZeroDivisionError(f"call {bad}")
        time.sleep(0.05)
        finished.append(int(v[0]))
        return v + 1.0

    with pytest.raises(ZeroDivisionError, match=f"call {bad}$"):
        within(60, linalg.parallel_map, call, vectors)
    assert sorted(finished) == [i for i in range(5) if i != bad]


def test_parallel_map_runs_every_call_under_the_callers_error_settings(monkeypatch):
    # Every call overflows: the helpers set the caller's np.errstate
    # themselves (numpy 1 keeps it per thread, numpy 2 per context).
    monkeypatch.setattr(linalg, "BLOCK", 7)
    monkeypatch.setattr(linalg, "_usable_cpus", lambda: 3)
    vectors = [np.full(8, 1e300) for _ in range(5)]

    def overflow(**settings):  # within's thread is the caller
        with np.errstate(**settings):
            return linalg.parallel_map(lambda v: v * 1e300, vectors)

    seen = []
    results = within(60, lambda: overflow(over="call", call=lambda kind, flag: seen.append(kind)))
    assert seen == ["overflow"] * 5
    assert all(np.isposinf(r).all() for r in results)
    with pytest.raises(FloatingPointError, match="overflow"):
        within(60, lambda: overflow(over="raise"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all(np.isposinf(r).all() for r in within(60, lambda: overflow(over="ignore")))


def test_concurrent_callers_share_the_pool(monkeypatch):
    # Three callers, released together, each run a split blockwise and a
    # parallel_map on the module's pool at once; every block and call
    # pauses, so the callers' runs overlap in the helpers. Each caller gets
    # the bits of its serial calls, and the pool grows to the two helpers
    # that one caller asks for, unless earlier calls left it that large:
    # concurrent callers start no helper of their own.
    monkeypatch.setattr(linalg, "BLOCK", 7)
    monkeypatch.setattr(linalg, "_usable_cpus", lambda: 3)
    rng = np.random.default_rng(12)
    window = rng.standard_normal((7, 40)) * 10.0 ** rng.integers(-8, 9, (7, 40))
    rows = [rng.standard_normal(50) * 10.0 ** rng.integers(-8, 9, 50) for _ in range(3)]
    vectors = [[rng.standard_normal(40) for _ in range(3)] for _ in range(3)]

    def kernel(v, out):
        term = np.multiply(v, 0.3)
        time.sleep(0.002)
        np.add(v, term, out=out)

    def product(v):
        time.sleep(0.002)
        return window.dot(v)

    want = [[(v + v * 0.3).tobytes(), *(window.dot(u).tobytes() for u in us)] for v, us in zip(rows, vectors)]
    barrier, got = threading.Barrier(3), {}

    def caller(k):
        barrier.wait()
        out = np.empty(50)
        linalg.blockwise(kernel, rows[k], out)
        got[k] = [out.tobytes(), *(p.tobytes() for p in linalg.parallel_map(product, vectors[k]))]

    def callers():
        threads = [threading.Thread(target=caller, args=(k,), daemon=True) for k in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    helpers, threads = len(linalg._inboxes), threading.active_count()
    within(60, callers)
    assert [got.get(k) for k in range(3)] == want
    assert len(linalg._inboxes) == max(helpers, 2)
    assert threading.active_count() - threads == len(linalg._inboxes) - helpers


def test_a_helper_holds_nothing_of_a_run_once_it_reports(monkeypatch):
    # The helper lingers in the put of its report. A vector the caller
    # drops as soon as blockwise returns must be freed then, in the
    # caller's thread, not when the helper goes on: freed there, it would
    # race the caller's next allocation for the memory.
    monkeypatch.setattr(linalg, "BLOCK", 7)
    monkeypatch.setattr(linalg, "_usable_cpus", lambda: 2)

    class LingeringQueue(queue.SimpleQueue):
        def put(self, item, block=True, timeout=None):
            super().put(item, block, timeout)
            if threading.current_thread().name.startswith("fopsolve-helper"):
                time.sleep(0.2)

    monkeypatch.setattr(linalg.queue, "SimpleQueue", LingeringQueue)

    def caller():
        v = np.arange(50.0)
        alive = weakref.ref(v)
        linalg.blockwise(np.negative, v, v)
        assert v.tobytes() == (-np.arange(50.0)).tobytes()
        del v
        return alive() is None

    assert within(60, caller)


def _split_calls_in_a_forked_child(monkeypatch, hold_lock: bool) -> None:
    """Fork after a split call has started the pool's helpers, with another
    thread holding the pool's lock across the fork if `hold_lock`. The child
    must find the lock free and the pool empty, start at most cpus - 1
    helpers of its own for a split call and a blocked solve, get the
    parent's bits and exit 0; a pool or a held lock carried over would hang
    it."""
    monkeypatch.setattr(linalg, "BLOCK", 7)
    monkeypatch.setattr(linalg, "_usable_cpus", lambda: 3)

    def kernel(rows, out):
        np.add(rows, 1.0, out=out)

    rows, out = np.arange(50.0), np.zeros(50)
    within(60, linalg.blockwise, kernel, rows, out)  # the parent's pool has helpers now
    A, b = fs.Matrix.tridiagonal(30), np.random.default_rng(13).standard_normal(30)
    want_x, want_report = fs.solve(A, b)
    held = threading.Event()

    def hold():
        with linalg._lock:  # as a caller handing out its runs does
            held.set()
            time.sleep(0.3)

    holder = threading.Thread(target=hold, daemon=True)
    if hold_lock:
        holder.start()
        assert held.wait(60)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # Python 3.12+ warns on fork with threads
        pid = os.fork()
    if pid == 0:  # the child: never return into the test runner
        code = 1
        try:
            fresh = threading.active_count() == 1 and not linalg._lock.locked() and linalg._inboxes == []
            out[:] = 0.0
            linalg.blockwise(kernel, rows, out)
            x, report = fs.solve(A, b)
            ok = (fresh and threading.active_count() <= 3 and np.array_equal(out, rows + 1.0)
                  and x.tobytes() == want_x.tobytes() and repr(report) == repr(want_report))
            code = 0 if ok else 1
        finally:
            os._exit(code)
    if hold_lock:
        holder.join(60)
        assert not holder.is_alive()
    try:
        status = within(60, os.waitpid, pid, 0)[1]
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_split_calls_run_in_a_forked_child(monkeypatch):
    _split_calls_in_a_forked_child(monkeypatch, hold_lock=False)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_fork_waits_for_a_held_pool_lock(monkeypatch):
    # The fork waits until the other thread releases the lock.
    _split_calls_in_a_forked_child(monkeypatch, hold_lock=True)


def test_fork_hooks_keep_no_module_copy_alive():
    # The fork hooks are methods of the module's lock and list, not functions
    # of the module, so a copy of the module that is imported and dropped
    # again is freed, hooks and all.
    spec = importlib.util.spec_from_file_location("fopsolve._linalg_copy", linalg.__file__)
    copy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(copy)
    function = weakref.ref(copy.blockwise)
    del copy
    gc.collect()
    assert function() is None


def test_tridiagonal_bands_are_read_only():
    m = fs.Matrix.tridiagonal(4)
    stencil = [((), np.float64, c) for c in (2.0, -1.0, -1.0)]
    assert [(band.shape, band.dtype, float(band)) for band in m._bands] == stencil
    for band in m._bands:
        with pytest.raises(ValueError):
            band[()] = 0.0
    dense = m.to_dense()
    dense[0, 0] = 7.0  # a copy, not the storage
    assert fs.matvec(m, np.ones(4))[0] == 1.0


@pytest.mark.parametrize("n", [0, -3])
def test_tridiagonal_rejects_empty_sizes(n):
    with pytest.raises(DimensionMismatch):
        fs.Matrix.tridiagonal(n)


def test_import_leaves_scipy_unloaded():
    # The products stay numpy-only: importing scipy.sparse raises a process's
    # peak RSS by 15-21 MB (29 -> 51 MB over a bare `import fopsolve`, 47 ->
    # 62 MB on the restart-long benchmark), more than the 0.1 bound of
    # peak_rss_mb on desk, restart-long and verify.
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, fopsolve, fopsolve.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_matrix_duplicate_triplets_forbidden():
    with pytest.raises(ValueError):
        fs.Matrix.from_triplets((2, 2), [(0, 0, 1.0), (0, 0, 2.0)])


def test_matrix_duplicate_triplets_are_found_past_the_int64_key_range():
    # A key r * cols + c would wrap past 2**63 and call these two a duplicate.
    far = fs.Matrix.from_triplets((2**40, 2**40), [(2**24, 0, 1.0), (0, 0, 1.0)])
    assert far.nnz == 2
    with pytest.raises(ValueError, match="duplicate"):
        fs.Matrix.from_triplets((2**40, 2**40), [(2**39, 5, 1.0), (0, 0, 1.0), (2**39, 5, 2.0)])


@pytest.mark.parametrize("build", [
    lambda n: fs.Matrix.tridiagonal(n),
    lambda n: fs.Matrix.from_triplets((2, n), [(0, 0, 1.0)]),
    lambda n: fs.Matrix.from_triplets((n, 2), [(0, 0, 1.0)]),
], ids=["tridiagonal", "triplet-cols", "triplet-rows"])
def test_matrix_dimensions_numpy_cannot_size_are_rejected(build):
    # No storage here is as long as a dimension, so nothing large is allocated.
    largest = np.iinfo(np.intp).max // 8
    assert build(largest).shape.count(largest) >= 1
    for n in (largest + 1, 2**63, 10**20):
        with pytest.raises(DimensionMismatch, match="invalid shape"):
            build(n)


def test_coordinate_products_without_stored_entries_are_float_zeros():
    m = fs.Matrix.from_triplets((2, 3), [])
    for product, n in ((m.matvec(np.ones(3)), 2), (m.rmatvec(np.ones(2)), 3)):
        assert product.dtype == np.float64 and product.tobytes() == np.zeros(n).tobytes()


def test_matrix_triplet_index_range():
    with pytest.raises(DimensionMismatch):
        fs.Matrix.from_triplets((2, 2), [(0, 2, 1.0)])


def test_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        fs.Matrix.from_dense([[np.nan, 0.0], [0.0, 1.0]])


def test_vector_validation():
    with pytest.raises(ValueError):
        fs.as_vector([1.0, np.inf])
    with pytest.raises(DimensionMismatch):
        fs.as_vector([])


NORM_SIZES = [1, 7, 1000, 2 * linalg.BLOCK + 1]


@pytest.mark.parametrize("n", NORM_SIZES)
def test_norm_in_range_is_numpys_bit_for_bit(n):
    v = np.random.default_rng(n).standard_normal(n)
    for s in (-400, 0, 400):
        w = np.ldexp(v, s)
        assert float_bits(linalg.norm(w)) == float_bits(float(np.linalg.norm(w)))


@pytest.mark.parametrize("n", NORM_SIZES)
def test_norm_where_the_square_overflows_or_underflows_is_the_rescaled_norm(n):
    v = np.random.default_rng(n).standard_normal(n)
    with np.errstate(all="ignore"):
        for s in (-600, 600):
            w = np.ldexp(v, s)
            assert not 1.5e-154 < math.sqrt(float(w.dot(w))) < math.inf  # the rescale branch
            assert math.isclose(linalg.norm(w), math.hypot(*w), rel_tol=1e-13)
            big = float(np.abs(w).max())
            assert float_bits(linalg.norm(w)) == float_bits(big * float(np.linalg.norm(w / big)))
            assert float_bits(linalg.norm(-np.abs(w))) == float_bits(linalg.norm(np.abs(w)))  # max|v| of either sign


@pytest.mark.parametrize("n", NORM_SIZES)
def test_norm_scales_exactly_by_powers_of_two_within_a_branch(n):
    v = np.random.default_rng(n).standard_normal(n)
    # Each base vector and the shifts that keep it in its branch: in range,
    # v . v overflowing, v . v underflowing.
    with np.errstate(all="ignore"):
        for base, shifts in ((0, range(-400, 401, 100)), (600, range(0, 401, 100)), (-600, range(0, -301, -100))):
            w = np.ldexp(v, base)
            for s in shifts:
                assert float_bits(linalg.norm(np.ldexp(w, s))) == float_bits(math.ldexp(linalg.norm(w), s))


def test_norm_of_one_entry_is_its_magnitude_across_the_double_range():
    # sqrt(x * x) misses |x| where x * x is subnormal or overflows: 1.2e-154 and below, 1e160 and above.
    for x in (5e-324, 1e-310, 2e-160, 3e-157, 1.2e-154, 1.4e-154, 0.3, 1e154, 1e160, 1.7e308):
        for v in (x, -x):
            with np.errstate(all="ignore"):
                assert float_bits(linalg.norm(np.array([v]))) == float_bits(x)


def test_norm_edge_cases():
    with np.errstate(all="ignore"):
        assert linalg.norm(np.array([1.5e308, 1.5e308])) == math.inf  # finite, past the double range
        assert float_bits(linalg.norm(np.zeros(5))) == float_bits(0.0)
        for bad in ([np.inf], [-np.inf], [np.nan], [np.inf, np.nan], [-np.inf, np.nan]):
            v = np.random.default_rng(4).standard_normal(7)
            v[2:2 + len(bad)] = bad
            assert not math.isfinite(linalg.norm(v))


def test_solve_dense_identity():
    assert np.allclose(fs.solve_dense(np.eye(2), [5.0, 7.0]), [5.0, 7.0])


def test_solve_dense_diagonal():
    x = fs.solve_dense([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0])
    assert np.allclose(x, [1.0, 2.0])


def test_solve_dense_hilbert_row_sums():
    h = np.array([[1.0 / (i + j + 1) for j in range(3)] for i in range(3)])
    x = fs.solve_dense(h, h.sum(axis=1))
    assert np.allclose(x, [1.0, 1.0, 1.0], atol=1e-10)


def test_solve_dense_residual_on_random_systems():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 11))
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        x_true = rng.standard_normal(n)
        b = a @ x_true
        x = fs.solve_dense(a, b)
        norm = np.linalg.norm(a, ord=np.inf) * np.linalg.norm(x) + np.linalg.norm(b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * norm


def test_solve_dense_singular_reports_pivot():
    with pytest.raises(SingularSystem) as info:
        fs.solve_dense([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])
    assert info.value.pivot_index == 1


def test_solve_dense_size_cap():
    with pytest.raises(DimensionMismatch):
        fs.solve_dense(np.eye(11), np.ones(11))


def _forms(a):
    """The same matrix as an ndarray and as a tuple of row tuples."""
    return a, tuple(tuple(row) for row in a.tolist())


def test_solve_dense_agrees_with_lapack_in_every_input_form():
    rng = np.random.default_rng(5)
    for n in range(1, 11):
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        ref = np.linalg.solve(a, b)
        for m in _forms(a):
            x = fs.solve_dense(m, tuple(b))
            assert type(x) is list and len(x) == n and all(type(v) is float for v in x)
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_solve_dense_matches_the_reference_bit_for_bit():
    # Normal, small-integer (exactly singular and tied pivots) and
    # exponent-spread (long integer ratios in the fused multiply-adds)
    # systems of every size, in the three input forms.
    rng = np.random.default_rng(77)
    raised = 0
    for i in range(20000):
        n = 1 + i % 10
        if i % 3 == 1:
            a, b = rng.integers(-2, 3, size=(n, n)).astype(float), rng.integers(-2, 3, size=n).astype(float)
        else:
            a, b = rng.standard_normal((n, n)), rng.standard_normal(n)
            if i % 3 == 2:
                a, b = np.ldexp(a, rng.integers(-40, 41, size=(n, n))), np.ldexp(b, rng.integers(-40, 41, size=n))
        m = (a, a.tolist(), tuple(map(tuple, a.tolist())))[i % 3]
        got, want = outcome(fs.solve_dense, m, b), outcome(reference_solve_dense, m, b)
        assert got[0] == want[0]
        if got[0] == "ok":
            assert float_bits(got[1]) == float_bits(want[1])
        else:
            assert got[1] is want[1] is SingularSystem
            raised += 1
    assert raised > 1000


def test_solve_dense_pivots_on_the_first_largest_entry():
    # Rows 0 and 1 tie in column 0. Back substitution through row 0 and
    # through row 1 round differently here, so the result shows the choice.
    a01, a11, b0, b1 = 0.5, -1.0, -0.1, 0.4
    x1 = (b1 + b0) / (a11 + a01)
    through_row0 = (b0 - a01 * x1) / 2.0
    through_row1 = (b1 - a11 * x1) / -2.0
    assert through_row0 != through_row1
    x = fs.solve_dense([[2.0, a01], [-2.0, a11]], [b0, b1])
    assert x[1] == x1
    assert x[0] == through_row0


def test_solve_dense_back_substitution_fuses_each_multiply_add():
    # Unit upper-triangular rows need no elimination, so x0 = r - dot, where
    # dot accumulates b_j * x_j with one rounding per term (as a BLAS dot
    # kernel with fused multiply-adds does).
    rng = np.random.default_rng(9)
    fused_differs = 0
    for _ in range(200):
        r, a1, a2, a3, x1, x2, x3 = rng.standard_normal(7).tolist()
        dot = 0.0
        for coef, xj in ((a1, x1), (a2, x2), (a3, x3)):
            dot = float(Fraction(coef) * Fraction(xj) + Fraction(dot))
        fused_differs += dot != a1 * x1 + a2 * x2 + a3 * x3
        rows = [[1.0, a1, a2, a3], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
        assert fs.solve_dense(rows, [r, x1, x2, x3])[0] == r - dot
    assert fused_differs > 0


@pytest.mark.parametrize("a, b, c", [
    (1e300, 1e300, 1.0), (1e308, 10.0, -1e308), (-1e200, 1e200, 1e-300), (math.nan, 1.0, 2.0),
    (1.0, math.inf, 2.0), (2.0, 3.0, math.nan), (math.inf, 1.0, -math.inf), (0.5, -math.inf, math.inf),
])
def test_fma_of_an_overflowing_or_nonfinite_operand_is_the_unfused_result(a, b, c):
    assert float_bits(linalg._fma(a, b, c)) == float_bits(a * b + c)


def _random_doubles(rng, count, exponents):
    """Doubles of random sign and significand with the given biased exponent
    fields (0: subnormal or zero, 1..2046: normal, 2047: infinite)."""
    fraction = np.where(exponents == 2047, 0, rng.integers(0, 1 << 52, count, dtype=np.uint64))
    sign = rng.integers(0, 2, count, dtype=np.uint64) << np.uint64(63)
    return (sign | exponents.astype(np.uint64) << np.uint64(52) | fraction).view(np.float64)


def test_fma_is_the_correctly_rounded_multiply_add_on_seeded_triples():
    # The reference rounds the exact rational a * b + c once; where that
    # overflows, or an operand is infinite or NaN, the result is the unfused
    # a * b + c.
    rng = np.random.default_rng(31)
    count = 20000
    field = lambda low, high: rng.integers(low, high + 1, count)  # noqa: E731  biased exponent fields
    near_overflow = field(1, 2046)
    kinds = {
        # every exponent from -1074 (subnormals and zeros) to 1023, and a few infinities
        "any": (field(0, 2047), field(0, 2047), field(0, 2047)),
        # products and sums at and below the subnormal range
        "tiny": (field(0, 700), field(0, 700), field(0, 200)),
        # products within a few binades of the largest double, and sums there
        "near overflow": (near_overflow, np.clip(3069 - near_overflow + field(-3, 1), 1, 2046), field(2030, 2046)),
        # |a| about 1e290 = 2**963 and products about 1e280 = 2**930, bounds of the
        # fast path (the cancellations below cover its lower bound, 2**-930)
        "guards": (field(1023 + 890, 1023 + 970), field(1023 - 100, 1023 + 70), field(1, 2046)),
    }
    triples = []
    for exponents in kinds.values():
        triples += zip(*(_random_doubles(rng, count, e).tolist() for e in exponents))
    # c within a few ulps of -a * b, products from 2**-1020 to 2**1000: the
    # product's rounding error decides the result
    product, a_share = field(-1020, 1000), field(-20, 20)
    a = _random_doubles(rng, count, 1023 + product // 2 + a_share)
    b = _random_doubles(rng, count, 1023 + product - product // 2 - a_share)
    c = np.nextafter(-(a * b), rng.choice([-np.inf, np.inf], count))
    c = np.where(rng.integers(0, 2, count) == 1, -(a * b), c)
    triples += zip(a.tolist(), b.tolist(), c.tolist())
    zeros = (0.0, -0.0)
    triples += [(x, y, z) for x in (*zeros, 3.0, -1e-310) for y in (*zeros, 0.5, 1e300) for z in (*zeros, 1e-320, -2.0)]
    # zero operands against infinite and NaN ones: 0 * inf, c = +-inf, c = NaN, and +-0 with a nonzero c
    for z in (math.inf, -math.inf, math.nan, 1.5, -1e-320):
        for y in (*zeros, 2.5, math.inf, -math.inf, math.nan):
            triples += [(x, y, z) for x in zeros] + [(y, x, z) for x in zeros]
    # products above 1e280 whose sum with the largest double overflows, or nearly does
    big = sys.float_info.max
    triples += [(1e150, 1e150, big), (-1e150, 1e150, -big), (2.0 ** 500, 2.0 ** 497, big), (1e140, 1e141, -big)]
    assert len(triples) > 100000
    mismatches = []
    for a, b, c in triples:
        try:
            want = float(Fraction(a) * Fraction(b) + Fraction(c))
        except (OverflowError, ValueError):
            want = a * b + c
        got = linalg._fma(a, b, c)
        if float_bits(got) != float_bits(want):
            mismatches.append((a, b, c, got, want))
    assert mismatches == []


@pytest.mark.parametrize("rows, index", [
    ([[0.0, 1.0, 2.0], [0.0, 3.0, 4.0], [0.0, 5.0, 6.0]], 0),
    ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]], 2),
])
def test_solve_dense_singular_pivot_index(rows, index):
    with pytest.raises(SingularSystem) as info:
        fs.solve_dense(rows, [1.0, 1.0, 1.0])
    assert info.value.pivot_index == index


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_dense_rejects_nonfinite_entries(bad):
    a = np.eye(3)
    a[1, 2] = bad
    for m in (a, a.tolist()):
        with pytest.raises(ValueError):
            fs.solve_dense(m, [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        fs.solve_dense(np.eye(3), [1.0, bad, 1.0])


def test_solve_dense_rejects_non_square_and_ragged_input():
    for m in ([[1.0, 2.0]], [[1.0, 2.0], [3.0]], [1.0, 2.0], np.ones((2, 2, 2))):
        with pytest.raises(DimensionMismatch):
            fs.solve_dense(m, [1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        fs.solve_dense(np.eye(2), [1.0, 1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        fs.solve_dense(np.eye(2), [[1.0], [1.0]])


def test_solve_dense_leaves_its_input_unmodified():
    a = np.array([[1.0, 2.0, 0.5], [4.0, -1.0, 3.0], [-2.0, 0.5, 1.0]])  # row swaps needed
    b = np.array([1.0, -2.0, 0.5])
    rows = a.tolist()
    a_copy, b_copy, rows_copy = a.copy(), b.copy(), [list(r) for r in rows]
    fs.solve_dense(a, b)
    fs.solve_dense(rows, b)
    assert np.array_equal(a, a_copy) and np.array_equal(b, b_copy)
    assert rows == rows_copy


def test_solve_dense_several_right_hand_sides_match_single_solves():
    # Normal, small-integer (exactly singular and tied pivots), exponent-spread
    # and nearly singular systems: one elimination for three right-hand sides
    # gives, column by column, the bits (or the pivot error) of three solves.
    rng = np.random.default_rng(31)
    raised = 0
    for i in range(2000):
        n = 1 + i % 10
        kind = i // 10 % 4
        if kind == 1:
            a, bs = rng.integers(-2, 3, size=(n, n)).astype(float), rng.integers(-2, 3, size=(3, n)).astype(float)
        else:
            a, bs = rng.standard_normal((n, n)), rng.standard_normal((3, n))
            if kind == 2:
                a, bs = np.ldexp(a, rng.integers(-40, 41, size=(n, n))), np.ldexp(bs, rng.integers(-40, 41, size=(3, n)))
            elif kind == 3 and n > 1:
                a[-1] = a[0] + 10.0 ** -rng.integers(11, 16) * rng.standard_normal(n)
        m = (a, a.tolist())[i % 2]
        got = outcome(fs.solve_dense, m, *bs)
        singles = [outcome(fs.solve_dense, m, b) for b in bs]
        if got[0] == "ok":
            assert len(got[1]) == 3
            assert [float_bits(x) for x in got[1]] == [float_bits(x) for _, x in singles]
        else:
            assert got == singles[0] == ("raised", SingularSystem)
            raised += 1
    assert raised > 100


def test_solve_dense_pivot_floor_ignores_the_right_hand_sides():
    m = [[1.0, 1.0], [1.0, 1.0 + 5e-14]]  # second pivot 5e-14 < 1e-13 * max|M|
    for extra in ([1e300, -1e300], [1e-300, 1e-300]):
        with pytest.raises(SingularSystem) as info:
            fs.solve_dense(m, [1.0, 1.0], extra)
        assert info.value.pivot_index == 1
    m = [[1.0, 1.0], [1.0, 1.0 + 2e-13]]  # a huge right-hand side does not raise the floor
    x, huge = fs.solve_dense(m, [1.0, 2.0], [1e200, -1e200])
    assert x == fs.solve_dense(m, [1.0, 2.0]) and huge == fs.solve_dense(m, [1e200, -1e200])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_dense_rejects_a_nonfinite_extra_right_hand_side(bad):
    with pytest.raises(ValueError):
        fs.solve_dense(np.eye(3), [1.0, 1.0, 1.0], np.array([1.0, 1.0, bad]))


def test_solve_dense_rejects_an_extra_right_hand_side_of_the_wrong_size():
    for extra in ([1.0], [1.0, 1.0, 1.0], [[1.0], [1.0]], np.ones((2, 1)), 1.0):
        with pytest.raises(DimensionMismatch):
            fs.solve_dense(np.eye(2), [1.0, 1.0], extra)
    with pytest.raises(DimensionMismatch):
        fs.solve_dense(np.eye(2), [1.0, 1.0], [1.0, 1.0], [1.0])


def _solution_or_pivot(fn, *args):
    """("ok", the bits of each solution) or ("singular", SingularSystem's pivot index)."""
    try:
        solutions = fn(*args)
    except SingularSystem as exc:
        return "singular", exc.pivot_index
    return "ok", [float_bits(x) for x in solutions]


def _fma_calls(module, fn, *args) -> tuple:
    """(`_solution_or_pivot(fn, *args)`, the (a, b, c) of each `_fma` call
    it made through `module`, in order)."""
    calls, fma = [], module._fma
    module._fma = lambda *abc: calls.append(abc) or fma(*abc)
    try:
        return _solution_or_pivot(fn, *args), calls
    finally:
        module._fma = fma


def _fma_path(a: float, b: float, c: float) -> str:
    """Which path of `linalg._fma` the call _fma(a, b, c) takes."""
    if 1e-280 < abs(a * b) < 1e280 and abs(a) < 1e290 and abs(b) < 1e290:
        return "Dekker"
    return "zero operand" if c and not (a and b) else "Fraction"


def _eliminate_matches_the_loop(m, *bs) -> tuple:
    """`eliminate` on the system M x = b for each b in `bs`, as augmented
    rows with max|M|, against the loop it replaced
    (`helpers.reference_eliminate`, on a copy of the rows) and against
    `solve_dense` on M and the right-hand sides. Asserts that all three
    give the same solution bits or SingularSystem pivot, that `eliminate`
    and the loop make the same `_fma` calls in the same order, and that
    `eliminate` leaves the rows unchanged. Returns the outcome and the
    `_fma` calls."""
    rows = [[*row, *b] for row, b in zip(m, zip(*bs))]
    before = [float_bits(row) for row in rows]
    max_abs = max(map(abs, [x for row in m for x in row]))
    got, calls = _fma_calls(linalg, linalg.eliminate, rows, max_abs)
    assert [float_bits(row) for row in rows] == before
    want, want_calls = _fma_calls(helpers, reference_eliminate, [row[:] for row in rows], max_abs)
    assert got == want and [*map(float_bits, calls)] == [*map(float_bits, want_calls)]
    assert _solution_or_pivot(lambda: fs.solve_dense(m, *bs) if len(bs) > 1 else [fs.solve_dense(m, bs[0])]) == got
    return got, calls


@pytest.mark.parametrize("kind", ["normal", "small integers", "signed zeros", "fma paths"])
def test_eliminate_matches_solve_dense_bit_for_bit(kind):
    # Seeded systems of n = 1..10, with one, two and three right-hand
    # sides: normal entries; small integers, so pivot candidates tie and
    # systems are exactly singular; normal entries with many 0.0 and -0.0;
    # and upper-triangular systems, rows shuffled, with zeros above the
    # diagonal and right-hand sides scaled to 1e-300..1e295, whose back
    # substitutions reach each path of `_fma`: Dekker's product, a zero
    # operand and the exact Fraction beyond 1e+-280.
    rng = np.random.default_rng(28)
    seen, paths = set(), set()
    for i in range(1200):
        n, width = 1 + i % 10, 1 + i % 10 + 1 + i // 10 % 3
        if kind == "small integers":
            a = rng.integers(-2, 3, size=(n, width)).astype(float)
        elif kind == "fma paths":
            a = np.triu(rng.standard_normal((n, width)))
            a[rng.random((n, width)) < 0.3] = 0.0
            a[range(n), range(n)] = rng.choice([-1.0, 1.0], n) * (1.0 + rng.random(n))
            a[:, n:] *= rng.choice([1e-300, 1e-290, 1.0, 1e285, 1e295])
            a = a[rng.permutation(n)]
        else:
            a = rng.standard_normal((n, width))
            if kind == "signed zeros":
                a[rng.random((n, width)) < 0.4] = -0.0
                a[rng.random((n, width)) < 0.2] = 0.0
        m, bs = a[:, :n].tolist(), a[:, n:].T.tolist()
        got, calls = _eliminate_matches_the_loop(m, *bs)
        if len(bs) > 1:
            alone = _eliminate_matches_the_loop(m, bs[0])[0]
            assert alone == (got if got[0] == "singular" else (got[0], got[1][:1]))
        seen.add(got[0])
        paths.update(_fma_path(*abc) for abc in calls)
    assert seen == ({"ok"} if kind in ("normal", "fma paths") else {"ok", "singular"})
    if kind == "fma paths":
        assert paths == {"Dekker", "zero operand", "Fraction"}


def test_concurrent_first_calls_compile_one_kernel_per_shape(monkeypatch):
    # Eight threads, more than the CPUs, solve systems of 16 shapes n x
    # (n + m), n = 1..8, m = 1..2, from an empty kernel cache, each from
    # its own first shape on, while the interpreter switches threads every
    # microsecond. Every result is the loop's, bit for bit, the cache ends
    # with exactly one kernel per shape, compiled for it, and every call
    # ran that kernel: a thread whose compile lost a race uses the winner's.
    compile_kernel, compiled, ran = linalg._compile_kernel, [], []

    def counted_kernel(n, width):
        kernel = compile_kernel(n, width)
        compiled.append(((n, width), kernel))

        def run(a, max_abs):
            ran.append(((n, width), run))
            return kernel(a, max_abs)
        return run

    monkeypatch.setattr(linalg, "_kernels", {})
    monkeypatch.setattr(linalg, "_compile_kernel", counted_kernel)
    rng = np.random.default_rng(35)
    shapes = [(n, n + m) for n in range(1, 9) for m in (1, 2)]
    systems = [rng.standard_normal(shape).tolist() for shape in shapes]
    max_abs = [max(abs(x) for row in rows for x in row[:len(rows)]) for rows in systems]
    want = [_solution_or_pivot(reference_eliminate, [row[:] for row in rows], top)
            for rows, top in zip(systems, max_abs)]
    got, errors = [[None] * len(systems) for _ in range(8)], []

    def solver(t):
        try:
            for s in range(len(systems)):
                i = (s + 2 * t) % len(systems)
                got[t][i] = _solution_or_pivot(linalg.eliminate, systems[i], max_abs[i])
        except BaseException as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=solver, args=(t,), daemon=True) for t in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and got == [want] * 8
    assert sorted(linalg._kernels) == shapes
    assert len(ran) == 8 * len(shapes) and all(linalg._kernels[shape] is run for shape, run in ran)
    assert all(kernel.__code__.co_filename == f"<eliminate {n}x{width}>" for (n, width), kernel in compiled)


@pytest.mark.parametrize("m, b, want", [
    ([[2.0, 0.5], [-2.0, -1.0]], [-0.1, 0.4], "ok"),  # equal |pivot| candidates: the first row is the pivot
    ([[1.0, 0.0], [0.0, 1e-13]], [1.0, 1.0], ("singular", 1)),  # a pivot exactly at the floor 1e-13 * max|M|
    ([[4.0, 0.0], [0.0, 4e-13]], [1.0, 1.0], ("singular", 1)),
    ([[1.0, 0.0], [0.0, math.nextafter(1e-13, 1.0)]], [1.0, 1.0], "ok"),  # one ulp above it
    ([[-0.0, 1.0], [1.0, -0.0]], [-0.0, 0.0], "ok"),  # signed zeros in M and b
    ([[1.0, -0.0], [-0.0, -1.0]], [0.0, -0.0], "ok"),
    ([[-0.0]], [1.0], ("singular", 0)),
    ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]], [1.0, 1.0, 1.0], ("singular", 2)),
])
def test_eliminate_edge_cases_match_solve_dense(m, b, want):
    got = _eliminate_matches_the_loop(m, b)[0]
    assert (got[0] if want == "ok" else got) == want
    two = _eliminate_matches_the_loop(m, b, [1.0] * len(b))[0]
    assert (two if got[0] == "singular" else (two[0], two[1][:1])) == got
