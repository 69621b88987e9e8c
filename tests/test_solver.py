import gc
import itertools
import math
import sys
import threading
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import fopsolve as fs
from fopsolve import linalg, moments, recurrences, solver
from fopsolve.cli import build_generator, random_sdd_matrix, ring_spectrum_fixture
from fopsolve.errors import (BootstrapBreakdown, BreakdownError, DimensionMismatch, KrylovOverflow, NumericOverflow,
                             RestartsExhausted)
from fopsolve.solver import (
    STATUS_BREAKDOWN_EXHAUSTED,
    STATUS_CONVERGED,
    SolverState,
    _draw_left_seed,
)

from helpers import (
    assert_same_coefficient_path,
    bootstrap_x_reference,
    d3b_fixture,
    float_bits,
    iterate,
    outcome,
    poly_matrix_apply,
    reference_a13,
    reference_b13,
    reference_scalar_products,
    reference_solve_dense,
    within,
)


class CountingMatrix:
    """Delegating wrapper that counts matvec and transpose-matvec calls."""

    def __init__(self, inner):
        self.inner = inner
        self.n_matvec = 0
        self.n_rmatvec = 0

    def matvec(self, v):
        self.n_matvec += 1
        return self.inner.matvec(v)

    def rmatvec(self, v):
        self.n_rmatvec += 1
        return self.inner.rmatvec(v)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def drive_steps(A, b, y, tol=1e-8, n_steps=4):
    """Bootstrap then advance n_steps, snapshotting k and the newest r, z
    and x (of degree k - 1) after each step (the step advances one state in
    place, and later steps take over its slots but write no iterate)."""
    state = fs.bootstrap(A, b, np.zeros(A.rows), y, tol=tol)
    snapshots = []
    for _ in range(n_steps):
        fs.step(state, A)
        r_km1, x_km1, z_km1 = iterate(state, state.k - 1)
        snapshots.append(SimpleNamespace(k=state.k, r_km1=r_km1, z_km1=z_km1, x_km1=x_km1))
    return snapshots


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------

def test_bootstrap_identity_converges_at_one():
    A = fs.Matrix.identity(5)
    b = np.arange(1.0, 6.0)
    state = fs.bootstrap(A, b, np.zeros(5), np.ones(5))
    assert state.converged
    assert max(k for k, _, _ in state.history) == 1
    assert np.allclose(state.best_x, b, atol=1e-12)


def test_bootstrap_d2_converges_at_two():
    A = fs.Matrix.diagonal([1.0, 2.0])
    state = fs.bootstrap(A, [1.0, 2.0], np.zeros(2), np.array([0.7, 0.3]))
    assert state.converged
    assert max(k for k, _, _ in state.history) <= 2
    assert np.allclose(state.best_x, [1.0, 1.0], atol=1e-10)


def test_bootstrap_tridiag30_partial_progress_and_consistency():
    A = fs.Matrix.tridiagonal(30)
    b = fs.matvec(A, np.ones(30))
    y = b.copy()
    state = fs.bootstrap(A, b, np.zeros(30), y, tol=1e-8)
    assert not state.converged
    norms = {k: rn for k, rn, _ in state.history}
    assert 0.0 < norms[4] < norms[0]
    # both residual definitions agree at the bootstrap iterates
    for r_j, x_j, _ in (iterate(state, 4), iterate(state, 3)):
        direct = b - fs.matvec(A, x_j)
        assert np.linalg.norm(direct - r_j) <= 1e-10 * np.linalg.norm(b)
    # left window: unit vectors with A^T v_j = beta_j v_{j-1} + alpha_j v_j + gamma_j v_{j+1}
    v, columns = state.u_window[[(state.k - 5 + t) % 7 for t in range(7)]], state.u_columns  # in degree order
    assert len(columns) == 6
    for j in range(1, 6):
        beta, alpha, gamma = columns[j]
        assert np.allclose(fs.transpose_matvec(A, v[j]), beta * v[j - 1] + alpha * v[j] + gamma * v[j + 1],
                           rtol=1e-14)
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0, rtol=1e-14)


def test_bootstrap_breakdown_on_deficient_left_seed():
    A = fs.Matrix.diagonal([1.0, 2.0, 3.0, 4.0])
    b = np.ones(4)
    y = np.array([2.0, -1.0, 0.0, 0.0])  # orthogonal to A r0, not to r0
    assert abs(float(y @ fs.matvec(A, b))) == 0.0
    with pytest.raises(BootstrapBreakdown) as info:
        fs.bootstrap(A, b, np.zeros(4), y)
    assert info.value.degree == 1


def _best_degree(state) -> int:
    """The bootstrap degree of least residual norm, the first of equals."""
    norms = [rn for _, rn, _ in state.history]
    return norms.index(min(norms))


def _count_kernel_calls(monkeypatch, *names) -> list:
    """Patch the `solver` kernels `names` to record each call by name;
    returns the record."""
    calls = []

    def counted(name, kernel):
        def kernel_call(*args):
            calls.append(name)
            kernel(*args)
        return kernel_call

    for name in names:
        monkeypatch.setattr(solver, name, counted(name, getattr(solver, name)))
    return calls


@pytest.mark.parametrize("n, seed, best", [(6, 1, 0), (8, 0, 0), (6, 11, 1), (12, 11, 2), (12, 5, 3), (8, 4, 3),
                                           (12, 0, 4), (6, 2, 4)])
def test_bootstrap_hands_on_the_bits_of_every_degrees_x(monkeypatch, n, seed, best):
    # The bootstrap forms x_4, x_3 and, when it is older, the best x_j, and
    # no other, after its degree loop; each has the bits of x_j formed at
    # its degree.
    A, r0, y = ring_spectrum_fixture(n, seed)
    x0 = np.zeros(n)
    want = bootstrap_x_reference(A, r0, x0, y)
    calls = _count_kernel_calls(monkeypatch, "_degree_x")
    state = fs.bootstrap(A, r0, x0, y)
    assert (state.k, state.converged, _best_degree(state)) == (5, False, best)
    assert len(calls) == 2 + (best in (1, 2))
    assert [iterate(state, j)[1].tobytes() for j in (3, 4)] == [want[3].tobytes(), want[4].tobytes()]
    if best:
        assert state.best_x.tobytes() == want[best].tobytes()
        assert (state.best_x is iterate(state, best)[1]) == (best >= 3)
    else:
        assert state.best_x is x0


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_a_converging_bootstrap_hands_on_the_bits_of_its_last_x(monkeypatch, degree):
    # `degree` distinct eigenvalues: r_degree vanishes, and x_degree, the
    # best iterate, is the only x formed.
    rng = np.random.default_rng(degree)
    A = fs.Matrix.diagonal(np.repeat(np.arange(1.0, degree + 1.0), 3))
    b, y, x0 = rng.standard_normal(A.rows), rng.standard_normal(A.rows), np.zeros(A.rows)
    want = bootstrap_x_reference(A, b, x0, y)
    calls = _count_kernel_calls(monkeypatch, "_degree_x")
    state = fs.bootstrap(A, b, x0, y)
    assert (state.k, state.converged, _best_degree(state)) == (degree + 1, True, degree)
    assert state.best_x.tobytes() == want[degree].tobytes()
    assert len(calls) == 1 and state.x is None


def test_a_bootstrap_breakdown_forms_no_x(monkeypatch):
    # y = e_1 is an eigenvector of A^T, so v_1 = 0 and the degree-2 system
    # is singular, after degree 1 has formed r_1.
    A = fs.Matrix.diagonal([1.0, 2.0, 3.0, 4.0])
    calls = _count_kernel_calls(monkeypatch, "_degree_vectors", "_degree_x")
    with pytest.raises(BootstrapBreakdown) as info:
        fs.bootstrap(A, np.ones(4), np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0]))
    assert info.value.degree == 2
    assert calls == ["_degree_vectors"]


def test_an_overflowing_bootstrap_residual_is_not_a_krylov_overflow(monkeypatch):
    # An r_j past the double range ends the bootstrap with NumericOverflow,
    # which another left seed may avoid, so solve spends its whole restart
    # budget on it (a KrylovOverflow would end the run at the first
    # restart) and reports it without raising.
    A = fs.Matrix.tridiagonal(30)
    b = fs.matvec(A, np.ones(30))
    degree_vectors = solver._degree_vectors

    def overflowing_degree_vectors(r, *rest):
        degree_vectors(r, *rest)
        r[-1] = np.inf

    monkeypatch.setattr(solver, "_degree_vectors", overflowing_degree_vectors)
    with pytest.raises(NumericOverflow, match="bootstrap residual overflowed") as info:
        fs.bootstrap(A, b, np.zeros(30), b.copy())
    assert not isinstance(info.value, KrylovOverflow)
    x, report = fs.solve(A, b)
    assert report.status == STATUS_BREAKDOWN_EXHAUSTED
    assert report.restart_causes == ("Overflow",) * fs.SolverConfig().max_restarts
    assert np.array_equal(x, np.zeros(30))


@pytest.mark.parametrize("seed", range(6))
def test_an_overflowing_bootstrap_gram_product_is_not_a_krylov_overflow(seed):
    # Every A^i r0 is finite, but the bootstrap's products of them with the
    # left window overflow. They depend on y, so the bootstrap raises
    # NumericOverflow, which solve answers with a new seed until its budget
    # runs out; solve itself raises nothing.
    A = fs.Matrix.from_dense([[0.0, 0.0, 1.5e308], [0.0, 0.0, 1.5e308], [0.0, 0.0, 0.0]])
    b = np.array([0.0, 0.0, 1.0])
    assert np.isfinite(moments.krylov_vectors(A, b, 2 * solver.BOOTSTRAP_DEGREE + 1)).all()
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericOverflow, match="Gram") as info:
        fs.bootstrap(A, b, np.zeros(3), np.ones(3))
    assert not isinstance(info.value, KrylovOverflow)
    x, report = fs.solve(A, b, config=fs.SolverConfig(seed=seed))
    assert report.status == STATUS_BREAKDOWN_EXHAUSTED
    assert report.restart_causes == ("Overflow",) * fs.SolverConfig().max_restarts
    assert np.array_equal(x, np.zeros(3))


def test_extend_left_scales_a_norm_whose_square_overflows():
    # ||w|| = 1e200 is representable though w . w is not: gamma takes the
    # norm of w / max|w| times max|w|, so v_1 is a unit vector, not zero.
    out = np.empty(2)
    with np.errstate(over="ignore"):  # w . w overflows, as it may under solve's settings
        got = solver._extend_left(fs.Matrix.from_dense([[0, 1e200], [1e200, 0]]), None, np.array([1.0, 0.0]), out)
    assert got == (0.0, 0.0, 1e200)
    assert out.tolist() == [0.0, 1.0]


def test_bootstrap_takes_norms_whose_squares_overflow():
    # With b = 2^664 * ones every product scales exactly, so ||b|| and every
    # ||r_j|| (about 1e200) are representable though their squares are not.
    # The convergence floor is then not inf, which made degree 0 converge,
    # and no ||r_j|| reads as overflowed: each is 2^664 times the unit one.
    A, y = fs.Matrix.tridiagonal(12), np.random.default_rng(0).standard_normal(12)
    unit = fs.bootstrap(A, np.ones(12), np.zeros(12), y)
    with np.errstate(over="ignore"):  # r . r overflows, as it may under solve's settings
        big = fs.bootstrap(A, np.full(12, 2.0 ** 664), np.zeros(12), y)
    assert not big.converged and big.k == unit.k == solver.BOOTSTRAP_DEGREE + 1
    assert big.history == [(k, math.ldexp(rn, 664), event) for k, rn, event in unit.history]
    assert all(np.ldexp(u, 664).tobytes() == v.tobytes() for u, v in zip(unit.r + unit.x, big.r + big.x))


@pytest.mark.parametrize("e", [600, -600])
def test_bootstrap_left_vectors_do_not_depend_on_the_scale_of_y(e):
    # v_0 = y / ||y||. With max|y| = 1, at 2^600 y . y overflows and at
    # 2^-600 it underflows to 0; ||2^e y|| is then max|2^e y| times the norm
    # of 2^e y / max|2^e y| = y, exactly 2^e ||y||, so v_0 and everything
    # after it (window, columns, history, iterates) keep their bits.
    A, b = fs.Matrix.tridiagonal(12), np.ones(12)
    y = np.random.default_rng(6).uniform(-1.0, 1.0, 12)
    y[3] = -1.0
    want = _bootstrap_record(A, b, y)
    with np.errstate(over="ignore"):  # y . y overflows at 2^600, as it may under solve's settings
        assert _bootstrap_record(A, b, np.ldexp(y, e)) == want


# ---------------------------------------------------------------------------
# step
# ---------------------------------------------------------------------------

def test_step_matches_oracle_on_d3b():
    A, ones, c = d3b_fixture()
    state = fs.bootstrap(A, ones, np.zeros(8), ones, tol=1e-12)
    state = fs.step(state, A)
    r5 = poly_matrix_apply(fs.oracle_p(c, 5), A, ones)
    z5 = poly_matrix_apply(fs.oracle_p1(c, 5), A, ones)
    scale = np.linalg.norm(ones)
    r_5, x_5, z_5 = iterate(state, 5)
    assert np.linalg.norm(r_5 - r5) <= 1e-8 * scale
    assert np.linalg.norm(z_5 - z5) <= 1e-8 * scale
    assert np.linalg.norm((ones - fs.matvec(A, x_5)) - r_5) <= 1e-8 * np.linalg.norm(ones)


def test_step_oracle_equivalence_deep_degrees():
    for seed in range(3):
        A, r0, y = ring_spectrum_fixture(12, seed)
        c = fs.compute_moments(A, r0, y, 18)
        scale = np.linalg.norm(r0)
        for state in drive_steps(A, r0, y, tol=1e-14):
            k = state.k - 1
            rk = poly_matrix_apply(fs.oracle_p(c, k), A, r0)
            zk = poly_matrix_apply(fs.oracle_p1(c, k), A, r0)
            assert np.linalg.norm(state.r_km1 - rk) <= 1e-8 * scale
            assert np.linalg.norm(state.z_km1 - zk) <= 1e-8 * scale


def test_step_left_orthogonality():
    for seed in range(3):
        A, r0, y = ring_spectrum_fixture(12, seed)
        us = [y.copy()]
        for _ in range(8):
            us.append(fs.transpose_matvec(A, us[-1]))
        for state in drive_steps(A, r0, y, tol=1e-14):
            k = state.k - 1
            r_k = state.r_km1
            worst = max(
                abs(float(us[i] @ r_k)) / (np.linalg.norm(us[i]) * np.linalg.norm(r_k))
                for i in range(k)
            )
            assert worst <= 1e-6


def test_step_residual_consistency_every_step():
    A, r0, y = ring_spectrum_fixture(12, 0)
    bn = np.linalg.norm(r0)
    for state in drive_steps(A, r0, y, tol=1e-14):
        direct = r0 - fs.matvec(A, state.x_km1)
        assert np.linalg.norm(direct - state.r_km1) <= 1e-6 * bn


def test_step_records_numpys_residual_norm():
    A, r0, y = ring_spectrum_fixture(12, 0)
    state = fs.bootstrap(A, r0, np.zeros(12), y, tol=1e-14)
    for _ in range(4):
        fs.step(state, A)
        assert state.history[-1][1] == float(np.linalg.norm(iterate(state, state.k - 1)[0]))


def test_step_matvec_budget():
    A, r0, y = ring_spectrum_fixture(12, 1)
    state = fs.bootstrap(A, r0, np.zeros(12), y, tol=1e-14)
    counter = CountingMatrix(A)
    fs.step(state, counter)
    assert counter.n_matvec == 6
    assert counter.n_rmatvec == 1


def test_step_history_append_only():
    A, r0, y = ring_spectrum_fixture(12, 2)
    state = fs.bootstrap(A, r0, np.zeros(12), y, tol=1e-14)
    before = list(state.history)
    after = fs.step(state, A)
    assert after is state
    assert after.history[:len(before)] == before
    assert after.history[-1][2] == "step"


def _live_slots(state):
    """The vectors a step at degree state.k reads or keeps: r and x of
    degrees k - 1 and k - 2, z of degrees k - 1, k - 2 and k - 3."""
    k = state.k
    return [state.r[(k - 1) % 2], state.r[(k - 2) % 2], state.x[(k - 1) % 2], state.x[(k - 2) % 2],
            state.z[(k - 1) % 3], state.z[(k - 2) % 3], state.z[(k - 3) % 3]]


def _step_to(A, r0, y, k):
    state = fs.bootstrap(A, r0, np.zeros(A.rows), y, tol=1e-14)
    while state.k < k:
        fs.step(state, A)
    return state


def _overwriting(kernel, written, value, rows=-1):
    """`kernel`, then `value` in the rows `rows` (the last by default) of
    its argument `written`."""
    def overwriting_kernel(*args):
        kernel(*args)
        args[written][rows] = value
    return overwriting_kernel


def test_failed_step_leaves_state_untouched(monkeypatch):
    # A breakdown, before any product, then an overflowing iterate from each
    # stage of the step: x_k, written over A r_{k-2}, and z_k, over
    # A z_{k-3}, with an inf or a NaN entry, and z_k with every entry 1e308,
    # finite, but with a 2-norm past the double range. Overflow is read
    # after both stages, so the step has made its six products with A, and
    # stops before the one with A^T.
    A, r0, y = ring_spectrum_fixture(12, 2)
    for module, name, value, error, products in (
            (recurrences, "BREAKDOWN_EPS", 0.5, BreakdownError, (0, 0)),
            *[(solver, kernel.__name__, _overwriting(kernel, written, bad), NumericOverflow, (6, 0))
              for kernel, written in ((solver._advance_rx, 3), (solver._advance_z, 2)) for bad in (np.inf, np.nan)],
            (solver, "_advance_z", _overwriting(solver._advance_z, 2, 1e308, slice(None)), NumericOverflow, (6, 0))):
        state = _step_to(A, r0, y, 9)
        live = _live_slots(state)
        before = [v.copy() for v in live]
        best_x, best_bits = state.best_x, state.best_x.tobytes()
        u_before = [u.copy() for u in state.u_window]
        z3_products, z3_bits = state.z3_products, float_bits(state.z3_products)
        columns, column_bits = state.u_columns, [float_bits(c) for c in state.u_columns]
        k, history, iterations = state.k, list(state.history), state.iterations
        counter = CountingMatrix(A)
        with monkeypatch.context() as patch, np.errstate(over="ignore"):  # z_k . z_k overflows at 1e308
            patch.setattr(module, name, value)
            with pytest.raises(error):
                fs.step(state, counter)
        assert (counter.n_matvec, counter.n_rmatvec) == products
        assert (state.k, state.history, state.iterations) == (k, history, iterations)
        assert all(a is b for a, b in zip(_live_slots(state), live))
        assert all(np.array_equal(v, w) for v, w in zip(live, before))
        assert state.best_x is best_x and best_x.tobytes() == best_bits
        assert len(state.u_window) == len(u_before)
        assert all(np.array_equal(u, v) for u, v in zip(state.u_window, u_before))
        assert state.z3_products is z3_products and float_bits(z3_products) == z3_bits
        assert state.u_columns is columns and [float_bits(c) for c in columns] == column_bits


def _scaled(kernel, *written):
    """`kernel`, then its arguments `written` scaled in place by 2^600."""
    def scaling_kernel(*args):
        kernel(*args)
        for i in written:
            np.ldexp(args[i], 600, out=args[i])
    return scaling_kernel


def test_a_step_takes_iterates_whose_squares_overflow(monkeypatch):
    # r_k, x_k and z_k scaled by 2^600 are finite, and so are their 2-norms,
    # though their squares are not: the step is no overflow and records
    # degree k, ||r_k|| 2^600 times that of the unscaled step.
    A, r0, y = ring_spectrum_fixture(12, 2)
    state = _step_to(A, r0, y, 9)
    want = fs.step(_step_to(A, r0, y, 9), A).history[-1][1]
    monkeypatch.setattr(solver, "_advance_rx", _scaled(solver._advance_rx, 3, 4))
    monkeypatch.setattr(solver, "_advance_z", _scaled(solver._advance_z, 2))
    with np.errstate(over="ignore"):  # v . v overflows, as it may under solve's settings
        fs.step(state, A)
        _, x_k, z_k = iterate(state, 9)
        squares = float(x_k.dot(x_k)), float(z_k.dot(z_k))
    k, rn, event = state.history[-1]
    assert (state.k, k, event) == (10, 9, "step")
    assert rn == pytest.approx(math.ldexp(want, 600), rel=1e-14)
    assert np.isfinite(x_k).all() and np.isfinite(z_k).all() and squares == (math.inf, math.inf)


def test_a_step_writes_no_array_the_state_held():
    # At degree 11 of this fixture best_x is x_8, which no slot holds, and
    # x_11 does not improve on it. The step writes only its own products
    # and the window row of v_{k-4}.
    A, r0, y = ring_spectrum_fixture(40, 3)
    state = _step_to(A, r0, y, 9)
    x_8 = iterate(state, 8)[1]
    while state.k < 11:
        fs.step(state, A)
    assert state.best_x is x_8 and not any(x is x_8 for x in state.x)
    best_resnorm = state.best_resnorm
    held = [*state.r, *state.x, *state.z, state.best_x]
    bits = [v.tobytes() for v in held]
    z3_products, z3_bits = state.z3_products, float_bits(state.z3_products)
    fs.step(state, A)
    assert state.history[-1][1] > best_resnorm
    assert state.best_x is x_8
    assert [v.tobytes() for v in held] == bits
    assert float_bits(z3_products) == z3_bits


def _count_parallel_map_calls(monkeypatch) -> list:
    """Patch `linalg.parallel_map` to record how many calls each use of it
    makes; returns the record."""
    calls, parallel_map = [], linalg.parallel_map

    def counted(fn, vectors):
        calls.append(len(vectors))
        return parallel_map(fn, vectors)

    monkeypatch.setattr(linalg, "parallel_map", counted)
    return calls


def _fresh_z3_products(state) -> list:
    """The window's products of v_{k-4}..v_{k+1} with z_{k-3}, taken afresh
    and put in degree order."""
    return np.roll(state.u_window.dot(state.z[(state.k - 3) % 3]), 5 - state.k).tolist()[:6]


def test_a_step_keeps_its_window_products_for_the_next(monkeypatch):
    # A bootstrap or a restart hands over the bits of a fresh product of the
    # window with z_2, so every step, the first after either included,
    # takes two window gemvs. The products a step keeps are the bits of
    # fresh ones: the next step's z_{k-3} against its v_{k-4}..v_{k+1},
    # rows that stayed in place.
    A, r0, y = ring_spectrum_fixture(40, 3)
    calls = _count_parallel_map_calls(monkeypatch)
    state = fs.bootstrap(A, r0, np.zeros(A.rows), y, tol=1e-14)
    for steps in (4, 2):
        assert state.k == 5 and float_bits(state.z3_products) == float_bits(_fresh_z3_products(state))
        for _ in range(steps):
            fs.step(state, A)
            assert float_bits(state.z3_products) == float_bits(_fresh_z3_products(state))
        if steps == 4:
            state = fs.restart(state, A, r0, fs.SolverConfig(tol=1e-14), cause="Ghost", rng=np.random.default_rng(0))
    assert calls == [5, 2, 2, 2, 2, 5, 2, 2]  # each bootstrap's Gram: one call per Krylov vector


def test_a_step_hands_the_assembly_degree_ordered_floats_at_every_head(monkeypatch):
    # Nine steps put v_{k-4} in each of the window's seven rows at least
    # once (v_j sits in row (j - 1) % 7). Each step hands
    # `assemble_scalar_products` Python floats: the bits of the window's
    # fresh products with r_{k-2}, z_{k-3} and z_{k-2}, and the columns the
    # left recurrence gave, all of v_{k-4} on in degree order.
    A, r0, y = ring_spectrum_fixture(40, 3)
    columns, extend_left = [], solver._extend_left  # the column of v_j at index j
    handed, assemble = [], recurrences.assemble_scalar_products

    def recorded_extend_left(*args):
        columns.append(extend_left(*args))
        return columns[-1]

    def recorded_assemble(*args):
        handed.append(args)
        return assemble(*args)

    monkeypatch.setattr(solver, "_extend_left", recorded_extend_left)
    monkeypatch.setattr(recurrences, "assemble_scalar_products", recorded_assemble)
    state = fs.bootstrap(A, r0, np.zeros(A.rows), y, tol=1e-14)
    heads = set()
    for k in range(5, 14):
        assert state.k == k and len(columns) == k + 2  # v_0..v_{k+1}
        rows = [(j - 1) % 7 for j in range(k - 4, k + 3)]  # of v_{k-4}..v_{k+2}
        fresh = [state.u_window.dot(iterate(state, j)[slot])[rows].tolist() for j, slot in ((k - 2, 0), (k - 3, 2),
                                                                                             (k - 2, 2))]
        fs.step(state, A)
        r_products, z3_products, z2_products, step_columns = handed[-1]
        assert all(type(v) is float for v in (*r_products, *z3_products, *z2_products, *sum(step_columns, ())))
        assert float_bits(r_products) == float_bits(fresh[0])
        assert float_bits(z3_products) == float_bits(fresh[1][:6])
        assert float_bits(z2_products) == float_bits(fresh[2])
        assert [float_bits(c) for c in step_columns] == [float_bits(c) for c in columns[k - 4:k + 2]]
        heads.add(rows[0])
    assert len(handed) == 9 and heads == set(range(7))


# ---------------------------------------------------------------------------
# restart
# ---------------------------------------------------------------------------

def test_restart_recovers_from_failed_bootstrap():
    A = fs.Matrix.diagonal([1.0, 2.0, 3.0, 4.0])
    b = np.ones(4)
    bad_y = np.array([2.0, -1.0, 0.0, 0.0])
    with pytest.raises(BootstrapBreakdown):
        fs.bootstrap(A, b, np.zeros(4), bad_y)
    seed_state = SolverState(
        k=0, best_x=np.zeros(4), best_resnorm=float(np.linalg.norm(b)),
        history=[(0, float(np.linalg.norm(b)), "bootstrap")],
    )
    rng = np.random.default_rng(123)
    out = fs.restart(seed_state, A, b, fs.SolverConfig(), cause="True", rng=rng)
    assert out.restarts == 1
    assert out.restart_causes == ["True"]
    assert any(ev.startswith("restart:") for _, _, ev in out.history)
    assert out.history[0] == seed_state.history[0]


def test_restart_budget_exhaustion():
    A = fs.Matrix.identity(3)
    b = np.ones(3)
    state = SolverState(k=5, best_x=np.zeros(3), best_resnorm=1.0, restart_causes=["True", "Ghost"])
    with pytest.raises(RestartsExhausted):
        fs.restart(state, A, b, fs.SolverConfig(max_restarts=2), cause="Ghost", rng=np.random.default_rng(0))
    assert state.restarts == 2
    assert state.history == [(5, 1.0, "exhausted:Ghost")]


def test_restart_keeps_the_older_best_iterate():
    A = fs.Matrix.tridiagonal(30)
    b = np.ones(30)
    best_x = np.zeros(30)
    state = SolverState(k=12, best_x=best_x, best_resnorm=1e-6)
    out = fs.restart(state, A, b, fs.SolverConfig(), cause="Ghost", rng=np.random.default_rng(0))
    assert out is not state and out.restart_causes == ["Ghost"]
    assert out.best_x is best_x and out.best_resnorm == 1e-6


def test_left_seed_of_a_zero_residual_is_the_first_draw():
    A = fs.Matrix.tridiagonal(6)
    x = np.arange(1.0, 7.0)
    b = fs.matvec(A, x)
    y = _draw_left_seed(np.random.default_rng(4), A, b, x)
    assert y.tobytes() == np.random.default_rng(4).standard_normal(6).tobytes()


def test_left_seed_rejection_rule():
    A = fs.Matrix.diagonal([1.0, 1.0])
    b = np.array([1.0, 0.0])

    class FixedRng:
        def __init__(self, draws):
            self.draws = list(draws)

        def standard_normal(self, n):
            return np.array(self.draws.pop(0))

    # first draw orthogonal to r0 = b, second acceptable
    rng = FixedRng([[0.0, 1.0], [1.0, 1.0]])
    y = _draw_left_seed(rng, A, b, np.zeros(2))
    assert np.array_equal(y, [1.0, 1.0])


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_one_by_one():
    x, report = fs.solve(fs.Matrix.diagonal([2.0]), [4.0])
    assert report.status == STATUS_CONVERGED
    assert np.allclose(x, [2.0])


def test_solve_identity():
    A = fs.Matrix.identity(6)
    b = np.arange(1.0, 7.0)
    x, report = fs.solve(A, b)
    assert report.status == STATUS_CONVERGED
    assert report.iterations <= 1
    assert np.allclose(x, b, atol=1e-12)


def test_solve_d2():
    A = fs.Matrix.diagonal([1.0, 2.0])
    x, report = fs.solve(A, [1.0, 2.0])
    assert report.status == STATUS_CONVERGED
    assert max(k for k, _, ev in report.entries if ev in ("bootstrap", "step")) <= 2
    assert np.allclose(x, [1.0, 1.0], atol=1e-10)


def test_solve_tridiag20_against_dense():
    A = fs.Matrix.tridiagonal(20)
    b = fs.matvec(A, np.ones(20))
    x, report = fs.solve(A, b)
    assert report.status == STATUS_CONVERGED
    assert report.final_relative_residual <= 1e-8
    x_direct = np.linalg.solve(A.to_dense(), b)
    assert np.abs(x - x_direct).max() <= 1e-6


def test_solve_ring_fixture():
    A, r0, _ = ring_spectrum_fixture(12, 3)
    x, report = fs.solve(A, r0, config=fs.SolverConfig(tol=1e-10))
    assert report.status == STATUS_CONVERGED
    assert np.linalg.norm(r0 - fs.matvec(A, x)) <= 1e-10 * np.linalg.norm(r0) * 10


def test_solve_sdd6_terminates_by_dimension():
    A = random_sdd_matrix(6, 0)
    rng = np.random.default_rng(0)
    b = fs.matvec(A, rng.standard_normal(6))
    x, report = fs.solve(A, b, config=fs.SolverConfig(tol=1e-10, seed=0))
    assert report.status == STATUS_CONVERGED
    assert report.iterations <= 6
    assert report.final_relative_residual <= 1e-10


def test_solve_reports_failure_without_raising():
    # left seed deficiency on every restart is impossible, so force failure
    # with an iteration budget of one
    A = fs.Matrix.tridiagonal(12)
    b = np.ones(12)
    x, report = fs.solve(A, b, config=fs.SolverConfig(max_iter=1, max_restarts=0))
    assert report.status in ("MaxIterations", STATUS_BREAKDOWN_EXHAUSTED)
    assert report.final_relative_residual >= 0.0
    assert len(x) == 12


FAR_SCALES = [(1e200, "Overflow"), (1e-200, "True")]
OVERFLOWING_STARTS = [
    (fs.Matrix.from_dense(1e200 * fs.Matrix.tridiagonal(8).to_dense()), np.full(8, 1e200)),
    (fs.Matrix.diagonal([1e300] * 8), np.full(8, 1e300)),
]


@pytest.mark.parametrize("scale, cause", FAR_SCALES)
def test_exhausted_restart_budget_reports_every_bootstrap_tried(scale, cause):
    # A far from unit scale fails every bootstrap, the first one included:
    # its Krylov powers overflow, or underflow into a singular system. Each
    # restart counts, with the cause of the failure that led to it. Krylov
    # powers overflow whatever the left seed, so the first restart that
    # meets them is the last.
    A = fs.Matrix.from_dense(scale * fs.Matrix.tridiagonal(12).to_dense())
    cfg = fs.SolverConfig()
    with np.errstate(over="ignore", invalid="ignore"):
        x, report = fs.solve(A, np.ones(12), config=cfg)
    restarts = 1 if cause == "Overflow" else cfg.max_restarts
    assert report.status == STATUS_BREAKDOWN_EXHAUSTED
    assert report.restarts == restarts
    assert report.restart_causes == (cause,) * restarts
    assert [ev for _, _, ev in report.entries] == (["bootstrap"] + [f"restart:{cause}"] * restarts
                                                   + [f"exhausted:{cause}"])
    assert np.array_equal(x, np.zeros(12))


@pytest.mark.parametrize("A, x0", OVERFLOWING_STARTS, ids=["A-x0-nan", "A-x0-inf"])
def test_solve_reports_an_overflowing_initial_residual(A, x0):
    with np.errstate(over="ignore", invalid="ignore"):
        x, report = fs.solve(A, np.ones(8), x0=x0)
    assert report.status == STATUS_BREAKDOWN_EXHAUSTED
    assert report.restart_causes == ("Overflow",)
    assert report.restarts == 1  # the overflowing residual does not depend on the left seed
    assert np.array_equal(x, x0)


@pytest.mark.parametrize("A, b, x0", [
    *[(fs.Matrix.from_dense(scale * fs.Matrix.tridiagonal(12).to_dense()), np.ones(12), None)
      for scale, _ in FAR_SCALES],
    *[(A, np.ones(8), x0) for A, x0 in OVERFLOWING_STARTS],
], ids=["scale-1e200", "scale-1e-200", "A-x0-nan", "A-x0-inf"])
def test_solve_reports_numerical_failure_under_strict_float_settings(A, b, x0):
    # solve reads each failure off the values it computes, so numpy warnings
    # turned into errors and floating-point traps change neither x nor the report.
    want_x, want_report = fs.solve(A, b, x0=x0)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        x, report = fs.solve(A, b, x0=x0)
    assert report.status == STATUS_BREAKDOWN_EXHAUSTED
    assert x.tobytes() == want_x.tobytes()
    assert repr(report) == repr(want_report)


def _keyword_built_records(sp, ref) -> list:
    """(record, the same record built by keyword from the reference path's
    fields) of `sp` and of each coefficient record computed from it."""
    pairs = [(sp, recurrences.ScalarProducts(values=ref.values, columns=ref.columns,
                                             rows=tuple(map(tuple, ref.rows)), scale=ref.scale))]
    for fn, ref_fn, cls in ((fs.a13_coefficients, reference_a13, recurrences.A13Coeffs),
                            (fs.b13_coefficients, reference_b13, recurrences.B13Coeffs)):
        got, want = outcome(fn, sp), outcome(ref_fn, ref)
        if got[0] == "ok":
            pairs.append((got[1], cls(**dict(zip(cls._fields, want[1])))))
    return pairs


@pytest.mark.parametrize("problem", ["ring:40", "tridiag:30", "tridiag:100"])
def test_coefficient_path_matches_the_reference_along_seeded_solves(problem, monkeypatch):
    # Every step's functional values, rows and coefficients, and every
    # elimination (the bootstrap's systems and the coefficient systems, all
    # straight through eliminate), against the reference path. Each record
    # is of its class and equals, field by field and in repr, the one built
    # by keyword from the reference's fields.
    A = ring_spectrum_fixture(40, 3)[0] if problem == "ring:40" else build_generator(problem)[0]
    b = np.random.default_rng(8).standard_normal(A.rows)
    assemble, eliminate = recurrences.assemble_scalar_products, linalg.eliminate
    steps, solves = [], []

    def checked_assemble(r_products, z3_products, z2_products, columns):
        sp = assemble(r_products, z3_products, z2_products, columns)
        ref = reference_scalar_products(r_products, z3_products, z2_products, columns)
        steps.append(assert_same_coefficient_path(sp, ref))
        assert all(type(got) is type(want) and got == want and repr(got) == repr(want)
                   for got, want in _keyword_built_records(sp, ref))
        return sp

    def checked_eliminate(a, max_abs):
        n = len(a)
        M, rhs = [row[:n] for row in a], [row[n] for row in a]
        assert len(a[0]) == n + 1 and max_abs == max(map(abs, itertools.chain(*M)))
        got, want = outcome(eliminate, [row[:] for row in a], max_abs), outcome(reference_solve_dense, M, rhs)
        if got[0] == "ok":
            assert want[0] == "ok" and float_bits(got[1][0]) == float_bits(want[1])
        else:
            assert got == want
        solves.append(got[0])
        return eliminate(a, max_abs)

    monkeypatch.setattr(recurrences, "assemble_scalar_products", checked_assemble)
    monkeypatch.setattr(linalg, "eliminate", checked_eliminate)
    _, report = fs.solve(A, b)
    assert len(steps) >= sum(ev == "step" for _, _, ev in report.entries) > 10
    assert len(solves) > 2 * len(steps)


def test_solve_on_a_coordinate_matrix_without_stored_entries_is_the_dense_zero_solve():
    b = np.ones(3)
    x, report = fs.solve(fs.Matrix.from_triplets((3, 3), []), b)
    x_dense, report_dense = fs.solve(fs.Matrix.from_dense(np.zeros((3, 3))), b)
    assert x.tobytes() == x_dense.tobytes() and report == report_dense
    assert report.status == STATUS_BREAKDOWN_EXHAUSTED and report.restart_causes == ("True",) * 5


def test_solve_ends_on_an_exhausted_budget_after_a_failed_step():
    A = fs.Matrix.tridiagonal(50)
    b = fs.matvec(A, np.ones(50))
    x, report = fs.solve(A, b, config=fs.SolverConfig(max_restarts=0))
    assert report.status == STATUS_BREAKDOWN_EXHAUSTED
    assert report.iterations == 26 and report.restarts == 0 and report.restart_causes == ()
    (k, _, last_step), (k_end, rn_end, exhausted) = report.entries[-2:]
    assert last_step == "step" and exhausted.startswith("exhausted:")
    assert k_end == k + 1 and rn_end == min(rn for _, rn, _ in report.entries[:-1])
    assert np.isfinite(x).all()


@pytest.mark.parametrize("length", [15, 17])
def test_solve_rejects_an_x0_of_the_wrong_length(length):
    # solve checks x0 itself, before any product names the matrix instead
    with pytest.raises(DimensionMismatch, match=f"x0 of length 16 .* got length {length}$"):
        fs.solve(fs.Matrix.tridiagonal(16), np.ones(16), x0=np.ones(length))


def test_solve_converges_at_the_starting_iterate():
    A = fs.Matrix.tridiagonal(30)
    x0 = np.random.default_rng(2).standard_normal(30)
    b = fs.matvec(A, x0)
    x, report = fs.solve(A, b, x0=x0)
    assert report.status == STATUS_CONVERGED
    assert report.iterations == 0
    assert report.entries == ((0, 0.0, "bootstrap"),)
    assert np.array_equal(x, x0)


def test_solve_converged_report_invariant():
    A = fs.Matrix.tridiagonal(16)
    b = np.ones(16)
    cfg = fs.SolverConfig(tol=1e-8)
    x, report = fs.solve(A, b, config=cfg)
    assert report.status == STATUS_CONVERGED
    assert report.final_relative_residual <= cfg.tol
    ks = [k for k, _, ev in report.entries if ev in ("bootstrap", "step")]
    assert ks == sorted(ks)


def test_solve_iterations_count_bootstrap_and_step_entries_across_restarts():
    A = fs.Matrix.tridiagonal(50)
    b = fs.matvec(A, np.ones(50))
    _, report = fs.solve(A, b, config=fs.SolverConfig(seed=0))
    assert report.restarts > 0
    counted = sum(1 for k, _, ev in report.entries if k >= 1 and ev in ("bootstrap", "step"))
    assert report.iterations == counted


def test_solve_restarts_from_a_failed_first_bootstrap(monkeypatch):
    # The first start and every restart run the same start-up: a first
    # bootstrap that breaks down is answered by a restart from x0, whose
    # fresh state takes the run record over.
    calls, real = [], solver.bootstrap

    def first_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise BootstrapBreakdown(4)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "bootstrap", first_fails)
    A, b = fs.Matrix.tridiagonal(16), np.ones(16)
    x, report = fs.solve(A, b)
    bn = float(np.linalg.norm(b))
    assert report.restart_causes == ("True",)
    assert report.entries[:2] == ((0, bn, "bootstrap"), (0, bn, "restart:True"))
    assert report.iterations == sum(1 for k, _, ev in report.entries if k >= 1 and ev in ("bootstrap", "step"))
    assert report.status == STATUS_CONVERGED and report.final_relative_residual <= fs.SolverConfig().tol
    assert np.linalg.norm(b - fs.matvec(A, x)) <= 1e-7 * bn


def test_solve_is_exactly_scale_invariant_in_b():
    # Each case is (unit-scale b, e) with the solved b = unit * 2^e: b * 2^600,
    # b * 2^-600 and the constant vectors 1e300 and 1e-300, whose mantissas
    # m in [0.5, 1) give the unit-scale vectors m * ones.
    A = fs.Matrix.tridiagonal(16)
    b = np.random.default_rng(4).standard_normal(16)
    cases = [(b, 600), (b, -600)]
    for big in (1e300, 1e-300):
        m, e = math.frexp(big)
        cases.append((np.full(16, m), e))
    assert np.array_equal(np.ldexp(cases[2][0], cases[2][1]), np.full(16, 1e300))
    assert np.array_equal(np.ldexp(cases[3][0], cases[3][1]), np.full(16, 1e-300))
    for unit, e in cases:
        x_unit, report_unit = fs.solve(A, unit)
        assert report_unit.status == STATUS_CONVERGED
        x, report = fs.solve(A, np.ldexp(unit, e))
        assert np.array_equal(x, np.ldexp(x_unit, e))
        assert report.entries == tuple((k, math.ldexp(rn, e), ev) for k, rn, ev in report_unit.entries)
        assert report.final_relative_residual == report_unit.final_relative_residual
        assert report.status == report_unit.status


def _desk_and_restart_long_problems():
    """Ring fixtures n = 12..100 and tridiag:30/50 under the default config,
    and a long restarted tridiag:100 solve, each with a seeded random b."""
    rng = np.random.default_rng(11)
    problems = [(ring_spectrum_fixture(n, n)[0], fs.SolverConfig()) for n in range(12, 101, 4)]
    problems += [(fs.Matrix.tridiagonal(n), fs.SolverConfig()) for n in (30, 50)]
    problems.append((fs.Matrix.tridiagonal(100), fs.SolverConfig(tol=1e-10, max_iter=400, max_restarts=1000)))
    return [(A, rng.standard_normal(A.rows), config) for A, config in problems]


def _solve_records(problems):
    return [(x.tobytes(), repr(report)) for x, report in (fs.solve(A, b, config=cfg) for A, b, cfg in problems)]


def _step_with_fresh_z3_products(state, A, step=solver.step):
    """`solver.step` with `state.z3_products` taken afresh from the window,
    not kept by the bootstrap or the step before."""
    state.z3_products = _fresh_z3_products(state)
    return step(state, A)


def _fresh_window_records(monkeypatch, problems):
    """`_solve_records` of solves whose steps take every window product afresh."""
    with monkeypatch.context() as patch:
        patch.setattr(solver, "step", _step_with_fresh_z3_products)
        return _solve_records(problems)


def test_kept_window_products_give_the_bits_of_fresh_ones(monkeypatch):
    problems = _desk_and_restart_long_problems()
    assert _solve_records(problems) == _fresh_window_records(monkeypatch, problems)


@pytest.mark.parametrize("block", [7, 16])
def test_blocked_step_and_bootstrap_are_bit_identical(monkeypatch, block):
    # A tiny BLOCK drives the blocked products, step, projections and
    # bootstrap through many blocks and uneven last blocks. The blocks are
    # split into one run, one per core here and more runs than cores, with
    # the interpreter switching threads every microsecond: each run writes
    # only its own rows, and the helper pool grows to at most four threads
    # and then keeps them. The reference is whole-vector solves whose steps
    # take every window product fresh.
    problems = _desk_and_restart_long_problems()
    want = _fresh_window_records(monkeypatch, problems)
    assert sum(cfg.max_iter == 400 for _, _, cfg in problems) == 1
    assert "restart:" in want[-1][1]
    monkeypatch.setattr(linalg, "BLOCK", block)
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 2, 5):
            monkeypatch.setattr(linalg, "_usable_cpus", lambda: cpus)
            assert within(300, _solve_records, problems) == want
        pooled = threading.active_count()
        assert within(300, _solve_records, problems[:1]) == want[:1]
    finally:
        sys.setswitchinterval(interval)
    assert pooled - before <= 4
    assert threading.active_count() == pooled


def _bootstrap_record(A, r0, y):
    state = fs.bootstrap(A, r0, np.zeros(A.rows), y)
    vectors = [v for v in (*state.r, *state.x, *state.z) if v is not None]
    columns = [float_bits(c) for c in state.u_columns]
    return state.history, [v.tobytes() for v in (*vectors, state.u_window)], columns, float_bits(state.z3_products)


@pytest.mark.parametrize("cpus", [2, 5])
def test_side_by_side_bootstrap_gives_the_serial_grams_bits(monkeypatch, cpus):
    # Past BLOCK rows the 25 Gram products run one call per Krylov vector
    # on the helper pool; every vector and coefficient the Gram feeds keeps
    # the bits of the serial calls that shorter vectors make.
    fixtures = [ring_spectrum_fixture(n, n) for n in (12, 24, 40)]
    want = [_bootstrap_record(*fixture) for fixture in fixtures]
    calls = _count_parallel_map_calls(monkeypatch)
    monkeypatch.setattr(linalg, "BLOCK", 7)
    monkeypatch.setattr(linalg, "_usable_cpus", lambda: cpus)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert within(60, lambda: [_bootstrap_record(*fixture) for fixture in fixtures]) == want
    finally:
        sys.setswitchinterval(interval)
    assert calls == [5] * len(fixtures)


@pytest.mark.parametrize("cpus", [2, 5])
def test_side_by_side_steps_keep_the_bits_of_fresh_window_products(monkeypatch, cpus):
    # The two window gemvs of a step run side by side on the helper pool
    # past BLOCK rows, and match whole-vector solves whose steps take every
    # window product afresh. Three of `_desk_and_restart_long_problems`, few
    # enough for CI's pool stress step to run this test many times over.
    problems = _desk_and_restart_long_problems()
    problems = [problems[0], problems[7], problems[-3]]  # ring:12, ring:40, tridiag:30
    want = _fresh_window_records(monkeypatch, problems)
    monkeypatch.setattr(linalg, "BLOCK", 7)
    monkeypatch.setattr(linalg, "_usable_cpus", lambda: cpus)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert within(120, _solve_records, problems) == want
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("scale", [1e150, 1e200])
def test_split_solve_keeps_strict_float_settings_out_of_its_helper_threads(monkeypatch, scale):
    # The helper threads of the split products run under the caller's
    # np.errstate, so a solve whose Krylov vectors overflow in them reads
    # the failure off the values, as it does in one thread.
    monkeypatch.setattr(linalg, "BLOCK", 7)
    monkeypatch.setattr(linalg, "_usable_cpus", lambda: 3)
    bands = tuple(np.array(scale * coefficient) for coefficient in (2.0, -1.0, -1.0))
    for band in bands:
        band.setflags(write=False)
    A, b = fs.Matrix((50, 50), bands=bands), np.random.default_rng(12).standard_normal(50)
    want_x, want_report = fs.solve(A, b)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        x, report = fs.solve(A, b)
    assert report.status == STATUS_BREAKDOWN_EXHAUSTED
    assert x.tobytes() == want_x.tobytes()
    assert repr(report) == repr(want_report)


def test_solve_reports_a_residual_norm_past_the_double_range_as_inf():
    # x = b is representable, but ||b|| = sqrt(5) * 1e308 is not: the report
    # gives that norm as inf, and every other entry the bits of the unit-scale
    # solve times 2^e.
    unit, e = np.full(5, math.frexp(1e308)[0]), math.frexp(1e308)[1]
    b = np.ldexp(unit, e)
    assert np.array_equal(b, np.full(5, 1e308))
    x, report = fs.solve(fs.Matrix.identity(5), b)
    _, report_unit = fs.solve(fs.Matrix.identity(5), unit)
    assert report.status == STATUS_CONVERGED
    assert x.tobytes() == b.tobytes()
    (k0, rn0, ev0), *rest = report.entries
    assert (k0, ev0) == (0, "bootstrap") and type(rn0) is float and rn0 == math.inf
    assert rest and rest == [(k, math.ldexp(rn, e), ev) for k, rn, ev in report_unit.entries[1:]]
    assert report.final_relative_residual == report_unit.final_relative_residual


def test_solve_keeps_an_x0_that_scaling_by_b_would_overflow():
    # 1e10 / 1e-300 is past the double range, so x0 is scaled by its own
    # exponent instead of that of b: it stays finite, and so does x.
    x0 = np.full(12, 1e10)
    with np.errstate(over="ignore", invalid="ignore"):
        x, report = fs.solve(fs.Matrix.tridiagonal(12), np.full(12, 1e-300), x0=x0)
    assert report.status == STATUS_BREAKDOWN_EXHAUSTED
    assert x.tobytes() == x0.tobytes()
    assert not math.isnan(report.final_relative_residual)
    assert not any(math.isnan(rn) for _, rn, _ in report.entries)


def test_solve_reports_a_starting_residual_whose_square_overflows():
    # ||b - A x0|| = sqrt(2) * 1e200 (A x0 is 0 but at the two ends) is
    # representable, though its square is not: it is reported as it is,
    # and the left seed draw no longer takes it for an overflowed one.
    with np.errstate(over="ignore", invalid="ignore"):
        _, report = fs.solve(fs.Matrix.tridiagonal(12), np.ones(12), x0=np.full(12, 1e200))
    assert report.entries[0] == (0, pytest.approx(1.4142135623730951e200), "bootstrap")
    assert all(math.isfinite(rn) for _, rn, _ in report.entries)


def test_long_solve_peak_memory_is_bounded_in_vectors():
    # The sparse-1e6 benchmark's solve at n = 2^20, its peak counted in
    # vectors of length n under tracemalloc, to which numpy reports its
    # buffers. It measures 20.11, in a step: the window's seven rows, the
    # seven iterates r, x of degrees k - 1, k - 2 and z of k - 1..k - 3,
    # the solve's `kept` vector (its scaled x0, which holds best_x once no
    # slot does), and five products, r_k and x_k written over two of them.
    # The scaled b is not held by the steps. The bootstrap peaks at 20.07,
    # at degree 4: b, x0, y, the five Krylov vectors read, the window's
    # seven rows, r_3, r_4 and z_2..z_4; its x_j are then written over
    # Krylov vectors. The bound is the peak plus one vector. At 80
    # iterations the solve restarts once on Ghost, and peaks no higher
    # (20.16): the failed state's iterates, window and products are
    # dropped before the restart's bootstrap.
    n = 1 << 20
    A, _ = build_generator(f"tridiag:{n}")
    b = np.random.default_rng(0).standard_normal(n)
    for max_iter, causes in ((9, ()), (80, ("Ghost",))):
        gc.collect()
        tracemalloc.start()
        try:
            _, report = fs.solve(A, b, config=fs.SolverConfig(max_iter=max_iter))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.restart_causes == causes
        assert peak <= 21.2 * 8 * n, f"max_iter={max_iter}: {peak / (8 * n):.2f} vectors"


def test_a_solve_holds_the_same_memory_whichever_iterate_is_best(monkeypatch):
    # Four right-hand sides whose best iterate is x_0, x_1 (formed by the
    # bootstrap only because it is the best), x_3 and x_9, the last. After
    # every step, and at its peak, each solve holds as much memory, in
    # vectors of length n under tracemalloc: the best iterate is copied
    # into the solve's `kept` vector once no slot holds it, so no other
    # vector stays alive for it, and which vectors a solve allocates and
    # frees does not depend on b. Small Python objects move the counts by
    # a few hundredths of a vector; a vector kept alive moves them by one.
    # n is past linalg.BLOCK, so the blocked kernels run.
    n = 40000
    A, _ = build_generator(f"tridiag:{n}")
    step = solver.step

    def profile(seed):
        record = []

        def recorded(state, A):
            tracemalloc.reset_peak()
            try:
                return step(state, A)
            finally:
                current, peak = tracemalloc.get_traced_memory()
                record.append((current / (8 * n), peak / (8 * n)))

        monkeypatch.setattr(solver, "step", recorded)
        b = np.random.default_rng(seed).standard_normal(n)
        gc.collect()
        tracemalloc.start()
        try:
            _, report = fs.solve(A, b, config=fs.SolverConfig(max_iter=9))
        finally:
            tracemalloc.stop()
        return min(report.entries, key=lambda entry: entry[1])[0], record

    profiles = [profile(seed) for seed in (4, 7, 0, 1)]
    assert [best for best, _ in profiles] == [0, 1, 3, 9]
    assert len(profiles[0][1]) == 5
    first = np.array(profiles[0][1])
    assert all(np.abs(np.array(record) - first).max() < 0.5 for _, record in profiles), profiles


def test_solver_config_validation():
    with pytest.raises(ValueError):
        fs.SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        fs.SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        fs.SolverConfig(seed=-1)


@pytest.mark.parametrize("field, value", [
    ("tol", math.inf), ("tol", math.nan), ("tol", -math.inf),
    ("seed", 1.5), ("seed", None), ("seed", 2.0), ("max_iter", 2.5), ("max_iter", math.inf),
    ("max_restarts", math.inf), ("max_restarts", None), ("max_restarts", 3.0),
    ("max_iter", True), ("max_restarts", False), ("seed", True), ("tol", True),
    ("max_iter", np.True_), ("max_restarts", np.False_), ("seed", np.True_), ("tol", np.True_),
])
def test_solver_config_rejects_what_solve_cannot_honour(field, value):
    with pytest.raises(ValueError, match=field):
        fs.SolverConfig(**{field: value})


def test_solver_config_accepts_numpy_integers():
    A, b = fs.Matrix.tridiagonal(12), np.ones(12)
    _, report = fs.solve(A, b, config=fs.SolverConfig(max_iter=np.int32(40), max_restarts=np.uint8(2),
                                                      seed=np.int64(3)))
    _, want = fs.solve(A, b, config=fs.SolverConfig(max_iter=40, max_restarts=2, seed=3))
    assert repr(report) == repr(want)
