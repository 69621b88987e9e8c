"""Shared fixture builders and independent check implementations."""
from __future__ import annotations

import itertools
import math
import struct
import threading
import types

import numpy as np

import fopsolve as fs
from fopsolve import linalg, moments, oracle, recurrences, solver
from fopsolve.errors import (
    DimensionMismatch,
    GhostBreakdown,
    KrylovOverflow,
    MomentRangeExceeded,
    NonexistentPolynomial,
    NormalizationBreakdown,
    NumericOverflow,
    RankDeficient,
    SingularSystem,
    TrueBreakdown,
)
from fopsolve.linalg import _PIVOT_RTOL, _fma

# (beta_j, alpha_j, gamma_j) of the power basis N_j = x^j: x N_j = N_{j+1}.
PURE_SHIFT = ((0.0, 0.0, 1.0),) * 5


def d2_fixture():
    """diag(1, 2) with unit start vectors; moments are 1 + 2^i."""
    A = fs.Matrix.diagonal([1.0, 2.0])
    c = fs.compute_moments(A, [1.0, 1.0], [1.0, 1.0], 4)
    return A, c


def d3b_fixture(m: int = 18):
    """diag(1..8) with unit start vectors, moments through index m."""
    A = fs.Matrix.diagonal(np.arange(1.0, 9.0))
    ones = np.ones(8)
    c = fs.compute_moments(A, ones, ones, m)
    return A, ones, c


def iterate(state, j):
    """(r_j, x_j, z_j) from the degree-indexed slots of a SolverState."""
    return state.r[j % 2], state.x[j % 2], state.z[j % 3]


def bootstrap_x_reference(A, b, x0, y) -> list:
    """x_0..x_4 of `solver.bootstrap(A, b, x0, y)`, each formed whole with
    the arithmetic of a bootstrap that formed x_j at every degree j: the
    Krylov vectors A^i r0, the left vectors v_0..v_3 and the Gram products
    (v_m, A^i r0) taken as the bootstrap takes them, a the solution of the
    degree-j conditions, and

        x_j = x0 - sum(a[i - 1] * A^(i-1) r0 for i in range(1, j + 1)),

    the sum added left to right from 0. The list stops before a degree
    whose system is singular."""
    b, x0, y = (linalg.as_vector(v) for v in (b, x0, y))
    powers = moments.krylov_vectors(A, b - linalg.matvec(A, x0), solver.BOOTSTRAP_DEGREE)
    left = [y / np.linalg.norm(y), *np.empty((recurrences.WINDOW, len(b)))]
    for m in range(solver.BOOTSTRAP_DEGREE - 1):
        solver._extend_left(A, left[m - 1] if m else None, left[m], left[m + 1])
    gram = np.array([[float(v.dot(p)) for p in powers] for v in left[:solver.BOOTSTRAP_DEGREE]])
    xs = [x0]
    for j in range(1, solver.BOOTSTRAP_DEGREE + 1):
        try:
            a = linalg.solve_dense(gram[:j, 1:j + 1], -gram[:j, 0])
        except SingularSystem:
            break
        total = 0
        for coefficient, vector in zip(a, powers):
            total = np.add(total, np.multiply(coefficient, vector))
        xs.append(np.subtract(x0, total))
    return xs


def window_products(window, *vectors) -> list:
    """The (7, n) window's products with each vector, one gemv each, as
    `solver.step` takes them."""
    return [window.dot(v) for v in vectors]


def in_degree_order(products, columns, head=0) -> list:
    """The arguments of `assemble_scalar_products` from a (7, n) window that
    holds v_{k-4}..v_{k+2} cyclically from row `head` on: its products with
    r_{k-2}, z_{k-3} and z_{k-2}, and its (7, 3) columns, each rolled into
    degree order as Python floats; the products with z_{k-3} are cut to
    v_{k-4}..v_{k+1}, and the columns to the tuples of j = k-4..k+1."""
    r, z3, z2 = (np.roll(p, -head).tolist() for p in products)
    return [r, z3[:6], z2, [tuple(c) for c in np.roll(columns, -head, axis=0).tolist()[:6]]]


def apply_functional(c, p, shift=0, power=0):
    """c(x^power p) for shift 0, c1(x^power p) for shift 1; `p` is a
    Polynomial or an ascending coefficient sequence."""
    return sum(float(a) * c[power + shift + i] for i, a in enumerate(getattr(p, "coeffs", p)))


def power_scalar_products(window, r_km2, z_km3, z_km2):
    """The twelve functional values from the power vectors u_{k-2}..u_{k+2},
    one dot product each: the reference for the bounded-window assembly."""
    u = [np.asarray(x, dtype=float) for x in window]
    r = np.asarray(r_km2, dtype=float)
    z3 = np.asarray(z_km3, dtype=float)
    z2 = np.asarray(z_km2, dtype=float)
    values = [float(u[i] @ q) for q, first in ((r, 0), (z3, 0), (z2, 1)) for i in range(first, first + 4)]
    return recurrences._expand(tuple(values), PURE_SHIFT)


def power_window(A, y, k):
    """The power vectors u_{k-4}..u_{k+2}, u_j = (A^T)^j y, as a (7, n)
    left window at head 0, with its (7, 3) pure-shift columns."""
    us = [np.asarray(y, dtype=float)]
    for _ in range(k + 2):
        us.append(fs.transpose_matvec(A, us[-1]))
    return np.array(us[k - 4:k + 3]), np.array(PURE_SHIFT[:1] * 7)


def polynomial(coeffs, family=None):
    """A Polynomial of `coeffs`, its zero trailing coefficients trimmed."""
    a = np.atleast_1d(np.asarray(coeffs, dtype=float))
    last = a.size - 1
    while last > 0 and a[last] == 0.0:
        last -= 1
    return fs.Polynomial(a[:last + 1], family)


def poly_matrix_apply(p, A, v):
    """Evaluate p(A) v by Horner iteration: degree(p) matvecs."""
    vec = fs.as_vector(v)
    if A.rows != A.cols or A.cols != len(vec):
        raise DimensionMismatch("poly_matrix_apply needs a square matrix matching v")
    coeffs = p.coeffs
    out = coeffs[-1] * vec
    for cj in coeffs[-2::-1]:
        out = fs.matvec(A, out) + cj * vec
    return out


def bridged_scalar_products(A, r0, y, c, k):
    """Scalar products for degree k built from explicit vectors.

    Uses the adjoint identity c(x^i q) = ((A^T)^i y, q(A) r0) with oracle
    polynomials, which is the independent route against which the
    solver's sliding-window products are checked.
    """
    window, _ = power_window(A, y, k)
    r_km2 = poly_matrix_apply(fs.oracle_p(c, k - 2), A, r0)
    z_km3 = poly_matrix_apply(fs.oracle_p1(c, k - 3), A, r0)
    z_km2 = poly_matrix_apply(fs.oracle_p1(c, k - 2), A, r0)
    return power_scalar_products(window[2:], r_km2, z_km3, z_km2)


def a13_closed_form_check(sp):
    """Expanded cofactor solution of the 3x3 coefficient system.

    Independent of the pivoted-elimination path used in production; the
    two must agree wherever no breakdown triggers.
    """
    v = sp.values
    a11, a13 = v[0], v[4]
    a21, a22, a23 = v[1], v[0], v[5]
    a31, a32, a33 = v[2], v[1], v[6]
    e_k = -a11 / a13
    b1 = -a21 - e_k * a23
    b2 = -a31 - e_k * a33
    b3 = -v[3] - e_k * v[7]
    delta = a11 * (a22 * a33 - a32 * a23) + a13 * (a21 * a32 - a31 * a22)
    b_k = (b1 * (a22 * a33 - a32 * a23) + a13 * (b2 * a32 - b3 * a22)) / delta
    f_k = (b1 - a11 * b_k) / a13
    c_k = (b2 - a21 * b_k - a23 * f_k) / a22
    return 1.0 / c_k, b_k, c_k, e_k, f_k, delta


def b13_closed_form_check(sp):
    """Expanded cofactor solution for the monic-family coefficients."""
    v = sp.values
    a11, a12 = v[4], v[8]
    a21, a22, a23 = v[5], v[9], a12
    a31, a32, a33 = v[6], v[10], a22
    c_k = -a12 / a11
    b1 = -a22 - a21 * c_k
    b2 = -a32 - a31 * c_k
    b3 = -v[11] - c_k * v[7]
    delta = a11 * (a22 * a33 - a32 * a23) - a12 * (a21 * a33 - a31 * a23)
    d_k = (b1 * (a22 * a33 - a32 * a23) - a12 * (b2 * a33 - b3 * a23)) / delta
    f_k = (b1 - a11 * d_k) / a12
    g_k = (b2 - a21 * d_k - a22 * f_k) / a23
    return c_k, d_k, f_k, g_k, delta


def expand_a13_multipliers(coeffs):
    """Map closed-form coefficients onto the fit's expanded multiplier slots.

    Quadratic block A_k (x^2 + B_k x + C_k) -> [A C, A B, A]; cubic block
    A_k (E_k x^2 + F_k x) -> [0, A F, A E, 0].
    """
    a, b, c, e, f = coeffs.a_k, coeffs.b_k, coeffs.c_k, coeffs.e_k, coeffs.f_k
    return np.array([a * c, a * b, a]), np.array([0.0, a * f, a * e, 0.0])


def expand_b13_multipliers(coeffs):
    """Monic-family blocks (C_k x + D_k) -> [D, C, 0, 0] and
    (x^2 + F_k x + G_k) -> [G, F, 1]."""
    return (np.array([coeffs.d_k, coeffs.c_k, 0.0, 0.0]),
            np.array([coeffs.g_k, coeffs.f_k, 1.0]))


def reconstruct_from_relation(blocks, bases, k):
    """Assemble sum_j multiplier_block_j(x) * base_j(x) as dense coefficients."""
    out = np.zeros(k + 1)
    for mult, base in zip(blocks, bases):
        for j, mj in enumerate(mult):
            seg = mj * base.coeffs
            out[j:j + seg.size] += seg
    return out


# ---------------------------------------------------------------------------
# Reference coefficient path: a verbatim copy of the list-based expansion
# (`_times_x`), `_solve_system` and `solve_dense` that the flat-float
# implementation in `fopsolve` replaced, plus the later rule that an
# overflowed right-hand side is NumericOverflow, less the later-dropped
# test of B13's back-substitution divisors. The bit-equality tests
# compare the two on random windows, random systems and along seeded solves.
# ---------------------------------------------------------------------------

def reference_scalar_products(r_products, z3_products, z2_products, columns, head=0):
    """The twelve values, the rows and the scale, as a namespace, from the
    window's products with r_{k-2}, z_{k-3} and z_{k-2}, in window row
    order from `head` on; at head 0 the last row of `z3_products` and of
    `columns`, which are not read, may be left out."""
    r, z3, z2 = (_reference_from_head(np.asarray(p).tolist(), head) for p in (r_products, z3_products, z2_products))
    cols = _reference_from_head(np.asarray(columns).tolist(), head)  # j = k-4..k+2
    values = (*r[2:6], *_reference_times_x(cols[1:5], z3[1:6], z3[0]),
              *_reference_times_x(cols[2:6], z2[2:7], z2[1]))
    return reference_expand(values, tuple([tuple(c) for c in cols[:5]]))


def reference_expand(values, columns):
    """`recurrences._expand`: the eight rows and the scale."""
    b = columns
    p0 = [0.0, 0.0, *values[0:4]]
    q0 = [0.0, *values[4:8]]
    s0 = [0.0, 0.0, *values[8:12]]
    p1 = _reference_times_x(b, p0)
    p2 = _reference_times_x(b, p1)
    q1 = _reference_times_x(b, q0)
    s1 = _reference_times_x(b, s0)
    s2 = _reference_times_x(b, s1)
    rows = (p0[:4], p1[:4], p2, q0[:4], q1, s0[:4], s1[:4], s2)
    return types.SimpleNamespace(values=tuple(values), columns=columns, rows=rows,
                                 scale=max(map(abs, itertools.chain.from_iterable(rows))))


def _reference_times_x(columns, values, lo: float = 0.0) -> list[float]:
    out = []
    mid = values[0]
    for (beta, alpha, gamma), hi in zip(columns, values[1:]):
        out.append(beta * lo + alpha * mid + gamma * hi)
        lo, mid = mid, hi
    return out


def _reference_from_head(values: list, head: int) -> list:
    return values[head:] + values[:head]


def reference_a13(sp, eps: float = 1e-12):
    """(a_k, b_k, c_k, e_k, f_k, delta_k) of `a13_coefficients`."""
    p0, p1, p2, q0, q1 = sp.rows[:5]
    _reference_step_scale(sp, eps)
    e_k = -p2[0] / q1[0]
    rows = [(p1[i], p0[i], q0[i]) for i in (1, 2, 3)]
    rhs = [-p2[i] - e_k * q1[i] for i in (1, 2, 3)]
    (a11, _, a13), (a21, a22, a23), (a31, a32, a33) = rows
    delta = a11 * (a22 * a33 - a32 * a23) + a13 * (a21 * a32 - a31 * a22)
    b_k, c_k, f_k = _reference_solve_system(rows, rhs, delta, eps)
    if abs(c_k) <= eps * max(1.0, abs(b_k), abs(f_k)):
        raise NormalizationBreakdown(f"C_k = {c_k:.3e}; 1/C_k is undefined")
    return 1.0 / c_k, b_k, c_k, e_k, f_k, delta


def reference_b13(sp, eps: float = 1e-12):
    """(c_k, d_k, f_k, g_k, delta_prime_k) of `b13_coefficients`."""
    _, _, _, q0, q1, s0, s1, s2 = sp.rows
    _reference_step_scale(sp, eps)
    c_k = -s2[0] / q1[0]
    rows = [(q0[i], s1[i], s0[i]) for i in (1, 2, 3)]
    rhs = [-s2[i] - c_k * q1[i] for i in (1, 2, 3)]
    (a11, a12, _), (a21, a22, a23), (a31, a32, a33) = rows
    delta = a11 * (a22 * a33 - a32 * a23) - a12 * (a21 * a33 - a31 * a23)
    d_k, f_k, g_k = _reference_solve_system(rows, rhs, delta, eps)
    return c_k, d_k, f_k, g_k, delta


def _reference_step_scale(sp, eps: float) -> None:
    denom = sp.rows[4][0]
    if abs(denom) <= eps * sp.scale:
        raise TrueBreakdown(f"c1(N_(k-4) x P1_(k-3)) = {denom:.3e} underflows the step scale")


def _reference_solve_system(rows, rhs, delta: float, eps: float) -> list[float]:
    if not all(map(math.isfinite, rhs)):
        raise NumericOverflow("right-hand side of the coefficient system overflows")
    if abs(delta) <= eps * max(map(abs, itertools.chain.from_iterable(rows))) ** 3:
        raise GhostBreakdown(f"coefficient determinant {delta:.3e} below tolerance")
    try:
        return reference_solve_dense(rows, rhs).tolist()
    except SingularSystem as exc:
        raise GhostBreakdown(f"coefficient system singular at pivot {exc.pivot_index}") from exc


def reference_solve_dense(M, b) -> np.ndarray:
    try:
        a = [list(map(float, row)) for row in _reference_as_list(M)]
        rhs = list(map(float, _reference_as_list(b)))
    except TypeError as exc:
        raise DimensionMismatch("solve_dense needs a matrix of rows and a 1-D right-hand side") from exc
    n = len(a)
    if n < 1 or any(len(row) != n for row in a):
        raise DimensionMismatch(f"solve_dense needs a square matrix, got rows of lengths {[len(r) for r in a]}")
    if n > 10:
        raise DimensionMismatch(f"solve_dense is limited to n <= 10, got n = {n}")
    if len(rhs) != n:
        raise DimensionMismatch("solve_dense: rhs length does not match matrix")
    if not all(map(math.isfinite, itertools.chain(rhs, *a))):
        raise ValueError("solve_dense: entries must be finite")

    pivot_floor = 1e-13 * max(map(abs, itertools.chain(*a)))
    for col in range(n):
        p, big = col, abs(a[col][col])
        for i in range(col + 1, n):
            if abs(a[i][col]) > big:
                p, big = i, abs(a[i][col])
        if big <= pivot_floor:
            raise SingularSystem(col)
        a[col], a[p] = a[p], a[col]
        rhs[col], rhs[p] = rhs[p], rhs[col]
        pivot_row, pivot = a[col], a[col][col]
        for i in range(col + 1, n):
            row = a[i]
            factor = row[col] / pivot
            for j in range(col + 1, n):
                row[j] -= factor * pivot_row[j]
            rhs[i] -= factor * rhs[col]

    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        dot = 0.0
        for j in range(i + 1, n):
            dot = _reference_fma(row[j], x[j], dot)
        x[i] = (rhs[i] - dot) / row[i]
    return np.array(x)


def reference_eliminate(a: list[list[float]], max_abs: float) -> list[list[float]]:
    """`linalg.eliminate` as the loop that its generated kernels replaced,
    word for word: it solves the augmented rows `a` in place."""
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


def _reference_fma(a: float, b: float, c: float) -> float:
    if not c:
        return a * b + c
    try:
        (na, da), (nb, db), (nc, dc) = a.as_integer_ratio(), b.as_integer_ratio(), c.as_integer_ratio()
        d = max(da * db, dc)
        return (na * nb * (d // (da * db)) + nc * (d // dc)) / d
    except (OverflowError, ValueError):
        return a * b + c


def _reference_as_list(values):
    return values.tolist() if isinstance(values, np.ndarray) else values


# The verify path as the list-of-columns code wrote it: the moments, the
# oracle's Hankel solves and the least-squares fits, the reference that
# pins the certificate tool bit for bit.

def reference_compute_moments(A, r0, y, m: int) -> moments.MomentSequence:
    if m < 0:
        raise ValueError("m must be >= 0")
    r = linalg.as_vector(r0)
    yv = linalg.as_vector(y)
    if A.rows != A.cols:
        raise DimensionMismatch("compute_moments needs a square matrix")
    if len(r) != A.cols or len(yv) != A.rows:
        raise DimensionMismatch("compute_moments: vector lengths do not match the matrix")
    powers = [r]
    for _ in range(m):
        nxt = linalg.matvec(A, powers[-1])
        if not np.all(np.isfinite(nxt)):
            raise KrylovOverflow("matrix power overflowed")
        powers.append(nxt)
    return moments.MomentSequence(np.array([float(yv @ p) for p in powers]))


def reference_oracle(c, k: int, family: str, memo: dict):
    """oracle_p (family P) or oracle_p1 (family P1), memoized in `memo`
    instead of on `c`."""
    if k == 0:
        return fs.Polynomial(np.array([1.0]), family)
    if family == oracle.FAMILY_P1 and 2 * k > c.m:
        raise MomentRangeExceeded(2 * k, c.m)
    return reference_hankel_solutions(c, k, family, memo)[family == oracle.FAMILY_P1]


def reference_hankel_solutions(c, k: int, family: str, memo: dict):
    solved = memo.get(k)
    if solved is None:
        h = moments.hankel_matrix(c, k)
        try:
            if 2 * k > c.m:
                solved = (fs.Polynomial(np.concatenate([[1.0], linalg.solve_dense(h, -c.values[:k])]), oracle.FAMILY_P),
                          None)
            else:
                alphas, betas = linalg.solve_dense(h, -c.values[:k], -c.values[k + 1:2 * k + 1])
                solved = (fs.Polynomial(np.concatenate([[1.0], alphas]), oracle.FAMILY_P),
                          fs.Polynomial(np.concatenate([betas, [1.0]]), oracle.FAMILY_P1))
        except SingularSystem as exc:
            solved = exc.with_traceback(None)
        memo[k] = solved
    if isinstance(solved, SingularSystem):
        raise NonexistentPolynomial(k, family) from solved
    return solved


def reference_fit_relation(form, c, k: int, memo: dict | None = None) -> recurrences.FitReport:
    memo = {} if memo is None else memo
    target_poly = reference_oracle(c, k, form.target_family, memo)
    t = np.zeros(k + 1)
    t[:target_poly.coeffs.size] = target_poly.coeffs

    cols = []
    splits = [0]
    for fam, off, d in form.terms:
        base = reference_oracle(c, k + off, fam, memo)
        for j in range(d + 1):
            col = np.zeros(k + 1)
            col[j:j + base.coeffs.size] = base.coeffs
            cols.append(col)
        splits.append(splits[-1] + d + 1)
    m = np.array(cols).T

    norm_row = m[0, :] if form.target_family == oracle.FAMILY_P else m[k, :]
    m_aug = np.vstack([m, norm_row])
    t_aug = np.concatenate([t, [1.0]])

    w = reference_fit_multipliers(m_aug, t_aug)
    fitted = m @ w
    residual = float(np.linalg.norm(fitted - t) / np.linalg.norm(t))
    multipliers = tuple(tuple(w[splits[i]:splits[i + 1]]) for i in range(len(form.terms)))
    return recurrences.FitReport(form=form, k=k, multipliers=multipliers, relative_residual=residual)


def reference_fit_multipliers(m_aug, t_aug):
    col_norms = np.linalg.norm(m_aug, axis=0)
    col_norms[col_norms == 0.0] = 1.0
    m_eq = m_aug / col_norms

    u, s, vt = np.linalg.svd(m_eq, full_matrices=False)
    tol = 1e-12 * s[0] if s[0] > 0 else 0.0
    rank = int(np.sum(s > tol))
    ncols = m_eq.shape[1]
    s_inv = np.where(s > tol, 1.0 / np.where(s > tol, s, 1.0), 0.0)
    w_eq = vt.T @ (s_inv * (u.T @ t_aug))

    deficiency = ncols - rank
    if deficiency == 0:
        return w_eq / col_norms
    if deficiency > 1:
        raise RankDeficient(f"candidate dictionary has rank {rank} < {ncols} columns")

    null_eq = vt[-1, :]
    w0 = w_eq / col_norms
    null = null_eq / col_norms
    candidates = [w0]
    for j in range(ncols):
        if abs(null[j]) > 1e-8 * np.abs(null).max():
            candidates.append(w0 - (w0[j] / null[j]) * null)

    def sparsity_key(vec):
        zero_tol = 1e-8 * max(1.0, float(np.abs(vec).max()))
        zeros = int(np.sum(np.abs(vec) <= zero_tol))
        return (zeros, -float(np.linalg.norm(vec)))

    return max(candidates, key=sparsity_key)


def assert_same_coefficient_path(sp, ref):
    """A ScalarProducts and the coefficients of both recurrences, or the
    class of what they raise, equal the reference path's bit for bit.
    Returns both coefficient outcomes: "ok" or the class raised."""
    assert float_bits(sp.values) == float_bits(ref.values)
    assert sp.columns == ref.columns
    assert all(float_bits(got) == float_bits(want) for got, want in zip(sp.rows, ref.rows))
    assert float_bits(sp.scale) == float_bits(ref.scale)
    seen = []
    for fn, ref_fn, fields in ((fs.a13_coefficients, reference_a13, ("a_k", "b_k", "c_k", "e_k", "f_k", "delta_k")),
                               (fs.b13_coefficients, reference_b13, ("c_k", "d_k", "f_k", "g_k", "delta_prime_k"))):
        got, want = outcome(fn, sp), outcome(ref_fn, ref)
        assert got[0] == want[0]
        if got[0] == "ok":
            assert float_bits([getattr(got[1], f) for f in fields]) == float_bits(want[1])
        else:
            assert got[1] is want[1]
        seen.append(got[1] if got[0] == "raised" else "ok")
    return seen


def float_bits(values) -> bytes:
    """The IEEE bits of a float or a sequence of floats: equal bits, signed
    zeros and NaN payloads included."""
    values = [values] if isinstance(values, float) else list(values)
    return struct.pack(f"{len(values)}d", *values)


def outcome(fn, *args, **kwargs):
    """("ok", result) or ("raised", exception class): what a call did."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001  the class is what is compared
        return "raised", type(exc)


def within(seconds: float, fn, *args):
    """fn(*args), run in a daemon thread that must finish within `seconds`:
    its result, or its exception raised here."""
    done = []

    def target():
        try:
            done.append((True, fn(*args)))
        except BaseException as exc:  # raised again in the calling thread
            done.append((False, exc))

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"{fn.__name__} still running after {seconds} s"
    ok, value = done[0]
    if not ok:
        raise value
    return value
