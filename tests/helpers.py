"""Shared fixture builders and independent check implementations."""
from __future__ import annotations

import dataclasses

import numpy as np

import fopsolve as fs

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
    return fs.ScalarProducts(
        c_xkm2_pkm2=float(u[0] @ r),
        c_xkm1_pkm2=float(u[1] @ r),
        c_xk_pkm2=float(u[2] @ r),
        c_xkp1_pkm2=float(u[3] @ r),
        c1_xkm3_p1km3=float(u[0] @ z3),
        c1_xkm2_p1km3=float(u[1] @ z3),
        c1_xkm1_p1km3=float(u[2] @ z3),
        c1_xk_p1km3=float(u[3] @ z3),
        c1_xkm2_p1km2=float(u[1] @ z2),
        c1_xkm1_p1km2=float(u[2] @ z2),
        c1_xk_p1km2=float(u[3] @ z2),
        c1_xkp1_p1km2=float(u[4] @ z2),
        columns=PURE_SHIFT,
    )


def scalar_values(sp):
    """The twelve functional values of a ScalarProducts, in field order."""
    return tuple(getattr(sp, f.name) for f in dataclasses.fields(sp)[:12])


def power_window(A, y, k):
    """The power vectors u_{k-4}..u_{k+2}, u_j = (A^T)^j y, as a (7, n)
    left window at head 0, with its (7, 3) pure-shift columns."""
    us = [np.asarray(y, dtype=float)]
    for _ in range(k + 2):
        us.append(fs.transpose_matvec(A, us[-1]))
    return np.array(us[k - 4:k + 3]), np.array(PURE_SHIFT[:1] * 7)


def bridged_scalar_products(A, r0, y, c, k):
    """Scalar products for degree k built from explicit vectors.

    Uses the adjoint identity c(x^i q) = ((A^T)^i y, q(A) r0) with oracle
    polynomials, which is the independent route against which the
    solver's sliding-window products are checked.
    """
    window, _ = power_window(A, y, k)
    r_km2 = fs.poly_matrix_apply(fs.oracle_p(c, k - 2), A, r0)
    z_km3 = fs.poly_matrix_apply(fs.oracle_p1(c, k - 3), A, r0)
    z_km2 = fs.poly_matrix_apply(fs.oracle_p1(c, k - 2), A, r0)
    return power_scalar_products(window[2:], r_km2, z_km3, z_km2)


def a13_closed_form_check(sp):
    """Expanded cofactor solution of the 3x3 coefficient system.

    Independent of the pivoted-elimination path used in production; the
    two must agree wherever no breakdown triggers.
    """
    a11, a13 = sp.c_xkm2_pkm2, sp.c1_xkm3_p1km3
    a21, a22, a23 = sp.c_xkm1_pkm2, sp.c_xkm2_pkm2, sp.c1_xkm2_p1km3
    a31, a32, a33 = sp.c_xk_pkm2, sp.c_xkm1_pkm2, sp.c1_xkm1_p1km3
    e_k = -a11 / a13
    b1 = -a21 - e_k * a23
    b2 = -a31 - e_k * a33
    b3 = -sp.c_xkp1_pkm2 - e_k * sp.c1_xk_p1km3
    delta = a11 * (a22 * a33 - a32 * a23) + a13 * (a21 * a32 - a31 * a22)
    b_k = (b1 * (a22 * a33 - a32 * a23) + a13 * (b2 * a32 - b3 * a22)) / delta
    f_k = (b1 - a11 * b_k) / a13
    c_k = (b2 - a21 * b_k - a23 * f_k) / a22
    return 1.0 / c_k, b_k, c_k, e_k, f_k, delta


def b13_closed_form_check(sp):
    """Expanded cofactor solution for the monic-family coefficients."""
    a11, a12 = sp.c1_xkm3_p1km3, sp.c1_xkm2_p1km2
    a21, a22, a23 = sp.c1_xkm2_p1km3, sp.c1_xkm1_p1km2, a12
    a31, a32, a33 = sp.c1_xkm1_p1km3, sp.c1_xk_p1km2, a22
    c_k = -a12 / a11
    b1 = -a22 - a21 * c_k
    b2 = -a32 - a31 * c_k
    b3 = -sp.c1_xkp1_p1km2 - c_k * sp.c1_xk_p1km3
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
