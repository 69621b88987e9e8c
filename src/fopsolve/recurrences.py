"""Recurrence coefficients between adjacent orthogonal polynomials.

Two jobs:

* compute the closed-form coefficients of the degree-gap recurrences

      P_k  = A_k [ (x^2 + B_k x + C_k) P_{k-2} + (E_k x^2 + F_k x) P1_{k-3} ]
      P1_k = (C_k x + D_k) P1_{k-3} + (x^2 + F_k x + G_k) P1_{k-2}

  from scalar products of iteration vectors (`a13_coefficients`,
  `b13_coefficients`), detecting the breakdown conditions;

* numerically certify which candidate relation shapes exist at all, by
  least-squares fitting expanded multiplier candidates against oracle
  polynomials (`fit_relation`).

The candidate shapes carry the A_i / B_j names used in the Lanczos-type
algorithm literature to index relations between the families P and P1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, moments, oracle
from .errors import (
    DimensionMismatch,
    DivisorBreakdown,
    GhostBreakdown,
    NormalizationBreakdown,
    RankDeficient,
    TrueBreakdown,
)

EXISTS_TOL = 1e-8
NONEXISTENCE_TOL = 1e-3


@dataclass(frozen=True)
class ScalarProducts:
    """Functional values one combined step needs, as left-vector inner products.

    With u_j = (A^T)^j y, r_m = P_m(A) r0 and z_m = P1_m(A) r0, the
    adjoint identity c(x^i q) = (u_i, q(A) r0) turns every required
    functional value into a single dot product:

        c(x^{k-2+i} P_{k-2})   = (u_{k-2+i}, r_{k-2})   i = 0..3
        c1(x^{k-3+i} P1_{k-3}) = (u_{k-2+i}, z_{k-3})   i = 0..3
        c1(x^{k-2+i} P1_{k-2}) = (u_{k-1+i}, z_{k-2})   i = 0..3
    """

    c_xkm2_pkm2: float
    c_xkm1_pkm2: float
    c_xk_pkm2: float
    c_xkp1_pkm2: float
    c1_xkm3_p1km3: float
    c1_xkm2_p1km3: float
    c1_xkm1_p1km3: float
    c1_xk_p1km3: float
    c1_xkm2_p1km2: float
    c1_xkm1_p1km2: float
    c1_xk_p1km2: float
    c1_xkp1_p1km2: float

    def as_tuple(self) -> tuple[float, ...]:
        return (
            self.c_xkm2_pkm2, self.c_xkm1_pkm2, self.c_xk_pkm2, self.c_xkp1_pkm2,
            self.c1_xkm3_p1km3, self.c1_xkm2_p1km3, self.c1_xkm1_p1km3, self.c1_xk_p1km3,
            self.c1_xkm2_p1km2, self.c1_xkm1_p1km2, self.c1_xk_p1km2, self.c1_xkp1_p1km2,
        )


@dataclass(frozen=True)
class A13Coeffs:
    """Coefficients of the residual-family recurrence, plus diagnostics.

    The derivation forces G_k = 0 and D_k = 0, so they are not stored;
    A_k * C_k == 1 by the normalization P_k(0) = 1.
    """

    a_k: float
    b_k: float
    c_k: float
    e_k: float
    f_k: float
    delta_k: float
    system: tuple[tuple[float, float, float], ...]
    rhs: tuple[float, float, float]


@dataclass(frozen=True)
class B13Coeffs:
    """Coefficients of the monic-family recurrence, plus diagnostics.

    E_k = 1 (the x^2 P1_{k-2} block carries the monic leading term) and
    A_k = B_k = 0 are forced by the derivation and not stored.
    """

    c_k: float
    d_k: float
    f_k: float
    g_k: float
    delta_prime_k: float
    system: tuple[tuple[float, float, float], ...]
    rhs: tuple[float, float, float]


@dataclass(frozen=True)
class RelationForm:
    """A candidate recurrence shape: target family and multiplier terms.

    Each term is (family, degree offset from k, multiplier degree); the
    term contributes candidates x^j * poly(family, k + offset) for
    j = 0..multiplier degree. Degree consistency requires some term to
    reach degree k exactly.
    """

    name: str
    target_family: str
    terms: tuple[tuple[str, int, int], ...]

    def __post_init__(self):
        reach = max(off + d for _, off, d in self.terms)
        if reach != 0:
            raise ValueError(f"form {self.name}: terms reach degree k{reach:+d}, expected k")
        for fam, off, d in self.terms:
            if fam not in (oracle.FAMILY_P, oracle.FAMILY_P1) or d < 0 or off > 0:
                raise ValueError(f"form {self.name}: bad term {(fam, off, d)}")


A11 = RelationForm("A11", oracle.FAMILY_P, ((oracle.FAMILY_P, -3, 3), (oracle.FAMILY_P1, -1, 1)))
A13 = RelationForm("A13", oracle.FAMILY_P, ((oracle.FAMILY_P, -2, 2), (oracle.FAMILY_P1, -3, 3)))
A14 = RelationForm("A14", oracle.FAMILY_P, ((oracle.FAMILY_P1, -2, 2), (oracle.FAMILY_P1, -3, 3)))
B11 = RelationForm("B11", oracle.FAMILY_P1, ((oracle.FAMILY_P, -3, 3), (oracle.FAMILY_P, -1, 1)))
B13 = RelationForm("B13", oracle.FAMILY_P1, ((oracle.FAMILY_P1, -3, 3), (oracle.FAMILY_P1, -2, 2)))

FORMS = {f.name: f for f in (A11, A13, A14, B11, B13)}


@dataclass(frozen=True)
class FitReport:
    """Numerical certificate for one relation shape at one degree."""

    form: RelationForm
    k: int
    multipliers: tuple[tuple[float, ...], ...]
    relative_residual: float
    exists: bool
    normalization_ok: bool

    def __post_init__(self):
        if self.relative_residual < 0:
            raise ValueError("residual must be >= 0")
        if self.exists != (self.relative_residual < EXISTS_TOL):
            raise ValueError("exists flag inconsistent with residual")

    @property
    def classification(self) -> str:
        """'exists', 'nonexistent', or 'indeterminate' (the gray band between)."""
        if self.relative_residual < EXISTS_TOL:
            return "exists"
        if self.relative_residual > NONEXISTENCE_TOL:
            return "nonexistent"
        return "indeterminate"


def assemble_scalar_products(u_window, r_km2, z_km3, z_km2) -> ScalarProducts:
    """Form all twelve functional values from the sliding left window.

    u_window must hold u_{k-2}..u_{k+2} in order; no matvecs happen here.
    """
    if len(u_window) != 5:
        raise DimensionMismatch(f"u window must hold 5 vectors, got {len(u_window)}")
    u = [np.asarray(x, dtype=float) for x in u_window]
    r = np.asarray(r_km2, dtype=float)
    z3 = np.asarray(z_km3, dtype=float)
    z2 = np.asarray(z_km2, dtype=float)
    return ScalarProducts(
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
    )


def a13_coefficients(sp: ScalarProducts, eps: float = 1e-12) -> A13Coeffs:
    """Closed-form coefficients of the residual-family recurrence.

    E_k = -c(x^{k-2} P_{k-2}) / c1(x^{k-3} P1_{k-3}); B_k, C_k, F_k solve
    the 3x3 system whose rows are the top three orthogonality conditions;
    A_k = 1 / C_k. The 3x3 is solved by pivoted elimination (the explicit
    cofactor formulas are kept in the test suite as an equivalence check).

    Breakdowns: vanishing denominator -> TrueBreakdown; vanishing system
    determinant -> GhostBreakdown; vanishing C_k -> NormalizationBreakdown.
    All tests are relative to the magnitudes in play, with threshold eps.
    """
    _step_scale(sp, eps)
    denom = sp.c1_xkm3_p1km3
    e_k = -sp.c_xkm2_pkm2 / denom

    a11, a13 = sp.c_xkm2_pkm2, denom
    a21, a22, a23 = sp.c_xkm1_pkm2, sp.c_xkm2_pkm2, sp.c1_xkm2_p1km3
    a31, a32, a33 = sp.c_xk_pkm2, sp.c_xkm1_pkm2, sp.c1_xkm1_p1km3
    b1 = -sp.c_xkm1_pkm2 - e_k * sp.c1_xkm2_p1km3
    b2 = -sp.c_xk_pkm2 - e_k * sp.c1_xkm1_p1km3
    b3 = -sp.c_xkp1_pkm2 - e_k * sp.c1_xk_p1km3

    system = np.array([[a11, 0.0, a13], [a21, a22, a23], [a31, a32, a33]])
    rhs = np.array([b1, b2, b3])
    delta = a11 * (a22 * a33 - a32 * a23) + a13 * (a21 * a32 - a31 * a22)
    b_k, c_k, f_k = _solve_system(system, rhs, delta, eps)
    if abs(c_k) <= eps * max(1.0, abs(b_k), abs(f_k)):
        raise NormalizationBreakdown(f"C_k = {c_k:.3e}; 1/C_k is undefined")
    return A13Coeffs(
        a_k=1.0 / c_k, b_k=float(b_k), c_k=float(c_k), e_k=float(e_k), f_k=float(f_k),
        delta_k=float(delta),
        system=tuple(tuple(row) for row in system), rhs=tuple(rhs),
    )


def b13_coefficients(sp: ScalarProducts, eps: float = 1e-12) -> B13Coeffs:
    """Closed-form coefficients of the monic-family recurrence.

    C_k = -c1(x^{k-2} P1_{k-2}) / c1(x^{k-3} P1_{k-3}); D_k, F_k, G_k solve
    the remaining 3x3 orthogonality system (pivoted elimination here,
    cofactor back-substitution kept as a test check). The entries a'_12
    and a'_23 are back-substitution divisors in that closed form, so their
    underflow is flagged as DivisorBreakdown.
    """
    scale = _step_scale(sp, eps)
    denom = sp.c1_xkm3_p1km3
    c_k = -sp.c1_xkm2_p1km2 / denom

    # a'_23 equals a'_12, so the closed form has a single divisor.
    a11, a12 = denom, sp.c1_xkm2_p1km2
    a21, a22, a23 = sp.c1_xkm2_p1km3, sp.c1_xkm1_p1km2, a12
    a31, a32, a33 = sp.c1_xkm1_p1km3, sp.c1_xk_p1km2, a22
    b1 = -a22 - a21 * c_k
    b2 = -a32 - a31 * c_k
    b3 = -sp.c1_xkp1_p1km2 - c_k * sp.c1_xk_p1km3

    system = np.array([[a11, a12, 0.0], [a21, a22, a23], [a31, a32, a33]])
    rhs = np.array([b1, b2, b3])
    delta = a11 * (a22 * a33 - a32 * a23) - a12 * (a21 * a33 - a31 * a23)
    d_k, f_k, g_k = _solve_system(system, rhs, delta, eps, divisor=a12, scale=scale)
    return B13Coeffs(
        c_k=float(c_k), d_k=float(d_k), f_k=float(f_k), g_k=float(g_k),
        delta_prime_k=float(delta),
        system=tuple(tuple(row) for row in system), rhs=tuple(rhs),
    )


def _step_scale(sp: ScalarProducts, eps: float) -> float:
    """Largest functional value of the step, after the TrueBreakdown test
    of the shared denominator c1(x^{k-3} P1_{k-3}) against it."""
    scale = max(abs(v) for v in sp.as_tuple())
    denom = sp.c1_xkm3_p1km3
    if abs(denom) <= eps * scale:
        raise TrueBreakdown(f"c1(x^(k-3) P1_(k-3)) = {denom:.3e} underflows the step scale")
    return scale


def _solve_system(system: np.ndarray, rhs: np.ndarray, delta: float, eps: float,
                  divisor: float | None = None, scale: float = 0.0) -> np.ndarray:
    """GhostBreakdown test of the determinant delta, then the 3x3 solve.

    A closed-form back-substitution `divisor`, when given, is tested
    against the step `scale` between the two (DivisorBreakdown).
    """
    if abs(delta) <= eps * np.abs(system).max() ** 3:
        raise GhostBreakdown(f"coefficient determinant {delta:.3e} below tolerance")
    if divisor is not None and abs(divisor) <= eps * scale:
        raise DivisorBreakdown(f"back-substitution divisor {abs(divisor):.3e} underflows")
    return linalg.solve_dense(system, rhs)


def fit_relation(form: RelationForm, c: moments.MomentSequence, k: int) -> FitReport:
    """Least-squares certificate that `form` can (or cannot) produce the degree-k target.

    Stacks the expanded candidates x^j * poly(family, k + offset) as
    columns, appends the target family's normalization row (value 1 at
    x = 0 for family P, unit leading coefficient for family P1), and fits
    the target polynomial's coefficients. The reported relative residual
    is ||fit - target|| / ||target|| over the coefficient rows.

    At degrees where the candidate dictionary is linearly dependent (the
    multiplier representation is non-unique; this happens for the
    degree-gap shapes exactly at k = 5), the one-dimensional solution
    family is canonicalized to its sparsest member, which is the member
    the coefficient derivations single out. Deficiency of dimension
    greater than one raises RankDeficient.
    """
    target_fn = oracle.oracle_p if form.target_family == oracle.FAMILY_P else oracle.oracle_p1
    target_poly = target_fn(c, k)
    t = np.zeros(k + 1)
    t[:target_poly.coeffs.size] = target_poly.coeffs

    cols = []
    splits = [0]
    for fam, off, d in form.terms:
        base_fn = oracle.oracle_p if fam == oracle.FAMILY_P else oracle.oracle_p1
        base = base_fn(c, k + off)
        for j in range(d + 1):
            col = np.zeros(k + 1)
            col[j:j + base.coeffs.size] = base.coeffs
            cols.append(col)
        splits.append(splits[-1] + d + 1)
    m = np.array(cols).T

    norm_row = m[0, :] if form.target_family == oracle.FAMILY_P else m[k, :]
    m_aug = np.vstack([m, norm_row])
    t_aug = np.concatenate([t, [1.0]])

    w = _fit_multipliers(m_aug, t_aug)
    fitted = m @ w
    residual = float(np.linalg.norm(fitted - t) / np.linalg.norm(t))
    if form.target_family == oracle.FAMILY_P:
        normalization_ok = abs(fitted[0] - 1.0) <= EXISTS_TOL
    else:
        normalization_ok = abs(fitted[k] - 1.0) <= EXISTS_TOL
    multipliers = tuple(tuple(w[splits[i]:splits[i + 1]]) for i in range(len(form.terms)))
    return FitReport(
        form=form, k=k, multipliers=multipliers,
        relative_residual=residual, exists=residual < EXISTS_TOL,
        normalization_ok=bool(normalization_ok),
    )


def _fit_multipliers(m_aug: np.ndarray, t_aug: np.ndarray) -> np.ndarray:
    """Equilibrated least-squares solve with sparsest-member canonicalization."""
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

    # One null direction: every exact solution is w + t * null. Pick the
    # member with the most (near-)zero multipliers; ties go to the
    # smallest norm. Zeroing each slot in turn enumerates the candidates.
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
