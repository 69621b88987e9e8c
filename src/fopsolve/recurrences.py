"""Recurrence coefficients between adjacent orthogonal polynomials.

`solver` holds the vectors and takes their products; this module holds
what the products become, the coefficients, and decides every breakdown
and every non-finite functional value. Two jobs:

* compute the bootstrap's coefficients of P_j and P1_j, j = 1..4, from
  the Gram products of the left vectors with the Krylov vectors
  (`bootstrap_coefficients`), and the closed-form coefficients of the
  degree-gap recurrences

      P_k  = A_k [ (x^2 + B_k x + C_k) P_{k-2} + (E_k x^2 + F_k x) P1_{k-3} ]
      P1_k = (C_k x + D_k) P1_{k-3} + (x^2 + F_k x + G_k) P1_{k-2}

  from scalar products of iteration vectors (`a13_coefficients`,
  `b13_coefficients`), detecting the breakdown conditions. The solver
  takes the products against left vectors v_j = N_j(A^T) y of a
  three-term basis; `assemble_scalar_products` turns them into functional
  values, expanded into the orthogonality conditions against the test
  functions N_{k-4}..N_{k-1} (`ScalarProducts.rows`, all eight formed in
  one pass by `_expand`). The values, the rows and the two 3x3 systems
  are Python floats, checked here and handed as augmented rows straight
  to `linalg.eliminate`; a pivot below its floor is reported as
  GhostBreakdown;

* numerically certify which candidate relation shapes exist at all, by
  least-squares fitting expanded multiplier candidates against oracle
  polynomials (`fit_relation`).

The candidate shapes carry the A_i / B_j names used in the Lanczos-type
algorithm literature to index relations between the families P and P1.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg, moments, oracle
from .errors import (
    BootstrapBreakdown,
    DimensionMismatch,
    GhostBreakdown,
    NormalizationBreakdown,
    NumericOverflow,
    RankDeficient,
    SingularSystem,
    TrueBreakdown,
)

EXISTS_TOL = 1e-8
NONEXISTENCE_TOL = 1e-3
BREAKDOWN_EPS = 1e-12  # relative threshold of every A13/B13 breakdown test
WINDOW = 7  # rows of the left window: v_{k-4}..v_{k+2}
# _record(Record, fields) builds a record as its generated __new__ does,
# without that Python frame: the three records below are built once a degree.
_record = tuple.__new__


class ScalarProducts(NamedTuple):
    """Functional values one combined step needs, against left test functions.

    The test functions N_j (degree j) give the left vectors
    v_j = N_j(A^T) y and satisfy x N_j = beta_j N_{j-1} + alpha_j N_j +
    gamma_j N_{j+1}; `columns` holds (beta_j, alpha_j, gamma_j) for
    j = k-4..k. With r_m = P_m(A) r0 and z_m = P1_m(A) r0 the
    adjoint identity c(N_j q) = (v_j, q(A) r0) gives the twelve `values`

        c(N_{k-2+i} P_{k-2})    i = 0..3
        c1(N_{k-3+i} P1_{k-3})  i = 0..3
        c1(N_{k-2+i} P1_{k-2})  i = 0..3

    `rows` holds (p0, p1, p2, q0, q1, s0, s1, s2): over the test functions
    N_i, i = k-4..k-1, the values pa = c(N_i x^a P_{k-2}),
    qa = c1(N_i x^a P1_{k-3}) and sa = c1(N_i x^a P1_{k-2}), the rows of
    both recurrences' conditions. Values that vanish by orthogonality
    (c(N_j P_{k-2}) for j < k-2, c1(N_j P1_m) for j < m) are set to zero;
    N_{k-5} enters as zero. The rows are tuples of Python floats, expanded
    in one pass with unrolled arithmetic by `_expand`. `scale` is the
    largest magnitude among them, or inf when one is not finite.
    """

    values: tuple
    columns: tuple
    rows: tuple
    scale: float


def _expand(values: tuple, columns: tuple) -> ScalarProducts:
    """The record of the twelve `values` and the `columns` of j = k-4..k,
    with the rows and the scale they expand to, in one pass.

    Each row over N_{k-4}..N_{k-1} comes from the values v against
    N_{k-4}..N_{k+1} (for P and P1_{k-2} the first two are zero) through
    x N_j = beta_j N_{j-1} + alpha_j N_j + gamma_j N_{j+1}: once for the x
    rows, twice for the x^2 rows. It is unrolled with every term kept,
    zeros and N_{k-5} included, so that signed zeros and non-finite values
    propagate as in the summed form; the terms that read only zeros and
    columns are taken once and shared by the rows of P, P1_{k-3} and
    P1_{k-2}.
    """
    pv2, pv3, pv4, pv5, qv1, qv2, qv3, qv4, sv2, sv3, sv4, sv5 = values  # pvi, qvi, svi: against N_{k-4+i}
    (b0, a0, g0), (b1, a1, g1), (b2, a2, g2), (b3, a3, g3), (b4, a4, g4) = columns
    b0z, b1z, b2z = b0 * 0.0, b1 * 0.0, b2 * 0.0
    zero0, zero1 = b0z + a0 * 0.0, b1z + a1 * 0.0
    x0 = zero0 + g0 * 0.0  # the first entry of both x rows
    head0, head1 = b0z + a0 * x0, b1 * x0  # the first partial sums of both x^2 rows
    px1, px2, px3 = zero1 + g1 * pv2, b2z + a2 * pv2 + g2 * pv3, b3 * pv2 + a3 * pv3 + g3 * pv4
    px4 = b4 * pv3 + a4 * pv4 + g4 * pv5
    sx1, sx2, sx3 = zero1 + g1 * sv2, b2z + a2 * sv2 + g2 * sv3, b3 * sv2 + a3 * sv3 + g3 * sv4
    sx4 = b4 * sv3 + a4 * sv4 + g4 * sv5
    p0, q0, s0 = (0.0, 0.0, pv2, pv3), (0.0, qv1, qv2, qv3), (0.0, 0.0, sv2, sv3)
    p1, s1 = (x0, px1, px2, px3), (x0, sx1, sx2, sx3)
    p2 = (head0 + g0 * px1, head1 + a1 * px1 + g1 * px2, b2 * px1 + a2 * px2 + g2 * px3, b3 * px2 + a3 * px3 + g3 * px4)
    q1 = (zero0 + g0 * qv1, b1z + a1 * qv1 + g1 * qv2, b2 * qv1 + a2 * qv2 + g2 * qv3, b3 * qv2 + a3 * qv3 + g3 * qv4)
    s2 = (head0 + g0 * sx1, head1 + a1 * sx1 + g1 * sx2, b2 * sx1 + a2 * sx2 + g2 * sx3, b3 * sx2 + a3 * sx3 + g3 * sx4)
    flat = (*p0, *p1, *p2, *q0, *q1, *s0, *s1, *s2)
    total = sum(flat)  # NaN when an entry is NaN; an infinite entry makes max or -min infinite
    return _record(ScalarProducts, (values, columns, (p0, p1, p2, q0, q1, s0, s1, s2),
                                    math.inf if total != total else max(max(flat), -min(flat))))


class A13Coeffs(NamedTuple):
    """Coefficients of the residual-family recurrence, plus diagnostics:
    an immutable record, a tuple of its fields in the order below.

    The derivation forces G_k = 0 and D_k = 0, so they are not stored;
    A_k * C_k == 1 by the normalization P_k(0) = 1.
    """

    a_k: float
    b_k: float
    c_k: float
    e_k: float
    f_k: float
    delta_k: float


class B13Coeffs(NamedTuple):
    """Coefficients of the monic-family recurrence, plus diagnostics:
    an immutable record, a tuple of its fields in the order below.

    E_k = 1 (the x^2 P1_{k-2} block carries the monic leading term) and
    A_k = B_k = 0 are forced by the derivation and not stored.
    """

    c_k: float
    d_k: float
    f_k: float
    g_k: float
    delta_prime_k: float


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

    def __post_init__(self):
        if self.relative_residual < 0:
            raise ValueError("residual must be >= 0")

    @property
    def exists(self) -> bool:
        return self.relative_residual < EXISTS_TOL

    @property
    def classification(self) -> str:
        """'exists', 'nonexistent', or 'indeterminate' (the gray band between)."""
        if self.exists:
            return "exists"
        if self.relative_residual > NONEXISTENCE_TOL:
            return "nonexistent"
        return "indeterminate"


def assemble_scalar_products(r_products, z3_products, z2_products, columns) -> ScalarProducts:
    """Form the twelve functional values from products with the left vectors; no vector is read here.

    Every input is in degree order, of Python floats: `r_products` and
    `z2_products` are the products of v_{k-4}..v_{k+2} with r_{k-2} and
    with z_{k-2}, `z3_products` those of v_{k-4}..v_{k+1} with z_{k-3},
    and `columns` the tuples (beta_j, alpha_j, gamma_j) of j = k-4..k+1.
    The products give the c values directly and the c1 values through
    c1(N_j q) = c(x N_j q).
    """
    if not len(r_products) == len(z2_products) == WINDOW or not len(z3_products) == len(columns) == WINDOW - 1:
        raise DimensionMismatch(f"left products and columns must hold {WINDOW}, {WINDOW - 1}, {WINDOW}, {WINDOW - 1}")
    r, z3, z2 = r_products, z3_products, z2_products
    c0, (b1, a1, g1), (b2, a2, g2), (b3, a3, g3), (b4, a4, g4), (b5, a5, g5) = columns  # j = k-4..k+1
    # c1(N_j q) = c(x N_j q) = beta_j c(N_{j-1} q) + alpha_j c(N_j q) + gamma_j c(N_{j+1} q)
    return _expand((*r[2:6],
                    b1 * z3[0] + a1 * z3[1] + g1 * z3[2], b2 * z3[1] + a2 * z3[2] + g2 * z3[3],
                    b3 * z3[2] + a3 * z3[3] + g3 * z3[4], b4 * z3[3] + a4 * z3[4] + g4 * z3[5],
                    b2 * z2[1] + a2 * z2[2] + g2 * z2[3], b3 * z2[2] + a3 * z2[3] + g3 * z2[4],
                    b4 * z2[3] + a4 * z2[4] + g4 * z2[5], b5 * z2[4] + a5 * z2[5] + g5 * z2[6]),
                   (c0, (b1, a1, g1), (b2, a2, g2), (b3, a3, g3), (b4, a4, g4)))


def a13_coefficients(sp: ScalarProducts) -> A13Coeffs:
    """Closed-form coefficients of the residual-family recurrence.

    The lowest row, against N_{k-4}, gives E_k = -c(N_{k-4} x^2 P_{k-2}) /
    c1(N_{k-4} x P1_{k-3}); B_k, C_k, F_k solve the 3x3 system whose rows
    are the conditions against N_{k-3}..N_{k-1}; A_k = 1 / C_k. The 3x3 is
    solved by `linalg.eliminate` (the explicit cofactor formulas of the
    power basis are kept in the test suite as an equivalence check).

    Breakdowns: vanishing denominator -> TrueBreakdown; vanishing system
    determinant or elimination pivot -> GhostBreakdown; vanishing C_k ->
    NormalizationBreakdown.
    All tests are relative to the magnitudes in play, with threshold
    BREAKDOWN_EPS.
    """
    p0, p1, p2, q0, q1 = sp.rows[:5]
    _step_scale(sp)
    e_k = -p2[0] / q1[0]

    # a12 = p0[1] = c(N_{k-3} P_{k-2}) vanishes by orthogonality.
    (b_k, c_k, f_k), delta = _solve_system([[p1[1], p0[1], q0[1], -p2[1] - e_k * q1[1]],
                                            [p1[2], p0[2], q0[2], -p2[2] - e_k * q1[2]],
                                            [p1[3], p0[3], q0[3], -p2[3] - e_k * q1[3]]])
    if abs(c_k) <= BREAKDOWN_EPS * max(1.0, abs(b_k), abs(f_k)):
        raise NormalizationBreakdown(f"C_k = {c_k:.3e}; 1/C_k is undefined")
    return _record(A13Coeffs, (1.0 / c_k, b_k, c_k, e_k, f_k, delta))


def b13_coefficients(sp: ScalarProducts) -> B13Coeffs:
    """Closed-form coefficients of the monic-family recurrence.

    The lowest row gives C_k = -c1(N_{k-4} x^2 P1_{k-2}) /
    c1(N_{k-4} x P1_{k-3}); D_k, F_k, G_k solve the remaining 3x3
    orthogonality system (`linalg.eliminate` here, cofactor
    back-substitution kept as a test check).

    Breakdowns: vanishing denominator -> TrueBreakdown; vanishing system
    determinant or elimination pivot -> GhostBreakdown.
    """
    _, _, _, q0, q1, s0, s1, s2 = sp.rows
    _step_scale(sp)
    c_k = -s2[0] / q1[0]

    # a13 = s0[1] = c1(N_{k-3} P1_{k-2}) vanishes by orthogonality.
    (d_k, f_k, g_k), delta = _solve_system([[q0[1], s1[1], s0[1], -s2[1] - c_k * q1[1]],
                                            [q0[2], s1[2], s0[2], -s2[2] - c_k * q1[2]],
                                            [q0[3], s1[3], s0[3], -s2[3] - c_k * q1[3]]])
    return _record(B13Coeffs, (c_k, d_k, f_k, g_k, delta))


def _step_scale(sp: ScalarProducts) -> None:
    """TrueBreakdown test of the shared denominator c1(N_{k-4} x P1_{k-3})
    against the step scale. Non-finite values are NumericOverflow, raised
    before any breakdown test."""
    if sp.scale == math.inf:
        raise NumericOverflow("non-finite functional value")
    denom = sp.rows[4][0]
    if abs(denom) <= BREAKDOWN_EPS * sp.scale:
        raise TrueBreakdown(f"c1(N_(k-4) x P1_(k-3)) = {denom:.3e} underflows the step scale")


def _solve_system(rows) -> tuple[list[float], float]:
    """The 3x3 solve of the augmented `rows` [a_i1, a_i2, a_i3, rhs_i],
    three lists of Python floats, and the cofactor determinant delta of
    their a_ij, after its GhostBreakdown test: (solution, delta).

    A pivot below the elimination's own floor is a vanishing system too, so
    SingularSystem surfaces as GhostBreakdown; with BREAKDOWN_EPS below
    about 1e-13 the determinant test alone lets such systems through.
    Entries too large for the test's max|a_ij|^3 and a right-hand side
    that overflowed are NumericOverflow, raised before any breakdown test;
    below that bound every term of delta is finite. The a_ij are finite
    (`_step_scale` checked them), so the rows go to `linalg.eliminate`
    with the max|a_ij| found here.
    """
    (a11, a12, a13, b1), (a21, a22, a23, b2), (a31, a32, a33, b3) = rows
    entries = (a11, a12, a13, a21, a22, a23, a31, a32, a33)
    max_abs = max(max(entries), -min(entries))  # max|a_ij|
    try:
        cube = max_abs ** 3
    except OverflowError:  # a float power raises where a product would give inf
        raise NumericOverflow("max|a_ij|^3 of the coefficient system overflows") from None
    if not (math.isfinite(b1) and math.isfinite(b2) and math.isfinite(b3)):  # -p2[i] - e_k * q1[i] can overflow
        raise NumericOverflow("right-hand side of the coefficient system overflows")
    delta = a11 * (a22 * a33 - a32 * a23) - a12 * (a21 * a33 - a31 * a23) + a13 * (a21 * a32 - a31 * a22)
    if abs(delta) <= BREAKDOWN_EPS * cube:
        raise GhostBreakdown(f"coefficient determinant {delta:.3e} below tolerance")
    try:
        return linalg.eliminate(rows, max_abs)[0], delta
    except SingularSystem as exc:
        raise GhostBreakdown(f"coefficient system singular at pivot {exc.pivot_index}") from exc


def bootstrap_coefficients(gram, columns):
    """Yield the solutions (a, c) of the bootstrap's degree j = 1..len(columns)
    conditions, one degree per `next()`, so a caller that stops early never
    forms the later systems.

    `gram[m][i]` is c(N_m x^i) = (v_m, A^i r0), m = 0..len(columns), and
    `columns` the tuples (beta_m, alpha_m, gamma_m) of m = 0..len(columns)-1,
    all Python floats. The c1 values c1(N_m x^i) = beta_m c(N_{m-1} x^i) +
    alpha_m c(N_m x^i) + gamma_m c(N_{m+1} x^i) (N_{-1} enters as zero) are
    formed once. P_j = 1 + sum(a[i - 1] x^i for i = 1..j) and
    P1_j = x^j + sum(c[i] x^i for i < j) satisfy c(N_m P_j) = 0 and
    c1(N_m P1_j) = 0 for m = 0..j-1; each degree's two systems go to
    `linalg.eliminate` as augmented rows [M | b] with max|M|, once their
    entries are found finite. Non-finite entries of degree j raise
    NumericOverflow (they depend on y, so another seed may pass), a singular
    degree-j system BootstrapBreakdown(j).
    """
    shifted = [[beta * below + alpha * at + gamma * above
                for below, at, above in zip(gram[m - 1] if m else [0.0] * len(gram[m]), gram[m], gram[m + 1])]
               for m, (beta, alpha, gamma) in enumerate(columns)]
    for j in range(1, len(columns) + 1):
        # The augmented rows [M | b] of a's conditions and of c's, m = 0..j-1.
        a_rows = [[*gram[m][1:j + 1], -gram[m][0]] for m in range(j)]
        c_rows = [[*shifted[m][:j], -shifted[m][j]] for m in range(j)]
        if not all(map(math.isfinite, itertools.chain(*a_rows, *c_rows))):
            raise NumericOverflow(f"bootstrap Gram products of degree {j} overflowed")
        try:
            a, c = _solve_conditions(a_rows), _solve_conditions(c_rows)
        except SingularSystem as exc:
            raise BootstrapBreakdown(j) from exc
        yield a, c


def _solve_conditions(rows) -> list[float]:
    """The solution of one degree's augmented rows [M | b], finite Python
    floats: `linalg.eliminate` with max|M|, as `linalg.solve_dense` would
    call it."""
    entries = [value for row in rows for value in row[:-1]]
    return linalg.eliminate(rows, max(max(entries), -min(entries)))[0]


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
    target = target_fn(c, k).coeffs
    ncols = sum(d + 1 for _, _, d in form.terms)

    # [m | t] over the k + 1 coefficient rows and the normalization row, in
    # the Fortran order of column-stacked candidates: the column norms sum
    # down each column, and their rounding follows the layout.
    aug = np.zeros((k + 2, ncols + 1), order="F")
    splits = [0]
    for fam, off, d in form.terms:
        base = (oracle.oracle_p if fam == oracle.FAMILY_P else oracle.oracle_p1)(c, k + off).coeffs
        for j in range(d + 1):
            aug[j:j + base.size, splits[-1] + j] = base
        splits.append(splits[-1] + d + 1)
    aug[k + 1, :ncols] = aug[0 if form.target_family == oracle.FAMILY_P else k, :ncols]
    aug[:target.size, ncols] = target
    aug[k + 1, ncols] = 1.0

    w = _fit_multipliers(aug[:, :ncols], aug[:, ncols])
    m, t = aug[:k + 1, :ncols], aug[:k + 1, ncols]
    diff = m @ w - t
    residual = linalg.norm(diff) / linalg.norm(t)
    ws = tuple(w)
    multipliers = tuple(ws[a:b] for a, b in zip(splits, splits[1:]))
    return FitReport(form=form, k=k, multipliers=multipliers, relative_residual=residual)


def _fit_multipliers(m_aug: np.ndarray, t_aug: np.ndarray) -> np.ndarray:
    """Equilibrated least-squares solve with sparsest-member canonicalization."""
    col_norms = np.sqrt(np.add.reduce(m_aug * m_aug, axis=0))  # np.linalg.norm(m_aug, axis=0)'s ufuncs
    col_norms[col_norms == 0.0] = 1.0
    m_eq = m_aug / col_norms

    u, s, vt = np.linalg.svd(m_eq, full_matrices=False)
    tol = 1e-12 * s[0] if s[0] > 0 else 0.0
    kept = s > tol
    rank = np.count_nonzero(kept)
    ncols = m_eq.shape[1]
    s_inv = np.divide(1.0, s, out=np.zeros(s.size), where=kept)
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
        return (zeros, -linalg.norm(vec))

    return max(candidates, key=sparsity_key)
