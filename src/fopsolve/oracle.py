"""Brute-force ground truth for the two orthogonal polynomial families.

P_k is the degree-k polynomial with P_k(0) = 1 that is orthogonal to
x^0..x^{k-1} under the functional c; P1_k is the monic degree-k
polynomial orthogonal under the shifted functional c1. Both come from
the same k x k moment system, solved directly. Direct moment systems are
notoriously ill-conditioned, so the oracle is capped at k <= 10 and
meant for desk-scale cross-checking only.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, moments
from .errors import DimensionMismatch, MomentRangeExceeded, NonexistentPolynomial, SingularSystem

FAMILY_P = "P"
FAMILY_P1 = "P1"
ORACLE_MAX_DEGREE = 10


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial with ascending coefficients.

    family tags membership: "P" requires coeffs[0] == 1 exactly, "P1"
    requires a unit leading coefficient (monic). Untagged polynomials
    are unconstrained.
    """

    coeffs: np.ndarray
    family: str | None = None

    def __post_init__(self):
        a = np.asarray(self.coeffs, dtype=float)
        if a.ndim != 1 or a.size < 1:
            raise DimensionMismatch("polynomial needs at least one coefficient")
        if not np.all(np.isfinite(a)):
            raise ValueError("polynomial coefficients must be finite")
        if self.family == FAMILY_P and a[0] != 1.0:
            raise ValueError("family P requires value 1 at x = 0")
        if self.family == FAMILY_P1 and a[-1] != 1.0:
            raise ValueError("family P1 requires a monic leading coefficient")
        if self.family not in (None, FAMILY_P, FAMILY_P1):
            raise ValueError(f"unknown family tag {self.family!r}")
        a.setflags(write=False)
        object.__setattr__(self, "coeffs", a)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1


def polynomial(coeffs, family: str | None = None) -> Polynomial:
    """Build a Polynomial, trimming structurally zero trailing coefficients."""
    a = np.atleast_1d(np.asarray(coeffs, dtype=float))
    last = a.size - 1
    while last > 0 and a[last] == 0.0:
        last -= 1
    return Polynomial(a[:last + 1], family)


def oracle_p(c: moments.MomentSequence, k: int) -> Polynomial:
    """Solve the k x k moment system for P_k (normalized P_k(0) = 1).

    Raises NonexistentPolynomial when the system is singular, which is
    the vanishing-Hankel condition at degree k.
    """
    _check_degree(k)
    if k == 0:
        return Polynomial(np.array([1.0]), FAMILY_P)
    h = moments.hankel_matrix(c, k)
    rhs = -c.values[:k]
    try:
        alphas = linalg.solve_dense(h, rhs)
    except SingularSystem as exc:
        raise NonexistentPolynomial(k, FAMILY_P) from exc
    return Polynomial(np.concatenate([[1.0], alphas]), FAMILY_P)


def oracle_p1(c: moments.MomentSequence, k: int) -> Polynomial:
    """Solve the k x k moment system for the monic P1_k.

    Same Hankel matrix and hence the same existence condition as P_k.
    """
    _check_degree(k)
    if k == 0:
        return Polynomial(np.array([1.0]), FAMILY_P1)
    if 2 * k > c.m:
        raise MomentRangeExceeded(2 * k, c.m)
    h = moments.hankel_matrix(c, k)
    rhs = -c.values[k + 1:2 * k + 1]
    try:
        betas = linalg.solve_dense(h, rhs)
    except SingularSystem as exc:
        raise NonexistentPolynomial(k, FAMILY_P1) from exc
    return Polynomial(np.concatenate([betas, [1.0]]), FAMILY_P1)


def poly_matrix_apply(p: Polynomial, A: linalg.Matrix, v) -> np.ndarray:
    """Evaluate p(A) v by Horner iteration: degree(p) matvecs."""
    vec = linalg.as_vector(v)
    if A.rows != A.cols or A.cols != len(vec):
        raise DimensionMismatch("poly_matrix_apply needs a square matrix matching v")
    coeffs = p.coeffs
    out = coeffs[-1] * vec
    for cj in coeffs[-2::-1]:
        out = linalg.matvec(A, out) + cj * vec
    return out


def _check_degree(k: int) -> None:
    if k < 0:
        raise ValueError("degree must be >= 0")
    if k > ORACLE_MAX_DEGREE:
        raise ValueError(f"oracle is restricted to degree <= {ORACLE_MAX_DEGREE}")
