"""Brute-force ground truth for the two orthogonal polynomial families.

P_k is the degree-k polynomial with P_k(0) = 1 that is orthogonal to
x^0..x^{k-1} under the functional c; P1_k is the monic degree-k
polynomial orthogonal under the shifted functional c1. Both come from
the same k x k moment system, solved directly by one elimination whose
two solutions are memoized on the moment sequence. Direct moment
systems are notoriously ill-conditioned, so the oracle is capped at
k <= 10 and meant for desk-scale cross-checking only.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, moments
from .errors import DimensionMismatch, MomentRangeExceeded, NonexistentPolynomial, SingularSystem

FAMILY_P = "P"
FAMILY_P1 = "P1"
ORACLE_MAX_DEGREE = 10


@dataclass(frozen=True, eq=False)
class Polynomial:
    """Dense polynomial with ascending coefficients.

    family tags membership: "P" requires coeffs[0] == 1 exactly, "P1"
    requires a unit leading coefficient (monic). Untagged polynomials
    are unconstrained. Polynomials compare and hash by identity: `==` on
    the coefficient arrays would give an array, not a truth value.
    """

    coeffs: np.ndarray
    family: str | None = None

    def __post_init__(self):
        a = np.asarray(self.coeffs, dtype=float)
        if a.ndim != 1 or a.size < 1:
            raise DimensionMismatch("polynomial needs at least one coefficient")
        if not np.isfinite(a).all():
            raise ValueError("polynomial coefficients must be finite")
        if self.family == FAMILY_P and a[0] != 1.0:
            raise ValueError("family P requires value 1 at x = 0")
        if self.family == FAMILY_P1 and a[-1] != 1.0:
            raise ValueError("family P1 requires a monic leading coefficient")
        if self.family not in (None, FAMILY_P, FAMILY_P1):
            raise ValueError(f"unknown family tag {self.family!r}")
        a.setflags(write=False)
        object.__setattr__(self, "coeffs", a)


def oracle_p(c: moments.MomentSequence, k: int) -> Polynomial:
    """Solve the k x k moment system for P_k (normalized P_k(0) = 1).

    Raises NonexistentPolynomial when the system is singular, which is
    the vanishing-Hankel condition at degree k.
    """
    _check_degree(k)
    if k == 0:
        return Polynomial(np.array([1.0]), FAMILY_P)
    return _hankel_solutions(c, k, FAMILY_P)[0]


def oracle_p1(c: moments.MomentSequence, k: int) -> Polynomial:
    """Solve the k x k moment system for the monic P1_k.

    Same Hankel matrix and hence the same existence condition as P_k.
    """
    _check_degree(k)
    if k == 0:
        return Polynomial(np.array([1.0]), FAMILY_P1)
    if 2 * k > c.m:
        raise MomentRangeExceeded(2 * k, c.m)
    return _hankel_solutions(c, k, FAMILY_P1)[1]


def _hankel_solutions(c: moments.MomentSequence, k: int, family: str) -> tuple[Polynomial, Polynomial | None]:
    """(P_k, P1_k) from one elimination of the Hankel matrix H_k, memoized on `c`.

    P1_k is None when `c` stops short of c_2k. A singular H_k is memoized
    too and raises NonexistentPolynomial for the asked `family`.
    """
    solved = c.hankel_solutions.get(k)
    if solved is None:
        h = moments.hankel_matrix(c, k)
        try:
            if 2 * k > c.m:
                solved = (Polynomial(np.array([1.0, *linalg.solve_dense(h, -c.values[:k])]), FAMILY_P), None)
            else:
                alphas, betas = linalg.solve_dense(h, -c.values[:k], -c.values[k + 1:2 * k + 1])
                solved = (Polynomial(np.array([1.0, *alphas]), FAMILY_P),
                          Polynomial(np.array([*betas, 1.0]), FAMILY_P1))
        except SingularSystem as exc:
            solved = exc.with_traceback(None)  # no frame, so no reference cycle through `c`
        c.hankel_solutions[k] = solved
    if isinstance(solved, SingularSystem):
        raise NonexistentPolynomial(k, family) from solved
    return solved


def _check_degree(k: int) -> None:
    if k < 0:
        raise ValueError("degree must be >= 0")
    if k > ORACLE_MAX_DEGREE:
        raise ValueError(f"oracle is restricted to degree <= {ORACLE_MAX_DEGREE}")
