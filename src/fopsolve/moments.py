"""Moment sequences c_i = (y, A^i r0) and the linear functionals they define.

The functional c maps x^i to c_i; the shifted functional c1 maps x^i to
c_{i+1}. The Hankel matrix of the shifted moments is the moment system
of both orthogonal polynomial families.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DimensionMismatch, KrylovOverflow, MomentRangeExceeded, NumericOverflow


@dataclass(frozen=True, eq=False)
class MomentSequence:
    """Cached moments c_0..c_m.

    `hankel_solutions` is the oracle's memo: per degree k, the P_k and
    P1_k solved from one elimination of `hankel_matrix(self, k)`, or the
    SingularSystem that elimination raised. The moments are a read-only
    copy of `values`, so the memo never goes stale. Sequences compare and
    hash by identity: `==` on the moment arrays would give an array, not
    a truth value.
    """

    values: np.ndarray
    hankel_solutions: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        v = np.array(self.values, dtype=float)  # a copy: no caller keeps a writable alias
        if v.ndim != 1 or v.size < 1:
            raise DimensionMismatch("moment sequence must hold at least c_0")
        if not np.isfinite(v).all():
            raise NumericOverflow("non-finite moment value")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def m(self) -> int:
        """Highest available moment index."""
        return self.values.size - 1

    def __getitem__(self, i: int) -> float:
        if i < 0 or i > self.m:
            raise MomentRangeExceeded(i, self.m)
        return float(self.values[i])


def krylov_vectors(A: linalg.Matrix, v, count: int) -> list[np.ndarray]:
    """Return [v, A v, ..., A^count v], one matvec per power."""
    vs = [linalg.as_vector(v)]
    for _ in range(count):
        nxt = linalg.matvec(A, vs[-1])
        if not np.isfinite(nxt).all():
            raise KrylovOverflow("matrix power overflowed")
        vs.append(nxt)
    return vs


def compute_moments(A: linalg.Matrix, r0, y, m: int) -> MomentSequence:
    """Compute c_i = (y, A^i r0) for i = 0..m by iterated matvec."""
    if m < 0:
        raise ValueError("m must be >= 0")
    r = linalg.as_vector(r0)
    yv = linalg.as_vector(y)
    if A.rows != A.cols:
        raise DimensionMismatch("compute_moments needs a square matrix")
    if len(r) != A.cols or len(yv) != A.rows:
        raise DimensionMismatch("compute_moments: vector lengths do not match the matrix")
    powers = krylov_vectors(A, r, m)
    return MomentSequence([float(yv.dot(p)) for p in powers])


def hankel_matrix(c: MomentSequence, k: int) -> np.ndarray:
    """The k x k matrix [c_{i+j+1}], the moment system of both polynomial families."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if 2 * k - 1 > c.m:
        raise MomentRangeExceeded(2 * k - 1, c.m)
    idx = np.arange(k)
    return c.values[idx[:, None] + idx[None, :] + 1].astype(float)
