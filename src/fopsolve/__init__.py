"""Formal-orthogonal-polynomial toolkit.

Moment functionals, brute-force orthogonal polynomial construction,
recurrence-coefficient computation with existence certificates, and a
Lanczos-type iterative solver for Ax = b built on the degree-gap
recurrences of the residual and monic polynomial families.
"""
from .errors import (
    BootstrapBreakdown,
    BreakdownError,
    DimensionMismatch,
    GhostBreakdown,
    MomentRangeExceeded,
    NonexistentPolynomial,
    NormalizationBreakdown,
    NumericOverflow,
    RankDeficient,
    RestartsExhausted,
    SingularSystem,
    TrueBreakdown,
)
from .linalg import Matrix, as_vector, matvec, solve_dense, transpose_matvec
from .moments import MomentSequence, compute_moments
from .oracle import (
    FAMILY_P,
    FAMILY_P1,
    Polynomial,
    oracle_p,
    oracle_p1,
)
from .recurrences import (
    A11,
    A13,
    A13Coeffs,
    A14,
    B11,
    B13,
    B13Coeffs,
    FORMS,
    FitReport,
    RelationForm,
    ScalarProducts,
    a13_coefficients,
    assemble_scalar_products,
    b13_coefficients,
    fit_relation,
)
from .solver import (
    SolveReport,
    SolverConfig,
    SolverState,
    bootstrap,
    restart,
    solve,
    step,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
