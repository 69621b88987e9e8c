"""Exception types shared across the package.

Breakdown exceptions are first-class results of the iteration, not bugs:
the solver catches them and restarts, and the verification tools record
them as "skipped" runs.
"""


class DimensionMismatch(ValueError):
    """Operand shapes are incompatible."""


class SingularSystem(Exception):
    """Pivoted elimination hit a pivot below tolerance.

    Carries the elimination step at which the pivot failed.
    """

    def __init__(self, pivot_index: int, message: str = ""):
        self.pivot_index = pivot_index
        super().__init__(message or f"singular system: pivot {pivot_index} below tolerance")


class RankDeficient(Exception):
    """Least-squares matrix is rank deficient beyond what the caller accepts."""


class NumericOverflow(Exception):
    """A non-finite value appeared in an intermediate computation."""

    cause = "Overflow"


class KrylovOverflow(NumericOverflow):
    """The residual r0 or one of its powers A^i r0 overflowed: a failure of
    A, b and x0 alone, which no choice of left seed avoids."""


class MomentRangeExceeded(Exception):
    """A functional evaluation needs a moment index beyond the cached range."""

    def __init__(self, required_index: int, available: int):
        self.required_index = required_index
        self.available = available
        super().__init__(f"moment index {required_index} required, only 0..{available} available")


class NonexistentPolynomial(Exception):
    """The orthogonal polynomial of the requested degree does not exist.

    Signals a singular moment system, i.e. a (numerically) vanishing Hankel
    determinant at this degree. This is the true-breakdown condition.
    """

    def __init__(self, degree: int, family: str = "P"):
        self.degree = degree
        self.family = family
        super().__init__(f"orthogonal polynomial {family}_{degree} does not exist (singular moment system)")


class BreakdownError(Exception):
    """Base class for recurrence-coefficient breakdowns. `cause` labels the report entry."""

    cause = "Unknown"


class GhostBreakdown(BreakdownError):
    """Coefficient-system determinant vanished although the polynomials may exist."""

    cause = "Ghost"


class TrueBreakdown(BreakdownError):
    """A functional value that must be nonzero (by orthogonality) underflowed."""

    cause = "True"


class NormalizationBreakdown(BreakdownError):
    """The normalizing coefficient underflowed; its reciprocal is undefined."""

    cause = "Normalization"


class DivisorBreakdown(BreakdownError):
    """A back-substitution divisor underflowed."""

    cause = "Divisor"


class BootstrapBreakdown(BreakdownError):
    """The bootstrap's degree-j orthogonality conditions are singular:
    numerically, P_j and P1_j do not exist."""

    cause = "True"

    def __init__(self, degree: int):
        self.degree = degree
        super().__init__(f"bootstrap failed: no orthogonal polynomial at degree {degree}")


class RestartsExhausted(Exception):
    """The restart budget ran out before convergence."""
