"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class DicriticalError(Exception):
    """Base class for every error raised by this package."""


class PolynomialError(DicriticalError):
    """Malformed polynomial data or an impossible polynomial operation."""


class DescriptorError(DicriticalError):
    """A blow-up descriptor violates its structural invariants."""

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class MatrixError(DicriticalError):
    """Singular or otherwise unusable integer matrix."""


class SolverError(DicriticalError):
    """A certificate construction failed or an input made it impossible."""


class BoundViolation(SolverError):
    """Auxiliary orders came out too small; larger choices are required."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class ChartError(DicriticalError):
    """A chart tower is inconsistent or a divisor is not visible."""


class GenericityError(DicriticalError):
    """A line template lies where the restriction is not defined: its zero
    roles make the restriction's denominator vanish."""


class ScenarioError(DicriticalError):
    """A scenario file or request is malformed."""
