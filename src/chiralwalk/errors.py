"""Exception types raised by validation and consistency checks.

Validation errors carry the offending residual so tolerance settings can
be audited instead of guessed at.
"""

from __future__ import annotations


class ChiralWalkError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(ChiralWalkError):
    """Operands do not have compatible shapes or ambient dimensions."""


class NotUnitary(ChiralWalkError):
    """A matrix required to be unitary is not, within tolerance."""


class NotInvolution(ChiralWalkError):
    """A matrix required to be a unitary involution is not, within tolerance."""


class ChiralSymmetryViolated(ChiralWalkError):
    """The grading involution does not conjugate the evolution to its inverse."""

    def __init__(self, residual: float, bound: float):
        self.residual = float(residual)
        self.bound = float(bound)
        super().__init__(
            f"chiral symmetry violated: residual {self.residual:.6e} "
            f"exceeds tolerance {self.bound:.6e}"
        )


class OutOfRange(ChiralWalkError):
    """A scalar argument lies outside its documented range."""


class GraphInvalid(ChiralWalkError):
    """An edge list does not describe a connected graph with positive degrees."""


class ParamInvariantViolated(ChiralWalkError):
    """Model parameters break a structural constraint (e.g. normalization)."""


class InconsistencyDetected(ChiralWalkError):
    """A structural identity failed numerically.

    Signals a tolerance problem or an invalid input; carries the name of
    the failing check, its residual, and (when available) the full report
    assembled up to the failure.
    """

    def __init__(self, check: str, residual: float, report=None):
        self.check = check
        self.residual = float(residual)
        self.report = report
        super().__init__(
            f"consistency check {check!r} failed with residual {self.residual:.6e}"
        )
