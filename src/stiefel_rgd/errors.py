"""Exception types shared across the package."""

from __future__ import annotations


class ShapeError(ValueError):
    """Frames or matrices with incompatible grids/shapes were combined."""


class NumericalError(RuntimeError):
    """Base class for failures of the numerical machinery."""


class DegenerateFrameError(NumericalError):
    """The frame has numerically dependent columns: a retraction found it
    rank deficient, or a Gram matrix built from it is numerically singular."""


class OperatorNotSPDError(NumericalError):
    """Negative curvature or a failed Cholesky revealed a non-SPD operator."""


class ConvergenceError(NumericalError):
    """An iterative solve exhausted its budget before reaching tolerance."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ConfigError(ValueError):
    """A run configuration is malformed or inconsistent."""
