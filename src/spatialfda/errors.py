"""Exception types shared across the package.

Everything derives from SpatialFDAError so callers can catch one base class.
The CLI maps these to exit code 1 with a machine-readable payload; anything
else escaping a subcommand is a genuine bug.
"""

from __future__ import annotations


class SpatialFDAError(Exception):
    """Base class for all errors raised by this package."""


class GridMismatchError(SpatialFDAError):
    """Two objects live on different grids (points or weights differ)."""


class RankDeficiencyError(SpatialFDAError):
    """A sample or operator has lower numerical rank than the request needs."""


class NotPSDError(SpatialFDAError):
    """A kernel or covariance matrix fails the positive-semidefinite check."""


class ConditioningError(SpatialFDAError):
    """A linear system is too ill-conditioned to invert reliably."""


class ConvergenceError(SpatialFDAError):
    """Iteration budget exhausted without meeting the stopping rule.

    The last iterate is attached as ``last`` so callers can inspect it;
    solve_quantile, and so quantile_fan, attach it as a QuantileSolution in
    the caller's basis.
    """

    def __init__(self, message: str, last=None):
        super().__init__(message)
        self.last = last


class ParseError(SpatialFDAError):
    """Malformed input file. ``line`` is the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
