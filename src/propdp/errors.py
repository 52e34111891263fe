"""Exception taxonomy shared across the package.

ConfigError maps to CLI exit code 2, NumericError (and subclasses) to 3.
"""

from __future__ import annotations

import math


class ConfigError(ValueError):
    """Invalid user-supplied configuration or parameters."""


class NumericError(RuntimeError):
    """Internal numerical failure (bad covariance, non-finite values, ...)."""


class NonConvergenceError(NumericError):
    """An iterative solver failed to reach its tolerance.

    Carries the last iterate, its residual and the iterations taken so
    callers can report diagnostics.
    """

    def __init__(self, message: str, *, last_iterate=None, residual=None, iterations=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual
        self.iterations = iterations


class Failure(str):
    """A failed solve's text, "<error class>: <message>"; ``fields`` is its
    manifest entry, where a NonConvergenceError adds its last residual, None
    where that is not finite (strict JSON has no inf), and the iterations it
    took, where known."""

    @classmethod
    def of(cls, exc: NumericError) -> Failure:
        failure = cls(f"{type(exc).__name__}: {exc}")
        failure.fields = {"error": str(failure)}
        if isinstance(exc, NonConvergenceError):
            finite = exc.residual is not None and math.isfinite(exc.residual)
            failure.fields["residual"] = float(exc.residual) if finite else None
            if exc.iterations is not None:
                failure.fields["iterations"] = int(exc.iterations)
        return failure
