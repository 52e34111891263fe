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


def failure_fields(exc: NumericError) -> dict:
    """A failed solve's manifest entry: its text, "<error class>: <message>",
    and for a NonConvergenceError its last residual, None where that is not
    finite (strict JSON has no inf), and the iterations it took, where known."""
    fields = {"error": f"{type(exc).__name__}: {exc}"}
    if isinstance(exc, NonConvergenceError):
        finite = exc.residual is not None and math.isfinite(exc.residual)
        fields["residual"] = float(exc.residual) if finite else None
        if exc.iterations is not None:
            fields["iterations"] = int(exc.iterations)
    return fields
