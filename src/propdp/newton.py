"""Damped Newton iteration with multistart for small nonlinear systems.

The residual maps here are 2- or 3-dimensional and smooth; each callable
returns the pair (F, J) with a closed-form Jacobian J.  Each Newton step is
halved until the residual norm strictly decreases.  On failure the solver
restarts from 8 log-spaced seeds in [1e-2, 1e2]^k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError

_MAX_HALVINGS = 40
_MAX_ITERATIONS = 200
_RESTARTS = 8

# The smallest ridge lam at which the Huber and logistic fixed-point systems
# are solved: below it their Jacobians are too ill-conditioned to trust.
MIN_LAMBDA = 1e-8


@dataclass(frozen=True)
class NewtonResult:
    x: np.ndarray
    residual_norm: float
    iterations: int
    condition_number: float


def _evaluate(f, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    fx, J = (np.asarray(a, dtype=float) for a in f(x))
    finite = np.all(np.isfinite(fx)) and np.all(np.isfinite(J))
    return fx, J, float(np.linalg.norm(fx)) if finite else np.inf


def damped_newton(f, x0, *, tol: float = 1e-11) -> NewtonResult:
    """Newton with halving line search; iterates stay strictly positive.

    ``f(x)`` returns ``(F, J)``; a non-finite F or J raises NonConvergenceError
    at the start and rejects the candidate during the line search.  The
    reported condition number is that of J at the returned iterate.
    """
    x = np.asarray(x0, dtype=float).copy()
    fx, J, norm = _evaluate(f, x)
    if not np.isfinite(norm):
        raise NonConvergenceError(
            "newton: non-finite residual or Jacobian", last_iterate=x, residual=norm,
            iterations=0,
        )
    iterations = 0
    while norm > tol:
        if iterations == _MAX_ITERATIONS:
            raise NonConvergenceError(
                f"newton: residual {norm:.3e} after {_MAX_ITERATIONS} iterations",
                last_iterate=x, residual=norm, iterations=iterations,
            )
        try:
            step = np.linalg.solve(J, -fx)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(J, -fx, rcond=None)[0]
        scale = 1.0
        for _ in range(_MAX_HALVINGS):
            cand = x + scale * step
            if np.any(cand <= 0):
                scale *= 0.5
                continue
            f_cand, J_cand, cand_norm = _evaluate(f, cand)
            if cand_norm < norm:
                x, fx, J, norm = cand, f_cand, J_cand, cand_norm
                break
            scale *= 0.5
        else:
            raise NonConvergenceError(
                f"newton: stalled at residual {norm:.3e}", last_iterate=x, residual=norm,
                iterations=iterations,
            )
        iterations += 1
    return NewtonResult(x, norm, iterations, float(np.linalg.cond(J)))


def multistart_seeds(k: int) -> list[np.ndarray]:
    """Log-spaced diagonal seeds in [1e-2, 1e2]**k."""
    return [np.full(k, c) for c in np.geomspace(1e-2, 1e2, _RESTARTS)]


def solve_with_multistart(f, x0) -> NewtonResult:
    """Try x0 first, then the log-spaced restart seeds; raise if all fail."""
    starts = [np.asarray(x0, dtype=float)] + multistart_seeds(len(x0))
    failure: NonConvergenceError | None = None
    for start in starts:
        try:
            return damped_newton(f, start)
        except NonConvergenceError as exc:
            if failure is None or (exc.residual or np.inf) < (failure.residual or np.inf):
                failure = exc
    assert failure is not None
    raise failure
