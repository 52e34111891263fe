"""Test-side reference code that the runtime package does not need.

The package solves with closed-form Jacobians only; the helpers here give
tests an independent view: a central-difference Jacobian, root enumeration
over a wide start set, the prox derivative, and the closed form of the
centred clipped Gaussian second moment.
"""

from __future__ import annotations

import numpy as np

from propdp.errors import NonConvergenceError
from propdp.newton import damped_newton, multistart_seeds
from propdp.scalars import gaussian_cdf, gaussian_pdf, logistic_rho_second, prox_logistic

_JACOBIAN_REL_STEP = 1e-6


def central_difference_jacobian(f, x) -> np.ndarray:
    """Jacobian of the residual-only map ``f`` at x by central differences
    (relative step 1e-6, floored at 1e-8 absolute)."""
    x = np.asarray(x, dtype=float)
    columns = []
    for j in range(x.size):
        h = _JACOBIAN_REL_STEP * max(abs(x[j]), 1e-2)
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        columns.append((np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * h))
    return np.stack(columns, axis=1)


def staggered_seeds(k: int, levels: int = 4) -> list[np.ndarray]:
    """Log-spaced cross-product seeds over [1e-2, 1e2]**k.

    Diagonal seeds alone cannot reach the off-diagonal roots of
    coordinate-symmetric systems (the Jacobian is singular on the diagonal
    and Newton stays confined to it), so enumeration also starts from
    every combination of per-coordinate levels.
    """
    axis = np.geomspace(1e-2, 1e2, levels)
    grids = np.meshgrid(*([axis] * k), indexing="ij")
    return list(np.stack([g.ravel() for g in grids], axis=1))


def enumerate_roots(f, x0, *, tol: float = 1e-11, positive: bool = True) -> list:
    """All distinct converged roots across the start set (1e-6 relative dedup).

    ``f(x)`` returns ``(F, J)`` as for ``damped_newton``.  Starts from x0,
    the diagonal restart seeds, and the staggered cross-product seeds;
    non-converging starts are skipped.
    """
    starts = [np.asarray(x0, dtype=float)] + multistart_seeds(len(x0)) + staggered_seeds(len(x0))
    roots = []
    for start in starts:
        try:
            res = damped_newton(f, start, tol=tol, positive=positive)
        except NonConvergenceError:
            continue
        if not any(np.allclose(res.x, r.x, rtol=1e-6, atol=1e-9) for r in roots):
            roots.append(res)
    return roots


def prox_logistic_derivative(x, gamma):
    """Derivative of prox_logistic in x: 1/(1 + gamma*rho''(prox))."""
    if gamma == 0.0:
        return np.ones_like(np.asarray(x, dtype=float))
    p = prox_logistic(x, gamma)
    return 1.0 / (1.0 + gamma * logistic_rho_second(p))


def truncated_second_moment(s, L):
    """E[clip(s*Z, L)**2] for Z ~ N(0,1), in closed form; s = 0 gives 0."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise ValueError("truncated_second_moment: s must be >= 0")
    safe = np.where(s > 0, s, 1.0)
    r = L / safe
    val = safe * safe * (2.0 * gaussian_cdf(r) - 1.0) - 2.0 * safe * L * gaussian_pdf(r) + 2.0 * L * L * (
        1.0 - gaussian_cdf(r)
    )
    return np.where(s > 0, val, 0.0)
