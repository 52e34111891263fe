"""Test-side reference code that the runtime package does not need.

The package solves with closed-form Jacobians only; the helpers here give
tests an independent view: a central-difference Jacobian, root enumeration
over a wide start set, the Huber prox and the prox derivative, the closed
form of the centred clipped Gaussian second moment, the doubled-node
(Gauss-Legendre panel) residual of the Huber system, quadrature
expectations and limit-law moments, and first-order gradient descent as the
reference for the Newton learner.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from propdp import quadrature
from propdp.erm import GRADIENT_TOL_SCALE
from propdp.errors import NonConvergenceError
from propdp.huber_theory import HuberSolution, _clipped_residual, residual_second_moment
from propdp.laws import ScalarLaw
from propdp.losses import HuberLoss
from propdp.newton import damped_newton, multistart_seeds
from propdp.privacy import GlmSensitivity
from propdp.rng import box_muller, stream
from propdp.scalars import (
    clip,
    clipped_second_moment,
    gaussian_cdf,
    gaussian_pdf,
    logistic_rho_second,
    prox_logistic,
)

_JACOBIAN_REL_STEP = 1e-6

# node count of the one-dimensional Gauss-Hermite rule behind the expectations here
DEFAULT_NODES_1D = 120


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


def enumerate_roots(f, x0, *, tol: float = 1e-11) -> list:
    """All distinct converged roots across the start set (1e-6 relative dedup).

    ``f(x)`` returns ``(F, J)`` as for ``damped_newton``.  Starts from x0,
    the diagonal restart seeds, and the staggered cross-product seeds;
    non-converging starts are skipped.
    """
    starts = [np.asarray(x0, dtype=float)] + multistart_seeds(len(x0)) + staggered_seeds(len(x0))
    roots = []
    for start in starts:
        try:
            res = damped_newton(f, start, tol=tol)
        except NonConvergenceError:
            continue
        if not any(np.allclose(res.x, r.x, rtol=1e-6, atol=1e-9) for r in roots):
            roots.append(res)
    return roots


def prox_huber(s, tau, L):
    """prox of tau * Huber_L: minimizes 0.5*(y-s)**2 + tau*H_L(y).

    Uses the identity s - prox(s) = tau * clip(s / (1 + tau), L).
    """
    s = np.asarray(s, dtype=float)
    return s - tau * clip(s / (1.0 + tau), L)


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


def normal(seed: int, tag: str, *indices: int, size) -> np.ndarray:
    """Standard normal draws from the (seed, tag, *indices) stream."""
    return box_muller(stream(seed, tag, *indices), size)


def expect(fn, n: int = DEFAULT_NODES_1D) -> float:
    """E[fn(Z)] for Z ~ N(0,1)."""
    z, w = quadrature.standard_normal_rule(n)
    return float(np.dot(w, fn(z)))


def expect2d(fn, n: int = quadrature.DEFAULT_NODES_2D) -> float:
    """E[fn(Z1, Z2)] for independent standard normals."""
    z1, z2, w = quadrature.standard_normal_rule_2d(n)
    return float(np.dot(w, fn(z1, z2)))


def law_expect(fn, law: ScalarLaw, n: int = DEFAULT_NODES_1D) -> float:
    """E[fn(X)] for X ~ law, exact over point masses, GH over Gaussians."""
    z, w = quadrature.standard_normal_rule(n)
    total = 0.0
    for weight, loc, scale in zip(law.weights, law.locs, law.scales):
        if scale == 0.0:
            total += weight * float(np.asarray(fn(np.asarray([loc])))[0])
        else:
            total += weight * float(np.dot(w, fn(loc + scale * z)))
    return total


def law_clipped_second_moment(m, law: ScalarLaw, L) -> np.ndarray:
    """E[clip(m + eps, L)**2] with eps ~ law."""
    m = np.asarray(m, dtype=float)
    total = np.zeros_like(m)
    for w, loc, scale in zip(law.weights, law.locs, law.scales):
        total = total + w * clipped_second_moment(m + loc, scale, L)
    return total


@lru_cache(maxsize=64)
def legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on (-1, 1)."""
    x, w = leggauss(n)
    for arr in (x, w):
        arr.setflags(write=False)
    return x, w


# Standardized truncation for the panel rule below; the omitted Gaussian
# tail mass is ~1e-23, far below any tolerance the rule is used with.
_PANEL_TAIL = 10.0


def system_residual_quadrature(
    sigma: float,
    tau: float,
    *,
    delta: float,
    lam: float,
    nu: float,
    L: float,
    kappa_sq: float,
    noise: ScalarLaw,
    nodes: int = DEFAULT_NODES_1D,
) -> np.ndarray:
    """The residuals of ``huber_theory.system_residual`` evaluated by an
    independent discretization.

    Per mixture component the residual (sigma*Z + eps)/(1+tau) is a single
    Gaussian, and its clipped moments are integrated by Gauss-Legendre
    panels split exactly at the clip boundaries +/-L, where the integrands
    stop being smooth.  No closed-form moment identities are shared with
    ``system_residual``, so this path re-checks solutions end to end.
    """
    j2 = 0.0
    prob = 0.0
    for wc, loc, scale in zip(noise.weights, noise.locs, noise.scales):
        m = loc / (1.0 + tau)
        s = float(np.hypot(sigma, scale)) / (1.0 + tau)
        if s == 0.0:
            j2 += wc * float(clip(m, L)) ** 2
            prob += wc * float(abs(m) < L)
            continue
        lo = float(np.clip((-L - m) / s, -_PANEL_TAIL, _PANEL_TAIL))
        hi = float(np.clip((L - m) / s, -_PANEL_TAIL, _PANEL_TAIL))
        x, w = legendre_rule(max(8, nodes // 3))
        for a, b in ((-_PANEL_TAIL, lo), (lo, hi), (hi, _PANEL_TAIL)):
            if b <= a:
                continue
            t = 0.5 * (b - a) * x + 0.5 * (a + b)
            dens = 0.5 * (b - a) * w * np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)
            u = m + s * t
            j2 += wc * float(np.dot(dens, clip(u, L) ** 2))
            prob += wc * float(np.dot(dens, (np.abs(u) < L).astype(float)))
    f1 = sigma**2 - tau**2 * (j2 / delta + lam**2 * kappa_sq + nu**2)
    f2 = tau - (delta - tau / (1.0 + tau) * prob) / (lam * delta)
    return np.array([f1, f2])


def residual_interval_probability(sigma: float, tau: float, L: float, noise: ScalarLaw) -> float:
    """P(|(sigma*Z + eps)/(1+tau)| < L), exact per mixture component."""
    return float(_clipped_residual(sigma, tau, L, noise)[0][1])


def effective_noise_scale(sol: HuberSolution) -> float:
    """sqrt((1/delta) * E[clip((sigma*Z+eps)/(1+tau*), L)**2]), the Gaussian
    width of the estimation-error law."""
    j2 = residual_second_moment(sol.sigma_star, sol.tau_star, sol.L, sol.noise)
    return float(np.sqrt(j2 / sol.delta))


def limit_triple_moment(sol, fn, *, nodes: int = 48) -> float:
    """E[fn(signal0, xi0, err0)] under the limiting law of
    (signal coordinate, perturbation coordinate, estimation error coordinate)
    of a HuberSolution: err0 = tau* (sv*Z - lam*signal0 - nu*xi0) with
    sv = effective_noise_scale.

    ``fn`` must be vectorized (pseudo-Lipschitz test functions in practice).
    """
    sv = effective_noise_scale(sol)
    z, w = quadrature.standard_normal_rule(nodes)
    # tensor over (signal component draw, xi, z)
    total = 0.0
    for wc, loc, scale in zip(sol.signal.weights, sol.signal.locs, sol.signal.scales):
        if scale == 0.0:
            b = np.array([loc])
            wb = np.array([1.0])
        else:
            b = loc + scale * z
            wb = w
        B, X, Z = np.meshgrid(b, z, z, indexing="ij")
        W = wb[:, None, None] * w[None, :, None] * w[None, None, :]
        err = sol.tau_star * (sv * Z - sol.lam * B - sol.nu * X)
        total += wc * float(np.sum(W * fn(B, X, err)))
    return total


def residual_pair_moment(sol, fn, *, nodes: int = DEFAULT_NODES_1D) -> float:
    """E[fn(eps0, clip((sigma*Z + eps0)/(1+tau*), L))] under the residual law
    of a HuberSolution."""
    z, w = quadrature.standard_normal_rule(nodes)
    total = 0.0
    for wc, loc, scale in zip(sol.noise.weights, sol.noise.locs, sol.noise.scales):
        if scale == 0.0:
            eps = np.full_like(z, loc)
            weights = w
            zz = z
        else:
            eps = (loc + scale * z)[:, None] * np.ones_like(z)[None, :]
            zz = np.ones_like(z)[:, None] * z[None, :]
            weights = np.outer(w, w)
        trunc = clip((sol.sigma_star * zz + eps) / (1.0 + sol.tau_star), sol.L)
        total += wc * float(np.sum(weights * fn(eps, trunc)))
    return total


def gradient_descent_minimize(data, loss, lam, nu, xi, *, tol_scale=GRADIENT_TOL_SCALE):
    """Full-batch gradient descent with Armijo backtracking on the perturbed
    objective, stopping at ||grad F|| <= tol_scale * max(1, n); returns
    (beta, grad norm, iterations, objective value).

    The first-order reference for the Newton learner: from step 2/(lam +
    s*||X||_2^2), with s the loss's ``GlmSensitivity`` smoothness, it halves
    on failed sufficient decrease, and at or below half that step the
    descent lemma guarantees progress, so the test is skipped there (near
    the optimum it compares values below float64 resolution and would
    stall).
    """
    X, y = data.X, data.y
    tol = tol_scale * max(1.0, data.n)
    glm = GlmSensitivity.huber(loss.L) if isinstance(loss, HuberLoss) else GlmSensitivity.logistic()
    step0 = 2.0 / (lam + glm.smoothness * float(np.linalg.norm(X, 2)) ** 2)

    def objective(beta):
        return float(loss.values(X @ beta, y).sum() + 0.5 * lam * (beta @ beta) + nu * (xi @ beta))

    def gradient(beta):
        return X.T @ loss.gradients(X @ beta, y) + lam * beta + nu * xi

    beta = np.zeros(data.d)
    value = objective(beta)
    for iteration in range(1_000_000):
        grad = gradient(beta)
        norm = float(np.linalg.norm(grad))
        if norm <= tol:
            return beta, norm, iteration, value
        step = step0
        while True:
            trial = beta - step * grad
            trial_value = objective(trial)
            if trial_value <= value - step * 1e-4 * norm**2 or step <= 0.5 * step0:
                beta, value = trial, trial_value
                break
            step *= 0.5
    raise NonConvergenceError("gradient descent hit the iteration cap", last_iterate=beta, residual=norm)
