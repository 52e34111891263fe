"""Asymptotic error of objective perturbation for ridge-regularized Huber
regression in the proportional regime d/n -> delta.

The limiting estimation error is characterized by two scalars (sigma*, tau*)
solving a pair of fixed-point equations whose expectations involve the
clipped residual variable (sigma*Z + eps0) / (1 + tau*).  Both expectations
have exact closed forms for mixtures of Gaussians and point masses; a
kink-aware Gauss-Legendre panel rule is kept for independent verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import newton, quadrature
from .errors import ConfigError
from .laws import ScalarLaw
from .scalars import clip, clipped_second_moment, interval_probability

MIN_LAMBDA = 1e-8


def residual_second_moment(sigma: float, tau: float, L: float, noise: ScalarLaw) -> float:
    """E[clip((sigma*Z + eps)/(1+tau), L)**2], exact per mixture component."""
    total = 0.0
    for w, loc, scale in zip(noise.weights, noise.locs, noise.scales):
        mu = loc / (1.0 + tau)
        s = np.hypot(sigma, scale) / (1.0 + tau)
        total += w * float(clipped_second_moment(mu, s, L))
    return total


def residual_interval_probability(sigma: float, tau: float, L: float, noise: ScalarLaw) -> float:
    """P(|(sigma*Z + eps)/(1+tau)| < L), exact per mixture component."""
    total = 0.0
    for w, loc, scale in zip(noise.weights, noise.locs, noise.scales):
        mu = loc / (1.0 + tau)
        s = np.hypot(sigma, scale) / (1.0 + tau)
        total += w * float(interval_probability(mu, s, L))
    return total


def system_residual(
    sigma: float,
    tau: float,
    *,
    delta: float,
    lam: float,
    nu: float,
    L: float,
    kappa_sq: float,
    noise: ScalarLaw,
) -> np.ndarray:
    """Residuals of the two fixed-point equations at (sigma, tau)."""
    j2 = residual_second_moment(sigma, tau, L, noise)
    prob = residual_interval_probability(sigma, tau, L, noise)
    f1 = sigma**2 - tau**2 * (j2 / delta + lam**2 * kappa_sq + nu**2)
    f2 = tau - (delta - tau / (1.0 + tau) * prob) / (lam * delta)
    return np.array([f1, f2])


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
    nodes: int = quadrature.DEFAULT_NODES_1D,
) -> np.ndarray:
    """Same residuals evaluated by an independent discretization.

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
        x, w = quadrature.legendre_rule(max(8, nodes // 3))
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


@dataclass(frozen=True)
class HuberSolution:
    """Solved (sigma*, tau*) with input echo and solver diagnostics."""

    sigma_star: float
    tau_star: float
    residual_norm: float
    delta: float
    lam: float
    nu: float
    L: float
    kappa_sq: float
    signal: ScalarLaw
    noise: ScalarLaw
    iterations: int = 0
    condition_number: float = float("nan")

    def as_dict(self) -> dict:
        return {
            "sigma_star": self.sigma_star,
            "tau_star": self.tau_star,
            "residual_norm": self.residual_norm,
            "delta": self.delta,
            "lambda": self.lam,
            "nu": self.nu,
            "L": self.L,
            "kappa_sq": self.kappa_sq,
            "iterations": self.iterations,
            "condition_number": self.condition_number,
        }


def _validate(delta: float, lam: float, nu: float, L: float) -> None:
    if delta <= 0:
        raise ConfigError("solve_huber_system: delta must be > 0")
    if lam < MIN_LAMBDA:
        raise ConfigError(f"solve_huber_system: lam below the {MIN_LAMBDA} conditioning floor")
    if nu < 0:
        raise ConfigError("solve_huber_system: nu must be >= 0")
    if L <= 0:
        raise ConfigError("solve_huber_system: L must be > 0")


def solve_huber_system(
    delta: float,
    lam: float,
    nu: float,
    L: float,
    signal: ScalarLaw,
    noise: ScalarLaw,
    *,
    initial: tuple[float, float] | None = None,
) -> HuberSolution:
    """Solve the two-equation system for (sigma*, tau*).

    ``initial`` warm-starts the Newton iteration (grid sweeps pass the
    previous grid point's solution to stay on the continuous branch).
    """
    _validate(delta, lam, nu, L)
    kappa_sq = signal.second_moment
    kappa = float(np.sqrt(kappa_sq))

    def f(x: np.ndarray) -> np.ndarray:
        return system_residual(
            x[0], x[1], delta=delta, lam=lam, nu=nu, L=L, kappa_sq=kappa_sq, noise=noise
        )

    x0 = np.asarray(initial, dtype=float) if initial is not None else np.array(
        [max(kappa, 1e-2), 1.0 / (2.0 * lam + 1.0)]
    )
    res = newton.solve_with_multistart(f, x0)
    return HuberSolution(
        sigma_star=float(res.x[0]),
        tau_star=float(res.x[1]),
        residual_norm=res.residual_norm,
        delta=delta,
        lam=lam,
        nu=nu,
        L=L,
        kappa_sq=kappa_sq,
        signal=signal,
        noise=noise,
        iterations=res.iterations,
        condition_number=res.condition_number,
    )


def huber_predictions(sol: HuberSolution) -> dict[str, float]:
    """Predicted empirical metrics under the limiting laws at (sigma*, tau*)."""
    return {
        "estimation_error": sol.sigma_star**2,
        "bias": (1.0 - sol.tau_star * sol.lam) * sol.kappa_sq,
        "xi_correlation": -sol.tau_star * sol.nu,
        "truncated_residual": residual_second_moment(sol.sigma_star, sol.tau_star, sol.L, sol.noise),
    }


def effective_noise_scale(sol: HuberSolution) -> float:
    """sqrt((1/delta) * E[clip((sigma*Z+eps)/(1+tau*), L)**2]), the Gaussian
    width of the estimation-error law."""
    j2 = residual_second_moment(sol.sigma_star, sol.tau_star, sol.L, sol.noise)
    return float(np.sqrt(j2 / sol.delta))


def limit_triple_moment(sol: HuberSolution, fn, *, nodes: int = 48) -> float:
    """E[fn(signal0, xi0, err0)] under the limiting law of
    (signal coordinate, perturbation coordinate, estimation error coordinate):
    err0 = tau* (sv*Z - lam*signal0 - nu*xi0) with sv = effective_noise_scale.

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


def residual_pair_moment(sol: HuberSolution, fn, *, nodes: int = quadrature.DEFAULT_NODES_1D) -> float:
    """E[fn(eps0, clip((sigma*Z + eps0)/(1+tau*), L))] under the residual law."""
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

