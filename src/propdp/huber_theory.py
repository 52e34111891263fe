"""Asymptotic error of objective perturbation for ridge-regularized Huber
regression in the proportional regime d/n -> delta.

The limiting estimation error is characterized by two scalars (sigma*, tau*)
solving a pair of fixed-point equations whose expectations involve the
clipped residual variable (sigma*Z + eps0) / (1 + tau*).  Both expectations
have exact closed forms for mixtures of Gaussians and point masses; the
tests re-check them with a kink-aware Gauss-Legendre panel rule.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import newton
from .errors import ConfigError
from .laws import ScalarLaw
from .newton import MIN_LAMBDA
from .scalars import clipped_moments


def _clipped_residual(sigma: float, tau: float, L: float, noise: ScalarLaw):
    """(E[clip(r, L)**2], P(|r| < L)) for r = (sigma*Z + eps)/(1+tau), exact
    per mixture component, and their gradient in (sigma, tau) as a 2x2 array."""
    values, grad = np.zeros(2), np.zeros((2, 2))
    for w, loc, scale in zip(noise.weights, noise.locs, noise.scales):
        hyp = float(np.hypot(sigma, scale))
        mu, s = loc / (1.0 + tau), hyp / (1.0 + tau)
        moments, moment_grad = clipped_moments(mu, s, L)
        values += w * np.array(moments)
        # d(mu, s)/d(sigma, tau)
        chain = np.array([[0.0, -mu], [sigma / hyp if hyp > 0 else 0.0, -s]]) / (1.0 + tau)
        grad += w * moment_grad @ chain
    return values, grad


def residual_second_moment(sigma: float, tau: float, L: float, noise: ScalarLaw) -> float:
    """E[clip((sigma*Z + eps)/(1+tau), L)**2], exact per mixture component."""
    return float(_clipped_residual(sigma, tau, L, noise)[0][0])


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
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the two fixed-point equations at (sigma, tau), and their
    Jacobian in (sigma, tau)."""
    (j2, prob), (dj2, dprob) = _clipped_residual(sigma, tau, L, noise)
    level = j2 / delta + lam**2 * kappa_sq + nu**2
    f1 = sigma**2 - tau**2 * level
    f2 = tau - (delta - tau / (1.0 + tau) * prob) / (lam * delta)
    scale = 1.0 / (lam * delta)
    jac = np.array([
        [2.0 * sigma, -2.0 * tau * level] - tau**2 / delta * dj2,
        [0.0, 1.0 + scale * prob / (1.0 + tau) ** 2] + scale * tau / (1.0 + tau) * dprob,
    ])
    return np.array([f1, f2]), jac


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
        """The JSON echo: every field but the two laws, with lam as "lambda"."""
        return {
            "lambda" if f.name == "lam" else f.name: getattr(self, f.name)
            for f in fields(self)
            if not isinstance(getattr(self, f.name), ScalarLaw)
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

    def f(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
