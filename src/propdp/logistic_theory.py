"""Asymptotic error of objective perturbation for ridge-regularized logistic
regression in the proportional regime d/n -> delta.

Three scalars (alpha*, sigma*, gamma*) solve a fixed-point system whose
expectations run over two independent standard normals, with the logistic
prox evaluated at every quadrature node.  The label variable enters through
the two Bernoulli branches weighted by sigmoid(+/- kappa Z1).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import newton, quadrature
from .errors import ConfigError, NumericError
from .newton import MIN_LAMBDA
from .scalars import (
    logistic_rho_prime,
    logistic_rho_second,
    prox_logistic,
)


def _label_weights(kappa: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The rule's weights times the label terms 2*rho'(-kappa*z1) and
    2*rho''(-kappa*z1), which depend on kappa alone: a solve builds them once."""
    z1, _, w = quadrature.standard_normal_rule_2d(nodes)
    return 2.0 * logistic_rho_prime(-kappa * z1) * w, 2.0 * logistic_rho_second(-kappa * z1) * w


def _expectations(
    alpha: float, sigma: float, gamma: float, kappa: float, nodes: int,
    weights: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The three 2-D expectations of the system at (alpha, sigma, gamma), and
    their gradient (rows: expectations; columns: alpha, sigma, gamma).
    ``weights`` is ``_label_weights(kappa, nodes)``, built here when None.

    One prox evaluation serves both: with D = 1/(1 + gamma*rho''(p)),
    dp/darg = D, dp/dgamma = -rho'(p)*D and rho''' = rho''*(1 - 2*rho').
    """
    z1, z2, _ = quadrature.standard_normal_rule_2d(nodes)
    weight, label_weight = weights or _label_weights(kappa, nodes)
    p = prox_logistic(kappa * alpha * z1 + sigma * z2, gamma)
    rp = logistic_rho_prime(p)
    rpp = rp * (1.0 - rp)
    D = 1.0 / (1.0 + gamma * rpp)
    e = np.array([np.dot(weight, rp * rp), np.dot(label_weight, p), np.dot(weight, D)])
    # each integrand's derivative in p, times dp/darg = D
    along_p = D * np.stack([
        2.0 * weight * rp * rpp, label_weight, -weight * D * D * gamma * rpp * (1.0 - 2.0 * rp)
    ])
    grad = along_p @ np.stack([kappa * z1, z2, -rp]).T
    grad[2, 2] -= np.dot(weight, D * D * rpp)
    return e, grad


def system_residual(
    alpha: float,
    sigma: float,
    gamma: float,
    *,
    delta: float,
    lam: float,
    nu: float,
    kappa: float,
    nodes: int = quadrature.DEFAULT_NODES_2D,
    weights: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the three fixed-point equations at (alpha, sigma, gamma),
    and their Jacobian in (alpha, sigma, gamma); ``weights`` as in ``_expectations``."""
    (e1, e2, e3), grad = _expectations(alpha, sigma, gamma, kappa, nodes, weights)
    f1 = sigma**2 - gamma**2 * (e1 / delta + nu**2)
    f2 = alpha + e2 / delta
    f3 = gamma - (delta - 1.0 + e3) / (lam * delta)
    jac = np.array([[-(gamma**2) / delta], [1.0 / delta], [-1.0 / (lam * delta)]]) * grad
    jac += [[0.0, 2.0 * sigma, -2.0 * gamma * (e1 / delta + nu**2)], [1, 0, 0], [0, 0, 1]]
    return np.array([f1, f2, f3]), jac


@dataclass(frozen=True)
class LogisticSolution:
    """Solved (alpha*, sigma*, gamma*) with input echo and diagnostics."""

    alpha_star: float
    sigma_star: float
    gamma_star: float
    residual_norm: float
    delta: float
    lam: float
    nu: float
    kappa: float
    iterations: int = 0
    condition_number: float = float("nan")

    def __post_init__(self):
        if self.sigma_star < self.gamma_star * self.nu - 1e-9:
            raise NumericError("LogisticSolution: sigma* < gamma*·nu (no valid error law)")

    def as_dict(self) -> dict:
        """The JSON echo: every field, with lam as "lambda"."""
        return {
            "lambda" if f.name == "lam" else f.name: getattr(self, f.name) for f in fields(self)
        }


def solve_logistic_system(
    delta: float,
    lam: float,
    nu: float,
    kappa: float,
    *,
    initial: tuple[float, float, float] | None = None,
) -> LogisticSolution:
    """Solve the three-equation system for (alpha*, sigma*, gamma*)."""
    if delta <= 0:
        raise ConfigError("solve_logistic_system: delta must be > 0")
    if lam < MIN_LAMBDA:
        raise ConfigError(f"solve_logistic_system: lam below the {MIN_LAMBDA} conditioning floor")
    if nu < 0:
        raise ConfigError("solve_logistic_system: nu must be >= 0")
    if kappa <= 0:
        raise ConfigError("solve_logistic_system: kappa must be > 0")

    weights = _label_weights(kappa, quadrature.DEFAULT_NODES_2D)

    def f(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return system_residual(*x, delta=delta, lam=lam, nu=nu, kappa=kappa, weights=weights)

    x0 = np.asarray(initial, dtype=float) if initial is not None else np.array(
        [1.0, kappa, 1.0 / (2.0 * lam + 1.0)]
    )
    res = newton.solve_with_multistart(f, x0)
    return LogisticSolution(
        alpha_star=float(res.x[0]),
        sigma_star=float(res.x[1]),
        gamma_star=float(res.x[2]),
        residual_norm=res.residual_norm,
        delta=delta,
        lam=lam,
        nu=nu,
        kappa=kappa,
        iterations=res.iterations,
        condition_number=res.condition_number,
    )


def rho_prime_difference(sol: LogisticSolution) -> float:
    """E[(sigmoid(kappa Z1) - v0)**2] where v0 is the limiting value of the
    fitted success probability sigmoid(<x, beta_hat>).

    v0 = sigmoid(prox_{gamma* rho}(alpha* kappa Z1 + sigma* Z2 + gamma* y0)) with
    y0 | Z1 ~ Bernoulli(sigmoid(kappa Z1)); both label branches are integrated
    with their conditional weights.
    """
    z1, z2, w = quadrature.standard_normal_rule_2d(quadrature.DEFAULT_NODES_2D)
    target = logistic_rho_prime(sol.kappa * z1)
    arg = sol.alpha_star * sol.kappa * z1 + sol.sigma_star * z2
    v_pos = logistic_rho_prime(prox_logistic(arg + sol.gamma_star, sol.gamma_star))
    v_neg = logistic_rho_prime(prox_logistic(arg, sol.gamma_star))
    branch = target * (target - v_pos) ** 2 + (1.0 - target) * (target - v_neg) ** 2
    return float(np.dot(w, branch))


def logistic_predictions(
    sol: LogisticSolution, metrics: tuple[str, ...] | None = None
) -> dict[str, float]:
    """Predicted empirical metrics under the limiting laws.  ``rho_diff``,
    the only one that evaluates the prox, is left out unless ``metrics`` is
    None or names it."""
    kappa_sq = sol.kappa**2
    preds = {
        "estimation_error": (1.0 - sol.alpha_star) ** 2 * kappa_sq + sol.sigma_star**2,
        "bias": sol.alpha_star * kappa_sq,
        "xi_correlation": -sol.gamma_star * sol.nu,
    }
    if metrics is None or "rho_diff" in metrics:
        preds["rho_diff"] = rho_prime_difference(sol)
    return preds

