"""The three private learners on finite data, plus the deterministic convex
optimizer they share.

All objectives have the form

    F(beta) = sum_i loss(<x_i, beta>, y_i) + (lam/2)||beta||^2 + nu*<xi, beta>

which is lam-strongly convex, so damped Newton on the curvature
X'WX + lam*I (W the per-sample second derivatives of the loss; for Huber the
semismooth 0/1 indicator of the quadratic zone) with an Armijo backtracking
line search converges in a handful of steps.  When d > n the Newton system is
solved through the Woodbury identity on an n x n matrix.  Every fit stops only
on the certificate ||grad F|| <= 1e-9 * max(1, n).  Perturbation vectors come
from counter-based streams keyed by (seed, purpose tag), never by the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonConvergenceError
from .losses import MarginLoss
from .rng import box_muller, stream

ARMIJO_SLOPE = 1e-4
MAX_HALVINGS = 40
MAX_NEWTON_STEPS = 50
GRADIENT_TOL_SCALE = 1e-9


@dataclass(frozen=True)
class Dataset:
    """Feature rows with a verified norm bound and a matching label vector."""

    X: np.ndarray
    y: np.ndarray
    feature_radius: float

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ConfigError("Dataset: X must be a nonempty n x d matrix")
        if y.shape != (X.shape[0],):
            raise ConfigError("Dataset: y must have one entry per row of X")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ConfigError("Dataset: non-finite entries")
        if self.feature_radius <= 0:
            raise ConfigError("Dataset: feature_radius must be > 0")
        row_norms = np.linalg.norm(X, axis=1)
        worst = float(row_norms.max())
        if worst > self.feature_radius + 1e-9:
            raise ConfigError(
                f"Dataset: row norm {worst:.6g} exceeds feature_radius "
                f"{self.feature_radius:.6g}"
            )
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class FitResult:
    """Fitted coefficients with the perturbation draw and optimizer evidence.

    For output perturbation, `beta_tilde` is the unperturbed minimizer and
    `grad_norm`/`objective_value` certify that inner solve; for objective
    perturbation, `beta_tilde` equals `beta_hat`.
    """

    beta_hat: np.ndarray
    beta_tilde: np.ndarray
    xi: np.ndarray
    grad_norm: float
    iterations: int
    objective_value: float


def _minimize(
    data: Dataset, loss: MarginLoss, lam: float, nu: float, xi: np.ndarray
) -> tuple[np.ndarray, float, int, float]:
    """Damped Newton with Armijo backtracking on the perturbed objective."""
    X, y = data.X, data.y
    n, d = X.shape
    tol = GRADIENT_TOL_SCALE * max(1.0, n)

    def objective(margins: np.ndarray, beta: np.ndarray) -> float:
        return float(
            loss.values(margins, y).sum()
            + 0.5 * lam * (beta @ beta)
            + nu * (xi @ beta)
        )

    def gradient(margins: np.ndarray, beta: np.ndarray) -> np.ndarray:
        return X.T @ loss.gradients(margins, y) + lam * beta + nu * xi

    def newton_step(margins: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Solve (X'WX + lam*I) p = -grad; by Woodbury on Xs = sqrt(W) X when
        d > n, which needs no inverse of W and so allows zero weights."""
        weights = loss.curvatures(margins, y)
        if d <= n:
            hessian = (X.T * weights) @ X
            hessian.flat[:: d + 1] += lam
            return -np.linalg.solve(hessian, grad)
        scaled = np.sqrt(weights)[:, None] * X
        kernel = scaled @ scaled.T
        kernel.flat[:: n + 1] += lam
        return (scaled.T @ np.linalg.solve(kernel, scaled @ grad) - grad) / lam

    beta, margins = np.zeros(d), np.zeros(n)
    value, grad = objective(margins, beta), gradient(margins, beta)
    norm = float(np.linalg.norm(grad))
    iterations = 0
    while norm > tol:
        if iterations == MAX_NEWTON_STEPS:
            raise NonConvergenceError(
                "Newton hit the iteration cap", last_iterate=beta, residual=norm
            )
        step = newton_step(margins, grad)
        slope = ARMIJO_SLOPE * float(grad @ step)
        # Near the optimum F changes by less than its rounding error and the
        # Armijo test would stall, so a step that moves F by no more than a
        # few ulps is also taken when it shrinks the gradient norm.
        rounding = 8.0 * np.finfo(float).eps * max(1.0, abs(value))
        scale = 1.0
        for _ in range(MAX_HALVINGS):
            trial = beta + scale * step
            trial_margins = X @ trial
            trial_value = objective(trial_margins, trial)
            armijo = trial_value <= value + scale * slope
            if armijo or trial_value <= value + rounding:
                trial_grad = gradient(trial_margins, trial)
                trial_norm = float(np.linalg.norm(trial_grad))
                if armijo or trial_norm < norm:
                    break
            scale *= 0.5
        else:
            raise NonConvergenceError(
                "Newton line search stalled", last_iterate=beta, residual=norm
            )
        beta, margins, value = trial, trial_margins, trial_value
        grad, norm = trial_grad, trial_norm
        iterations += 1
    return beta, norm, iterations, value


def _draw_xi(seed: int, tag: str, d: int) -> np.ndarray:
    return box_muller(stream(seed, tag), d)


def fit_objective_perturbation(
    data: Dataset, loss: MarginLoss, lam: float, nu: float, seed: int
) -> FitResult:
    """Minimize the regularized objective with a random linear tilt nu*<xi, beta>."""
    if lam <= 0:
        raise ConfigError("fit_objective_perturbation: lam must be > 0")
    if nu < 0:
        raise ConfigError("fit_objective_perturbation: nu must be >= 0")
    xi = _draw_xi(seed, "objective-perturbation-xi", data.d)
    beta, norm, iterations, value = _minimize(data, loss, lam, nu, xi)
    return FitResult(
        beta_hat=beta,
        beta_tilde=beta,
        xi=xi,
        grad_norm=norm,
        iterations=iterations,
        objective_value=value,
    )


def fit_output_perturbation(
    data: Dataset, loss: MarginLoss, lam: float, nu: float, seed: int
) -> FitResult:
    """Minimize the unperturbed regularized objective, then add nu*xi."""
    if lam <= 0:
        raise ConfigError("fit_output_perturbation: lam must be > 0")
    if nu < 0:
        raise ConfigError("fit_output_perturbation: nu must be >= 0")
    xi = _draw_xi(seed, "output-perturbation-xi", data.d)
    beta, norm, iterations, value = _minimize(
        data, loss, lam, 0.0, np.zeros(data.d)
    )
    return FitResult(
        beta_hat=beta + nu * xi,
        beta_tilde=beta,
        xi=xi,
        grad_norm=norm,
        iterations=iterations,
        objective_value=value,
    )


def run_noisy_gd(
    data: Dataset,
    loss: MarginLoss,
    step_size: float,
    nu: float,
    steps: int,
    seed: int,
) -> np.ndarray:
    """Noisy full-batch gradient descent from zero; returns all T+1 iterates.

    Each step subtracts step_size times the summed (not averaged) per-sample
    gradient plus fresh Gaussian noise: no ridge term is involved.
    """
    if not loss.is_conditional_expectation:
        raise ConfigError(
            "run_noisy_gd: requires a conditional-expectation loss family"
        )
    if step_size <= 0:
        raise ConfigError("run_noisy_gd: step_size must be > 0")
    if nu < 0:
        raise ConfigError("run_noisy_gd: nu must be >= 0")
    if steps < 1:
        raise ConfigError("run_noisy_gd: steps must be >= 1")
    X, y = data.X, data.y
    trajectory = np.zeros((steps + 1, data.d))
    beta = np.zeros(data.d)
    for t in range(steps):
        grad = X.T @ loss.gradients(X @ beta, y)
        if nu > 0:
            grad = grad + nu * box_muller(stream(seed, "noisy-gd-xi", t), data.d)
        beta = beta - step_size * grad
        trajectory[t + 1] = beta
    return trajectory
