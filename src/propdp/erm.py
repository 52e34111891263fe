"""The three private learners on finite data, plus the deterministic convex
optimizer they share.

All objectives have the form

    F(beta) = sum_i loss(<x_i, beta>, y_i) + (lam/2)||beta||^2 + nu*<xi, beta>

which is lam-strongly convex, so damped Newton on the curvature
X'WX + lam*I (W the per-sample second derivatives of the loss; for Huber the
semismooth 0/1 indicator of the quadratic zone) converges in a handful of
steps; when d > n the Newton system is solved through the Woodbury identity
on an n x n matrix.  The one merit is ||grad F||: the first step length s in
1, 1/2, 1/4, ... that shrinks it by the factor 1 - 1e-4*s is taken (along
the Newton direction (1/2)||grad F||^2 falls at the rate ||grad F||^2), so a
fit never evaluates the loss.  Every fit stops only on the certificate
||grad F|| <= 1e-9 * max(1, n, ||grad F(0)||), grad F(0) being the gradient
at the zero start; a certified point lies within ||grad F||/lam of the exact
minimizer that objective perturbation's privacy guarantee assumes
(Chaudhuri, Monteleoni & Sarwate, JMLR 2011).  The ||grad F(0)|| term, the
scale of X'y, keeps the bound above the rounding of X'g for large labels;
at ordinary scales max(1, n) governs.  Perturbation vectors come from
counter-based streams keyed by (seed, purpose tag), never by the data.

Noisy GD runs a block of replicates as one stack of designs (a single
replicate is a stack of one): elementwise work runs once per block, the
matrix-vector products run as one stacked matmul (one BLAS call per
replicate, the one it makes alone) and the noise of all steps is keyed in
one pass and drawn before the loop, while each replicate keeps its own
products and streams, so its iterates do not depend on the block it runs in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonConvergenceError
from .losses import MarginLoss
from .rng import box_muller, draw, keys, stream

ARMIJO_SLOPE = 1e-4
MAX_HALVINGS = 40
MAX_NEWTON_STEPS = 50
GRADIENT_TOL_SCALE = 1e-9


@dataclass(frozen=True)
class Dataset:
    """Feature rows with a verified norm bound and a matching label vector;
    or a stack of R such replicates, X of shape (R, n, d) and y (R, n), each
    checked as one dataset would be."""

    X: np.ndarray
    y: np.ndarray
    feature_radius: float

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim not in (2, 3) or min(X.shape) < 1:
            raise ConfigError("Dataset: X must be a nonempty n x d matrix, or a stack of them")
        if y.shape != X.shape[:-1]:
            raise ConfigError("Dataset: y must have one entry per row of X")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ConfigError("Dataset: non-finite entries")
        if self.feature_radius <= 0:
            raise ConfigError("Dataset: feature_radius must be > 0")
        row_norms = np.linalg.norm(X, axis=-1)
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
        return self.X.shape[-2]

    @property
    def d(self) -> int:
        return self.X.shape[-1]


@dataclass(frozen=True)
class FitResult:
    """Fitted coefficients with the perturbation draw and optimizer evidence.

    For output perturbation, `beta_tilde` is the unperturbed minimizer and
    `grad_norm` certifies that inner solve; for objective perturbation,
    `beta_tilde` equals `beta_hat`.
    """

    beta_hat: np.ndarray
    beta_tilde: np.ndarray
    xi: np.ndarray
    grad_norm: float
    iterations: int


def _minimize(
    data: Dataset, loss: MarginLoss, lam: float, nu: float, xi: np.ndarray
) -> tuple[np.ndarray, float, int]:
    """Damped Newton on the perturbed objective, stepping by sufficient
    decrease of ||grad F||; returns (beta, ||grad F||, Newton steps)."""
    X, y = data.X, data.y
    n, d = X.shape

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
    grad = gradient(margins, beta)
    norm = float(np.linalg.norm(grad))
    tol = GRADIENT_TOL_SCALE * max(1.0, n, norm)
    iterations = 0
    while norm > tol:
        if iterations == MAX_NEWTON_STEPS:
            raise NonConvergenceError(
                "Newton hit the iteration cap", last_iterate=beta, residual=norm,
                iterations=iterations,
            )
        step = newton_step(margins, grad)
        scale = 1.0
        for _ in range(MAX_HALVINGS):
            trial = beta + scale * step
            trial_margins = X @ trial
            trial_grad = gradient(trial_margins, trial)
            trial_norm = float(np.linalg.norm(trial_grad))
            if trial_norm <= (1.0 - ARMIJO_SLOPE * scale) * norm:
                break
            scale *= 0.5
        else:
            raise NonConvergenceError(
                "Newton line search stalled", last_iterate=beta, residual=norm,
                iterations=iterations,
            )
        beta, margins, grad, norm = trial, trial_margins, trial_grad, trial_norm
        iterations += 1
    return beta, norm, iterations


def _fit(
    mechanism: str, data: Dataset, loss: MarginLoss, lam: float, nu: float, seed: int
) -> FitResult:
    """The objective- or output-perturbation fit: the tilt nu*<xi, beta> goes
    into the objective, or nu*xi is added to the unperturbed minimizer."""
    where = f"fit_{mechanism}_perturbation"
    if lam <= 0:
        raise ConfigError(f"{where}: lam must be > 0")
    if nu < 0:
        raise ConfigError(f"{where}: nu must be >= 0")
    xi = box_muller(stream(seed, f"{mechanism}-perturbation-xi"), data.d)
    if mechanism == "objective":
        beta, norm, iterations = _minimize(data, loss, lam, nu, xi)
        return FitResult(beta, beta, xi, norm, iterations)
    beta, norm, iterations = _minimize(data, loss, lam, 0.0, np.zeros(data.d))
    return FitResult(beta + nu * xi, beta, xi, norm, iterations)


def fit_objective_perturbation(
    data: Dataset, loss: MarginLoss, lam: float, nu: float, seed: int
) -> FitResult:
    """Minimize the regularized objective with a random linear tilt nu*<xi, beta>."""
    return _fit("objective", data, loss, lam, nu, seed)


def fit_output_perturbation(
    data: Dataset, loss: MarginLoss, lam: float, nu: float, seed: int
) -> FitResult:
    """Minimize the unperturbed regularized objective, then add nu*xi."""
    return _fit("output", data, loss, lam, nu, seed)


def run_noisy_gd(
    data: Dataset,
    loss: MarginLoss,
    step_size: float,
    nu: float,
    steps: int,
    seed: int | list[int],
) -> np.ndarray:
    """Noisy full-batch gradient descent from zero; returns all T+1 iterates.

    Each step subtracts step_size times the summed (not averaged) per-sample
    gradient plus fresh Gaussian noise: no ridge term is involved.  A stack
    of R replicates (``data.X`` of shape (R, n, d), one seed each) runs as
    one block and returns (R, T+1, d); one replicate with one seed is a
    stack of one and returns (T+1, d).  The block applies the loss and the
    Box-Muller transform to all R replicates at once, stacks the products
    X @ beta and X' g in one matmul, and takes the loss's label side and all
    T steps' noise before its loop, but keeps each replicate's products and
    noise streams its own, so its iterates are the same bits in any block.
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
    single = data.X.ndim == 2
    X, y = (data.X[None], data.y[None]) if single else (data.X, data.y)
    seeds = [seed] if single else list(seed)
    if len(seeds) != X.shape[0]:
        raise ConfigError("run_noisy_gd: want one seed per replicate")
    replicates, _, d = X.shape
    if nu > 0:  # step t's noise is each replicate's (seed, "noisy-gd-xi", t) stream
        (noise_keys,) = keys(("noisy-gd-xi",), seeds, np.arange(steps)[:, None])
        noise = nu * box_muller(draw(noise_keys, d + d % 2), d)
    label_side = loss.label_side(y)
    trajectory = np.zeros((replicates, steps + 1, d))
    beta = np.zeros((replicates, d))
    for t in range(steps):
        margins = np.matmul(X, beta[:, :, None])[:, :, 0]
        gradients = loss.gradients(margins, y, label_side=label_side)
        grad = np.matmul(gradients[:, None, :], X)[:, 0]
        if nu > 0:
            grad = grad + noise[t]
        beta = beta - step_size * grad
        trajectory[:, t + 1] = beta
    return trajectory[0] if single else trajectory
