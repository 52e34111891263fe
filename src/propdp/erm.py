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

Both the perturbation fits and noisy GD run a block of replicates as one
stack of designs (a single replicate is a stack of one): elementwise work
runs once per block, the products run as stacked matmuls and solves (one
BLAS or LAPACK call per replicate, the one it makes alone) and the
perturbation or the noise of all steps is keyed in one pass, while each
replicate keeps its own products, streams, Newton steps, halvings and
certificate, so its result does not depend on the block it runs in.  A
block's state is one array per quantity with a row per replicate; a fit
steps the rows of the replicates still running.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonConvergenceError
from .losses import MarginLoss
from .rng import box_muller, draw, keyed, keys
from .rng import stream  # noqa: F401 -- unused here, but the benchmark's tracer wraps it

ARMIJO_SLOPE = 1e-4
MAX_HALVINGS = 40
MAX_NEWTON_STEPS = 50
GRADIENT_TOL_SCALE = 1e-9
# a stack's Newton systems are built and solved for a chunk of replicates at
# a time, with at most this many design entries, so that the chunk's designs,
# their weighted copies and its Hessians (3 x 512 KB) stay in a core's cache
NEWTON_CHUNK_ENTRIES = 65_536


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
        row_norms = np.sqrt(np.einsum("...ij,...ij->...i", X, X))  # no temporary copy of X
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
    `beta_tilde` equals `beta_hat`.  A stack of R fits holds (R, d) vectors
    and (R,) certificates, a row per replicate.
    """

    beta_hat: np.ndarray
    beta_tilde: np.ndarray
    xi: np.ndarray
    grad_norm: float | np.ndarray
    iterations: int | np.ndarray


def dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> over the last axis, broadcast over the others, as one (1, d) @
    (d, 1) product each: the bits of ``a @ b`` for two vectors, a BLAS dot
    (np.linalg.norm squares a vector the same way)."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def matvec(X: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """X @ beta for a matrix and a vector, or for each pair of a stack of
    them, as one BLAS matrix-vector product each."""
    return np.matmul(X, beta[..., None])[..., 0]


def _minimize(
    data: Dataset, loss: MarginLoss, lam: float, nu: float, xi: np.ndarray
) -> tuple[np.ndarray, float, int]:
    """Damped Newton on the perturbed objective, stepping by sufficient
    decrease of ||grad F||; returns (beta, ||grad F||, Newton steps).

    A stack of R replicates (``data.X`` of shape (R, n, d), xi (R, d))
    returns its (R, d) coefficients and (R,) norms and steps: the state
    arrays whose ``running`` rows it steps.  One replicate is a stack of one.
    Each replicate takes its own Newton steps and halvings and stops on its
    own certificate, and the stacked products run the BLAS call it makes
    alone, so its result is the same bits in any stack; the running rows of
    X, y and xi are taken anew only when one stops.  A stack raises the
    NonConvergenceError of its lowest-index failing replicate, the one that
    fitting one replicate at a time would raise.
    """
    single = data.X.ndim == 2
    X, y, xi = (data.X[None], data.y[None], xi[None]) if single else (data.X, data.y, xi)
    replicates, n, d = X.shape

    def gradient(X, y, xi, margins, beta):
        grad = np.matmul(loss.gradients(margins, y)[:, None, :], X)[:, 0]
        return grad + lam * beta + nu * xi

    def newton_step(X, y, margins, grad):
        """Solve (X'WX + lam*I) p = -grad; by Woodbury on Xs = sqrt(W) X when
        d > n, which needs no inverse of W and so allows zero weights."""
        weights = loss.curvatures(margins, y)
        if d <= n:
            hessian = np.matmul(X.swapaxes(1, 2) * weights[:, None, :], X)
            hessian.reshape(len(X), -1)[:, :: d + 1] += lam
            return -np.linalg.solve(hessian, grad[:, :, None])[:, :, 0]
        scaled = np.sqrt(weights)[:, :, None] * X
        kernel = np.matmul(scaled, scaled.swapaxes(1, 2))  # one syrk, as S @ S.T
        kernel.reshape(len(X), -1)[:, :: n + 1] += lam
        inner = np.linalg.solve(kernel, np.matmul(scaled, grad[:, :, None]))
        return (np.matmul(inner.swapaxes(1, 2), scaled)[:, 0] - grad) / lam

    beta, margins = np.zeros((replicates, d)), np.zeros((replicates, n))
    grad = gradient(X, y, xi, margins, beta)
    norm = np.sqrt(dots(grad, grad))
    tol = GRADIENT_TOL_SCALE * np.maximum(max(1.0, n), norm)
    steps, failures = np.zeros(replicates, dtype=int), {}

    def fail(r, message):
        failures[r] = NonConvergenceError(
            message, last_iterate=beta[r].copy(), residual=float(norm[r]), iterations=int(steps[r])
        )

    size = max(1, NEWTON_CHUNK_ENTRIES // (n * d))
    running, pending = np.arange(replicates), np.arange(0)  # no line search has stalled yet
    at, run_X, run_y, run_xi = slice(None), X, y, xi  # while every replicate runs, the stack
    for iterations in range(MAX_NEWTON_STEPS + 1):
        steps[at] = iterations
        keep = norm[at] > tol[at]
        keep[pending] = False  # the replicates whose line search stalled
        if iterations == MAX_NEWTON_STEPS:
            for replicate in running[keep]:
                fail(replicate, "Newton hit the iteration cap")
            break
        if not keep.all():  # take the running replicates' data only when some stop
            running = running[keep]
            if not len(running):
                break
            at, run_X, run_y, run_xi = running, X[running], y[running], xi[running]
        state, starts = (run_X, run_y, margins[at], grad[at]), range(0, len(running), size)
        step = np.concatenate([newton_step(*(a[s : s + size] for a in state)) for s in starts])
        scale, pending = np.ones(len(running)), np.arange(len(running))  # steps not yet taken
        for _ in range(MAX_HALVINGS):
            whole = len(pending) == len(running)  # then index as above: no copy of X
            part, rows = (slice(None), at) if whole else (pending, running[pending])
            trial = beta[rows] + scale[part, None] * step[part]
            trial_margins = matvec(run_X[part], trial)
            trial_grad = gradient(run_X[part], run_y[part], run_xi[part], trial_margins, trial)
            trial_norm = np.sqrt(dots(trial_grad, trial_grad))
            accept = trial_norm <= (1.0 - ARMIJO_SLOPE * scale[part]) * norm[rows]
            took = running[pending[accept]]
            beta[took], margins[took], grad[took], norm[took] = (
                trial[accept], trial_margins[accept], trial_grad[accept], trial_norm[accept]
            )
            pending = pending[~accept]
            if not len(pending):
                break
            scale[pending] *= 0.5
        for replicate in running[pending]:
            fail(replicate, "Newton line search stalled")
    if failures:
        raise failures[min(failures)]
    return (beta[0], float(norm[0]), int(steps[0])) if single else (beta, norm, steps)


def _fit(
    mechanism: str, data: Dataset, loss: MarginLoss, lam: float, nu: float,
    seed: int | list[int] | np.ndarray,
) -> FitResult:
    """The objective- or output-perturbation fit: the tilt nu*<xi, beta> goes
    into the objective, or nu*xi is added to the unperturbed minimizer.  A
    stack of R replicates takes R seeds, or the (R, 2) ``rng.Keys`` of their
    perturbation streams (``rng.keyed``), and gives a stack of R fits."""
    where = f"fit_{mechanism}_perturbation"
    if lam <= 0:
        raise ConfigError(f"{where}: lam must be > 0")
    if nu < 0:
        raise ConfigError(f"{where}: nu must be >= 0")
    xi_keys = keyed(f"{mechanism}-perturbation-xi", seed)  # xi is each replicate's stream
    if xi_keys.shape != (*data.X.shape[:-2], 2):
        raise ConfigError(f"{where}: want one seed per replicate")
    xi = box_muller(draw(xi_keys, data.d + data.d % 2), data.d)
    if mechanism == "objective":
        beta, norm, iterations = _minimize(data, loss, lam, nu, xi)
        return FitResult(beta, beta, xi, norm, iterations)
    beta, norm, iterations = _minimize(data, loss, lam, 0.0, np.zeros_like(xi))
    return FitResult(beta + nu * xi, beta, xi, norm, iterations)


def fit_objective_perturbation(
    data: Dataset, loss: MarginLoss, lam: float, nu: float, seed: int | list[int] | np.ndarray
) -> FitResult:
    """Minimize the regularized objective with a random linear tilt nu*<xi, beta>;
    for a stack of replicates, each with its own seed or xi key (``_fit``)."""
    return _fit("objective", data, loss, lam, nu, seed)


def fit_output_perturbation(
    data: Dataset, loss: MarginLoss, lam: float, nu: float, seed: int | list[int] | np.ndarray
) -> FitResult:
    """Minimize the unperturbed regularized objective, then add nu*xi; for a
    stack of replicates, each with its own seed or xi key (``_fit``)."""
    return _fit("output", data, loss, lam, nu, seed)


def run_noisy_gd(
    data: Dataset,
    loss: MarginLoss,
    step_size: float,
    nu: float,
    steps: int,
    seed: int | list[int] | np.ndarray,
) -> np.ndarray:
    """Noisy full-batch gradient descent from zero; returns all T+1 iterates.

    Each step subtracts step_size times the summed (not averaged) per-sample
    gradient plus fresh Gaussian noise: no ridge term is involved.  A stack
    of R replicates (``data.X`` of shape (R, n, d)) takes R seeds, a list or
    any integer array of shape (R,), runs as one block and returns
    (R, T+1, d); one replicate with an int seed is a stack of one and returns
    (T+1, d).  The block applies the loss and the Box-Muller transform to all
    R replicates at once, stacks the products X @ beta and X' g in one
    matmul, and takes the loss's label side and all T steps' noise before its
    loop, but keeps each replicate's products and noise streams its own, so
    its iterates are the same bits in any block.
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
    if np.shape(seed) != data.X.shape[:-2]:
        raise ConfigError("run_noisy_gd: want one seed per replicate")
    replicates, _, d = X.shape
    if nu > 0:  # step t's noise is each replicate's (seed, "noisy-gd-xi", t) stream
        (noise_keys,) = keys(("noisy-gd-xi",), seed, np.arange(steps)[:, None])
        noise = nu * box_muller(draw(noise_keys, d + d % 2), d)
    label_side = loss.label_side(y)
    trajectory = np.zeros((replicates, steps + 1, d))
    beta = np.zeros((replicates, d))
    for t in range(steps):
        margins = matvec(X, beta)
        gradients = loss.gradients(margins, y, label_side=label_side)
        grad = np.matmul(gradients[:, None, :], X)[:, 0]
        if nu > 0:
            grad = grad + noise[t]
        beta = beta - step_size * grad
        trajectory[:, t + 1] = beta
    return trajectory[0] if single else trajectory
