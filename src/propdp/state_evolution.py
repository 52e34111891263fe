"""Per-iterate error laws for noisy full-batch gradient descent.

The algorithm iterates beta^{t+1} = beta^t - step*(sum_i grad_i + nu*xi^t) on a
"conditional expectation" loss whose per-sample gradient is a smooth scalar
function c(margin, true_margin): the margin gradient of the ``losses``
conditional-expectation loss (``HuberCeLoss`` or ``LogisticCeLoss``) that
noisy GD itself runs on, whose ``gradient_terms`` give c and B below in one
pass.  In the proportional regime its per-coordinate and per-sample behaviour
is captured by a closed system of 2x2 recursions:

  theta^{t+1} = (I + Gamma^t) theta^t - step*nu*[xi^t; 0]
                + sum_{k<t} R_g(t,k) theta^k + u^t
  eta^t       = omega^t - step * sum_{k<t} R_theta(t,k) [c(eta^k); 0]

with theta^0 = [0; beta*_0], u centered Gaussian with covariance blocks C_g,
omega centered Gaussian with covariance blocks C_theta, and response kernels

  R_g(t,s)   = -(step/delta) E[ B(eta^t) d eta^t / d omega^s ]
  Gamma^t    = R_g(t,t)
  C_g(t,s)   = (step^2/delta) E[ c(eta^t) c(eta^s) ]  (top-left entry)
  C_theta(t,s) = E[ theta^t (theta^s)^T ]

where B(eta) = [[dc/d eta_1, dc/d eta_2], [0, 0]].

``_solve`` runs the rounds t = 0..T-1.  Each alternates a sample-side Monte
Carlo (``_round``: fresh omega paths, per-path eta and derivative recursions,
kernel averages) with exact propagation of C_theta: theta_1^t is a fixed linear
combination of (beta*_0, xi draws, u draws), so its second moments follow from
the kernel matrices without sampling error and are positive semidefinite by
construction.  A final theta-path Monte Carlo (``check``, on by default;
the ``theory`` command echoes it, sweeps and figures turn it off) reports
the same moments with standard errors.

theta's second coordinate is beta* itself and never moves, and B has a zero
second row, so only what the recursion reads is stored: the top rows of Gamma
and R_g, and the top-left entries of R_theta, C_g and C_theta.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .laws import ScalarLaw
from .losses import HuberCeLoss, LogisticCeLoss
from .rng import box_muller, draw, keys, stream

logger = logging.getLogger(__name__)

MAX_STEPS = 16
MIN_MC_SAMPLES = 10_000
# 2.5x the most in use; a T = 16 solve at this budget peaks near 1 GB RSS
MAX_MC_SAMPLES = 1_000_000
EIGENVALUE_FLOOR = -1e-8


def _gaussian_paths(source, cov: np.ndarray, count: int) -> tuple[np.ndarray, int]:
    """Draw `count` rows from N(0, cov) via eigendecomposition from ``source``,
    a stream's key or a Generator (``rng.draw``); also the clamp count.

    Eigenvalues in [-1e-8, 0) are clamped to zero (rank-deficient blocks are
    expected); anything lower is a genuine inconsistency and raises.
    """
    values, vectors = np.linalg.eigh(0.5 * (cov + cov.T))
    if values.min() < EIGENVALUE_FLOOR:
        raise NumericError(
            f"covariance block has eigenvalue {values.min():.3e} below {EIGENVALUE_FLOOR}"
        )
    clamped = int((values < 0.0).sum())
    if clamped:
        logger.debug("clamping %d negative eigenvalue(s) to zero", clamped)
        values = np.where(values < 0.0, 0.0, values)
    n = count * cov.shape[0]
    z = box_muller(draw(source, n + n % 2), (count, cov.shape[0]))
    return z @ (vectors * np.sqrt(values)).T, clamped


@dataclass(frozen=True)
class StateEvolutionTrace:
    """Solved recursion kernels plus per-iterate error moments.

    Arrays are indexed by iterate/round: gamma[t] and the (t, s) slices of
    r_g/c_g cover rounds 0..T-1; r_theta/c_theta cover iterates 0..T.  gamma
    and r_g hold the top rows of Gamma and R_g; r_theta, c_g and c_theta hold
    the top-left entries of their blocks, with r_theta[t, t] = 1.
    `mse` and `bias` are exact given the kernels; the `_mc` variants re-estimate
    them from sampled coordinate paths and carry the standard errors, or are
    None when the solve ran without that check.
    """

    seed: int
    gamma: np.ndarray  # (T, 2)
    r_g: np.ndarray  # (T, T, 2)
    r_theta: np.ndarray  # (T+1, T+1)
    c_g: np.ndarray  # (T, T)
    c_theta: np.ndarray  # (T+1, T+1)
    mse: np.ndarray  # (T+1,)
    bias: np.ndarray  # (T+1,)
    clamped_eigenvalues: int  # small negative covariance eigenvalues set to 0
    mse_mc: np.ndarray | None = None
    bias_mc: np.ndarray | None = None
    mse_stderr: np.ndarray | None = None
    bias_stderr: np.ndarray | None = None

    def as_dict(self) -> dict:
        """The moments, the seed and the clamp count, as `theory` echoes them."""
        moments = ("mse", "bias", "mse_mc", "bias_mc", "mse_stderr", "bias_stderr")
        out = {key: v.tolist() for key in moments if (v := getattr(self, key)) is not None}
        return {**out, "seed": self.seed, "clamped_eigenvalues": self.clamped_eigenvalues}


def _round(loss, t, paths, r_theta, step_size, scale):
    """One sample-side round on `paths`, the m draws of (omega^0_1..omega^t_1,
    true margin): the top rows R_g(t, 0..t), whose last is Gamma^t, and the
    Gram matrix of c(eta^0..eta^t) over the paths."""
    m = paths.shape[0]
    omega1, hstar = paths[:, : t + 1], paths[:, t + 1]
    eta1 = np.empty((t + 1, m))
    terms = np.empty((3, t + 1, m))  # c(eta^k) and B(eta^k)'s top row, one loss pass per k
    c_vals, b11, b12 = terms
    label_side = loss.label_side(hstar)  # what the loss takes from the true margins, once
    for k in range(t + 1):
        memory = np.zeros(m)
        for j in range(k):
            memory += r_theta[k, j] * c_vals[j]
        eta1[k] = omega1[:, k] - step_size * memory
        loss.gradient_terms(eta1[k], hstar, out=terms[:, k], label_side=label_side)
    rows = np.empty((t + 1, 2))
    rows[t] = scale * np.array([b11[t].mean(), b12[t].mean()])
    # chain[j] holds the top row of B(eta^j) @ d eta^j / d omega^s; each s
    # writes chain[s..t-1] before it reads them, so one buffer serves them all
    chain = np.empty((t, m, 2))
    for s in range(t):
        chain[s, :, 0] = b11[s]
        chain[s, :, 1] = b12[s]
        for j in range(s + 1, t + 1):
            d_first = np.zeros((m, 2))
            for k in range(s, j):
                d_first += r_theta[j, k] * chain[k]
            d_first *= -step_size
            if j < t:
                chain[j] = b11[j][:, None] * d_first
            else:
                rows[s] = scale * np.array(
                    [(b11[t] * d_first[:, 0]).mean(), (b11[t] * d_first[:, 1]).mean()]
                )
    return rows, (c_vals @ c_vals.T) / m


def _solve(loss, steps, step_size, nu, delta, signal, mc_samples, seed, check):
    if not 1 <= steps <= MAX_STEPS:
        raise ConfigError(f"state evolution: steps must be in [1, {MAX_STEPS}]")
    if not MIN_MC_SAMPLES <= mc_samples <= MAX_MC_SAMPLES:
        raise ConfigError(
            f"state evolution: mc_samples must be in [{MIN_MC_SAMPLES}, {MAX_MC_SAMPLES}]"
        )
    if not (step_size > 0 and nu >= 0 and delta > 0):
        raise ConfigError("state evolution: want step_size > 0, nu >= 0 and delta > 0")
    T, m = steps, mc_samples
    kappa_sq = signal.second_moment
    scale = -step_size / delta
    r_g = np.zeros((T, T, 2))
    r_theta = np.eye(T + 1)
    # theta_1^t as a linear form in the basis (beta*_0, xi^0..xi^{T-1},
    # u^0..u^{T-1}); row t holds iterate t's coefficients.
    coeff = np.zeros((T + 1, 1 + 2 * T))
    # covariance of that basis; its u-block is C_g, filled in round by round
    basis_cov = np.zeros((1 + 2 * T, 1 + 2 * T))
    basis_cov[0, 0] = kappa_sq
    basis_cov[1 : 1 + T, 1 : 1 + T] = np.eye(T)
    c_g = basis_cov[1 + T :, 1 + T :]
    clamped = 0
    omega_keys = keys(("state-evolution-omega",), seed, np.arange(T))[0]  # round t's stream

    for t in range(T):
        # joint covariance of (omega^0_1..omega^t_1, true margin); the true
        # margin is beta*'s own, the basis' first slot
        rows = np.vstack([coeff[: t + 1], np.eye(1, 1 + 2 * T)])
        paths, count = _gaussian_paths(omega_keys[t], rows @ basis_cov @ rows.T, m)
        clamped += count
        r_g[t, : t + 1], gram = _round(loss, t, paths, r_theta, step_size, scale)
        del paths
        # every gradient-covariance block is re-estimated from this round's
        # paths, so the assembled matrix stays a positive-semidefinite Gram matrix
        c_g[: t + 1, : t + 1] = (step_size**2 / delta) * gram

        gamma = r_g[t, t]
        for s in range(t):
            acc = (1.0 + gamma[0]) * r_theta[t, s]
            for k in range(s + 1, t):
                acc += r_g[t, k, 0] * r_theta[k, s]
            r_theta[t + 1, s] = acc
        r_theta[t + 1, t] = 1.0

        row = (1.0 + gamma[0]) * coeff[t]
        for k in range(t):
            row += r_g[t, k, 0] * coeff[k]
        row[0] += gamma[1] + sum(r_g[t, k, 1] for k in range(t))
        row[1 + t] += -step_size * nu
        row[1 + T + t] += 1.0
        coeff[t + 1] = row

    c_theta = np.array([[a @ basis_cov @ b for b in coeff] for a in coeff])
    bias = coeff[:, 0] * kappa_sq
    mse = c_theta.diagonal() - 2.0 * bias + kappa_sq

    checked = {}
    if check:  # the final coordinate-path Monte Carlo, reading one stream in turn
        gen = stream(seed, "state-evolution-theta")
        beta_star = signal.sample(gen, m)
        xi = box_muller(draw(gen, m * T + m * T % 2), (m, T))
        u, count = _gaussian_paths(gen, c_g, m)
        clamped += count
        theta1 = np.zeros((T + 1, m))
        for t in range(T):
            gamma = r_g[t, t]
            nxt = (1.0 + gamma[0]) * theta1[t] + gamma[1] * beta_star
            for k in range(t):
                nxt += r_g[t, k, 0] * theta1[k] + r_g[t, k, 1] * beta_star
            nxt += -step_size * nu * xi[:, t] + u[:, t]
            theta1[t + 1] = nxt
        sq_err = (theta1 - beta_star) ** 2
        prod = theta1 * beta_star
        root_m = np.sqrt(m)
        checked = {
            "mse_mc": sq_err.mean(axis=1), "bias_mc": prod.mean(axis=1),
            "mse_stderr": sq_err.std(axis=1, ddof=1) / root_m,
            "bias_stderr": prod.std(axis=1, ddof=1) / root_m,
        }
    return StateEvolutionTrace(
        seed=seed,
        gamma=r_g[range(T), range(T)],  # Gamma^t = R_g(t, t)
        r_g=r_g,
        r_theta=r_theta,
        c_g=c_g.copy(),
        c_theta=c_theta,
        mse=mse,
        bias=bias,
        clamped_eigenvalues=clamped,
        **checked,
    )


def state_evolution_huber(
    steps: int, step_size: float, nu: float, delta: float, signal: ScalarLaw, noise: ScalarLaw,
    L: float, *, mc_samples: int = 100_000, seed: int = 0, check: bool = True,
) -> StateEvolutionTrace:
    """Error trace of noisy GD on the conditional-expectation Huber loss."""
    loss = HuberCeLoss(L, noise)
    return _solve(loss, steps, step_size, nu, delta, signal, mc_samples, seed, check)


def state_evolution_logistic(
    steps: int, step_size: float, nu: float, delta: float, signal: ScalarLaw,
    *, mc_samples: int = 100_000, seed: int = 0, check: bool = True,
) -> StateEvolutionTrace:
    """Error trace of noisy GD on the conditional-expectation logistic loss."""
    return _solve(LogisticCeLoss(), steps, step_size, nu, delta, signal, mc_samples, seed, check)
