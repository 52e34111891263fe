"""Per-iterate error laws for noisy full-batch gradient descent.

The algorithm iterates beta^{t+1} = beta^t - step*(sum_i grad_i + nu*xi^t) on a
"conditional expectation" loss whose per-sample gradient is a smooth scalar
function c(margin, true_margin): the margin gradient of the ``losses``
conditional-expectation loss (``HuberCeLoss`` or ``LogisticCeLoss``) that
noisy GD itself runs on, whose ``gradient_partials`` give B below.  In the
proportional regime its per-coordinate and per-sample behaviour is captured
by a closed system of 2x2 recursions:

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

The engine alternates sample-side Monte Carlo (fresh omega paths each round,
per-path eta and derivative recursions, kernel averages) with exact
propagation of C_theta: theta_1^t is a fixed linear combination of
(beta*_0, xi draws, u draws), so its second moments follow from the kernel
matrices without sampling error and are positive semidefinite by construction.
A final theta-path Monte Carlo reports the same moments with standard errors.

theta's second coordinate is beta* itself and never moves, and B has a zero
second row, so the engine stores only what the recursion reads: the top rows
of Gamma and R_g, and the top-left entries of R_theta, C_g and C_theta.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .laws import ScalarLaw
from .losses import HuberCeLoss, LogisticCeLoss
from .rng import box_muller, stream

logger = logging.getLogger(__name__)

MAX_STEPS = 16
MIN_MC_SAMPLES = 10_000
EIGENVALUE_FLOOR = -1e-8


def _symmetrize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def _gaussian_paths(gen, cov: np.ndarray, count: int) -> np.ndarray:
    """Draw `count` rows from N(0, cov) via eigendecomposition.

    Eigenvalues in [-1e-8, 0) are clamped to zero (rank-deficient blocks are
    expected); anything lower is a genuine inconsistency and raises.
    """
    values, vectors = np.linalg.eigh(_symmetrize(cov))
    if values.min() < EIGENVALUE_FLOOR:
        raise NumericError(
            f"covariance block has eigenvalue {values.min():.3e} below {EIGENVALUE_FLOOR}"
        )
    if values.min() < 0.0:
        logger.debug("clamping %d negative eigenvalue(s) to zero", int((values < 0).sum()))
        values = np.where(values < 0.0, 0.0, values)
    z = box_muller(gen, count * cov.shape[0]).reshape(count, cov.shape[0])
    return z @ (vectors * np.sqrt(values)).T


@dataclass(frozen=True)
class StateEvolutionTrace:
    """Solved recursion kernels plus per-iterate error moments.

    Arrays are indexed by iterate/round: gamma[t] and the (t, s) slices of
    r_g/c_g cover rounds 0..T-1; r_theta/c_theta cover iterates 0..T.  gamma
    and r_g hold the top rows of Gamma and R_g; r_theta, c_g and c_theta hold
    the top-left entries of their blocks, with r_theta[t, t] = 1.
    `mse` and `bias` are exact given the kernels; the `_mc` variants re-estimate
    them from sampled coordinate paths and carry the standard errors.
    """

    seed: int
    gamma: np.ndarray  # (T, 2)
    r_g: np.ndarray  # (T, T, 2)
    r_theta: np.ndarray  # (T+1, T+1)
    c_g: np.ndarray  # (T, T)
    c_theta: np.ndarray  # (T+1, T+1)
    mse: np.ndarray  # (T+1,)
    bias: np.ndarray  # (T+1,)
    mse_mc: np.ndarray
    bias_mc: np.ndarray
    mse_stderr: np.ndarray
    bias_stderr: np.ndarray

    def as_dict(self) -> dict:
        """The moments and the seed, as the theory command echoes them."""
        moments = ("mse", "bias", "mse_mc", "bias_mc", "mse_stderr", "bias_stderr")
        return {**{key: getattr(self, key).tolist() for key in moments}, "seed": self.seed}


class _Engine:
    def __init__(
        self,
        loss,
        *,
        steps: int,
        step_size: float,
        nu: float,
        delta: float,
        signal: ScalarLaw,
        mc_samples: int,
        seed: int,
    ):
        if not 1 <= steps <= MAX_STEPS:
            raise ConfigError(f"state evolution: steps must be in [1, {MAX_STEPS}]")
        if mc_samples < MIN_MC_SAMPLES:
            raise ConfigError(f"state evolution: mc_samples must be >= {MIN_MC_SAMPLES}")
        if step_size <= 0:
            raise ConfigError("state evolution: step_size must be > 0")
        if nu < 0:
            raise ConfigError("state evolution: nu must be >= 0")
        if delta <= 0:
            raise ConfigError("state evolution: delta must be > 0")
        self.loss = loss
        self.T = steps
        self.gamma_step = step_size
        self.nu = nu
        self.delta = delta
        self.signal = signal
        self.kappa_sq = signal.second_moment
        self.m = mc_samples
        self.seed = seed

        T = steps
        self.gam = np.zeros((T, 2))
        self.r_g = np.zeros((T, T, 2))
        self.r_theta = np.eye(T + 1)
        self.c_g = np.zeros((T, T))
        # theta_1^t as a linear form in the basis (beta*_0, xi^0..xi^{T-1},
        # u^0..u^{T-1}); row t holds iterate t's coefficients.
        self.coeff = np.zeros((T + 1, 1 + 2 * T))

    # ---- exact second moments of the coordinate process -----------------

    def _basis_cov(self) -> np.ndarray:
        """Covariance of the basis (beta*_0, xi^0..xi^{T-1}, u^0..u^{T-1})."""
        T = self.T
        basis_cov = np.zeros((1 + 2 * T, 1 + 2 * T))
        basis_cov[0, 0] = self.kappa_sq
        basis_cov[1 : 1 + T, 1 : 1 + T] = np.eye(T)
        basis_cov[1 + T :, 1 + T :] = self.c_g
        return basis_cov

    def _omega_covariance(self, t: int) -> np.ndarray:
        """Joint covariance of (omega^0_1, ..., omega^t_1, eta_2-slot)."""
        rows = np.vstack([self.coeff[: t + 1], np.eye(1, 1 + 2 * self.T, 0)])
        rows[-1, 0] = 1.0  # the shared true-margin slot is beta*'s own margin
        return rows @ self._basis_cov() @ rows.T

    # ---- one sample-side round ------------------------------------------

    def _round(self, t: int) -> None:
        gen = stream(self.seed, "state-evolution-omega", t)
        paths = _gaussian_paths(gen, self._omega_covariance(t), self.m)
        omega1, hstar = paths[:, : t + 1], paths[:, t + 1]

        eta1 = np.empty((t + 1, self.m))
        c_vals = np.empty((t + 1, self.m))
        b11 = np.empty((t + 1, self.m))
        b12 = np.empty((t + 1, self.m))
        for k in range(t + 1):
            memory = np.zeros(self.m)
            for j in range(k):
                memory += self.r_theta[k, j] * c_vals[j]
            eta1[k] = omega1[:, k] - self.gamma_step * memory
            c_vals[k] = self.loss.gradients(eta1[k], hstar)
            b11[k], b12[k] = self.loss.gradient_partials(eta1[k], hstar)

        scale = -self.gamma_step / self.delta
        self.gam[t] = scale * np.array([b11[t].mean(), b12[t].mean()])
        self.r_g[t, t] = self.gam[t]

        for s in range(t):
            # chain[j] holds the top row of B(eta^j) @ d eta^j / d omega^s.
            chain = np.empty((t, self.m, 2))
            chain[s, :, 0] = b11[s]
            chain[s, :, 1] = b12[s]
            for j in range(s + 1, t + 1):
                d_first = np.zeros((self.m, 2))
                for k in range(s, j):
                    d_first += self.r_theta[j, k] * chain[k]
                d_first *= -self.gamma_step
                if j < t:
                    chain[j] = b11[j][:, None] * d_first
                else:
                    self.r_g[t, s] = scale * np.array(
                        [(b11[t] * d_first[:, 0]).mean(), (b11[t] * d_first[:, 1]).mean()]
                    )

        # Re-estimate every gradient-covariance block from this round's paths
        # so the assembled matrix stays a positive-semidefinite Gram matrix.
        gram = (c_vals @ c_vals.T) / self.m
        self.c_g[: t + 1, : t + 1] = (self.gamma_step**2 / self.delta) * gram

    # ---- deterministic advances ------------------------------------------

    def _advance_r_theta(self, t: int) -> None:
        for s in range(t):
            acc = (1.0 + self.gam[t, 0]) * self.r_theta[t, s]
            for k in range(s + 1, t):
                acc += self.r_g[t, k, 0] * self.r_theta[k, s]
            self.r_theta[t + 1, s] = acc
        self.r_theta[t + 1, t] = 1.0

    def _advance_coefficients(self, t: int) -> None:
        T = self.T
        row = (1.0 + self.gam[t, 0]) * self.coeff[t]
        for k in range(t):
            row = row + self.r_g[t, k, 0] * self.coeff[k]
        row[0] += self.gam[t, 1] + sum(self.r_g[t, k, 1] for k in range(t))
        row[1 + t] += -self.gamma_step * self.nu
        row[1 + T + t] += 1.0
        self.coeff[t + 1] = row

    # ---- final coordinate-path Monte Carlo --------------------------------

    def _theta_paths(self):
        gen = stream(self.seed, "state-evolution-theta")
        T, m = self.T, self.m
        beta_star = self.signal.sample(gen, m)
        xi = box_muller(gen, m * T).reshape(m, T)
        u = _gaussian_paths(gen, self.c_g, m)

        theta1 = np.zeros((T + 1, m))
        for t in range(T):
            nxt = (1.0 + self.gam[t, 0]) * theta1[t] + self.gam[t, 1] * beta_star
            for k in range(t):
                nxt += self.r_g[t, k, 0] * theta1[k] + self.r_g[t, k, 1] * beta_star
            nxt += -self.gamma_step * self.nu * xi[:, t] + u[:, t]
            theta1[t + 1] = nxt

        sq_err = (theta1 - beta_star) ** 2
        prod = theta1 * beta_star
        root_m = np.sqrt(m)
        return (
            sq_err.mean(axis=1),
            prod.mean(axis=1),
            sq_err.std(axis=1, ddof=1) / root_m,
            prod.std(axis=1, ddof=1) / root_m,
        )

    # ---- driver -----------------------------------------------------------

    def run(self) -> StateEvolutionTrace:
        T = self.T
        for t in range(T):
            self._round(t)
            self._advance_r_theta(t)
            self._advance_coefficients(t)

        basis_cov = self._basis_cov()
        c_theta = np.array([[a @ basis_cov @ b for b in self.coeff] for a in self.coeff])
        k2 = self.kappa_sq
        bias = self.coeff[:, 0] * k2
        mse = c_theta.diagonal() - 2.0 * bias + k2

        mse_mc, bias_mc, mse_se, bias_se = self._theta_paths()
        return StateEvolutionTrace(
            seed=self.seed,
            gamma=self.gam,
            r_g=self.r_g,
            r_theta=self.r_theta,
            c_g=self.c_g,
            c_theta=c_theta,
            mse=mse,
            bias=bias,
            mse_mc=mse_mc,
            bias_mc=bias_mc,
            mse_stderr=mse_se,
            bias_stderr=bias_se,
        )


def state_evolution_huber(
    steps: int,
    step_size: float,
    nu: float,
    delta: float,
    signal: ScalarLaw,
    noise: ScalarLaw,
    L: float,
    *,
    mc_samples: int = 100_000,
    seed: int = 0,
) -> StateEvolutionTrace:
    """Error trace of noisy GD on the conditional-expectation Huber loss."""
    engine = _Engine(
        HuberCeLoss(L, noise),
        steps=steps,
        step_size=step_size,
        nu=nu,
        delta=delta,
        signal=signal,
        mc_samples=mc_samples,
        seed=seed,
    )
    return engine.run()


def state_evolution_logistic(
    steps: int,
    step_size: float,
    nu: float,
    delta: float,
    signal: ScalarLaw,
    *,
    mc_samples: int = 100_000,
    seed: int = 0,
) -> StateEvolutionTrace:
    """Error trace of noisy GD on the conditional-expectation logistic loss."""
    engine = _Engine(
        LogisticCeLoss(),
        steps=steps,
        step_size=step_size,
        nu=nu,
        delta=delta,
        signal=signal,
        mc_samples=mc_samples,
        seed=seed,
    )
    return engine.run()
