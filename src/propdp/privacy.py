"""Closed-form privacy accounting for the three mechanisms.

Covers the Gaussian-mechanism hockey-stick divergence, zCDP and RDP bounds
for objective perturbation, output perturbation, and noisy gradient
descent.  Feature-radius rescaling (L -> L*R, s -> s*R**2) is applied
inside the accountant, so callers pass raw (L, s, R).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .errors import ConfigError, NumericError
from .scalars import gaussian_cdf

logger = logging.getLogger(__name__)

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GlmSensitivity:
    """Per-sample gradient bounds of a GLM loss: |dl/dm| <= L, 0 <= d2l/dm2 <= s."""

    lipschitz: float
    smoothness: float
    feature_radius: float = 1.0

    def __post_init__(self):
        if min(self.lipschitz, self.smoothness, self.feature_radius) <= 0:
            raise ConfigError("GlmSensitivity: all fields must be > 0")

    @staticmethod
    def huber(L: float, feature_radius: float = 1.0) -> "GlmSensitivity":
        return GlmSensitivity(float(L), 1.0, float(feature_radius))

    @staticmethod
    def logistic(feature_radius: float = 1.0) -> "GlmSensitivity":
        return GlmSensitivity(1.0, 0.25, float(feature_radius))

    @property
    def scaled_lipschitz(self) -> float:
        """L * R after the feature-radius change of variables."""
        return self.lipschitz * self.feature_radius

    @property
    def scaled_smoothness(self) -> float:
        """s * R**2 after the feature-radius change of variables."""
        return self.smoothness * self.feature_radius**2


@dataclass(frozen=True)
class PrivacyReport:
    """(epsilon, delta) plus an RDP curve and a zCDP value for one mechanism."""

    mechanism: str
    epsilon: float
    delta: float
    rdp_curve: tuple[tuple[float, float], ...]
    zcdp_rho: float

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("PrivacyReport: delta outside [0, 1]")
        for alpha, eps in self.rdp_curve:
            if eps / alpha > self.zcdp_rho + 1e-12 * max(1.0, self.zcdp_rho):
                raise ValueError("PrivacyReport: RDP curve exceeds alpha * zcdp_rho")


def default_alpha_grid() -> tuple[float, ...]:
    """Log-spaced RDP orders 1 + 2**k/100, k = 0..20."""
    return tuple(1.0 + 2.0**k / 100.0 for k in range(21))


def log_ndtr(x: float) -> float:
    """log Phi(x) for the standard normal CDF Phi, to within a few ulps
    relative at x <= 0: log(gaussian_cdf(x)) down to x = -20, and below it
    the asymptotic series Phi(x) = pdf(x)/(-x) * (1 - 1/x**2 + 3/x**4 - ...),
    summed until a term no longer changes the total."""
    if x < -20.0:
        inv_sq = 1.0 / (x * x)
        total, term, k = 1.0, 1.0, 0
        while True:
            k += 1
            term *= -(2 * k - 1) * inv_sq
            if total + term == total:
                break
            total += term
        return -0.5 * x * x - math.log(-x) - _HALF_LOG_2PI + math.log(total)
    return math.log(float(gaussian_cdf(x)))


def hockey_stick(epsilon: float, ratio: float) -> float:
    """Hockey-stick divergence between N(ratio, 1) and N(0, 1) at e**epsilon.

    ``ratio`` is sensitivity / noise-std.  Equals the tight delta(epsilon)
    of the Gaussian mechanism.
    """
    if ratio <= 0:
        raise ConfigError("hockey_stick: ratio must be > 0")
    if epsilon < 0:
        raise ConfigError("hockey_stick: epsilon must be >= 0")
    # exp(eps) * Phi(-eps/r - r/2) in log space; the exponent is always <= 0
    exponent = epsilon + log_ndtr(-0.5 * ratio - epsilon / ratio)
    value = float(gaussian_cdf(0.5 * ratio - epsilon / ratio)) - math.exp(exponent)
    return min(1.0, max(0.0, value))


def gaussian_mechanism_zcdp(sensitivity: float, nu: float) -> float:
    """zCDP of adding N(0, nu**2 I) to a vector of l2 sensitivity Delta."""
    if sensitivity <= 0 or nu <= 0:
        raise ConfigError("gaussian_mechanism_zcdp: arguments must be > 0")
    return sensitivity**2 / (2.0 * nu**2)


def _clamped_delta(raw: float, where: str) -> float:
    if math.isnan(raw):  # max(0.0, nan) would read as perfect privacy
        raise NumericError(f"{where}: delta is NaN")
    if raw > 1.0 or raw < 0.0:
        logger.info("%s: raw delta %.6g clamped into [0, 1]", where, raw)
    return min(1.0, max(0.0, raw))


def objective_perturbation_delta(epsilon: float, glm: GlmSensitivity, lam: float, nu: float) -> float:
    """delta(epsilon) of the random-linear-term mechanism at regularization lam."""
    if lam <= 0 or nu <= 0:
        raise ConfigError("objective_perturbation_delta: lam and nu must be > 0")
    if epsilon < 0:
        raise ConfigError("objective_perturbation_delta: epsilon must be >= 0")
    LR = glm.scaled_lipschitz
    eps_tilde = epsilon - math.log1p(glm.scaled_smoothness / lam)
    eps_hat = eps_tilde - LR**2 / (2.0 * nu**2)
    if eps_hat >= 0:
        raw = 2.0 * hockey_stick(eps_tilde, LR / nu)
    else:
        scale = math.exp(eps_hat)
        raw = (1.0 - scale) + 2.0 * scale * hockey_stick(LR**2 / (2.0 * nu**2), LR / nu)
    return _clamped_delta(raw, "objective_perturbation_delta")


def objective_perturbation_rdp(alpha: float, glm: GlmSensitivity, lam: float, nu: float) -> float:
    """Renyi-DP epsilon(alpha) of objective perturbation, alpha > 1."""
    if alpha <= 1:
        raise ConfigError("objective_perturbation_rdp: alpha must be > 1")
    if lam <= 0 or nu <= 0:
        raise ConfigError("objective_perturbation_rdp: lam and nu must be > 0")
    r = glm.scaled_lipschitz / nu
    t = alpha - 1.0
    return (
        math.log1p(glm.scaled_smoothness / lam)
        + 0.5 * r * r
        + 0.5 * r * r * t
        + math.log(2.0 * float(gaussian_cdf(r * t))) / t
    )


def objective_perturbation_zcdp(glm: GlmSensitivity, lam: float, nu: float) -> float:
    """zCDP of objective perturbation (the alpha -> 1+ limit of its RDP)."""
    if lam <= 0 or nu <= 0:
        raise ConfigError("objective_perturbation_zcdp: lam and nu must be > 0")
    r = glm.scaled_lipschitz / nu
    return math.log1p(glm.scaled_smoothness / lam) + 0.5 * r * r + _SQRT_2_OVER_PI * r


def output_perturbation_delta(epsilon: float, glm: GlmSensitivity, lam: float, nu: float) -> float:
    """delta(epsilon) of adding nu*xi to the exact minimizer (sensitivity LR/lam)."""
    if lam <= 0 or nu <= 0:
        raise ConfigError("output_perturbation_delta: lam and nu must be > 0")
    return hockey_stick(epsilon, glm.scaled_lipschitz / (lam * nu))


def output_perturbation_zcdp(glm: GlmSensitivity, lam: float, nu: float) -> float:
    """zCDP of output perturbation via the Gaussian mechanism at Delta = LR/lam."""
    if lam <= 0 or nu <= 0:
        raise ConfigError("output_perturbation_zcdp: lam and nu must be > 0")
    return gaussian_mechanism_zcdp(glm.scaled_lipschitz / lam, nu)


def dpsgd_zcdp(T: int, glm: GlmSensitivity, nu: float) -> float:
    """zCDP of T noisy full-batch gradient steps (per-step sensitivity LR)."""
    if T < 1:
        raise ConfigError("dpsgd_zcdp: T must be >= 1")
    if nu <= 0:
        raise ConfigError("dpsgd_zcdp: nu must be > 0")
    return T * gaussian_mechanism_zcdp(glm.scaled_lipschitz, nu)


# --- noise calibration at a zCDP target (used by the comparison figure) ----


def output_perturbation_nu_for_zcdp(glm: GlmSensitivity, lam: float, rho: float) -> float:
    """Smallest nu giving output-perturbation zCDP <= rho."""
    if rho <= 0:
        raise ConfigError("output_perturbation_nu_for_zcdp: rho must be > 0")
    return glm.scaled_lipschitz / (lam * math.sqrt(2.0 * rho))


def objective_perturbation_nu_for_zcdp(glm: GlmSensitivity, lam: float, rho: float) -> float:
    """Smallest nu giving objective-perturbation zCDP <= rho.

    Solves q**2/2 + sqrt(2/pi) q + log(1 + sR^2/lam) - rho = 0 for q = LR/nu;
    infeasible when rho <= log(1 + sR^2/lam) (no noise level attains it).
    """
    slack = rho - math.log1p(glm.scaled_smoothness / lam)
    if slack <= 0:
        raise ConfigError(
            "objective_perturbation_nu_for_zcdp: rho below the regularization floor "
            f"log(1 + s R^2 / lam) = {math.log1p(glm.scaled_smoothness / lam):.6g}"
        )
    q = -_SQRT_2_OVER_PI + math.sqrt(2.0 / math.pi + 2.0 * slack)
    return glm.scaled_lipschitz / q


# --- report assembly --------------------------------------------------------


def build_report(
    mechanism: str,
    glm: GlmSensitivity,
    *,
    lam: float | None = None,
    nu: float,
    T: int | None = None,
    epsilon: float = 1.0,
    alphas: tuple[float, ...] | None = None,
) -> PrivacyReport:
    """PrivacyReport for one mechanism at one noise level.

    ``epsilon`` is the approximate-DP target at which delta is evaluated.
    """
    alphas = default_alpha_grid() if alphas is None else tuple(alphas)
    try:
        if mechanism == "objective":
            if lam is None:
                raise ConfigError("objective mechanism needs lam")
            rho = objective_perturbation_zcdp(glm, lam, nu)
            curve = tuple((a, objective_perturbation_rdp(a, glm, lam, nu)) for a in alphas)
            delta = objective_perturbation_delta(epsilon, glm, lam, nu)
        elif mechanism == "output":
            if lam is None:
                raise ConfigError("output mechanism needs lam")
            rho = output_perturbation_zcdp(glm, lam, nu)
            curve = tuple((a, a * rho) for a in alphas)
            delta = output_perturbation_delta(epsilon, glm, lam, nu)
        elif mechanism == "dpsgd":
            if T is None:
                raise ConfigError("dpsgd mechanism needs T")
            rho = dpsgd_zcdp(T, glm, nu)
            curve = tuple((a, a * rho) for a in alphas)
            # T Gaussian steps of sensitivity LR compose to one Gaussian
            # mechanism of ratio sqrt(T)*LR/nu (Dong, Roth & Su, JRSS-B 2022)
            delta = hockey_stick(epsilon, math.sqrt(T) * glm.scaled_lipschitz / nu)
        else:
            raise ConfigError(f"unknown mechanism {mechanism!r}")
        return PrivacyReport(mechanism, epsilon, delta, curve, rho)
    except ConfigError:
        raise
    except (ArithmeticError, ValueError) as exc:
        # a tiny nu (or a huge L, R or T) takes the privacy loss out of float
        # range: a division by zero, an overflow, or a report invariant lost;
        # a Python float overflow carries (errno, text), and the text is the reason
        reason = exc.args[-1] if exc.args else exc
        raise NumericError(f"{mechanism}: privacy loss out of float range ({reason})") from None
