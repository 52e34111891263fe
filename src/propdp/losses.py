"""Margin-loss families shared by the ERM solvers, the experiment harness and
state evolution.

Every loss here is a function of the per-sample margin m = <x, beta> and the
label y, so full-batch objectives and gradients reduce to vectorized scalar
calculus plus one matrix-vector product.  The privacy constants of each
family (Lipschitz and smoothness bounds of the margin derivative) live in
``privacy.GlmSensitivity``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import ConfigError
from .laws import ScalarLaw, law_clipped_mean, law_interval_probability
from .scalars import (
    clip, expected_huber, huber, logistic_rho, logistic_rho_prime, logistic_rho_second,
)


@dataclass(frozen=True)
class MarginLoss:
    """Base class: a per-sample loss of (margin, label) with scalar calculus."""

    # True for the smoothed losses analyzed by the noisy-GD recursion.
    is_conditional_expectation: ClassVar[bool] = False

    def values(self, margins: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradients(self, margins: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Derivative of the per-sample loss with respect to the margin."""
        raise NotImplementedError

    def curvatures(self, margins: np.ndarray, y: np.ndarray) -> np.ndarray:
        """(Generalized) second derivative in the margin, for Newton steps;
        the smoothed losses, used only by noisy GD, do not define it."""
        raise NotImplementedError


@dataclass(frozen=True)
class HuberLoss(MarginLoss):
    """Robust linear regression: loss(m, y) = H_L(y - m)."""

    L: float = 1.0

    def __post_init__(self):
        if self.L <= 0:
            raise ConfigError("HuberLoss: L must be > 0")

    def values(self, margins, y):
        return huber(np.asarray(y) - np.asarray(margins), self.L)

    def gradients(self, margins, y):
        return -clip(np.asarray(y) - np.asarray(margins), self.L)

    def curvatures(self, margins, y):
        """The semismooth second derivative: 1 inside |y - m| < L, else 0."""
        inside = np.abs(np.asarray(y) - np.asarray(margins)) < self.L
        return inside.astype(float)


@dataclass(frozen=True)
class LogisticLoss(MarginLoss):
    """Binary classification with y in {0, 1}: loss(m, y) = rho(m) - y*m."""

    def values(self, margins, y):
        margins = np.asarray(margins)
        return logistic_rho(margins) - np.asarray(y) * margins

    def gradients(self, margins, y):
        return logistic_rho_prime(np.asarray(margins)) - np.asarray(y)

    def curvatures(self, margins, y):
        return logistic_rho_second(np.asarray(margins))


@dataclass(frozen=True)
class HuberCeLoss(MarginLoss):
    """Noise-averaged Huber loss for noisy GD: E_eps[H_L(y + eps - m)].

    Labels are noiseless margins y = <x, beta*>; the response-noise law enters
    the loss itself.  The margin gradient has the closed form
    -E_eps[clip(y + eps - m, L)], and values (needed for line searches and
    finite-difference tests) use the matching closed-form Gaussian moments,
    so the two stay consistent to machine precision.
    """

    is_conditional_expectation: ClassVar[bool] = True

    L: float = 1.0
    noise: ScalarLaw = field(default_factory=lambda: ScalarLaw.point_mass(0.0))

    def __post_init__(self):
        if self.L <= 0:
            raise ConfigError("HuberCeLoss: L must be > 0")

    def values(self, margins, y):
        residual = np.asarray(y, dtype=float) - np.asarray(margins, dtype=float)
        total = np.zeros_like(residual)
        for weight, loc, scale in zip(
            self.noise.weights, self.noise.locs, self.noise.scales
        ):
            total += weight * expected_huber(residual + loc, scale, self.L)
        return total

    def gradients(self, margins, y):
        residual = np.asarray(y, dtype=float) - np.asarray(margins, dtype=float)
        return -law_clipped_mean(residual, self.noise, self.L)

    def gradient_partials(self, margins, y):
        """Derivatives of ``gradients`` in the margin and in the label:
        (P(|y + eps - m| < L), -P(|y + eps - m| < L))."""
        residual = np.asarray(y, dtype=float) - np.asarray(margins, dtype=float)
        inside = law_interval_probability(residual, self.noise, self.L)
        return inside, -inside


@dataclass(frozen=True)
class LogisticCeLoss(MarginLoss):
    """Label-averaged logistic loss for noisy GD: labels are real margins
    y = <x, beta*> and the loss is rho(m) - rho'(y) * m."""

    is_conditional_expectation: ClassVar[bool] = True

    def values(self, margins, y):
        margins = np.asarray(margins)
        return logistic_rho(margins) - logistic_rho_prime(np.asarray(y)) * margins

    def gradients(self, margins, y):
        return logistic_rho_prime(np.asarray(margins)) - logistic_rho_prime(
            np.asarray(y)
        )

    def gradient_partials(self, margins, y):
        """Derivatives of ``gradients`` in the margin and in the label:
        (rho''(m), -rho''(y))."""
        return logistic_rho_second(np.asarray(margins)), -logistic_rho_second(np.asarray(y))
