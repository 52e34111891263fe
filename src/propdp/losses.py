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
from .laws import ScalarLaw, law_clipped_mean_inside
from .scalars import clip, logistic_rho_prime, logistic_rho_second


@dataclass(frozen=True)
class MarginLoss:
    """Base class: a per-sample loss of (margin, label) with scalar calculus."""

    # True for the smoothed losses analyzed by the noisy-GD recursion.
    is_conditional_expectation: ClassVar[bool] = False

    # no fit evaluates a loss; bench/tracing.py counts calls to ``values`` on every subclass
    def values(self, margins: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradients(self, margins: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Derivative of the per-sample loss with respect to the margin."""
        raise NotImplementedError

    def curvatures(self, margins: np.ndarray, y: np.ndarray) -> np.ndarray:
        """(Generalized) second derivative in the margin, for Newton steps;
        the smoothed losses, used only by noisy GD, do not define it."""
        raise NotImplementedError

    def label_side(self, y: np.ndarray):
        """What ``gradients`` and ``gradient_terms`` compute from fixed labels
        alone, for a caller to pass back as ``label_side``; None: nothing."""
        return None


@dataclass(frozen=True)
class HuberLoss(MarginLoss):
    """Robust linear regression: loss(m, y) = H_L(y - m)."""

    L: float = 1.0

    def __post_init__(self):
        if self.L <= 0:
            raise ConfigError("HuberLoss: L must be > 0")

    def gradients(self, margins, y):
        return -clip(np.asarray(y) - np.asarray(margins), self.L)

    def curvatures(self, margins, y):
        """The semismooth second derivative: 1 inside |y - m| < L, else 0."""
        inside = np.abs(np.asarray(y) - np.asarray(margins)) < self.L
        return inside.astype(float)


@dataclass(frozen=True)
class LogisticLoss(MarginLoss):
    """Binary classification with y in {0, 1}: loss(m, y) = rho(m) - y*m."""

    def gradients(self, margins, y):
        return logistic_rho_prime(np.asarray(margins)) - np.asarray(y)

    def curvatures(self, margins, y):
        return logistic_rho_second(np.asarray(margins))


@dataclass(frozen=True)
class HuberCeLoss(MarginLoss):
    """Noise-averaged Huber loss for noisy GD: E_eps[H_L(y + eps - m)].

    Labels are noiseless margins y = <x, beta*>; the response-noise law enters
    the loss itself.  The margin gradient has the closed form
    -E_eps[clip(y + eps - m, L)], a sum of clipped-Gaussian means over the
    law's components.  Noisy GD and state evolution need only gradients, so
    the loss values live with the tests (``support.loss_values``).
    """

    is_conditional_expectation: ClassVar[bool] = True

    L: float = 1.0
    noise: ScalarLaw = field(default_factory=lambda: ScalarLaw.point_mass(0.0))

    def __post_init__(self):
        if self.L <= 0:
            raise ConfigError("HuberCeLoss: L must be > 0")

    def gradients(self, margins, y, label_side=None):
        residual = np.asarray(y, dtype=float) - np.asarray(margins, dtype=float)
        out = np.empty((2, *residual.shape))
        return -law_clipped_mean_inside(residual, self.noise, self.L, out)[0]

    def gradient_terms(self, margins, y, out, label_side=None):
        """``gradients`` and its margin and label derivatives, in one pass, into
        the rows of ``out``: -E[clip(y + eps - m, L)], P(|y + eps - m| < L), -P."""
        residual = np.asarray(y, dtype=float) - np.asarray(margins, dtype=float)
        law_clipped_mean_inside(residual, self.noise, self.L, out=out[:2])
        np.negative(out[0], out=out[0])
        np.negative(out[1], out=out[2])
        return out


@dataclass(frozen=True)
class LogisticCeLoss(MarginLoss):
    """Label-averaged logistic loss for noisy GD: labels are real margins
    y = <x, beta*> and the loss is rho(m) - rho'(y) * m."""

    is_conditional_expectation: ClassVar[bool] = True

    def label_side(self, y):
        """rho'(y) and -rho''(y)."""
        p_label = logistic_rho_prime(np.asarray(y))
        return p_label, np.negative(np.multiply(p_label, 1.0 - p_label))

    def gradients(self, margins, y, label_side=None):
        p_label = logistic_rho_prime(np.asarray(y)) if label_side is None else label_side[0]
        return logistic_rho_prime(np.asarray(margins)) - p_label

    def gradient_terms(self, margins, y, out, label_side=None):
        """``gradients`` and its margin and label derivatives, from one sigmoid
        of the margins, into the rows of ``out``: rho'(m) - rho'(y), rho''(m), -rho''(y)."""
        p_label, out[2] = self.label_side(y) if label_side is None else label_side
        p_margin = logistic_rho_prime(np.asarray(margins))
        np.subtract(p_margin, p_label, out=out[0])
        np.multiply(p_margin, 1.0 - p_margin, out=out[1])
        return out
