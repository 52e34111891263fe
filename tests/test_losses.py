"""Margin-loss family tests: values, gradients, and their derivatives."""

import math

import numpy as np
import pytest

from propdp.errors import ConfigError
from propdp.laws import ScalarLaw, parse_law
from propdp.losses import HuberCeLoss, HuberLoss, LogisticCeLoss, LogisticLoss
from propdp.rng import stream
from propdp.scalars import logistic_rho, logistic_rho_prime


def central_diff(loss, margins, y, h=1e-6):
    return (loss.values(margins + h, y) - loss.values(margins - h, y)) / (2 * h)


class TestHuberLoss:
    loss = HuberLoss(L=1.5)

    def test_values(self):
        # residual 2.0 is in the linear branch: 1.5*2 - 1.5^2/2
        assert self.loss.values(np.array([0.0]), np.array([2.0]))[0] == pytest.approx(
            1.5 * 2.0 - 1.5**2 / 2
        )
        # residual 0.5 is quadratic
        assert self.loss.values(np.array([0.0]), np.array([0.5]))[0] == pytest.approx(0.125)

    def test_gradient_is_clipped_residual(self):
        m = np.linspace(-4, 4, 17)
        y = np.zeros_like(m)
        g = self.loss.gradients(m, y)
        np.testing.assert_allclose(g, np.clip(m, -1.5, 1.5))

    def test_gradient_matches_finite_difference(self):
        gen = stream(1, "losses-huber")
        m, y = gen.normal(size=50), gen.normal(size=50)
        np.testing.assert_allclose(
            self.loss.gradients(m, y), central_diff(self.loss, m, y), atol=2e-6
        )

    def test_curvature_is_quadratic_zone_indicator(self):
        m = np.array([-2.0, -1.5, -0.3, 0.0, 1.4, 1.5, 3.0])
        y = np.zeros_like(m)
        np.testing.assert_array_equal(
            self.loss.curvatures(m, y), [0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0]
        )

    def test_constants(self):
        assert self.loss.is_conditional_expectation is False

    def test_validation(self):
        with pytest.raises(ConfigError):
            HuberLoss(L=0.0)


class TestLogisticLoss:
    loss = LogisticLoss()

    def test_values(self):
        m, y = np.array([0.3]), np.array([1.0])
        assert self.loss.values(m, y)[0] == pytest.approx(logistic_rho(0.3) - 0.3, rel=1e-14)

    def test_gradients(self):
        m = np.array([-2.0, 0.0, 2.0])
        y = np.array([0.0, 1.0, 1.0])
        np.testing.assert_allclose(self.loss.gradients(m, y), logistic_rho_prime(m) - y)

    def test_gradient_matches_finite_difference(self):
        gen = stream(2, "losses-logistic")
        m = gen.normal(size=50)
        y = (gen.random(50) < 0.5).astype(float)
        np.testing.assert_allclose(
            self.loss.gradients(m, y), central_diff(self.loss, m, y), atol=1e-8
        )

    def test_curvature_matches_finite_difference(self):
        gen = stream(3, "losses-logistic-curvature")
        m = 3.0 * gen.normal(size=50)
        y = (gen.random(50) < 0.5).astype(float)
        h = 1e-5
        fd = (self.loss.gradients(m + h, y) - self.loss.gradients(m - h, y)) / (2 * h)
        np.testing.assert_allclose(self.loss.curvatures(m, y), fd, atol=1e-9)

    def test_constants(self):
        assert self.loss.is_conditional_expectation is False


class TestHuberCeLoss:
    loss = HuberCeLoss(L=2.0, noise=ScalarLaw.gaussian(0.3))

    def test_point_mass_noise_reduces_to_plain_huber(self):
        plain = HuberLoss(L=2.0)
        ce = HuberCeLoss(L=2.0, noise=ScalarLaw.point_mass(0.0))
        gen = stream(3, "losses-huber-ce")
        m, y = gen.normal(size=30), gen.normal(size=30)
        np.testing.assert_allclose(ce.values(m, y), plain.values(m, y), rtol=1e-12)
        np.testing.assert_allclose(ce.gradients(m, y), plain.gradients(m, y), rtol=1e-12)

    def test_gradient_matches_finite_difference(self):
        # smoothed loss: quadrature values vs closed-form clipped-mean gradient
        gen = stream(4, "losses-huber-ce-fd")
        m, y = 2 * gen.normal(size=40), 2 * gen.normal(size=40)
        np.testing.assert_allclose(
            self.loss.gradients(m, y), central_diff(self.loss, m, y), atol=1e-5
        )

    def test_gradient_bounded_by_clip_level(self):
        m = np.linspace(-50, 50, 101)
        g = self.loss.gradients(m, np.zeros_like(m))
        assert np.all(np.abs(g) <= 2.0 + 1e-12)

    def test_flags_and_constants(self):
        assert self.loss.is_conditional_expectation is True

    def test_validation(self):
        with pytest.raises(ConfigError):
            HuberCeLoss(L=-1.0)


class TestLogisticCeLoss:
    loss = LogisticCeLoss()

    def test_gradient_form(self):
        m = np.array([0.0, 1.0, -2.0])
        y = np.array([0.5, 0.0, 3.0])
        np.testing.assert_allclose(
            self.loss.gradients(m, y), logistic_rho_prime(m) - logistic_rho_prime(y)
        )

    def test_gradient_matches_finite_difference(self):
        gen = stream(5, "losses-logistic-ce")
        m, y = gen.normal(size=40), gen.normal(size=40)
        np.testing.assert_allclose(
            self.loss.gradients(m, y), central_diff(self.loss, m, y), atol=1e-8
        )

    def test_zero_gradient_at_truth(self):
        y = np.linspace(-3, 3, 13)
        np.testing.assert_allclose(self.loss.gradients(y, y), 0.0, atol=1e-15)

    def test_flags(self):
        assert self.loss.is_conditional_expectation is True



@pytest.mark.parametrize(
    "loss",
    [
        HuberCeLoss(L=1.5, noise=ScalarLaw.gaussian(0.4)),
        HuberCeLoss(L=1.5, noise=parse_law("mix:0.3*point:0.5,0.7*gaussian:0.4")),
        LogisticCeLoss(),
    ],
    ids=["huber-gaussian", "huber-mix-point", "logistic"],
)
def test_gradient_partials_match_central_differences(loss):
    # the (margin, label) partials of c(m, y) = gradients(m, y) that state
    # evolution uses, against central differences of gradients in each slot
    gen = stream(6, "losses-gradient-partials")
    m, y = 2.0 * gen.normal(size=60), 2.0 * gen.normal(size=60)
    h = 1e-6
    d_margin, d_label = loss.gradient_partials(m, y)
    fd_margin = (loss.gradients(m + h, y) - loss.gradients(m - h, y)) / (2 * h)
    fd_label = (loss.gradients(m, y + h) - loss.gradients(m, y - h)) / (2 * h)
    np.testing.assert_allclose(d_margin, fd_margin, atol=1e-8)
    np.testing.assert_allclose(d_label, fd_label, atol=1e-8)
