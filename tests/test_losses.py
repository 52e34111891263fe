"""Margin-loss family tests: values, gradients, and their derivatives."""

import math

import numpy as np
import pytest

from propdp.errors import ConfigError
from propdp.laws import ScalarLaw, parse_law
from propdp.losses import HuberCeLoss, HuberLoss, LogisticCeLoss, LogisticLoss
from propdp.rng import stream
from propdp.scalars import logistic_rho_prime, logistic_rho_second
from support import law_clipped_mean, law_interval_probability, logistic_rho, loss_values


def central_diff(loss, margins, y, h=1e-6):
    return (loss_values(loss, margins + h, y) - loss_values(loss, margins - h, y)) / (2 * h)


class TestHuberLoss:
    loss = HuberLoss(L=1.5)

    def test_values(self):
        # residual 2.0 is in the linear branch: 1.5*2 - 1.5^2/2
        assert loss_values(self.loss, np.array([0.0]), np.array([2.0]))[0] == pytest.approx(
            1.5 * 2.0 - 1.5**2 / 2
        )
        # residual 0.5 is quadratic
        assert loss_values(self.loss, np.array([0.0]), np.array([0.5]))[0] == pytest.approx(0.125)

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
        assert loss_values(self.loss, m, y)[0] == pytest.approx(logistic_rho(0.3) - 0.3, rel=1e-14)

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
        np.testing.assert_allclose(loss_values(ce, m, y), loss_values(plain, m, y), rtol=1e-12)
        np.testing.assert_allclose(ce.gradients(m, y), plain.gradients(m, y), rtol=1e-12)

    def test_gradient_matches_finite_difference(self):
        # smoothed loss: quadrature values vs closed-form clipped-mean gradient
        gen = stream(4, "losses-huber-ce-fd")
        m, y = 2 * gen.normal(size=40), 2 * gen.normal(size=40)
        np.testing.assert_allclose(
            self.loss.gradients(m, y), central_diff(self.loss, m, y), atol=1e-5
        )

    def test_nonfinite_residual_rejected(self):
        m, y = np.array([0.0, np.inf]), np.zeros(2)
        with pytest.raises(ValueError, match="non-finite"):
            self.loss.gradients(m, y)
        with pytest.raises(ValueError, match="non-finite"):
            self.loss.gradient_terms(m, y, np.empty((3, 2)))

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
    # evolution uses, from gradient_terms, against central differences of
    # gradients in each slot
    gen = stream(6, "losses-gradient-partials")
    m, y = 2.0 * gen.normal(size=60), 2.0 * gen.normal(size=60)
    h = 1e-6
    _, d_margin, d_label = loss.gradient_terms(m, y, np.empty((3, m.size)))
    fd_margin = (loss.gradients(m + h, y) - loss.gradients(m - h, y)) / (2 * h)
    fd_label = (loss.gradients(m, y + h) - loss.gradients(m, y - h)) / (2 * h)
    np.testing.assert_allclose(d_margin, fd_margin, atol=1e-8)
    np.testing.assert_allclose(d_label, fd_label, atol=1e-8)


def _hex(values) -> list[str]:
    return [v.hex() for v in np.asarray(values, dtype=float).ravel().tolist()]


@pytest.mark.parametrize(
    "noise",
    ["gaussian:0.2", "gaussian:0.4", "mix:0.3*point:0.5,0.7*gaussian:0.4", "point:0.3",
     "point:0", "mix:0.6*gaussian:0,0.4*gaussian:1.5"],
)
@pytest.mark.parametrize("L", [1.5, 10.0])
def test_huber_gradient_terms_are_the_separate_formulas_bit_for_bit(noise, L):
    # one pass of the fused kernel gives the bits of -E[clip], P(inside) and
    # -P(inside), each computed on its own with its own CDFs
    loss = HuberCeLoss(L=L, noise=parse_law(noise))
    gen = stream(8, "losses-gradient-terms")
    m = np.concatenate([3.0 * gen.normal(size=2_000), [0.0, -0.0, L, -L, 60.0, -60.0]])
    y = np.concatenate([3.0 * gen.normal(size=2_000), [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
    mean = law_clipped_mean(y - m, loss.noise, L)
    inside = law_interval_probability(y - m, loss.noise, L)
    out = np.full((3, m.size), np.nan)
    terms = loss.gradient_terms(m, y, out=out)
    assert terms is out
    assert _hex(out[0]) == _hex(-mean)
    assert _hex(out[1]) == _hex(inside)
    assert _hex(out[2]) == _hex(-inside)
    buffer = np.empty((3, 2, m.size))  # rows of a strided view, as state evolution passes
    loss.gradient_terms(m, y, out=buffer[:, 1])
    assert _hex(buffer[:, 1]) == _hex(out)
    assert _hex(loss.gradients(m, y)) == _hex(-mean)
    grid = (m.reshape(2, -1), y.reshape(2, -1))  # a block of replicates
    assert _hex(loss.gradients(*grid)) == _hex(-law_clipped_mean(grid[1] - grid[0], loss.noise, L))


def test_logistic_gradient_terms_are_the_separate_formulas_bit_for_bit():
    loss = LogisticCeLoss()
    gen = stream(9, "losses-gradient-terms")
    m = np.concatenate([4.0 * gen.normal(size=2_000), [0.0, -0.0, 800.0, -800.0]])
    y = np.concatenate([4.0 * gen.normal(size=2_000), [0.0, 1.0, -800.0, 800.0]])
    out = np.full((3, m.size), np.nan)
    assert loss.gradient_terms(m, y, out=out) is out
    assert _hex(out[0]) == _hex(loss.gradients(m, y))
    assert _hex(out[1]) == _hex(logistic_rho_second(m))
    assert _hex(out[2]) == _hex(-logistic_rho_second(y))
    buffer = np.empty((3, 2, m.size))  # rows of a strided view, as state evolution passes
    loss.gradient_terms(m, y, out=buffer[:, 1])
    assert _hex(buffer[:, 1]) == _hex(out)
