"""Gauss-Hermite quadrature tests against known Gaussian expectations."""

import math

import numpy as np
import pytest
from scipy.special import roots_hermite

from propdp.laws import parse_law
from propdp.quadrature import (
    DEFAULT_NODES_2D,
    standard_normal_rule,
    standard_normal_rule_2d,
)
from support import DEFAULT_NODES_1D, expect, expect2d, law_expect


class TestRule:
    def test_weights_sum_to_one(self):
        _, w = standard_normal_rule(DEFAULT_NODES_1D)
        assert w.sum() == pytest.approx(1.0, abs=1e-13)

    def test_polynomial_moments_exact(self):
        # degree <= 2n-1 polynomials are integrated exactly
        assert expect(lambda z: z) == pytest.approx(0.0, abs=1e-13)
        assert expect(lambda z: z**2) == pytest.approx(1.0, rel=1e-13)
        assert expect(lambda z: z**4) == pytest.approx(3.0, rel=1e-12)
        assert expect(lambda z: z**6) == pytest.approx(15.0, rel=1e-12)
        assert expect(lambda z: z**8) == pytest.approx(105.0, rel=1e-12)

    def test_mgf(self):
        # E[exp(tZ)] = exp(t^2/2)
        for t in (0.5, 1.0, 2.0):
            assert expect(lambda z: np.exp(t * z)) == pytest.approx(
                math.exp(t * t / 2), rel=1e-10
            )

    def test_absolute_moment(self):
        # E|Z| = sqrt(2/pi); the kink limits Gauss-Hermite to O(1/n)
        # convergence (measured rel error 3.4e-3 at the default 120 nodes,
        # halving per doubling)
        assert expect(np.abs) == pytest.approx(math.sqrt(2 / math.pi), rel=5e-3)
        err_240 = abs(expect(np.abs, 240) - math.sqrt(2 / math.pi))
        err_480 = abs(expect(np.abs, 480) - math.sqrt(2 / math.pi))
        assert err_480 < err_240 < 3.5e-3

    def test_cached_rules_are_readonly(self):
        z, w = standard_normal_rule(20)
        with pytest.raises(ValueError):
            z[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0


    @pytest.mark.parametrize("n", [20, 80, 120, 240, 400])
    def test_matches_scipy_roots_hermite(self, n):
        # scipy's rule, moved to the N(0,1) scale, is the test-side oracle;
        # above 150 nodes scipy switches to an asymptotic rule of its own
        x, w = roots_hermite(n)
        z, weights = standard_normal_rule(n)
        np.testing.assert_allclose(z, math.sqrt(2.0) * x, rtol=0, atol=3e-14)
        np.testing.assert_allclose(weights, w / math.sqrt(math.pi), rtol=0, atol=1e-15)

    def test_symmetric_and_finite_at_400_nodes(self):
        z, w = standard_normal_rule(400)
        assert np.isfinite(z).all() and np.isfinite(w).all() and (w >= 0).all()
        np.testing.assert_allclose(z, -z[::-1], rtol=0, atol=1e-14)
        assert w.sum() == pytest.approx(1.0, abs=1e-14)


class TestRule2D:
    def test_weights_sum_to_one(self):
        _, _, w = standard_normal_rule_2d(DEFAULT_NODES_2D)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_independence_moments(self):
        assert expect2d(lambda a, b: a * b) == pytest.approx(0.0, abs=1e-12)
        assert expect2d(lambda a, b: a**2 * b**2) == pytest.approx(1.0, rel=1e-12)
        assert expect2d(lambda a, b: (a + b) ** 2) == pytest.approx(2.0, rel=1e-12)

    def test_bivariate_smooth_function(self):
        # E[exp(a/2 + b/3)] = exp(1/8 + 1/18)
        val = expect2d(lambda a, b: np.exp(a / 2 + b / 3))
        assert val == pytest.approx(math.exp(0.125 + 1 / 18), rel=1e-10)


class TestLawExpect:
    def test_point_mass_exact(self):
        law = parse_law("point:1.5")
        assert law_expect(lambda x: x**3, law) == pytest.approx(1.5**3, rel=1e-15)

    def test_mixture_matches_moments(self):
        law = parse_law("mix:0.3*point:-1,0.7*gaussian:2")
        for k in (1, 2, 3, 4):
            assert law_expect(lambda x, k=k: x**k, law) == pytest.approx(
                law.moment(k), rel=1e-12, abs=1e-12
            )

    def test_nonlinear_functional(self):
        # E[cos(sZ)] = exp(-s^2/2) for the Gaussian component
        law = parse_law("gaussian:0.7")
        assert law_expect(np.cos, law) == pytest.approx(math.exp(-0.49 / 2), rel=1e-12)
