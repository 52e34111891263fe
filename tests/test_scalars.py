"""Scalar loss/prox/Gaussian-moment calculus tests.

Frozen reference values come from the independent scripts under oracles/
(golden-section prox minimization, bisection, mpmath erf, scipy quadrature,
10^7-draw Monte Carlo); each constant cites its script.
"""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import support
from propdp import scalars
from propdp.errors import NumericError
from propdp.scalars import (
    PROX_CHUNK,
    clip,
    clipped_mean_inside,
    clipped_moments,
    erfc,
    gaussian_cdf,
    gaussian_pdf,
    huber,
    logistic_rho_prime,
    logistic_rho_second,
    prox_logistic,
)
from support import (
    clipped_moment_gradients,
    clipped_second_moment,
    expected_huber,
    gaussian_pdf_formula,
    interval_probability,
    logistic_rho,
    prox_huber,
    prox_logistic_derivative,
    prox_logistic_reference,
    truncated_second_moment,
)

finite = st.floats(-30.0, 30.0, allow_nan=False)
scales = st.floats(0.0, 50.0, allow_nan=False)


def clipped_mean(mu, s, L):
    return clipped_mean_inside(mu, s, L)[0]


class TestHuber:
    def test_zero(self):
        assert huber(0.0, 1.0) == 0.0

    def test_linear_branch(self):
        assert huber(2.0, 1.0) == pytest.approx(1.5, abs=0)

    def test_quadratic_branch(self):
        assert huber(0.5, 1.0) == pytest.approx(0.125, abs=0)

    def test_continuous_and_differentiable_at_kink(self):
        L, h = 1.3, 1e-7
        assert huber(L + h, L) - huber(L - h, L) == pytest.approx(2 * h * L, rel=1e-4)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            huber(float("nan"), 1.0)

    def test_vectorized(self):
        r = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
        np.testing.assert_allclose(huber(r, 1.0), [2.5, 0.125, 0.0, 0.125, 2.5])


class TestClip:
    def test_examples(self):
        assert clip(5.0, 1.0) == 1.0
        assert clip(-0.3, 1.0) == -0.3
        assert clip(-5.0, 2.0) == -2.0

    def test_idempotent(self):
        r = np.linspace(-7, 7, 31)
        np.testing.assert_array_equal(clip(clip(r, 2.0), 2.0), clip(r, 2.0))

    @given(finite, st.floats(0.01, 10))
    def test_matches_huber_derivative(self, r, L):
        h = 1e-6 * max(1.0, abs(r))
        deriv = (huber(r + h, L) - huber(r - h, L)) / (2 * h)
        assert deriv == pytest.approx(clip(r, L), abs=2e-5)


class TestProxHuber:
    def test_zero(self):
        assert prox_huber(0.0, 1.0, 1.0) == 0.0

    def test_linear_region(self):
        # frozen from oracles/oracle_prox.py (golden-section minimization)
        assert prox_huber(3.0, 1.0, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_quadratic_region(self):
        # frozen from oracles/oracle_prox.py (golden-section minimization)
        assert prox_huber(0.5, 1.0, 1.0) == pytest.approx(0.25, abs=1e-12)

    def test_zero_scale_is_identity(self):
        assert prox_huber(1.7, 0.0, 1.0) == 1.7

    @given(finite, st.floats(0.0, 10), st.floats(0.01, 10))
    @settings(max_examples=200)
    def test_minimizes_prox_objective(self, s, tau, L):
        p = prox_huber(s, tau, L)
        obj = lambda y: 0.5 * (y - s) ** 2 + tau * huber(y, L)
        best = obj(p)
        for y in np.linspace(s - 3, s + 3, 41):
            assert best <= obj(y) + 1e-9


class TestLogisticScalars:
    def test_rho_at_zero(self):
        assert logistic_rho(0.0) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_rho_prime_at_zero(self):
        assert logistic_rho_prime(0.0) == 0.5

    def test_rho_second_at_zero(self):
        assert logistic_rho_second(0.0) == 0.25

    def test_stable_for_large_arguments(self):
        assert logistic_rho(700.0) == pytest.approx(700.0, rel=1e-12)
        assert logistic_rho(-700.0) == pytest.approx(0.0, abs=1e-300)
        assert 0.0 < logistic_rho_prime(-700.0) < 1e-300 or logistic_rho_prime(-700.0) == 0.0
        assert logistic_rho_prime(700.0) == pytest.approx(1.0, rel=1e-15)

    @given(finite)
    def test_sigmoid_symmetry(self, t):
        assert logistic_rho_prime(t) + logistic_rho_prime(-t) == pytest.approx(1.0, abs=1e-15)

    @given(finite)
    def test_rho_second_consistent(self, t):
        p = logistic_rho_prime(t)
        assert logistic_rho_second(t) == pytest.approx(p * (1 - p), rel=1e-12, abs=1e-300)


class TestProxLogistic:
    def test_zero_scale_identity(self):
        assert prox_logistic(1.234, 0.0) == 1.234

    def test_reference_point(self):
        # frozen from oracles/oracle_prox.py (bisection on p + rho'(p) = x)
        assert prox_logistic(0.0, 1.0) == pytest.approx(-0.40105813754154707, abs=1e-11)

    def test_stationarity_residual(self):
        for x in (-5.0, -0.7, 0.0, 0.3, 2.0, 40.0):
            for g in (0.1, 1.0, 7.5):
                p = prox_logistic(x, g)
                assert abs(p + g * logistic_rho_prime(p) - x) <= 1e-12

    def test_shift_reflection_identity(self):
        # prox_{g rho}(x + g) == -prox_{g rho}(-x); frozen check from
        # oracles/oracle_prox.py at (x, g) = (0.7, 2.0), both sides 1.17272541...
        x, g = 0.7, 2.0
        lhs = prox_logistic(x + g, g)
        rhs = -prox_logistic(-x, g)
        assert lhs == pytest.approx(1.1727254128795441, abs=1e-11)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_vectorized(self):
        x = np.linspace(-4, 4, 17)
        p = prox_logistic(x, 2.0)
        np.testing.assert_allclose(p + 2.0 * logistic_rho_prime(p), x, atol=1e-12)

    @given(finite, st.floats(0.0, 20))
    @settings(max_examples=200)
    def test_nonexpansive(self, x, g):
        a = prox_logistic(x, g)
        b = prox_logistic(x + 0.37, g)
        assert abs(a - b) <= 0.37 + 1e-12

    @given(st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=64), st.floats(0.0, 50.0))
    @example([4.18], 13.0)
    @settings(max_examples=200)
    def test_every_element_converges(self, xs, g):
        # each element meets the internal tolerance, not only most of them;
        # x=4.18 at gamma=13 once cycled between bracket ends and raised
        x = np.array(xs)
        p = prox_logistic(x, g)
        assert np.all(np.abs(p + g * logistic_rho_prime(p) - x) <= 1e-12)

    def test_large_array_converges(self):
        # a transposed (Fortran-ordered) view, as well as a flat array
        x = np.random.default_rng(0).uniform(-30.0, 30.0, 10**5)
        for arr in (x, x.reshape(1000, 100).T):
            p = prox_logistic(arr, 13.0)
            assert p.shape == arr.shape
            assert np.all(np.abs(p + 13.0 * logistic_rho_prime(p) - arr) <= 1e-12)


    @pytest.mark.parametrize("g", [0.0, 0.33, 0.84, 0.98, 1.5, 8.0, 50.0])
    def test_bits_of_the_whole_array_loop(self, g):
        # one sigmoid per sweep, chunk by chunk: each element's arithmetic is
        # the whole-array loop's, so every bit is the same
        rng = np.random.default_rng(7)
        inputs = [
            np.float64(0.7), np.array(-4.18),  # 0-d
            3.0 * rng.standard_normal((40, 50)),
            rng.uniform(-30.0, 30.0, (50, 40)).T,  # a transposed view
            3.0 * rng.standard_normal(3 * PROX_CHUNK + 7),  # three full chunks, one short
        ]
        for x in inputs:
            got, want = prox_logistic(x, g), prox_logistic_reference(x, g)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_no_convergence_reports_the_largest_residual(self, monkeypatch):
        x = np.linspace(-40.0, 40.0, 101)
        for module in (scalars, support):
            monkeypatch.setattr(module, "PROX_MAX_ITER", 1)
        with pytest.raises(NumericError, match="no convergence") as got:
            prox_logistic(x, 50.0)
        with pytest.raises(NumericError) as want:
            prox_logistic_reference(x, 50.0)
        assert str(got.value) == str(want.value)


class TestProxLogisticDerivative:
    def test_zero_scale(self):
        assert prox_logistic_derivative(3.3, 0.0) == 1.0

    def test_reference_point(self):
        # frozen from oracles/oracle_prox.py: 1/(1 + rho''(prox(0,1)))
        assert prox_logistic_derivative(0.0, 1.0) == pytest.approx(0.8063147293687699, abs=1e-10)

    def test_matches_central_difference(self):
        # oracle value 0.66888639620 from oracles/oracle_prox.py
        x, g, h = 0.7, 2.0, 1e-5
        fd = (prox_logistic(x + h, g) - prox_logistic(x - h, g)) / (2 * h)
        assert prox_logistic_derivative(x, g) == pytest.approx(fd, abs=1e-6)
        assert prox_logistic_derivative(x, g) == pytest.approx(0.6688863962062681, abs=1e-9)


def _exact_erfc(x: float) -> float:
    """erfc(x) rounded to a float; mpmath overflows near |x| = 1e154, and
    beyond |x| = 30 the value rounds to 0 or 2 anyway."""
    if abs(x) > 30.0:
        return 0.0 if x > 0 else 2.0
    with mpmath.workdps(40):
        return float(mpmath.erfc(mpmath.mpf(x)))


def _assert_erfc_accurate(got: float, x: float) -> None:
    """Within 1e-15 relative of mpmath where erfc(x) is a normal float."""
    want = _exact_erfc(x)
    if want >= sys.float_info.min:
        assert abs(got - want) <= 1e-15 * want, (x, got, want)


class TestGaussianFunctions:
    def test_pdf_cdf_at_zero(self):
        assert gaussian_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-15)
        assert gaussian_cdf(0.0) == 0.5

    def test_cdf_at_one(self):
        # frozen from oracles/oracle_gaussian_moments.py (mpmath erf, 40 digits)
        assert gaussian_cdf(1.0) == pytest.approx(0.84134474606854294859, abs=1e-13)

    def test_cdf_tails(self):
        assert gaussian_cdf(8.0) == pytest.approx(1.0, abs=1e-12)
        assert gaussian_cdf(-8.0) == pytest.approx(6.22096057427178e-16, rel=1e-6)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False))
    def test_matches_mpmath_at_the_rounded_argument(self, x):
        # gaussian_cdf(x) is 0.5 * erfc(-x / sqrt(2)); the rounding of that
        # quotient is the input's own error, so mpmath takes the same quotient
        u = -x / math.sqrt(2.0)
        want = _exact_erfc(u) / 2.0
        got = float(gaussian_cdf(x))
        if want >= sys.float_info.min:
            assert abs(got - want) <= 1e-15 * want, (x, got, want)
        elif u >= 26.6:
            assert got == 0.0

    def test_saturates_and_passes_nan(self):
        assert gaussian_cdf(np.array([-40.0, 9.0, np.inf])).tolist() == [0.0, 1.0, 1.0]
        assert math.isnan(gaussian_cdf(np.nan))

    def test_pdf_is_bit_identical_to_one_exp_per_element(self):
        # the pdf skips exp where x*x > 1500; every element, written or
        # computed, keeps the bits of the plain formula
        rng = np.random.default_rng(11)
        cut = math.sqrt(1500.0)
        edges = [cut, math.nextafter(cut, 0.0), math.nextafter(cut, 99.0), math.sqrt(1490.26),
                 math.sqrt(1490.27), 38.6, 38.61, 0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324]
        edges += [-v for v in edges]
        for x in (
            rng.normal(size=10_000) * 30.0,  # mixed: some elements either side of the cut
            rng.normal(size=10_000),  # every element computed
            50.0 + rng.normal(size=10_000),  # nearly every element written as 0
            np.array(edges),
            (rng.normal(size=(40, 30)) * 40.0).T,  # a strided view
            np.zeros(0),
        ):
            got, want = gaussian_pdf(x), gaussian_pdf_formula(x)
            assert got.shape == want.shape
            hexes = [[v.hex() for v in a.ravel().tolist()] for a in (got, want)]
            assert hexes[0] == hexes[1]
        for v in edges:  # 0-d inputs
            got, want = gaussian_pdf(v), gaussian_pdf_formula(v)
            assert isinstance(got, np.float64)
            assert float(got).hex() == float(want).hex()


class TestErfc:
    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=False))
    def test_matches_mpmath_over_the_float_range(self, x):
        _assert_erfc_accurate(float(erfc(x)), x)

    @pytest.mark.parametrize("x", [
        0.0, -0.0, 5e-324, 0.46875, math.nextafter(0.46875, 1), -0.46875, 4.0,
        math.nextafter(4.0, 5), -4.0, -5.999, 26.5, 26.54,
    ])
    def test_matches_mpmath_at_the_seams(self, x):
        _assert_erfc_accurate(float(erfc(x)), x)
        _assert_erfc_accurate(float(erfc(np.array([x]))[0]), x)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-6.0, 27.0))
    def test_matches_mpmath_where_it_is_computed(self, x):
        _assert_erfc_accurate(float(erfc(x)), x)

    def test_saturates_exactly(self):
        x = np.array([26.6, 27.0, 1e300, np.inf, -6.0, -7.0, -1e300, -np.inf])
        assert erfc(x).tolist() == [0.0] * 4 + [2.0] * 4
        assert [float(erfc(v)) for v in x] == [0.0] * 4 + [2.0] * 4

    def test_nan_gives_nan(self):
        assert math.isnan(erfc(np.nan))
        out = erfc(np.array([np.nan, 0.0, np.nan, 30.0, -30.0, 1.0]))
        assert np.isnan(out[[0, 2]]).all()
        assert out[[1, 3, 4]].tolist() == [1.0, 0.0, 2.0]

    def test_scalar_path_is_bit_identical_to_the_array_path(self):
        rng = np.random.default_rng(7)
        x = np.concatenate([
            rng.uniform(-7.0, 28.0, 20_000),
            rng.uniform(-0.5, 0.5, 5_000),
            rng.uniform(3.9, 4.1, 5_000),
            [0.46875, -0.46875, 4.0, -4.0, 0.0, -0.0, 26.6, -6.0],
        ])
        batch = erfc(x)
        assert [float(erfc(v)).hex() for v in x] == [v.hex() for v in batch.tolist()]
        assert erfc(x.reshape(30_008 // 8, 8)).ravel().tolist() == batch.tolist()

    def test_keeps_the_input_shape(self):
        assert erfc(np.zeros((2, 3))).shape == (2, 3)
        x = np.linspace(-8.0, 30.0, 12).reshape(3, 4)
        assert erfc(x.T).tolist() == erfc(x).T.tolist()  # a strided view
        assert erfc(np.zeros(0)).shape == (0,)
        assert isinstance(erfc(1.0), np.float64)


class TestClippedMoments:
    def test_truncated_second_moment_zero_scale(self):
        assert truncated_second_moment(0.0, 1.0) == 0.0

    def test_truncation_inactive(self):
        assert truncated_second_moment(1.0, 1e6) == pytest.approx(1.0, abs=1e-9)

    def test_truncated_second_moment_reference(self):
        # frozen from oracles/oracle_gaussian_moments.py: quad 0.51605855096,
        # 10^7-draw MC 0.51633 +- 0.00013 (within 4 stderr of the quad value)
        assert truncated_second_moment(1.0, 1.0) == pytest.approx(0.5160585509619862, abs=1e-10)

    def test_clipped_mean_symmetry(self):
        assert clipped_mean(0.0, 1.7, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_clipped_mean_zero_scale(self):
        assert clipped_mean(2.5, 0.0, 1.0) == 1.0
        assert clipped_mean(-0.4, 0.0, 1.0) == pytest.approx(-0.4)

    @pytest.mark.parametrize("s", [0.0, 0.7])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_clipped_mean_nonfinite_rejected(self, s, bad):
        with pytest.raises(ValueError, match="non-finite"):
            clipped_mean_inside(np.array([0.5, bad]), s, 1.0)

    def test_clipped_mean_reference(self):
        # frozen from oracles/oracle_gaussian_moments.py: quad 0.33151024,
        # MC 0.33158 +- 0.00021
        assert clipped_mean(0.5, 1.0, 1.0) == pytest.approx(0.3315102363613006, abs=1e-10)

    def test_interval_probability_reference(self):
        # 2*Phi(1) - 1 from the mpmath oracle
        assert interval_probability(0.0, 1.0, 1.0) == pytest.approx(0.68268949213708589717, abs=1e-13)

    def test_interval_probability_degenerate(self):
        assert interval_probability(0.0, 0.0, 1.0) == 1.0
        assert interval_probability(5.0, 0.0, 1.0) == 0.0

    def test_clipped_second_moment_matches_truncated_at_zero_mean(self):
        for s in (0.3, 1.0, 2.4):
            assert clipped_second_moment(0.0, s, 1.0) == pytest.approx(
                truncated_second_moment(s, 1.0), rel=1e-13
            )

    @given(st.floats(-5, 5), st.floats(0.0, 5), st.floats(0.1, 8))
    @settings(max_examples=150)
    def test_clipped_second_moment_bounds(self, mu, s, L):
        v = clipped_second_moment(mu, s, L)
        assert -1e-12 <= v <= L * L + 1e-12

    def test_monotone_in_scale_and_level(self):
        grid = np.linspace(0.05, 4.0, 12)
        vals_s = [truncated_second_moment(s, 1.0) for s in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals_s, vals_s[1:]))
        vals_L = [truncated_second_moment(1.0, L) for L in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals_L, vals_L[1:]))

    def test_monte_carlo_consistency(self):
        # 10^6 fresh draws here (the 10^7 freeze lives in the oracle script);
        # agreement within 4 standard errors
        rng = np.random.default_rng(20240817)
        z = rng.standard_normal(1_000_000)
        for mu, s, L in [(0.5, 1.0, 1.0), (0.0, 2.0, 1.5), (-1.2, 0.7, 2.0)]:
            x = np.clip(mu + s * z, -L, L)
            se_m = x.std(ddof=1) / math.sqrt(z.size)
            assert clipped_mean(mu, s, L) == pytest.approx(x.mean(), abs=4 * se_m)
            x2 = x**2
            se_2 = x2.std(ddof=1) / math.sqrt(z.size)
            assert clipped_second_moment(mu, s, L) == pytest.approx(x2.mean(), abs=4 * se_2)


def _bits(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values, dtype=float).ravel()]


class TestClippedMomentsKernel:
    # one kernel in place of three: each output has the bits of the separate
    # formula, with its own CDFs and densities, kept in tests/support.py
    @given(st.floats(-60.0, 60.0), st.floats(0.0, 50.0), st.floats(0.01, 50.0))
    @example(0.7, 0.0, 1.0)  # s = 0: the clip and indicator limits
    @example(-3.0, 0.0, 1.0)
    @example(1.5, 0.8, 1.5)  # |mu| = L
    @example(-1.5, 0.0, 1.5)
    @example(-0.4, 5e-324, 1.0)  # a subnormal s: the capped bounds
    @example(2.0, 5e-324, 1.0)
    @example(1.0, 5e-324, 1.0)  # |mu| = L and a subnormal s: dP/dmu overflows to -inf
    @example(40.0, 0.01, 1.0)  # |mu| >> L*s: the CDFs and densities saturate
    @example(-55.0, 1e-3, 0.02)
    @settings(max_examples=300)
    def test_bits_of_the_separate_formulas(self, mu, s, L):
        (second, inside), grad = clipped_moments(mu, s, L)
        assert _bits([second, inside]) == _bits(
            [clipped_second_moment(mu, s, L), interval_probability(mu, s, L)]
        )
        assert _bits(grad) == _bits(clipped_moment_gradients(mu, s, L))

    def test_gradient_matches_central_differences(self):
        h = 1e-6
        for mu, s, L in [(0.3, 0.7, 1.0), (-1.2, 1.5, 0.8), (2.0, 0.4, 2.5)]:
            _, grad = clipped_moments(mu, s, L)
            d_mu = np.subtract(clipped_moments(mu + h, s, L)[0], clipped_moments(mu - h, s, L)[0])
            d_s = np.subtract(clipped_moments(mu, s + h, L)[0], clipped_moments(mu, s - h, L)[0])
            np.testing.assert_allclose(grad, np.stack([d_mu, d_s], axis=1) / (2 * h), atol=1e-8)


class TestExpectedHuber:
    def test_matches_adaptive_quadrature(self):
        # independent oracle: scipy adaptive quadrature with the kinks listed
        # as breakpoints
        from scipy.integrate import quad

        for mu, s, L in [(0.0, 1.0, 1.0), (0.5, 0.3, 2.0), (2.0, 1.0, 0.5),
                         (-3.0, 1.5, 1.0), (1.0, 4.0, 3.0)]:
            # integrate each smooth piece separately so quad reaches ~1e-13
            cuts = sorted(
                {-12.0, 12.0,
                 float(np.clip((-L - mu) / s, -12, 12)),
                 float(np.clip((L - mu) / s, -12, 12))}
            )
            oracle = 0.0
            err_total = 0.0
            for lo, hi in zip(cuts, cuts[1:]):
                part, err = quad(
                    lambda u: huber(mu + s * u, L) * float(gaussian_pdf(u)),
                    lo, hi, limit=200, epsabs=1e-13,
                )
                oracle += part
                err_total += err
            assert err_total < 1e-8
            assert float(expected_huber(mu, s, L)) == pytest.approx(
                oracle, abs=10 * err_total + 1e-12
            )

    def test_zero_scale_reduces_to_huber(self):
        x = np.linspace(-4, 4, 17)
        np.testing.assert_allclose(expected_huber(x, 0.0, 1.5), huber(x, 1.5), rtol=0, atol=0)

    def test_derivative_is_clipped_mean(self):
        # d/dmu E[H_L(mu + s Z)] = E[clip(mu + s Z, L)]
        h = 1e-5
        for mu in (-2.5, -0.3, 0.0, 1.2, 4.0):
            for s, L in [(0.5, 1.0), (1.5, 2.0)]:
                fd = (expected_huber(mu + h, s, L) - expected_huber(mu - h, s, L)) / (2 * h)
                assert float(fd) == pytest.approx(float(clipped_mean(mu, s, L)), abs=1e-9)

    @given(st.floats(-10, 10), st.floats(0.01, 5), st.floats(0.1, 5))
    @settings(max_examples=150)
    def test_nonnegative_and_bounded_by_quadratic(self, mu, s, L):
        v = float(expected_huber(mu, s, L))
        # H_L <= u^2/2, so the expectation is at most (mu^2 + s^2)/2
        assert -1e-12 <= v <= 0.5 * (mu * mu + s * s) + 1e-9
