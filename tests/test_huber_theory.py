"""Fixed-point system tests for robust (Huber) regression asymptotics.

Frozen (sigma*, tau*) pairs come from oracles/oracle_huber_system.py — an
independent damped-Picard iteration using scipy quadrature rather than the
package's Newton + closed-form moments.
"""

import math

import numpy as np
import pytest

from propdp import scalars
from propdp.errors import ConfigError
from propdp.huber_theory import (
    MIN_LAMBDA,
    HuberSolution,
    _clipped_residual,
    huber_predictions,
    residual_second_moment,
    solve_huber_system,
    system_residual,
)
from propdp.laws import ScalarLaw, parse_law
from propdp.models import output_perturbation_predictions
from support import (
    central_difference_jacobian,
    clipped_moment_gradients,
    clipped_second_moment,
    effective_noise_scale,
    enumerate_roots,
    interval_probability,
    limit_triple_moment,
    residual_interval_probability,
    residual_pair_moment,
    system_residual_quadrature,
)

STD_SIGNAL = ScalarLaw.gaussian(1.0)
NOISE_02 = ScalarLaw.gaussian(0.2)
NOISE_05 = ScalarLaw.gaussian(0.5)


def solve(delta, lam, nu, L, noise, signal=STD_SIGNAL, **kw):
    return solve_huber_system(delta, lam, nu, L, signal, noise, **kw)


class TestFrozenSolutions:
    def test_reference_point_private(self):
        # frozen from oracles/oracle_huber_system.py (damped Picard, 400 iters):
        # delta=0.5, lam=1, nu=0.2, L=10, kappa=1, noise std 0.2
        sol = solve(0.5, 1.0, 0.2, 10.0, NOISE_02)
        assert sol.sigma_star == pytest.approx(0.4729432563019281, abs=1e-9)
        assert sol.tau_star == pytest.approx(0.414213562373095, abs=1e-9)

    def test_reference_point_heavy_clip(self):
        # frozen from oracles/oracle_huber_system.py:
        # delta=2, lam=0.3, nu=0, L=1, noise std 0.5
        sol = solve(2.0, 0.3, 0.0, 1.0, NOISE_05)
        assert sol.sigma_star == pytest.approx(0.8008844113476226, abs=1e-8)
        assert sol.tau_star == pytest.approx(2.1899708628089583, abs=1e-8)

    def test_large_clip_reduces_to_ridge(self):
        # with L -> inf the truncation is inactive and tau solves the ridge
        # equation; at delta=0.5, lam=1 the root is sqrt(2) - 1
        # (frozen bisection value from oracles/oracle_huber_system.py)
        sol = solve(0.5, 1.0, 0.0, 1e6, NOISE_02)
        assert sol.tau_star == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-10)
        # sigma then solves a linear equation exactly:
        # sigma^2 (1 - c) = c eps^2 + tau^2 lam^2 kappa^2, c = tau^2/((1+tau)^2 delta)
        t = sol.tau_star
        coef = t**2 / ((1 + t) ** 2 * 0.5)
        expected_var = (coef * 0.2**2 + t**2 * 1.0) / (1.0 - coef)
        assert sol.sigma_star**2 == pytest.approx(expected_var, rel=1e-10)

    def test_deterministic(self):
        a = solve(0.5, 1.0, 0.2, 10.0, NOISE_02)
        b = solve(0.5, 1.0, 0.2, 10.0, NOISE_02)
        assert (a.sigma_star, a.tau_star) == (b.sigma_star, b.tau_star)

    def test_warm_start_stays_on_branch(self):
        cold = solve(0.6, 0.8, 0.1, 5.0, NOISE_02)
        warm = solve(0.6, 0.8, 0.1, 5.0, NOISE_02, initial=(cold.sigma_star, cold.tau_star))
        assert warm.sigma_star == pytest.approx(cold.sigma_star, rel=1e-10)
        assert warm.iterations <= cold.iterations


class TestResidualFunctions:
    def test_solution_residual_small(self):
        sol = solve(0.5, 1.0, 0.2, 10.0, NOISE_02)
        r, _ = system_residual(
            sol.sigma_star,
            sol.tau_star,
            delta=0.5,
            lam=1.0,
            nu=0.2,
            L=10.0,
            kappa_sq=1.0,
            noise=NOISE_02,
        )
        assert np.linalg.norm(r) <= 1e-8

    def test_quadrature_path_agrees(self):
        # the independent Gauss-Legendre panel evaluation (doubled nodes)
        # must agree with the closed-form path at the solution
        sol = solve(2.0, 0.3, 0.0, 1.0, NOISE_05)
        r = system_residual_quadrature(
            sol.sigma_star,
            sol.tau_star,
            delta=2.0,
            lam=0.3,
            nu=0.0,
            L=1.0,
            kappa_sq=1.0,
            noise=NOISE_05,
            nodes=240,
        )
        assert np.linalg.norm(r) <= 1e-6

    def test_second_moment_bounded_by_clip(self):
        assert residual_second_moment(1.0, 0.5, 2.0, NOISE_02) <= 4.0
        assert residual_interval_probability(1.0, 0.5, 2.0, NOISE_02) <= 1.0

    def test_point_mass_noise(self):
        # eps == 0.3 exactly, sigma = 0: residual is clip(0.3/(1+tau), L)
        noise = ScalarLaw.point_mass(0.3)
        val = residual_second_moment(0.0, 0.5, 10.0, noise)
        assert val == pytest.approx((0.3 / 1.5) ** 2, rel=1e-12)

    def test_mixture_noise_folds(self):
        mix = parse_law("mix:0.5*gaussian:0.2,0.5*point:0.3")
        direct = 0.5 * residual_second_moment(0.7, 0.4, 3.0, NOISE_02) + 0.5 * residual_second_moment(
            0.7, 0.4, 3.0, ScalarLaw.point_mass(0.3)
        )
        assert residual_second_moment(0.7, 0.4, 3.0, mix) == pytest.approx(direct, rel=1e-13)


def _separate_formulas_residual(sigma, tau, L, noise):
    """``_clipped_residual`` with a call to each of the three separate
    clipped-moment formulas per component, as the package computed it before
    ``scalars.clipped_moments`` fused them."""
    values, grad = np.zeros(2), np.zeros((2, 2))
    for w, loc, scale in zip(noise.weights, noise.locs, noise.scales):
        hyp = float(np.hypot(sigma, scale))
        mu, s = loc / (1.0 + tau), hyp / (1.0 + tau)
        values += w * np.array([clipped_second_moment(mu, s, L), interval_probability(mu, s, L)])
        chain = np.array([[0.0, -mu], [sigma / hyp if hyp > 0 else 0.0, -s]]) / (1.0 + tau)
        grad += w * clipped_moment_gradients(mu, s, L) @ chain
    return values, grad


def _bits(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values, dtype=float).ravel()]


# (L, noise) of fig1 (the config defaults) and of fig2's Huber curves; the
# hex strings were recorded from the three separate formulas
FIG_HUBER_SETTINGS = [(10.0, "gaussian:0.2"), (1.0, "gaussian:0.1")]
PINNED_RESIDUALS = {
    (10.0, "gaussian:0.2", 0.5, 0.4): (
        ["0x1.2f05397829cbcp-3", "0x1.0000000000000p+0"],
        ["0x1.05397829cbc15p-1", "-0x1.b0e2e46284d9fp-3",
         "-0x1.8be66277f5699p-483", "0x1.4808087205db1p-484"],
    ),
    (10.0, "gaussian:0.2", 1.3, 2.0): (
        ["0x1.89abcdf012347p-3", "0x1.0000000000000p+0"],
        ["0x1.27d27d27d27d3p-2", "-0x1.0672894ab6cdap-3",
         "-0x1.6b8c2673298f2p-372", "0x1.4288275cfadc4p-373"],
    ),
    (1.0, "gaussian:0.1", 0.5, 0.4): (
        ["0x1.0cabf04c8c527p-3", "0x1.fce86206ceb96p-1"],
        ["0x1.ece3c02a08f4fp-2", "-0x1.6e25876faee1ep-3",
         "-0x1.8e1730652068ap-4", "0x1.27b974686137cp-5"],
    ),
    (1.0, "gaussian:0.1", 1.3, 2.0): (
        ["0x1.7410d26ecf100p-3", "0x1.f50b60bc77342p-1"],
        ["0x1.f604fb0c5229cp-3", "-0x1.b5a871d63a804p-4",
         "-0x1.977688219ebc9p-4", "0x1.633962fc7d41ep-5"],
    ),
}


class TestClippedResidualKernel:
    @pytest.mark.parametrize("key", list(PINNED_RESIDUALS))
    def test_pinned_at_the_figure_settings(self, key):
        L, noise, sigma, tau = key
        values, grad = _clipped_residual(sigma, tau, L, parse_law(noise))
        assert (_bits(values), _bits(grad)) == PINNED_RESIDUALS[key]

    @pytest.mark.parametrize("L, noise", FIG_HUBER_SETTINGS)
    def test_bits_of_the_separate_formulas_along_fig_curves(self, L, noise):
        # the solved (sigma*, tau*) of the objective curve at lam = 1, nu = 0.2,
        # and points around each
        law = parse_law(noise)
        for ratio in (0.1, 0.3, 0.5, 0.7, 0.9):
            sol = solve((1.0 - ratio) / ratio, 1.0, 0.2, L, law)
            for sigma in (sol.sigma_star, 0.5 * sol.sigma_star, 2.0 * sol.sigma_star):
                for tau in (sol.tau_star, 0.5 * sol.tau_star, 2.0 * sol.tau_star):
                    values, grad = _clipped_residual(sigma, tau, L, law)
                    reference = _separate_formulas_residual(sigma, tau, L, law)
                    assert (_bits(values), _bits(grad)) == tuple(map(_bits, reference))

    @pytest.mark.parametrize(
        "noise", ["gaussian:0.2", "mix:0.6*gaussian:0.3,0.4*point:0.2", "point:0", "gaussian:5e-324"]
    )
    def test_bits_of_the_separate_formulas_at_degenerate_scales(self, noise):
        law = parse_law(noise)
        for sigma in (0.0, 5e-324, 1e-300, 0.7):
            for tau in map(np.float64, (1e-3, 0.4, 30.0)):  # numpy floats, as Newton passes
                values, grad = _clipped_residual(sigma, tau, 1.0, law)
                reference = _separate_formulas_residual(sigma, tau, 1.0, law)
                assert (_bits(values), _bits(grad)) == tuple(map(_bits, reference))

    @pytest.mark.parametrize(
        "noise, components", [("gaussian:0.2", 1), ("mix:0.6*gaussian:0.3,0.4*point:0.2", 2)]
    )
    def test_two_cdfs_and_two_densities_per_component(self, noise, components, monkeypatch):
        calls = {"gaussian_cdf": 0, "gaussian_pdf": 0}
        for name in calls:
            def counted(x, _original=getattr(scalars, name), _name=name):
                calls[_name] += 1
                return _original(x)

            monkeypatch.setattr(scalars, name, counted)
        system_residual(
            0.6, 0.4, delta=1.0, lam=1.0, nu=0.2, L=1.0, kappa_sq=1.0, noise=parse_law(noise)
        )
        assert calls == {"gaussian_cdf": 2 * components, "gaussian_pdf": 2 * components}


class TestJacobian:
    @pytest.mark.parametrize(
        "noise", ["gaussian:0.3", "point:0.5", "mix:0.7*gaussian:0.2,0.3*point:1.5"]
    )
    def test_matches_central_differences(self, noise):
        # the closed-form Jacobian against the test-side central differences
        # at random interior points of (sigma, tau) and the inputs
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = np.array([rng.uniform(0.05, 2.0), rng.uniform(0.05, 3.0)])
            params = dict(
                delta=rng.uniform(0.3, 3.0), lam=rng.uniform(0.1, 2.0), nu=rng.uniform(0.0, 0.5),
                L=rng.uniform(0.5, 5.0), kappa_sq=rng.uniform(0.25, 2.0), noise=parse_law(noise),
            )
            _, jac = system_residual(*x, **params)
            fd = central_difference_jacobian(lambda y: system_residual(*y, **params)[0], x)
            np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-6)


class TestPredictions:
    def test_mapping_identities(self):
        sol = solve(0.5, 1.0, 0.2, 10.0, NOISE_02)
        preds = huber_predictions(sol)
        assert preds["estimation_error"] == pytest.approx(sol.sigma_star**2, rel=1e-15)
        assert preds["bias"] == pytest.approx((1 - sol.tau_star * 1.0) * 1.0, rel=1e-12)
        assert preds["xi_correlation"] == pytest.approx(-sol.tau_star * 0.2, rel=1e-12)
        assert preds["truncated_residual"] == pytest.approx(
            residual_second_moment(sol.sigma_star, sol.tau_star, 10.0, NOISE_02), rel=1e-15
        )

    def test_effective_noise_closes_the_variance(self):
        # sigma*^2 == tau*^2 (sv^2 + lam^2 kappa^2 + nu^2)
        sol = solve(0.7, 0.9, 0.3, 4.0, NOISE_02)
        sv = effective_noise_scale(sol)
        assert sol.sigma_star**2 == pytest.approx(
            sol.tau_star**2 * (sv**2 + 0.9**2 * 1.0 + 0.3**2), rel=1e-9
        )

    def test_limit_triple_moment_consistency(self):
        sol = solve(0.5, 1.0, 0.2, 10.0, NOISE_02)
        # second moment of the error coordinate is the estimation error
        m2 = limit_triple_moment(sol, lambda b, x, e: e**2)
        assert m2 == pytest.approx(sol.sigma_star**2, rel=1e-9)
        # covariance with the signal gives bias - kappa^2
        mb = limit_triple_moment(sol, lambda b, x, e: e * b)
        assert mb == pytest.approx(-sol.tau_star * sol.lam * sol.kappa_sq, rel=1e-9)
        # covariance with the perturbation direction
        mx = limit_triple_moment(sol, lambda b, x, e: e * x)
        assert mx == pytest.approx(-sol.tau_star * sol.nu, rel=1e-9)

    def test_residual_pair_moment_matches_closed_form(self):
        sol = solve(0.5, 1.0, 0.2, 10.0, NOISE_02)
        m = residual_pair_moment(sol, lambda eps, t: t**2)
        assert m == pytest.approx(
            residual_second_moment(sol.sigma_star, sol.tau_star, 10.0, NOISE_02), rel=1e-10
        )


class TestOutputPerturbation:
    def test_additive_shift_exact(self):
        base = solve(0.5, 1.0, 0.0, 10.0, NOISE_02)
        preds0 = huber_predictions(base)
        for nu in (0.0, 0.2, 0.5):
            shifted = output_perturbation_predictions(base, nu)
            assert shifted["estimation_error"] - preds0["estimation_error"] == pytest.approx(
                nu**2, abs=1e-12
            )
            assert shifted["bias"] == preds0["bias"]
            assert shifted["xi_correlation"] == nu

    def test_requires_noise_free_base(self):
        base = solve(0.5, 1.0, 0.2, 10.0, NOISE_02)
        with pytest.raises(ConfigError):
            output_perturbation_predictions(base, 0.1)


class TestValidation:
    def test_bad_inputs(self):
        with pytest.raises(ConfigError):
            solve(0.0, 1.0, 0.0, 1.0, NOISE_02)
        with pytest.raises(ConfigError):
            solve(0.5, MIN_LAMBDA / 10, 0.0, 1.0, NOISE_02)
        with pytest.raises(ConfigError):
            solve(0.5, 1.0, -0.1, 1.0, NOISE_02)
        with pytest.raises(ConfigError):
            solve(0.5, 1.0, 0.0, 0.0, NOISE_02)

    def test_solution_dataclass_round_trip(self):
        sol = solve(0.5, 1.0, 0.2, 10.0, NOISE_02)
        d = sol.as_dict()
        assert d["sigma_star"] == sol.sigma_star
        assert d["lambda"] == 1.0
        assert isinstance(sol, HuberSolution)

        def f(x):
            return system_residual(
                x[0], x[1], delta=0.5, lam=1.0, nu=0.2, L=10.0,
                kappa_sq=STD_SIGNAL.second_moment, noise=NOISE_02,
            )

        roots = [(float(r.x[0]), float(r.x[1])) for r in enumerate_roots(f, [1.0, 1.0 / 3.0])]
        assert any(
            abs(s - sol.sigma_star) < 1e-6 and abs(t - sol.tau_star) < 1e-6 for s, t in roots
        )
