"""Fixed-point system tests for robust (Huber) regression asymptotics.

Frozen (sigma*, tau*) pairs come from oracles/oracle_huber_system.py — an
independent damped-Picard iteration using scipy quadrature rather than the
package's Newton + closed-form moments.
"""

import math

import numpy as np
import pytest

from propdp.errors import ConfigError
from propdp.huber_theory import (
    MIN_LAMBDA,
    HuberSolution,
    huber_predictions,
    residual_second_moment,
    solve_huber_system,
    system_residual,
)
from propdp.laws import ScalarLaw, parse_law
from propdp.models import output_perturbation_predictions
from support import (
    central_difference_jacobian,
    effective_noise_scale,
    enumerate_roots,
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
