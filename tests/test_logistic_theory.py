"""Fixed-point system tests for regularized logistic regression asymptotics.

Frozen (alpha*, sigma*, gamma*) triples come from
oracles/oracle_logistic_system.py — an independent damped-Picard iteration
with scipy nested quadrature and a brentq-based prox, not the package's
Newton + Gauss-Hermite path.
"""

import numpy as np
import pytest

from propdp.errors import ConfigError, NumericError
from propdp.logistic_theory import (
    MIN_LAMBDA,
    LogisticSolution,
    logistic_predictions,
    rho_prime_difference,
    solve_logistic_system,
    system_residual,
)
from propdp.models import output_perturbation_predictions
from propdp.rng import stream
from propdp.scalars import logistic_rho_prime, prox_logistic
from support import central_difference_jacobian


class TestFrozenSolutions:
    def test_reference_point_noise_free(self):
        # frozen from oracles/oracle_logistic_system.py:
        # delta=2, lam=1, nu=0, kappa=1
        sol = solve_logistic_system(2.0, 1.0, 0.0, 1.0)
        assert sol.alpha_star == pytest.approx(0.07698486644957164, abs=1e-8)
        assert sol.sigma_star == pytest.approx(0.2616870012047232, abs=1e-8)
        assert sol.gamma_star == pytest.approx(0.9110128318687132, abs=1e-8)

    def test_reference_point_private(self):
        # frozen from oracles/oracle_logistic_system.py:
        # delta=0.5, lam=1, nu=0.2, kappa=1
        sol = solve_logistic_system(0.5, 1.0, 0.2, 1.0)
        assert sol.alpha_star == pytest.approx(0.2528486666928528, abs=1e-8)
        assert sol.sigma_star == pytest.approx(0.4474243267790389, abs=1e-8)
        assert sol.gamma_star == pytest.approx(0.7161268800798546, abs=1e-8)

    def test_deterministic(self):
        a = solve_logistic_system(0.5, 1.0, 0.2, 1.0)
        b = solve_logistic_system(0.5, 1.0, 0.2, 1.0)
        assert (a.alpha_star, a.sigma_star, a.gamma_star) == (
            b.alpha_star,
            b.sigma_star,
            b.gamma_star,
        )

    def test_warm_start(self):
        cold = solve_logistic_system(0.8, 0.7, 0.1, 1.0)
        warm = solve_logistic_system(
            0.8, 0.7, 0.1, 1.0, initial=(cold.alpha_star, cold.sigma_star, cold.gamma_star)
        )
        assert warm.sigma_star == pytest.approx(cold.sigma_star, rel=1e-10)

    def test_converged_start_reports_a_finite_condition_number(self):
        cold = solve_logistic_system(1.0, 1.0, 0.2, 1.0)
        again = solve_logistic_system(
            1.0, 1.0, 0.2, 1.0, initial=(cold.alpha_star, cold.sigma_star, cold.gamma_star)
        )
        assert again.iterations == 0
        assert np.isfinite(again.condition_number)

    def test_solution_ranges(self):
        sol = solve_logistic_system(0.5, 1.0, 0.2, 1.0)
        assert 0.0 < sol.alpha_star < 1.0
        assert sol.sigma_star > 0.0
        assert sol.gamma_star > 0.0
        # the error law requires sigma* >= gamma* nu
        assert sol.sigma_star >= sol.gamma_star * sol.nu


class TestResiduals:
    def test_solution_residual_small(self):
        sol = solve_logistic_system(0.5, 1.0, 0.2, 1.0)
        r, _ = system_residual(
            sol.alpha_star, sol.sigma_star, sol.gamma_star, delta=0.5, lam=1.0, nu=0.2, kappa=1.0
        )
        assert np.linalg.norm(r) <= 1e-8

    def test_doubled_node_residual(self):
        # re-substitution under an independent (finer) quadrature rule
        sol = solve_logistic_system(2.0, 1.0, 0.0, 1.0)
        r, _ = system_residual(
            sol.alpha_star,
            sol.sigma_star,
            sol.gamma_star,
            delta=2.0,
            lam=1.0,
            nu=0.0,
            kappa=1.0,
            nodes=160,
        )
        assert np.linalg.norm(r) <= 1e-6


class TestJacobian:
    def test_matches_central_differences(self):
        # the closed-form Jacobian against the test-side central differences
        # at random interior points of (alpha, sigma, gamma) and the inputs
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = np.array([rng.uniform(0.05, 1.5), rng.uniform(0.1, 2.0), rng.uniform(0.1, 3.0)])
            params = dict(
                delta=rng.uniform(0.3, 3.0), lam=rng.uniform(0.1, 2.0),
                nu=rng.uniform(0.0, 0.5), kappa=rng.uniform(0.5, 1.5),
            )
            _, jac = system_residual(*x, **params)
            fd = central_difference_jacobian(lambda y: system_residual(*y, **params)[0], x)
            np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-6)


class TestPredictions:
    def test_mapping_identities(self):
        sol = solve_logistic_system(0.5, 1.0, 0.2, 1.0)
        preds = logistic_predictions(sol)
        assert preds["estimation_error"] == pytest.approx(
            (1 - sol.alpha_star) ** 2 + sol.sigma_star**2, rel=1e-14
        )
        assert preds["bias"] == pytest.approx(sol.alpha_star, rel=1e-14)
        assert preds["xi_correlation"] == pytest.approx(-sol.gamma_star * 0.2, rel=1e-14)
        assert 0.0 < preds["rho_diff"] < 1.0

    def test_rho_diff_only_when_asked(self):
        sol = solve_logistic_system(0.5, 1.0, 0.2, 1.0)
        full = logistic_predictions(sol)
        assert set(logistic_predictions(sol, ("estimation_error",))) == set(full) - {"rho_diff"}
        assert logistic_predictions(sol, ("rho_diff",))["rho_diff"] == full["rho_diff"]

    def test_rho_diff_against_monte_carlo(self):
        sol = solve_logistic_system(0.5, 1.0, 0.2, 1.0)
        gen = stream(13, "logistic-rho-diff")
        n = 2_000_000
        z1 = gen.standard_normal(n)
        z2 = gen.standard_normal(n)
        target = logistic_rho_prime(sol.kappa * z1)
        y = (gen.random(n) < target).astype(float)
        arg = sol.alpha_star * sol.kappa * z1 + sol.sigma_star * z2 + sol.gamma_star * y
        fitted = logistic_rho_prime(prox_logistic(arg, sol.gamma_star))
        diff = (target - fitted) ** 2
        se = diff.std(ddof=1) / np.sqrt(n)
        assert rho_prime_difference(sol) == pytest.approx(diff.mean(), abs=4 * se)

    def test_noise_increases_error(self):
        quiet = logistic_predictions(solve_logistic_system(0.5, 1.0, 0.0, 1.0))
        loud = logistic_predictions(solve_logistic_system(0.5, 1.0, 0.4, 1.0))
        assert loud["estimation_error"] > quiet["estimation_error"]
        assert loud["rho_diff"] > quiet["rho_diff"]


class TestOutputPerturbation:
    def test_additive_shift_exact(self):
        base = solve_logistic_system(0.5, 1.0, 0.0, 1.0)
        preds0 = logistic_predictions(base)
        for nu in (0.0, 0.3, 0.5):
            shifted = output_perturbation_predictions(base, nu)
            assert shifted["estimation_error"] - preds0["estimation_error"] == pytest.approx(
                nu**2, abs=1e-12
            )
            assert shifted["bias"] == preds0["bias"]
            assert shifted["xi_correlation"] == nu

    def test_requires_noise_free_base(self):
        base = solve_logistic_system(0.5, 1.0, 0.2, 1.0)
        with pytest.raises(ConfigError):
            output_perturbation_predictions(base, 0.1)


class TestValidation:
    def test_bad_inputs(self):
        with pytest.raises(ConfigError):
            solve_logistic_system(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ConfigError):
            solve_logistic_system(0.5, MIN_LAMBDA / 10, 0.0, 1.0)
        with pytest.raises(ConfigError):
            solve_logistic_system(0.5, 1.0, -0.1, 1.0)
        with pytest.raises(ConfigError):
            solve_logistic_system(0.5, 1.0, 0.0, 0.0)

    def test_error_law_constraint_enforced(self):
        with pytest.raises(NumericError):
            LogisticSolution(
                alpha_star=0.5,
                sigma_star=0.1,
                gamma_star=1.0,
                residual_norm=0.0,
                delta=0.5,
                lam=1.0,
                nu=0.5,  # gamma * nu = 0.5 > sigma = 0.1
                kappa=1.0,
            )

    def test_as_dict(self):
        sol = solve_logistic_system(2.0, 1.0, 0.0, 1.0)
        d = sol.as_dict()
        assert d["alpha_star"] == sol.alpha_star
        assert d["lambda"] == 1.0
