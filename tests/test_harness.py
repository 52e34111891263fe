"""Experiment-harness tests: grids, data generation, metrics, determinism,
and parallel/serial equivalence."""

import dataclasses
import math

import numpy as np
import pytest

from propdp.errors import ConfigError, NumericError
from propdp.harness import (
    DESIGNS,
    RATIO_GRID,
    ExperimentConfig,
    MetricRecord,
    design_radius,
    gen_design,
    gen_linear_labels,
    gen_logistic_labels,
    gen_signal,
    grid_from_ratios,
    run_experiment,
    solve_theory,
    summarize,
)
from propdp.laws import ScalarLaw
from propdp.models import SPECS, ModelSpec, empirical_metrics, step_size_at
from propdp.scalars import logistic_rho_prime


class TestGrid:
    def test_balanced_point(self):
        # ratio 0.5 gives n = d = sqrt(total)
        assert grid_from_ratios(900, (0.5,)) == ((30, 30),)

    def test_full_default_grid(self):
        grid = grid_from_ratios(1000)
        assert len(grid) == len(RATIO_GRID)
        # n increases along the ratio grid while d decreases
        ns = [n for n, _ in grid]
        ds = [d for _, d in grid]
        assert ns == sorted(ns)
        assert ds == sorted(ds, reverse=True)
        # products stay near the target (rounding aside)
        for n, d in grid:
            assert 0.8 * 1000 <= n * d <= 1.25 * 1000

    def test_ratio_formula(self):
        # n = round(sqrt(total * r / (1 - r)))
        total, r = 1000, 0.3
        n_exact = math.sqrt(total * r / (1 - r))
        assert grid_from_ratios(total, (r,))[0][0] == max(2, round(n_exact))

    def test_floor_of_two(self):
        assert grid_from_ratios(4, (0.01,))[0][0] == 2

    def test_bad_ratio(self):
        with pytest.raises(ConfigError):
            grid_from_ratios(100, (0.0,))
        with pytest.raises(ConfigError):
            grid_from_ratios(100, (1.0,))


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig(model="huber_objective")
        assert cfg.design == "rademacher"
        assert cfg.grid_points() == grid_from_ratios(1000, RATIO_GRID)

    def test_explicit_grid_wins(self):
        cfg = ExperimentConfig(model="huber_objective", grid=((10, 20),))
        assert cfg.grid_points() == ((10, 20),)

    def test_unknown_model(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(model="linear_sgd")

    def test_unknown_design(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(model="huber_objective", design="cauchy")

    def test_private_gaussian_design_rejected(self):
        # unbounded rows have no sensitivity bound, so nu > 0 is not allowed
        with pytest.raises(ConfigError):
            ExperimentConfig(model="huber_objective", design="gaussian", nu=0.1)
        ExperimentConfig(model="huber_objective", design="gaussian", nu=0.0)

    def test_bad_law_string(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(model="huber_objective", noise="uniform:1")

    def test_step_size_default(self):
        cfg = ExperimentConfig(model="huber_dpsgd_ce")
        assert step_size_at(1.0, cfg.step_size) == pytest.approx(0.25)
        cfg2 = dataclasses.replace(cfg, step_size=0.125)
        assert step_size_at(1.0, cfg2.step_size) == 0.125

    @pytest.mark.parametrize("field", ["L", "lam", "nu", "step_size"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_scales_rejected(self, field, value):
        with pytest.raises(ConfigError):
            ExperimentConfig(model="huber_dpsgd_ce", **{field: value})

    def test_dpsgd_trace_budget_validated(self):
        for overrides in ({"mc_samples": 5}, {"steps": 0}, {"steps": 17}):
            with pytest.raises(ConfigError):
                ExperimentConfig(model="huber_dpsgd_ce", **overrides)
        # the trace settings mean nothing to the fixed-point models
        ExperimentConfig(model="huber_objective", mc_samples=5, steps=0)

    def test_replicate_with_revalidates(self):
        cfg = ExperimentConfig(model="huber_objective")
        with pytest.raises(ConfigError):
            dataclasses.replace(cfg, design="gaussian", nu=0.5)


class TestDesigns:
    @pytest.mark.parametrize("kind", DESIGNS)
    def test_moments(self, kind):
        X = gen_design(2000, 50, kind, seed=1)
        assert X.shape == (2000, 50)
        # entries are mean-zero with variance 1/d
        assert X.mean() == pytest.approx(0.0, abs=5 * math.sqrt(1 / 50 / X.size))
        assert (X**2).mean() * 50 == pytest.approx(1.0, abs=0.02)

    def test_rademacher_rows_unit_norm(self):
        X = gen_design(20, 30, "rademacher", seed=2)
        np.testing.assert_allclose(np.linalg.norm(X, axis=1), 1.0, rtol=1e-12)
        assert design_radius(X, "rademacher") >= 1.0

    def test_bounded_uniform_radius(self):
        X = gen_design(50, 10, "bounded_uniform", seed=3)
        assert np.linalg.norm(X, axis=1).max() <= design_radius(X, "bounded_uniform")

    def test_gaussian_radius_is_empirical(self):
        X = gen_design(50, 10, "gaussian", seed=4)
        assert design_radius(X, "gaussian") >= np.linalg.norm(X, axis=1).max()

    def test_deterministic(self):
        np.testing.assert_array_equal(
            gen_design(10, 5, "rademacher", seed=9), gen_design(10, 5, "rademacher", seed=9)
        )

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            gen_design(5, 5, "sparse", seed=0)


class TestLabels:
    def test_linear_labels(self):
        X = gen_design(200, 20, "rademacher", seed=5)
        beta = gen_signal(20, ScalarLaw.gaussian(1.0), seed=5)
        y = gen_linear_labels(X, beta, ScalarLaw.point_mass(0.0), seed=5)
        np.testing.assert_allclose(y, X @ beta, rtol=1e-15)

    def test_logistic_labels_binary_and_calibrated(self):
        X = gen_design(200_000, 4, "rademacher", seed=6)
        beta = np.full(4, 0.5)
        y = gen_logistic_labels(X, beta, seed=6)
        assert set(np.unique(y)) <= {0.0, 1.0}
        # empirical success rate matches the sigmoid link on average
        p = logistic_rho_prime(X @ beta)
        assert y.mean() == pytest.approx(p.mean(), abs=4 / math.sqrt(y.size))


class TestEmpiricalMetrics:
    def test_huber_metrics_on_crafted_input(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        beta_star = np.array([1.0, -1.0])
        beta_hat = np.array([2.0, 0.0])
        xi = np.array([1.0, 3.0])
        y = np.array([0.0, 0.0, 5.0])
        m = empirical_metrics(beta_hat, beta_star, xi, X, y, "huber_objective", L=1.5)
        assert m["estimation_error"] == pytest.approx((1 + 1) / 2)
        assert m["bias"] == pytest.approx((2 + 0) / 2)
        assert m["xi_correlation"] == pytest.approx((1 * 1 + 1 * 3) / 2)
        residuals = np.clip(y - X @ beta_hat, -1.5, 1.5)
        assert m["truncated_residual"] == pytest.approx(float(residuals @ residuals) / 3)

    def test_output_model_uses_shift_direction(self):
        X = np.eye(2)
        beta_star = np.array([1.0, 0.0])
        beta_tilde = np.array([0.5, 0.5])
        xi = np.array([2.0, -1.0])
        beta_hat = beta_tilde + 0.1 * xi
        y = np.zeros(2)
        m = empirical_metrics(
            beta_hat, beta_star, xi, X, y, "huber_output", L=1.0, beta_tilde=beta_tilde
        )
        # <beta_hat - beta_tilde, xi>/d = 0.1*||xi||^2/d
        assert m["xi_correlation"] == pytest.approx(0.1 * 5.0 / 2)

    def test_output_model_requires_beta_tilde(self):
        with pytest.raises(ConfigError):
            empirical_metrics(
                np.zeros(2), np.zeros(2), np.zeros(2), np.eye(2), np.zeros(2), "huber_output"
            )

    def test_logistic_metric(self):
        X = np.eye(2)
        beta_star = np.array([1.0, -1.0])
        beta_hat = np.array([0.0, 0.0])
        m = empirical_metrics(beta_hat, beta_star, np.zeros(2), X, np.ones(2), "logistic_objective")
        expected = float(
            ((logistic_rho_prime(X @ beta_star) - 0.5) ** 2).sum() / 2
        )
        assert m["rho_diff"] == pytest.approx(expected)


class TestSolveTheory:
    def test_huber_objective_keys(self):
        cfg = ExperimentConfig(model="huber_objective", nu=0.2)
        out = solve_theory(cfg, 40, 20, 0)
        assert set(out) == {"estimation_error", "bias", "xi_correlation", "truncated_residual"}

    def test_output_model_keys(self):
        cfg = ExperimentConfig(model="logistic_output", nu=0.2)
        out = solve_theory(cfg, 40, 20, 0)
        assert set(out) == {"estimation_error", "bias", "xi_correlation"}

    def test_dpsgd_keys(self):
        cfg = ExperimentConfig(
            model="logistic_dpsgd_ce", steps=2, mc_samples=10_000, nu=0.1
        )
        out = solve_theory(cfg, 40, 20, 0)
        assert set(out) == {
            "estimation_error_t1",
            "bias_t1",
            "estimation_error_t2",
            "bias_t2",
        }

    def test_failure_returns_none(self, monkeypatch):
        # a lam below the conditioning floor is refused when the config is
        # built; a solve that fails numerically gives None
        with pytest.raises(ConfigError):
            ExperimentConfig(model="huber_objective", lam=1e-12)

        def fail(self, config, delta, **kwargs):
            raise NumericError("injected failure")

        monkeypatch.setattr(ModelSpec, "solve", fail)
        assert solve_theory(ExperimentConfig(model="huber_objective"), 40, 20, 0) is None


class TestRunExperiment:
    def small_config(self, **kw):
        args = dict(
            model="huber_objective",
            grid=((30, 15), (15, 30)),
            replicates=3,
            nu=0.2,
            seed=77,
        )
        args.update(kw)
        return ExperimentConfig(**args)

    def test_record_layout(self):
        records = run_experiment(self.small_config())
        assert len(records) == 6
        first = records[0]
        assert isinstance(first, MetricRecord)
        assert (first.n, first.d) == (30, 15)
        assert first.delta == pytest.approx(0.5)
        assert first.theory is not None
        assert first.sigma_eps == repr(0.2)

    def test_rerun_bitwise_identical(self):
        a = run_experiment(self.small_config())
        b = run_experiment(self.small_config())
        for ra, rb in zip(a, b):
            assert ra.seed == rb.seed
            assert ra.empirical == rb.empirical

    def test_parallel_matches_serial(self):
        serial = run_experiment(self.small_config())
        parallel = run_experiment(self.small_config(), jobs=2)
        for rs, rp in zip(serial, parallel):
            assert rs.empirical == rp.empirical
            assert rs.seed == rp.seed

    def test_seed_changes_results(self):
        a = run_experiment(self.small_config())
        b = run_experiment(self.small_config(seed=78))
        assert a[0].empirical != b[0].empirical

    def test_dpsgd_records(self):
        cfg = ExperimentConfig(
            model="huber_dpsgd_ce",
            grid=((20, 10),),
            replicates=2,
            steps=2,
            nu=0.1,
            mc_samples=10_000,
            seed=5,
        )
        records = run_experiment(cfg)
        assert len(records) == 2
        assert set(records[0].empirical) == {
            "estimation_error_t1",
            "bias_t1",
            "estimation_error_t2",
            "bias_t2",
        }


class TestSummarize:
    def test_summary_math(self):
        records = run_experiment(self.config())
        rows = summarize(records)
        by_metric = {
            (r["n"], r["d"], r["metric"]): r for r in rows
        }
        # recompute one cell by hand
        cell = [
            r.empirical["estimation_error"]
            for r in records
            if (r.n, r.d) == (30, 15)
        ]
        row = by_metric[(30, 15, "estimation_error")]
        assert row["replicates"] == len(cell)
        assert row["empirical_mean"] == pytest.approx(np.mean(cell), rel=1e-15)
        assert row["empirical_stderr"] == pytest.approx(
            np.std(cell, ddof=1) / math.sqrt(len(cell)), rel=1e-12
        )
        assert row["theory"] is not None
        assert row["z_score"] == pytest.approx(
            (row["empirical_mean"] - row["theory"]) / row["empirical_stderr"], rel=1e-12
        )

    def config(self):
        return ExperimentConfig(
            model="huber_objective",
            grid=((30, 15), (15, 30)),
            replicates=4,
            nu=0.2,
            seed=21,
        )

    def test_duplicate_grid_points_are_not_pooled(self):
        cfg = ExperimentConfig(
            model="huber_objective", grid=((30, 33), (30, 33)), replicates=3, nu=0.2
        )
        records = run_experiment(cfg)
        rows = summarize(records)
        assert len(rows) == 2 * 4
        assert all(r["replicates"] == 3 for r in rows)
        first = [r.empirical["bias"] for r in records if r.grid_index == 0]
        (row,) = [r for r in rows[:4] if r["metric"] == "bias"]
        assert row["empirical_mean"] == pytest.approx(np.mean(first), rel=1e-15)

    def test_single_replicate_has_zero_stderr(self):
        cfg = ExperimentConfig(
            model="huber_objective", grid=((20, 10),), replicates=1, seed=3
        )
        rows = summarize(run_experiment(cfg))
        assert all(r["empirical_stderr"] == 0.0 for r in rows)
        assert all(r["z_score"] is None for r in rows)

    def test_rows_sorted_and_complete(self):
        rows = summarize(run_experiment(self.config()))
        # 2 grid points x 4 metrics
        assert len(rows) == 8
        keys = [(r["n"], r["d"]) for r in rows]
        assert keys == sorted(keys)
        assert {r["metric"] for r in rows} == {
            "bias",
            "estimation_error",
            "truncated_residual",
            "xi_correlation",
        }


class TestModelsCatalog:
    def test_all_models_run_one_replicate(self):
        for model in SPECS:
            cfg = ExperimentConfig(
                model=model,
                grid=((16, 8),),
                replicates=1,
                nu=0.1,
                steps=1,
                mc_samples=10_000,
                seed=1,
            )
            records = run_experiment(cfg)
            assert len(records) == 1
            assert records[0].theory is not None, model
            assert all(np.isfinite(list(records[0].empirical.values()))), model
