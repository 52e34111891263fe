"""Experiment-harness tests: grids, data generation, metrics, determinism,
and parallel/serial equivalence."""

import dataclasses
import math
import multiprocessing
import os
import weakref
from concurrent.futures import Future

import numpy as np
import pytest

from propdp import harness
from propdp.erm import FitResult
from propdp.errors import ConfigError, NumericError
from propdp.harness import (
    DESIGNS,
    RATIO_GRID,
    ExperimentConfig,
    GridPoint,
    design_radius,
    gen_design,
    gen_linear_labels,
    gen_logistic_labels,
    gen_signal,
    grid_from_ratios,
    run_experiment,
    settings_echo,
    solve_theory,
    summarize,
)
from propdp.laws import ScalarLaw, parse_law
from propdp.models import SPECS, ModelSpec, step_size_at
from propdp.rng import child_seed, keys, stream
from propdp.scalars import logistic_rho_prime
from support import next_normals, one_at_a_time, reference_normals


def seeds_and_metrics(points):
    """Each replicate's (seed, empirical metrics), in sweep order."""
    return [(seed, empirical) for point in points for seed, empirical, *_ in point.replicates]


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
        # a huge budget is refused before anything is drawn
        for overrides in ({"mc_samples": 5}, {"mc_samples": 10**12}, {"steps": 0}, {"steps": 17}):
            with pytest.raises(ConfigError):
                ExperimentConfig(model="huber_dpsgd_ce", **overrides)
        # the trace settings mean nothing to the fixed-point models
        ExperimentConfig(model="huber_objective", mc_samples=5, steps=0)

    def test_cell_count_bounded(self):
        # grid points x replicates is refused when the config is built, before
        # run_experiment lists a single cell
        single = dict(model="huber_objective", total=100, ratios=(0.5,))
        ExperimentConfig(**single, replicates=harness.MAX_CELLS)
        for replicates in (harness.MAX_CELLS + 1, 10**12):
            with pytest.raises(ConfigError, match="replicates"):
                ExperimentConfig(**single, replicates=replicates)
        with pytest.raises(ConfigError, match="replicates"):
            ExperimentConfig(model="huber_objective", replicates=harness.MAX_CELLS // 9 + 1)

    def test_values_are_normalized(self):
        cfg = ExperimentConfig(model="huber_objective", ratios=[0.5, 1 / 3], grid=[[10, 20]])
        assert cfg.ratios == (0.5, 1 / 3)
        assert cfg.grid == cfg.grid_points() == ((10, 20),)
        assert type(ExperimentConfig(model="huber_objective", seed=np.int64(7)).seed) is int

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

    @pytest.mark.parametrize("kind", DESIGNS)
    def test_stack_is_each_streams_own_matrix(self, kind):
        # the stack's arithmetic runs once, on every replicate's draws; each
        # matrix keeps the bits of its seed's own, single-replicate design
        seeds = [3, 0, 2**40, 7]
        stack = gen_design(6, 5, kind, keys(("design",), seeds)[0])
        assert stack.shape == (4, 6, 5)
        for X, seed in zip(stack, seeds):
            assert X.tobytes() == gen_design(6, 5, kind, seed).tobytes()
        # the formulas, one matrix at a time
        gen = stream(3, "design")
        root_d = math.sqrt(5)
        want = {
            "rademacher": lambda: (2.0 * gen.integers(0, 2, size=(6, 5)) - 1.0) / root_d,
            "gaussian": lambda: next_normals(gen, 30).reshape(6, 5) / root_d,
            "bounded_uniform": lambda: (2.0 * gen.random((6, 5)) - 1.0) * math.sqrt(3.0) / root_d,
        }[kind]()
        assert stack[0].tobytes() == want.tobytes()

    def test_an_int_array_holds_seeds_and_only_keys_pass_through(self):
        # any integer array is seeds, uint64 too, unless its last axis is a key's 2
        seeds = [3, 0, 2**40]
        law = ScalarLaw.gaussian(1.0)
        want = gen_signal(4, law, seeds)
        assert want.shape == (3, 4)
        as_uint64 = np.array(seeds, dtype=np.uint64)
        for given in (np.array(seeds), as_uint64, keys(("signal",), seeds)[0]):
            assert gen_signal(4, law, given).tobytes() == want.tobytes()
        design = gen_design(5, 4, "rademacher", seeds)
        assert gen_design(5, 4, "rademacher", as_uint64).tobytes() == design.tobytes()

    @pytest.mark.parametrize("n, d", [(33, 30), (100, 10), (10, 100), (9, 111), (7, 1)])
    def test_rademacher_signs_are_numpys_integers(self, n, d):
        # bit 31, then bit 63, of each raw word: Generator.integers(0, 2), at
        # even and odd n*d and at d = 1
        seeds = [0, 2**40, 5]
        stack = gen_design(n, d, "rademacher", keys(("design",), seeds)[0])
        for X, seed in zip(stack, seeds):
            signs = stream(seed, "design").integers(0, 2, size=(n, d))
            assert X.tobytes() == ((2.0 * signs - 1.0) / math.sqrt(d)).tobytes()

    def test_mixture_signal_rows_are_numpys_draws(self):
        # a mixture's stream: d component uniforms, then Box-Muller's words
        law = parse_law("mix:0.3*point:-2,0.7*gaussian:1.5")
        seeds = list(range(64))
        rows = gen_signal(9, law, keys(("signal",), seeds)[0])
        assert rows.shape == (64, 9)
        for row, seed in zip(rows, seeds):
            gen = stream(seed, "signal")
            pick = (gen.random(9) >= 0.3).astype(int)
            z = reference_normals(gen, 9)
            want = np.array([-2.0, 0.0])[pick] + np.array([0.0, 1.5])[pick] * z
            assert row.tobytes() == want.tobytes()
            assert row.tobytes() == gen_signal(9, law, seed).tobytes()


class TestNoisyGdTheory:
    @pytest.mark.parametrize("model", ["huber_dpsgd_ce", "logistic_dpsgd_ce"])
    def test_sweep_and_figure_solves_skip_the_theta_check(self, model, monkeypatch):
        # a sweep's and a figure's predictions are the default solve's, and
        # neither draws the theta-path check's stream
        from propdp import figures, state_evolution

        config = ExperimentConfig(
            model=model, total=200, ratios=(0.5,), nu=0.1, steps=2, mc_samples=10_000
        )
        (n, d), = config.grid_points()
        full = SPECS[model].solve(config, d / n, seed=child_seed(config.seed, 0), check=True)
        assert "mse_mc" in full.solution
        tags = []

        def recording_stream(seed, tag, *indices):
            tags.append(tag)
            return stream(seed, tag, *indices)

        def recording_keys(key_tags, seeds, *indices):
            tags.extend(key_tags)
            return keys(key_tags, seeds, *indices)

        monkeypatch.setattr(state_evolution, "stream", recording_stream)
        monkeypatch.setattr(state_evolution, "keys", recording_keys)
        assert solve_theory(config, n, d, 0) == (full.predictions, None)
        monkeypatch.setattr(figures, "DENSE_RATIOS", (0.5,))
        rows = figures._curve_rows("fig", "curve", config)
        assert {row["metric"]: row["value"] for row in rows} == full.predictions
        assert tags and "state-evolution-theta" not in tags


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


def objective_fit(beta_hat, xi):
    return FitResult(beta_hat, beta_hat, xi, grad_norm=0.0, iterations=0)


class TestEmpiricalMetrics:
    def test_huber_metrics_on_crafted_input(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        beta_star = np.array([1.0, -1.0])
        beta_hat = np.array([2.0, 0.0])
        xi = np.array([1.0, 3.0])
        y = np.array([0.0, 0.0, 5.0])
        m = SPECS["huber_objective"].score(objective_fit(beta_hat, xi), X, y, beta_star, L=1.5)
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
        fit = FitResult(beta_tilde + 0.1 * xi, beta_tilde, xi, grad_norm=0.0, iterations=0)
        m = SPECS["huber_output"].score(fit, X, np.zeros(2), beta_star, L=1.0)
        # <beta_hat - beta_tilde, xi>/d = 0.1*||xi||^2/d
        assert m["xi_correlation"] == pytest.approx(0.1 * 5.0 / 2)

    def test_logistic_metric(self):
        X = np.eye(2)
        beta_star = np.array([1.0, -1.0])
        fit = objective_fit(np.array([0.0, 0.0]), np.zeros(2))
        m = SPECS["logistic_objective"].score(fit, X, np.ones(2), beta_star, L=10.0)
        expected = float(
            ((logistic_rho_prime(X @ beta_star) - 0.5) ** 2).sum() / 2
        )
        assert m["rho_diff"] == pytest.approx(expected)


class TestSolveTheory:
    def test_huber_objective_keys(self):
        cfg = ExperimentConfig(model="huber_objective", nu=0.2)
        out, error = solve_theory(cfg, 40, 20, 0)
        assert error is None
        assert set(out) == {"estimation_error", "bias", "xi_correlation", "truncated_residual"}

    def test_output_model_keys(self):
        cfg = ExperimentConfig(model="logistic_output", nu=0.2)
        out, error = solve_theory(cfg, 40, 20, 0)
        assert error is None
        assert set(out) == {"estimation_error", "bias", "xi_correlation"}

    def test_dpsgd_keys(self):
        cfg = ExperimentConfig(
            model="logistic_dpsgd_ce", steps=2, mc_samples=10_000, nu=0.1
        )
        out, error = solve_theory(cfg, 40, 20, 0)
        assert error is None
        assert set(out) == {
            "estimation_error_t1",
            "bias_t1",
            "estimation_error_t2",
            "bias_t2",
        }

    def test_failure_returns_none(self, monkeypatch, caplog):
        # a lam below the conditioning floor is refused when the config is
        # built; a solve that fails numerically gives None and the failure
        with pytest.raises(ConfigError):
            ExperimentConfig(model="huber_objective", lam=1e-12)

        def fail(self, config, delta, **kwargs):
            raise NumericError("injected failure")

        monkeypatch.setattr(ModelSpec, "solve", fail)
        with caplog.at_level("WARNING", logger="propdp.harness"):
            out = solve_theory(ExperimentConfig(model="huber_objective"), 40, 20, 0)
        assert out == (None, "NumericError: injected failure")
        assert "huber_objective at n=40, d=20" in caplog.text
        assert "injected failure" in caplog.text


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
        points = list(run_experiment(self.small_config()))
        assert [len(point.replicates) for point in points] == [3, 3]
        first = points[0]
        assert isinstance(first, GridPoint)
        assert (first.n, first.d) == (30, 15)
        deltas = {(row["n"], row["d"]): row["delta"] for row in summarize(points)}
        assert deltas[30, 15] == pytest.approx(0.5)
        assert first.theory is not None
        assert all(point.config is first.config for point in points)  # one per sweep
        assert settings_echo(first.config)["sigma_eps"] == repr(0.2)

    def test_rerun_bitwise_identical(self):
        a = run_experiment(self.small_config())
        b = run_experiment(self.small_config())
        assert seeds_and_metrics(a) == seeds_and_metrics(b)

    def test_parallel_matches_serial(self):
        serial = run_experiment(self.small_config())
        parallel = run_experiment(self.small_config(), jobs=2)
        assert seeds_and_metrics(serial) == seeds_and_metrics(parallel)

    @pytest.mark.parametrize(
        "jobs, cores, workers",
        [(100_000, 4, 4), (100_000, 64, 6), (5, None, None), (1, 8, None)],
    )
    def test_pool_is_bounded_by_cells_and_cores(self, jobs, cores, workers, monkeypatch):
        # the pool is a fake that records its size and runs every task serially:
        # no process starts
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def shutdown(self, cancel_futures):
                assert cancel_futures

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

            def map(self, fn, items, chunksize):
                assert chunksize >= 1
                return map(fn, items)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        # 6 tasks, min(jobs, tasks, cores) workers: 3 theory points and 3 blocks
        config = self.small_config(grid=((30, 15), (15, 30), (20, 20)))
        points = seeds_and_metrics(run_experiment(config, jobs=jobs))
        assert sizes == ([] if workers is None else [workers])
        serial = run_experiment(config)
        assert points == seeds_and_metrics(serial)

    def test_a_point_arrives_before_the_next_one_runs(self, monkeypatch):
        # grid point 0 runs in two blocks (64 + 6); none of point 1's runs before it is yielded
        ran = []
        run_cell = harness._run_cell

        def counted(args):
            ran.append(args[1])
            return run_cell(args)

        monkeypatch.setattr(harness, "_run_cell", counted)
        config = self.small_config(grid=((12, 6), (12, 6)), replicates=70)
        point = next(run_experiment(config))
        assert (point.index, len(point.replicates)) == (0, 70)
        assert ran == [0, 0]

    def test_closing_the_stream_early_stops_the_pool(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        config = self.small_config(grid=((12, 6),) * 4, replicates=70)
        points = run_experiment(config, jobs=2)
        assert next(points).index == 0
        points.close()
        assert multiprocessing.active_children() == []

    def test_seed_changes_results(self):
        a = run_experiment(self.small_config())
        b = run_experiment(self.small_config(seed=78))
        assert next(a).replicates[0][1] != next(b).replicates[0][1]

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
        (point,) = run_experiment(cfg)
        assert len(point.replicates) == 2
        assert set(point.replicates[0][1]) == {
            "estimation_error_t1",
            "bias_t1",
            "estimation_error_t2",
            "bias_t2",
        }


class TestBlocks:
    """A grid point's replicates run in blocks; a replicate's values depend
    neither on its block nor on the worker count."""

    # float.hex of values from before replicates ran in blocks.  Grid point 0
    # (12 x 6) runs blocks of BLOCK_REPLICATES = 64, so replicate 66 is in a
    # partial block; grid point 1 (400 x 300) is capped by BLOCK_ENTRIES.
    PINNED = {
        ("huber_dpsgd_ce", 0, 63): {
            "bias_t1": "0x1.1583a52355714p-2",
            "bias_t2": "0x1.82bb150a902cfp-2",
            "estimation_error_t1": "0x1.61e93d641d4ffp-3",
            "estimation_error_t2": "0x1.32084c8afd183p-4",
        },
        ("huber_dpsgd_ce", 0, 66): {
            "bias_t1": "0x1.359bf277a019cp-2",
            "bias_t2": "0x1.615ea8d7669afp-2",
            "estimation_error_t1": "0x1.00da33a6f1d10p-2",
            "estimation_error_t2": "0x1.06d19a3c4e14dp-2",
        },
        ("huber_dpsgd_ce", 1, 66): {
            "bias_t1": "0x1.59fc6abdba37bp-2",
            "bias_t2": "0x1.e39818e43ea4fp-2",
            "estimation_error_t1": "0x1.06700b3c70c1bp-1",
            "estimation_error_t2": "0x1.82787eefc5c60p-2",
        },
        ("logistic_dpsgd_ce", 0, 63): {
            "bias_t1": "0x1.d8ce6f17954c3p-5",
            "bias_t2": "0x1.e1c4d7640369bp-4",
            "estimation_error_t1": "0x1.c9a02f4fa701bp-2",
            "estimation_error_t2": "0x1.64b0a49c57364p-2",
        },
        ("logistic_dpsgd_ce", 0, 66): {
            "bias_t1": "0x1.4a840bf8efdf9p-4",
            "bias_t2": "0x1.ab8ec59e219b3p-4",
            "estimation_error_t1": "0x1.00872a048a46ap-1",
            "estimation_error_t2": "0x1.ecb91f9cbbde3p-2",
        },
        ("logistic_dpsgd_ce", 1, 66): {
            "bias_t1": "0x1.19eb00d9ce603p-4",
            "bias_t2": "0x1.07f36ed5a2b8fp-3",
            "estimation_error_t1": "0x1.b51fd7bc6208ep-1",
            "estimation_error_t2": "0x1.86716cef16cc3p-1",
        },
    }

    # float.hex of the perturbation models' values and fit certificates from
    # before their blocks ran as one stack.  Grid point 0 (12 x 6) runs blocks
    # of 64; grid point 1 (40 x 200, so d > n and fits go through Woodbury) is
    # capped by BLOCK_ENTRIES at 31, so replicate 40 is in a full capped block
    # and 66 in a partial one.  At L = 0.5 the Huber fits of a block take 1 to
    # 4 Newton steps.
    PINNED_FITS = {
        ("huber_objective", 0, 63): {
            "estimation_error": "0x1.4d8377d4927bbp-3",
            "bias": "0x1.50e51290b19d7p-2",
            "xi_correlation": "-0x1.70e8f385f5b7fp-4",
            "truncated_residual": "0x1.730130de79bffp-4",
            "fit_iterations": 3,
            "grad_norm": "0x1.39f2f450a2eadp-52",
        },
        ("huber_objective", 0, 66): {
            "estimation_error": "0x1.cf7aa5eb60a21p-3",
            "bias": "0x1.4bc0d29a7dce0p-2",
            "xi_correlation": "0x1.f000f02678490p-5",
            "truncated_residual": "0x1.bb91c2c093797p-5",
            "fit_iterations": 3,
            "grad_norm": "0x1.4f9e6bbc4ecb3p-53",
        },
        ("huber_objective", 1, 40): {
            "estimation_error": "0x1.de0b8c3ea2d64p-1",
            "bias": "0x1.616b9bf873b6ap-4",
            "xi_correlation": "-0x1.e4055baced5c0p-3",
            "truncated_residual": "0x1.2227661525d9ap-3",
            "fit_iterations": 3,
            "grad_norm": "0x1.f41c3ca48690ap-51",
        },
        ("huber_objective", 1, 66): {
            "estimation_error": "0x1.fdba928b63d13p-1",
            "bias": "0x1.3d616422136eep-5",
            "xi_correlation": "-0x1.6c612008db574p-2",
            "truncated_residual": "0x1.ffd99175fa688p-4",
            "fit_iterations": 3,
            "grad_norm": "0x1.370fd180521d8p-50",
        },
        ("huber_output", 0, 63): {
            "estimation_error": "0x1.00d70a04c0dc0p-3",
            "bias": "0x1.49980deeb6811p-2",
            "xi_correlation": "0x1.8680debf9f84dp-3",
            "truncated_residual": "0x1.fd085c3efb634p-4",
            "fit_iterations": 3,
            "grad_norm": "0x1.9147284a41448p-52",
        },
        ("huber_output", 0, 66): {
            "estimation_error": "0x1.71be40a647a79p-2",
            "bias": "0x1.225bfefd6f164p-2",
            "xi_correlation": "0x1.7a149968402edp-3",
            "truncated_residual": "0x1.ae62ef450b071p-4",
            "fit_iterations": 3,
            "grad_norm": "0x1.f0c60a033a7b3p-53",
        },
        ("huber_output", 1, 40): {
            "estimation_error": "0x1.f5c664ea997afp-1",
            "bias": "0x1.1198483952fffp-4",
            "xi_correlation": "0x1.6769207904ee5p-2",
            "truncated_residual": "0x1.59932ad6764eep-3",
            "fit_iterations": 3,
            "grad_norm": "0x1.6c8e3465eaf99p-51",
        },
        ("huber_output", 1, 66): {
            "estimation_error": "0x1.fc4bb7937ff37p-1",
            "bias": "0x1.f07ca73ac9e9dp-6",
            "xi_correlation": "0x1.ec8142fed21adp-3",
            "truncated_residual": "0x1.2df9aa007fd4ap-3",
            "fit_iterations": 2,
            "grad_norm": "0x1.2fa9d8d848231p-50",
        },
        ("logistic_objective", 0, 63): {
            "estimation_error": "0x1.20a6e6fe19ed8p-1",
            "bias": "0x1.1ba4a7c000cc7p-2",
            "xi_correlation": "-0x1.2a7e1d95d886cp-2",
            "rho_diff": "0x1.63a68dc8fd9ebp-6",
            "fit_iterations": 4,
            "grad_norm": "0x1.e155ec9dcf2b6p-52",
        },
        ("logistic_objective", 0, 66): {
            "estimation_error": "0x1.389951a88c5d1p-1",
            "bias": "0x1.69f164eec7227p-3",
            "xi_correlation": "-0x1.1f88bf1181819p-3",
            "rho_diff": "0x1.ecdc833b81f15p-6",
            "fit_iterations": 3,
            "grad_norm": "0x1.c1c2a63720148p-36",
        },
        ("logistic_objective", 1, 40): {
            "estimation_error": "0x1.fb77561b2662ap-1",
            "bias": "0x1.04b08817f1666p-4",
            "xi_correlation": "-0x1.08153f12cba5cp-2",
            "rho_diff": "0x1.242fc28032007p-5",
            "fit_iterations": 3,
            "grad_norm": "0x1.7f8fd94bf3bb3p-35",
        },
        ("logistic_objective", 1, 66): {
            "estimation_error": "0x1.1129875283b17p+0",
            "bias": "0x1.6d7226674b5eap-7",
            "xi_correlation": "-0x1.82a08629d5eb2p-2",
            "rho_diff": "0x1.1a81f782e80f9p-5",
            "fit_iterations": 3,
            "grad_norm": "0x1.82ec82ddac3bep-40",
        },
        ("logistic_output", 0, 63): {
            "estimation_error": "0x1.dca993ae0733cp-2",
            "bias": "0x1.f6bd6b9fa88dfp-3",
            "xi_correlation": "0x1.8680debf9f84dp-3",
            "rho_diff": "0x1.418f2b63ceee8p-6",
            "fit_iterations": 3,
            "grad_norm": "0x1.00c90dbfc2e25p-27",
        },
        ("logistic_output", 0, 66): {
            "estimation_error": "0x1.144385436fb97p-1",
            "bias": "0x1.c0031650a4400p-4",
            "xi_correlation": "0x1.7a149968402efp-3",
            "rho_diff": "0x1.0c3cc0a19b5dfp-6",
            "fit_iterations": 3,
            "grad_norm": "0x1.d135aec3fc920p-40",
        },
        ("logistic_output", 1, 40): {
            "estimation_error": "0x1.07a4a7bfdfe94p+0",
            "bias": "0x1.67ace44bac3ddp-5",
            "xi_correlation": "0x1.6769207904ee5p-2",
            "rho_diff": "0x1.5b02a52e4a502p-5",
            "fit_iterations": 3,
            "grad_norm": "0x1.baed91ce6e422p-44",
        },
        ("logistic_output", 1, 66): {
            "estimation_error": "0x1.0ee0a052f7895p+0",
            "bias": "-0x1.045a7ce7f91c7p-11",
            "xi_correlation": "0x1.ec8142fed21adp-3",
            "rho_diff": "0x1.55c8af0bcb02ap-5",
            "fit_iterations": 3,
            "grad_norm": "0x1.ac4d01aa7775ap-46",
        },
    }

    def test_blocks_are_capped_by_replicates_and_entries(self):
        config = ExperimentConfig(
            model="huber_dpsgd_ce", grid=((12, 6), (400, 300), (5000, 2000)), replicates=67
        )
        sizes = [(index, stop - start) for _, index, _, _, start, stop in harness._blocks(config)]
        assert sizes == [(0, 64), (0, 3)] + [(1, 2)] * 33 + [(1, 1)] + [(2, 1)] * 67

    @pytest.mark.parametrize("model", ["huber_dpsgd_ce", "logistic_dpsgd_ce"])
    def test_noisy_gd_values_are_pinned(self, model):
        config = ExperimentConfig(
            model=model, grid=((12, 6), (400, 300)), replicates=67, steps=2, nu=0.3,
            mc_samples=10_000, seed=41,
        )
        assert config.replicates % harness.BLOCK_REPLICATES != 0
        serial = list(run_experiment(config))
        assert list(run_experiment(config, jobs=2)) == serial
        empirical = {
            (point.index, replicate): values
            for point in serial
            for replicate, (_, values, *_) in enumerate(point.replicates)
        }
        pinned = {key[1:]: values for key, values in self.PINNED.items() if key[0] == model}
        assert len(pinned) == 3
        for key, values in pinned.items():
            assert {name: value.hex() for name, value in empirical[key].items()} == values

    @pytest.mark.parametrize(
        "model", ["huber_objective", "huber_output", "logistic_objective", "logistic_output"]
    )
    def test_perturbation_values_are_pinned(self, model):
        config = ExperimentConfig(
            model=model, grid=((12, 6), (40, 200)), replicates=67, nu=0.3, L=0.5, seed=41
        )
        sizes = [stop - start for *_, start, stop in harness._blocks(config)]
        assert sizes == [64, 3, 31, 31, 5]
        serial = list(run_experiment(config))
        assert list(run_experiment(config, jobs=2)) == serial
        pinned = {key[1:]: values for key, values in self.PINNED_FITS.items() if key[0] == model}
        assert len(pinned) == 4
        for (index, replicate), values in pinned.items():
            _, empirical, iterations, grad_norm = serial[index].replicates[replicate]
            got = {name: value.hex() for name, value in empirical.items()}
            got.update(fit_iterations=iterations, grad_norm=grad_norm.hex())
            assert got == values


class TestSummarize:
    def test_summary_math(self):
        points = list(run_experiment(self.config()))
        rows = summarize(points)
        by_metric = {
            (r["n"], r["d"], r["metric"]): r for r in rows
        }
        # recompute one cell by hand
        cell = [
            empirical["estimation_error"]
            for p in points
            if (p.n, p.d) == (30, 15)
            for _, empirical, *_ in p.replicates
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
        points = list(run_experiment(cfg))
        rows = summarize(points)
        assert len(rows) == 2 * 4
        assert all(r["replicates"] == 3 for r in rows)
        first = [empirical["bias"] for _, empirical, *_ in points[0].replicates]
        (row,) = [r for r in rows[:4] if r["metric"] == "bias"]
        assert row["empirical_mean"] == pytest.approx(np.mean(first), rel=1e-15)

    def test_single_replicate_has_zero_stderr(self):
        cfg = ExperimentConfig(
            model="huber_objective", grid=((20, 10),), replicates=1, seed=3
        )
        rows = summarize(run_experiment(cfg))
        assert all(r["empirical_stderr"] == 0.0 for r in rows)
        assert all(r["z_score"] is None for r in rows)

    def test_reads_each_point_once_and_keeps_none(self):
        # a generator is read once, and each point is freed before the next is made
        config = dataclasses.replace(self.config(), grid=((30, 15), (15, 30), (30, 15)))
        rows = summarize(one_at_a_time(run_experiment(config)))
        assert rows == summarize(list(run_experiment(config)))
        assert [(r["n"], r["d"]) for r in rows] == [(15, 30)] * 4 + [(30, 15)] * 8

    def test_no_replicate_outlives_its_point_into_the_next_theory_solve(self, monkeypatch):
        # at each theory solve, no replicate of an earlier grid point is alive:
        # the sweep drops a point's replicates once the reader has the point
        run_cell, solve_theory = harness._run_cell, harness.solve_theory
        made, alive = [], []

        class Metrics(dict):  # a dict that can be weakly referenced
            pass

        def tracked_cell(args):
            block = [(seed, Metrics(empirical), *rest) for seed, empirical, *rest in run_cell(args)]
            made.extend(weakref.ref(replicate[1]) for replicate in block)
            return block

        def counting_solve(*args):
            alive.append(sum(ref() is not None for ref in made))
            return solve_theory(*args)

        monkeypatch.setattr(harness, "_run_cell", tracked_cell)
        monkeypatch.setattr(harness, "solve_theory", counting_solve)
        config = dataclasses.replace(self.config(), grid=((30, 15), (15, 30), (30, 15)))
        rows = summarize(one_at_a_time(run_experiment(config)))
        assert len(rows) == 3 * 4 and len(made) == 3 * 4
        assert alive == [0, 0, 0]

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
            (point,) = run_experiment(cfg)
            assert len(point.replicates) == 1
            assert point.theory is not None, model
            assert all(np.isfinite(list(point.replicates[0][1].values()))), model
