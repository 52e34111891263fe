"""Model-registry tests: every entry gives the same predictions through the
harness, the theory command and the figure curves, and the table alone
decides model behaviour."""

import contextlib
import io
import json
import warnings

import pytest

from propdp import cli, figures, harness, models
from propdp.errors import ConfigError, NumericError
from propdp.laws import parse_law
from propdp.rng import child_seed

SEED = 11


def theory_command(*args) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["theory", *args]) == 0
    return json.loads(out.getvalue())


@pytest.mark.parametrize("model", list(models.SPECS))
def test_harness_cli_and_figures_agree(model, monkeypatch):
    # one dense point at ratio 0.5 is delta = 1 = d/n exactly, and the
    # figure's first point is solved cold, like the harness's and the CLI's
    monkeypatch.setattr(figures, "DENSE_RATIOS", (0.5,))
    config = harness.ExperimentConfig(model=model, nu=0.2, L=10.0, lam=1.0, seed=SEED)
    from_harness, _ = harness.solve_theory(config, 20, 20, 0)

    (point,) = theory_command(
        "--model", model, "--delta", "1", "--nu", "0.2", "--L", "10",
        "--seed", str(child_seed(SEED, 0)),
    )

    rows = figures._curve_rows("check", model, config)
    from_figure = {row["metric"]: row["value"] for row in rows}

    assert from_harness is not None
    assert point["predictions"] == from_harness
    assert from_figure == from_harness


def test_table_covers_every_loss_and_mechanism():
    pairs = {(spec.loss, spec.mechanism) for spec in models.SPECS.values()}
    assert pairs == {
        (loss, mechanism)
        for loss in ("huber", "logistic")
        for mechanism in ("objective", "output", "dpsgd")
    }


def test_output_models_solve_at_zero_noise():
    for loss in ("huber", "logistic"):
        output = models.get(f"{loss}_output").solve(
            harness.ExperimentConfig(model=f"{loss}_output", nu=0.3), 0.5, seed=0
        )
        base = models.get(f"{loss}_objective").solve(
            harness.ExperimentConfig(model=f"{loss}_objective", nu=0.0), 0.5, seed=0
        )
        assert output.solution == base.solution
        assert output.predictions["estimation_error"] == pytest.approx(
            base.predictions["estimation_error"] + 0.09, abs=1e-12
        )
        assert output.predictions["xi_correlation"] == 0.3


def test_lambda_floor_skips_noisy_gd():
    harness.ExperimentConfig(model="huber_dpsgd_ce", lam=0.0)
    with pytest.raises(ConfigError):
        harness.ExperimentConfig(model="huber_objective", lam=0.0)


def test_noise_echo():
    gaussian = parse_law("gaussian:0.2")
    mixture = parse_law("mix:0.5*gaussian:0.2,0.5*point:1")
    assert models.get("huber_objective").noise_echo(gaussian, "gaussian:0.2") == "0.2"
    assert models.get("huber_dpsgd_ce").noise_echo(mixture, "mix") == "mix"
    assert models.get("logistic_output").noise_echo(gaussian, "gaussian:0.2") == ""


def test_overflowing_shift_is_a_numeric_failure():
    # the nu = 0 solve succeeds; the shift by nu**2 overflows
    config = harness.ExperimentConfig(model="huber_output", nu=1.7e308)
    with pytest.raises(NumericError):
        models.get("huber_output").solve(config, 0.5, seed=0)


@pytest.mark.parametrize("model", ["huber_objective", "logistic_objective"])
def test_invalid_float_operation_is_a_numeric_failure(model):
    # a signal scale of 1e300 makes the solvers' moments inf * 0; that is
    # one NumericError, not a stream of numpy RuntimeWarnings
    config = harness.ExperimentConfig(model=model, signal="gaussian:1e300", nu=0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="invalid value"):
            models.get(model).solve(config, 1.0, seed=0)
