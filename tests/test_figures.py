"""Figure-catalog tests: specs are well-formed and theory builders produce
complete, finite curves."""

import logging

import pytest

from propdp import huber_theory, logistic_theory, models
from propdp.errors import ConfigError, NumericError
from propdp.figures import DENSE_RATIOS, FIGURE_NAMES, FIGURES, get_figure
from propdp.harness import ExperimentConfig


class TestCatalog:
    def test_names(self):
        assert FIGURE_NAMES == ("fig1", "fig2", "fig4", "fig5", "fig6")
        assert set(FIGURES) == set(FIGURE_NAMES)

    def test_get_figure(self):
        spec = get_figure("fig1")
        assert spec.name == "fig1"
        assert all(isinstance(c, ExperimentConfig) for c in spec.configs)

    @pytest.mark.parametrize("name", FIGURE_NAMES)
    def test_runs_are_well_formed(self, name):
        spec = FIGURES[name]
        labels = [label for label, _ in spec.runs]
        assert len(set(labels)) == len(labels)  # theory rows and the bench key on the label
        assert (spec.configs == ()) == (not spec.simulate)
        assert all(isinstance(config, ExperimentConfig) for _, config in spec.runs)

    def test_unknown_figure(self):
        with pytest.raises(ConfigError):
            get_figure("fig3")

    def test_dense_grid(self):
        assert len(DENSE_RATIOS) == 41
        assert DENSE_RATIOS[0] == pytest.approx(0.10)
        assert DENSE_RATIOS[-1] == pytest.approx(0.90)
        assert all(isinstance(r, float) for r in DENSE_RATIOS)


class TestSpecs:
    def test_fig1_simulation_configs(self):
        spec = get_figure("fig1")
        assert {c.nu for c in spec.configs} == {0.0, 0.2}
        assert all(c.model == "huber_objective" for c in spec.configs)
        assert all(c.seed == 101 for c in spec.configs)

    def test_fig2_is_theory_only(self):
        assert not get_figure("fig2").simulate
        assert get_figure("fig2").configs == ()

    def test_fig4_logistic(self):
        spec = get_figure("fig4")
        assert all(c.model == "logistic_objective" for c in spec.configs)
        assert all(c.replicates == 200 for c in spec.configs)

    def test_fig5_output_models(self):
        spec = get_figure("fig5")
        models = {c.model for c in spec.configs}
        assert models == {"huber_output", "logistic_output"}
        assert {c.nu for c in spec.configs} == {0.0, 0.5}

    def test_fig6_dpsgd(self):
        spec = get_figure("fig6")
        models = {c.model for c in spec.configs}
        assert models == {"huber_dpsgd_ce", "logistic_dpsgd_ce"}
        assert all(c.steps == 3 for c in spec.configs)
        assert {c.nu for c in spec.configs} == {0.0, 0.1}


class TestTheoryRows:
    def test_failed_point_is_left_out_with_a_warning(self, monkeypatch, caplog):
        ratio = DENSE_RATIOS[5]
        original = models.ModelSpec.solve

        def solve(self, config, delta, **kwargs):
            if delta == (1.0 - ratio) / ratio:
                raise NumericError("injected failure")
            return original(self, config, delta, **kwargs)

        monkeypatch.setattr(models.ModelSpec, "solve", solve)
        with caplog.at_level(logging.WARNING, logger="propdp.figures"):
            rows = get_figure("fig1").theory_rows()
        assert len(rows) == 40 * 2 * 4
        assert all(row["ratio"] != ratio for row in rows)
        messages = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(messages) == 2  # one per curve
        for label, message in zip(("objective nu=0", "objective nu=0.2"), messages):
            assert label in message and f"ratio {ratio:g} " in message
            assert "injected failure" in message

    def test_fig1_rows_complete_and_finite(self):
        rows = get_figure("fig1").theory_rows()
        # 41 ratios x 2 nu x 4 metrics
        assert len(rows) == 41 * 2 * 4
        for row in rows:
            assert row["figure"] == "fig1"
            assert row["delta"] == pytest.approx((1 - row["ratio"]) / row["ratio"])
            assert row["value"] == row["value"]  # not NaN
        metrics = {r["metric"] for r in rows}
        assert metrics == {"estimation_error", "bias", "xi_correlation", "truncated_residual"}

    def test_fig5_theory_matches_shift_identity(self):
        rows = get_figure("fig5").theory_rows()
        est = {
            (r["label"], r["ratio"]): r["value"]
            for r in rows
            if r["metric"] == "estimation_error"
        }
        # each private curve sits exactly nu^2 above its non-private twin
        labels = {label for label, _ in est}
        private = [l for l in labels if "0.5" in l]
        for lab in private:
            base = lab.replace("0.5", "0")
            assert base in labels
            for (label, ratio), value in est.items():
                if label == lab:
                    assert value - est[(base, ratio)] == pytest.approx(0.25, abs=1e-12)


def _record_calls(monkeypatch) -> dict:
    """Replace the two fixed-point solvers and ``rho_prime_difference`` with
    wrappers that record each call's arguments."""
    calls = {}
    for module, attr in (
        (huber_theory, "solve_huber_system"),
        (logistic_theory, "solve_logistic_system"),
        (logistic_theory, "rho_prime_difference"),
    ):
        seen = calls[attr] = []

        def wrapper(*args, _original=getattr(module, attr), _seen=seen, **kwargs):
            _seen.append((args, tuple(sorted(kwargs.items()))))
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, attr, wrapper)
    return calls


class TestTheoryRowsWork:
    def test_fig2_solves_each_distinct_system_once(self, monkeypatch):
        calls = _record_calls(monkeypatch)
        get_figure("fig2").theory_rows()
        assert calls["rho_prime_difference"] == []  # fig2 plots the estimation error alone
        # per loss: the two objective curves' systems, and one set shared by
        # the two output curves, which both solve at nu = 0 from the same starts
        for solver in ("solve_huber_system", "solve_logistic_system"):
            assert len(set(calls[solver])) == len(calls[solver]) == 3 * len(DENSE_RATIOS)

    def test_no_solve_is_kept_between_calls(self, monkeypatch):
        calls = _record_calls(monkeypatch)
        get_figure("fig2").theory_rows()
        first = {name: len(seen) for name, seen in calls.items()}
        get_figure("fig2").theory_rows()
        assert {name: len(seen) for name, seen in calls.items()} == {
            name: 2 * count for name, count in first.items()
        }

    @pytest.mark.parametrize("name", ["fig2", "fig5"])
    def test_warm_started_points_match_cold_solves(self, name):
        spec = get_figure(name)
        configs = dict(spec.runs)
        cold = {}
        for row in spec.theory_rows():
            key = (row["label"], row["ratio"])
            if key not in cold:
                config = configs[row["label"]]
                cold[key] = models.get(config.model).solve(
                    config, row["delta"], seed=config.seed, metrics=spec.metrics
                ).predictions
            assert row["value"] == pytest.approx(cold[key][row["metric"]], rel=1e-9, abs=0)
        assert len(cold) == len(spec.runs) * len(DENSE_RATIOS)
