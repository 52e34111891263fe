"""Figure-catalog tests: specs are well-formed and theory builders produce
complete, finite curves."""

import logging

import pytest

from propdp import models
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
