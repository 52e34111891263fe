"""End-to-end command-line tests via subprocess: exit codes, output formats,
manifests, and bit-stable reruns."""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propdp import cli
from propdp.cli import SIMULATE_HEADER, SUMMARY_HEADER, THEORY_HEADER


def run_cli(*args, env_extra=None, cwd=None):
    env = os.environ.copy()
    env.pop("PROPDP_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "propdp.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestBasics:
    def test_version(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert proc.stdout.startswith("propdp ")

    def test_missing_subcommand_is_usage_error(self):
        assert run_cli().returncode == 2

    def test_unknown_figure_name_is_usage_error(self):
        assert run_cli("figure", "--name", "fig9", "--out", "x").returncode == 2


class TestTheory:
    def test_stdout_json_with_frozen_solution(self):
        proc = run_cli(
            "theory", "--model", "huber_objective", "--delta", "0.5",
            "--lambda", "1.0", "--nu", "0.2", "--L", "10",
        )
        assert proc.returncode == 0, proc.stderr
        points = json.loads(proc.stdout)
        assert len(points) == 1
        point = points[0]
        assert point["inputs"]["model"] == "huber_objective"
        # frozen from oracles/oracle_huber_system.py
        assert point["solution"]["sigma_star"] == pytest.approx(0.4729432563019281, abs=1e-9)
        assert set(point["predictions"]) == {
            "estimation_error", "bias", "xi_correlation", "truncated_residual",
        }

    def test_multiple_deltas(self):
        proc = run_cli(
            "theory", "--model", "logistic_objective", "--delta", "0.5,2.0",
            "--lambda", "1.0",
        )
        assert proc.returncode == 0, proc.stderr
        points = json.loads(proc.stdout)
        assert [p["inputs"]["delta"] for p in points] == [0.5, 2.0]

    def test_out_file_with_manifest(self, tmp_path):
        out = tmp_path / "theory.json"
        proc = run_cli(
            "theory", "--model", "huber_objective", "--delta", "1.0",
            "--L", "10", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
        manifest = json.loads((tmp_path / "theory.json.manifest.json").read_text())
        assert set(manifest) == {
            "tool_version", "config_hash", "master_seed", "started_utc",
            "finished_utc", "output_paths", "output_digests",
        }
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert manifest["output_digests"][str(out)] == digest

    def test_dpsgd_trace_payload(self):
        proc = run_cli(
            "theory", "--model", "huber_dpsgd_ce", "--delta", "0.5",
            "--steps", "2", "--mc-samples", "10000", "--L", "10", "--seed", "4",
        )
        assert proc.returncode == 0, proc.stderr
        point = json.loads(proc.stdout)[0]
        assert len(point["solution"]["mse"]) == 3
        assert point["solution"]["seed"] == 4
        assert set(point["predictions"]) == {
            "estimation_error_t1", "bias_t1", "estimation_error_t2", "bias_t2",
        }

    def test_env_seed_override(self):
        proc = run_cli(
            "theory", "--model", "huber_dpsgd_ce", "--delta", "0.5",
            "--steps", "1", "--mc-samples", "10000", "--L", "10", "--seed", "4",
            env_extra={"PROPDP_SEED": "123"},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)[0]["solution"]["seed"] == 123

    def test_bad_env_seed_exits_2(self):
        proc = run_cli(
            "theory", "--model", "huber_dpsgd_ce", "--delta", "0.5", "--L", "10",
            env_extra={"PROPDP_SEED": "not-a-number"},
        )
        assert proc.returncode == 2
        assert "config error" in proc.stderr

    def test_bad_lambda_exits_2(self):
        proc = run_cli(
            "theory", "--model", "huber_objective", "--delta", "0.5",
            "--lambda", "0", "--L", "10",
        )
        assert proc.returncode == 2

    def test_bad_delta_text_exits_2(self):
        proc = run_cli(
            "theory", "--model", "huber_objective", "--delta", "zero", "--L", "10"
        )
        assert proc.returncode == 2

    def test_unsolvable_point_is_data_not_error(self):
        # huge nu at tiny delta: if the solver fails the point carries an
        # "error" field and the exit code stays 0
        proc = run_cli(
            "theory", "--model", "huber_objective", "--delta", "0.5,1e-9",
            "--L", "10", "--nu", "0.2",
        )
        assert proc.returncode == 0, proc.stderr
        points = json.loads(proc.stdout)
        assert "predictions" in points[0] or "error" in points[0]
        assert all(("predictions" in p) != ("error" in p) for p in points)


class TestPrivacy:
    def test_objective_report(self):
        proc = run_cli("privacy", "objective", "--lambda", "1.0", "--nu", "1.0")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        # frozen from oracles/oracle_privacy.py
        assert payload["zcdp_rho"] == pytest.approx(1.99103174136281067, abs=1e-12)
        assert 0.0 <= payload["delta"] <= 1.0
        for alpha, eps in payload["rdp_curve"]:
            assert eps / alpha <= payload["zcdp_rho"] + 1e-12

    def test_output_report(self):
        proc = run_cli(
            "privacy", "output", "--lambda", "0.5", "--nu", "1.5", "--L", "2"
        )
        payload = json.loads(proc.stdout)
        assert payload["zcdp_rho"] == pytest.approx((2 / 0.5) ** 2 / (2 * 1.5**2), rel=1e-12)

    def test_dpsgd_report(self):
        proc = run_cli("privacy", "dpsgd", "--T", "7", "--nu", "0.5", "--L", "2")
        payload = json.loads(proc.stdout)
        # frozen from oracles/oracle_privacy.py
        assert payload["zcdp_rho"] == 56.0

    def test_dpsgd_requires_steps(self):
        assert run_cli("privacy", "dpsgd", "--nu", "0.5").returncode == 2

    def test_objective_requires_lambda(self):
        assert run_cli("privacy", "objective", "--nu", "0.5").returncode == 2

    def test_bad_alpha_grid(self):
        proc = run_cli(
            "privacy", "output", "--lambda", "1.0", "--nu", "1.0",
            "--alphas", "0.5,2",
        )
        assert proc.returncode == 2


class TestSimulate:
    BASE = (
        "simulate", "--model", "huber_objective", "--total", "400",
        "--ratios", "0.5", "--replicates", "3", "--nu", "0.2",
        "--L", "10", "--seed", "5", "--jobs", "1",
    )

    def test_csv_layout_and_round_trip(self, tmp_path):
        out = tmp_path / "sim.csv"
        proc = run_cli(*self.BASE, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        header, rows = read_csv(out)
        assert tuple(header) == SIMULATE_HEADER
        assert len(rows) == 3 * 4  # replicates x metrics
        col = dict(zip(header, zip(*rows)))
        for cell in col["empirical"]:
            # full precision: the printed text is the shortest exact repr
            assert cell == repr(float(cell))
        assert set(col["metric"]) == {
            "estimation_error", "bias", "xi_correlation", "truncated_residual",
        }
        assert all(c == "20" for c in col["n"])

    def test_rerun_bit_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*self.BASE, "--out", str(a)).returncode == 0
        assert run_cli(*self.BASE, "--out", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()
        ma = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        mb = json.loads((tmp_path / "b.csv.manifest.json").read_text())
        assert ma["config_hash"] == mb["config_hash"]
        assert list(ma["output_digests"].values()) == list(mb["output_digests"].values())

    def test_parallel_matches_serial(self, tmp_path):
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        args = list(self.BASE)
        run_cli(*args, "--out", str(serial))
        args[args.index("--jobs") + 1] = "2"
        run_cli(*args, "--out", str(parallel))
        assert serial.read_bytes() == parallel.read_bytes()

    def test_env_seed_overrides_flag(self, tmp_path):
        flagged, env_run = tmp_path / "f.csv", tmp_path / "e.csv"
        run_cli(*self.BASE, "--out", str(flagged))
        run_cli(*self.BASE, "--out", str(env_run), env_extra={"PROPDP_SEED": "99"})
        assert flagged.read_bytes() != env_run.read_bytes()
        header, rows = read_csv(env_run)
        seed_col = header.index("seed")
        # the master seed is 99, so child seeds differ from the seed-5 run
        _, rows_flag = read_csv(flagged)
        assert rows[0][seed_col] != rows_flag[0][seed_col]

    def test_summary_file(self, tmp_path):
        out, summary = tmp_path / "sim.csv", tmp_path / "summary.csv"
        proc = run_cli(*self.BASE, "--out", str(out), "--summary", str(summary))
        assert proc.returncode == 0, proc.stderr
        header, rows = read_csv(summary)
        assert "empirical_mean" in header
        assert "z_score" in header
        assert len(rows) == 4  # one grid point x four metrics

    def test_stdout_default(self):
        proc = run_cli(*self.BASE)
        assert proc.returncode == 0, proc.stderr
        first = proc.stdout.splitlines()[0]
        assert first == ",".join(SIMULATE_HEADER)

    def test_config_file_with_flag_overrides(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "model": "huber_objective",
                    "grid": [[20, 10]],
                    "replicates": 5,
                    "nu": 0.1,
                    "seed": 9,
                }
            )
        )
        out = tmp_path / "sim.csv"
        proc = run_cli(
            "simulate", "--config", str(config), "--replicates", "2",
            "--out", str(out), "--jobs", "1",
        )
        assert proc.returncode == 0, proc.stderr
        header, rows = read_csv(out)
        col = dict(zip(header, zip(*rows)))
        assert len(set(col["replicate"])) == 2  # flag beat the file's 5
        assert all(c == "20" for c in col["n"])

    def test_config_file_unknown_field(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": "huber_objective", "warmup": 3}))
        assert run_cli("simulate", "--config", str(config)).returncode == 2

    def test_missing_model_exits_2(self):
        assert run_cli("simulate", "--total", "100").returncode == 2

    def test_missing_config_file_exits_2(self):
        assert run_cli("simulate", "--config", "/nonexistent.json").returncode == 2

    def test_dpsgd_trace_budget_is_a_config_error(self):
        proc = run_cli("simulate", "--model", "huber_dpsgd_ce", "--mc-samples", "5")
        assert proc.returncode == 2
        assert proc.stdout == ""


class TestFigure:
    def test_fig1_smoke(self, tmp_path):
        out = tmp_path / "fig1"
        proc = run_cli(
            "figure", "--name", "fig1", "--out", str(out),
            "--replicates", "2", "--jobs", "2",
        )
        assert proc.returncode == 0, proc.stderr
        theory_header, theory_rows = read_csv(out / "fig1_theory.csv")
        assert tuple(theory_header) == THEORY_HEADER
        assert len(theory_rows) == 41 * 2 * 4
        sim_header, sim_rows = read_csv(out / "fig1_simulation.csv")
        assert tuple(sim_header) == SUMMARY_HEADER
        assert len(sim_rows) == 9 * 2 * 4  # grid x configs x metrics
        manifest = json.loads((out / "fig1_manifest.json").read_text())
        for path, digest in manifest["output_digests"].items():
            assert hashlib.sha256(open(path, "rb").read()).hexdigest() == digest

    def test_fig2_theory_only(self, tmp_path):
        out = tmp_path / "fig2"
        proc = run_cli("figure", "--name", "fig2", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert (out / "fig2_theory.csv").exists()
        assert not (out / "fig2_simulation.csv").exists()


# --- the input boundary: every argument ends in exit 0, 2 or 3 ---------------


def run_in_process(*args):
    """(exit code, stdout) of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def assert_contract(code, stdout):
    assert code in (0, 2, 3)
    if code == 0:
        json.loads(stdout, parse_constant=_reject_constant)
    else:
        assert stdout == ""


class TestInputBoundary:
    @pytest.mark.parametrize(
        "args, expected",
        [
            (("theory", "--model", "huber_objective", "--delta", "nan"), 2),
            (("theory", "--model", "huber_objective", "--delta", "1", "--nu", "nan"), 2),
            (("theory", "--model", "huber_objective", "--delta", "1", "--L", "inf"), 2),
            (("simulate", "--model", "huber_objective", "--nu", "nan"), 2),
            (("privacy", "output", "--nu", "nan", "--lambda", "1"), 2),
            (("privacy", "objective", "--nu", "1e-300", "--lambda", "1"), 3),
        ],
    )
    def test_non_finite_and_underflowing_inputs(self, args, expected):
        code, stdout = run_in_process(*args)
        assert code == expected
        assert stdout == ""

    NUMBERS = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, 5e-324, 1e-300, 1e-160, 1e-8, 1.0, 1e300]),
    )

    @settings(max_examples=25, deadline=None)
    @given(
        model=st.sampled_from(["huber_objective", "huber_output"]),
        delta=NUMBERS, lam=NUMBERS, nu=NUMBERS, L=NUMBERS, kappa=NUMBERS,
    )
    def test_theory_exit_codes_and_strict_json(self, model, delta, lam, nu, L, kappa):
        code, stdout = run_in_process(
            "theory", "--model", model, f"--delta={delta!r}", f"--lambda={lam!r}",
            f"--nu={nu!r}", f"--L={L!r}", f"--kappa={kappa!r}",
        )
        assert_contract(code, stdout)

    @settings(max_examples=60, deadline=None)
    @given(
        mechanism=st.sampled_from(["objective", "output", "dpsgd"]),
        nu=NUMBERS, lam=NUMBERS, L=NUMBERS, R=NUMBERS, epsilon=NUMBERS,
        T=st.integers(min_value=-2, max_value=10**400),
    )
    def test_privacy_exit_codes_and_strict_json(self, mechanism, nu, lam, L, R, epsilon, T):
        code, stdout = run_in_process(
            "privacy", mechanism, f"--nu={nu!r}", f"--lambda={lam!r}", f"--L={L!r}",
            f"--R={R!r}", f"--epsilon={epsilon!r}", f"--T={T}",
        )
        assert_contract(code, stdout)
