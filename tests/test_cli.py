"""End-to-end command-line tests via subprocess: exit codes, output formats,
manifests, and bit-stable reruns."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import logging
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from propdp import cli, erm, figures, harness, models, rng, state_evolution
from propdp.cli import SIMULATE_HEADER, SUMMARY_HEADER, THEORY_HEADER
from propdp.errors import NonConvergenceError, NumericError
from propdp.laws import parse_law
from propdp.rng import stream
from support import one_at_a_time


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


_run_cell = harness._run_cell


def _cell_failing_at_point_1(args):
    """``harness._run_cell``, but the blocks of grid point 1 fail; defined at
    module level so that a pool worker can unpickle it by name."""
    if args[1] == 1:
        raise NumericError("injected block failure")
    return _run_cell(args)


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

    def test_no_scipy_at_runtime(self, tmp_path):
        script = (
            "import sys\n"
            "from propdp import cli\n"
            "assert cli.main(['theory', '--model', 'huber_objective', '--delta', '0.5',"
            " '--out', sys.argv[1] + '/t.json']) == 0\n"
            "assert cli.main(['privacy', 'objective', '--nu', '1', '--lambda', '1',"
            " '--out', sys.argv[1] + '/p.json']) == 0\n"
            "assert cli.main(['figure', '--name', 'fig2', '--out', sys.argv[1]]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


    def test_import_loads_neither_numpy_random_nor_scipy(self):
        # numpy.random costs setup time; the runtime loads it when it first draws
        script = (
            "import sys\n"
            "import propdp.cli\n"
            "print(sorted(m for m in sys.modules"
            " if m == 'numpy.random' or m.startswith(('numpy.random.', 'scipy'))))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestWarnings:
    SIMULATE = ("simulate", "--model", "huber_objective", "--total", "16", "--ratios", "0.5",
                "--replicates", "1", "--jobs", "1")

    def test_failed_theory_point_is_reported_on_stderr(self, monkeypatch, capsys):
        def fail(self, config, delta, *, seed, initial=None):
            raise NumericError("injected failure")

        monkeypatch.setattr(models.ModelSpec, "solve", fail)
        handlers = list(logging.getLogger("propdp").handlers)
        assert cli.main(list(self.SIMULATE)) == 0
        out, err = capsys.readouterr()
        assert err == (
            "propdp: WARNING: huber_objective at n=4, d=4: no theory: injected failure\n"
        )
        theory = next(csv.DictReader(io.StringIO(out)))["theory"]
        assert theory == ""
        # the handler lives for one call: a second call prints the message once
        assert logging.getLogger("propdp").handlers == handlers
        assert cli.main(list(self.SIMULATE)) == 0
        assert capsys.readouterr().err.count("injected failure") == 1

    def test_failed_theory_points_are_in_the_manifest(self, monkeypatch, tmp_path, capsys):
        solve = models.ModelSpec.solve

        def fail_above_one(self, config, delta, **kwargs):
            if delta > 1:
                raise NumericError("injected failure")
            return solve(self, config, delta, **kwargs)

        out = tmp_path / "sim.csv"
        args = [
            "simulate", "--model", "huber_objective", "--total", "16", "--ratios", "0.2,0.5,0.8",
            "--replicates", "1", "--jobs", "1", "--out", str(out),
        ]
        manifest = tmp_path / "sim.csv.manifest.json"
        assert cli.main(args) == 0
        assert json.loads(manifest.read_text())["theory_failures"] == []
        _, clean = read_csv(out)
        monkeypatch.setattr(models.ModelSpec, "solve", fail_above_one)
        assert cli.main(args) == 0
        assert json.loads(manifest.read_text())["theory_failures"] == [
            {"grid_index": 0, "n": 2, "d": 8, "error": "NumericError: injected failure"}
        ]
        header, rows = read_csv(out)
        n_col, theory_col = header.index("n"), header.index("theory")
        assert len(rows) == len(clean)
        for row, clean_row in zip(rows, clean):
            if row[n_col] == "2":  # only the failed point loses its theory cells
                assert row[theory_col] == ""
                row[theory_col] = clean_row[theory_col]
            assert row == clean_row
        assert capsys.readouterr().err.count("injected failure") == 1

    def test_manifest_gives_a_nonconvergence_residual(self, monkeypatch, tmp_path):
        # a finite residual as a number, an infinite or NaN one as null
        residuals = {0: 0.25, 1: math.inf, 2: math.nan}

        def fail(self, config, delta, **kwargs):
            index = [0.2, 0.5, 0.8].index(round(1.0 / (1.0 + delta), 6))
            raise NonConvergenceError("injected stall", residual=residuals[index])

        monkeypatch.setattr(models.ModelSpec, "solve", fail)
        out = tmp_path / "sim.csv"
        args = [
            "simulate", "--model", "huber_objective", "--total", "16", "--ratios", "0.2,0.5,0.8",
            "--replicates", "1", "--jobs", "1", "--out", str(out),
        ]
        assert cli.main(args) == 0
        failures = json.loads((tmp_path / "sim.csv.manifest.json").read_text())["theory_failures"]
        assert [(f["grid_index"], f["error"], f["residual"]) for f in failures] == [
            (0, "NonConvergenceError: injected stall", 0.25),
            (1, "NonConvergenceError: injected stall", None),
            (2, "NonConvergenceError: injected stall", None),
        ]

    def test_library_use_stays_silent(self, capsys):
        logging.getLogger("propdp.harness").warning("not for stderr")
        assert capsys.readouterr().err == ""


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
        assert point["solution"]["clamped_eigenvalues"] == 0

    def test_dpsgd_trace_reports_eigenvalue_clamps(self):
        proc = run_cli(
            "theory", "--model", "logistic_dpsgd_ce", "--delta", "9", "--nu", "0",
            "--steps", "8", "--mc-samples", "10000", "--seed", "0",
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)[0]["solution"]["clamped_eigenvalues"] > 0

    @pytest.mark.parametrize(
        "argv, clamps, digest",
        [
            (("--model", "huber_dpsgd_ce", "--delta", "0.5,20", "--L", "1"), [0, 2],
             "7f53d9db9d24581c1b3a873d8a33d08e4ddb616d8c1b733d1d40b7e4eddb49bb"),
            (("--model", "logistic_dpsgd_ce", "--delta", "0.5,9"), [0, 6],
             "ee22cca6fd1ff4f0a1bf690eedfc2c6e291a8b8041f2479f6d15884f54af82a9"),
        ],
    )
    def test_dpsgd_theory_json_is_pinned(self, capsys, argv, clamps, digest):
        # theory still runs the theta-path check: its JSON keeps the bytes it
        # had before sweeps and figures stopped running the check, and the
        # clamp count includes the check's own (logistic at 9: 5 in the rounds, 1 in it)
        args = ["theory", *argv, "--nu", "0", "--steps", "8", "--mc-samples", "10000", "--seed", "0"]
        assert cli.main(args) == 0
        out = capsys.readouterr().out
        assert [point["solution"]["clamped_eigenvalues"] for point in json.loads(out)] == clamps
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

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

    def test_failed_point_gives_its_residual(self, monkeypatch, capsys):
        # as in the manifests: a NonConvergenceError's residual is a number, or
        # null where it is not finite; any other NumericError has no residual
        residuals = {0.5: 1e-3, 1.0: math.inf}

        def fail(self, config, delta, **kwargs):
            if delta in residuals:
                raise NonConvergenceError("injected stall", residual=residuals[delta])
            raise NumericError("injected failure")

        monkeypatch.setattr(models.ModelSpec, "solve", fail)
        args = ["theory", "--model", "huber_objective", "--delta", "0.5,1,2", "--L", "10"]
        assert cli.main(args) == 0
        points = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert [p["inputs"]["delta"] for p in points] == [0.5, 1.0, 2.0]
        assert [{k: v for k, v in p.items() if k != "inputs"} for p in points] == [
            {"error": "NonConvergenceError: injected stall", "residual": 1e-3},
            {"error": "NonConvergenceError: injected stall", "residual": None},
            {"error": "NumericError: injected failure"},
        ]

    def test_failed_point_gives_its_iterations(self, monkeypatch, capsys):
        def fail(self, config, delta, **kwargs):
            raise NonConvergenceError("injected stall", residual=0.5, iterations=7)

        monkeypatch.setattr(models.ModelSpec, "solve", fail)
        assert cli.main(["theory", "--model", "huber_objective", "--delta", "0.5"]) == 0
        (point,) = json.loads(capsys.readouterr().out)
        assert {k: v for k, v in point.items() if k != "inputs"} == {
            "error": "NonConvergenceError: injected stall", "residual": 0.5, "iterations": 7,
        }


class TestOneKeyer:
    """Every draw of a sweep and a figure is keyed by ``rng.keys`` and read
    by ``rng.draw``: with ``stream`` refused, each model's sweep and fig2's
    theory keep their bytes.  Only the theta-path check of ``theory`` reads
    a stream in turn, once per solve."""

    DIGESTS = {  # sha256 of simulate --total 100 --replicates 2 --steps 2 --mc-samples 10000
        "huber_objective": "182c4c809d764147fa1b562b506f3c13ddddd79455c5a71238e5eab3e5023a0c",
        "huber_output": "27b3c2b72b00b3b0d64f8907c04bf4bf970727ffd070353e85ccf6b8060aaf72",
        "logistic_objective": "bba8526e327a72c4757cc1c543cf24d6ac38571422d402488704d07856f53a27",
        "logistic_output": "d2ef045ff97d4d56be95e99e08f328408007830915bea50200a694092886b23b",
        "huber_dpsgd_ce": "ae08ee756ce5e3d1bd627b4312a70ab88892c4df155a59c34cac4bf0a6d32089",
        "logistic_dpsgd_ce": "e9a1e9b4e08aa16e1a3208c5fb447b4d4044241b56afd576bea59dbbe0c48cf7",
    }
    FIG2_DIGEST = "8c6ec2e091e73d0224d8d956a6ffd17d7a304452ac8d28a11a6845e0a9dd3c78"

    @pytest.fixture
    def no_stream(self, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"stream{args} read in turn")

        monkeypatch.delenv("PROPDP_SEED", raising=False)
        for module in (rng, harness, erm, state_evolution):
            monkeypatch.setattr(module, "stream", refuse)

    @pytest.mark.parametrize("model", DIGESTS)
    def test_sweeps_read_no_stream_in_turn(self, no_stream, model, tmp_path):
        out = tmp_path / "sim.csv"
        args = ["simulate", "--model", model, "--total", "100", "--replicates", "2",
                "--steps", "2", "--mc-samples", "10000", "--jobs", "1", "--out", str(out)]
        assert cli.main(args) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DIGESTS[model]

    def test_fig2_theory_reads_no_stream_in_turn(self, no_stream, monkeypatch):
        monkeypatch.setattr(figures, "DENSE_RATIOS", (0.3, 0.7))
        rows = figures.get_figure("fig2").theory_rows()
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == self.FIG2_DIGEST

    def test_theory_reads_one_stream_per_check(self, no_stream, monkeypatch, capsys):
        tags = []

        def recording_stream(seed, tag, *indices):
            tags.append(tag)
            return stream(seed, tag, *indices)  # the module's own, imported before the refusal

        monkeypatch.setattr(state_evolution, "stream", recording_stream)
        args = ["theory", "--model", "huber_dpsgd_ce", "--delta", "0.5,20", "--L", "1",
                "--nu", "0", "--steps", "8", "--mc-samples", "10000", "--seed", "0"]
        assert cli.main(args) == 0
        assert len(json.loads(capsys.readouterr().out)) == 2
        assert tags == ["state-evolution-theta"] * 2


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

    def test_dpsgd_negative_epsilon_is_a_config_error(self):
        assert run_cli("privacy", "dpsgd", "--T", "3", "--nu", "1", "--epsilon", "-1").returncode == 2

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

    @staticmethod
    def _reference_csv(config, points) -> str:
        """The replicate rows as csv.writer writes each row's 17 cells."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(SIMULATE_HEADER)
        for point in points:
            for replicate, (seed, values, iterations, grad_norm) in enumerate(point.replicates):
                for metric in sorted(values):
                    cells = {
                        **harness.settings_echo(config), "n": point.n, "d": point.d,
                        "delta": point.d / point.n, "replicate": replicate, "seed": seed,
                        "metric": metric, "empirical": values[metric],
                        "theory": (point.theory or {}).get(metric),
                        "fit_iterations": iterations, "grad_norm": grad_norm,
                    }
                    writer.writerow([cli._fmt(cells[key]) for key in SIMULATE_HEADER])
        return buffer.getvalue()

    def test_replicate_cells_follow_the_point_columns(self):
        # _simulate_lines writes a point's columns, then these in this order
        rest = ("replicate", "seed", "metric", "empirical", "theory", "fit_iterations", "grad_norm")
        assert SIMULATE_HEADER == cli._POINT_COLUMNS + rest

    @pytest.mark.parametrize("model, noise", [
        ("huber_objective", "mix:0.9*gaussian:0.2,0.1*point:3"),  # a quoted sigma_eps cell
        ("huber_dpsgd_ce", "gaussian:0.2"),
        ("logistic_output", "gaussian:0.2"),  # an empty sigma_eps cell
    ])
    def test_lines_are_the_csv_writer_bytes(self, model, noise, tmp_path):
        config = harness.ExperimentConfig(
            model=model, total=200, ratios=(0.3, 0.6), replicates=3, noise=noise, nu=0.1,
            steps=2, mc_samples=10_000, seed=3,
        )
        points = list(harness.run_experiment(config))
        out = tmp_path / "sim.csv"
        args = ["--total", "200", "--ratios", "0.3,0.6", "--replicates", "3", "--nu", "0.1",
                "--steps", "2", "--mc-samples", "10000", "--seed", "3", "--jobs", "1"]
        argv = ["simulate", "--model", model, "--noise", noise, *args, "--out", str(out)]
        assert cli.main(argv) == 0
        assert out.read_text(encoding="utf-8") == self._reference_csv(config, points)

    def test_lines_keep_the_cell_rules(self):
        # text cells are quoted, bools, ints and numpy numbers are spelled as
        # _fmt spells them, and a missing theory is an empty cell
        config = harness.ExperimentConfig(model="huber_objective", total=100, ratios=(0.5,))
        replicates = [
            (np.uint64(7), {"a,b": np.float64(0.1), 'q"x': True, "z": 3}, np.int64(4), 1e-12),
            (2**64 - 1, {"a,b": -0.0, 'q"x': False, "z": np.int32(-1)}, None, None),
        ]
        points = [harness.GridPoint(config, 0, 10, 10, {"z": 0.25}, replicates),
                  harness.GridPoint(config, 1, 10, 10, None, replicates[::-1])]
        got = cli._line(SIMULATE_HEADER) + "".join(cli._simulate_lines(config, points))
        assert got == self._reference_csv(config, points)
        bad = [harness.GridPoint(config, 0, 10, 10, None, [(1, {"m": math.inf}, None, None)])]
        with pytest.raises(NumericError, match="non-finite"):
            list(cli._simulate_lines(config, bad))

    def test_fit_certificate_columns(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run_cli(*self.BASE, "--out", str(out)).returncode == 0
        header, rows = read_csv(out)
        col = dict(zip(header, zip(*rows)))
        for iterations, grad_norm in zip(col["fit_iterations"], col["grad_norm"]):
            assert 1 <= int(iterations) <= 20
            assert 0.0 <= float(grad_norm) <= 1e-9 * 20  # the certificate at n = 20
        # one fit per replicate: its certificate repeats on each metric row
        certificates = set(zip(col["replicate"], col["fit_iterations"], col["grad_norm"]))
        assert len(certificates) == 3

    def test_noisy_gd_has_no_fit_certificate(self, tmp_path):
        out = tmp_path / "gd.csv"
        proc = run_cli(
            "simulate", "--model", "logistic_dpsgd_ce", "--total", "200", "--ratios", "0.5",
            "--replicates", "2", "--steps", "1", "--mc-samples", "10000", "--nu", "0.1",
            "--jobs", "1", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        header, rows = read_csv(out)
        col = dict(zip(header, zip(*rows)))
        assert set(col["fit_iterations"]) == {""}
        assert set(col["grad_norm"]) == {""}

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

    def test_summary_is_in_the_manifest(self, tmp_path):
        out, summary = tmp_path / "sim.csv", tmp_path / "summary.csv"
        assert run_cli(*self.BASE, "--out", str(out), "--summary", str(summary)).returncode == 0
        manifest = json.loads((tmp_path / "sim.csv.manifest.json").read_text())
        assert manifest["output_paths"] == [str(out), str(summary)]
        for path in (out, summary):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert manifest["output_digests"][str(path)] == digest
        # with the replicate rows on stdout, the manifest sits by the summary
        alone = tmp_path / "alone.csv"
        assert run_cli(*self.BASE, "--summary", str(alone)).returncode == 0
        manifest = json.loads((tmp_path / "alone.csv.manifest.json").read_text())
        assert manifest["output_paths"] == [str(alone)]
        assert manifest["output_digests"][str(alone)] == digest

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

    @pytest.mark.parametrize(
        "args",
        [
            ("theory", "--model", "huber_dpsgd_ce", "--delta", "1", "--steps", "1",
             "--mc-samples", "1000000000000"),
            ("simulate", "--model", "huber_objective", "--total", "100", "--ratios", "0.5",
             "--replicates", "1000000000000", "--jobs", "1"),
        ],
    )
    def test_oversized_budget_is_refused_before_allocating(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr


@pytest.fixture(scope="class")
def smoke_figures(tmp_path_factory):
    """The directory of fig1's and fig5's files at --replicates 2 --jobs 1."""
    out = tmp_path_factory.mktemp("figures")
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("PROPDP_SEED", raising=False)
        for name in ("fig1", "fig5"):
            args = ["figure", "--name", name, "--replicates", "2", "--jobs", "1", "--out", str(out)]
            assert cli.main(args) == 0
    return out


class TestFigure:
    SMOKE_DIGESTS = {  # sha256 of theory.csv and simulation.csv at --replicates 2 --jobs 1
        "fig1": ("693a8824a29c63aa13c5aa107ae472bda89a8c2cf68fda86444dac598bc71368",
                 "5201f9ec3dcb9d189dff9d5a691b26eb92ee25cc0eacbcbb1597471c8422ed05"),
        "fig5": ("e9bb74b9cc3979beb941cfc0907a1a8af4031111191964f362a410a360aceee7",
                 "93f3a49923b08f909cd52086627be50fec596923b8806e9e192e51f9544a4fe6"),
    }

    @pytest.mark.parametrize("name", SMOKE_DIGESTS)
    def test_smoke_outputs_are_pinned(self, smoke_figures, name):
        # no benchmark workload runs a figure's sweep, so its bytes are pinned here
        for suffix, digest in zip(("theory", "simulation"), self.SMOKE_DIGESTS[name]):
            path = smoke_figures / f"{name}_{suffix}.csv"
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, path.name

    def test_simulation_rows_are_the_runs_summaries(self, smoke_figures, tmp_path, monkeypatch):
        # each run's `simulate --summary` rows, in run order, with the figure column in front
        monkeypatch.delenv("PROPDP_SEED", raising=False)
        expected = ""
        for index, (_, config) in enumerate(figures.FIG1.runs):
            path, summary = tmp_path / f"run{index}.json", tmp_path / f"summary{index}.csv"
            path.write_text(json.dumps(dataclasses.asdict(dataclasses.replace(config, replicates=2))))
            args = ["simulate", "--config", str(path), "--jobs", "1",
                    "--out", str(tmp_path / f"sim{index}.csv"), "--summary", str(summary)]
            assert cli.main(args) == 0
            _, *lines = summary.read_text().splitlines(keepends=True)
            expected += "".join(f"fig1,{line}" for line in lines)
        header, rows = (smoke_figures / "fig1_simulation.csv").read_text().split("\n", 1)
        assert tuple(header.split(",")) == SUMMARY_HEADER
        assert rows == expected

    def test_failed_sweep_points_are_in_the_manifest(self, smoke_figures, tmp_path, monkeypatch):
        # the sweeps' solves at n = d = 32 fail too: they follow the curves' entries,
        # only that point's theory cells go, and the command still exits 0
        solve = models.ModelSpec.solve

        def fail_at_one(self, config, delta, **kwargs):
            if delta == 1.0:
                raise NumericError("injected failure")
            return solve(self, config, delta, **kwargs)

        monkeypatch.setattr(models.ModelSpec, "solve", fail_at_one)
        monkeypatch.delenv("PROPDP_SEED", raising=False)
        out = tmp_path / "failed"
        args = ["figure", "--name", "fig1", "--replicates", "2", "--jobs", "1", "--out", str(out)]
        assert cli.main(args) == 0
        failures = json.loads((out / "fig1_manifest.json").read_text())["theory_failures"]
        error = {"error": "NumericError: injected failure"}
        labels = [label for label, _ in figures.FIG1.runs]
        assert failures == [
            *({"label": label, "ratio": 0.5, "delta": 1.0, **error} for label in labels),
            *({"label": label, "grid_index": 4, "n": 32, "d": 32, **error} for label in labels),
        ]
        header, clean = read_csv(smoke_figures / "fig1_simulation.csv")
        _, rows = read_csv(out / "fig1_simulation.csv")
        n_col, d_col = header.index("n"), header.index("d")
        lost = [header.index("theory"), header.index("z_score")]
        assert len(rows) == len(clean)
        for row, clean_row in zip(rows, clean):
            if (row[n_col], row[d_col]) == ("32", "32"):
                assert [row[col] for col in lost] == ["", ""]
                assert all(clean_row[col] != "" for col in lost)
                for col in lost:
                    row[col] = clean_row[col]
            assert row == clean_row

    @pytest.mark.parametrize("args, sweeps, summary, rows", [
        (("figure", "--name", "fig1", "--replicates", "2", "--out", "."),
         2, "fig1_simulation.csv", 9 * 2 * 4),
        (("simulate", "--model", "huber_objective", "--total", "16", "--ratios", "0.2,0.5,0.8",
          "--replicates", "2", "--out", "sim.csv", "--summary", "summary.csv"),
         1, "summary.csv", 3 * 4),
    ])
    def test_no_sweep_is_held_whole(self, tmp_path, monkeypatch, args, sweeps, summary, rows):
        # each grid point is freed before the sweep makes the next one
        run_experiment = harness.run_experiment
        seen = []

        def one_point_held(config, *, jobs):
            seen.append(config)
            return one_at_a_time(run_experiment(config, jobs=jobs))

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(figures, "_curve_rows", lambda name, label, config, **kwargs: [])
        monkeypatch.setattr(harness, "run_experiment", one_point_held)
        assert cli.main([*args, "--jobs", "1"]) == 0
        assert len(seen) == sweeps
        assert len(read_csv(tmp_path / summary)[1]) == rows

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
            assert hashlib.sha256(Path(path).read_bytes()).hexdigest() == digest

    def test_fig2_theory_only(self, tmp_path):
        out = tmp_path / "fig2"
        proc = run_cli("figure", "--name", "fig2", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert (out / "fig2_theory.csv").exists()
        assert not (out / "fig2_simulation.csv").exists()

    def test_failed_curve_points_are_in_the_manifest(self, tmp_path, monkeypatch):
        # one ratio's solves fail: theory.csv loses only that ratio's rows, the
        # manifest lists each failed point, and the command still exits 0
        ratio = figures.DENSE_RATIOS[7]
        assert cli.main(["figure", "--name", "fig2", "--out", str(tmp_path / "clean")]) == 0
        manifest = json.loads((tmp_path / "clean" / "fig2_manifest.json").read_text())
        assert manifest["theory_failures"] == []
        solve = models.ModelSpec.solve

        def fail_at_ratio(self, config, delta, **kwargs):
            if delta == (1.0 - ratio) / ratio:
                residual = math.inf if self.loss == "huber" else 0.5
                raise NonConvergenceError("injected stall", residual=residual)
            return solve(self, config, delta, **kwargs)

        monkeypatch.setattr(models.ModelSpec, "solve", fail_at_ratio)
        out = tmp_path / "failed"
        assert cli.main(["figure", "--name", "fig2", "--out", str(out)]) == 0
        header, clean = read_csv(tmp_path / "clean" / "fig2_theory.csv")
        _, rows = read_csv(out / "fig2_theory.csv")
        kept = [row for row in clean if float(row[header.index("ratio")]) != ratio]
        assert len(kept) == len(clean) - len(figures.FIG2.runs)
        # the point after the failure starts cold, so its curve moves by rounding alone
        value = header.index("value")
        assert [row[:value] for row in rows] == [row[:value] for row in kept]
        for row, clean_row in zip(rows, kept):
            assert float(row[value]) == pytest.approx(float(clean_row[value]), rel=1e-9, abs=0)
        failures = json.loads((out / "fig2_manifest.json").read_text())["theory_failures"]
        assert failures == [
            {"label": label, "ratio": ratio, "delta": (1.0 - ratio) / ratio,
             "error": "NonConvergenceError: injected stall",
             "residual": None if label.startswith("huber") else 0.5}
            for label, _ in figures.FIG2.runs
        ]

    def test_overrides_reach_every_run(self, tmp_path, monkeypatch):
        # the theory curves and the simulation sweeps both see --replicates and PROPDP_SEED
        seen = []

        def curve_rows(name, label, config, **kwargs):
            seen.append(config)
            return []

        def run_experiment(config, *, jobs):
            seen.append(config)
            return []

        monkeypatch.setattr(figures, "_curve_rows", curve_rows)
        monkeypatch.setattr(harness, "run_experiment", run_experiment)
        monkeypatch.setenv("PROPDP_SEED", "7")
        args = ["figure", "--name", "fig6", "--replicates", "1", "--jobs", "1"]
        assert cli.main([*args, "--out", str(tmp_path)]) == 0
        assert len(seen) == 2 * len(figures.FIGURES["fig6"].runs)
        assert all(config.seed == 7 and config.replicates == 1 for config in seen)
        assert json.loads((tmp_path / "fig6_manifest.json").read_text())["master_seed"] == 7

    def test_theory_only_manifest_hashes_its_runs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(figures, "_curve_rows", lambda name, label, config, **kwargs: [])
        monkeypatch.delenv("PROPDP_SEED", raising=False)

        def manifest(out):
            assert cli.main(["figure", "--name", "fig2", "--out", str(out)]) == 0
            return json.loads((out / "fig2_manifest.json").read_text())

        before = manifest(tmp_path / "before")
        spec = figures.FIGURES["fig2"]
        (label, config), *rest = spec.runs
        moved = (label, dataclasses.replace(config, nu=2.0 * config.nu))
        monkeypatch.setitem(figures.FIGURES, "fig2", dataclasses.replace(spec, runs=(moved, *rest)))
        after = manifest(tmp_path / "after")
        assert before["config_hash"] != after["config_hash"]
        assert before["master_seed"] == after["master_seed"] == config.seed

    def test_theory_only_figure_checks_its_replicates(self, tmp_path, capsys):
        out = tmp_path / "fig2"
        assert cli.main(["figure", "--name", "fig2", "--replicates", "0", "--out", str(out)]) == 2
        _, err = capsys.readouterr()
        assert len(err.splitlines()) == 1
        assert err.startswith("propdp: config error: ")


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

    def test_theory_refuses_kappa_with_signal(self):
        # --kappa is shorthand for --signal gaussian:KAPPA; both at once would drop one
        args = ("theory", "--model", "huber_objective", "--delta", "1", "--kappa", "3")
        assert run_in_process(*args, "--signal", "gaussian:1") == (2, "")
        code, stdout = run_in_process(*args)
        assert code == 0
        assert json.loads(stdout)[0]["inputs"]["signal"] == "gaussian:3.0"

    def test_huge_privacy_loss_reports(self):
        # rho ~ 1.4e33: the RDP-curve invariant must hold up to rounding
        code, stdout = run_in_process(
            "privacy", "objective", "--nu", "1e-9", "--lambda", "1",
            "--L", "5332874545380249", "--R", "1e-8", "--epsilon", "0",
        )
        assert code == 0
        report = json.loads(stdout, parse_constant=_reject_constant)
        assert report["zcdp_rho"] > 1e33

    def test_huge_kappa_keeps_every_point(self):
        # kappa**2 overflows to inf, but the kappa echo does not: each point
        # reports its own outcome and the call exits 0
        code, stdout = run_in_process(
            "theory", "--model", "huber_objective", "--delta", "0.5,1",
            "--kappa", "1e200", "--L", "10",
        )
        assert code == 0
        points = json.loads(stdout, parse_constant=_reject_constant)
        assert [p["inputs"]["delta"] for p in points] == [0.5, 1.0]
        assert all(p["inputs"]["kappa"] == 1e200 for p in points)
        assert all(("predictions" in p) != ("error" in p) for p in points)

    MIXED_KAPPA = "mix:1e-300*gaussian:1e200,1*gaussian:1"  # kappa = 1e50, E[X**2] = inf

    def test_kappa_echo_is_finite_in_both_commands(self):
        code, stdout = run_in_process(
            "theory", "--model", "huber_objective", "--delta", "1", "--signal", self.MIXED_KAPPA,
        )
        assert code == 0
        assert json.loads(stdout, parse_constant=_reject_constant)[0]["inputs"]["kappa"] == 1e50
        code, stdout = run_in_process(
            "simulate", "--model", "huber_objective", "--total", "100", "--ratios", "0.5",
            "--replicates", "2", "--jobs", "1", "--signal", self.MIXED_KAPPA,
        )
        assert code == 0
        header, *rows = csv.reader(io.StringIO(stdout))
        assert {row[header.index("kappa")] for row in rows} == {"1e+50"}

    def test_overflowing_estimate_exits_3(self):
        # the replicate's arithmetic overflows: one numeric error, not a
        # stream of numpy RuntimeWarnings before it; the grid point's failed
        # theory solve is the one warning ahead of it
        proc = run_cli(
            "simulate", "--model", "huber_objective", "--total", "100", "--ratios", "0.5",
            "--replicates", "1", "--jobs", "1", "--signal", "gaussian:1e200",
        )
        assert proc.returncode == 3
        warning, error = proc.stderr.splitlines()
        assert warning.startswith("propdp: WARNING: huber_objective at n=10, d=10: no theory: ")
        assert error.startswith("propdp: numeric error: huber_objective replicate: ")
        # an inf or nan that still reaches a CSV cell is refused
        with pytest.raises(NumericError, match="non-finite number in the output"):
            cli._fmt(math.inf)

    @pytest.mark.parametrize("noise, L", [("gaussian:1e8", "1e9"), ("gaussian:1e10", "1e15")])
    def test_large_labels_are_certified(self, noise, L):
        # the rounding of X'g alone exceeds 1e-9*n at this label scale, so
        # the certificate scales with ||grad F(0)||
        code, stdout = run_in_process(
            "simulate", "--model", "huber_objective", "--noise", noise, "--L", L,
            "--total", "400", "--ratios", "0.5", "--replicates", "1", "--jobs", "1",
        )
        assert code == 0
        header, *rows = csv.reader(io.StringIO(stdout))
        norms = [float(row[header.index("grad_norm")]) for row in rows]
        assert rows and all(math.isfinite(v) for v in norms)

    def test_every_row_echoes_the_laws(self):
        signal, noise = "mix:0.5*gaussian:0.6,0.5*point:0.8", "mix:0.5*gaussian:0.2,0.5*point:1"
        code, stdout = run_in_process(
            "simulate", "--model", "huber_objective", "--total", "100", "--ratios", "0.3,0.7",
            "--replicates", "2", "--jobs", "1", "--signal", signal, "--noise", noise,
        )
        assert code == 0
        header, *rows = csv.reader(io.StringIO(stdout))
        assert len(rows) == 2 * 2 * 4
        kappa = parse_law(signal).root_second_moment  # the hypot of sqrt(w)*loc, sqrt(w)*scale
        assert kappa == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert {row[header.index("sigma_eps")] for row in rows} == {noise}
        assert {row[header.index("kappa")] for row in rows} == {repr(kappa)}

    # the same settings are refused, or accepted, by both commands
    @pytest.mark.parametrize(
        "model, args, expected",
        [
            ("huber_objective", ("--lambda", "1e-10"), 2),
            ("logistic_objective", ("--signal", "point:0"), 2),
            ("huber_dpsgd_ce", ("--mc-samples", "5"), 2),
            ("huber_dpsgd_ce", ("--step-size", "-1"), 2),
            ("huber_objective", ("--steps", "20"), 0),
        ],
    )
    def test_theory_and_simulate_agree_on_settings(self, model, args, expected):
        theory = run_in_process("theory", "--model", model, "--delta", "1", *args)
        simulate = run_in_process(
            "simulate", "--model", model, "--total", "16", "--ratios", "0.5",
            "--replicates", "1", "--jobs", "1", *args,
        )
        assert theory[0] == simulate[0] == expected
        if expected != 0:
            assert theory[1] == simulate[1] == ""

    def test_theory_without_flags_predicts_simulate_theory_column(self):
        # n = d = 4, so delta = 1; neither command is given L
        code, stdout = run_in_process("theory", "--model", "huber_objective", "--delta", "1")
        assert code == 0
        predictions = json.loads(stdout)[0]["predictions"]
        code, stdout = run_in_process(
            "simulate", "--model", "huber_objective", "--total", "16", "--ratios", "0.5",
            "--replicates", "1", "--jobs", "1",
        )
        assert code == 0
        header, *rows = csv.reader(io.StringIO(stdout))
        column = {row[header.index("metric")]: row[header.index("theory")] for row in rows}
        assert column == {metric: repr(value) for metric, value in predictions.items()}

    @pytest.mark.parametrize("model", list(cli.models.SPECS))
    def test_both_commands_default_to_the_config(self, model, monkeypatch):
        monkeypatch.delenv("PROPDP_SEED", raising=False)
        parser = cli.build_parser()
        for argv in (["theory", "--model", model, "--delta", "1"], ["simulate", "--model", model]):
            config = cli._load_config(parser.parse_args(argv))
            assert config == harness.ExperimentConfig(model=model)

    def test_closed_stdout_is_a_config_error(self):
        # 1200 rows, more than a pipe buffer holds: a write fails once the reader is gone
        env = os.environ.copy()
        env.pop("PROPDP_SEED", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "propdp.cli", "simulate", "--model", "huber_objective",
             "--total", "100", "--ratios", "0.5", "--replicates", "300", "--jobs", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
        )
        try:
            proc.stdout.read(100)
            proc.stdout.close()
            _, stderr = proc.communicate(timeout=300)
        finally:
            proc.kill()
        assert proc.returncode == 2
        assert stderr.startswith("propdp: config error: cannot write stdout: ")
        assert "Traceback" not in stderr and "Exception ignored" not in stderr

    @pytest.mark.parametrize(
        "settings",
        [
            {"total": 0}, {"total": -5}, {"grid": [[0, 5]]}, {"ratios": []},
            # too large to allocate: n*d is capped, and the cap comes before any float math
            {"total": 10**100}, {"total": 10**400}, {"grid": [[1000000, 1000000]]},
        ],
    )
    def test_empty_or_degenerate_grid_is_a_config_error(self, settings, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": "huber_objective", **settings}))
        assert run_in_process("simulate", "--config", str(config), "--jobs", "1") == (2, "")

    # a config file's values are type-checked when the config is built
    @pytest.mark.parametrize(
        "text",
        [
            '"grid": [[1]]', '"grid": 5', '"grid": [[1e400, 2]]', '"ratios": ["x"]',
            '"ratios": 0.5', '"total": 1e400', '"signal": 5', '"noise": null',
            '"seed": "x"', '"seed": 1.5', '"mc_samples": "x"',
            # only step_size may be null, and no number may be a bool
            '"lam": null', '"L": null', '"nu": null', '"L": true', '"nu": false',
            '"replicates": true', '"grid": [[true, 2]]', '"step_size": true',
        ],
    )
    def test_mistyped_config_value_is_a_config_error(self, text, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"model": "huber_objective", ' + text + "}")
        assert cli.main(["simulate", "--config", str(config), "--jobs", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("propdp: config error: ")

    def test_null_step_size_keeps_the_default(self, tmp_path):
        config = tmp_path / "config.json"
        settings = {"total": 16, "ratios": [0.5], "replicates": 1, "step_size": None}
        config.write_text(json.dumps({"model": "huber_objective", **settings}))
        code, _ = run_in_process("simulate", "--config", str(config), "--jobs", "1")
        assert code == 0

    OVERFLOW = (
        "simulate", "--model", "huber_objective", "--total", "100", "--ratios", "0.5",
        "--replicates", "1", "--jobs", "1", "--signal", "gaussian:1e200",
    )

    def test_failed_output_leaves_no_file(self, tmp_path):
        proc = run_cli(*self.OVERFLOW, "--out", str(tmp_path / "f.csv"))
        assert proc.returncode == 3
        assert os.listdir(tmp_path) == []  # no partial CSV, no manifest

    def test_failed_output_keeps_the_earlier_file(self, tmp_path):
        out = tmp_path / "f.csv"
        out.write_text("earlier\n")
        assert run_cli(*self.OVERFLOW, "--out", str(out)).returncode == 3
        assert os.listdir(tmp_path) == ["f.csv"]
        assert out.read_text() == "earlier\n"

    @pytest.mark.parametrize("summary", ["nodir/b.csv", "adir"])
    def test_failed_command_publishes_no_file(self, summary, tmp_path, capsys):
        # the replicate CSV is complete, but the summary path cannot be written
        (tmp_path / "adir").mkdir()
        out = tmp_path / "a.csv"
        args = [
            "simulate", "--model", "huber_objective", "--total", "16", "--ratios", "0.5",
            "--replicates", "1", "--jobs", "1",
            "--out", str(out), "--summary", str(tmp_path / summary),
        ]
        assert cli.main(args) == 2
        assert os.listdir(tmp_path) == ["adir"]
        out.write_bytes(b"earlier\n")
        assert cli.main(args) == 2
        assert sorted(os.listdir(tmp_path)) == ["a.csv", "adir"]
        assert out.read_bytes() == b"earlier\n"

    def test_failed_block_in_a_worker_publishes_no_file(self, tmp_path, monkeypatch, capsys):
        # grid point 0's rows are streaming to the partial file when point 1 fails
        monkeypatch.setattr(harness, "_run_cell", _cell_failing_at_point_1)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # forked workers see the patch
        args = [
            "simulate", "--model", "huber_objective", "--total", "100", "--ratios", "0.3,0.5,0.7",
            "--replicates", "70", "--jobs", "2",
            "--out", str(tmp_path / "a.csv"), "--summary", str(tmp_path / "s.csv"),
        ]
        assert cli.main(args) == 3
        assert "injected block failure" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []
        assert multiprocessing.active_children() == []

    def test_output_digest_reads_in_chunks(self, tmp_path):
        # hashing an 8.4 MB output for the manifest takes a fraction of its size
        rows = (cli._line([f"{i:09d}"] * 60) for i in range(14_000))
        tracemalloc.start()
        try:
            with cli._Outputs({}, None) as outputs:
                outputs.write_csv(str(tmp_path / "big.csv"), ["cell"] * 60, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = (tmp_path / "big.csv").stat().st_size
        assert size >= 4 << 20
        assert peak < size / 3

    def test_one_path_for_two_outputs_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        args = [
            "simulate", "--model", "huber_objective", "--total", "16", "--ratios", "0.5",
            "--replicates", "1", "--jobs", "1", "--out", str(out), "--summary",
        ]
        assert cli.main([*args, str(out)]) == 2
        assert cli.main([*args, f"{out}.manifest.json"]) == 2  # the manifest's own path
        assert os.listdir(tmp_path) == []

    def test_failed_figure_publishes_no_file(self, tmp_path, monkeypatch, capsys):
        # the theory CSV is complete before the sweep fails
        def fail(config, *, jobs):
            raise NumericError("injected failure")

        monkeypatch.setattr(harness, "run_experiment", fail)
        out = tmp_path / "fig1"
        assert cli.main(["figure", "--name", "fig1", "--replicates", "2", "--out", str(out)]) == 3
        assert os.listdir(out) == []

    @pytest.mark.parametrize(
        "args",
        [
            ("theory", "--model", "huber_objective", "--delta", "1", "--out"),
            ("simulate", "--model", "huber_objective", "--total", "16", "--ratios", "0.5",
             "--replicates", "1", "--jobs", "1", "--out"),
            ("privacy", "objective", "--nu", "1", "--lambda", "1", "--out"),
            ("figure", "--name", "fig2", "--out"),
        ],
    )
    def test_unwritable_output_is_a_config_error(self, args, tmp_path, capsys):
        # a missing directory for a file, or a file where a directory should be
        target = tmp_path / "f" if args[0] == "figure" else tmp_path / "missing" / "f"
        if args[0] == "figure":
            target.write_text("")
        assert cli.main([*args, str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("propdp: config error: ") and str(target) in err

    NUMBERS = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, 5e-324, 1e-300, 1e-160, 1e-8, 1.0, 1e300]),
    )

    @settings(max_examples=25, deadline=None)
    @given(
        model=st.sampled_from(list(cli.models.SPECS)),
        delta=NUMBERS, lam=NUMBERS, nu=NUMBERS, L=NUMBERS, kappa=NUMBERS,
    )
    def test_theory_exit_codes_and_strict_json(self, model, delta, lam, nu, L, kappa):
        code, stdout = run_in_process(
            "theory", "--model", model, f"--delta={delta!r}", f"--lambda={lam!r}",
            f"--nu={nu!r}", f"--L={L!r}", f"--kappa={kappa!r}",
            "--steps", "1", "--mc-samples", "10000",
        )
        assert_contract(code, stdout)

    @settings(max_examples=30, deadline=None)
    @example(  # n*d = 0 leaves no grid point: a config error, not a division by zero
        model="huber_objective", total=0, ratios="0.5", lam=1.0, nu=0.0, L=10.0,
        signal="gaussian:1",
    )
    @given(
        model=st.sampled_from(list(cli.models.SPECS)),
        total=st.integers(min_value=-2, max_value=60),
        ratios=st.sampled_from(["0.5", "0.1,0.9", "0.3,0.5,0.7"]),
        lam=NUMBERS, nu=NUMBERS, L=NUMBERS,
        signal=st.sampled_from(
            ["gaussian:1", "point:0", "point:-3", "gaussian:1e200", "mix:0.5*point:1,0.5*gaussian:2"]
        ),
    )
    def test_simulate_exit_codes_and_finite_csv(self, model, total, ratios, lam, nu, L, signal):
        code, stdout = run_in_process(
            "simulate", "--model", model, f"--total={total}", "--ratios", ratios,
            f"--lambda={lam!r}", f"--nu={nu!r}", f"--L={L!r}", "--signal", signal,
            "--replicates", "1", "--jobs", "1", "--steps", "1", "--mc-samples", "10000",
        )
        assert code in (0, 2, 3)
        if code == 0:
            for row in list(csv.reader(io.StringIO(stdout)))[1:]:
                for cell in row:
                    try:
                        value = float(cell)
                    except ValueError:  # text columns and empty cells
                        continue
                    assert math.isfinite(value), row

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
