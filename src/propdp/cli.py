"""Command-line front end: four subcommands with bit-stable CSV/JSON output.

Exit codes: 0 on success (per-point solver failures are data, not errors),
2 on usage/config problems, 3 on internal numeric failures.  The env var
PROPDP_SEED overrides the master seed everywhere.  Every file written is
accompanied by a run-manifest sidecar recording the tool version, a digest
of the canonicalized configuration, the master seed, timestamps, and output
paths; output files themselves contain no timestamps, so identical
(config, seed, version) triples reproduce identical file digests.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, figures, harness, models
from . import privacy as privacy_mod
from .errors import ConfigError, NumericError
from .laws import parse_law  # noqa: F401 -- unused here, but the benchmark's tracer wraps it


# --- formatting and manifest helpers ----------------------------------------


def _fmt(value) -> str:
    """Round-trip cell formatting: shortest decimal that re-parses bitwise;
    a non-finite number, which strict CSV readers reject, is a NumericError."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise NumericError(f"non-finite number in the output: {value!r}")
        return repr(float(value))
    return str(value)


def config_hash(config: dict) -> str:
    """Digest of the canonicalized (sorted-key, compact) config text."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


class _ManifestWriter:
    def __init__(self, config: dict, master_seed):
        self.started = _utc_now()
        self.config_hash = config_hash(config)
        self.master_seed = master_seed
        self.outputs: list[str] = []

    def add(self, path: str) -> None:
        self.outputs.append(os.path.abspath(path))

    def as_dict(self) -> dict:
        return {
            "tool_version": __version__,
            "config_hash": self.config_hash,
            "master_seed": self.master_seed,
            "started_utc": self.started,
            "finished_utc": _utc_now(),
            "output_paths": self.outputs,
            "output_digests": {
                path: hashlib.sha256(open(path, "rb").read()).hexdigest()
                for path in self.outputs
            },
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _write_json(payload, out_path: str | None, manifest: _ManifestWriter):
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:  # nan or inf: strict JSON has no spelling for them
        raise NumericError(f"non-finite number in the output: {exc}") from None
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    manifest.add(out_path)
    manifest.write(out_path + ".manifest.json")


def _write_csv(header, rows, out_path: str | None, manifest: _ManifestWriter):
    def emit(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])

    if out_path is None:
        emit(sys.stdout)
        return
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        emit(fh)
    manifest.add(out_path)


def _master_seed(args) -> int:
    env = os.environ.get("PROPDP_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"PROPDP_SEED must be an integer, got {env!r}") from None
    return int(getattr(args, "seed", 0) or 0)


# --- theory ------------------------------------------------------------------


def finite(text: str) -> float:
    """Float argument type: rejects nan and +/-inf along with non-numbers."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [finite(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"{flag}: want comma-separated finite numbers, got {text!r}") from None
    if not values:
        raise ConfigError(f"{flag}: empty list")
    return values


def _theory_point(config: harness.ExperimentConfig, delta: float) -> dict:
    spec = models.get(config.model)
    inputs = {
        "model": config.model,
        "delta": delta,
        "lambda": config.lam,
        "nu": config.nu,
        "L": config.L,
        "kappa": config.signal_law.root_second_moment,
        "signal": config.signal,
        "noise": config.noise,
        **spec.trace_inputs(config, delta),
    }
    try:
        theory = spec.solve(config, delta, seed=lambda: config.seed)
    except NumericError as exc:
        return {"inputs": inputs, "error": f"{type(exc).__name__}: {exc}"}
    return {"inputs": inputs, "solution": theory.solution, "predictions": theory.predictions}


def cmd_theory(args) -> int:
    """Solve the asymptotic system at each grid point; JSON to stdout/--out."""
    args.deltas = _parse_float_list(args.delta, "--delta")
    if any(delta <= 0 for delta in args.deltas):
        raise ConfigError("--delta values must be > 0")
    if args.kappa <= 0:
        raise ConfigError("--kappa must be > 0")
    config = harness.ExperimentConfig(
        model=args.model, signal=args.signal or f"gaussian:{args.kappa}", noise=args.noise,
        L=args.L, lam=args.lam, nu=args.nu, step_size=args.step_size, steps=args.steps,
        mc_samples=args.mc_samples, seed=_master_seed(args),
    )
    results = [_theory_point(config, delta) for delta in args.deltas]
    manifest = _ManifestWriter(
        {"command": "theory", **{k: v for k, v in vars(args).items() if k != "func"}},
        config.seed,
    )
    _write_json(results, args.out, manifest)
    return 0


# --- simulate -----------------------------------------------------------------

SIMULATE_HEADER = (
    "model", "design", "n", "d", "delta", "lambda", "nu", "L", "kappa",
    "sigma_eps", "replicate", "seed", "metric", "empirical", "theory",
    "fit_iterations", "grad_norm",
)

_CONFIG_FIELDS = {field.name for field in dataclasses.fields(harness.ExperimentConfig)}


def _load_simulate_config(args) -> harness.ExperimentConfig:
    payload: dict = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        unknown = set(payload) - _CONFIG_FIELDS
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    # the flags share the config's field names; --ratios is parsed below
    overrides = {name: getattr(args, name, None) for name in _CONFIG_FIELDS - {"ratios"}}
    payload.update({k: v for k, v in overrides.items() if v is not None})
    if "ratios" in payload and payload["ratios"] is not None:
        payload["ratios"] = tuple(float(r) for r in payload["ratios"])
    if args.ratios is not None:
        payload["ratios"] = tuple(_parse_float_list(args.ratios, "--ratios"))
    if "grid" in payload and payload["grid"] is not None:
        payload["grid"] = tuple((int(n), int(d)) for n, d in payload["grid"])
    if "model" not in payload:
        raise ConfigError("simulate needs --model or a config file with one")
    if os.environ.get("PROPDP_SEED") is not None:
        payload["seed"] = _master_seed(args)
    try:
        return harness.ExperimentConfig(**payload)
    except TypeError as exc:
        raise ConfigError(f"bad config: {exc}") from None


def _simulate_rows(records):
    for record in records:
        for metric in sorted(record.empirical):
            theory = None
            if record.theory is not None and metric in record.theory:
                theory = record.theory[metric]
            yield (
                record.model, record.design, record.n, record.d, record.delta,
                record.lam, record.nu, record.L, record.kappa, record.sigma_eps,
                record.replicate, record.seed, metric,
                record.empirical[metric], theory,
                record.fit_iterations, record.grad_norm,
            )


def cmd_simulate(args) -> int:
    """Run a replicated sweep and emit one CSV row per (replicate, metric)."""
    config = _load_simulate_config(args)
    manifest = _ManifestWriter(
        {"command": "simulate", **dataclasses.asdict(config)}, config.seed
    )
    records = harness.run_experiment(config, jobs=args.jobs)
    _write_csv(SIMULATE_HEADER, _simulate_rows(records), args.out, manifest)
    if args.summary is not None:
        rows = harness.summarize(records)
        header = list(rows[0])
        _write_csv(header, ([row[k] for k in header] for row in rows), args.summary, manifest)
    if manifest.outputs:
        manifest.write((args.out or args.summary) + ".manifest.json")
    return 0


# --- privacy ------------------------------------------------------------------


def cmd_privacy(args) -> int:
    """Evaluate the closed-form accountant for one mechanism; JSON output."""
    glm = privacy_mod.GlmSensitivity(args.L, args.s, args.R)
    alphas = None
    if args.alphas is not None:
        alphas = tuple(_parse_float_list(args.alphas, "--alphas"))
        if any(a <= 1.0 for a in alphas):
            raise ConfigError("--alphas must all be > 1")
    report = privacy_mod.build_report(
        args.mechanism, glm,
        lam=args.lam, nu=args.nu, T=args.T, epsilon=args.epsilon, alphas=alphas,
    )
    payload = {
        "mechanism": report.mechanism,
        "inputs": {
            "L": args.L, "s": args.s, "R": args.R, "lambda": args.lam,
            "nu": args.nu, "T": args.T,
        },
        "epsilon": report.epsilon,
        "delta": report.delta,
        "zcdp_rho": report.zcdp_rho,
        "rdp_curve": [[alpha, eps] for alpha, eps in report.rdp_curve],
    }
    manifest = _ManifestWriter({"command": "privacy", **payload["inputs"]}, None)
    _write_json(payload, args.out, manifest)
    return 0


# --- figure -------------------------------------------------------------------

THEORY_HEADER = ("figure", "label", "ratio", "delta", "nu", "metric", "value")
SUMMARY_HEADER = (
    "figure", "model", "design", "n", "d", "delta", "lambda", "nu", "L",
    "kappa", "metric", "replicates", "empirical_mean", "empirical_stderr",
    "theory", "z_score",
)


def cmd_figure(args) -> int:
    """Write a figure's dense theory curves and (when present) simulation dots."""
    spec = figures.get_figure(args.name)
    configs = list(spec.configs)
    if args.replicates is not None:
        configs = [dataclasses.replace(c, replicates=args.replicates) for c in configs]
    if os.environ.get("PROPDP_SEED") is not None:
        seed = _master_seed(args)
        configs = [dataclasses.replace(c, seed=seed) for c in configs]

    manifest = _ManifestWriter(
        {
            "command": "figure",
            "figure": spec.name,
            "configs": [dataclasses.asdict(c) for c in configs],
        },
        configs[0].seed if configs else None,
    )
    os.makedirs(args.out, exist_ok=True)

    theory_rows = spec.theory_rows()
    theory_path = os.path.join(args.out, f"{spec.name}_theory.csv")
    _write_csv(
        THEORY_HEADER,
        ([row[k] for k in THEORY_HEADER] for row in theory_rows),
        theory_path,
        manifest,
    )

    if configs:
        summary_rows = []
        for config in configs:
            records = harness.run_experiment(config, jobs=args.jobs)
            for row in harness.summarize(records):
                summary_rows.append({"figure": spec.name, **row})
        sim_path = os.path.join(args.out, f"{spec.name}_simulation.csv")
        _write_csv(
            SUMMARY_HEADER,
            ([row[k] for k in SUMMARY_HEADER] for row in summary_rows),
            sim_path,
            manifest,
        )

    manifest.write(os.path.join(args.out, f"{spec.name}_manifest.json"))
    return 0


# --- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="propdp",
        description=(
            "Differentially private robust and logistic regression in the "
            "proportional regime: asymptotic theory, privacy accounting, and "
            "seeded simulations."
        ),
    )
    parser.add_argument("--version", action="version", version=f"propdp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    theory = sub.add_parser("theory", help="solve the asymptotic fixed-point systems")
    theory.add_argument("--model", required=True, choices=models.SPECS)
    theory.add_argument("--delta", required=True, help="comma-separated d/n ratios")
    theory.add_argument("--lambda", dest="lam", type=finite, default=1.0)
    theory.add_argument("--nu", type=finite, default=0.0)
    theory.add_argument("--L", type=finite, default=1.0)
    theory.add_argument("--kappa", type=finite, default=1.0)
    theory.add_argument("--signal", default=None, help="signal law, e.g. gaussian:1")
    theory.add_argument("--noise", default="gaussian:0.2")
    theory.add_argument("--steps", type=int, default=3)
    theory.add_argument("--step-size", dest="step_size", type=finite, default=None)
    theory.add_argument("--mc-samples", dest="mc_samples", type=int, default=100_000)
    theory.add_argument("--seed", type=int, default=0)
    theory.add_argument("--out", default=None)
    theory.set_defaults(func=cmd_theory)

    simulate = sub.add_parser("simulate", help="run a seeded replicated sweep")
    simulate.add_argument("--config", default=None, help="JSON config file")
    simulate.add_argument("--model", default=None, choices=models.SPECS)
    simulate.add_argument("--design", default=None, choices=harness.DESIGNS)
    simulate.add_argument("--total", type=int, default=None, help="n*d product")
    simulate.add_argument("--ratios", default=None, help="comma-separated n/(n+d)")
    simulate.add_argument("--signal", default=None)
    simulate.add_argument("--noise", default=None)
    simulate.add_argument("--L", type=finite, default=None)
    simulate.add_argument("--lambda", dest="lam", type=finite, default=None)
    simulate.add_argument("--nu", type=finite, default=None)
    simulate.add_argument("--step-size", dest="step_size", type=finite, default=None)
    simulate.add_argument("--steps", type=int, default=None)
    simulate.add_argument("--replicates", type=int, default=None)
    simulate.add_argument("--mc-samples", dest="mc_samples", type=int, default=None)
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    simulate.add_argument("--out", default=None, help="CSV path (default stdout)")
    simulate.add_argument("--summary", default=None, help="optional summary CSV path")
    simulate.set_defaults(func=cmd_simulate)

    privacy = sub.add_parser("privacy", help="closed-form privacy accounting")
    privacy.add_argument("mechanism", choices=("objective", "output", "dpsgd"))
    privacy.add_argument("--L", type=finite, default=1.0, help="loss Lipschitz bound")
    privacy.add_argument("--s", type=finite, default=1.0, help="loss smoothness bound")
    privacy.add_argument("--R", type=finite, default=1.0, help="feature-norm bound")
    privacy.add_argument("--lambda", dest="lam", type=finite, default=None)
    privacy.add_argument("--nu", type=finite, required=True)
    privacy.add_argument("--T", type=int, default=None)
    privacy.add_argument("--epsilon", type=finite, default=1.0)
    privacy.add_argument("--alphas", default=None, help="comma-separated RDP orders")
    privacy.add_argument("--out", default=None)
    privacy.set_defaults(func=cmd_privacy)

    figure = sub.add_parser("figure", help="reproduce a stored figure's data")
    figure.add_argument("--name", required=True, choices=figures.FIGURE_NAMES)
    figure.add_argument("--out", required=True, help="output directory")
    figure.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    figure.add_argument(
        "--replicates", type=int, default=None,
        help="override stored replicate counts (smoke testing)",
    )
    figure.set_defaults(func=cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"propdp: config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"propdp: numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
