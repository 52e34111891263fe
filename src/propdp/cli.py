"""Command-line front end: four subcommands with bit-stable CSV/JSON output.

``theory`` and ``simulate`` take one flag per ExperimentConfig field, with
its default (``--L`` is 10 in both); ``theory --kappa K`` is shorthand for
``--signal gaussian:K``, not to be given with it; ``--jobs`` is capped.
Exit codes: 0 on success (per-point solver failures are data, not errors),
2 on usage/config problems (a closed stdout among them), 3 on internal
numeric failures.  PROPDP_SEED overrides the master seed everywhere; in
``figure`` it and ``--replicates`` reach every run, theory curve and
simulation sweep alike.  A command's output files are published together,
with a run-manifest sidecar recording the tool version, a digest of the
canonicalized configuration (every run of a figure), the master seed,
timestamps, and output paths and digests; output files contain no
timestamps, so identical (config, seed, version) triples reproduce identical
file digests.  Each file streams into ``<path>.partial``, and all of them
move into place only once the command's last file is complete: a failed
command publishes nothing and leaves earlier files alone, and a path that
cannot be written is a config error.  Output to stdout still streams, so a
command that fails partway may have printed part of its rows.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import dataclasses
import hashlib
import io
import json
import logging
import math
import os
import sys
import time

import numpy as np

from . import __version__, figures, harness, models
from . import privacy as privacy_mod
from .errors import ConfigError, NumericError, failure_fields
from .laws import parse_law  # noqa: F401 -- unused here, but the benchmark's tracer wraps it


# --- formatting and output ----------------------------------------------------


def _fmt(value) -> str:
    """Round-trip cell formatting: shortest decimal that re-parses bitwise;
    a non-finite number, which strict CSV readers reject, is a NumericError."""
    if isinstance(value, (float, np.floating)):  # first: most cells are floats
        if not math.isfinite(value):
            raise NumericError(f"non-finite number in the output: {value!r}")
        return repr(float(value))
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _line(values) -> str:
    """``values`` as one CSV line of ``_fmt`` cells, quoted as csv.writer quotes."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([_fmt(value) for value in values])
    return buffer.getvalue()


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _write_error(path: str, exc: OSError) -> ConfigError:
    return ConfigError(f"cannot write {path}: {exc.strerror or exc}")


class _Outputs(contextlib.AbstractContextManager):
    """The files of one command, published together when the block exits.

    ``write_csv`` and ``write_json`` stream a file into ``<path>.partial``, or
    to stdout when the path is None.  A clean exit moves every file into place
    and then its manifest, at ``manifest`` or else ``<first path>.manifest.json``;
    any exit removes the partial files that are left, so a failure publishes
    nothing and keeps earlier files at the same paths.  ``head`` holds the
    manifest's fields ahead of the outputs; a command may add its own."""

    def __init__(self, config: dict, master_seed, manifest: str | None = None):
        canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
        self.head = {
            "tool_version": __version__,
            "config_hash": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
            "master_seed": master_seed,
            "started_utc": _utc_now(),
        }
        self.manifest = manifest
        self.paths: list[str] = []

    def _stream(self, path: str | None, emit) -> None:
        if path is None:
            try:
                emit(sys.stdout)
                sys.stdout.flush()
            except OSError as exc:  # a closed pipe, say: the flush at exit goes to devnull
                with contextlib.suppress(OSError, ValueError):
                    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                raise _write_error("stdout", exc) from None
            return
        if os.path.abspath(path) in map(os.path.abspath, self.paths):
            raise ConfigError(f"cannot write {path}: it is already an output of this command")
        if os.path.isdir(path):  # found now, not when the files before it are in place
            raise ConfigError(f"cannot write {path}: it is a directory")
        self.paths.append(path)
        try:
            with open(path + ".partial", "w", encoding="utf-8", newline="") as fh:
                emit(fh)
        except OSError as exc:
            raise _write_error(path, exc) from None

    def write_csv(self, path: str | None, header, lines) -> None:
        """One header line, then ``lines`` (``_line``'s text) as they come."""

        def emit(fh):
            fh.write(_line(header))
            fh.writelines(lines)

        self._stream(path, emit)

    def write_json(self, path: str | None, payload) -> None:
        try:
            text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError as exc:  # nan or inf: strict JSON has no spelling for them
            raise NumericError(f"non-finite number in the output: {exc}") from None
        self._stream(path, lambda fh: fh.write(text))

    def __exit__(self, kind, exc, traceback):
        try:
            if kind is None and self.paths:
                outputs = [os.path.abspath(path) for path in self.paths]
                digests = {}
                for output, path in zip(outputs, self.paths):
                    digest = hashlib.sha256()
                    with open(path + ".partial", "rb") as fh:  # 1 MiB at a time
                        for chunk in iter(lambda: fh.read(1 << 20), b""):
                            digest.update(chunk)
                    digests[output] = digest.hexdigest()
                self.write_json(self.manifest or self.paths[0] + ".manifest.json", {
                    **self.head, "finished_utc": _utc_now(),
                    "output_paths": outputs, "output_digests": digests,
                })
                for path in self.paths:  # the manifest, last in the list, goes last
                    try:
                        os.replace(path + ".partial", path)
                    except OSError as exc:
                        raise _write_error(path, exc) from None
        finally:
            for path in self.paths:
                with contextlib.suppress(OSError):
                    os.remove(path + ".partial")


def _env_seed() -> int | None:
    """The master seed that PROPDP_SEED sets, or None when it is not set."""
    text = os.environ.get("PROPDP_SEED")
    if text is None:
        return None
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"PROPDP_SEED must be an integer, got {text!r}") from None


# --- theory ------------------------------------------------------------------


def finite(text: str) -> float:
    """Float argument type: rejects nan and +/-inf along with non-numbers."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def float_list(text: str) -> tuple[float, ...]:
    """Argument type for one or more comma-separated finite numbers."""
    try:
        values = tuple(finite(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        values = ()
    if not values:
        raise argparse.ArgumentTypeError(f"want comma-separated finite numbers, got {text!r}")
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
        theory = spec.solve(config, delta, seed=config.seed, check=True)
    except NumericError as exc:
        return {"inputs": inputs, **failure_fields(exc)}
    return {"inputs": inputs, "solution": theory.solution, "predictions": theory.predictions}


def cmd_theory(args) -> int:
    """Solve the asymptotic system at each grid point; JSON to stdout/--out."""
    if any(delta <= 0 for delta in args.delta):
        raise ConfigError("--delta values must be > 0")
    if args.kappa is not None:
        if args.kappa <= 0:
            raise ConfigError("--kappa must be > 0")
        if args.signal is not None:
            raise ConfigError("--kappa is shorthand for --signal gaussian:KAPPA: give one of them")
        args.signal = f"gaussian:{args.kappa}"
    config = _load_config(args)
    results = [_theory_point(config, delta) for delta in args.delta]
    settings = {"command": "theory", "delta": args.delta, **dataclasses.asdict(config)}
    with _Outputs(settings, config.seed) as outputs:
        outputs.write_json(args.out, results)
    return 0


# --- simulate -----------------------------------------------------------------

SIMULATE_HEADER = (
    "model", "design", "n", "d", "delta", "lambda", "nu", "L", "kappa",
    "sigma_eps", "replicate", "seed", "metric", "empirical", "theory",
    "fit_iterations", "grad_norm",
)
_POINT_COLUMNS = SIMULATE_HEADER[:SIMULATE_HEADER.index("replicate")]  # a point's shared cells
SUMMARY_HEADER = (  # the figure column is only in a figure's summary
    "figure", "model", "design", "n", "d", "delta", "lambda", "nu", "L",
    "kappa", "metric", "replicates", "empirical_mean", "empirical_stderr",
    "theory", "z_score",
)

def _simulate_lines(config: harness.ExperimentConfig, points):
    """A sweep's SIMULATE_HEADER lines, a replicate's in one string, as points
    arrive.  A point's text cells go through ``_line`` once; a line joins them
    with its replicate's numbers, which need no quotes, in one f-string."""
    echo = harness.settings_echo(config)
    for point in points:
        cells = {**echo, "n": point.n, "d": point.d, "delta": point.d / point.n}
        prefix = _line([cells[key] for key in _POINT_COLUMNS])[:-1]
        metrics = [(metric, _line([metric])[:-1], _fmt((point.theory or {}).get(metric)))
                   for metric in sorted(point.replicates[0][1])]
        for replicate, (seed, values, iterations, grad_norm) in enumerate(point.replicates):
            head = f"{prefix},{replicate},{_fmt(seed)},"  # metric, empirical, theory next
            tail = f",{_fmt(iterations)},{_fmt(grad_norm)}\n"
            yield "".join(f"{head}{label},{_fmt(values[metric])},{theory_cell}{tail}"
                          for metric, label, theory_cell in metrics)
        del point  # before the next point is made


def _points(config: harness.ExperimentConfig, jobs: int, failures: list, summary=None, **tag):
    """A sweep's points as they arrive, none kept.  Each failed theory solve
    goes into ``failures``, with ``tag``'s keys, and each point's summary rows
    into ``summary`` when it is a list."""
    for point in harness.run_experiment(config, jobs=jobs):
        if summary is not None:
            summary.extend(harness.summarize([point]))  # per point: a timer sees the reduction
        if point.theory_error is not None:
            failures.append({**tag, "grid_index": point.index, "n": point.n, "d": point.d,
                             **point.theory_error})
        yield point
        del point  # before the next point is made


def cmd_simulate(args) -> int:
    """Run a replicated sweep and emit one CSV row per (replicate, metric), a
    grid point's rows as it arrives; only the points' summary rows are kept.
    The manifest lists the grid points whose theory solve failed."""
    config = _load_config(args)
    summary = [] if args.summary is not None else None
    with _Outputs({"command": "simulate", **dataclasses.asdict(config)}, config.seed) as outputs:
        outputs.head["theory_failures"] = failures = []  # filled as the points arrive
        points = _points(config, args.jobs, failures, summary)
        outputs.write_csv(args.out, SIMULATE_HEADER, _simulate_lines(config, points))
        if summary is not None:
            header = SUMMARY_HEADER[1:]
            summary.sort(key=lambda row: (row["n"], row["d"]))  # summarize's order, over the sweep
            rows = (_line([row[key] for key in header]) for row in summary)
            outputs.write_csv(args.summary, header, rows)
    return 0


# --- privacy ------------------------------------------------------------------


def cmd_privacy(args) -> int:
    """Evaluate the closed-form accountant for one mechanism; JSON output."""
    glm = privacy_mod.GlmSensitivity(args.L, args.s, args.R)
    if args.alphas is not None and any(a <= 1.0 for a in args.alphas):
        raise ConfigError("--alphas must all be > 1")
    report = privacy_mod.build_report(
        args.mechanism, glm,
        lam=args.lam, nu=args.nu, T=args.T, epsilon=args.epsilon, alphas=args.alphas,
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
    with _Outputs({"command": "privacy", **payload["inputs"]}, None) as outputs:
        outputs.write_json(args.out, payload)
    return 0


# --- figure -------------------------------------------------------------------

THEORY_HEADER = ("figure", "label", "ratio", "delta", "nu", "metric", "value")


def cmd_figure(args) -> int:
    """Write a figure's dense theory curves and, when it simulates, its dots."""
    spec = figures.get_figure(args.name)
    changes = {"replicates": args.replicates, "seed": _env_seed()}
    changes = {name: value for name, value in changes.items() if value is not None}
    if changes:
        spec = dataclasses.replace(spec, runs=tuple(
            (label, dataclasses.replace(config, **changes)) for label, config in spec.runs
        ))
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create {args.out}: {exc.strerror or exc}") from None

    def path(suffix: str) -> str:
        return os.path.join(args.out, f"{spec.name}_{suffix}")

    runs = [{"label": label, **dataclasses.asdict(config)} for label, config in spec.runs]
    settings = {"command": "figure", "figure": spec.name, "runs": runs}
    with _Outputs(settings, spec.runs[0][1].seed, path("manifest.json")) as outputs:
        outputs.head["theory_failures"] = failures = []
        rows = (_line([row[key] for key in THEORY_HEADER]) for row in spec.theory_rows(failures))
        outputs.write_csv(path("theory.csv"), THEORY_HEADER, rows)
        if spec.simulate:  # the sweeps' failed points follow the curves'
            rows = (
                _line([spec.name, *(row[key] for key in SUMMARY_HEADER[1:])])
                for label, config in spec.runs
                for row in harness.summarize(_points(config, args.jobs, failures, label=label))
            )
            outputs.write_csv(path("simulation.csv"), SUMMARY_HEADER, rows)
    return 0


# --- parser and a model run's settings ----------------------------------------


_FIELDS = dataclasses.fields(harness.ExperimentConfig)
_FLAG_TYPES = {"str": str, "int": int, "float": finite, "float | None": finite,
               "tuple[float, ...]": float_list}
_FLAG_CHOICES = {"model": models.SPECS, "design": harness.DESIGNS}


def _add_config_flags(parser, skip=()) -> None:
    """One flag per ExperimentConfig field, typed from its annotation: ``--L``,
    ``--step-size``, ``--lambda`` for ``lam``.  Each defaults to None, so the
    config's own default holds; ``grid`` is set only in a config file."""
    for field in _FIELDS:
        if field.name in (*skip, "grid"):
            continue
        flag = "--lambda" if field.name == "lam" else "--" + field.name.replace("_", "-")
        parser.add_argument(
            flag, dest=field.name, type=_FLAG_TYPES[field.type], default=None,
            choices=_FLAG_CHOICES.get(field.name),
            help=None if field.default is dataclasses.MISSING else f"default {field.default}",
        )


def _load_config(args) -> harness.ExperimentConfig:
    """The model run that ``args`` describes: the config file's fields, if the
    command takes one, then the flags that were given, then PROPDP_SEED; every
    field left unset keeps ExperimentConfig's default."""
    payload: dict = {}
    if getattr(args, "config", None) is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(payload) - {field.name for field in _FIELDS}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    flags = {field.name: getattr(args, field.name, None) for field in _FIELDS}
    payload.update({name: value for name, value in flags.items() if value is not None})
    if "model" not in payload:
        raise ConfigError(f"{args.command} needs --model")
    seed = _env_seed()
    if seed is not None:
        payload["seed"] = seed
    return harness.ExperimentConfig(**payload)


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
    _add_config_flags(theory, skip=("design", "total", "ratios", "replicates"))  # no sweep
    theory.add_argument("--delta", type=float_list, required=True, help="comma-separated d/n")
    theory.add_argument("--kappa", type=finite, help="shorthand for --signal gaussian:KAPPA")
    theory.add_argument("--out", default=None)
    theory.set_defaults(func=cmd_theory)

    simulate = sub.add_parser("simulate", help="run a seeded replicated sweep")
    simulate.add_argument("--config", default=None, help="JSON config file")
    _add_config_flags(simulate)
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
    privacy.add_argument("--alphas", type=float_list, help="comma-separated RDP orders")
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


# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _set_allocator_thresholds() -> None:
    """Serve blocks of up to 32 MiB from the heap, and keep up to 64 MiB of
    free heap top, instead of mapping each large block afresh.  Under
    glibc's defaults the solvers' temporaries above 128 kB are mapped,
    unmapped and faulted in again on every call: a bench fit_wide cycle
    took 131k minor page faults and 0.2-0.3 s of system time, against 20
    faults with these thresholds.  A no-op where there is no mallopt; pool
    workers forked from this process inherit the setting."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


@contextlib.contextmanager
def _warnings_to_stderr():
    """Show the package's WARNING records on stderr while a command runs; the
    handler goes again on return, so repeated in-process calls add none."""
    handler = logging.StreamHandler(sys.stderr)
    handler.setLevel(logging.WARNING)
    handler.setFormatter(logging.Formatter("propdp: %(levelname)s: %(message)s"))
    package = logging.getLogger("propdp")
    package.addHandler(handler)
    try:
        yield
    finally:
        package.removeHandler(handler)


def main(argv=None) -> int:
    _set_allocator_thresholds()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _warnings_to_stderr():
            return args.func(args)
    except ConfigError as exc:
        print(f"propdp: config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"propdp: numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
