#!/usr/bin/env python3
"""propdp benchmark: four CLI workloads run in-process through propdp.cli.main.

Run from the repository root:

    python3 bench/run.py --workload fit_sweep --seed 3 --seconds 10 --trace 0

One client drives the CLI in a closed loop: each command starts only after
the previous one returns, and whole cycles of a workload's commands repeat
until ``--seconds`` have passed (at least one cycle).  Each command writes
its CSVs under ``.bench_work/``; the outputs are checked against reference
values stored from the seed commit (``bench/reference``), and repeated
cycles must write byte-identical CSVs.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs one untraced cycle at --jobs 1 (gd_sweep first also runs its normal
--jobs 2 cycle), then one cycle with the layer wrappers of ``tracing.py``
installed, and prints the per-layer metrics; ``trace.overhead_s`` is the
traced cycle's wall time minus the untraced --jobs 1 cycle's.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
record the environment and, for traced runs, the self-time breakdown.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference"
WORK = ROOT / ".bench_work"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The sweeps' master seeds are base + 1000 * (seed mod SEED_VARIANTS); the
# reference file stores the expected outputs of every variant.
SEED_VARIANTS = 10
SETUP_REPEATS = 4  # before the cycles, and again after them
REL_TOL = 1e-6
ABS_TOL = 1e-12

RATIOS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
WIDE_GRID = [[300, 300], [100, 900], [900, 100]]
SIM_COMMON = {
    "design": "rademacher", "total": 1000, "signal": "gaussian:1",
    "noise": "gaussian:0.2", "L": 10.0, "lam": 1.0,
}

# workload -> (default --jobs, simulate configs with their base seeds);
# theory_curves is the fig2 figure command and takes no configs.
SWEEPS = {
    "fit_sweep": (1, [
        {"model": "huber_objective", "nu": 0.2, "ratios": RATIOS, "replicates": 60, "seed": 101},
        {"model": "logistic_output", "nu": 0.5, "ratios": RATIOS, "replicates": 60, "seed": 105},
    ]),
    "gd_sweep": (2, [
        {"model": model, "nu": 0.1, "steps": 3, "mc_samples": 100_000, "ratios": RATIOS,
         "replicates": 1000, "seed": 106}
        for model in ("huber_dpsgd_ce", "logistic_dpsgd_ce")
    ]),
    "fit_wide": (1, [
        {"model": "huber_objective", "nu": 0.2, "grid": WIDE_GRID, "replicates": 60, "seed": 101},
        {"model": "logistic_objective", "nu": 0.2, "grid": WIDE_GRID, "replicates": 60, "seed": 104},
    ]),
}
WORKLOADS = ("theory_curves", *SWEEPS)
FIG2_POINTS = 8 * 41  # fig2: 8 calibrated curves over the 41 dense sample fractions


# --- commands -----------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One CLI call with the files it writes and the reference they must match."""

    argv: tuple
    csv_paths: tuple  # files whose digests must repeat across cycles
    check: Callable  # (expected rows) -> (failed units, problems, parsed rows)
    units: int


def _theory_command() -> Command:
    out = WORK / "theory_curves"
    theory_csv = out / "fig2_theory.csv"

    def check(expected: dict):
        rows = {}
        with open(theory_csv, newline="") as fh:
            for row in csv.DictReader(fh):
                key = f"{row['label']}@{float(row['ratio'])!r}:{row['metric']}"
                rows[key] = float(row["value"])
        problems = [f"unexpected point {k}" for k in rows if k not in expected]
        problems += [
            f"{k}: {rows[k]!r} != {v!r}"
            for k, v in expected.items()
            if k in rows and not _close(rows[k], v)
        ]
        missing = sum(1 for k in expected if k not in rows)
        return missing, problems, rows

    argv = ("figure", "--name", "fig2", "--out", str(out), "--jobs", "1")
    return Command(argv, (str(theory_csv),), check, FIG2_POINTS)


def _simulate_command(workload: str, index: int, config: dict, jobs: int) -> Command:
    out = WORK / workload
    stem = f"{index}_{config['model']}"
    config_path = out / f"{stem}.json"
    out.mkdir(parents=True, exist_ok=True)
    config_path.write_text(json.dumps({**SIM_COMMON, **config}, indent=1, sort_keys=True))
    replicate_csv, summary_csv = out / f"{stem}.csv", out / f"{stem}_summary.csv"
    points = len(config.get("grid") or config["ratios"])

    def check(expected: dict):
        rows, theory_cells = {}, {}
        with open(summary_csv, newline="") as fh:
            for row in csv.DictReader(fh):
                point = f"{row['n']}x{row['d']}"
                theory = float(row["theory"]) if row["theory"] else None
                rows[f"{point}:{row['metric']}"] = [
                    float(row["empirical_mean"]), theory, int(row["replicates"])
                ]
                theory_cells.setdefault(point, []).append(theory)
        failed_points = [p for p, cells in theory_cells.items() if all(c is None for c in cells)]
        problems = [f"unexpected row {k}" for k in rows if k not in expected]
        problems += [f"missing row {k}" for k in expected if k not in rows]
        for key, (mean, theory, count) in expected.items():
            if key not in rows:
                continue
            got_mean, got_theory, got_count = rows[key]
            if got_count != count or not _close(got_mean, mean):
                problems.append(f"{key}: mean {got_mean!r} over {got_count} != {mean!r} over {count}")
            if key.split(":")[0] in failed_points:
                continue
            if (got_theory is None) != (theory is None) or (
                theory is not None and not _close(got_theory, theory)
            ):
                problems.append(f"{key}: theory {got_theory!r} != {theory!r}")
        return len(failed_points) * config["replicates"], problems, rows

    argv = (
        "simulate", "--config", str(config_path), "--jobs", str(jobs),
        "--out", str(replicate_csv), "--summary", str(summary_csv),
    )
    return Command(argv, (str(replicate_csv), str(summary_csv)), check,
                   points * config["replicates"])


def variant_of(seed: int) -> int:
    return seed % SEED_VARIANTS


def build_commands(workload: str, variant: int, jobs: int | None = None) -> list[Command]:
    """The workload's commands for one seed variant; jobs=None keeps the default."""
    if workload == "theory_curves":
        (WORK / "theory_curves").mkdir(parents=True, exist_ok=True)
        return [_theory_command()]
    default_jobs, configs = SWEEPS[workload]
    return [
        _simulate_command(
            workload, index, {**config, "seed": config["seed"] + 1000 * variant},
            default_jobs if jobs is None else jobs,
        )
        for index, config in enumerate(configs)
    ]


def expected_outputs(workload: str, variant: int) -> list[dict]:
    with open(REFERENCE / f"{workload}.json") as fh:
        reference = json.load(fh)
    if workload == "theory_curves":
        return [reference["fig2"]]
    return reference[str(variant)]


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)


# --- one cycle ------------------------------------------------------------------


@dataclass
class Cycle:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: list = field(default_factory=list)  # one tuple per command
    outputs: list = field(default_factory=list)  # parsed rows per command


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _rule_caches() -> list:
    """The quadrature module's cached rule functions."""
    from propdp import quadrature

    return [v for v in vars(quadrature).values() if hasattr(v, "cache_info")]


def run_cycle(commands: list[Command], expected: list[dict] | None) -> Cycle:
    """Run each command once, then check its outputs (expected=None: no check)."""
    from propdp import cli

    cycle = Cycle()
    codes = []
    for cache in _rule_caches():  # each cycle builds its rules, as a fresh CLI call does
        cache.cache_clear()
    for command in commands:
        wall, cpu = time.perf_counter(), _cpu_seconds()
        try:
            code = cli.main(list(command.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an uncaught error is a failed command, not a crash
            traceback.print_exc(file=sys.stderr)
            code = "exception"
        cycle.wall_s += time.perf_counter() - wall
        cycle.cpu_s += _cpu_seconds() - cpu
        codes.append(code)
    for index, (command, code) in enumerate(zip(commands, codes)):
        cycle.attempted += command.units
        if code != 0:
            cycle.failed += command.units
            cycle.problems.append(f"{command.argv[0]} #{index} exited {code}")
            cycle.digests.append(None)
            cycle.outputs.append(None)
            continue
        cycle.digests.append(tuple(_digest(p) for p in command.csv_paths))
        failed, problems, rows = command.check(expected[index] if expected else {})
        cycle.outputs.append(rows)
        if expected is not None and problems:  # a wrong answer fails every unit
            cycle.problems += problems
            failed = command.units
        cycle.failed += failed
    return cycle


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def repeat_problems(cycles: list[Cycle]) -> list[str]:
    """Every command must write the same bytes in every cycle (any --jobs)."""
    problems = []
    for index in range(len(cycles[0].digests)):
        seen = {c.digests[index] for c in cycles}
        if len(seen) > 1:
            problems.append(f"command #{index}: outputs differ across cycles")
    return problems


# --- set-up, environment, metrics ---------------------------------------------------


def _pin_threads() -> None:
    for name in THREAD_VARS:
        os.environ[name] = "1"


def setup_seconds() -> list[float]:
    """Wall time of a fresh interpreter importing propdp.cli, repeated."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import propdp.cli"], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def _loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "propdp").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        deps = module.show_config(mode="dicts").get("Build Dependencies", {})
        info = deps.get("blas", {})
        return f"{info.get('name')} {info.get('version')}"

    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "cpu_count": os.cpu_count(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def end_to_end(cycles: list[Cycle], setup: list[float]) -> dict:
    attempted = sum(c.attempted for c in cycles)
    failed = sum(c.failed for c in cycles)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(c.wall_s for c in cycles),
        "cpu_s": statistics.median(c.cpu_s for c in cycles),
        "units_per_s": (attempted - failed) / sum(c.wall_s for c in cycles),
        "peak_rss_mb": _peak_rss_mb(),
        "success_fraction": (attempted - failed) / attempted,
    }


def traced_run(workload: str, variant: int, expected: list[dict]) -> tuple[list[Cycle], dict]:
    """Untraced cycle(s), then one traced cycle at --jobs 1; per-layer metrics."""
    import tracing

    cycles = []
    if workload in SWEEPS and SWEEPS[workload][0] != 1:  # also check the pool's output
        cycles.append(run_cycle(build_commands(workload, variant), expected))
    commands = build_commands(workload, variant, jobs=1)
    untraced = run_cycle(commands, expected)
    cycles.append(untraced)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_cycle(commands, expected)
        builds = sum(cache.cache_info().misses for cache in _rule_caches())
    finally:
        tracer.uninstall()
    cycles.append(traced)
    leftover = tracing.installed_wrappers()
    if leftover:
        raise RuntimeError(f"tracing wrappers left installed: {leftover}")
    metrics = tracer.layer_metrics()
    metrics["quadrature.rule_builds"] = builds
    metrics["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    shares = sorted(tracer.self_seconds().items(), key=lambda kv: -kv[1])
    print(json.dumps({
        "traced_wall_s": traced.wall_s,
        "spans": len(tracer.spans),
        "self_time_share": {name: s / traced.wall_s for name, s in shares},
    }))
    return cycles, metrics


def declared_units(trace_on: bool) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace_on else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "propdp" / "__init__.py").is_file():
        print(f"bench: no propdp sources under {SRC}", file=sys.stderr)
        return 2
    _pin_threads()  # before numpy is first imported, here or in a child
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import propdp.cli  # noqa: F401  (the in-process import every cycle reuses)
    import tracing

    if not Path(propdp.cli.__file__).resolve().is_relative_to(SRC):
        print(f"bench: propdp imported from {propdp.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    units = declared_units(args.trace == 1)
    loadavg_start = _loadavg()
    setup = setup_seconds()
    variant = variant_of(args.seed)
    expected = expected_outputs(args.workload, variant)

    if args.trace:
        cycles, metrics = traced_run(args.workload, variant, expected)
    else:
        commands = build_commands(args.workload, variant)
        cycles, start = [], time.perf_counter()
        while not cycles or time.perf_counter() - start < args.seconds:
            if tracing.installed_wrappers():
                raise RuntimeError("tracing wrappers installed during an untraced run")
            cycles.append(run_cycle(commands, expected))
    # CPU speed on a shared host drifts over seconds; samples on both sides
    # of the cycles keep setup_s from reading a single moment of it
    setup += setup_seconds()

    unrepeatable = repeat_problems(cycles)
    if unrepeatable:
        for cycle in cycles:
            cycle.failed = cycle.attempted
    problems = [p for c in cycles for p in c.problems] + unrepeatable
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "variant": variant,
        "trace": args.trace, "cycles": len(cycles),
        "cycle_wall_s": [c.wall_s for c in cycles],
        "setup_runs_s": setup,
        "loadavg_start": loadavg_start, "loadavg_end": _loadavg(),
        "environment": environment(),
        "problems": problems[:20],
    }))
    if not args.trace:
        metrics = end_to_end(cycles, setup)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(c.attempted for c in cycles),
        "failed": sum(c.failed for c in cycles),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
