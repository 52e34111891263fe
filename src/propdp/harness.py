"""Seeded synthetic-data experiments that pair empirical averages with the
asymptotic predictions.

A sweep fixes n*d and walks the sample-fraction grid n/(n+d); each grid point
solves the matching limit system once and runs seeded replicates of the
configured learner.  Child seeds are derived from (master seed, grid index,
replicate index) so no two cells share a random stream and reruns are
bit-identical.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import models
from .errors import ConfigError, NumericError
from .laws import ScalarLaw, parse_law
from .rng import box_muller, child_seed, stream
from .scalars import logistic_rho_prime

RATIO_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

DESIGNS = ("rademacher", "gaussian", "bounded_uniform")


def grid_from_ratios(total: int, ratios=RATIO_GRID) -> tuple[tuple[int, int], ...]:
    """(n, d) pairs with n*d ~= total along the sample-fraction sweep."""
    points = []
    for ratio in ratios:
        if not 0.0 < ratio < 1.0:
            raise ConfigError("grid_from_ratios: ratios must lie in (0, 1)")
        n_exact = math.sqrt(total * ratio / (1.0 - ratio))
        d_exact = total / n_exact
        points.append((max(2, round(n_exact)), max(2, round(d_exact))))
    return tuple(points)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one model run: the settings a simulation sweep, a
    theory point or a figure curve is solved under."""

    model: str
    design: str = "rademacher"
    total: int = 1000
    ratios: tuple[float, ...] = RATIO_GRID
    grid: tuple[tuple[int, int], ...] | None = None
    signal: str = "gaussian:1"
    noise: str = "gaussian:0.2"
    L: float = 10.0
    lam: float = 1.0
    nu: float = 0.0
    step_size: float | None = None
    steps: int = 3
    replicates: int = 100
    mc_samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        """Every setting is checked here, once; the laws are parsed here too,
        into ``signal_law`` and ``noise_law``, which are not fields, so
        ``asdict``, ``replace``, ``==`` and the config hash see only the text."""
        spec = models.get(self.model)
        if self.design not in DESIGNS:
            raise ConfigError(f"ExperimentConfig: unknown design {self.design!r}")
        if self.replicates < 1:
            raise ConfigError("ExperimentConfig: replicates must be >= 1")
        for name in ("L", "lam", "nu", "step_size"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"ExperimentConfig: {name} must be finite, got {value!r}")
        if self.nu < 0 or self.lam < 0 or self.L <= 0:
            raise ConfigError("ExperimentConfig: scales out of range")
        if self.nu > 0 and self.design == "gaussian":
            raise ConfigError(
                "ExperimentConfig: gaussian designs have unbounded rows and are "
                "theory-only; private runs (nu > 0) need rademacher or "
                "bounded_uniform"
            )
        object.__setattr__(self, "signal_law", parse_law(self.signal))
        object.__setattr__(self, "noise_law", parse_law(self.noise))
        spec.check(self)
        if self.total < 1:
            raise ConfigError("ExperimentConfig: total must be >= 1")
        points = self.grid_points()
        if not points or min(min(point) for point in points) < 1:
            raise ConfigError("ExperimentConfig: the grid needs a point, and every n, d >= 1")

    def grid_points(self) -> tuple[tuple[int, int], ...]:
        if self.grid is not None:
            return tuple((int(n), int(d)) for n, d in self.grid)
        return grid_from_ratios(self.total, self.ratios)


@dataclass(frozen=True)
class MetricRecord:
    """One replicate's empirical metrics paired with the point's predictions."""

    model: str
    design: str
    n: int
    d: int
    delta: float
    lam: float
    nu: float
    L: float
    kappa: float
    sigma_eps: str
    replicate: int
    grid_index: int
    seed: int
    empirical: dict
    theory: dict | None
    wall_time: float
    # the fit's certificate: Newton steps and final ||grad F|| (None for noisy GD)
    fit_iterations: int | None
    grad_norm: float | None


def gen_design(n: int, d: int, kind: str, seed: int) -> np.ndarray:
    """Feature matrix with independent mean-zero, variance-1/d entries."""
    gen = stream(seed, "design")
    root_d = math.sqrt(d)
    if kind == "rademacher":
        return (2.0 * gen.integers(0, 2, size=(n, d)) - 1.0) / root_d
    if kind == "gaussian":
        return box_muller(gen, n * d).reshape(n, d) / root_d
    if kind == "bounded_uniform":
        return (2.0 * gen.random((n, d)) - 1.0) * math.sqrt(3.0) / root_d
    raise ConfigError(f"gen_design: unknown design {kind!r}")


def design_radius(X: np.ndarray, kind: str) -> float:
    """Feature-norm bound: exact for bounded designs, empirical for gaussian."""
    if kind == "rademacher":
        return 1.0 + 1e-9
    if kind == "bounded_uniform":
        return math.sqrt(3.0)
    return float(np.linalg.norm(X, axis=1).max()) + 1e-9


def gen_signal(d: int, law: ScalarLaw, seed: int) -> np.ndarray:
    return law.sample(stream(seed, "signal"), d)


def gen_linear_labels(
    X: np.ndarray, beta_star: np.ndarray, noise: ScalarLaw, seed: int
) -> np.ndarray:
    return X @ beta_star + noise.sample(stream(seed, "noise"), X.shape[0])


def gen_logistic_labels(X: np.ndarray, beta_star: np.ndarray, seed: int) -> np.ndarray:
    probs = logistic_rho_prime(X @ beta_star)
    return (stream(seed, "labels").random(X.shape[0]) < probs).astype(float)


def solve_theory(config: ExperimentConfig, n: int, d: int, grid_index: int) -> dict | None:
    """Predictions for one grid point; None when the solve fails numerically."""
    try:
        return models.get(config.model).solve(
            config, d / n, seed=lambda: child_seed(config.seed, grid_index)
        ).predictions
    except NumericError:
        return None


def _run_cell(args) -> MetricRecord:
    config, grid_index, n, d, replicate, theory = args
    started = time.perf_counter()
    spec = models.get(config.model)
    seed = child_seed(config.seed, grid_index, replicate)

    X = gen_design(n, d, config.design, seed)
    beta_star = gen_signal(d, config.signal_law, seed)
    empirical, fit = spec.replicate(config, X, beta_star, design_radius(X, config.design), seed)

    return MetricRecord(
        model=config.model,
        design=config.design,
        n=n,
        d=d,
        delta=d / n,
        lam=config.lam,
        nu=config.nu,
        L=config.L,
        kappa=config.signal_law.root_second_moment,
        sigma_eps=spec.noise_echo(config.noise_law, config.noise),
        replicate=replicate,
        grid_index=grid_index,
        seed=seed,
        empirical=empirical,
        theory=theory,
        wall_time=time.perf_counter() - started,
        fit_iterations=None if fit is None else fit.iterations,
        grad_norm=None if fit is None else fit.grad_norm,
    )


def run_experiment(config: ExperimentConfig, *, jobs: int = 1) -> list[MetricRecord]:
    """All replicates over the configured grid, ordered by (grid, replicate)."""
    cells = []
    for grid_index, (n, d) in enumerate(config.grid_points()):
        theory = solve_theory(config, n, d, grid_index)
        for replicate in range(config.replicates):
            cells.append((config, grid_index, n, d, replicate, theory))
    if jobs <= 1 or len(cells) <= 1:
        return [_run_cell(cell) for cell in cells]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        chunk = max(1, len(cells) // (8 * jobs))
        return list(pool.map(_run_cell, cells, chunksize=chunk))


def summarize(records: list[MetricRecord]) -> list[dict]:
    """Per-grid-point means, standard errors, theory values, and z-scores."""
    groups: dict[tuple, list[MetricRecord]] = {}
    for record in records:
        key = (record.n, record.d, record.nu, record.grid_index)
        groups.setdefault(key, []).append(record)
    rows = []
    for (n, d, nu, _), members in sorted(groups.items()):
        head = members[0]
        metrics = sorted(head.empirical)
        for metric in metrics:
            values = np.array([m.empirical[metric] for m in members], dtype=float)
            mean = float(values.mean())
            stderr = (
                float(values.std(ddof=1) / math.sqrt(len(values)))
                if len(values) > 1
                else 0.0
            )
            theory = None
            if head.theory is not None and metric in head.theory:
                theory = float(head.theory[metric])
            z_score = None
            if theory is not None and stderr > 0.0:
                z_score = (mean - theory) / stderr
            rows.append(
                {
                    "model": head.model,
                    "design": head.design,
                    "n": n,
                    "d": d,
                    "delta": head.delta,
                    "lambda": head.lam,
                    "nu": nu,
                    "L": head.L,
                    "kappa": head.kappa,
                    "metric": metric,
                    "replicates": len(members),
                    "empirical_mean": mean,
                    "empirical_stderr": stderr,
                    "theory": theory,
                    "z_score": z_score,
                }
            )
    return rows
