"""Seeded synthetic-data experiments that pair empirical averages with the
asymptotic predictions.

A sweep fixes n*d and walks the sample-fraction grid n/(n+d); each grid point
solves the matching limit system once and runs seeded replicates of the
configured learner, in blocks of replicates.  Child seeds are derived from (master seed, grid index,
replicate index) so no two cells share a random stream and reruns are
bit-identical.
"""

from __future__ import annotations

import contextlib
import logging
import math
import numbers
import operator
import os
from collections.abc import Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import models
from .errors import ConfigError, NumericError
from .laws import ScalarLaw, parse_law
from .rng import box_muller, child_seed, stream, streams
from .scalars import logistic_rho_prime

logger = logging.getLogger(__name__)

RATIO_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

DESIGNS = ("rademacher", "gaussian", "bounded_uniform")

# the most entries (n*d) a grid point's design may have: 100x the largest in
# use (900 x 100), and small enough that one design matrix fits in memory
MAX_DESIGN_ENTRIES = 10_000_000

# the most cells (grid points x replicates) a sweep may run: 11x fig6's 90,000
MAX_CELLS = 1_000_000

# a grid point's replicates run in blocks of BLOCK_REPLICATES, fewer when the
# block's stacked designs would exceed BLOCK_ENTRIES entries (2 MB); the
# boundaries depend on the grid point alone, never on the worker count
BLOCK_REPLICATES = 64
BLOCK_ENTRIES = 250_000


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


def _finite(value) -> float:
    """``value`` as a float, if it is a finite real number and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"want a finite number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    """``value`` as an int, if it is an integer and not a bool."""
    if isinstance(value, bool):
        raise TypeError(f"want an integer, got {value!r}")
    return operator.index(value)


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
        """Every setting is checked here, once, types first: integer fields go
        through ``operator.index``, laws must be text, float fields must be
        finite real numbers (only ``step_size`` may be None), no number may be a
        bool, ``ratios`` becomes a tuple of floats and ``grid`` a tuple of int
        pairs.  The laws are parsed here too, into ``signal_law`` and
        ``noise_law``, which are not fields, so ``asdict``, ``replace``, ``==``
        and the config hash see only the text."""
        try:
            for name in ("model", "design", "signal", "noise"):
                if not isinstance(getattr(self, name), str):
                    raise TypeError(f"want text, got {getattr(self, name)!r}")
            for name in ("total", "steps", "replicates", "mc_samples", "seed"):
                object.__setattr__(self, name, _integer(getattr(self, name)))
            for name in ("L", "lam", "nu", "step_size"):  # not converted: a 10 stays 10
                if name != "step_size" or self.step_size is not None:
                    _finite(getattr(self, name))
            name = "ratios"
            object.__setattr__(self, name, tuple(_finite(r) for r in self.ratios))
            name = "grid"
            if self.grid is not None:
                grid = tuple((_integer(n), _integer(d)) for n, d in self.grid)
                object.__setattr__(self, name, grid)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"ExperimentConfig: bad {name}: {exc}") from None
        spec = models.get(self.model)
        if self.design not in DESIGNS:
            raise ConfigError(f"ExperimentConfig: unknown design {self.design!r}")
        if self.replicates < 1:
            raise ConfigError("ExperimentConfig: replicates must be >= 1")
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
        too_big = f"ExperimentConfig: n*d may not exceed {MAX_DESIGN_ENTRIES}"
        # checked first, as a larger total overflows the grid formula's floats
        if self.grid is None and self.total > MAX_DESIGN_ENTRIES:
            raise ConfigError(too_big)
        points = self.grid_points()
        if not points or min(min(point) for point in points) < 1:
            raise ConfigError("ExperimentConfig: the grid needs a point, and every n, d >= 1")
        if max(n * d for n, d in points) > MAX_DESIGN_ENTRIES:
            raise ConfigError(too_big)
        if len(points) * self.replicates > MAX_CELLS:
            raise ConfigError(
                f"ExperimentConfig: grid points x replicates may not exceed {MAX_CELLS}"
            )

    def grid_points(self) -> tuple[tuple[int, int], ...]:
        return self.grid if self.grid is not None else grid_from_ratios(self.total, self.ratios)


@dataclass(frozen=True)
class GridPoint:
    """One grid point of a sweep: its predictions and, in replicate order,
    each replicate's ``(seed, empirical, fit_iterations, grad_norm)``, the
    last two being the fit's certificate (Newton steps and final ||grad F||;
    None for noisy GD).  A point whose theory solve failed has no
    predictions and the failure in ``theory_error``.  The sweep's ``config``
    fixes every other setting (``settings_echo`` derives the ones a row
    repeats)."""

    config: ExperimentConfig
    index: int
    n: int
    d: int
    theory: dict | None
    replicates: list[tuple]
    theory_error: str | None = None


def settings_echo(config: ExperimentConfig) -> dict:
    """The settings every row of a sweep repeats, keyed by column name."""
    return {
        "model": config.model,
        "design": config.design,
        "lambda": config.lam,
        "nu": config.nu,
        "L": config.L,
        "kappa": config.signal_law.root_second_moment,
        "sigma_eps": models.get(config.model).noise_echo(config.noise_law, config.noise),
    }


def gen_design(n: int, d: int, kind: str, seed: int | np.random.Generator) -> np.ndarray:
    """Feature matrix with independent mean-zero, variance-1/d entries, drawn
    from the (seed, "design") stream; ``seed`` may also be that stream, keyed."""
    gen = seed if isinstance(seed, np.random.Generator) else stream(seed, "design")
    root_d = math.sqrt(d)
    if kind == "rademacher":
        return (2.0 * gen.integers(0, 2, size=(n, d)) - 1.0) / root_d
    if kind == "gaussian":
        return box_muller(gen, n * d).reshape(n, d) / root_d
    if kind == "bounded_uniform":
        return (2.0 * gen.random((n, d)) - 1.0) * math.sqrt(3.0) / root_d
    raise ConfigError(f"gen_design: unknown design {kind!r}")


def design_radius(X: np.ndarray, kind: str) -> float:
    """Feature-norm bound of a design or a stack of them: exact for bounded
    designs, empirical for gaussian."""
    if kind == "rademacher":
        return 1.0 + 1e-9
    if kind == "bounded_uniform":
        return math.sqrt(3.0)
    return float(np.linalg.norm(X, axis=-1).max()) + 1e-9


def gen_signal(d: int, law: ScalarLaw, seed: int | list[np.random.Generator]) -> np.ndarray:
    """Signal coordinates from the (seed, "signal") stream; ``seed`` may also
    be a list of such streams, keyed, which gives one row each."""
    return law.sample(seed if isinstance(seed, list) else stream(seed, "signal"), d)


def gen_linear_labels(
    X: np.ndarray, beta_star: np.ndarray, noise: ScalarLaw, seed: int
) -> np.ndarray:
    return X @ beta_star + noise.sample(stream(seed, "noise"), X.shape[0])


def gen_logistic_labels(X: np.ndarray, beta_star: np.ndarray, seed: int) -> np.ndarray:
    probs = logistic_rho_prime(X @ beta_star)
    return (stream(seed, "labels").random(X.shape[0]) < probs).astype(float)


def solve_theory(
    config: ExperimentConfig, n: int, d: int, grid_index: int
) -> tuple[dict | None, str | None]:
    """Predictions for one grid point and None; or None and the failure,
    when the solve fails numerically."""
    spec = models.get(config.model)
    try:
        theory = spec.solve(config, d / n, seed=child_seed(config.seed, grid_index))
    except NumericError as exc:
        logger.warning("%s at n=%d, d=%d: no theory: %s", config.model, n, d, exc)
        return None, f"{type(exc).__name__}: {exc}"
    return theory.predictions, None


def _run_cell(args) -> list[tuple]:
    """One block of a grid point's replicates, ``start <= replicate < stop``:
    each replicate's seed, metrics and fit certificate."""
    config, grid_index, n, d, start, stop = args
    seeds = [child_seed(config.seed, grid_index, replicate) for replicate in range(start, stop)]
    keyed = streams([(seed, "design") for seed in seeds] + [(seed, "signal") for seed in seeds])
    X = np.empty((len(seeds), n, d))
    for k in range(len(seeds)):
        X[k] = gen_design(n, d, config.design, next(keyed))
    beta_star = gen_signal(d, config.signal_law, list(keyed))
    fits = models.get(config.model).replicate(
        config, X, beta_star, design_radius(X, config.design), seeds
    )
    return [
        (seed, empirical, None, None) if fit is None
        else (seed, empirical, fit.iterations, fit.grad_norm)
        for seed, (empirical, fit) in zip(seeds, fits)
    ]


def _blocks(config: ExperimentConfig) -> list[tuple]:
    """The ``_run_cell`` arguments of every block, ordered by (grid, replicate)."""
    blocks = []
    for index, (n, d) in enumerate(config.grid_points()):
        size = max(1, min(BLOCK_REPLICATES, BLOCK_ENTRIES // (n * d)))
        for start in range(0, config.replicates, size):
            blocks.append((config, index, n, d, start, min(start + size, config.replicates)))
    return blocks


def run_experiment(config: ExperimentConfig, *, jobs: int = 1) -> Iterator[GridPoint]:
    """The configured grid's points in grid order, each yielded once its last
    block of replicates is back, so a caller holds one point at a time.

    The grid points' theory solves and the blocks of replicates are the
    tasks; with more than one worker they share one pool, the solves first,
    so the slow ones overlap the blocks.  Points are the same under any
    ``jobs``.  Closing the generator early cancels the blocks not yet started."""
    points = config.grid_points()
    blocks = _blocks(config)
    # the pool forks all its workers at the first submit: no more than there are tasks or cores
    workers = min(jobs, len(points) + len(blocks), os.cpu_count() or 1)
    with contextlib.ExitStack() as stack:
        if workers <= 1:
            theories = (solve_theory(config, n, d, index) for index, (n, d) in enumerate(points))
            results = map(_run_cell, blocks)
        else:
            pool = ProcessPoolExecutor(max_workers=workers)
            stack.callback(pool.shutdown, cancel_futures=True)
            solves = [pool.submit(solve_theory, config, n, d, i) for i, (n, d) in enumerate(points)]
            theories = (solve.result() for solve in solves)
            results = pool.map(_run_cell, blocks, chunksize=max(1, len(blocks) // (8 * workers)))
        for (index, (n, d)), (theory, error) in zip(enumerate(points), theories):
            replicates = []
            while len(replicates) < config.replicates:
                replicates += next(results)
            yield GridPoint(config, index, n, d, theory, replicates, error)


def summarize(points: Iterable[GridPoint]) -> list[dict]:
    """Per-grid-point means, standard errors, theory values, and z-scores of
    one sweep's points, with the sweep's settings; sorted by (n, d), and a
    repeated point keeps its grid order."""
    rows = []
    for point in sorted(points, key=lambda point: (point.n, point.d)):
        echo = settings_echo(point.config)
        empiricals = [replicate[1] for replicate in point.replicates]
        for metric in sorted(empiricals[0]):
            values = np.array([empirical[metric] for empirical in empiricals], dtype=float)
            mean = float(values.mean())
            stderr = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
            theory = (point.theory or {}).get(metric)
            z_score = (mean - theory) / stderr if theory is not None and stderr > 0.0 else None
            rows.append({
                **echo, "n": point.n, "d": point.d, "delta": point.d / point.n, "metric": metric,
                "replicates": len(values), "empirical_mean": mean, "empirical_stderr": stderr,
                "theory": theory, "z_score": z_score,
            })
    return rows
