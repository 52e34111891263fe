"""Stored figure configurations: each figure is one list of labelled runs.

Every figure is a FigureSpec whose ``runs`` pair a curve label with the
ExperimentConfig it is solved under.  ``theory_rows()`` returns CSV-ready
dicts with one row per (run, dense grid point, metric), and ``configs`` gives
the same runs' configs as the simulation sweeps whose summaries are plotted as
dots on the same axes, so a curve and its dots cannot disagree on a setting.
The comparison figure (fig2) is theory-only (``simulate=False``): it
calibrates each mechanism's noise level to a shared concentrated-DP budget and
plots the resulting risk curves.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import models, privacy
from .errors import ConfigError, NumericError
from .harness import ExperimentConfig
from .laws import parse_law  # noqa: F401 -- unused here, but the benchmark's tracer wraps it
from .rng import child_seed

logger = logging.getLogger(__name__)

# sample fractions n/(n+d) for the dense theory curves; delta = (1-r)/r
DENSE_RATIOS = tuple(float(r) for r in np.round(np.linspace(0.10, 0.90, 41), 6))


@dataclass(frozen=True)
class FigureSpec:
    name: str
    runs: tuple[tuple[str, ExperimentConfig], ...]  # (curve label, settings) per run
    simulate: bool = True  # False: theory curves only, no simulation dots
    metrics: tuple[str, ...] | None = None  # the curves' plotted metrics; None keeps all

    @property
    def configs(self) -> tuple[ExperimentConfig, ...]:
        """The simulation sweeps: every run's config, or none for a theory-only figure."""
        return tuple(config for _, config in self.runs) if self.simulate else ()

    def theory_rows(self) -> list[dict]:
        """The runs' dense curves, computing only the plotted metrics.  Runs
        that pose the same fixed-point system (output perturbation solves at
        nu = 0 whatever its nu) share each solve, for this call only."""
        solved: dict = {}
        rows = []
        for label, config in self.runs:
            rows += _curve_rows(self.name, label, config, metrics=self.metrics, solved=solved)
        return rows


def _row(name: str, label: str, ratio: float, nu: float, metric: str, value: float) -> dict:
    return {
        "figure": name,
        "label": label,
        "ratio": float(ratio),
        "delta": (1.0 - ratio) / ratio,
        "nu": float(nu),
        "metric": metric,
        "value": float(value),
    }


def _curve_rows(
    name: str, label: str, config: ExperimentConfig, *,
    metrics: tuple[str, ...] | None = None, solved: dict | None = None,
) -> list[dict]:
    """One model's predictions along the dense grid (``metrics`` and
    ``solved`` as in ``ModelSpec.solve``).  To stay on the continuous branch,
    each fixed-point solve starts from the straight-line extrapolation
    2*x_k - x_(k-1) of the two previous solutions (the ratios are evenly
    spaced), or from x_k alone where that leaves the positive orthant or
    only one is known; a grid point whose solve fails is logged and left
    out, and the next one starts cold."""
    spec = models.get(config.model)
    rows = []
    previous = guess = None
    for index, ratio in enumerate(DENSE_RATIOS):
        initial = guess
        if previous is not None:
            ahead = tuple(2.0 * x - y for x, y in zip(guess, previous))
            if all(x > 0 for x in ahead):
                initial = ahead
        try:
            theory = spec.solve(
                config, (1.0 - ratio) / ratio, seed=child_seed(config.seed, index),
                initial=initial, metrics=metrics, solved=solved,
            )
        except NumericError as exc:
            logger.warning("%s %s: ratio %g left out: %s", name, label, ratio, exc)
            previous = guess = None
            continue
        previous, guess = guess, theory.guess
        rows.extend(
            _row(name, label, ratio, config.nu, k, v) for k, v in theory.predictions.items()
        )
    return rows


# --- fig1: robust regression with a perturbed objective ---------------------
# huber loss: four metrics vs sample fraction at nu in {0, 0.2}

FIG1 = FigureSpec("fig1", tuple(
    (f"objective nu={nu:g}", ExperimentConfig(model="huber_objective", nu=nu, seed=101))
    for nu in (0.0, 0.2)
))


# --- fig2: objective vs output at a matched concentrated-DP budget ----------
# theory-only: risk at zCDP budgets rho in {1, 2}, huber (L=1, noise std 0.1)
# and logistic

FIG2 = FigureSpec(
    "fig2",
    tuple(
        (
            f"{loss_name} {mechanism} rho={rho:g}",
            ExperimentConfig(
                model=f"{loss_name}_{mechanism}", nu=calibrate(glm, 1.0, rho), L=1.0,
                noise="gaussian:0.1",
            ),
        )
        for rho in (1.0, 2.0)
        for loss_name, glm in (
            ("huber", privacy.GlmSensitivity.huber(1.0)),
            ("logistic", privacy.GlmSensitivity.logistic()),
        )
        for mechanism, calibrate in (
            ("objective", privacy.objective_perturbation_nu_for_zcdp),
            ("output", privacy.output_perturbation_nu_for_zcdp),
        )
    ),
    simulate=False,
    metrics=("estimation_error",),
)


# --- fig4: logistic regression with a perturbed objective -------------------
# four metrics vs sample fraction at nu in {0, 0.2}

FIG4 = FigureSpec("fig4", tuple(
    (
        f"objective nu={nu:g}",
        ExperimentConfig(model="logistic_objective", nu=nu, replicates=200, seed=104),
    )
    for nu in (0.0, 0.2)
))


# --- fig5: output perturbation for both losses -------------------------------
# huber (L=10, noise std 0.2) and logistic: estimation error vs sample
# fraction at nu in {0, 0.5}

FIG5 = FigureSpec("fig5", tuple(
    (
        f"{loss_name} output nu={nu:g}",
        ExperimentConfig(model=f"{loss_name}_output", nu=nu, seed=105),
    )
    for nu in (0.0, 0.5)
    for loss_name in ("huber", "logistic")
))


# --- fig6: noisy gradient descent on the conditional-expectation losses -----
# full batch, labels are noiseless margins: per-step estimation error at nu in
# {0, 0.1}, step size 0.5/(1+delta), 3 steps

FIG6 = FigureSpec("fig6", tuple(
    (
        f"{loss_name}_ce nu={nu:g}",
        ExperimentConfig(model=f"{loss_name}_dpsgd_ce", nu=nu, replicates=10_000, seed=106),
    )
    for nu in (0.0, 0.1)
    for loss_name in ("huber", "logistic")
))


FIGURES = {spec.name: spec for spec in (FIG1, FIG2, FIG4, FIG5, FIG6)}
FIGURE_NAMES = tuple(FIGURES)


def get_figure(name: str) -> FigureSpec:
    try:
        return FIGURES[name]
    except KeyError:
        raise ConfigError(
            f"unknown figure {name!r}; available: {', '.join(FIGURE_NAMES)}"
        ) from None
