"""Stored figure configurations: dense theory curves plus, for the
simulation figures, ready-to-run experiment sweeps.

Every figure is a FigureSpec: each of its ``curves`` is a label with the
ExperimentConfig it is solved under, and ``theory_rows()`` returns CSV-ready
dicts with one row per (curve, grid point, metric); ``configs`` lists the
simulation sweeps whose summaries are plotted as dots on the same axes.  The
comparison figure (fig2) is theory-only: it calibrates each mechanism's noise
level to a shared concentrated-DP budget and plots the resulting risk curves.
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

FIGURE_NAMES = ("fig1", "fig2", "fig4", "fig5", "fig6")

# sample fractions n/(n+d) for the dense theory curves; delta = (1-r)/r
DENSE_RATIOS = tuple(float(r) for r in np.round(np.linspace(0.10, 0.90, 41), 6))


@dataclass(frozen=True)
class FigureSpec:
    name: str
    description: str
    curves: tuple[tuple[str, ExperimentConfig], ...]  # (label, settings) per theory curve
    configs: tuple[ExperimentConfig, ...]
    metrics: tuple[str, ...] | None = None  # the curves' plotted metrics; None keeps all

    def theory_rows(self) -> list[dict]:
        rows = []
        for label, config in self.curves:
            rows += _curve_rows(self.name, label, config)
        return [row for row in rows if self.metrics is None or row["metric"] in self.metrics]


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


def _curve_rows(name: str, label: str, config: ExperimentConfig) -> list[dict]:
    """One model's predictions along the dense grid, each fixed-point solve
    warm-started from the previous grid point's solution to stay on the
    continuous branch; a grid point whose solve fails is logged and left out."""
    spec = models.get(config.model)
    rows = []
    guess = None
    for index, ratio in enumerate(DENSE_RATIOS):
        try:
            theory = spec.solve(
                config, (1.0 - ratio) / ratio,
                seed=lambda: child_seed(config.seed, index), initial=guess,
            )
        except NumericError as exc:
            logger.warning("%s %s: ratio %g left out: %s", name, label, ratio, exc)
            guess = None
            continue
        guess = theory.guess
        rows.extend(
            _row(name, label, ratio, config.nu, k, v) for k, v in theory.predictions.items()
        )
    return rows


# --- fig1: robust regression with a perturbed objective ---------------------

_FIG1_COMMON = dict(
    design="rademacher", total=1000, signal="gaussian:1", noise="gaussian:0.2",
    L=10.0, lam=1.0, replicates=100,
)

FIG1 = FigureSpec(
    "fig1",
    "robust (huber) regression, objective perturbation: four metrics vs "
    "sample fraction at nu in {0, 0.2}",
    tuple(
        (f"objective nu={nu:g}", ExperimentConfig(model="huber_objective", nu=nu))
        for nu in (0.0, 0.2)
    ),
    tuple(
        ExperimentConfig(model="huber_objective", nu=nu, seed=101, **_FIG1_COMMON)
        for nu in (0.0, 0.2)
    ),
)


# --- fig2: objective vs output at a matched concentrated-DP budget ----------

FIG2 = FigureSpec(
    "fig2",
    "theory-only: objective vs output perturbation risk at matched zCDP "
    "budgets rho in {1, 2} (huber L=1 with noise std 0.1, and logistic)",
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
    (),
    metrics=("estimation_error",),
)


# --- fig4: logistic regression with a perturbed objective -------------------

FIG4 = FigureSpec(
    "fig4",
    "logistic regression, objective perturbation: four metrics vs sample "
    "fraction at nu in {0, 0.2}",
    tuple(
        (f"objective nu={nu:g}", ExperimentConfig(model="logistic_objective", nu=nu))
        for nu in (0.0, 0.2)
    ),
    tuple(
        ExperimentConfig(
            model="logistic_objective", design="rademacher", total=1000,
            signal="gaussian:1", lam=1.0, nu=nu, replicates=200, seed=104,
        )
        for nu in (0.0, 0.2)
    ),
)


# --- fig5: output perturbation for both losses -------------------------------

FIG5 = FigureSpec(
    "fig5",
    "output perturbation for huber (L=10, noise std 0.2) and logistic: "
    "estimation error vs sample fraction at nu in {0, 0.5}",
    tuple(
        (f"{loss_name} output nu={nu:g}", ExperimentConfig(model=f"{loss_name}_output", nu=nu))
        for nu in (0.0, 0.5)
        for loss_name in ("huber", "logistic")
    ),
    tuple(
        ExperimentConfig(
            model=model, design="rademacher", total=1000, signal="gaussian:1",
            noise="gaussian:0.2", L=10.0, lam=1.0, nu=nu, replicates=100, seed=105,
        )
        for model in ("huber_output", "logistic_output")
        for nu in (0.0, 0.5)
    ),
)


# --- fig6: noisy gradient descent on the conditional-expectation losses -----

FIG6 = FigureSpec(
    "fig6",
    "noisy full-batch gradient descent on the conditional-expectation losses "
    "(labels are noiseless margins): per-step estimation error at nu in "
    "{0, 0.1}, step size 0.5/(1+delta), 3 steps",
    tuple(
        (
            f"{loss_name}_ce nu={nu:g}",
            ExperimentConfig(model=f"{loss_name}_dpsgd_ce", nu=nu, seed=106),
        )
        for nu in (0.0, 0.1)
        for loss_name in ("huber", "logistic")
    ),
    tuple(
        ExperimentConfig(
            model=model, design="rademacher", total=1000, signal="gaussian:1",
            noise="gaussian:0.2", L=10.0, lam=1.0, nu=nu, steps=3,
            replicates=10_000, seed=106,
        )
        for model in ("huber_dpsgd_ce", "logistic_dpsgd_ce")
        for nu in (0.0, 0.1)
    ),
)


FIGURES = {spec.name: spec for spec in (FIG1, FIG2, FIG4, FIG5, FIG6)}


def get_figure(name: str) -> FigureSpec:
    try:
        return FIGURES[name]
    except KeyError:
        raise ConfigError(
            f"unknown figure {name!r}; available: {', '.join(FIGURE_NAMES)}"
        ) from None
