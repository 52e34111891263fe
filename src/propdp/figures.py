"""Stored figure configurations: dense theory curves plus, for the
simulation figures, ready-to-run experiment sweeps.

Every figure is a FigureSpec: ``theory_rows()`` returns CSV-ready dicts with
one row per (curve, grid point, metric); ``configs`` lists the simulation
sweeps whose summaries are plotted as dots on the same axes.  The comparison
figure (fig2) is theory-only: it calibrates each mechanism's noise level to a
shared concentrated-DP budget and plots the resulting risk curves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models, privacy
from .errors import ConfigError, NumericError
from .harness import ExperimentConfig
from .laws import parse_law
from .rng import child_seed

FIGURE_NAMES = ("fig1", "fig2", "fig4", "fig5", "fig6")

# sample fractions n/(n+d) for the dense theory curves; delta = (1-r)/r
DENSE_RATIOS = tuple(float(r) for r in np.round(np.linspace(0.10, 0.90, 41), 6))


@dataclass(frozen=True)
class FigureSpec:
    name: str
    description: str
    configs: tuple[ExperimentConfig, ...]
    _theory_builder: object

    def theory_rows(self) -> list[dict]:
        return self._theory_builder()


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


def _curve_rows(name, label, model, nu, *, lam=1.0, L=10.0, noise="gaussian:0.2", seed=0):
    """One model's predictions along the dense grid, each fixed-point solve
    warm-started from the previous grid point's solution to stay on the
    continuous branch; grid points whose solve fails are left out."""
    spec = models.get(model)
    signal_law, noise_law = parse_law("gaussian:1"), parse_law(noise)
    rows = []
    guess = None
    for index, ratio in enumerate(DENSE_RATIOS):
        try:
            theory = spec.solve(
                (1.0 - ratio) / ratio, lam=lam, nu=nu, L=L, signal=signal_law,
                noise=noise_law, seed=lambda: child_seed(seed, index),
                initial=guess,
            )
        except (NumericError, ConfigError):
            guess = None
            continue
        guess = theory.guess
        rows.extend(_row(name, label, ratio, nu, k, v) for k, v in theory.predictions.items())
    return rows


# --- fig1: robust regression with a perturbed objective ---------------------

_FIG1_COMMON = dict(
    design="rademacher", total=1000, signal="gaussian:1", noise="gaussian:0.2",
    L=10.0, lam=1.0, replicates=100,
)


def _fig1_theory():
    rows = []
    for nu in (0.0, 0.2):
        rows += _curve_rows("fig1", f"objective nu={nu:g}", "huber_objective", nu)
    return rows


FIG1 = FigureSpec(
    "fig1",
    "robust (huber) regression, objective perturbation: four metrics vs "
    "sample fraction at nu in {0, 0.2}",
    tuple(
        ExperimentConfig(model="huber_objective", nu=nu, seed=101, **_FIG1_COMMON)
        for nu in (0.0, 0.2)
    ),
    _fig1_theory,
)


# --- fig2: objective vs output at a matched concentrated-DP budget ----------


def _fig2_theory():
    lam = 1.0
    rows = []
    for rho in (1.0, 2.0):
        for loss_name, glm in (
            ("huber", privacy.GlmSensitivity.huber(1.0)),
            ("logistic", privacy.GlmSensitivity.logistic()),
        ):
            for mechanism, calibrate in (
                ("objective", privacy.objective_perturbation_nu_for_zcdp),
                ("output", privacy.output_perturbation_nu_for_zcdp),
            ):
                nu = calibrate(glm, lam, rho)
                rows += _curve_rows(
                    "fig2", f"{loss_name} {mechanism} rho={rho:g}",
                    f"{loss_name}_{mechanism}", nu, lam=lam, L=1.0, noise="gaussian:0.1",
                )
    return [r for r in rows if r["metric"] == "estimation_error"]


FIG2 = FigureSpec(
    "fig2",
    "theory-only: objective vs output perturbation risk at matched zCDP "
    "budgets rho in {1, 2} (huber L=1 with noise std 0.1, and logistic)",
    (),
    _fig2_theory,
)


# --- fig4: logistic regression with a perturbed objective -------------------


def _fig4_theory():
    rows = []
    for nu in (0.0, 0.2):
        rows += _curve_rows("fig4", f"objective nu={nu:g}", "logistic_objective", nu)
    return rows


FIG4 = FigureSpec(
    "fig4",
    "logistic regression, objective perturbation: four metrics vs sample "
    "fraction at nu in {0, 0.2}",
    tuple(
        ExperimentConfig(
            model="logistic_objective", design="rademacher", total=1000,
            signal="gaussian:1", lam=1.0, nu=nu, replicates=200, seed=104,
        )
        for nu in (0.0, 0.2)
    ),
    _fig4_theory,
)


# --- fig5: output perturbation for both losses -------------------------------


def _fig5_theory():
    rows = []
    for nu in (0.0, 0.5):
        for loss_name in ("huber", "logistic"):
            rows += _curve_rows(
                "fig5", f"{loss_name} output nu={nu:g}", f"{loss_name}_output", nu
            )
    return rows


FIG5 = FigureSpec(
    "fig5",
    "output perturbation for huber (L=10, noise std 0.2) and logistic: "
    "estimation error vs sample fraction at nu in {0, 0.5}",
    tuple(
        ExperimentConfig(
            model=model, design="rademacher", total=1000, signal="gaussian:1",
            noise="gaussian:0.2", L=10.0, lam=1.0, nu=nu, replicates=100, seed=105,
        )
        for model in ("huber_output", "logistic_output")
        for nu in (0.0, 0.5)
    ),
    _fig5_theory,
)


# --- fig6: noisy gradient descent on the conditional-expectation losses -----


def _fig6_theory():
    rows = []
    for nu in (0.0, 0.1):
        for loss_name in ("huber", "logistic"):
            rows += _curve_rows(
                "fig6", f"{loss_name}_ce nu={nu:g}", f"{loss_name}_dpsgd_ce", nu, seed=106
            )
    return rows


FIG6 = FigureSpec(
    "fig6",
    "noisy full-batch gradient descent on the conditional-expectation losses "
    "(labels are noiseless margins): per-step estimation error at nu in "
    "{0, 0.1}, step size 0.5/(1+delta), 3 steps",
    tuple(
        ExperimentConfig(
            model=model, design="rademacher", total=1000, signal="gaussian:1",
            noise="gaussian:0.2", L=10.0, lam=1.0, nu=nu, steps=3,
            replicates=10_000, seed=106,
        )
        for model in ("huber_dpsgd_ce", "logistic_dpsgd_ce")
        for nu in (0.0, 0.1)
    ),
    _fig6_theory,
)


FIGURES = {spec.name: spec for spec in (FIG1, FIG2, FIG4, FIG5, FIG6)}


def get_figure(name: str) -> FigureSpec:
    try:
        return FIGURES[name]
    except KeyError:
        raise ConfigError(
            f"unknown figure {name!r}; available: {', '.join(FIGURE_NAMES)}"
        ) from None
