"""Differentially private robust linear and logistic regression in the
proportional-dimensionality regime (d/n -> delta).

The package provides:

- three private learners over generalized linear losses: objective
  perturbation (a random linear term added to the regularized objective),
  output perturbation (Gaussian noise added to the exact minimizer), and
  noisy full-batch gradient descent (``erm``, ``losses``);
- exact asymptotic predictions of their estimation error from small
  fixed-point systems and a two-dimensional state-evolution recursion
  (``huber_theory``, ``logistic_theory``, ``state_evolution``);
- closed-form privacy accounting — hockey-stick (epsilon, delta) curves,
  Renyi-DP curves, and zCDP values — for all three mechanisms (``privacy``);
- a seeded Monte Carlo harness and stored figure configurations that compare
  empirical averages against the predictions (``harness``, ``figures``);
- a CLI, ``propdp``, with subcommands theory / simulate / privacy / figure.
"""

import logging

__version__ = "0.1.0"

# records go to the handlers the application sets up (none by the CLI yet),
# not to the stderr of every program that imports the package
logging.getLogger(__name__).addHandler(logging.NullHandler())

from .errors import ConfigError, NonConvergenceError, NumericError
from .laws import ScalarLaw, parse_law
from .privacy import (
    GlmSensitivity,
    PrivacyReport,
    build_report,
    dpsgd_zcdp,
    hockey_stick,
    objective_perturbation_delta,
    objective_perturbation_nu_for_zcdp,
    objective_perturbation_rdp,
    objective_perturbation_zcdp,
    output_perturbation_delta,
    output_perturbation_nu_for_zcdp,
    output_perturbation_zcdp,
)
from .huber_theory import HuberSolution, huber_predictions, solve_huber_system
from .logistic_theory import (
    LogisticSolution,
    logistic_predictions,
    solve_logistic_system,
)
from .state_evolution import (
    StateEvolutionTrace,
    state_evolution_huber,
    state_evolution_logistic,
)
from .losses import HuberCeLoss, HuberLoss, LogisticCeLoss, LogisticLoss
from .erm import (
    Dataset,
    FitResult,
    fit_objective_perturbation,
    fit_output_perturbation,
    run_noisy_gd,
)
from .harness import (
    ExperimentConfig,
    GridPoint,
    run_experiment,
    summarize,
)
from .figures import FIGURE_NAMES, get_figure

__all__ = [
    "__version__",
    "ConfigError",
    "NumericError",
    "NonConvergenceError",
    "ScalarLaw",
    "parse_law",
    "GlmSensitivity",
    "PrivacyReport",
    "build_report",
    "hockey_stick",
    "dpsgd_zcdp",
    "objective_perturbation_delta",
    "objective_perturbation_rdp",
    "objective_perturbation_zcdp",
    "objective_perturbation_nu_for_zcdp",
    "output_perturbation_delta",
    "output_perturbation_zcdp",
    "output_perturbation_nu_for_zcdp",
    "HuberSolution",
    "solve_huber_system",
    "huber_predictions",
    "LogisticSolution",
    "solve_logistic_system",
    "logistic_predictions",
    "StateEvolutionTrace",
    "state_evolution_huber",
    "state_evolution_logistic",
    "HuberLoss",
    "LogisticLoss",
    "HuberCeLoss",
    "LogisticCeLoss",
    "Dataset",
    "FitResult",
    "fit_objective_perturbation",
    "fit_output_perturbation",
    "run_noisy_gd",
    "ExperimentConfig",
    "GridPoint",
    "run_experiment",
    "summarize",
    "FIGURE_NAMES",
    "get_figure",
]
