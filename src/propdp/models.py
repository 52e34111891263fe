"""The six learner/model pairs in one table: a loss family (Huber or
logistic regression) crossed with a privacy mechanism (objective
perturbation, output perturbation, or noisy GD on the smoothed loss).

Everything that depends on the model is decided here; the harness, the CLI
and the figures look a model up by name and never test the name, so adding
a model means adding one entry to ``SPECS``.  Output perturbation is "solve
the non-private system at nu = 0, then shift by nu" (Chaudhuri, Monteleoni &
Sarwate, JMLR 2011).  Solvers, learners and label generators are reached
through their module attributes at call time, never stored in the table, so
instrumentation that replaces those attributes sees every call.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, replace

import numpy as np

# harness imports this module for its model table and is only used here at
# call time (for its label generators), so the import cycle is harmless
from . import erm, harness, huber_theory, logistic_theory, losses, state_evolution
from .errors import ConfigError, NumericError
from .laws import ScalarLaw
from .newton import MIN_LAMBDA
from .scalars import clip, logistic_rho_prime


@contextlib.contextmanager
def _float_errors(what: str):
    """Overflow, an invalid or divide-by-zero floating-point operation, or a
    singular linear system inside the block is one NumericError."""
    try:
        with np.errstate(invalid="raise", over="raise", divide="raise"):
            yield
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        # a Python float overflow carries (errno, text); the text is the reason
        raise NumericError(f"{what}: {exc.args[-1] if exc.args else exc}") from None


def step_size_at(delta: float, step_size: float | None = None) -> float:
    """Noisy-GD step size: the given one, else the default 0.5 / (1 + delta)."""
    return step_size if step_size is not None else 0.5 / (1.0 + delta)


def _per_step(mse, bias) -> dict[str, float]:
    """``estimation_error_t{t}`` and ``bias_t{t}`` for iterates t = 1..T."""
    out = {}
    for t in range(1, len(mse)):
        out[f"estimation_error_t{t}"] = float(mse[t])
        out[f"bias_t{t}"] = float(bias[t])
    return out


def _predictions(sol, metrics=None) -> dict[str, float]:
    """The solution's predicted metrics, at least those in ``metrics`` (None: all)."""
    if isinstance(sol, huber_theory.HuberSolution):
        return huber_theory.huber_predictions(sol)
    return logistic_theory.logistic_predictions(sol, metrics)


def output_perturbation_predictions(base, nu: float) -> dict[str, float]:
    """Metrics for adding nu*xi to the non-private minimizer.

    ``base`` is a Huber or logistic solution at nu = 0, of which only the
    estimation error and the bias are read.  The loss-specific fourth metric
    of the perturbed output has no closed form, so it is neither computed nor
    returned.
    """
    if base.nu != 0.0:
        raise ConfigError("output_perturbation_predictions: base solution must have nu = 0")
    if nu < 0:
        raise ConfigError("output_perturbation_predictions: nu must be >= 0")
    preds = _predictions(base, ("estimation_error", "bias"))
    return {
        "estimation_error": preds["estimation_error"] + nu**2,
        "bias": preds["bias"],
        "xi_correlation": nu,
    }


@dataclass(frozen=True)
class Theory:
    """One solved point: a JSON-ready echo of the solver's output, the
    predicted metrics, and the warm start for a neighbouring point."""

    solution: dict
    predictions: dict
    guess: tuple | None


@dataclass(frozen=True)
class ModelSpec:
    name: str
    loss: str  # "huber" or "logistic"
    mechanism: str  # "objective", "output" or "dpsgd"

    def check(self, config) -> None:
        """The settings this model's solver needs from ``config`` (an
        ExperimentConfig): lam above the fixed-point systems' conditioning
        floor, or for noisy GD (no ridge term) a state-evolution budget and a
        positive step; and a logistic signal with E[X**2] > 0."""
        if self.mechanism == "dpsgd":
            top = state_evolution.MAX_STEPS
            least, most = state_evolution.MIN_MC_SAMPLES, state_evolution.MAX_MC_SAMPLES
            if not 1 <= config.steps <= top:
                raise ConfigError(f"{self.name}: steps must be in [1, {top}]")
            if not least <= config.mc_samples <= most:
                raise ConfigError(f"{self.name}: mc_samples must be in [{least}, {most}]")
            if config.step_size is not None and config.step_size <= 0:
                raise ConfigError(f"{self.name}: step_size must be > 0")
        elif config.lam < MIN_LAMBDA:
            raise ConfigError(f"{self.name}: lambda must be >= {MIN_LAMBDA}")
        if self.loss == "logistic" and not config.signal_law.second_moment > 0:
            raise ConfigError(f"{self.name}: kappa must be > 0 (signal with E[X^2] > 0)")

    def trace_inputs(self, config, delta) -> dict:
        """The noisy-GD settings a theory point echoes (none for other models)."""
        if self.mechanism != "dpsgd":
            return {}
        step = step_size_at(delta, config.step_size)
        return {"steps": config.steps, "step_size": step, "mc_samples": config.mc_samples}

    def noise_echo(self, noise: ScalarLaw, text: str) -> str:
        """The sigma_eps column: the std of centred Gaussian noise, else the
        law text; empty for logistic models, whose labels use no noise law."""
        if self.loss == "logistic":
            return ""
        if noise.weights == (1.0,) and noise.locs == (0.0,):
            return repr(float(noise.scales[0]))
        return text

    def solve(
        self, config, delta: float, *, seed: int, initial: tuple | None = None,
        metrics: tuple[str, ...] | None = None, solved: dict | None = None, check: bool = False,
    ) -> Theory:
        """Solve the model's limit at one delta under ``config``'s settings.

        ``initial`` warm-starts the fixed-point solvers; ``seed`` is used
        only by the noisy-GD models, whose state evolution is sampled.
        ``metrics`` names the predictions to compute and return (None: all).
        ``solved`` maps a fixed-point solver's inputs, warm start included,
        to its solution: a solve found there is reused, a new one is added.
        ``check`` runs noisy GD's theta-path Monte Carlo, whose moments only
        the solution echoes: the ``theory`` command turns it on, and sweeps
        and figures, which read the predictions alone, leave it off.
        Overflow, an invalid or divide-by-zero floating-point operation or a
        singular Newton system at extreme inputs, and non-finite predictions,
        raise NumericError.
        """
        with _float_errors(f"{self.name} at delta={delta!r}"):
            if self.mechanism == "dpsgd":
                theory = self._trace(config, delta, seed, check)
            else:
                theory = self._fixed_point(
                    config, delta, initial, metrics, {} if solved is None else solved
                )
        if metrics is not None:
            predictions = {k: v for k, v in theory.predictions.items() if k in metrics}
            theory = replace(theory, predictions=predictions)
        if not all(math.isfinite(v) for v in theory.predictions.values()):
            raise NumericError(f"{self.name} at delta={delta!r}: non-finite prediction")
        return theory

    def _trace(self, config, delta, seed, check) -> Theory:
        step = step_size_at(delta, config.step_size)
        if self.loss == "huber":
            trace = state_evolution.state_evolution_huber(
                config.steps, step, config.nu, delta, config.signal_law, config.noise_law,
                config.L, mc_samples=config.mc_samples, seed=seed, check=check,
            )
        else:
            trace = state_evolution.state_evolution_logistic(
                config.steps, step, config.nu, delta, config.signal_law,
                mc_samples=config.mc_samples, seed=seed, check=check,
            )
        return Theory(trace.as_dict(), _per_step(trace.mse, trace.bias), None)

    def _fixed_point(self, config, delta, initial, metrics, solved) -> Theory:
        nu_solve = 0.0 if self.mechanism == "output" else config.nu
        if self.loss == "huber":
            solver = huber_theory.solve_huber_system
            inputs = (delta, config.lam, nu_solve, config.L, config.signal_law, config.noise_law)
        else:
            solver = logistic_theory.solve_logistic_system
            inputs = (delta, config.lam, nu_solve, math.sqrt(config.signal_law.second_moment))
        key = (self.loss, *inputs, initial)
        sol = solved.get(key)
        if sol is None:
            sol = solved[key] = solver(*inputs, initial=initial)
        if self.loss == "huber":
            guess = (sol.sigma_star, sol.tau_star)
        else:
            guess = (sol.alpha_star, sol.sigma_star, sol.gamma_star)
        if self.mechanism == "output":
            return Theory(sol.as_dict(), output_perturbation_predictions(sol, config.nu), guess)
        return Theory(sol.as_dict(), _predictions(sol, metrics), guess)

    @property
    def stream_tags(self) -> tuple[str, ...]:
        """The tags of the streams a replicate draws besides its design and
        signal, which the harness keys with those: the perturbation's and the
        labels'; noisy GD keys its per-step noise itself."""
        if self.mechanism == "dpsgd":
            return ()
        return (f"{self.mechanism}-perturbation-xi", "noise" if self.loss == "huber" else "labels")

    def replicate(
        self, config, X, beta_star, radius: float, seeds, stream_keys
    ) -> list[tuple[dict, int | None, float | None]]:
        """Label, fit and score a block of replicates of ``config`` (an
        ExperimentConfig): X is a stack of R designs (R, n, d), beta_star
        (R, d) their signals, with one seed each, and ``stream_keys`` the (R, 2)
        keys of each stream in ``self.stream_tags``.  Returns each replicate's
        metrics and fit certificate, its Newton steps and final ||grad F||
        (None for noisy GD, which has none).  Both noisy GD and the
        perturbation fits run the block as one stack.  Floating-point failures
        raise NumericError, as in ``solve``."""
        with _float_errors(f"{self.name} replicate"):
            d = beta_star.shape[-1]
            if self.mechanism == "dpsgd":  # noisy GD is analysed on noiseless margins
                if self.loss == "huber":
                    loss = losses.HuberCeLoss(config.L, config.noise_law)
                else:
                    loss = losses.LogisticCeLoss()
                step = step_size_at(d / X.shape[1], config.step_size)
                margins = erm.matvec(X, beta_star)
                trajectories = erm.run_noisy_gd(
                    erm.Dataset(X, margins, radius), loss, step, config.nu, config.steps, seeds
                )
                errors = trajectories - beta_star[:, None, :]
                mse = erm.dots(errors, errors) / d
                bias = erm.dots(trajectories, beta_star[:, None, :]) / d
                return [(_per_step(m, b), None, None) for m, b in zip(mse, bias)]
            xi_keys, label_keys = stream_keys
            if self.loss == "huber":
                y = harness.gen_linear_labels(X, beta_star, config.noise_law, label_keys)
                loss = losses.HuberLoss(config.L)
            else:
                y = harness.gen_logistic_labels(X, beta_star, label_keys)
                loss = losses.LogisticLoss()
            data = erm.Dataset(X, y, radius)
            if self.mechanism == "objective":
                fit = erm.fit_objective_perturbation(data, loss, config.lam, config.nu, xi_keys)
            else:
                fit = erm.fit_output_perturbation(data, loss, config.lam, config.nu, xi_keys)
            scores = self.score(fit, X, y, beta_star, L=config.L)
            columns = [values.tolist() for values in scores.values()]
            metrics = (dict(zip(scores, row)) for row in zip(*columns))
            return list(zip(metrics, fit.iterations.tolist(), fit.grad_norm.tolist()))

    def score(self, fit: erm.FitResult, X, y, beta_star, *, L: float) -> dict:
        """Summary statistics of a perturbation fit, metric -> value; of a
        stack of fits (X of shape (R, n, d)), metric -> (R,) values."""
        d, n = X.shape[-1], X.shape[-2]
        error = fit.beta_hat - beta_star
        metrics = {"estimation_error": erm.dots(error, error) / d}
        metrics["bias"] = erm.dots(fit.beta_hat, beta_star) / d
        shift = fit.beta_hat - fit.beta_tilde if self.mechanism == "output" else error
        metrics["xi_correlation"] = erm.dots(shift, fit.xi) / d
        if self.loss == "huber":
            residual = clip(y - erm.matvec(X, fit.beta_hat), L)
            metrics["truncated_residual"] = erm.dots(residual, residual) / n
        else:
            diff = logistic_rho_prime(erm.matvec(X, beta_star))
            diff = diff - logistic_rho_prime(erm.matvec(X, fit.beta_hat))
            metrics["rho_diff"] = erm.dots(diff, diff) / n
        return metrics


SPECS = {
    spec.name: spec
    for spec in (
        ModelSpec("huber_objective", "huber", "objective"),
        ModelSpec("huber_output", "huber", "output"),
        ModelSpec("logistic_objective", "logistic", "objective"),
        ModelSpec("logistic_output", "logistic", "output"),
        ModelSpec("huber_dpsgd_ce", "huber", "dpsgd"),
        ModelSpec("logistic_dpsgd_ce", "logistic", "dpsgd"),
    )
}


def get(model: str) -> ModelSpec:
    try:
        return SPECS[model]
    except KeyError:
        raise ConfigError(f"unknown model {model!r}; available: {', '.join(SPECS)}") from None

