"""In-memory tracing of propdp's layers, installed from outside the package.

Wrappers replace the module (or class) attributes through which the package
calls each layer, so ``harness`` calling ``erm.fit_objective_perturbation``
or ``logistic_theory`` calling its imported ``prox_logistic`` goes through a
wrapper.  Three kinds of wrapper:

- span: records (name, start, end, parent index, self time).  Self time is
  the duration minus the time covered by child spans and timed leaves.
- timed leaf: accumulates calls and time without storing a record; used for
  calls made thousands of times per second (streams, law parsing).
- counter: counts calls only; used for the per-iteration hot calls (loss
  gradients and values, Box-Muller draws) where even a clock read shows.

Nothing is wrapped until ``Tracer.install`` runs, and ``uninstall`` restores
every original attribute; ``installed_wrappers`` lets the untraced run prove
that no wrapper is left in place.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

_MARK = "_propdp_bench_wrapper"


def _targets():
    """(owner, attribute, kind, name) for every wrapped call site."""
    from propdp import (
        cli, erm, figures, harness, huber_theory, logistic_theory, losses, newton,
        privacy, rng, state_evolution,
    )

    spans = [
        (cli, "main", "cli.main"),
        (figures.FigureSpec, "theory_rows", "figures.theory_rows"),
        (harness, "solve_theory", "harness.solve_theory"),
        (harness, "_run_cell", "harness.cell"),
        (harness, "summarize", "harness.summarize"),
        (huber_theory, "solve_huber_system", "huber_theory.solve"),
        (huber_theory, "system_residual", "huber_theory.system_residual"),
        (logistic_theory, "solve_logistic_system", "logistic_theory.solve"),
        (logistic_theory, "system_residual", "logistic_theory.system_residual"),
        (logistic_theory, "prox_logistic", "scalars.prox_logistic"),
        (newton, "solve_with_multistart", "newton.solve"),
        (newton, "damped_newton", "newton.damped_newton"),
        (state_evolution, "state_evolution_huber", "state_evolution.solve"),
        (state_evolution, "state_evolution_logistic", "state_evolution.solve"),
        (erm, "fit_objective_perturbation", "erm.fit"),
        (erm, "fit_output_perturbation", "erm.fit"),
        (erm, "run_noisy_gd", "erm.noisy_gd"),
    ]
    leaves = [
        (erm.Dataset, "__post_init__", "erm.dataset"),
        (privacy, "objective_perturbation_nu_for_zcdp", "privacy.calibration"),
        (privacy, "output_perturbation_nu_for_zcdp", "privacy.calibration"),
    ]
    leaves += [(m, "stream", "rng.stream") for m in (harness, erm, state_evolution)]
    leaves += [(m, "parse_law", "laws.parse_law") for m in (harness, cli, figures)]
    counters = [(m, "child_seed", "rng.child_seed") for m in (harness, figures)]
    counters += [
        (m, "box_muller", "rng.box_muller") for m in (harness, erm, state_evolution, rng)
    ]
    for cls in vars(losses).values():
        if isinstance(cls, type) and issubclass(cls, losses.MarginLoss):
            if cls is not losses.MarginLoss:
                counters.append((cls, "gradients", "losses.gradients"))
                counters.append((cls, "values", "losses.values"))
    return (
        [(o, a, "span", n) for o, a, n in spans]
        + [(o, a, "leaf", n) for o, a, n in leaves]
        + [(o, a, "counter", n) for o, a, n in counters]
    )


def installed_wrappers() -> list[str]:
    """Call sites that currently hold a tracing wrapper (empty when untraced)."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in _targets()
        if getattr(getattr(owner, attr), _MARK, False)
    ]


# Per-span extra samples: name -> function(args, result) -> (key, value).
_SAMPLES = {
    "scalars.prox_logistic": lambda args, result: ("points", int(getattr(args[0], "size", 1))),
    "huber_theory.solve": lambda args, result: ("iterations", result.iterations),
    "logistic_theory.solve": lambda args, result: ("iterations", result.iterations),
    "erm.fit": lambda args, result: ("iterations", result.iterations),
}


class Tracer:
    """Spans, timed leaves and counters for one traced cycle, kept in memory."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, self seconds)
        self.samples: dict = defaultdict(list)  # (span name, key) -> values
        self.calls: Counter = Counter()
        self.leaf_s: dict = defaultdict(float)
        self._stack: list = []  # [span index, seconds covered by children]
        self._originals: list = []

    # ---- wrappers --------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sample = _SAMPLES.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[frame[0]] = (name, start, end, parent, end - start - frame[1])
                if stack:
                    stack[-1][1] += end - start
            if sample is not None:
                key, value = sample(args, result)
                self.samples[name, key].append(value)
            return result

        return wrapper

    def _leaf(self, name, fn):
        stack, calls, leaf_s, clock = self._stack, self.calls, self.leaf_s, time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                calls[name] += 1
                leaf_s[name] += elapsed
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        make = {"span": self._span, "leaf": self._leaf, "counter": self._counter}
        for owner, attr, kind, name in _targets():
            original = getattr(owner, attr)
            wrapper = make[kind](name, original)
            setattr(wrapper, _MARK, True)
            setattr(owner, attr, wrapper)
            self._originals.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # ---- reduction ---------------------------------------------------------

    def self_seconds(self) -> dict:
        """Self time per span name, plus the time of each timed leaf."""
        totals = defaultdict(float, self.leaf_s)
        for name, _, _, _, self_s in self.spans:
            totals[name] += self_s
        return dict(totals)

    def layer_metrics(self) -> dict:
        """Per-layer metric values named as in BENCHMARK.json (no units)."""
        import numpy as np

        durations = defaultdict(list)
        self_s = defaultdict(float)
        for name, start, end, _, own in self.spans:
            durations[name].append(end - start)
            self_s[name] += own

        def count(name):
            return len(durations[name])

        def total(name):
            return float(sum(durations[name]))

        def mean(values):
            return float(np.mean(values)) if values else 0.0

        def per(numerator, denominator):
            return numerator / denominator if denominator else 0.0

        def pct_ms(name, q):
            values = durations[name]
            return float(np.percentile(values, q)) * 1e3 if values else 0.0

        points = int(sum(self.samples["scalars.prox_logistic", "points"]))
        return {
            "scalars.prox_logistic.calls": count("scalars.prox_logistic"),
            "scalars.prox_logistic.points": points,
            "scalars.prox_logistic.self_s": self_s["scalars.prox_logistic"],
            "scalars.prox_logistic.ns_per_point": per(
                self_s["scalars.prox_logistic"] * 1e9, points
            ),
            "logistic_theory.solves": count("logistic_theory.solve"),
            "logistic_theory.solve_s": total("logistic_theory.solve"),
            "logistic_theory.residual_evals_per_solve": per(
                count("logistic_theory.system_residual"), count("logistic_theory.solve")
            ),
            "logistic_theory.iterations_mean": mean(
                self.samples["logistic_theory.solve", "iterations"]
            ),
            "newton.starts": count("newton.damped_newton"),
            "newton.solves": count("newton.solve"),
            "huber_theory.solves": count("huber_theory.solve"),
            "huber_theory.solve_s": total("huber_theory.solve"),
            "huber_theory.residual_evals_per_solve": per(
                count("huber_theory.system_residual"), count("huber_theory.solve")
            ),
            "erm.fits": count("erm.fit"),
            "erm.fit_ms.p50": pct_ms("erm.fit", 50),
            "erm.fit_ms.p99": pct_ms("erm.fit", 99),
            "erm.iterations_mean": mean(self.samples["erm.fit", "iterations"]),
            "erm.dataset_s": self.leaf_s["erm.dataset"],
            "losses.gradient_evals": self.calls["losses.gradients"],
            "losses.value_evals": self.calls["losses.values"],
            "erm.noisy_gd_ms.p50": pct_ms("erm.noisy_gd", 50),
            "erm.noisy_gd_ms.p99": pct_ms("erm.noisy_gd", 99),
            "rng.stream.calls": self.calls["rng.stream"],
            "rng.stream.self_s": self.leaf_s["rng.stream"],
            "rng.child_seed.calls": self.calls["rng.child_seed"],
            "rng.box_muller.calls": self.calls["rng.box_muller"],
            "laws.parse_law.calls": self.calls["laws.parse_law"],
            "laws.parse_law.self_s": self.leaf_s["laws.parse_law"],
            "state_evolution.solves": count("state_evolution.solve"),
            "state_evolution.solve_s": total("state_evolution.solve"),
            "harness.solve_theory_s": total("harness.solve_theory"),
            "harness.cells": count("harness.cell"),
            "harness.cell_self_s": self_s["harness.cell"],
            "harness.summarize_s": total("harness.summarize"),
            "privacy.calibrations": self.calls["privacy.calibration"],
            "privacy.self_s": self.leaf_s["privacy.calibration"],
            "figures.theory_rows_s": total("figures.theory_rows"),
            "cli.self_s": self_s["cli.main"],
        }
