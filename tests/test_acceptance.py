"""Acceptance gate: the eight shipping criteria, one test each, run in order.

Each test finishes by printing a single CRITERION line; the pytest -v PASSED/
FAILED line per test is the authoritative record.  Tolerances are pinned in
the assertions and never derived from observed output at runtime; seeded
Monte-Carlo checks state the draw counts they use.
"""

import math
import os
import time

import numpy as np
import pytest

from propdp import erm, figures, huber_theory, logistic_theory, models, privacy, state_evolution
from propdp.harness import (
    ExperimentConfig,
    design_radius,
    gen_design,
    gen_linear_labels,
    gen_logistic_labels,
    gen_signal,
    run_experiment,
    summarize,
)
from propdp.laws import parse_law
from propdp.logistic_theory import _expectations
from propdp.losses import HuberCeLoss, HuberLoss, LogisticLoss
from propdp.rng import child_seed
from propdp.scalars import (
    clip,
    logistic_rho_prime,
    logistic_rho_second,
    prox_logistic,
)
from support import (
    loss_values, prox_huber, residual_interval_probability, system_residual_quadrature,
)

JOBS = min(4, os.cpu_count() or 1)

MC_DRAWS = 10_000_000
MC_CHUNK = 2_000_000


def sweep_failures(config, metrics, rel_tol):
    """Run one experiment sweep; list the grid points off theory by more than
    max(3 stderr, rel_tol * |theory|)."""
    points = run_experiment(config, jobs=JOBS)
    bad = []
    for row in summarize(points):
        if row["metric"] not in metrics:
            continue
        assert row["theory"] is not None, f"no theory at n={row['n']} d={row['d']}"
        gap = abs(row["empirical_mean"] - row["theory"])
        tol = max(3.0 * row["empirical_stderr"], rel_tol * abs(row["theory"]))
        if gap > tol:
            bad.append(
                f"nu={row['nu']} n={row['n']} d={row['d']} {row['metric']}: "
                f"|{row['empirical_mean']:.5f} - {row['theory']:.5f}| = {gap:.2e} > {tol:.2e}"
            )
    return bad


def test_criterion_1_huber_objective_figure():
    # L=10, kappa=1, noise std 0.2, rademacher, n*d=1000, lambda=1,
    # 100 replicates, nu in {0, 0.2}, ratio sweep 0.1..0.9; for every grid
    # point |mean - theory| <= max(3 stderr, 5% relative) on the estimation
    # error and the truncated residual
    started = time.perf_counter()
    bad = []
    for config in figures.get_figure("fig1").configs:
        bad += sweep_failures(config, ("estimation_error", "truncated_residual"), 0.05)
    elapsed = time.perf_counter() - started
    assert not bad, bad
    # the runtime envelope assumes at least four cores
    if (os.cpu_count() or 1) >= 4:
        assert elapsed < 300.0
    print(f"CRITERION 1: PASS — huber objective sweep within tolerance ({elapsed:.0f}s)")


def test_criterion_2_logistic_objective_figure():
    # kappa=1, lambda=1, nu in {0, 0.2}, 200 replicates; estimation error and
    # rho_diff within max(3 stderr, 7% relative) at every grid point
    bad = []
    for config in figures.get_figure("fig4").configs:
        assert config.replicates == 200
        bad += sweep_failures(config, ("estimation_error", "rho_diff"), 0.07)
    assert not bad, bad
    print("CRITERION 2: PASS — logistic objective sweep within tolerance")


def test_criterion_3_output_perturbation_figure():
    # theory identity: the nu=0.5 estimation-error curve is the nu=0 curve
    # plus exactly nu^2, checked to 1e-12 at all 41 ratios for both losses
    rows = figures.get_figure("fig5").theory_rows()
    curves = {}
    for row in rows:
        if row["metric"] == "estimation_error":
            curves[(row["label"], round(row["ratio"], 6))] = row["value"]
    for family in ("huber output", "logistic output"):
        checked = 0
        for ratio in figures.DENSE_RATIOS:
            key_private = (f"{family} nu=0.5", round(ratio, 6))
            key_base = (f"{family} nu=0", round(ratio, 6))
            if key_private in curves or key_base in curves:
                assert key_private in curves and key_base in curves
                assert curves[key_private] - curves[key_base] == pytest.approx(
                    0.25, abs=1e-12
                )
                checked += 1
        assert checked == len(figures.DENSE_RATIOS), f"{family}: only {checked} ratios"

    # empirical at nu=0.5, 100 replicates, figure-1 tolerance
    bad = []
    for config in figures.get_figure("fig5").configs:
        if config.nu != 0.5:
            continue
        assert config.replicates == 100
        bad += sweep_failures(config, ("estimation_error",), 0.05)
    assert not bad, bad
    print("CRITERION 3: PASS — output-perturbation shift identity and empirics hold")


def test_criterion_4_small_regularization_closed_forms():
    # at lambda=1e-4, L=1e3, delta=0.5, kappa=1, sigma_eps=0.2 the system
    # approaches the explicit small-lambda limits:
    #   sigma*^2 -> delta/(1-delta) sigma_eps^2 + delta/(1-delta)^2 nu^2
    #   truncated residual -> (1-delta) sigma_eps^2 + delta^2/(1-delta) nu^2
    signal = parse_law("gaussian:1")
    noise = parse_law("gaussian:0.2")
    for nu, var_target, resid_target in ((0.0, 0.04, 0.02), (0.2, 0.12, 0.04)):
        sol = huber_theory.solve_huber_system(0.5, 1e-4, nu, 1e3, signal, noise)
        preds = huber_theory.huber_predictions(sol)
        assert sol.sigma_star**2 == pytest.approx(var_target, rel=0.01)
        assert preds["truncated_residual"] == pytest.approx(resid_target, rel=0.01)
    print("CRITERION 4: PASS — small-lambda closed-form limits within 1%")


def _mc_mean(fn, seed, draws=MC_DRAWS, chunk=MC_CHUNK):
    """Chunked Monte-Carlo mean and standard error of fn(generator, size)."""
    gen = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    count = 0
    while count < draws:
        size = min(chunk, draws - count)
        vals = fn(gen, size)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        count += size
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0)
    return mean, math.sqrt(var / count)


def _logistic_mc(alpha, sigma, gamma, kappa, seed, draws=MC_DRAWS, chunk=MC_CHUNK):
    """10^7-draw Monte Carlo of the three logistic-system expectations."""
    gen = np.random.default_rng(seed)
    sums = np.zeros(3)
    sums_sq = np.zeros(3)
    count = 0
    while count < draws:
        size = min(chunk, draws - count)
        z1 = gen.standard_normal(size)
        z2 = gen.standard_normal(size)
        weight = 2.0 * logistic_rho_prime(-kappa * z1)
        p = prox_logistic(kappa * alpha * z1 + sigma * z2, gamma)
        rp = logistic_rho_prime(p)
        for k, vals in enumerate(
            (
                weight * rp * rp,
                2.0 * logistic_rho_second(-kappa * z1) * p,
                weight / (1.0 + gamma * logistic_rho_second(p)),
            )
        ):
            sums[k] += float(vals.sum())
            sums_sq[k] += float((vals * vals).sum())
        count += size
    means = sums / count
    stderrs = np.sqrt(np.maximum(sums_sq / count - means**2, 0.0) / count)
    return means, stderrs


@pytest.mark.slow
def test_criterion_5_fixed_point_integrity():
    # 50 random parameter draws per system: residual <= 1e-8 under the
    # solver's own rule and <= 1e-6 under a doubled-node independent rule;
    # every expectation in the equations matches a 10^7-draw MC within
    # 4 stderr (plus a 1e-9 floor for closed-form roundoff)
    rng = np.random.default_rng(20260815)

    for i in range(50):
        delta = float(rng.uniform(0.3, 3.0))
        lam = float(rng.uniform(0.05, 2.0))
        nu = float(rng.uniform(0.0, 0.5))
        L = float(rng.uniform(0.5, 5.0))
        kappa = float(rng.uniform(0.5, 1.5))
        s_eps = float(rng.uniform(0.05, 0.5))
        signal = parse_law(f"gaussian:{kappa}")
        noise = parse_law(f"gaussian:{s_eps}")
        sol = huber_theory.solve_huber_system(delta, lam, nu, L, signal, noise)
        params = dict(delta=delta, lam=lam, nu=nu, L=L, kappa_sq=kappa**2, noise=noise)
        r_own, _ = huber_theory.system_residual(sol.sigma_star, sol.tau_star, **params)
        r_dbl = system_residual_quadrature(
            sol.sigma_star, sol.tau_star, nodes=240, **params
        )
        assert np.abs(r_own).max() <= 1e-8, f"huber draw {i}: {r_own}"
        assert np.abs(r_dbl).max() <= 1e-6, f"huber draw {i}: {r_dbl}"

        s, t = sol.sigma_star, sol.tau_star

        def draw_clipped_sq(gen, size):
            r = (s * gen.standard_normal(size) + noise.sample(gen, size)) / (1.0 + t)
            return clip(r, L) ** 2

        def draw_inside(gen, size):
            r = (s * gen.standard_normal(size) + noise.sample(gen, size)) / (1.0 + t)
            return (np.abs(r) < L).astype(float)

        j2_mc, j2_se = _mc_mean(draw_clipped_sq, 51000 + i)
        p_mc, p_se = _mc_mean(draw_inside, 52000 + i)
        j2 = huber_theory.residual_second_moment(s, t, L, noise)
        prob = residual_interval_probability(s, t, L, noise)
        # when the exceedance probability is ~1e-8, all 1e7 indicator draws
        # land inside and the Wald stderr degenerates to 0; the score-test
        # stderr sqrt(p(1-p)/N) under the closed-form p stays valid there
        p_se_score = math.sqrt(max(prob * (1.0 - prob), 0.0) / MC_DRAWS)
        assert abs(j2 - j2_mc) <= 4.0 * j2_se + 1e-9, f"huber draw {i} second moment"
        assert abs(prob - p_mc) <= 4.0 * max(p_se, p_se_score) + 1e-9, (
            f"huber draw {i} interval prob"
        )

    for i in range(50):
        delta = float(rng.uniform(0.3, 3.0))
        lam = float(rng.uniform(0.1, 2.0))
        nu = float(rng.uniform(0.0, 0.4))
        kappa = float(rng.uniform(0.5, 1.5))
        sol = logistic_theory.solve_logistic_system(delta, lam, nu, kappa)
        a, s, g = sol.alpha_star, sol.sigma_star, sol.gamma_star
        params = dict(delta=delta, lam=lam, nu=nu, kappa=kappa)
        r_own, _ = logistic_theory.system_residual(a, s, g, **params)
        r_dbl, _ = logistic_theory.system_residual(a, s, g, nodes=160, **params)
        assert np.abs(r_own).max() <= 1e-8, f"logistic draw {i}: {r_own}"
        assert np.abs(r_dbl).max() <= 1e-6, f"logistic draw {i}: {r_dbl}"

        quad_vals, _ = _expectations(a, s, g, kappa, 80)
        mc_vals, mc_ses = _logistic_mc(a, s, g, kappa, 53000 + i)
        gaps = np.abs(quad_vals - mc_vals)
        assert np.all(gaps <= 4.0 * mc_ses + 1e-9), (
            f"logistic draw {i}: gaps={gaps} vs 4se={4 * mc_ses}"
        )

    print("CRITERION 5: PASS — 100 random systems re-verified by quadrature and MC")


def test_criterion_6_privacy_suite():
    from scipy.integrate import quad

    # (a) hockey_stick vs a numeric divergence oracle on a 20-point grid
    def numeric_hockey_stick(eps, r):
        # integrand is positive exactly above the likelihood-ratio crossing
        x0 = eps / r + r / 2.0
        inv = 1.0 / math.sqrt(2.0 * math.pi)
        val, err = quad(
            lambda x: inv * math.exp(-0.5 * (x - r) ** 2)
            - math.exp(eps) * inv * math.exp(-0.5 * x * x),
            x0, x0 + 60.0, limit=200, epsabs=1e-12,
        )
        assert err < 1e-9
        return val

    for eps in (0.0, 0.25, 0.5, 1.0, 2.0):
        for r in (0.25, 1.0, 2.0, 4.0):
            assert privacy.hockey_stick(eps, r) == pytest.approx(
                numeric_hockey_stick(eps, r), abs=1e-6
            )

    # (b) objective-perturbation delta is continuous across the eps_hat=0 seam
    for lam, nu in ((1.0, 1.0), (0.5, 0.3), (2.0, 2.0)):
        glm = privacy.GlmSensitivity.huber(1.0)
        seam = math.log1p(glm.scaled_smoothness / lam) + glm.scaled_lipschitz**2 / (
            2.0 * nu**2
        )
        below = privacy.objective_perturbation_delta(seam - 1e-12, glm, lam, nu)
        above = privacy.objective_perturbation_delta(seam + 1e-12, glm, lam, nu)
        assert abs(below - above) <= 1e-10

    # (c) RDP(alpha)/alpha <= zCDP rho over the whole default alpha grid
    for glm in (privacy.GlmSensitivity.huber(2.0), privacy.GlmSensitivity.logistic()):
        for lam, nu in ((1.0, 1.0), (0.3, 0.8), (2.0, 3.0)):
            rho = privacy.objective_perturbation_zcdp(glm, lam, nu)
            for alpha in privacy.default_alpha_grid():
                assert (
                    privacy.objective_perturbation_rdp(alpha, glm, lam, nu) / alpha
                    <= rho + 1e-12
                )

    # (d) noisy-GD zCDP is exactly linear in the step count
    glm = privacy.GlmSensitivity.huber(2.0)
    per_step = privacy.dpsgd_zcdp(1, glm, 0.7)
    for T in range(2, 9):
        assert privacy.dpsgd_zcdp(T, glm, 0.7) == T * per_step

    print("CRITERION 6: PASS — accountant matches oracle, seam continuous, "
          "RDP under zCDP, composition linear")


def test_criterion_7_state_evolution_vs_simulation():
    # T=3, step 0.5/(1+delta), delta=0.5, kappa=1, nu in {0, 0.1}; empirical
    # per-iterate estimation error over 10^4 replicates at n*d=1000 vs the
    # trace, within 3 combined (empirical + trace MC) standard errors.
    # Trace MC size 10^4 keeps its stderr comparable to the O(1/n)
    # finite-size gap at n*d=1000 (see the shipped numbers in README).
    signal = parse_law("gaussian:1")
    noise = parse_law("gaussian:0.2")
    worst = 0.0
    for model in ("huber_dpsgd_ce", "logistic_dpsgd_ce"):
        for nu in (0.0, 0.1):
            config = ExperimentConfig(
                model=model, design="rademacher", total=1000, ratios=(2.0 / 3.0,),
                signal="gaussian:1", noise="gaussian:0.2", L=10.0, lam=1.0,
                nu=nu, steps=3, replicates=10_000, mc_samples=10_000, seed=107,
            )
            (point,) = run_experiment(config, jobs=JOBS)
            n, d = config.grid_points()[0]
            delta = d / n
            seed = child_seed(config.seed, 0)
            if model == "huber_dpsgd_ce":
                trace = state_evolution.state_evolution_huber(
                    3, models.step_size_at(delta, config.step_size), nu, delta, signal, noise,
                    10.0, mc_samples=10_000, seed=seed,
                )
            else:
                trace = state_evolution.state_evolution_logistic(
                    3, models.step_size_at(delta, config.step_size), nu, delta, signal,
                    mc_samples=10_000, seed=seed,
                )
            # the harness served exactly this trace as the point's theory
            assert point.theory["estimation_error_t1"] == trace.mse[1]
            for t in (1, 2, 3):
                vals = np.array(
                    [empirical[f"estimation_error_t{t}"] for _, empirical, *_ in point.replicates]
                )
                stderr = vals.std(ddof=1) / math.sqrt(vals.size)
                combined = math.hypot(stderr, float(trace.mse_stderr[t]))
                z = abs(float(vals.mean()) - float(trace.mse[t])) / combined
                worst = max(worst, z)
                assert z <= 3.0, f"{model} nu={nu} t={t}: z={z:.2f}"

    # T=1 closed form (gamma/delta - 1)^2 kappa^2 + gamma^2 kappa^2 / delta
    # at nu=0, L=1e6, sigma_eps=0: with delta=0.5, gamma=1/3 the value is 1/3
    trace = state_evolution.state_evolution_huber(
        1, 0.5 / 1.5, 0.0, 0.5, signal, parse_law("point:0"), 1e6,
        mc_samples=100_000, seed=7,
    )
    gamma = 0.5 / 1.5
    target = (gamma / 0.5 - 1.0) ** 2 + gamma**2 / 0.5
    assert abs(trace.mse[1] - target) <= 4.0 * trace.mse_stderr[1] + 1e-9
    print(f"CRITERION 7: PASS — trace matches simulation (max |z| = {worst:.2f}) "
          "and the T=1 closed form")


def test_criterion_8_property_suite():
    gen = np.random.default_rng(8801)

    # (a) prox maps are nonexpansive
    x = 10.0 * gen.standard_normal(400)
    y = 10.0 * gen.standard_normal(400)
    for tau in (0.1, 1.0, 3.0):
        for L in (0.5, 2.0):
            d_prox = np.abs(prox_huber(x, tau, L) - prox_huber(y, tau, L))
            assert np.all(d_prox <= np.abs(x - y) + 1e-12)
        d_prox = np.abs(prox_logistic(x, tau) - prox_logistic(y, tau))
        assert np.all(d_prox <= np.abs(x - y) + 1e-10)

    # (b) Moreau decomposition at unit scale: prox_f(x) + prox_f*(x) = x.
    # Huber conjugate is u^2/2 on [-L, L], so prox_f*(x) = clip(x/2, L);
    # for the smooth logistic loss prox_f*(x) = rho'(prox_f(x)).
    grid = np.linspace(-30.0, 30.0, 601)
    for L in (0.5, 1.0, 3.0):
        np.testing.assert_allclose(
            prox_huber(grid, 1.0, L) + clip(grid / 2.0, L), grid, rtol=0, atol=1e-12
        )
    p = prox_logistic(grid, 1.0)
    np.testing.assert_allclose(p + logistic_rho_prime(p), grid, rtol=0, atol=1e-10)

    # (c) conditional-expectation Huber gradient vs finite differences
    h = 1e-6
    for law in (parse_law("gaussian:0.2"), parse_law("mix:0.6*gaussian:0.3,0.4*point:0.2")):
        loss = HuberCeLoss(2.0, law)
        margins = 3.0 * gen.standard_normal(60)
        labels = 3.0 * gen.standard_normal(60)
        fd = (loss_values(loss, margins - h, labels) - loss_values(loss, margins + h, labels)) / (
            2.0 * h
        )
        # values decrease in the residual direction; flip to margin direction
        assert np.abs(-fd - loss.gradients(margins, labels)).max() <= 1e-5

    # (d) optimizer certificate: reported and recomputed gradient norms are
    # at most 1e-8 * max(1, n) at the returned minimizer
    for seed in (11, 12, 13):
        X = gen_design(60, 30, "rademacher", seed)
        beta_star = gen_signal(30, parse_law("gaussian:1"), seed)
        radius = design_radius(X, "rademacher")
        tol = 1e-8 * 60.0

        y = gen_linear_labels(X, beta_star, parse_law("gaussian:0.2"), seed)
        data = erm.Dataset(X, y, radius)
        loss = HuberLoss(10.0)
        fit = erm.fit_objective_perturbation(data, loss, 1.0, 0.2, seed)
        assert fit.grad_norm <= tol
        grad = X.T @ loss.gradients(X @ fit.beta_hat, y) + fit.beta_hat + 0.2 * fit.xi
        assert float(np.linalg.norm(grad)) <= tol

        y = gen_logistic_labels(X, beta_star, seed)
        data = erm.Dataset(X, y, radius)
        loss = LogisticLoss()
        fit = erm.fit_output_perturbation(data, loss, 1.0, 0.5, seed)
        assert fit.grad_norm <= tol
        grad = X.T @ loss.gradients(X @ fit.beta_tilde, y) + fit.beta_tilde
        assert float(np.linalg.norm(grad)) <= tol

    # (e) bitwise seed determinism
    X = gen_design(40, 20, "rademacher", 21)
    beta_star = gen_signal(20, parse_law("gaussian:1"), 21)
    y = gen_linear_labels(X, beta_star, parse_law("gaussian:0.2"), 21)
    data = erm.Dataset(X, y, design_radius(X, "rademacher"))
    fit_a = erm.fit_objective_perturbation(data, HuberLoss(10.0), 1.0, 0.2, 21)
    fit_b = erm.fit_objective_perturbation(data, HuberLoss(10.0), 1.0, 0.2, 21)
    assert fit_a.beta_hat.tobytes() == fit_b.beta_hat.tobytes()
    assert fit_a.xi.tobytes() == fit_b.xi.tobytes()

    traj_a = erm.run_noisy_gd(data, HuberCeLoss(10.0, parse_law("gaussian:0.2")), 0.3, 0.1, 3, 22)
    traj_b = erm.run_noisy_gd(data, HuberCeLoss(10.0, parse_law("gaussian:0.2")), 0.3, 0.1, 3, 22)
    assert traj_a.tobytes() == traj_b.tobytes()

    trace_a = state_evolution.state_evolution_huber(
        2, 0.3, 0.1, 0.5, parse_law("gaussian:1"), parse_law("gaussian:0.2"),
        10.0, mc_samples=20_000, seed=23,
    )
    trace_b = state_evolution.state_evolution_huber(
        2, 0.3, 0.1, 0.5, parse_law("gaussian:1"), parse_law("gaussian:0.2"),
        10.0, mc_samples=20_000, seed=23,
    )
    assert trace_a.mse.tobytes() == trace_b.mse.tobytes()
    assert trace_a.c_g.tobytes() == trace_b.c_g.tobytes()

    config = ExperimentConfig(
        model="huber_objective", total=400, ratios=(0.5,), nu=0.2,
        replicates=3, seed=24,
    )
    runs = [
        [empirical for point in run_experiment(config) for _, empirical, *_ in point.replicates]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]

    print("CRITERION 8: PASS — prox, Moreau, gradient, certificate, and "
          "determinism properties hold")
