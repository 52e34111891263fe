"""Finite-sample learner tests: optimizer certificates, determinism, and
closed-form cross-checks."""

import numpy as np
import pytest

from propdp.erm import (
    GRADIENT_TOL_SCALE,
    Dataset,
    _minimize,
    fit_objective_perturbation,
    fit_output_perturbation,
    run_noisy_gd,
)
from propdp.errors import ConfigError, NonConvergenceError
from propdp.laws import ScalarLaw
from propdp.losses import HuberCeLoss, HuberLoss, LogisticCeLoss, LogisticLoss
from propdp.rng import keys, stream
from support import gradient_descent_minimize, next_normals


def make_regression(seed=0, n=60, d=20, noise=0.2):
    gen = stream(seed, "erm-test-data")
    X = next_normals(gen, (n, d)) / np.sqrt(d)
    radius = float(np.linalg.norm(X, axis=1).max()) + 1e-9
    beta_star = next_normals(gen, d)
    y = X @ beta_star + noise * next_normals(gen, n)
    return Dataset(X, y, radius), beta_star


def make_classification(seed=0, n=60, d=20):
    gen = stream(seed, "erm-test-clf")
    X = next_normals(gen, (n, d)) / np.sqrt(d)
    radius = float(np.linalg.norm(X, axis=1).max()) + 1e-9
    beta_star = next_normals(gen, d)
    p = 1.0 / (1.0 + np.exp(-(X @ beta_star)))
    y = (gen.random(n) < p).astype(float)
    return Dataset(X, y, radius), beta_star


class TestDataset:
    def test_properties(self):
        data, _ = make_regression()
        assert data.n == 60
        assert data.d == 20

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            Dataset(np.zeros((3, 2)), np.zeros(4), 1.0)

    def test_non_finite(self):
        X = np.zeros((2, 2))
        with pytest.raises(ConfigError):
            Dataset(X, np.array([np.nan, 0.0]), 1.0)

    def test_radius_enforced(self):
        X = np.eye(3) * 2.0
        with pytest.raises(ConfigError):
            Dataset(X, np.zeros(3), 1.0)
        Dataset(X, np.zeros(3), 2.0)  # exact bound passes

    def test_stack_checks_every_replicate(self):
        # a stack of three replicates in which only the middle one is bad
        X, y = np.full((3, 4, 2), 0.5), np.zeros((3, 4))
        Dataset(X, y, 1.0)
        for row, value in ((2, np.nan), (3, 0.9)):
            bad = X.copy()
            bad[1, row, 0] = value
            with pytest.raises(ConfigError):
                Dataset(bad, y, 1.0)
        bad_y = y.copy()
        bad_y[1, 2] = np.inf
        with pytest.raises(ConfigError):
            Dataset(X, bad_y, 1.0)
        with pytest.raises(ConfigError):
            Dataset(X, np.zeros((3, 3)), 1.0)
        with pytest.raises(ConfigError):
            Dataset(np.zeros((0, 4, 2)), np.zeros((0, 4)), 1.0)


class TestObjectivePerturbation:
    def test_certificate(self):
        data, _ = make_regression()
        res = fit_objective_perturbation(data, HuberLoss(1.0), lam=0.7, nu=0.3, seed=5)
        assert res.grad_norm <= GRADIENT_TOL_SCALE * max(1.0, data.n)

    def test_stationarity_recomputed(self):
        data, _ = make_regression()
        loss = LogisticLoss()
        data_c, _ = make_classification()
        res = fit_objective_perturbation(data_c, loss, lam=0.5, nu=0.2, seed=9)
        grad = (
            data_c.X.T @ loss.gradients(data_c.X @ res.beta_hat, data_c.y)
            + 0.5 * res.beta_hat
            + 0.2 * res.xi
        )
        assert np.linalg.norm(grad) <= 1e-8 * max(1.0, data_c.n)

    def test_bitwise_deterministic(self):
        data, _ = make_regression()
        a = fit_objective_perturbation(data, HuberLoss(1.0), lam=0.7, nu=0.3, seed=5)
        b = fit_objective_perturbation(data, HuberLoss(1.0), lam=0.7, nu=0.3, seed=5)
        np.testing.assert_array_equal(a.beta_hat, b.beta_hat)
        np.testing.assert_array_equal(a.xi, b.xi)

    def test_seed_changes_draw(self):
        data, _ = make_regression()
        a = fit_objective_perturbation(data, HuberLoss(1.0), lam=0.7, nu=0.3, seed=5)
        b = fit_objective_perturbation(data, HuberLoss(1.0), lam=0.7, nu=0.3, seed=6)
        assert not np.array_equal(a.xi, b.xi)
        assert not np.array_equal(a.beta_hat, b.beta_hat)

    def test_beta_tilde_aliases_beta_hat(self):
        data, _ = make_regression()
        res = fit_objective_perturbation(data, HuberLoss(1.0), lam=0.7, nu=0.3, seed=5)
        np.testing.assert_array_equal(res.beta_hat, res.beta_tilde)

    def test_validation(self):
        data, _ = make_regression()
        with pytest.raises(ConfigError):
            fit_objective_perturbation(data, HuberLoss(1.0), lam=0.0, nu=0.1, seed=0)
        with pytest.raises(ConfigError):
            fit_objective_perturbation(data, HuberLoss(1.0), lam=1.0, nu=-0.1, seed=0)


class TestOutputPerturbation:
    def test_shift_identity_exact(self):
        data, _ = make_regression()
        res = fit_output_perturbation(data, HuberLoss(1.0), lam=0.7, nu=0.4, seed=11)
        np.testing.assert_array_equal(res.beta_hat, res.beta_tilde + 0.4 * res.xi)

    def test_inner_solve_ignores_noise_level(self):
        data, _ = make_regression()
        a = fit_output_perturbation(data, HuberLoss(1.0), lam=0.7, nu=0.4, seed=11)
        b = fit_output_perturbation(data, HuberLoss(1.0), lam=0.7, nu=0.0, seed=12)
        np.testing.assert_array_equal(a.beta_tilde, b.beta_tilde)

    def test_matches_objective_perturbation_at_zero_noise(self):
        data, _ = make_regression()
        obj = fit_objective_perturbation(data, HuberLoss(1.0), lam=0.7, nu=0.0, seed=3)
        out = fit_output_perturbation(data, HuberLoss(1.0), lam=0.7, nu=0.0, seed=4)
        np.testing.assert_array_equal(obj.beta_hat, out.beta_tilde)


class TestRidgeClosedForm:
    def test_huge_clip_level_gives_ridge_solution(self):
        # with L far above every residual the Huber objective is exactly
        # least squares, so the minimizer solves (X'X + lam I) beta = X'y
        data, _ = make_regression(noise=0.1)
        lam = 0.9
        res = fit_output_perturbation(data, HuberLoss(1e6), lam=lam, nu=0.0, seed=0)
        direct = np.linalg.solve(
            data.X.T @ data.X + lam * np.eye(data.d), data.X.T @ data.y
        )
        np.testing.assert_allclose(res.beta_tilde, direct, atol=1e-7)

    def test_tilted_ridge_closed_form(self):
        data, _ = make_regression(noise=0.1)
        lam, nu = 0.9, 0.3
        res = fit_objective_perturbation(data, HuberLoss(1e6), lam=lam, nu=nu, seed=8)
        direct = np.linalg.solve(
            data.X.T @ data.X + lam * np.eye(data.d), data.X.T @ data.y - nu * res.xi
        )
        np.testing.assert_allclose(res.beta_hat, direct, atol=1e-7)


def perturbed_gradient(data, loss, lam, nu, xi, beta):
    return data.X.T @ loss.gradients(data.X @ beta, data.y) + lam * beta + nu * xi


class TestNewton:
    """The Newton learner against first-order gradient descent run to a
    tolerance 1000x tighter than the certificate."""

    SHAPES = {"d<n": (40, 10), "d=n": (30, 30), "d>n": (12, 60)}

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("mechanism", ["objective", "output"])
    @pytest.mark.parametrize("family", ["huber", "logistic"])
    def test_matches_gradient_descent(self, family, mechanism, shape):
        n, d = self.SHAPES[shape]
        if family == "huber":
            data, _ = make_regression(seed=4, n=n, d=d)
            loss = HuberLoss(0.5)  # residuals on both sides of the kink
        else:
            data, _ = make_classification(seed=4, n=n, d=d)
            loss = LogisticLoss()
        lam, nu = 0.8, 0.3
        fit_fn = fit_objective_perturbation if mechanism == "objective" else fit_output_perturbation
        fit = fit_fn(data, loss, lam=lam, nu=nu, seed=2)
        inner_nu, inner_xi = (nu, fit.xi) if mechanism == "objective" else (0.0, np.zeros(d))
        reference, ref_norm, _, _ = gradient_descent_minimize(
            data, loss, lam, inner_nu, inner_xi, tol_scale=1e-3 * GRADIENT_TOL_SCALE
        )
        grad = perturbed_gradient(data, loss, lam, inner_nu, inner_xi, fit.beta_tilde)
        assert fit.grad_norm == pytest.approx(np.linalg.norm(grad), rel=1e-6, abs=1e-14)
        assert fit.grad_norm <= GRADIENT_TOL_SCALE * n
        assert 1 <= fit.iterations <= 20
        gap = np.linalg.norm(fit.beta_tilde - reference)
        # lam-strong convexity bounds the distance between two near-minimizers
        assert gap <= (fit.grad_norm + ref_norm) / lam
        assert np.max(np.abs(fit.beta_tilde - reference)) <= 1e-8

    @pytest.mark.parametrize("shape", SHAPES)
    def test_huber_with_no_residual_in_the_quadratic_zone(self, shape):
        # with L tiny every residual is clipped: all curvatures are 0, the
        # Newton matrix is lam*I, and the objective is linear plus ridge
        n, d = self.SHAPES[shape]
        data, _ = make_regression(seed=6, n=n, d=d)
        loss = HuberLoss(1e-12)
        lam, nu = 0.5, 0.2
        xi = next_normals(stream(1, "tiny-L"), d)
        beta, norm, iterations = _minimize(data, loss, lam, nu, xi)
        assert not loss.curvatures(data.X @ beta, data.y).any()
        assert norm <= GRADIENT_TOL_SCALE * n
        assert 1 <= iterations <= 20
        reference, _, _, _ = gradient_descent_minimize(
            data, loss, lam, nu, xi, tol_scale=1e-3 * GRADIENT_TOL_SCALE
        )
        assert np.max(np.abs(beta - reference)) <= 1e-8

    def test_exact_start_takes_no_step(self):
        # at nu = 0 and y = 0 the Huber minimizer is beta = 0, the start
        data, _ = make_regression()
        zero = Dataset(data.X, np.zeros(data.n), data.feature_radius)
        beta, norm, iterations = _minimize(zero, HuberLoss(1.0), 0.5, 0.0, np.zeros(data.d))
        assert iterations == 0 and norm == 0.0
        np.testing.assert_array_equal(beta, np.zeros(data.d))

    @pytest.mark.parametrize("shape", ["d<n", "d>n"])
    @pytest.mark.parametrize("fit_fn", [fit_objective_perturbation, fit_output_perturbation])
    def test_fit_never_evaluates_the_loss(self, monkeypatch, fit_fn, shape):
        # the line search and the certificate both read ||grad F|| alone
        def refuse(self, margins, y):
            raise AssertionError("a fit evaluated the loss")

        monkeypatch.setattr(HuberLoss, "values", refuse)
        monkeypatch.setattr(LogisticLoss, "values", refuse)
        n, d = self.SHAPES[shape]
        regression, _ = make_regression(seed=3, n=n, d=d)
        classification, _ = make_classification(seed=3, n=n, d=d)
        for data, loss in [(regression, HuberLoss(0.5)), (classification, LogisticLoss())]:
            fit = fit_fn(data, loss, lam=0.8, nu=0.3, seed=2)
            assert fit.grad_norm <= GRADIENT_TOL_SCALE * n

    def test_large_labels_meet_the_relative_certificate(self):
        # at label scale 1e10 the rounding of X'g exceeds 1e-9*n; the
        # certificate is relative to the gradient at the zero start
        data, _ = make_regression(seed=5, n=40, d=20)
        y = 1e10 * next_normals(stream(5, "large-labels"), data.n)
        large = Dataset(data.X, y, data.feature_radius)
        loss, lam = HuberLoss(1e11), 0.5
        start = np.linalg.norm(large.X.T @ loss.gradients(np.zeros(large.n), y))
        assert start > large.n  # so the old bound 1e-9*n no longer governs
        beta, norm, iterations = _minimize(large, loss, lam, 0.0, np.zeros(large.d))
        assert norm <= GRADIENT_TOL_SCALE * max(1.0, large.n, start)
        grad = perturbed_gradient(large, loss, lam, 0.0, 0.0, beta)
        assert np.linalg.norm(grad) == pytest.approx(norm, rel=1e-12)
        assert 1 <= iterations <= 20

    @pytest.mark.parametrize(
        "limit, value, message",
        [("MAX_NEWTON_STEPS", 1, "iteration cap"), ("MAX_HALVINGS", 0, "line search stalled")],
    )
    def test_exhausted_budget_raises(self, monkeypatch, limit, value, message):
        import propdp.erm as erm

        monkeypatch.setattr(erm, limit, value)
        data, _ = make_classification()
        with pytest.raises(NonConvergenceError, match=message) as info:
            _minimize(data, LogisticLoss(), 0.5, 0.2, np.ones(data.d))
        assert info.value.residual > GRADIENT_TOL_SCALE * data.n
        assert info.value.last_iterate.shape == (data.d,)

    @pytest.mark.parametrize(
        "limit, value, iterations",
        [("MAX_NEWTON_STEPS", 2, 2), ("MAX_HALVINGS", 0, 0)],
    )
    def test_exhausted_budget_gives_its_iterations(self, monkeypatch, limit, value, iterations):
        import propdp.erm as erm

        monkeypatch.setattr(erm, limit, value)
        data, _ = make_classification()
        with pytest.raises(NonConvergenceError) as info:
            _minimize(data, LogisticLoss(), 0.5, 0.2, np.ones(data.d))
        assert info.value.iterations == iterations


def make_stack(family, n, d, seeds):
    """One replicate per seed, both as a dataset alone and as a row of a stack."""
    if family == "huber":
        parts = [make_regression(seed, n, d, noise=2.0)[0] for seed in seeds]
    else:  # features x 3: margins large enough that replicates differ in steps
        parts = [make_classification(seed, n, d)[0] for seed in seeds]
        parts = [Dataset(3.0 * part.X, part.y, 3.0 * part.feature_radius) for part in parts]
    radius = max(part.feature_radius for part in parts)
    parts = [Dataset(part.X, part.y, radius) for part in parts]
    stack = Dataset(np.stack([p.X for p in parts]), np.stack([p.y for p in parts]), radius)
    return stack, parts


class CountingHuber(HuberLoss):
    """A Huber loss that counts its gradient calls: a fit makes one at the
    start and one per trial step, so the rest beyond its steps are halvings."""

    calls = [0]

    def gradients(self, margins, y):
        self.calls[0] += 1
        return super().gradients(margins, y)


class TestStack:
    """A stack of replicates fits as one block; each row is the bits of that
    replicate's fit alone, whatever steps and halvings the others take."""

    SHAPES = {"d<n": (40, 10), "d>n": (12, 60)}
    SEEDS = range(8)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("mechanism", ["objective", "output"])
    @pytest.mark.parametrize("family", ["huber", "logistic"])
    def test_each_row_is_its_replicates_fit(self, family, mechanism, shape):
        stack, parts = make_stack(family, *self.SHAPES[shape], self.SEEDS)
        # at these settings the replicates of every stack differ in step counts
        loss, lam = (HuberLoss(0.3), 0.5) if family == "huber" else (LogisticLoss(), 0.1)
        fit_fn = fit_objective_perturbation if mechanism == "objective" else fit_output_perturbation
        seeds = [100 + seed for seed in self.SEEDS]
        block = fit_fn(stack, loss, lam=lam, nu=0.3, seed=seeds)
        assert block.grad_norm.shape == block.iterations.shape == (len(seeds),)
        singles = [fit_fn(part, loss, lam=lam, nu=0.3, seed=s) for part, s in zip(parts, seeds)]
        assert len({single.iterations for single in singles}) > 1
        for row, single in enumerate(singles):
            for field in ("beta_hat", "beta_tilde", "xi"):
                assert getattr(block, field)[row].tobytes() == getattr(single, field).tobytes()
            assert block.grad_norm[row].hex() == single.grad_norm.hex()
            assert block.iterations[row] == single.iterations
        # the (R, 2) keys of the perturbation streams stand for the seeds,
        # and a uint64 array of R seeds is seeds
        (xi_keys,) = keys((f"{mechanism}-perturbation-xi",), seeds)
        for given in (xi_keys, np.array(seeds, dtype=np.uint64)):
            keyed = fit_fn(stack, loss, lam=lam, nu=0.3, seed=given)
            assert keyed.beta_hat.tobytes() == block.beta_hat.tobytes()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_rows_differ_in_steps_and_halvings(self, shape):
        # the Huber stacks above mix replicates of different step and halving counts
        _, parts = make_stack("huber", *self.SHAPES[shape], self.SEEDS)
        counts = set()
        for seed, part in zip(self.SEEDS, parts):
            CountingHuber.calls[0] = 0
            fit = fit_objective_perturbation(part, CountingHuber(0.3), lam=0.5, nu=0.3, seed=seed)
            counts.add((fit.iterations, CountingHuber.calls[0] - 1 - fit.iterations))
        assert len({steps for steps, _ in counts}) > 1
        assert len({halvings for _, halvings in counts}) > 1

    @pytest.mark.parametrize(
        "shape, L, seeds",
        [
            # alone, these take 3, 4, 1 and 4 Newton steps
            ("d<n", 4.0, [9, 12, 0, 25]),
            # and these 3, 6, 1 and 5
            ("d>n", 0.5, [2, 4, 8, 0]),
        ],
    )
    def test_rows_stop_apart_and_past_the_cap(self, monkeypatch, shape, L, seeds):
        # rows 2 and 0 stop at steps 1 and 3, with none at step 2, while the
        # others run on; every row is its own fit's bits
        import propdp.erm as erm

        stack, parts = make_stack("huber", *self.SHAPES[shape], seeds)

        def fit(data, seed):
            return fit_objective_perturbation(data, HuberLoss(L), lam=0.5, nu=0.3, seed=seed)

        singles = [fit(part, seed) for part, seed in zip(parts, seeds)]
        assert [single.iterations for single in singles[::2]] == [3, 1]
        assert min(singles[1].iterations, singles[3].iterations) > 3
        block = fit(stack, seeds)
        for row, single in enumerate(singles):
            assert block.beta_hat[row].tobytes() == single.beta_hat.tobytes()
            assert block.grad_norm[row].hex() == single.grad_norm.hex()
            assert block.iterations[row] == single.iterations
        # capped at 3 steps, rows 0 and 2 still stop and rows 1 and 3 are
        # held past the cap: the stack raises row 1's own error
        monkeypatch.setattr(erm, "MAX_NEWTON_STEPS", 3)
        with pytest.raises(NonConvergenceError, match="iteration cap") as alone:
            fit(parts[1], seeds[1])
        with pytest.raises(NonConvergenceError) as info:
            fit(stack, seeds)
        raised, expected = info.value, alone.value
        assert str(raised) == str(expected) and raised.iterations == expected.iterations == 3
        assert raised.residual == expected.residual
        assert raised.last_iterate.tobytes() == expected.last_iterate.tobytes()

    def test_one_seed_per_replicate(self):
        stack, _ = make_stack("huber", 40, 10, self.SEEDS)
        for seed in ([1, 2], 3, keys(("objective-perturbation-xi",), [1, 2])[0]):
            with pytest.raises(ConfigError, match="one seed per replicate"):
                fit_objective_perturbation(stack, HuberLoss(0.3), lam=0.5, nu=0.3, seed=seed)

    @pytest.mark.parametrize(
        "shape, limits, seeds",
        [
            # row 1 stalls at its 5th step; row 2 stalls earlier, at its 1st
            ("d<n", {"MAX_HALVINGS": 1}, [1, 0, 6]),
            # rows 1 and 2 both hit the cap, with their own residuals
            ("d<n", {"MAX_NEWTON_STEPS": 4}, [2, 3, 0]),
            # row 1 hits the cap at 4 steps; row 2 stalls at its 2nd step
            ("d>n", {"MAX_HALVINGS": 1, "MAX_NEWTON_STEPS": 4}, [0, 4, 3]),
        ],
    )
    def test_raises_the_lowest_failing_replicates_error(self, monkeypatch, shape, limits, seeds):
        import propdp.erm as erm

        for limit, value in limits.items():
            monkeypatch.setattr(erm, limit, value)
        stack, parts = make_stack("huber", *self.SHAPES[shape], seeds)
        errors = []
        for part, seed in zip(parts, seeds):
            try:
                fit_objective_perturbation(part, HuberLoss(0.3), lam=0.5, nu=0.3, seed=seed)
            except NonConvergenceError as exc:
                errors.append(exc)
            else:
                errors.append(None)
        assert errors[0] is None and errors[1] is not None and errors[2] is not None
        assert errors[1].residual != errors[2].residual
        with pytest.raises(NonConvergenceError) as info:
            fit_objective_perturbation(stack, HuberLoss(0.3), lam=0.5, nu=0.3, seed=seeds)
        raised, expected = info.value, errors[1]
        assert str(raised) == str(expected)
        assert raised.residual == expected.residual
        assert raised.iterations == expected.iterations
        assert raised.last_iterate.tobytes() == expected.last_iterate.tobytes()


class TestNoisyGd:
    loss = HuberCeLoss(L=10.0, noise=ScalarLaw.gaussian(0.2))

    def make_margin_data(self, seed=0, n=50, d=25):
        gen = stream(seed, "erm-test-gd")
        X = next_normals(gen, (n, d)) / np.sqrt(d)
        radius = float(np.linalg.norm(X, axis=1).max()) + 1e-9
        beta_star = next_normals(gen, d)
        return Dataset(X, X @ beta_star, radius), beta_star

    def test_trajectory_shape_and_start(self):
        data, _ = self.make_margin_data()
        traj = run_noisy_gd(data, self.loss, step_size=0.3, nu=0.1, steps=4, seed=2)
        assert traj.shape == (5, data.d)
        np.testing.assert_array_equal(traj[0], np.zeros(data.d))

    def test_first_step_noise_free_closed_form(self):
        # from zero, margins are 0 and the huge-L gradient is -(y - 0), so
        # beta^1 = step * X'y exactly
        data, _ = self.make_margin_data()
        big = HuberCeLoss(L=1e6, noise=ScalarLaw.point_mass(0.0))
        traj = run_noisy_gd(data, big, step_size=0.3, nu=0.0, steps=1, seed=2)
        np.testing.assert_allclose(traj[1], 0.3 * (data.X.T @ data.y), rtol=1e-12)

    def test_bitwise_deterministic(self):
        data, _ = self.make_margin_data()
        a = run_noisy_gd(data, self.loss, step_size=0.3, nu=0.1, steps=3, seed=7)
        b = run_noisy_gd(data, self.loss, step_size=0.3, nu=0.1, steps=3, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_noise_level_shifts_trajectory(self):
        data, _ = self.make_margin_data()
        a = run_noisy_gd(data, self.loss, step_size=0.3, nu=0.0, steps=3, seed=7)
        b = run_noisy_gd(data, self.loss, step_size=0.3, nu=0.1, steps=3, seed=7)
        assert not np.array_equal(a[1], b[1])
        assert not np.array_equal(a[3], b[3])

    def test_logistic_ce_accepted(self):
        data, _ = self.make_margin_data()
        traj = run_noisy_gd(data, LogisticCeLoss(), step_size=0.3, nu=0.1, steps=2, seed=1)
        assert traj.shape == (3, data.d)

    def test_plain_losses_rejected(self):
        data, _ = self.make_margin_data()
        with pytest.raises(ConfigError):
            run_noisy_gd(data, HuberLoss(1.0), step_size=0.3, nu=0.0, steps=1, seed=0)

    def test_validation(self):
        data, _ = self.make_margin_data()
        with pytest.raises(ConfigError):
            run_noisy_gd(data, self.loss, step_size=0.0, nu=0.0, steps=1, seed=0)
        with pytest.raises(ConfigError):
            run_noisy_gd(data, self.loss, step_size=0.1, nu=-0.1, steps=1, seed=0)
        with pytest.raises(ConfigError):
            run_noisy_gd(data, self.loss, step_size=0.1, nu=0.0, steps=0, seed=0)

    def make_stack(self, replicates=3):
        parts = [self.make_margin_data(seed=seed, n=30, d=12)[0] for seed in range(replicates)]
        radius = max(part.feature_radius for part in parts)
        stack = Dataset(np.stack([p.X for p in parts]), np.stack([p.y for p in parts]), radius)
        return stack, parts

    @pytest.mark.parametrize("loss", [loss, LogisticCeLoss()], ids=["huber", "logistic"])
    def test_stack_matches_single_replicates(self, loss):
        # a replicate's iterates are the same bits alone or inside a block
        stack, parts = self.make_stack()
        seeds = [11, 12, 13]
        block = run_noisy_gd(stack, loss, step_size=0.3, nu=0.2, steps=3, seed=seeds)
        assert block.shape == (3, 4, 12)
        as_uint64 = np.array(seeds, dtype=np.uint64)  # seeds too
        uint64_block = run_noisy_gd(stack, loss, step_size=0.3, nu=0.2, steps=3, seed=as_uint64)
        assert uint64_block.tobytes() == block.tobytes()
        for part, seed, path in zip(parts, seeds, block):
            single = run_noisy_gd(part, loss, step_size=0.3, nu=0.2, steps=3, seed=seed)
            np.testing.assert_array_equal(path, single)

    @pytest.mark.parametrize("loss", [loss, LogisticCeLoss()], ids=["huber", "logistic"])
    def test_stack_matches_the_replicate_loop(self, loss):
        # the stacked products and the streams keyed in one pass give the
        # bits of the plain loop: per replicate and step, X @ beta, X' g and
        # its own (seed, "noisy-gd-xi", t) stream
        stack, parts = self.make_stack()
        seeds = [11, 2**32 - 1, 13]
        block = run_noisy_gd(stack, loss, step_size=0.3, nu=0.2, steps=3, seed=seeds)
        for part, seed, path in zip(parts, seeds, block):
            beta = np.zeros(part.d)
            for t in range(3):
                grad = part.X.T @ loss.gradients(part.X @ beta, part.y)
                grad = grad + 0.2 * next_normals(stream(seed, "noisy-gd-xi", t), part.d)
                beta = beta - 0.3 * grad
                np.testing.assert_array_equal(path[t + 1], beta)

    def test_stack_validation(self):
        stack, _ = self.make_stack()
        for seed in ([1, 2], 1):
            with pytest.raises(ConfigError, match="one seed per replicate"):
                run_noisy_gd(stack, self.loss, step_size=0.3, nu=0.1, steps=1, seed=seed)
        with pytest.raises(ConfigError):
            run_noisy_gd(stack, HuberLoss(1.0), step_size=0.3, nu=0.0, steps=1, seed=[1, 2, 3])
        for bad in ({"step_size": 0.0}, {"nu": -0.1}, {"steps": 0}):
            kwargs = {"step_size": 0.3, "nu": 0.1, "steps": 1, **bad}
            with pytest.raises(ConfigError):
                run_noisy_gd(stack, self.loss, seed=[1, 2, 3], **kwargs)
