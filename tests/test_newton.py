"""Damped-Newton multistart solver tests on systems with known roots."""

import numpy as np
import pytest

from propdp import newton
from propdp.errors import Failure, NonConvergenceError
from propdp.newton import (
    damped_newton,
    multistart_seeds,
    solve_with_multistart,
)
from support import enumerate_roots


def quad_root_at_2(x):
    # f(x) = x^2 - 4, positive root at 2
    return np.array([x[0] ** 2 - 4.0]), np.array([[2.0 * x[0]]])


def coupled_system(x):
    # root at (1, 2): a*b - 2 = 0, a + b - 3 = 0 (also root (2, 1))
    return np.array([x[0] * x[1] - 2.0, x[0] + x[1] - 3.0]), np.array([[x[1], x[0]], [1.0, 1.0]])


def no_real_root(x):
    # x^2 + 1 = 0 has no real root
    return np.array([x[0] ** 2 + 1.0]), np.array([[2.0 * x[0]]])


class TestDampedNewton:
    def test_scalar_root(self):
        res = damped_newton(quad_root_at_2, np.array([5.0]))
        assert res.x[0] == pytest.approx(2.0, abs=1e-10)
        assert res.residual_norm <= 1e-11

    def test_coupled_root(self):
        res = damped_newton(coupled_system, np.array([0.5, 2.5]))
        assert sorted(res.x) == pytest.approx([1.0, 2.0], abs=1e-9)

    def test_positive_constraint_respected(self):
        # with positive=True the iterates never cross zero, so the solver
        # lands on the positive root even when Newton points at the negative one
        res = damped_newton(quad_root_at_2, np.array([0.1]))
        assert res.x[0] == pytest.approx(2.0, abs=1e-9)

    def test_nonconvergence_raises_with_iterate(self):
        # no root: x^2 + 1 = 0 over the reals
        with pytest.raises(NonConvergenceError) as exc_info:
            damped_newton(no_real_root, np.array([1.0]))
        assert exc_info.value.last_iterate is not None
        assert exc_info.value.residual is not None and exc_info.value.residual > 0

    def test_stall_reports_its_iterations(self):
        # the residual falls 1, 1/2, 1/3, 1/4 and then stays: three Newton
        # steps are taken before the line search stalls
        evaluations = []

        def f(x):
            evaluations.append(x)
            return np.array([max(1.0 / len(evaluations), 0.25)]), np.eye(1)

        with pytest.raises(NonConvergenceError, match="stalled") as exc_info:
            damped_newton(f, np.array([10.0]))
        assert exc_info.value.iterations == 3
        assert Failure.of(exc_info.value).fields == {
            "error": "NonConvergenceError: newton: stalled at residual 2.500e-01",
            "residual": 0.25,
            "iterations": 3,
        }

    def test_iteration_cap_and_bad_start_report_their_iterations(self):
        evaluations = []

        def f(x):  # falls at every step, but stays above 1
            evaluations.append(x)
            return np.array([1.0 + 1.0 / len(evaluations)]), np.eye(1)

        with pytest.raises(NonConvergenceError, match="after 200 iterations") as exc_info:
            damped_newton(f, np.array([1e6]))
        assert exc_info.value.iterations == 200
        with pytest.raises(NonConvergenceError, match="non-finite") as exc_info:
            damped_newton(lambda x: (np.array([np.nan]), np.eye(1)), np.array([1.0]))
        assert exc_info.value.iterations == 0

    def test_converged_start_reports_a_finite_condition_number(self):
        res = damped_newton(quad_root_at_2, np.array([2.0]))
        assert res.iterations == 0
        assert res.condition_number == pytest.approx(1.0)  # J = [[4]]

    def test_condition_number_is_taken_at_the_returned_iterate(self):
        res = damped_newton(coupled_system, np.array([0.5, 2.5]))
        J = coupled_system(res.x)[1]
        assert res.iterations > 0
        assert res.condition_number == np.linalg.cond(J)

    def test_tolerance_honored(self):
        res = damped_newton(quad_root_at_2, np.array([3.0]), tol=1e-13)
        assert res.residual_norm <= 1e-13

    @pytest.mark.parametrize("bad", ["residual", "jacobian"])
    def test_nonfinite_start_raises_nonconvergence(self, bad):
        def f(x):
            F, J = np.array([np.nan]), np.array([[1.0]])
            return (F, J) if bad == "residual" else (np.array([1.0]), J * np.nan)

        with pytest.raises(NonConvergenceError) as exc_info:
            damped_newton(f, np.array([1.0]))
        assert exc_info.value.last_iterate is not None

    def test_nonfinite_candidate_is_rejected(self):
        # the full step lands where the residual is NaN; halving recovers
        def f(x):
            F, J = quad_root_at_2(x)
            return (F * np.nan, J) if x[0] > 10.0 else (F, J)

        res = damped_newton(f, np.array([0.1]))
        assert res.x[0] == pytest.approx(2.0, abs=1e-9)


class TestMultistart:
    def test_seed_layout(self):
        seeds = multistart_seeds(2)
        assert len(seeds) == 8
        assert seeds[0] == pytest.approx([1e-2, 1e-2])
        assert seeds[-1] == pytest.approx([1e2, 1e2])
        assert all(s.shape == (2,) for s in seeds)

    def test_recovers_from_bad_start(self):
        # start far in the flat region; restarts find the root
        res = solve_with_multistart(quad_root_at_2, np.array([1e6]))
        assert res.x[0] == pytest.approx(2.0, abs=1e-9)

    def test_nonfinite_start_moves_to_next_seed(self):
        def f(x):
            F, J = quad_root_at_2(x)
            return (F * np.nan, J) if x[0] > 1e3 else (F, J)

        res = solve_with_multistart(f, np.array([1e6]))
        assert res.x[0] == pytest.approx(2.0, abs=1e-9)

    def test_propagates_best_failure(self):
        with pytest.raises(NonConvergenceError):
            solve_with_multistart(no_real_root, np.array([1.0]))

    def test_converging_start_builds_no_seeds(self, monkeypatch):
        def no_seeds(k):
            raise AssertionError("restart seeds built for a start that converges")

        monkeypatch.setattr(newton, "multistart_seeds", no_seeds)
        res = solve_with_multistart(coupled_system, np.array([0.5, 2.5]))
        assert sorted(res.x) == pytest.approx([1.0, 2.0], abs=1e-9)

    def test_failed_start_tries_every_seed_in_order(self, monkeypatch):
        # x0 first, then the seeds from 1e-2 up; the failure with the least
        # residual is raised, the earliest of equals
        starts, failures = [], []

        def recording(f, x0):
            starts.append(x0.tolist())
            try:
                return damped_newton(f, x0)
            except NonConvergenceError as exc:
                failures.append(exc)
                raise

        monkeypatch.setattr(newton, "damped_newton", recording)
        with pytest.raises(NonConvergenceError) as raised:
            solve_with_multistart(no_real_root, np.array([1.0]))
        assert starts == [[1.0]] + [seed.tolist() for seed in multistart_seeds(1)]
        least = min(exc.residual for exc in failures)
        assert raised.value is next(exc for exc in failures if exc.residual == least)


class TestEnumerateRoots:
    def test_finds_both_roots(self):
        roots = enumerate_roots(coupled_system, np.array([0.5, 2.5]))
        points = sorted(tuple(np.round(r.x, 6)) for r in roots)
        assert (1.0, 2.0) in points
        assert (2.0, 1.0) in points

    def test_deduplicates(self):
        roots = enumerate_roots(quad_root_at_2, np.array([5.0]))
        assert len(roots) == 1
        assert roots[0].x[0] == pytest.approx(2.0, abs=1e-9)
