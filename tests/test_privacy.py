"""Privacy-accounting tests.

High-precision frozen constants come from oracles/oracle_privacy.py (mpmath,
40 digits) and oracles/oracle_hockey_stick.py (scipy quadrature of the
divergence integrand).  The numeric hockey-stick oracle is also reproduced
in-test for a grid sweep.
"""

import math

import mpmath
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from propdp.errors import ConfigError, NumericError
from propdp.privacy import (
    GlmSensitivity,
    PrivacyReport,
    _clamped_delta,
    build_report,
    default_alpha_grid,
    dpsgd_zcdp,
    gaussian_mechanism_zcdp,
    hockey_stick,
    log_ndtr,
    objective_perturbation_delta,
    objective_perturbation_nu_for_zcdp,
    objective_perturbation_rdp,
    objective_perturbation_zcdp,
    output_perturbation_delta,
    output_perturbation_nu_for_zcdp,
    output_perturbation_zcdp,
)


def numeric_hockey_stick(eps: float, r: float) -> float:
    """Direct quadrature of int max(0, pdf(x; r, 1) - e^eps pdf(x; 0, 1)) dx."""
    crossing = eps / r + r / 2.0  # where the likelihood ratio equals e^eps
    val, err = quad(
        lambda x: norm.pdf(x, loc=r) - math.exp(eps) * norm.pdf(x),
        crossing,
        crossing + 60.0,
        epsabs=1e-12,
        limit=300,
    )
    # quad refines until its error estimate clears epsabs; keep the oracle's
    # certified error three orders below the 1e-6 comparison tolerance
    assert err < 1e-9
    return val


class TestGlmSensitivity:
    def test_huber_factory(self):
        g = GlmSensitivity.huber(2.5, 1.5)
        assert g.lipschitz == 2.5
        assert g.smoothness == 1.0
        assert g.feature_radius == 1.5
        assert g.scaled_lipschitz == pytest.approx(3.75)
        assert g.scaled_smoothness == pytest.approx(2.25)

    def test_logistic_factory(self):
        g = GlmSensitivity.logistic()
        assert g.lipschitz == 1.0
        assert g.smoothness == 0.25
        assert g.feature_radius == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            GlmSensitivity(0.0, 1.0)
        with pytest.raises(ConfigError):
            GlmSensitivity(1.0, 1.0, -2.0)


class TestLogNdtr:
    @staticmethod
    def exact(x: float) -> float:
        with mpmath.workdps(40):
            return float(mpmath.log(mpmath.ncdf(mpmath.mpf(x))))

    @pytest.mark.parametrize("x", [
        -19.0, -19.999, -20.0, math.nextafter(-20.0, -21.0), -20.001, -21.0,
        -0.0, -0.5, -1.0, -5.0, -10.0, -37.5, -40.0, -1e3, -1e5, -1e8,
    ])
    def test_matches_mpmath_on_both_sides_of_the_series_seam(self, x):
        assert log_ndtr(x) == pytest.approx(self.exact(x), rel=1e-15)

    def test_nan_and_infinity(self):
        assert math.isnan(log_ndtr(math.nan))
        assert log_ndtr(-math.inf) == -math.inf


class TestHockeyStick:
    def test_frozen_values(self):
        # frozen from oracles/oracle_hockey_stick.py (scipy quad) and
        # oracles/oracle_privacy.py (mpmath: (0,1) equals 2*Phi(1/2) - 1)
        assert hockey_stick(0.0, 1.0) == pytest.approx(0.382924922548026207, abs=1e-12)
        assert hockey_stick(1.0, 1.0) == pytest.approx(0.126936737506643946, abs=1e-12)
        assert hockey_stick(1.0, 2.0) == pytest.approx(0.5098616600546703, abs=1e-9)
        assert hockey_stick(2.0, 0.5) == pytest.approx(9.439168634947243e-06, rel=1e-6)
        assert hockey_stick(0.5, 3.0) == pytest.approx(0.8299958099476904, abs=1e-9)
        assert hockey_stick(4.0, 1.0) == pytest.approx(4.712241200793118e-05, rel=1e-6)

    def test_against_numeric_oracle_grid(self):
        # 20-point sweep, closed form within 1e-6 of direct quadrature
        for eps in (0.0, 0.25, 0.5, 1.0, 2.0):
            for r in (0.25, 1.0, 2.0, 4.0):
                assert hockey_stick(eps, r) == pytest.approx(
                    numeric_hockey_stick(eps, r), abs=1e-6
                ), (eps, r)

    def test_monotone(self):
        eps_grid = [0.0, 0.5, 1.0, 2.0, 4.0]
        vals = [hockey_stick(e, 1.0) for e in eps_grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        r_grid = [0.25, 0.5, 1.0, 2.0, 4.0]
        vals = [hockey_stick(1.0, r) for r in r_grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_range(self):
        assert 0.0 <= hockey_stick(50.0, 0.1) <= 1.0
        assert hockey_stick(0.0, 60.0) == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            hockey_stick(-0.1, 1.0)
        with pytest.raises(ConfigError):
            hockey_stick(1.0, 0.0)


class TestGaussianMechanism:
    def test_zcdp_value(self):
        assert gaussian_mechanism_zcdp(2.0, 0.5) == pytest.approx(8.0, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ConfigError):
            gaussian_mechanism_zcdp(0.0, 1.0)
        with pytest.raises(ConfigError):
            gaussian_mechanism_zcdp(1.0, 0.0)


class TestObjectivePerturbation:
    unit = GlmSensitivity(1.0, 1.0, 1.0)

    def test_zcdp_frozen(self):
        # frozen from oracles/oracle_privacy.py (mpmath 40 digits):
        # log(2) + 1/2 + sqrt(2/pi)
        assert objective_perturbation_zcdp(self.unit, 1.0, 1.0) == pytest.approx(
            1.99103174136281067, abs=1e-13
        )

    def test_rdp_frozen(self):
        # frozen from oracles/oracle_privacy.py
        assert objective_perturbation_rdp(2.0, self.unit, 1.0, 1.0) == pytest.approx(
            2.21354058209644073, abs=1e-13
        )
        assert objective_perturbation_rdp(1.5, self.unit, 1.0, 1.0) == pytest.approx(
            2.09154871110252314, abs=1e-13
        )

    def test_rdp_divided_by_alpha_below_zcdp(self):
        for lam, nu in [(1.0, 1.0), (0.5, 2.0), (3.0, 0.7)]:
            rho = objective_perturbation_zcdp(self.unit, lam, nu)
            for alpha in default_alpha_grid()[1:]:  # grid starts at alpha > 1
                eps = objective_perturbation_rdp(alpha, self.unit, lam, nu)
                assert eps / alpha <= rho + 1e-12

    def test_rdp_alpha_limit_is_zcdp(self):
        # eps(alpha)/alpha -> zCDP as alpha -> 1+
        rho = objective_perturbation_zcdp(self.unit, 1.0, 1.0)
        eps = objective_perturbation_rdp(1.0 + 1e-7, self.unit, 1.0, 1.0)
        assert eps / (1.0 + 1e-7) == pytest.approx(rho, abs=1e-5)

    def test_delta_continuous_across_branch_seam(self):
        # the two-branch delta formula must agree where the shifted budget
        # crosses zero: eps_seam = log(1 + s R^2/lam) + (L R)^2 / (2 nu^2)
        for lam, nu in [(1.0, 1.0), (0.3, 0.8), (2.0, 2.5)]:
            seam = math.log1p(self.unit.scaled_smoothness / lam) + self.unit.scaled_lipschitz**2 / (
                2.0 * nu**2
            )
            below = objective_perturbation_delta(seam - 1e-12, self.unit, lam, nu)
            above = objective_perturbation_delta(seam + 1e-12, self.unit, lam, nu)
            assert abs(above - below) <= 1e-10

    def test_delta_monotone_in_epsilon(self):
        vals = [objective_perturbation_delta(e, self.unit, 1.0, 1.0) for e in (0.0, 1.0, 2.0, 4.0, 8.0)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_validation(self):
        with pytest.raises(ConfigError):
            objective_perturbation_delta(-1.0, self.unit, 1.0, 1.0)
        with pytest.raises(ConfigError):
            objective_perturbation_delta(1.0, self.unit, 0.0, 1.0)
        with pytest.raises(ConfigError):
            objective_perturbation_rdp(1.0, self.unit, 1.0, 1.0)


class TestOutputPerturbation:
    glm = GlmSensitivity.huber(2.0, 1.0)

    def test_delta_is_gaussian_hockey_stick(self):
        # sensitivity of the exact minimizer is L R / lam
        lam, nu = 0.5, 1.5
        assert output_perturbation_delta(1.0, self.glm, lam, nu) == pytest.approx(
            hockey_stick(1.0, 2.0 / (0.5 * 1.5)), rel=1e-15
        )

    def test_zcdp(self):
        assert output_perturbation_zcdp(self.glm, 0.5, 1.5) == pytest.approx(
            (2.0 / 0.5) ** 2 / (2 * 1.5**2), rel=1e-15
        )


class TestDpsgd:
    def test_linear_in_steps_exactly(self):
        glm = GlmSensitivity.huber(2.0, 1.0)
        one = dpsgd_zcdp(1, glm, 0.5)
        for T in range(1, 20):
            assert dpsgd_zcdp(T, glm, 0.5) == T * one  # exact float equality

    def test_frozen_value(self):
        # frozen from oracles/oracle_privacy.py: 7 * 2^2 / (2 * 0.25) = 56
        assert dpsgd_zcdp(7, GlmSensitivity.huber(2.0, 1.0), 0.5) == pytest.approx(56.0, abs=0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            dpsgd_zcdp(0, GlmSensitivity.logistic(), 1.0)


class TestCalibration:
    def test_output_round_trip(self):
        glm = GlmSensitivity.logistic(1.3)
        for rho in (0.25, 1.0, 4.0):
            nu = output_perturbation_nu_for_zcdp(glm, 0.7, rho)
            assert output_perturbation_zcdp(glm, 0.7, nu) == pytest.approx(rho, rel=1e-12)

    def test_objective_round_trip(self):
        glm = GlmSensitivity.huber(1.0, 1.0)
        for rho in (1.0, 2.0, 10.0):
            nu = objective_perturbation_nu_for_zcdp(glm, 1.0, rho)
            assert objective_perturbation_zcdp(glm, 1.0, nu) == pytest.approx(rho, rel=1e-12)

    def test_objective_infeasible_target(self):
        glm = GlmSensitivity.huber(1.0, 1.0)
        floor = math.log1p(glm.scaled_smoothness / 0.01)
        with pytest.raises(ConfigError):
            objective_perturbation_nu_for_zcdp(glm, 0.01, floor * 0.5)


class TestReport:
    def test_objective_report(self):
        rep = build_report("objective", GlmSensitivity.huber(1.0), lam=1.0, nu=1.0)
        assert rep.mechanism == "objective"
        assert 0.0 <= rep.delta <= 1.0
        assert rep.zcdp_rho == pytest.approx(1.99103174136281067, abs=1e-12)
        assert len(rep.rdp_curve) == len(default_alpha_grid())

    def test_output_report_curve_is_linear(self):
        rep = build_report("output", GlmSensitivity.logistic(), lam=0.5, nu=2.0)
        for alpha, eps in rep.rdp_curve:
            assert eps == pytest.approx(alpha * rep.zcdp_rho, rel=1e-15)

    def test_dpsgd_report(self):
        rep = build_report("dpsgd", GlmSensitivity.logistic(), nu=4.0, T=10, epsilon=2.0)
        assert rep.zcdp_rho == pytest.approx(10 * 1.0 / 32.0, rel=1e-15)
        assert 0.0 <= rep.delta <= 1.0

    def test_one_dpsgd_step_is_output_perturbation_at_unit_lambda(self):
        glm = GlmSensitivity.huber(1.5, 2.0)
        for nu, epsilon in [(1.0, 1.0), (0.5, 1.0), (3.0, 0.2)]:
            dpsgd = build_report("dpsgd", glm, nu=nu, T=1, epsilon=epsilon)
            output = build_report("output", glm, lam=1.0, nu=nu, epsilon=epsilon)
            assert dpsgd.delta == output.delta

    def test_dpsgd_delta_is_the_composed_gaussian_mechanism(self):
        # T steps of ratio LR/nu compose to one Gaussian mechanism of ratio
        # sqrt(T)*LR/nu, which is tight, so it never exceeds the delta read
        # off the RDP curve through the order-alpha conversion
        glm = GlmSensitivity.logistic(1.5)
        for nu, epsilon in [(4.0, 2.0), (1.0, 1.0), (2.0, 5.0)]:
            rep = build_report("dpsgd", glm, nu=nu, T=10, epsilon=epsilon)
            exact = hockey_stick(epsilon, math.sqrt(10) * 1.5 / nu)
            assert rep.delta == exact
            inverted = min(
                (math.exp(-(a - 1.0) * (epsilon - e)) for a, e in rep.rdp_curve if epsilon > e),
                default=1.0,
            )
            assert rep.delta <= min(1.0, inverted)

    def test_unknown_mechanism(self):
        with pytest.raises(ConfigError):
            build_report("shuffle", GlmSensitivity.logistic(), lam=1.0, nu=1.0)

    def test_report_invariant_enforced(self):
        with pytest.raises(ValueError):
            PrivacyReport("x", 1.0, 0.5, ((2.0, 10.0),), 1.0)
        with pytest.raises(ValueError):
            PrivacyReport("x", 1.0, 1.5, (), 1.0)

    def test_report_invariant_tolerance_is_relative(self):
        # at rho ~ 1e33 one rounding step of eps/alpha exceeds any absolute 1e-12
        rho = 1.4219775458382298e33
        PrivacyReport("x", 0.0, 1.0, ((1.01, 1.01 * rho * (1 + 4e-16)),), rho)
        with pytest.raises(ValueError):
            PrivacyReport("x", 0.0, 1.0, ((1.01, 1.01 * rho * (1 + 1e-9)),), rho)

    def test_nan_delta_is_a_numeric_error(self):
        # max(0.0, nan) is 0.0, which would read as perfect privacy
        with pytest.raises(NumericError):
            _clamped_delta(float("nan"), "x")
        assert _clamped_delta(1.5, "x") == 1.0
        assert _clamped_delta(-0.5, "x") == 0.0
