"""Noisy-GD state-evolution tests.

Reference values come from oracles/oracle_state_evolution.py: a direct
quadrature derivation of the first iterate's moments, and an exact linear-case
computation using frozen spectral moments of the Gram matrix (entries of X
have variance 1/d, d/n = delta).  Bias is exact in the linear case because
the gradient-slope scalars are constant there; mse carries the solve's
covariance-estimation noise, so those comparisons use loose tolerances.
"""

import math

import numpy as np
import pytest

from propdp.errors import ConfigError
from propdp.laws import ScalarLaw
from propdp.state_evolution import (
    MAX_STEPS,
    MIN_MC_SAMPLES,
    StateEvolutionTrace,
    state_evolution_huber,
    state_evolution_logistic,
)

G1 = ScalarLaw.gaussian(1.0)
NOISE_02 = ScalarLaw.gaussian(0.2)
EXACT_LINE = ScalarLaw.point_mass(0.0)


def gram_moment(j: int, delta: float) -> float:
    # spectral moments E[s^j] of X'X in the proportional regime, frozen from
    # oracles/oracle_state_evolution.py
    table = {
        0: 1.0,
        1: 1 / delta,
        2: (1 + delta) / delta**2,
        3: (1 + 3 * delta + delta**2) / delta**3,
        4: (1 + 6 * delta + 6 * delta**2 + delta**3) / delta**4,
        5: (1 + 10 * delta + 20 * delta**2 + 10 * delta**3 + delta**4) / delta**5,
        6: (1 + 15 * delta + 50 * delta**2 + 50 * delta**3 + 15 * delta**4 + delta**5) / delta**6,
    }
    return table[j]


def contraction_moment(k: int, gamma: float, delta: float) -> float:
    """E[(1 - gamma*s)^k] by binomial expansion over the spectral moments."""
    return sum(math.comb(k, j) * (-gamma) ** j * gram_moment(j, delta) for j in range(k + 1))


def exact_linear_trace(T: int, gamma: float, delta: float, nu: float):
    """Per-iterate (mse, bias) of noisy GD on exact linear labels, no clipping.

    beta^t - beta* = (I - gamma*S)^t (-beta*) - gamma*nu*sum_j (I - gamma*S)^j xi_j.
    """
    mse, bias = [], []
    for t in range(T + 1):
        noise_part = gamma**2 * nu**2 * sum(
            contraction_moment(2 * j, gamma, delta) for j in range(t)
        )
        mse.append(contraction_moment(2 * t, gamma, delta) + noise_part)
        bias.append(1.0 - contraction_moment(t, gamma, delta))
    return np.array(mse), np.array(bias)


class TestFirstIterateHuber:
    def test_frozen_bias_and_mse(self):
        # frozen from oracles/oracle_state_evolution.py (nested quadrature):
        # step=1/3, delta=0.5, noise std 0.2, L=10 -> clipping inactive, so
        # bias(1) = (step/delta) kappa^2 = 2/3 exactly and
        # mse(1) = (2/3 - 1)^2 + (step^2/delta) E[m^2] = 0.3333333333333515
        tr = state_evolution_huber(
            1, 1 / 3, 0.0, 0.5, G1, NOISE_02, 10.0, mc_samples=200_000, seed=42
        )
        assert tr.bias[1] == pytest.approx(0.6666666666666121, abs=1e-9)
        assert tr.mse[1] == pytest.approx(0.3333333333333515, abs=4e-3)
        assert tr.mse[0] == pytest.approx(1.0, abs=1e-12)
        assert tr.bias[0] == 0.0

    def test_frozen_private(self):
        tr = state_evolution_huber(
            1, 1 / 3, 0.1, 0.5, G1, NOISE_02, 10.0, mc_samples=200_000, seed=42
        )
        # frozen oracle value 0.33444444444446264
        assert tr.mse[1] == pytest.approx(0.33444444444446264, abs=4e-3)

    def test_noise_shift_is_exact_at_shared_seed(self):
        # with one step the kernels never see nu, so at the same seed
        # mse(1; nu) - mse(1; 0) = step^2 nu^2 to machine precision
        quiet = state_evolution_huber(
            1, 1 / 3, 0.0, 0.5, G1, NOISE_02, 10.0, mc_samples=50_000, seed=7
        )
        loud = state_evolution_huber(
            1, 1 / 3, 0.1, 0.5, G1, NOISE_02, 10.0, mc_samples=50_000, seed=7
        )
        assert loud.mse[1] - quiet.mse[1] == pytest.approx((1 / 9) * 0.01, abs=1e-12)
        assert loud.bias[1] == quiet.bias[1]


class TestFirstIterateLogistic:
    def test_frozen_bias_and_mse(self):
        # frozen from oracles/oracle_state_evolution.py:
        # bias(1) = (step/delta) E[(rho'(m) - 1/2) m] = 0.13774730942793467
        # (equivalently (step/delta) kappa^2 E[rho''(m)] by Stein's identity),
        # mse(1) = (bias(1) - 1)^2 + (step^2/delta) E[(1/2 - rho'(m))^2]
        tr = state_evolution_logistic(1, 1 / 3, 0.0, 0.5, G1, mc_samples=400_000, seed=43)
        assert tr.bias[1] == pytest.approx(0.13774730942793467, abs=3e-4)
        assert tr.mse[1] == pytest.approx(0.7531194881450086, abs=1e-3)

    def test_frozen_private(self):
        tr = state_evolution_logistic(1, 1 / 3, 0.1, 0.5, G1, mc_samples=400_000, seed=43)
        assert tr.mse[1] == pytest.approx(0.7542305992561197, abs=1e-3)

    def test_noise_shift_is_exact_at_shared_seed(self):
        quiet = state_evolution_logistic(1, 1 / 3, 0.0, 0.5, G1, mc_samples=50_000, seed=9)
        loud = state_evolution_logistic(1, 1 / 3, 0.1, 0.5, G1, mc_samples=50_000, seed=9)
        assert loud.mse[1] - quiet.mse[1] == pytest.approx((1 / 9) * 0.01, abs=1e-12)


class TestExactLinearCase:
    """Huge clip level + zero response noise + exact margins: the recursion
    collapses to ridgeless linear GD, solvable in closed form."""

    def test_three_steps_noise_free(self):
        exact_mse, exact_bias = exact_linear_trace(3, 0.5, 0.5, 0.0)
        np.testing.assert_allclose(exact_mse, [1.0, 0.5, 0.625, 1.21875], rtol=1e-12)
        tr = state_evolution_huber(
            3, 0.5, 0.0, 0.5, G1, EXACT_LINE, 1e9, mc_samples=200_000, seed=44
        )
        # the slope scalars are constant, so the kernel recursion and hence
        # the bias sequence are exact; mse carries Gram-estimation noise
        np.testing.assert_allclose(tr.bias, exact_bias, atol=1e-8)
        np.testing.assert_allclose(tr.mse, exact_mse, rtol=0.02)

    def test_three_steps_private(self):
        # frozen from oracles/oracle_state_evolution.py at step=1/3, nu=0.1
        exact_mse, exact_bias = exact_linear_trace(3, 1 / 3, 0.5, 0.1)
        np.testing.assert_allclose(
            exact_mse,
            [1.0, 0.3344444444444445, 0.18666666666666704, 0.12102880658436282],
            rtol=1e-12,
        )
        tr = state_evolution_huber(
            3, 1 / 3, 0.1, 0.5, G1, EXACT_LINE, 1e9, mc_samples=200_000, seed=45
        )
        np.testing.assert_allclose(tr.bias, exact_bias, atol=1e-8)
        np.testing.assert_allclose(tr.mse, exact_mse, rtol=0.02)


class TestInternalConsistency:
    def make(self, **kw):
        args = dict(mc_samples=50_000, seed=11)
        args.update(kw)
        return state_evolution_huber(3, 0.4, 0.1, 0.5, G1, NOISE_02, 10.0, **args)

    def test_kernel_mse_matches_path_mc(self):
        tr = self.make()
        for t in range(1, 4):
            assert abs(tr.mse[t] - tr.mse_mc[t]) <= 5 * tr.mse_stderr[t]
            assert abs(tr.bias[t] - tr.bias_mc[t]) <= 5 * tr.bias_stderr[t]

    def test_r_theta_diagonal_is_identity(self):
        tr = self.make()
        assert tr.r_theta.shape == (4, 4)
        for t in range(3):
            assert tr.r_theta[t, t] == tr.r_theta[t + 1, t] == 1.0
        assert tr.r_theta[3, 3] == 1.0

    def test_kernel_shapes(self):
        tr = self.make()
        assert tr.gamma.shape == (3, 2)
        assert tr.r_g.shape == (3, 3, 2)
        assert tr.c_g.shape == (3, 3)

    def test_c_theta_symmetric_psd(self):
        tr = self.make()
        c = tr.c_theta
        np.testing.assert_allclose(c, c.T, rtol=0, atol=1e-12)
        eigs = np.linalg.eigvalsh(0.5 * (c + c.T))
        assert eigs.min() >= -1e-10

    def test_seed_determinism_bitwise(self):
        a = self.make()
        b = self.make()
        for field in ("mse", "bias", "mse_mc", "bias_mc", "gamma", "r_g", "c_theta"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_seed_changes_mc(self):
        a = self.make()
        b = self.make(seed=12)
        assert not np.array_equal(a.mse_mc, b.mse_mc)

    def test_as_dict_round_trip(self):
        d = self.make().as_dict()
        assert list(d) == ["mse", "bias", "mse_mc", "bias_mc", "mse_stderr", "bias_stderr", "seed"]
        assert d["seed"] == 11
        assert len(d["mse"]) == 4
        assert isinstance(d["mse"], list)


class TestLogisticStructure:
    def test_trace_type_and_growth(self):
        tr = state_evolution_logistic(2, 0.4, 0.2, 0.5, G1, mc_samples=20_000, seed=3)
        assert isinstance(tr, StateEvolutionTrace)
        assert tr.mse.shape == (3,)
        # error declines from the zero initialization on the first step
        assert tr.mse[1] < tr.mse[0]


class TestValidation:
    def test_bad_inputs(self):
        with pytest.raises(ConfigError):
            state_evolution_huber(0, 0.3, 0.0, 0.5, G1, NOISE_02, 10.0)
        with pytest.raises(ConfigError):
            state_evolution_huber(MAX_STEPS + 1, 0.3, 0.0, 0.5, G1, NOISE_02, 10.0)
        with pytest.raises(ConfigError):
            state_evolution_huber(1, 0.3, 0.0, 0.5, G1, NOISE_02, 10.0, mc_samples=MIN_MC_SAMPLES - 1)
        with pytest.raises(ConfigError):
            state_evolution_huber(1, 0.0, 0.0, 0.5, G1, NOISE_02, 10.0)
        with pytest.raises(ConfigError):
            state_evolution_huber(1, 0.3, -0.1, 0.5, G1, NOISE_02, 10.0)
        with pytest.raises(ConfigError):
            state_evolution_huber(1, 0.3, 0.0, 0.0, G1, NOISE_02, 10.0)
        with pytest.raises(ConfigError):
            state_evolution_huber(1, 0.3, 0.0, 0.5, G1, NOISE_02, 0.0)
        with pytest.raises(ConfigError):
            state_evolution_logistic(1, 0.3, 0.0, -0.5, G1)


# float.hex values recorded from the recursion before it became one solve
# function.  The summation order is part of the output: a reordered sum shows
# here, most of all at T = 8, where eigh carries it into the sampled paths.
# The Huber T = 8 values were recorded again when the clipped moments moved
# to scalars.erfc; 17 of them moved, by at most 2.3e-15 relative.
PINNED = {
    ("huber", 3): {
        "mse": [
            "0x1.0000000000000p+0", "0x1.7de25775b92a4p-2", "0x1.83025ccebcee0p-3",
            "0x1.eed9f0fd3e570p-4",
        ],
        "bias": [
            "0x0.0p+0", "0x1.13ed0dedaaaefp-1", "0x1.5bf56568c672cp-1",
            "0x1.a79a2109e242fp-1",
        ],
        "mse_mc": [
            "0x1.f5c2390917908p-1", "0x1.80e46364a71ebp-2", "0x1.870161f27962dp-3",
            "0x1.f2f2a0fcdfa54p-4",
        ],
        "mse_stderr": [
            "0x1.c48f2ad425028p-7", "0x1.5a00698eb7836p-8", "0x1.60df33f244e97p-9",
            "0x1.c0859265e5064p-10",
        ],
    },
    ("logistic", 3): {
        "mse": [
            "0x1.0000000000000p+0", "0x1.6c93050d68932p-1", "0x1.197a215b11a27p-1",
            "0x1.c8486f80be790p-2",
        ],
        "bias": [
            "0x0.0p+0", "0x1.52a035dd34c3cp-3", "0x1.20f6fab893ee2p-2",
            "0x1.7a8201a47b532p-2",
        ],
        "mse_mc": [
            "0x1.f5c2390917908p-1", "0x1.6725fffedb1d9p-1", "0x1.16de6c14e5b1dp-1",
            "0x1.c5db2fcfbae3fp-2",
        ],
        "mse_stderr": [
            "0x1.c48f2ad425028p-7", "0x1.43deeaaa1ecb7p-7", "0x1.f78153b6528acp-8",
            "0x1.9a7bd7ee80d4dp-8",
        ],
    },
    ("huber", 8): {
        "mse": [
            "0x1.0000000000000p+0", "0x1.7ea80dc19c178p-2", "0x1.83fb4fb9970e8p-3",
            "0x1.f35de4b2476c0p-4", "0x1.777345aa0dc70p-4", "0x1.39c6b15a4acd0p-4",
            "0x1.351d143297320p-4", "0x1.4698a2a309df0p-4", "0x1.885377cd5de20p-4",
        ],
        "bias": [
            "0x0.0p+0", "0x1.13ed0dedaaaefp-1", "0x1.5bf56568c672cp-1",
            "0x1.a79a2109e242fp-1", "0x1.a2dd064fdcb40p-1", "0x1.d4fd3d930afdap-1",
            "0x1.be05d4c215c3ep-1", "0x1.ed1e5a3e0bc24p-1", "0x1.ca3787a5c1becp-1",
        ],
        "mse_mc": [
            "0x1.f5c2390917908p-1", "0x1.79e5951103764p-2", "0x1.7ef750657ce86p-3",
            "0x1.f3d1fa49f3b5cp-4", "0x1.73be78826a42ep-4", "0x1.3ca4807de136cp-4",
            "0x1.321ac4020ea9cp-4", "0x1.4cc36bcc85869p-4", "0x1.86342c60392f0p-4",
        ],
        "mse_stderr": [
            "0x1.c48f2ad425028p-7", "0x1.58e4ff75226d4p-8", "0x1.5328a81776394p-9",
            "0x1.c7185677ac3a8p-10", "0x1.4955ba5e38843p-10", "0x1.1f7cb17663683p-10",
            "0x1.141736b2c47f6p-10", "0x1.27f84bf76cf53p-10", "0x1.6639a624440f7p-10",
        ],
    },
    ("logistic", 8): {
        "mse": [
            "0x1.0000000000000p+0", "0x1.6ca2e926a43a4p-1", "0x1.19a040a5d8a76p-1",
            "0x1.c8ae3847ae4b2p-2", "0x1.7d72db25361c8p-2", "0x1.45ffa1f3cdfc8p-2",
            "0x1.1b1e14978d53cp-2", "0x1.f1e704666f0d8p-3", "0x1.ba53f713875e8p-3",
        ],
        "bias": [
            "0x0.0p+0", "0x1.52a035dd34c3cp-3", "0x1.20f6fab893ee2p-2",
            "0x1.7a8201a47b532p-2", "0x1.c1324be4da293p-2", "0x1.fa283d938d67ap-2",
            "0x1.14c11d0609d08p-1", "0x1.28d6281c08346p-1", "0x1.3a15c189f5246p-1",
        ],
        "mse_mc": [
            "0x1.f5c2390917908p-1", "0x1.64d7fa7909578p-1", "0x1.133845fb38446p-1",
            "0x1.be1a4cf9acbfbp-2", "0x1.747e4e157259bp-2", "0x1.3e92e5aaf8415p-2",
            "0x1.147d271445b75p-2", "0x1.e66e7d8d404c0p-3", "0x1.b14c1fc94cdb2p-3",
        ],
        "mse_stderr": [
            "0x1.c48f2ad425028p-7", "0x1.424fc09646371p-7", "0x1.f1c79b36a89acp-8",
            "0x1.9456b2683f9f4p-8", "0x1.511e9aaa565b4p-8", "0x1.2054e2f87ce13p-8",
            "0x1.f707abcea71b8p-9", "0x1.bc47de99cefbfp-9", "0x1.8b7bf59faca36p-9",
        ],
    },
}


@pytest.mark.parametrize("loss, steps", sorted(PINNED))
def test_trace_bits_are_pinned(loss, steps):
    if loss == "huber":
        tr = state_evolution_huber(
            steps, 0.4, 0.1, 0.5, G1, NOISE_02, 1.0, mc_samples=10_000, seed=2024
        )
    else:
        tr = state_evolution_logistic(steps, 0.4, 0.1, 0.5, G1, mc_samples=10_000, seed=2024)
    for field, expected in PINNED[loss, steps].items():
        assert [float(x).hex() for x in getattr(tr, field)] == expected, field
