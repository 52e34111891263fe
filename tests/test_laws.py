"""Scalar mixture-law parsing, moments, and sampling tests."""

import math

import numpy as np
import pytest

from propdp.errors import ConfigError
from propdp.laws import ScalarLaw, law_clipped_mean_inside, parse_law
from propdp.rng import keys, stream
from support import law_clipped_second_moment, law_moment


def law_clipped_mean(m, law, L):
    return law_clipped_mean_inside(m, law, L, np.empty((2, *np.shape(m))))[0]


def law_interval_probability(m, law, L):
    return law_clipped_mean_inside(m, law, L, np.empty((2, *np.shape(m))))[1]


class TestParse:
    def test_gaussian(self):
        law = parse_law("gaussian:0.2")
        assert law.weights == (1.0,)
        assert law.locs == (0.0,)
        assert law.scales == (0.2,)

    def test_point(self):
        law = parse_law("point:1.5")
        assert law.scales == (0.0,)
        assert law.locs == (1.5,)

    def test_mixture(self):
        law = parse_law("mix:0.3*point:-1,0.7*gaussian:2")
        assert law.weights == pytest.approx((0.3, 0.7))
        assert law.locs == (-1.0, 0.0)
        assert law.scales == (0.0, 2.0)

    def test_whitespace_tolerated(self):
        law = parse_law(" gaussian: 1.0 ")
        assert law.scales == (1.0,)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "gaussian",
            "gaussian:abc",
            "gaussian:-1",
            "uniform:1",
            "mix:",
            "mix:0.5*point:0",  # weights must sum to 1
            "mix:1.0point:0",
            "point:nan",
        ],
    )
    def test_bad_specs_raise_config_error(self, bad):
        with pytest.raises(ConfigError):
            parse_law(bad)


class TestMoments:
    def test_gaussian_moments(self):
        law = ScalarLaw.gaussian(2.0)
        assert law_moment(law, 1) == 0.0
        assert law_moment(law, 2) == pytest.approx(4.0, rel=1e-15)
        assert law_moment(law, 3) == 0.0
        assert law_moment(law, 4) == pytest.approx(48.0, rel=1e-15)

    def test_point_moments(self):
        law = ScalarLaw.point_mass(1.5)
        assert law_moment(law, 1) == 1.5
        assert law_moment(law, 2) == pytest.approx(2.25)
        assert law.second_moment == pytest.approx(2.25)

    def test_mixture_moments(self):
        law = parse_law("mix:0.5*point:-1,0.5*point:1")
        assert law_moment(law, 1) == 0.0
        assert law_moment(law, 2) == pytest.approx(1.0)
        assert law_moment(law, 4) == pytest.approx(1.0)

    def test_shifted_gaussian_fourth_moment(self):
        # E[(mu + s Z)^4] = mu^4 + 6 mu^2 s^2 + 3 s^4
        law = ScalarLaw((1.0,), (0.7,), (1.3,))
        mu, s = 0.7, 1.3
        assert law_moment(law, 4) == pytest.approx(mu**4 + 6 * mu**2 * s**2 + 3 * s**4, rel=1e-14)


class TestClippedFunctionals:
    def test_point_mass_clipping(self):
        # E[clip(m + eps, L)] with eps == 3 exactly
        law = ScalarLaw.point_mass(3.0)
        assert law_clipped_mean(0.0, law, 1.0) == 1.0
        assert law_clipped_second_moment(0.0, law, 1.0) == 1.0
        assert law_interval_probability(0.0, law, 1.0) == 0.0

    def test_gaussian_matches_scalar_helpers(self):
        from propdp.scalars import clipped_mean_inside
        from support import clipped_second_moment, interval_probability

        law = ScalarLaw.gaussian(0.8)
        for mu in (-1.0, 0.0, 0.4):
            assert law_clipped_mean(mu, law, 1.2) == pytest.approx(
                clipped_mean_inside(mu, 0.8, 1.2)[0], rel=1e-13
            )
            assert law_clipped_second_moment(mu, law, 1.2) == pytest.approx(
                clipped_second_moment(mu, 0.8, 1.2), rel=1e-13
            )
            assert law_interval_probability(mu, law, 1.2) == pytest.approx(
                interval_probability(mu, 0.8, 1.2), rel=1e-13
            )

    def test_vectorized_over_locations(self):
        law = ScalarLaw.gaussian(0.5)
        m = np.linspace(-2, 2, 9)
        out = law_clipped_mean(m, law, 1.0)
        assert np.asarray(out).shape == m.shape

    def test_mixture_monte_carlo(self):
        law = parse_law("mix:0.3*point:-0.5,0.7*gaussian:1.5")
        gen = stream(7, "laws-test")
        draws = law.sample(gen, 2_000_000)
        x = np.clip(0.2 + draws, -1.0, 1.0)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert law_clipped_mean(0.2, law, 1.0) == pytest.approx(x.mean(), abs=4 * se)
        x2 = x**2
        se2 = x2.std(ddof=1) / math.sqrt(x.size)
        assert law_clipped_second_moment(0.2, law, 1.0) == pytest.approx(x2.mean(), abs=4 * se2)
        inside = (np.abs(0.2 + draws) < 1.0).astype(float)
        sei = inside.std(ddof=1) / math.sqrt(x.size)
        assert law_interval_probability(0.2, law, 1.0) == pytest.approx(inside.mean(), abs=4 * sei)


class TestSampling:
    def test_moments_via_sampling(self):
        law = parse_law("mix:0.4*gaussian:0.5,0.6*point:1")
        gen = stream(11, "laws-sample")
        draws = law.sample(gen, 4_000_000)
        for k in (1, 2, 3, 4):
            mk = draws**k
            se = mk.std(ddof=1) / math.sqrt(draws.size)
            assert law_moment(law, k) == pytest.approx(mk.mean(), abs=4 * se)

    @pytest.mark.parametrize("text", ["gaussian:1", "mix:0.5*gaussian:1,0.5*point:-2"])
    def test_rows_are_their_own_streams(self, text):
        law = parse_law(text)
        rows = law.sample(keys(("rows",), range(3))[0], (4, 5))
        assert rows.shape == (3, 4, 5)
        for s, row in enumerate(rows):
            np.testing.assert_array_equal(row, law.sample(stream(s, "rows"), (4, 5)))

    def test_deterministic(self):
        law = parse_law("mix:0.5*gaussian:1,0.5*point:-2")
        a = law.sample(stream(3, "det"), 1000)
        b = law.sample(stream(3, "det"), 1000)
        np.testing.assert_array_equal(a, b)
