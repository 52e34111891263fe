"""Counter-based RNG stream tests: determinism, independence, distribution."""

import math

import numpy as np
import pytest

from propdp.rng import box_muller, child_seed, stream, streams
from support import normal


class TestStream:
    def test_bitwise_deterministic(self):
        a = stream(42, "unit", 3).random(1000)
        b = stream(42, "unit", 3).random(1000)
        np.testing.assert_array_equal(a, b)

    def test_distinct_cells_differ(self):
        base = stream(42, "unit", 0).random(100)
        assert not np.array_equal(base, stream(42, "unit", 1).random(100))
        assert not np.array_equal(base, stream(43, "unit", 0).random(100))
        assert not np.array_equal(base, stream(42, "other", 0).random(100))

    def test_order_independent(self):
        # drawing from one cell does not perturb another
        s1 = stream(7, "a")
        _ = s1.random(999)
        fresh = stream(7, "b").random(10)
        np.testing.assert_array_equal(fresh, stream(7, "b").random(10))


class TestStreams:
    """``streams`` hashes many cells' keys in one pass; each generator must be
    the one ``stream`` builds for its cell, draw for draw."""

    SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1, -1)
    TAGS = ("design", "signal", "noisy-gd-xi", "")
    INDICES = ((), (0,), (2**40,), (0, 2**40), (7, 0, 2**40, 3))

    @staticmethod
    def assert_same_draws(cells):
        gens = list(streams(cells))
        assert len(gens) == len(cells)
        for cell, gen in zip(cells, gens):
            reference = stream(*cell)
            np.testing.assert_array_equal(gen.random(9), reference.random(9), err_msg=str(cell))
            np.testing.assert_array_equal(
                gen.integers(0, 2**62, size=5), reference.integers(0, 2**62, size=5)
            )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_stream(self, seed):
        self.assert_same_draws([(seed, tag, *ix) for tag in self.TAGS for ix in self.INDICES])

    def test_mixed_word_widths_in_one_pass(self):
        # seeds below 2**32 are one 32-bit word, above it two: one call
        # hashes rows of three to eleven words, interleaved
        cells = [
            (seed, tag, *ix)
            for ix in self.INDICES for seed in self.SEEDS for tag in self.TAGS[:2]
        ]
        self.assert_same_draws(cells)

    def test_empty(self):
        assert list(streams([])) == []


class TestBoxMuller:
    def test_shapes(self):
        gen = stream(1, "shape")
        assert box_muller(gen, 5).shape == (5,)
        gen = stream(1, "shape")
        assert box_muller(gen, (3, 4)).shape == (3, 4)

    def test_odd_size(self):
        z = box_muller(stream(1, "odd"), 7)
        assert z.shape == (7,)
        assert np.all(np.isfinite(z))

    def test_moments(self):
        z = box_muller(stream(5, "moments"), 2_000_000)
        n = z.size
        assert z.mean() == pytest.approx(0.0, abs=4 / math.sqrt(n))
        assert (z**2).mean() == pytest.approx(1.0, abs=4 * math.sqrt(2 / n))
        assert (z**3).mean() == pytest.approx(0.0, abs=4 * math.sqrt(15 / n))
        assert (z**4).mean() == pytest.approx(3.0, abs=4 * math.sqrt(96 / n))

    def test_rows_are_their_own_streams(self):
        # one generator per row: each row is that generator's own draws, bit for bit
        rows = box_muller([stream(s, "rows", 3) for s in range(4)], (7, 3))
        assert rows.shape == (4, 7, 3)
        for s, row in enumerate(rows):
            np.testing.assert_array_equal(row, box_muller(stream(s, "rows", 3), (7, 3)))

    def test_normal_helper_matches(self):
        np.testing.assert_array_equal(
            normal(9, "helper", 2, size=64),
            box_muller(stream(9, "helper", 2), 64),
        )


class TestChildSeed:
    def test_deterministic(self):
        assert child_seed(1, 2, 3) == child_seed(1, 2, 3)

    def test_distinct(self):
        seen = {child_seed(0, i, j) for i in range(20) for j in range(20)}
        assert len(seen) == 400

    def test_range(self):
        for args in [(0,), (2**62, 5), (123, 4, 5, 6)]:
            s = child_seed(*args)
            assert 0 <= s < 2**63
