"""Counter-based RNG stream tests: determinism, independence, distribution."""

import hashlib
import math

import numpy as np
import pytest

from propdp.rng import box_muller, child_seed, draw, keys, raw_words, stream, uniforms
from support import next_normals, normal, reference_normals


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
    """A block's streams: ``keys`` hashes many cells' keys in one pass and
    ``draw`` reads each keyed stream from one re-keyed Philox.  Each key must
    be numpy's own SeedSequence state of the cell's entropy, and each stream,
    read in a block or by ``stream``, numpy's own Philox of that
    SeedSequence, word for word."""

    SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1, -1)
    TAGS = ("design", "signal", "noisy-gd-xi", "")
    INDICES = ((), (0,), (2**40,), (0, 2**40), (7, 0, 2**40, 3))

    @staticmethod
    def seed_sequence(seed, tag, *indices):
        """numpy's SeedSequence of the cell: the seed, the tag's first eight
        sha256 bytes and the indices, each as an integer mod 2**64."""
        tag_int = int.from_bytes(hashlib.sha256(tag.encode("utf-8")).digest()[:8], "big")
        wrap = [int(v) % 2**64 for v in (seed, *indices)]
        return np.random.SeedSequence([wrap[0], tag_int, *wrap[1:]])

    @classmethod
    def assert_same_draws(cls, tags, seeds, *indices):
        cell_keys = keys(tags, seeds, *indices)
        block = draw(cell_keys, 14)
        columns = [np.asarray(v, dtype=object) for v in (seeds, *indices)]
        shape = np.broadcast_shapes(*(column.shape for column in columns))
        assert block.shape == (len(tags), *shape, 14)
        for tag, tag_keys, words in zip(tags, cell_keys, block):
            for position in np.ndindex(shape):
                seed, *index = (np.broadcast_to(c, shape)[position] for c in columns)
                cell = (seed, tag, *index)
                sequence = cls.seed_sequence(*cell)
                np.testing.assert_array_equal(
                    tag_keys[position], sequence.generate_state(2, np.uint64), err_msg=str(cell)
                )
                gen = stream(*cell)  # read in turn
                for head, tail in [np.split(words[position], [9]), (draw(gen, 9), draw(gen, 5))]:
                    reference = np.random.Generator(np.random.Philox(sequence))
                    np.testing.assert_array_equal(
                        uniforms(head), reference.random(9), err_msg=str(cell)
                    )
                    np.testing.assert_array_equal(
                        tail, reference.bit_generator.random_raw(5), err_msg=str(cell)
                    )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_stream(self, seed):
        for ix in self.INDICES:
            self.assert_same_draws(self.TAGS, [seed], *ix)

    def test_mixed_word_widths_in_one_pass(self):
        # seeds and indices below 2**32 are one 32-bit word, above it two: one
        # call hashes rows of five to ten words, interleaved
        values = np.array([0, 7, 2**32 - 1, 2**32, 2**40], dtype=object)
        self.assert_same_draws(
            self.TAGS[:2], np.array(self.SEEDS, dtype=object)[:, None, None, None],
            values[:, None, None], values[None, :, None], values[::-1],
        )

    def test_empty(self):
        assert keys(("design",), []).shape == (1, 0, 2)
        assert draw(keys(("design",), []), 3).shape == (1, 0, 3)
        assert list(raw_words(np.empty((0, 2), dtype=np.uint64), 3)) == []


class TestRawWords:
    """A block's draws from raw words, against numpy's own draws from the
    stream of each cell, bit for bit."""

    def test_uniforms_are_generator_random(self):
        block = draw(keys(("u",), range(5), 2), 33)
        for seed, words in enumerate(block[0]):
            np.testing.assert_array_equal(uniforms(words), stream(seed, "u", 2).random(33))

    @pytest.mark.parametrize("rows", [1, 64])
    @pytest.mark.parametrize("size", [1, 7, (6, 5)])
    def test_normals_are_box_muller_of_generator_random(self, rows, size):
        n = int(np.prod(size))
        normals = box_muller(draw(keys(("n",), range(rows))[0], n + n % 2), size)
        assert normals.shape == (rows, *np.atleast_1d(size))
        for seed, row in enumerate(normals):
            assert row.tobytes() == reference_normals(stream(seed, "n"), size).tobytes()
            assert row.tobytes() == next_normals(stream(seed, "n"), size).tobytes()

    def test_one_philox_serves_every_stream(self):
        # each stream is keyed afresh: its words do not depend on the streams
        # drawn before it, or on how many words those took
        cells = keys(("a",), [5, 6, 7])[0]
        for count in (1, 4, 5, 9):
            for words, seed in zip(raw_words(cells, count), (5, 6, 7)):
                np.testing.assert_array_equal(words, stream(seed, "a").bit_generator.random_raw(count))


class TestBoxMuller:
    def test_shapes(self):
        gen = stream(1, "shape")
        assert next_normals(gen, 5).shape == (5,)
        gen = stream(1, "shape")
        assert next_normals(gen, (3, 4)).shape == (3, 4)

    def test_odd_size(self):
        z = next_normals(stream(1, "odd"), 7)
        assert z.shape == (7,)
        assert np.all(np.isfinite(z))

    def test_moments(self):
        z = next_normals(stream(5, "moments"), 2_000_000)
        n = z.size
        assert z.mean() == pytest.approx(0.0, abs=4 / math.sqrt(n))
        assert (z**2).mean() == pytest.approx(1.0, abs=4 * math.sqrt(2 / n))
        assert (z**3).mean() == pytest.approx(0.0, abs=4 * math.sqrt(15 / n))
        assert (z**4).mean() == pytest.approx(3.0, abs=4 * math.sqrt(96 / n))

    def test_rows_are_their_own_streams(self):
        # one stream per row: each row is that stream's own draws, bit for bit
        rows = box_muller(draw(keys(("rows",), range(4), 3)[0], 22), (7, 3))
        assert rows.shape == (4, 7, 3)
        for s, row in enumerate(rows):
            np.testing.assert_array_equal(row, next_normals(stream(s, "rows", 3), (7, 3)))

    def test_normal_helper_matches(self):
        np.testing.assert_array_equal(
            normal(9, "helper", 2, size=64),
            next_normals(stream(9, "helper", 2), 64),
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
