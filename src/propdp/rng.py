"""Deterministic counter-based random streams.

Every random draw in the package flows through a Philox counter generator
keyed by (seed, purpose tag, indices), so results are reproducible bit for
bit regardless of execution order or worker count.  A stream's key is
numpy's ``SeedSequence(entropy).generate_state(2, uint64)`` of those
integers.  ``streams`` keys many cells in one vectorized pass that
reproduces that hash bit for bit (a test pins it to ``stream`` draw for
draw), so a block of replicates hashes all its keys at once instead of
building one numpy ``SeedSequence`` per stream.  Normal variates are
produced by an explicit Box-Muller transform of the stream's uniforms.
"""

from __future__ import annotations

import functools
import hashlib
import math
from collections.abc import Iterator

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): a pool of
# four 32-bit words, the entropy hash (A), the output hash (B), the mixer
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _tag_int(tag: str) -> int:
    """Stable 64-bit integer for a purpose tag."""
    return int.from_bytes(hashlib.sha256(tag.encode("utf-8")).digest()[:8], "big")


def _entropy(seed: int, tag_int: int, indices) -> list[int]:
    """The integers a cell's key hashes: seed, tag and indices, each mod 2**64."""
    return [int(seed) & _MASK64, tag_int] + [int(i) & _MASK64 for i in indices]


def stream(seed: int, tag: str, *indices: int) -> np.random.Generator:
    """Independent generator for the (seed, tag, *indices) cell."""
    entropy = _entropy(seed, _tag_int(tag), indices)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


@functools.cache
def _fixed_key():
    """A SeedSequence stand-in that hands Philox a key computed elsewhere.
    Built on first use: subclassing numpy's ISeedSequence imports
    numpy.random, which ``import propdp`` does not."""

    class FixedKey(np.random.bit_generator.ISeedSequence):
        __slots__ = ("key",)

        def __init__(self, key):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key  # Philox asks for (2, uint64): the key itself

    return FixedKey


def _hash_keys(words: np.ndarray) -> np.ndarray:
    """numpy's SeedSequence hash of each column of ``words`` (W, rows), the
    cells' entropy as uint32 words, to that cell's Philox key: (rows, 2) uint64."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> _XSHIFT
        return value

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        result ^= result >> _XSHIFT
        return result

    zeros = np.zeros(words.shape[1], dtype=np.uint32)
    pool = [hashmix(words[i] if i < len(words) else zeros) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(words)):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(words[src]))
    state = np.empty((words.shape[1], 4), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(4):  # generate_state(2, uint64): four words, little-endian pairs
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> _XSHIFT
        state[:, i] = value
    return state.astype("<u4").view("<u8").astype(np.uint64)


def streams(cells) -> Iterator[np.random.Generator]:
    """The generators ``stream(*cell)`` of ``cells``, each cell a ``(seed,
    tag, *indices)`` tuple, in order.  The keys of all cells are hashed up
    front in one vectorized pass; numpy splits each integer into 32-bit
    words (one word below 2**32, two above), so cells are hashed in groups
    of equal word count.  Each generator is built only when it is drawn, so
    a caller holds no more of them at once than it uses together."""
    cells = list(cells)
    groups: dict[int, list] = {}
    tags: dict[str, int] = {}
    for position, (seed, tag, *indices) in enumerate(cells):
        if tag not in tags:
            tags[tag] = _tag_int(tag)
        words = []
        for value in _entropy(seed, tags[tag], indices):
            words += [value & _MASK32, value >> 32] if value >> 32 else [value]
        groups.setdefault(len(words), []).append((position, words))
    keys = np.empty((len(cells), 2), dtype=np.uint64)
    for rows in groups.values():
        positions = [position for position, _ in rows]
        keys[positions] = _hash_keys(np.array([words for _, words in rows], dtype=np.uint32).T)
    fixed_key = _fixed_key()
    return (np.random.Generator(np.random.Philox(fixed_key(key))) for key in keys)


def box_muller(gen: np.random.Generator | list[np.random.Generator], size) -> np.ndarray:
    """Standard normal draws via Box-Muller on the generator's uniforms.

    ``gen`` may also be a sequence of generators: row k of the result is then
    ``box_muller(gen[k], size)``, with every row transformed in one pass."""
    single = isinstance(gen, np.random.Generator)
    gens = [gen] if single else list(gen)
    shape = (size,) if np.isscalar(size) else tuple(size)
    n = math.prod(shape)
    half = (n + 1) // 2
    u1, u2 = np.empty((len(gens), half)), np.empty((len(gens), half))
    for row, g in enumerate(gens):
        g.random(out=u1[row])
        g.random(out=u2[row])
    radius = np.sqrt(-2.0 * np.log(1.0 - u1))  # 1 - u in (0, 1]: keeps log finite
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], axis=1)[:, :n]
    if single:
        return z[0].reshape(shape)
    return z.reshape((len(gens), *shape))


def child_seed(master: int, *indices: int) -> int:
    """Derived 63-bit seed for a lattice cell; no two cells share a stream."""
    payload = ",".join(str(int(v)) for v in (master, *indices)).encode("ascii")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big") >> 1
