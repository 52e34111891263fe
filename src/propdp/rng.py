"""Deterministic counter-based random streams.

Every random draw in the package flows through a Philox counter generator
keyed by (seed, purpose tag, indices), so results are reproducible bit for
bit regardless of execution order or worker count.  A stream's key is
numpy's ``SeedSequence(entropy).generate_state(2, uint64)`` of those
integers, and ``stream`` builds one cell's generator that way.

A block of replicates draws many short streams.  ``keys`` hashes all its
cells' keys in one vectorized pass that reproduces that hash bit for bit;
``raw_words`` and ``draw`` read each stream's first raw 64-bit words from
one Philox, re-keyed per stream to the state a fresh ``stream`` starts in
(counter 0, the key, buffer position 4, no spare 32-bit half), so a stream's
whole need is drawn before the next is keyed.  Raw words w give numpy's
draws exactly: ``Generator.random`` is (w >> 11) * 2**-53 (``uniforms``),
and ``Generator.integers(0, 2, size)`` is bit 31, then bit 63, of each word
(numpy's Lemire path on a word's two 32-bit halves, low first).  Normal
variates are an explicit Box-Muller transform of a stream's uniforms.
"""

from __future__ import annotations

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


def stream(seed: int, tag: str, *indices: int) -> np.random.Generator:
    """Independent generator for the (seed, tag, *indices) cell; its key
    hashes the seed, the tag and the indices, each mod 2**64."""
    entropy = [int(seed) & _MASK64, _tag_int(tag)] + [int(i) & _MASK64 for i in indices]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


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


def keys(tags, seeds, *indices) -> np.ndarray:
    """The keys ``stream`` gives the cells (seed, tag, *indices), shape
    (len(tags), *shape, 2) uint64: one per tag in ``tags`` and per entry of
    ``seeds`` and ``indices`` broadcast together to ``shape``.  numpy splits
    each integer into 32-bit words (one below 2**32, two above), so the
    cells are hashed in groups of equal word count."""
    wrapped = [np.asarray(v, dtype=object) & _MASK64 for v in (seeds, *indices)]  # any sign
    seeds, *indices = np.broadcast_arrays(*(np.asarray(v, dtype=np.uint64) for v in wrapped))
    shape = (len(tags), *seeds.shape)
    tag_ints = np.array([_tag_int(tag) for tag in tags], np.uint64).reshape(-1, *[1] * seeds.ndim)
    columns = [np.broadcast_to(v, shape) for v in (seeds, tag_ints, *indices)]
    entropy = np.stack(columns, axis=-1).reshape(-1, len(columns))
    halves = np.stack([entropy & _MASK32, entropy >> 32], axis=-1)  # low, high word
    halves = halves.reshape(len(entropy), 2 * len(columns))
    used = halves != 0  # a high word is used when nonzero, a low word always
    used[:, ::2] = True
    counts = used.sum(axis=1)
    out = np.empty((len(entropy), 2), dtype=np.uint64)
    for count in set(counts.tolist()):  # not np.unique, which imports numpy.ma
        rows = counts == count
        out[rows] = _hash_keys(halves[rows][used[rows]].reshape(-1, count).T.astype(np.uint32))
    return out.reshape(*shape, 2)


def raw_words(keys, count: int) -> Iterator[np.ndarray]:
    """The first ``count`` raw words of each keyed stream, in key order, from
    one Philox re-keyed per stream; a word array is drawn only when asked for."""
    bit_generator = np.random.Philox(0)
    state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": None},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key in np.reshape(keys, (-1, 2)).tolist():
        state["state"]["key"] = key
        bit_generator.state = state
        yield bit_generator.random_raw(count)


def draw(source, count: int) -> np.ndarray:
    """The next ``count`` raw words of a Generator, shape (count,); or, for
    keys of shape (*lead, 2), each keyed stream's first ``count``: (*lead, count)."""
    if isinstance(source, np.random.Generator):
        return source.bit_generator.random_raw(count)
    words = np.array(list(raw_words(source, count)), dtype=np.uint64)
    return words.reshape(*source.shape[:-1], count)


def uniforms(words: np.ndarray) -> np.ndarray:
    """``Generator.random``'s doubles of raw words: (w >> 11) * 2**-53."""
    return (words >> 11) * 2.0**-53


def box_muller(source, size) -> np.ndarray:
    """Standard normal draws via Box-Muller on a stream's uniforms.

    ``source`` is a Generator, whose next words it reads; or raw words whose
    last axis holds each stream's n + n % 2 words for n = prod(size)
    normals, giving (*lead, *size).  u1 are a stream's first half of the
    words and u2 the second, as a Generator's two ``random`` calls read them."""
    shape = (size,) if np.isscalar(size) else tuple(size)
    n = math.prod(shape)
    half = (n + 1) // 2
    if isinstance(source, np.random.Generator):
        source = source.bit_generator.random_raw(2 * half)
    lead = source.shape[:-1]
    radius = np.sqrt(-2.0 * np.log(1.0 - uniforms(source[..., :half])))  # 1 - u in (0, 1]
    angle = 2.0 * np.pi * uniforms(source[..., half : 2 * half])
    del source
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)[..., :n]
    return z.reshape((*lead, *shape))


def child_seed(master: int, *indices: int) -> int:
    """Derived 63-bit seed for a lattice cell; no two cells share a stream."""
    payload = ",".join(str(int(v)) for v in (master, *indices)).encode("ascii")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big") >> 1
