"""Deterministic counter-based random streams.

Every random draw in the package flows through a Philox counter generator
keyed by (seed, purpose tag, indices), so results are reproducible bit for
bit regardless of execution order or worker count.  ``keys`` derives every
key, numpy's ``SeedSequence(entropy).generate_state(2, uint64)`` of those
integers, for many cells in one vectorized pass.  ``draw`` reads each keyed
stream's first raw 64-bit words from one Philox, re-keyed per stream to the
state a fresh Generator starts in (counter 0, the key, buffer position 4, no
spare 32-bit half); it also reads a ``stream``, one stream as a Generator
read in turn.  Raw words w give numpy's draws exactly:
``Generator.random`` is (w >> 11) * 2**-53 (``uniforms``), and
``Generator.integers(0, 2, size)`` is bit 31, then bit 63, of each word
(numpy's Lemire path on a word's two 32-bit halves, low first).  Normal
variates are an explicit Box-Muller transform of a stream's uniforms.
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
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = 16


def _tag_int(tag: str) -> int:
    """Stable 64-bit integer for a purpose tag."""
    return int.from_bytes(hashlib.sha256(tag.encode("utf-8")).digest()[:8], "big")


@functools.cache
def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """A hash's constant before each of its calls and after the last, as a column."""
    consts = [init * pow(mult, k, 1 << 32) & _MASK32 for k in range(calls + 1)]
    return np.array(consts, dtype=np.uint32)[:, None]


def _hash(values: np.ndarray, consts: np.ndarray, k: int, calls: int) -> np.ndarray:
    """The hash's calls k .. k + calls - 1, one per row of the result."""
    out = values ^ consts[k : k + calls]
    out *= consts[k + 1 : k + 1 + calls]
    out ^= out >> _XSHIFT
    return out


def _hash_keys(words: np.ndarray) -> np.ndarray:
    """numpy's SeedSequence hash of each column of ``words`` (W, rows), the
    cells' entropy as uint32 words, to that cell's Philox key: (rows, 2)
    uint64.  A mixing round hashes all its destination words as one array."""
    hash_a = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * max(len(words), _POOL_SIZE))
    pool = np.zeros((_POOL_SIZE, words.shape[1]), dtype=np.uint32)
    pool[: len(words)] = words[:_POOL_SIZE]
    pool, k = _hash(pool, hash_a, 0, _POOL_SIZE), _POOL_SIZE
    for src in range(max(len(words), _POOL_SIZE)):  # a pool word into the others, a word into all
        dst = [i for i in range(_POOL_SIZE) if i != src]
        hashed = _hash(pool[src] if src < _POOL_SIZE else words[src], hash_a, k, len(dst))
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed
        pool[dst], k = mixed ^ (mixed >> _XSHIFT), k + len(dst)
    # generate_state(2, uint64): four words, little-endian pairs
    state = _hash(pool, _hash_constants(_INIT_B, _MULT_B, 4), 0, 4)
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


def keys(tags, seeds, *indices) -> np.ndarray:
    """The Philox keys of the cells (seed, tag, *indices), shape
    (len(tags), *shape, 2) uint64: one per tag in ``tags`` and per entry of
    ``seeds`` and ``indices`` (any sign, each taken mod 2**64) broadcast
    together to ``shape``.  numpy splits each integer into 32-bit words (one
    below 2**32, two above), so the cells are hashed in groups of equal word
    count."""
    wrapped = [np.asarray(v, dtype=object) & _MASK64 for v in (seeds, *indices)]
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


def keyed(tag: str, seed) -> np.ndarray:
    """``tag``'s stream keys for ``seed``: an int gives one key (2,), a list
    or integer array of R seeds (R, 2); keys, a uint64 array whose last axis
    is 2 as ``keys`` returns them, pass through."""
    is_keys = isinstance(seed, np.ndarray) and seed.dtype == np.uint64 and seed.shape[-1:] == (2,)
    return seed if is_keys else keys((tag,), seed)[0]


def stream(seed: int, tag: str, *indices: int) -> np.random.Generator:
    """The (seed, tag, *indices) cell's stream as a Generator, read in turn."""
    return np.random.Generator(np.random.Philox(key=keys((tag,), seed, *indices)[0]))


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
    if source.ndim == 1:  # one key: its stream's words, uncopied
        return next(raw_words(source, count))
    words = np.array(list(raw_words(source, count)), dtype=np.uint64)
    return words.reshape(*source.shape[:-1], count)


def uniforms(words: np.ndarray) -> np.ndarray:
    """``Generator.random``'s doubles of raw words: (w >> 11) * 2**-53."""
    return (words >> 11) * 2.0**-53


def box_muller(words: np.ndarray, size) -> np.ndarray:
    """Standard normal draws via Box-Muller on raw words (``draw``), whose
    last axis holds each stream's n + n % 2 words for n = prod(size) normals,
    giving (*lead, *size).  u1 are a stream's first half of the words and u2
    the second, as a Generator's two ``random`` calls read them."""
    shape = (size,) if np.isscalar(size) else tuple(size)
    n = math.prod(shape)
    half = (n + 1) // 2
    lead = words.shape[:-1]
    radius = np.sqrt(-2.0 * np.log(1.0 - uniforms(words[..., :half])))  # 1 - u in (0, 1]
    angle = 2.0 * np.pi * uniforms(words[..., half : 2 * half])
    del words
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)[..., :n]
    return z.reshape((*lead, *shape))


def child_seed(master: int, *indices: int) -> int:
    """Derived 63-bit seed for a lattice cell; no two cells share a stream."""
    payload = ",".join(str(int(v)) for v in (master, *indices)).encode("ascii")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big") >> 1
