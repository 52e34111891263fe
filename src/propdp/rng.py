"""Deterministic counter-based random streams.

Every random draw in the package flows through a Philox counter generator
keyed by (seed, purpose tag, indices), so results are reproducible bit for
bit regardless of execution order or worker count.  Normal variates are
produced by an explicit Box-Muller transform of the stream's uniforms.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

_MASK64 = (1 << 64) - 1


def _tag_int(tag: str) -> int:
    """Stable 64-bit integer for a purpose tag."""
    return int.from_bytes(hashlib.sha256(tag.encode("utf-8")).digest()[:8], "big")


def stream(seed: int, tag: str, *indices: int) -> np.random.Generator:
    """Independent generator for the (seed, tag, *indices) cell."""
    entropy = [int(seed) & _MASK64, _tag_int(tag)] + [int(i) & _MASK64 for i in indices]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


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
