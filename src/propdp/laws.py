"""Finite mixture laws for signal coordinates and additive noise.

A ScalarLaw is a finite mixture whose components are either Gaussian
(mean 0, given std) or point masses; that covers every distribution used
by the solvers and the experiment harness.  Clipped-Gaussian moments of
``m + eps`` with ``eps ~ law`` reduce to exact per-component closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng, scalars
from .errors import ConfigError


@dataclass(frozen=True)
class ScalarLaw:
    """Mixture sum_c weights[c] * N(locs[c], scales[c]**2), scale 0 = point mass."""

    weights: tuple[float, ...]
    locs: tuple[float, ...]
    scales: tuple[float, ...]

    def __post_init__(self):
        if not (len(self.weights) == len(self.locs) == len(self.scales)):
            raise ValueError("ScalarLaw: component tuples must share a length")
        if len(self.weights) == 0:
            raise ValueError("ScalarLaw: at least one component required")
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < 0) or abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValueError("ScalarLaw: weights must be nonnegative and sum to 1")
        if any(s < 0 for s in self.scales):
            raise ValueError("ScalarLaw: scales must be >= 0")
        if not all(np.isfinite(v) for v in (*self.weights, *self.locs, *self.scales)):
            raise ValueError("ScalarLaw: non-finite component parameter")

    @staticmethod
    def gaussian(std: float) -> "ScalarLaw":
        return ScalarLaw((1.0,), (0.0,), (float(std),))

    @staticmethod
    def point_mass(value: float) -> "ScalarLaw":
        return ScalarLaw((1.0,), (float(value),), (0.0,))

    @staticmethod
    def mixture(weights, components: "list[ScalarLaw] | tuple[ScalarLaw, ...]") -> "ScalarLaw":
        """Mixture of already-built laws with the given outer weights."""
        weights = tuple(float(w) for w in weights)
        if len(weights) != len(components):
            raise ValueError("ScalarLaw.mixture: one weight per component")
        ws, ls, ss = [], [], []
        for w_outer, comp in zip(weights, components):
            for w_inner, loc, scale in zip(comp.weights, comp.locs, comp.scales):
                ws.append(w_outer * w_inner)
                ls.append(loc)
                ss.append(scale)
        return ScalarLaw(tuple(ws), tuple(ls), tuple(ss))

    def moment(self, k: int) -> float:
        """Raw moment E[X**k] for k in 0..4."""
        if not 0 <= k <= 4:
            raise ValueError("ScalarLaw.moment: k must be in 0..4")
        total = 0.0
        for w, mu, s in zip(self.weights, self.locs, self.scales):
            v = s * s
            raw = {
                0: 1.0,
                1: mu,
                2: mu * mu + v,
                3: mu**3 + 3.0 * mu * v,
                4: mu**4 + 6.0 * mu * mu * v + 3.0 * v * v,
            }[k]
            total += w * raw
        return total

    @property
    def second_moment(self) -> float:
        return self.moment(2)

    @property
    def root_second_moment(self) -> float:
        """sqrt(E[X**2]) as the hypot of every sqrt(w)*loc and sqrt(w)*scale,
        which stays finite where E[X**2] itself overflows."""
        terms = []
        for w, loc, scale in zip(self.weights, self.locs, self.scales):
            terms += [math.sqrt(w) * loc, math.sqrt(w) * scale]
        return math.hypot(*terms)

    def sample(self, gen: np.random.Generator | list[np.random.Generator], size) -> np.ndarray:
        """Draws, with component choice and Box-Muller normals from ``gen``.

        ``gen`` may also be a sequence of generators: row k of the result is
        then ``sample(gen[k], size)``, with every row drawn in one pass."""
        single = isinstance(gen, np.random.Generator)
        gens = [gen] if single else list(gen)
        shape = (size,) if np.isscalar(size) else tuple(size)
        n = int(np.prod(shape)) if shape else 1
        locs = np.asarray(self.locs)
        scales = np.asarray(self.scales)
        if len(self.weights) == 1:
            idx = np.zeros((len(gens), n), dtype=int)
        else:
            edges = np.cumsum(np.asarray(self.weights))
            idx = np.searchsorted(edges, np.array([g.random(n) for g in gens]), side="right")
            idx = np.minimum(idx, len(self.weights) - 1)
        z = rng.box_muller(gens, n)
        draws = locs[idx] + scales[idx] * z
        if single:
            return draws[0].reshape(shape)
        return draws.reshape((len(gens), *shape))


# --- clipped moments of m + eps, eps ~ law (exact component sums) ---------


def _fold(m, law: ScalarLaw, fn, L):
    m = np.asarray(m, dtype=float)
    total = np.zeros_like(m)
    for w, loc, scale in zip(law.weights, law.locs, law.scales):
        total = total + w * fn(m + loc, scale, L)
    return total


def law_clipped_mean(m, law: ScalarLaw, L) -> np.ndarray:
    """E[clip(m + eps, L)] with eps ~ law."""
    return _fold(m, law, scalars.clipped_mean, L)


def law_interval_probability(m, law: ScalarLaw, L) -> np.ndarray:
    """P(|m + eps| < L) with eps ~ law."""
    return _fold(m, law, scalars.interval_probability, L)


def parse_law(text: str) -> ScalarLaw:
    """Parse 'gaussian:STD', 'point:VALUE', or 'mix:W*SPEC,W*SPEC,...'."""
    text = text.strip()
    try:
        if text.startswith("mix:"):
            weights, parts = [], []
            for item in text[len("mix:"):].split(","):
                w, _, spec = item.partition("*")
                weights.append(float(w))
                parts.append(parse_law(spec))
            return ScalarLaw.mixture(weights, parts)
        kind, _, value = text.partition(":")
        if kind == "gaussian":
            return ScalarLaw.gaussian(float(value))
        if kind == "point":
            return ScalarLaw.point_mass(float(value))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad law spec {text!r}: {exc}") from None
    raise ConfigError(f"unknown law spec {text!r} (want gaussian:STD, point:VALUE, or mix:...)")
