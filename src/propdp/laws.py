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

    @property
    def second_moment(self) -> float:
        """E[X**2]."""
        total = 0.0
        for w, mu, s in zip(self.weights, self.locs, self.scales):
            total += w * (mu * mu + s * s)
        return total

    @property
    def root_second_moment(self) -> float:
        """sqrt(E[X**2]) as the hypot of every sqrt(w)*loc and sqrt(w)*scale,
        which stays finite where E[X**2] itself overflows."""
        terms = []
        for w, loc, scale in zip(self.weights, self.locs, self.scales):
            terms += [math.sqrt(w) * loc, math.sqrt(w) * scale]
        return math.hypot(*terms)

    def sample(self, source, size) -> np.ndarray:
        """Draws, with component choice and Box-Muller normals, from
        ``source``, as ``rng.draw`` reads it: keys (*lead, 2) give one
        (*lead, *size) row each.  A mixture's stream holds n component
        uniforms first, then the normals' words."""
        shape = (size,) if np.isscalar(size) else tuple(size)
        n = math.prod(shape)
        picks = n if len(self.weights) > 1 else 0
        words = rng.draw(source, picks + n + n % 2)
        z = rng.box_muller(words[..., picks:], n)
        if picks:
            edges = np.cumsum(np.asarray(self.weights))
            idx = np.searchsorted(edges, rng.uniforms(words[..., :picks]), side="right")
            idx = np.minimum(idx, len(self.weights) - 1)
            draws = np.asarray(self.locs)[idx] + np.asarray(self.scales)[idx] * z
        else:
            draws = self.locs[0] + self.scales[0] * z
        return draws.reshape((*words.shape[:-1], *shape))


# --- clipped moments of m + eps, eps ~ law (exact component sums) ---------


def law_clipped_mean_inside(m, law: ScalarLaw, L, out: np.ndarray) -> np.ndarray:
    """E[clip(m + eps, L)] and P(|m + eps| < L) with eps ~ law, written into
    rows 0 and 1 of ``out``, a (2, *m.shape) array."""
    m = np.asarray(m, dtype=float)
    out[...] = 0.0
    for w, loc, scale in zip(law.weights, law.locs, law.scales):
        mean, inside = scalars.clipped_mean_inside(m + loc, scale, L)
        out[0] += w * mean
        out[1] += w * inside
    return out


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
