"""Gaussian quadrature rules, cached by node count.

Gauss-Hermite rules are transformed so that sum(w * f(z)) approximates
E[f(Z)] for Z ~ N(0,1): z = sqrt(2) * x_hermite and w = w_hermite / sqrt(pi).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import roots_hermite


DEFAULT_NODES_1D = 120
DEFAULT_NODES_2D = 80


@lru_cache(maxsize=32)
def standard_normal_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights integrating against the N(0,1) density.

    scipy's Hermite roots stay numerically stable at high node counts where
    the numpy recurrence overflows.
    """
    x, w = roots_hermite(n)
    z = np.sqrt(2.0) * x
    w = w / np.sqrt(np.pi)
    z.setflags(write=False)
    w.setflags(write=False)
    return z, w


@lru_cache(maxsize=8)
def standard_normal_rule_2d(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flattened tensor rule for two independent N(0,1) variables."""
    z, w = standard_normal_rule(n)
    z1 = np.repeat(z, n)
    z2 = np.tile(z, n)
    ww = np.outer(w, w).ravel()
    for arr in (z1, z2, ww):
        arr.setflags(write=False)
    return z1, z2, ww
