"""Gaussian quadrature rules, cached by node count.

Gauss-Hermite rules are transformed so that sum(w * f(z)) approximates
E[f(Z)] for Z ~ N(0,1): z = sqrt(2) * x_hermite and w = w_hermite / sqrt(pi).

The 2-D product rule keeps the nodes of weight w_i*w_j >= WEIGHT_FLOOR: 2,024
of 6,400 at 80 nodes, dropping a weight of 4.0e-19 (4,120 of 25,600 and 7.7e-19
at 160; 6,148 of 57,600 and 1.5e-18 at 240).  An integrand bounded by B moves by
at most B times the dropped weight; the logistic system's are bounded by
2*(1 + gamma + (kappa*|alpha| + sigma)*16.8) at 80 nodes: rounding level.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


DEFAULT_NODES_2D = 80

WEIGHT_FLOOR = 1e-20  # lighter 2-D product nodes are dropped; see above

NEWTON_STEPS = 2  # the eigenvalues are good to ~1e-14; two steps reach the float limit


def _hermite_functions(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi_n(x), phi_{n-1}(x) and sum_{k<n} phi_k(x)**2 for the orthonormal
    Hermite functions phi_k = p_k * exp(-x**2/2), where p_k are the
    polynomials orthonormal against exp(-x**2).  Carrying the exponential
    keeps every phi_k in [-1, 1]: the bare p_k overflow at 400 nodes."""
    prev = np.zeros_like(x)
    cur = math.pi**-0.25 * np.exp(-0.5 * x * x)
    total = cur * cur
    for k in range(1, n + 1):
        prev, cur = cur, math.sqrt(2.0 / k) * x * cur - math.sqrt((k - 1) / k) * prev
        if k < n:
            total += cur * cur
    return cur, prev, total


@lru_cache(maxsize=32)
def standard_normal_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights integrating against the N(0,1) density.

    The Hermite nodes are the eigenvalues of the Jacobi matrix (zero
    diagonal, off-diagonal sqrt(k/2)), refined by Newton steps on the
    three-term recurrence, p_n' = sqrt(2n) p_{n-1}; the weights are the
    Christoffel numbers exp(-x**2) / sum_{k<n} phi_k(x)**2.
    """
    x = np.linalg.eigvalsh(np.diag(np.sqrt(np.arange(1, n) / 2.0), -1))  # reads the lower triangle
    for _ in range(NEWTON_STEPS):
        phi_n, phi_prev, _ = _hermite_functions(n, x)
        x = x - phi_n / (math.sqrt(2.0 * n) * phi_prev)
    _, _, total = _hermite_functions(n, x)
    z = math.sqrt(2.0) * x
    w = np.exp(-x * x) / total / math.sqrt(math.pi)
    z.setflags(write=False)
    w.setflags(write=False)
    return z, w


@lru_cache(maxsize=8)
def standard_normal_rule_2d(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flattened tensor rule for two independent N(0,1) variables, without
    the nodes whose weight is below WEIGHT_FLOOR."""
    z, w = standard_normal_rule(n)
    ww = np.outer(w, w).ravel()
    keep = ww >= WEIGHT_FLOOR
    z1, z2, ww = np.repeat(z, n)[keep], np.tile(z, n)[keep], ww[keep]
    for arr in (z1, z2, ww):
        arr.setflags(write=False)
    return z1, z2, ww
