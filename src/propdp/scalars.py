"""Scalar calculus shared by every other module.

Huber and logistic losses, the clip operator, proximal operators, standard
Gaussian special functions, and closed-form moments of clipped Gaussians.
All functions are numpy ufunc-style: they accept scalars or arrays and
broadcast. Scale parameters equal to zero degenerate to the identity /
indicator limits.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erfc

from .errors import NumericError

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _check_finite(name: str, *values) -> None:
    for v in values:
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{name}: non-finite input")


def huber(r, L):
    """Huber loss: r**2/2 inside [-L, L], L*|r| - L**2/2 outside."""
    _check_finite("huber", r, L)
    r = np.asarray(r, dtype=float)
    a = np.abs(r)
    return np.where(a <= L, 0.5 * r * r, L * a - 0.5 * L * L)


def clip(r, L):
    """Clip to [-L, L]; the derivative of the Huber loss."""
    _check_finite("clip", r, L)
    return np.clip(np.asarray(r, dtype=float), -L, L)


def logistic_rho(t):
    """Softplus log(1 + exp(t)), stable for |t| up to the float range."""
    t = np.asarray(t, dtype=float)
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def logistic_rho_prime(t):
    """Sigmoid 1/(1 + exp(-t)), evaluated on the non-overflowing branch."""
    t = np.asarray(t, dtype=float)
    p = 1.0 / (1.0 + np.exp(-np.abs(t)))  # sigmoid(|t|) in [0.5, 1)
    return np.where(t >= 0, p, 1.0 - p)


def logistic_rho_second(t):
    """Sigmoid derivative rho'(t) * (1 - rho'(t)) in (0, 1/4]."""
    p = logistic_rho_prime(t)
    return p * (1.0 - p)


def prox_logistic(x, gamma, tol=1e-12, max_iter=200):
    """Unique p solving p + gamma * rho'(p) = x (gamma >= 0).

    Safeguarded Newton started at x - gamma*rho'(x), with the bracket
    [x - gamma, x] forced by 0 <= gamma*rho'(p) <= gamma.  An element is
    frozen once its residual g = p + gamma*rho'(p) - x has |g| <= tol, and
    only the rest are iterated; an element bisects its bracket whenever the
    Newton step would leave it, or its last Newton step failed to halve |g|.
    """
    if gamma < 0:
        raise ValueError("prox_logistic: gamma must be >= 0")
    x = np.asarray(x, dtype=float)
    _check_finite("prox_logistic", x)
    if gamma == 0.0:
        return x + 0.0
    p = np.array(x - gamma * logistic_rho_prime(x), order="C")
    flat = p.reshape(-1)  # a view of the C-ordered p: writes below land in p
    g = flat + gamma * logistic_rho_prime(flat) - x.reshape(-1)
    idx = np.flatnonzero(np.abs(g) > tol)
    xa, pa, g = x.reshape(-1)[idx], flat[idx], g[idx]
    lo, hi, fast = xa - gamma, xa.copy(), np.ones(idx.size, dtype=bool)
    for _ in range(max_iter):
        if idx.size == 0:
            return p
        lo = np.where(g < 0, pa, lo)
        hi = np.where(g > 0, pa, hi)
        cand = pa - g / (1.0 + gamma * logistic_rho_second(pa))
        newton = fast & (cand > lo) & (cand < hi)
        pa = np.where(newton, cand, 0.5 * (lo + hi))
        g_new = pa + gamma * logistic_rho_prime(pa) - xa
        fast = ~newton | (np.abs(g_new) <= 0.5 * np.abs(g))
        g = g_new
        flat[idx] = pa
        active = np.abs(g) > tol
        if not active.all():
            idx, xa, pa, g, lo, hi, fast = (a[active] for a in (idx, xa, pa, g, lo, hi, fast))
    if idx.size:
        raise NumericError(f"prox_logistic: no convergence, residual {np.abs(g).max():.3e}")
    return p


def gaussian_pdf(x):
    """Standard normal density."""
    x = np.asarray(x, dtype=float)
    return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def gaussian_cdf(x):
    """Standard normal CDF via the complementary error function."""
    x = np.asarray(x, dtype=float)
    return 0.5 * erfc(-x / _SQRT2)


def interval_probability(mu, s, L):
    """P(|mu + s*Z| < L) for Z ~ N(0,1); s = 0 gives the indicator."""
    mu = np.asarray(mu, dtype=float)
    s = np.asarray(s, dtype=float)
    safe = np.where(s > 0, s, 1.0)
    gaussian = gaussian_cdf((L - mu) / safe) - gaussian_cdf((-L - mu) / safe)
    return np.where(s > 0, gaussian, (np.abs(mu) < L).astype(float))


def clipped_mean(mu, s, L):
    """E[clip(mu + s*Z, L)] for Z ~ N(0,1); s = 0 gives clip(mu, L)."""
    mu = np.asarray(mu, dtype=float)
    s = np.asarray(s, dtype=float)
    safe = np.where(s > 0, s, 1.0)
    a = (-L - mu) / safe
    b = (L - mu) / safe
    pa, pb = gaussian_cdf(a), gaussian_cdf(b)
    val = mu * (pb - pa) - safe * (gaussian_pdf(b) - gaussian_pdf(a)) - L * pa + L * (1.0 - pb)
    return np.where(s > 0, val, clip(mu, L))


def clipped_second_moment(mu, s, L):
    """E[clip(mu + s*Z, L)**2] for Z ~ N(0,1); s = 0 gives clip(mu, L)**2."""
    mu = np.asarray(mu, dtype=float)
    s = np.asarray(s, dtype=float)
    safe = np.where(s > 0, s, 1.0)
    # cap the standardized bounds: a subnormal s overflows the division to
    # +/-inf and the a*pdf(a) products below would become inf*0 = nan; the
    # pdf/cdf factors already saturate by |z| ~ 40, so capping is exact,
    # and 1e150 keeps x*x inside the pdf finite as well
    with np.errstate(over="ignore"):
        a = np.clip((-L - mu) / safe, -1e150, 1e150)
        b = np.clip((L - mu) / safe, -1e150, 1e150)
    pa, pb = gaussian_cdf(a), gaussian_cdf(b)
    fa, fb = gaussian_pdf(a), gaussian_pdf(b)
    val = (
        (mu * mu + safe * safe) * (pb - pa)
        + 2.0 * mu * safe * (fa - fb)
        + safe * safe * (a * fa - b * fb)
        + L * L * (pa + 1.0 - pb)
    )
    return np.where(s > 0, val, clip(mu, L) ** 2)


def clipped_moment_gradients(mu, s, L):
    """Gradients in (mu, s) of clipped_second_moment and interval_probability
    at scalar arguments, as [[dM2/dmu, dM2/ds], [dP/dmu, dP/ds]]; s = 0 gives
    the limits 2*mu*1{|mu|<L}, 0, 0, 0."""
    if s <= 0:
        return np.array([[2.0 * mu * float(abs(mu) < L), 0.0], [0.0, 0.0]])
    with np.errstate(over="ignore"):  # a subnormal s: the pdfs vanish
        fa, fb = gaussian_pdf((-L - mu) / s), gaussian_pdf((L - mu) / s)
    inside = interval_probability(mu, s, L)
    return np.array([
        [2.0 * (mu * inside + s * (fa - fb)), 2.0 * (s * inside - L * (fa + fb))],
        [(fa - fb) / s, -(L * (fa + fb) + mu * (fa - fb)) / s / s],
    ])


def expected_huber(mu, s, L):
    """E[H_L(mu + s*Z)] for Z ~ N(0,1); s = 0 gives H_L(mu).

    Uses H_L(v) = clip(v, L)**2 / 2 + L*(v - L)_+ + L*(-v - L)_+, whose
    Gaussian expectation is closed-form; each positive part contributes
    E[(a + s*Z)_+] = s*pdf(a/s) + a*cdf(a/s).
    """
    mu = np.asarray(mu, dtype=float)
    s = np.asarray(s, dtype=float)
    safe = np.where(s > 0, s, 1.0)
    up = (mu - L) / safe
    dn = (-mu - L) / safe
    tails = (
        safe * (gaussian_pdf(up) + gaussian_pdf(dn))
        + (mu - L) * gaussian_cdf(up)
        + (-mu - L) * gaussian_cdf(dn)
    )
    val = 0.5 * clipped_second_moment(mu, safe, L) + L * tails
    return np.where(s > 0, val, huber(mu, L))
