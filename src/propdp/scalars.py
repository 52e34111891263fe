"""Scalar calculus shared by every other module.

The Huber loss and the clip operator, the logistic sigmoid and its
derivative, the logistic proximal operator, standard Gaussian special
functions, and closed-form moments of clipped Gaussians.  The functions are
numpy ufunc-style, accepting scalars or arrays and broadcasting, except
``clipped_moments``, which takes numbers.  Scale parameters equal to zero
degenerate to the identity / indicator limits.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# prox_logistic's residual tolerance on |p + gamma*rho'(p) - x|, step cap, cache-sized chunk
PROX_TOL, PROX_MAX_ITER, PROX_CHUNK = 1e-12, 200, 16_384


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


def logistic_rho_prime(t):
    """Sigmoid 1/(1 + exp(-t)), evaluated on the non-overflowing branch."""
    t = np.asarray(t, dtype=float)
    p = 1.0 / (1.0 + np.exp(-np.abs(t)))  # sigmoid(|t|) in [0.5, 1)
    return np.where(t >= 0, p, 1.0 - p)


def logistic_rho_second(t):
    """Sigmoid derivative rho'(t) * (1 - rho'(t)) in (0, 1/4]."""
    p = logistic_rho_prime(t)
    return p * (1.0 - p)


def prox_logistic(x, gamma):
    """Unique p solving p + gamma * rho'(p) = x (gamma >= 0), PROX_CHUNK points at a time.

    Safeguarded Newton from x - gamma*rho'(x) in the bracket [x - gamma, x], which
    0 <= gamma*rho'(p) <= gamma forces.  An element is frozen once its residual
    g = p + gamma*rho'(p) - x has |g| <= PROX_TOL; the rest bisect their bracket
    whenever the Newton step would leave it or their last one failed to halve |g|.
    A sweep takes one sigmoid: the next step's rho'' = rho'(1 - rho') reuses it.
    """
    if gamma < 0:
        raise ValueError("prox_logistic: gamma must be >= 0")
    x = np.asarray(x, dtype=float)
    _check_finite("prox_logistic", x)
    if gamma == 0.0:
        return x + 0.0
    p = np.empty(x.shape)
    flat, xs = p.reshape(-1), x.reshape(-1)  # flat is a view: writes below land in p
    for start in range(0, xs.size, PROX_CHUNK):
        out, xa = flat[start:start + PROX_CHUNK], xs[start:start + PROX_CHUNK]
        out[...] = pa = xa - gamma * logistic_rho_prime(xa)
        g = pa + gamma * (r := logistic_rho_prime(pa)) - xa
        idx, ag = np.arange(xa.size), np.abs(g)
        lo, hi, fast = xa - gamma, xa.copy(), np.ones(xa.size, dtype=bool)
        for _ in range(PROX_MAX_ITER):
            if (keep := np.flatnonzero(ag > PROX_TOL)).size < idx.size:
                idx, xa, pa, r, g, ag, lo, hi, fast = (
                    a[keep] for a in (idx, xa, pa, r, g, ag, lo, hi, fast))
            if idx.size == 0:
                break
            np.copyto(lo, pa, where=g < 0)
            np.copyto(hi, pa, where=g > 0)
            cand = pa - g / (1.0 + gamma * (r * (1.0 - r)))
            newton = fast & (cand > lo) & (cand < hi)
            out[idx] = pa = cand if newton.all() else np.where(newton, cand, 0.5 * (lo + hi))
            g = pa + gamma * (r := logistic_rho_prime(pa)) - xa
            half, ag = 0.5 * ag, np.abs(g)
            fast = ~newton | (ag <= half)
        if (ag > PROX_TOL).any():
            raise NumericError(f"prox_logistic: no convergence, residual {ag.max():.3e}")
    return p


def gaussian_pdf(x):
    """Standard normal density; an exact 0 without exp's slow underflow where x*x > 1500."""
    if type(x) is not float:  # a float needs no 0-d array, and gives the same bits
        x = np.asarray(x, dtype=float)
    if type(x) is float or x.ndim == 0:
        return _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    e = np.multiply(-0.5, x, order="C")
    e *= x
    # exp is 0 below -745.14 in any rounding; with a NaN the min is NaN: the plain formula
    if e.min(initial=0.0) < -750.0:
        idx = np.flatnonzero(e >= -750.0)
        part = e.reshape(-1)[idx]
        e.fill(0.0)
        e.reshape(-1)[idx] = np.multiply(np.exp(part, out=part), _INV_SQRT_2PI, out=part)
        return e
    return np.multiply(np.exp(e, out=e), _INV_SQRT_2PI, out=e)


# W. J. Cody's rational approximations to erf and erfc ("Rational Chebyshev
# approximations for the error function", Math. Comp. 23, 1969), with the
# coefficients of his CALERF routine: erf on |x| <= 0.46875, erfc on
# (0.46875, 4] and erfc on |x| > 4 in powers of 1/x**2
_ERF_NEAR_P = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
               3.20937758913846947e03, 1.85777706184603153e-1)
_ERF_NEAR_Q = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
               2.84423683343917062e03)
_ERFC_MID_P = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
               2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
               2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8)
_ERFC_MID_Q = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
               1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
               3.43936767414372164e03, 1.23033935480374942e03)
_ERFC_FAR_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
               1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_ERFC_FAR_Q = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
               6.05183413124413191e-2, 2.33520497626869185e-3)
_INV_SQRT_PI = 5.6418958354775628695e-1
_ERF_NEAR = 0.46875
_ERFC_MID = 4.0
# erfc is 2 to the nearest float at x <= -6; from 26.6 up it is subnormal or 0
_ERFC_TWO_BELOW = -6.0
_ERFC_ZERO_ABOVE = 26.6


def _erfc_near(x):
    """erfc(x) = 1 - erf(x) for |x| <= 0.46875."""
    xsq = x * x
    num, den = _ERF_NEAR_P[4] * xsq, xsq
    for p, q in zip(_ERF_NEAR_P[:3], _ERF_NEAR_Q[:3]):
        num = (num + p) * xsq
        den = (den + q) * xsq
    return 1.0 - x * (num + _ERF_NEAR_P[3]) / (den + _ERF_NEAR_Q[3])


def _times_gaussian(r, y):
    """r * exp(-y*y), with y*y split at a multiple of 1/16 so that the large
    part of the exponent is exact."""
    head = np.floor(y * 16.0) / 16.0
    return np.exp(-head * head) * np.exp(-(y - head) * (y + head)) * r


def _erfc_mid(y):
    """erfc(y) for 0.46875 < y <= 4."""
    num, den = _ERFC_MID_P[8] * y, y
    for p, q in zip(_ERFC_MID_P[:7], _ERFC_MID_Q[:7]):
        num = (num + p) * y
        den = (den + q) * y
    return _times_gaussian((num + _ERFC_MID_P[7]) / (den + _ERFC_MID_Q[7]), y)


def _erfc_far(y):
    """erfc(y) for y > 4."""
    ysq = 1.0 / (y * y)
    num, den = _ERFC_FAR_P[5] * ysq, ysq
    for p, q in zip(_ERFC_FAR_P[:4], _ERFC_FAR_Q[:4]):
        num = (num + p) * ysq
        den = (den + q) * ysq
    tail = ysq * (num + _ERFC_FAR_P[4]) / (den + _ERFC_FAR_Q[4])
    return _times_gaussian((_INV_SQRT_PI - tail) / y, y)


def erfc(x):
    """Complementary error function, to within 1e-15 relative where the result
    is a normal float: exactly 0 at x >= 26.6, exactly 2 at x <= -6, and NaN
    for NaN, which fails every comparison and comes out of the far formula.
    A 0-d input takes a float path through the same formulas, in the same
    order, so it gives the same bits as the array path."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return np.float64(_erfc_float(float(x)))
    flat = x.ravel()
    out = (flat < 0) * 2.0
    # only the unsaturated elements, NaN among them, are computed
    idx = np.flatnonzero(~((flat <= _ERFC_TWO_BELOW) | (flat >= _ERFC_ZERO_ABOVE)))
    v = flat[idx]
    y = np.abs(v)
    near, mid = y <= _ERF_NEAR, y <= _ERFC_MID
    r = np.empty_like(v)
    part = np.flatnonzero(near)
    r[part] = _erfc_near(v[part])
    part = np.flatnonzero(mid & ~near)
    r[part] = _erfc_mid(y[part])
    part = np.flatnonzero(~mid)
    r[part] = _erfc_far(y[part])
    out[idx] = np.where(~near & (v < 0), 2.0 - r, r)
    return out.reshape(x.shape)


def _erfc_float(v: float) -> float:
    """erfc at a float: the array path's formulas, in the same order."""
    if v >= _ERFC_ZERO_ABOVE:
        return 0.0
    if v <= _ERFC_TWO_BELOW:
        return 2.0
    y = abs(v)
    if y <= _ERF_NEAR:
        return _erfc_near(v)
    r = _erfc_mid(y) if y <= _ERFC_MID else _erfc_far(y)
    return 2.0 - r if v < 0 else r


def gaussian_cdf(x):
    """Standard normal CDF via the complementary error function."""
    if type(x) is float:  # the 0-d path without the 0-d array
        return np.float64(0.5 * _erfc_float(float(-x / _SQRT2)))
    x = np.asarray(x, dtype=float)
    return 0.5 * erfc(-x / _SQRT2)


def clipped_mean_inside(mu, s: float, L):
    """E[clip(mu + s*Z, L)] and P(|mu + s*Z| < L) for Z ~ N(0,1) and a number s >= 0,
    from one pair of Gaussian CDFs; s = 0 gives clip(mu, L) and 1{|mu| < L}."""
    _check_finite("clipped_mean_inside", mu)
    mu = np.asarray(mu, dtype=float)
    if not s > 0:
        return clip(mu, L), (np.abs(mu) < L).astype(float)
    a = (-L - mu) / s
    b = (L - mu) / s
    pa, pb = gaussian_cdf(a), gaussian_cdf(b)
    inside = pb - pa
    return mu * inside - s * (gaussian_pdf(b) - gaussian_pdf(a)) - L * pa + L * (1.0 - pb), inside


def clipped_moments(mu: float, s: float, L: float):
    """E[clip(mu + s*Z, L)**2] and P(|mu + s*Z| < L) for Z ~ N(0,1) and numbers
    mu and s, and their gradient in (mu, s): ``(M2, P), [[dM2/dmu, dM2/ds],
    [dP/dmu, dP/ds]]``, from one pair of Gaussian CDFs and one of densities.
    s <= 0 gives clip(mu, L)**2, 1{|mu| < L} and the limits [[2*mu*1{|mu| < L}, 0], [0, 0]]."""
    mu, s, L = float(mu), float(s), float(L)  # float arithmetic: no 0-d numpy overhead
    if s <= 0:
        inside = float(abs(mu) < L)
        clipped = min(max(mu, -L), L)
        return (clipped * clipped, inside), np.array([[2.0 * mu * inside, 0.0], [0.0, 0.0]])
    # a subnormal s overflows the bounds to +/-inf, and a*pdf(a) would be inf*0 = nan; the
    # pdf and cdf saturate by |z| ~ 40, so a cap is exact, and 1e150 keeps x*x finite.
    # max and min keep a NaN in their first argument, as np.clip does
    a = min(max((-L - mu) / s, -1e150), 1e150)
    b = min(max((L - mu) / s, -1e150), 1e150)
    pa, pb = float(gaussian_cdf(a)), float(gaussian_cdf(b))
    fa, fb = float(gaussian_pdf(a)), float(gaussian_pdf(b))
    inside = pb - pa
    second = ((mu * mu + s * s) * inside + 2.0 * mu * s * (fa - fb)
              + s * s * (a * fa - b * fb) + L * L * (pa + 1.0 - pb))
    # at |mu| ~ L and a subnormal s the P row is ~ pdf(0)/s and beyond the float range;
    # it overflows to +/-inf, its value in floats (which, unlike numpy, do not warn)
    grad = np.array([
        [2.0 * (mu * inside + s * (fa - fb)), 2.0 * (s * inside - L * (fa + fb))],
        [(fa - fb) / s, -(L * (fa + fb) + mu * (fa - fb)) / s / s],
    ])
    return (second, inside), grad
