"""Test-side reference code that the runtime package does not need.

The package solves with closed-form Jacobians only; the helpers here give
tests an independent view: a central-difference Jacobian, root enumeration
over a wide start set, the raw moments of a law, the Huber prox, the whole-array logistic prox
(the bit-for-bit reference of the chunked runtime kernel) and the prox derivative, the closed
form of the centred clipped Gaussian second moment, the plain formulas of
the Gaussian density, the clipped Gaussian mean, the clipped second moment,
the interval probability and their gradients, and their mixture folds (the
bit-for-bit references of the fused runtime kernels), the loss values that
no fit evaluates (softplus, the expected Huber loss, and each margin loss's
``loss_values``), the doubled-node (Gauss-Legendre panel) residual of the
Huber system, the unpruned 2-D product rule, quadrature expectations and
limit-law moments, and first-order gradient descent as the reference for the Newton learner;
and ``one_at_a_time``, which checks that a sweep's reader keeps no grid point.
"""

from __future__ import annotations

import weakref
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from propdp import quadrature
from propdp.erm import GRADIENT_TOL_SCALE
from propdp.errors import NonConvergenceError
from propdp.huber_theory import HuberSolution, _clipped_residual, residual_second_moment
from propdp.laws import ScalarLaw
from propdp.losses import HuberCeLoss, HuberLoss, LogisticCeLoss, LogisticLoss
from propdp.newton import damped_newton, multistart_seeds
from propdp.privacy import GlmSensitivity
from propdp.rng import box_muller, draw, stream
from propdp.errors import NumericError
from propdp.scalars import (
    PROX_MAX_ITER,
    PROX_TOL,
    _check_finite,
    clip,
    gaussian_cdf,
    gaussian_pdf,
    huber,
    logistic_rho_prime,
    logistic_rho_second,
    prox_logistic,
)

_JACOBIAN_REL_STEP = 1e-6

# node count of the one-dimensional Gauss-Hermite rule behind the expectations here
DEFAULT_NODES_1D = 120


def central_difference_jacobian(f, x) -> np.ndarray:
    """Jacobian of the residual-only map ``f`` at x by central differences
    (relative step 1e-6, floored at 1e-8 absolute)."""
    x = np.asarray(x, dtype=float)
    columns = []
    for j in range(x.size):
        h = _JACOBIAN_REL_STEP * max(abs(x[j]), 1e-2)
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        columns.append((np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * h))
    return np.stack(columns, axis=1)


def staggered_seeds(k: int, levels: int = 4) -> list[np.ndarray]:
    """Log-spaced cross-product seeds over [1e-2, 1e2]**k.

    Diagonal seeds alone cannot reach the off-diagonal roots of
    coordinate-symmetric systems (the Jacobian is singular on the diagonal
    and Newton stays confined to it), so enumeration also starts from
    every combination of per-coordinate levels.
    """
    axis = np.geomspace(1e-2, 1e2, levels)
    grids = np.meshgrid(*([axis] * k), indexing="ij")
    return list(np.stack([g.ravel() for g in grids], axis=1))


def enumerate_roots(f, x0, *, tol: float = 1e-11) -> list:
    """All distinct converged roots across the start set (1e-6 relative dedup).

    ``f(x)`` returns ``(F, J)`` as for ``damped_newton``.  Starts from x0,
    the diagonal restart seeds, and the staggered cross-product seeds;
    non-converging starts are skipped.
    """
    starts = [np.asarray(x0, dtype=float)] + multistart_seeds(len(x0)) + staggered_seeds(len(x0))
    roots = []
    for start in starts:
        try:
            res = damped_newton(f, start, tol=tol)
        except NonConvergenceError:
            continue
        if not any(np.allclose(res.x, r.x, rtol=1e-6, atol=1e-9) for r in roots):
            roots.append(res)
    return roots


def prox_huber(s, tau, L):
    """prox of tau * Huber_L: minimizes 0.5*(y-s)**2 + tau*H_L(y).

    Uses the identity s - prox(s) = tau * clip(s / (1 + tau), L).
    """
    s = np.asarray(s, dtype=float)
    return s - tau * clip(s / (1.0 + tau), L)


def prox_logistic_reference(x, gamma):
    """The logistic prox on the whole input at once, with two sigmoids per sweep
    (rho' for the residual, rho'' for the step): the bit-for-bit reference of
    ``scalars.prox_logistic``, which carries rho' into the step and runs in chunks."""
    if gamma < 0:
        raise ValueError("prox_logistic: gamma must be >= 0")
    x = np.asarray(x, dtype=float)
    _check_finite("prox_logistic", x)
    if gamma == 0.0:
        return x + 0.0
    p = np.array(x - gamma * logistic_rho_prime(x), order="C")
    flat = p.reshape(-1)  # a view of the C-ordered p: writes below land in p
    g = flat + gamma * logistic_rho_prime(flat) - x.reshape(-1)
    idx = np.flatnonzero(np.abs(g) > PROX_TOL)
    xa, pa, g = x.reshape(-1)[idx], flat[idx], g[idx]
    lo, hi, fast = xa - gamma, xa.copy(), np.ones(idx.size, dtype=bool)
    for _ in range(PROX_MAX_ITER):
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
        active = np.abs(g) > PROX_TOL
        if not active.all():
            idx, xa, pa, g, lo, hi, fast = (a[active] for a in (idx, xa, pa, g, lo, hi, fast))
    if idx.size:
        raise NumericError(f"prox_logistic: no convergence, residual {np.abs(g).max():.3e}")
    return p


def prox_logistic_derivative(x, gamma):
    """Derivative of prox_logistic in x: 1/(1 + gamma*rho''(prox))."""
    if gamma == 0.0:
        return np.ones_like(np.asarray(x, dtype=float))
    p = prox_logistic(x, gamma)
    return 1.0 / (1.0 + gamma * logistic_rho_second(p))


def truncated_second_moment(s, L):
    """E[clip(s*Z, L)**2] for Z ~ N(0,1), in closed form; s = 0 gives 0."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise ValueError("truncated_second_moment: s must be >= 0")
    safe = np.where(s > 0, s, 1.0)
    r = L / safe
    val = safe * safe * (2.0 * gaussian_cdf(r) - 1.0) - 2.0 * safe * L * gaussian_pdf(r) + 2.0 * L * L * (
        1.0 - gaussian_cdf(r)
    )
    return np.where(s > 0, val, 0.0)


def interval_probability(mu, s, L):
    """P(|mu + s*Z| < L) for Z ~ N(0,1); s = 0 gives the indicator.  With the
    two functions after it, the bit-for-bit reference of ``scalars.clipped_moments``."""
    mu = np.asarray(mu, dtype=float)
    s = np.asarray(s, dtype=float)
    safe = np.where(s > 0, s, 1.0)
    with np.errstate(over="ignore"):  # a subnormal s: the CDFs saturate
        gaussian = gaussian_cdf((L - mu) / safe) - gaussian_cdf((-L - mu) / safe)
    return np.where(s > 0, gaussian, (np.abs(mu) < L).astype(float))


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
    clipped = clip(mu, L)  # squared by multiplication: ** on a numpy scalar is libm pow
    return np.where(s > 0, val, clipped * clipped)


def clipped_moment_gradients(mu, s, L):
    """Gradients in (mu, s) of clipped_second_moment and interval_probability
    at scalar arguments, as [[dM2/dmu, dM2/ds], [dP/dmu, dP/ds]]; s = 0 gives
    the limits 2*mu*1{|mu|<L}, 0, 0, 0."""
    if s <= 0:
        return np.array([[2.0 * mu * float(abs(mu) < L), 0.0], [0.0, 0.0]])
    with np.errstate(over="ignore"):  # a subnormal s: the pdfs vanish
        fa, fb = gaussian_pdf((-L - mu) / s), gaussian_pdf((L - mu) / s)
    inside = interval_probability(mu, s, L)
    with np.errstate(over="ignore"):  # |mu| ~ L and a subnormal s: dP/dmu ~ pdf(0)/s
        return np.array([
            [2.0 * (mu * inside + s * (fa - fb)), 2.0 * (s * inside - L * (fa + fb))],
            [(fa - fb) / s, -(L * (fa + fb) + mu * (fa - fb)) / s / s],
        ])


def logistic_rho(t):
    """Softplus log(1 + exp(t)), stable for |t| up to the float range."""
    t = np.asarray(t, dtype=float)
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


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


def loss_values(loss, margins, y) -> np.ndarray:
    """Per-sample values of one of the four margin losses, whose margin
    derivative is ``loss.gradients``: H_L(y - m); rho(m) - y*m;
    E_eps[H_L(y + eps - m)]; rho(m) - rho'(y)*m."""
    if isinstance(loss, HuberLoss):
        return huber(np.asarray(y) - np.asarray(margins), loss.L)
    if isinstance(loss, HuberCeLoss):
        residual = np.asarray(y, dtype=float) - np.asarray(margins, dtype=float)
        total = np.zeros_like(residual)
        for weight, loc, scale in zip(loss.noise.weights, loss.noise.locs, loss.noise.scales):
            total += weight * expected_huber(residual + loc, scale, loss.L)
        return total
    margins = np.asarray(margins)
    if isinstance(loss, LogisticLoss):
        return logistic_rho(margins) - np.asarray(y) * margins
    assert isinstance(loss, LogisticCeLoss)
    return logistic_rho(margins) - logistic_rho_prime(np.asarray(y)) * margins


def next_normals(gen, size) -> np.ndarray:
    """Box-Muller normals of a Generator's next n + n % 2 raw words."""
    n = int(np.prod(size))
    return box_muller(draw(gen, n + n % 2), size)


def normal(seed: int, tag: str, *indices: int, size) -> np.ndarray:
    """Standard normal draws from the (seed, tag, *indices) stream."""
    return next_normals(stream(seed, tag, *indices), size)


def reference_normals(gen, size):
    """Box-Muller as it reads a Generator: two ``random`` calls of ceil(n/2)."""
    n = int(np.prod(size))
    half = (n + 1) // 2
    u1, u2 = gen.random(half), gen.random(half)
    radius, angle = np.sqrt(-2.0 * np.log(1.0 - u1)), 2.0 * np.pi * u2
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n].reshape(size)


def expect(fn, n: int = DEFAULT_NODES_1D) -> float:
    """E[fn(Z)] for Z ~ N(0,1)."""
    z, w = quadrature.standard_normal_rule(n)
    return float(np.dot(w, fn(z)))


def full_rule_2d(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The whole n*n product rule, before ``quadrature.standard_normal_rule_2d``
    drops the nodes lighter than its weight floor."""
    z, w = quadrature.standard_normal_rule(n)
    return np.repeat(z, n), np.tile(z, n), np.outer(w, w).ravel()


def expect2d(fn, n: int = quadrature.DEFAULT_NODES_2D) -> float:
    """E[fn(Z1, Z2)] for independent standard normals."""
    z1, z2, w = quadrature.standard_normal_rule_2d(n)
    return float(np.dot(w, fn(z1, z2)))


def law_expect(fn, law: ScalarLaw, n: int = DEFAULT_NODES_1D) -> float:
    """E[fn(X)] for X ~ law, exact over point masses, GH over Gaussians."""
    z, w = quadrature.standard_normal_rule(n)
    total = 0.0
    for weight, loc, scale in zip(law.weights, law.locs, law.scales):
        if scale == 0.0:
            total += weight * float(np.asarray(fn(np.asarray([loc])))[0])
        else:
            total += weight * float(np.dot(w, fn(loc + scale * z)))
    return total


def law_moment(law: ScalarLaw, k: int) -> float:
    """Raw moment E[X**k] of a law for k in 0..4."""
    if not 0 <= k <= 4:
        raise ValueError("law_moment: k must be in 0..4")
    total = 0.0
    for w, mu, s in zip(law.weights, law.locs, law.scales):
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


def _law_fold(m, law: ScalarLaw, fn, L) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    total = np.zeros_like(m)
    for w, loc, scale in zip(law.weights, law.locs, law.scales):
        total = total + w * fn(m + loc, scale, L)
    return total


def law_clipped_second_moment(m, law: ScalarLaw, L) -> np.ndarray:
    """E[clip(m + eps, L)**2] with eps ~ law."""
    return _law_fold(m, law, clipped_second_moment, L)


def gaussian_pdf_formula(x):
    """The standard normal density as one exp over every element: the
    bit-for-bit reference of ``scalars.gaussian_pdf``."""
    x = np.asarray(x, dtype=float)
    return (1.0 / np.sqrt(2.0 * np.pi)) * np.exp(-0.5 * x * x)


def clipped_mean(mu, s, L):
    """E[clip(mu + s*Z, L)] for Z ~ N(0,1), s = 0 giving clip(mu, L): the
    formula on its own, with its own CDFs, as the bit-for-bit reference of
    ``scalars.clipped_mean_inside``."""
    mu = np.asarray(mu, dtype=float)
    s = np.asarray(s, dtype=float)
    safe = np.where(s > 0, s, 1.0)
    a = (-L - mu) / safe
    b = (L - mu) / safe
    pa, pb = gaussian_cdf(a), gaussian_cdf(b)
    fa, fb = gaussian_pdf_formula(a), gaussian_pdf_formula(b)
    val = mu * (pb - pa) - safe * (fb - fa) - L * pa + L * (1.0 - pb)
    return np.where(s > 0, val, clip(mu, L))


def law_clipped_mean(m, law: ScalarLaw, L) -> np.ndarray:
    """E[clip(m + eps, L)] with eps ~ law, one component at a time."""
    return _law_fold(m, law, clipped_mean, L)


def law_interval_probability(m, law: ScalarLaw, L) -> np.ndarray:
    """P(|m + eps| < L) with eps ~ law, one component at a time."""
    return _law_fold(m, law, interval_probability, L)


@lru_cache(maxsize=64)
def legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on (-1, 1)."""
    x, w = leggauss(n)
    for arr in (x, w):
        arr.setflags(write=False)
    return x, w


# Standardized truncation for the panel rule below; the omitted Gaussian
# tail mass is ~1e-23, far below any tolerance the rule is used with.
_PANEL_TAIL = 10.0


def system_residual_quadrature(
    sigma: float,
    tau: float,
    *,
    delta: float,
    lam: float,
    nu: float,
    L: float,
    kappa_sq: float,
    noise: ScalarLaw,
    nodes: int = DEFAULT_NODES_1D,
) -> np.ndarray:
    """The residuals of ``huber_theory.system_residual`` evaluated by an
    independent discretization.

    Per mixture component the residual (sigma*Z + eps)/(1+tau) is a single
    Gaussian, and its clipped moments are integrated by Gauss-Legendre
    panels split exactly at the clip boundaries +/-L, where the integrands
    stop being smooth.  No closed-form moment identities are shared with
    ``system_residual``, so this path re-checks solutions end to end.
    """
    j2 = 0.0
    prob = 0.0
    for wc, loc, scale in zip(noise.weights, noise.locs, noise.scales):
        m = loc / (1.0 + tau)
        s = float(np.hypot(sigma, scale)) / (1.0 + tau)
        if s == 0.0:
            j2 += wc * float(clip(m, L)) ** 2
            prob += wc * float(abs(m) < L)
            continue
        lo = float(np.clip((-L - m) / s, -_PANEL_TAIL, _PANEL_TAIL))
        hi = float(np.clip((L - m) / s, -_PANEL_TAIL, _PANEL_TAIL))
        x, w = legendre_rule(max(8, nodes // 3))
        for a, b in ((-_PANEL_TAIL, lo), (lo, hi), (hi, _PANEL_TAIL)):
            if b <= a:
                continue
            t = 0.5 * (b - a) * x + 0.5 * (a + b)
            dens = 0.5 * (b - a) * w * np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)
            u = m + s * t
            j2 += wc * float(np.dot(dens, clip(u, L) ** 2))
            prob += wc * float(np.dot(dens, (np.abs(u) < L).astype(float)))
    f1 = sigma**2 - tau**2 * (j2 / delta + lam**2 * kappa_sq + nu**2)
    f2 = tau - (delta - tau / (1.0 + tau) * prob) / (lam * delta)
    return np.array([f1, f2])


def residual_interval_probability(sigma: float, tau: float, L: float, noise: ScalarLaw) -> float:
    """P(|(sigma*Z + eps)/(1+tau)| < L), exact per mixture component."""
    return float(_clipped_residual(sigma, tau, L, noise)[0][1])


def effective_noise_scale(sol: HuberSolution) -> float:
    """sqrt((1/delta) * E[clip((sigma*Z+eps)/(1+tau*), L)**2]), the Gaussian
    width of the estimation-error law."""
    j2 = residual_second_moment(sol.sigma_star, sol.tau_star, sol.L, sol.noise)
    return float(np.sqrt(j2 / sol.delta))


def limit_triple_moment(sol, fn, *, nodes: int = 48) -> float:
    """E[fn(signal0, xi0, err0)] under the limiting law of
    (signal coordinate, perturbation coordinate, estimation error coordinate)
    of a HuberSolution: err0 = tau* (sv*Z - lam*signal0 - nu*xi0) with
    sv = effective_noise_scale.

    ``fn`` must be vectorized (pseudo-Lipschitz test functions in practice).
    """
    sv = effective_noise_scale(sol)
    z, w = quadrature.standard_normal_rule(nodes)
    # tensor over (signal component draw, xi, z)
    total = 0.0
    for wc, loc, scale in zip(sol.signal.weights, sol.signal.locs, sol.signal.scales):
        if scale == 0.0:
            b = np.array([loc])
            wb = np.array([1.0])
        else:
            b = loc + scale * z
            wb = w
        B, X, Z = np.meshgrid(b, z, z, indexing="ij")
        W = wb[:, None, None] * w[None, :, None] * w[None, None, :]
        err = sol.tau_star * (sv * Z - sol.lam * B - sol.nu * X)
        total += wc * float(np.sum(W * fn(B, X, err)))
    return total


def residual_pair_moment(sol, fn, *, nodes: int = DEFAULT_NODES_1D) -> float:
    """E[fn(eps0, clip((sigma*Z + eps0)/(1+tau*), L))] under the residual law
    of a HuberSolution."""
    z, w = quadrature.standard_normal_rule(nodes)
    total = 0.0
    for wc, loc, scale in zip(sol.noise.weights, sol.noise.locs, sol.noise.scales):
        if scale == 0.0:
            eps = np.full_like(z, loc)
            weights = w
            zz = z
        else:
            eps = (loc + scale * z)[:, None] * np.ones_like(z)[None, :]
            zz = np.ones_like(z)[:, None] * z[None, :]
            weights = np.outer(w, w)
        trunc = clip((sol.sigma_star * zz + eps) / (1.0 + sol.tau_star), sol.L)
        total += wc * float(np.sum(weights * fn(eps, trunc)))
    return total


def gradient_descent_minimize(data, loss, lam, nu, xi, *, tol_scale=GRADIENT_TOL_SCALE):
    """Full-batch gradient descent with Armijo backtracking on the perturbed
    objective, stopping at ||grad F|| <= tol_scale * max(1, n); returns
    (beta, grad norm, iterations, objective value).

    The first-order reference for the Newton learner: from step 2/(lam +
    s*||X||_2^2), with s the loss's ``GlmSensitivity`` smoothness, it halves
    on failed sufficient decrease, and at or below half that step the
    descent lemma guarantees progress, so the test is skipped there (near
    the optimum it compares values below float64 resolution and would
    stall).
    """
    X, y = data.X, data.y
    tol = tol_scale * max(1.0, data.n)
    glm = GlmSensitivity.huber(loss.L) if isinstance(loss, HuberLoss) else GlmSensitivity.logistic()
    step0 = 2.0 / (lam + glm.smoothness * float(np.linalg.norm(X, 2)) ** 2)

    def objective(beta):
        return float(loss_values(loss, X @ beta, y).sum() + 0.5 * lam * (beta @ beta) + nu * (xi @ beta))

    def gradient(beta):
        return X.T @ loss.gradients(X @ beta, y) + lam * beta + nu * xi

    beta = np.zeros(data.d)
    value = objective(beta)
    for iteration in range(1_000_000):
        grad = gradient(beta)
        norm = float(np.linalg.norm(grad))
        if norm <= tol:
            return beta, norm, iteration, value
        step = step0
        while True:
            trial = beta - step * grad
            trial_value = objective(trial)
            if trial_value <= value - step * 1e-4 * norm**2 or step <= 0.5 * step0:
                beta, value = trial, trial_value
                break
            step *= 0.5
    raise NonConvergenceError("gradient descent hit the iteration cap", last_iterate=beta, residual=norm)


def one_at_a_time(points):
    """``points`` passed through, checking as each one arrives that the
    reader has freed every point yielded before it; yields nothing else."""
    previous = None
    for point in points:
        assert previous is None or previous() is None, "a read grid point is still held"
        previous = weakref.ref(point)
        yield point
        del point  # the reader's reference is the only one left
