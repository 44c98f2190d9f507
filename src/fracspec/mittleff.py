"""Mittag-Leffler relaxation functions on the nonpositive real axis.

E_{alpha,beta}(z) = sum_k z^k / Gamma(alpha k + beta) is evaluated for z <= 0
by three branches:

* power series with compensated summation for small |z|, guarded by the
  running maximum-term/partial-sum ratio (the series loses digits to
  cancellation long before it stops converging, especially for small alpha);
* a complete-monotonicity integral for the workhorse weights beta in
  {1, alpha, 2}: with x = -z and the substitution w = rho^alpha,

      E_{a,1}(-x)  = C int_0^inf exp(-(w x)^{1/a}) / D(w) dw,
      E_{a,a}(-x)  = C x^{(1-a)/a} int_0^inf w^{1/a} exp(-(w x)^{1/a}) / D(w) dw,
      E_{a,2}(-x)  = C int_0^inf (1 - exp(-(w x)^{1/a})) / ((w x)^{1/a} D(w)) dw,

  where D(w) = w^2 + 2 w cos(pi a) + 1 and C = sin(pi a)/(pi a); the
  integrands are positive (no cancellation) and decay at unit exponential
  rate in log w at both ends, so a trapezoid rule on a fixed log grid
  converges geometrically;
* the algebraic expansion E_{a,b}(-x) ~ -sum_{k>=1} (-x)^{-k}/Gamma(b - a k)
  with optimal truncation for large x.

Also provides the relaxation primitive int_0^t s^{a-1} E_{a,a}(-lam s^a) ds,
its antiderivative (both needed for exact convolution against piecewise-linear
drives), the termwise-Laplace-transform residual check, and L1 discretization
weights for the Caputo derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import rgamma

from .errors import DomainError, QuadratureNonConvergence

Z_SWITCH = 5.0     # series attempted below this |z|
Z_BIG = 50.0       # asymptotic expansion beyond this |z|
SERIES_GUARD = 1e4  # max-term / result ratio tolerated in double precision


@dataclass(frozen=True)
class MLQuery:
    """Validated evaluation request on the nonpositive axis."""

    alpha: float
    beta: float
    z: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise DomainError("alpha must lie in (0, 1]")
        if self.beta <= 0.0:
            raise DomainError("beta must be positive")
        if self.z > 0.0:
            raise DomainError("argument must be nonpositive")


@dataclass(frozen=True)
class L1Weights:
    """Standard L1 coefficients for the Caputo derivative of order alpha."""

    alpha: float
    tau: float
    count: int
    weights: np.ndarray


# ---------------------------------------------------------------------------
# branches
# ---------------------------------------------------------------------------

def _series(alpha, beta, x, guard=SERIES_GUARD, max_terms=400):
    """Power series at z = -x; returns (values, trustworthy)."""
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x)
    comp = np.zeros_like(x)
    zk = np.ones_like(x)
    maxterm = np.zeros_like(x)
    done = np.zeros(x.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(max_terms):
            term = np.where(done, 0.0, zk * rgamma(alpha * k + beta))
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
            maxterm = np.maximum(maxterm, np.abs(term))
            zk = zk * np.where(done, 0.0, -x)
            done |= (k > 2) & (np.abs(term) <= 1e-17 * (np.abs(total) + 1e-300))
            if done.all():
                break
    ok = done & np.isfinite(total) & (maxterm <= guard * np.abs(total))
    return total, ok


@lru_cache(maxsize=32)
def _integral_nodes(alpha: float):
    """Log-grid nodes rho and the weight vectors weights/D and rho*weights/D."""
    if alpha > 0.95:
        h = 0.005
    elif alpha > 0.85:
        h = 0.02
    else:
        h = 0.05
    s = np.arange(-46.0, 40.0 + h, h)
    w = np.exp(s)
    D = w * w + 2.0 * np.cos(np.pi * alpha) * w + 1.0
    rho = w ** (1.0 / alpha)
    wd = w * h / D
    return rho, wd, rho * wd, np.sin(np.pi * alpha) / (np.pi * alpha)


def _integral(alpha, beta, x):
    """Spectral-integral branch for beta in {1, alpha, 2}; 1-D x > 0.

    Per 256-row chunk: the outer product e = -x^{1/a} rho, exp(e) (expm1(e)/e
    for beta = 2), then a mat-vec with the cached weights.  exp underflows to
    exactly 0 and expm1(e)/e is accurate at small |e|, so no guards are needed.
    """
    x = np.asarray(x, dtype=float)
    rho, wd, rwd, pref = _integral_nodes(float(alpha))
    vec = rwd if beta == alpha else wd
    neg_t = -(x ** (1.0 / alpha))
    res = np.empty_like(x)
    buf = np.empty((min(256, x.size), rho.size))
    for i0 in range(0, x.size, 256):
        tc = neg_t[i0:i0 + 256]
        e = np.multiply.outer(tc, rho, out=buf[:tc.size])
        if beta == 2.0:
            res[i0:i0 + 256] = np.divide(np.expm1(e), e, out=e) @ vec
        else:
            res[i0:i0 + 256] = np.exp(e, out=e) @ vec
    res *= pref
    if beta == alpha:
        res *= x ** ((1.0 - alpha) / alpha)
    return res


@lru_cache(maxsize=64)
def _asymptotic_coeffs(alpha: float, beta: float, kmax: int):
    """-(-1)^k / Gamma(beta - alpha k) for k = 1 .. kmax - 1."""
    k = np.arange(1, kmax)
    return -((-1.0) ** k) * rgamma(beta - alpha * k)


def _asymptotic(alpha, beta, x, kmax=40):
    """Algebraic expansion at z = -x -> -inf with optimal truncation."""
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x)
    xk = 1.0 / x
    last_mag = np.full_like(x, np.inf)
    dead = np.zeros(x.shape, dtype=bool)
    for c in _asymptotic_coeffs(float(alpha), float(beta), kmax):
        term = xk * c
        mag = np.abs(term)
        dead |= (mag > last_mag) & (mag > 0)
        term = np.where(dead, 0.0, term)
        total += term
        keep = (mag > 0) & ~dead
        last_mag = np.where(keep, mag, last_mag)
        xk = xk / x
    return total


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------

def ml(alpha: float, beta: float, z):
    """E_{alpha,beta}(z) for z <= 0, alpha in (0, 1], relative error <= 1e-10.

    beta in {1, alpha, 2} is first-class; other positive beta are evaluated
    only where the series or the asymptotic expansion holds, and raise
    DomainError in between.  At alpha = 1 the exponential closed forms are
    used for beta in {1, 2}.
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError("alpha must lie in (0, 1]")
    if beta <= 0.0:
        raise DomainError("beta must be positive")
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr > 0.0):
        raise DomainError("argument must be nonpositive")
    if np.isnan(z_arr).any():
        raise DomainError("argument z must not be NaN")
    scalar = z_arr.ndim == 0
    x = -z_arr.reshape(-1)
    out = np.empty_like(x)

    if alpha == 1.0:
        if beta == 1.0:
            out = np.exp(-x)
        elif beta == 2.0:
            with np.errstate(invalid="ignore"):
                out = np.where(x == 0.0, 1.0, -np.expm1(-x) / np.where(x == 0, 1.0, x))
        else:
            vals, ok = _series(1.0, beta, x)
            if not ok.all():
                raise DomainError(
                    "alpha = 1 supports only beta in {1, 2} for large arguments")
            out = vals
        return float(out[0]) if scalar else out.reshape(z_arr.shape)

    first_class = beta in (1.0, 2.0) or beta == alpha

    big = x >= Z_BIG
    if big.any():
        out[big] = _asymptotic(alpha, beta, x[big])
    small = (x <= Z_SWITCH) & ~big
    mid = ~big & ~small
    if small.any():
        vals, ok = _series(alpha, beta, x[small])
        idx = np.flatnonzero(small)
        out[idx[ok]] = vals[ok]
        mid_idx = idx[~ok]
    else:
        mid_idx = np.empty(0, dtype=int)
    mid_all = np.concatenate([np.flatnonzero(mid), mid_idx])
    if mid_all.size:
        if not first_class:
            raise DomainError(
                f"beta = {beta:g} is evaluated only where the series holds or "
                f"-z >= {Z_BIG:g}; between them beta must be 1, alpha or 2")
        out[mid_all] = _integral(alpha, beta, x[mid_all])
    return float(out[0]) if scalar else out.reshape(z_arr.shape)


def ml_asymptotic_residual(alpha: float, lam: float, t_values):
    """|E_{a,1}(-lam t^a) - (1/Gamma(1-a)) (lam t^a)^{-1}| * (lam t^a)^2 per t.

    A bounded sequence over increasing t confirms the second-order remainder
    of the large-time expansion.
    """
    if lam <= 0:
        raise DomainError("lambda must be positive")
    t = np.asarray(t_values, dtype=float)
    if np.any(t < 1.0) or np.any(np.diff(t) <= 0):
        raise DomainError("t_values must be increasing and >= 1")
    xs = lam * t ** alpha
    lead = rgamma(1.0 - alpha) / xs
    return np.abs(ml(alpha, 1.0, -xs) - lead) * xs ** 2


def _relax(alpha, order, lam, t):
    """Body of relax_primitive (order 1) and relax_antiderivative (order 2).

    Small y = lam t^a: t^(order-1+a) E_{a,a+order}(-y) by its power series, free
    of the 1 - E cancellation; otherwise t^(order-1) (1 - E_{a,order}(-y)) / lam
    with one ml call for all points.
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError("alpha must lie in (0, 1]")
    lam = np.asarray(lam, dtype=float)
    if np.isnan(lam).any():
        raise DomainError("lambda must not be NaN")
    if np.any(lam < 0):
        raise DomainError("lambda must be nonnegative")
    t = np.asarray(t, dtype=float)
    if np.isnan(t).any():
        raise DomainError("t must not be NaN")
    if order == 1 and np.any(t < 0):
        raise DomainError("t must be nonnegative")
    lam, t = np.broadcast_arrays(lam, np.maximum(t, 0.0))
    y = lam * t ** alpha
    out = np.empty_like(y)
    small = y <= 0.5
    if small.any():
        acc, _ = _series(alpha, alpha + order, y[small])
        out[small] = t[small] ** (order - 1.0 + alpha) * acc
    big = ~small
    if big.any():
        E = ml(alpha, float(order), -y[big])
        if order == 1:
            out[big] = (1.0 - E) / lam[big]
        else:
            out[big] = t[big] / lam[big] * (1.0 - E)
    return out if out.ndim else float(out)


def relax_primitive(alpha: float, lam, t):
    """int_0^t s^{a-1} E_{a,a}(-lam s^a) ds = (1 - E_{a,1}(-lam t^a))/lam.

    Continuous in lam at 0 with value t^a/Gamma(a+1); the small lam*t^a regime
    is summed directly to avoid the 1 - E cancellation.  lam broadcasts against t.
    """
    return _relax(alpha, 1, lam, t)


def relax_antiderivative(alpha: float, lam, t):
    """int_0^t relax_primitive(alpha, lam, s) ds = (t/lam)(1 - E_{a,2}(-lam t^a)).

    Exact time integral of the relaxation primitive, used to integrate the
    solution kernel exactly against piecewise-linear drives; t < 0 counts as 0
    and lam broadcasts against t.
    """
    return _relax(alpha, 2, lam, t)


def ml_laplace_residual(alpha: float, lam: float, zeta: float,
                        tol: float = 1e-8) -> float:
    """|int_0^inf e^{-zeta t} E_{a,1}(-lam t^a) dt - zeta^{a-1}/(zeta^a + lam)|.

    The integral is truncated where the bound E(-lam T^a) e^{-zeta T}/zeta
    drops below tol/2 and evaluated adaptively; a small residual certifies the
    termwise Laplace transform identity.
    """
    if lam <= 0 or zeta <= 0:
        raise DomainError("lambda and zeta must be positive")
    T = max(-np.log(0.25 * tol * zeta) / zeta, 1.0)
    tail = ml(alpha, 1.0, -lam * T ** alpha) * np.exp(-zeta * T) / zeta
    if tail > 0.5 * tol:
        raise QuadratureNonConvergence("tail bound cannot reach tolerance")

    def f(t):
        return np.exp(-zeta * t) * ml(alpha, 1.0, -lam * t ** alpha)

    val, err = quad(f, 0.0, T, epsabs=0.125 * tol, epsrel=1e-10, limit=400)
    if err > 0.5 * tol:
        raise QuadratureNonConvergence(
            f"quadrature error estimate {err:.2e} above tolerance")
    exact = zeta ** (alpha - 1.0) / (zeta ** alpha + lam)
    return abs(val - exact)


def l1_weights(alpha: float, tau: float, count: int) -> L1Weights:
    """L1 coefficients b_j = ((j+1)^{1-a} - j^{1-a}) tau^{-a} / Gamma(2-a).

    At alpha -> 1 this degenerates to the backward difference (b_0 = 1/tau,
    b_j = 0 otherwise).
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError("alpha must lie in (0, 1]")
    if tau <= 0:
        raise DomainError("tau must be positive")
    if count < 1:
        raise DomainError("count must be at least 1")
    j = np.arange(count, dtype=float)
    jpow = np.where(j == 0, 0.0, j ** (1.0 - alpha))  # 0^0 -> 0 at alpha = 1
    w = ((j + 1.0) ** (1.0 - alpha) - jpow) * tau ** (-alpha) * rgamma(2.0 - alpha)
    return L1Weights(alpha=alpha, tau=tau, count=count, weights=w)
