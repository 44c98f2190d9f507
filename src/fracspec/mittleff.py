"""Mittag-Leffler relaxation functions on the nonpositive real axis.

E_{alpha,beta}(z) = sum_k z^k / Gamma(alpha k + beta) is evaluated for z <= 0
by three branches:

* power series with compensated summation for small |z|, guarded by the
  running maximum-term/partial-sum ratio (the series loses digits to
  cancellation long before it stops converging, especially for small alpha);
  each point leaves the batch with the sums of its own last term, and for
  beta >= alpha a point leaves rejected as soon as its largest term shows the
  guard must fail, since E is completely monotone there and so at most
  1/Gamma(beta); terms are formed SERIES_BLOCK at a time, and who leaves is
  decided once per block from the recorded partial sums;
* a complete-monotonicity integral for the workhorse weights beta in
  {1, alpha, 2}: with x = -z and the substitution w = rho^alpha,

      E_{a,1}(-x)  = C int_0^inf exp(-(w x)^{1/a}) / D(w) dw,
      E_{a,a}(-x)  = C x^{(1-a)/a} int_0^inf w^{1/a} exp(-(w x)^{1/a}) / D(w) dw,
      E_{a,2}(-x)  = C int_0^inf (1 - exp(-(w x)^{1/a})) / ((w x)^{1/a} D(w)) dw,

  where D(w) = w^2 + 2 w cos(pi a) + 1 and C = sin(pi a)/(pi a); the
  integrands are positive (no cancellation) and decay at unit exponential
  rate in log w at both ends, so a trapezoid rule in s = log w converges
  geometrically at a step set by the half-width of the integrand's strip of
  analyticity; exp is evaluated only on a window from t = T_CUT = 0.25 to
  where it is exactly 0, and below the window a degree-HEAD_DEGREE (12)
  Taylor polynomial over cached, rho-scaled moments of the weights stands in
  (remainder at most T_CUT^13/13! ~ 2e-18 of each weight, cancellation at
  most exp(2 T_CUT));
* the algebraic expansion E_{a,b}(-x) ~ -sum_{k>=1} (-x)^{-k}/Gamma(b - a k)
  with optimal truncation for large x; above a threshold cached per
  (alpha, beta) no term can outgrow the last one kept, so those points sum
  every term without the truncation test, and the rest leave the batch
  where the test stops them.

Leaving a batch early changes no bit of any value and no point's branch; the
tests compare both loops with ones that keep every point to the end.

Also provides the relaxation primitive int_0^t s^{a-1} E_{a,a}(-lam s^a) ds,
its antiderivative (both needed for exact convolution against piecewise-linear
drives) and the antiderivative's lambda-derivative (for the inverse problem's
Jacobian), the termwise-Laplace-transform residual check (a trapezoid rule in
s = log t, like the spectral integral), and L1 discretization weights for the
Caputo derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, QuadratureNonConvergence

Z_SWITCH = 5.0     # series attempted below this |z|
Z_BIG = 50.0       # asymptotic expansion beyond this |z|
SERIES_GUARD = 1e4  # max-term / result ratio tolerated in double precision
SERIES_TERMS = 400  # most power-series terms summed
SERIES_BLOCK = 16   # most series terms formed per batch step (fewer past BUF_VALUES)
ASYMPTOTIC_TERMS = 40  # the algebraic expansion sums k = 1 .. ASYMPTOTIC_TERMS - 1
LAPLACE_TOL = 1e-8  # absolute error budget of ml_laplace_residual's integral
DLAM_TERMS = 64     # terms of _antiderivative_dlam's series (y <= 0.5)

# spectral-integral nodes: s = log w on [S_LO, S_HI] with at most about NODE_CAP
# nodes; ALPHA_MAX is where the step 2 pi^2 (1 - alpha) / 30 reaches
# (S_HI - S_LO) / NODE_CAP.  Below ALPHA_MIN, x^{1/alpha} for x < Z_BIG and the
# live nodes' rho leave the normal double range.
S_LO, S_HI = -46.0, 40.0
NODE_CAP = 2 ** 18
ALPHA_MIN = 0.01
ALPHA_MAX = 1.0 - 30.0 * (S_HI - S_LO) / (2.0 * np.pi ** 2 * NODE_CAP)
BUF_VALUES = 2 ** 18  # most values _integral's exp buffer, or one _series array, holds
T_CUT = 0.25          # below this t, a Taylor polynomial stands in for exp(-t)
HEAD_DEGREE = 12      # its degree; the remainder is T_CUT^13/13! ~ 2e-18 relative
HEAD_ANCHORS = 16     # head-moment anchors per live window
T_ZERO = 746.0        # above this t, exp(-t) underflows to 0
T_MINUS_ONE = 38.0    # above this t, expm1(-t) rounds to -1


@dataclass(frozen=True)
class L1Weights:
    """Standard L1 coefficients for the Caputo derivative of order alpha."""

    alpha: float
    tau: float
    count: int
    weights: np.ndarray


def _rgamma(x):
    """1/Gamma(x) from math.gamma, for a float or an array of floats.

    Exactly 0 at the poles 0, -1, -2, ... and where Gamma overflows (x above
    171.6).  Every x this module forms exceeds -40; Gamma underflows only
    below -177.
    """
    if isinstance(x, np.ndarray):  # np.ndim would cost a float an exception
        return np.array([_rgamma(v) for v in x.ravel()]).reshape(x.shape)
    try:
        return 1.0 / math.gamma(x)
    except (ValueError, OverflowError):
        return 0.0


# ---------------------------------------------------------------------------
# branches
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _series_coeffs(alpha: float, beta: float):
    """(1/Gamma(alpha k + beta) for k < SERIES_TERMS, _series's early-rejection
    limit on the largest term: inf where E need not be completely monotone)."""
    reject = np.inf
    if 0.0 < alpha <= 1.0 and beta >= alpha:
        margin = 1.0 / (1.0 - 2.0 * SERIES_GUARD * SERIES_TERMS ** 2 * np.finfo(float).eps)
        reject = margin * SERIES_GUARD * _rgamma(beta)
    return _rgamma(alpha * np.arange(SERIES_TERMS) + beta), reject


def _series(alpha, beta, x):
    """Power series at z = -x; returns (values, trustworthy).

    Each point leaves the batch on the term where its own stopping test fires;
    values are meaningful only where trustworthy.  For 0 < alpha <= 1 and
    beta >= alpha, E_{alpha,beta}(-x) is completely monotone (Schneider, Expo.
    Math. 14 (1996) 3-16), so 0 < E <= 1/Gamma(beta), and a point whose largest
    term passes SERIES_GUARD / Gamma(beta) times a margin fails the guard
    whatever its later terms are: it leaves at once, untrusted.

    The margin covers the computed sum S.  Each of the N <= SERIES_TERMS terms
    carries at most k roundings in z^k, one in the product and _rgamma's own
    error (under 4 eps against mpmath), together under 2 N eps relative for
    the N >= 4 terms a finished point sums, and compensated summation adds
    about 2u per term; so |S - E| <= 2 N^2 eps M for a largest term M (the
    tail after the stopping test, below 1e-17 |S|, is orders smaller).  Hence
    SERIES_GUARD |S| <= SERIES_GUARD / Gamma(beta) + M (1 - 1/margin) < M
    once M > margin SERIES_GUARD / Gamma(beta), with
    margin = 1 / (1 - 2 SERIES_GUARD N^2 eps) ~ 1 + 7e-7.

    The terms come SERIES_BLOCK at a time (fewer when a block of the live
    points would pass BUF_VALUES values): the powers z^k by repeated
    multiplication (the roundings of z^k = z^{k-1} z), the compensated sum
    term by term with its partial sums recorded, and then, once per block,
    the stopping and rejection tests on the recorded sums.  A point leaves
    with the partial sums of its own last term, so the terms the block adds
    after it change none of its bits.
    """
    x = np.asarray(x, dtype=float)
    rgamma, reject = _series_coeffs(float(alpha), float(beta))
    vals = np.empty(x.size)
    ok = np.zeros(x.size, dtype=bool)
    live = np.arange(x.size)
    neg = -x.ravel()
    total = np.zeros(x.size)
    comp = np.zeros(x.size)
    zk = np.ones(x.size)
    maxterm = np.zeros(x.size)
    k0 = 0  # index of the block's first term
    with np.errstate(over="ignore", invalid="ignore"):
        while k0 < SERIES_TERMS and live.size:
            n = min(SERIES_BLOCK, SERIES_TERMS - k0, max(BUF_VALUES // live.size, 1))
            zs = np.empty((n, live.size))
            zs[0], zs[1:] = zk, neg
            zs = np.multiply.accumulate(zs, axis=0)
            terms = zs * rgamma[k0:k0 + n, None]
            sums, comps, y = np.empty_like(terms), np.empty_like(terms), np.empty(live.size)
            for b, term in enumerate(terms):
                np.subtract(term, comp, out=y)
                np.add(total, y, out=sums[b])
                np.subtract(sums[b], total, out=comps[b])
                total, comp = sums[b], np.subtract(comps[b], y, out=comps[b])
            mag = np.abs(terms)
            done = mag <= 1e-17 * (np.abs(sums) + 1e-300)
            done[:max(3 - k0, 0)] = False
            np.maximum(mag[0], maxterm, out=mag[0])
            peak = np.maximum.accumulate(mag, axis=0, out=mag)
            leave = done | (peak > reject)
            gone = leave.any(axis=0)
            left = np.flatnonzero(gone)
            # the zero-term step a point that stays would take next; comp is
            # then the exact rounding error of the last addition, so no
            # further step changes total
            b = leave[:, left].argmax(axis=0)
            fin = sums[b, left] + (0.0 - comps[b, left])
            vals[live[left]] = fin
            ok[live[left]] = (done[b, left] & np.isfinite(fin)
                              & (peak[b, left] <= SERIES_GUARD * np.abs(fin)))
            stay = np.flatnonzero(~gone)
            live, neg, total, comp = live[stay], neg[stay], sums[-1, stay], comps[-1, stay]
            zk, maxterm = zs[-1, stay] * neg, peak[-1, stay]
            k0 += n
    vals[live] = total
    return vals.reshape(x.shape), ok.reshape(x.shape)


class _Nodes(NamedTuple):
    """Log-grid nodes of one alpha, with the sums that stand in for exp.

    Below a row's window (t < T_CUT = 0.25) the moments at anchor nodes feed
    the degree-HEAD_DEGREE Taylor head of _integral (remainder at most
    T_CUT^13/13! ~ 2e-18 of each weight, cancellation at most exp(2 T_CUT));
    above it the suffix sums stand in for expm1(-t)/(-t) = 1/t.
    """

    rho: np.ndarray          # w^{1/alpha}, increasing and finite
    wd: np.ndarray           # trapezoid weights w h / D(w)
    rwd: np.ndarray          # rho * wd
    anchors: np.ndarray      # increasing node indices, from 0, where head moments are kept
    moments: np.ndarray      # moments[m, j] = sum(wd[:k] (rho[:k] / rho[k])^j), k = anchors[m],
                             # j = 0 .. HEAD_DEGREE + 1
    tail_wd_rho: np.ndarray  # tail_wd_rho[k] = sum(wd[k:] / rho[k:])
    pref: float              # C = sin(pi alpha) / (pi alpha)


@lru_cache(maxsize=8)  # an entry holds up to ~8 MB near the ends of the alpha range
def _integral_nodes(alpha: float) -> _Nodes:
    """Nodes and weights of the spectral integral for alpha.

    The step follows the half-width d = pi min(1 - alpha, alpha/2) of the
    integrand's strip of analyticity in s = log w: the poles of 1/D(e^s) lie
    at distance pi (1 - alpha), and exp(-e^{s/alpha}) stays bounded only for
    |Im s| < pi alpha/2.  h = min(0.05, 2 pi d / 30) puts the trapezoid error
    near exp(-30); alpha outside [ALPHA_MIN, ALPHA_MAX] raises DomainError.

    The head moments are scaled by the anchor's own rho, so every ratio is at
    most 1 and no power leaves the double range: each anchor's row is the
    sum of the chunks of nodes before it, and the prefix sums over chunks are
    renormalized at the end of every run of 32 anchors.  Anchors lie every
    1/HEAD_ANCHORS of a live window (log(T_ZERO / T_CUT) in log t, alpha / h
    nodes per unit), from node 0 and from the first normal rho on: below that
    rho a row's t passes T_CUT only for x^{1/alpha} past 1e307, whose window
    then starts at node 0.
    """
    if not ALPHA_MIN <= alpha <= ALPHA_MAX:
        raise DomainError(
            f"alpha = {alpha:g}: the spectral integral (the branch between the "
            f"series and -z >= {Z_BIG:g}) supports alpha in [{ALPHA_MIN:g}, "
            f"{ALPHA_MAX:.4f}]; alpha = 1 uses closed forms")
    d = np.pi * min(1.0 - alpha, 0.5 * alpha)
    h = min(0.05, 2.0 * np.pi * d / 30.0)
    w = np.exp(np.arange(S_LO, S_HI + h, h))
    # rho underflows to 0 or overflows at the far ends for small alpha; past
    # the double range every term is exactly 0 for every x > 0
    with np.errstate(over="ignore"):
        rho = w ** (1.0 / alpha)
    w, rho = w[rho < np.inf], rho[rho < np.inf]
    D = w * w + 2.0 * np.cos(np.pi * alpha) * w + 1.0
    wd = w * h / D
    step = math.ceil(math.log(T_ZERO / T_CUT) * alpha / h / HEAD_ANCHORS)
    first = int(np.searchsorted(rho, np.finfo(float).tiny))
    anchors = np.arange(first, rho.size, step)
    if first:
        anchors = np.append(0, anchors)
    j = np.arange(HEAD_DEGREE + 2)
    # chunk[j, m] = sum(wd[i] (rho[i] / rho[k])^j) over the nodes i from
    # anchor m - 1 up to k = anchors[m]
    ratio = rho[:anchors[-1]] / np.repeat(rho[anchors[1:]], np.diff(anchors))
    chunk = np.zeros((j.size, anchors.size))
    term = wd[:anchors[-1]].copy()
    for row in chunk[:, 1:]:
        np.add.reduceat(term, anchors[:-1], out=row)
        term *= ratio
    # prefix sums of the chunks, scaled by the last anchor of each run of 32;
    # anchors lie at most 0.83 apart in log rho, so no scale passes e^-350
    moments = np.zeros((anchors.size, j.size))
    rho_a = rho[anchors]
    for b in range(1, anchors.size, 32):
        run = slice(b, b + 32)
        up = np.power.outer(rho_a[run] / rho_a[run][-1], j)
        moments[run] = (np.cumsum(chunk[:, run].T * up, axis=0)
                        + moments[b - 1] * (rho_a[b - 1] / rho_a[run][-1]) ** j) / up
    with np.errstate(over="ignore", divide="ignore"):  # inf only where no window ends
        tail = np.append(np.cumsum((wd / rho)[::-1])[::-1], 0.0)
    return _Nodes(rho, wd, rho * wd, anchors, moments, tail,
                  np.sin(np.pi * alpha) / (np.pi * alpha))


def _integral(alpha, beta, x):
    """Spectral-integral branch for beta in {1, alpha, 2}; 1-D x > 0.

    With t = x^{1/a} rho, each term is a weight times exp(-t) (expm1(-t)/(-t)
    for beta = 2).  Above a row's live window, exp(-t) = 0, or for beta = 2
    expm1(-t) = -1 and the terms sum to x^{-1/a} sum(wd / rho) (a cached
    suffix sum).  Below it, from the anchor at or below the first node with
    t >= T_CUT, the terms sum to a Taylor polynomial of degree HEAD_DEGREE in
    tau = x^{1/a} rho_k over the anchor's scaled moments (the sum over j of
    (-tau)^j / j! M_j, or / (j + 1)! for beta = 2, and rho_k M_{j+1} for
    beta = alpha).  Each node's remainder is at most T_CUT^13 / 13! ~ 2e-18
    of its weight, and the alternating terms cancel by at most
    exp(2 T_CUT) ~ 1.65.  The arguments are sorted, so a run of rows shares
    one window: per chunk of at most BUF_VALUES values, the outer product
    e = -t over the window, exp(e) (expm1(e)/e) in place, then a mat-vec.
    Rows of a chunk have overlapping windows, so no t in it underflows.
    """
    x = np.asarray(x, dtype=float)
    nodes = _integral_nodes(float(alpha))
    rho, vec = nodes.rho, nodes.rwd if beta == alpha else nodes.wd
    order = np.argsort(x)
    xa = x[order] ** (1.0 / alpha)
    row = np.searchsorted(nodes.anchors, np.searchsorted(rho, T_CUT / xa), side="right") - 1
    lo = nodes.anchors[row]
    hi = np.searchsorted(rho, (T_MINUS_ONE if beta == 2.0 else T_ZERO) / xa, side="right")
    vals = np.empty_like(xa)
    buf = np.empty(BUF_VALUES)
    i = 0
    while i < xa.size:
        # lo and hi fall as xa grows: rows i .. i+m-1 share [lo[i+m-1], hi[i])
        j = slice(i, i + BUF_VALUES // max(hi[i] - lo[i], 1))
        width = hi[i] - lo[j]
        fits = (np.arange(1, width.size + 1) * width <= BUF_VALUES) & (hi[j] > lo[i])
        m = max(int(np.count_nonzero(fits)), 1)
        a, b = lo[i + m - 1], hi[i]
        rows = slice(i, i + m)
        row[rows] = row[i + m - 1]  # the head ends where the window starts
        e = np.multiply.outer(-xa[rows], rho[a:b], out=buf[:m * (b - a)].reshape(m, b - a))
        if beta == 2.0:
            vals[rows] = (np.divide(np.expm1(e), e, out=e) @ vec[a:b]
                          + nodes.tail_wd_rho[b] / xa[rows])
        else:
            vals[rows] = np.exp(e, out=e) @ vec[a:b]
        i += m
    power = np.arange(HEAD_DEGREE + 1)
    coef = (-1.0) ** power * _rgamma(power + (2.0 if beta == 2.0 else 1.0))
    rho_k = rho[nodes.anchors[row]]
    mom = nodes.moments[row]
    mom = mom[:, 1:] * rho_k[:, None] if beta == alpha else mom[:, :-1]
    vals += np.polynomial.polynomial.polyval(xa * rho_k, (mom * coef).T, tensor=False)
    res = np.empty_like(x)
    res[order] = vals * nodes.pref
    if beta == alpha:
        res *= x ** ((1.0 - alpha) / alpha)
    return res


class _Expansion(NamedTuple):
    """Coefficients of the algebraic expansion and where it never truncates."""

    coeffs: np.ndarray  # -(-1)^k / Gamma(beta - alpha k), k = 1 .. ASYMPTOTIC_TERMS - 1
    steady: float       # on [steady, normal] no term outgrows the last one kept
    normal: float       # up to here every x^-k the sum forms is a normal number


@lru_cache(maxsize=64)
def _asymptotic_coeffs(alpha: float, beta: float) -> _Expansion:
    """Coefficients and the range of x where truncation never fires.

    For consecutive nonzero coefficients c_j, c_k (j < k) the term ratio is
    |c_k / c_j| x^{j-k}, at most 1 for x >= |c_k / c_j|^{1/(k-j)}.  While
    x^-k stays normal the computed x^-k / x^-j carries k - j roundings, and
    rounding the products is monotone, so the factor 1 + ASYMPTOTIC_TERMS eps
    on the largest such root leaves every computed term magnitude at or below
    the last nonzero one.
    """
    k = np.arange(1, ASYMPTOTIC_TERMS)
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    arg = beta - alpha * k
    coeffs = -((-1.0) ** k) * _rgamma(arg)
    # 1/Gamma vanishes at 0, -1, -2, ...; an arg that misses such a pole by
    # the rounding of alpha, beta and alpha k would leave noise, not 0
    coeffs[(arg < 0.5) & (np.abs(arg - np.rint(arg)) <= 4.0 * eps * (beta + alpha * k))] = 0.0
    nz = np.flatnonzero(coeffs)
    mag = np.abs(coeffs[nz])
    root = (mag[1:] / mag[:-1]) ** (1.0 / np.diff(nz))
    return _Expansion(coeffs, float(root.max(initial=0.0) * (1.0 + ASYMPTOTIC_TERMS * eps)),
                      float(tiny ** (-1.0 / ASYMPTOTIC_TERMS)))


def _asymptotic(alpha, beta, x):
    """Algebraic expansion at z = -x -> -inf with optimal truncation.

    Points on [steady, normal] sum every term; the others run the truncation
    test and leave the batch on the term where it stops them.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    coeffs, steady, normal = _asymptotic_coeffs(float(alpha), float(beta))
    out = np.empty_like(flat)
    fast = (flat >= steady) & (flat <= normal)
    if fast.any():
        xs = flat[fast]
        total = np.zeros_like(xs)
        xk = 1.0 / xs
        for c in coeffs:
            if c:  # a zero coefficient would add a signed zero: no change
                total += xk * c
            xk = xk / xs
        out[fast] = total
    live = np.flatnonzero(~fast)
    xs = flat[live]
    total = np.zeros_like(xs)
    xk = 1.0 / xs
    last_mag = np.full_like(xs, np.inf)
    for c in coeffs:
        if not live.size:
            break
        term = xk * c
        mag = np.abs(term)
        dead = (mag > last_mag) & (mag > 0)
        if dead.any():
            out[live[dead]] = total[dead]
            stay = ~dead
            live, xs, total, xk, last_mag, term, mag = (
                a[stay] for a in (live, xs, total, xk, last_mag, term, mag))
        total += term
        last_mag = np.where(mag > 0, mag, last_mag)
        xk = xk / xs
    out[live] = total
    return out.reshape(x.shape)


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------

def _check_positive(name, value):
    """DomainError naming the argument unless 0 < value < inf (not NaN)."""
    if not 0.0 < value < np.inf:
        raise DomainError(f"{name} must be positive and finite")


def _check_alpha(alpha):
    """DomainError unless 0 < alpha <= 1 (not NaN)."""
    if not 0.0 < alpha <= 1.0:
        raise DomainError("alpha must lie in (0, 1]")


def ml(alpha: float, beta: float, z):
    """E_{alpha,beta}(z) for z <= 0, alpha in (0, 1], relative error <= 1e-10.

    beta in {1, alpha, 2} is first-class; other positive beta are evaluated
    only where the series or the asymptotic expansion holds, and raise
    DomainError in between.  At alpha = 1 the exponential closed forms are
    used for beta in {1, 2}.
    """
    _check_alpha(alpha)
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
    of the large-time expansion.  DomainError when some lam t^a has its
    reciprocal or its square outside the double range.
    """
    _check_positive("lambda", lam)
    t = np.asarray(t_values, dtype=float)
    if not np.isfinite(t).all() or np.any(t < 1.0) or np.any(np.diff(t) <= 0):
        raise DomainError("t_values must be finite, increasing and >= 1")
    with np.errstate(over="ignore"):
        xs = lam * t ** alpha
        lead, square = _rgamma(1.0 - alpha) / xs, xs ** 2
    if not np.isfinite([lead, square]).all():
        raise DomainError(f"lambda t^alpha spans {xs.min():.3g} to {xs.max():.3g}; the "
                          "residual needs its reciprocal and square in the double range")
    return np.abs(ml(alpha, 1.0, -xs) - lead) * square


def ml_closed_form_errors(n_points: int):
    """max |E_{1,1}(-x) - e^{-x}| on [0, 50], and max |E_{1/2,1}(-x) -
    e^{x^2} erfc(x)| on [0, 10] over the smallest e^{x^2} erfc(x), each
    on n_points equispaced points."""
    x = np.linspace(0.0, 50.0, n_points)
    exp_err = float(np.abs(ml(1.0, 1.0, -x) - np.exp(-x)).max())
    x = np.linspace(0.0, 10.0, n_points)
    ref = np.exp(x ** 2) * np.array([math.erfc(v) for v in x])
    return exp_err, float(np.abs(ml(0.5, 1.0, -x) - ref).max() / ref.min())


def _relax(alpha, order, lam, t):
    """Body of relax_primitive (order 1) and relax_antiderivative (order 2).

    Small y = lam t^a: t^(order-1+a) E_{a,a+order}(-y) by its power series, free
    of the 1 - E cancellation (at y = 0 the series is exactly 1/Gamma(a+order));
    otherwise t^(order-1) (1 - E_{a,order}(-y)) / lam with one ml call for all
    points.  Powers of t are taken before broadcasting against lam.  A value
    past the double range at a finite t raises DomainError naming t and lam.
    """
    _check_alpha(alpha)
    lam = np.asarray(lam, dtype=float)
    if np.isnan(lam).any():
        raise DomainError("lambda must not be NaN")
    if np.any(lam < 0):
        raise DomainError("lambda must be nonnegative")
    if np.isinf(lam).any():
        raise DomainError("lambda must be finite")
    t = np.asarray(t, dtype=float)
    if np.isnan(t).any():
        raise DomainError("t must not be NaN")
    if order == 1 and np.any(t < 0):
        raise DomainError("t must be nonnegative")
    t = np.maximum(t, 0.0)
    with np.errstate(over="ignore"):  # a value past the double range raises below
        # y = 0 where lam = 0, also at t = inf, without forming 0 * inf
        y = np.multiply(lam, t ** alpha, where=lam > 0.0,
                        out=np.zeros(np.broadcast_shapes(lam.shape, t.shape)))
        lam, t = np.broadcast_to(lam, y.shape), np.broadcast_to(t, y.shape)
        out = np.empty_like(y)
        series = y <= 0.5
        if series.any():
            acc, _ = _series(alpha, alpha + order, y[series])
            out[series] = t[series] ** (order - 1.0 + alpha) * acc
        big = ~series
        if big.any():
            E = ml(alpha, float(order), -y[big])
            if order == 1:
                out[big] = (1.0 - E) / lam[big]
            else:
                out[big] = t[big] / lam[big] * (1.0 - E)
    past = np.flatnonzero(~np.isfinite(out) & np.isfinite(t))
    if past.size:
        i = np.unravel_index(past[0], out.shape)
        name = "relax_primitive" if order == 1 else "relax_antiderivative"
        raise DomainError(
            f"{name} at t = {t[i]:.3g}, lambda = {lam[i]:.3g} leaves the double range: it "
            f"grows like t^{order - 1 + alpha:g} for small lambda t^alpha and like "
            f"{'1' if order == 1 else 't'}/lambda for large")
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


def _antiderivative_dlam(alpha, lam, t):
    """d/dlam of relax_antiderivative at lam >= 0 and t >= 0, broadcast.

    With y = lam t^a it is -(t / lam^2) (1 - E_{a,2}(-y) + (E_{a,1}(-y) -
    E_{a,2}(-y)) / a), from a z E'_{a,2}(z) = E_{a,1}(z) - E_{a,2}(z); for
    y <= 0.5 the termwise series -t^(1+2a) sum_j (j+1) (-y)^j / Gamma((j+2)a
    + 2) over j < DLAM_TERMS, whose first omitted term is below 1e-17 of the
    sum; it is exact at lam = 0.
    """
    lam, t = np.broadcast_arrays(np.asarray(lam, dtype=float), np.asarray(t, dtype=float))
    y = lam * t ** alpha
    out = np.empty_like(y)
    series = y <= 0.5
    if series.any():
        # (j + 1) / Gamma((j + 2) a + 2) = (j + 1) / Gamma(a j + 2a + 2)
        rgamma = _series_coeffs(float(alpha), 2.0 * alpha + 2.0)[0][:DLAM_TERMS]
        out[series] = -t[series] ** (1.0 + 2.0 * alpha) * np.polynomial.polynomial.polyval(
            -y[series], np.arange(1.0, DLAM_TERMS + 1.0) * rgamma)
    big = ~series
    if big.any():
        e1, e2 = ml(alpha, 1.0, -y[big]), ml(alpha, 2.0, -y[big])
        out[big] = -t[big] / lam[big] ** 2 * (1.0 - e2 + (e1 - e2) / alpha)
    return out


def ml_laplace_residual(alpha: float, lam: float, zeta: float) -> float:
    """|int_0^inf e^{-zeta t} E_{a,1}(-lam t^a) dt - zeta^{a-1}/(zeta^a + lam)|.

    The integral is truncated where the bound E(-lam T^a) e^{-zeta T}/zeta
    drops below LAPLACE_TOL/2, and below t = e^{S_LO}, where the integrand is
    at most 1.  In s = log t it is a trapezoid sum over g(s) = e^{s - zeta
    e^s} E_{a,1}(-lam e^{a s}), which is analytic and bounded in the strip
    |Im s| < d = pi/2 and decays at both ends, so the rule converges
    geometrically (Trefethen & Weideman, SIAM Rev. 56 (2014) 385-458).  The
    step h = pi d / 30 gives even the rule at step 2h (every other node) the
    exp(-30) target of _integral_nodes; their difference is the error
    estimate.  A small residual certifies the termwise Laplace transform
    identity.  A zeta whose transform, or whose T, is past what a double-
    precision check to LAPLACE_TOL resolves raises DomainError.
    """
    _check_positive("lambda", lam)
    _check_positive("zeta", zeta)
    with np.errstate(divide="ignore", over="ignore"):
        exact = np.float64(zeta) ** (alpha - 1.0) / (np.float64(zeta) ** alpha + lam)
        T = max(-np.log(0.25 * LAPLACE_TOL * zeta) / zeta, 1.0)
    if not (exact * np.finfo(float).eps <= 0.5 * LAPLACE_TOL and T < np.inf):
        raise DomainError(f"zeta = {zeta:.3g} is too small: the transform {exact:.3g}, or "
                          f"the end {T:.3g} of its tail bound, is past what a double-"
                          f"precision check to {LAPLACE_TOL:g} resolves")
    h = np.pi ** 2 / 60.0
    t = np.exp(np.arange(np.log(T), S_LO, -h))
    g = t * np.exp(-zeta * t) * ml(alpha, 1.0, -lam * t ** alpha)
    case = (f"alpha = {alpha:g}, lambda = {lam:g}, zeta = {zeta:.3g} (transform "
            f"{exact:.3g}): the")
    budget = f"above the budget 0.5 * LAPLACE_TOL = {0.5 * LAPLACE_TOL:g}"
    tail = g[0] / (zeta * T)
    if tail > 0.5 * LAPLACE_TOL:
        raise QuadratureNonConvergence(f"{case} tail bound {tail:.2e} is {budget}")
    val = h * g.sum()
    err = abs(val - 2.0 * h * g[::2].sum())
    if err > 0.5 * LAPLACE_TOL:
        raise QuadratureNonConvergence(
            f"{case} quadrature error estimate {err:.2e} is {budget}")
    return abs(val - exact)


def l1_weights(alpha: float, tau: float, count: int) -> L1Weights:
    """L1 coefficients b_j = ((j+1)^{1-a} - j^{1-a}) tau^{-a} / Gamma(2-a).

    At alpha -> 1 this degenerates to the backward difference (b_0 = 1/tau,
    b_j = 0 otherwise).
    """
    _check_alpha(alpha)
    _check_positive("tau", tau)
    if count < 1:
        raise DomainError("count must be at least 1")
    j = np.arange(count, dtype=float)
    jpow = np.where(j == 0, 0.0, j ** (1.0 - alpha))  # 0^0 -> 0 at alpha = 1
    w = ((j + 1.0) ** (1.0 - alpha) - jpow) * tau ** (-alpha) * _rgamma(2.0 - alpha)
    return L1Weights(alpha=alpha, tau=tau, count=count, weights=w)
