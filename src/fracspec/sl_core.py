"""Robin Sturm-Liouville eigensolver based on shooting.

The spatial operator is

    L(q) u = -u'' - q(x) u   on (0, 1),
    u'(0) - h u(0) = 0,      u'(1) + H u(1) = 0,

with a continuous potential q represented by piecewise-linear samples on a
uniform grid.  Initial-value solutions are propagated by a Magnus transfer
matrix per grid interval (fourth-order, lambda-uniform), which keeps the phase
error bounded uniformly in lambda and vectorizes over batches of spectral
parameters.  Where |mu^2| <= 1/4 its cell functions sinh(mu)/mu and cosh(mu)
come from the Taylor polynomial of degree 7 in mu^2 (tail under 2^-56
relative) and det T = cosh^2 - mu^2 (sinh(mu)/mu)^2 = 1; from libm past it.
A march to x multiplies the n cell matrices by pairwise halving,
ceil(log2 n) vectorized levels, and applies the product to the start vector
once.  A node trace takes B blocks of K ~ sqrt(n) cells: every block product
is formed the same way, the start vector crosses the B block products, and
the inside of all blocks fills in at once from their start nodes, about
2 sqrt(n) Python-level steps.  The modes at a point never march: one part
cell factor steps the stored eigenfunction trace on from the node below.
The march guards what it returns: past 1e250
it raises NonFiniteBlowup.  Eigenvalues are isolated by the winding of a
scaled Pruefer angle, pi times the zeros of the shooting solution counted by
sign changes over the node trace plus the end angle, so mode indices cannot
be skipped; a cold solve first splits its range where the winding, taken
linear in sqrt(lambda), crosses (k + 1/2) pi.  Each root of Delta(lambda) =
-phi'(1) - H phi(1) is then polished by secant steps in sqrt(lambda) on the
wrapped Pruefer phase, nearly linear there, until it meets a residual test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BracketFailure,
    DomainError,
    InsufficientModes,
    NonFiniteBlowup,
    ResidualTooLarge,
)

DEFAULT_GRID_SIZE = 2048
MIN_GRID = 16  # fewest cells of a solver grid
_OVERFLOW_GUARD = 1e250
_RESIDUAL_TOL = 1e-9  # relative |Delta| that accepts a root whose bracket stayed wide
_SERIES_RADIUS = 0.25  # R: |mu^2| up to which _cosh_sinhc sums its Taylor table
_SERIES_TERMS = 8  # K: the table's terms, the fewest that R's tail bound admits
_SINHC_TAYLOR = [1.0 / math.factorial(2 * k + 1) for k in range(_SERIES_TERMS)]


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialSpec:
    """Piecewise-linear potential on a uniform grid over [0, 1].

    samples has grid_size + 1 entries.  The admissible set requires -q >= 0,
    i.e. every sample <= 0.
    """

    samples: np.ndarray
    grid_size: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size != self.grid_size + 1:
            raise DomainError(
                f"expected {self.grid_size + 1} samples, got {samples.size}")
        if not np.all(np.isfinite(samples)):
            raise DomainError("potential samples must be finite")
        object.__setattr__(self, "samples", samples)

    @property
    def admissible(self) -> bool:
        return bool(np.all(self.samples <= 0.0))

    @property
    def x_grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.grid_size + 1)

    @classmethod
    def constant(cls, value: float, grid_size: int = DEFAULT_GRID_SIZE) -> "PotentialSpec":
        return cls(np.full(grid_size + 1, float(value)), grid_size)

    @classmethod
    def from_callable(cls, fn, grid_size: int = DEFAULT_GRID_SIZE) -> "PotentialSpec":
        x = np.linspace(0.0, 1.0, grid_size + 1)
        return cls(np.asarray([fn(xi) for xi in x], dtype=float), grid_size)

    def __call__(self, x):
        return np.interp(x, self.x_grid, self.samples)

    def resampled(self, grid_size: int) -> "PotentialSpec":
        if grid_size == self.grid_size:
            return self
        return PotentialSpec(self(np.linspace(0.0, 1.0, grid_size + 1)), grid_size)


@dataclass(frozen=True)
class RobinPair:
    """Robin coefficients: u'(0) = h u(0) at the left, u'(1) = -H u(1) + drive."""

    h: float
    H: float

    def __post_init__(self):
        for name, value in (("h", self.h), ("H", self.H)):
            if not 0.0 <= value < np.inf:
                raise DomainError(f"Robin coefficient {name} must be in [0, inf), got {value}")


@dataclass
class EigenSystem:
    """Sorted eigenvalues with normalized eigenfunction traces and norming data.

    efuncs[n] samples e_n = phi_n / sqrt(beta_n) with e_n(0) > 0; k[n] is the
    norming constant 1/phi_n(1); beta[n] the squared L2 norm of phi_n;
    residuals[n] the characteristic-function residual |Delta(lambda_n)|.
    """

    lambdas: np.ndarray
    efuncs: np.ndarray
    defuncs: np.ndarray
    k: np.ndarray
    beta: np.ndarray
    n_max: int
    residuals: np.ndarray
    q: PotentialSpec
    robin: RobinPair
    grid_size: int

    @property
    def x_grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.grid_size + 1)


@dataclass
class AsymptoticsReport:
    """Boundedness diagnostics for r_n = (sqrt(lambda_n) - n pi) * n."""

    n_values: np.ndarray
    r_values: np.ndarray
    max_upper_half: float
    slope: float
    slope_stderr: float
    passed: bool


# ---------------------------------------------------------------------------
# Magnus transfer-matrix propagation
# ---------------------------------------------------------------------------

def _horner(z, coefs):
    """sum_k coefs[k] z^k by in-place Horner steps, elementwise in z."""
    out = z * coefs[-1] + coefs[-2]
    for coef in coefs[-3::-1]:
        out *= z
        out += coef
    return out


def _cosh_sinhc(musq):
    """cosh(mu) and sinh(mu)/mu for mu = sqrt(musq), real of either sign or complex.

    Where |musq| <= R, s = sum_{k<K} musq^k/(2k+1)!, whose tail is at most
    R^K/(2K+1)!/(1 - R/((2K+2)(2K+3))) <= 2^-56 sin(sqrt R)/sqrt R <= 2^-56 |s|
    (|sinh z/z| >= sin|z|/|z|), and c = sqrt(1 + musq s^2) from the cell
    matrix's det = c^2 - musq s^2 = 1, the principal root as Re cosh(mu) > 0
    for |mu| < pi/2.  libm past R.  Each value depends on its own musq alone,
    so a real batch gives the bits of its elements taken one by one.
    """
    far = np.abs(musq) > _SERIES_RADIUS
    mixed = far.any()
    z = np.where(far, 0.0, musq) if mixed else musq
    s = _horner(z, _SINHC_TAYLOR)
    c = z * s * s + 1.0
    np.sqrt(c, out=c)
    if mixed:
        # cos and sin(rho)/rho where a real musq = -rho^2 < 0, else cosh and sinh(mu)/mu
        osc = far & (musq < 0.0) if musq.dtype.kind == "f" else np.zeros_like(far)
        for side, sign, f, g in ((osc, -1.0, np.cos, np.sin), (far & ~osc, 1.0, np.cosh, np.sinh)):
            mu = np.sqrt(sign * musq[side])
            c[side], s[side] = f(mu), g(mu) / mu
    return c, s


def _cell_factors(qmid, slope, width, lams):
    """Magnus transfer-matrix entries for cells given by (qmid, slope, width).

    The entries t00, t01, t10, t11 stacked, shape (4, n_lam) + qmid.shape.
    On each cell the potential is exactly linear, so the fourth-order Magnus
    term only involves the cell mean and slope of lambda + q.
    """
    w2 = np.add.outer(lams, qmid)
    a = slope * width ** 3 / 12.0
    musq = w2 * -(width * width) + a * a
    c, s = _cosh_sinhc(musq)
    sa = np.multiply(s, a, out=musq)
    t = np.empty((4,) + musq.shape, dtype=musq.dtype)
    np.add(c, sa, out=t[0])
    np.multiply(s, width, out=t[1])
    np.negative(np.multiply(t[1], w2, out=t[2]), out=t[2])
    np.subtract(c, sa, out=t[3])
    return t


def _chain(t):
    """Products T_{n-1} ... T_0 of the 2x2 matrices t[:, :, ..., k], k < n.

    Pairwise halving along the last axis: ceil(log2 n) vectorized levels,
    each multiplying every later matrix of a pair into the earlier one; an
    odd count carries its last matrix up one level.  Shape (2, 2, ...).
    """
    while t.shape[-1] > 1:
        m = t.shape[-1] // 2
        later, earlier = t[..., 1:2 * m:2], t[..., 0:2 * m:2]
        p = later[:, :1] * earlier[:1] + later[:, 1:] * earlier[1:]
        t = p if 2 * m == t.shape[-1] else np.concatenate([p, t[..., -1:]], axis=-1)
    return t[..., 0]


def _part_cell(q_samples, x):
    """Node n at or below each x and the part cell from node n to x.

    Returns n and the part's mean and slope of q and its width; on a node
    (within rounding) the width is 0, and the part's Magnus factor is then
    exactly the identity.
    """
    N = q_samples.size - 1
    h = 1.0 / N
    n_full = np.minimum(np.floor(x * N + 1e-12).astype(int), N)
    part = x - n_full * h
    part = np.where(part > 1e-14, part, 0.0)
    lo, hi = q_samples[n_full], q_samples[np.minimum(n_full + 1, N)]
    slope = (hi - lo) / h
    return n_full, lo + slope * part / 2.0, slope, part


def _propagate(q_samples, v0, d0, lams, keep_trace=False, x=1.0):
    """March the shooting solution from 0 to x for a batch of lambdas.

    The full cells below x are followed by _part_cell's part ending at x.
    Returns the pair at x of shape (n_lam,), or with keep_trace the values
    and derivatives at every marched node, shape (n_lam, n_cells + 1).
    Whatever it returns has passed the overflow guard, so no caller checks
    again.  A NaN or infinite lambda raises DomainError before the march.
    """
    lams = np.atleast_1d(np.asarray(lams))
    if not np.all(np.isfinite(lams)):
        raise DomainError(f"lambda must be finite, got {lams[~np.isfinite(lams)][0]}")
    if not np.iscomplexobj(lams):
        lams = lams.astype(float)
    h = 1.0 / (q_samples.size - 1)
    n_full, part_mean, _, part = _part_cell(q_samples, x)
    n_cells = int(n_full + (part > 0.0))
    # the pair at x needs only the product of all cells, one block; a trace
    # takes B blocks of K ~ sqrt(n) cells.  The cells past n_cells have zero
    # width, so their factors are exactly the identity
    K = max(int(np.ceil(np.sqrt(n_cells))) if keep_trace else n_cells, 1)
    B = max(-(-n_cells // K), 1)
    qmid, slope, width = np.zeros((3, B * K))
    lo, hi = q_samples[:n_cells], q_samples[1:n_cells + 1]
    qmid[:n_cells], slope[:n_cells] = 0.5 * (lo + hi), (hi - lo) / h
    width[:n_cells] = h
    if part:
        qmid[n_cells - 1], width[n_cells - 1] = part_mean, part
    n_lam = lams.size
    t = _cell_factors(qmid, slope, width, lams).reshape(2, 2, n_lam, B, K)
    with np.errstate(over="ignore", invalid="ignore"):
        # every block's product P = T_{K-1} ... T_0 at once, shape
        # (2, 2, n_lam, B)
        p = _chain(t)
        if not keep_trace:
            return _check_finite(p[0, 0, :, 0] * v0 + p[0, 1, :, 0] * d0,
                                 p[1, 0, :, 0] * v0 + p[1, 1, :, 0] * d0)
        vals = np.empty((n_lam, B * K + 1), dtype=t.dtype)
        ders = np.empty_like(vals)
        vals[:, 0], ders[:, 0] = v, d = v0, d0
        # march the start vector across the blocks
        for b in range(B):
            v, d = (p[0, 0, :, b] * v + p[0, 1, :, b] * d,
                    p[1, 0, :, b] * v + p[1, 1, :, b] * d)
            vals[:, (b + 1) * K], ders[:, (b + 1) * K] = v, d
        # march inside every block at once from its start node; the block
        # ends are already in place
        vb, db = vals[:, 0:B * K:K], ders[:, 0:B * K:K]
        vals_in = vals[:, 1:].reshape(n_lam, B, K)
        ders_in = ders[:, 1:].reshape(n_lam, B, K)
        for k in range(K - 1):
            vb, db = (t[0, 0, :, :, k] * vb + t[0, 1, :, :, k] * db,
                      t[1, 0, :, :, k] * vb + t[1, 1, :, :, k] * db)
            vals_in[:, :, k], ders_in[:, :, k] = vb, db
    return _check_finite(vals[:, :n_cells + 1], ders[:, :n_cells + 1])


def _check_finite(*arrays):
    for arr in arrays:
        # False for NaN and +-inf as well as past the guard
        if not np.abs(arr).max(initial=0.0) <= _OVERFLOW_GUARD:
            raise NonFiniteBlowup(
                f"shooting solution passed {_OVERFLOW_GUARD:.0e}: lambda lies too far "
                "below the spectrum, or the wells of q are too deep for a double-"
                "precision march; shoot nearer the spectrum or make q shallower")
    return arrays


# ---------------------------------------------------------------------------
# solver grid and characteristic function
# ---------------------------------------------------------------------------

def _validate_ivp_args(q: PotentialSpec, grid_size: int | None, allow_inadmissible=True):
    """q on the solver grid (q's own when grid_size is None), at least MIN_GRID
    cells; an inadmissible q raises DomainError unless allow_inadmissible."""
    if not (allow_inadmissible or q.admissible):
        raise DomainError("potential is not admissible (samples must be <= 0); "
                          "pass allow_inadmissible=True to override")
    grid_size = q.grid_size if grid_size is None else int(grid_size)
    if grid_size < MIN_GRID:
        raise DomainError(f"grid_size must be at least {MIN_GRID}")
    return q.resampled(grid_size)


def char_delta(q: PotentialSpec, robin: RobinPair, lam, grid_size: int | None = None):
    """Characteristic function Delta(lambda) = -phi'(1) - H phi(1); zero at eigenvalues."""
    qs = _validate_ivp_args(q, grid_size).samples
    v, d = _propagate(qs, 1.0, robin.h, [lam])
    out = -(d + robin.H * v)
    return complex(out[0]) if np.iscomplexobj(out) else float(out[0])


# ---------------------------------------------------------------------------
# eigen machinery (Pruefer winding + characteristic-root polish)
# ---------------------------------------------------------------------------

def winding_bracket(q: np.ndarray, n_max: int):
    """Rayleigh bracket (lam_lo, lam_hi) of modes 0..n_max for nonnegative
    Robin data; DomainError when the grid of the potential samples q is too
    coarse to count the Pruefer windings of n_max + 1 modes."""
    qmax = q.max()
    # -max q < lambda_0, and lambda_n_max lies below its Dirichlet value
    # (n_max + 1)^2 pi^2 - min q
    lam_lo = min(0.0, -qmax) - 1.0
    lam_hi = (n_max + 2.0) ** 2 * np.pi ** 2 + max(0.0, -q.min()) + 10.0
    # the winding counts one zero per sign change between nodes, so it drops
    # one once the angle turns by pi within a cell; the scaled Pruefer angle
    # crosses k pi only upward and turns at most at rate max(omega, k^2/omega)
    omega = np.sqrt(max(lam_hi + float(np.mean(q)), 1.0))
    rate = max(omega, (lam_hi + qmax) / omega)
    n_cells = q.size - 1
    if rate >= np.pi * n_cells:
        raise DomainError(
            f"{n_max + 1} modes need grid_size >= {int(rate / np.pi) + 1} "
            f"(got {n_cells}): the Pruefer angle would turn by pi or more "
            "across one grid cell")
    return lam_lo, lam_hi


class _ShootingProblem:
    """Unit-interval problem: left data (v0, d0), right condition cd*u' + cv*u = 0."""

    def __init__(self, q_samples, v0, d0, cv, cd):
        self.q = np.asarray(q_samples, dtype=float)
        self.v0, self.d0 = float(v0), float(d0)
        self.cv, self.cd = float(cv), float(cd)
        self.q_mean = float(np.mean(self.q))

    def angle_excess(self, lams):
        """G_0(lambda) and Delta(lambda) from one traced march per distinct lambda.

        G_0 is the Pruefer winding minus the first right-condition angle; the
        n-th eigenvalue solves G_0 = n pi.  The winding is pi times the number
        Z of zeros of the solution in (0, 1], counted as sign changes over the
        node trace (a node zero once, the start node never), plus the end
        angle turned by Z pi, in [0, pi).  This needs the angle to start in
        [0, pi): v0 > 0, or v0 = 0 < d0.
        """
        lams, inverse = np.unique(np.asarray(lams, dtype=float), return_inverse=True)
        vals, ders = _propagate(self.q, self.v0, self.d0, lams, keep_trace=True)
        omega = np.sqrt(np.maximum(lams + self.q_mean, 1.0))
        sign = np.sign(vals[:, 1:])
        zeros = (np.count_nonzero(sign * np.sign(vals[:, :-1]) < 0.0, axis=1)
                 + np.count_nonzero(sign == 0.0, axis=1))
        s = 1.0 - 2.0 * (zeros % 2)
        phi = np.arctan2(s * omega * vals[:, -1], s * ders[:, -1])
        target = np.arctan2(omega * self.cd, -self.cv)
        delta = -(self.cd * ders[:, -1] + self.cv * vals[:, -1])
        return (np.pi * zeros + phi - target)[inverse], delta[inverse]

    def phase(self, lams, n):
        """Phase g of mode n and Delta at lams, from one untraced march.

        g is G_0 - n pi wrapped to (-pi, pi]: inside a bracket isolating root n
        it rises through 0 at the root, nearly linearly in sqrt(lambda).
        """
        v, d = _propagate(self.q, self.v0, self.d0, lams)
        omega = np.sqrt(np.maximum(lams + self.q_mean, 1.0))
        delta = -(self.cd * d + self.cv * v)
        s = np.where(n % 2, -1.0, 1.0)
        return (np.arctan2(s * omega * delta, s * (omega ** 2 * self.cd * v - self.cv * d)),
                delta)

    def solve(self, n_max, guesses=None):
        """Eigenvalues 0..n_max by winding isolation then a secant polish.

        The global Rayleigh brackets are split at separator points, and each
        mode's bracket is bisected where that left its root unisolated.  The
        separators are guess -+ 0.5 (1 + 1e-3 |guess|) clipped into the
        brackets when guesses (eigenvalues of a nearby problem) are supplied,
        else the points where the line through the ends' windings in
        sqrt(lambda) crosses (k + 1/2) pi.  Raises DomainError when the grid
        is too coarse to count the windings of n_max + 1 modes.
        """
        n_modes = n_max + 1
        targets = np.arange(n_modes) * np.pi
        lam_lo, lam_hi = winding_bracket(self.q, n_max)
        warm = guesses is not None and len(guesses) == n_modes
        if warm:
            guesses = np.asarray(guesses, dtype=float)
            half = 0.5 * (1.0 + 1e-3 * np.abs(guesses))
            lams = np.sort(np.clip(np.concatenate([[lam_lo, lam_hi], guesses - half,
                                                   guesses + half]), lam_lo, lam_hi))
        else:
            lams = np.array([lam_lo, lam_hi])
        g, f = self.angle_excess(lams)
        if not (g[0] < 0.0 and g[-1] > targets[-1]):
            raise BracketFailure("could not establish winding brackets")
        if not warm:
            # the winding is nearly linear in w = sqrt(lambda - lam_lo): split
            # the global bracket where that line crosses (k + 1/2) pi
            w = np.sqrt(lam_hi - lam_lo) * (targets[1:] - 0.5 * np.pi - g[0]) / (g[1] - g[0])
            lams = np.concatenate([[lam_lo], lam_lo + w * w, [lam_hi]])
            g_sep, f_sep = self.angle_excess(lams[1:-1])
            g, f = np.r_[g[0], g_sep, g[1]], np.r_[f[0], f_sep, f[1]]
        # mode n gets the first point above n pi and the one before it
        i = np.argmax(g > targets[:, None], axis=1)
        lo, hi, f_lo, f_hi = lams[i - 1], lams[i], f[i - 1], f[i]
        g_lo, g_hi = g[i - 1] - targets, g[i] - targets
        # bisect each bracket until it holds root n alone, or until it is a
        # few ulps wide (the winding and Delta can then sit at rounding level
        # on both ends) and the polish's width test certifies it
        for _ in range(80):
            todo = np.flatnonzero(~_isolated(g_lo, g_hi, f_lo, f_hi)
                                  & (hi - lo > 4e-16 * (1.0 + np.abs(hi))))
            if todo.size == 0:
                break
            mid = 0.5 * (lo[todo] + hi[todo])
            g_mid, f_mid = self.angle_excess(mid)
            g_mid -= targets[todo]
            up = g_mid > 0
            i, j = todo[up], todo[~up]
            hi[i], g_hi[i], f_hi[i] = mid[up], g_mid[up], f_mid[up]
            lo[j], g_lo[j], f_lo[j] = mid[~up], g_mid[~up], f_mid[~up]
        else:
            raise BracketFailure("winding bisection failed to isolate every root")
        return self._polish(lo, hi, g_lo, g_hi, f_lo, f_hi)

    def _polish(self, lo, hi, g_lo, g_hi, f_lo, f_hi):
        # secant on each mode's phase g through its last two iterates, in
        # w = sqrt(lambda + shift) where g is nearly linear, vectorized across
        # the modes still active.  Iterates and brackets stay in lambda
        # (dlambda = dw (2 w1 + dw)), so a root near 0 keeps its absolute
        # accuracy; a secant point outside the bracket falls back to false
        # position in its middle half, and none goes below the Rayleigh bound
        # -max q.  A mode leaves the batch for good once |g_best| is at the
        # rounding level of the slope, or its bracket is a few ulps wide.
        a, b, ga, gb = lo.copy(), hi.copy(), g_lo.copy(), g_hi.copy()
        x0, x1, g0, g1 = a.copy(), b.copy(), ga.copy(), gb.copy()
        left = np.abs(ga) < np.abs(gb)
        best, g_best, f_best = (np.where(left, u, v) for u, v in ((a, b), (ga, gb), (f_lo, f_hi)))
        shift = np.maximum(self.q_mean, -lo)
        floor = 0.0 - self.q.max()  # +0.0, not -0.0, for q = 0
        active = np.ones(a.size, dtype=bool)
        for _ in range(40):
            slope = np.abs(g1 - g0) / np.maximum(np.abs(x1 - x0), 1e-300)
            active &= (b - a > 4e-16 * (1.0 + np.abs(b))) & \
                      (np.abs(g_best) > 2e-15 * slope * (1.0 + np.abs(best)))
            i = np.flatnonzero(active)
            if i.size == 0:
                break
            w1 = np.sqrt(x1[i] + shift[i])
            with np.errstate(divide="ignore", invalid="ignore"):
                dw = g1[i] * (x1[i] - x0[i]) / ((w1 + np.sqrt(x0[i] + shift[i]))
                                                * (g0[i] - g1[i]))
                x = x1[i] + dw * (2.0 * w1 + dw)
            out = ~((a[i] < x) & (x < b[i]))
            if out.any():
                j = i[out]
                wa, width = np.sqrt(a[j] + shift[j]), b[j] - a[j]
                dw = ga[j] / (ga[j] - gb[j]) * width / (wa + np.sqrt(b[j] + shift[j]))
                x[out] = np.clip(a[j] + dw * (2.0 * wa + dw),
                                 a[j] + 0.25 * width, b[j] - 0.25 * width)
            x = np.maximum(x, floor)
            gx, fx = self.phase(x, i)
            improve = np.abs(gx) < np.abs(g_best[i])
            k = i[improve]
            best[k], g_best[k], f_best[k] = x[improve], gx[improve], fx[improve]
            up = gx > 0
            b[i[up]], gb[i[up]] = x[up], gx[up]
            a[i[~up]], ga[i[~up]] = x[~up], gx[~up]
            x0[i], g0[i], x1[i], g1[i] = x1[i], g1[i], x, gx
        res = np.abs(f_best)
        # a shrunken bracket certifies the root even when Delta is steep and
        # |Delta(root)| floors at slope * ulp(lambda)
        width_ok = (b - a) <= 1e-9 * (1.0 + np.abs(best))
        res_ok = res <= _RESIDUAL_TOL * (1.0 + np.abs(best))
        if np.any(~width_ok & ~res_ok):
            n = int(np.argmax(np.where(width_ok | res_ok, -1.0, res)))
            raise ResidualTooLarge(
                f"mode {n}: characteristic residual {res[n]:.3e} with its bracket "
                f"still {b[n] - a[n]:.3g} wide after refinement")
        return best, res


def _isolated(g_lo, g_hi, f_lo, f_hi):
    """Brackets whose winding holds root n alone and across which Delta changes sign."""
    return ((-np.pi < g_lo) & (g_lo < 0.0) & (0.0 < g_hi) & (g_hi < np.pi)
            & (np.sign(f_lo) * np.sign(f_hi) <= 0.0))


def _corrected_trapezoid(f, f_prime, h):
    """Trapezoid with the Euler-Maclaurin endpoint correction (O(h^4))."""
    t = h * (f.sum(axis=-1) - 0.5 * (f[..., 0] + f[..., -1]))
    corr = (h * h / 12.0) * (f_prime[..., -1] - f_prime[..., 0])
    return t - corr


def eigen_system(q: PotentialSpec, robin: RobinPair, n_max: int,
                 grid_size: int | None = None,
                 allow_inadmissible: bool = False,
                 lambda_guess=None) -> EigenSystem:
    """Modes 0..n_max of L(q) with the Robin pair (h, H).

    Eigenvalues are bracketed by oscillation counting (Pruefer winding), so
    indices cannot be skipped, then polished by secant steps on the Pruefer
    phase, with residual |Delta(lambda_n)|.  e_n = phi_n/sqrt(beta_n)
    with e_n(0) > 0; k_n = 1/phi_n(1); beta_n by endpoint-corrected trapezoid
    on the solver grid.  lambda_guess (eigenvalues of a nearby problem) gives
    the separator points that split the global winding bracket.
    """
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    if lambda_guess is not None and not np.all(np.isfinite(lambda_guess)):
        raise DomainError("lambda_guess must be finite")
    q = _validate_ivp_args(q, grid_size, allow_inadmissible)
    problem = _ShootingProblem(q.samples, 1.0, robin.h, robin.H, 1.0)
    lambdas, residuals = problem.solve(n_max, guesses=lambda_guess)

    vals, ders = _propagate(q.samples, 1.0, robin.h, lambdas, keep_trace=True)
    with np.errstate(over="ignore", invalid="ignore"):
        beta = _corrected_trapezoid(vals ** 2, 2.0 * vals * ders, 1.0 / q.grid_size)
    if not np.all(np.isfinite(beta)):
        raise NonFiniteBlowup(
            f"mode {np.argmin(np.isfinite(beta))}: its squared norm leaves the double "
            "range (|phi| past ~1e154); the wells of q are too deep, make q shallower")
    root_beta = np.sqrt(beta)
    efuncs = vals / root_beta[:, None]
    defuncs = ders / root_beta[:, None]
    k = 1.0 / vals[:, -1]
    return EigenSystem(lambdas=lambdas, efuncs=efuncs, defuncs=defuncs, k=k,
                       beta=beta, n_max=n_max, residuals=residuals,
                       q=q, robin=robin, grid_size=q.grid_size)


def eval_modes_at(es: EigenSystem, x):
    """(e_n(x), e_n'(x)) for all computed modes at a scalar or array x in [0, 1].

    One Magnus factor over the part cell below each x steps the stored trace
    on from that cell's left node, so a node returns its efuncs/defuncs
    column exactly and an off-grid x carries no interpolation error (needed
    for vanishing-trace classification at the observation point).  Shape
    (n_modes,) + x.shape.
    """
    x = np.asarray(x, dtype=float)
    if not np.all((0.0 <= x) & (x <= 1.0)):
        raise DomainError("x must lie in [0, 1]")
    n, qmid, slope, part = _part_cell(es.q.samples, x)
    t = _cell_factors(qmid, slope, part, es.lambdas)
    v, d = es.efuncs[:, n], es.defuncs[:, n]
    return t[0] * v + t[1] * d, t[2] * v + t[3] * d


def split_spectra(q: PotentialSpec, x0: float, robin: RobinPair, n_max: int,
                  grid_size: int | None = None,
                  allow_inadmissible: bool = False):
    """First n_max + 1 eigenvalues of the split problems at the interior point x0.

    Left: Robin at 0, Dirichlet at x0, on (0, x0).  Right: Dirichlet at x0,
    Robin at 1, on (x0, 1).  Each subinterval is rescaled to unit length, which
    maps lambda -> len^2 lambda, h -> len*h.
    """
    if not (0.0 < x0 < 1.0):
        raise DomainError("x0 must lie strictly inside (0, 1)")
    x = _validate_ivp_args(q, grid_size, allow_inadmissible).x_grid

    def spectrum(a, length, v0, d0, cv, cd):
        mu, _ = _ShootingProblem(length ** 2 * q(a + length * x), v0, d0, cv, cd).solve(n_max)
        return mu / length ** 2

    len_r = 1.0 - x0
    return (spectrum(0.0, x0, 1.0, x0 * robin.h, 1.0, 0.0),
            spectrum(x0, len_r, 0.0, 1.0, len_r * robin.H, 1.0))


def neumann_reference_error(lambdas) -> float:
    """max_n |lambda_n - (n pi)^2| / max((n pi)^2, 1) against the spectrum of
    q = 0 with h = H = 0, so lambda_0 = 0 is judged by its absolute error."""
    exact = (np.arange(len(lambdas)) * np.pi) ** 2
    return float(np.max(np.abs(lambdas - exact) / np.maximum(exact, 1.0)))


def verify_asymptotics(es: EigenSystem) -> AsymptoticsReport:
    """Boundedness check of r_n = (sqrt(lambda_n) - n pi) n over the computed modes.

    Fits a line to |r_n| over the upper half of indices; passes when the slope
    is not significantly positive (no growth trend).
    """
    if es.n_max + 1 < 20:
        raise InsufficientModes("need at least 20 modes")
    n = np.arange(1, es.n_max + 1)
    r = (np.sqrt(np.maximum(es.lambdas[1:], 0.0)) - n * np.pi) * n
    upper = n >= (es.n_max + 1) // 2
    abs_r = np.abs(r[upper])
    nn = n[upper].astype(float)
    A = np.vstack([np.ones_like(nn), nn]).T
    coef, res_ss, _, _ = np.linalg.lstsq(A, abs_r, rcond=None)
    dof = max(len(nn) - 2, 1)
    sigma2 = (res_ss[0] / dof) if res_ss.size else 0.0
    cov = sigma2 * np.linalg.inv(A.T @ A)
    stderr = float(np.sqrt(cov[1, 1]))
    slope = float(coef[1])
    # bounded sequences creep toward their limit, so judge the slope by the
    # growth it projects across the window relative to the sequence level
    projected = slope * (nn[-1] - nn[0])
    level = float(np.mean(abs_r)) + 1e-12
    passed = bool(slope <= 2.0 * stderr + 1e-12 or projected <= 0.25 * level)
    return AsymptoticsReport(n_values=n, r_values=r,
                             max_upper_half=float(abs_r.max()),
                             slope=slope, slope_stderr=stderr, passed=passed)
