"""Forward solvers for the time-fractional diffusion problem

    d_t^alpha u = u_xx + q(x) u          in (0,1) x (0,T),
    u_x(0,t) - h u(0,t) = 0,
    u_x(1,t) + H u(1,t) = eta(t),
    u(x,0) = 0,

by (a) the eigenfunction series

    u(x,t) = sum_n (int_0^t s^{a-1} E_{a,a}(-lam_n s^a) eta(t-s) ds) e_n(x) e_n(1)

with the convolution integrated exactly against the piecewise-linear drive
(differences of the relaxation antiderivative, no singular quadrature), and
(b) an independent L1 finite-difference scheme (implicit Caputo time stepping,
central differences, Robin ghost nodes) used as a cross-validation oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DomainError,
    IncompatibleGrids,
    LinearSolveFailure,
    TruncationTooCoarse,
)
from .mittleff import _check_alpha, l1_weights, relax_antiderivative, relax_primitive
from .sl_core import EigenSystem, PotentialSpec, RobinPair, eval_modes_at


_BLOCK_POINTS = 1 << 18  # most (mode, time) points in one relaxation call
MIN_FD_NODES = 32  # fewest x and t steps of the L1-FD grid

# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass
class DriveSignal:
    """Boundary drive eta on a time grid; eta(0) = 0 is enforced."""

    t_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.t_grid = np.asarray(self.t_grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.t_grid.size != self.values.size:
            raise DomainError("t_grid and values must have the same length")
        if not np.all(np.isfinite(self.t_grid)):
            raise DomainError("t_grid must be finite")
        if self.t_grid[0] != 0.0 or not np.all(np.diff(self.t_grid) > 0):
            raise DomainError("t_grid must increase from 0")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("drive values must be finite")
        if self.values[0] != 0.0:
            raise DomainError("drive must start at zero (eta(0) = 0)")

    @classmethod
    def from_callable(cls, fn, T: float, nt: int) -> "DriveSignal":
        t = np.linspace(0.0, T, nt + 1)
        return cls(t, [fn(ti) for ti in t])

    def __call__(self, t):
        return np.interp(t, self.t_grid, self.values)

    @property
    def T(self) -> float:
        return float(self.t_grid[-1])


@dataclass
class SpaceTimeField:
    """u(x, t) samples; values[i, j] = u(x_grid[i], t_grid[j])."""

    x_grid: np.ndarray
    t_grid: np.ndarray
    values: np.ndarray
    method: str  # "spectral" | "l1fd"
    n_modes_used: int | None = None
    resolution: tuple[int, int] | None = None
    tail_bound: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise DomainError("field values must be finite")

    def at_x(self, x: float) -> np.ndarray:
        """Time series at x, linear in x and clamped outside x_grid like np.interp."""
        pos = np.interp(x, self.x_grid, np.arange(self.x_grid.size, dtype=float))
        j = min(int(pos), self.x_grid.size - 2)  # -1 on a one-point grid
        w = pos - j
        return (1.0 - w) * self.values[j] + w * self.values[j + 1]


@dataclass
class KernelTrace:
    """K(x, t) on a time grid with the reported mode-truncation tail bound."""

    x: float
    t_grid: np.ndarray
    values: np.ndarray
    n_modes: int
    tail_bound: float


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _lam_nonneg(lams: np.ndarray) -> np.ndarray:
    """Clamp roundoff-level negatives of the degenerate lam = 0 mode."""
    if np.any(lams < -1e-9):
        raise DomainError(f"negative eigenvalue {lams.min():.3e}: relaxation undefined")
    return np.maximum(lams, 0.0)


def _mode_blocks(n_modes: int, points_per_mode: int):
    """Slices of the mode axis of at most _BLOCK_POINTS points (or one mode)."""
    step = max(1, _BLOCK_POINTS // max(points_per_mode, 1))
    return [slice(i, i + step) for i in range(0, n_modes, step)]


def _trigamma(n: int) -> float:
    """psi'(n) = sum_{k >= n} 1/k^2 for an integer n >= 1, rounded up.

    From m = max(n, 16) on it is Euler's summation formula for f(k) = 1/k^2,
    1/m + 1/(2m^2) + sum_{j=1}^{7} B_2j / m^(2j+1), which stops on B_14 > 0.
    Every even derivative of f is positive, so the remainder lies between 0
    and the next term B_16 / m^17 < 0 (Graham, Knuth & Patashnik, Concrete
    Mathematics, 2nd ed., sec. 9.5): the sum exceeds psi'(m), by less than
    4e-19 psi'(m).  The terms 1/k^2 for k = m - 1 down to n are then added.
    That sum of positive terms takes fewer than 20 roundings of eps/2
    relative, so the factor 1 + 16 eps keeps the result above psi'(n).
    """
    m = max(n, 16)
    x = 1.0 / m
    y = x * x
    total = x + y * (0.5 + x * (1 / 6 + y * (-1 / 30 + y * (1 / 42 + y * (
        -1 / 30 + y * (5 / 66 + y * (-691 / 2730 + y * 7 / 6)))))))
    for k in range(m - 1, n - 1, -1):
        total += 1.0 / (k * k)
    return total * (1.0 + 16.0 * np.finfo(float).eps)


def _mode_tail_bound(es: EigenSystem, n_used: int, drive_sup: float) -> float:
    """Bound sum_{n >= n_used} |e_n e_n(1)| sup_t |conv_n| <= 2 ||eta||_inf / lam_n.

    For admissible data lam_n >= n^2 pi^2 - shift with shift = max(q, 0);
    _trigamma bounds the tail sum of 1/n^2 from above.
    """
    shift = max(float(es.q.samples.max()), 0.0)
    lam_floor = n_used ** 2 * np.pi ** 2 - shift
    if lam_floor <= 0:
        return np.inf
    # sum_{n >= n_used} 1/(n^2 pi^2 - shift) <= trigamma(n_used)/pi^2 * margin
    margin = 1.0 / (1.0 - shift / (n_used ** 2 * np.pi ** 2))
    tail = _trigamma(n_used) / np.pi ** 2 * margin
    return 2.0 * drive_sup * tail


def _mode_weights(es: EigenSystem, xs: np.ndarray, n_modes: int | None) -> np.ndarray:
    """e_n(x) e_n(1) for n < n_modes (all modes when None) at each x, shape
    (n_modes, xs.size)."""
    n_used = es.n_max + 1 if n_modes is None else int(n_modes)
    if n_used > es.n_max + 1:
        raise DomainError("n_modes exceeds the computed eigensystem")
    return (eval_modes_at(es, xs)[0] * es.efuncs[:, -1, None])[:n_used]


def _exact_convolutions(es, alpha, eta, t_grid, n_used, kernel=None):
    """conv_n(t) = int_0^t s^{a-1}E_{a,a}(-lam_n s^a) eta(t-s) ds for each mode.

    Exact against the piecewise-linear interpolant of eta: with S_n the
    relaxation antiderivative and m_j the drive slopes,
    conv_n(t) = sum_j m_j [S_n((t - tau_j)+) - S_n((t - tau_{j+1})+)].
    A kernel in place of relax_antiderivative (its lambda-derivative, for
    d conv_n / d lam_n) goes through the same knot sum; it must vanish at
    t = 0.  Returns an array (n_used, len(t_grid)).
    """
    kernel = relax_antiderivative if kernel is None else kernel
    tau = eta.t_grid
    dt_eta = np.diff(tau)
    slopes = np.diff(eta.values) / dt_eta
    out = np.empty((n_used, t_grid.size))
    lams = _lam_nonneg(es.lambdas[:n_used])

    uniform = (np.allclose(dt_eta, dt_eta[0], rtol=1e-12, atol=1e-15)
               and t_grid.size > 1)
    if uniform:
        step = dt_eta[0]
        ratio = t_grid / step
        uniform &= bool(np.all(np.abs(ratio - np.round(ratio)) < 1e-9))
    if uniform:
        # Toeplitz structure: S only needed at integer multiples of the step
        kmax = int(round(t_grid[-1] / step))
        grid_k = np.arange(kmax + 1) * step
        idx_t = np.round(t_grid / step).astype(int)
        for blk in _mode_blocks(n_used, kmax + 1):
            S = kernel(alpha, lams[blk, None], grid_k)
            dS = np.diff(S, axis=1, prepend=0.0)  # S(0) = 0
            for n, dS_n in enumerate(dS, start=blk.start):
                out[n] = np.convolve(slopes[:kmax], dS_n)[:kmax + 1][idx_t]
        return out

    # S at every positive knot offset (S(0) = 0); S_hi and S_lo are adjacent
    # column slices
    offs = np.maximum(t_grid[:, None] - tau[None, :], 0.0)
    pos = offs > 0.0
    for blk in _mode_blocks(n_used, np.count_nonzero(pos)):
        S = np.zeros(lams[blk].shape + offs.shape)
        S[:, pos] = kernel(alpha, lams[blk, None], offs[pos])
        out[blk] = ((S[:, :, :-1] - S[:, :, 1:]) * slopes).sum(axis=2)
    return out


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def solve_spectral(es: EigenSystem, alpha: float, eta: DriveSignal,
                   x_points, t_grid, n_modes: int | None = None,
                   trunc_tol: float = 5e-3) -> SpaceTimeField:
    """Eigenfunction-series solution at x_points (a point or a 1-D array) and t_grid.

    Modes are summed in ascending order; raises TruncationTooCoarse when the
    tail bound exceeds trunc_tol * sup|eta| and IncompatibleGrids when t_grid
    leaves the drive support.
    """
    xs = np.atleast_1d(np.asarray(x_points, dtype=float))
    if xs.ndim > 1:
        raise DomainError(f"x_points must be a point or a 1-D array, got shape {xs.shape}")
    t_grid = np.asarray(t_grid, dtype=float)
    weights, conv, tail = _series_terms(es, alpha, eta, xs, t_grid, n_modes, trunc_tol)
    return SpaceTimeField(x_grid=xs, t_grid=t_grid, values=_series_sum(weights, conv),
                          method="spectral", n_modes_used=weights.shape[0],
                          tail_bound=tail)


def _series_terms(es, alpha, eta, xs, t_grid, n_modes, trunc_tol):
    """solve_spectral's checks, then its mode weights e_n(x) e_n(1) (n_used,
    xs.size), convolutions (n_used, t_grid.size) and tail bound."""
    _check_alpha(alpha)
    if not np.all((t_grid >= 0) & (t_grid <= eta.T * (1 + 1e-12) + 1e-15)):
        raise IncompatibleGrids("t_grid must lie inside the drive support")
    weights = _mode_weights(es, xs, n_modes)
    n_used = weights.shape[0]
    drive_sup = float(np.abs(eta.values).max())
    tail = _mode_tail_bound(es, n_used, drive_sup)
    if drive_sup > 0 and tail > trunc_tol * drive_sup:
        raise TruncationTooCoarse(
            f"tail bound {tail:.3e} exceeds {trunc_tol:.1e} * sup|eta|; "
            "increase n_max")
    return weights, _exact_convolutions(es, alpha, eta, t_grid, n_used), tail


def _series_sum(weights, conv):
    """u[i, j] = sum_n weights[n, i] conv[n, j], modes summed in ascending order."""
    return np.einsum("ni,nj->ij", weights, conv)


def kernel_K(es: EigenSystem, alpha: float, x: float, t_grid,
             n_modes: int) -> KernelTrace:
    """K(x,t) = sum_n e_n(x) e_n(1) int_0^t s^{a-1} E_{a,a}(-lam_n s^a) ds.

    The lam = 0 mode contributes t^a/Gamma(a+1) through the primitive's
    zero-rate branch; the tail bound follows the 1/lam_n decay.
    """
    coef = _mode_weights(es, np.asarray([x], dtype=float), n_modes)[:, 0]
    t_grid = np.asarray(t_grid, dtype=float)
    lams = _lam_nonneg(es.lambdas[:n_modes])
    vals = np.zeros_like(t_grid)
    for blk in _mode_blocks(n_modes, t_grid.size):
        vals += coef[blk] @ relax_primitive(alpha, lams[blk, None], t_grid)
    tail = _mode_tail_bound(es, n_modes, 1.0)
    return KernelTrace(x=float(x), t_grid=t_grid, values=vals,
                       n_modes=n_modes, tail_bound=tail)


def duhamel_residual(field: SpaceTimeField, kernel: KernelTrace,
                     eta: DriveSignal) -> float:
    """max_t |int_0^t u(x,s) ds - (K(x,.) * eta)(t)| on the shared time grid.

    Left side by cumulative trapezoid of the field row at kernel.x; right side
    by exact product integration of the two piecewise-linear interpolants.
    """
    if field.method != "spectral":
        raise IncompatibleGrids("field must come from the spectral solver")
    if field.t_grid.size != kernel.t_grid.size or \
            not np.allclose(field.t_grid, kernel.t_grid, rtol=0, atol=1e-12):
        raise IncompatibleGrids("field and kernel time grids differ")
    ix = np.flatnonzero(np.abs(field.x_grid - kernel.x) < 1e-12)
    if ix.size == 0:
        raise IncompatibleGrids("kernel.x is not a field grid point")
    u = field.values[ix[0]]
    t = field.t_grid
    dt = np.diff(t)
    lhs = np.concatenate([[0.0], np.cumsum(0.5 * dt * (u[1:] + u[:-1]))])

    # cell j of row i pairs K on [t_j, t_{j+1}] with eta at t_i - t_j and
    # t_i - t_{j+1}; E[i-1, j] = eta(t_i - t_j), row i >= 1 uses cells j < i
    K = kernel.values
    E = eta(t[1:, None] - t[None, :])
    a = dt / 6.0 * (2.0 * K[:-1] + K[1:])
    b = dt / 6.0 * (K[:-1] + 2.0 * K[1:])
    cells = np.tril(E[:, :-1] * a + E[:, 1:] * b)
    rhs = np.concatenate([[0.0], cells.sum(axis=1)])
    return float(np.abs(lhs - rhs).max())


def duhamel_identity(es: EigenSystem, alpha: float, eta: DriveSignal, x: float,
                     n_modes: int):
    """duhamel_residual of n_modes modes at x on eta's time grid, and the scale
    it is judged against: max_t |int_0^t u(x, s) ds| by left-point sums."""
    field = solve_spectral(es, alpha, eta, np.array([x]), eta.t_grid, n_modes)
    kernel = kernel_K(es, alpha, x, eta.t_grid, n_modes)
    scale = float(np.abs(np.cumsum(field.values[0]) * eta.t_grid[1]).max())
    return duhamel_residual(field, kernel, eta), scale


def cross_validation_gap(sp: SpaceTimeField, fd: SpaceTimeField, alpha: float):
    """(max |sp - fd| / max |fd|, budget) for spectral and L1-FD fields on fd's
    nodes; the budget is sp's tail bound over max |fd| plus twice the L1
    scheme's error order (T/nt)^(2 - alpha) + (1/nx)^2."""
    nx, nt = fd.resolution
    scale = max(np.abs(fd.values).max(), 1e-300)
    budget = (sp.tail_bound / scale
              + 2.0 * ((fd.t_grid[-1] / nt) ** (2 - alpha) + (1.0 / nx) ** 2))
    return float(np.abs(sp.values - fd.values).max() / scale), float(budget)


def _l1_fd_system(q: PotentialSpec, robin: RobinPair, alpha: float,
                  eta: DriveSignal, nx: int, nt: int):
    """The fixed parts of solve_l1_fd's scheme: the x and t nodes, the history
    coefficients c_j = b_j - b_{j+1}, the LU factor of the implicit step
    matrix and the Robin drive term 2 eta(t_m) / dx of every step."""
    if min(nx, nt) < MIN_FD_NODES:
        raise DomainError(f"nx and nt must be at least {MIN_FD_NODES}")
    T = eta.T
    tau = T / nt
    t_nodes = np.linspace(0.0, T, nt + 1)
    x_nodes = np.linspace(0.0, 1.0, nx + 1)
    dx = 1.0 / nx
    qv = q(x_nodes)
    b = l1_weights(alpha, tau, nt).weights
    c_hist = b[:-1] - b[1:]  # c_hist[j] = b_j - b_{j+1} > 0

    # tridiagonal (b0 I - A): A u = u_xx + q u with ghost-node Robin rows;
    # the matrix is the same at every step, so it is factored once
    sub = np.full(nx, -1.0 / dx ** 2)
    sup = np.full(nx, -1.0 / dx ** 2)
    diag = b[0] + 2.0 / dx ** 2 - qv
    sup[0] = -2.0 / dx ** 2
    diag[0] = b[0] + 2.0 * (1.0 + dx * robin.h) / dx ** 2 - qv[0]
    sub[nx - 1] = -2.0 / dx ** 2
    diag[nx] = b[0] + 2.0 * (1.0 + dx * robin.H) / dx ** 2 - qv[nx]
    from scipy.linalg.lapack import dgttrf  # the oracle alone loads scipy
    *lu, info = dgttrf(sub, diag, sup)
    if info != 0:
        raise LinearSolveFailure(f"singular implicit step matrix (dgttrf info {info})")
    return x_nodes, t_nodes, c_hist, lu, 2.0 * eta(t_nodes) / dx


def solve_l1_fd(q: PotentialSpec, robin: RobinPair, alpha: float,
                eta: DriveSignal, nx: int, nt: int) -> SpaceTimeField:
    """Implicit L1/Caputo finite-difference solution on an (nx+1) x (nt+1) grid.

    Second-order central differences in space with Robin conditions through
    ghost nodes (u'(0) = h u(0), u'(1) = eta - H u(1)); at alpha = 1 the
    scheme reduces to backward Euler.

    Step m solves (b_0 I - A) u^m = sum_{k<m} c_{m-k-1} u^k + drive.  The
    history sum runs in blocks of B ~ sqrt(nt) steps: at the start of block
    [m0, m1) one matrix product gives every step of the block its terms from
    the steps before m0 (far field), and each step adds only its terms from
    the steps m0..m-1 of its own block (near field).  Only the order of
    summation differs from a per-step sum over all earlier steps.
    """
    from scipy.linalg.lapack import dgttrs

    x_nodes, t_nodes, c_hist, lu, drive = _l1_fd_system(q, robin, alpha, eta, nx, nt)
    U = np.zeros((nt + 1, nx + 1))
    B = int(np.ceil(np.sqrt(nt)))
    # inf/nan past an overflow are left to the per-block guard, which names
    # the first non-finite step
    with np.errstate(over="ignore", invalid="ignore"):
        for m0 in range(1, nt + 1, B):
            m1 = min(m0 + B, nt + 1)
            # far[i] = sum_{k=1}^{m0-1} c_hist[m0 + i - k - 1] u^k (u^0 = 0);
            # the reversed Toeplitz view is copied so the product is one GEMM
            slab = sliding_window_view(c_hist, m0 - 1)[:m1 - m0, ::-1]
            far = np.ascontiguousarray(slab) @ U[1:m0]
            for m in range(m0, m1):
                rhs = far[m - m0]
                if m > m0:
                    rhs += U[m0:m].T @ c_hist[m - m0 - 1::-1]
                rhs[nx] += drive[m]
                U[m], info = dgttrs(*lu, rhs)
                if info != 0:  # pragma: no cover
                    raise LinearSolveFailure(f"dgttrs info {info} at step {m}")
            bad = ~np.isfinite(U[m0:m1]).all(axis=1)
            if bad.any():
                raise LinearSolveFailure(f"non-finite state at step {m0 + bad.argmax()}")
    return SpaceTimeField(x_grid=x_nodes, t_grid=t_nodes, values=U.T.copy(),
                          method="l1fd", resolution=(nx, nt))
