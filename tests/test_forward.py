import mpmath
import numpy as np
import pytest
from scipy.linalg.lapack import dgttrs
from scipy.special import gamma, polygamma

from fracspec import forward
from fracspec.cli import ExperimentConfig, run
from fracspec.errors import (
    DomainError,
    IncompatibleGrids,
    LinearSolveFailure,
    TruncationTooCoarse,
)
from fracspec.forward import (
    DriveSignal,
    SpaceTimeField,
    _exact_convolutions,
    cross_validation_gap,
    duhamel_identity,
    duhamel_residual,
    kernel_K,
    solve_l1_fd,
    solve_spectral,
)
from fracspec.mittleff import l1_weights, relax_antiderivative
from fracspec.sl_core import PotentialSpec, RobinPair, eigen_system

Q0 = PotentialSpec.constant(0.0, 1024)
FREE = RobinPair(0.0, 0.0)


@pytest.fixture(scope="module")
def es_free():
    return eigen_system(Q0, FREE, 48, grid_size=1024)


@pytest.fixture(scope="module")
def ramp():
    return DriveSignal.from_callable(lambda t: t, 1.0, 256)


def sequential_l1_fd(q, robin, alpha, eta, nx, nt):
    """Oracle for solve_l1_fd: each step sums its history over all earlier
    steps in one matrix-vector product and checks its own state.

    Returns the field values, shape (nx + 1, nt + 1).
    """
    _, _, c_hist, lu, drive = forward._l1_fd_system(q, robin, alpha, eta, nx, nt)
    U = np.zeros((nt + 1, nx + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, nt + 1):
            rhs = np.zeros(nx + 1)
            if m > 1:
                # history sum_{k=1}^{m-1} (b_{m-k-1} - b_{m-k}) u^k
                rhs += U[1:m].T @ c_hist[m - 2::-1]
            rhs[nx] += drive[m]
            U[m], info = dgttrs(*lu, rhs)
            assert info == 0
            if not np.all(np.isfinite(U[m])):
                raise LinearSolveFailure(f"non-finite state at step {m}")
    return U.T


class TestDriveSignal:
    def test_zero_start_enforced(self):
        with pytest.raises(DomainError):
            DriveSignal(np.array([0.0, 0.5, 1.0]), np.array([0.1, 0.2, 0.3]))

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            DriveSignal(np.array([0.0, 0.5, 0.4]), np.zeros(3))
        with pytest.raises(DomainError):
            DriveSignal(np.array([0.1, 0.5]), np.zeros(2))

    def test_repeated_time_rejected(self):
        # t_grid must increase strictly: a repeated node is no step at all
        with pytest.raises(DomainError, match="t_grid must increase from 0"):
            DriveSignal(np.array([0.0, 0.5, 0.5, 1.0]), np.zeros(4))

    def test_non_finite_values_rejected(self):
        with pytest.raises(DomainError, match="drive values must be finite"):
            DriveSignal(np.array([0.0, 0.5, 1.0]), np.array([0.0, np.nan, 1.0]))
        with pytest.raises(DomainError, match="drive values must be finite"):
            DriveSignal(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, np.inf]))

    def test_non_finite_times_rejected(self):
        for t in ([0.0, np.inf], [0.0, 1.0, np.inf], [0.0, np.nan, 1.0]):
            with pytest.raises(DomainError, match="t_grid must be finite"):
                DriveSignal(np.array(t), np.zeros(len(t)))

    def test_from_callable_keeps_the_start_value(self):
        # a drive that does not start at zero is refused, not zeroed
        with pytest.raises(DomainError, match="start at zero"):
            DriveSignal.from_callable(lambda t: 1.0 + t, 1.0, 8)


class TestSolveSpectral:
    def test_zero_drive(self, es_free, ramp):
        eta0 = DriveSignal(ramp.t_grid, np.zeros_like(ramp.values))
        f = solve_spectral(es_free, 0.5, eta0, np.linspace(0, 1, 5), ramp.t_grid)
        assert np.abs(f.values).max() == 0.0

    def test_linearity(self, es_free, ramp):
        eta2 = DriveSignal(ramp.t_grid, 2.0 * ramp.values)
        x = np.array([0.25, 0.7])
        f1 = solve_spectral(es_free, 0.5, ramp, x, ramp.t_grid)
        f2 = solve_spectral(es_free, 0.5, eta2, x, ramp.t_grid)
        assert np.max(np.abs(f2.values - 2.0 * f1.values)) < 1e-12 * np.abs(f2.values).max()

    def test_zero_initial_condition(self, es_free, ramp):
        f = solve_spectral(es_free, 0.7, ramp, np.array([0.5]), ramp.t_grid)
        assert np.abs(f.values[:, 0]).max() == 0.0

    def test_causality(self, es_free, ramp):
        t = ramp.t_grid
        eta_cut = DriveSignal(t, np.where(t <= 0.5, ramp.values, 0.5 + 10.0 * (t - 0.5)))
        x = np.array([0.4])
        f_full = solve_spectral(es_free, 0.5, ramp, x, t)
        f_cut = solve_spectral(es_free, 0.5, eta_cut, x, t)
        early = t <= 0.5 + 1e-12
        assert np.max(np.abs(f_full.values[:, early] - f_cut.values[:, early])) < 1e-14
        assert np.max(np.abs(f_full.values[:, ~early] - f_cut.values[:, ~early])) > 1e-4

    def test_alpha_one_matches_fd(self, es_free, ramp):
        fd = solve_l1_fd(Q0, FREE, 1.0, ramp, 128, 256)
        sp = solve_spectral(es_free, 1.0, ramp, fd.x_grid, fd.t_grid)
        diff, budget = cross_validation_gap(sp, fd, 1.0)
        assert diff <= 1e-3 + budget

    def test_truncation_error_raised(self, ramp):
        es_small = eigen_system(Q0, FREE, 6, grid_size=256)
        with pytest.raises(TruncationTooCoarse):
            solve_spectral(es_small, 0.5, ramp, np.array([0.5]), ramp.t_grid)

    def test_scalar_x_is_one_point(self, es_free, ramp):
        t = ramp.t_grid[::32]
        one = solve_spectral(es_free, 0.5, ramp, 0.5, t)
        assert one.values.shape == (1, t.size)
        assert np.array_equal(one.values, solve_spectral(es_free, 0.5, ramp, [0.5], t).values)
        with pytest.raises(DomainError, match=r"shape \(1, 2\)"):
            solve_spectral(es_free, 0.5, ramp, np.array([[0.2, 0.4]]), t)

    def test_drive_support_checked(self, es_free, ramp):
        with pytest.raises(IncompatibleGrids):
            solve_spectral(es_free, 0.5, ramp, np.array([0.5]), np.array([0.0, 1.5]))
        # every time is checked, not only the ends; NaN lies nowhere in [0, T]
        for t in ([0.0, np.nan, 1.0], [0.0, 1.5, 1.0], [0.0, -0.5, 1.0]):
            with pytest.raises(IncompatibleGrids, match="inside the drive support"):
                solve_spectral(es_free, 0.5, ramp, 0.5, np.array(t), trunc_tol=np.inf)

    def test_nan_alpha_named_before_the_tail_bound(self, ramp):
        # six modes fail the default tail bound, which must not speak first
        es_small = eigen_system(Q0, FREE, 6, grid_size=256)
        with pytest.raises(DomainError, match=r"alpha must lie in \(0, 1\]"):
            solve_spectral(es_small, np.nan, ramp, np.array([0.5]), ramp.t_grid)

    def test_mode_truncation_convergence(self, es_free, ramp):
        x = np.array([0.3, 1.0])
        f1 = solve_spectral(es_free, 0.5, ramp, x, ramp.t_grid, n_modes=24, trunc_tol=1.0)
        f2 = solve_spectral(es_free, 0.5, ramp, x, ramp.t_grid, n_modes=48, trunc_tol=1.0)
        assert np.abs(f1.values - f2.values).max() <= f1.tail_bound

    def test_default_sums_every_computed_mode(self, es_free, ramp):
        # n_modes=None takes all n_max + 1 = 49 modes, not two fewer
        x = np.array([0.3, 1.0])
        f = solve_spectral(es_free, 0.5, ramp, x, ramp.t_grid)
        f49 = solve_spectral(es_free, 0.5, ramp, x, ramp.t_grid, n_modes=49)
        assert f.n_modes_used == 49
        assert np.array_equal(f.values, f49.values)

    def test_nonuniform_time_grid_path(self, es_free, ramp):
        # non-Toeplitz path must agree with the uniform fast path
        t_sub = ramp.t_grid[[0, 3, 17, 50, 128, 256]]
        x = np.array([0.6])
        f_fast = solve_spectral(es_free, 0.5, ramp, x, ramp.t_grid)
        t_odd = np.concatenate([t_sub, [0.777]])  # forces pairwise evaluation
        f_gen = solve_spectral(es_free, 0.5, ramp, x, np.sort(t_odd))
        for tv, uv in zip(np.sort(t_odd), f_gen.values[0]):
            if tv in ramp.t_grid:
                j = np.searchsorted(ramp.t_grid, tv)
                assert abs(uv - f_fast.values[0, j]) < 1e-12


class TestBatchedConvolutions:
    def test_uniform_drive_takes_the_toeplitz_path(self, es_free, ramp, monkeypatch):
        # times on multiples of a uniform drive's step need S only on the step
        # grid k dt, k = 0 .. t_max / dt, in one call for these 49 modes
        seen = []

        def recorded(alpha, lam, t):
            seen.append(np.array(t))
            return relax_antiderivative(alpha, lam, t)
        monkeypatch.setattr(forward, "relax_antiderivative", recorded)
        solve_spectral(es_free, 0.5, ramp, [0.3], ramp.t_grid[:129])
        assert len(seen) == 1
        assert np.array_equal(seen[0], np.arange(129) * ramp.t_grid[1])

    @pytest.mark.parametrize("n_knots", [5, 240])
    def test_general_drive_matches_per_mode_loop(self, es_free, n_knots):
        rng = np.random.default_rng(n_knots)
        tau = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, n_knots - 2)]))
        eta = DriveSignal(tau, np.sin(3.0 * tau) ** 2 + tau)
        t = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 41)]))
        n_used = es_free.n_max + 1
        if n_knots > 5:  # enough points per mode to split the mode axis
            assert n_used * t.size * n_knots > forward._BLOCK_POINTS
        conv = _exact_convolutions(es_free, 0.7, eta, t, n_used)
        slopes = np.diff(eta.values) / np.diff(tau)
        offs_lo = np.maximum(t[:, None] - tau[None, 1:], 0.0)
        offs_hi = np.maximum(t[:, None] - tau[None, :-1], 0.0)
        ref = np.empty_like(conv)
        for n in range(n_used):
            lam = max(float(es_free.lambdas[n]), 0.0)
            S_hi = relax_antiderivative(0.7, lam, offs_hi)
            S_lo = relax_antiderivative(0.7, lam, offs_lo)
            ref[n] = ((S_hi - S_lo) * slopes[None, :]).sum(axis=1)
        assert np.abs(conv - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_negative_eigenvalue_rejected(self, ramp):
        q = PotentialSpec.constant(2.0, 256)
        es = eigen_system(q, FREE, 6, grid_size=256, allow_inadmissible=True)
        assert es.lambdas[0] < -1.0
        with pytest.raises(DomainError, match="negative eigenvalue .*relaxation undefined"):
            solve_spectral(es, 0.5, ramp, np.array([0.5]), ramp.t_grid, trunc_tol=1.0)
        with pytest.raises(DomainError, match="negative eigenvalue .*relaxation undefined"):
            kernel_K(es, 0.5, 0.5, ramp.t_grid, 7)


class TestTrigamma:
    N = np.arange(1, 5001)

    def test_matches_polygamma(self):
        ours = np.array([forward._trigamma(int(n)) for n in self.N])
        ref = polygamma(1, self.N)
        assert (np.abs(ours - ref) / ref).max() <= 1e-14

    def test_rounded_up(self):
        # the tail bound needs psi'(n) from above
        with mpmath.workdps(30):
            assert all(mpmath.mpf(forward._trigamma(int(n))) >= mpmath.psi(1, int(n))
                       for n in self.N)

    def test_mode_tail_bound_holds_for_free_modes(self, es_free):
        # q = 0 with Neumann ends: lam_n = n^2 pi^2, so the tail is exactly
        # 2 ||eta|| psi'(n) / pi^2 and the bound has no slack beyond rounding
        with mpmath.workdps(30):
            for n in (1, 2, 15, 16, 17, 48, 49, 5000):
                exact = 2 * mpmath.psi(1, n) / mpmath.pi ** 2
                assert mpmath.mpf(forward._mode_tail_bound(es_free, n, 1.0)) >= exact

    @pytest.mark.parametrize("shift", [3.0, 50.0])
    def test_mode_tail_bound_margin_for_positive_q(self, shift):
        # q = shift > 0, reached only through allow_inadmissible: the bound
        # takes lam_n >= n^2 pi^2 - shift, and its margin
        # 1/(1 - shift/(n^2 pi^2)) puts it between the exact tail
        # sum_{k >= n} 2/(k^2 pi^2 - shift) = (psi(n + a) - psi(n - a))/(a pi^2),
        # a = sqrt(shift)/pi, and that tail times the margin
        es = eigen_system(PotentialSpec.constant(shift, 256), FREE, 8,
                          allow_inadmissible=True)
        with mpmath.workdps(30):
            a = mpmath.sqrt(shift) / mpmath.pi
            for n in (1, 2, 3, 16, 17, 48):
                bound = forward._mode_tail_bound(es, n, 1.0)
                if n * n * np.pi ** 2 <= shift:
                    assert bound == np.inf
                    continue
                exact = (mpmath.digamma(n + a) - mpmath.digamma(n - a)) / (a * mpmath.pi ** 2)
                margin = 1 / (1 - shift / (n ** 2 * mpmath.pi ** 2))
                assert exact <= mpmath.mpf(bound) <= exact * margin * (1 + mpmath.mpf(1e-14))


class TestKernel:
    def test_zero_at_origin(self, es_free):
        ker = kernel_K(es_free, 0.5, 0.4, np.linspace(0, 1, 33), 40)
        assert ker.values[0] == 0.0

    def test_mode_zero_power_law(self, es_free):
        t = np.linspace(0.0, 2.0, 9)
        ker = kernel_K(es_free, 0.6, 0.3, t, 1)
        ref = t ** 0.6 / gamma(1.6)
        assert np.max(np.abs(ker.values - ref)) < 1e-10

    def test_boundedness_long_window(self):
        q = PotentialSpec.constant(-0.5, 512)
        es = eigen_system(q, RobinPair(0.0, 1.0), 40, grid_size=512)
        t = np.geomspace(1e-3, 1e3, 60)
        t = np.concatenate([[0.0], t])
        k1 = kernel_K(es, 0.5, 0.35, t, 20)
        k2 = kernel_K(es, 0.5, 0.35, t, 40)
        assert np.all(np.isfinite(k1.values))
        sup1, sup2 = np.abs(k1.values).max(), np.abs(k2.values).max()
        assert abs(sup1 - sup2) <= k1.tail_bound


class TestDuhamel:
    def test_zero_drive(self, es_free, ramp):
        eta0 = DriveSignal(ramp.t_grid, np.zeros_like(ramp.values))
        assert duhamel_identity(es_free, 0.5, eta0, 0.3, 49) == (0.0, 0.0)

    def test_quadratic_drive_residual(self, es_free):
        eta = DriveSignal.from_callable(lambda t: t * t, 1.0, 512)
        res, lhs_scale = duhamel_identity(es_free, 0.5, eta, 0.3, 49)
        assert res <= 1e-4 * lhs_scale

    def test_residual_refines_first_order(self, es_free):
        res = {nt: duhamel_identity(es_free, 0.5, DriveSignal.from_callable(
            lambda t: t * t, 1.0, nt), 0.3, 49)[0] for nt in (128, 256)}
        assert res[256] <= 0.55 * res[128]

    def test_matches_product_integration_loop(self, es_free):
        eta = DriveSignal(np.linspace(0.0, 1.0, 33), np.linspace(0.0, 1.0, 33) ** 1.5)
        t = np.sort(np.concatenate([[0.0, 1.0], np.random.default_rng(5).uniform(0, 1, 60)]))
        f = solve_spectral(es_free, 0.5, eta, np.array([0.3]), t)
        ker = kernel_K(es_free, 0.5, 0.3, t, 49)
        u, K, dt = f.values[0], ker.values, np.diff(t)
        lhs = np.concatenate([[0.0], np.cumsum(0.5 * dt * (u[1:] + u[:-1]))])
        ref = 0.0
        for i in range(1, t.size):
            ea, eb = eta(t[i] - t[:i]), eta(t[i] - t[1:i + 1])
            ka, kb = K[:i], K[1:i + 1]
            rhs = (dt[:i] / 6.0 * (2 * ka * ea + ka * eb + kb * ea + 2 * kb * eb)).sum()
            ref = max(ref, abs(lhs[i] - rhs))
        assert abs(duhamel_residual(f, ker, eta) - ref) <= 1e-14 * np.abs(lhs).max()

    def test_scale_is_the_left_point_sum(self, es_free):
        # max_t |int_0^t u(0.3, s) ds| by the running sum of u(t_j) dt
        eta = DriveSignal.from_callable(lambda t: t * t, 1.0, 128)
        _, scale = duhamel_identity(es_free, 0.5, eta, 0.3, 49)
        u = solve_spectral(es_free, 0.5, eta, np.array([0.3]), eta.t_grid, 49).values[0]
        running, ref = 0.0, 0.0
        for u_j in u:
            running += u_j / 128.0  # the drive's uniform step
            ref = max(ref, abs(running))
        assert abs(scale - ref) <= 1e-12 * ref

    def test_grid_mismatch_rejected(self, es_free, ramp):
        f = solve_spectral(es_free, 0.5, ramp, np.array([0.3]), ramp.t_grid)
        ker = kernel_K(es_free, 0.5, 0.3, ramp.t_grid[:-1], 49)
        with pytest.raises(IncompatibleGrids):
            duhamel_residual(f, ker, ramp)
        ker2 = kernel_K(es_free, 0.5, 0.77, ramp.t_grid, 49)
        with pytest.raises(IncompatibleGrids):
            duhamel_residual(f, ker2, ramp)
        fd = solve_l1_fd(Q0, FREE, 0.5, ramp, 32, 32)
        with pytest.raises(IncompatibleGrids):
            duhamel_residual(fd, ker, ramp)


class TestCrossValidationGap:
    def test_gap_and_budget_on_hand_built_fields(self):
        # the budget is the spectral tail bound over max |fd| plus twice the
        # L1 error order (T/nt)^(2 - alpha) + (1/nx)^2
        x, t = np.linspace(0.0, 1.0, 3), np.linspace(0.0, 2.0, 5)
        fd_vals = np.arange(15.0).reshape(3, 5) - 7.0
        bump = np.zeros((3, 5))
        bump[1, 2] = 0.35
        fd = SpaceTimeField(x, t, fd_vals, "l1fd", resolution=(32, 64))
        sp = SpaceTimeField(x, t, fd_vals + bump, "spectral", tail_bound=0.2)
        diff, budget = cross_validation_gap(sp, fd, 0.5)
        assert diff == pytest.approx(0.05, rel=1e-15)
        assert budget == pytest.approx(0.2 / 7.0 + 2.0 * ((2.0 / 64) ** 1.5 + (1.0 / 32) ** 2),
                                       rel=1e-15)


class TestL1FD:
    Q_COS = PotentialSpec.from_callable(lambda x: -0.6 - 0.4 * np.cos(np.pi * x), 1024)
    ROBIN = RobinPair(0.5, 1.0)
    HELD = DriveSignal(np.array([0.0, 0.3, 1.0]), np.array([0.0, 0.3, 0.3]))

    @pytest.mark.parametrize("alpha", [0.3, 0.97])
    @pytest.mark.parametrize("nt", [32, 33, 100, 1000])
    def test_blocked_history_matches_sequential(self, nt, alpha):
        # B = ceil(sqrt(nt)) is 6, 6, 10 and 32: nt = 100 fills its blocks
        # exactly, the other three end in a partial block
        args = (self.Q_COS, self.ROBIN, alpha, self.HELD, 48, nt)
        ref = sequential_l1_fd(*args)
        f = solve_l1_fd(*args)
        assert np.abs(f.values - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("nt", [32, 33, 100])
    def test_backward_euler_bit_identical(self, nt):
        # at alpha = 1 only c_hist[0] = 1/tau is non-zero, so the far-field
        # product adds exact zeros to the one backward-Euler term
        assert np.count_nonzero(l1_weights(1.0, 1.0 / nt, nt).weights[1:]) == 0
        args = (self.Q_COS, self.ROBIN, 1.0, self.HELD, 48, nt)
        assert np.array_equal(solve_l1_fd(*args).values, sequential_l1_fd(*args))

    @pytest.mark.parametrize("alpha, step", [(1.0, 155), (0.5, 175)])
    def test_non_finite_guard_names_first_step(self, ramp, alpha, step):
        # q just below b_0: each implicit step amplifies the state about
        # 1 / (1 - q / b_0) = 100 times, so it overflows mid-block (B = 16)
        nt = 256
        q = PotentialSpec.constant(0.99 * l1_weights(alpha, 1.0 / nt, 1).weights[0], 64)
        args = (q, FREE, alpha, ramp, 32, nt)
        message = f"non-finite state at step {step}$"
        with pytest.raises(LinearSolveFailure, match=message):
            sequential_l1_fd(*args)
        with pytest.raises(LinearSolveFailure, match=message):
            solve_l1_fd(*args)
        assert (step - 1) % 16 != 0

    def test_zero_drive_exact(self, ramp):
        eta0 = DriveSignal(ramp.t_grid, np.zeros_like(ramp.values))
        f = solve_l1_fd(Q0, FREE, 0.5, eta0, 32, 32)
        assert np.abs(f.values).max() == 0.0

    def test_zero_initial_condition(self, ramp):
        f = solve_l1_fd(Q0, FREE, 0.5, ramp, 32, 32)
        assert np.abs(f.values[:, 0]).max() == 0.0

    def test_grid_convergence(self):
        eta = DriveSignal.from_callable(lambda t: t, 1.0, 512)
        sols = {}
        for nx, nt in ((32, 32), (64, 64), (128, 128), (256, 256)):
            sols[nx] = solve_l1_fd(Q0, FREE, 0.5, eta, nx, nt)
        diffs = []
        for nx in (32, 64, 128):
            coarse, fine = sols[nx], sols[2 * nx]
            diffs.append(np.abs(coarse.values - fine.values[::2, ::2]).max())
        assert diffs[0] > diffs[1] > diffs[2]

    def test_resolution_validated(self, ramp):
        with pytest.raises(DomainError):
            solve_l1_fd(Q0, FREE, 0.5, ramp, 16, 128)
        with pytest.raises(DomainError):
            solve_l1_fd(Q0, FREE, 1.5, ramp, 64, 64)

    def test_robin_drive_agreement_fractional(self):
        # one nontrivial (q, h, H, alpha) triple against the spectral route
        q, rb = self.Q_COS, self.ROBIN
        eta = DriveSignal.from_callable(lambda t: t * np.exp(-t), 1.0, 256)
        es = eigen_system(q, rb, 48, grid_size=1024)
        fd = solve_l1_fd(q, rb, 0.5, eta, 128, 256)
        sp = solve_spectral(es, 0.5, eta, fd.x_grid, fd.t_grid)
        diff, budget = cross_validation_gap(sp, fd, 0.5)
        assert diff <= 1e-3 + budget


class TestSpaceTimeField:
    def test_csv_format(self, tmp_path):
        # the CLI writes the field as one x,t,u,method row per (x, t) node
        params = {"q": {"type": "constant", "value": 0.0}, "h": 0.0, "H": 0.0,
                  "alpha": 0.5, "eta": {"type": "ramp"}, "T": 1.0, "nt": 32,
                  "nx": 32, "method": "spectral", "n_max": 48}
        assert run(ExperimentConfig("forward", params, tmp_path)).all_passed
        lines = (tmp_path / "field_spectral.csv").read_text().splitlines()
        assert lines[0] == "x,t,u,method"
        assert len(lines) == 1 + 33 * 33
        assert all(line.endswith(",spectral") for line in lines[1:])

    def test_at_x_interpolates(self, es_free, ramp):
        f = solve_spectral(es_free, 0.5, ramp, np.array([0.2, 0.4]), ramp.t_grid)
        mid = f.at_x(0.3)
        assert np.allclose(mid, 0.5 * (f.values[0] + f.values[1]))

    def test_at_x_matches_columnwise_interp(self, ramp):
        fd = solve_l1_fd(Q0, FREE, 0.5, ramp, 64, 64)
        scale = np.abs(fd.values).max()
        for x in (-0.2, 0.0, 0.123, 0.5, 1.0 - 1e-9, 1.0, 1.5):
            ref = np.array([np.interp(x, fd.x_grid, col) for col in fd.values.T])
            assert np.abs(fd.at_x(x) - ref).max() <= 1e-15 * scale
        one = SpaceTimeField(np.array([0.4]), fd.t_grid, fd.values[:1], "l1fd")
        assert np.array_equal(one.at_x(0.9), fd.values[0])
