import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from fracspec import sl_core
from fracspec.errors import (
    DomainError,
    FracspecError,
    InsufficientModes,
    NonFiniteBlowup,
    ResidualTooLarge,
)
from fracspec.inverse import random_head
from fracspec.sl_core import (
    PotentialSpec,
    RobinPair,
    _ShootingProblem,
    _cell_factors,
    _check_finite,
    _propagate,
    char_delta,
    eigen_system,
    eval_modes_at,
    neumann_reference_error,
    split_spectra,
    verify_asymptotics,
)
from fracspec.uniqueness import CountedSet
from fracspec.weyl_toolkit import wronskian_U

# frozen oracle: lowest root of s*tan(s) = 1 (q=0, h=0, H=1), lam = s^2,
# computed by high-precision bisection on the closed-form characteristic
LAM0_H1 = 0.7401738843949670422

Q0 = PotentialSpec.constant(0.0, 512)
QM1 = PotentialSpec.constant(-1.0, 512)
FREE = RobinPair(0.0, 0.0)


def cos2_well(depth, grid_size):
    return PotentialSpec.from_callable(
        lambda x: -depth * np.cos(2 * np.pi * (x - 0.5)) ** 2, grid_size)


def count_calls(monkeypatch, name):
    """Record the batch size of every _ShootingProblem.<name> call."""
    sizes = []
    original = getattr(_ShootingProblem, name)

    def counted(self, lams, *args):
        sizes.append(np.size(lams))
        return original(self, lams, *args)
    monkeypatch.setattr(_ShootingProblem, name, counted)
    return sizes


def corrected_gram(es):
    """Orthonormality Gram matrix by endpoint-corrected trapezoid."""
    h = 1.0 / es.grid_size
    e, de = es.efuncs, es.defuncs
    f = e[:, None, :] * e[None, :, :]
    fp = de[:, None, :] * e[None, :, :] + e[:, None, :] * de[None, :, :]
    t = h * (f.sum(-1) - 0.5 * (f[..., 0] + f[..., -1]))
    return t - (h * h / 12.0) * (fp[..., -1] - fp[..., 0])


def sequential_march(q_samples, v0, d0, lams, x=1.0):
    """Oracle for _propagate: one transfer-matrix step per cell, in order.

    Returns the node trace (values, derivatives), shape (n_lam, n_cells + 1).
    """
    lams = np.atleast_1d(np.asarray(lams))
    if not np.iscomplexobj(lams):
        lams = lams.astype(float)
    N = q_samples.size - 1
    h = 1.0 / N
    n_full = min(int(np.floor(x * N + 1e-12)), N)
    part = x - n_full * h
    n_cells = n_full + (part > 1e-14)
    lo, hi = q_samples[:n_cells], q_samples[1:n_cells + 1]
    qmid = 0.5 * (lo + hi)
    slope = (hi - lo) / h
    width = np.full(n_cells, h)
    if part > 1e-14:
        qmid[-1] = lo[-1] + slope[-1] * part / 2.0
        width[-1] = part
    t00, t01, t10, t11 = _cell_factors(qmid, slope, width, lams)
    vals = np.empty((lams.size, n_cells + 1), dtype=t00.dtype)
    ders = np.empty_like(vals)
    vals[:, 0], ders[:, 0] = v0, d0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_cells):
            v, d = vals[:, i], ders[:, i]
            vals[:, i + 1] = t00[:, i] * v + t01[:, i] * d
            ders[:, i + 1] = t10[:, i] * v + t11[:, i] * d
    return vals, ders


def left_trace(q, h, lam):
    """Traced left solution phi(.; lambda): phi(0) = 1, phi'(0) = h."""
    vals, ders = _propagate(q.samples, 1.0, h, [lam], keep_trace=True)
    return vals[0], ders[0]


def right_trace(q, H, lam):
    """Traced right solution psi(.; lambda): psi(1) = 1, psi'(1) = -H, by
    reflecting x -> 1 - x onto a left march."""
    vals, ders = _propagate(q.samples[::-1].copy(), 1.0, H, [lam], keep_trace=True)
    return vals[0, ::-1], -ders[0, ::-1]


class TestIVP:
    """The traced march against closed-form solutions on q's grid nodes."""

    X = Q0.x_grid

    def test_left_cosine(self):
        vals, ders = left_trace(Q0, 0.0, np.pi ** 2)
        assert np.max(np.abs(vals - np.cos(np.pi * self.X))) < 1e-11
        assert np.max(np.abs(ders + np.pi * np.sin(np.pi * self.X))) < 1e-10
        assert abs(vals[-1] + 1.0) < 1e-11

    def test_left_linear(self):
        vals, _ = left_trace(Q0, 1.0, 0.0)
        assert np.max(np.abs(vals - (1.0 + self.X))) < 1e-13

    def test_left_cosh(self):
        vals, _ = left_trace(QM1, 0.0, 0.0)
        assert abs(vals[-1] - 1.5430806348152437) < 1e-9
        assert np.max(np.abs(vals - np.cosh(self.X))) < 1e-9

    def test_left_initial_conditions(self):
        vals, ders = left_trace(QM1, 0.7, 3.3)
        assert vals[0] == 1.0 and ders[0] == 0.7

    def test_right_cosine(self):
        vals, _ = right_trace(Q0, 0.0, np.pi ** 2)
        assert np.max(np.abs(vals + np.cos(np.pi * self.X))) < 1e-11

    def test_right_constant(self):
        vals, _ = right_trace(Q0, 0.0, 0.0)
        assert np.max(np.abs(vals - 1.0)) == 0.0

    def test_right_linear(self):
        vals, ders = right_trace(Q0, 2.0, 0.0)
        assert np.max(np.abs(vals - (1.0 + 2.0 * (1.0 - self.X)))) < 1e-13
        assert abs(vals[0] - 3.0) < 1e-13
        assert vals[-1] == 1.0 and ders[-1] == -2.0

    def test_complex_lambda(self):
        lam = 4.0 + 3.0j
        vals, _ = left_trace(Q0, 0.0, lam)
        assert np.max(np.abs(vals - np.cos(np.sqrt(lam) * self.X))) < 1e-11

    def test_blowup_guard(self):
        with pytest.raises(NonFiniteBlowup):
            left_trace(Q0, 0.0, -4.0e6)

    def test_grid_size_validation(self):
        with pytest.raises(DomainError):
            char_delta(Q0, FREE, 1.0, grid_size=8)


def march_potential(grid_size):
    return cos2_well(3.0, grid_size).samples - 2.0 * np.linspace(0.0, 1.0, grid_size + 1)


class TestBlockedMarch:
    """_propagate against the sequential per-cell march it replaces."""

    @pytest.mark.parametrize("grid_size", [16, 512, 2048, 2560])
    @pytest.mark.parametrize("x", [0.0, 1e-5, 0.37, 0.4, 1.0])
    def test_matches_sequential_march(self, grid_size, x):
        qs = march_potential(grid_size)
        for lams in ([-200.0, 3.0, 250.0], [2.0 + 5.0j, 40.0j], [3.0]):
            ref_v, ref_d = sequential_march(qs, 1.0, 0.7, lams, x=x)
            scale = np.maximum(np.abs(ref_v).max(axis=1), np.abs(ref_d).max(axis=1))
            vals, ders = _propagate(qs, 1.0, 0.7, lams, keep_trace=True, x=x)
            assert vals.shape == ref_v.shape and ders.shape == ref_d.shape
            assert np.all(np.abs(vals - ref_v).max(axis=1) <= 1e-12 * scale)
            assert np.all(np.abs(ders - ref_d).max(axis=1) <= 1e-12 * scale)
            v, d = _propagate(qs, 1.0, 0.7, lams, x=x)
            assert np.all(np.abs(v - ref_v[:, -1]) <= 1e-12 * scale)
            assert np.all(np.abs(d - ref_d[:, -1]) <= 1e-12 * scale)

    def test_dirichlet_start(self):
        qs = march_potential(512)
        lams = np.linspace(-50.0, 4e4, 65)
        ref_v, ref_d = sequential_march(qs, 0.0, 1.0, lams)
        scale = np.abs(ref_d).max(axis=1)
        vals, ders = _propagate(qs, 0.0, 1.0, lams, keep_trace=True)
        assert np.all(np.abs(vals - ref_v).max(axis=1) <= 1e-12 * scale)
        assert np.all(np.abs(ders - ref_d).max(axis=1) <= 1e-12 * scale)

    @pytest.mark.parametrize("lam", [7.3, 400.0 + 100.0j, -50.0, 120.0j])
    def test_wronskian_matches_sequential_march(self, lam):
        # criterion 9's pair; U cancels two products, so the error is judged
        # against the larger of them
        d, grid = 0.4, 2560
        q1 = PotentialSpec.from_callable(
            lambda x: -0.8 * max(0.0, 1 - x / d) ** 2, grid)
        q2 = PotentialSpec.from_callable(
            lambda x: -0.3 * max(0.0, 1 - (x / d) ** 2) if x <= d else 0.0, grid)
        for x in (0.4, 0.73, 1.0):
            v1, d1 = sequential_march(q1.samples, 1.0, 0.2, [lam], x=x)
            v2, d2 = sequential_march(q2.samples, 1.0, 0.9, [lam], x=x)
            p, r = v1[0, -1] * d2[0, -1], v2[0, -1] * d1[0, -1]
            u = wronskian_U(q1, q2, 0.2, 0.9, lam, x)
            assert abs(u - (p - r)) <= 1e-12 * max(abs(p), abs(r))

    @pytest.mark.parametrize("lam", [-3.0e5, -3.2e5, -3.3e5, -3.6e5])
    def test_overflow_guard_trips_as_sequential_march(self, lam):
        # on q = 0 the guard sits near lambda = -570^2: phi'(1) ~ e^rho rho / 2
        vals, ders = sequential_march(Q0.samples, 1.0, 0.0, [lam])
        trips = not (np.all(np.isfinite(vals)) and np.all(np.isfinite(ders))
                     and max(np.abs(vals).max(), np.abs(ders).max()) <= 1e250)
        assert trips == (lam < -3.25e5)
        for call in (lambda: left_trace(Q0, 0.0, lam),
                     lambda: char_delta(Q0, FREE, lam)):
            if trips:
                with pytest.raises(NonFiniteBlowup):
                    call()
            else:
                call()

    def test_one_sign_factors_match_masked_path(self):
        # oscillatory cells (mu^2 < 0) plus zero-width ones (mu^2 = 0) take
        # the unmasked path; one positive mu^2 sends the batch down the masked
        # one, which must give the same bits cell by cell
        qs = march_potential(512)
        qmid = np.concatenate([0.5 * (qs[:-1] + qs[1:]), np.zeros(17)])
        slope = np.concatenate([np.diff(qs) * 512, np.zeros(17)])
        width = np.concatenate([np.full(512, 1.0 / 512), np.zeros(17)])
        lams = np.linspace(10.0, 4e4, 65)
        one_sign = _cell_factors(qmid, slope, width, lams)
        mixed = _cell_factors(qmid, slope, width, np.append(lams, -1e3))
        for f, g in zip(one_sign, mixed):
            assert np.array_equal(f, g[:-1])
        assert all(np.all(f[:, -17:] == e) for f, e in zip(one_sign, (1, 0, 0, 1)))


def unwrapped_angle_excess(problem, lams):
    """Oracle for _ShootingProblem.angle_excess: the unwrapped Pruefer angle.

    Unwraps arctan2(omega v, d) over the whole node trace and returns the end
    angle minus the first right-condition angle, with Delta.
    """
    lams, inverse = np.unique(np.asarray(lams, dtype=float), return_inverse=True)
    vals, ders = sl_core._propagate(problem.q, problem.v0, problem.d0, lams,
                                    keep_trace=True)
    omega = np.sqrt(np.maximum(lams + problem.q_mean, 1.0))
    theta = np.unwrap(np.arctan2(omega[:, None] * vals, ders), axis=1)
    target = np.arctan2(omega * problem.cd, -problem.cv)
    target = np.where(target <= 1e-12, target + np.pi, target)
    delta = -(problem.cd * ders[:, -1] + problem.cv * vals[:, -1])
    return (theta[:, -1] - target)[inverse], delta[inverse]


def windings(problem, lams, g0):
    """Integer winding of G_0 at lams: the nearest integer to
    (G_0 + target - end angle) / pi, the end angle taken in [0, pi)."""
    lams = np.asarray(lams, dtype=float)
    v, d = _propagate(problem.q, problem.v0, problem.d0, lams)
    omega = np.sqrt(np.maximum(lams + problem.q_mean, 1.0))
    target = np.arctan2(omega * problem.cd, -problem.cv)
    target = np.where(target <= 1e-12, target + np.pi, target)
    phi = np.arctan2(omega * v, d) % np.pi
    return np.rint((g0 + target - phi) / np.pi).astype(int)


class TestAngleExcess:
    """angle_excess (zeros counted by sign changes) against the unwrapped angle."""

    @pytest.mark.parametrize("grid_size", [16, 512, 2048])
    @pytest.mark.parametrize("well", [0.0, 3.0])
    @pytest.mark.parametrize("start", ["neumann", "dirichlet"])
    def test_matches_unwrapped_angle(self, grid_size, well, start):
        q = cos2_well(well, grid_size).samples
        # Neumann start with a Robin right end; Dirichlet start with a
        # Dirichlet right end, whose eigenfunctions vanish at x = 1
        problem = (_ShootingProblem(q, 1.0, 0.0, 0.8, 1.0) if start == "neumann"
                   else _ShootingProblem(q, 0.0, 1.0, 1.0, 0.0))
        n_max = min(40, grid_size - 3)
        lam_lo, lam_hi = sl_core.winding_bracket(q, n_max)
        eigen, _ = problem.solve(n_max)
        # for q = 0 the Dirichlet modes (k pi)^2 vanish at the nodes j/k
        exact = (np.arange(1, n_max + 1) * np.pi) ** 2 if well == 0.0 else []
        lams = np.concatenate([np.linspace(lam_lo, lam_hi, 200), eigen, exact])
        g, delta = problem.angle_excess(lams)
        g_ref, delta_ref = unwrapped_angle_excess(problem, lams)
        assert np.array_equal(delta, delta_ref)
        assert np.abs(g - g_ref).max() <= 1e-12
        assert np.array_equal(windings(problem, lams, g), windings(problem, lams, g_ref))

    def test_exact_zeros_at_nodes(self, monkeypatch):
        # a trace whose angle lands on k pi at interior nodes and at x = 1,
        # with v = +0.0 and -0.0 there, after a Dirichlet start v(0) = 0
        lams = np.array([50.0, 400.0])
        omega = np.sqrt(lams)
        theta = np.array([[0.0, 1.0, np.pi, 4.0, 5.5, 2 * np.pi, 7.0, 3 * np.pi],
                          [0.0, 0.5, np.pi, 3.5, 2 * np.pi, 8.0, 3 * np.pi, 9.5]])
        vals = np.sin(theta) / omega[:, None]
        ders = np.cos(theta)
        on_zero = np.isclose(theta / np.pi, np.rint(theta / np.pi), rtol=0.0, atol=1e-12)
        vals[on_zero] = np.where(np.arange(theta.size).reshape(theta.shape) % 2, 0.0, -0.0)[on_zero]
        monkeypatch.setattr(sl_core, "_propagate",
                            lambda *args, **kwargs: (vals, ders))
        problem = _ShootingProblem(np.zeros(8), 0.0, 1.0, 1.0, 0.0)
        g, _ = problem.angle_excess(lams)
        g_ref, _ = unwrapped_angle_excess(problem, lams)
        # G_0 = theta(1) - pi for the Dirichlet right end
        assert np.abs(g - (theta[:, -1] - np.pi)).max() <= 1e-14
        assert np.abs(g - g_ref).max() <= 1e-14


class TestOverflowGuard:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.0000001e250,
                                     -1.0000001e250])
    def test_trips(self, bad):
        for arr in (np.array([0.0, 1.0, bad]), np.array([1.0, bad + 0.0j]),
                    np.array([1.0j, 1.0j * bad])):
            with pytest.raises(NonFiniteBlowup):
                _check_finite(np.ones(3), arr)

    def test_passes_at_the_guard(self):
        _check_finite(np.array([1e250, -1e250, 0.0]),
                      np.array([1e250 + 0.0j, -1e250j, 0.0j]))


class TestGuardedMarch:
    """Every caller of the march inherits its overflow guard."""

    @pytest.mark.parametrize("lam", [-3.6e5, -1e6])
    def test_shooting_callers_trip(self, lam):
        # on q = 0 the march stays finite at -3.6e5 (~1e260) but passes the
        # guard, which sits near -3.25e5
        problem = _ShootingProblem(Q0.samples, 1.0, 0.0, 0.0, 1.0)
        for call in (lambda: problem.angle_excess([lam]),
                     lambda: problem.phase(np.array([lam]), np.array([0]))):
            with pytest.raises(NonFiniteBlowup, match="too far below the spectrum"):
                call()

    def test_point_rule_never_marches(self, monkeypatch):
        # eval_modes_at steps from the trace eigen_system built and guarded
        es = eigen_system(Q0, FREE, 4)

        def no_march(*args, **kwargs):
            raise AssertionError("eval_modes_at marched")

        monkeypatch.setattr(sl_core, "_propagate", no_march)
        v, dv = eval_modes_at(es, np.array([0.0, 0.37, 1.0]))
        assert np.all(np.isfinite(v)) and np.all(np.isfinite(dv))


def cosine_well(amp):
    return PotentialSpec.from_callable(lambda x: amp * np.cos(np.pi * x), 1024)


class TestDeepWells:
    """q = A cos(pi x): a depth either solves with finite output or raises an
    error naming its cause; the suite turns any RuntimeWarning into a failure."""

    @pytest.mark.parametrize("amp", [1e3, 1e5])
    def test_eigen_system_solves(self, amp):
        es = eigen_system(cosine_well(amp), RobinPair(0.5, 1.0), 10,
                          allow_inadmissible=True)
        for arr in (es.lambdas, es.beta, es.efuncs, es.defuncs, es.k):
            assert np.all(np.isfinite(arr))

    @pytest.mark.parametrize("amp,cause", [
        (3e5, "mode 0: its squared norm leaves the double range"),
        (5e5, "shooting solution passed 1e\\+250"),
        (1e6, "shooting solution passed 1e\\+250"),
    ])
    def test_eigen_system_blows_up(self, amp, cause):
        with pytest.raises(NonFiniteBlowup, match=cause):
            eigen_system(cosine_well(amp), RobinPair(0.5, 1.0), 10,
                         allow_inadmissible=True)

    def test_unconverged_polish_names_its_mode(self):
        # at 1e4 the polish stops modes 7 and 9 short of the width test;
        # the error names the worse one, its residual and its bracket
        with pytest.raises(ResidualTooLarge,
                           match=r"mode 7: characteristic residual \S+ with its "
                                 r"bracket still \S+ wide after refinement"):
            eigen_system(cosine_well(1e4), RobinPair(0.5, 1.0), 10,
                         allow_inadmissible=True)

    @pytest.mark.parametrize("amp", [1e3, 1e5, 3e5, 5e5, 1e6])
    def test_split_spectra(self, amp):
        try:
            spectra = split_spectra(cosine_well(amp), 0.37, RobinPair(0.5, 1.0),
                                    10, allow_inadmissible=True)
        except FracspecError:
            return
        assert all(np.all(np.isfinite(mu)) for mu in spectra)


class TestCharDelta:
    def test_zero_at_eigenvalues(self):
        for n in (1, 2, 5):
            assert abs(char_delta(Q0, FREE, (n * np.pi) ** 2)) < 1e-10

    def test_closed_form_robin(self):
        # sqrt(lam) sin(sqrt lam) - cos(sqrt lam) at sqrt(lam) = pi/2
        val = char_delta(Q0, RobinPair(0.0, 1.0), np.pi ** 2 / 4.0)
        assert abs(val - np.pi / 2.0) < 1e-10

    def test_root_matches_bisection_oracle(self):
        f = lambda lam: char_delta(Q0, RobinPair(0.0, 1.0), lam)
        lo, hi = 0.5, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        assert abs(0.5 * (lo + hi) - LAM0_H1) < 1e-9


class TestEigenSystem:
    def test_reference_spectrum(self):
        es = eigen_system(Q0, FREE, 12)
        assert neumann_reference_error(es.lambdas) < 1e-10
        x = es.x_grid
        assert np.max(np.abs(es.efuncs[0] - 1.0)) < 1e-12
        for m in (1, 5, 12):
            assert np.max(np.abs(es.efuncs[m] - np.sqrt(2) * np.cos(m * np.pi * x))) < 1e-8

    def test_single_robin_mode(self):
        es = eigen_system(Q0, RobinPair(0.0, 1.0), 0)
        assert abs(es.lambdas[0] - LAM0_H1) < 1e-10

    def test_degenerate_zero_mode(self):
        es = eigen_system(Q0, FREE, 0)
        assert abs(es.lambdas[0]) < 1e-10
        assert abs(es.beta[0] - 1.0) < 1e-12
        assert abs(es.k[0] - 1.0) < 1e-12
        assert np.max(np.abs(es.efuncs[0] - 1.0)) < 1e-12

    def test_orthonormality(self):
        q = PotentialSpec.from_callable(lambda x: -0.7 - 0.3 * np.cos(2 * np.pi * x), 1024)
        es = eigen_system(q, RobinPair(1.0, 1.0), 10, grid_size=1024)
        gram = corrected_gram(es)
        assert np.max(np.abs(gram - np.eye(11))) < 1e-8

    def test_oscillation_indexing(self):
        q = PotentialSpec.from_callable(lambda x: -1.5 + 0.5 * np.cos(3 * x), 512)
        es = eigen_system(q, RobinPair(0.5, 2.0), 8)
        for n in range(9):
            e = es.efuncs[n][1:-1]
            sig = e[np.abs(e) > 1e-6 * np.abs(e).max()]
            changes = int(np.sum(np.sign(sig[1:]) != np.sign(sig[:-1])))
            assert changes == n

    def test_wronskian_degeneracy(self):
        q = PotentialSpec.from_callable(lambda x: -0.4 - 0.4 * x, 512)
        rb = RobinPair(0.8, 1.3)
        es = eigen_system(q, rb, 5)
        for n in (0, 2, 5):
            lam = es.lambdas[n]
            phi, dphi = left_trace(q, rb.h, lam)
            psi, dpsi = right_trace(q, rb.H, lam)
            W = phi * dpsi - dphi * psi
            scale = max(np.abs(phi).max() * np.abs(dpsi).max(), 1.0)
            assert np.abs(W).max() < 1e-8 * scale
            assert np.std(W) < 1e-9 * scale

    def test_derivative_identity(self):
        # centered differences (Richardson pair) estimate of dDelta/dlambda;
        # for Delta = -phi'(1) - H phi(1) the identity reads Delta_dot = +k*beta
        # (equivalently Delta_dot = -k*beta for the opposite-sign Wronskian
        # convention of the characteristic function)
        q = PotentialSpec.from_callable(lambda x: -0.7 - 0.3 * np.cos(2 * np.pi * x), 1024)
        rb = RobinPair(1.0, 0.5)
        es = eigen_system(q, rb, 10, grid_size=1024)
        for n in range(11):
            lam = es.lambdas[n]
            step = max(1e-4 * lam, 1e-4)
            d1 = (char_delta(q, rb, lam + step) - char_delta(q, rb, lam - step)) / (2 * step)
            d2 = (char_delta(q, rb, lam + step / 2) - char_delta(q, rb, lam - step / 2)) / step
            ddelta = (4.0 * d2 - d1) / 3.0
            target = es.k[n] * es.beta[n]
            assert abs(ddelta - target) < 1e-6 * abs(target)

    def test_spectral_shift(self):
        q = PotentialSpec.from_callable(lambda x: -0.3 - 0.2 * np.sin(np.pi * x), 512)
        rb = RobinPair(0.7, 0.2)
        es1 = eigen_system(q, rb, 8)
        c = 0.9
        q_shift = PotentialSpec(q.samples - c, q.grid_size)
        es2 = eigen_system(q_shift, rb, 8)
        assert np.max(np.abs(es2.lambdas - (es1.lambdas + c))) < 1e-9 * (1 + np.abs(es1.lambdas).max())

    def test_e_at_one_nonzero(self):
        q = PotentialSpec.from_callable(lambda x: -2.0 * x * (1 - x), 512)
        es = eigen_system(q, RobinPair(0.0, 3.0), 12)
        assert np.all(np.abs(es.efuncs[:, -1]) > 1e-6)

    def test_inadmissible_rejected(self):
        q_pos = PotentialSpec.constant(0.5, 512)
        with pytest.raises(DomainError):
            eigen_system(q_pos, FREE, 2)
        es = eigen_system(q_pos, FREE, 2, allow_inadmissible=True)
        assert es.lambdas[0] < 0  # shifted down by the positive potential
        with pytest.raises(DomainError):
            split_spectra(q_pos, 0.5, FREE, 2)
        mu_minus, mu_plus = split_spectra(q_pos, 0.5, FREE, 2, allow_inadmissible=True)
        # Neumann-Dirichlet on (0, 1/2) and its mirror, shifted down by q = 1/2
        assert mu_minus[0] == pytest.approx(np.pi ** 2 - 0.5, rel=1e-8)
        assert mu_plus[0] == pytest.approx(np.pi ** 2 - 0.5, rel=1e-8)

    def test_positive_constant_spectrum(self):
        # for q = 5 the mode-2 bracket collapses onto the root with the winding
        # and Delta at rounding level on both ends; the bisection must hand it
        # to the polish instead of failing to isolate it
        for value in (3.0, 5.0, 7.0, 11.0):
            for grid in (256, 512, 1024):
                q = PotentialSpec.constant(value, grid)
                for n_max in (6, 12, 20):
                    es = eigen_system(q, FREE, n_max, grid_size=grid,
                                      allow_inadmissible=True)
                    exact = (np.arange(n_max + 1) * np.pi) ** 2 - value
                    rel = np.abs(es.lambdas - exact) / np.abs(exact)
                    assert rel.max() <= 1e-13

    def test_eval_modes_at_off_grid(self):
        es = eigen_system(Q0, FREE, 6)
        x0 = 1.0 / np.sqrt(2.0)
        v, dv = eval_modes_at(es, x0)
        for n in range(1, 7):
            assert abs(v[n] - np.sqrt(2) * np.cos(n * np.pi * x0)) < 1e-9
            assert abs(dv[n] + np.sqrt(2) * n * np.pi * np.sin(n * np.pi * x0)) < 1e-7

    # first cell, mid-cell, on a node, right end: the part-cell carries the slope
    @pytest.mark.parametrize("x", [0.4 / 512, 0.37, 0.5, 1.0])
    def test_eval_modes_at_sloped_potential(self, x, linear_left_solution):
        kappa, h = 8.0, 0.5
        q = PotentialSpec.from_callable(lambda s: -kappa * s, 512)
        es = eigen_system(q, RobinPair(h, 1.0), 8)
        v, dv = eval_modes_at(es, x)
        phi, dphi = linear_left_solution(kappa, h, es.lambdas, x)
        root_beta = np.sqrt(es.beta)
        assert np.max(np.abs(v - phi / root_beta)) < 1e-9 * np.max(np.abs(v))
        assert np.max(np.abs(dv - dphi / root_beta)) < 1e-9 * np.max(np.abs(dv))

    def test_eval_modes_at_nodes_return_the_trace(self):
        q = PotentialSpec.from_callable(lambda s: -3.0 * s * (1.0 - s) - 1.0, 64)
        es = eigen_system(q, RobinPair(0.5, 1.0), 12)
        for i in range(65):
            v, dv = eval_modes_at(es, i / 64)
            assert np.array_equal(v, es.efuncs[:, i])
            assert np.array_equal(dv, es.defuncs[:, i])

    @pytest.mark.parametrize("x", [0.3 / 512, 100.5 / 512, 511.6 / 512, 0.37,
                                   1.0 / np.sqrt(2.0)])
    def test_eval_modes_at_matches_the_march(self, x):
        q = PotentialSpec.from_callable(lambda s: -20.0 * np.sin(3.0 * s) ** 2, 512)
        es = eigen_system(q, RobinPair(0.5, 1.0), 24)
        v, dv = eval_modes_at(es, x)
        mv, md = _propagate(es.q.samples, 1.0, es.robin.h, es.lambdas, x=x)
        root_beta = np.sqrt(es.beta)
        assert np.max(np.abs(v - mv / root_beta)) <= 1e-13 * np.abs(es.efuncs).max()
        assert np.max(np.abs(dv - md / root_beta)) <= 1e-13 * np.abs(es.defuncs).max()

    def test_eval_modes_at_array_x(self):
        es = eigen_system(QM1, RobinPair(0.2, 0.7), 9)
        xs = np.array([0.0, 0.1, 0.37, 0.5, 1.0 / np.sqrt(2.0), 1.0])
        v, dv = eval_modes_at(es, xs)
        assert v.shape == dv.shape == (10, xs.size)
        for i, x in enumerate(xs):
            vi, dvi = eval_modes_at(es, x)
            assert np.array_equal(v[:, i], vi) and np.array_equal(dv[:, i], dvi)
        with pytest.raises(DomainError, match="x must lie in"):
            eval_modes_at(es, np.array([0.5, 1.5]))

    def test_too_many_modes_for_grid(self):
        for n_max, grid in ((150, 128), (500, 256)):
            q = PotentialSpec.constant(0.0, grid)
            with pytest.raises(DomainError, match=f"grid_size >= {n_max + 3}"):
                eigen_system(q, FREE, n_max)
            with pytest.raises(DomainError, match="grid_size"):
                split_spectra(q, 0.4, FREE, n_max)
        es = eigen_system(PotentialSpec.constant(0.0, 128), FREE, 124)
        assert neumann_reference_error(es.lambdas) < 1e-12

    def test_grid_limit_is_exact(self):
        # 128 free cells (q.size - 1 of them) hold modes 0..125 but not 126
        q = PotentialSpec.constant(0.0, 128)
        assert neumann_reference_error(eigen_system(q, FREE, 125).lambdas) < 1e-12
        with pytest.raises(DomainError, match=r"127 modes need grid_size >= 129 \(got 128\)"):
            eigen_system(q, FREE, 126)

    def test_solves_on_the_fewest_cells(self):
        q = PotentialSpec.constant(0.0, 32)
        es = eigen_system(q, FREE, 13, grid_size=sl_core.MIN_GRID)
        assert es.grid_size == 16 and neumann_reference_error(es.lambdas) < 1e-12
        with pytest.raises(DomainError, match="at least 16"):
            eigen_system(q, FREE, 13, grid_size=sl_core.MIN_GRID - 1)

    def test_polish_stops_on_its_residual_test(self, monkeypatch):
        # every mode leaves the batch on its own stopping test after a few
        # secant passes, far below the 40-pass cap
        sizes = count_calls(monkeypatch, "phase")
        es = eigen_system(cos2_well(2.0, 2048), RobinPair(1.0, 1.0), 64,
                          grid_size=2048)
        assert len(sizes) <= 8
        assert sizes[0] == 65 and sizes[-1] < 65
        assert np.all(np.diff(es.lambdas) > 0)

    def test_cold_isolation_takes_one_separator_pass(self, monkeypatch):
        # the global ends, the separator points, then at most one bisection
        sizes = count_calls(monkeypatch, "angle_excess")
        es = eigen_system(cos2_well(2.0, 2048), RobinPair(1.0, 1.0), 64,
                          grid_size=2048)
        assert sizes[:2] == [2, 64]
        assert len(sizes) <= 3
        assert np.all(np.diff(es.lambdas) > 0)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(depth=st.floats(0.5, 6.0), h=st.floats(0.0, 3.0),
           H=st.floats(0.0, 3.0), n_max=st.integers(0, 20))
    def test_eigenvalues_match_brentq_on_char_delta(self, depth, h, H, n_max):
        q, robin = cos2_well(depth, 256), RobinPair(h, H)
        lams = eigen_system(q, robin, n_max + 1).lambdas
        # roots 0..n_max of Delta, each alone between the midpoints of its
        # neighbours; lambda_0 > -max q = 0 and no root lies below it
        ends = np.concatenate([[-1.0], 0.5 * (lams[1:] + lams[:-1])])
        for n, lam in enumerate(lams[:-1]):
            ref = brentq(lambda s: char_delta(q, robin, s), ends[n], ends[n + 1],
                         xtol=1e-300, rtol=8.9e-16, maxiter=200)
            assert abs(lam - ref) <= 1e-14 * abs(ref)

    def test_free_neumann_ground_state_is_not_negative(self):
        # q = 0, h = H = 0: lambda_0 = 0 exactly, and CountedSet takes only
        # nonnegative values
        for grid, n_max in ((512, 12), (128, 124), (2048, 64)):
            es = eigen_system(PotentialSpec.constant(0.0, grid), FREE, n_max)
            assert es.lambdas[0] >= 0.0 and not np.signbit(es.lambdas[0])
            assert es.lambdas[0] < 1e-12
            CountedSet(es.lambdas)

    def test_warm_start_matches_cold(self, monkeypatch):
        q, robin = cos2_well(2.0, 512), RobinPair(1.0, 1.0)
        cold = eigen_system(q, robin, 24)
        shift = np.where(np.arange(25) % 2 == 0, 0.3, -0.3)
        sizes = count_calls(monkeypatch, "angle_excess")
        warm = eigen_system(q, robin, 24, lambda_guess=cold.lambdas + shift)
        assert sizes == [52]  # one winding pass: the global ends and both separators per guess
        rel = np.abs(warm.lambdas - cold.lambdas) / np.abs(cold.lambdas)
        assert rel.max() <= 1e-13

    def test_lam_lo_splits_a_warm_bracket_holding_a_neighbour(self, monkeypatch):
        # lambda_0 = 0 and lambda_1 = pi^2: a guess of 3 for mode 0 puts both
        # of its separators between the two roots, and the global end lam_lo
        # below them gives mode 0 its own bracket in the same march
        exact = (np.arange(13) * np.pi) ** 2
        guess = exact.copy()
        guess[0] = 3.0
        sizes = count_calls(monkeypatch, "angle_excess")
        es = eigen_system(Q0, FREE, 12, lambda_guess=guess)
        assert sizes == [28]  # the two ends and 26 separators, no second try
        assert neumann_reference_error(es.lambdas) < 1e-10
        assert np.max(np.abs(es.efuncs[0] - 1.0)) < 1e-12

    @pytest.mark.parametrize("case", ["below_rayleigh_bound", "reversed", "zeros"])
    def test_adversarial_guesses_give_the_cold_eigenvalues(self, case):
        # the separators are clipped into the Rayleigh bracket and sorted, so a
        # guess far below lambda_0 is never marched, and guesses in the wrong
        # order or all at one point only leave more brackets to bisect
        exact = (np.arange(13) * np.pi) ** 2
        guess = {"below_rayleigh_bound": np.r_[-1e6, exact[1:]],
                 "reversed": exact[::-1].copy(), "zeros": np.zeros(13)}[case]
        cold = eigen_system(Q0, FREE, 12).lambdas
        warm = eigen_system(Q0, FREE, 12, lambda_guess=guess).lambdas
        assert np.max(np.abs(warm - cold) / np.maximum(cold, 1.0)) <= 1e-14
        assert neumann_reference_error(warm) <= 1e-14


class TestSplitSpectra:
    def test_x0_strictly_inside(self):
        for x0 in (0.0, 1.0):
            with pytest.raises(DomainError, match="strictly inside"):
                split_spectra(Q0, x0, FREE, 4)

    def test_reference_left(self):
        mm, _ = split_spectra(Q0, 0.5, FREE, 4)
        exact = ((2 * np.arange(5) + 1) ** 2) * np.pi ** 2
        assert np.max(np.abs(mm - exact) / exact) < 1e-10

    def test_reference_right(self):
        _, mp_ = split_spectra(Q0, 0.5, FREE, 4)
        exact = ((2 * np.arange(5) + 1) ** 2) * np.pi ** 2
        assert np.max(np.abs(mp_ - exact) / exact) < 1e-10

    def test_asymptotic_slope(self):
        x0 = 0.37
        q = PotentialSpec.from_callable(lambda x: -1.0 - 0.5 * np.cos(2 * x), 1024)
        mm, mp_ = split_spectra(q, x0, RobinPair(1.0, 0.5), 25, grid_size=1024)
        n = np.arange(26)
        res_m = (np.sqrt(mm) - (n + 0.5) * np.pi / x0) * np.maximum(n, 1)
        res_p = (np.sqrt(mp_) - (n + 0.5) * np.pi / (1 - x0)) * np.maximum(n, 1)
        assert np.abs(res_m[10:]).max() < 2.0
        assert np.abs(res_p[10:]).max() < 2.0

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.floats(0.1, 1.0), h=st.floats(0.0, 3.0),
           H=st.floats(0.0, 3.0), x0=st.floats(0.05, 0.95))
    def test_merged_split_spectra_interlace_the_full_spectrum(self, seed, d, h, H, x0):
        # Dirichlet at x0 is one constraint on the form, so the k-th smallest
        # of both sides' eigenvalues lies in [lambda_k, lambda_{k+1}]
        q, robin = random_head(np.random.default_rng(seed), d, 512), RobinPair(h, H)
        lam = eigen_system(q, robin, 20).lambdas
        mu = np.sort(np.concatenate(split_spectra(q, x0, robin, 20)))[:21]
        assert np.all(lam <= mu) and np.all(mu[:-1] <= lam[1:])


class TestVerifyAsymptotics:
    def test_reference_exact(self):
        es = eigen_system(Q0, FREE, 25)
        rep = verify_asymptotics(es)
        assert rep.passed
        assert rep.max_upper_half < 1e-8

    def test_constant_potential_bounded(self):
        es = eigen_system(QM1, FREE, 30)
        rep = verify_asymptotics(es)
        assert rep.passed
        assert rep.max_upper_half < 5.0

    def test_robin_bounded(self):
        es = eigen_system(Q0, RobinPair(1.0, 1.0), 30)
        rep = verify_asymptotics(es)
        assert rep.passed

    def test_insufficient_modes(self):
        es = eigen_system(Q0, FREE, 5)
        with pytest.raises(InsufficientModes):
            verify_asymptotics(es)

    def test_twenty_modes_suffice(self):
        assert verify_asymptotics(eigen_system(Q0, FREE, 19)).passed
        with pytest.raises(InsufficientModes, match="at least 20 modes"):
            verify_asymptotics(eigen_system(Q0, FREE, 18))

    @pytest.mark.parametrize("c", [0.02, 0.05, 0.5])
    def test_linear_growth_fails(self, c):
        # r_n = c n grows without bound; kills the projected-growth mutant
        # slope * (nn[-1] - nn[0]) -> slope / (...), which passes all three
        es = eigen_system(Q0, FREE, 25)
        n = np.arange(es.n_max + 1)
        rep = verify_asymptotics(dataclasses.replace(es, lambdas=(n * np.pi + c) ** 2))
        assert np.allclose(rep.r_values, c * rep.n_values, rtol=1e-12)
        assert not rep.passed

    @pytest.mark.parametrize("creeps", [False, True])
    def test_projected_growth_verdict_is_a_plain_bool(self, creeps):
        # the slope clause fails on both and the projected growth decides:
        # r_n = 0.05 n grows, r_n = 1 - 1/n creeps to its limit.  The report
        # must serialise, so passed is a bool, not numpy's
        es = eigen_system(Q0, FREE, 25)
        n = np.arange(1, es.n_max + 1)
        r = 1.0 - 1.0 / n if creeps else 0.05 * n
        rep = verify_asymptotics(dataclasses.replace(
            es, lambdas=np.r_[0.0, (n * np.pi + r / n) ** 2]))
        assert rep.slope > 2.0 * rep.slope_stderr
        assert type(rep.passed) is bool and rep.passed is creeps
        assert json.dumps(rep.passed) == json.dumps(creeps)


class TestPotentialSpec:
    def test_admissibility(self):
        assert PotentialSpec.constant(-1.0, 64).admissible
        assert PotentialSpec.constant(0.0, 64).admissible
        assert not PotentialSpec.constant(0.1, 64).admissible

    def test_sample_count_checked(self):
        with pytest.raises(DomainError):
            PotentialSpec(np.zeros(10), 64)

    def test_robin_sign_checked(self):
        with pytest.raises(DomainError):
            RobinPair(-0.1, 0.0)

    @given(st.floats(min_value=0.0, max_value=3.0),
           st.floats(min_value=0.0, max_value=3.0),
           st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=10, deadline=None)
    def test_admissible_spectrum_nonnegative_and_increasing(self, h, H, depth):
        q = PotentialSpec.constant(-depth, 64)
        es = eigen_system(q, RobinPair(h, H), 3, grid_size=64)
        assert es.lambdas[0] >= -1e-9
        assert np.all(np.diff(es.lambdas) > 0)
