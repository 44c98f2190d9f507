import json
from dataclasses import replace

import numpy as np
import pytest

from fracspec import forward, inverse
from fracspec.cli import ExperimentConfig, run
from fracspec.errors import DomainError, ResidualTooLarge
from fracspec.forward import DriveSignal
from fracspec.inverse import (
    CandidateParam,
    InverseProblemSpec,
    ObservationSeries,
    _jacobian,
    _observation,
    _residual_vector,
    candidate_potential,
    distinguishability_scan,
    estimate_solver_floor,
    misfit,
    reconstruct,
    reconstruct_morozov,
    spectral_match_audit,
    synthesize_data,
)
from fracspec.sl_core import PotentialSpec, RobinPair, eigen_system

D, X0, ALPHA, HBIG, H_TRUE = 0.5, 0.6, 0.5, 1.0, 0.5


def truth_potential(grid=512):
    return PotentialSpec.from_callable(
        lambda x: -0.8 * (1 - x / D) ** 2 if x <= D else 0.0, grid)


def projected_truth(q_true):
    """Least-squares coefficients of q_true in candidate_potential's 8 head modes."""
    x = np.linspace(0, 1, 257)
    head = x <= D
    basis = np.stack([np.cos((m + 0.5) * np.pi * x[head] / D) for m in range(8)])
    return np.linalg.lstsq(basis.T, q_true(x[head]), rcond=None)[0]


@pytest.fixture(scope="module")
def ramp_hold():
    return DriveSignal(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 1.0]))


@pytest.fixture(scope="module")
def twin(ramp_hold):
    """Small noiseless twin setup shared across tests."""
    t_samples = np.linspace(0.0, 2.0, 33)[1:]
    q_true = truth_potential()
    data = synthesize_data(q_true, H_TRUE, HBIG, ALPHA, ramp_hold, X0,
                           t_samples, 0.0, 11, nx=128, nt=256)
    spec = InverseProblemSpec(alpha=ALPHA, x0=X0, d=D,
                              q_tail=PotentialSpec.constant(0.0, 256),
                              H=HBIG, eta=ramp_hold, data=data,
                              n_max=20, grid_size=256)
    return q_true, spec


@pytest.fixture(scope="module")
def noisy_twin(twin, ramp_hold):
    """The twin's spec with 1% noise on its data, and the noise norm^2."""
    q_true, spec = twin
    noisy = synthesize_data(q_true, H_TRUE, HBIG, ALPHA, ramp_hold, X0,
                            spec.data.t, 0.01, 11, nx=128, nt=256)
    return (replace(spec, data=noisy, noise_level=0.01),
            float(np.sum((noisy.u - spec.data.u) ** 2)))


def _no_solve(*args, **kwargs):
    raise AssertionError("a forward solve ran before the settings were checked")


def twin_recon_task0():
    """The spec of the benchmark's twin-recon task 0 at seed 0: a random
    three-mode head, FD data on 256 x 512 steps, 25 modes on 512 cells."""
    d, x0, alpha, H, T = 0.5, 0.6, 0.5, 1.0, 4.0
    rng = np.random.default_rng([0, 0])
    amps = rng.uniform(-0.6, 0.0, size=3)
    h_true = float(rng.uniform(0.1, 1.0))
    x = np.linspace(0.0, 1.0, 513)
    head = sum(a * np.cos((m + 0.5) * np.pi * x / d) for m, a in enumerate(amps))
    q_true = PotentialSpec(np.minimum(np.where(x <= d, head, 0.0), 0.0), 512)
    eta = DriveSignal(np.array([0.0, 1.0, T]), np.array([0.0, 1.0, 1.0]))
    t = np.linspace(0.0, T, 65)[1:]
    data = synthesize_data(q_true, h_true, H, alpha, eta, x0, t, 0.0, 0, nx=256, nt=512)
    tail = PotentialSpec(np.where(x >= d, q_true.samples, q_true(d)), 512)
    return InverseProblemSpec(alpha=alpha, x0=x0, d=d, q_tail=tail, H=H, eta=eta,
                              data=data, n_max=24, grid_size=512)


def fd_jacobian(theta, spec, gamma, rel_step):
    """Oracle: central differences of _residual_vector, step rel_step times
    max(|theta_i|, 0.1) in each parameter."""
    cols = []
    for i, e in enumerate(np.eye(theta.size)):
        step = rel_step * max(abs(theta[i]), 0.1)
        cols.append((_residual_vector(theta + step * e, spec, gamma)
                     - _residual_vector(theta - step * e, spec, gamma)) / (2.0 * step))
    return np.array(cols).T


def lstsq_step(J, r, gamma, mu):
    """Reference step: the augmented least-squares solve
    [J; sqrt(g + mu |J|_2^2) I] delta ~ [-r; 0], g = gamma raised to
    max(10 gamma, 1e-8) when cond(J) > 1e12."""
    n = J.shape[1]
    g = max(gamma * 10.0, 1e-8) if np.linalg.cond(J) > 1e12 else gamma
    delta, *_ = np.linalg.lstsq(
        np.vstack([J, np.sqrt(g + mu * np.linalg.norm(J, 2) ** 2) * np.eye(n)]),
        np.concatenate([-r, np.zeros(n)]), rcond=None)
    return delta


def scripted_steps(monkeypatch, spec, jacobians, r0, rejected, gamma, lm_damping):
    """Run reconstruct on scripted Jacobians: iteration k sees jacobians[k]
    and the residual accepted last; its first trial is turned down (10 times
    the residual) when rejected[k], and each accepted trial's residual is 0.9
    times the last.  _project_h returns zeros, so theta stays 0 and each
    trial point is its scaled step exactly.  Returns the result and, per
    iteration, its residual and the step of its first trial."""
    responses, residuals, r = [r0], [], r0
    for turned_down in rejected:
        residuals.append(r)
        r = 0.9 * r
        responses += [10.0 * residuals[-1], r] if turned_down else [r]
    replies, jac, points = iter(responses), iter(jacobians), []
    monkeypatch.setattr(inverse, "_residual_vector", lambda *a, **k: next(replies))
    monkeypatch.setattr(inverse, "_jacobian", lambda *a: next(jac))
    monkeypatch.setattr(inverse, "_project_h",
                        lambda v: (points.append(v), np.zeros_like(v))[1])
    n_par = jacobians[0].shape[1]
    res = reconstruct(spec, CandidateParam(np.zeros(n_par - 1), 0.0), gamma=gamma,
                      max_iter=len(jacobians), lm_damping=lm_damping)
    firsts = np.cumsum([1] + [2 if t else 1 for t in rejected[:-1]])
    return res, residuals, [points[i] for i in firsts]


def constant_loop(monkeypatch, J, r, theta):
    """Every Jacobian is J, every residual r and every projected point theta,
    so each line-search trial ties with the current misfit |r|^2."""
    monkeypatch.setattr(inverse, "_jacobian", lambda *a: J)
    monkeypatch.setattr(inverse, "_residual_vector", lambda *a, **k: r)
    monkeypatch.setattr(inverse, "_project_h", lambda v: np.array(theta, dtype=float))


class TestSynthesize:
    def test_noiseless_matches_fd(self, ramp_hold):
        from fracspec.forward import solve_l1_fd
        q = truth_potential()
        t_samples = np.linspace(0.0, 2.0, 17)[1:]
        data = synthesize_data(q, H_TRUE, HBIG, ALPHA, ramp_hold, X0,
                               t_samples, 0.0, 3, nx=64, nt=64)
        fd = solve_l1_fd(q, RobinPair(H_TRUE, HBIG), ALPHA, ramp_hold, 64, 64)
        ref = np.interp(t_samples, fd.t_grid, fd.at_x(X0))
        assert np.array_equal(data.u, ref)

    def test_seed_reproducibility(self, ramp_hold):
        q = truth_potential()
        t_samples = np.linspace(0.0, 2.0, 17)[1:]
        a = synthesize_data(q, H_TRUE, HBIG, ALPHA, ramp_hold, X0, t_samples,
                            0.02, 42, nx=64, nt=64)
        b = synthesize_data(q, H_TRUE, HBIG, ALPHA, ramp_hold, X0, t_samples,
                            0.02, 42, nx=64, nt=64)
        assert np.array_equal(a.u, b.u)
        c = synthesize_data(q, H_TRUE, HBIG, ALPHA, ramp_hold, X0, t_samples,
                            0.02, 43, nx=64, nt=64)
        assert not np.array_equal(a.u, c.u)

    def test_noise_level_monte_carlo(self, ramp_hold):
        q = truth_potential()
        t_samples = np.linspace(0.0, 2.0, 33)[1:]
        clean = synthesize_data(q, H_TRUE, HBIG, ALPHA, ramp_hold, X0,
                                t_samples, 0.0, 0, nx=64, nt=64)
        ratios = []
        for seed in range(100):
            noisy = synthesize_data(q, H_TRUE, HBIG, ALPHA, ramp_hold, X0,
                                    t_samples, 0.01, seed, nx=64, nt=64)
            ratios.append(np.linalg.norm(noisy.u - clean.u)
                          / np.linalg.norm(clean.u))
        ratios = np.asarray(ratios)
        assert np.all(ratios >= 0.005) and np.all(ratios <= 0.02)


class TestMisfit:
    def test_inverse_crime_self_consistency(self, ramp_hold):
        # data generated by the spectral solver itself (test-only mode):
        # the basis-projected truth reproduces them to the optimizer floor
        t_samples = np.linspace(0.0, 2.0, 33)[1:]
        spec0 = InverseProblemSpec(alpha=ALPHA, x0=X0, d=D,
                                   q_tail=PotentialSpec.constant(0.0, 256),
                                   H=HBIG, eta=ramp_hold,
                                   data=ObservationSeries(t_samples, np.zeros(32)),
                                   n_max=20, grid_size=256)
        cand = CandidateParam(projected_truth(truth_potential()), H_TRUE)
        q_repr = candidate_potential(spec0, cand)
        u = _observation(q_repr, RobinPair(H_TRUE, HBIG), ALPHA, ramp_hold, X0,
                         t_samples, 20, 256)
        spec = replace(spec0, data=ObservationSeries(t_samples, u))
        assert misfit(cand, spec) < 1e-20

    def test_fd_data_floor(self, twin):
        q_true, spec = twin
        value = misfit(CandidateParam(projected_truth(q_true), H_TRUE), spec)
        # (1e-3 relative)^2 budget per sample against the data norm
        budget = (2e-3 ** 2) * float(np.sum(spec.data.u ** 2))
        assert value <= budget

    def test_monotone_in_gamma(self, twin):
        _, spec = twin
        cand = CandidateParam(np.array([0.3, -0.1]), 0.2)
        m1 = misfit(cand, spec, gamma=1e-8)
        m2 = misfit(cand, spec, gamma=1e-4)
        assert m2 > m1

    def test_floor_is_the_misfit_against_fd_data_of_the_candidate(self, twin):
        # kills pred - u_fd -> + in estimate_solver_floor
        _, spec = twin
        cand = CandidateParam(np.array([-0.3, 0.1]), 0.4)
        own = synthesize_data(candidate_potential(spec, cand), cand.h, HBIG, ALPHA,
                              spec.eta, X0, spec.data.t, 0.0, 0, nx=128, nt=256)
        floor = estimate_solver_floor(spec, cand, nx=128, nt=256)
        assert floor == pytest.approx(misfit(cand, replace(spec, data=own)), rel=1e-12)

    def test_reorder_invariance(self, twin):
        _, spec = twin
        perm = np.random.default_rng(0).permutation(spec.data.t.size)
        spec_perm = InverseProblemSpec(
            alpha=spec.alpha, x0=spec.x0, d=spec.d, q_tail=spec.q_tail,
            H=spec.H, eta=spec.eta,
            data=ObservationSeries(spec.data.t[perm], spec.data.u[perm]),
            n_max=spec.n_max, grid_size=spec.grid_size)
        cand = CandidateParam(np.array([-0.2, 0.05]), 0.4)
        assert misfit(cand, spec) == pytest.approx(misfit(cand, spec_perm),
                                                   rel=1e-12)


class TestCandidate:
    def test_glue_continuity(self, twin):
        _, spec = twin
        cand = CandidateParam(np.array([-0.5, 0.2, -0.1]), 0.3)
        q = candidate_potential(spec, cand)
        assert abs(q(D) - spec.q_tail(D)) < 1e-9

    def test_basis_cap(self):
        with pytest.raises(DomainError):
            CandidateParam(np.zeros(17), 0.1)

    def test_basis_cap_admits_max_basis(self):
        # kills size > MAX_BASIS -> >=
        assert CandidateParam(np.zeros(16), 0.1).coeffs.size == 16


class TestJacobian:
    @pytest.mark.parametrize("case", ["twin", "twin-recon task 0"])
    def test_matches_fd_oracle_within_its_own_error(self, twin, case):
        # the FD oracle's own error is what halving its step moves it by
        spec = twin[1] if case == "twin" else twin_recon_task0()
        theta, gamma = np.array([0.0, 0.0, 0.0, 0.0, 0.1]), 1e-8
        cache = {}
        _residual_vector(theta, spec, gamma, cache)
        J = _jacobian(spec, gamma, 4, cache)
        fd, fd_half = (fd_jacobian(theta, spec, gamma, s) for s in (1e-3, 5e-4))
        assert J.shape == fd.shape == (spec.data.t.size + 4, 5)
        assert np.abs(J - fd_half).max() <= np.abs(fd - fd_half).max()
        assert np.array_equal(J[-4:], np.sqrt(gamma) * np.eye(4, 5))

    def test_needs_no_eigensolve_or_relaxation(self, twin, monkeypatch):
        # J comes from the eigensystem and convolutions of theta's residual
        _, spec = twin
        cache = {}
        _residual_vector(np.array([-0.3, 0.1, 0.2]), spec, 0.0, cache)
        monkeypatch.setattr(inverse, "eigen_system", _no_solve)
        monkeypatch.setattr(forward, "relax_antiderivative", _no_solve)
        assert np.all(np.isfinite(_jacobian(spec, 0.0, 2, cache)))


class TestReconstruct:
    def test_zero_unknown_smoke(self, ramp_hold):
        # truth whose head is exactly the trivial tail extension: with M = 0
        # only h is fitted, the head stays the tail, and the misfit starts
        # at the solver-agreement floor
        q_true = PotentialSpec.constant(0.0, 256)
        t_samples = np.linspace(0.0, 2.0, 33)[1:]
        data = synthesize_data(q_true, H_TRUE, HBIG, ALPHA, ramp_hold, X0,
                               t_samples, 0.0, 5, nx=128, nt=256)
        spec = InverseProblemSpec(alpha=ALPHA, x0=X0, d=D,
                                  q_tail=PotentialSpec.constant(0.0, 256),
                                  H=HBIG, eta=ramp_hold, data=data,
                                  n_max=20, grid_size=256)
        init = CandidateParam(np.zeros(0), H_TRUE)
        res = reconstruct(spec, init, gamma=0.0, max_iter=3,
                          q_truth=q_true, h_truth=H_TRUE)
        floor = estimate_solver_floor(spec, init, nx=128, nt=256)
        assert res.misfit_history[-1] <= res.misfit_history[0] <= 4.0 * floor + 1e-12
        assert res.error_metrics["rel_L2_q"] == 0.0

    def test_fixed_point_at_truth(self, twin):
        # starting at the (basis-projected) truth with gamma = 0 terminates
        # within a couple of iterations at the solver-disagreement floor
        q_true, spec = twin
        init = CandidateParam(projected_truth(q_true), H_TRUE)
        floor = estimate_solver_floor(spec, init, nx=128, nt=256)
        res = reconstruct(spec, init, gamma=0.0, max_iter=2,
                          floor_stop=2.0 * floor)
        assert res.misfit_history[0] <= 2.0 * floor
        assert res.iterations <= 2

    def test_monotone_accepted_misfit(self, twin):
        _, spec = twin
        init = CandidateParam(np.zeros(4), 0.1)
        res = reconstruct(spec, init, gamma=1e-10, max_iter=6)
        hist = np.asarray(res.misfit_history)
        assert np.all(np.diff(hist) <= 1e-14)

    def test_gamma_path_continuation(self, twin):
        # max_iter is shared across the path, each gamma warm-starts from the
        # last, and the reported history is the final gamma's
        q_true, spec = twin
        init = CandidateParam(np.zeros(3), 0.1)
        res = reconstruct(spec, init, gamma=1e-8, gamma_path=[1e-4, 1e-6],
                          max_iter=6, lm_damping=True, q_truth=q_true,
                          h_truth=H_TRUE)
        assert 3 <= res.iterations <= 6
        assert res.regularization["gamma"] == 1e-8
        hist = np.asarray(res.misfit_history)
        assert np.all(np.diff(hist) <= 0.0)
        # the final stage starts where the earlier stages left off
        assert hist[0] < misfit(init, spec, gamma=1e-8)
        last = CandidateParam(res.coeffs, res.h_hat)
        assert hist[-1] == pytest.approx(misfit(last, spec, gamma=1e-8),
                                         rel=1e-12)
        assert np.isfinite(res.error_metrics["rel_L2_q"])

    def test_morozov_stops_at_the_discrepancy(self, twin, ramp_hold):
        q_true, spec = twin
        noisy = synthesize_data(q_true, H_TRUE, HBIG, ALPHA, ramp_hold, X0,
                                spec.data.t, 0.01, 11, nx=128, nt=256)
        noise_norm2 = float(np.sum((noisy.u - spec.data.u) ** 2))
        spec_n = InverseProblemSpec(alpha=ALPHA, x0=X0, d=D, q_tail=spec.q_tail,
                                    H=HBIG, eta=ramp_hold, data=noisy,
                                    noise_level=0.01, n_max=20, grid_size=256)
        init = CandidateParam(np.zeros(3), 0.1)
        res = reconstruct_morozov(spec_n, init, noise_norm2, gamma0=1e-4,
                                  gamma_min=1e-7, max_iter=3, lm_damping=True)
        gamma = res.regularization["gamma"]
        target = res.regularization["morozov_target"]
        assert target == pytest.approx(1.2 * noise_norm2, rel=1e-15)
        k = round(-np.log10(gamma))
        assert 4 <= k <= 8 and gamma == pytest.approx(10.0 ** -k, rel=1e-12)
        data_misfit = res.misfit_history[-1] - gamma * float(res.coeffs @ res.coeffs)
        assert data_misfit <= target or gamma <= 1e-7
        assert res.h_hat >= 0.0

    def test_morozov_shrinks_gamma_after_a_miss(self, twin, ramp_hold):
        # at gamma0 = 0.1 the penalty holds the data misfit above the target,
        # so gamma drops tenfold and the warm-started solve at 0.01 meets it
        q_true, spec = twin
        noisy = synthesize_data(q_true, H_TRUE, HBIG, ALPHA, ramp_hold, X0,
                                spec.data.t, 0.01, 11, nx=128, nt=256)
        noise_norm2 = float(np.sum((noisy.u - spec.data.u) ** 2))
        spec_n = replace(spec, data=noisy, noise_level=0.01)
        res = reconstruct_morozov(spec_n, CandidateParam(np.zeros(3), 0.1),
                                  noise_norm2, gamma0=0.1, gamma_min=1e-7,
                                  max_iter=3, lm_damping=True)
        gamma = res.regularization["gamma"]
        assert gamma == pytest.approx(0.01, rel=1e-15)
        data_misfit = res.misfit_history[-1] - gamma * float(res.coeffs @ res.coeffs)
        assert data_misfit <= res.regularization["morozov_target"]

    def test_morozov_runs_the_gamma_path_stage_loop(self, noisy_twin):
        # a target no stage meets runs the whole ladder at max_iter per
        # stage: the same stages, cache and mu as that ladder as a gamma path
        spec_n, _ = noisy_twin
        init = CandidateParam(np.zeros(3), 0.1)
        ladder = [1e-4]
        while ladder[-1] > 1e-6:
            ladder.append(ladder[-1] / 10.0)
        mor = reconstruct_morozov(spec_n, init, 0.0, gamma0=1e-4, gamma_min=1e-6,
                                  max_iter=2, lm_damping=True)
        path = reconstruct(spec_n, init, gamma=ladder[-1], gamma_path=ladder[:-1],
                           max_iter=2 * len(ladder), lm_damping=True)
        assert np.array_equal(mor.coeffs, path.coeffs)
        assert mor.h_hat == path.h_hat
        assert mor.misfit_history == path.misfit_history
        assert mor.iterations == path.iterations == 2 * len(ladder)
        assert mor.regularization["gamma"] == ladder[-1]

    @pytest.mark.parametrize("kwargs", [
        {"gamma0": np.inf}, {"gamma0": np.nan}, {"gamma0": -1e-4},
        {"gamma_min": -1.0}, {"gamma_min": 0.0}, {"max_iter": 0},
        {"noise_norm2": np.nan}, {"noise_norm2": -1.0}, {"noise_norm2": np.inf}])
    def test_morozov_rejects_a_ladder_it_cannot_run(self, twin, monkeypatch,
                                                    kwargs):
        # gamma0 = inf or gamma_min <= 0 never reaches gamma_min by tenfold
        # steps (gamma_min = 0 only after 321 stages, at gamma = 0); a NaN or
        # negative gamma0 would run its stage at that gamma; a NaN or negative
        # noise_norm2 gives a target no stage meets, and inf one that the
        # first stage meets whatever its fit
        _, spec = twin
        monkeypatch.setattr(inverse, "_residual_vector", _no_solve)
        with pytest.raises(DomainError, match="gamma0 >= 0, gamma_min > 0"):
            reconstruct_morozov(spec, CandidateParam(np.zeros(2), 0.1),
                                **{"noise_norm2": 1.0, **kwargs})

    @pytest.mark.parametrize("kwargs", [
        {"gamma": -1e-8}, {"gamma": np.nan}, {"gamma_path": [1e-4, np.inf]},
        {"gamma_path": np.array([1e-4, -1e-6])}])
    def test_rejects_a_negative_or_nonfinite_gamma(self, twin, monkeypatch,
                                                   kwargs):
        _, spec = twin
        monkeypatch.setattr(inverse, "_residual_vector", _no_solve)
        with pytest.raises(DomainError, match="finite and >= 0"):
            reconstruct(spec, CandidateParam(np.zeros(2), 0.1), max_iter=4,
                        **kwargs)

    def test_rejects_max_iter_below_the_stage_count(self, twin, monkeypatch):
        # three stages cannot share one iteration
        _, spec = twin
        monkeypatch.setattr(inverse, "_residual_vector", _no_solve)
        with pytest.raises(DomainError, match=r"number of gamma stages \(3\)"):
            reconstruct(spec, CandidateParam(np.zeros(2), 0.1), gamma=1e-8,
                        gamma_path=[1e-4, 1e-6], max_iter=2)

    @pytest.mark.parametrize("case", ["gauss-newton", "tikhonov", "levenberg ladder",
                                      "gamma bump", "gamma bump from 0"])
    def test_step_matches_the_augmented_least_squares_solve(self, twin, monkeypatch,
                                                            case):
        # one SVD of J gives the step of the augmented lstsq solve for every
        # gamma and mu; the ladder turns its first trial down eleven times,
        # so mu climbs from 1e-3 to its cap 1e3, then falls to its floor 1e-14
        rng = np.random.default_rng(7)
        gamma = {"gauss-newton": 0.0, "gamma bump": 1e-4, "gamma bump from 0": 0.0}.get(
            case, 1e-8)
        rejected = [False]
        if case == "levenberg ladder":
            rejected = [True] * 11 + [False] * 37
        jacobians = [rng.standard_normal((36, 5)) for _ in rejected]
        if case.startswith("gamma bump"):
            q1, _ = np.linalg.qr(rng.standard_normal((36, 5)))
            q2, _ = np.linalg.qr(rng.standard_normal((5, 5)))
            jacobians = [q1 @ np.diag([1e-2, 3e-3, 1e-3, 1e-4, 1e-15]) @ q2.T]
        lm_damping = case == "levenberg ladder"
        res, residuals, steps = scripted_steps(monkeypatch, twin[1], jacobians,
                                               rng.standard_normal(36), rejected,
                                               gamma, lm_damping)
        assert res.iterations == len(jacobians) and res.termination == "max_iterations"
        mu, mus = (1e-3 if lm_damping else 0.0), []
        for J, r, step, turned_down in zip(jacobians, residuals, steps, rejected):
            mus.append(mu)
            ref = lstsq_step(J, r, gamma, mu)
            assert np.linalg.norm(step - ref) <= 1e-12 * np.linalg.norm(ref)
            if lm_damping:
                mu = min(mu * 4.0, 1e3) if turned_down else max(mu / 3.0, 1e-14)
        if lm_damping:
            assert max(mus) == 1e3 and min(mus) == 1e-14
        conds = [np.linalg.cond(J) for J in jacobians]
        assert res.jacobian_condition == pytest.approx(max(conds), rel=1e-12)
        assert res.rank_warnings == sum(c > 1e12 for c in conds)

    def test_a_trial_that_breaks_the_eigensolve_halves_the_step(self, twin,
                                                                monkeypatch):
        # the first line-search trial raises as a failed eigensolve does; it
        # counts as rejected, the next trial sits at half the step, and the
        # accepted misfits still never increase
        _, spec = twin
        points, real = [], inverse._residual_vector

        def residual(theta, *args):
            points.append(theta)
            if len(points) == 2:
                raise ResidualTooLarge("scripted eigensolve failure")
            return real(theta, *args)

        monkeypatch.setattr(inverse, "_residual_vector", residual)
        init = CandidateParam(np.zeros(3), H_TRUE)
        res = reconstruct(spec, init, gamma=1e-8, max_iter=3)
        start, first, second = points[:3]
        assert first[-1] > 0.0 and second[-1] > 0.0  # h not projected
        assert np.allclose(second - start, 0.5 * (first - start), rtol=1e-12,
                           atol=1e-15)
        hist = np.asarray(res.misfit_history)
        assert hist.size >= 2 and np.all(np.diff(hist) <= 0.0)

    def test_a_converged_scaled_fit_ends_on_step_size(self, twin):
        # the gradient test is absolute: with drive and data scaled by 100 the
        # h-only fit converges with a gradient too large for it (unscaled it
        # ends on "gradient"), and the relative step test stops it
        _, spec = twin
        scaled = replace(spec, eta=DriveSignal(spec.eta.t_grid, 100.0 * spec.eta.values),
                         data=ObservationSeries(spec.data.t, 100.0 * spec.data.u))
        init = CandidateParam(np.zeros(0), 0.1)
        res = reconstruct(scaled, init, gamma=0.0, max_iter=12)
        assert res.termination == "step_size" and res.iterations < 12
        assert reconstruct(spec, init, gamma=0.0, max_iter=12).termination == "gradient"

    def test_a_tie_is_accepted_and_meets_the_floor(self, twin, monkeypatch):
        # a trial whose misfit equals the current one is accepted (the line
        # search takes non-increasing steps), and a misfit equal to floor_stop
        # stops on the floor; kills phi_trial <= phi -> <, phi <= floor_stop
        # -> < and abs_err_h's h - h_truth -> +
        q_true, spec = twin
        r = np.zeros(32)
        r[0] = 1.2
        constant_loop(monkeypatch, np.ones((32, 1)), r, [0.5])
        init = CandidateParam(np.zeros(0), 0.5)
        res = reconstruct(spec, init, gamma=0.0, max_iter=3, q_truth=q_true, h_truth=0.2)
        assert res.termination == "max_iterations" and res.iterations == 3
        assert res.misfit_history == [float(r @ r)] * 4
        assert res.error_metrics["abs_err_h"] == pytest.approx(0.3, rel=1e-15)
        res = reconstruct(spec, init, gamma=0.0, max_iter=3, floor_stop=float(r @ r))
        assert res.termination == "solver_floor" and res.iterations == 1

    def test_step_test_is_relative_to_one_plus_theta(self, twin, monkeypatch):
        # a step of 1.5e-10 at |theta| = 1 lies below STEP_TOL (1 + |theta|);
        # the gradient 2 |J^T r| = 3e-4 is far above GRAD_TOL; kills
        # STEP_TOL * (1 + |theta|) -> / and 1 + |theta| -> -
        _, spec = twin
        col = np.ones((32, 1)) / np.sqrt(32.0)
        constant_loop(monkeypatch, 1e3 * col, 1.5e-7 * col[:, 0], [1.0])
        res = reconstruct(spec, CandidateParam(np.zeros(0), 1.0), gamma=0.0, max_iter=3)
        assert res.termination == "step_size" and res.iterations == 1

    @pytest.mark.parametrize("c0", [0.0, 1.0])
    def test_morozov_target_is_met_by_the_data_misfit(self, twin, monkeypatch, c0):
        # target 1.2 * 1.2 and misfit |r|^2 = 1.2^2 plus the penalty 0.1 c0^2:
        # the data misfit meets the target at a tie (c0 = 0) and once the
        # penalty is taken off (c0 = 1), so the first stage ends the ladder;
        # kills the stop test's <= target -> < and phi - penalty -> +
        _, spec = twin
        r = np.zeros(33)
        r[0] = 1.2
        constant_loop(monkeypatch, np.eye(33, 2), r, [c0, 0.5])
        res = reconstruct_morozov(spec, CandidateParam(np.zeros(1), 0.5), 1.2,
                                  gamma0=0.1, gamma_min=0.01, max_iter=1)
        assert res.regularization["gamma"] == 0.1 and res.iterations == 1

    @pytest.mark.parametrize("gamma0, gamma_min, stages", [(0.0, 1e-12, 1), (1e-4, 1e-5, 2)])
    def test_morozov_ladder_ends_at_the_first_gamma_at_or_below_gamma_min(
            self, twin, monkeypatch, gamma0, gamma_min, stages):
        # gamma0 = 0 and max_iter = 1 are legal; 1e-4 / 10 is exactly 1e-5, so
        # that ladder has two stages; a zero target is never met; kills
        # gamma0 >= 0 -> >, max_iter >= 1 -> > and the ladder's > gamma_min -> >=
        _, spec = twin
        r = np.zeros(32)
        r[0] = 1.0
        constant_loop(monkeypatch, np.ones((32, 1)), r, [0.5])
        res = reconstruct_morozov(spec, CandidateParam(np.zeros(0), 0.5), 0.0,
                                  gamma0=gamma0, gamma_min=gamma_min, max_iter=1)
        assert res.iterations == stages
        assert res.regularization["gamma"] == (gamma_min if stages == 2 else gamma0)

    def test_a_jacobian_of_zeros_has_infinite_condition(self, ramp_hold):
        # data at t = 0 alone do not depend on theta, so with gamma = 0 J is
        # exactly 0: its condition is inf, as np.linalg.cond gives, the
        # iteration counts a rank warning, and the zero gradient stops it
        spec = InverseProblemSpec(alpha=ALPHA, x0=X0, d=D,
                                  q_tail=PotentialSpec.constant(0.0, 64), H=HBIG,
                                  eta=ramp_hold,
                                  data=ObservationSeries(np.array([0.0]), np.array([0.3])),
                                  n_max=6, grid_size=64)
        res = reconstruct(spec, CandidateParam(np.zeros(2), 0.3), gamma=0.0, max_iter=3)
        assert res.jacobian_condition == np.inf and res.rank_warnings == 1
        assert res.termination == "gradient" and res.iterations == 1

    def test_start_at_spectral_data_truth_ends_on_gradient(self, twin):
        # data made by the spectral solver at the start itself leave no
        # residual, so the first Gauss-Newton iteration stops on the gradient
        _, spec = twin
        start = CandidateParam(np.array([-0.4, 0.1, -0.05]), H_TRUE)
        u = _observation(candidate_potential(spec, start), RobinPair(H_TRUE, HBIG),
                         ALPHA, spec.eta, X0, spec.data.t, spec.n_max, spec.grid_size)
        exact = replace(spec, data=ObservationSeries(spec.data.t, u))
        res = reconstruct(exact, start, gamma=0.0, max_iter=3)
        assert res.termination == "gradient"
        assert res.iterations == 1 and res.misfit_history[0] < 1e-20

    def test_rel_l2_q_covers_the_glued_head(self):
        # node 700 of 1000 cells is 0.7000000000000001, just past d = 0.7;
        # candidate_potential glues it into the head, and rel_L2_q
        # integrates over the same 701 nodes
        grid, d = 1000, 0.7
        x = np.linspace(0.0, 1.0, grid + 1)
        q_truth = PotentialSpec(np.where(x <= d, -0.2 - 0.5 * (1 - x / d) ** 2,
                                         -0.2), grid)
        t = np.linspace(0.0, 2.0, 9)[1:]
        spec = InverseProblemSpec(
            alpha=ALPHA, x0=X0, d=d, q_tail=PotentialSpec.constant(-0.2, grid),
            H=HBIG, eta=DriveSignal(np.array([0.0, 1.0, 2.0]),
                                    np.array([0.0, 1.0, 1.0])),
            data=ObservationSeries(t, np.zeros(t.size)), n_max=8,
            grid_size=grid)
        res = reconstruct(spec, CandidateParam(np.zeros(0), 0.3), max_iter=1,
                          q_truth=q_truth, h_truth=0.3)
        xh = x[:701]
        assert np.all(res.q_hat.samples[:701] == -0.2)
        dq = res.q_hat.samples[:701] - q_truth.samples[:701]
        expected = np.sqrt(np.trapezoid(dq ** 2, xh)
                           / np.trapezoid(q_truth.samples[:701] ** 2, xh))
        assert res.error_metrics["rel_L2_q"] == pytest.approx(expected,
                                                              rel=1e-14)

    def test_result_serialization(self, tmp_path):
        # the CLI's result.json carries the result and q_hat's samples
        params = {"alpha": ALPHA, "d": D, "x0": X0, "h_true": H_TRUE, "H": HBIG,
                  "truth": {"type": "constant", "value": -0.3}, "M": 2,
                  "gamma": 1e-8, "noise_level": 0.0, "T": 1.0, "n_samples": 4,
                  "n_max": 6, "grid_size": 64, "max_iter": 2, "data_nx": 32,
                  "data_nt": 32}
        run(ExperimentConfig("reconstruct", params, tmp_path))
        obj = json.loads((tmp_path / "result.json").read_text())
        assert list(obj) == ["h_hat", "misfit_history", "regularization",
                             "error_metrics", "iterations", "termination",
                             "jacobian_condition", "q_hat"]
        assert obj["q_hat"]["grid_size"] == 64
        assert len(obj["q_hat"]["samples"]) == 65


class TestDistinguishability:
    def test_identical_pair_zero_gap(self, ramp_hold):
        q = truth_potential()
        t_samples = np.linspace(0.0, 2.0, 17)[1:]
        out = distinguishability_scan([(q, 0.3, q, 0.3)], X0, ALPHA,
                                      ramp_hold, t_samples, H=HBIG,
                                      n_max=16, grid_size=256)
        assert out[0]["gap"] == 0.0

    def test_bump_pair_visible(self, ramp_hold):
        q1 = PotentialSpec.constant(0.0, 256)
        q2 = PotentialSpec.from_callable(
            lambda x: -0.5 * max(0.0, 1 - x / D) ** 2, 256)
        t_samples = np.linspace(0.0, 2.0, 17)[1:]
        out = distinguishability_scan([(q1, 0.0, q2, 0.0)], X0, ALPHA,
                                      ramp_hold, t_samples, H=HBIG,
                                      n_max=16, grid_size=256)
        assert out[0]["gap"] > 1e-3

    def test_robin_pair_visible(self, ramp_hold):
        q = PotentialSpec.constant(-0.2, 256)
        t_samples = np.linspace(0.0, 2.0, 17)[1:]
        out = distinguishability_scan([(q, 0.0, q, 1.0)], X0, ALPHA,
                                      ramp_hold, t_samples, H=HBIG,
                                      n_max=16, grid_size=256)
        assert out[0]["gap"] > 1e-3


class TestAudit:
    def test_identical_systems_match(self):
        q = truth_potential()
        es = eigen_system(q, RobinPair(0.5, 1.0), 10, grid_size=512)
        rep = spectral_match_audit(es, es, X0, tol=1e-10)
        assert rep.all_matched and rep.n_audited > 0

    def test_same_potential_different_grid_matches(self):
        q = truth_potential(1024)
        es1 = eigen_system(q, RobinPair(0.5, 1.0), 10, grid_size=1024)
        es2 = eigen_system(q, RobinPair(0.5, 1.0), 10, grid_size=768)
        rep = spectral_match_audit(es1, es2, X0, tol=1e-4)
        assert rep.all_matched

    def test_constant_shift_no_match(self):
        q1 = PotentialSpec.constant(-0.5, 512)
        q2 = PotentialSpec.constant(-0.6, 512)
        rb = RobinPair(0.3, 0.8)
        es1 = eigen_system(q1, rb, 8, grid_size=512)
        es2 = eigen_system(q2, rb, 8, grid_size=512)
        rep = spectral_match_audit(es1, es2, X0, tol=1e-3)
        assert rep.n_matched == 0

    def test_identical_systems_match_at_zero_tolerance(self):
        # kills the match test's dlam <= tol -> < and dtrace <= tol -> <
        es = eigen_system(truth_potential(), RobinPair(0.5, 1.0), 10, grid_size=512)
        assert spectral_match_audit(es, es, X0, tol=0.0).all_matched

    def test_trace_gaps_are_gaps_of_the_observation_weights(self, ramp_hold):
        # the audited products e_n(1) e_n(x0) are the weights a_n of the
        # forward series; kills efuncs[:, -1] * eval_modes_at -> /
        q, robin, t = truth_potential(1024), RobinPair(0.5, 1.0), np.array([1.0])
        caches = [{}, {}]
        for cache, grid in zip(caches, (1024, 768)):
            _observation(q, robin, ALPHA, ramp_hold, X0, t, 10, grid, cache)
        rep = spectral_match_audit(caches[0]["es"], caches[1]["es"], X0, tol=1e-4)
        a1, a2 = caches[0]["weights"], caches[1]["weights"]
        assert rep.all_matched and rep.n_audited > 0
        for e in rep.entries:
            assert e.trace_gap == pytest.approx(abs(a1[e.n] - a2[e.m]), rel=1e-9, abs=1e-15)

    def test_nmax_mismatch_rejected(self):
        q = truth_potential()
        es1 = eigen_system(q, RobinPair(0.5, 1.0), 8, grid_size=512)
        es2 = eigen_system(q, RobinPair(0.5, 1.0), 6, grid_size=512)
        with pytest.raises(DomainError):
            spectral_match_audit(es1, es2, X0, tol=1e-4)


class TestSpecSerialization:
    def test_json_roundtrip(self, twin):
        _, spec = twin
        text = spec.to_json()
        assert list(json.loads(text)["q_tail"]) == ["grid_size", "samples"]
        spec2 = InverseProblemSpec.from_json(text)
        assert spec2.alpha == spec.alpha
        assert np.allclose(spec2.data.u, spec.data.u)
        assert spec2.q_tail.grid_size == spec.q_tail.grid_size
        assert np.array_equal(spec2.q_tail.samples, spec.q_tail.samples)
        assert spec2.n_max == spec.n_max == 20
        assert spec2.grid_size == spec.grid_size == 256

    def test_json_roundtrip_keeps_noise_provenance(self, twin):
        _, spec = twin
        noisy = replace(spec, data=replace(spec.data, noise_level=0.01, seed=7))
        spec2 = InverseProblemSpec.from_json(noisy.to_json())
        assert spec2.data.noise_level == 0.01
        assert spec2.data.seed == 7

    def test_observations_need_equal_lengths(self):
        with pytest.raises(DomainError, match="same length"):
            ObservationSeries(np.linspace(0.25, 2.0, 8), np.zeros(7))

    @pytest.mark.parametrize("field", ["t", "u"])
    def test_observations_must_be_finite(self, field):
        values = {"t": np.linspace(0.25, 2.0, 8), "u": np.zeros(8)}
        values[field][3] = np.nan
        with pytest.raises(DomainError, match="finite"):
            ObservationSeries(**values)

    @pytest.mark.parametrize("d, x0, ok", [(0.0, 0.5, False), (1.0, 0.5, False),
                                           (0.4, 0.0, True), (0.4, 1.0, True)])
    def test_d_open_and_x0_closed_in_the_unit_interval(self, ramp_hold, d, x0, ok):
        # kills 0 < d < 1 -> <= (both) and 0 <= x0 <= 1 -> < (both)
        def make():
            return InverseProblemSpec(alpha=0.5, x0=x0, d=d,
                                      q_tail=PotentialSpec.constant(0.0, 64), H=1.0,
                                      eta=ramp_hold,
                                      data=ObservationSeries(np.array([1.0]), np.zeros(1)))
        if ok:
            assert make().x0 == x0
        else:
            with pytest.raises(DomainError, match="unit interval"):
                make()

    def test_data_inside_drive_support(self, ramp_hold):
        with pytest.raises(DomainError):
            InverseProblemSpec(alpha=0.5, x0=0.5, d=0.4,
                               q_tail=PotentialSpec.constant(0.0, 64),
                               H=1.0, eta=ramp_hold,
                               data=ObservationSeries(np.array([1.0, 3.0]),
                                                      np.zeros(2)))
