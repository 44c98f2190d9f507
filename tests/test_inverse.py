import json
from dataclasses import replace

import numpy as np
import pytest

from fracspec import inverse
from fracspec.cli import ExperimentConfig, run
from fracspec.errors import DomainError
from fracspec.forward import DriveSignal
from fracspec.inverse import (
    CandidateParam,
    InverseProblemSpec,
    ObservationSeries,
    _observation,
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
        {"gamma_min": -1.0}, {"gamma_min": 0.0}, {"max_iter": 0}])
    def test_morozov_rejects_a_ladder_it_cannot_run(self, twin, monkeypatch,
                                                    kwargs):
        # gamma0 = inf or gamma_min <= 0 never reaches gamma_min by tenfold
        # steps (gamma_min = 0 only after 321 stages, at gamma = 0); a NaN or
        # negative gamma0 would run its stage at that gamma
        _, spec = twin
        monkeypatch.setattr(inverse, "_residual_vector", _no_solve)
        with pytest.raises(DomainError, match="gamma0 >= 0, gamma_min > 0"):
            reconstruct_morozov(spec, CandidateParam(np.zeros(2), 0.1), 1.0,
                                **kwargs)

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

    def test_data_inside_drive_support(self, ramp_hold):
        with pytest.raises(DomainError):
            InverseProblemSpec(alpha=0.5, x0=0.5, d=0.4,
                               q_tail=PotentialSpec.constant(0.0, 64),
                               H=1.0, eta=ramp_hold,
                               data=ObservationSeries(np.array([1.0, 3.0]),
                                                      np.zeros(2)))
