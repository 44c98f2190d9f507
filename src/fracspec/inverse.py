"""Twin-experiment reconstruction of the potential head and left Robin coefficient.

Given interior observations u(x0, t_k), the known potential tail on [d, 1],
the right Robin coefficient, the order alpha, and the drive, the unknown head
q|[0,d] and left coefficient h are recovered by regularized output least
squares.  The head is parameterized by half-wave cosines that vanish at d,

    q(x) = q_tail(d) + sum_m c_m cos((m + 1/2) pi x / d),    x in [0, d],

so every candidate glues continuously to the known tail.  Observation data
are synthesized with the L1 finite-difference solver while the inversion runs
the spectral solver (distinct discretizations, no inverse crime); the misfit
is minimized by Gauss-Newton with a Tikhonov penalty on the coefficients,
step-halving line search, and projection of h onto h >= 0.

The observation depends on theta = (coeffs, h) only through the spectral data,
u(x0, t) = sum_n a_n conv_n(t; lambda_n) with a_n = e_n(x0) e_n(1), so the
Jacobian factors as J = J_spec S.  S = d(lambda_n, a_n)/d theta is
tangents.eigen_tangents on the eigensystem of the current point; J_spec's
a-columns are the convolutions conv_n that the point's residual already
summed, and its lambda-columns a_n d conv_n / d lambda_n take the
lambda-derivative of the relaxation antiderivative through the same knot sum.
No eigensolve or relaxation of a perturbed theta is needed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FracspecError
from .forward import DriveSignal, _exact_convolutions, _series_sum, _series_terms, solve_l1_fd
from .mittleff import _antiderivative_dlam
from .sl_core import EigenSystem, PotentialSpec, RobinPair, eigen_system, eval_modes_at
from .uniqueness import classify_region, lambda_set

DEFAULT_INV_GRID = 512
DEFAULT_INV_MODES = 32
GRAD_TOL = 1e-8     # Gauss-Newton stops when |2 J^T r| falls below this
STEP_TOL = 1e-10    # ... or when |step| < STEP_TOL (1 + |theta|)
MOROZOV_TAU = 1.2   # reconstruct_morozov stops at MOROZOV_TAU times the noise norm^2
MAX_BASIS = 16      # most cosine coefficients of a candidate head


@dataclass
class ObservationSeries:
    """Interior point observations (t_k, u(x0, t_k))."""

    t: np.ndarray
    u: np.ndarray
    noise_level: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        if self.t.ndim != 1 or self.t.shape != self.u.shape \
                or not np.all(np.isfinite(self.t) & np.isfinite(self.u)):
            raise DomainError("t and u must be finite 1-D arrays of the same length")


@dataclass
class CandidateParam:
    """Cosine coefficients of the potential head plus the left Robin coefficient."""

    coeffs: np.ndarray
    h: float

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.size > MAX_BASIS:
            raise DomainError(f"basis dimension capped at {MAX_BASIS}")

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.coeffs, [self.h]])

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "CandidateParam":
        return cls(coeffs=np.asarray(vec[:-1], dtype=float), h=float(vec[-1]))


@dataclass
class InverseProblemSpec:
    """Data contract for one reconstruction run."""

    alpha: float
    x0: float
    d: float
    q_tail: PotentialSpec
    H: float
    eta: DriveSignal
    data: ObservationSeries
    noise_level: float = 0.0
    n_max: int = DEFAULT_INV_MODES
    grid_size: int = DEFAULT_INV_GRID

    def __post_init__(self):
        if not (0.0 < self.d < 1.0) or not (0.0 <= self.x0 <= 1.0):
            raise DomainError("d and x0 must lie inside the unit interval")
        if np.any(self.data.t > self.eta.T * (1 + 1e-12)):
            raise DomainError("data times must lie within the drive support")

    def to_json(self) -> str:
        return json.dumps({
            "alpha": self.alpha, "x0": self.x0, "d": self.d, "H": self.H,
            "noise_level": self.noise_level, "n_max": self.n_max,
            "grid_size": self.grid_size,
            "q_tail": {"grid_size": self.q_tail.grid_size,
                       "samples": self.q_tail.samples.tolist()},
            "eta": {"t": self.eta.t_grid.tolist(),
                    "values": self.eta.values.tolist()},
            "data": {"t": self.data.t.tolist(), "u": self.data.u.tolist(),
                     "noise_level": self.data.noise_level, "seed": self.data.seed},
        })

    @classmethod
    def from_json(cls, text: str) -> "InverseProblemSpec":
        o = json.loads(text)
        return cls(alpha=o["alpha"], x0=o["x0"], d=o["d"], H=o["H"],
                   noise_level=o["noise_level"], n_max=int(o["n_max"]),
                   grid_size=int(o["grid_size"]),
                   q_tail=PotentialSpec(o["q_tail"]["samples"],
                                        int(o["q_tail"]["grid_size"])),
                   eta=DriveSignal(o["eta"]["t"], o["eta"]["values"]),
                   data=ObservationSeries(o["data"]["t"], o["data"]["u"],
                                          o["data"]["noise_level"], o["data"]["seed"]))


@dataclass
class ReconstructionResult:
    q_hat: PotentialSpec
    h_hat: float
    coeffs: np.ndarray
    misfit_history: list
    regularization: dict
    error_metrics: dict | None
    iterations: int
    termination: str
    jacobian_condition: float
    rank_warnings: int = 0


# ---------------------------------------------------------------------------
# candidate geometry and forward map
# ---------------------------------------------------------------------------

def _head(spec: InverseProblemSpec):
    """Grid nodes and the mask of the unknown head [0, d], d's node included."""
    x = np.linspace(0.0, 1.0, spec.grid_size + 1)
    return x, x <= spec.d + 1e-15


def _project_h(theta) -> np.ndarray:
    """A copy of the parameter vector with h, its last entry, projected onto h >= 0."""
    return np.append(theta[:-1], max(theta[-1], 0.0))


def _half_waves(x, d, coeffs, base=0.0):
    """base + sum_m c_m cos((m + 1/2) pi x / d), added in order of m."""
    out = np.full(np.shape(x), base)
    for m, c in enumerate(coeffs):
        out += c * np.cos((m + 0.5) * np.pi * x / d)
    return out


def candidate_potential(spec: InverseProblemSpec,
                        candidate: CandidateParam) -> PotentialSpec:
    """Glue the parameterized head onto the known tail (continuous at d)."""
    x, head = _head(spec)
    samples = spec.q_tail(x)
    samples[head] = _half_waves(x[head], spec.d, candidate.coeffs,
                                float(spec.q_tail(spec.d)))
    return PotentialSpec(samples, spec.grid_size)


def _observation(q: PotentialSpec, robin: RobinPair, alpha: float,
                 eta: DriveSignal, x0: float, t, n_max: int, grid_size: int,
                 cache: dict | None = None) -> np.ndarray:
    """u(x0, t) by solve_spectral's series on modes 0..n_max of (q, robin); a
    cache dict warm-starts the eigensolve and keeps the eigensystem, mode
    weights and convolutions of the last call for _jacobian."""
    guess = cache["es"].lambdas if cache else None
    es = eigen_system(q, robin, n_max, grid_size=grid_size,
                      allow_inadmissible=True, lambda_guess=guess)
    weights, conv, _ = _series_terms(es, alpha, eta, np.asarray([x0]),
                                     np.asarray(t, dtype=float), None, np.inf)
    if cache is not None:
        cache.update(es=es, weights=weights[:, 0], conv=conv)
    return _series_sum(weights, conv)[0]


def _fd_observation(q, robin, alpha, eta, x0, t, nx, nt):
    """u(x0, t) by the L1-FD solver on nx x nt steps, linear between its nodes."""
    fd = solve_l1_fd(q, robin, alpha, eta, nx, nt)
    return np.interp(t, fd.t_grid, fd.at_x(x0))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def synthesize_data(q_true: PotentialSpec, h_true: float, H: float,
                    alpha: float, eta: DriveSignal, x0: float, t_samples,
                    noise_level: float = 0.0, rng_seed: int = 0,
                    nx: int = 256, nt: int = 512) -> ObservationSeries:
    """Observations from the finite-difference solver plus i.i.d. Gaussian noise.

    The noise standard deviation is noise_level times the RMS of the clean
    signal; a fixed rng_seed reproduces the data bitwise.
    """
    clean = _fd_observation(q_true, RobinPair(h_true, H), alpha, eta, x0, t_samples, nx, nt)
    if noise_level > 0.0:
        rng = np.random.default_rng(rng_seed)
        rms = float(np.sqrt(np.mean(clean ** 2)))
        clean = clean + noise_level * rms * rng.standard_normal(clean.size)
    return ObservationSeries(t=t_samples, u=clean, noise_level=noise_level,
                             seed=rng_seed)


def _residual_vector(theta, spec, gamma, cache=None):
    """Data residuals, then sqrt(gamma) coeffs, at theta with h projected to h >= 0."""
    cand = CandidateParam.from_vector(_project_h(theta))
    q = candidate_potential(spec, cand)
    pred = _observation(q, RobinPair(cand.h, spec.H), spec.alpha, spec.eta,
                        spec.x0, spec.data.t, spec.n_max, spec.grid_size, cache)
    return np.concatenate([pred - spec.data.u, np.sqrt(gamma) * cand.coeffs])


def _jacobian(spec, gamma, n_coeffs, cache):
    """J = J_spec S of _residual_vector at the point of the last residual in
    cache: data rows conv^T da + (a dconv/dlambda)^T dlambda, then the
    penalty rows sqrt(gamma) I over the coefficients."""
    from .tangents import eigen_tangents  # the first Jacobian loads it

    es, a, conv = cache["es"], cache["weights"], cache["conv"]
    x, head = _head(spec)
    dq = np.zeros((n_coeffs, x.size))  # dq/dc_m: _half_waves' m-th cosine
    dq[:, head] = np.cos((np.arange(n_coeffs)[:, None] + 0.5) * np.pi * x[head] / spec.d)
    dlam, da = eigen_tangents(es, spec.x0, dq)
    dconv = _exact_convolutions(es, spec.alpha, spec.eta, spec.data.t, a.size,
                                kernel=_antiderivative_dlam)
    J = conv.T @ da + (a[:, None] * dconv).T @ dlam
    return np.vstack([J, np.sqrt(gamma) * np.eye(n_coeffs, n_coeffs + 1)])


def misfit(candidate: CandidateParam, spec: InverseProblemSpec,
           gamma: float = 0.0) -> float:
    """Sum of squared data residuals plus the Tikhonov penalty gamma |coeffs|^2."""
    r = _residual_vector(candidate.as_vector(), spec, gamma)
    return float(r @ r)


def estimate_solver_floor(spec: InverseProblemSpec, candidate: CandidateParam,
                          nx: int = 256, nt: int = 512) -> float:
    """Solver-disagreement floor: squared gap between the spectral and FD
    observations of the same candidate.  Data misfits below this level carry
    no parameter information (discrepancy level for FD-generated data)."""
    cand = CandidateParam.from_vector(_project_h(candidate.as_vector()))
    q = candidate_potential(spec, cand)
    robin = RobinPair(cand.h, spec.H)
    pred = _observation(q, robin, spec.alpha, spec.eta, spec.x0, spec.data.t,
                        spec.n_max, spec.grid_size)
    u_fd = _fd_observation(q, robin, spec.alpha, spec.eta, spec.x0, spec.data.t, nx, nt)
    return float(np.sum((pred - u_fd) ** 2))


def reconstruct(spec: InverseProblemSpec, init: CandidateParam,
                gamma: float = 1e-10, max_iter: int = 200,
                lm_damping: bool = False, floor_stop: float | None = None,
                gamma_path=None, q_truth: PotentialSpec | None = None,
                h_truth: float | None = None) -> ReconstructionResult:
    """Gauss-Newton output least squares over (coeffs, h).

    The Jacobian J = J_spec S is exact for the discrete model, from the
    eigensystem and convolutions of the current point (module docstring);
    Tikhonov term gamma |coeffs|^2, step-halving line search, projection of
    h onto h >= 0.  A step solves (J^T J + (g + mu s_0^2) I) delta = -J^T r by
    one SVD of J: g = gamma, or max(10 gamma, 1e-8) with a rank warning when
    s_0 / s_min > 1e12, and mu is lm_damping's adaptive Levenberg factor (else 0).
    Terminates on gradient norm (GRAD_TOL), relative step size (STEP_TOL),
    the iteration cap, or -- when floor_stop is given -- on reaching the
    solver-disagreement floor below which the data carry no information.
    gamma_path runs warm-started stages ending at gamma, max_iter split
    across them; misfit_history is the final stage's, and iterations,
    jacobian_condition and rank_warnings cover every stage.  Supplies error
    metrics when the truth is given, rel_L2_q over the head nodes that
    candidate_potential glues.  Raises DomainError for a negative or
    non-finite gamma, or a max_iter below the number of stages.

    Identifiability caveat: observation at a single interior point is
    severely ill-posed; the data-map singular values decay roughly
    geometrically across the cosine basis, so only the leading parameter
    combinations are determined above the floor of the data (scheme error of
    the generating solver, or noise).  Fitting below that floor wanders along
    data-equivalent parameter sets; estimate_solver_floor provides the
    discrepancy level at which to stop.
    """
    gammas = [*(() if gamma_path is None else gamma_path), gamma]
    if not all(np.isfinite(g) and g >= 0.0 for g in gammas):
        raise DomainError("gamma and every gamma_path entry must be finite and >= 0")
    if max_iter < len(gammas):
        raise DomainError(f"max_iter {max_iter} is below the number of gamma "
                          f"stages ({len(gammas)})")
    return _continuation(spec, init, gammas, max_iter // len(gammas),
                         lm_damping, floor_stop, q_truth, h_truth)


def reconstruct_morozov(spec: InverseProblemSpec, init: CandidateParam,
                        noise_norm2: float, gamma0: float = 1e-4,
                        gamma_min: float = 1e-12, max_iter: int = 200,
                        lm_damping: bool = False,
                        q_truth: PotentialSpec | None = None,
                        h_truth: float | None = None) -> ReconstructionResult:
    """Discrepancy principle: reconstruct's stages on gamma0, gamma0/10, ...
    down to the first gamma <= gamma_min, max_iter iterations each, stopping
    after the first stage whose data misfit is <= MOROZOV_TAU * noise_norm2.
    misfit_history is the final stage's, and iterations, jacobian_condition
    and rank_warnings cover every stage."""
    if not (np.isfinite(gamma0) and gamma0 >= 0.0 and gamma_min > 0.0
            and max_iter >= 1 and np.isfinite(noise_norm2) and noise_norm2 >= 0.0):
        raise DomainError(f"reconstruct_morozov needs a finite gamma0 >= 0, "
                          f"gamma_min > 0, max_iter >= 1 and a finite noise_norm2 >= 0 "
                          f"(got {gamma0}, {gamma_min}, {max_iter}, {noise_norm2})")
    gammas = [gamma0]
    while gammas[-1] > gamma_min:
        gammas.append(gammas[-1] / 10.0)
    target = MOROZOV_TAU * noise_norm2
    result = _continuation(spec, init, gammas, max_iter, lm_damping, None,
                           q_truth, h_truth, target)
    result.regularization["morozov_target"] = target
    return result


def _continuation(spec, init, gammas, stage_iters, lm_damping, floor_stop,
                  q_truth, h_truth, target=None) -> ReconstructionResult:
    """One warm-started Gauss-Newton stage per gamma, all sharing one
    eigenvalue cache and Levenberg mu; stops on floor_stop in the final
    gamma's stage, or after the first stage whose data misfit is <= target."""
    theta = _project_h(init.as_vector())
    n_par = theta.size
    cache: dict = {}
    cond_max = 0.0
    rank_warnings = 0
    iterations = 0
    mu = 1e-3 if lm_damping else 0.0

    for gamma_now in gammas:
        r = _residual_vector(theta, spec, gamma_now, cache)
        phi = float(r @ r)
        history = [phi]
        termination = "max_iterations"
        for _ in range(stage_iters):
            iterations += 1
            # the cache holds theta's eigensystem: the last residual computed
            # was theta's, at the stage start or as the accepted trial
            J = _jacobian(spec, gamma_now, n_par - 1, cache)
            U, s, Vt = np.linalg.svd(J, full_matrices=False)  # J = U diag(s) V^T
            cond = float(s[0] / s[-1]) if s[-1] > 0.0 else np.inf  # as np.linalg.cond
            cond_max = max(cond_max, cond)
            gamma_eff = gamma_now
            if cond > 1e12:
                rank_warnings += 1
                gamma_eff = max(gamma_now * 10.0, 1e-8)
            g = s * (U.T @ r)  # J^T r = V g
            if 2.0 * np.linalg.norm(g) < GRAD_TOL:
                termination = "gradient"
                break
            delta = -Vt.T @ (g / (s ** 2 + gamma_eff + mu * s[0] ** 2))

            # step-halving line search; only non-increasing steps accepted,
            # and trials that break the eigensolver count as rejected
            scale = 1.0
            for _ in range(25):
                trial = _project_h(theta + scale * delta)
                try:
                    r_trial = _residual_vector(trial, spec, gamma_now, cache)
                    phi_trial = float(r_trial @ r_trial)
                except FracspecError:
                    phi_trial = np.inf
                if phi_trial <= phi:
                    break
                scale *= 0.5
            else:
                termination = "line_search_stall"
                break
            if lm_damping:
                mu = max(mu / 3.0, 1e-14) if scale == 1.0 else min(mu * 4.0, 1e3)
            theta = trial
            r = r_trial
            phi = phi_trial
            history.append(phi)
            if floor_stop is not None and gamma_now == gammas[-1] \
                    and phi <= floor_stop:
                termination = "solver_floor"
                break
            if np.linalg.norm(scale * delta) < STEP_TOL * (1.0 + np.linalg.norm(theta)):
                termination = "step_size"
                break
        if termination == "solver_floor" or (
                target is not None
                and phi - gamma_now * float(theta[:-1] @ theta[:-1]) <= target):
            break

    # every accepted theta has h >= 0 already
    cand = CandidateParam.from_vector(theta)
    q_hat = candidate_potential(spec, cand)
    metrics = None
    if q_truth is not None:
        x, head = _head(spec)
        xh = x[head]
        ref = q_truth(xh)
        dq = q_hat(xh) - ref
        rel = float(np.sqrt(np.trapezoid(dq ** 2, xh)
                            / max(np.trapezoid(ref ** 2, xh), 1e-300)))
        metrics = {"rel_L2_q": rel}
        if h_truth is not None:
            metrics["abs_err_h"] = abs(cand.h - h_truth)
    return ReconstructionResult(
        q_hat=q_hat, h_hat=cand.h, coeffs=cand.coeffs, misfit_history=history,
        regularization={"gamma": gamma_now, "basis_dim": int(cand.coeffs.size),
                        "region": classify_region(spec.d, spec.x0).verdict},
        error_metrics=metrics, iterations=iterations, termination=termination,
        jacobian_condition=cond_max, rank_warnings=rank_warnings)


def random_head(rng, d: float, grid: int) -> PotentialSpec:
    """A random potential on grid cells that is zero beyond d: three modes
    cos((m + 1/2) pi x / d) with amplitudes uniform in [-0.6, 0], cut at 0."""
    x = np.linspace(0.0, 1.0, grid + 1)
    prof = _half_waves(x, d, rng.uniform(-0.6, 0.0, size=3))
    return PotentialSpec(np.minimum(np.where(x <= d, prof, 0.0), 0.0), grid)


def distinguishability_scan(pairs, x0: float, alpha: float, eta: DriveSignal,
                            t_samples, H: float = 1.0,
                            n_max: int = DEFAULT_INV_MODES,
                            grid_size: int = DEFAULT_INV_GRID) -> list[dict]:
    """Max-over-time observation gap for each (q1, h1, q2, h2) pair.

    Positive gaps for parameter pairs that differ on the unknown region
    witness the injectivity of the data map.
    """
    out = []
    for idx, (q1, h1, q2, h2) in enumerate(pairs):
        u1, u2 = (_observation(q, RobinPair(h, H), alpha, eta, x0, t_samples,
                               n_max, grid_size) for q, h in ((q1, h1), (q2, h2)))
        out.append({"pair": idx, "gap": float(np.abs(u1 - u2).max())})
    return out


@dataclass
class MatchAuditEntry:
    n: int
    m: int | None
    lambda_gap: float
    trace_gap: float
    matched: bool


@dataclass
class MatchAuditReport:
    entries: list
    tol: float
    all_matched: bool
    n_audited: int
    n_matched: int


def spectral_match_audit(es1: EigenSystem, es2: EigenSystem, x0: float,
                         tol: float) -> MatchAuditReport:
    """Pair up eigenvalues and boundary-observation trace products.

    For every mode n of es1 in lambda_set(es1, x0), a match m requires
    |lam_1n - lam_2m| <= tol and agreement of the sign-convention-free
    products e(1) e(x0) to tol; the report diagnoses why two parameter sets
    produce (nearly) identical observations.
    """
    if es1.n_max != es2.n_max:
        raise DomainError("both systems must be computed to the same n_max")
    p1, p2 = (es.efuncs[:, -1] * eval_modes_at(es, x0)[0] for es in (es1, es2))
    entries = []
    for n in np.flatnonzero(lambda_set(es1, x0).kept):
        lam_gap = np.abs(es2.lambdas - es1.lambdas[n])
        m = int(np.argmin(lam_gap))
        dlam = float(lam_gap[m])
        dtrace = float(abs(p1[n] - p2[m]))
        ok = dlam <= tol and dtrace <= tol
        entries.append(MatchAuditEntry(n=int(n), m=m if ok else None,
                                       lambda_gap=dlam, trace_gap=dtrace,
                                       matched=ok))
    n_matched = sum(1 for e in entries if e.matched)
    return MatchAuditReport(entries=entries, tol=tol,
                            all_matched=n_matched == len(entries),
                            n_audited=len(entries), n_matched=n_matched)
