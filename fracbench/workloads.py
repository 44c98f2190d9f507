"""The three benchmark workloads: seeded inputs, one task per call, checks.

A workload object is built from the workload seed.  ``setup()`` does the lazy
set-up a user pays once per process (caches, shared eigensystems) and may be
called repeatedly; ``run_task(i)`` runs task ``i`` and returns a ``TaskResult``
with its named checks and the outputs that reference files record.  Task
``i``'s inputs depend only on ``(seed, i)``.

Every library call goes through the module attribute (``sl_core.eigen_system``
and so on), never through a name bound at import, so the tracer sees it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from fracspec import forward, inverse, mittleff, sl_core, uniqueness, weyl_toolkit


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class TaskResult:
    checks: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)  # measured, reported, not gated

    def check(self, name: str, passed, detail: str = "") -> None:
        self.checks.append(Check(name, bool(passed), detail))

    @property
    def failed_checks(self) -> list:
        return [c for c in self.checks if not c.passed]


def _task_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _check_reference_lambdas(result: TaskResult, lambdas, reference) -> None:
    """Eigenvalues within 1e-13 relative of a recorded reference."""
    if reference is None:
        return
    ref = np.asarray(reference, dtype=float)
    if ref.shape != lambdas.shape:
        result.check("reference-eigenvalues", False,
                     f"{lambdas.size} eigenvalues, reference has {ref.size}")
        return
    rel = np.abs(lambdas - ref) / np.maximum(np.abs(ref), 1.0)
    result.check("reference-eigenvalues", rel.max() <= 1e-13, f"max rel diff {rel.max():.2e}")


class Workload:
    """Base: ``cycle`` tasks form one unit of the timed loop (same task mix
    in every run); ``trace_tasks`` is the fixed task count of a traced run."""

    name = ""
    cycle = 1
    trace_tasks = 1

    def __init__(self, seed: int, references: dict | None = None):
        self.seed = int(seed)
        self.references = (references or {}).get(self.name, {})

    def reference(self, index: int):
        return self.references.get(str(self.seed), {}).get(str(index))

    def setup(self) -> list:
        """Lazy set-up; returns its checks (empty when there are none)."""
        return []

    def run_task(self, index: int) -> TaskResult:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# twin-recon: the paper's headline use, one twin experiment per task
# ---------------------------------------------------------------------------

TERMINATIONS = {"max_iterations", "gradient", "line_search_stall",
                "solver_floor", "step_size", "no_free_parameters"}


class TwinRecon(Workload):
    """Mirrors the ``reconstruct`` CLI command: FD data, solver floor, GN."""

    name = "twin-recon"
    trace_tasks = 3
    D, X0, ALPHA, H, T = 0.5, 0.6, 0.5, 1.0, 4.0
    GRID, N_MAX, M, N_SAMPLES, MAX_ITER, GAMMA = 512, 24, 4, 64, 3, 1e-8

    def setup(self) -> list:
        mittleff._integral_nodes(self.ALPHA)
        return []

    def inputs(self, index: int):
        rng = _task_rng(self.seed, index)
        amps = rng.uniform(-0.6, 0.0, size=3)
        h_true = float(rng.uniform(0.1, 1.0))
        x = np.linspace(0.0, 1.0, self.GRID + 1)
        head = sum(a * np.cos((m + 0.5) * np.pi * x / self.D) for m, a in enumerate(amps))
        q_true = sl_core.PotentialSpec(np.minimum(np.where(x <= self.D, head, 0.0), 0.0),
                                       self.GRID)
        return q_true, h_true

    def run_task(self, index: int) -> TaskResult:
        q_true, h_true = self.inputs(index)
        eta = forward.DriveSignal(np.array([0.0, 1.0, self.T]), np.array([0.0, 1.0, 1.0]))
        t_samples = np.linspace(0.0, self.T, self.N_SAMPLES + 1)[1:]
        data = inverse.synthesize_data(q_true, h_true, self.H, self.ALPHA, eta, self.X0,
                                       t_samples, 0.0, self.seed, nx=256, nt=512)
        tail = sl_core.PotentialSpec(np.where(q_true.x_grid >= self.D, q_true.samples,
                                              q_true(self.D)), self.GRID)
        spec = inverse.InverseProblemSpec(
            alpha=self.ALPHA, x0=self.X0, d=self.D, q_tail=tail, H=self.H, eta=eta,
            data=data, noise_level=0.0, n_max=self.N_MAX, grid_size=self.GRID)
        init = inverse.CandidateParam(np.zeros(self.M), 0.1)
        floor = inverse.estimate_solver_floor(spec, init)
        res = inverse.reconstruct(spec, init, gamma=self.GAMMA, max_iter=self.MAX_ITER,
                                  lm_damping=True, floor_stop=2.0 * floor,
                                  q_truth=q_true, h_truth=h_true)

        out = TaskResult()
        hist = np.asarray(res.misfit_history)
        out.check("misfit-non-increasing", np.all(np.diff(hist) <= 0.0),
                  f"history {hist.tolist()}")
        out.check("termination-known", res.termination in TERMINATIONS, res.termination)
        out.check("estimate-finite",
                  np.all(np.isfinite(res.q_hat.samples)) and res.h_hat >= 0.0,
                  f"h_hat={res.h_hat}")
        rel = float(res.error_metrics["rel_L2_q"])
        out.outputs["rel_L2_q"] = rel
        ref = self.reference(index)
        if ref is not None:
            out.check("reference-rel-L2-q", abs(rel - ref) <= 0.01,
                      f"rel_L2_q={rel:.4f} reference={ref:.4f}")
        return out


# ---------------------------------------------------------------------------
# spectral-audit: shooting-bound certified eigensolves, no Mittag-Leffler
# ---------------------------------------------------------------------------

class SpectralAudit(Workload):
    """Symmetric potential, vanishing-trace split at x0 = 1/2, Weyl checks."""

    name = "spectral-audit"
    trace_tasks = 2
    GRID, N_MAX, X0 = 2048, 64, 0.5
    W_GRID, W_D, W_H1, W_H2 = 2560, 0.4, 0.2, 0.9
    W_LAMBDAS = list(np.linspace(1.0, 1500.0, 15)) + [
        100.0 + 50.0j, 400.0 + 100.0j, -50.0, 1j * 50.0, 1j * 120.0]
    SCAN_Y = np.geomspace(100.0, 1600.0, 25)

    def inputs(self, index: int):
        rng = _task_rng(self.seed, index)
        a = float(rng.uniform(0.5, 4.0))
        h = float(rng.uniform(0.2, 2.0))
        return a, h

    def run_task(self, index: int) -> TaskResult:
        a, h = self.inputs(index)
        x = np.linspace(0.0, 1.0, self.GRID + 1)
        q = sl_core.PotentialSpec(-a * np.cos(2.0 * np.pi * (x - 0.5)) ** 2, self.GRID)
        robin = sl_core.RobinPair(h, h)
        out = TaskResult()

        es = sl_core.eigen_system(q, robin, self.N_MAX, grid_size=self.GRID)
        lam = es.lambdas
        out.outputs["lambdas"] = lam.tolist()
        rel_res = es.residuals / (1.0 + np.abs(lam))
        out.check("residuals-small", np.all(rel_res <= 1e-6), f"max {rel_res.max():.2e}")
        out.check("eigenvalues-increasing", np.all(np.diff(lam) > 0.0))
        _check_reference_lambdas(out, lam, self.reference(index))
        out.check("asymptotics", sl_core.verify_asymptotics(es).passed)

        split = uniqueness.lambda_set(es, self.X0)
        report = uniqueness.complement_inclusion_check(es, self.X0, robin, q)
        out.check("complement-inclusion", report.passed,
                  f"{len(split.complement)} complement modes, "
                  f"{len(report.violations)} violations")

        # the matched-tail pair and lambda grid of acceptance criterion 9,
        # whose 1e-8 gate is stated for this pair; U(x) is constant on [d, 1]
        d = self.W_D
        xw = np.linspace(0.0, 1.0, self.W_GRID + 1)
        q1 = sl_core.PotentialSpec(-0.8 * np.maximum(0.0, 1.0 - xw / d) ** 2, self.W_GRID)
        q2 = sl_core.PotentialSpec(
            np.where(xw <= d, -0.3 * np.maximum(0.0, 1.0 - (xw / d) ** 2), 0.0), self.W_GRID)
        worst = 0.0
        for lam_w in self.W_LAMBDAS:
            u_ref = weyl_toolkit.wronskian_U(q1, q2, self.W_H1, self.W_H2, lam_w, 1.0)
            u_d = weyl_toolkit.wronskian_U(q1, q2, self.W_H1, self.W_H2, lam_w, d)
            worst = max(worst, abs(u_d - u_ref) / (1.0 + abs(u_ref)))
        out.check("wronskian-constancy", worst <= 1e-8, f"max deviation {worst:.2e}")

        q_bump = sl_core.PotentialSpec(
            q.samples - 0.5 * np.maximum(0.0, 1.0 - x / d) ** 2, self.GRID)
        scan = weyl_toolkit.f_decay_scan(q, q_bump, h, h, d,
                                         weyl_toolkit.ProductSpec(lam, self.N_MAX + 1),
                                         self.SCAN_Y)
        out.check("decay-scan-finite", np.all(np.isfinite(scan.f_magnitudes)))
        return out


# ---------------------------------------------------------------------------
# forward-oracle: spectral series against the L1 finite-difference oracle
# ---------------------------------------------------------------------------

class ForwardOracle(Workload):
    """One shared eigensystem; each task is one (alpha, drive) pair."""

    name = "forward-oracle"
    ALPHAS = (0.3, 0.5, 0.8, 0.97)
    DRIVES = ("uniform", "general")
    cycle = len(ALPHAS) * len(DRIVES)
    trace_tasks = cycle
    GRID, N_MAX, NX_FD, NT_FD, NT_DRIVE = 1024, 64, 256, 1024, 512
    X_SP, T_SP = 257, 513
    ROBIN = (0.3, 1.0)
    K_X = 0.25
    DUHAMEL_GATED = (0.5, 0.8, 0.97)

    def setup(self) -> list:
        xq = np.linspace(0.0, 1.0, self.GRID + 1)
        self.q = sl_core.PotentialSpec(-xq * (1.0 - xq), self.GRID)
        self.robin = sl_core.RobinPair(*self.ROBIN)
        for alpha in self.ALPHAS:
            mittleff._integral_nodes(alpha)
        self.es = sl_core.eigen_system(self.q, self.robin, self.N_MAX, grid_size=self.GRID)
        ref = self.references.get("setup_lambdas")
        result = TaskResult()
        _check_reference_lambdas(result, self.es.lambdas, ref)
        return result.checks

    def inputs(self, index: int):
        alpha = self.ALPHAS[(index // len(self.DRIVES)) % len(self.ALPHAS)]
        kind = self.DRIVES[index % len(self.DRIVES)]
        rng = _task_rng(self.seed, index)
        if kind == "uniform":
            omega = float(rng.uniform(2.5, 3.5))
            eta = forward.DriveSignal.from_callable(lambda t: np.sin(omega * t) ** 2,
                                                    1.0, self.NT_DRIVE)
        else:
            # knots stay >= 0.15 apart: the cross-validation budget assumes
            # a drive the FD step resolves (see NOTES.md, near-jump drives)
            knots = np.array([0.0, 0.2, 0.45, 0.7, 1.0])
            knots[1:4] += rng.uniform(-0.05, 0.05, 3)
            values = np.concatenate([[0.0], rng.uniform(0.2, 1.0, 4)])
            eta = forward.DriveSignal(knots, values)
        return alpha, kind, eta

    def run_task(self, index: int) -> TaskResult:
        alpha, kind, eta = self.inputs(index)
        out = TaskResult()
        xs = np.linspace(0.0, 1.0, self.X_SP)
        ts = np.linspace(0.0, 1.0, self.T_SP)
        sp = forward.solve_spectral(self.es, alpha, eta, xs, ts)
        fd = forward.solve_l1_fd(self.q, self.robin, alpha, eta, self.NX_FD, self.NT_FD)
        fd_shared = fd.values[:, ::(self.NT_FD // (self.T_SP - 1))]
        scale = max(float(np.abs(fd_shared).max()), 1e-300)
        diff = float(np.abs(sp.values - fd_shared).max()) / scale
        budget = sp.tail_bound / scale + 2.0 * ((1.0 / self.NT_FD) ** (2.0 - alpha)
                                                + (1.0 / self.NX_FD) ** 2)
        out.check("cross-validation", diff <= 1e-3 + budget,
                  f"alpha={alpha} {kind}: rel_diff={diff:.3e} budget={1e-3 + budget:.3e}")

        if kind == "uniform":
            ker = forward.kernel_K(self.es, alpha, self.K_X, eta.t_grid, self.N_MAX + 1)
            resid = forward.duhamel_residual(sp, ker, eta)
            row = sp.values[int(round(self.K_X * (self.X_SP - 1)))]
            d_scale = float(np.abs(np.cumsum(row) * ts[1]).max())
            detail = f"alpha={alpha}: residual {resid / d_scale:.2e} x scale"
            if alpha in self.DUHAMEL_GATED:
                out.check("duhamel-identity", resid <= 1e-4 * d_scale, detail)
            else:
                # the trapezoid left side converges only as dt^(1 + alpha)
                out.notes.append(f"duhamel-identity (not gated) {detail}")
        return out


WORKLOADS = {cls.name: cls for cls in (TwinRecon, SpectralAudit, ForwardOracle)}
