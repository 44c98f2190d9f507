"""Batch experiment harness: JSON configs in, CSV/JSON/SVG artifacts out.

Commands: eigensolve, forward, kernel, weyl-scan, counting, region-map,
reconstruct, distinguish, verify-all.  Every run owns its output directory,
writes a manifest listing each produced file with a sha256 digest, and exits
0 only when all embedded checks pass (1 check failure, 2 configuration
error, 3 numerical failure).  Artifacts carry no timestamps, so reruns with
the same config and seed reproduce identical digests.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import EmptyData, FracspecError, MissingColumn
from . import forward as fwd
from . import inverse as inv
from . import svgplot
from . import uniqueness as uniq
from . import weyl_toolkit as weyl
from .mittleff import l1_weights, ml, relax_primitive
from .sl_core import PotentialSpec, RobinPair, eigen_system


# ---------------------------------------------------------------------------
# configuration schema
# ---------------------------------------------------------------------------

_REQUIRED = object()  # the default of a field every config must give


def _is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_finite_num(v):
    return _is_num(v) and abs(v) <= sys.float_info.max


@dataclass(frozen=True)
class _Num:
    """A finite number in [lo, hi]; an integer, or > 0, when flagged."""

    lo: float | None = None
    hi: float | None = None
    integer: bool = False
    positive: bool = False
    default: object = _REQUIRED

    def check(self, v, path, obj, errors):
        if self.integer and not isinstance(v, int):
            errors.append(f"{path}: integer required")
        elif not _is_num(v) or (self.positive and not v > 0):
            errors.append(f"{path}: {'positive ' * self.positive}number required")
        elif not _is_finite_num(v):
            errors.append(f"{path}: finite number required")
        elif self.lo is not None and v < self.lo:
            errors.append(f"{path}: must be >= {self.lo}")
        elif self.hi is not None and v > self.hi:
            errors.append(f"{path}: must be <= {self.hi}")


@dataclass(frozen=True)
class _Choice:
    options: tuple
    default: object = _REQUIRED

    def check(self, v, path, obj, errors):
        if v not in self.options:
            errors.append(f"{path}: one of {'|'.join(self.options)}")


@dataclass(frozen=True)
class _List:
    """A list of finite numbers: of obj[size_key] + 1 of them, or as many as
    the list obj[length_of], when given; starting at 0 when zero_start and
    strictly increasing when increasing."""

    size_key: str | None = None
    length_of: str | None = None
    zero_start: bool = False
    increasing: bool = False
    default: object = _REQUIRED

    def check(self, v, path, obj, errors):
        if not isinstance(v, list):
            errors.append(f"{path}: list required")
            return
        bad = [i for i, x in enumerate(v) if not _is_finite_num(x)]
        size = obj.get(self.size_key)
        other = obj.get(self.length_of)
        if not v:
            errors.append(f"{path}: non-empty list required")
        elif bad:
            errors.append(f"{path}[{bad[0]}]: finite number required")
        elif isinstance(size, int) and len(v) != size + 1:
            errors.append(f"{path}: {self.size_key} + 1 = {size + 1} values "
                          f"required, got {len(v)}")
        elif isinstance(other, list) and len(v) != len(other):
            errors.append(f"{path}: {len(other)} values required (as many as "
                          f"{self.length_of}), got {len(v)}")
        elif self.zero_start and v[0] != 0:
            errors.append(f"{path}[0]: must be 0")
        elif self.increasing and any(a >= b for a, b in zip(v, v[1:])):
            errors.append(f"{path}: must increase")


@dataclass(frozen=True)
class _Kinds:
    """An object whose "type" tag picks the fields of the rest of it."""

    noun: str
    kinds: dict
    default: object = _REQUIRED

    def check(self, v, path, obj, errors):
        if not isinstance(v, dict):
            errors.append(f"{path}: expected an object describing the {self.noun}")
        elif not isinstance(v.get("type"), str) or v["type"] not in self.kinds:
            errors.append(f"{path}.type: one of {'|'.join(self.kinds)}")
        else:
            _check_fields({k: x for k, x in v.items() if k != "type"},
                          self.kinds[v["type"]], path, errors)


@dataclass(frozen=True)
class _Certificate:
    """Density certificate {A, B} of region-map; null means none."""

    default: object = None

    def check(self, v, path, obj, errors):
        if v is not None and not (isinstance(v, dict)
                                  and _is_finite_num(v.get("A"))
                                  and _is_finite_num(v.get("B"))):
            errors.append(f"{path}: object with numeric A and B required")
        elif v is not None:
            _check_fields(v, {"A": _Num(), "B": _Num()}, path, errors)


def _check_fields(obj, fields, path, errors):
    for key in sorted(set(obj) - set(fields)):
        errors.append(f"{path}.{key}: unknown key")
    for key, field in fields.items():
        if key in obj:
            field.check(obj[key], f"{path}.{key}", obj, errors)
        elif field.default is _REQUIRED:
            errors.append(f"{path}.{key}: missing")


_Q = _Kinds("potential", {
    "constant": {"value": _Num()},
    "bump": {"depth": _Num(), "width": _Num(positive=True)},
    "cosine": {"mean": _Num(), "amplitude": _Num(), "frequency": _Num()},
    "samples": {"samples": _List(size_key="grid_size"),
                "grid_size": _Num(lo=16, integer=True)},
})
_ETA = _Kinds("drive", {
    "ramp": {},
    "ramp-hold": {"t1": _Num(positive=True)},
    "poly": {"power": _Num(positive=True)},
    "samples": {"t": _List(zero_start=True, increasing=True),
                "values": _List(length_of="t", zero_start=True)},
})
_HELD_RAMP = replace(_ETA, default={"type": "ramp-hold", "t1": 1.0})
_ROBIN = _Num(lo=0.0)
_ALPHA = _Num(lo=1e-9, hi=1.0)
_T = _Num(lo=1e-12)
_UNIT = _Num(lo=0.0, hi=1.0)
_OPEN_UNIT = _Num(lo=1e-9, hi=1.0 - 1e-9)

# The parameters of each command in the order validate reports them: type,
# bounds and default (_REQUIRED: the config must give it).
SCHEMA = {
    "eigensolve": {
        "q": _Q, "h": _ROBIN, "H": _ROBIN, "n_max": _Num(lo=0, integer=True),
        # None: solve on the potential's own grid
        "grid_size": _Num(lo=16, integer=True, default=None)},
    "forward": {
        "q": _Q, "h": _ROBIN, "H": _ROBIN, "alpha": _ALPHA, "eta": _ETA,
        "T": _T, "nt": _Num(lo=32, integer=True),
        "nx": _Num(lo=32, integer=True),
        "method": _Choice(("spectral", "l1fd", "both"), default="both"),
        "n_max": _Num(lo=0, integer=True, default=64)},
    "kernel": {
        "q": _Q, "h": _ROBIN, "H": _ROBIN, "alpha": _ALPHA, "T": _T,
        "nt": _Num(lo=32, integer=True), "x": _UNIT,
        "n_modes": _Num(lo=1, integer=True),
        # None: worked out from n_modes by the runner
        "n_max": _Num(lo=0, integer=True, default=None)},
    "weyl-scan": {
        "q": _Q, "h": _ROBIN, "x": _Num(lo=1e-9, hi=1.0),
        "mag_lo": _Num(lo=1e-9),
        "mag_hi": _Num(lo=1e-9, hi=weyl.RAY_SQRT_CAP ** 2),
        "count": _Num(lo=3, integer=True),
        "direction": _Choice(("imaginary-axis", "sector"),
                             default="imaginary-axis"),
        "angle": _Num(lo=0.0, hi=np.pi, default=np.pi / 2)},
    "counting": {
        "x0": _UNIT, "n_modes": _Num(lo=10, integer=True),
        "s_lo": _Num(lo=1e-9), "s_hi": _Num(lo=1e-9),
        "s_count": _Num(lo=4, integer=True), "A": _Num(lo=1e-9, default=None)},
    "region-map": {
        "resolution": _Num(lo=10, integer=True), "certificate": _Certificate()},
    "reconstruct": {
        "alpha": _ALPHA, "d": _OPEN_UNIT, "x0": _UNIT, "h_true": _ROBIN, "H": _ROBIN,
        "truth": _Q, "M": _Num(lo=0, hi=16, integer=True),
        "gamma": _Num(lo=0.0), "noise_level": _Num(lo=0.0), "T": _T,
        "n_samples": _Num(lo=4, integer=True), "eta": _HELD_RAMP,
        "n_max": _Num(lo=1, integer=True, default=24),
        "grid_size": _Num(lo=16, integer=True, default=512),
        "max_iter": _Num(lo=1, integer=True, default=40),
        "data_nx": _Num(lo=32, integer=True, default=256),
        "data_nt": _Num(lo=32, integer=True, default=512)},
    "distinguish": {
        "n_pairs": _Num(lo=1, integer=True), "d": _OPEN_UNIT, "x0": _UNIT,
        "alpha": _ALPHA, "H": _ROBIN, "T": _T,
        "n_samples": _Num(lo=4, integer=True), "eta": _HELD_RAMP},
    "verify-all": {},
}
COMMANDS = tuple(SCHEMA)


def _build_q(obj, grid_size=None) -> PotentialSpec:
    """The potential obj describes: samples keep their own grid, the
    analytic kinds are sampled on grid_size cells (1024 when None)."""
    kind, grid_size = obj["type"], grid_size or 1024
    if kind == "constant":
        return PotentialSpec.constant(float(obj["value"]), grid_size)
    if kind == "bump":
        depth, width = float(obj["depth"]), float(obj["width"])
        return PotentialSpec.from_callable(
            lambda x: -depth * max(0.0, 1.0 - x / width) ** 2, grid_size)
    if kind == "cosine":
        mean, amp, freq = (float(obj["mean"]), float(obj["amplitude"]),
                           float(obj["frequency"]))
        return PotentialSpec.from_callable(
            lambda x: mean + amp * np.cos(freq * np.pi * x), grid_size)
    return PotentialSpec(np.asarray(obj["samples"], dtype=float),
                         int(obj["grid_size"]))


def _build_eta(obj, T: float, nt: int = 512) -> fwd.DriveSignal:
    kind = obj["type"]
    # a ramp held from t1 >= T on is the plain ramp over [0, T]
    if kind == "ramp" or (kind == "ramp-hold" and obj["t1"] >= T):
        return fwd.DriveSignal(np.array([0.0, T]), np.array([0.0, T]))
    if kind == "ramp-hold":
        t1 = float(obj["t1"])
        return fwd.DriveSignal(np.array([0.0, t1, T]), np.array([0.0, t1, t1]))
    if kind == "poly":
        return fwd.DriveSignal.from_callable(
            lambda t: t ** float(obj["power"]), T, nt)
    return fwd.DriveSignal(np.asarray(obj["t"], dtype=float),
                           np.asarray(obj["values"], dtype=float))


def validate(config_text: str) -> list[str]:
    """Schema errors for a JSON configuration; empty list means valid."""
    try:
        cfg = json.loads(config_text)
    except json.JSONDecodeError as exc:
        return [f"$: invalid JSON ({exc.msg} at line {exc.lineno})"]
    if not isinstance(cfg, dict):
        return ["$: top-level object required"]
    errors = [f"{key}: unknown key" for key in
              sorted(set(cfg) - {"command", "parameters", "output_dir", "seed"})]
    command = cfg.get("command")
    if command not in COMMANDS:
        errors.append(f"command: one of {'|'.join(COMMANDS)} required")
        return errors
    if "seed" in cfg:
        _Num(integer=True).check(cfg["seed"], "seed", cfg, errors)
    params = cfg.get("parameters", {})
    if not isinstance(params, dict):
        return errors + ["parameters: object required"]
    _check_fields(params, SCHEMA[command], "parameters", errors)
    return errors


# ---------------------------------------------------------------------------
# manifest and artifact writing
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    command: str
    parameters: dict
    output_dir: Path
    seed: int = 0

    @classmethod
    def from_text(cls, text: str, output_dir, seed=None) -> "ExperimentConfig":
        obj = json.loads(text)
        return cls(command=obj["command"], parameters=obj.get("parameters", {}),
                   output_dir=Path(output_dir),
                   seed=obj.get("seed", 0) if seed is None else seed)

    def canonical(self) -> str:
        return json.dumps({"command": self.command, "parameters": self.parameters,
                           "seed": self.seed}, sort_keys=True)


@dataclass
class RunManifest:
    config_hash: str
    version: str
    started: str
    finished: str
    files: list
    checks: list
    status: str

    def to_json(self) -> str:
        return json.dumps({
            "config_hash": self.config_hash, "version": self.version,
            "started": self.started, "finished": self.finished,
            "files": self.files, "checks": self.checks, "status": self.status,
        }, indent=2, sort_keys=True)

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)


class _Writer:
    """Confines writes to the output directory and records digests."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.records = []

    def write_text(self, name: str, text: str):
        path = self.out_dir / name
        data = text.encode("utf-8")
        path.write_bytes(data)
        self.records.append({"path": name,
                             "sha256": hashlib.sha256(data).hexdigest(),
                             "bytes": len(data)})


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# command pipelines (each returns a list of checks)
# ---------------------------------------------------------------------------

def _run_eigensolve(params, writer, seed):
    q = _build_q(params["q"], params["grid_size"])
    rb = RobinPair(float(params["h"]), float(params["H"]))
    es = eigen_system(q, rb, int(params["n_max"]),
                      grid_size=params["grid_size"],
                      allow_inadmissible=not q.admissible)
    rows = [(int(n), float(es.lambdas[n]), float(es.k[n]), float(es.beta[n]),
             float(es.residuals[n])) for n in range(es.n_max + 1)]
    writer.write_text("eigen.csv",
                      _csv_text(["n", "lambda", "k", "beta", "residual"], rows))
    e_rows = []
    stride = max(1, es.grid_size // 256)
    for i in range(0, es.grid_size + 1, stride):
        e_rows.append((float(es.x_grid[i]),
                       *[float(es.efuncs[n, i]) for n in
                         range(min(es.n_max + 1, 6))]))
    writer.write_text("efuncs.csv", _csv_text(
        ["x"] + [f"e{n}" for n in range(min(es.n_max + 1, 6))], e_rows))
    increasing = bool(np.all(np.diff(es.lambdas) > 0))
    return [{"name": "eigenvalues-increasing", "passed": increasing,
             "detail": f"n_max={es.n_max}"},
            {"name": "residuals-small",
             "passed": bool(np.all(es.residuals <= 1e-6 * (1 + np.abs(es.lambdas)))),
             "detail": f"max={es.residuals.max():.3e}"}]


def _run_forward(params, writer, seed):
    grid = 1024
    q = _build_q(params["q"], grid)
    rb = RobinPair(float(params["h"]), float(params["H"]))
    alpha = float(params["alpha"])
    T, nt, nx = float(params["T"]), int(params["nt"]), int(params["nx"])
    eta = _build_eta(params["eta"], T, nt)
    method = params["method"]
    n_max = int(params["n_max"])
    t_grid = np.linspace(0.0, T, nt + 1)
    x_grid = np.linspace(0.0, 1.0, nx + 1)
    checks = []
    fields = {}
    if method in ("spectral", "both"):
        es = eigen_system(q, rb, n_max, grid_size=grid,
                          allow_inadmissible=not q.admissible)
        fields["spectral"] = fwd.solve_spectral(es, alpha, eta, x_grid, t_grid)
    if method in ("l1fd", "both"):
        fields["l1fd"] = fwd.solve_l1_fd(q, rb, alpha, eta, nx, nt)
    for name, f in fields.items():
        writer.write_text(f"field_{name}.csv", f.to_csv())
        checks.append({"name": f"{name}-zero-initial",
                       "passed": bool(np.abs(f.values[:, 0]).max() == 0.0),
                       "detail": ""})
    if method == "both":
        sp, fd = fields["spectral"], fields["l1fd"]
        scale = max(np.abs(fd.values).max(), 1e-300)
        diff = float(np.abs(sp.values - fd.values).max() / scale)
        budget = (sp.tail_bound / scale
                  + 2.0 * ((T / nt) ** (2 - alpha) + (1.0 / nx) ** 2))
        checks.append({"name": "cross-validation",
                       "passed": bool(diff <= 1e-3 + budget),
                       "detail": f"rel_diff={diff:.3e} budget={budget:.3e}"})
    return checks


def _run_kernel(params, writer, seed):
    grid = 1024
    q = _build_q(params["q"], grid)
    rb = RobinPair(float(params["h"]), float(params["H"]))
    alpha = float(params["alpha"])
    T, nt = float(params["T"]), int(params["nt"])
    n_modes = int(params["n_modes"])
    n_max = (max(n_modes - 1, 8) if params["n_max"] is None
             else int(params["n_max"]))
    es = eigen_system(q, rb, max(n_max, n_modes - 1), grid_size=grid,
                      allow_inadmissible=not q.admissible)
    t_grid = np.linspace(0.0, T, nt + 1)
    ker = fwd.kernel_K(es, alpha, float(params["x"]), t_grid, n_modes)
    writer.write_text("kernel.csv", _csv_text(
        ["t", "K"], [(float(t), float(v)) for t, v in
                     zip(ker.t_grid, ker.values)]))
    return [{"name": "kernel-zero-start", "passed": bool(ker.values[0] == 0.0),
             "detail": ""},
            {"name": "kernel-finite",
             "passed": bool(np.all(np.isfinite(ker.values))),
             "detail": f"tail_bound={ker.tail_bound:.3e}"}]


def _run_weyl_scan(params, writer, seed):
    q = _build_q(params["q"], 1024)
    mags = np.geomspace(float(params["mag_lo"]), float(params["mag_hi"]),
                        int(params["count"]))
    ray = weyl.ComplexRay(mags, params["direction"], float(params["angle"]))
    h, x = float(params["h"]), float(params["x"])
    fit = weyl.m_asymptotic_scan(q, h, x, ray)
    lams = ray.points()
    ms = weyl.weyl_m_minus(q, h, lams, x)
    rows = [(float(lam.real), float(lam.imag), float(m.real), float(m.imag),
             float(abs(m))) for lam, m in zip(lams, ms)]
    writer.write_text("scan.csv", _csv_text(
        ["re_lambda", "im_lambda", "re_value", "im_value", "magnitude"], rows))
    writer.write_text("fit.json", fit.to_json() + "\n")
    return [{"name": "fit-converged", "passed": bool(fit.residual < 1.0),
             "detail": f"exponent={fit.exponent:.4f} "
                       f"(reference {fit.reference_exponent})"}]


def _run_counting(params, writer, seed):
    x0 = float(params["x0"])
    n_modes = int(params["n_modes"])
    n = np.arange(n_modes)
    keep = np.abs(np.cos(n * np.pi * x0)) > 1e-6
    keep[0] = True
    lam = uniq.CountedSet((n[keep] * np.pi) ** 2, "lambda-set")
    s_grid = np.geomspace(float(params["s_lo"]), float(params["s_hi"]),
                          int(params["s_count"]))
    bound = uniq.counting_bound_check(lam, x0, s_grid)
    rows = [(float(s), int(c), float(b)) for s, c, b in
            zip(bound.s_values, bound.counts, bound.bounds)]
    writer.write_text("counting.csv", _csv_text(["s", "count", "bound"], rows))
    checks = [{"name": "counting-bound", "passed": bool(bound.passed),
               "detail": f"x0={x0}"}]
    if params["A"] is not None:
        dens = uniq.density_criterion(lam, float(params["A"]), s_grid)
        writer.write_text("density.json", json.dumps(
            {"liminf_estimate": dens.liminf_estimate,
             "threshold": dens.threshold, "passed": dens.passed,
             "implied_d_max": dens.implied_d_max}, sort_keys=True) + "\n")
        checks.append({"name": "density-criterion", "passed": bool(dens.passed),
                       "detail": f"estimate={dens.liminf_estimate:.5f}"})
    return checks


def _run_region_map(params, writer, seed):
    cert = params["certificate"]
    certificate = (cert["A"], cert["B"]) if cert else None
    res = int(params["resolution"])
    verdicts = uniq.region_map(res, certificate)
    writer.write_text("region.csv", uniq.region_map_csv(verdicts))
    svg = svgplot.render_heatmap([v.d for v in verdicts],
                                 [v.x0 for v in verdicts],
                                 [v.verdict for v in verdicts],
                                 title="uniqueness regions", x_label="d",
                                 y_label="x0")
    writer.write_text("region.svg", svg)
    diag_ok = all(v.verdict == "theorem1-case-i" for v in verdicts
                  if v.d == v.x0)
    return [{"name": "row-count", "passed": len(verdicts) == res * res,
             "detail": f"{len(verdicts)} cells"},
            {"name": "diagonal-case-i", "passed": diag_ok, "detail": ""}]


def _run_reconstruct(params, writer, seed):
    alpha, d, x0 = (float(params["alpha"]), float(params["d"]),
                    float(params["x0"]))
    h_true, H = float(params["h_true"]), float(params["H"])
    T = float(params["T"])
    grid = int(params["grid_size"])
    q_true = _build_q(params["truth"], grid)
    eta = _build_eta(params["eta"], T)
    t_samples = np.linspace(0.0, T, int(params["n_samples"]) + 1)[1:]
    noise = float(params["noise_level"])
    data = inv.synthesize_data(q_true, h_true, H, alpha, eta, x0, t_samples,
                               noise, seed, nx=int(params["data_nx"]),
                               nt=int(params["data_nt"]))
    tail = PotentialSpec.from_callable(
        lambda x: q_true(x) if x >= d else q_true(d), grid)
    spec = inv.InverseProblemSpec(alpha=alpha, x0=x0, d=d, q_tail=tail, H=H,
                                  eta=eta, data=data, noise_level=noise,
                                  n_max=int(params["n_max"]),
                                  grid_size=grid)
    init = inv.CandidateParam(np.zeros(int(params["M"])), 0.1)
    floor = inv.estimate_solver_floor(spec, init)
    res = inv.reconstruct(spec, init, gamma=float(params["gamma"]),
                          max_iter=int(params["max_iter"]),
                          lm_damping=True, floor_stop=2.0 * floor,
                          q_truth=q_true, h_truth=h_true)
    writer.write_text("result.json", res.to_json() + "\n")
    writer.write_text("misfit.csv", _csv_text(
        ["iteration", "misfit"],
        [(i, float(m)) for i, m in enumerate(res.misfit_history)]))
    xg = np.linspace(0.0, 1.0, 257)
    writer.write_text("qhat.csv", _csv_text(
        ["x", "q_hat", "q_true"],
        [(float(x), float(res.q_hat(x)), float(q_true(x))) for x in xg]))
    rel = res.error_metrics["rel_L2_q"]
    return [{"name": "twin-rel-L2-q",
             "passed": bool(rel <= 0.05),
             "detail": f"rel_L2_q={rel:.4f} abs_err_h="
                       f"{res.error_metrics['abs_err_h']:.4f} "
                       f"(5% target; identifiability-limited with "
                       f"finite-difference data, see reconstruct docs)"}]


def _run_distinguish(params, writer, seed):
    alpha, d, x0 = (float(params["alpha"]), float(params["d"]),
                    float(params["x0"]))
    H, T = float(params["H"]), float(params["T"])
    n_pairs = int(params["n_pairs"])
    eta = _build_eta(params["eta"], T)
    t_samples = np.linspace(0.0, T, int(params["n_samples"]) + 1)[1:]
    rng = np.random.default_rng(seed)
    pairs = []
    grid = 512
    x = np.linspace(0.0, 1.0, grid + 1)
    for _ in range(n_pairs):
        qs = []
        for _ in range(2):
            amps = rng.uniform(-0.6, 0.0, size=3)
            prof = sum(a * np.cos((m + 0.5) * np.pi * x / d)
                       for m, a in enumerate(amps))
            prof = np.where(x <= d, prof, 0.0)
            qs.append(PotentialSpec(np.minimum(prof, 0.0), grid))
        pairs.append((qs[0], 0.0, qs[1], 0.0))
    gaps = inv.distinguishability_scan(pairs, x0, alpha, eta, t_samples, H=H,
                                       n_max=24, grid_size=grid)
    writer.write_text("gaps.csv", _csv_text(
        ["pair", "gap"], [(g["pair"], float(g["gap"])) for g in gaps]))
    min_gap = min(g["gap"] for g in gaps)
    return [{"name": "gaps-positive", "passed": bool(min_gap > 0.0),
             "detail": f"min_gap={min_gap:.3e}"}]


def _run_verify_all(params, writer, seed):
    checks = []

    es = eigen_system(PotentialSpec.constant(0.0, 1024), RobinPair(0.0, 0.0), 25)
    n = np.arange(26)
    err = np.abs(es.lambdas - (n * np.pi) ** 2) / np.maximum((n * np.pi) ** 2, 1.0)
    checks.append({"name": "reference-spectrum", "passed": bool(err.max() <= 1e-8),
                   "detail": f"max_rel_err={err.max():.2e}"})
    writer.write_text("eigen.csv", _csv_text(
        ["n", "lambda"], [(int(k), float(es.lambdas[k])) for k in n]))

    xs = np.linspace(0.0, 50.0, 101)
    e1 = float(np.abs(ml(1.0, 1.0, -xs) - np.exp(-xs)).max())
    from scipy.special import erfc
    xs2 = np.linspace(0.0, 10.0, 101)
    ref = np.exp(xs2 ** 2) * erfc(xs2)
    e2 = float(np.abs(ml(0.5, 1.0, -xs2) - ref).max() / ref.min())
    checks.append({"name": "ml-exponential", "passed": e1 <= 1e-12,
                   "detail": f"max_abs_err={e1:.2e}"})
    checks.append({"name": "ml-half-order", "passed": e2 <= 1e-9,
                   "detail": f"max_rel_err={e2:.2e}"})
    writer.write_text("ml.csv", _csv_text(
        ["x", "E_05_1"], [(float(x), float(v)) for x, v in
                          zip(xs2, ml(0.5, 1.0, -xs2))]))

    from scipy.special import gamma as gfun
    gaps = [abs(relax_primitive(0.5, 10.0 ** (-k), 1.0) - 1.0 / gfun(1.5))
            for k in range(4, 9)]
    checks.append({"name": "relax-continuity",
                   "passed": bool(all(g < 2e-4 for g in gaps)),
                   "detail": f"max_gap={max(gaps):.2e}"})

    w = l1_weights(1.0, 0.5, 4).weights
    checks.append({"name": "l1-backward-euler-limit",
                   "passed": bool(abs(w[0] - 2.0) < 1e-12
                                  and np.abs(w[1:]).max() < 1e-12),
                   "detail": ""})

    d = 0.4
    q1 = PotentialSpec.constant(0.0, 1024)
    q2 = PotentialSpec.from_callable(
        lambda x: -0.5 * max(0.0, 1 - x / d) ** 2, 1024)
    lams = np.array([5.0, 60.0, 200.0])
    u1 = weyl.wronskian_U(q1, q2, 0.0, 0.0, lams, 1.0)
    worst = 0.0
    for xq in (0.45, 0.7, 0.9):
        u = weyl.wronskian_U(q1, q2, 0.0, 0.0, lams, xq)
        worst = max(worst, float(np.max(np.abs(u - u1) / (1.0 + np.abs(u1)))))
    checks.append({"name": "wronskian-constancy", "passed": worst <= 1e-8,
                   "detail": f"max={worst:.2e}"})

    cs = uniq.CountedSet((np.arange(2000) * np.pi) ** 2, "full-spectrum")
    ratio = uniq.counting(cs, 1e6) / np.sqrt(1e6)
    checks.append({"name": "counting-slope",
                   "passed": bool(abs(ratio - 1 / np.pi) <= 0.05 / np.pi),
                   "detail": f"ratio={ratio:.5f}"})

    cases = [((0.6, 0.7, None), "theorem1-case-i"),
             ((0.4, 0.1, None), "theorem1-case-ii"),
             ((0.4, 0.3, (0.9, 0.2)), "theorem2-conditional"),
             ((0.4, 0.3, None), "unknown"),
             ((0.6, 0.3, None), "unknown")]
    ok = all(uniq.classify_region(dd, xx, cc).verdict == expect
             for (dd, xx, cc), expect in cases)
    checks.append({"name": "region-verdicts", "passed": bool(ok),
                   "detail": f"{len(cases)} cases"})
    verdicts = uniq.region_map(40)
    writer.write_text("region.csv", uniq.region_map_csv(verdicts))
    writer.write_text("region.svg", svgplot.render_heatmap(
        [v.d for v in verdicts], [v.x0 for v in verdicts],
        [v.verdict for v in verdicts], title="uniqueness regions",
        x_label="d", y_label="x0"))

    eta = fwd.DriveSignal.from_callable(lambda t: t * t, 1.0, 256)
    es48 = eigen_system(PotentialSpec.constant(0.0, 1024),
                        RobinPair(0.0, 0.0), 48, grid_size=1024)
    f = fwd.solve_spectral(es48, 0.5, eta, np.array([0.3]), eta.t_grid)
    ker = fwd.kernel_K(es48, 0.5, 0.3, eta.t_grid, 49)
    resid = fwd.duhamel_residual(f, ker, eta)
    dt = eta.t_grid[1]
    scale = float(np.abs(np.cumsum(f.values[0]) * dt).max())
    checks.append({"name": "duhamel-identity",
                   "passed": bool(resid <= 1e-4 * scale),
                   "detail": f"residual={resid:.2e} scale={scale:.2e}"})

    ramp = fwd.DriveSignal(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    fd = fwd.solve_l1_fd(PotentialSpec.constant(0.0, 1024),
                         RobinPair(0.0, 0.0), 1.0, ramp, 64, 128)
    sp = fwd.solve_spectral(es48, 1.0, ramp, fd.x_grid, fd.t_grid)
    sc = np.abs(fd.values).max()
    diff = float(np.abs(sp.values - fd.values).max() / sc)
    budget = sp.tail_bound / sc + 2.0 * (1.0 / 128 + 1.0 / 64 ** 2)
    checks.append({"name": "forward-cross-check",
                   "passed": bool(diff <= 1e-3 + budget),
                   "detail": f"rel_diff={diff:.3e}"})

    q_t = PotentialSpec.constant(-0.3, 256)
    eta_s = fwd.DriveSignal(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.5, 0.5]))
    t_s = np.linspace(0.0, 1.0, 17)[1:]
    d1 = inv.synthesize_data(q_t, 0.2, 1.0, 0.5, eta_s, 0.6, t_s, 0.01, seed,
                             nx=64, nt=64)
    d2 = inv.synthesize_data(q_t, 0.2, 1.0, 0.5, eta_s, 0.6, t_s, 0.01, seed,
                             nx=64, nt=64)
    checks.append({"name": "determinism",
                   "passed": bool(np.array_equal(d1.u, d2.u)),
                   "detail": f"seed={seed}"})
    writer.write_text("observations.csv", _csv_text(
        ["t", "u"], [(float(t), float(u)) for t, u in zip(d1.t, d1.u)]))
    return checks


_RUNNERS = {
    "eigensolve": _run_eigensolve,
    "forward": _run_forward,
    "kernel": _run_kernel,
    "weyl-scan": _run_weyl_scan,
    "counting": _run_counting,
    "region-map": _run_region_map,
    "reconstruct": _run_reconstruct,
    "distinguish": _run_distinguish,
    "verify-all": _run_verify_all,
}


def run(config: ExperimentConfig) -> RunManifest:
    """Dispatch a validated configuration, write artifacts + manifest."""
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    writer = _Writer(config.output_dir)
    status = "ok"
    # the runners see the table's defaults; config_hash sees the user's dict
    params = {key: field.default for key, field in SCHEMA[config.command].items()
              if field.default is not _REQUIRED}
    params.update(config.parameters)
    try:
        checks = _RUNNERS[config.command](params, writer, config.seed)
    except FracspecError as exc:
        checks = [{"name": "execution", "passed": False,
                   "detail": f"{type(exc).__name__}: {exc}"}]
        status = "numerical-failure"
    finished = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    manifest = RunManifest(
        config_hash=hashlib.sha256(config.canonical().encode()).hexdigest(),
        version=__version__, started=started, finished=finished,
        files=writer.records + [{"path": "manifest.json", "sha256": None,
                                 "bytes": None}],
        checks=checks,
        status=status if status != "ok" else
        ("ok" if all(c["passed"] for c in checks) else "check-failure"))
    (writer.out_dir / "manifest.json").write_text(manifest.to_json() + "\n",
                                                  encoding="utf-8")
    return manifest


# ---------------------------------------------------------------------------
# plotting entry point
# ---------------------------------------------------------------------------

def plot(csv_path, plot_spec: dict) -> str:
    """Render a CSV as a polyline or heatmap SVG (deterministic bytes)."""
    if not isinstance(plot_spec, dict):
        raise ValueError("plot spec must be a JSON object")
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
        columns = reader.fieldnames or []
    kind = plot_spec.get("kind", "line")
    need = ("x", "y", "value") if kind == "heatmap" else ("x", "y")
    lacking = [key for key in need if key not in plot_spec]
    if lacking:
        raise MissingColumn(f"plot spec names no {'/'.join(lacking)} column")
    if not rows:
        raise EmptyData(f"{csv_path}: no data rows")

    def col(name):
        if name not in columns:
            raise MissingColumn(f"column {name!r} not in {columns}")
        return [row[name] for row in rows]

    def nums(name):
        try:
            return [float(v) for v in col(name)]
        except ValueError:
            raise ValueError(f"column {name!r} holds a non-number") from None

    if kind == "heatmap":
        xs = nums(plot_spec["x"])
        ys = nums(plot_spec["y"])
        raw = col(plot_spec["value"])
        try:
            values = [float(v) for v in raw]
        except ValueError:
            values = raw
        return svgplot.render_heatmap(xs, ys, values,
                                      title=plot_spec.get("title", ""),
                                      x_label=plot_spec["x"],
                                      y_label=plot_spec["y"])
    x_name = plot_spec["x"]
    y_names = plot_spec["y"]
    if isinstance(y_names, str):
        y_names = [y_names]
    if not (isinstance(y_names, list) and all(isinstance(n, str) for n in y_names)):
        raise ValueError("plot spec 'y' must be a column name or a list of them")
    xs = nums(x_name)
    series = {name: (xs, nums(name)) for name in y_names}
    return svgplot.render_line(series, title=plot_spec.get("title", ""),
                               x_label=x_name, y_label=",".join(y_names),
                               logx=bool(plot_spec.get("logx", False)),
                               logy=bool(plot_spec.get("logy", False)))


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracspec",
        description="Spectral solvers and inverse-problem experiments for "
                    "time-fractional diffusion with Robin boundaries")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
    pv = sub.add_parser("validate")
    pv.add_argument("--config", required=True)
    pp = sub.add_parser("plot")
    pp.add_argument("--csv", required=True)
    pp.add_argument("--spec", required=True)
    pp.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    path = args.spec if args.subcommand == "plot" else args.config
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return 2

    if args.subcommand == "validate":
        errors = validate(text)
        for err in errors:
            print(err)
        return 2 if errors else 0

    if args.subcommand == "plot":
        try:
            svg = plot(args.csv, json.loads(text))
        except (OSError, ValueError, MissingColumn, EmptyData) as exc:
            print(f"plot error: {exc}", file=sys.stderr)
            return 2
        Path(args.out).write_text(svg, encoding="utf-8")
        return 0

    errors = validate(text)
    if errors:
        for err in errors:
            print(err, file=sys.stderr)
        return 2
    cfg = ExperimentConfig.from_text(text, args.out, args.seed)
    if cfg.command != args.subcommand:
        print(f"config command {cfg.command!r} does not match subcommand "
              f"{args.subcommand!r}", file=sys.stderr)
        return 2
    manifest = run(cfg)
    if manifest.status == "numerical-failure":
        return 3
    return 0 if manifest.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
