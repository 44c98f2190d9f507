"""Tests of the benchmark tracer.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q fracbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracer  # noqa: E402
from fracspec import forward, inverse, sl_core  # noqa: E402


def _bindings():
    """(module, attribute, value) for every fracspec attribute holding a listed function."""
    listed = {id(getattr(sys.modules[f"fracspec.{key.split('.')[0]}"], key.split(".")[1])):
              key for key in tracer.FUNCTIONS}
    out = []
    for name, module in sorted(sys.modules.items()):
        if name == "fracspec" or name.startswith("fracspec."):
            for attr, value in vars(module).items():
                if id(value) in listed:
                    out.append((module, attr, value))
    return out


def test_every_binding_rebound_and_restored():
    before = _bindings()
    # cross-module bindings that a tracer patching only the defining module misses
    names = {(m.__name__, a) for m, a, _ in before}
    for expected in [("fracspec.inverse", "eigen_system"),
                     ("fracspec.forward", "relax_antiderivative"),
                     ("fracspec.forward", "eval_modes_at"),
                     ("fracspec.uniqueness", "split_spectra"),
                     ("fracspec.mittleff", "ml"),
                     ("fracspec", "reconstruct")]:
        assert expected in names

    with tracer.Tracer():
        for module, attr, original in before:
            wrapped = getattr(module, attr)
            assert wrapped is not original, f"{module.__name__}.{attr} not traced"
            assert wrapped.__wrapped__ is original
    for module, attr, original in before:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} not restored"


def test_internal_calls_are_spanned_and_self_time_excludes_children():
    es = sl_core.eigen_system(sl_core.PotentialSpec.constant(-0.5, 256),
                              sl_core.RobinPair(0.3, 1.0), 24, grid_size=256)
    eta = forward.DriveSignal(np.array([0.0, 0.4, 1.0]), np.array([0.0, 1.0, 0.5]))
    with tracer.Tracer() as tr:
        forward.solve_spectral(es, 0.5, eta, np.linspace(0.0, 1.0, 9),
                               np.linspace(0.0, 1.0, 33), trunc_tol=np.inf)
    stats = tr.per_layer_metrics()
    assert stats["forward.solve_spectral.calls"] == 1
    # solve_spectral -> relax_antiderivative -> ml, through module bindings;
    # the nonuniform drive takes the general path, two calls per mode
    assert stats["mittleff.relax_antiderivative.calls"] == 2 * 25
    assert stats["mittleff.ml.calls"] >= 1
    assert stats["mittleff.ml.points"] == (stats["mittleff.ml.points_series_range"]
                                           + stats["mittleff.ml.points_mid_range"]
                                           + stats["mittleff.ml.points_asymptotic_range"])
    assert stats["forward.solve_spectral.mode_time_pairs"] == 25 * 33
    busy, own = stats["forward.solve_spectral.busy_s"], stats["forward.solve_spectral.self_s"]
    assert 0.0 < own < busy
    assert busy == pytest.approx(own + stats["mittleff.relax_antiderivative.busy_s"], rel=1e-9)


def test_reconstruct_counts_forward_evals():
    grid = 128
    x = np.linspace(0.0, 1.0, grid + 1)
    q_true = sl_core.PotentialSpec(np.where(x <= 0.5, -0.3 * (1 - x / 0.5) ** 2, 0.0), grid)
    eta = forward.DriveSignal(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 1.0]))
    t = np.linspace(0.0, 2.0, 17)[1:]
    data = inverse.synthesize_data(q_true, 0.4, 1.0, 0.5, eta, 0.6, t, nx=64, nt=128)
    spec = inverse.InverseProblemSpec(
        alpha=0.5, x0=0.6, d=0.5, q_tail=sl_core.PotentialSpec.constant(0.0, grid), H=1.0,
        eta=eta, data=data, n_max=12, grid_size=grid)
    with tracer.Tracer() as tr:
        res = inverse.reconstruct(spec, inverse.CandidateParam(np.zeros(2), 0.1), max_iter=1)
    stats = tr.per_layer_metrics()
    assert stats["inverse.reconstruct.gn_iterations"] == res.iterations == 1
    # one base residual, three Jacobian columns, at least one line-search trial
    assert stats["inverse.reconstruct.forward_evals"] == stats["sl_core.eigen_system.calls"] >= 5
    assert stats["inverse.reconstruct.accepted_ratio"] == pytest.approx(
        (len(res.misfit_history) - 1) / stats["inverse.reconstruct.forward_evals"])


def test_untraced_run_never_loads_the_tracer():
    argv = ["run.py", "--workload", "twin-recon", "--seed", "0", "--seconds", "0",
            "--trace", "0"]
    code = (f"import runpy, sys\nsys.argv = {argv!r}\n"
            f"try:\n    runpy.run_path({str(BENCH / 'run.py')!r}, run_name='__main__')\n"
            "except SystemExit as exc:\n    assert exc.code == 0, exc.code\n"
            "print('TRACER_LOADED', 'tracer' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "TRACER_LOADED False"
    result = json.loads(lines[-2])
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
