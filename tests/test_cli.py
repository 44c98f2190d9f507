import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracspec import forward as fwd
from fracspec import inverse as inv
from fracspec import uniqueness as uniq
from fracspec import weyl_toolkit as weyl
from fracspec.cli import (COMMANDS, ExperimentConfig, _build_eta, main, plot, run,
                          validate)
from fracspec.errors import DomainError, EmptyData, FitFailure, MissingColumn
from fracspec.mittleff import ALPHA_MAX, ALPHA_MIN
from fracspec.svgplot import _ticks, _value_color, render_heatmap
from fracspec.sl_core import MIN_GRID, PotentialSpec, RobinPair, eigen_system


def _src_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def cfg_text(command, parameters, seed=0):
    return json.dumps({"command": command, "parameters": parameters,
                       "seed": seed})


MINIMAL_EIGEN = {"q": {"type": "constant", "value": 0.0}, "h": 0.0, "H": 0.0,
                 "n_max": 5, "grid_size": 256}


class TestValidate:
    def test_minimal_eigensolve_valid(self):
        assert validate(cfg_text("eigensolve", MINIMAL_EIGEN)) == []

    def test_missing_alpha_reported(self):
        params = {"q": {"type": "constant", "value": 0.0}, "h": 0.0, "H": 0.0,
                  "eta": {"type": "ramp"}, "T": 1.0, "nt": 64, "nx": 32,
                  "method": "both"}
        errors = validate(cfg_text("forward", params))
        assert any(e.startswith("parameters.alpha") for e in errors)

    def test_range_error_on_x0(self):
        params = {"x0": 1.5, "n_modes": 100, "s_lo": 1.0, "s_hi": 100.0,
                  "s_count": 11}
        errors = validate(cfg_text("counting", params))
        assert any(e.startswith("parameters.x0") for e in errors)

    def test_unknown_keys_rejected(self):
        params = dict(MINIMAL_EIGEN)
        params["bogus"] = 1
        errors = validate(cfg_text("eigensolve", params))
        assert any("parameters.bogus" in e for e in errors)

    def test_bad_json(self):
        assert validate("{not json") != []

    def test_unknown_command(self):
        assert validate(json.dumps({"command": "nope"})) != []

    def test_reconstruct_grid_too_coarse_for_n_max_exits_2(self, tmp_path, capsys):
        # the run would stop in DomainError (exit 3) at its first eigensolve
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(cfg_text("reconstruct", with_params(
            MINIMAL["reconstruct"], grid_size=16, n_max=24)))
        expected = GRID_LIMIT.format(25, 27, 16)
        assert validate(cfg_file.read_text()) == [expected]
        out = tmp_path / "out"
        assert main(["reconstruct", "--config", str(cfg_file), "--out",
                     str(out)]) == 2
        assert capsys.readouterr().err == expected + "\n"
        assert not out.exists()


# one valid config per command, small enough to run in well under a second;
# reconstruct and distinguish keep the default drive, a ramp held from
# t1 = 1 = T on
Q_ZERO = {"type": "constant", "value": 0.0}
MINIMAL = {
    "eigensolve": MINIMAL_EIGEN,
    "forward": {"q": Q_ZERO, "h": 0.0, "H": 0.0, "alpha": 0.5,
                "eta": {"type": "ramp"}, "T": 1.0, "nt": 32, "nx": 32,
                "n_max": 48},
    "kernel": {"q": Q_ZERO, "h": 0.0, "H": 0.0, "alpha": 0.5, "x": 0.4,
               "T": 1.0, "nt": 32, "n_modes": 8},
    "weyl-scan": {"q": Q_ZERO, "h": 0.0, "x": 0.5, "mag_lo": 100.0,
                  "mag_hi": 900.0, "count": 4},
    "counting": {"x0": 0.5, "n_modes": 100, "s_lo": 100.0, "s_hi": 1e4,
                 "s_count": 5},
    "region-map": {"resolution": 10},
    "reconstruct": {"alpha": 0.5, "d": 0.5, "x0": 0.6, "h_true": 0.5,
                    "H": 1.0, "truth": {"type": "constant", "value": -0.3},
                    "M": 1, "gamma": 1e-8, "noise_level": 0.0, "T": 1.0,
                    "n_samples": 4, "n_max": 6, "grid_size": 64,
                    "max_iter": 1, "data_nx": 32, "data_nt": 32},
    "distinguish": {"n_pairs": 1, "d": 0.5, "x0": 0.6, "alpha": 0.5,
                    "H": 1.0, "T": 1.0, "n_samples": 8},
    "verify-all": {},
}


def with_params(base, **changes):
    """base with keys changed; a value of None deletes the key."""
    params = {k: v for k, v in base.items() if k not in changes}
    params.update({k: v for k, v in changes.items() if v is not None})
    return params


SAMPLES_Q = {"type": "samples", "samples": [0.0] * 17, "grid_size": 16}
NAN, INF = float("nan"), float("inf")
GRID_LIMIT = ("parameters: {} modes need grid_size >= {} (got {}): the Pruefer "
              "angle would turn by pi or more across one grid cell")

# (command, parameters, seed, the exact validate() output)
VALIDATION_CASES = [
    ("kernel", MINIMAL["kernel"], 0, []),
    ("kernel", with_params(MINIMAL["kernel"], x=None), 0,
     ["parameters.x: missing"]),
    ("eigensolve", with_params(MINIMAL_EIGEN, h="0"), 0,
     ["parameters.h: number required"]),
    ("eigensolve", with_params(MINIMAL_EIGEN, n_max=2.0), 0,
     ["parameters.n_max: integer required"]),
    ("eigensolve", with_params(MINIMAL_EIGEN, grid_size=8), 0,
     ["parameters.grid_size: must be >= 16"]),
    ("counting", with_params(MINIMAL["counting"], x0=1.5), 0,
     ["parameters.x0: must be <= 1.0"]),
    ("forward", with_params(MINIMAL["forward"], method="exact"), 0,
     ["parameters.method: one of spectral|l1fd|both"]),
    ("eigensolve", with_params(MINIMAL_EIGEN, q={"type": "gauss"}), 0,
     ["parameters.q.type: one of constant|bump|cosine|samples"]),
    ("eigensolve", with_params(MINIMAL_EIGEN, bogus=1), 0,
     ["parameters.bogus: unknown key"]),
    ("eigensolve", with_params(MINIMAL_EIGEN, q={"type": "constant"}), 0,
     ["parameters.q.value: missing"]),
    ("forward", with_params(MINIMAL["forward"],
                            eta={"type": "poly", "power": 2, "t1": 1}), 0,
     ["parameters.eta.t1: unknown key"]),
    ("eigensolve", with_params(MINIMAL_EIGEN, H=INF), 0,
     ["parameters.H: finite number required"]),
    ("eigensolve", with_params(MINIMAL_EIGEN, h=NAN), 0,
     ["parameters.h: finite number required"]),
    ("eigensolve", with_params(MINIMAL_EIGEN, q=dict(
        SAMPLES_Q, samples=[0.0] * 16 + ["x"])), 0,
     ["parameters.q.samples[16]: finite number required"]),
    ("forward", with_params(MINIMAL["forward"], eta={
        "type": "samples", "t": [0.0, "1"], "values": [0.0, 1.0]}), 0,
     ["parameters.eta.t[1]: finite number required"]),
    ("forward", with_params(MINIMAL["forward"], eta={
        "type": "samples", "t": [0.0, 1.0], "values": [0.0, None]}), 0,
     ["parameters.eta.values[1]: finite number required"]),
    ("forward", with_params(MINIMAL["forward"], eta={
        "type": "samples", "t": [], "values": []}), 0,
     ["parameters.eta.t: non-empty list required",
      "parameters.eta.values: non-empty list required"]),
    ("eigensolve", with_params(MINIMAL_EIGEN, q=dict(
        SAMPLES_Q, samples=[0.0] * 16)), 0,
     ["parameters.q.samples: grid_size + 1 = 17 values required, got 16"]),
    ("eigensolve", MINIMAL_EIGEN, True, ["seed: number required"]),
    ("region-map", {"resolution": 10,
                    "certificate": {"A": 0.9, "B": 0.2, "C": 1.0}}, 0,
     ["parameters.certificate.C: unknown key"]),
    ("eigensolve", with_params(MINIMAL_EIGEN, q=dict(
        SAMPLES_Q, samples=[0.0], grid_size=0)), 0,
     ["parameters.q.grid_size: must be >= 16"]),
    ("forward", with_params(MINIMAL["forward"], eta={
        "type": "samples", "t": [0.5, 1.0], "values": [0.0, 1.0]}), 0,
     ["parameters.eta.t[0]: must be 0"]),
    ("forward", with_params(MINIMAL["forward"], eta={
        "type": "samples", "t": [0.0, 1.0, 1.0], "values": [0.0, 1.0, 2.0]}), 0,
     ["parameters.eta.t: must increase"]),
    ("forward", with_params(MINIMAL["forward"], eta={
        "type": "samples", "t": [0.0, 1.0], "values": [0.0, 1.0, 2.0]}), 0,
     ["parameters.eta.values: 2 values required (as many as t), got 3"]),
    ("forward", with_params(MINIMAL["forward"], eta={
        "type": "samples", "t": [0.0, 1.0], "values": [1.0, 1.0]}), 0,
     ["parameters.eta.values[0]: must be 0"]),
    ("counting", with_params(MINIMAL["counting"], s_hi=100.0), 0,
     ["parameters.s_hi: must be > s_lo"]),
    ("weyl-scan", with_params(MINIMAL["weyl-scan"], mag_lo=1000.0), 0,
     ["parameters.mag_hi: must be > mag_lo"]),
    # more modes than the run's grid can count the windings of
    ("forward", with_params(MINIMAL["forward"], n_max=1100), 0,
     [GRID_LIMIT.format(1101, 1103, 1024)]),
    ("eigensolve", with_params(MINIMAL_EIGEN, grid_size=16, n_max=30), 0,
     [GRID_LIMIT.format(31, 33, 16)]),
    ("kernel", with_params(MINIMAL["kernel"], n_modes=2000), 0,
     [GRID_LIMIT.format(2000, 2002, 1024)]),
    # an l1fd run solves no eigenproblem
    ("forward", with_params(MINIMAL["forward"], n_max=1100, method="l1fd"), 0,
     []),
]


# alpha values outside the range ml evaluates, [ALPHA_MIN, ALPHA_MAX] plus 1
ML_ALPHA_HOLES = [1e-9, 0.0099, 0.9997]
ML_COMMANDS = ["forward", "kernel", "reconstruct", "distinguish"]
ML_ALPHA_ERROR = (f"parameters.alpha: must lie in [{ALPHA_MIN:g}, "
                  f"{ALPHA_MAX:.4f}] or be 1 (the range of the Mittag-Leffler "
                  "evaluation)")


class TestAlphaRange:
    @pytest.mark.parametrize("alpha", ML_ALPHA_HOLES)
    @pytest.mark.parametrize("command", ML_COMMANDS)
    def test_alpha_outside_ml_range_exits_2(self, command, alpha, tmp_path,
                                            capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(cfg_text(command, with_params(MINIMAL[command],
                                                          alpha=alpha)))
        assert validate(cfg_file.read_text()) == [ML_ALPHA_ERROR]
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg_file), "--out",
                     str(out)]) == 2
        assert capsys.readouterr().err == ML_ALPHA_ERROR + "\n"
        assert not out.exists()

    @pytest.mark.parametrize("method", ["spectral", "both"])
    def test_forward_methods_that_call_ml_check_alpha(self, method):
        params = with_params(MINIMAL["forward"], alpha=0.9997, method=method)
        assert validate(cfg_text("forward", params)) == [ML_ALPHA_ERROR]

    @pytest.mark.parametrize("alpha", ML_ALPHA_HOLES + [1.0])
    def test_l1fd_forward_keeps_the_unit_interval(self, alpha, tmp_path):
        params = with_params(MINIMAL["forward"], alpha=alpha, method="l1fd")
        assert validate(cfg_text("forward", params)) == []
        manifest = run(ExperimentConfig("forward", params, tmp_path / "f"))
        assert manifest.status == "ok"
        assert validate(cfg_text("forward", with_params(params, alpha=0.0))) \
            == ["parameters.alpha: must be >= 1e-09"]

    @pytest.mark.parametrize("alpha", [ALPHA_MIN, ALPHA_MAX, 1.0])
    @pytest.mark.parametrize("command", ML_COMMANDS)
    def test_ml_range_ends_run(self, command, alpha, tmp_path):
        params = with_params(MINIMAL[command], alpha=alpha)
        assert validate(cfg_text(command, params)) == []
        manifest = run(ExperimentConfig(command, params, tmp_path / "o"))
        assert manifest.status in ("ok", "check-failure")


UNIT_RAMP = fwd.DriveSignal(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
# each bound cli.SCHEMA reads from the library: (command, its parameters at
# n, the bound, the step past it, the library call at n, the error it raises)
SHARED_BOUNDS = {
    "grid": ("eigensolve", lambda n: with_params(MINIMAL_EIGEN, grid_size=n),
             MIN_GRID, -1, lambda n: eigen_system(
                 PotentialSpec.constant(0.0, 64), RobinPair(0.0, 0.0), 2,
                 grid_size=n), DomainError),
    "fd-nodes": ("forward", lambda n: with_params(MINIMAL["forward"], nx=n, nt=n),
                 fwd.MIN_FD_NODES, -1, lambda n: fwd.solve_l1_fd(
                     PotentialSpec.constant(0.0, 64), RobinPair(0.0, 0.0), 0.5,
                     UNIT_RAMP, n, n), DomainError),
    "basis": ("reconstruct", lambda n: with_params(MINIMAL["reconstruct"], M=n),
              inv.MAX_BASIS, 1, lambda n: inv.CandidateParam(np.zeros(n), 0.1),
              DomainError),
    "resolution": ("region-map", lambda n: {"resolution": n}, uniq.MIN_RESOLUTION,
                   -1, uniq.region_map, DomainError),
    "s-grid": ("counting", lambda n: with_params(MINIMAL["counting"], s_count=n),
               uniq.MIN_S_POINTS, -1, lambda n: uniq.counting_bound_check(
                   uniq.free_lambda_set(100, 0.5), 0.5, np.geomspace(1e2, 1e4, n)),
               DomainError),
    "fit": ("weyl-scan", lambda n: with_params(MINIMAL["weyl-scan"], count=n),
            weyl.MIN_FIT_POINTS, -1, lambda n: weyl.m_exponent_fit(
                1j * np.geomspace(1e2, 9e2, n), np.ones(n)), FitFailure),
}


class TestSchema:
    @pytest.mark.parametrize("bound", SHARED_BOUNDS)
    def test_shared_bound_holds_in_validate_and_library(self, bound, tmp_path):
        command, params, limit, past, call, error = SHARED_BOUNDS[bound]
        cfg_file = tmp_path / "cfg.json"
        for n, code in ((limit, 0), (limit + past, 2)):
            cfg_file.write_text(cfg_text(command, params(n)))
            assert main(["validate", "--config", str(cfg_file)]) == code
        call(limit)
        with pytest.raises(error):
            call(limit + past)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_minimal_config_runs_from_the_command_line(self, command,
                                                       tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(cfg_text(command, MINIMAL[command]))
        assert validate(cfg_file.read_text()) == []
        assert main([command, "--config", str(cfg_file), "--out",
                     str(tmp_path / "out")]) in (0, 1)

    @pytest.mark.parametrize("command,params,seed,expected", VALIDATION_CASES)
    def test_validation_messages(self, command, params, seed, expected):
        assert validate(cfg_text(command, params, seed)) == expected

    def test_run_fills_defaults_but_hashes_the_given_parameters(self, tmp_path):
        bare = run(ExperimentConfig("weyl-scan", MINIMAL["weyl-scan"],
                                    tmp_path / "a"))
        full = run(ExperimentConfig("weyl-scan", dict(
            MINIMAL["weyl-scan"], direction="imaginary-axis",
            angle=np.pi / 2), tmp_path / "b"))
        assert bare.config_hash != full.config_hash
        assert ({f["path"]: f["sha256"] for f in bare.files}
                == {f["path"]: f["sha256"] for f in full.files})

    def test_file_and_plot_spec_errors_exit_2(self, tmp_path, capsys):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("t,y\n0,1\n1,2\n")
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        no_y = tmp_path / "no_y.json"
        no_y.write_text(json.dumps({"kind": "line", "x": "t"}))
        not_object = tmp_path / "list.json"
        not_object.write_text("[]")
        line = tmp_path / "line.json"
        line.write_text(json.dumps({"kind": "line", "x": "t", "y": "y"}))
        y_number = tmp_path / "y5.json"
        y_number.write_text(json.dumps({"x": "t", "y": 5}))
        text_cell = tmp_path / "text.csv"
        text_cell.write_text("t,y\n0,a\n")
        missing = str(tmp_path / "missing.json")
        out = str(tmp_path / "out")
        for argv in (["eigensolve", "--config", missing, "--out", out],
                     ["validate", "--config", missing],
                     ["plot", "--csv", str(csv_path), "--spec", missing,
                      "--out", out],
                     ["plot", "--csv", str(csv_path), "--spec", str(bad_json),
                      "--out", out],
                     ["plot", "--csv", str(csv_path), "--spec", str(no_y),
                      "--out", out],
                     ["plot", "--csv", str(csv_path), "--spec",
                      str(not_object), "--out", out],
                     ["plot", "--csv", str(text_cell), "--spec", str(line),
                      "--out", out],
                     ["plot", "--csv", str(csv_path), "--spec", str(y_number),
                      "--out", out]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "Traceback" not in err


class TestRun:
    def test_eigensolve_artifacts(self, tmp_path):
        cfg = ExperimentConfig("eigensolve", MINIMAL_EIGEN, tmp_path / "out")
        manifest = run(cfg)
        assert manifest.all_passed
        names = {f["path"] for f in manifest.files}
        assert {"eigen.csv", "efuncs.csv", "manifest.json"} <= names
        lam = [float(line.split(",")[1]) for line in
               (tmp_path / "out" / "eigen.csv").read_text().splitlines()[1:]]
        assert abs(lam[1] - np.pi ** 2) < 1e-6

    def test_manifest_completeness_and_isolation(self, tmp_path):
        out = tmp_path / "iso"
        before = set((tmp_path).rglob("*"))
        manifest = run(ExperimentConfig("region-map", {"resolution": 12}, out))
        listed = {f["path"] for f in manifest.files}
        on_disk = {p.name for p in out.iterdir()}
        assert on_disk == listed
        outside = set(tmp_path.rglob("*")) - before
        assert all(str(p).startswith(str(out)) for p in outside)

    def test_region_map_row_count_and_svg(self, tmp_path):
        out = tmp_path / "rm"
        run(ExperimentConfig("region-map", {"resolution": 50}, out))
        rows = (out / "region.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 2500
        svg = (out / "region.svg").read_text()
        assert svg.count("<rect") >= 2500

    def test_counting_command(self, tmp_path):
        params = {"x0": 0.5, "n_modes": 2000, "s_lo": 100.0, "s_hi": 1e6,
                  "s_count": 21, "A": 0.49}
        manifest = run(ExperimentConfig("counting", params, tmp_path / "c"))
        assert manifest.all_passed

    def test_kernel_command(self, tmp_path):
        params = {"q": {"type": "constant", "value": 0.0}, "h": 0.0, "H": 0.0,
                  "alpha": 0.5, "x": 0.4, "T": 1.0, "nt": 64, "n_modes": 16,
                  "n_max": 16}
        manifest = run(ExperimentConfig("kernel", params, tmp_path / "k"))
        assert manifest.all_passed

    def test_weyl_scan_command(self, tmp_path):
        params = {"q": {"type": "constant", "value": 0.0}, "h": 0.0, "x": 0.5,
                  "mag_lo": 100.0, "mag_hi": 900.0, "count": 8}
        manifest = run(ExperimentConfig("weyl-scan", params, tmp_path / "w"))
        assert manifest.all_passed
        fit = json.loads((tmp_path / "w" / "fit.json").read_text())
        assert abs(fit["exponent"] - 0.5) < 0.05

    def test_weyl_scan_marches_the_ray_once(self, tmp_path, monkeypatch):
        # scan.csv and fit.json come from one batched march of the ray
        import fracspec.weyl_toolkit as weyl
        batches = []
        march = weyl._propagate

        def counted(q_samples, v0, d0, lams, **kwargs):
            batches.append(np.size(lams))
            return march(q_samples, v0, d0, lams, **kwargs)

        monkeypatch.setattr(weyl, "_propagate", counted)
        params = {"q": {"type": "bump", "depth": 0.8, "width": 0.5}, "h": 0.3,
                  "x": 0.77, "mag_lo": 50.0, "mag_hi": 1500.0, "count": 12}
        manifest = run(ExperimentConfig("weyl-scan", params, tmp_path / "w"))
        assert manifest.all_passed
        assert batches == [12]
        rows = (tmp_path / "w" / "scan.csv").read_text().splitlines()
        assert len(rows) == 1 + 12

    def test_forward_command_cross_check(self, tmp_path):
        params = {"q": {"type": "constant", "value": 0.0}, "h": 0.0, "H": 0.0,
                  "alpha": 0.5, "eta": {"type": "ramp"}, "T": 1.0, "nt": 64,
                  "nx": 32, "method": "both", "n_max": 48}
        manifest = run(ExperimentConfig("forward", params, tmp_path / "f"))
        assert manifest.all_passed
        names = {f["path"] for f in manifest.files}
        assert {"field_spectral.csv", "field_l1fd.csv"} <= names

    def test_reconstruct_command_reports_metrics(self, tmp_path):
        params = {"alpha": 0.5, "d": 0.5, "x0": 0.6, "h_true": 0.5, "H": 1.0,
                  "truth": {"type": "bump", "depth": 0.8, "width": 0.5},
                  "M": 2, "gamma": 1e-8, "noise_level": 0.0, "T": 1.0,
                  "n_samples": 16, "eta": {"type": "ramp-hold", "t1": 0.5},
                  "n_max": 12, "grid_size": 256, "max_iter": 2,
                  "data_nx": 64, "data_nt": 64}
        manifest = run(ExperimentConfig("reconstruct", params, tmp_path / "r"))
        names = {f["path"] for f in manifest.files}
        assert {"result.json", "misfit.csv", "qhat.csv"} <= names
        twin = [c for c in manifest.checks if c["name"] == "twin-rel-L2-q"]
        assert twin and "rel_L2_q=" in twin[0]["detail"]

    def test_verify_all_contract(self, tmp_path):
        manifest = run(ExperimentConfig("verify-all", {}, tmp_path / "v"))
        assert [c["name"] for c in manifest.checks] == [
            "reference-spectrum", "ml-exponential", "ml-half-order",
            "relax-continuity", "l1-backward-euler-limit",
            "wronskian-constancy", "counting-slope", "region-verdicts",
            "duhamel-identity", "forward-cross-check", "determinism"]
        assert all(c["passed"] for c in manifest.checks)
        assert {f["path"] for f in manifest.files if f["sha256"]} == {
            "eigen.csv", "ml.csv", "region.csv", "region.svg",
            "observations.csv"}

    def test_determinism_region_map(self, tmp_path):
        digests = []
        for sub in ("a", "b"):
            m = run(ExperimentConfig("region-map", {"resolution": 15},
                                     tmp_path / sub, seed=3))
            digests.append({f["path"]: f["sha256"] for f in m.files
                            if f["sha256"]})
        assert digests[0] == digests[1]

    def test_exit_codes(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(cfg_text("eigensolve", MINIMAL_EIGEN))
        assert main(["eigensolve", "--config", str(cfg_file), "--out",
                     str(tmp_path / "o1")]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(cfg_text("eigensolve", {"h": -1.0}))
        assert main(["eigensolve", "--config", str(bad), "--out",
                     str(tmp_path / "o2")]) == 2
        assert main(["validate", "--config", str(cfg_file)]) == 0
        assert main(["validate", "--config", str(bad)]) == 2

    # a drive given by samples and a horizon T = 1 they do not end at
    HORIZON = {"q": Q_ZERO, "h": 0.5, "H": 1.0, "alpha": 0.5, "T": 1.0,
               "nt": 64, "nx": 32}
    SHORT_DRIVE = {"type": "samples", "t": [0.0, 0.5], "values": [0.0, 1.0]}

    def test_drive_past_T_is_cut_at_T(self, tmp_path):
        eta = {"type": "samples", "t": [0.0, 0.5, 2.0], "values": [0.0, 1.0, 0.0]}
        cut = _build_eta(eta, 1.0)
        assert cut.t_grid.tolist() == [0.0, 0.5, 1.0]
        assert cut.values.tolist() == [0.0, 1.0, np.interp(1.0, [0.5, 2.0], [1.0, 0.0])]
        # both solvers work on [0, T], so their fields compare node by node
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(cfg_text("forward", dict(
            self.HORIZON, method="both", eta=dict(eta, values=[0.0, 1.0, 1.0]))))
        out = tmp_path / "out"
        assert main(["forward", "--config", str(cfg_file), "--out", str(out)]) == 0
        for name in ("spectral", "l1fd"):
            rows = (out / f"field_{name}.csv").read_text().splitlines()[1:]
            assert max(float(row.split(",")[1]) for row in rows) == 1.0

    @pytest.mark.parametrize("command,params", [
        ("forward", dict(HORIZON, method="l1fd", eta=SHORT_DRIVE)),
        ("distinguish", with_params(MINIMAL["distinguish"], eta=SHORT_DRIVE))],
        ids=["forward-l1fd", "distinguish"])
    def test_drive_ending_before_T_exits_2(self, command, params, tmp_path,
                                           capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(cfg_text(command, params))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "parameters.eta.t: ends at 0.5, before T = 1.0\n"
        assert not out.exists()

    RAMP = fwd.DriveSignal(np.array([0.0, 1.0]), np.array([0.0, 1.0]))

    @pytest.mark.parametrize("q,eta,q_lib,eta_lib", [
        ({"type": "cosine", "mean": -0.5, "amplitude": 0.3, "frequency": 2.0},
         {"type": "ramp"}, PotentialSpec.from_callable(
             lambda x: -0.5 + 0.3 * np.cos(2.0 * np.pi * x), 1024), RAMP),
        ({"type": "samples", "samples": [-0.1 * i for i in range(17)],
          "grid_size": 16},
         {"type": "ramp"}, PotentialSpec(-0.1 * np.arange(17.0), 16), RAMP),
        (Q_ZERO, {"type": "poly", "power": 1.5},
         PotentialSpec.constant(0.0, 1024),
         fwd.DriveSignal.from_callable(lambda t: t ** 1.5, 1.0, 32)),
        (Q_ZERO, {"type": "samples", "t": [0.0, 0.5, 1.0],
                  "values": [0.0, 0.5, 0.5]},
         PotentialSpec.constant(0.0, 1024),
         fwd.DriveSignal(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.5, 0.5]))),
    ], ids=["q-cosine", "q-samples", "eta-poly", "eta-samples"])
    def test_forward_spectral_builds_each_kind(self, q, eta, q_lib, eta_lib,
                                               tmp_path):
        # the field is the library's spectral solve of the (q, eta) that the
        # config describes
        params = with_params(MINIMAL["forward"], q=q, eta=eta,
                             method="spectral")
        manifest = run(ExperimentConfig("forward", params, tmp_path / "f"))
        assert manifest.status == "ok"
        es = eigen_system(q_lib, RobinPair(0.0, 0.0), 48, grid_size=1024,
                          allow_inadmissible=True)
        grid = np.linspace(0.0, 1.0, 33)
        field = fwd.solve_spectral(es, 0.5, eta_lib, grid, grid)
        rows = np.loadtxt(tmp_path / "f" / "field_spectral.csv", delimiter=",",
                          skiprows=1, usecols=(0, 1, 2))
        x, t = np.meshgrid(grid, grid, indexing="ij")
        assert np.array_equal(rows[:, 0], x.ravel())
        assert np.array_equal(rows[:, 1], t.ravel())
        assert rows[:, 2].tolist() == [float(f"{u:.15g}") for u in field.values.ravel()]

    def test_digit_policy(self, tmp_path):
        # a field's u has 15 significant digits; x, t and every other
        # artifact number have 12
        def digits(cell):
            return len(cell.split("e")[0].lstrip("-").replace(".", "").lstrip("0"))

        params = with_params(MINIMAL["forward"], method="both", nx=48, nt=48)
        assert run(ExperimentConfig("forward", params, tmp_path / "f")).all_passed
        assert run(ExperimentConfig("eigensolve", MINIMAL_EIGEN, tmp_path / "e")).all_passed
        for name in ("field_spectral.csv", "field_l1fd.csv"):
            rows = [line.split(",") for line in
                    (tmp_path / "f" / name).read_text().splitlines()[1:]]
            assert [max(digits(r[i]) for r in rows) for i in range(3)] == [12, 12, 15]
        rows = [line.split(",") for line in
                (tmp_path / "e" / "eigen.csv").read_text().splitlines()[1:]]
        assert max(digits(cell) for r in rows for cell in r[1:]) == 12

    def test_numerical_failure_exits_3(self, tmp_path):
        # one mode cannot hold the ramp's tail bound: the run's library
        # error becomes the manifest's execution check
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(cfg_text("forward",
                                     with_params(MINIMAL["forward"], n_max=0)))
        out = tmp_path / "out"
        assert main(["forward", "--config", str(cfg_file), "--out",
                     str(out)]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "numerical-failure"
        [check] = manifest["checks"]
        assert check["name"] == "execution" and not check["passed"]
        assert check["detail"].startswith("TruncationTooCoarse: ")

    def test_import_leaves_out_scipy(self):
        done = subprocess.run([sys.executable, "-c",
                               "import sys, fracspec, fracspec.cli; "
                               "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
                              capture_output=True, text=True, env=_src_env(),
                              timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")

    def test_import_leaves_out_the_jacobian_tangents(self):
        # inverse loads fracspec.tangents with its first Jacobian, so a
        # process that never reconstructs compiles none of it
        done = subprocess.run([sys.executable, "-c",
                               "import sys, fracspec, fracspec.cli; "
                               "print('fracspec.tangents' in sys.modules)"],
                              capture_output=True, text=True, env=_src_env(),
                              timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")

    def test_fd_oracle_loads_scipy_on_first_use(self):
        # the L1-FD oracle imports its LAPACK routines inside the call
        args = ("PotentialSpec.constant(-0.5, 64), RobinPair(0.5, 1.0), 0.5, "
                "DriveSignal.from_callable(lambda t: t, 1.0, 64), 32, 40")
        done = subprocess.run([sys.executable, "-c",
                               "import sys, fracspec, fracspec.cli; "
                               "from fracspec import DriveSignal, PotentialSpec, RobinPair; "
                               "assert 'scipy' not in sys.modules; "
                               f"print(fracspec.solve_l1_fd({args}).values.tobytes().hex()); "
                               "print('scipy.linalg' in sys.modules)"],
                              capture_output=True, text=True, env=_src_env(),
                              timeout=120)
        field = fwd.solve_l1_fd(PotentialSpec.constant(-0.5, 64), RobinPair(0.5, 1.0), 0.5,
                                fwd.DriveSignal.from_callable(lambda t: t, 1.0, 64), 32, 40)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == field.values.tobytes().hex() + "\nTrue\n"

    def test_module_entry_point_validates(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(cfg_text("eigensolve", MINIMAL_EIGEN))
        done = subprocess.run([sys.executable, "-m", "fracspec.cli", "validate",
                               "--config", str(cfg_file)],
                              capture_output=True, text=True, env=_src_env(),
                              timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")

    @pytest.mark.parametrize("amp", [3e5, 1e6])
    def test_deep_well_exits_3_naming_blowup(self, tmp_path, amp):
        # under -W error a RuntimeWarning anywhere would end in a traceback
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(cfg_text("eigensolve", {
            "q": {"type": "cosine", "mean": 0.0, "amplitude": amp,
                  "frequency": 1.0},
            "h": 0.5, "H": 1.0, "n_max": 10, "grid_size": 1024}))
        out = tmp_path / "out"
        done = subprocess.run([sys.executable, "-W", "error", "-m",
                               "fracspec.cli", "eigensolve", "--config",
                               str(cfg_file), "--out", str(out)],
                              capture_output=True, text=True, env=_src_env(),
                              timeout=120)
        assert (done.returncode, done.stderr) == (3, "")
        [check] = json.loads((out / "manifest.json").read_text())["checks"]
        assert check["detail"].startswith("NonFiniteBlowup: ")

    def test_command_mismatch(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(cfg_text("eigensolve", MINIMAL_EIGEN))
        assert main(["region-map", "--config", str(cfg_file), "--out",
                     str(tmp_path / "o")]) == 2


class TestPlot:
    def write_csv(self, path, text):
        path.write_text(text)
        return str(path)

    def test_line_plot(self, tmp_path):
        p = self.write_csv(tmp_path / "d.csv", "t,y\n0,1\n1,2\n2,1.5\n")
        svg = plot(p, {"kind": "line", "x": "t", "y": "y"})
        assert svg.count("<polyline") == 1
        assert svg.startswith("<svg")

    def test_heatmap_rect_count(self, tmp_path):
        rows = ["d,x0,verdict"]
        for i in range(5):
            for j in range(5):
                rows.append(f"{i},{j},unknown")
        p = self.write_csv(tmp_path / "h.csv", "\n".join(rows) + "\n")
        svg = plot(p, {"kind": "heatmap", "x": "d", "y": "x0",
                       "value": "verdict"})
        assert svg.count("<rect") >= 25

    @pytest.mark.parametrize("text", ["x,y,v\n0.5,0.1,1\n0.5,0.2,2\n",
                                      "x,y,v\n0.1,0.5,1\n0.2,0.5,2\n"],
                             ids=["one-x", "one-y"])
    def test_heatmap_with_one_distinct_coordinate(self, tmp_path, text):
        p = self.write_csv(tmp_path / "h.csv", text)
        svg = plot(p, {"kind": "heatmap", "x": "x", "y": "y", "value": "v"})
        assert svg.count('fill="rgb(') == 2

    def test_heatmap_cells_centred_on_axis_values(self):
        svg = render_heatmap([1.0, 2.0, 10.0], [0.0] * 3, [1.0, 2.0, 3.0])
        ticks = re.findall(r'<text x="([-\d.e+]+)" y="448" font-size="11" '
                           r'text-anchor="middle">([-\d.e+]+)</text>', svg)
        (p0, v0), (p1, v1) = [(float(p), float(v)) for p, v in ticks[:2]]
        rects = re.findall(r'<rect x="([-\d.e+]+)" y="[-\d.e+]+" width="([-\d.e+]+)" '
                           r'height="[-\d.e+]+" fill="rgb', svg)
        centres = [float(x) + 0.5 * float(w) for x, w in rects]
        values = [v0 + (c - p0) * (v1 - v0) / (p1 - p0) for c in centres]
        assert values == pytest.approx([1.0, 2.0, 10.0], abs=1e-4)

    def test_missing_column(self, tmp_path):
        p = self.write_csv(tmp_path / "d.csv", "t,y\n0,1\n")
        with pytest.raises(MissingColumn):
            plot(p, {"kind": "line", "x": "t", "y": "z"})

    @pytest.mark.parametrize("text,spec", [
        ("t,u\n0,1\n1,inf\n", {"x": "t", "y": "u"}),
        ("t,u\n0,1\n1,nan\n", {"x": "t", "y": "u"}),
        ("t,x,u\n0,0,1\n1,0,nan\n", {"kind": "heatmap", "x": "t", "y": "x",
                                      "value": "u"}),
    ], ids=["line-inf", "line-nan", "heatmap-nan"])
    def test_non_finite_value_rejected(self, tmp_path, text, spec):
        # main turns the ValueError into exit 2
        p = self.write_csv(tmp_path / "d.csv", text)
        with pytest.raises(ValueError, match="column 'u' holds a non-finite"):
            plot(p, spec)

    @pytest.mark.parametrize("text,spec,column", [
        ("t,u\n0,-1e308\n1,1e308\n", {"x": "t", "y": "u"}, "u"),
        ("t,u\n-1e308,0\n1e308,1\n", {"x": "t", "y": "u"}, "t"),
        ("t,x,u\n-1e308,0,1\n1e308,0,2\n", {"kind": "heatmap", "x": "t",
                                             "y": "x", "value": "u"}, "t"),
    ], ids=["line-y", "line-x", "heatmap-x"])
    def test_span_beyond_double_range_exits_2(self, tmp_path, capsys, text,
                                              spec, column):
        p = self.write_csv(tmp_path / "d.csv", text)
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        out = tmp_path / "out.svg"
        assert main(["plot", "--csv", p, "--spec", str(spec_file), "--out",
                     str(out)]) == 2
        assert f"column {column!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_constant_column_past_2_to_53_plots(self, tmp_path):
        # a pad of 1 rounds away at 1e16, where doubles are 2 apart
        p = self.write_csv(tmp_path / "d.csv", "t,u\n0,1e16\n1,1e16\n")
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"x": "t", "y": "u"}))
        out = tmp_path / "out.svg"
        assert main(["plot", "--csv", p, "--spec", str(spec_file), "--out",
                     str(out)]) == 0
        assert out.read_text().count("<polyline") == 1

    def test_tick_labels_tell_ticks_apart(self, tmp_path):
        # at 1e16 the y ticks lie 2 apart: 6 significant digits print them
        # all as 1e+16, 17 tell them apart
        p = self.write_csv(tmp_path / "d.csv", "t,u\n0,1e16\n1,1e16\n")
        svg = plot(p, {"x": "t", "y": "u"})
        labels = re.findall(r'text-anchor="end">([^<]*)</text>', svg)
        assert len(labels) >= 2 and len(set(labels)) == len(labels)
        # 6 digits stay where they already tell the ticks apart
        p = self.write_csv(tmp_path / "e.csv", "t,u\n0,0\n1,1\n")
        svg = plot(p, {"x": "t", "y": "u"})
        assert re.findall(r'text-anchor="middle">([^<]*)</text>', svg)[:6] \
            == ["0", "0.2", "0.4", "0.6", "0.8", "1"]

    def test_value_colors_across_double_range(self):
        assert [_value_color(v, -1e308, 1e308) for v in (-1e308, 0.0, 1e308)] \
            == ["rgb(5,48,97)", "rgb(247,247,247)", "rgb(103,0,31)"]

    def test_ticks_finer_than_double_spacing_end(self):
        # 1e16 + 1 rounds back to 1e16, so the tick step cannot advance
        assert _ticks(1e16, 1e16 + 4) == [1e16]

    def test_log_nonpositive_diagnostic(self, tmp_path):
        p = self.write_csv(tmp_path / "d.csv", "t,y\n1,1\n2,0\n3,2\n")
        with pytest.raises(EmptyData) as err:
            plot(p, {"kind": "line", "x": "t", "y": "y", "logy": True})
        assert "row 1" in str(err.value)

    def test_deterministic_bytes(self, tmp_path):
        p = self.write_csv(tmp_path / "d.csv", "t,y\n0,1\n1,3\n2,2\n")
        spec = {"kind": "line", "x": "t", "y": "y", "title": "demo"}
        a = plot(p, spec)
        b = plot(p, spec)
        assert hashlib.sha256(a.encode()).digest() == \
            hashlib.sha256(b.encode()).digest()

    def test_cli_plot_roundtrip(self, tmp_path):
        p = self.write_csv(tmp_path / "d.csv", "t,y\n0,1\n1,2\n")
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"kind": "line", "x": "t", "y": "y"}))
        out = tmp_path / "out.svg"
        assert main(["plot", "--csv", p, "--spec", str(spec_file), "--out",
                     str(out)]) == 0
        assert out.read_text().startswith("<svg")
