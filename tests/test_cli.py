import hashlib
import json

import numpy as np
import pytest

from fracspec.cli import COMMANDS, ExperimentConfig, main, plot, run, validate
from fracspec.errors import EmptyData, MissingColumn


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
]


class TestSchema:
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

    def test_missing_column(self, tmp_path):
        p = self.write_csv(tmp_path / "d.csv", "t,y\n0,1\n")
        with pytest.raises(MissingColumn):
            plot(p, {"kind": "line", "x": "t", "y": "z"})

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
