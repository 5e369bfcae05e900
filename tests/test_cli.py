"""Command-line interface: exit codes, manifests, and output reproducibility."""

import argparse
import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from pplattice import cli, dynamics, oracle
from pplattice.cli import build_parser, main
from pplattice.model import load_reservoir
from pplattice.sampler import PhaseSampleSet, load_samples, mean_occupation


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sha256_file(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_yaml(path, data):
    path.write_text(yaml.safe_dump(data))
    return str(path)


def read_csv_columns(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = []
    for row in rows[1:]:
        try:
            data.append([float(cell) for cell in row])
        except ValueError:
            break  # trailing metadata rows such as divergence_fraction
    return header, np.array(data)


# -- gen-reservoir -----------------------------------------------------------

def test_gen_reservoir_writes_spec_and_manifest(tmp_path, capsys):
    code, out, err = run_cli(capsys, "--out-dir", str(tmp_path), "--seed", "7",
                             "gen-reservoir", "--modes", "4", "--kerr", "0.05")
    assert code == 0
    assert err == ""
    spec_path = tmp_path / "reservoir.yaml"
    spec = load_reservoir(spec_path)
    assert spec.n_modes == 4
    assert (spec.rows, spec.cols) == (2, 2)
    assert spec.kerr == 0.05
    manifest = yaml.safe_load((tmp_path / "reservoir.manifest.yaml").read_text())
    assert manifest["command"] == "gen-reservoir"
    assert manifest["seeds"] == {"reservoir": 7}
    assert manifest["outputs"]["reservoir.yaml"] == sha256_file(spec_path)
    assert "numpy" in manifest["versions"]


def test_gen_reservoir_is_seed_deterministic(tmp_path, capsys):
    digests = {}
    for tag, seed in (("a", 3), ("b", 3), ("c", 4)):
        out_dir = tmp_path / tag
        code, _, _ = run_cli(capsys, "--out-dir", str(out_dir), "--seed", str(seed),
                             "gen-reservoir", "--modes", "6", "--kerr", "0.1")
        assert code == 0
        digests[tag] = sha256_file(out_dir / "reservoir.yaml")
    assert digests["a"] == digests["b"]
    assert digests["a"] != digests["c"]


def test_gen_reservoir_invalid_modes_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "--out-dir", str(tmp_path),
                             "gen-reservoir", "--modes", "0", "--kerr", "0.1")
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "ConfigError"
    assert record["exit_code"] == 2
    assert record["message"]


def test_gen_reservoir_negative_kerr_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "--out-dir", str(tmp_path),
                           "gen-reservoir", "--modes", "2", "--kerr", "-0.1")
    assert code == 2
    assert json.loads(err)["error"] == "ConfigError"


@pytest.mark.parametrize("case", ["gen-reservoir", "sample-state", "sample-coherent",
                                  "wigner"])
def test_negative_seed_exits_2(tmp_path, capsys, case):
    # a coherent sampler and wigner draw nothing, but a given seed is read anyway
    state = write_yaml(tmp_path / "state.yaml", {"kind": "thermal", "nbar": 0.5})
    coherent = write_yaml(tmp_path / "coherent.yaml", {"kind": "coherent", "beta": [0.5, 0.0]})
    argv = {"gen-reservoir": ["gen-reservoir", "--modes", "2", "--kerr", "0.1"],
            "sample-state": ["sample-state", "--state", state, "--count", "8"],
            "sample-coherent": ["sample-state", "--state", coherent, "--count", "8"],
            "wigner": ["wigner", "--state", coherent, "--dim", "8", "--points", "3"]}[case]
    code, out, err = run_cli(capsys, "--out-dir", str(tmp_path / "out"), "--seed", "-1",
                             *argv)
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "ConfigError"
    assert "seed must be an integer >= 0, got -1" in record["message"]
    assert not (tmp_path / "out").exists()


def test_out_dir_that_is_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep")
    code, _, err = run_cli(capsys, "--out-dir", str(taken),
                           "gen-reservoir", "--modes", "2", "--kerr", "0.1")
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "ConfigError"
    assert f"output directory {taken}" in record["message"]
    assert taken.read_text() == "keep"


@pytest.mark.parametrize("taken", ["reservoir.yaml", "reservoir.manifest.yaml"])
def test_output_that_is_a_directory_exits_2(tmp_path, capsys, taken):
    (tmp_path / "out" / taken).mkdir(parents=True)
    code, _, err = run_cli(capsys, "--out-dir", str(tmp_path / "out"),
                           "gen-reservoir", "--modes", "2", "--kerr", "0.1")
    assert code == 2
    record = json.loads(err)        # one record, no traceback
    assert record["error"] == "ConfigError"
    assert f"cannot write {tmp_path / 'out' / taken}" in record["message"]
    assert (tmp_path / "out" / taken).is_dir()


@pytest.mark.parametrize("case", ["directory", "read_only"])
def test_unwritable_manifest_is_refused_before_any_output(tmp_path, capsys, monkeypatch,
                                                          case):
    # the command never runs, so no output is left without the manifest
    # that pins it
    manifest = tmp_path / "out" / "reservoir.manifest.yaml"
    if case == "directory":
        manifest.mkdir(parents=True)
    else:
        manifest.parent.mkdir()
        manifest.write_text("keep")
        monkeypatch.setattr(cli.os, "access", lambda path, mode: path != manifest)
    code, out, err = run_cli(capsys, "--out-dir", str(tmp_path / "out"),
                             "gen-reservoir", "--modes", "2", "--kerr", "0.1")
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "ConfigError"
    assert f"cannot write {manifest}" in record["message"]
    assert out == ""
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["reservoir.manifest.yaml"]


@pytest.mark.parametrize("command", ["gen-reservoir", "stability-scan"])
def test_zero_workers_exits_2(tmp_path, capsys, command):
    # gen-reservoir fans nothing out, but a given --workers is read anyway
    argv = {"gen-reservoir": ["gen-reservoir", "--modes", "2", "--kerr", "0.1"],
            "stability-scan": ["stability-scan", "--config",
                               write_yaml(tmp_path / "scan.yaml", SCAN)]}[command]
    code, _, err = run_cli(capsys, "--out-dir", str(tmp_path / "out"), "--workers", "0",
                           *argv)
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "ConfigError"
    assert "workers must be an integer >= 1, got 0" in record["message"]
    assert not (tmp_path / "out").exists()


# -- sample-state ------------------------------------------------------------

def test_sample_state_coherent_rows_are_identical(tmp_path, capsys):
    state = write_yaml(tmp_path / "state.yaml",
                       {"kind": "coherent", "beta": [0.5, -0.25]})
    code, _, _ = run_cli(capsys, "--out-dir", str(tmp_path), "--seed", "1",
                         "sample-state", "--state", state, "--count", "25")
    assert code == 0
    samples = load_samples(tmp_path / "state.samples")
    assert samples.alpha.shape == (25,)
    assert np.all(samples.alpha == 0.5 - 0.25j)
    assert np.all(samples.alpha_tilde == 0.5 - 0.25j)


def test_sample_state_squeezed_occupation_matches_formula(tmp_path, capsys):
    state = write_yaml(tmp_path / "state.yaml",
                       {"kind": "squeezed_vacuum", "r": 1.0, "theta": 0.0})
    code, _, _ = run_cli(capsys, "--out-dir", str(tmp_path), "--seed", "21",
                         "sample-state", "--state", state, "--count", "30000")
    assert code == 0
    value, se = mean_occupation(load_samples(tmp_path / "state.samples"))
    assert se > 0
    assert abs(value - math.sinh(1.0) ** 2) < 3 * se


def test_sample_state_zero_norm_cat_exits_2(tmp_path, capsys):
    state = write_yaml(tmp_path / "state.yaml",
                       {"kind": "cat", "beta": [0.0, 0.0], "cat_phase": math.pi})
    code, _, err = run_cli(capsys, "--out-dir", str(tmp_path), "--seed", "1",
                           "sample-state", "--state", state, "--count", "10")
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "ConfigError"
    assert not (tmp_path / "state.samples").exists()


def test_sample_state_unknown_kind_exits_2(tmp_path, capsys):
    state = write_yaml(tmp_path / "state.yaml", {"kind": "gkp"})
    code, _, err = run_cli(capsys, "--out-dir", str(tmp_path),
                           "sample-state", "--state", state, "--count", "10")
    assert code == 2
    assert json.loads(err)["exit_code"] == 2


@pytest.mark.parametrize("beta", [[1], [1.0, 0.0, 0.0], ["1", "0"], "one", [True, 0], "1"],
                         ids=["one_entry", "three_entries", "text_entries", "text",
                              "boolean_entry", "quoted_number"])
def test_sample_state_malformed_beta_exits_2(tmp_path, capsys, beta):
    state = write_yaml(tmp_path / "state.yaml", {"kind": "coherent", "beta": beta})
    code, _, err = run_cli(capsys, "--out-dir", str(tmp_path / "out"),
                           "sample-state", "--state", state, "--count", "10")
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "ConfigError"
    assert "beta" in record["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("state, key", [
    ({"kind": "squeezed_vacuum", "r": "strong"}, "r"),
    ({"kind": "thermal", "nbar": True}, "nbar"),
    ({"kind": "squeezed_vacuum", "r": 0.5, "theta": "0.1"}, "theta"),
], ids=["word_r", "boolean_nbar", "quoted_theta"])
def test_sample_state_non_numeric_field_exits_2(tmp_path, capsys, state, key):
    path = write_yaml(tmp_path / "state.yaml", state)
    code, _, err = run_cli(capsys, "--out-dir", str(tmp_path / "out"),
                           "sample-state", "--state", path, "--count", "10")
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "ConfigError"
    assert record["message"].startswith(f"{key} must be a number")
    assert not (tmp_path / "out").exists()


def test_sample_state_missing_file_exits_2(tmp_path, capsys):
    (tmp_path / "dir.yaml").mkdir()
    for state, message in (("nope.yaml", "file not found: "), ("dir.yaml", "cannot read ")):
        code, _, err = run_cli(capsys, "--out-dir", str(tmp_path / "out"), "sample-state",
                               "--state", str(tmp_path / state), "--count", "5")
        assert code == 2
        record = json.loads(err)
        assert record["error"] == "ConfigError"
        assert record["message"].startswith(f"{message}{tmp_path / state}")
    assert not (tmp_path / "out").exists()


# -- simulate ----------------------------------------------------------------

# a 1x3 chain whose unit-radius hopping couples modes 0 and 2, which share no edge
SKIPPING_CHAIN = {"rows": 1, "cols": 3, "edges": [[0, 1], [1, 2]],
                  "hopping": [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                  "detuning": [0.0] * 3, "drive": [[0.5, 0.0]] * 3, "loss": [1.0] * 3,
                  "input_weights": [0.0] * 3, "eta": 0.0}


def simulate_setup(tmp_path, capsys, kerr="0.0", drive="0.5"):
    run_cli(capsys, "--out-dir", str(tmp_path), "--seed", "3",
            "gen-reservoir", "--modes", "2", "--kerr", kerr, "--drive", drive)
    state = write_yaml(tmp_path / "state.yaml", {"kind": "thermal", "nbar": 0.5})
    run_cli(capsys, "--out-dir", str(tmp_path), "--seed", "5",
            "sample-state", "--state", state, "--count", "20")
    return str(tmp_path / "reservoir.yaml"), str(tmp_path / "state.samples")


def test_simulate_same_seed_reproduces_csv(tmp_path, capsys):
    reservoir, samples = simulate_setup(tmp_path, capsys)
    digests = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        code, out, _ = run_cli(capsys, "--out-dir", str(out_dir), "--seed", "11",
                               "simulate", "--reservoir", reservoir,
                               "--samples", samples, "--t-relax", "1.0",
                               "--t-final", "1.0", "--dt", "0.05", "--stride", "4")
        assert code == 0
        assert "divergence fraction 0.0000" in out
        digests.append(sha256_file(out_dir / "occupations.csv"))
    assert digests[0] == digests[1]


def test_simulate_csv_has_divergence_footer(tmp_path, capsys):
    reservoir, samples = simulate_setup(tmp_path, capsys)
    run_cli(capsys, "--out-dir", str(tmp_path), "--seed", "11",
            "simulate", "--reservoir", reservoir, "--samples", samples,
            "--t-relax", "1.0", "--t-final", "1.0", "--dt", "0.05",
            "--stride", "4")
    text = (tmp_path / "occupations.csv").read_text()
    assert "divergence_fraction,0.0" in text
    assert "n_trajectories,20" in text
    header, data = read_csv_columns(tmp_path / "occupations.csv")
    assert header[0] == "time"
    assert data.shape[0] == 11


def test_simulate_tiny_threshold_exits_3(tmp_path, capsys, monkeypatch):
    reservoir, samples = simulate_setup(tmp_path, capsys)
    monkeypatch.setattr(dynamics, "DIVERGENCE_THRESHOLD", 1e-12)
    code, _, err = run_cli(capsys, "--out-dir", str(tmp_path / "x"), "--seed", "2",
                           "simulate", "--reservoir", reservoir, "--samples", samples,
                           "--t-relax", "1.0", "--t-final", "1.0",
                           "--dt", "0.05", "--stride", "4")
    assert code == 3
    record = json.loads(err)
    assert record["error"] == "DivergenceError"
    assert record["exit_code"] == 3


def test_simulate_bad_stride_exits_2(tmp_path, capsys):
    reservoir, samples = simulate_setup(tmp_path, capsys)
    code, _, err = run_cli(capsys, "--out-dir", str(tmp_path / "x"),
                           "simulate", "--reservoir", reservoir,
                           "--samples", samples, "--t-relax", "1.0",
                           "--t-final", "1.0", "--dt", "0.3", "--stride", "4")
    assert code == 2
    assert json.loads(err)["error"] == "ConfigError"


def test_simulate_non_finite_duration_exits_2(tmp_path, capsys):
    reservoir, samples = simulate_setup(tmp_path, capsys)
    code, _, err = run_cli(capsys, "--out-dir", str(tmp_path / "x"),
                           "simulate", "--reservoir", reservoir,
                           "--samples", samples, "--t-relax", "nan",
                           "--t-final", "1.0", "--dt", "0.05", "--stride", "4")
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "ConfigError"
    assert "t_relax" in record["message"]


@pytest.mark.parametrize("content, message", [
    (None, "bad.yaml"), ("rows: [1, 2\n", "bad.yaml"), ("- 1\n- 2\n", "bad.yaml"),
    # one malformed value in an otherwise valid reservoir
    ({"rows": "two"}, "malformed reservoir"),
    ({"drive": [[0.5, 0.0, 1.0], [0.5, 0.0]]}, "malformed reservoir"),
    ({"kerr": "weak"}, "malformed reservoir"),
    ({"hopping": [[0.0, 1.0], [1.0]]}, "malformed reservoir"),
    # a fraction or a boolean where a number is read is refused, not truncated
    ({"rows": 1.7}, "rows must be an integer"),
    ({"seed": 3.9}, "seed must be an integer"),
    ({"seed": -1}, "seed must be an integer >= 0"),
    ({"rows": True}, "rows must be an integer"),
    ({"kerr": True}, "kerr must be a number"),
    # so is text or a boolean inside an array field or a drive pair
    ({"loss": ["1.0", 1.0]}, "loss must be a number"),
    ({"loss": [1.0, True]}, "loss must be a number"),
    ({"drive": [[0.5, True], [0.5, 0.0]]}, "drive must be a number"),
    # edges that are not the lattice's, or hopping between modes that share none
    ({"edges": [], "hopping": [[0.0, 5.0], [5.0, 0.0]]}, "nearest-neighbour edges"),
    (SKIPPING_CHAIN, "share no lattice edge"),
    # eta is sum(input_weights**2)
    ({"eta": 0.5}, "eta does not equal"),
    # values that parse but that no reservoir has
    ({"hopping": [[0.0, 1.0], [0.5, 0.0]]}, "hopping matrix must be symmetric"),
    ({"detuning": [math.nan, 0.0]}, "detuning contains non-finite entries"),
    ({"drive": [[math.inf, 0.0], [0.5, 0.0]]}, "drive contains non-finite entries"),
    ({"kerr": math.nan}, "kerr and source_loss must be finite"),
    ({"input_weights": [1.5, 0.0]}, "input weights must lie in [0, 1]"),
    ({"loss": [1.0]}, "loss has shape (1,), expected (2,)"),
    ({"format": "pplattice-reservoir-v0"}, "unknown reservoir format"),
    ({"hopping": [[0.0, 0.5], [0.5, 0.0]]}, "hopping spectral radius"),
], ids=["missing", "unparsable", "not_a_mapping", "word_rows", "drive_not_a_pair",
        "word_kerr", "ragged_hopping", "fractional_rows", "fractional_seed", "negative_seed",
        "boolean_rows", "boolean_kerr", "text_loss", "boolean_loss", "boolean_drive",
        "no_edges", "hopping_off_edges", "wrong_eta", "asymmetric_hopping", "nan_detuning",
        "inf_drive", "nan_kerr", "input_weight_over_1", "short_loss", "old_format",
        "hopping_radius_half"])
def test_simulate_bad_reservoir_file_exits_2(tmp_path, capsys, content, message):
    good, samples = simulate_setup(tmp_path, capsys)
    reservoir = tmp_path / "bad.yaml"
    if isinstance(content, dict):
        content = yaml.safe_dump({**yaml.safe_load(Path(good).read_text()), **content})
    if content is not None:
        reservoir.write_text(content)
    code, _, err = run_cli(capsys, "--out-dir", str(tmp_path / "x"), "simulate",
                           "--reservoir", str(reservoir), "--samples", samples)
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "ConfigError"
    assert message in record["message"]
    assert not (tmp_path / "x").exists()


def test_simulate_missing_or_empty_samples_exits_2(tmp_path, capsys):
    reservoir, _ = simulate_setup(tmp_path, capsys)
    empty = tmp_path / "empty.samples"
    empty.write_bytes(PhaseSampleSet(alpha=np.zeros(0, complex),
                                     alpha_tilde=np.zeros(0, complex)).to_bytes())
    (tmp_path / "dir.samples").mkdir()
    for samples, message in ((tmp_path / "nope.samples", "not found"),
                             (tmp_path / "dir.samples", f"cannot read {tmp_path / 'dir.samples'}"),
                             (empty, "trajectory count")):
        code, _, err = run_cli(capsys, "--out-dir", str(tmp_path / "x"), "simulate",
                               "--reservoir", reservoir, "--samples", str(samples),
                               "--t-relax", "1.0", "--t-final", "1.0")
        assert code == 2
        record = json.loads(err)
        assert record["error"] == "ConfigError"
        assert message in record["message"]
    assert not (tmp_path / "x" / "occupations.csv").exists()


# -- stability-scan ----------------------------------------------------------

def test_stability_scan_writes_grid_csv(tmp_path, capsys):
    config = write_yaml(tmp_path / "scan.yaml", {
        "f": {"start": 0.0, "stop": 2.0, "count": 3},
        "kerr": {"start": 0.0, "stop": 0.5, "count": 2},
        "fixed": {"loss": 1.0},
        "trajectories": 16, "horizon": 3.0, "dt": 0.05})
    code, out, _ = run_cli(capsys, "--out-dir", str(tmp_path), "--seed", "11",
                           "stability-scan", "--config", config)
    assert code == 0
    header, data = read_csv_columns(tmp_path / "stability.csv")
    assert header == ["f", "kerr", "convergent_fraction"]
    assert data.shape == (6, 3)
    linear = data[data[:, 1] == 0.0]
    assert linear.shape[0] == 3
    assert np.all(linear[:, 2] == 1.0)
    assert np.all((data[:, 2] >= 0.0) & (data[:, 2] <= 1.0))
    code, _, _ = run_cli(capsys, "--out-dir", str(tmp_path / "w2"), "--seed", "11",
                         "--workers", "2", "stability-scan", "--config", config)
    assert code == 0
    assert sha256_file(tmp_path / "w2" / "stability.csv") == sha256_file(tmp_path / "stability.csv")


def test_stability_scan_missing_axis_exits_2(tmp_path, capsys):
    config = write_yaml(tmp_path / "scan.yaml",
                        {"f": {"start": 0.0, "stop": 2.0, "count": 3}})
    code, _, err = run_cli(capsys, "--out-dir", str(tmp_path),
                           "stability-scan", "--config", config)
    assert code == 2
    assert "axis" in json.loads(err)["message"]


def test_stability_scan_zero_dt_exits_2(tmp_path, capsys):
    config = write_yaml(tmp_path / "scan.yaml", {
        "f": {"start": 0.0, "stop": 2.0, "count": 3},
        "kerr": {"start": 0.0, "stop": 0.5, "count": 2},
        "trajectories": 16, "horizon": 3.0, "dt": 0})
    code, _, err = run_cli(capsys, "--out-dir", str(tmp_path),
                           "stability-scan", "--config", config)
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "ConfigError"
    assert "dt" in record["message"]
    assert not (tmp_path / "stability.csv").exists()


def test_stability_scan_zero_horizon_exits_2(tmp_path, capsys):
    config = write_yaml(tmp_path / "scan.yaml", {**SCAN, "horizon": 0})
    code, _, err = run_cli(capsys, "--out-dir", str(tmp_path),
                           "stability-scan", "--config", config)
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "ConfigError"
    assert record["message"].startswith("horizon must be at least one step")
    assert not (tmp_path / "stability.csv").exists()


# -- oracle-compare ----------------------------------------------------------

def test_oracle_compare_drive_only_matches_master_equation(tmp_path, capsys):
    run_cli(capsys, "--out-dir", str(tmp_path), "--seed", "2",
            "gen-reservoir", "--modes", "1", "--kerr", "0.0", "--drive", "0.5")
    code, out, _ = run_cli(capsys, "--out-dir", str(tmp_path), "--seed", "2",
                           "oracle-compare",
                           "--reservoir", str(tmp_path / "reservoir.yaml"),
                           "--dim", "12", "--trajectories", "3",
                           "--t-relax", "6.0", "--t-final", "0.0",
                           "--dt", "0.05", "--stride", "20")
    assert code == 0
    assert "n/a (ensemble is deterministic)" in out
    header, data = read_csv_columns(tmp_path / "compare.csv")
    assert header == ["time", "ppm_n0", "oracle_n0", "stderr_n0"]
    assert np.max(np.abs(data[:, 1] - data[:, 2])) < 1e-6
    assert np.all(data[:, 3] == 0.0)


def test_oracle_compare_cascade_injection_matches(tmp_path, capsys):
    run_cli(capsys, "--out-dir", str(tmp_path), "--seed", "3",
            "gen-reservoir", "--modes", "1", "--kerr", "0.0", "--drive", "0.3")
    state = write_yaml(tmp_path / "state.yaml",
                       {"kind": "coherent", "beta": [0.8, 0.0]})
    code, out, _ = run_cli(capsys, "--out-dir", str(tmp_path), "--seed", "3",
                           "oracle-compare",
                           "--reservoir", str(tmp_path / "reservoir.yaml"),
                           "--state", state, "--dim", "14", "--source-dim", "12",
                           "--trajectories", "2", "--t-relax", "1.0",
                           "--t-final", "3.0", "--dt", "0.005", "--stride", "100")
    assert code == 0
    header, data = read_csv_columns(tmp_path / "compare.csv")
    assert np.max(np.abs(data[:, 1] - data[:, 2])) < 1e-6


def test_oracle_compare_three_modes_exits_2(tmp_path, capsys):
    run_cli(capsys, "--out-dir", str(tmp_path), "--seed", "1",
            "gen-reservoir", "--modes", "3", "--kerr", "0.05")
    code, _, err = run_cli(capsys, "--out-dir", str(tmp_path),
                           "oracle-compare",
                           "--reservoir", str(tmp_path / "reservoir.yaml"))
    assert code == 2
    # no source is attached, so the estimate is 12**3 with no source factor
    assert "3 modes at d=12 would need a composite dimension of 1728" in json.loads(err)["message"]


@pytest.mark.parametrize("dim, message", [("70", "exceeds"), ("0", "truncation"),
                                          ("1", "truncation")],
                         ids=["over_limit", "zero", "one"])
def test_oracle_compare_oversized_dimension_exits_2(tmp_path, capsys, monkeypatch, dim,
                                                    message):
    run_cli(capsys, "--out-dir", str(tmp_path), "--seed", "1",
            "gen-reservoir", "--modes", "2", "--kerr", "0.05")

    def no_ensemble(*args, **kwargs):
        raise AssertionError("the ensemble ran before the dimension check")

    monkeypatch.setattr(cli, "run_ensemble", no_ensemble)
    code, _, err = run_cli(capsys, "--out-dir", str(tmp_path / "out"),
                           "oracle-compare",
                           "--reservoir", str(tmp_path / "reservoir.yaml"),
                           "--dim", dim)
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "ConfigError"
    assert message in record["message"]
    assert not (tmp_path / "out").exists()


# -- wigner ------------------------------------------------------------------

def test_wigner_vacuum_csv_peaks_at_inverse_pi(tmp_path, capsys):
    state = write_yaml(tmp_path / "state.yaml", {"kind": "coherent", "beta": [0.0, 0.0]})
    code, _, _ = run_cli(capsys, "--out-dir", str(tmp_path), "wigner",
                         "--state", state, "--dim", "20", "--points", "41")
    assert code == 0
    header, data = read_csv_columns(tmp_path / "wigner.csv")
    assert header == ["q", "p", "wigner"]
    assert data.shape == (41 * 41, 3)
    assert abs(data[:, 2].max() - 1.0 / math.pi) < 1e-6
    assert data[:, 2].min() > -1e-12


def test_wigner_cat_csv_shows_negative_fringes(tmp_path, capsys):
    state = write_yaml(tmp_path / "state.yaml", {"kind": "cat", "beta": [2.0, 0.0]})
    code, _, _ = run_cli(capsys, "--out-dir", str(tmp_path), "wigner",
                         "--state", state, "--dim", "40", "--points", "61",
                         "--q-min", "-5.0", "--q-max", "5.0")
    assert code == 0
    _, data = read_csv_columns(tmp_path / "wigner.csv")
    assert data[:, 2].min() < -0.1


def test_wigner_dimension_over_the_limit_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(oracle, "MAX_DIM", 30)
    state = write_yaml(tmp_path / "state.yaml", {"kind": "coherent", "beta": [0.5, 0.0]})
    code, _, err = run_cli(capsys, "--out-dir", str(tmp_path / "out"), "wigner",
                           "--state", state, "--dim", "31", "--points", "11")
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "ConfigError"
    assert "exceeds" in record["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bounds, message", [
    (["--q-min", "nan"], "q grid"), (["--q-min", "inf"], "q grid"),
    (["--q-min", "3", "--q-max", "-3"], "q grid"),
    # the last --points given is the one read
    (["--points", "-1"], "--points must be an integer >= 2"),
    (["--points", "1"], "--points must be an integer >= 2"),
], ids=["nan", "inf", "reversed", "negative_points", "one_point"])
def test_wigner_bad_grid_exits_2(tmp_path, capsys, bounds, message):
    state = write_yaml(tmp_path / "state.yaml", {"kind": "coherent", "beta": [0.0, 0.0]})
    code, _, err = run_cli(capsys, "--out-dir", str(tmp_path), "wigner",
                           "--state", state, "--dim", "10", "--points", "11", *bounds)
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "ConfigError"
    assert message in record["message"]
    assert not (tmp_path / "wigner.csv").exists()


# -- pipeline ----------------------------------------------------------------

MICRO_CLASSIFY = {
    "task": "classify",
    "seed": 9,
    "reservoir": {"modes": 2, "kerr": 0.05},
    "counts": {"train": 2, "test": 1},
    "trajectories": 40,
    "runs": 1,
    "schedule": {"t_relax": 2.0, "t_final": 2.0, "dt": 0.05, "record_stride": 20},
    "hyperparams": {"epochs": 40},
}
# a sweep draws one reservoir per size, so its reservoir block names no mode count
MICRO_SWEEP = {**MICRO_CLASSIFY, "task": "classify_sweep", "reservoir": {"kerr": 0.05}}


def test_pipeline_classify_micro_run_is_reproducible(tmp_path, capsys):
    config = write_yaml(tmp_path / "experiment.yaml", MICRO_CLASSIFY)
    results = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        code, _, _ = run_cli(capsys, "--out-dir", str(out_dir),
                             "pipeline", "--config", config)
        assert code == 0
        metrics = yaml.safe_load((out_dir / "metrics.yaml").read_text())
        results.append((metrics, sha256_file(out_dir / "dataset.csv"),
                        sha256_file(out_dir / "model_run0.yaml")))
    assert results[0] == results[1]
    metrics = results[0][0]
    assert metrics["task"] == "classify"
    assert metrics["records"] == 9
    assert len(metrics["accuracies"]) == 1
    assert metrics["baseline_uniform"] == 1.0 / 3.0
    conf = (tmp_path / "a" / "confusion_run0.csv").read_text().splitlines()
    assert conf[0].startswith("true\\predicted,")
    assert (tmp_path / "a" / "curves_run0.csv").exists()
    assert (tmp_path / "a" / "pipeline.manifest.yaml").exists()


def test_pipeline_on_a_reservoir_file_matches_the_drawn_reservoir(tmp_path, capsys):
    # a file from gen-reservoir stands for the reservoir block that draws it
    run_cli(capsys, "--out-dir", str(tmp_path), "--seed", "7",
            "gen-reservoir", "--modes", "2", "--kerr", "0.05")
    outputs = []
    for tag, reservoir in (("file", {"file": str(tmp_path / "reservoir.yaml")}),
                           ("drawn", {"modes": 2, "kerr": 0.05, "seed": 7})):
        config = write_yaml(tmp_path / f"{tag}.yaml", {**MICRO_CLASSIFY, "reservoir": reservoir})
        code, _, _ = run_cli(capsys, "--out-dir", str(tmp_path / tag),
                             "pipeline", "--config", config)
        assert code == 0
        outputs.append([(tmp_path / tag / name).read_bytes()
                        for name in ("dataset.csv", "metrics.yaml", "model_run0.yaml")])
    assert outputs[0] == outputs[1]


def test_pipeline_regression_micro_run_writes_metrics(tmp_path, capsys):
    config = write_yaml(tmp_path / "experiment.yaml", {
        "task": "predict_squeezing",
        "seed": 4,
        "reservoir": {"modes": 2, "kerr": 0.05},
        "counts": {"train": 6, "test": 2},
        "trajectories": 30,
        "schedule": {"t_relax": 2.0, "t_final": 2.0, "dt": 0.05,
                     "record_stride": 20},
        "hyperparams": {"epochs": 200},
    })
    code, out, _ = run_cli(capsys, "--out-dir", str(tmp_path),
                           "pipeline", "--config", config)
    assert code == 0
    metrics = yaml.safe_load((tmp_path / "metrics.yaml").read_text())
    assert metrics["task"] == "predict_squeezing"
    assert metrics["test_mse"] >= 0.0
    assert metrics["train_target_variance"] > 0.0
    assert isinstance(metrics["beats_mean_baseline"], bool)
    errors = (tmp_path / "squared_errors.csv").read_text().splitlines()
    assert errors[0] == "target_re,target_im,predicted_re,predicted_im,squared_error"
    assert len(errors) == 3
    manifest = yaml.safe_load((tmp_path / "pipeline.manifest.yaml").read_text())
    assert manifest["seeds"]["runs"] == [1004]      # the one readout's seed


def test_pipeline_unknown_task_exits_2(tmp_path, capsys):
    config = write_yaml(tmp_path / "experiment.yaml", {"task": "frobnicate"})
    code, _, err = run_cli(capsys, "--out-dir", str(tmp_path),
                           "pipeline", "--config", config)
    assert code == 2
    assert "task" in json.loads(err)["message"]


def test_pipeline_fractional_batch_size_exits_2(tmp_path, capsys):
    config = write_yaml(tmp_path / "experiment.yaml",
                        {**MICRO_CLASSIFY, "hyperparams": {"epochs": 40, "batch_size": 1.5}})
    code, _, err = run_cli(capsys, "--out-dir", str(tmp_path),
                           "pipeline", "--config", config)
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "ConfigError"
    assert "hyperparams.batch_size" in record["message"]
    assert not (tmp_path / "dataset.csv").exists()


def test_pipeline_classify_sweep_micro_run_pins_each_size(tmp_path, capsys):
    sweep = {**MICRO_CLASSIFY, "task": "classify_sweep", "sweep_modes": [2, 3],
             "runs": 2, "reservoir": {"kerr": 0.05, "seed": 7}}
    config = write_yaml(tmp_path / "sweep.yaml", sweep)
    outputs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        code, _, _ = run_cli(capsys, "--out-dir", str(out_dir),
                             "pipeline", "--config", config)
        assert code == 0
        manifest = yaml.safe_load((out_dir / "pipeline.manifest.yaml").read_text())
        for name, digest in manifest["outputs"].items():
            assert digest == sha256_file(out_dir / name)
        outputs.append(manifest["outputs"])
    assert outputs[0] == outputs[1]

    out_dir = tmp_path / "a"
    assert {"dataset_n2.csv", "dataset_n3.csv", "metrics.yaml",
            "model_n3_run1.yaml"} <= set(outputs[0])
    header, data = read_csv_columns(out_dir / "accuracy_vs_n.csv")
    assert header == ["n_modes", "run", "accuracy"]
    assert [tuple(row) for row in data[:, :2]] == [(2, 0), (2, 1), (3, 0), (3, 1)]
    metrics = yaml.safe_load((out_dir / "metrics.yaml").read_text())
    assert metrics["task"] == "classify_sweep"
    assert [s["n_modes"] for s in metrics["sizes"]] == [2, 3]
    for size, accuracies in zip(metrics["sizes"], data[:, 2].reshape(2, 2)):
        path = out_dir / f"dataset_n{size['n_modes']}.csv"
        with open(path) as fh:
            rows = list(csv.DictReader(fh.readlines()[1:]))    # below the '#task' line
        assert size["records"] == len(rows) == 9
        assert size["flagged"] == sum(int(row["flagged"]) for row in rows)
        # content_hash is the sha256 of the text written to the file
        assert size["dataset_hash"] == sha256_file(path)
        assert size["accuracies"] == list(accuracies)

    # the sweep in pieces: each size run alone writes bit-identical per-size
    # files, so a sweep run one size at a time is a record of the whole sweep
    for n in (2, 3):
        piece = write_yaml(tmp_path / f"sweep_n{n}.yaml", {**sweep, "sweep_modes": [n]})
        out_dir = tmp_path / f"alone_n{n}"
        code, _, _ = run_cli(capsys, "--out-dir", str(out_dir), "pipeline", "--config", piece)
        assert code == 0
        alone = yaml.safe_load((out_dir / "pipeline.manifest.yaml").read_text())["outputs"]
        per_size = {name: digest for name, digest in outputs[0].items()
                    if re.search(rf"_n{n}[._]", name)}
        assert len(per_size) == 1 + 3 * 2          # dataset, then model, curves, confusion per run
        assert {name for name in alone if re.search(r"_n\d", name)} == set(per_size)
        assert per_size.items() <= alone.items()


@pytest.mark.parametrize("block", ["counts", "schedule", "hyperparams", "reservoir"])
def test_pipeline_non_mapping_block_exits_2(tmp_path, capsys, block):
    config = write_yaml(tmp_path / "experiment.yaml", {**MICRO_CLASSIFY, block: [1, 2]})
    code, _, err = run_cli(capsys, "--out-dir", str(tmp_path),
                           "pipeline", "--config", config)
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "ConfigError"
    assert block in record["message"]
    assert not (tmp_path / "dataset.csv").exists()


def test_stability_scan_non_mapping_fixed_exits_2(tmp_path, capsys):
    config = write_yaml(tmp_path / "scan.yaml", {
        "f": {"start": 0.0, "stop": 2.0, "count": 3},
        "kerr": {"start": 0.0, "stop": 0.5, "count": 2}, "fixed": 1.0})
    code, _, err = run_cli(capsys, "--out-dir", str(tmp_path),
                           "stability-scan", "--config", config)
    assert code == 2
    assert "fixed" in json.loads(err)["message"]


def test_pipeline_zero_runs_exits_2(tmp_path, capsys):
    config = write_yaml(tmp_path / "experiment.yaml", {**MICRO_CLASSIFY, "runs": 0})
    code, _, err = run_cli(capsys, "--out-dir", str(tmp_path),
                           "pipeline", "--config", config)
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "ConfigError"
    assert "runs" in record["message"]
    assert not (tmp_path / "metrics.yaml").exists()


@pytest.mark.parametrize("task", ["classify", "predict_squeezing", "classify_sweep"])
def test_pipeline_empty_test_split_exits_2(tmp_path, capsys, task):
    # no test record means no accuracy or MSE: refused before anything is simulated
    base = MICRO_SWEEP if task == "classify_sweep" else {**MICRO_CLASSIFY, "task": task}
    config = write_yaml(tmp_path / "experiment.yaml", {
        **base, "counts": {"train": 2, "test": 0}})
    code, out, err = run_cli(capsys, "--out-dir", str(tmp_path / "out"),
                             "pipeline", "--config", config)
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "ConfigError"
    assert "counts.test" in record["message"]
    assert out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("epochs", 2.5), ("epochs", True),
                                        ("learning_rate", True)])
def test_pipeline_fractional_or_boolean_hyperparams_exit_2(tmp_path, capsys, key, value):
    config = write_yaml(tmp_path / "experiment.yaml",
                        {**MICRO_CLASSIFY, "hyperparams": {"epochs": 40, key: value}})
    code, _, err = run_cli(capsys, "--out-dir", str(tmp_path / "out"),
                           "pipeline", "--config", config)
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "ConfigError"
    assert f"hyperparams.{key}" in record["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sweep_modes", [[], [2, "three"], [2, 2.5], 4, [2, 2], [0]])
def test_pipeline_bad_sweep_modes_exits_2(tmp_path, capsys, sweep_modes):
    config = write_yaml(tmp_path / "sweep.yaml", {**MICRO_SWEEP, "sweep_modes": sweep_modes})
    code, _, err = run_cli(capsys, "--out-dir", str(tmp_path),
                           "pipeline", "--config", config)
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "ConfigError"
    assert "sweep_modes" in record["message"]
    assert not (tmp_path / "accuracy_vs_n.csv").exists()


SCAN = {"f": {"start": 0.0, "stop": 2.0, "count": 3},
        "kerr": {"start": 0.0, "stop": 0.5, "count": 2},
        "trajectories": 16, "horizon": 3.0, "dt": 0.05}


@pytest.mark.parametrize("command, config, key", [
    ("pipeline", {**MICRO_CLASSIFY, "runs": "three"}, "runs"),
    ("pipeline", {**MICRO_CLASSIFY, "runs": True}, "runs"),
    ("pipeline", {**MICRO_CLASSIFY, "trajectories": 2.5}, "trajectories"),
    ("pipeline", {**MICRO_CLASSIFY, "counts": {"train": "two", "test": 1}}, "counts.train"),
    ("pipeline", {**MICRO_CLASSIFY, "schedule": {"dt": "fast"}}, "schedule.dt"),
    ("pipeline", {**MICRO_CLASSIFY, "hyperparams": {"epochs": 40.0}}, "hyperparams.epochs"),
    ("pipeline", {**MICRO_CLASSIFY, "reservoir": {"modes": 2, "kerr": "weak"}}, "kerr"),
    ("stability-scan", {**SCAN, "f": {"start": 0.0, "stop": 2.0, "count": "two"}}, "f.count"),
    ("stability-scan", {**SCAN, "trajectories": 2.5}, "trajectories"),
    ("stability-scan", {**SCAN, "fixed": {"loss": "one"}}, "fixed.loss"),
    # one readout is trained, so more runs would only list unused seeds
    ("pipeline", {**MICRO_CLASSIFY, "task": "predict_squeezing", "runs": 5}, "runs"),
    # a key that no command reads is refused, not ignored: the divergence cutoff
    # is fixed, a misspelled key would fall back to its default, and the
    # parameter on the scanned axis cannot also be held fixed
    ("stability-scan", {**SCAN, "threshold": 1.0e10}, "threshold"),
    ("stability-scan", {**SCAN, "horizn": 1.0}, "horizn"),
    ("stability-scan", {**SCAN, "fixed": {"kerr": 0.1}}, "fixed.kerr"),
    ("stability-scan", {**SCAN, "f": {"start": 0.0, "stop": 2.0, "num": 3}}, "f.num"),
    ("pipeline", {**MICRO_CLASSIFY, "counts": {"train": 2, "tset": 1}}, "counts.tset"),
    ("pipeline", {**MICRO_CLASSIFY, "reservoir": {"modes": 2, "kerr": 0.05, "lose": 1.0}},
     "reservoir.lose"),
    ("pipeline", {**MICRO_CLASSIFY, "sweep_modes": [2, 3]}, "sweep_modes"),
    ("pipeline", {**MICRO_SWEEP, "reservoir": {"modes": 2, "kerr": 0.05}}, "reservoir.modes"),
    # a reservoir file stands for the whole block
    ("pipeline", {**MICRO_CLASSIFY, "reservoir": {"file": "reservoir.yaml", "kerr": 0.1}},
     "reservoir.kerr"),
    # text is refused even when it spells a number
    ("pipeline", {**MICRO_CLASSIFY, "schedule": {"dt": "0.05"}}, "schedule.dt"),
    # a seed is an integer >= 0 (or a list of them), never truncated or passed on
    ("pipeline", {**MICRO_CLASSIFY, "seed": -1}, "seed"),
    ("pipeline", {**MICRO_CLASSIFY, "reservoir": {"modes": 2, "kerr": 0.05, "seed": 2.5}},
     "seed"),
    ("pipeline", {**MICRO_CLASSIFY, "reservoir": {"modes": 2, "kerr": 0.05, "seed": -1}},
     "seed"),
    # a trajectory count of 0 is refused under its config name
    ("stability-scan", {**SCAN, "trajectories": 0}, "trajectories"),
    ("pipeline", {**MICRO_CLASSIFY, "trajectories": 0}, "trajectories"),
    # so are an axis of no points, an empty train split and an empty batch
    ("stability-scan", {**SCAN, "f": {"start": 0.0, "stop": 2.0, "count": -1}}, "f.count"),
    ("stability-scan", {**SCAN, "kerr": {"start": 0.0, "stop": 0.5, "count": 0}}, "kerr.count"),
    ("pipeline", {**MICRO_CLASSIFY, "counts": {"train": 0, "test": 1}}, "counts.train"),
    ("pipeline", {**MICRO_CLASSIFY, "hyperparams": {"epochs": 40, "batch_size": 0}},
     "hyperparams.batch_size"),
])
def test_bad_config_number_exits_2(tmp_path, capsys, command, config, key):
    path = write_yaml(tmp_path / "config.yaml", config)
    code, _, err = run_cli(capsys, "--out-dir", str(tmp_path / "out"),
                           command, "--config", path)
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "ConfigError"
    assert key in record["message"]
    assert not (tmp_path / "out").exists()


PRESETS = Path(__file__).resolve().parent.parent / "presets"


class _Integrating(Exception):
    """Raised where a command would start integrating."""


@pytest.mark.parametrize("preset", sorted(p.name for p in PRESETS.glob("*.yaml")))
def test_every_preset_passes_its_key_check(tmp_path, monkeypatch, preset):
    # every config check runs before the first integration, which is cut off
    def stop(*args, **kwargs):
        raise _Integrating
    monkeypatch.setattr(cli, "generate_dataset", stop)
    monkeypatch.setattr(cli, "stability_scan", stop)
    path = PRESETS / preset
    command = "pipeline" if "task" in yaml.safe_load(path.read_text()) else "stability-scan"
    with pytest.raises(_Integrating):
        main(["--out-dir", str(tmp_path / "out"), command, "--config", str(path)])
    assert not (tmp_path / "out").exists()


def test_pipeline_sweep_refuses_a_reservoir_file(tmp_path, capsys):
    run_cli(capsys, "--out-dir", str(tmp_path), "--seed", "3",
            "gen-reservoir", "--modes", "2", "--kerr", "0.05")
    config = write_yaml(tmp_path / "sweep.yaml", {
        **MICRO_CLASSIFY, "task": "classify_sweep", "sweep_modes": [2, 3],
        "reservoir": {"file": str(tmp_path / "reservoir.yaml")}})
    code, _, err = run_cli(capsys, "--out-dir", str(tmp_path / "out"),
                           "pipeline", "--config", config)
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "ConfigError"
    assert "reservoir.file" in record["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("file", [0, 3, None])
def test_pipeline_reservoir_file_that_is_not_a_path_exits_2(tmp_path, capsys, file):
    # 0 would read the reservoir from stdin, which holds a valid one here
    run_cli(capsys, "--out-dir", str(tmp_path), "--seed", "3",
            "gen-reservoir", "--modes", "2", "--kerr", "0.05")
    config = write_yaml(tmp_path / "experiment.yaml",
                        {**MICRO_CLASSIFY, "reservoir": {"file": file}})
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-m", "pplattice", "--out-dir", str(tmp_path / "out"),
         "pipeline", "--config", config],
        input=(tmp_path / "reservoir.yaml").read_text(),
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
    assert result.returncode == 2, result.stderr
    record = json.loads(result.stderr)
    assert record["error"] == "ConfigError"
    assert record["message"].startswith("reservoir.file must be a file path")
    assert not (tmp_path / "out").exists()


def test_every_subcommand_manifest_pins_every_output(tmp_path, capsys):
    inputs = tmp_path / "in"
    inputs.mkdir()
    cat = write_yaml(inputs / "cat.yaml", {"kind": "cat", "beta": [1.0, 0.0]})
    runs = {
        "gen-reservoir": ["gen-reservoir", "--modes", "1", "--kerr", "0.1"],
        "sample-state": ["sample-state", "--state", cat, "--count", "20"],
        "simulate": ["simulate", "--reservoir", str(tmp_path / "gen-reservoir" / "reservoir.yaml"),
                     "--samples", str(tmp_path / "sample-state" / "state.samples"),
                     "--t-relax", "1.0", "--t-final", "1.0"],
        "stability-scan": ["stability-scan", "--config", write_yaml(inputs / "scan.yaml", SCAN)],
        "oracle-compare": ["oracle-compare",
                           "--reservoir", str(tmp_path / "gen-reservoir" / "reservoir.yaml"),
                           "--state", cat, "--dim", "8", "--source-dim", "12",
                           "--trajectories", "20", "--t-relax", "0.5", "--t-final", "0.5",
                           "--stride", "10"],
        "wigner": ["wigner", "--state", cat, "--dim", "20", "--points", "21"],
        "pipeline": ["pipeline", "--config",
                     write_yaml(inputs / "experiment.yaml", MICRO_CLASSIFY)],
    }
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    assert set(runs) == set(commands.choices)
    for command, argv in runs.items():
        out_dir = tmp_path / command
        code, _, err = run_cli(capsys, "--out-dir", str(out_dir), "--seed", "5", *argv)
        assert code == 0, err
        manifests = sorted(out_dir.glob("*.manifest.yaml"))
        assert len(manifests) == 1
        outputs = yaml.safe_load(manifests[0].read_text())["outputs"]
        on_disk = {p.name for p in out_dir.iterdir()} - {manifests[0].name}
        assert set(outputs) == on_disk
        for name, digest in outputs.items():
            assert digest == sha256_file(out_dir / name)


# -- module entry point ------------------------------------------------------

def test_module_runs_as_script(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "pplattice.cli", "--out-dir", str(tmp_path),
         "--seed", "1", "gen-reservoir", "--modes", "2", "--kerr", "0.1"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert (tmp_path / "reservoir.yaml").exists()
    assert "wrote" in result.stdout


def test_package_runs_as_module():
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run([sys.executable, "-m", "pplattice", "--help"],
                            env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: pplattice")
    assert "wigner" in result.stdout


LAZY_SCIPY_SCRIPT = """
import sys
import numpy as np
import pplattice as pp

def loaded(prefixes=("scipy.sparse", "scipy.special")):
    return sorted(m for m in sys.modules if m.startswith(prefixes))

spec = pp.build_reservoir(pp.shape_for_modes(2), kerr=0.1, seed=1)
schedule = pp.Schedule(t_relax=0.5, t_final=0.5, dt=0.05, record_stride=5)
pp.generate_dataset("classify", spec, schedule, train_count=1, test_count=0,
                    trajectories=8, seed=1)
pp.stability_scan(np.array([0.0, 1.0]), kerr_values=np.array([0.1]),
                  trajectories=8, horizon=0.5, seed=1)
assert not loaded(), loaded()
series = pp.evolve_master(pp.vacuum_density(4), pp.build_single_mode(
    drive=0.5, kerr=0.1, loss=1.0), None, schedule)
assert np.all(np.isfinite(series.occupation))
assert loaded("scipy.sparse")
grid = pp.wigner_grid(pp.build_state_fock(pp.coherent_state(0.5), 8),
                      np.linspace(-4, 4, 41), np.linspace(-4, 4, 41))
assert np.all(np.isfinite(grid.values))
assert not loaded("scipy.special"), loaded("scipy.special")
"""


def test_phase_space_paths_do_not_load_scipy_sparse_or_special():
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run([sys.executable, "-c", LAZY_SCIPY_SCRIPT],
                            env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
