"""Command-line interface: exit codes, manifests, and output reproducibility."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import yaml

from pplattice.cli import main
from pplattice.model import load_reservoir
from pplattice.sampler import load_samples, mean_occupation


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


def test_sample_state_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "--out-dir", str(tmp_path), "sample-state",
                           "--state", str(tmp_path / "nope.yaml"), "--count", "5")
    assert code == 2
    assert "not found" in json.loads(err)["message"]


# -- simulate ----------------------------------------------------------------

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


def test_simulate_tiny_threshold_exits_3(tmp_path, capsys):
    reservoir, samples = simulate_setup(tmp_path, capsys)
    code, _, err = run_cli(capsys, "--out-dir", str(tmp_path / "x"), "--seed", "2",
                           "simulate", "--reservoir", reservoir,
                           "--samples", samples, "--threshold", "1e-12",
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
    assert "modes" in json.loads(err)["message"]


def test_oracle_compare_oversized_dimension_exits_2(tmp_path, capsys):
    run_cli(capsys, "--out-dir", str(tmp_path), "--seed", "1",
            "gen-reservoir", "--modes", "2", "--kerr", "0.05")
    code, _, err = run_cli(capsys, "--out-dir", str(tmp_path),
                           "oracle-compare",
                           "--reservoir", str(tmp_path / "reservoir.yaml"),
                           "--dim", "70")
    assert code == 2
    assert "exceeds" in json.loads(err)["message"]


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
    assert "batch size" in record["message"]
    assert not (tmp_path / "dataset.csv").exists()


# -- module entry point ------------------------------------------------------

def test_module_runs_as_script(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "pplattice.cli", "--out-dir", str(tmp_path),
         "--seed", "1", "gen-reservoir", "--modes", "2", "--kerr", "0.1"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert (tmp_path / "reservoir.yaml").exists()
    assert "wrote" in result.stdout


LAZY_SCIPY_SCRIPT = """
import sys
import numpy as np
import pplattice as pp

def loaded():
    return sorted(m for m in sys.modules
                  if m.startswith(("scipy.sparse", "scipy.special")))

spec = pp.build_reservoir(2, kerr=0.1, seed=1)
schedule = pp.Schedule(t_relax=0.5, t_final=0.5, dt=0.05, record_stride=5)
pp.generate_dataset("classify", spec, schedule, train_count=1, test_count=0,
                    trajectories=8, seed=1)
pp.stability_scan(np.array([0.0, 1.0]), kerr_values=np.array([0.1]),
                  trajectories=8, horizon=0.5, seed=1)
assert not loaded(), loaded()
series = pp.evolve_master(pp.vacuum_density(4), pp.build_single_mode(
    drive=0.5, kerr=0.1, loss=1.0), None, schedule)
assert np.all(np.isfinite(series.occupation))
grid = pp.wigner_grid(pp.build_state_fock(pp.coherent_state(0.5), 8),
                      np.linspace(-4, 4, 41), np.linspace(-4, 4, 41))
assert np.all(np.isfinite(grid.values))
assert loaded()
"""


def test_phase_space_paths_do_not_load_scipy_sparse_or_special():
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run([sys.executable, "-c", LAZY_SCIPY_SCRIPT],
                            env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
