"""Acceptance gate: eight headline checks, each with a wall-clock budget.

Every test prints one PASS/FAIL line with the measured numbers and runtime;
run `pytest -rA tests/test_acceptance.py` to see all lines.  The desk-scale
learning checks (6 and 7) execute the shipped presets end to end and dominate
the total runtime (about ten minutes together on one core).
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import max_se_ratio
from pplattice.cli import main
from pplattice.dynamics import (PhaseSamplePair, Schedule, build_single_mode,
                                evolve_trajectory, run_ensemble, stability_scan)
from pplattice.learn import (Hyperparams, classifier_loss_and_grad, evaluate,
                             generate_dataset, regressor_loss_and_grad, softmax,
                             train_classifier, train_regressor)
from pplattice.model import build_reservoir, shape_for_modes
from pplattice.oracle import (build_state_fock, evolve_master, expect_occupation,
                              vacuum_density)
from pplattice.sampler import (cat_state, coherent_state, mean_occupation,
                               sample_state, squeezed_state, vacuum_samples)

pytestmark = pytest.mark.gate

PRESETS = Path(__file__).resolve().parents[1] / "presets"


def finish(index: int, label: str, started: float, limit: float, ok: bool,
           detail: str):
    runtime = time.perf_counter() - started
    verdict = bool(ok) and runtime < limit
    line = (f"criterion {index} [{label}]: {'PASS' if verdict else 'FAIL'} - "
            f"{detail}; runtime {runtime:.1f}s (limit {limit:.0f}s)")
    print(line)
    assert verdict, line


def test_criterion_1_linear_steady_state():
    started = time.perf_counter()
    spec = build_single_mode(drive=1.0, kerr=0.0, loss=1.0)
    schedule = Schedule(t_relax=50.0, t_final=0.0, dt=0.05, record_stride=200)
    series = run_ensemble(spec, vacuum_samples(1), schedule, seed=0)
    steady = float(series.mean[-1, 0])
    err = abs(steady - 4.0)
    finish(1, "linear steady state", started, 1.0, err < 1e-4,
           f"steady occupation {steady:.6f}, |error| {err:.1e} < 1e-4")


def test_criterion_2_kerr_ensemble_matches_oracle():
    started = time.perf_counter()
    spec = build_single_mode(drive=1.0, kerr=0.1, loss=1.0)
    schedule = Schedule(t_relax=25.0, t_final=0.0, dt=0.05, record_stride=4)
    series = run_ensemble(spec, vacuum_samples(10_000), schedule, seed=2)
    master = evolve_master(vacuum_density((30,)), spec, None, schedule)
    ratio = max_se_ratio(series.mean, series.stderr,
                         master.occupation, np.zeros_like(master.occupation))
    finish(2, "Kerr ensemble vs Fock oracle", started, 120.0, ratio < 3.0,
           f"max |deviation|/SE {ratio:.2f} < 3 at all "
           f"{series.times.size} recorded times (S=10^4, d=30)")


def test_criterion_3_cascade_injection_matches_oracle():
    started = time.perf_counter()
    spec = build_reservoir(shape_for_modes(2), kerr=0.05, seed=42)
    state = coherent_state(1.0)
    schedule = Schedule(t_relax=5.0, t_final=8.0, dt=0.05, record_stride=20)
    samples = sample_state(state, 4000, seed=42)
    series = run_ensemble(spec, samples, schedule, seed=42)
    master = evolve_master(vacuum_density((8, 8)), spec,
                           build_state_fock(state, 12), schedule)
    window = series.times >= schedule.t_relax
    ratio = max_se_ratio(series.mean[window], series.stderr[window],
                         master.occupation[window],
                         np.zeros_like(master.occupation[window]))
    finish(3, "cascade injection vs oracle", started, 300.0, ratio < 3.0,
           f"max |deviation|/SE {ratio:.2f} < 3 over the injection window "
           f"(2 modes, coherent beta=1, S=4000)")


def test_criterion_4_sampler_occupations():
    started = time.perf_counter()
    sq_value, sq_se = mean_occupation(
        sample_state(squeezed_state(1.0), 100_000, seed=4))
    sq_target = math.sinh(1.0) ** 2
    cat_value, cat_se = mean_occupation(
        sample_state(cat_state(1.2), 100_000, seed=5))
    cat_target = expect_occupation(build_state_fock(cat_state(1.2), 30))
    ok = (abs(sq_value - sq_target) < 3 * sq_se
          and abs(cat_value - cat_target) < 3 * cat_se
          and abs(cat_target - 1.287) < 5e-3)
    finish(4, "sampler fidelity", started, 60.0, ok,
           f"squeezed r=1: {sq_value:.4f} vs sinh^2(1)={sq_target:.4f} "
           f"(3SE={3 * sq_se:.4f}); cat beta=1.2: {cat_value:.4f} vs "
           f"oracle {cat_target:.4f} (3SE={3 * cat_se:.4f})")


def test_criterion_5_stability_scan_grid():
    started = time.perf_counter()
    scan = stability_scan(np.linspace(0.0, 5.0, 16),
                          kerr_values=np.linspace(0.0, 1.0, 16),
                          trajectories=500, horizon=25.0, dt=0.05, seed=11)
    linear_row = scan.fraction[0]
    corner = float(scan.fraction[-1, -1])
    ok = bool(np.all(linear_row == 1.0)) and corner < 1.0
    finish(5, "stability scan", started, 600.0, ok,
           f"U=0 row all exactly 1.0; high-U high-F corner fraction "
           f"{corner:.3f} < 1 (16x16 grid, 500 trajectories/point)")


def test_criterion_6_desk_scale_classification(tmp_path):
    started = time.perf_counter()
    code = main(["--out-dir", str(tmp_path), "pipeline",
                 "--config", str(PRESETS / "desk_classify.yaml")])
    metrics = yaml.safe_load((tmp_path / "metrics.yaml").read_text())
    accuracies = metrics["accuracies"]
    wins = sum(a > 0.66 for a in accuracies)
    ok = code == 0 and len(accuracies) == 3 and wins >= 2
    finish(6, "desk-scale classification", started, 1800.0, ok,
           f"test accuracies {[f'{a:.4f}' for a in accuracies]}, "
           f"{wins}/3 runs above the 0.66 baseline")


def test_criterion_7_desk_scale_regression(tmp_path):
    started = time.perf_counter()
    code = main(["--out-dir", str(tmp_path), "pipeline",
                 "--config", str(PRESETS / "desk_regression.yaml")])
    metrics = yaml.safe_load((tmp_path / "metrics.yaml").read_text())
    mse = metrics["test_mse"]
    variance = metrics["train_target_variance"]
    ok = code == 0 and mse < variance
    finish(7, "desk-scale squeezing regression", started, 1800.0, ok,
           f"test MSE {mse:.4f} < predict-the-mean baseline {variance:.4f}")


def _gradient_check_error():
    rng = np.random.default_rng(8)
    features = rng.normal(size=(6, 4))
    one_hot = np.eye(3)[rng.integers(0, 3, size=6)]
    targets = rng.normal(size=(6, 2))
    worst = 0.0
    for loss_fn, labels in ((classifier_loss_and_grad, one_hot),
                            (regressor_loss_and_grad, targets)):
        weights = rng.normal(size=(labels.shape[1], 4)) * 0.3
        bias = rng.normal(size=labels.shape[1]) * 0.3
        _, grad_w, grad_b = loss_fn(weights, bias, features, labels)
        step = 1e-5
        for grad, param in ((grad_w, weights), (grad_b, bias)):
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                keep = param[idx]
                param[idx] = keep + step
                hi = loss_fn(weights, bias, features, labels)[0]
                param[idx] = keep - step
                lo = loss_fn(weights, bias, features, labels)[0]
                param[idx] = keep
                numeric = (hi - lo) / (2 * step)
                worst = max(worst, abs(numeric - grad[idx]) / max(1.0, abs(numeric)))
    return worst


def test_criterion_8_property_suite(tmp_path):
    started = time.perf_counter()
    checks = []

    rng = np.random.default_rng(3)
    logits = rng.normal(size=(5, 4)) * 6.0
    probs = softmax(logits)
    checks.append(("softmax normalization",
                   float(np.max(np.abs(probs.sum(axis=1) - 1.0))) < 1e-12))
    checks.append(("softmax shift invariance",
                   float(np.max(np.abs(softmax(logits + 17.0) - probs))) < 1e-12))

    grad_err = _gradient_check_error()
    checks.append((f"gradient check {grad_err:.1e}", grad_err < 1e-5))

    spec = build_single_mode(drive=0.5, kerr=0.1, loss=1.0, input_weight=0.8)
    schedule = Schedule(t_relax=2.0, t_final=2.0, dt=0.05, record_stride=10)
    master = evolve_master(vacuum_density((12,)), spec,
                           build_state_fock(coherent_state(0.6), 10), schedule)
    checks.append((f"oracle trace error {master.trace_error:.1e}",
                   master.trace_error < 1e-8))

    s0 = 0.7 + 0.2j
    record = evolve_trajectory(
        PhaseSamplePair(alpha=np.zeros(1, complex),
                        alpha_tilde=np.zeros(1, complex),
                        source=s0, source_tilde=s0),
        spec, schedule, seed=0)
    times = schedule.times
    after = times > schedule.t_relax
    decay = s0 * np.exp(-spec.eta * spec.source_loss
                        * (times[after] - schedule.t_relax) / 2.0)
    source_err = float(np.max(np.abs(record.source[after] - decay)))
    checks.append((f"source decay deviation {source_err:.1e}",
                   np.all(record.source[~after] == s0) and source_err < 1e-13))

    lattice = build_reservoir(shape_for_modes(2), kerr=0.05, seed=6)
    micro = Schedule(t_relax=2.0, t_final=2.0, dt=0.05, record_stride=20)
    hyper = Hyperparams(learning_rate=0.01, epochs=200, seed=5)
    hashes, weight_sets = [], []
    for _ in range(2):
        dataset = generate_dataset("classify", lattice, micro, train_count=2,
                                   test_count=1, trajectories=40, seed=9)
        model, _ = train_classifier(dataset, hyper)
        hashes.append(dataset.content_hash())
        weight_sets.append(model.weights.copy())
    metrics = evaluate(model, dataset, "test")
    counts = metrics.confusion_counts
    checks.append(("confusion rows sum to test counts",
                   counts.dtype.kind == "i"
                   and np.array_equal(counts.sum(axis=1), [1, 1, 1])))
    checks.append(("classification pipeline bit-reproducible",
                   hashes[0] == hashes[1]
                   and np.array_equal(weight_sets[0], weight_sets[1])))

    reg_hashes, reg_weights = [], []
    for _ in range(2):
        dataset = generate_dataset("predict_squeezing", lattice, micro,
                                   train_count=4, test_count=2,
                                   trajectories=40, seed=13)
        model, _ = train_regressor(dataset, hyper)
        reg_hashes.append(dataset.content_hash())
        reg_weights.append(model.weights.copy())
    checks.append(("regression pipeline bit-reproducible",
                   reg_hashes[0] == reg_hashes[1]
                   and np.array_equal(reg_weights[0], reg_weights[1])))

    failed = [name for name, ok in checks if not ok]
    finish(8, "property suite", started, 60.0, not failed,
           f"{len(checks)} properties checked"
           + (f"; FAILED: {failed}" if failed else ", all hold"))
