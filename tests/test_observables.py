"""Occupation arithmetic, steady-state windows, feature integration, CSV."""

import math

import numpy as np
import pytest

from pplattice.dynamics import Schedule, StabilityScan, build_single_mode, run_ensemble
from pplattice.errors import ConfigError
from pplattice.learn import CLASS_NAMES, Dataset, Metrics, TrainingCurves
from pplattice.model import build_reservoir, shape_for_modes
from pplattice.observables import (FeatureRecord, OccupationSeries, csv_text,
                                   feature_vector, occupation, series_from_csv,
                                   steady_occupations, trapezoid)
from pplattice.oracle import WignerGrid
from pplattice.sampler import cat_state, coherent_state, squeezed_state, vacuum_samples

SUBNORMAL = 5e-324


def synthetic_series(times, mean, injection_time=None, stderr=None):
    mean = np.asarray(mean, dtype=float)
    if mean.ndim == 1:
        mean = mean[:, None]
    if stderr is None:
        stderr = np.zeros_like(mean)
    return OccupationSeries(times=np.asarray(times, dtype=float), mean=mean,
                            stderr=stderr, divergence_fraction=0.0,
                            n_trajectories=1, injection_time=injection_time)


def test_occupation_arithmetic():
    assert occupation(2.0, 2.0) == 4.0
    assert occupation(1.0j, 1.0j) == 1.0
    assert occupation(1.0 + 1.0j, 1.0 - 1.0j) == 0.0


def test_steady_occupation_of_constant_series():
    times = np.arange(0, 21) * 0.5
    series = synthetic_series(times, np.full(21, 4.0), injection_time=10.0)
    assert steady_occupations(series)[0] == 4.0


def test_steady_window_of_one_sample_equals_that_sample():
    # the last relaxation third, [4/3, 2], holds only t = 2
    times = np.array([0.0, 1.0, 2.0, 3.0])
    series = synthetic_series(times, np.array([1.0, 2.0, 7.0, 9.0]), injection_time=2.0)
    assert steady_occupations(series)[0] == 7.0


def test_driven_linear_mode_reaches_analytic_steady_state():
    # gamma=1, F=1, U=0: steady occupation |2F/gamma|^2 = 4, deterministic run
    spec = build_single_mode(drive=1.0, kerr=0.0, loss=1.0)
    schedule = Schedule(t_relax=50.0, t_final=0.0, dt=0.05, record_stride=50)
    series = run_ensemble(spec, vacuum_samples(1), schedule, seed=1)
    assert abs(steady_occupations(series)[0] - 4.0) < 1e-4


def test_undriven_mode_stays_empty():
    spec = build_single_mode(drive=0.0, kerr=0.0, loss=1.0)
    schedule = Schedule(t_relax=10.0, t_final=0.0, dt=0.05, record_stride=20)
    series = run_ensemble(spec, vacuum_samples(1), schedule, seed=1)
    assert steady_occupations(series)[0] == 0.0


def test_feature_of_constant_series_is_exactly_zero():
    times = np.arange(0, 101) * 0.05
    series = synthetic_series(times, np.full(101, 2.5), injection_time=2.0)
    assert feature_vector(series, np.array([2.5]))[0] == 0.0


def test_feature_of_exponential_deviation():
    # mean = steady + e^{-(t - t_inj)} after injection; closed-form integral
    # 1 - e^{-span}, trapezoidal quadrature error (h^2/12)(1 - e^{-span}).
    h, steady, t_inj = 0.05, 1.5, 2.0
    times = np.arange(0, 101) * h
    dev = np.where(times >= t_inj, np.exp(-(times - t_inj)), 0.0)
    series = synthetic_series(times, steady + dev, injection_time=t_inj)
    feature = feature_vector(series, np.array([steady]))[0]

    span = times[-1] - t_inj
    k = round(span / h)
    trap_closed = h * ((1.0 - math.exp(-(k + 1) * h)) / (1.0 - math.exp(-h))
                       - 0.5 * (1.0 + math.exp(-k * h)))
    assert feature == pytest.approx(trap_closed, abs=1e-12)
    analytic = 1.0 - math.exp(-span)
    assert abs(feature - analytic) < 1.001 * h ** 2 / 12.0 * analytic


def test_feature_is_linear_in_the_deviation():
    times = np.arange(0, 81) * 0.05
    rng = np.random.default_rng(5)
    dev = np.where(times >= 1.0, rng.uniform(0.0, 1.0, times.size), 0.0)
    base = synthetic_series(times, 3.0 + dev, injection_time=1.0)
    scaled = synthetic_series(times, 3.0 + 4.0 * dev, injection_time=1.0)
    steady = np.array([3.0])
    assert feature_vector(scaled, steady)[0] == pytest.approx(
        4.0 * feature_vector(base, steady)[0], rel=1e-12)


def test_feature_converges_under_stride_refinement():
    t_inj = 1.0
    feats = {}
    for h in (0.1, 0.05, 0.025):
        times = np.arange(0, round(4.0 / h) + 1) * h
        dev = np.where(times >= t_inj, np.exp(-(times - t_inj)), 0.0)
        series = synthetic_series(times, 2.0 + dev, injection_time=t_inj)
        feats[h] = feature_vector(series, np.array([2.0]))[0]
    exact = 1.0 - math.exp(-3.0)
    # second-order quadrature: error drops ~4x per halving
    assert abs(feats[0.05] - exact) < 0.3 * abs(feats[0.1] - exact)
    assert abs(feats[0.025] - exact) < 0.3 * abs(feats[0.05] - exact)


def test_vacuum_input_leaves_features_at_zero_within_noise():
    spec = build_reservoir(shape_for_modes(2), kerr=0.05, drive=0.5, seed=3)
    schedule = Schedule(t_relax=6.0, t_final=4.0, dt=0.05, record_stride=10)
    series = run_ensemble(spec, vacuum_samples(200), schedule, seed=8)
    steady = steady_occupations(series)
    features = feature_vector(series, steady)
    mask = series.times >= schedule.t_relax - 1e-12
    integrated_se = trapezoid(series.stderr[mask], series.times[mask], axis=0)
    assert np.all(np.abs(features) < 3.0 * (integrated_se + 1e-12))


def test_csv_round_trip(tmp_path):
    times = np.arange(0, 11) * 0.1
    rng = np.random.default_rng(2)
    series = OccupationSeries(
        times=times, mean=rng.uniform(0, 3, (11, 2)),
        stderr=rng.uniform(0, 0.1, (11, 2)),
        divergence_fraction=0.125, n_trajectories=80, injection_time=0.5)
    text = series.to_csv()
    assert "divergence_fraction" in text
    again = series_from_csv(text)
    assert np.array_equal(again.times, series.times)
    assert np.array_equal(again.mean, series.mean)
    assert np.array_equal(again.stderr, series.stderr)
    assert again.divergence_fraction == series.divergence_fraction
    assert again.n_trajectories == series.n_trajectories
    assert again.injection_time == series.injection_time


def test_window_validation():
    times = np.arange(0, 21) * 0.5
    series = synthetic_series(times, np.ones(21), injection_time=5.0)
    with pytest.raises(ConfigError, match="two recorded times"):
        feature_vector(synthetic_series(times, np.ones(21), injection_time=10.0),
                       np.array([1.0]))                 # injection at the last time
    with pytest.raises(ConfigError, match="no recorded times"):
        steady_occupations(synthetic_series(times, np.ones(21), injection_time=0.2))
    with pytest.raises(ConfigError, match="no recorded times"):
        feature_vector(synthetic_series(times, np.ones(21), injection_time=10.5),
                       np.array([1.0]))                 # injection after the last time
    with pytest.raises(ConfigError):
        feature_vector(series, np.array([1.0, 2.0]))    # steady shape mismatch
    bare = synthetic_series(times, np.ones(21))
    for call in (lambda: steady_occupations(bare),
                 lambda: feature_vector(bare, np.array([1.0]))):
        with pytest.raises(ConfigError, match="no injection time"):
            call()                                      # no injection marker


def test_feature_record_validation():
    record = FeatureRecord(features=np.array([0.1, 0.2]), label="cat",
                           state=coherent_state(1.0))
    assert record.features.shape == (2,)
    with pytest.raises(ConfigError):
        FeatureRecord(features=np.zeros((2, 2)), label="cat",
                      state=coherent_state(1.0))


# -- CSV writers: exact text from literal values ---------------------------------

def test_csv_text_cell_rules():
    text = csv_text(["a", "b", "c", "d"],
                    [[np.int64(3), True, np.float64(-0.0), "x"],
                     [np.bool_(False), SUBNORMAL, float("nan"), ""],
                     (7, 0.1, -math.inf, "y")])
    assert text == "a,b,c,d\n3,1,-0.0,x\n0,5e-324,nan,\n7,0.1,-inf,y\n"
    assert float(repr(float(SUBNORMAL))) == SUBNORMAL
    assert csv_text(["only"], []) == "only\n"


def test_occupation_series_csv_text():
    series = OccupationSeries(
        times=np.array([0.0, 0.5]), mean=np.array([[1.0, -0.0], [2.5, SUBNORMAL]]),
        stderr=np.array([[0.0, 0.0], [0.1, np.nan]]), divergence_fraction=0.25,
        n_trajectories=8, injection_time=0.5)
    assert series.to_csv() == (
        "time,mean_0,stderr_0,mean_1,stderr_1\n"
        "0.0,1.0,0.0,-0.0,0.0\n"
        "0.5,2.5,0.1,5e-324,nan\n"
        "divergence_fraction,0.25,,,\n"
        "n_trajectories,8,,,\n"
        "injection_time,0.5,,,\n")
    unsplit = OccupationSeries(times=np.array([0.0]), mean=np.array([[1.0]]),
                               stderr=np.array([[0.0]]), divergence_fraction=0.0,
                               n_trajectories=1)
    assert unsplit.to_csv() == ("time,mean_0,stderr_0\n0.0,1.0,0.0\n"
                                "divergence_fraction,0.0,\nn_trajectories,1,\n"
                                "injection_time,,\n")


def test_stability_scan_csv_text():
    scan = StabilityScan(f_values=np.array([0.0, 2.5]), other_name="kerr",
                         other_values=np.array([0.0, 0.5]),
                         fraction=np.array([[1.0, 1.0], [0.96875, SUBNORMAL]]),
                         trajectories=32, horizon=3.0, dt=0.05, fixed={"loss": 1.0})
    assert scan.to_csv() == ("f,kerr,convergent_fraction\n0.0,0.0,1.0\n2.5,0.0,1.0\n"
                             "0.0,0.5,0.96875\n2.5,0.5,5e-324\n")


def test_dataset_csv_text():
    records = (
        FeatureRecord(features=np.array([1.5, -0.0]), label="cat",
                      state=cat_state(1.25, math.pi)),
        FeatureRecord(features=np.array([SUBNORMAL, 2.0]), label="coherent",
                      state=coherent_state(0.5 - 0.25j), divergence_fraction=0.125,
                      flagged=True),
    )
    dataset = Dataset(task="classify", records=records, train_indices=(1,),
                      test_indices=(0,), classes=CLASS_NAMES)
    assert dataset.to_csv() == (
        "#task,classify,cat,squeezed_vacuum,coherent\n"
        "split,label,target_re,target_im,divergence_fraction,flagged,kind,beta_re,"
        "beta_im,nbar,r,theta,cat_phase,f0,f1\n"
        "test,cat,nan,0.0,0.0,0,cat,1.25,0.0,0.0,0.0,0.0,3.141592653589793,1.5,-0.0\n"
        "train,coherent,nan,0.0,0.125,1,coherent,0.5,-0.25,0.0,0.0,0.0,0.0,5e-324,2.0\n")
    regression = Dataset(task="predict_squeezing", records=(FeatureRecord(
        features=np.array([0.75]), label="squeezed_vacuum",
        state=squeezed_state(1.0, 0.25), target=complex(0.5, -0.0)),), train_indices=(0,),
        test_indices=())
    assert regression.to_csv().splitlines()[0::2] == [
        "#task,predict_squeezing,",
        "train,squeezed_vacuum,0.5,-0.0,0.0,0,squeezed_vacuum,0.0,0.0,0.0,1.0,0.25,0.0,0.75"]


def test_training_curves_csv_text():
    curves = TrainingCurves(kind="classify", epoch=np.arange(2),
                            train_loss=np.array([1.0986, 0.5]),
                            test_loss=np.array([np.nan, -0.0]),
                            train_score=np.array([0.5, 1.0]),
                            test_score=np.array([1.0, SUBNORMAL]))
    assert curves.to_csv() == ("epoch,train_loss,test_loss,train_acc,test_acc\n"
                               "0,1.0986,nan,0.5,1.0\n1,0.5,-0.0,1.0,5e-324\n")
    regress = TrainingCurves(kind="regress", epoch=np.arange(1), train_loss=np.zeros(1),
                             test_loss=np.zeros(1), train_score=np.zeros(1),
                             test_score=np.zeros(1))
    assert regress.to_csv().splitlines()[0] == "epoch,train_loss,test_loss,train_mse,test_mse"


def test_confusion_csv_text():
    metrics = Metrics(kind="classify", accuracy=0.75,
                      confusion=np.array([[1.0, -0.0], [0.25, 0.75]]))
    assert metrics.confusion_csv(("cat", "coherent")) == (
        "true\\predicted,cat,coherent\ncat,1.0,-0.0\ncoherent,0.25,0.75\n")


def test_wigner_grid_csv_text():
    grid = WignerGrid(q=np.array([-1.0, 1.0]), p=np.array([0.0]),
                      values=np.array([[0.1], [-SUBNORMAL]]))
    assert grid.to_csv() == "q,p,wigner\n-1.0,0.0,0.1\n1.0,0.0,-5e-324\n"
