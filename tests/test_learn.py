"""Readout training: losses, gradients, fixtures, metrics, dataset pipeline."""

import math
from fractions import Fraction

import numpy as np
import pytest

from pplattice import dynamics, learn
from pplattice.dynamics import Schedule
from pplattice.errors import ConfigError, DivergenceError
from pplattice.learn import (BASELINE_PAIR_CONFUSED_ACCURACY, BASELINE_UNIFORM_ACCURACY,
                             CLASS_NAMES, Dataset, Hyperparams, ReadoutModel,
                             classifier_loss_and_grad, cross_entropy, dataset_from_csv,
                             evaluate, generate_dataset, load_dataset, load_model,
                             regressor_loss_and_grad, softmax, train_classifier,
                             train_regressor)
from pplattice.model import build_reservoir, shape_for_modes
from pplattice.observables import FeatureRecord
from pplattice.oracle import build_state_fock, expect_occupation
from pplattice.sampler import coherent_state, squeezed_state


def toy_dataset(task="classify", per_class_train=20, per_class_test=5, noise=0.05,
                seed=0):
    """Linearly separable fixture: features = one-hot(label) + small noise."""
    rng = np.random.default_rng(seed)
    records, train_idx, test_idx = [], [], []
    for c, label in enumerate(CLASS_NAMES):
        for i in range(per_class_train + per_class_test):
            features = np.zeros(3)
            features[c] = 1.0
            features += noise * rng.standard_normal(3)
            (train_idx if i < per_class_train else test_idx).append(len(records))
            records.append(FeatureRecord(features=features, label=label,
                                         state=coherent_state(1.0)))
    return Dataset(task=task, records=tuple(records), train_indices=tuple(train_idx),
                   test_indices=tuple(test_idx), classes=CLASS_NAMES)


def regression_dataset(targets, features):
    records = [FeatureRecord(features=np.asarray(f, dtype=float),
                             label="squeezed_vacuum",
                             state=squeezed_state(1.0), target=complex(t))
               for f, t in zip(features, targets)]
    n = len(records)
    split = max(1, int(0.8 * n))
    return Dataset(task="predict_squeezing", records=tuple(records),
                   train_indices=tuple(range(split)),
                   test_indices=tuple(range(split, n)))


# -- softmax and losses ------------------------------------------------------------

def test_softmax_uniform_logits():
    probs = softmax(np.zeros((2, 3)))
    assert np.max(np.abs(probs - 1.0 / 3.0)) < 1e-12
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((4, 3))
    shifted = softmax(logits + 37.5)
    assert np.max(np.abs(shifted - softmax(logits))) < 1e-12


def test_softmax_known_values():
    probs = softmax(np.log(np.array([[2.0, 1.0, 1.0]])))
    assert np.max(np.abs(probs - np.array([0.5, 0.25, 0.25]))) < 1e-12


def test_cross_entropy_values():
    one_hot = np.array([[1.0, 0.0, 0.0]])
    assert cross_entropy(np.array([[1.0, 0.0, 0.0]]), one_hot) == pytest.approx(0.0, abs=1e-9)
    uniform = np.full((5, 3), 1.0 / 3.0)
    labels = np.eye(3)[[0, 1, 2, 0, 1]]
    assert cross_entropy(uniform, labels) == pytest.approx(math.log(3.0), abs=1e-12)


@pytest.mark.parametrize("case", ["classify", "regress"])
def test_analytic_gradients_match_finite_differences(case):
    rng = np.random.default_rng(3)
    n, feat, out = 6, 4, 3 if case == "classify" else 2
    x = rng.standard_normal((n, feat))
    w = 0.3 * rng.standard_normal((out, feat))
    b = 0.1 * rng.standard_normal(out)
    if case == "classify":
        y = np.eye(3)[rng.integers(0, 3, n)]
        loss_fn = lambda w_, b_: classifier_loss_and_grad(w_, b_, x, y)
    else:
        y = rng.standard_normal((n, 2))
        loss_fn = lambda w_, b_: regressor_loss_and_grad(w_, b_, x, y)
    _, gw, gb = loss_fn(w, b)
    step = 1e-5
    for arr, grad in ((w, gw), (b, gb)):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            save = arr[idx]
            arr[idx] = save + step
            hi = loss_fn(w, b)[0]
            arr[idx] = save - step
            lo = loss_fn(w, b)[0]
            arr[idx] = save
            numeric = (hi - lo) / (2.0 * step)
            denom = max(abs(numeric), abs(grad[idx]), 1e-8)
            assert abs(grad[idx] - numeric) / denom < 1e-5


# -- classifier training -----------------------------------------------------------

def test_separable_toy_set_reaches_full_train_accuracy():
    dataset = toy_dataset()
    hyper = Hyperparams(learning_rate=0.05, epochs=200, seed=0)
    model, curves = train_classifier(dataset, hyper)
    assert curves.train_score[-1] == 1.0
    assert curves.train_loss[-1] < curves.train_loss[0]
    assert evaluate(model, dataset, "test").accuracy == 1.0


def test_zero_features_collapse_to_majority_class():
    records = []
    for label, count in (("cat", 4), ("squeezed_vacuum", 2), ("coherent", 2)):
        for _ in range(count):
            records.append(FeatureRecord(features=np.zeros(2), label=label,
                                         state=coherent_state(1.0)))
    dataset = Dataset(task="classify", records=tuple(records),
                      train_indices=tuple(range(8)), test_indices=(),
                      classes=CLASS_NAMES)
    model, _ = train_classifier(dataset, Hyperparams(learning_rate=0.05, epochs=300, seed=1))
    metrics = evaluate(model, dataset, "train")
    assert metrics.accuracy == 0.5  # majority class rate 4/8


def test_training_is_bit_reproducible():
    dataset = toy_dataset()
    hyper = Hyperparams(learning_rate=0.01, epochs=50, seed=9)
    model_a, curves_a = train_classifier(dataset, hyper)
    model_b, curves_b = train_classifier(dataset, hyper)
    assert np.array_equal(model_a.weights, model_b.weights)
    assert np.array_equal(model_a.bias, model_b.bias)
    assert np.array_equal(curves_a.train_loss, curves_b.train_loss)


def test_distinct_readout_seeds_differ():
    dataset = toy_dataset()
    model_a, _ = train_classifier(dataset, Hyperparams(learning_rate=0.01, epochs=20, seed=0))
    model_b, _ = train_classifier(dataset, Hyperparams(learning_rate=0.01, epochs=20, seed=1))
    assert not np.array_equal(model_a.weights, model_b.weights)


# -- regressor training ------------------------------------------------------------

def test_linear_targets_are_learned_exactly():
    rng = np.random.default_rng(7)
    features = rng.standard_normal((80, 3))
    w_true = np.array([0.4 - 0.2j, -0.3 + 0.5j, 0.1 + 0.1j])
    targets = features @ w_true + (0.2 - 0.3j)
    dataset = regression_dataset(targets, features)
    hyper = Hyperparams(learning_rate=0.01, epochs=5000, seed=2)
    model, curves = train_regressor(dataset, hyper)
    assert evaluate(model, dataset, "train").mse < 1e-6
    assert evaluate(model, dataset, "test").mse < 1e-6
    assert curves.train_loss[-1] < curves.train_loss[0]


def test_adam_converges_to_the_least_squares_readout():
    rng = np.random.default_rng(5)
    features = rng.standard_normal((40, 3)) * [1.0, 3.0, 0.5] + [0.0, 2.0, -1.0]
    targets = features @ np.array([0.5 + 0.1j, -0.2 + 0.4j, 0.3 - 0.6j]) + (0.1 + 0.2j) \
        + 0.3 * (rng.standard_normal(40) + 1j * rng.standard_normal(40))
    dataset = regression_dataset(targets, features)
    model, _ = train_regressor(dataset, Hyperparams(learning_rate=0.01, epochs=3000, seed=4))
    design = np.column_stack([model.transform(dataset.features("train")),
                              np.ones(len(dataset.train_indices))])
    z = dataset.targets("train")
    solution, *_ = np.linalg.lstsq(design, np.column_stack([z.real, z.imag]), rcond=None)
    assert np.max(np.abs(model.weights - solution[:-1].T)) < 1e-8
    assert np.max(np.abs(model.bias - solution[-1])) < 1e-8


def test_constant_targets_converge_to_bias():
    rng = np.random.default_rng(11)
    features = rng.standard_normal((60, 4))
    features -= features.mean(axis=0)
    zeta = 0.3 - 0.7j
    dataset = regression_dataset(np.full(60, zeta), features)
    model, _ = train_regressor(dataset, Hyperparams(learning_rate=0.01, epochs=3000, seed=3))
    assert np.max(np.abs(model.bias - np.array([zeta.real, zeta.imag]))) < 1e-4
    assert np.max(np.abs(model.weights)) < 1e-3


def test_diverging_training_raises_with_epoch():
    # Adam steps are bounded by the learning rate, so forcing a non-finite
    # loss needs a rate large enough to overflow the squared residuals
    rng = np.random.default_rng(5)
    features = rng.standard_normal((40, 2))
    targets = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    dataset = regression_dataset(targets, features)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="epoch"):
        train_regressor(dataset, Hyperparams(learning_rate=1e200, epochs=10, seed=0))


def test_hyperparameter_validation():
    with pytest.raises(ConfigError):
        Hyperparams(learning_rate=0.0, epochs=10)
    with pytest.raises(ConfigError):
        Hyperparams(learning_rate=0.1, epochs=0)
    with pytest.raises(ConfigError):
        Hyperparams(learning_rate=0.1, epochs=10, batch_size=0)
    for bad in (1.5, 150.0, True):
        with pytest.raises(ConfigError, match="batch size"):
            Hyperparams(learning_rate=0.1, epochs=10, batch_size=bad)
    assert Hyperparams(learning_rate=0.1, epochs=10, batch_size=np.int64(4)).batch_size == 4


@pytest.mark.parametrize("bad", [2.5, 10.0, True, np.float64(3.0)])
def test_fractional_or_boolean_epochs_are_refused(bad):
    with pytest.raises(ConfigError, match="epochs"):
        Hyperparams(learning_rate=0.1, epochs=bad)


def test_numpy_integer_epochs_train():
    hyper = Hyperparams(learning_rate=0.05, epochs=np.int64(3), seed=0)
    _, curves = train_classifier(toy_dataset(), hyper)
    assert len(curves.train_loss) == 3


@pytest.mark.parametrize("bad", [True, np.True_, "0.1"])
def test_boolean_or_text_learning_rate_is_refused(bad):
    with pytest.raises(ConfigError, match="learning rate"):
        Hyperparams(learning_rate=bad, epochs=10)


# -- evaluation ----------------------------------------------------------------------

def test_evaluating_an_empty_split_is_a_configuration_error():
    # an empty test split has no accuracy or MSE; NaN must not pass for one
    hyper = Hyperparams(learning_rate=0.02, epochs=5, seed=0)
    dataset = toy_dataset(per_class_test=0)
    model, _ = train_classifier(dataset, hyper)
    with pytest.raises(ConfigError, match="test split has no records"):
        evaluate(model, dataset, "test")
    dataset = regression_dataset([0.3 + 0.1j], [[1.0, 0.5]])
    model, _ = train_regressor(dataset, hyper)
    with pytest.raises(ConfigError, match="test split has no records"):
        evaluate(model, dataset, "test")


def test_confusion_matrix_rows_are_exact_distributions():
    dataset = toy_dataset(noise=0.4, seed=4)
    model, _ = train_classifier(dataset, Hyperparams(learning_rate=0.02, epochs=100, seed=0))
    metrics = evaluate(model, dataset, "test")
    counts = metrics.confusion_counts
    assert counts.dtype.kind == "i"
    assert counts.sum() == len(dataset.test_indices)
    for j in range(3):
        row_total = int(counts[j].sum())
        assert row_total == 5
        assert sum(Fraction(int(c), row_total) for c in counts[j]) == 1
        assert metrics.confusion[j].sum() == pytest.approx(1.0, abs=1e-12)
    text = metrics.confusion_csv(dataset.classes)
    assert text.startswith("true\\predicted,cat,squeezed_vacuum,coherent")


def test_perfect_regression_predictions_give_zero_mse():
    zeta = 0.4 + 0.2j
    features = np.ones((10, 3))
    dataset = regression_dataset(np.full(10, zeta), features)
    model = ReadoutModel(kind="regress", weights=np.zeros((2, 3)),
                         bias=np.array([zeta.real, zeta.imag]),
                         feature_mean=np.zeros(3), feature_std=np.ones(3))
    metrics = evaluate(model, dataset, "test")
    assert metrics.mse == 0.0
    assert np.all(metrics.squared_errors == 0.0)


def test_uniform_guessing_baseline():
    assert BASELINE_UNIFORM_ACCURACY == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert BASELINE_PAIR_CONFUSED_ACCURACY == 0.66
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 3, 30_000)
    guesses = rng.integers(0, 3, 30_000)
    assert abs(np.mean(labels == guesses) - 1.0 / 3.0) < 0.01


# -- model artifact -------------------------------------------------------------------

def test_model_yaml_round_trip(tmp_path):
    dataset = toy_dataset()
    model, _ = train_classifier(dataset, Hyperparams(learning_rate=0.02, epochs=40, seed=5))
    path = tmp_path / "model.yaml"
    path.write_text(model.dumps())
    again = load_model(path)
    assert again.kind == "classify"
    assert np.array_equal(again.weights, model.weights)
    assert np.array_equal(again.bias, model.bias)
    assert np.array_equal(again.feature_mean, model.feature_mean)
    assert again.classes == model.classes
    x = dataset.features("test")
    assert np.array_equal(again.predict_class(x), model.predict_class(x))


def test_curves_csv_headers():
    dataset = toy_dataset()
    _, curves = train_classifier(dataset, Hyperparams(learning_rate=0.02, epochs=5, seed=0))
    lines = curves.to_csv().strip().split("\n")
    assert lines[0] == "epoch,train_loss,test_loss,train_acc,test_acc"
    assert len(lines) == 6


# -- dataset generation ----------------------------------------------------------------

@pytest.fixture(scope="module")
def small_reservoir():
    return build_reservoir(shape_for_modes(1), kerr=0.05, drive=0.5, seed=5)


@pytest.fixture(scope="module")
def small_schedule():
    return Schedule(t_relax=2.0, t_final=2.0, dt=0.05, record_stride=20)


@pytest.fixture(scope="module")
def small_classify_dataset(small_reservoir, small_schedule):
    return generate_dataset("classify", small_reservoir, small_schedule,
                            train_count=2, test_count=1, trajectories=60, seed=1234)


def test_generated_dataset_is_balanced(small_classify_dataset):
    dataset = small_classify_dataset
    assert len(dataset.records) == 9
    assert len(dataset.train_indices) == 6
    assert len(dataset.test_indices) == 3
    for label in CLASS_NAMES:
        assert sum(r.label == label for r in dataset.records) == 3
    train_labels = [dataset.records[i].label for i in dataset.train_indices]
    for label in CLASS_NAMES:
        assert train_labels.count(label) == 2


def test_generated_cat_states_sit_in_the_overlap_band(small_classify_dataset):
    lo = 1.12 ** 2 * math.tanh(1.12 ** 2)
    hi = 1.38 ** 2 * math.tanh(1.38 ** 2)
    for record in small_classify_dataset.records:
        if record.label != "cat":
            continue
        amp = abs(record.state.beta)
        assert 1.12 <= amp <= 1.38
        occupation = expect_occupation(build_state_fock(record.state, 25))
        assert lo - 1e-9 <= occupation <= hi + 1e-9


def test_same_seed_reproduces_dataset_hash(small_reservoir, small_schedule,
                                           small_classify_dataset):
    again = generate_dataset("classify", small_reservoir, small_schedule,
                             train_count=2, test_count=1, trajectories=60, seed=1234)
    assert again.content_hash() == small_classify_dataset.content_hash()


def test_worker_fanout_matches_sequential_generation(small_reservoir, small_schedule,
                                                     small_classify_dataset):
    parallel = generate_dataset("classify", small_reservoir, small_schedule,
                                train_count=2, test_count=1, trajectories=60,
                                seed=1234, workers=2)
    assert parallel.content_hash() == small_classify_dataset.content_hash()


def test_dataset_csv_round_trip(tmp_path, small_classify_dataset):
    dataset = small_classify_dataset
    text = dataset.to_csv()
    again = dataset_from_csv(text)
    assert again.content_hash() == dataset.content_hash()
    path = tmp_path / "dataset.csv"
    path.write_text(dataset.to_csv())
    assert load_dataset(path).content_hash() == dataset.content_hash()


def test_regression_targets_encode_the_squeezing(small_reservoir, small_schedule):
    dataset = generate_dataset("predict_squeezing", small_reservoir, small_schedule,
                               train_count=3, test_count=2, trajectories=40, seed=77)
    assert dataset.classes == ()
    assert len(dataset.records) == 5
    for record in dataset.records:
        assert record.label == "squeezed_vacuum"
        zeta = record.target
        assert 0.9 <= abs(zeta) <= 1.1
        assert abs(zeta - record.state.r * np.exp(2j * record.state.theta)) < 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_all_divergent_records_are_flagged(monkeypatch, small_reservoir, small_schedule):
    monkeypatch.setattr(dynamics, "DIVERGENCE_THRESHOLD", 1e-12)
    dataset = generate_dataset("classify", small_reservoir, small_schedule,
                               train_count=1, test_count=0, trajectories=5, seed=3)
    for record in dataset.records:
        assert record.flagged
        assert record.divergence_fraction == 1.0
        assert np.all(record.features == 0.0)


@pytest.mark.parametrize("workers", [0, -1, True])
def test_bad_worker_count_is_refused_before_generating(monkeypatch, small_reservoir,
                                                       small_schedule, workers):
    def never(*args, **kwargs):
        raise AssertionError("simulated with a refused worker count")
    monkeypatch.setattr(learn, "relax_ensemble", never)
    monkeypatch.setattr(learn, "_pool_starmap", never)
    with pytest.raises(ConfigError, match="workers must be an integer >= 1"):
        generate_dataset("classify", small_reservoir, small_schedule, train_count=1,
                         test_count=0, trajectories=4, seed=1, workers=workers)


def test_dataset_generation_relaxes_once(monkeypatch, small_reservoir, small_schedule):
    calls = {"relax_ensemble": [], "run_ensemble": []}

    def counted(name):
        inner = getattr(learn, name)

        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            calls[name].append((kwargs, result))
            return result
        return wrapper

    for name in calls:
        monkeypatch.setattr(learn, name, counted(name))
    dataset = generate_dataset("classify", small_reservoir, small_schedule,
                               train_count=2, test_count=1, trajectories=20, seed=8)
    assert len(calls["relax_ensemble"]) == 1
    assert len(calls["run_ensemble"]) == len(dataset.records) == 9
    relaxed = calls["relax_ensemble"][0][1]
    assert all(kwargs["relaxed"] is relaxed for kwargs, _ in calls["run_ensemble"])


def test_split_validation():
    record = FeatureRecord(features=np.zeros(1), label="cat", state=coherent_state(1.0))
    with pytest.raises(ConfigError):
        Dataset(task="classify", records=(record,), train_indices=(0,),
                test_indices=(0,), classes=CLASS_NAMES)
    with pytest.raises(ConfigError):
        Dataset(task="classify", records=(record,), train_indices=(1,),
                test_indices=(), classes=CLASS_NAMES)
    with pytest.raises(ConfigError):
        Dataset(task="classify", records=(record,), train_indices=(0,),
                test_indices=(), classes=())
