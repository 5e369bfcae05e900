"""Linear readout training for reservoir-computing tasks.

Two tasks share the same machinery: three-way classification of the injected
state (cat / squeezed vacuum / coherent) through a softmax readout trained
with categorical cross-entropy, and regression of the complex squeezing
parameter zeta = r exp(2i theta) through a two-output linear readout trained
with mean-squared error.  Both are optimized with Adam, written out here
explicitly so training is bit-reproducible given (dataset, hyperparameters,
seed).

Features are z-score standardized with train-split statistics before
training; the normalization vectors are stored in the model artifact so
inference applies the identical transform.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass

import numpy as np
import yaml

from .dynamics import (RelaxedStart, Schedule, relax_ensemble, run_ensemble,
                       _check_workers, _pool_starmap, _seed_base)
from .errors import ConfigError, DivergenceError
from .model import ReservoirSpec, load_yaml
from .observables import FeatureRecord, csv_text, feature_vector, steady_occupations
from .sampler import StateSpec, sample_state

CLASS_NAMES = ("cat", "squeezed_vacuum", "coherent")
FLAG_DIVERGENCE_FRACTION = 0.10
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# Reference accuracies for the three-class task: uniform guessing, and the
# readout that separates squeezed states but lumps cat with coherent.
BASELINE_UNIFORM_ACCURACY = 1.0 / 3.0
BASELINE_PAIR_CONFUSED_ACCURACY = 0.66

# Input-state parameter ranges for the two tasks.  Classification draws the
# magnitude and phase of each class from uniform windows chosen so the mean
# photon numbers of the three classes overlap; regression reuses the squeezed
# window and predicts zeta = r exp(2i theta).
CAT_BETA_RANGE = (1.12, 1.38)
COHERENT_BETA_RANGE = (1.03, 1.34)
SQUEEZED_R_RANGE = (0.9, 1.1)
PHASE_RANGE = (0.0, math.pi / 2.0)


@dataclass(frozen=True)
class Hyperparams:
    """Adam settings; batch_size None means full batch."""

    learning_rate: float = 5e-4
    epochs: int = 10_000
    batch_size: int | None = None
    seed: int = 0

    def __post_init__(self):
        rate = self.learning_rate
        if (isinstance(rate, bool) or not isinstance(rate, numbers.Real)
                or not (rate > 0 and math.isfinite(rate))):
            raise ConfigError(f"learning rate must be a positive number, got {rate!r}")
        if not _is_count(self.epochs):
            raise ConfigError(f"epochs must be an integer >= 1, got {self.epochs!r}")
        if self.batch_size is not None and not _is_count(self.batch_size):
            raise ConfigError(f"batch size must be an integer >= 1, got {self.batch_size!r}")


def _is_count(value) -> bool:
    """An integer >= 1 (NumPy's too) that is not a boolean."""
    return (not isinstance(value, bool) and isinstance(value, numbers.Integral)
            and value >= 1)


CLASSIFY_HYPERPARAMS = Hyperparams(learning_rate=5e-4, epochs=10_000, batch_size=None)
REGRESS_HYPERPARAMS = Hyperparams(learning_rate=5e-4, epochs=25_000, batch_size=150)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, max-shifted for stability."""
    z = np.asarray(logits, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ConfigError("softmax input must be finite")
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(probs: np.ndarray, one_hot: np.ndarray) -> float:
    """Mean negative log-likelihood of the true classes."""
    p = np.clip(np.asarray(probs, dtype=float), 1e-12, None)
    y = np.asarray(one_hot, dtype=float)
    if p.shape != y.shape:
        raise ConfigError(f"probs shape {p.shape} does not match labels {y.shape}")
    return float(-(y * np.log(p)).sum() / y.shape[0])


def classifier_loss_and_grad(weights, bias, features, one_hot):
    """Cross-entropy loss and its gradients for a softmax readout."""
    n = features.shape[0]
    probs = softmax(features @ weights.T + bias)
    loss = cross_entropy(probs, one_hot)
    delta = (probs - one_hot) / n
    return loss, delta.T @ features, delta.sum(axis=0)


def regressor_loss_and_grad(weights, bias, features, targets_2d):
    """Squared-error loss |zeta - prediction|^2 averaged over records."""
    n = features.shape[0]
    pred = features @ weights.T + bias
    resid = pred - targets_2d
    loss = float((resid ** 2).sum() / n)
    delta = 2.0 * resid / n
    return loss, delta.T @ features, delta.sum(axis=0)


@dataclass(frozen=True, eq=False)
class ReadoutModel:
    """Trained linear readout plus the feature transform it was trained with."""

    kind: str                          # "classify" or "regress"
    weights: np.ndarray                # (outputs, features)
    bias: np.ndarray                   # (outputs,)
    feature_mean: np.ndarray           # (features,)
    feature_std: np.ndarray            # (features,)
    classes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in ("classify", "regress"):
            raise ConfigError(f"unknown model kind {self.kind!r}")
        w = self.weights
        if w.ndim != 2 or self.bias.shape != (w.shape[0],):
            raise ConfigError("weights must be (outputs, features) with matching bias")
        if self.feature_mean.shape != (w.shape[1],) or self.feature_std.shape != (w.shape[1],):
            raise ConfigError("feature normalization vectors must match feature count")
        for arr in (w, self.bias, self.feature_mean, self.feature_std):
            if not np.all(np.isfinite(arr)):
                raise ConfigError("model parameters must be finite")
        if self.kind == "classify" and len(self.classes) != w.shape[0]:
            raise ConfigError("classifier needs one class name per output row")

    def transform(self, features: np.ndarray) -> np.ndarray:
        return (np.asarray(features, dtype=float) - self.feature_mean) / self.feature_std

    def logits(self, features: np.ndarray) -> np.ndarray:
        return self.transform(features) @ self.weights.T + self.bias

    def predict_class(self, features: np.ndarray) -> np.ndarray:
        """Class indices for a (n, features) matrix."""
        return np.argmax(self.logits(features), axis=-1)

    def predict_complex(self, features: np.ndarray) -> np.ndarray:
        out = self.logits(features)
        return out[..., 0] + 1j * out[..., 1]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "classes": list(self.classes),
            "weights": [[float(v) for v in row] for row in self.weights],
            "bias": [float(v) for v in self.bias],
            "feature_mean": [float(v) for v in self.feature_mean],
            "feature_std": [float(v) for v in self.feature_std],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ReadoutModel":
        try:
            return cls(kind=data["kind"],
                       weights=np.asarray(data["weights"], dtype=float),
                       bias=np.asarray(data["bias"], dtype=float),
                       feature_mean=np.asarray(data["feature_mean"], dtype=float),
                       feature_std=np.asarray(data["feature_std"], dtype=float),
                       classes=tuple(data.get("classes", ())))
        except KeyError as exc:
            raise ConfigError(f"model artifact missing field {exc}") from None

    def dumps(self) -> str:
        return yaml.safe_dump(self.to_dict(), sort_keys=True, default_flow_style=None)


def load_model(path) -> ReadoutModel:
    return ReadoutModel.from_dict(load_yaml(path))


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature records with a train/test partition.

    task is "classify" (labels are class names, targets None) or
    "predict_squeezing" (every label is squeezed_vacuum, targets are the
    complex zeta values).
    """

    task: str
    records: tuple[FeatureRecord, ...]
    train_indices: tuple[int, ...]
    test_indices: tuple[int, ...]
    classes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.task not in ("classify", "predict_squeezing"):
            raise ConfigError(f"unknown task {self.task!r}")
        total = len(self.records)
        seen = set(self.train_indices) | set(self.test_indices)
        if len(self.train_indices) + len(self.test_indices) != len(seen):
            raise ConfigError("train and test splits overlap")
        if any(i < 0 or i >= total for i in seen):
            raise ConfigError("split index out of range")
        if self.task == "classify":
            if not self.classes:
                raise ConfigError("classification dataset needs class names")
            unknown = {r.label for r in self.records} - set(self.classes)
            if unknown:
                raise ConfigError(f"records carry labels outside the class list: {unknown}")

    @property
    def n_features(self) -> int:
        return self.records[0].features.shape[0] if self.records else 0

    def indices(self, split: str) -> tuple[int, ...]:
        if split == "train":
            return self.train_indices
        if split == "test":
            return self.test_indices
        raise ConfigError(f"split must be 'train' or 'test', got {split!r}")

    def features(self, split: str) -> np.ndarray:
        idx = self.indices(split)
        if not idx:
            return np.zeros((0, self.n_features))
        return np.array([self.records[i].features for i in idx], dtype=float)

    def one_hot(self, split: str) -> np.ndarray:
        if self.task != "classify":
            raise ConfigError("one-hot labels only exist for the classification task")
        idx = self.indices(split)
        out = np.zeros((len(idx), len(self.classes)))
        lookup = {name: j for j, name in enumerate(self.classes)}
        for row, i in enumerate(idx):
            out[row, lookup[self.records[i].label]] = 1.0
        return out

    def class_indices(self, split: str) -> np.ndarray:
        return np.argmax(self.one_hot(split), axis=1)

    def targets(self, split: str) -> np.ndarray:
        if self.task != "predict_squeezing":
            raise ConfigError("complex targets only exist for the regression task")
        idx = self.indices(split)
        values = []
        for i in idx:
            t = self.records[i].target
            if t is None:
                raise ConfigError(f"record {i} has no regression target")
            values.append(t)
        return np.asarray(values, dtype=complex)

    def to_csv(self) -> str:
        n_feat = self.n_features
        cols = ["split", "label", "target_re", "target_im", "divergence_fraction",
                "flagged", "kind", "beta_re", "beta_im", "nbar", "r", "theta",
                "cat_phase"] + [f"f{j}" for j in range(n_feat)]
        split_of = {**dict.fromkeys(self.train_indices, "train"),
                    **dict.fromkeys(self.test_indices, "test")}
        rows = [cols]
        for i, rec in enumerate(self.records):
            s = rec.state
            t = rec.target if rec.target is not None else complex("nan")
            rows.append([split_of.get(i, "unused"), rec.label, t.real, t.imag,
                         rec.divergence_fraction, rec.flagged, s.kind, s.beta.real,
                         s.beta.imag, s.nbar, s.r, s.theta, s.cat_phase, *rec.features])
        return csv_text(["#task", self.task, ",".join(self.classes)], rows)

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_csv().encode()).hexdigest()


def dataset_from_csv(text: str) -> Dataset:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2 or not lines[0].startswith("#task,"):
        raise ConfigError("dataset CSV must start with a '#task' line")
    head = lines[0].split(",")
    task = head[1]
    classes = tuple(c for c in head[2:] if c)
    cols = lines[1].split(",")
    n_feat = sum(1 for c in cols if c.startswith("f") and c[1:].isdigit())
    records = []
    train_idx, test_idx = [], []
    for ln in lines[2:]:
        cells = ln.split(",")
        if len(cells) != len(cols):
            raise ConfigError(f"dataset row has {len(cells)} cells, expected {len(cols)}")
        split, label = cells[0], cells[1]
        target = complex(float(cells[2]), float(cells[3]))
        state = StateSpec(kind=cells[6], beta=complex(float(cells[7]), float(cells[8])),
                          nbar=float(cells[9]), r=float(cells[10]),
                          theta=float(cells[11]), cat_phase=float(cells[12]))
        features = np.array([float(v) for v in cells[13:13 + n_feat]])
        rec = FeatureRecord(features=features, label=label, state=state,
                            target=None if np.isnan(target.real) else target,
                            divergence_fraction=float(cells[4]),
                            flagged=bool(int(cells[5])))
        if split == "train":
            train_idx.append(len(records))
        elif split == "test":
            test_idx.append(len(records))
        records.append(rec)
    return Dataset(task=task, records=tuple(records), train_indices=tuple(train_idx),
                   test_indices=tuple(test_idx), classes=classes)


def load_dataset(path) -> Dataset:
    with open(path) as fh:
        return dataset_from_csv(fh.read())


@dataclass(frozen=True, eq=False)
class TrainingCurves:
    """Per-epoch loss and score; score is accuracy or MSE depending on kind."""

    kind: str
    epoch: np.ndarray
    train_loss: np.ndarray
    test_loss: np.ndarray
    train_score: np.ndarray
    test_score: np.ndarray

    def to_csv(self) -> str:
        name = "acc" if self.kind == "classify" else "mse"
        return csv_text(["epoch", "train_loss", "test_loss", f"train_{name}", f"test_{name}"],
                        zip(self.epoch, self.train_loss, self.test_loss,
                            self.train_score, self.test_score))


class _Adam:
    """Plain Adam on a list of parameter arrays."""

    def __init__(self, params: list[np.ndarray], hyper: Hyperparams):
        self.params = params
        self.hyper = hyper
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads: list[np.ndarray]):
        h = self.hyper
        self.t += 1
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            m_hat = m / (1.0 - ADAM_BETA1 ** self.t)
            v_hat = v / (1.0 - ADAM_BETA2 ** self.t)
            p -= h.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _accuracy(logits, one_hot):
    return float(np.mean(np.argmax(logits, axis=1) == np.argmax(one_hot, axis=1)))


def _mse(pred, targets_2d):
    return float(((pred - targets_2d) ** 2).sum() / pred.shape[0])


def _train(kind: str, dataset: Dataset, y_train: np.ndarray, y_test: np.ndarray,
           hyper: Hyperparams, loss_and_grad, score, split_loss=None, classes=()):
    """Adam on a linear readout with y_train.shape[1] outputs.

    loss_and_grad(weights, bias, x, y) gives the minibatch loss and gradients;
    score(out, y) gives the score of the readout output on a whole split, and
    split_loss(out, y) the test loss when it is not the score itself.  The
    train curves hold the minibatch loss and the full-split score.
    """
    x_train = dataset.features("train")
    mean, std = x_train.mean(axis=0), x_train.std(axis=0)
    std[std < 1e-12] = 1.0
    xs_train = (x_train - mean) / std
    xs_test = (dataset.features("test") - mean) / std

    rng = np.random.default_rng(hyper.seed)
    weights = 0.01 * rng.standard_normal((y_train.shape[1], x_train.shape[1]))
    bias = np.zeros(y_train.shape[1])
    opt = _Adam([weights, bias], hyper)
    curves = {key: np.zeros(hyper.epochs) for key in
              ("train_loss", "test_loss", "train_score", "test_score")}

    for epoch in range(hyper.epochs):
        if hyper.batch_size is None or hyper.batch_size >= xs_train.shape[0]:
            xb, yb = xs_train, y_train
        else:
            pick = rng.permutation(xs_train.shape[0])[:hyper.batch_size]
            xb, yb = xs_train[pick], y_train[pick]
        loss, gw, gb = loss_and_grad(weights, bias, xb, yb)
        if not math.isfinite(loss):
            raise DivergenceError(f"training loss became non-finite at epoch {epoch}")
        opt.step([gw, gb])

        curves["train_loss"][epoch] = loss
        curves["train_score"][epoch] = score(xs_train @ weights.T + bias, y_train)
        if xs_test.shape[0]:
            out = xs_test @ weights.T + bias
            test = curves["test_score"][epoch] = score(out, y_test)
            curves["test_loss"][epoch] = split_loss(out, y_test) if split_loss else test

    model = ReadoutModel(kind=kind, weights=weights, bias=bias,
                         feature_mean=mean, feature_std=std, classes=classes)
    return model, TrainingCurves(kind=kind, epoch=np.arange(hyper.epochs), **curves)


def train_classifier(dataset: Dataset, hyper: Hyperparams = CLASSIFY_HYPERPARAMS):
    """Softmax readout trained with Adam; returns (model, curves)."""
    if dataset.task != "classify":
        raise ConfigError("train_classifier needs a classification dataset")
    if len(dataset.classes) < 2:
        raise ConfigError("classification needs at least two classes")
    return _train("classify", dataset, dataset.one_hot("train"), dataset.one_hot("test"),
                  hyper, classifier_loss_and_grad, _accuracy,
                  lambda out, y: cross_entropy(softmax(out), y), classes=dataset.classes)


def train_regressor(dataset: Dataset, hyper: Hyperparams = REGRESS_HYPERPARAMS):
    """Two-output linear readout for zeta; returns (model, curves)."""
    if dataset.task != "predict_squeezing":
        raise ConfigError("train_regressor needs a regression dataset")
    z_train = dataset.targets("train")
    z_test = dataset.targets("test")
    y_train = np.column_stack([z_train.real, z_train.imag])
    y_test = np.column_stack([z_test.real, z_test.imag]) if z_test.size else np.zeros((0, 2))
    return _train("regress", dataset, y_train, y_test, hyper,
                  regressor_loss_and_grad, _mse)


@dataclass(frozen=True, eq=False)
class Metrics:
    """Evaluation results; confusion rows follow the dataset class order."""

    kind: str
    accuracy: float | None = None
    confusion_counts: np.ndarray | None = None     # (k, k) ints, rows = true
    confusion: np.ndarray | None = None            # row-normalized
    mse: float | None = None
    squared_errors: np.ndarray | None = None       # per-record |zeta - pred|^2

    def confusion_csv(self, classes: tuple[str, ...]) -> str:
        return csv_text(["true\\predicted", *classes],
                        [[name, *self.confusion[j]] for j, name in enumerate(classes)])


def evaluate(model: ReadoutModel, dataset: Dataset, split: str = "test") -> Metrics:
    """Accuracy plus row-normalized confusion matrix, or MSE for regression."""
    x = dataset.features(split)
    if not len(x):
        raise ConfigError(f"the {split} split has no records to evaluate")
    if model.kind == "classify":
        true = dataset.class_indices(split)
        pred = model.predict_class(x)
        k = len(dataset.classes)
        counts = np.zeros((k, k), dtype=int)
        for t, p in zip(true, pred):
            counts[t, p] += 1
        row_total = counts.sum(axis=1)
        norm = np.zeros((k, k))
        for j in range(k):
            if row_total[j]:
                norm[j] = counts[j] / row_total[j]
        return Metrics(kind="classify", accuracy=float(np.mean(pred == true)),
                       confusion_counts=counts, confusion=norm)
    zeta = dataset.targets(split)
    pred = model.predict_complex(x)
    sq = np.abs(zeta - pred) ** 2
    return Metrics(kind="regress", mse=float(sq.mean()), squared_errors=sq)


# ---------------------------------------------------------------------------
# Dataset generation


def _draw_state(task: str, label: str, rng: np.random.Generator) -> tuple[StateSpec, complex | None]:
    if task == "predict_squeezing" or label == "squeezed_vacuum":
        r = rng.uniform(*SQUEEZED_R_RANGE)
        theta = rng.uniform(*PHASE_RANGE)
        state = StateSpec(kind="squeezed_vacuum", r=r, theta=theta)
        target = complex(r * np.exp(2j * theta)) if task == "predict_squeezing" else None
        return state, target
    if label == "cat":
        mag = rng.uniform(*CAT_BETA_RANGE)
        phi = rng.uniform(*PHASE_RANGE)
        return StateSpec(kind="cat", beta=mag * np.exp(1j * phi)), None
    if label == "coherent":
        mag = rng.uniform(*COHERENT_BETA_RANGE)
        phi = rng.uniform(*PHASE_RANGE)
        return StateSpec(kind="coherent", beta=mag * np.exp(1j * phi)), None
    raise ConfigError(f"no parameter range for label {label!r}")


def _one_record(spec: ReservoirSpec, schedule: Schedule, relaxed: RelaxedStart,
                state: StateSpec, label: str, target, trajectories: int, sample_seed,
                run_seed) -> FeatureRecord:
    samples = sample_state(state, trajectories, seed=sample_seed)
    try:
        series = run_ensemble(spec, samples, schedule, seed=run_seed, relaxed=relaxed)
    except DivergenceError:
        return FeatureRecord(features=np.zeros(spec.n_modes), label=label,
                             state=state, target=target,
                             divergence_fraction=1.0, flagged=True)
    # a survivor here survived the relaxation, so relaxed.series exists
    steady = steady_occupations(relaxed.series)
    features = feature_vector(series, steady)
    frac = float(series.divergence_fraction)
    return FeatureRecord(features=features, label=label, state=state,
                         target=target, divergence_fraction=frac,
                         flagged=frac > FLAG_DIVERGENCE_FRACTION)


def generate_dataset(task: str, spec: ReservoirSpec, schedule: Schedule, *,
                     train_count: int, test_count: int, trajectories: int,
                     seed=None, workers: int = 1) -> Dataset:
    """Sample input states, run the reservoir, and assemble feature records.

    For classification train_count/test_count are per class.  The relaxation
    phase, which cannot see the input, is integrated once (seed base + (3,))
    and gives every record its steady baseline; each record resumes from it
    with its own input samples (base + (1, c, i)) and injection noise (base +
    (2, c, i)).  Record seeds follow the record's position, so the dataset
    is reproducible and independent of generation order and worker count.
    """
    _check_workers(workers)
    if task not in ("classify", "predict_squeezing"):
        raise ConfigError(f"unknown task {task!r}")
    if train_count < 1 or test_count < 0:
        raise ConfigError("need at least one training record and test_count >= 0")
    base = _seed_base(seed)
    relaxed = relax_ensemble(spec, schedule, trajectories, seed=base + (3,))
    labels = CLASS_NAMES if task == "classify" else ("squeezed_vacuum",)
    per_label = train_count + test_count
    plans = []
    train_idx, test_idx = [], []
    for c, label in enumerate(labels):
        for i in range(per_label):
            param_rng = np.random.default_rng(
                np.random.SeedSequence(base + (0, c, i)))
            state, target = _draw_state(task, label, param_rng)
            (train_idx if i < train_count else test_idx).append(len(plans))
            plans.append((spec, schedule, relaxed, state, label, target, trajectories,
                          base + (1, c, i), base + (2, c, i)))
    records = _pool_starmap(_one_record, plans, workers)
    return Dataset(task=task, records=tuple(records),
                   train_indices=tuple(train_idx), test_indices=tuple(test_idx),
                   classes=CLASS_NAMES if task == "classify" else ())
