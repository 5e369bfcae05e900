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
from dataclasses import dataclass

import numpy as np
import yaml

from .dynamics import RelaxedStart, Schedule, relax_ensemble, run_ensemble, _pool_starmap
from .errors import ConfigError, DivergenceError
from .model import ReservoirSpec, checked_number, generator, seed_key
from .observables import SPLITS, FeatureRecord, csv_text, feature_vector, steady_occupations
from .sampler import StateSpec, sample_state

CLASS_NAMES = ("cat", "squeezed_vacuum", "coherent")
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
        rate = checked_number(self.learning_rate, "learning rate")
        if not (rate > 0 and math.isfinite(rate)):
            raise ConfigError(f"learning rate must be a positive number, got {rate!r}")
        checked_number(self.epochs, "epochs", integer=True, minimum=1)
        if self.batch_size is not None:
            checked_number(self.batch_size, "batch size", integer=True, minimum=1)
        seed_key(self.seed, "readout seed")


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

    def dumps(self) -> str:
        return yaml.safe_dump({
            "kind": self.kind,
            "classes": list(self.classes),
            "weights": [[float(v) for v in row] for row in self.weights],
            "bias": [float(v) for v in self.bias],
            "feature_mean": [float(v) for v in self.feature_mean],
            "feature_std": [float(v) for v in self.feature_std],
        }, sort_keys=True, default_flow_style=None)


def squeezing_target(state: StateSpec) -> complex:
    """The regression target of a squeezed vacuum: zeta = r exp(2i theta)."""
    return complex(state.r * np.exp(2j * state.theta))


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature records, each in the train or the test split.

    task is "classify" (each state is of one of the classes) or
    "predict_squeezing" (every state is a squeezed vacuum, whose target is
    its complex zeta).
    """

    task: str
    records: tuple[FeatureRecord, ...]

    def __post_init__(self):
        if self.task not in ("classify", "predict_squeezing"):
            raise ConfigError(f"unknown task {self.task!r}")
        kinds = self.classes or ("squeezed_vacuum",)
        unknown = sorted({r.label for r in self.records} - set(kinds))
        if unknown:
            raise ConfigError(f"{self.task} records carry state kinds outside {kinds}: {unknown}")

    @property
    def classes(self) -> tuple[str, ...]:
        return CLASS_NAMES if self.task == "classify" else ()

    @property
    def n_features(self) -> int:
        return self.records[0].features.shape[0] if self.records else 0

    def _records(self, split: str) -> list[FeatureRecord]:
        """The records of `split`, in dataset order."""
        if split not in SPLITS:
            raise ConfigError(f"split must be 'train' or 'test', got {split!r}")
        return [r for r in self.records if r.split == split]

    def features(self, split: str) -> np.ndarray:
        rows = [r.features for r in self._records(split)]
        return np.array(rows, dtype=float) if rows else np.zeros((0, self.n_features))

    def one_hot(self, split: str) -> np.ndarray:
        if self.task != "classify":
            raise ConfigError("one-hot labels only exist for the classification task")
        records = self._records(split)
        out = np.zeros((len(records), len(self.classes)))
        for row, rec in enumerate(records):
            out[row, self.classes.index(rec.label)] = 1.0
        return out

    def targets(self, split: str) -> np.ndarray:
        if self.task != "predict_squeezing":
            raise ConfigError("complex targets only exist for the regression task")
        return np.asarray([squeezing_target(r.state) for r in self._records(split)], complex)

    def to_csv(self) -> str:
        n_feat = self.n_features
        cols = ["split", "label", "target_re", "target_im", "divergence_fraction",
                "flagged", "kind", "beta_re", "beta_im", "nbar", "r", "theta",
                "cat_phase"] + [f"f{j}" for j in range(n_feat)]
        rows = [cols]
        for rec in self.records:
            s = rec.state
            t = squeezing_target(s) if self.task == "predict_squeezing" else complex("nan")
            rows.append([rec.split, rec.label, t.real, t.imag,
                         rec.divergence_fraction, rec.flagged, s.kind, s.beta.real,
                         s.beta.imag, s.nbar, s.r, s.theta, s.cat_phase, *rec.features])
        return csv_text(["#task", self.task, ",".join(self.classes)], rows)

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_csv().encode()).hexdigest()


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

    rng = generator(seed_key(hyper.seed, "readout seed"))
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
        out = xs_train @ weights.T + bias
        if not np.all(np.isfinite(out)):    # caught here, before softmax refuses it
            raise DivergenceError(f"readout output became non-finite at epoch {epoch}")

        curves["train_loss"][epoch] = loss
        curves["train_score"][epoch] = score(out, y_train)
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
        true = np.argmax(dataset.one_hot(split), axis=1)
        pred = model.predict_class(x)
        k = len(dataset.classes)
        counts = np.zeros((k, k), dtype=int)
        np.add.at(counts, (true, pred), 1)
        row_total = counts.sum(axis=1, keepdims=True)
        norm = np.divide(counts, row_total, out=np.zeros((k, k)), where=row_total > 0)
        return Metrics(accuracy=float(np.mean(pred == true)),
                       confusion_counts=counts, confusion=norm)
    zeta = dataset.targets(split)
    pred = model.predict_complex(x)
    sq = np.abs(zeta - pred) ** 2
    return Metrics(mse=float(sq.mean()), squared_errors=sq)


# ---------------------------------------------------------------------------
# Dataset generation


def _draw_state(kind: str, rng: np.random.Generator) -> StateSpec:
    """A state of `kind` from its task window: r or |beta| first, then the phase."""
    if kind == "squeezed_vacuum":
        r = rng.uniform(*SQUEEZED_R_RANGE)
        return StateSpec(kind=kind, r=r, theta=rng.uniform(*PHASE_RANGE))
    mag = rng.uniform(*(CAT_BETA_RANGE if kind == "cat" else COHERENT_BETA_RANGE))
    return StateSpec(kind=kind, beta=mag * np.exp(1j * rng.uniform(*PHASE_RANGE)))


def _one_record(spec: ReservoirSpec, schedule: Schedule, relaxed: RelaxedStart,
                state: StateSpec, split: str, trajectories: int,
                sample_seed, run_seed) -> FeatureRecord:
    samples = sample_state(state, trajectories, seed=sample_seed)
    try:
        series = run_ensemble(spec, samples, schedule, seed=run_seed, relaxed=relaxed)
    except DivergenceError:
        return FeatureRecord(features=np.zeros(spec.n_modes), split=split, state=state,
                             divergence_fraction=1.0)
    # a survivor here survived the relaxation, so relaxed.series exists
    steady = steady_occupations(relaxed.series)
    return FeatureRecord(features=feature_vector(series, steady), split=split, state=state,
                         divergence_fraction=float(series.divergence_fraction))


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
    checked_number(workers, "workers", integer=True, minimum=1)
    if task not in ("classify", "predict_squeezing"):
        raise ConfigError(f"unknown task {task!r}")
    checked_number(train_count, "train_count", integer=True, minimum=1)
    checked_number(test_count, "test_count", integer=True, minimum=0)
    base = seed_key(seed)
    relaxed = relax_ensemble(spec, schedule, trajectories, seed=base + (3,))
    kinds = CLASS_NAMES if task == "classify" else ("squeezed_vacuum",)
    plans = [(spec, schedule, relaxed, _draw_state(kind, generator(base + (0, c, i))),
              "train" if i < train_count else "test", trajectories,
              base + (1, c, i), base + (2, c, i))
             for c, kind in enumerate(kinds) for i in range(train_count + test_count)]
    return Dataset(task=task, records=tuple(_pool_starmap(_one_record, plans, workers)))
