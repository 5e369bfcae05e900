"""Observables: occupation estimators, time series containers, feature vectors.

The central container is OccupationSeries: per-node mean occupation and its
standard error on a recorded time grid, together with the fraction of
trajectories that diverged (excluded from the averages).  The stochastic
ensemble emits it; the exact oracle's MasterSeries holds occupations on the
same time grid, so the two compare point by point.  csv_text writes every CSV
artifact of the package.

The reservoir-computing feature of node i is the phase-2 time integral of the
occupation above its driven steady value,

    n_i = integral_T <n_i(t)> dt - <n_i^steady> * T,

with the steady value averaged over the last third of the relaxation phase
and T running from the injection time to the last recorded time.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .sampler import StateSpec

# np.trapezoid replaced np.trapz in numpy 2.0 (and 2.4 removed np.trapz);
# the old name is only looked up where the new one is missing.
trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz

SPLITS = ("train", "test")


def csv_text(header, rows) -> str:
    """CSV text, one newline-terminated line for the header and for each row.

    A str cell is written as it is, an integer or bool as str(int(x)), and
    every other cell as repr(float(x)), which reads back bit-exactly.
    """
    def cell(x):
        if isinstance(x, str):
            return x
        if isinstance(x, (numbers.Integral, np.bool_)):
            return str(int(x))
        return repr(float(x))
    return "".join(",".join(map(cell, row)) + "\n" for row in (header, *rows))


def occupation(alpha, alpha_tilde):
    """Occupation estimator of a doubled-phase-space pair: Re(alpha * conj(alpha_tilde))."""
    return np.real(np.asarray(alpha) * np.conj(np.asarray(alpha_tilde)))


@dataclass(frozen=True, eq=False)
class OccupationSeries:
    """Mean occupation per node over recorded times.

    injection_time marks the start of the cascade phase (0 when there is no
    relaxation); the steady baseline and the features need it.
    """

    times: np.ndarray                 # (T,)
    mean: np.ndarray                  # (T, N)
    stderr: np.ndarray                # (T, N)
    divergence_fraction: float
    n_trajectories: int
    injection_time: float

    def __post_init__(self):
        t = self.times.shape[0]
        if self.mean.ndim != 2 or self.mean.shape[0] != t or self.stderr.shape != self.mean.shape:
            raise ConfigError(
                f"inconsistent series shapes: times {self.times.shape}, "
                f"mean {self.mean.shape}, stderr {self.stderr.shape}")
        if not 0.0 <= self.divergence_fraction <= 1.0:
            raise ConfigError(f"divergence fraction {self.divergence_fraction} outside [0, 1]")

    @property
    def n_modes(self) -> int:
        return self.mean.shape[1]

    # -- CSV schema ---------------------------------------------------------
    # header: time,mean_0,stderr_0,...,mean_{N-1},stderr_{N-1}
    # data rows, then footer rows labelled in column 0:
    #   divergence_fraction, n_trajectories, injection_time

    def to_csv(self) -> str:
        n = self.n_modes
        header = ["time"] + [f"{q}_{i}" for i in range(n) for q in ("mean", "stderr")]
        cells = np.stack([self.mean, self.stderr], axis=-1).reshape(len(self.times), -1)
        rows = [[t, *row] for t, row in zip(self.times, cells)]
        pad = [""] * (2 * n - 1)
        rows += [["divergence_fraction", self.divergence_fraction, *pad],
                 ["n_trajectories", self.n_trajectories, *pad],
                 ["injection_time", float(self.injection_time), *pad]]
        return csv_text(header, rows)


def _window_rows(series: OccupationSeries, t_lo: float, t_hi: float) -> np.ndarray:
    eps = 1e-9 * max(1.0, abs(t_hi))
    mask = (series.times >= t_lo - eps) & (series.times <= t_hi + eps)
    if not mask.any():
        raise ConfigError(f"window ({t_lo}, {t_hi}) contains no recorded times")
    return mask


def steady_occupations(series: OccupationSeries) -> np.ndarray:
    """Average occupation per node over the last third of the relaxation
    phase, [2/3, 1] of the injection time: the steady baseline before the
    source opens."""
    t_inj = series.injection_time
    return series.mean[_window_rows(series, 2.0 * t_inj / 3.0, t_inj)].mean(axis=0)


def feature_vector(series: OccupationSeries, steady: np.ndarray) -> np.ndarray:
    """Integrated occupation deviation per node over the injection phase: the
    trapezoidal integral of mean(t) - steady from injection to the last time."""
    steady = np.asarray(steady, dtype=float)
    if steady.shape != (series.n_modes,):
        raise ConfigError(
            f"steady vector has shape {steady.shape}, expected ({series.n_modes},)")
    mask = _window_rows(series, series.injection_time, float(series.times[-1]))
    t = series.times[mask]
    if t.shape[0] < 2:
        raise ConfigError("feature window needs at least two recorded times")
    # integrate the deviation itself so a series sitting exactly at its steady
    # level yields exact zeros
    return trapezoid(series.mean[mask] - steady, t, axis=0)


FLAG_DIVERGENCE_FRACTION = 0.10    # a record that lost more of its trajectories is flagged


@dataclass(frozen=True, eq=False)
class FeatureRecord:
    """One dataset record: the features of one input state, its split and divergence."""

    features: np.ndarray          # (N,)
    split: str                    # "train" or "test"
    state: StateSpec
    divergence_fraction: float = 0.0

    def __post_init__(self):
        if self.features.ndim != 1:
            raise ConfigError("features must be a 1-d vector")
        if self.split not in SPLITS:
            raise ConfigError(f"split must be 'train' or 'test', got {self.split!r}")

    @property
    def label(self) -> str:
        """The class name: the injected state's kind."""
        return self.state.kind

    @property
    def flagged(self) -> bool:
        return self.divergence_fraction > FLAG_DIVERGENCE_FRACTION
