"""Observables: occupation estimators, time series containers, feature vectors.

The central container is OccupationSeries: per-node mean occupation and its
standard error on a recorded time grid, together with the fraction of
trajectories that diverged (excluded from the averages).  Both the stochastic
integrator and the exact oracle emit this type, so their outputs diff cleanly.

The reservoir-computing feature of node i is the phase-2 time integral of the
occupation above its driven steady value,

    n_i = integral_T <n_i(t)> dt - <n_i^steady> * T,

with the steady value estimated over a late window of the relaxation phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .sampler import StateSpec

# np.trapezoid replaced np.trapz in numpy 2.0 (and 2.4 removed np.trapz);
# the old name is only looked up where the new one is missing.
trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz


def occupation(alpha, alpha_tilde):
    """Occupation estimator of a doubled-phase-space pair: Re(alpha * conj(alpha_tilde))."""
    return np.real(np.asarray(alpha) * np.conj(np.asarray(alpha_tilde)))


@dataclass(frozen=True, eq=False)
class OccupationSeries:
    """Mean occupation per node over recorded times.

    injection_time marks the start of the cascade phase (None when the run
    had no schedule split); source_occupation is filled by the oracle when a
    source mode is present (not part of the CSV schema).
    """

    times: np.ndarray                 # (T,)
    mean: np.ndarray                  # (T, N)
    stderr: np.ndarray                # (T, N)
    divergence_fraction: float
    n_trajectories: int
    injection_time: float | None = None
    source_occupation: np.ndarray | None = field(default=None, repr=False)

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
    #   divergence_fraction, n_trajectories, injection_time (blank if unset)

    def to_csv(self) -> str:
        n = self.n_modes
        header = "time," + ",".join(f"mean_{i},stderr_{i}" for i in range(n))
        lines = [header]
        for k in range(self.times.shape[0]):
            row = [repr(float(self.times[k]))]
            for i in range(n):
                row.append(repr(float(self.mean[k, i])))
                row.append(repr(float(self.stderr[k, i])))
            lines.append(",".join(row))
        pad = "," * (2 * n - 1)
        lines.append(f"divergence_fraction,{self.divergence_fraction!r}{pad}")
        lines.append(f"n_trajectories,{self.n_trajectories}{pad}")
        inj = "" if self.injection_time is None else repr(float(self.injection_time))
        lines.append(f"injection_time,{inj}{pad}")
        return "\n".join(lines) + "\n"

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_csv())


def series_from_csv(text: str, origin: str = "<csv>") -> OccupationSeries:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("time,"):
        raise ConfigError(f"{origin}: not an occupation series CSV")
    n = (len(lines[0].split(",")) - 1) // 2
    rows, footers = [], {}
    for ln in lines[1:]:
        cells = ln.split(",")
        if cells[0] and not _is_float(cells[0]):
            footers[cells[0]] = cells[1] if len(cells) > 1 else ""
        else:
            rows.append([float(c) for c in cells[:1 + 2 * n]])
    data = np.array(rows, dtype=float)
    if data.ndim != 2 or data.shape[1] != 1 + 2 * n:
        raise ConfigError(f"{origin}: malformed data rows")
    inj = footers.get("injection_time", "")
    return OccupationSeries(
        times=data[:, 0],
        mean=data[:, 1::2],
        stderr=data[:, 2::2],
        divergence_fraction=float(footers.get("divergence_fraction", 0.0)),
        n_trajectories=int(footers.get("n_trajectories", 0) or 0),
        injection_time=float(inj) if inj else None,
    )


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _window_rows(series: OccupationSeries, t_lo: float, t_hi: float) -> np.ndarray:
    if t_hi < t_lo:
        raise ConfigError(f"empty window ({t_lo}, {t_hi})")
    eps = 1e-9 * max(1.0, abs(t_hi))
    mask = (series.times >= t_lo - eps) & (series.times <= t_hi + eps)
    if not mask.any():
        raise ConfigError(f"window ({t_lo}, {t_hi}) contains no recorded times")
    return mask


def steady_occupations(series: OccupationSeries, window: tuple[float, float] | None = None) -> np.ndarray:
    """Average occupation per node over a late relaxation-phase window.

    Defaults to the last third of the relaxation phase.  The window must end
    by the injection time: the steady baseline is only meaningful before the
    source opens.
    """
    if window is None:
        if series.injection_time is None:
            raise ConfigError("series has no injection time; pass an explicit window")
        window = (2.0 * series.injection_time / 3.0, series.injection_time)
    t_lo, t_hi = float(window[0]), float(window[1])
    if series.injection_time is not None and t_hi > series.injection_time + 1e-9:
        raise ConfigError(
            f"steady window ({t_lo}, {t_hi}) extends past injection at t={series.injection_time}")
    mask = _window_rows(series, t_lo, t_hi)
    return series.mean[mask].mean(axis=0)


def feature_vector(series: OccupationSeries, steady: np.ndarray,
                   window: tuple[float, float] | None = None) -> np.ndarray:
    """Integrated occupation deviation per node over the injection phase.

    Trapezoidal integral of mean(t) over the window minus steady * window
    length.  Defaults to the full phase after injection_time.
    """
    steady = np.asarray(steady, dtype=float)
    if steady.shape != (series.n_modes,):
        raise ConfigError(
            f"steady vector has shape {steady.shape}, expected ({series.n_modes},)")
    if window is None:
        if series.injection_time is None:
            raise ConfigError("series has no injection time; pass an explicit window")
        window = (series.injection_time, float(series.times[-1]))
    t_lo, t_hi = float(window[0]), float(window[1])
    if series.injection_time is not None and t_lo < series.injection_time - 1e-9:
        raise ConfigError(
            f"feature window ({t_lo}, {t_hi}) starts before injection at t={series.injection_time}")
    mask = _window_rows(series, t_lo, t_hi)
    t = series.times[mask]
    if t.shape[0] < 2:
        raise ConfigError("feature window needs at least two recorded times")
    # integrate the deviation itself so a series sitting exactly at its steady
    # level yields exact zeros
    return trapezoid(series.mean[mask] - steady, t, axis=0)


@dataclass(frozen=True, eq=False)
class FeatureRecord:
    """One dataset record: features plus label/target and provenance."""

    features: np.ndarray          # (N,)
    label: str                    # class name, or "squeezed_vacuum" for regression
    state: StateSpec
    target: complex | None = None  # regression target, None for classification
    divergence_fraction: float = 0.0
    flagged: bool = False          # True when divergence fraction exceeded 10%

    def __post_init__(self):
        if self.features.ndim != 1:
            raise ConfigError("features must be a 1-d vector")
