"""Stochastic phase-space integration of the driven-dissipative Kerr lattice.

Each trajectory carries paired amplitudes (alpha_j, alpha_tilde_j) per mode
plus one source pair (s, s_tilde).  The Ito equations integrated here are

  d alpha_j = [ i Delta_j alpha_j - i U alpha_j^2 conj(alpha_tilde_j) - i F_j
               - (gamma_j/2) alpha_j + i sum_k J_kj alpha_k
               - sqrt(gamma_s gamma_j f) W_j s ] dt
             + sqrt(-i U) alpha_j xi_j dt

with the tilde equation mirrored (own amplitude squared times the conjugate
of the partner, its own noise xi_tilde), and the source decaying as
ds/dt = -f eta gamma_s s / 2.  xi are white noises of variance 1/dt per step;
both noise branches carry sqrt(-iU) = sqrt(U) exp(-i pi/4) because the tilde
equation is the conjugate of the one for conj(alpha_tilde).

The stepper splits each derivative into an exponentially integrated diagonal
part D_E (detuning, loss, Kerr frequency shift, multiplicative noise, plus
the +iU/2 noise-autocorrelation correction) and a residual D_R (drive,
hopping, source injection), advancing

    v(t + tau) = v(t) exp(tau D_E(vbar)) + (exp(tau D_E(vbar)) - 1) D_R(vbar)/D_E(vbar)

with vbar refined by a fixed number of half-step midpoint iterations, noise
held fixed within the step.  |D_E| -> 0 uses the series limit tau(1 + z/2 +
z^2/6), z = tau D_E.

The run is split into a relaxation phase (f=0: source frozen, reservoir
relaxes under its drive) and an injection phase (f=1: cascade open, source
decaying); f only ever takes the values 0 and 1.  While f=0 the reservoir
cannot see the source (the cascade factorization of Gardiner, PRL 70, 2269,
1993 and Carmichael, PRL 70, 2273, 1993), so relax_ensemble integrates that
phase once and run_ensemble(relaxed=...) resumes from it at injection.

Reproducibility: trajectory i of an ensemble seeded b draws its noise from an
own PCG64 stream seeded by b + (i,), in fixed 128-step slabs counted from the
run's first step; ensemble reduction runs over fixed 512-trajectory blocks
combined in index order, so results are bit-identical regardless of how work
is partitioned.  Dataset record (c, i) under root seed r samples its input
from r + (1, c, i) and integrates its injection phase from r + (2, c, i);
all records resume from one relaxation seeded r + (3,), so they share its
Monte Carlo error (common random numbers) while each record's estimator
keeps its distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError
from .model import ReservoirSpec
from .observables import OccupationSeries
from .sampler import PhaseSampleSet, vacuum_samples

BLOCK_TRAJECTORIES = 512   # fixed reduction block; do not tune per machine
NOISE_SLAB_STEPS = 128     # noise is drawn per trajectory in slabs this long
DEFAULT_THRESHOLD = 1e10   # |alpha|^2 + |alpha_tilde|^2 divergence cutoff
MIDPOINT_ITERATIONS = 3


@dataclass(frozen=True)
class Schedule:
    """Two-phase time grid: relaxation (f=0) then injection (f=1).

    All durations must be integer multiples of dt; record_stride must divide
    both the relaxation step count and the total step count so that recorded
    times include t=0, the injection time, and the final time.
    """

    t_relax: float
    t_final: float
    dt: float = 0.05
    record_stride: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.t_relax < 0 or self.t_final < 0:
            raise ConfigError("phase durations must be >= 0")
        if int(self.record_stride) != self.record_stride or self.record_stride < 1:
            raise ConfigError(f"record_stride must be a positive integer, got {self.record_stride}")
        n_relax = _exact_steps(self.t_relax, self.dt, "t_relax")
        n_total = n_relax + _exact_steps(self.t_final, self.dt, "t_final")
        if n_total < 1:
            raise ConfigError("schedule has zero total duration")
        if n_total % self.record_stride or n_relax % self.record_stride:
            raise ConfigError(
                f"record_stride {self.record_stride} must divide both the "
                f"relaxation step count {n_relax} and the total {n_total}")

    @property
    def n_relax(self) -> int:
        return _exact_steps(self.t_relax, self.dt, "t_relax")

    @property
    def n_total(self) -> int:
        return self.n_relax + _exact_steps(self.t_final, self.dt, "t_final")

    @property
    def times(self) -> np.ndarray:
        """Recorded times, t=0 included."""
        return np.arange(0, self.n_total + 1, self.record_stride) * self.dt

    @property
    def injection_index(self) -> int:
        """Index of the injection time within the recorded grid."""
        return self.n_relax // self.record_stride


def _exact_steps(duration: float, dt: float, name: str) -> int:
    steps = round(duration / dt)
    if abs(steps * dt - duration) > 1e-9 * max(1.0, abs(duration)):
        raise ConfigError(f"{name}={duration} is not an integer multiple of dt={dt}")
    return steps


@dataclass(frozen=True)
class PhaseSamplePair:
    """Instantaneous doubled-phase-space state of one trajectory."""

    alpha: np.ndarray         # (N,) complex
    alpha_tilde: np.ndarray   # (N,) complex
    source: complex = 0j
    source_tilde: complex = 0j


class _PhaseCoeffs:
    """Constant coefficient arrays of one schedule phase (f fixed to 0 or 1)."""

    def __init__(self, spec: ReservoirSpec, f: int):
        self.kerr = spec.kerr
        self.base = 1j * spec.detuning - spec.loss / 2.0 + 0.5j * spec.kerr
        self.noise_coeff = math.sqrt(abs(spec.kerr)) * np.exp(-0.25j * np.pi)
        self.drive = -1j * spec.drive
        self.hopping = spec.hopping
        self.inject = np.sqrt(spec.source_loss * spec.loss * f) * spec.input_weights
        self.source_exp = -f * spec.eta * spec.source_loss / 2.0


def _derivs(coeffs: _PhaseCoeffs, alpha, alpha_tilde, source, source_tilde, noise_a, noise_t):
    """Split derivatives for batched amplitudes (..., N) and sources (...)."""
    u = coeffs.kerr
    d_exp_a = coeffs.base - 1j * u * (alpha * np.conj(alpha_tilde)) + noise_a
    d_exp_t = coeffs.base - 1j * u * (alpha_tilde * np.conj(alpha)) + noise_t
    d_res_a = coeffs.drive + 1j * (alpha @ coeffs.hopping) \
        - coeffs.inject * source[..., None]
    d_res_t = coeffs.drive + 1j * (alpha_tilde @ coeffs.hopping) \
        - coeffs.inject * source_tilde[..., None]
    return d_exp_a, d_res_a, d_exp_t, d_res_t


def _exp_bracket(d_exp: np.ndarray, tau: float):
    """exp(tau D) and (exp(tau D) - 1)/D with a series limit for small |tau D|."""
    z = tau * d_exp
    e = np.exp(z)
    small = np.abs(z) < 1e-5
    if small.any():
        safe = np.where(small, 1.0, d_exp)
        series = tau * (1.0 + z / 2.0 + z * z / 6.0)
        bracket = np.where(small, series, (e - 1.0) / safe)
    else:
        bracket = (e - 1.0) / d_exp
    return e, bracket


def _step_arrays(coeffs: _PhaseCoeffs, tau: float, alpha, alpha_tilde, source, source_tilde,
                 noise_a, noise_t, iterations: int = MIDPOINT_ITERATIONS):
    """One exponential semi-implicit midpoint step on batched arrays."""
    half = tau / 2.0
    source_mid = source * math.exp(half * coeffs.source_exp)
    source_tilde_mid = source_tilde * math.exp(half * coeffs.source_exp)
    a_mid, t_mid = alpha, alpha_tilde
    for _ in range(iterations):
        d_exp_a, d_res_a, d_exp_t, d_res_t = _derivs(
            coeffs, a_mid, t_mid, source_mid, source_tilde_mid, noise_a, noise_t)
        e_a, b_a = _exp_bracket(d_exp_a, half)
        e_t, b_t = _exp_bracket(d_exp_t, half)
        a_mid = alpha * e_a + b_a * d_res_a
        t_mid = alpha_tilde * e_t + b_t * d_res_t
    d_exp_a, d_res_a, d_exp_t, d_res_t = _derivs(
        coeffs, a_mid, t_mid, source_mid, source_tilde_mid, noise_a, noise_t)
    e_a, b_a = _exp_bracket(d_exp_a, tau)
    e_t, b_t = _exp_bracket(d_exp_t, tau)
    decay = math.exp(tau * coeffs.source_exp)
    return (alpha * e_a + b_a * d_res_a,
            alpha_tilde * e_t + b_t * d_res_t,
            source * decay,
            source_tilde * decay)


# ---------------------------------------------------------------------------
# ensemble integration


def _seed_base(seed) -> tuple:
    if seed is None:
        return (np.random.SeedSequence().entropy,)
    if isinstance(seed, tuple):
        return tuple(int(v) for v in seed)
    return (int(seed),)


def _trajectory_generators(base: tuple, start: int, count: int):
    return [np.random.Generator(np.random.PCG64(np.random.SeedSequence(base + (i,))))
            for i in range(start, start + count)]


class _BlockRun:
    """Integrate one block of trajectories over schedule steps [start, stop).

    start must be a recorded step; the default range is the full schedule.
    Rows whose `alive` entry is False count as diverged from the start.
    """

    def __init__(self, spec: ReservoirSpec, schedule: Schedule, alpha0, alpha_tilde0,
                 source0, source_tilde0, generators, threshold: float,
                 keep_amplitudes: bool = False, start: int = 0, stop: int | None = None,
                 alive=None):
        self.spec = spec
        self.schedule = schedule
        self.start = start
        self.stop = schedule.n_total if stop is None else stop
        n = spec.n_modes
        s = alpha0.shape[0]
        self.coeffs = (_PhaseCoeffs(spec, 0), _PhaseCoeffs(spec, 1))
        self.alpha = alpha0.astype(complex).copy()
        self.alpha_tilde = alpha_tilde0.astype(complex).copy()
        self.source = source0.astype(complex).copy()
        self.source_tilde = source_tilde0.astype(complex).copy()
        self.generators = generators
        self.threshold = threshold
        self.alive = np.ones(s, dtype=bool) if alive is None else alive.copy()
        self.diverged_at = np.full(s, np.nan)
        t_rec = (self.stop - start) // schedule.record_stride + 1
        self.occupations = np.zeros((s, t_rec, n))
        self.source_occupations = np.zeros((s, t_rec))
        self.keep_amplitudes = keep_amplitudes
        if keep_amplitudes:
            self.amp = np.zeros((s, t_rec, n), dtype=complex)
            self.amp_tilde = np.zeros_like(self.amp)
            self.src = np.zeros((s, t_rec), dtype=complex)
            self.src_tilde = np.zeros_like(self.src)

    def run(self):
        sched = self.schedule
        n = self.spec.n_modes
        s = self.alpha.shape[0]
        tau = sched.dt
        scale = 1.0 / math.sqrt(tau)
        noise_buf = np.empty((s, NOISE_SLAB_STEPS, 2 * n))
        self._record(0)
        rec = 1
        with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
            for k in range(self.start, self.stop):
                slab_pos = (k - self.start) % NOISE_SLAB_STEPS
                if slab_pos == 0:
                    length = min(NOISE_SLAB_STEPS, self.stop - k)
                    for i, gen in enumerate(self.generators):
                        noise_buf[i, :length] = gen.standard_normal((length, 2 * n))
                coeffs = self.coeffs[0] if k < sched.n_relax else self.coeffs[1]
                noise_a = noise_buf[:, slab_pos, :n] * (scale * coeffs.noise_coeff)
                noise_t = noise_buf[:, slab_pos, n:] * (scale * coeffs.noise_coeff)
                self.alpha, self.alpha_tilde, self.source, self.source_tilde = _step_arrays(
                    coeffs, tau, self.alpha, self.alpha_tilde,
                    self.source, self.source_tilde, noise_a, noise_t)
                self._check_divergence((k + 1) * tau)
                if (k + 1) % sched.record_stride == 0:
                    self._record(rec)
                    rec += 1
        return self

    def _check_divergence(self, time: float):
        metric = np.abs(self.alpha) ** 2 + np.abs(self.alpha_tilde) ** 2
        bounded = np.all(metric <= self.threshold, axis=1)  # NaN compares False
        newly_dead = self.alive & ~bounded
        if newly_dead.any():
            self.alive &= bounded
            self.diverged_at[newly_dead] = time
            self.alpha[newly_dead] = 0
            self.alpha_tilde[newly_dead] = 0
            self.source[newly_dead] = 0
            self.source_tilde[newly_dead] = 0

    def _record(self, rec: int):
        self.occupations[:, rec, :] = np.real(self.alpha * np.conj(self.alpha_tilde))
        self.source_occupations[:, rec] = np.real(self.source * np.conj(self.source_tilde))
        if self.keep_amplitudes:
            self.amp[:, rec, :] = self.alpha
            self.amp_tilde[:, rec, :] = self.alpha_tilde
            self.src[:, rec] = self.source
            self.src_tilde[:, rec] = self.source_tilde


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Recorded amplitudes of a single trajectory."""

    times: np.ndarray          # (T,)
    alpha: np.ndarray          # (T, N)
    alpha_tilde: np.ndarray    # (T, N)
    source: np.ndarray         # (T,)
    source_tilde: np.ndarray   # (T,)
    diverged: bool
    diverged_at: float | None


def evolve_trajectory(initial: PhaseSamplePair, spec: ReservoirSpec, schedule: Schedule,
                      seed=None, index: int = 0,
                      threshold: float = DEFAULT_THRESHOLD) -> TrajectoryRecord:
    """Integrate a single trajectory; equals trajectory `index` of run_ensemble
    under the same root seed."""
    alpha0 = np.asarray(initial.alpha, dtype=complex).reshape(1, -1)
    if alpha0.shape[1] != spec.n_modes:
        raise ConfigError(
            f"initial state has {alpha0.shape[1]} modes, reservoir has {spec.n_modes}")
    run = _BlockRun(
        spec, schedule, alpha0,
        np.asarray(initial.alpha_tilde, dtype=complex).reshape(1, -1),
        np.array([initial.source], dtype=complex),
        np.array([initial.source_tilde], dtype=complex),
        _trajectory_generators(_seed_base(seed), index, 1),
        threshold, keep_amplitudes=True).run()
    diverged = not run.alive[0]
    return TrajectoryRecord(
        times=schedule.times, alpha=run.amp[0], alpha_tilde=run.amp_tilde[0],
        source=run.src[0], source_tilde=run.src_tilde[0],
        diverged=diverged, diverged_at=float(run.diverged_at[0]) if diverged else None)


@dataclass(frozen=True, eq=False)
class RelaxedStart:
    """Reservoir ensemble at the injection time, relaxed once from vacuum.

    Rows that diverged while relaxing are zero and dead in `alive`; `series`
    holds the relaxation-phase occupations (None if no trajectory survived).
    """

    alpha: np.ndarray                 # (S, N) complex
    alpha_tilde: np.ndarray           # (S, N) complex
    alive: np.ndarray                 # (S,) bool
    series: OccupationSeries | None


def _vacuum_start(trajectories: int, n_modes: int) -> RelaxedStart:
    vacuum = np.zeros((trajectories, n_modes), dtype=complex)
    return RelaxedStart(alpha=vacuum, alpha_tilde=vacuum,
                        alive=np.ones(trajectories, dtype=bool), series=None)


def _block_runs(spec, schedule, initial: RelaxedStart, source0, source_tilde0,
                base: tuple, threshold: float, start: int, stop: int):
    """Integrate fixed 512-trajectory blocks in index order, yielding each run."""
    total = initial.alive.shape[0]
    for lo in range(0, total, BLOCK_TRAJECTORIES):
        hi = min(lo + BLOCK_TRAJECTORIES, total)
        yield _BlockRun(
            spec, schedule, initial.alpha[lo:hi], initial.alpha_tilde[lo:hi],
            source0[lo:hi], source_tilde0[lo:hi],
            _trajectory_generators(base, lo, hi - lo), threshold,
            start=start, stop=stop, alive=initial.alive[lo:hi]).run()


def _ensemble_series(runs, times, total: int, injection_time: float) -> OccupationSeries | None:
    """Moments over the surviving trajectories of `runs`; None if none survived."""
    sums = sq_sums = src_sums = 0.0
    lo, hi, kept = np.inf, -np.inf, 0
    for run in runs:
        occ = run.occupations[run.alive]
        if occ.shape[0]:
            sums += occ.sum(axis=0)
            sq_sums += (occ * occ).sum(axis=0)
            lo = np.minimum(lo, occ.min(axis=0))
            hi = np.maximum(hi, occ.max(axis=0))
            src_sums += run.source_occupations[run.alive].sum(axis=0)
            kept += occ.shape[0]
    if kept == 0:
        return None
    mean = sums / kept
    if kept > 1:
        var = np.maximum(sq_sums - kept * mean ** 2, 0.0) / (kept - 1)
        stderr = np.sqrt(var / kept)
        stderr[hi == lo] = 0.0  # identical values: error is exactly zero
    else:
        stderr = np.zeros_like(mean)
    return OccupationSeries(
        times=times, mean=mean, stderr=stderr,
        divergence_fraction=(total - kept) / total,
        n_trajectories=total,
        injection_time=injection_time,
        source_occupation=src_sums / kept)


def relax_ensemble(spec: ReservoirSpec, schedule: Schedule, trajectories: int,
                   seed=None, threshold: float = DEFAULT_THRESHOLD) -> RelaxedStart:
    """Integrate the relaxation phase (f = 0) of `trajectories` vacuum-start
    reservoir trajectories, for any number of injections to resume from."""
    if trajectories < 1:
        raise ConfigError(f"trajectory count must be >= 1, got {trajectories}")
    vacuum = _vacuum_start(trajectories, spec.n_modes)
    runs = list(_block_runs(spec, schedule, vacuum, vacuum.alpha[:, 0], vacuum.alpha[:, 0],
                            _seed_base(seed), threshold, 0, schedule.n_relax))
    alive = np.concatenate([run.alive for run in runs])
    return RelaxedStart(
        alpha=np.where(alive[:, None], np.concatenate([run.alpha for run in runs]), 0),
        alpha_tilde=np.where(alive[:, None],
                             np.concatenate([run.alpha_tilde for run in runs]), 0),
        alive=alive,
        series=_ensemble_series(runs, schedule.times[:schedule.injection_index + 1],
                                trajectories, schedule.t_relax))


def run_ensemble(spec: ReservoirSpec, source_samples: PhaseSampleSet, schedule: Schedule,
                 seed=None, *, threshold: float = DEFAULT_THRESHOLD,
                 relaxed: RelaxedStart | None = None) -> OccupationSeries:
    """Ensemble occupation statistics: source sample i drives trajectory i.

    Reservoir modes start from vacuum (alpha = alpha_tilde = 0); the source
    pair is installed at t=0 and stays frozen through the relaxation phase.
    With `relaxed` (from relax_ensemble on the same spec and schedule),
    trajectory i resumes from relaxed row i at the injection time instead,
    and the series covers the recorded times from t_relax on.  Diverged
    trajectories, also those lost while relaxing, are excluded from the
    averages entirely; if all diverge, raises DivergenceError.
    """
    total = len(source_samples)
    start = 0 if relaxed is None else schedule.n_relax
    initial = _vacuum_start(total, spec.n_modes) if relaxed is None else relaxed
    if initial.alpha.shape != (total, spec.n_modes):
        raise ConfigError(f"relaxed start has shape {initial.alpha.shape}, "
                          f"expected ({total}, {spec.n_modes})")
    runs = _block_runs(spec, schedule, initial, source_samples.alpha,
                       source_samples.alpha_tilde, _seed_base(seed), threshold,
                       start, schedule.n_total)
    series = _ensemble_series(runs, schedule.times[start // schedule.record_stride:],
                              total, schedule.t_relax)
    if series is None:
        raise DivergenceError(
            f"all {total} trajectories diverged (threshold {threshold:g})")
    return series


# ---------------------------------------------------------------------------
# stability scan


@dataclass(frozen=True, eq=False)
class StabilityScan:
    """Convergent-trajectory fraction over a (drive, kerr-or-loss) grid."""

    f_values: np.ndarray
    other_name: str               # "kerr" or "loss"
    other_values: np.ndarray
    fraction: np.ndarray          # (len(other_values), len(f_values))
    trajectories: int
    horizon: float
    dt: float
    fixed: dict

    def to_csv(self) -> str:
        lines = [f"f,{self.other_name},convergent_fraction"]
        for i, other in enumerate(self.other_values):
            for j, f in enumerate(self.f_values):
                lines.append(f"{float(f)!r},{float(other)!r},{float(self.fraction[i, j])!r}")
        return "\n".join(lines) + "\n"

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_csv())


def stability_scan(f_values, *, kerr_values=None, loss_values=None,
                   trajectories: int = 500, horizon: float = 25.0, dt: float = 0.05,
                   seed=None, threshold: float = DEFAULT_THRESHOLD,
                   kerr: float = 0.1, loss: float = 1.0) -> StabilityScan:
    """Map single-mode trajectory stability over a parameter grid.

    Exactly one of kerr_values / loss_values selects the second axis; the
    other parameter is held at its keyword value (loss=1 for the drive-kerr
    plane, kerr=0.1 for the drive-loss plane).  Each grid point integrates
    `trajectories` vacuum-start trajectories over `horizon` and reports the
    fraction that stayed below the divergence threshold.
    """
    if (kerr_values is None) == (loss_values is None):
        raise ConfigError("pass exactly one of kerr_values or loss_values")
    f_values = np.asarray(f_values, dtype=float)
    scanning_kerr = kerr_values is not None
    other = np.asarray(kerr_values if scanning_kerr else loss_values, dtype=float)
    if f_values.ndim != 1 or other.ndim != 1 or not f_values.size or not other.size:
        raise ConfigError("scan axes must be non-empty 1-d arrays")
    base = _seed_base(seed)
    steps = _exact_steps(horizon, dt, "horizon")
    schedule = Schedule(t_relax=0.0, t_final=horizon, dt=dt, record_stride=steps)
    vacuum = vacuum_samples(trajectories)
    fraction = np.zeros((other.size, f_values.size))
    for i, o in enumerate(other):
        for j, f_amp in enumerate(f_values):
            point = build_single_mode(
                drive=f_amp,
                kerr=(o if scanning_kerr else kerr),
                loss=(loss if scanning_kerr else o))
            try:
                series = run_ensemble(point, vacuum, schedule,
                                      seed=base + (i, j), threshold=threshold)
                fraction[i, j] = 1.0 - series.divergence_fraction
            except DivergenceError:
                fraction[i, j] = 0.0
    return StabilityScan(
        f_values=f_values, other_name="kerr" if scanning_kerr else "loss",
        other_values=other, fraction=fraction, trajectories=trajectories,
        horizon=horizon, dt=dt,
        fixed={"loss": loss} if scanning_kerr else {"kerr": kerr})


def build_single_mode(*, drive, kerr: float, loss: float, detuning: float = 0.0,
                      source_loss: float = 1.0, input_weight: float = 0.0) -> ReservoirSpec:
    """One isolated mode; the degenerate reservoir used by scans and oracles."""
    w = np.array([float(input_weight)])
    return ReservoirSpec(
        rows=1, cols=1, edges=(),
        hopping=np.zeros((1, 1)), detuning=np.array([float(detuning)]),
        kerr=float(kerr), drive=np.array([complex(drive)]),
        loss=np.array([float(loss)]), source_loss=float(source_loss),
        input_weights=w, eta=float(np.sum(w ** 2)), seed=None)
