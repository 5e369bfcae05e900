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

with vbar refined by two half-step midpoint iterations, noise held fixed
within the step (Drummond & Mortimer, J. Comput. Phys. 93, 144, 1991): a
third moves desk-scale means by under 0.01 standard errors, one fewer by
about one.  |D_E| -> 0 uses the series limit tau(1 + z/2 + z^2/6), z = tau
D_E.  A block of S trajectories is one array (2, S, N), alpha in row 0 and
alpha_tilde in row 1, so each numpy call advances both (the ensemble layout
of xSPDE, Kiesewetter et al., SoftwareX 5, 12, 2016).

The run is split into a relaxation phase (f=0: source frozen, reservoir
relaxes under its drive) and an injection phase (f=1: cascade open, source
decaying); f only ever takes the values 0 and 1.  While f=0 the reservoir
cannot see the source (the cascade factorization of Gardiner, PRL 70, 2269,
1993 and Carmichael, PRL 70, 2273, 1993), so relax_ensemble integrates that
phase once and run_ensemble(relaxed=...) resumes from it at injection.

Reproducibility: trajectory i of an ensemble seeded b draws its noise from an
own PCG64 stream seeded by b + (i,), in order, alpha's noise from the first N
of each step's 2N draws (a slab's length bounds memory and changes no draw);
ensemble reduction runs over fixed 512-trajectory blocks combined in index
order, so results are bit-identical regardless of how work is partitioned.
Dataset record (c, i) under root seed r samples its input from r + (1, c, i)
and integrates its injection phase from r + (2, c, i); all records resume
from one relaxation seeded r + (3,), so they share its Monte Carlo error
(common random numbers) while each record's estimator keeps its
distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError
from .model import ReservoirSpec
from .observables import OccupationSeries, csv_text, occupation
from .sampler import PhaseSampleSet, vacuum_samples

BLOCK_TRAJECTORIES = 512   # fixed reduction block; do not tune per machine
NOISE_SLAB_BYTES = 1 << 20  # a block's noise is drawn in slabs of about this size
DIVERGENCE_THRESHOLD = 1e10  # |alpha|^2 + |alpha_tilde|^2 divergence cutoff
MIDPOINT_ITERATIONS = 2


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
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigError(f"dt must be positive and finite, got {dt}")
    if not math.isfinite(duration):
        raise ConfigError(f"{name} must be finite, got {duration}")
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
        self.kerr = -1j * spec.kerr                       # times alpha conj(alpha_tilde)
        self.base = 1j * spec.detuning - spec.loss / 2.0 + 0.5j * spec.kerr
        self.noise_coeff = math.sqrt(abs(spec.kerr)) * np.exp(-0.25j * np.pi)
        self.drive = -1j * spec.drive
        self.hopping = 1j * spec.hopping if np.any(spec.hopping) else None
        inject = np.sqrt(spec.source_loss * spec.loss * f) * spec.input_weights
        self.inject = inject if np.any(inject) else None
        self.source_exp = -f * spec.eta * spec.source_loss / 2.0

    def step_terms(self, noise, sources):
        """A step's constants: base + noise, and drive - injection of sources (2, S)."""
        if self.inject is None:
            return self.base + noise, self.drive
        return self.base + noise, self.drive - self.inject * sources[..., None]


def _derivs(coeffs: _PhaseCoeffs, pair, diag, forcing):
    """Split derivatives (d_exp, d_res) of the stacked pair (2, S, N)."""
    d_exp = diag + coeffs.kerr * (pair * np.conj(pair[::-1]))
    if coeffs.hopping is not None:
        forcing = forcing + (pair.reshape(-1, pair.shape[2]) @ coeffs.hopping).reshape(pair.shape)
    return d_exp, forcing


def _exp_bracket(d_exp: np.ndarray, tau: float):
    """exp(tau D) and (exp(tau D) - 1)/D with a series limit for small |tau D|."""
    z = tau * d_exp
    e = np.exp(z)
    small = np.abs(z) < 1e-5
    if not small.any():
        return e, (e - 1.0) / d_exp
    series = tau * (1.0 + z / 2.0 + z * z / 6.0)
    return e, np.where(small, series, (e - 1.0) / np.where(small, 1.0, d_exp))


def _step_arrays(coeffs: _PhaseCoeffs, tau: float, pair, sources, noise):
    """One exponential semi-implicit midpoint step of the stacked pair (2, S, N)
    and sources (2, S), under the scaled noise (2, S, N)."""
    half = tau / 2.0
    diag, forcing = coeffs.step_terms(noise, sources * math.exp(half * coeffs.source_exp))
    mid = pair
    for _ in range(MIDPOINT_ITERATIONS):
        d_exp, d_res = _derivs(coeffs, mid, diag, forcing)
        e, bracket = _exp_bracket(d_exp, half)
        mid = pair * e + bracket * d_res
    d_exp, d_res = _derivs(coeffs, mid, diag, forcing)
    e, bracket = _exp_bracket(d_exp, tau)
    return pair * e + bracket * d_res, sources * math.exp(tau * coeffs.source_exp)


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

    `pair` (2, S, N) stacks alpha over alpha_tilde, `sources` (2, S) the
    source pair.  start must be a recorded step (default: the whole
    schedule); rows not `alive` count as diverged from the start.
    """

    def __init__(self, spec: ReservoirSpec, schedule: Schedule, pair0, sources0,
                 generators, keep_amplitudes: bool = False,
                 start: int = 0, stop: int | None = None, alive=None):
        self.schedule = schedule
        self.start = start
        self.stop = schedule.n_total if stop is None else stop
        _, s, n = pair0.shape
        self.coeffs = (_PhaseCoeffs(spec, 0), _PhaseCoeffs(spec, 1))
        self.pair = pair0.astype(complex)            # astype copies
        self.sources = sources0.astype(complex)
        self.generators = generators
        self.alive = np.ones(s, dtype=bool) if alive is None else alive.copy()
        self.diverged_at = np.full(s, np.nan)
        t_rec = (self.stop - start) // schedule.record_stride + 1
        self.occupations = np.zeros((s, t_rec, n))
        self.amp = np.zeros((2, s, t_rec, n), dtype=complex) if keep_amplitudes else None
        self.src = np.zeros((2, s, t_rec), dtype=complex) if keep_amplitudes else None

    def run(self):
        sched = self.schedule
        _, s, n = self.pair.shape
        tau = sched.dt
        scale = 1.0 / math.sqrt(tau)
        n_relax = sched.n_relax
        # slab (step, 2, S, N): trajectory i's draws fill column i, in the
        # order of a (length, 2N) draw whose first N columns drive alpha
        slab = max(1, NOISE_SLAB_BYTES // (16 * s * n))
        noise_buf = np.empty((min(slab, self.stop - self.start), 2, s, n))
        self._record(0)
        rec = 1
        with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
            for k in range(self.start, self.stop):
                slab_pos = (k - self.start) % slab
                if slab_pos == 0:
                    length = min(slab, self.stop - k)
                    for i, gen in enumerate(self.generators):
                        noise_buf[:length, :, i] = gen.standard_normal((length, 2, n))
                coeffs = self.coeffs[0] if k < n_relax else self.coeffs[1]
                noise = noise_buf[slab_pos] * (scale * coeffs.noise_coeff)
                self.pair, self.sources = _step_arrays(coeffs, tau, self.pair,
                                                       self.sources, noise)
                self._check_divergence((k + 1) * tau)
                if (k + 1) % sched.record_stride == 0:
                    self._record(rec)
                    rec += 1
        return self

    def _check_divergence(self, time: float):
        square = self.pair.real ** 2 + self.pair.imag ** 2
        within = square[0] + square[1] <= DIVERGENCE_THRESHOLD   # NaN compares False
        if within.all():
            return
        bounded = within.all(axis=1)
        newly_dead = self.alive & ~bounded
        if newly_dead.any():
            self.alive &= bounded
            self.diverged_at[newly_dead] = time
            self.pair[:, newly_dead] = 0
            self.sources[:, newly_dead] = 0

    def _record(self, rec: int):
        self.occupations[:, rec, :] = occupation(self.pair[0], self.pair[1])
        if self.amp is not None:
            self.amp[:, :, rec, :] = self.pair
            self.src[:, :, rec] = self.sources


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
                      seed=None, index: int = 0) -> TrajectoryRecord:
    """Integrate a single trajectory; equals trajectory `index` of run_ensemble
    under the same root seed."""
    pair0 = np.array([initial.alpha, initial.alpha_tilde], dtype=complex).reshape(2, 1, -1)
    if pair0.shape[2] != spec.n_modes:
        raise ConfigError(
            f"initial state has {pair0.shape[2]} modes, reservoir has {spec.n_modes}")
    run = _BlockRun(
        spec, schedule, pair0,
        np.array([[initial.source], [initial.source_tilde]], dtype=complex),
        _trajectory_generators(_seed_base(seed), index, 1),
        keep_amplitudes=True).run()
    diverged = not run.alive[0]
    return TrajectoryRecord(
        times=schedule.times, alpha=run.amp[0, 0], alpha_tilde=run.amp[1, 0],
        source=run.src[0, 0], source_tilde=run.src[1, 0],
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


def _block_runs(spec, schedule, initial: RelaxedStart, sources0, base: tuple,
                start: int, stop: int):
    """Integrate fixed 512-trajectory blocks in index order, yielding each run.

    An empty ensemble is refused when the first run is asked for."""
    total = initial.alive.shape[0]
    if total < 1:
        raise ConfigError(f"trajectory count must be >= 1, got {total}")
    for lo in range(0, total, BLOCK_TRAJECTORIES):
        hi = min(lo + BLOCK_TRAJECTORIES, total)
        yield _BlockRun(
            spec, schedule, np.stack([initial.alpha[lo:hi], initial.alpha_tilde[lo:hi]]),
            sources0[:, lo:hi], _trajectory_generators(base, lo, hi - lo),
            start=start, stop=stop, alive=initial.alive[lo:hi]).run()


def _ensemble_series(runs, times, total: int, injection_time: float,
                     ends: list | None = None) -> OccupationSeries | None:
    """Moments over the surviving trajectories of `runs`; None if none survived.

    Each block contributes (count, mean, M2) triples, merged in block order
    by the Chan-Golub-LeVeque update (Am. Stat. 37, 242, 1983), so the
    variance does not cancel catastrophically at large means.  A block's
    recording is dropped once merged; `ends` collects its final (pair, alive).
    """
    occ = None
    lo, hi = np.inf, -np.inf
    for run in runs:
        if ends is not None:
            ends.append((run.pair, run.alive))
        block = run.occupations[run.alive]
        if block.shape[0]:
            occ = _merge_moments(occ, block)
            lo = np.minimum(lo, block.min(axis=0))
            hi = np.maximum(hi, block.max(axis=0))
        del run, block   # free this block's recording before the next is integrated
    if occ is None:
        return None
    kept, mean, m2 = occ
    stderr = np.sqrt(m2 / max(kept - 1, 1) / kept)
    stderr[hi == lo] = 0.0  # identical values: error is exactly zero
    return OccupationSeries(
        times=times, mean=mean, stderr=stderr,
        divergence_fraction=(total - kept) / total,
        n_trajectories=total,
        injection_time=injection_time)


def _merge_moments(acc, block):
    """Merge the (count, mean, M2) triple `acc` (None: empty) with `block`'s."""
    count = block.shape[0]
    mean = block.mean(axis=0)
    m2 = ((block - mean) ** 2).sum(axis=0)
    if acc is None:
        return count, mean, m2
    n_a, mean_a, m2_a = acc
    total = n_a + count
    delta = mean - mean_a
    return (total, mean_a + delta * (count / total),
            m2_a + m2 + delta * delta * (n_a * count / total))


def relax_ensemble(spec: ReservoirSpec, schedule: Schedule, trajectories: int,
                   seed=None) -> RelaxedStart:
    """Integrate the relaxation phase (f = 0) of `trajectories` vacuum-start
    reservoir trajectories, for any number of injections to resume from.
    One block's recording is in memory at a time."""
    vacuum = _vacuum_start(trajectories, spec.n_modes)
    ends = []
    series = _ensemble_series(
        _block_runs(spec, schedule, vacuum, np.zeros((2, trajectories)),
                    _seed_base(seed), 0, schedule.n_relax),
        schedule.times[:schedule.injection_index + 1], trajectories, schedule.t_relax, ends)
    alive = np.concatenate([a for _, a in ends])
    pair = np.where(alive[:, None], np.concatenate([p for p, _ in ends], axis=1), 0)
    return RelaxedStart(alpha=pair[0], alpha_tilde=pair[1], alive=alive, series=series)


def run_ensemble(spec: ReservoirSpec, source_samples: PhaseSampleSet, schedule: Schedule,
                 seed=None, *, relaxed: RelaxedStart | None = None) -> OccupationSeries:
    """Ensemble occupation statistics: source sample i drives trajectory i.

    Reservoir modes start from vacuum (alpha = alpha_tilde = 0); the source
    pair is installed at t=0 and stays frozen through the relaxation phase.
    With `relaxed` (from relax_ensemble on the same spec and schedule),
    trajectory i resumes from relaxed row i at the injection time instead,
    and the series covers the recorded times from t_relax on.  Trajectories
    past DIVERGENCE_THRESHOLD, also those lost while relaxing, are excluded
    from the averages entirely; if all diverge, raises DivergenceError.
    """
    total = len(source_samples)
    start = 0 if relaxed is None else schedule.n_relax
    initial = _vacuum_start(total, spec.n_modes) if relaxed is None else relaxed
    if initial.alpha.shape != (total, spec.n_modes):
        raise ConfigError(f"relaxed start has shape {initial.alpha.shape}, "
                          f"expected ({total}, {spec.n_modes})")
    runs = _block_runs(spec, schedule, initial,
                       np.stack([source_samples.alpha, source_samples.alpha_tilde]),
                       _seed_base(seed), start, schedule.n_total)
    series = _ensemble_series(runs, schedule.times[start // schedule.record_stride:],
                              total, schedule.t_relax)
    if series is None:
        raise DivergenceError(
            f"all {total} trajectories diverged (threshold {DIVERGENCE_THRESHOLD:g})")
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
        return csv_text(["f", self.other_name, "convergent_fraction"],
                        [(f, other, self.fraction[i, j])
                         for i, other in enumerate(self.other_values)
                         for j, f in enumerate(self.f_values)])


def stability_scan(f_values, *, kerr_values=None, loss_values=None,
                   trajectories: int = 500, horizon: float = 25.0, dt: float = 0.05, seed=None,
                   kerr: float = 0.1, loss: float = 1.0, workers: int = 1) -> StabilityScan:
    """Map single-mode trajectory stability over a parameter grid.

    Exactly one of kerr_values / loss_values selects the second axis; the
    other parameter is held at its keyword value (loss=1 for the drive-kerr
    plane, kerr=0.1 for the drive-loss plane).  Each grid point integrates
    `trajectories` vacuum-start trajectories over `horizon` and reports the
    fraction that stayed below DIVERGENCE_THRESHOLD.  Point (i, j) is
    seeded base + (i, j), so `workers` processes give the same fractions as one.
    """
    _check_workers(workers)
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
    plans = [(build_single_mode(drive=f_amp, kerr=(o if scanning_kerr else kerr),
                                loss=(loss if scanning_kerr else o)),
              vacuum, schedule, base + (i, j))
             for i, o in enumerate(other) for j, f_amp in enumerate(f_values)]
    fractions = _pool_starmap(_convergent_fraction, plans, workers)
    return StabilityScan(
        f_values=f_values, other_name="kerr" if scanning_kerr else "loss",
        other_values=other, fraction=np.array(fractions).reshape(other.size, -1),
        trajectories=trajectories, horizon=horizon, dt=dt,
        fixed={"loss": loss} if scanning_kerr else {"kerr": kerr})


def _check_workers(workers) -> None:
    """Refuse a worker count that is not an integer >= 1 (booleans included)."""
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ConfigError(f"workers must be an integer >= 1, got {workers!r}")


def _pool_starmap(fn, plans, workers: int) -> list:
    """[fn(*plan) for plan in plans], fanned out over `workers` spawned processes."""
    if workers == 1:
        return [fn(*plan) for plan in plans]
    import multiprocessing
    with multiprocessing.get_context("spawn").Pool(workers) as pool:
        return pool.starmap(fn, plans)


def _convergent_fraction(spec, samples, schedule, seed) -> float:
    try:
        series = run_ensemble(spec, samples, schedule, seed=seed)
    except DivergenceError:
        return 0.0
    return 1.0 - series.divergence_fraction


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
