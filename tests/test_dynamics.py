"""Stochastic integrator: drift split, exactness properties, ensembles, scans."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import max_se_ratio, plain_se
from pplattice import dynamics
from pplattice.dynamics import (PhaseSamplePair, RelaxedStart, Schedule, _BlockRun,
                                _derivs, _ensemble_series, _exp_bracket, _PhaseCoeffs,
                                _step_arrays, _trajectory_generators, build_single_mode,
                                evolve_trajectory, relax_ensemble, run_ensemble,
                                stability_scan)
from pplattice.errors import ConfigError, DivergenceError
from pplattice.model import build_reservoir, shape_for_modes
from pplattice.sampler import (PhaseSampleSet, cat_state, sample_coherent, sample_state,
                               sample_thermal, vacuum_samples)

# the desk presets' reservoir and schedule at N = 4
DESK_SCHEDULE = Schedule(t_relax=15.0, t_final=10.0, dt=0.05, record_stride=4)


def desk_reservoir():
    return build_reservoir(shape_for_modes(4), kerr=0.05, drive=0.5, loss=1.0, seed=7)


def one(value):
    """A batch of one trajectory: shape (1,) for sources, (1, 1) for modes."""
    return np.atleast_1d(np.asarray(value, dtype=complex))


def stacked(pair):
    """The (2, 1, N) amplitude and (2, 1) source arrays of one trajectory."""
    return (np.array([one(pair.alpha), one(pair.alpha_tilde)]).reshape(2, 1, -1),
            np.array([one(pair.source), one(pair.source_tilde)]))


def split(spec, f, pair, xi=0.0, xi_tilde=0.0):
    """_derivs at one phase-space point; xi are unit noise draws of the modes.
    Returns (d_exp, d_res) of shape (2, 1, N): row 0 alpha, row 1 alpha_tilde."""
    coeffs = _PhaseCoeffs(spec, f)
    amplitudes, sources = stacked(pair)
    noise = np.array([xi, xi_tilde]).reshape(2, 1, 1) * coeffs.noise_coeff
    d_exp, d_res = _derivs(coeffs, amplitudes, *coeffs.step_terms(noise, sources))
    return d_exp, np.broadcast_to(d_res, d_exp.shape)


# -- schedule -----------------------------------------------------------------

def test_schedule_grid_is_deterministic():
    sched = Schedule(t_relax=2.0, t_final=3.0, dt=0.05, record_stride=10)
    assert sched.n_relax == 40
    assert sched.n_total == 100
    assert np.array_equal(sched.times, np.arange(11) * 0.5)
    assert sched.times[sched.injection_index] == 2.0


def test_schedule_validation():
    with pytest.raises(ConfigError):
        Schedule(t_relax=1.0, t_final=1.0, dt=0.0, record_stride=1)
    with pytest.raises(ConfigError):
        Schedule(t_relax=1.0, t_final=-1.0, dt=0.05, record_stride=1)
    with pytest.raises(ConfigError):
        Schedule(t_relax=1.0, t_final=1.0, dt=0.05, record_stride=3)
    with pytest.raises(ConfigError):
        Schedule(t_relax=1.3, t_final=1.0, dt=0.5, record_stride=1)
    for bad in (4.0, True):     # refused here, not at the first slice that uses it
        with pytest.raises(ConfigError, match="record_stride must be an integer"):
            Schedule(t_relax=1.0, t_final=1.0, dt=0.05, record_stride=bad)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="finite"):
            Schedule(t_relax=bad, t_final=1.0, dt=0.05, record_stride=1)
        with pytest.raises(ConfigError, match="finite"):
            Schedule(t_relax=1.0, t_final=bad, dt=0.05, record_stride=1)
        with pytest.raises(ConfigError, match="finite"):
            stability_scan(np.array([1.0]), kerr_values=np.array([0.1]),
                           trajectories=5, horizon=bad)


def test_noise_scaling():
    # One kernel step from alpha = alpha_tilde = 1, undriven, with a weak Kerr
    # term: log(alpha) = -tau/2 + O(U tau) + tau * noise, where tau * noise =
    # sqrt(U tau) exp(-i pi/4) xi needs xi of variance 1/tau per step.
    kerr, tau, count = 1e-4, 0.05, 20_000
    spec = build_single_mode(drive=0.0, kerr=kerr, loss=1.0)
    schedule = Schedule(t_relax=tau, t_final=0.0, dt=tau)
    run = _BlockRun(spec, schedule, np.ones((2, count, 1)), np.ones((2, count)),
                    _trajectory_generators((0,), 0, count), keep_amplitudes=True).run()
    draws = ((np.log(run.amp[0, :, -1, 0]) + tau / 2.0) * np.exp(0.25j * math.pi)
             / math.sqrt(kerr * tau)).real
    assert abs(draws.var() - 1.0) < 0.03
    assert abs(draws.mean()) < 3.0 / math.sqrt(draws.size)


# -- drift split ---------------------------------------------------------------

def test_bare_decay_split():
    spec = build_single_mode(drive=0.0, kerr=0.0, loss=1.0)
    pair = PhaseSamplePair(alpha=np.array([0.3 + 0.1j]),
                           alpha_tilde=np.array([0.2j]),
                           source=0.5, source_tilde=0.5)
    d_exp, d_res = split(spec, 0, pair)
    assert d_exp[0, 0, 0] == -0.5
    assert d_res[0, 0, 0] == 0.0
    assert d_exp[1, 0, 0] == -0.5
    assert _PhaseCoeffs(spec, 0).source_exp == 0.0    # source frozen before injection


def test_kerr_split_coefficients():
    kerr = 0.1
    spec = build_single_mode(drive=0.0, kerr=kerr, loss=1.0)
    pair = PhaseSamplePair(alpha=np.array([1.0 + 0j]), alpha_tilde=np.array([1.0 + 0j]))
    quiet = split(spec, 0, pair)
    # -iU a at* - gamma/2 + iU/2
    assert quiet[0][0, 0, 0] == pytest.approx(-0.5 - 0.05j, abs=1e-15)
    kicked = split(spec, 0, pair, xi=1.0)
    noise_term = kicked[0][0, 0, 0] - quiet[0][0, 0, 0]
    assert abs(noise_term) == pytest.approx(math.sqrt(kerr), abs=1e-15)
    assert noise_term == pytest.approx(math.sqrt(kerr) * np.exp(-1j * math.pi / 4),
                                       abs=1e-15)
    assert kicked[0][1, 0, 0] == quiet[0][1, 0, 0]  # own noise only


def test_source_split_during_injection():
    spec = build_single_mode(drive=0.0, kerr=0.0, loss=1.0,
                             source_loss=2.0, input_weight=0.5)
    assert _PhaseCoeffs(spec, 1).source_exp == -spec.eta * spec.source_loss / 2.0


def test_exp_bracket_series_matches_expm1_for_small_steps():
    # every |tau D| below the 1e-5 switch, so only the series answers
    tau = 0.05
    d_exp = np.array([1e-4, -1e-4 + 1e-4j, 3e-6j, -2e-5 - 1e-7j, 1e-9, -1e-12j])
    e, bracket = _exp_bracket(d_exp, tau)
    assert np.all(np.abs(tau * d_exp) < 1e-5)
    assert np.array_equal(e, np.exp(tau * d_exp))
    np.testing.assert_allclose(bracket, np.expm1(tau * d_exp) / d_exp, rtol=1e-14, atol=0)
    # D = 0 is the limit (e^{tau D} - 1)/D -> tau, exactly
    e, bracket = _exp_bracket(np.array([0.0j, 1.0]), tau)
    assert bracket[0] == tau
    assert e[0] == 1.0


# -- single-step / single-trajectory exactness -----------------------------------

def test_pure_decay_step_is_exact():
    spec = build_single_mode(drive=0.0, kerr=0.0, loss=1.0)
    coeffs = _PhaseCoeffs(spec, 0)
    pair, sources = stacked(PhaseSamplePair(alpha=one(1.5 - 0.5j), alpha_tilde=one(0.8j)))
    quiet = np.zeros((2, 1, 1))
    tau = 0.3
    for _ in range(10):
        pair, sources = _step_arrays(coeffs, tau, pair, sources, quiet)
    decay = math.exp(-10 * tau / 2.0)
    assert pair[0, 0, 0] == pytest.approx((1.5 - 0.5j) * decay, abs=1e-14)
    assert pair[1, 0, 0] == pytest.approx(0.8j * decay, abs=1e-14)


def test_driven_linear_trajectory_matches_analytic_solution():
    spec = build_single_mode(drive=1.0, kerr=0.0, loss=1.0)
    schedule = Schedule(t_relax=25.0, t_final=0.0, dt=0.05, record_stride=20)
    record = evolve_trajectory(
        PhaseSamplePair(alpha=np.zeros(1, complex), alpha_tilde=np.zeros(1, complex)),
        spec, schedule, seed=0)
    analytic = -2.0j * (1.0 - np.exp(-schedule.times / 2.0))
    assert np.max(np.abs(record.alpha[:, 0] - analytic)) < 1e-6
    occ = np.real(record.alpha[:, 0] * np.conj(record.alpha_tilde[:, 0]))
    assert abs(occ[-1] - 4.0 * (1.0 - math.exp(-12.5)) ** 2) < 1e-6


def test_source_decay_is_exact():
    spec = build_single_mode(drive=0.0, kerr=0.0, loss=1.0, input_weight=1.0)
    schedule = Schedule(t_relax=1.0, t_final=2.0, dt=0.05, record_stride=5)
    s0 = 0.7 + 0.2j
    record = evolve_trajectory(
        PhaseSamplePair(alpha=np.zeros(1, complex), alpha_tilde=np.zeros(1, complex),
                        source=s0, source_tilde=s0),
        spec, schedule, seed=0)
    times = schedule.times
    frozen = times <= schedule.t_relax
    assert np.all(record.source[frozen] == s0)
    decay = s0 * np.exp(-spec.eta * spec.source_loss
                        * (times[~frozen] - schedule.t_relax) / 2.0)
    assert np.max(np.abs(record.source[~frozen] - decay)) < 1e-13


def test_two_midpoint_iterations_match_three_on_the_desk_setup(monkeypatch):
    # same seed, same samples: the third iteration moves the means by a tiny
    # fraction of their standard error
    spec = desk_reservoir()
    samples = sample_state(cat_state(1.25), 512, seed=8)
    series = {}
    for iterations in (2, 3):
        monkeypatch.setattr(dynamics, "MIDPOINT_ITERATIONS", iterations)
        series[iterations] = run_ensemble(spec, samples, DESK_SCHEDULE, seed=(4, 1))
    assert series[2].divergence_fraction == series[3].divergence_fraction == 0.0
    assert not np.array_equal(series[2].mean, series[3].mean)
    assert max_se_ratio(series[2].mean, series[2].stderr,
                        series[3].mean, series[3].stderr) < 0.05


def test_trajectory_is_bitwise_equal_to_its_row_in_a_full_block():
    # the hopping product runs on (2S, N) blocks: packing one row or 512
    # must not change a bit of alpha or alpha_tilde
    spec = desk_reservoir()
    schedule = Schedule(t_relax=1.0, t_final=1.0, dt=0.05, record_stride=2)
    count = 512
    samples = sample_state(cat_state(1.25), count, seed=3)
    pair0 = np.zeros((2, count, spec.n_modes), dtype=complex)
    block = _BlockRun(spec, schedule, pair0, np.stack([samples.alpha, samples.alpha_tilde]),
                      _trajectory_generators((6,), 0, count), keep_amplitudes=True).run()
    for i in (0, 1, 257, count - 1):
        record = evolve_trajectory(
            PhaseSamplePair(alpha=pair0[0, i], alpha_tilde=pair0[1, i],
                            source=complex(samples.alpha[i]),
                            source_tilde=complex(samples.alpha_tilde[i])),
            spec, schedule, seed=6, index=i)
        assert np.array_equal(record.alpha, block.amp[0, i])
        assert np.array_equal(record.alpha_tilde, block.amp[1, i])
        assert np.array_equal(record.source, block.src[0, i])


def slab_outputs(monkeypatch, steps):
    """Relaxation over 3 blocks (the last partial), a resumed injection in
    which some rows diverge, and one trajectory, with noise slabs of `steps`
    steps for a full block (None: the default budget)."""
    spec = build_reservoir(shape_for_modes(2), kerr=0.08, drive=0.5, seed=3)
    schedule = Schedule(t_relax=4.0, t_final=1.5, dt=0.05, record_stride=2)
    count = 2 * dynamics.BLOCK_TRAJECTORIES + 100
    samples = sample_state(cat_state(1.25), count, seed=4)

    def budget(rows):
        if steps is not None:
            monkeypatch.setattr(dynamics, "NOISE_SLAB_BYTES", steps * 16 * rows * spec.n_modes)

    budget(dynamics.BLOCK_TRAJECTORIES)
    relaxed = relax_ensemble(spec, schedule, count, seed=(5,))
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "DIVERGENCE_THRESHOLD", 5.0)
        resumed = run_ensemble(spec, samples, schedule, seed=(6,), relaxed=relaxed)
    budget(1)
    record = evolve_trajectory(
        PhaseSamplePair(alpha=relaxed.pair[0, 7], alpha_tilde=relaxed.pair[1, 7],
                        source=complex(samples.alpha[7]),
                        source_tilde=complex(samples.alpha_tilde[7])),
        spec, schedule, seed=8, index=7)
    monkeypatch.undo()
    assert 0 < resumed.divergence_fraction < 0.5
    return [relaxed.pair[0], relaxed.pair[1], relaxed.alive, relaxed.series.mean,
            relaxed.series.stderr, resumed.mean, resumed.stderr,
            [resumed.divergence_fraction], record.alpha, record.alpha_tilde, record.source]


@pytest.mark.parametrize("steps", [1, 7, 10_000])
def test_noise_slab_length_changes_no_draw(monkeypatch, steps):
    # the default is 64 steps; 7 divides neither phase (80 and 30 steps); 10,000
    # exceeds the run
    reference = slab_outputs(monkeypatch, None)
    for got, want in zip(slab_outputs(monkeypatch, steps), reference):
        assert np.array_equal(got, want)


# -- ensembles -------------------------------------------------------------------

def test_block_reduction_matches_two_pass_reference_at_large_mean():
    # mean 1e3, spread 0.1: a sum-of-squares variance keeps only 6 digits here
    rng = np.random.default_rng(21)
    sizes = (512, 512, 276)
    values = 1e3 + 0.1 * rng.standard_normal((sum(sizes), 3, 2))
    alive = rng.random(sum(sizes)) > 0.1
    runs, lo = [], 0
    for size in sizes:
        runs.append(SimpleNamespace(occupations=values[lo:lo + size],
                                    alive=alive[lo:lo + size]))
        lo += size
    series = _ensemble_series(runs, np.arange(3.0), sum(sizes), 0.0)
    kept = values[alive]
    count = kept.shape[0]
    mean = np.array([[math.fsum(kept[:, t, j]) / count for j in range(2)]
                     for t in range(3)])
    var = np.array([[math.fsum((kept[:, t, j] - mean[t, j]) ** 2) / (count - 1)
                     for j in range(2)] for t in range(3)])
    assert np.allclose(series.mean, mean, rtol=1e-12, atol=0)
    assert np.allclose(series.stderr, np.sqrt(var / count), rtol=1e-12, atol=0)
    assert series.divergence_fraction == (sum(sizes) - count) / sum(sizes)


def test_zero_kerr_ensemble_is_deterministic():
    spec = build_single_mode(drive=1.0, kerr=0.0, loss=1.0)
    schedule = Schedule(t_relax=5.0, t_final=0.0, dt=0.05, record_stride=10)
    samples = sample_coherent(0.0, 50)
    first = run_ensemble(spec, samples, schedule, seed=1)
    second = run_ensemble(spec, samples, schedule, seed=2)
    assert np.array_equal(first.mean, second.mean)
    assert np.all(first.stderr == 0.0)
    assert first.divergence_fraction == 0.0


def test_vacuum_source_injection_equals_drive_only_evolution():
    spec = build_single_mode(drive=0.8, kerr=0.0, loss=1.0, input_weight=0.8)
    with_injection = Schedule(t_relax=4.0, t_final=4.0, dt=0.05, record_stride=10)
    drive_only = Schedule(t_relax=8.0, t_final=0.0, dt=0.05, record_stride=10)
    samples = vacuum_samples(1)
    a = run_ensemble(spec, samples, with_injection, seed=0)
    b = run_ensemble(spec, samples, drive_only, seed=0)
    assert np.array_equal(a.times, b.times)
    assert np.max(np.abs(a.mean - b.mean)) < 1e-13


def test_ensemble_mean_equals_average_of_indexed_trajectories():
    spec = build_single_mode(drive=1.0, kerr=0.1, loss=1.0, input_weight=0.6)
    schedule = Schedule(t_relax=1.0, t_final=1.0, dt=0.05, record_stride=4)
    samples = sample_thermal(0.5, 3, seed=14)
    series = run_ensemble(spec, samples, schedule, seed=99)
    occ = []
    for i in range(3):
        record = evolve_trajectory(
            PhaseSamplePair(alpha=np.zeros(1, complex), alpha_tilde=np.zeros(1, complex),
                            source=complex(samples.alpha[i]),
                            source_tilde=complex(samples.alpha_tilde[i])),
            spec, schedule, seed=99, index=i)
        occ.append(np.real(record.alpha * np.conj(record.alpha_tilde)))
    assert np.max(np.abs(series.mean - np.mean(occ, axis=0))) < 1e-12


def test_same_seed_reproduces_ensemble_bitwise():
    spec = build_single_mode(drive=1.0, kerr=0.08, loss=1.0)
    schedule = Schedule(t_relax=2.0, t_final=0.0, dt=0.05, record_stride=8)
    samples = vacuum_samples(40)
    a = run_ensemble(spec, samples, schedule, seed=5)
    b = run_ensemble(spec, samples, schedule, seed=5)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.stderr, b.stderr)


def test_step_halving_stays_within_statistical_envelope():
    spec = build_single_mode(drive=1.0, kerr=0.1, loss=1.0)
    samples = vacuum_samples(1500)
    coarse = run_ensemble(spec, samples,
                          Schedule(t_relax=4.0, t_final=0.0, dt=0.05, record_stride=20),
                          seed=3)
    fine = run_ensemble(spec, samples,
                        Schedule(t_relax=4.0, t_final=0.0, dt=0.025, record_stride=40),
                        seed=3)
    assert np.array_equal(coarse.times, fine.times)
    assert max_se_ratio(coarse.mean, coarse.stderr, fine.mean, fine.stderr) < 3.0


def test_occupation_moment_is_real_within_errors():
    spec = build_single_mode(drive=1.0, kerr=0.1, loss=1.0)
    schedule = Schedule(t_relax=6.0, t_final=0.0, dt=0.05, record_stride=40)
    rows = []
    for i in range(400):
        record = evolve_trajectory(
            PhaseSamplePair(alpha=np.zeros(1, complex), alpha_tilde=np.zeros(1, complex)),
            spec, schedule, seed=7, index=i)
        rows.append((record.alpha[:, 0] * np.conj(record.alpha_tilde[:, 0])).imag)
    rows = np.array(rows)
    for t in range(1, rows.shape[1]):
        assert abs(rows[:, t].mean()) < 3.0 * plain_se(rows[:, t])


# -- relaxed start ----------------------------------------------------------------

def test_vacuum_relaxed_start_is_bit_identical_to_plain_run():
    # with t_relax = 0 the resumed loop must be the plain loop, step for step
    spec = build_reservoir(shape_for_modes(2), kerr=0.08, drive=0.5, seed=3)
    schedule = Schedule(t_relax=0.0, t_final=2.0, dt=0.05, record_stride=4)
    count = 600                                   # two reduction blocks
    samples = sample_coherent(0.8 + 0.3j, count)
    vacuum = np.zeros((2, count, spec.n_modes), dtype=complex)
    start = RelaxedStart(pair=vacuum,
                         alive=np.ones(count, dtype=bool), series=None)
    plain = run_ensemble(spec, samples, schedule, seed=(9, 2))
    resumed = run_ensemble(spec, samples, schedule, seed=(9, 2), relaxed=start)
    for name in ("times", "mean", "stderr"):
        assert np.array_equal(getattr(resumed, name), getattr(plain, name))
    assert resumed.divergence_fraction == plain.divergence_fraction
    assert resumed.injection_time == plain.injection_time == 0.0
    relaxed = relax_ensemble(spec, schedule, count, seed=1)
    assert np.array_equal(relaxed.pair, vacuum) and relaxed.alive.all()


def test_resumed_run_continues_the_relaxation():
    # zero Kerr makes every trajectory deterministic, so resuming from the
    # relaxed amplitudes must reproduce the plain run from injection on
    spec = build_single_mode(drive=1.0, kerr=0.0, loss=1.0, input_weight=0.5)
    schedule = Schedule(t_relax=1.0, t_final=1.0, dt=0.05, record_stride=4)
    samples = sample_coherent(0.5, 8)
    relaxed = relax_ensemble(spec, schedule, 8, seed=0)
    assert np.array_equal(relaxed.series.times, schedule.times[:schedule.injection_index + 1])
    plain = run_ensemble(spec, samples, schedule, seed=3)
    assert np.max(np.abs(relaxed.series.mean
                         - plain.mean[:schedule.injection_index + 1])) < 1e-12
    resumed = run_ensemble(spec, samples, schedule, seed=3, relaxed=relaxed)
    assert np.array_equal(resumed.times, schedule.times[schedule.injection_index:])
    assert resumed.injection_time == schedule.t_relax
    assert np.max(np.abs(resumed.mean - plain.mean[schedule.injection_index:])) < 1e-12


def test_relaxation_memory_does_not_grow_with_trajectories():
    # each block's recording is merged and freed before the next is integrated
    spec = build_reservoir(shape_for_modes(2), kerr=0.08, drive=0.5, seed=3)
    schedule = Schedule(t_relax=5.0, t_final=0.0, dt=0.05, record_stride=1)
    rows = dynamics.BLOCK_TRAJECTORIES
    recording = rows * (schedule.injection_index + 1) * (spec.n_modes + 1) * 8
    relax_ensemble(spec, schedule, 8, seed=0)       # warm caches outside the trace
    peaks = []
    for count in (rows, 4 * rows):
        tracemalloc.start()
        try:
            relax_ensemble(spec, schedule, count, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < recording / 2


def test_trajectories_lost_while_relaxing_count_as_diverged():
    spec = build_single_mode(drive=1.0, kerr=0.0, loss=1.0, input_weight=0.5)
    schedule = Schedule(t_relax=1.0, t_final=1.0, dt=0.05, record_stride=4)
    samples = sample_coherent(0.5, 8)
    relaxed = relax_ensemble(spec, schedule, 8, seed=0)
    alive = relaxed.alive.copy()
    alive[[1, 5]] = False
    pair = np.where(alive[:, None], relaxed.pair, 0)
    partly = RelaxedStart(pair=pair, alive=alive, series=relaxed.series)
    series = run_ensemble(spec, samples, schedule, seed=3, relaxed=partly)
    assert series.divergence_fraction == 2 / 8
    dead = RelaxedStart(pair=pair, alive=np.zeros(8, dtype=bool), series=None)
    with pytest.raises(DivergenceError):
        run_ensemble(spec, samples, schedule, seed=3, relaxed=dead)
    with pytest.raises(ConfigError):
        run_ensemble(spec, sample_coherent(0.5, 9), schedule, seed=3, relaxed=relaxed)


def test_relaxation_without_survivors_has_no_series(monkeypatch):
    monkeypatch.setattr(dynamics, "DIVERGENCE_THRESHOLD", 1e-6)
    spec = build_single_mode(drive=1.0, kerr=0.0, loss=1.0)
    schedule = Schedule(t_relax=1.0, t_final=1.0, dt=0.05, record_stride=4)
    relaxed = relax_ensemble(spec, schedule, 10, seed=0)
    assert relaxed.series is None
    assert not relaxed.alive.any()
    assert np.all(relaxed.pair == 0)


# -- divergence handling -----------------------------------------------------------

def test_nan_state_is_flagged_divergent():
    spec = build_single_mode(drive=0.0, kerr=0.0, loss=1.0)
    schedule = Schedule(t_relax=1.0, t_final=0.0, dt=0.05, record_stride=4)
    record = evolve_trajectory(
        PhaseSamplePair(alpha=np.array([np.nan + 0j]), alpha_tilde=np.zeros(1, complex)),
        spec, schedule, seed=0)
    assert record.diverged
    assert record.diverged_at is not None


def test_amplitude_over_threshold_is_flagged_divergent(monkeypatch):
    spec = build_single_mode(drive=0.0, kerr=0.0, loss=1.0)
    schedule = Schedule(t_relax=1.0, t_final=0.0, dt=0.05, record_stride=4)
    threshold = 10.0
    monkeypatch.setattr(dynamics, "DIVERGENCE_THRESHOLD", threshold)
    amp = math.sqrt(threshold)  # |a|^2 + |at|^2 = 2 * threshold
    record = evolve_trajectory(
        PhaseSamplePair(alpha=np.array([amp + 0j]), alpha_tilde=np.array([amp + 0j])),
        spec, schedule, seed=0)
    assert record.diverged


def test_all_divergent_ensemble_raises(monkeypatch):
    monkeypatch.setattr(dynamics, "DIVERGENCE_THRESHOLD", 1e-6)
    spec = build_single_mode(drive=1.0, kerr=0.0, loss=1.0)
    schedule = Schedule(t_relax=2.0, t_final=0.0, dt=0.05, record_stride=8)
    with pytest.raises(DivergenceError):
        run_ensemble(spec, vacuum_samples(10), schedule, seed=0)


def test_empty_ensemble_is_a_configuration_error():
    # no trajectory at all is a bad input, not an ensemble that diverged
    spec = build_single_mode(drive=1.0, kerr=0.0, loss=1.0)
    schedule = Schedule(t_relax=1.0, t_final=1.0, dt=0.05, record_stride=4)
    empty = PhaseSampleSet(alpha=np.zeros(0, complex), alpha_tilde=np.zeros(0, complex))
    with pytest.raises(ConfigError, match="trajectory count"):
        run_ensemble(spec, empty, schedule, seed=0)
    for bad in (0, 2.5, True):
        with pytest.raises(ConfigError, match="trajectory count"):
            relax_ensemble(spec, schedule, bad, seed=0)


def test_infinite_threshold_keeps_every_trajectory(monkeypatch):
    monkeypatch.setattr(dynamics, "DIVERGENCE_THRESHOLD", math.inf)
    spec = build_single_mode(drive=1.0, kerr=0.1, loss=1.0)
    schedule = Schedule(t_relax=1.0, t_final=1.0, dt=0.05, record_stride=4)
    series = run_ensemble(spec, vacuum_samples(8), schedule, seed=0)
    assert series.divergence_fraction == 0.0


@pytest.mark.parametrize("index", [2.5, -1, True])
def test_bad_trajectory_index_is_refused(index):
    spec = build_single_mode(drive=1.0, kerr=0.1, loss=1.0)
    schedule = Schedule(t_relax=0.0, t_final=0.5, dt=0.05, record_stride=10)
    start = PhaseSamplePair(alpha=np.zeros(1, complex), alpha_tilde=np.zeros(1, complex))
    with pytest.raises(ConfigError, match=r"^trajectory index must be an integer >= 0"):
        evolve_trajectory(start, spec, schedule, seed=0, index=index)


@pytest.mark.parametrize("workers", [0, -1, True])
def test_bad_worker_count_is_refused_before_scanning(monkeypatch, workers):
    def never(self):
        raise AssertionError("integrated with a refused worker count")
    monkeypatch.setattr(_BlockRun, "run", never)
    with pytest.raises(ConfigError, match="workers must be an integer >= 1"):
        stability_scan(np.array([1.0]), kerr_values=np.array([0.1]),
                       trajectories=4, horizon=1.0, workers=workers)


def test_divergent_trajectories_are_excluded_from_means():
    # strong drive + strong Kerr: some trajectories blow up, survivors stay finite
    spec = build_single_mode(drive=5.0, kerr=1.0, loss=1.0)
    schedule = Schedule(t_relax=10.0, t_final=0.0, dt=0.05, record_stride=40)
    series = run_ensemble(spec, vacuum_samples(300), schedule, seed=11)
    assert 0.0 < series.divergence_fraction < 1.0
    assert np.all(np.isfinite(series.mean))
    assert np.all(np.isfinite(series.stderr))


# -- stability scan ------------------------------------------------------------------

def test_stability_scan_zero_kerr_row_is_fully_stable():
    scan = stability_scan(np.array([0.0, 2.5, 5.0]), kerr_values=np.array([0.0, 1.0]),
                          trajectories=40, horizon=10.0, dt=0.05, seed=2)
    assert scan.other_name == "kerr"
    assert np.all(scan.fraction[0] == 1.0)          # U = 0 row
    assert scan.fraction[1, -1] < 1.0               # high-U, high-F corner
    lines = scan.to_csv().strip().split("\n")
    assert lines[0] == "f,kerr,convergent_fraction"
    assert len(lines) == 1 + 3 * 2


def test_scan_point_where_every_trajectory_diverges_reads_zero(monkeypatch):
    monkeypatch.setattr(dynamics, "DIVERGENCE_THRESHOLD", 1e-6)
    # undriven and linear, the vacuum stays exactly 0; a drive pushes every row past 1e-6
    scan = stability_scan(np.array([0.0, 1.0]), kerr_values=np.array([0.0]),
                          trajectories=8, horizon=2.0, dt=0.05, seed=1)
    assert scan.fraction.tolist() == [[1.0, 0.0]]


def test_stability_scan_is_bit_identical_across_workers():
    kwargs = dict(kerr_values=np.array([0.5, 1.0]), trajectories=30, horizon=5.0,
                  dt=0.05, seed=4)
    drives = np.array([1.0, 3.0, 5.0])
    one = stability_scan(drives, **kwargs)
    two = stability_scan(drives, workers=2, **kwargs)
    assert np.array_equal(one.fraction, two.fraction)
    assert 0.0 < one.fraction.min() < 1.0


def test_stability_scan_loss_axis():
    scan = stability_scan(np.array([0.0, 1.0]), loss_values=np.array([0.5, 1.0]),
                          trajectories=20, horizon=5.0, dt=0.05, seed=3, kerr=0.0)
    assert scan.other_name == "loss"
    assert np.all(scan.fraction == 1.0)


@pytest.mark.parametrize("dt", [0.0, -0.05, math.nan, math.inf])
def test_bad_dt_is_refused(dt):
    with pytest.raises(ConfigError, match="dt must be positive"):
        Schedule(t_relax=1.0, t_final=1.0, dt=dt, record_stride=1)
    with pytest.raises(ConfigError, match="dt must be positive"):
        stability_scan(np.array([1.0]), kerr_values=np.array([0.1]),
                       trajectories=5, horizon=1.0, dt=dt)


def test_stability_scan_requires_exactly_one_axis():
    with pytest.raises(ConfigError):
        stability_scan(np.array([1.0]), trajectories=5, horizon=1.0)
    with pytest.raises(ConfigError):
        stability_scan(np.array([1.0]), kerr_values=np.array([0.1]),
                       loss_values=np.array([1.0]), trajectories=5, horizon=1.0)
