"""Exact Fock-space reference: operators, states, master equation, Wigner."""

import math

import numpy as np
import pytest

from conftest import max_se_ratio
from pplattice.dynamics import (PhaseSamplePair, Schedule, build_single_mode,
                                evolve_trajectory, relax_ensemble, run_ensemble)
from pplattice.errors import ConfigError, NumericsError, TruncationError
from pplattice.oracle import (FockDensityMatrix, _generators, build_state_fock,
                              destroy, evolve_master, expect_occupation, number_op,
                              vacuum_density, wigner_grid)
from pplattice.sampler import (cat_state, coherent_state, sample_coherent,
                               sample_state, squeezed_state, thermal_state)


# -- ladder operators -----------------------------------------------------------

def test_destroy_matrix_for_two_levels():
    assert np.array_equal(destroy(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_number_operator_is_diagonal():
    d = 6
    assert np.array_equal(number_op(d), np.diag(np.arange(d, dtype=float)))
    assert np.allclose(destroy(d).conj().T @ destroy(d), number_op(d))


def test_commutator_is_identity_except_truncation_corner():
    d = 7
    b = destroy(d)
    comm = b @ b.conj().T - b.conj().T @ b
    expected = np.eye(d)
    expected[d - 1, d - 1] = 1.0 - d
    assert np.allclose(comm, expected, atol=1e-12)


# -- state construction ------------------------------------------------------------

def test_vacuum_state():
    rho = build_state_fock(coherent_state(0.0), 8)
    expected = np.zeros((8, 8), dtype=complex)
    expected[0, 0] = 1.0
    assert np.array_equal(rho.data, expected)
    assert expect_occupation(rho) == 0.0


def test_coherent_occupation():
    rho = build_state_fock(coherent_state(1.2 + 0.5j), 30)
    assert expect_occupation(rho) == pytest.approx(1.2 ** 2 + 0.5 ** 2, abs=1e-8)


def test_coherent_truncation_guard():
    with pytest.raises(TruncationError):
        build_state_fock(coherent_state(1.0), 11)
    rho = build_state_fock(coherent_state(1.0), 12)
    assert expect_occupation(rho) == pytest.approx(1.0, abs=1e-7)


def test_thermal_occupation():
    rho = build_state_fock(thermal_state(2.0), 60)
    assert expect_occupation(rho) == pytest.approx(2.0, abs=1e-6)


def test_squeezed_occupation_needs_a_deep_truncation():
    # the even-photon tail at d=40 still carries ~3.5e-6 mass, so the guard
    # refuses it; d=80 brings the occupation within 1e-8 of sinh^2(r)
    with pytest.raises(TruncationError):
        build_state_fock(squeezed_state(1.0), 40)
    rho = build_state_fock(squeezed_state(1.0), 80)
    assert abs(expect_occupation(rho) - math.sinh(1.0) ** 2) < 1e-8


def test_cat_occupation_closed_form():
    beta = 1.2
    rho = build_state_fock(cat_state(beta), 25)
    assert expect_occupation(rho) == pytest.approx(
        beta ** 2 * math.tanh(beta ** 2), abs=1e-10)


def test_single_photon_occupation():
    data = np.zeros((3, 3), dtype=complex)
    data[1, 1] = 1.0
    rho = FockDensityMatrix(data=data, dims=(3,))
    assert expect_occupation(rho) == 1.0


def test_density_matrix_validation():
    good = vacuum_density(4)
    assert good.validate() is good
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 0] = 1.0
    skew[0, 1] = 1e-3
    with pytest.raises(NumericsError):
        FockDensityMatrix(data=skew, dims=(4,)).validate()
    with pytest.raises(NumericsError):
        FockDensityMatrix(data=0.5 * good.data, dims=(4,)).validate()
    negative = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(NumericsError):
        FockDensityMatrix(data=negative, dims=(4,)).validate()
    with pytest.raises(ConfigError):
        FockDensityMatrix(data=np.eye(3, dtype=complex), dims=(4,))


# -- master-equation generators ------------------------------------------------------

def test_cascade_generators_are_trace_preserving():
    # K + K^dag + sum A^dag A = 0 makes every Lindblad term traceless
    spec = build_single_mode(drive=0.5, kerr=0.1, loss=1.0,
                             source_loss=1.0, input_weight=0.7)
    for f, source_dim in ((0, None), (1, 6)):
        k_op, jumps = _generators(spec, (5,), source_dim, f)
        total = k_op + k_op.conj().T
        for a in jumps:
            total = total + a.conj().T @ a
        assert np.max(np.abs(total.toarray())) < 1e-12


# -- master-equation evolution ---------------------------------------------------------

def test_undriven_vacuum_stays_vacuum():
    spec = build_single_mode(drive=0.0, kerr=0.0, loss=1.0)
    schedule = Schedule(t_relax=5.0, t_final=0.0, dt=0.05, record_stride=25)
    series = evolve_master(vacuum_density(6), spec, None, schedule,
                           validate_records=True)
    assert np.max(np.abs(series.occupation)) < 1e-14
    assert series.trace_error < 1e-12


def test_driven_linear_steady_state():
    spec = build_single_mode(drive=1.0, kerr=0.0, loss=1.0)
    schedule = Schedule(t_relax=40.0, t_final=0.0, dt=0.05, record_stride=200)
    series = evolve_master(vacuum_density(30), spec, None, schedule,
                           validate_records=True)
    assert abs(series.occupation[-1, 0] - 4.0) < 1e-6
    assert series.trace_error < 1e-8
    analytic = 4.0 * (1.0 - np.exp(-schedule.times / 2.0)) ** 2
    assert np.max(np.abs(series.occupation[:, 0] - analytic)) < 1e-6


def test_zero_kerr_cascade_matches_deterministic_trajectory():
    # both sides are exact for a linear system driven by a coherent source up
    # to the stochastic stepper's O(dt^2) midpoint error, hence the fine step
    spec = build_single_mode(drive=0.3, kerr=0.0, loss=1.0, input_weight=1.0)
    schedule = Schedule(t_relax=2.0, t_final=4.0, dt=0.005, record_stride=100)
    beta = 0.8
    record = evolve_trajectory(
        PhaseSamplePair(alpha=np.zeros(1, complex), alpha_tilde=np.zeros(1, complex),
                        source=beta, source_tilde=beta),
        spec, schedule, seed=0)
    ppm = np.real(record.alpha[:, 0] * np.conj(record.alpha_tilde[:, 0]))
    series = evolve_master(vacuum_density(14), spec,
                           build_state_fock(coherent_state(beta), 12),
                           schedule, validate_records=True)
    assert np.max(np.abs(ppm - series.occupation[:, 0])) < 1e-6
    assert series.trace_error < 1e-8

    # the source factor obeys a closed-form decay after injection
    mask = schedule.times > schedule.t_relax
    closed = beta ** 2 * np.exp(-spec.eta * spec.source_loss
                                * (schedule.times[mask] - schedule.t_relax))
    assert np.max(np.abs(series.source_occupation[mask] - closed)) < 1e-9
    assert np.all(series.source_occupation[~mask] == series.source_occupation[0])


def test_kerr_ensemble_matches_master_equation():
    spec = build_single_mode(drive=1.0, kerr=0.1, loss=1.0)
    schedule = Schedule(t_relax=6.0, t_final=0.0, dt=0.05, record_stride=12)
    series = run_ensemble(spec, sample_coherent(0.0, 1500), schedule, seed=21)
    oracle = evolve_master(vacuum_density(16), spec, None, schedule,
                           validate_records=True)
    assert oracle.trace_error < 1e-8
    ratio = max_se_ratio(series.mean[:, 0], series.stderr[:, 0],
                         oracle.occupation[:, 0], 0.0)
    assert ratio < 3.0


def test_relaxed_start_cascade_matches_master_equation():
    # one Kerr mode fed by a coherent source: both the plain run and the
    # relax-once run must sit within 3 SE of the exact injection window
    spec = build_single_mode(drive=1.0, kerr=0.1, loss=1.0, input_weight=1.0)
    schedule = Schedule(t_relax=3.0, t_final=3.0, dt=0.05, record_stride=10)
    state = coherent_state(0.8)
    samples = sample_state(state, 2000, seed=17)
    oracle = evolve_master(vacuum_density(12), spec, build_state_fock(state, 11),
                           schedule, validate_records=True)
    assert oracle.trace_error < 1e-8
    exact = oracle.occupation[schedule.injection_index:, 0]
    plain = run_ensemble(spec, samples, schedule, seed=(17, 2))
    window = slice(schedule.injection_index, None)
    assert max_se_ratio(plain.mean[window, 0], plain.stderr[window, 0], exact, 0.0) < 3.0
    relaxed = relax_ensemble(spec, schedule, 2000, seed=(17, 3))
    resumed = run_ensemble(spec, samples, schedule, seed=(17, 2), relaxed=relaxed)
    assert np.array_equal(resumed.times, schedule.times[window])
    assert max_se_ratio(resumed.mean[:, 0], resumed.stderr[:, 0], exact, 0.0) < 3.0


def test_master_equation_refusals():
    spec = build_single_mode(drive=0.5, kerr=0.0, loss=1.0)
    schedule = Schedule(t_relax=1.0, t_final=0.0, dt=0.05, record_stride=20)
    with pytest.raises(ConfigError):
        evolve_master(vacuum_density(80), spec,
                      build_state_fock(coherent_state(0.5), 80), schedule)
    with pytest.raises(ConfigError):
        evolve_master(vacuum_density((6, 6)), spec, None, schedule)
    with pytest.raises(ConfigError):
        evolve_master(vacuum_density(6), spec, vacuum_density((4, 4)), schedule)


# -- Wigner function ---------------------------------------------------------------

def test_vacuum_wigner_peak_and_mass():
    rho = vacuum_density(10)
    axis = np.linspace(-4.0, 4.0, 81)
    grid = wigner_grid(rho, axis, axis)
    assert grid.values.max() == pytest.approx(1.0 / math.pi, abs=1e-6)
    # closed-form vacuum Wigner on the same grid
    expected = np.exp(-axis[:, None] ** 2 - axis[None, :] ** 2) / math.pi
    assert np.max(np.abs(grid.values - expected)) < 1e-10
    h = axis[1] - axis[0]
    assert abs(grid.values.sum() * h * h - 1.0) < 0.01


def test_coherent_wigner_is_displaced_vacuum():
    beta = 1.0 + 0.5j
    rho = build_state_fock(coherent_state(beta), 25)
    q = np.linspace(-2.0, 5.0, 141)
    p = np.linspace(-2.0, 4.0, 121)
    grid = wigner_grid(rho, q, p)
    i, j = np.unravel_index(np.argmax(grid.values), grid.values.shape)
    assert abs(q[i] - math.sqrt(2.0) * beta.real) <= q[1] - q[0]
    assert abs(p[j] - math.sqrt(2.0) * beta.imag) <= p[1] - p[0]
    assert grid.values.max() == pytest.approx(1.0 / math.pi, abs=1e-4)


def test_cat_wigner_has_negative_interference_fringes():
    rho = build_state_fock(cat_state(2.0), 30)
    grid = wigner_grid(rho, np.linspace(-5.0, 5.0, 81), np.linspace(-3.0, 3.0, 81))
    assert grid.values.min() < -0.1
    assert grid.values.max() > 0.25


def test_wigner_grid_validation_and_mass_warning():
    rho = vacuum_density(8)
    with pytest.raises(ConfigError):
        wigner_grid(rho, np.array([0.0]), np.linspace(-1, 1, 5))
    with pytest.raises(ConfigError):
        wigner_grid(vacuum_density((3, 3)), np.linspace(-1, 1, 5), np.linspace(-1, 1, 5))
    with pytest.warns(RuntimeWarning):
        wigner_grid(rho, np.linspace(-0.5, 0.5, 9), np.linspace(-0.5, 0.5, 9))


def test_wigner_csv_round_trip_shape(tmp_path):
    rho = vacuum_density(6)
    grid = wigner_grid(rho, np.linspace(-4, 4, 11), np.linspace(-4, 4, 13))
    path = tmp_path / "wigner.csv"
    grid.save(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "q,p,wigner"
    assert len(lines) == 1 + 11 * 13
