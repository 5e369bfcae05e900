"""Exact Fock-space reference: operators, states, master equation, Wigner."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.laguerre import lagval
from scipy.linalg import expm

from conftest import max_se_ratio
from pplattice.dynamics import (PhaseSamplePair, Schedule, build_single_mode,
                                evolve_trajectory, relax_ensemble, run_ensemble)
from pplattice.errors import ConfigError, NumericsError, TruncationError
from pplattice.model import build_reservoir, shape_for_modes
from pplattice.oracle import (FockDensityMatrix, _generators, _LindbladOperator,
                              _one_norm_bound, build_state_fock, destroy, evolve_master,
                              expect_occupation, number_op, vacuum_density,
                              wigner_grid)
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


def _superoperator(k_op, jumps) -> np.ndarray:
    """Dense K(x)I + I(x)conj(K) + sum A(x)conj(A), acting on row-major vec(rho)."""
    kd = k_op.toarray()
    eye = np.eye(kd.shape[0])
    lsup = np.kron(kd, eye) + np.kron(eye, kd.conj())
    for a in jumps:
        ad = a.toarray()
        lsup += np.kron(ad, ad.conj())
    return lsup


def test_hermitian_application_matches_superoperator_and_is_hermitian():
    spec = build_reservoir(shape_for_modes(2), kerr=0.05, seed=42)
    k_op, jumps = _generators(spec, (3, 3), 4, f=1)
    op = _LindbladOperator(k_op, jumps)
    lsup = _superoperator(k_op, jumps)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(op.d, op.d)) + 1j * rng.normal(size=(op.d, op.d))
    rho = x + x.conj().T
    out = op.hermitian(rho, np.empty_like(rho))
    expected = (lsup @ rho.reshape(-1)).reshape(rho.shape)
    assert op.d == 36
    assert np.max(np.abs(out - expected)) < 1e-13 * np.max(np.abs(expected))
    assert np.array_equal(out, out.conj().T)


def test_one_norm_bound_is_the_generator_norm():
    # the triangle-inequality bound never undershoots the exact 1-norm of L
    # (up to summation-order roundoff), and on these generators it is tight
    spec = build_reservoir(shape_for_modes(2), kerr=0.05, seed=42)
    kerr = build_single_mode(drive=1.0, kerr=0.1, loss=1.0)
    for k_op, jumps in (_generators(spec, (3, 3), None, f=0),
                        _generators(spec, (3, 3), 4, f=1),
                        _generators(kerr, (16,), None, f=0)):
        op = _LindbladOperator(k_op, jumps)
        bound = _one_norm_bound(k_op, jumps)
        exact = np.abs(_superoperator(k_op, jumps)).sum(axis=0).max()
        assert bound >= exact * (1.0 - 1e-14)
        assert bound == pytest.approx(exact, rel=1e-12)
        assert op.norm == bound


def test_steady_state_interval_stops_its_series_early(monkeypatch):
    # the steady state is L's null vector, so every Taylor term from it is
    # tiny and each series stops sooner than from vacuum; a shifted generator
    # would move that eigenvalue away from 0 and lose this
    spec = build_single_mode(drive=1.0, kerr=0.1, loss=1.0)
    _, _, vh = np.linalg.svd(_superoperator(*_generators(spec, (16,), None, f=0)))
    null = vh[-1].conj().reshape(16, 16)
    steady = null / np.trace(null)
    steady = 0.5 * (steady + steady.conj().T)
    calls = []
    apply = _LindbladOperator.hermitian
    monkeypatch.setattr(_LindbladOperator, "hermitian",
                        lambda self, rho, out: calls.append(1) or apply(self, rho, out))
    schedule = Schedule(t_relax=1.0, t_final=0.0, dt=0.05, record_stride=20)
    series = evolve_master(FockDensityMatrix(data=steady, dims=(16,)), spec, None, schedule)
    from_steady = len(calls)
    assert np.max(np.abs(series.final_state.data - steady)) < 1e-13
    evolve_master(vacuum_density(16), spec, None, schedule)
    assert from_steady < len(calls) - from_steady


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


@pytest.mark.parametrize("state, source_dim", [
    (cat_state(1.25, 0.0), 25),
    (cat_state(1.25, math.pi), 25),
    (squeezed_state(0.5, 0.6), 30),
], ids=["even_cat", "odd_cat", "squeezed"])
def test_nonclassical_cascade_matches_master_equation(state, source_dim):
    # one Kerr mode in the desk regime fed by a nonclassical source: the
    # ensemble must follow the exact cascade over the injection window.  Three
    # cases of seven recorded times each make about twenty comparisons, so the
    # bound is 4 SE rather than 3.
    spec = build_single_mode(drive=0.5, kerr=0.1, loss=1.0, input_weight=1.0)
    schedule = Schedule(t_relax=3.0, t_final=3.0, dt=0.05, record_stride=10)
    series = run_ensemble(spec, sample_state(state, 4000, seed=101), schedule, seed=102)
    oracle = evolve_master(vacuum_density(14), spec, build_state_fock(state, source_dim),
                           schedule)
    assert oracle.trace_error < 1e-8
    window = slice(schedule.injection_index, None)
    assert max_se_ratio(series.mean[window, 0], series.stderr[window, 0],
                        oracle.occupation[window, 0], 0.0) < 4.0


def test_cascade_matches_superoperator_exponential():
    # the dense superoperator exponential, applied per interval with the same
    # Hermitian projection, is the reference at every recorded time
    spec = build_reservoir(shape_for_modes(2), kerr=0.05, seed=42)
    schedule = Schedule(t_relax=2.0, t_final=3.0, dt=0.05, record_stride=10)
    source = build_state_fock(coherent_state(0.2), 5)
    series = evolve_master(vacuum_density((3, 2)), spec, source, schedule)
    segment = schedule.dt * schedule.record_stride
    rho = vacuum_density((3, 2)).data
    step = expm(segment * _superoperator(*_generators(spec, (3, 2), None, f=0)))
    occupation = [[0.0, 0.0]]
    for rec in range(1, schedule.times.shape[0]):
        if rec == schedule.injection_index + 1:
            rho = np.kron(source.data, rho)
            step = expm(segment * _superoperator(*_generators(spec, (3, 2), 5, f=1)))
        rho = (step @ rho.reshape(-1)).reshape(rho.shape)
        rho = 0.5 * (rho + rho.conj().T)
        dims = (5, 3, 2) if rho.shape[0] == 30 else (3, 2)
        state = FockDensityMatrix(data=rho, dims=dims)
        occupation.append([expect_occupation(state, len(dims) - 2 + j) for j in range(2)])
    assert np.max(np.abs(series.occupation - np.array(occupation))) < 1e-12
    assert np.max(np.abs(series.final_state.data - rho)) < 1e-12


def test_long_phase_matches_superoperator_exponential():
    # 50 unit intervals, each several Taylor substeps, against the dense
    # exponential applied per interval with the same Hermitian projection
    spec = build_single_mode(drive=1.0, kerr=0.1, loss=1.0)
    schedule = Schedule(t_relax=50.0, t_final=0.0, dt=0.05, record_stride=20)
    series = evolve_master(vacuum_density(16), spec, None, schedule)
    step = expm(_superoperator(*_generators(spec, (16,), None, f=0)))
    rho = vacuum_density(16).data
    occupation = [0.0]
    for _ in range(schedule.times.shape[0] - 1):
        rho = (step @ rho.reshape(-1)).reshape(rho.shape)
        rho = 0.5 * (rho + rho.conj().T)
        occupation.append(expect_occupation(FockDensityMatrix(data=rho, dims=(16,))))
    assert len(occupation) == 51
    assert np.max(np.abs(series.occupation[:, 0] - np.array(occupation))) < 1e-12
    assert np.max(np.abs(series.final_state.data - rho)) < 1e-12


def test_master_equation_ignores_and_keeps_global_random_state():
    # nothing in the solver draws random numbers: the output is the same
    # whatever the legacy global stream holds, and the stream is left as it was
    spec = build_reservoir(shape_for_modes(2), kerr=0.05, seed=42)
    schedule = Schedule(t_relax=1.0, t_final=1.0, dt=0.05, record_stride=20)
    source = build_state_fock(coherent_state(0.5), 12)
    runs = []
    for seed in (0, 1):
        np.random.seed(seed)
        before = np.random.get_state()
        runs.append(evolve_master(vacuum_density((4, 4)), spec, source, schedule))
        after = np.random.get_state()
        assert before[0] == after[0] and np.array_equal(before[1], after[1])
        assert before[2:] == after[2:]
    assert np.array_equal(runs[0].occupation, runs[1].occupation)
    assert np.array_equal(runs[0].final_state.data, runs[1].final_state.data)


def test_master_equation_memory_does_not_grow_with_records():
    spec = build_single_mode(drive=0.5, kerr=0.1, loss=1.0, input_weight=1.0)
    source = build_state_fock(coherent_state(0.5), 12)
    peaks = []
    for t_final in (0.95, 9.95):        # 20 and 200 recording intervals, D = 144
        schedule = Schedule(t_relax=0.05, t_final=t_final, dt=0.05, record_stride=1)
        tracemalloc.start()
        try:
            evolve_master(vacuum_density(12), spec, source, schedule)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]


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


@pytest.mark.parametrize("axis", [[0.0, math.nan, 1.0], [0.0, 1.0, math.inf],
                                  [1.0, 0.0, -1.0], [0.0, 0.0, 1.0]],
                         ids=["nan", "inf", "decreasing", "repeated"])
def test_wigner_grid_refuses_non_finite_or_unordered_axes(axis):
    rho = vacuum_density(4)
    good = np.linspace(-4.0, 4.0, 9)
    with pytest.raises(ConfigError, match="q grid"):
        wigner_grid(rho, np.array(axis), good)
    with pytest.raises(ConfigError, match="p grid"):
        wigner_grid(rho, good, np.array(axis))


def _fock_density(n: int, d: int) -> FockDensityMatrix:
    data = np.zeros((d, d), dtype=complex)
    data[n, n] = 1.0
    return FockDensityMatrix(data=data, dims=(d,))


@pytest.mark.filterwarnings("ignore:Wigner grid mass")
@pytest.mark.parametrize("d", [40, 80])
def test_fock_wigner_matches_laguerre_closed_form(d):
    # W_n = (-1)^n exp(-2|alpha|^2) L_n(4|alpha|^2) / pi, 4|alpha|^2 = 2(q^2 + p^2)
    axis = np.linspace(-math.sqrt(4 * d), math.sqrt(4 * d), 61)
    radius2 = axis[:, None] ** 2 + axis[None, :] ** 2
    for n in (0, d // 2, d - 1):
        grid = wigner_grid(_fock_density(n, d), axis, axis)
        unit = np.zeros(n + 1)
        unit[n] = 1.0
        expected = (-1) ** n * np.exp(-radius2) * lagval(2.0 * radius2, unit) / math.pi
        assert np.max(np.abs(grid.values - expected)) < 1e-12, n


def test_coherent_wigner_matches_displaced_gaussian():
    beta = 1.0 + 0.5j
    q = np.linspace(-2.0, 5.0, 141)
    p = np.linspace(-2.0, 4.0, 121)
    grid = wigner_grid(build_state_fock(coherent_state(beta), 25), q, p)
    alpha = (q[:, None] + 1j * p[None, :]) / math.sqrt(2.0)
    expected = np.exp(-2.0 * np.abs(alpha - beta) ** 2) / math.pi
    assert np.max(np.abs(grid.values - expected)) < 1e-10


def _displaced_parity_wigner(rho: np.ndarray, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """W = Re sum_{m,n} (-1)^m rho[m, n] <n|D(2 alpha)|m> / pi term by term,
    with SciPy's generalized Laguerre polynomials in the matrix elements."""
    from scipy.special import eval_genlaguerre, gammaln
    z = math.sqrt(2.0) * (q[:, None] + 1j * p[None, :])
    x = np.abs(z) ** 2
    total = np.zeros(z.shape, dtype=complex)
    for m in range(rho.shape[0]):
        for n in range(rho.shape[0]):
            lo, hi = min(m, n), max(m, n)
            shift = z ** (n - m) if n >= m else (-np.conj(z)) ** (m - n)
            element = (np.exp(0.5 * (gammaln(lo + 1) - gammaln(hi + 1)) - 0.5 * x)
                       * shift * eval_genlaguerre(lo, hi - lo, x))
            total += (-1) ** m * rho[m, n] * element
    return total.real / math.pi


@pytest.mark.filterwarnings("ignore:Wigner grid mass")
def test_squeezed_wigner_matches_displaced_parity_series():
    rho = build_state_fock(squeezed_state(1.0, 0.3), 80)
    axis = np.linspace(-6.0, 6.0, 11)
    grid = wigner_grid(rho, axis, axis)
    expected = _displaced_parity_wigner(rho.data, axis, axis)
    assert np.max(np.abs(grid.values - expected)) < 1e-12


def test_wigner_csv_round_trip_shape(tmp_path):
    rho = vacuum_density(6)
    grid = wigner_grid(rho, np.linspace(-4, 4, 11), np.linspace(-4, 4, 13))
    path = tmp_path / "wigner.csv"
    path.write_text(grid.to_csv())
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "q,p,wigner"
    assert len(lines) == 1 + 11 * 13
