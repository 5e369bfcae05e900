"""Phase-space samplers: exact moments, canonical densities, determinism."""

import math

import numpy as np
import pytest

from conftest import plain_se
from pplattice.errors import ConfigError
from pplattice.oracle import build_state_fock, destroy, expect_occupation
from pplattice.sampler import (StateSpec, _cat_round, canonical_density_from_fock,
                               cat_canonical_density, cat_state, coherent_state,
                               estimate_moment, load_samples, mean_occupation,
                               sample_cat, sample_coherent, sample_squeezed_vacuum,
                               sample_state, sample_thermal, squeezed_state,
                               thermal_state, vacuum_samples)


# -- coherent ----------------------------------------------------------------

def test_coherent_vacuum_is_all_zero_pairs():
    samples = sample_coherent(0.0, 3)
    assert np.all(samples.alpha == 0.0)
    assert np.all(samples.alpha_tilde == 0.0)


def test_coherent_samples_are_delta_distributed():
    beta = 1.0 + 2.0j
    samples = sample_coherent(beta, 10)
    assert np.all(samples.alpha == beta)
    assert np.all(samples.alpha_tilde == beta)
    value, se = mean_occupation(samples)
    assert value == (beta * beta.conjugate()).real
    assert se == 0.0


def test_moment_map_on_coherent_samples():
    samples = sample_coherent(2.0 + 1.0j, 4)
    value, se = estimate_moment(samples, 1, 1)
    assert value == pytest.approx(5.0, abs=1e-12)
    assert se == 0.0
    value, _ = estimate_moment(samples, 0, 0)
    assert value == 1.0


# -- thermal -----------------------------------------------------------------

def test_thermal_zero_temperature_is_vacuum():
    samples = sample_thermal(0.0, 100, seed=1)
    assert np.all(samples.alpha == 0.0)
    assert np.all(samples.alpha_tilde == 0.0)


def test_thermal_mean_occupation():
    samples = sample_thermal(2.0, 100_000, seed=4)
    assert np.array_equal(samples.alpha, samples.alpha_tilde)
    value, se = mean_occupation(samples)
    assert abs(value - 2.0) < 3.0 * se


# -- squeezed vacuum ----------------------------------------------------------

def test_squeezed_r_zero_reduces_to_vacuum_statistics():
    samples = sample_squeezed_vacuum(0.0, 0.0, 100_000, seed=3)
    value, se = mean_occupation(samples)
    assert abs(value) < 3.0 * max(se, 1e-12)


@pytest.mark.parametrize("r", [0.5, 0.9, 1.0, 1.1])
def test_squeezed_occupation_matches_sinh_squared(r):
    samples = sample_squeezed_vacuum(r, 0.0, 100_000, seed=12)
    value, se = mean_occupation(samples)
    assert abs(value - math.sinh(r) ** 2) < 3.0 * se


def test_squeezed_anomalous_moment():
    samples = sample_squeezed_vacuum(1.0, 0.0, 100_000, seed=0)
    product = samples.alpha * samples.alpha_tilde
    target = -math.sinh(1.0) * math.cosh(1.0)
    assert abs(product.real.mean() - target) < 3.0 * plain_se(product.real)
    assert abs(product.imag.mean()) < 3.0 * plain_se(product.imag)


# -- cat canonical density -----------------------------------------------------

def test_vacuum_canonical_density_peaks_at_origin():
    pts = np.array([0.0, 0.4, 0.8, -0.6j, 1.0 + 1.0j])
    dens = cat_canonical_density(pts, pts, 0.0, 0.0)
    assert np.argmax(dens) == 0
    assert dens[0] == pytest.approx(1.0 / (4.0 * math.pi ** 2), rel=1e-10)


def test_cat_density_normalizes_on_a_wide_grid():
    beta = 1.2
    halfwidth = abs(beta) + 6.0
    xs = np.linspace(-halfwidth, halfwidth, 48)
    h = xs[1] - xs[0]
    plane = (xs[:, None] + 1j * xs[None, :]).ravel()
    dens = cat_canonical_density(plane[:, None], plane[None, :], beta, 0.0)
    mass = float(dens.sum()) * h ** 4
    assert abs(mass - 1.0) < 0.01


def test_cat_density_favours_aligned_lobes():
    beta = 1.2
    aligned = cat_canonical_density(np.array([beta]), np.array([beta]), beta, 0.0)
    crossed = cat_canonical_density(np.array([beta]), np.array([-beta]), beta, 0.0)
    assert aligned[0] > crossed[0]


def test_canonical_density_from_fock_matches_coherent_closed_form():
    beta = 0.8 + 0.1j
    rho = build_state_fock(coherent_state(beta), 25)
    rng = np.random.default_rng(8)
    alpha = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    alpha_tilde = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    mu = (alpha + alpha_tilde) / 2.0
    closed = (np.exp(-np.abs(mu) ** 2 - abs(beta) ** 2
                     + 2.0 * np.real(np.conj(mu) * beta))
              * np.exp(-np.abs(alpha - alpha_tilde) ** 2 / 4.0)
              / (4.0 * math.pi ** 2))
    assert np.max(np.abs(canonical_density_from_fock(rho, alpha, alpha_tilde)
                         - closed)) < 1e-8


@pytest.mark.parametrize("phase", [0.0, math.pi / 2, math.pi])
def test_cat_density_cross_validates_against_fock_form(phase):
    beta = 1.2
    rho = build_state_fock(cat_state(beta, phase), 30)
    rng = np.random.default_rng(21)
    alpha = 1.5 * (rng.standard_normal(30) + 1j * rng.standard_normal(30))
    alpha_tilde = 1.5 * (rng.standard_normal(30) + 1j * rng.standard_normal(30))
    direct = cat_canonical_density(alpha, alpha_tilde, beta, phase)
    via_fock = canonical_density_from_fock(rho, alpha, alpha_tilde)
    assert np.max(np.abs(direct - via_fock)) < 1e-6


# -- cat sampling ---------------------------------------------------------------

CAT_BETAS = [0.5, 1.2, 2.0 * np.exp(0.4j)]
CAT_PHASES = [0.0, math.pi / 2, math.pi]


@pytest.mark.parametrize("phase", CAT_PHASES)
@pytest.mark.parametrize("beta", CAT_BETAS)
def test_cat_occupation_matches_fock_oracle(beta, phase):
    samples = sample_cat(beta, phase, 100_000, seed=2)
    rho = build_state_fock(cat_state(beta, phase), 30)
    overlap = math.exp(-2.0 * abs(beta) ** 2) * math.cos(phase)
    oracle = expect_occupation(rho)
    assert oracle == pytest.approx(abs(beta) ** 2 * (1 - overlap) / (1 + overlap), abs=1e-10)
    value, se = mean_occupation(samples)
    assert abs(value - oracle) < 4.0 * se
    b = destroy(30)
    oracle_b2 = np.trace(rho.data @ b @ b)
    value_b2, se_b2 = estimate_moment(samples, 2, 0)
    assert abs(value_b2 - oracle_b2) < 4.0 * se_b2


@pytest.mark.parametrize("phase", CAT_PHASES)
@pytest.mark.parametrize("beta", CAT_BETAS)
def test_cat_acceptance_rate_matches_closed_form(beta, phase):
    draws = 200_000
    _, _, keep = _cat_round(np.random.default_rng(17), complex(beta), phase, draws)
    rate = (1.0 + math.exp(-2.0 * abs(beta) ** 2) * math.cos(phase)) / 2.0
    assert abs(keep.mean() - rate) < 4.0 * math.sqrt(rate * (1.0 - rate) / draws)


def test_cat_with_zero_amplitude_is_vacuum_statistics():
    samples = sample_cat(0.0, 0.0, 50_000, seed=6)
    value, se = mean_occupation(samples)
    assert abs(value) < 3.0 * max(se, 1e-12)


def test_cat_real_quadrature_is_bimodal():
    beta = 2.0
    samples = sample_cat(beta, 0.0, 20_000, seed=9)
    x = samples.alpha.real
    lobe_hi = np.mean((x > 1.0) & (x < 3.0))
    lobe_lo = np.mean((x < -1.0) & (x > -3.0))
    middle = np.mean(np.abs(x) < 0.5)
    assert lobe_hi > 0.2
    assert lobe_lo > 0.2
    assert middle < 0.5 * min(lobe_hi, lobe_lo)


# -- generic dispatch, determinism, physicality ---------------------------------

def test_sample_state_dispatch_matches_direct_samplers():
    direct = sample_thermal(1.5, 100, seed=5)
    routed = sample_state(thermal_state(1.5), 100, seed=5)
    assert np.array_equal(direct.alpha, routed.alpha)


def test_vacuum_samples_are_exact_zeros():
    samples = vacuum_samples(7)
    assert len(samples) == 7
    assert np.all(samples.alpha == 0.0)
    assert np.all(samples.alpha_tilde == 0.0)


@pytest.mark.parametrize("kind", ["thermal", "squeezed_vacuum", "cat"])
def test_equal_seeds_reproduce_samples(kind):
    state = {"thermal": thermal_state(1.0),
             "squeezed_vacuum": squeezed_state(0.9, 0.3),
             "cat": cat_state(1.3, 0.2)}[kind]
    first = sample_state(state, 500, seed=77)
    second = sample_state(state, 500, seed=77)
    assert np.array_equal(first.alpha, second.alpha)
    assert np.array_equal(first.alpha_tilde, second.alpha_tilde)


@pytest.mark.parametrize("state", [
    coherent_state(1.2 * np.exp(0.3j)),
    thermal_state(1.0),
    squeezed_state(1.0, 0.7),
    cat_state(1.3 * np.exp(0.4j), 0.5),
])
def test_occupation_moment_is_real_within_errors(state):
    samples = sample_state(state, 50_000, seed=13)
    value, se = estimate_moment(samples, 1, 1)
    assert abs(value.imag) < 3.0 * max(se, 1e-12)


# -- serialization and validation ------------------------------------------------

def test_sample_file_round_trip(tmp_path):
    samples = sample_state(cat_state(1.1, 0.4), 200, seed=31)
    path = tmp_path / "cat.samples"
    samples.save(path)
    again = load_samples(path)
    assert np.array_equal(again.alpha, samples.alpha)
    assert np.array_equal(again.alpha_tilde, samples.alpha_tilde)
    assert again.state.kind == "cat"
    assert again.state.beta == samples.state.beta
    assert again.seed == 31


def test_state_spec_validation():
    with pytest.raises(ConfigError):
        StateSpec(kind="squeezed_vacuum", r=-0.5)
    with pytest.raises(ConfigError):
        StateSpec(kind="thermal", nbar=-1.0)
    with pytest.raises(ConfigError):
        StateSpec(kind="gaussian")
    with pytest.raises(ConfigError):
        cat_state(0.0, math.pi)
    with pytest.raises(ConfigError):
        sample_coherent(1.0, 0)
