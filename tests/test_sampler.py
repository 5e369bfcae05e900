"""Phase-space samplers: exact moments, canonical densities, determinism."""

import math

import numpy as np
import pytest

from conftest import plain_se
from pplattice.errors import ConfigError
from pplattice.oracle import build_state_fock, destroy, expect_occupation
from pplattice.sampler import (SAMPLE_MAGIC, PhaseSampleSet, StateSpec, _cat_acceptance,
                               _cat_round, cat_state, coherent_state,
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
    # an order is an integer >= 0: a fraction or a boolean is refused, not used
    for p, q in ((0.5, 1), (True, 1), (1, -1)):
        with pytest.raises(ConfigError, match="moment order"):
            estimate_moment(samples, p, q)


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
# Two instruments: the density the cat sampler draws from, and the canonical
# density of any single-mode state built independently from its Fock form.

def sampler_cat_density(alpha, alpha_tilde, beta, phase):
    """The cat sampler's envelope density times its acceptance probability,
    over its acceptance rate: the density its kept draws follow.

    The envelope is the equal mixture of two complex Gaussians centred at
    alpha = alpha_tilde = +beta and -beta, unit variance per real component.
    """
    alpha = np.asarray(alpha, dtype=complex)
    alpha_tilde = np.asarray(alpha_tilde, dtype=complex)
    beta = complex(beta)
    envelope = sum(np.exp(-(np.abs(alpha - c) ** 2 + np.abs(alpha_tilde - c) ** 2) / 2.0)
                   for c in (beta, -beta)) / (2.0 * (2.0 * math.pi) ** 2)
    rate = (1.0 + math.exp(-2.0 * abs(beta) ** 2) * math.cos(phase)) / 2.0
    return envelope * _cat_acceptance(alpha, alpha_tilde, beta, phase) / rate


def canonical_density_from_fock(rho, alpha, alpha_tilde):
    """Canonical density of a single-mode state given in the Fock basis:

    P = (1 / 4 pi^2) * exp(-|alpha - alpha_tilde|^2 / 4) * <mu| rho |mu>,
    mu = (alpha + alpha_tilde)/2, for a FockDensityMatrix `rho`.
    """
    rho = rho.data
    alpha = np.asarray(alpha, dtype=complex)
    alpha_tilde = np.asarray(alpha_tilde, dtype=complex)
    mu = ((alpha + alpha_tilde) / 2.0).ravel()
    n = np.arange(rho.shape[0])
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(n[1:]))])
    # <n|mu> = e^{-|mu|^2/2} mu^n / sqrt(n!); mu^0 = 1 also at mu = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_power = np.where(n == 0, 0.0, n * np.log(np.abs(mu[:, None])))
    coeff = np.exp(log_power - 0.5 * log_fact - np.abs(mu[:, None]) ** 2 / 2.0) \
        * np.exp(1j * n * np.angle(mu[:, None]))
    expect = np.einsum("si,ij,sj->s", np.conj(coeff), rho, coeff).real
    gauss = np.exp(-np.abs(alpha - alpha_tilde).ravel() ** 2 / 4.0)
    return (gauss * expect / (4.0 * math.pi ** 2)).reshape(alpha.shape)


def test_vacuum_canonical_density_peaks_at_origin():
    pts = np.array([0.0, 0.4, 0.8, -0.6j, 1.0 + 1.0j])
    dens = sampler_cat_density(pts, pts, 0.0, 0.0)
    assert np.argmax(dens) == 0
    assert dens[0] == pytest.approx(1.0 / (4.0 * math.pi ** 2), rel=1e-10)


def test_cat_density_normalizes_on_a_wide_grid():
    beta = 1.2
    halfwidth = abs(beta) + 6.0
    xs = np.linspace(-halfwidth, halfwidth, 48)
    h = xs[1] - xs[0]
    plane = (xs[:, None] + 1j * xs[None, :]).ravel()
    dens = sampler_cat_density(plane[:, None], plane[None, :], beta, 0.0)
    mass = float(dens.sum()) * h ** 4
    assert abs(mass - 1.0) < 0.01


def test_cat_density_favours_aligned_lobes():
    beta = 1.2
    aligned = sampler_cat_density(np.array([beta]), np.array([beta]), beta, 0.0)
    crossed = sampler_cat_density(np.array([beta]), np.array([-beta]), beta, 0.0)
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
    direct = sampler_cat_density(alpha, alpha_tilde, beta, phase)
    via_fock = canonical_density_from_fock(rho, alpha, alpha_tilde)
    assert np.max(np.abs(direct - via_fock)) < 1e-6


@pytest.mark.parametrize("phase", [0.0, math.pi / 2, math.pi])
def test_cat_sampler_density_equals_fock_form_at_complex_beta(phase):
    # the sampler's own acceptance against the Fock form, around both lobes
    # and between them, with a spread wider than the envelope's
    beta = 1.6 * np.exp(0.7j)
    rho = build_state_fock(cat_state(beta, phase), 50)
    rng = np.random.default_rng(5)
    centre = np.where(rng.random(50) < 0.5, beta, -beta)
    g = 1.5 * rng.standard_normal((4, 50))
    alpha, alpha_tilde = centre + g[0] + 1j * g[1], centre + g[2] + 1j * g[3]
    via_fock = canonical_density_from_fock(rho, alpha, alpha_tilde)
    direct = sampler_cat_density(alpha, alpha_tilde, beta, phase)
    assert np.max(np.abs(direct - via_fock)) < 1e-9 * np.max(via_fock)


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


@pytest.mark.parametrize("count", [150, 199, 1099])
def test_standard_errors_are_the_iid_ones(count):
    # the draws are independent, so every one of them enters the error bar
    samples = sample_squeezed_vacuum(1.0, 0.3, count, seed=21)
    _, se = mean_occupation(samples)
    assert se == pytest.approx(plain_se((samples.alpha * np.conj(samples.alpha_tilde)).real),
                               rel=1e-12)
    moment = samples.alpha ** 2 * np.conj(samples.alpha_tilde)
    _, se = estimate_moment(samples, 2, 1)
    assert se == pytest.approx(math.hypot(plain_se(moment.real), plain_se(moment.imag)),
                               rel=1e-12)


def test_standard_error_of_one_or_identical_samples_is_zero():
    one = sample_squeezed_vacuum(1.0, 0.3, 1, seed=21)
    assert mean_occupation(one)[1] == 0.0
    assert estimate_moment(one, 2, 1)[1] == 0.0
    # seven copies of 0.01 (or 0.001) do not average to exactly that value,
    # yet the error is exactly zero
    same = sample_coherent(0.1, 7)
    assert mean_occupation(same)[1] == 0.0
    assert estimate_moment(same, 2, 1)[1] == 0.0
    empty = PhaseSampleSet(alpha=np.zeros(0, complex), alpha_tilde=np.zeros(0, complex))
    for estimate in (mean_occupation, lambda s: estimate_moment(s, 1, 1)):
        with pytest.raises(ConfigError, match="zero samples"):
            estimate(empty)


# -- serialization and validation ------------------------------------------------

def test_sample_file_round_trip(tmp_path):
    samples = sample_state(cat_state(1.1, 0.4), 200, seed=31)
    path = tmp_path / "cat.samples"
    path.write_bytes(samples.to_bytes())
    again = load_samples(path)
    assert np.array_equal(again.alpha, samples.alpha)
    assert np.array_equal(again.alpha_tilde, samples.alpha_tilde)
    assert again.state.kind == "cat"
    assert again.state.beta == samples.state.beta
    assert again.seed == 31


def test_missing_sample_file_is_a_configuration_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_samples(tmp_path / "nope.samples")


@pytest.mark.parametrize("header, message", [
    (b"{count: 2", "not JSON"),
    (b"[2]", "not a JSON object"),
    (b'{"seed": 1}', "integer count"),
    (b'{"count": 2.5}', "integer count"),
    (b'{"count": true}', "integer count"),
    (b'{"state": [1, 2], "count": 2}', "state must be a mapping"),
], ids=["not_json", "not_object", "no_count", "fractional_count", "boolean_count",
        "state_not_a_mapping"])
def test_bad_sample_header_is_a_configuration_error(tmp_path, header, message):
    path = tmp_path / "bad.samples"
    rows = np.zeros(8, dtype="<f8").tobytes()      # two samples
    path.write_bytes(SAMPLE_MAGIC.encode() + b"\n" + header + b"\n" + rows)
    with pytest.raises(ConfigError, match=message):
        load_samples(path)


def test_samplers_refuse_what_their_state_spec_refuses():
    with pytest.raises(ConfigError, match="thermal occupation"):
        sample_thermal(-1.0, 10, seed=0)
    with pytest.raises(ConfigError, match="squeezing magnitude"):
        sample_squeezed_vacuum(-0.5, 0.0, 10, seed=0)


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
