"""Lattice geometry, hopping normalization, reservoir serialization, and the
number and seed rules."""

import numpy as np
import pytest

from pplattice import dynamics
from pplattice.dynamics import (Schedule, build_single_mode, relax_ensemble, run_ensemble,
                                stability_scan)
from pplattice.errors import ConfigError
from pplattice.learn import Hyperparams, generate_dataset
from pplattice.model import (LatticeShape, build_reservoir, checked_number, lattice_edges,
                             load_reservoir, seed_key, shape_for_modes, spectral_radius)
from pplattice.sampler import cat_state, sample_state, thermal_state, vacuum_samples


def test_shape_for_modes_square_or_chain():
    assert (shape_for_modes(1).rows, shape_for_modes(1).cols) == (1, 1)
    assert (shape_for_modes(4).rows, shape_for_modes(4).cols) == (2, 2)
    assert (shape_for_modes(9).rows, shape_for_modes(9).cols) == (3, 3)
    for n in (2, 3, 5, 6, 7, 12):
        shape = shape_for_modes(n)
        assert (shape.rows, shape.cols) == (1, n)
        assert shape.n_modes == n


def test_shape_validation():
    for bad in (0, 2.5, True):
        with pytest.raises(ConfigError, match="mode count must be an integer >= 1"):
            shape_for_modes(bad)
    with pytest.raises(ConfigError):
        LatticeShape(rows=0, cols=3)
    with pytest.raises(ConfigError, match="lattice rows must be an integer"):
        LatticeShape(rows=1.5, cols=1)


def test_edge_counts():
    assert lattice_edges(LatticeShape(1, 1)) == ()
    assert len(lattice_edges(LatticeShape(2, 2))) == 4
    assert len(lattice_edges(LatticeShape(3, 3))) == 12
    for rows, cols in ((1, 5), (2, 3), (4, 4), (3, 7)):
        edges = lattice_edges(LatticeShape(rows, cols))
        assert len(edges) == 2 * rows * cols - rows - cols
        assert len(set(edges)) == len(edges)


def test_edges_are_nearest_neighbours():
    rows, cols = 3, 4
    for i, j in lattice_edges(LatticeShape(rows, cols)):
        ri, ci = divmod(i, cols)
        rj, cj = divmod(j, cols)
        assert abs(ri - rj) + abs(ci - cj) == 1


def test_spectral_radius_small_matrices():
    assert spectral_radius(np.eye(2)) == pytest.approx(1.0, abs=1e-12)
    flip = np.array([[0.0, 2.0], [2.0, 0.0]])
    assert spectral_radius(flip) == pytest.approx(2.0, abs=1e-12)


def test_spectral_radius_matches_dense_eigensolver():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((5, 5))
    m = m + m.T
    expected = float(np.max(np.abs(np.linalg.eigvalsh(m))))
    assert spectral_radius(m) == pytest.approx(expected, abs=1e-8)


def test_single_mode_reservoir_has_no_hopping():
    spec = build_reservoir(shape_for_modes(1), kerr=0.1, seed=3)
    assert spec.n_modes == 1
    assert np.all(spec.hopping == 0.0)
    assert spec.eta == float(spec.input_weights[0] ** 2)


def test_hopping_symmetric_normalized_and_on_edges():
    for seed in (0, 1, 17):
        spec = build_reservoir(shape_for_modes(6), kerr=0.05, seed=seed)
        hop = spec.hopping
        assert np.array_equal(hop, hop.T)
        assert abs(spectral_radius(hop) - 1.0) < 1e-10
        allowed = set()
        for a, b in lattice_edges(LatticeShape(spec.rows, spec.cols)):
            allowed.add((a, b))
            allowed.add((b, a))
        for a in range(spec.n_modes):
            for b in range(spec.n_modes):
                if (a, b) not in allowed:
                    assert hop[a, b] == 0.0
        assert spec.eta == float(np.sum(spec.input_weights ** 2))


def test_same_seed_rebuilds_identical_spec():
    first = build_reservoir(shape_for_modes(4), kerr=0.08, seed=42).dumps()
    second = build_reservoir(shape_for_modes(4), kerr=0.08, seed=42).dumps()
    assert first == second


def test_distinct_seeds_give_distinct_specs():
    texts = {build_reservoir(shape_for_modes(4), kerr=0.08, seed=s).dumps()
             for s in (1, 2, 3)}
    assert len(texts) == 3


def test_yaml_round_trip(tmp_path):
    spec = build_reservoir(shape_for_modes(4), kerr=0.1, drive=0.4, seed=9)
    path = tmp_path / "reservoir.yaml"
    path.write_text(spec.dumps())
    again = load_reservoir(path)
    assert again.dumps() == spec.dumps()
    assert np.array_equal(again.hopping, spec.hopping)
    assert np.array_equal(again.input_weights, spec.input_weights)
    unseeded = build_reservoir(shape_for_modes(2), kerr=0.1)
    path.write_text(unseeded.dumps())
    assert load_reservoir(path).seed is None
    assert load_reservoir(path).dumps() == unseeded.dumps()


def test_parameter_validation():
    with pytest.raises(ConfigError):
        build_reservoir(shape_for_modes(2), kerr=-0.1, seed=0)
    with pytest.raises(ConfigError):
        build_reservoir(shape_for_modes(2), kerr=0.1, loss=0.0, seed=0)
    with pytest.raises(ConfigError):
        build_reservoir(shape_for_modes(2), kerr=0.1, source_loss=-1.0, seed=0)


def test_checked_number_accepts_real_numbers_of_the_asked_kind():
    assert checked_number(3, "x") == 3.0 and type(checked_number(3, "x")) is float
    assert checked_number(np.float32(0.5), "x") == 0.5
    assert checked_number(np.int64(4), "n", integer=True, minimum=1) == 4
    assert type(checked_number(np.int64(4), "n", integer=True)) is int
    assert checked_number(-2, "n", integer=True) == -2
    assert checked_number(1, "n", integer=True, minimum=1) == 1


@pytest.mark.parametrize("value, integer, minimum", [
    (True, False, None), (np.bool_(True), False, None), ("0.05", False, None),
    ("3", True, None), (None, False, None), (1 + 0j, False, None), ([1], False, None),
    (2.0, True, None), (1.7, True, None), (0, True, 1), (float("nan"), False, 0),
])
def test_checked_number_refuses_everything_else(value, integer, minimum):
    with pytest.raises(ConfigError, match=r"^workers must be (a number|an integer)"):
        checked_number(value, "workers", integer=integer, minimum=minimum)


def test_checked_number_message_names_the_rule():
    with pytest.raises(ConfigError, match=r"^workers must be an integer >= 1, got 0$"):
        checked_number(0, "workers", integer=True, minimum=1)
    with pytest.raises(ConfigError, match=r"^dt must be a number, got '0.05'$"):
        checked_number("0.05", "dt")


# -- seeds ----------------------------------------------------------------------

TINY = Schedule(t_relax=0.5, t_final=0.5, dt=0.05, record_stride=10)
SINGLE = build_single_mode(drive=1.0, kerr=0.1, loss=1.0, input_weight=0.5)

# every public entry point that turns a seed into random numbers
SEED_USERS = {
    "run_ensemble": lambda seed: run_ensemble(SINGLE, vacuum_samples(4), TINY, seed=seed),
    "relax_ensemble": lambda seed: relax_ensemble(SINGLE, TINY, 4, seed=seed),
    "sample_thermal": lambda seed: sample_state(thermal_state(0.5), 4, seed=seed),
    "sample_cat": lambda seed: sample_state(cat_state(1.2), 4, seed=seed),
    "build_reservoir": lambda seed: build_reservoir(shape_for_modes(2), kerr=0.1, seed=seed),
    "stability_scan": lambda seed: stability_scan([1.0], kerr_values=[0.1], trajectories=4,
                                                  horizon=0.5, seed=seed),
    "generate_dataset": lambda seed: generate_dataset("classify", SINGLE, TINY, train_count=1,
                                                      test_count=0, trajectories=4, seed=seed),
    "Hyperparams": lambda seed: Hyperparams(seed=seed),
}


@pytest.mark.parametrize("seed", [-1, 2.5, True, (1, -2)],
                         ids=["negative", "fractional", "boolean", "negative_part"])
@pytest.mark.parametrize("user", sorted(SEED_USERS))
def test_every_seed_user_refuses_a_bad_seed(monkeypatch, user, seed):
    # refused before anything is integrated, never truncated or passed to NumPy
    def never(self):
        raise AssertionError("integrated with a refused seed")
    monkeypatch.setattr(dynamics._BlockRun, "run", never)
    with pytest.raises(ConfigError, match=r"seed must be an integer >= 0, got "):
        SEED_USERS[user](seed)


def test_equivalent_seeds_draw_the_same_numbers():
    # an integer seed and its one-entry key are one stream, NumPy integers included
    assert seed_key(5) == seed_key((5,)) == seed_key([5]) == seed_key(np.int64(5)) == (5,)
    assert seed_key((3, np.int64(4))) == (3, 4)
    assert len(seed_key(None)) == 1 and seed_key(None) != seed_key(None)
    spec = build_reservoir(shape_for_modes(2), kerr=0.08, drive=0.5, seed=3)
    outputs = []
    for seed in (5, (5,), np.int64(5)):
        samples = sample_state(cat_state(1.2), 64, seed=seed)
        series = run_ensemble(spec, samples, TINY, seed=seed)
        outputs.append([a.tobytes() for a in (samples.alpha, samples.alpha_tilde,
                                              series.mean, series.stderr)])
    assert outputs[0] == outputs[1] == outputs[2]
