"""Reservoir construction: lattice geometry, random couplings, drives, losses.

A reservoir is a rectangular lattice of Kerr-nonlinear bosonic modes with
nearest-neighbour hopping, per-mode detuning and coherent drive, single-photon
loss, and a vector of input weights coupling every mode to one upstream source
mode.  All random structure is drawn once from a seeded generator and frozen
into an immutable ReservoirSpec that downstream modules treat as plain data.

Draw order (fixed for reproducibility): detunings, then one coupling per edge,
then input weights.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass

import numpy as np
import yaml

from .errors import ConfigError, NumericsError

RESERVOIR_FORMAT = "pplattice-reservoir-v1"

# Parameter ranges used for the randomly drawn structure.
DETUNING_RANGE = (0.0, 0.1)
COUPLING_RANGE = (-1.0, 1.0)


@dataclass(frozen=True)
class LatticeShape:
    """Rectangular lattice dimensions; modes are indexed row-major."""

    rows: int
    cols: int

    def __post_init__(self):
        checked_number(self.rows, "lattice rows", integer=True, minimum=1)
        checked_number(self.cols, "lattice cols", integer=True, minimum=1)

    @property
    def n_modes(self) -> int:
        return self.rows * self.cols


def shape_for_modes(n_modes: int) -> LatticeShape:
    """Pick a lattice shape for a requested mode count.

    Perfect squares become square lattices, anything else a 1xN chain.
    """
    n_modes = checked_number(n_modes, "mode count", integer=True, minimum=1)
    side = math.isqrt(n_modes)
    if side * side == n_modes:
        return LatticeShape(side, side)
    return LatticeShape(1, n_modes)


def lattice_edges(shape: LatticeShape) -> tuple[tuple[int, int], ...]:
    """Nearest-neighbour edges (i, j) with i < j, row-major node indexing.

    A rows x cols lattice has 2*rows*cols - rows - cols edges.
    """
    edges = []
    for r in range(shape.rows):
        for c in range(shape.cols):
            node = r * shape.cols + c
            if c + 1 < shape.cols:
                edges.append((node, node + 1))
            if r + 1 < shape.rows:
                edges.append((node, node + shape.cols))
    return tuple(edges)


def spectral_radius(matrix: np.ndarray) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigError(f"spectral radius needs a square matrix, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise ConfigError("spectral radius needs finite entries")
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(m))))


@dataclass(frozen=True, eq=False)
class ReservoirSpec:
    """Frozen description of one reservoir instance.

    hopping is symmetric, zero off the lattice's nearest-neighbour edges, and
    of unit spectral radius unless it is all zero.
    """

    rows: int
    cols: int
    hopping: np.ndarray        # (N, N) real symmetric
    detuning: np.ndarray       # (N,) real
    kerr: float
    drive: np.ndarray          # (N,) complex
    loss: np.ndarray           # (N,) real, >= 0
    source_loss: float
    input_weights: np.ndarray  # (N,) real in [0, 1]
    seed: int | None = None

    def __post_init__(self):
        for name in ("hopping", "detuning", "drive", "loss", "input_weights"):
            arr = getattr(self, name)
            arr.flags.writeable = False
        self.validate()

    @property
    def n_modes(self) -> int:
        return self.rows * self.cols

    @property
    def eta(self) -> float:
        """sum(input_weights**2): the effective source decay weight during injection."""
        return float(np.sum(self.input_weights ** 2))

    def validate(self):
        n = self.n_modes
        if self.rows < 1 or self.cols < 1:
            raise ConfigError(f"bad lattice shape {self.rows}x{self.cols}")
        shapes = {
            "hopping": (n, n), "detuning": (n,), "drive": (n,),
            "loss": (n,), "input_weights": (n,),
        }
        for name, want in shapes.items():
            got = getattr(self, name).shape
            if got != want:
                raise ConfigError(f"{name} has shape {got}, expected {want}")
        for name in ("hopping", "detuning", "loss", "input_weights"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ConfigError(f"{name} contains non-finite entries")
        if not np.all(np.isfinite(self.drive)):
            raise ConfigError("drive contains non-finite entries")
        if not (np.isfinite(self.kerr) and np.isfinite(self.source_loss)):
            raise ConfigError("kerr and source_loss must be finite")
        if self.kerr < 0:
            raise ConfigError(f"kerr must be >= 0, got {self.kerr}")
        if not np.array_equal(self.hopping, self.hopping.T):
            raise ConfigError("hopping matrix must be symmetric")
        if np.any(self.loss <= 0) or self.source_loss <= 0:
            raise ConfigError("loss rates must be > 0")
        if np.any(self.input_weights < 0) or np.any(self.input_weights > 1):
            raise ConfigError("input weights must lie in [0, 1]")
        off_edge = np.ones((n, n), dtype=bool)
        for i, j in lattice_edges(LatticeShape(self.rows, self.cols)):
            off_edge[i, j] = off_edge[j, i] = False
        if np.any(self.hopping[off_edge] != 0):
            raise ConfigError("hopping couples modes that share no lattice edge")
        if np.any(self.hopping != 0):
            radius = spectral_radius(self.hopping)
            if abs(radius - 1.0) > 1e-10:
                raise ConfigError(f"hopping spectral radius {radius!r} != 1 within 1e-10")

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": RESERVOIR_FORMAT,
            "rows": self.rows,
            "cols": self.cols,
            "edges": [list(e) for e in lattice_edges(LatticeShape(self.rows, self.cols))],
            "hopping": [[float(x) for x in row] for row in self.hopping],
            "detuning": [float(x) for x in self.detuning],
            "kerr": float(self.kerr),
            "drive": [[float(z.real), float(z.imag)] for z in self.drive],
            "loss": [float(x) for x in self.loss],
            "source_loss": float(self.source_loss),
            "input_weights": [float(x) for x in self.input_weights],
            "eta": float(self.eta),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ReservoirSpec":
        # a file also holds the edges and eta that its shape and weights fix: others are refused
        if data.get("format", RESERVOIR_FORMAT) != RESERVOIR_FORMAT:
            raise ConfigError(f"unknown reservoir format {data['format']!r}")
        try:       # a value of the wrong type or shape, or a missing key
            drive = np.array([complex(checked_number(re, "drive"), checked_number(im, "drive"))
                              for re, im in data["drive"]], dtype=complex)
            edges = tuple((checked_number(i, "edge index", integer=True),
                           checked_number(j, "edge index", integer=True))
                          for i, j in data["edges"])
            eta = checked_number(data["eta"], "eta")
            fields = dict(
                rows=checked_number(data["rows"], "rows", integer=True, minimum=1),
                cols=checked_number(data["cols"], "cols", integer=True, minimum=1),
                hopping=np.array([_checked_floats(row, "hopping") for row in data["hopping"]]),
                detuning=_checked_floats(data["detuning"], "detuning"),
                kerr=checked_number(data["kerr"], "kerr"),
                drive=drive,
                loss=_checked_floats(data["loss"], "loss"),
                source_loss=checked_number(data["source_loss"], "source_loss"),
                input_weights=_checked_floats(data["input_weights"], "input_weights"),
                seed=None if data.get("seed") is None
                else checked_number(data["seed"], "seed", integer=True, minimum=0),
            )
        except (KeyError, TypeError, ValueError) as exc:   # ConfigError is a ValueError
            raise ConfigError(f"malformed reservoir dictionary: {exc}") from exc
        rows, cols = fields["rows"], fields["cols"]
        if edges != lattice_edges(LatticeShape(rows, cols)):
            raise ConfigError(f"edges {list(edges)} are not the nearest-neighbour "
                              f"edges of a {rows}x{cols} lattice")
        spec = cls(**fields)
        if eta != spec.eta:
            raise ConfigError("eta does not equal sum(input_weights**2)")
        return spec

    def dumps(self) -> str:
        return yaml.safe_dump(self.to_dict(), sort_keys=True, default_flow_style=None)


def read_input(path, name: str = "path") -> bytes:
    """The bytes of input file `path`; ConfigError naming `name` if `path` is
    not a str or os.PathLike, and naming the path if the file is missing or
    cannot be read (a directory, say)."""
    if not isinstance(path, (str, os.PathLike)):
        raise ConfigError(f"{name} must be a file path, got {path!r}")
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}") from None
    except (OSError, ValueError) as exc:     # ValueError: a NUL in the path
        raise ConfigError(f"cannot read {path}: {exc}") from None


def load_yaml(path, name: str = "path") -> dict:
    """The mapping in YAML file `path` (read by read_input); ConfigError if
    the file does not parse or holds anything but a mapping."""
    try:
        data = yaml.safe_load(read_input(path, name))
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must hold a mapping, got {type(data).__name__}")
    return data


def checked_number(value, name: str, *, integer: bool = False, minimum=None):
    """`value` as an int (integer=True) or a float, if it is a real number of
    that kind and at least `minimum`; else ConfigError naming `name`.

    The one rule for a number read from outside: booleans and text are
    refused, even text that spells a number, and for an integer quantity so
    is any non-integer.  NumPy's numbers pass like Python's.
    """
    if (isinstance(value, numbers.Integral if integer else numbers.Real)
            and not isinstance(value, bool) and (minimum is None or value >= minimum)):
        return int(value) if integer else float(value)
    raise ConfigError(f"{name} must be {'an integer' if integer else 'a number'}"
                      f"{'' if minimum is None else f' >= {minimum}'}, got {value!r}")


def seed_key(seed, name: str = "seed") -> tuple:
    """The entropy key that `generator` turns into a random stream.

    The one rule for a seed: None draws fresh entropy; an integer >= 0 is a
    key of one entry, and a tuple or list one entry per item, each an
    integer >= 0 by checked_number.  Keys are indexed by appending to them,
    but SeedSequence pads a key to four 32-bit words, so (k,) and (k, 0)
    (and (k, 0, 0), (k, 0, 0, 0)) give one stream, as do (2**32,) and (0, 1).
    """
    if seed is None:
        return (np.random.SeedSequence().entropy,)
    parts = seed if isinstance(seed, (tuple, list)) else (seed,)
    return tuple(checked_number(part, name, integer=True, minimum=0) for part in parts)


def generator(key: tuple) -> np.random.Generator:
    """The PCG64 stream of an entropy key from seed_key (not checked again)."""
    return np.random.default_rng(np.random.SeedSequence(key))


def _checked_floats(values, name: str) -> np.ndarray:
    """A float array of `values`, each entry read by checked_number."""
    return np.array([checked_number(x, name) for x in values], dtype=float)


def load_reservoir(path) -> ReservoirSpec:
    return ReservoirSpec.from_dict(load_yaml(path))


def build_reservoir(shape: LatticeShape, *, kerr: float, drive: complex | np.ndarray = 0.5,
                    loss: float | np.ndarray = 1.0, source_loss: float = 1.0,
                    seed: int | None = None) -> ReservoirSpec:
    """Draw one reservoir instance.

    Detunings are uniform over [0, 0.1), couplings uniform over [-1, 1) per
    edge (symmetrized, then normalized by the spectral radius), input weights
    uniform over [0, 1).  `drive` and `loss` may be scalars (uniform across
    modes) or per-mode vectors.
    """
    n = shape.n_modes
    edges = lattice_edges(shape)
    rng = generator(seed_key(seed))

    detuning = rng.uniform(*DETUNING_RANGE, size=n)
    hopping = np.zeros((n, n))
    for i, j in edges:
        coupling = rng.uniform(*COUPLING_RANGE)
        hopping[i, j] = coupling
        hopping[j, i] = coupling
    if edges:
        radius = spectral_radius(hopping)
        if radius < 1e-12:
            raise NumericsError("drawn hopping matrix has (near-)zero spectral radius")
        hopping = hopping / radius  # scalar division keeps symmetry exact
    weights = rng.uniform(0.0, 1.0, size=n)

    drive_vec = np.broadcast_to(np.asarray(drive, dtype=complex), (n,)).copy()
    loss_vec = np.broadcast_to(np.asarray(loss, dtype=float), (n,)).copy()
    return ReservoirSpec(
        rows=shape.rows, cols=shape.cols,
        hopping=hopping, detuning=detuning, kerr=float(kerr), drive=drive_vec,
        loss=loss_vec, source_loss=float(source_loss), input_weights=weights, seed=seed,
    )
