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
        if self.rows < 1 or self.cols < 1:
            raise ConfigError(f"lattice dimensions must be >= 1, got {self.rows}x{self.cols}")

    @property
    def n_modes(self) -> int:
        return self.rows * self.cols


def shape_for_modes(n_modes: int) -> LatticeShape:
    """Pick a lattice shape for a requested mode count.

    Perfect squares become square lattices, anything else a 1xN chain.
    """
    if n_modes < 1:
        raise ConfigError(f"mode count must be >= 1, got {n_modes}")
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

    hopping is symmetric with unit spectral radius whenever the lattice has at
    least one edge; eta caches sum(input_weights**2), the effective source
    decay weight during injection.
    """

    rows: int
    cols: int
    edges: tuple[tuple[int, int], ...]
    hopping: np.ndarray        # (N, N) real symmetric
    detuning: np.ndarray       # (N,) real
    kerr: float
    drive: np.ndarray          # (N,) complex
    loss: np.ndarray           # (N,) real, >= 0
    source_loss: float
    input_weights: np.ndarray  # (N,) real in [0, 1]
    eta: float
    seed: int | None = None

    def __post_init__(self):
        for name in ("hopping", "detuning", "drive", "loss", "input_weights"):
            arr = getattr(self, name)
            arr.flags.writeable = False
        self.validate()

    @property
    def n_modes(self) -> int:
        return self.rows * self.cols

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
        if float(np.sum(self.input_weights ** 2)) != self.eta:
            raise ConfigError("eta does not equal sum(input_weights**2)")
        if self.edges and np.any(self.hopping != 0):
            radius = spectral_radius(self.hopping)
            if abs(radius - 1.0) > 1e-10:
                raise ConfigError(f"hopping spectral radius {radius!r} != 1 within 1e-10")
        for i, j in self.edges:
            if not (0 <= i < j < n):
                raise ConfigError(f"bad edge ({i}, {j}) for {n} modes")

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": RESERVOIR_FORMAT,
            "rows": self.rows,
            "cols": self.cols,
            "edges": [list(e) for e in self.edges],
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
        try:
            if data.get("format", RESERVOIR_FORMAT) != RESERVOIR_FORMAT:
                raise ConfigError(f"unknown reservoir format {data['format']!r}")
            drive = np.array([complex(re, im) for re, im in data["drive"]], dtype=complex)
            return cls(
                rows=int(data["rows"]),
                cols=int(data["cols"]),
                edges=tuple((int(i), int(j)) for i, j in data["edges"]),
                hopping=np.array(data["hopping"], dtype=float),
                detuning=np.array(data["detuning"], dtype=float),
                kerr=float(data["kerr"]),
                drive=drive,
                loss=np.array(data["loss"], dtype=float),
                source_loss=float(data["source_loss"]),
                input_weights=np.array(data["input_weights"], dtype=float),
                eta=float(data["eta"]),
                seed=None if data.get("seed") is None else int(data["seed"]),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed reservoir dictionary: {exc}") from exc

    def dumps(self) -> str:
        return yaml.safe_dump(self.to_dict(), sort_keys=True, default_flow_style=None)


def load_yaml(path) -> dict:
    """The mapping in YAML file `path`; ConfigError if the file is missing,
    does not parse, or holds anything but a mapping."""
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must hold a mapping, got {type(data).__name__}")
    return data


def load_reservoir(path) -> ReservoirSpec:
    return ReservoirSpec.from_dict(load_yaml(path))


def build_reservoir(shape: LatticeShape | int, *, kerr: float, drive: complex | np.ndarray = 0.5,
                    loss: float | np.ndarray = 1.0, source_loss: float = 1.0,
                    seed: int | None = None) -> ReservoirSpec:
    """Draw one reservoir instance.

    Detunings are uniform over [0, 0.1), couplings uniform over [-1, 1) per
    edge (symmetrized, then normalized by the spectral radius), input weights
    uniform over [0, 1).  `drive` and `loss` may be scalars (uniform across
    modes) or per-mode vectors.
    """
    if isinstance(shape, int):
        shape = shape_for_modes(shape)
    n = shape.n_modes
    edges = lattice_edges(shape)
    rng = np.random.default_rng(np.random.SeedSequence(seed))

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
        rows=shape.rows, cols=shape.cols, edges=edges,
        hopping=hopping, detuning=detuning, kerr=float(kerr), drive=drive_vec,
        loss=loss_vec, source_loss=float(source_loss),
        input_weights=weights, eta=float(np.sum(weights ** 2)), seed=seed,
    )
