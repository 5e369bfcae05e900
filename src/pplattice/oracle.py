"""Exact truncated-Fock-space Lindblad solver for small reservoirs.

Brute-force companion to the stochastic integrator: builds input states as
density matrices, evolves the cascade master equation

    drho/dt = K rho + rho K^dag + sum_j A_j rho A_j^dag,
    A_j = sqrt(gamma_j) b_j + sqrt(gamma_s f) W_j s,
    K   = -i H - sum_j (gamma_j/2) n_j - (gamma_s eta f / 2) n_s
          - sum_j sqrt(gamma_s gamma_j f) W_j b_j^dag s,

with H the lattice Hamiltonian (detuning, Kerr, coherent drive, hopping).
Expanding K and the collective jump operators reproduces the independent
per-mode and source dissipators plus the one-way cross terms
sqrt(gamma_s gamma_j f) W_j ([s rho, b_j^dag] + [b_j, rho s^dag]); the trace
is conserved identically because K + K^dag = -sum_j A_j^dag A_j.

During the relaxation phase (f=0) the source factorizes exactly, so the
solver propagates the reservoir factor alone and forms the tensor product
(source first) only at the injection time.

Propagation applies the exact exponential of the generator over each
recording interval: through expm of the dense superoperator when the
Hilbert space is small, and otherwise through a scaled Taylor series on the
density matrix run to a certified fixed depth (term count chosen from a
guaranteed generator-norm bound so the series equals the exponential to
machine precision in operator norm, not merely on the current state).

Approximate one-step integrators, fixed-step RK4 included, are unusable
here: the truncated loss cascade couples the (n, m) diagonals of rho
through a long Jordan-like chain, making the generator so non-normal that
any per-step deviation from the exact semigroup on the stiff directions is
amplified into sustained exponential error growth (measured rates of 2-3.5
per unit time at truncations of 30 levels, independent of step size; the
1e-6 trace budget is gone by t of about 15).  The exact semigroup is a
trace-norm contraction, so applying it to machine precision keeps roundoff
from compounding, and the only systematic error left is the Fock-space
truncation itself.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import expm
from scipy.special import eval_genlaguerre

from .dynamics import Schedule
from .errors import ConfigError, NumericsError, TruncationError
from .model import ReservoirSpec
from .observables import trapezoid
from .sampler import StateSpec

TAIL_TOLERANCE = 1e-8       # allowed Fock mass beyond the truncation
TRACE_LIMIT = 1e-6          # trace drift that aborts a run
DENSE_SUPEROP_LIMIT = 50    # Hilbert dims up to this use expm of the superoperator
MAX_DIM = 4000              # largest composite Hilbert dimension the solver accepts
TAYLOR_THETA = 8.0          # max sub-interval scaled generator norm for the series
SERIES_EPS = 1e-16          # certified operator-norm tail of the truncated series


def destroy(dim: int) -> np.ndarray:
    """Truncated annihilation operator, b|n> = sqrt(n)|n-1>."""
    if dim < 2:
        raise ConfigError(f"Fock truncation must be >= 2, got {dim}")
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def number_op(dim: int) -> np.ndarray:
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


@dataclass(frozen=True, eq=False)
class FockDensityMatrix:
    """Density matrix over a tensor product of truncated Fock spaces."""

    data: np.ndarray        # (D, D) complex, D = prod(dims)
    dims: tuple[int, ...]

    def __post_init__(self):
        d = int(np.prod(self.dims))
        if self.data.shape != (d, d):
            raise ConfigError(
                f"density matrix shape {self.data.shape} does not match dims {self.dims}")

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def n_modes(self) -> int:
        return len(self.dims)

    def trace(self) -> complex:
        return complex(np.trace(self.data))

    def validate(self, herm_tol: float = 1e-10, trace_tol: float = 1e-8,
                 eig_floor: float = -1e-8) -> "FockDensityMatrix":
        herm = np.max(np.abs(self.data - self.data.conj().T))
        if herm > herm_tol:
            raise NumericsError(f"density matrix not Hermitian: deviation {herm:.3e}")
        tr = self.trace()
        if abs(tr - 1.0) > trace_tol:
            raise NumericsError(f"density matrix trace {tr} deviates from 1")
        lowest = float(np.linalg.eigvalsh(self.data).min())
        if lowest < eig_floor:
            raise NumericsError(f"density matrix has eigenvalue {lowest:.3e}")
        return self


def vacuum_density(dims) -> FockDensityMatrix:
    dims = tuple(int(d) for d in (dims if np.iterable(dims) else (dims,)))
    d = int(np.prod(dims))
    data = np.zeros((d, d), dtype=complex)
    data[0, 0] = 1.0
    return FockDensityMatrix(data=data, dims=dims)


# ---------------------------------------------------------------------------
# input states


def _log_factorial(n: np.ndarray) -> np.ndarray:
    out = np.zeros(n.shape[0])
    out[1:] = np.cumsum(np.log(np.arange(1, n.shape[0], dtype=float)))
    return out


def _pure_coefficients(state: StateSpec, count: int) -> np.ndarray:
    """Unnormalized Fock coefficients c_0..c_{count-1} of a pure input state."""
    n = np.arange(count)
    logfact = _log_factorial(n)
    if state.kind == "coherent":
        mag = abs(state.beta)
        if mag == 0.0:
            coeff = np.zeros(count, dtype=complex)
            coeff[0] = 1.0
            return coeff
        log_mag = n * math.log(mag) - 0.5 * logfact
        phase = np.angle(state.beta) * n
        return np.exp(log_mag) * np.exp(1j * phase)
    if state.kind == "cat":
        mag = abs(state.beta)
        if mag == 0.0:
            coeff = np.zeros(count, dtype=complex)
            coeff[0] = 1.0 + np.exp(1j * state.cat_phase)
            return coeff
        log_mag = n * math.log(mag) - 0.5 * logfact
        phase = np.exp(1j * np.angle(state.beta) * n)
        branch = 1.0 + np.exp(1j * state.cat_phase) * (-1.0) ** n
        return np.exp(log_mag) * phase * branch
    if state.kind == "squeezed_vacuum":
        coeff = np.zeros(count, dtype=complex)
        if state.r == 0.0:
            coeff[0] = 1.0
            return coeff
        m = np.arange((count + 1) // 2)
        # c_{2m} = (-e^{2i theta} tanh r / 2)^m sqrt((2m)!) / m!
        log_mag = m * math.log(math.tanh(state.r) / 2.0) \
            + 0.5 * logfact[2 * m] - logfact[m]
        phase = np.exp(1j * m * (2.0 * state.theta + math.pi))
        coeff[2 * m] = np.exp(log_mag) * phase
        return coeff
    raise ConfigError(f"state kind {state.kind!r} has no pure Fock expansion")


def build_state_fock(state: StateSpec, dim: int,
                     tail_tol: float = TAIL_TOLERANCE) -> FockDensityMatrix:
    """Input state as a truncated density matrix, renormalized after the
    tail-mass guard passes."""
    if dim < 2:
        raise ConfigError(f"Fock truncation must be >= 2, got {dim}")
    if state.kind == "thermal":
        n = np.arange(dim)
        if state.nbar == 0.0:
            return vacuum_density(dim)
        ratio = state.nbar / (1.0 + state.nbar)
        tail = ratio ** dim
        if tail > tail_tol:
            raise TruncationError(
                f"thermal nbar={state.nbar} keeps mass {tail:.3e} beyond d={dim}")
        weights = np.exp(n * math.log(ratio)) * (1.0 - ratio)
        return FockDensityMatrix(data=np.diag(weights / weights.sum()).astype(complex),
                                 dims=(dim,))
    working = max(2 * dim, dim + 200)
    coeff = _pure_coefficients(state, working)
    mass = np.abs(coeff) ** 2
    total = mass.sum()
    tail = mass[dim:].sum() / total
    if tail > tail_tol:
        raise TruncationError(
            f"{state.kind} state keeps mass {tail:.3e} beyond d={dim} "
            f"(tolerance {tail_tol:g})")
    kept = coeff[:dim] / math.sqrt(mass[:dim].sum())
    return FockDensityMatrix(data=np.outer(kept, kept.conj()), dims=(dim,))


# ---------------------------------------------------------------------------
# expectation values


def _mode_populations(rho: FockDensityMatrix, mode: int) -> np.ndarray:
    if not 0 <= mode < rho.n_modes:
        raise ConfigError(f"mode {mode} outside 0..{rho.n_modes - 1}")
    diag = np.diagonal(rho.data).reshape(rho.dims)
    other_axes = tuple(a for a in range(rho.n_modes) if a != mode)
    return diag.sum(axis=other_axes)


def expect_occupation(rho: FockDensityMatrix, mode: int = 0) -> float:
    """Tr(rho n_mode); complains if the trace picks up an imaginary part."""
    pops = _mode_populations(rho, mode)
    value = complex(np.sum(np.arange(rho.dims[mode]) * pops))
    if abs(value.imag) > 1e-10:
        raise NumericsError(f"occupation has imaginary residue {value.imag:.3e}")
    return float(value.real)


# ---------------------------------------------------------------------------
# cascade master equation


def _embed(op: np.ndarray, dims: tuple[int, ...], position: int) -> sparse.csr_matrix:
    mat = sparse.csr_matrix(np.eye(1, dtype=complex))
    for k, d in enumerate(dims):
        factor = sparse.csr_matrix(op) if k == position else sparse.identity(d, dtype=complex, format="csr")
        mat = sparse.kron(mat, factor, format="csr")
    return mat


def _generators(spec: ReservoirSpec, dims: tuple[int, ...], source_dim: int | None, f: int):
    """Sparse K and jump operators for the (optionally source-extended) space."""
    full_dims = ((source_dim,) + dims) if source_dim else dims
    offset = 1 if source_dim else 0
    n = spec.n_modes
    lower = [_embed(destroy(dims[j]), full_dims, offset + j) for j in range(n)]
    total = int(np.prod(full_dims))
    ham = sparse.csr_matrix((total, total), dtype=complex)
    for j in range(n):
        b = lower[j]
        num = b.conj().T @ b
        ham = ham - spec.detuning[j] * num \
            + 0.5 * spec.kerr * (num @ num - num) \
            + spec.drive[j] * b.conj().T + np.conj(spec.drive[j]) * b
    for i in range(n):
        for j in range(i + 1, n):
            hop = spec.hopping[i, j]
            if hop != 0.0:
                ham = ham - hop * (lower[i].conj().T @ lower[j] + lower[j].conj().T @ lower[i])
    k_op = -1j * ham
    jumps = []
    for j in range(n):
        k_op = k_op - 0.5 * spec.loss[j] * (lower[j].conj().T @ lower[j])
        jumps.append(math.sqrt(spec.loss[j]) * lower[j])
    if source_dim and f:
        s_op = _embed(destroy(source_dim), full_dims, 0)
        k_op = k_op - 0.5 * spec.source_loss * spec.eta * (s_op.conj().T @ s_op)
        for j in range(n):
            weight = spec.input_weights[j]
            if weight:
                cross = math.sqrt(spec.source_loss * spec.loss[j]) * weight
                k_op = k_op - cross * (lower[j].conj().T @ s_op)
                jumps[j] = jumps[j] + math.sqrt(spec.source_loss) * weight * s_op
    return k_op.tocsr(), [a.tocsr() for a in jumps]


def _rhs(k_op, jumps, rho: np.ndarray) -> np.ndarray:
    """K rho + rho K^dag + sum A rho A^dag, valid for Hermitian rho."""
    krho = k_op @ rho
    out = krho + krho.conj().T
    for a in jumps:
        arho = a @ rho
        out += a @ arho.conj().T
    return out


def _norm_bound(op) -> float:
    """Guaranteed spectral-norm upper bound, sqrt(norm_1 * norm_inf)."""
    mags = abs(op)
    return float(math.sqrt(mags.sum(axis=0).max() * mags.sum(axis=1).max()))


def _series_depth(theta: float) -> int:
    """Terms after which the Taylor tail of exp(theta) drops below SERIES_EPS."""
    if theta <= 0.0:
        return 0
    log_term = 0.0
    for k in range(1, 1000):
        log_term += math.log(theta) - math.log(k)
        if k + 1 <= theta:
            continue
        if math.exp(log_term) / (1.0 - theta / (k + 1)) <= SERIES_EPS:
            return k - 1
    raise NumericsError(f"series depth search failed for theta={theta:.3g}")


class _Propagator:
    """Exact map over one recording interval for a fixed generator.

    Small spaces take expm of the dense superoperator once and iterate it.
    Larger composites apply a scaled Taylor series of the shifted generator
    with a fixed term count certified by a norm upper bound, so the applied
    map equals the exponential to machine precision in operator norm and not
    merely on the state it happens to act on.  Either way each interval is a
    contraction up to roundoff, which is what keeps errors from compounding
    (see the module docstring).
    """

    def __init__(self, k_op, jumps, dim: int, segment: float):
        if dim <= DENSE_SUPEROP_LIMIT:
            kd = k_op.toarray()
            eye = np.eye(dim)
            lsup = np.kron(kd, eye) + np.kron(eye, kd.conj())
            for a in jumps:
                ad = a.toarray()
                lsup += np.kron(ad, ad.conj())
            self.matrix = expm(segment * lsup)
            return
        self.matrix = None
        self.k_op = k_op
        self.jumps = jumps
        # Shifting off the mean eigenvalue (real here: jump operators are
        # traceless and K's trace is real) shrinks the series terms.
        trace_l = 2.0 * dim * float(k_op.diagonal().sum().real)
        for a in jumps:
            trace_l += abs(a.diagonal().sum()) ** 2
        self.mu = trace_l / dim**2
        shifted = k_op - 0.5 * self.mu * sparse.identity(dim, format="csr")
        bound = 2.0 * _norm_bound(shifted)
        for a in jumps:
            bound += _norm_bound(a) ** 2
        self.pieces = max(1, math.ceil(segment * bound / TAYLOR_THETA))
        self.h = segment / self.pieces
        self.depth = _series_depth(self.h * bound)
        self.scale = math.exp(self.mu * self.h)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        if self.matrix is not None:
            out = (self.matrix @ rho.reshape(-1)).reshape(rho.shape)
            return 0.5 * (out + out.conj().T)
        for _ in range(self.pieces):
            term = rho
            acc = rho.copy()
            for k in range(1, self.depth + 1):
                term = (self.h / k) * (_rhs(self.k_op, self.jumps, term)
                                       - self.mu * term)
                acc += term
            # roundoff in the anti-Hermitian sector is not contracted by the
            # map, so project it out rather than letting it accumulate
            rho = (0.5 * self.scale) * (acc + acc.conj().T)
        return rho


@dataclass(frozen=True, eq=False)
class MasterSeries:
    """Occupations from the exact solver on the trajectory recording grid."""

    times: np.ndarray              # (T,)
    occupation: np.ndarray         # (T, N) reservoir modes
    source_occupation: np.ndarray | None
    trace_error: float
    final_state: FockDensityMatrix

    @property
    def n_modes(self) -> int:
        return self.occupation.shape[1]


def evolve_master(rho0: FockDensityMatrix, spec: ReservoirSpec,
                  source0: FockDensityMatrix | None, schedule: Schedule, *,
                  validate_records: bool = False) -> MasterSeries:
    """Integrate the cascade master equation over a two-phase schedule.

    rho0 is the reservoir state (dims = one truncation per mode), source0 the
    single-mode source state or None for a run without injection.  The source
    factor is attached only when the injection phase starts; up to then it is
    exactly stationary.
    """
    if len(rho0.dims) != spec.n_modes:
        raise ConfigError(
            f"reservoir state has {len(rho0.dims)} modes, spec has {spec.n_modes}")
    if source0 is not None and source0.n_modes != 1:
        raise ConfigError("source state must be single-mode")
    dims = rho0.dims
    source_dim = source0.dims[0] if source0 is not None else None
    total_dim = int(np.prod(dims)) * (source_dim or 1)
    if total_dim > MAX_DIM:
        raise ConfigError(
            f"composite dimension {total_dim} too large for the exact solver (max {MAX_DIM})")
    segment = schedule.dt * schedule.record_stride
    times = schedule.times
    n = spec.n_modes
    occupation = np.zeros((times.shape[0], n))
    source_occ = np.zeros(times.shape[0]) if source0 is not None else None
    k_op, jumps = _generators(spec, dims, None, f=0)
    prop = _Propagator(k_op, jumps, int(np.prod(dims)), segment)
    rho = rho0.data.astype(complex).copy()
    composite = False
    src_initial = expect_occupation(source0) if source0 is not None else 0.0
    trace_error = 0.0

    def snapshot(rec: int, state: np.ndarray, state_dims: tuple[int, ...]):
        nonlocal trace_error
        fock = FockDensityMatrix(data=state, dims=state_dims)
        drift = abs(fock.trace() - 1.0)
        trace_error = max(trace_error, drift)
        if drift > TRACE_LIMIT:
            raise NumericsError(f"trace drifted by {drift:.3e} at t={times[rec]:.3f}")
        if validate_records:
            fock.validate()
        offset = 1 if composite else 0
        for j in range(n):
            occupation[rec, j] = expect_occupation(fock, offset + j)
        if source_occ is not None:
            source_occ[rec] = expect_occupation(fock, 0) if composite else src_initial

    snapshot(0, rho, dims)
    injection_record = schedule.injection_index
    for rec in range(1, times.shape[0]):
        if source0 is not None and rec == injection_record + 1:
            # without a source, f only scales vanished terms: same generators
            rho = np.kron(source0.data, rho)
            composite = True
            k_op, jumps = _generators(spec, dims, source_dim, f=1)
            prop = _Propagator(k_op, jumps, total_dim, segment)
        rho = prop.apply(rho)
        snapshot(rec, rho, ((source_dim,) + dims) if composite else dims)
    final_dims = ((source_dim,) + dims) if composite else dims
    return MasterSeries(times=times, occupation=occupation,
                        source_occupation=source_occ, trace_error=trace_error,
                        final_state=FockDensityMatrix(data=rho, dims=final_dims))


# ---------------------------------------------------------------------------
# Wigner grid


@dataclass(frozen=True, eq=False)
class WignerGrid:
    """W(q, p) tabulated with values[i, j] = W(q[i], p[j])."""

    q: np.ndarray
    p: np.ndarray
    values: np.ndarray

    def to_csv(self) -> str:
        lines = ["q,p,wigner"]
        for i, qv in enumerate(self.q):
            for j, pv in enumerate(self.p):
                lines.append(f"{float(qv)!r},{float(pv)!r},{float(self.values[i, j])!r}")
        return "\n".join(lines) + "\n"

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_csv())


def _displacement_column(n: np.ndarray, m: int, z: np.ndarray) -> np.ndarray:
    """<n|D(z)|m> for all n at fixed m, evaluated on an array of z."""
    out = np.zeros(n.shape + z.shape, dtype=complex)
    zz = np.abs(z) ** 2
    gauss = np.exp(-zz / 2.0)
    logfact = _log_factorial(np.arange(n.shape[0] + m + 1))
    for k in n:
        if k >= m:
            scale = math.exp(0.5 * (logfact[m] - logfact[k]))
            out[k] = scale * z ** (k - m) * gauss * eval_genlaguerre(m, k - m, zz)
        else:
            scale = math.exp(0.5 * (logfact[k] - logfact[m]))
            out[k] = scale * (-np.conj(z)) ** (m - k) * gauss * eval_genlaguerre(k, m - k, zz)
    return out


def wigner_grid(rho: FockDensityMatrix, q_grid, p_grid) -> WignerGrid:
    """Wigner function from the displaced-parity series.

    Convention hbar = 1, alpha = (q + ip)/sqrt(2); the vacuum gives
    W(q, p) = exp(-q^2 - p^2)/pi.  Warns when the grid fails to hold the
    state (trapezoidal mass off 1 by more than 1%).
    """
    if rho.n_modes != 1:
        raise ConfigError("Wigner grid needs a single-mode density matrix")
    q = np.asarray(q_grid, dtype=float)
    p = np.asarray(p_grid, dtype=float)
    if q.ndim != 1 or p.ndim != 1 or q.size < 2 or p.size < 2:
        raise ConfigError("q and p grids must be 1-d with at least two points")
    d = rho.dims[0]
    alpha = (q[:, None] + 1j * p[None, :]) / math.sqrt(2.0)
    z = 2.0 * alpha
    n_idx = np.arange(d)
    values = np.zeros(alpha.shape, dtype=complex)
    parity = (-1.0) ** n_idx
    for m in range(d):
        column = _displacement_column(n_idx, m, z)       # (d, Q, P)
        values += parity[m] * np.tensordot(rho.data[m, :], column, axes=(0, 0))
    grid = np.real(values) / math.pi
    mass = trapezoid(trapezoid(grid, p, axis=1), q)
    if abs(mass - 1.0) > 0.01:
        warnings.warn(
            f"Wigner grid mass {mass:.4f} deviates from 1; widen or refine the grid",
            RuntimeWarning, stacklevel=2)
    return WignerGrid(q=q, p=p, values=grid)
