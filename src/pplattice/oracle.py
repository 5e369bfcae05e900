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

Propagation applies the action of the exponential of a matrix-free
generator to the state by truncated Taylor stepping (Al-Mohy & Higham, SIAM
J. Sci. Comput. 33, 488, 2011, Algorithm 3.2); no D^2 x D^2 superoperator is
formed.  One plan per phase: a closed-form bound on the 1-norm of L itself
fixes the Taylor degree and substep count of every recording interval, and
each series stops once further terms fall below unit roundoff relative to
the propagated state.  Truncation is a backward error of unit roundoff on
the state being propagated, not a certified operator-norm bound on the map.
The generator is applied to Hermitian states only, in a form whose result
is exactly Hermitian.

Al-Mohy and Higham's shift L - mu I, mu = tr L / D^2, is left out.  It
lowers the 1-norm, but the populated, slow modes of a Lindbladian sit at
eigenvalues near 0 (the steady state is a null vector), and the shift
moves them to |mu|: each Taylor term on the propagated state then shrinks
more slowly, so the early-stopped series runs longer.  Unshifted, the
phases that the tests and the benchmark run take 17-47 % fewer generator
applications.  A short run far from equilibrium can take a few more: one
unit interval of a d = 16 driven Kerr mode from vacuum takes 99 against 92.

Approximate one-step integrators, fixed-step RK4 included, are unusable
here: the truncated loss cascade couples the (n, m) diagonals of rho
through a long Jordan-like chain, making the generator so non-normal that
any per-step deviation from the exact semigroup on the stiff directions is
amplified into sustained exponential error growth (measured rates of 2-3.5
per unit time at truncations of 30 levels, independent of step size; the
1e-6 trace budget is gone by t of about 15).  The exact semigroup is a
trace-norm contraction, so applying its action to roundoff accuracy keeps
errors from compounding, and the only systematic error left is the
Fock-space truncation itself.  Roundoff in the anti-Hermitian sector is
not contracted by the map; the Hermitian application adds none, and every
recorded state, and the state handed to the injection phase, is still
projected onto its Hermitian part.

SciPy's sparse module loads on first use inside the functions that need it,
so importing the package and running the phase-space paths never pays for
it; no SciPy module serves the Wigner grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import Schedule
from .errors import ConfigError, NumericsError, TruncationError
from .model import ReservoirSpec
from .observables import csv_text, trapezoid
from .sampler import StateSpec

TAIL_TOLERANCE = 1e-8       # allowed Fock mass beyond the truncation
HERMITIAN_TOLERANCE = 1e-10  # validate(): largest |rho - rho^dagger| entry
TRACE_TOLERANCE = 1e-8      # validate(): largest |tr rho - 1|
EIGENVALUE_FLOOR = -1e-8    # validate(): lowest eigenvalue accepted
TRACE_LIMIT = 1e-6          # trace drift that aborts a run
MAX_DIM = 4000              # largest composite Hilbert dimension the solver accepts
# theta_m: the largest h |A|_1 for which m Taylor terms of exp(h A) have a
# backward error of unit roundoff (Al-Mohy & Higham 2011, Table 3.1, double)
TAYLOR_THETA = {5: 2.4e-3, 10: 1.4e-1, 15: 6.4e-1, 20: 1.4, 25: 2.4, 30: 3.5,
                35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9}


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

    def validate(self) -> "FockDensityMatrix":
        herm = np.max(np.abs(self.data - self.data.conj().T))
        if herm > HERMITIAN_TOLERANCE:
            raise NumericsError(f"density matrix not Hermitian: deviation {herm:.3e}")
        tr = self.trace()
        if abs(tr - 1.0) > TRACE_TOLERANCE:
            raise NumericsError(f"density matrix trace {tr} deviates from 1")
        lowest = float(np.linalg.eigvalsh(self.data).min())
        if lowest < EIGENVALUE_FLOOR:
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


def build_state_fock(state: StateSpec, dim: int) -> FockDensityMatrix:
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
        if tail > TAIL_TOLERANCE:
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
    if tail > TAIL_TOLERANCE:
        raise TruncationError(
            f"{state.kind} state keeps mass {tail:.3e} beyond d={dim} "
            f"(tolerance {TAIL_TOLERANCE:g})")
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


def _embed(op: np.ndarray, dims: tuple[int, ...], position: int):
    from scipy import sparse
    mat = sparse.csr_matrix(np.eye(1, dtype=complex))
    for k, d in enumerate(dims):
        factor = sparse.csr_matrix(op) if k == position else sparse.identity(d, dtype=complex, format="csr")
        mat = sparse.kron(mat, factor, format="csr")
    return mat


def _generators(spec: ReservoirSpec, dims: tuple[int, ...], source_dim: int | None, f: int):
    """Sparse K and jump operators for the (optionally source-extended) space."""
    from scipy import sparse
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


def _one_norm_bound(k_op, jumps) -> float:
    """Upper bound on the 1-norm of L(rho) = K rho + rho K^dag + sum_j A_j rho A_j^dag.

    Column (k, l) of L, the image of |k><l|, sums to at most
    |K_kk + conj(K_ll)| + c_k + c_l + sum_j a_jk a_jl (triangle inequality),
    where c holds the off-diagonal column sums of |K| and a_j the column
    sums of |A_j|.  O(D^2) work; no D^2 x D^2 object is formed.
    """
    diag = k_op.diagonal()
    off = np.asarray(abs(k_op).sum(axis=0)).ravel() - np.abs(diag)
    a = np.array([np.asarray(abs(op).sum(axis=0)).ravel() for op in jumps])
    columns = np.abs(np.add.outer(diag, diag.conj())) + np.add.outer(off, off) + a.T @ a
    return float(columns.max())


class _LindbladOperator:
    """The generator L itself, unshifted (see the module docstring), on
    Hermitian rho.

    `hermitian` applies L(rho) = K rho + rho K^dag + sum_j A_j rho A_j^dag
    as Y + Y^dag, which is exactly Hermitian, with Y = K rho + (1/2) sum_j
    A_j (A_j rho)^dag: two sparse products, [K; A_1; ...; A_N] on rho and
    [A_1 ... A_N] on the daggered jump blocks, which go into a preallocated
    C-ordered buffer since scipy copies a non-contiguous dense operand.
    `norm` bounds the 1-norm of L.
    """

    def __init__(self, k_op, jumps):
        from scipy import sparse
        d = k_op.shape[0]
        self.d = d
        self.norm = _one_norm_bound(k_op, jumps)
        self.stacked = sparse.vstack([k_op] + jumps, format="csr")
        self.side = 0.5 * sparse.hstack(jumps, format="csr")
        self.jump_dag = np.empty((len(jumps), d, d), dtype=complex)

    def hermitian(self, rho: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write L(rho) into `out`, a D x D buffer that is not rho, and return it.

        Y^dag is written straight into `out` and Y added to it, so Y + Y^dag
        needs no temporary.
        """
        left = self.stacked @ rho                 # K rho, then A_j rho
        y, jumped = left[:self.d], left[self.d:].reshape(self.jump_dag.shape)
        np.conjugate(jumped.transpose(0, 2, 1), out=self.jump_dag)
        y += self.side @ self.jump_dag.reshape(-1, self.d)
        np.conjugate(y.T, out=out)
        out += y
        return out


def _phase_states(k_op, jumps, rho: np.ndarray, segment: float, count: int):
    """Yield the Hermitian part of the state after each of `count` intervals.

    The generator L and its closed-form 1-norm bound are built once per
    phase; the bound sets the Taylor degree m and the substep count s of
    every interval (Al-Mohy & Higham 2011, Algorithm 3.2), so that
    s >= segment |L|_1 / theta_m.  L is not shifted by tr L / D^2: the shift
    would move the slow modes near eigenvalue 0 that carry the state and
    lengthen every early-stopped series.  The terms alternate between two
    buffers that `hermitian` writes into.
    """
    if not count:
        return
    generator = _LindbladOperator(k_op, jumps)
    degree, substeps = min(((m, max(1, math.ceil(segment * generator.norm / theta)))
                            for m, theta in TAYLOR_THETA.items()), key=math.prod)
    h = segment / substeps
    rho = 0.5 * (rho + rho.conj().T)         # `hermitian` needs a Hermitian state
    terms = (np.empty_like(rho), np.empty_like(rho))
    for _ in range(count):
        for _ in range(substeps):
            total, term = rho.copy(), rho
            c1 = reach = np.abs(term).max()
            for j in range(1, degree + 1):
                term = generator.hermitian(term, terms[j % 2])
                term *= h / j
                c2 = np.abs(term).max()
                total += term
                # max |total| <= reach, the sum of the term maxima, up to
                # roundoff; with a factor 2 of slack the exact stop test can
                # pass only when this cheap one does, so it runs only then
                reach += c2
                if (c1 + c2 <= 2.0 ** -52 * reach
                        and c1 + c2 <= 2.0 ** -53 * np.abs(total).max()):
                    break
                c1 = c2
            rho = total
        rho = 0.5 * (rho + rho.conj().T)
        yield rho


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
        composite = len(state_dims) > n
        for j in range(n):
            occupation[rec, j] = expect_occupation(fock, int(composite) + j)
        if source_occ is not None:
            source_occ[rec] = expect_occupation(fock, 0) if composite else src_initial

    last = times.shape[0] - 1
    # without a source, f only scales vanished terms: one phase, same generators
    relax_end = schedule.injection_index if source0 is not None else last
    rho = rho0.data.astype(complex)
    state_dims = dims
    snapshot(0, rho, state_dims)
    k_op, jumps = _generators(spec, dims, None, f=0)
    for rec, rho in enumerate(_phase_states(k_op, jumps, rho, segment, relax_end), 1):
        snapshot(rec, rho, state_dims)
    if relax_end < last:
        rho = np.kron(source0.data, rho)
        state_dims = (source_dim,) + dims
        k_op, jumps = _generators(spec, dims, source_dim, f=1)
        for rec, rho in enumerate(
                _phase_states(k_op, jumps, rho, segment, last - relax_end), relax_end + 1):
            snapshot(rec, rho, state_dims)
    return MasterSeries(times=times, occupation=occupation,
                        source_occupation=source_occ, trace_error=trace_error,
                        final_state=FockDensityMatrix(data=rho, dims=state_dims))


# ---------------------------------------------------------------------------
# Wigner grid


@dataclass(frozen=True, eq=False)
class WignerGrid:
    """W(q, p) tabulated with values[i, j] = W(q[i], p[j])."""

    q: np.ndarray
    p: np.ndarray
    values: np.ndarray

    def to_csv(self) -> str:
        return csv_text(["q", "p", "wigner"],
                        [(qv, pv, self.values[i, j])
                         for i, qv in enumerate(self.q) for j, pv in enumerate(self.p)])


def _laguerre_series(coeffs: np.ndarray, ell: int, x: np.ndarray) -> np.ndarray:
    """sum_n coeffs[n] f_n(x) by Clenshaw's recurrence, for the normalized
    f_n = (-1)^n sqrt(n! ell! / (n + ell)!) L_n^(ell)(x): with r_n =
    sqrt((n + 1)(n + ell + 1)), f_0 = 1 and
    r_n f_{n+1} = (x - 2n - ell - 1) f_n - r_{n-1} f_{n-1}.
    """
    ahead = behind = 0.0
    for n in range(coeffs.shape[0] - 1, -1, -1):
        root = math.sqrt((n + 1) * (n + ell + 1))
        ahead, behind = (coeffs[n] + (x - (2 * n + ell + 1)) * (ahead / root)
                         - root / math.sqrt((n + 2) * (n + ell + 2)) * behind), ahead
    return ahead


def wigner_grid(rho: FockDensityMatrix, q_grid, p_grid) -> WignerGrid:
    """Wigner function from the displaced-parity series, in NumPy alone.

    Clenshaw's method (Johansson, Nation & Nori, Comput. Phys. Commun. 184,
    1234, 2013): with z = 2 alpha and x = |z|^2, `_laguerre_series` sums each
    diagonal l of rho (doubled for l > 0, rho being Hermitian), the diagonals
    combine by Horner's rule in z / sqrt(l + 1), and W = exp(-x/2)/pi Re(...).

    Convention hbar = 1, alpha = (q + ip)/sqrt(2); the vacuum gives
    W(q, p) = exp(-q^2 - p^2)/pi.  Refuses grids that are not finite and
    strictly increasing; warns when the grid fails to hold the state
    (trapezoidal mass off 1 by more than 1%).
    """
    if rho.n_modes != 1:
        raise ConfigError("Wigner grid needs a single-mode density matrix")
    q = np.asarray(q_grid, dtype=float)
    p = np.asarray(p_grid, dtype=float)
    if q.ndim != 1 or p.ndim != 1 or q.size < 2 or p.size < 2:
        raise ConfigError("q and p grids must be 1-d with at least two points")
    for name, axis in (("q", q), ("p", p)):
        if not (np.all(np.isfinite(axis)) and np.all(np.diff(axis) > 0)):
            raise ConfigError(f"{name} grid must be finite and strictly increasing")
    z = math.sqrt(2.0) * (q[:, None] + 1j * p[None, :])
    x = z.real ** 2 + z.imag ** 2
    values = np.zeros(z.shape, dtype=complex)
    for ell in range(rho.dims[0] - 1, -1, -1):
        diagonal = np.diagonal(rho.data, ell) * (2.0 if ell else 1.0)
        values = _laguerre_series(diagonal, ell, x) + values * (z / math.sqrt(ell + 1))
    grid = values.real * np.exp(-0.5 * x) / math.pi
    mass = trapezoid(trapezoid(grid, p, axis=1), q)
    if abs(mass - 1.0) > 0.01:
        warnings.warn(
            f"Wigner grid mass {mass:.4f} deviates from 1; widen or refine the grid",
            RuntimeWarning, stacklevel=2)
    return WignerGrid(q=q, p=p, values=grid)
