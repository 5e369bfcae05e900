"""Input-state samplers in the doubled phase space.

Every sampler returns paired amplitudes (alpha, alpha_tilde) whose ensemble
averages reproduce normally ordered moments of the target state,

    mean(alpha**p * conj(alpha_tilde)**q)  ->  <b_dag**q b**p>.

Coherent and thermal states use exact recipes with alpha == alpha_tilde.
Squeezed vacuum uses a four-Gaussian construction whose second moments are
sinh(r)**2 and -exp(2j*theta)*sinh(r)*cosh(r).  Cat states have no such
recipe; they are drawn exactly from the canonical distribution by rejection
from a two-Gaussian envelope (Drummond & Gardiner, J. Phys. A 13, 2353, 1980).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import ConfigError

STATE_KINDS = ("coherent", "thermal", "squeezed_vacuum", "cat")
SAMPLE_MAGIC = "#PPSAMPLES v1"
ROUND_DRAWS = 1 << 18  # envelope draws per cat rejection round; bounds memory only


@dataclass(frozen=True)
class StateSpec:
    """Parameters of one input state.

    kind selects which fields matter: beta for coherent/cat, nbar for thermal,
    (r, theta) for squeezed vacuum, cat_phase for the superposition phase of
    a cat.  Unused fields stay at their zero defaults.
    """

    kind: str
    beta: complex = 0j
    nbar: float = 0.0
    r: float = 0.0
    theta: float = 0.0
    cat_phase: float = 0.0

    def __post_init__(self):
        if self.kind not in STATE_KINDS:
            raise ConfigError(f"unknown state kind {self.kind!r}, expected one of {STATE_KINDS}")
        # normalize numpy scalars so serialized parameters round-trip as plain text
        object.__setattr__(self, "beta", complex(self.beta))
        for name in ("nbar", "r", "theta", "cat_phase"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.kind == "thermal" and self.nbar < 0:
            raise ConfigError(f"thermal occupation must be >= 0, got {self.nbar}")
        if self.kind == "squeezed_vacuum" and self.r < 0:
            raise ConfigError(f"squeezing magnitude must be >= 0, got {self.r}")
        for name in ("nbar", "r", "theta", "cat_phase"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if not (math.isfinite(self.beta.real) and math.isfinite(self.beta.imag)):
            raise ConfigError("beta must be finite")
        if self.kind == "cat" and _cat_weight(self.beta, self.cat_phase) <= 0.0:
            raise ConfigError(f"cat state |beta> + e^(i {self.cat_phase})|-beta> with "
                              f"beta = {self.beta} has zero norm")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["beta"] = [self.beta.real, self.beta.imag]
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "StateSpec":
        d = dict(data)
        beta = d.get("beta", 0j)
        if isinstance(beta, (list, tuple)):
            d["beta"] = complex(beta[0], beta[1])
        else:
            d["beta"] = complex(beta)
        try:
            return cls(**d)
        except TypeError as exc:
            raise ConfigError(f"malformed state dictionary: {exc}") from exc


def coherent_state(beta) -> StateSpec:
    return StateSpec(kind="coherent", beta=complex(beta))


def thermal_state(nbar: float) -> StateSpec:
    return StateSpec(kind="thermal", nbar=float(nbar))


def squeezed_state(r: float, theta: float = 0.0) -> StateSpec:
    return StateSpec(kind="squeezed_vacuum", r=float(r), theta=float(theta))


def cat_state(beta, cat_phase: float = 0.0) -> StateSpec:
    return StateSpec(kind="cat", beta=complex(beta), cat_phase=float(cat_phase))


@dataclass(frozen=True, eq=False)
class PhaseSampleSet:
    """A batch of doubled-phase-space samples for one input state."""

    alpha: np.ndarray        # (S,) complex
    alpha_tilde: np.ndarray  # (S,) complex
    state: StateSpec | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.alpha.shape != self.alpha_tilde.shape or self.alpha.ndim != 1:
            raise ConfigError("alpha and alpha_tilde must be 1-d arrays of equal length")

    def __len__(self) -> int:
        return self.alpha.shape[0]

    # -- sample files ------------------------------------------------------
    # Text header (magic line, JSON line with state/seed/count), then raw
    # little-endian float64 rows (Re a, Im a, Re at, Im at).

    def save(self, path):
        header = {
            "state": None if self.state is None else self.state.to_dict(),
            "seed": self.seed,
            "count": len(self),
        }
        with open(path, "wb") as fh:
            fh.write((SAMPLE_MAGIC + "\n").encode())
            fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
            cols = np.column_stack([
                self.alpha.real, self.alpha.imag,
                self.alpha_tilde.real, self.alpha_tilde.imag,
            ]).astype("<f8")
            fh.write(cols.tobytes())


def load_samples(path) -> PhaseSampleSet:
    with open(path, "rb") as fh:
        magic = fh.readline().decode(errors="replace").rstrip("\n")
        if magic != SAMPLE_MAGIC:
            raise ConfigError(f"{path}: not a sample file (bad magic {magic!r})")
        header = json.loads(fh.readline().decode())
        raw = np.frombuffer(fh.read(), dtype="<f8")
    count = int(header["count"])
    if raw.size != 4 * count:
        raise ConfigError(f"{path}: expected {4 * count} values, found {raw.size}")
    cols = raw.reshape(count, 4)
    state = None if header.get("state") is None else StateSpec.from_dict(header["state"])
    return PhaseSampleSet(
        alpha=cols[:, 0] + 1j * cols[:, 1],
        alpha_tilde=cols[:, 2] + 1j * cols[:, 3],
        state=state,
        seed=header.get("seed"),
    )


# ---------------------------------------------------------------------------
# samplers


def sample_coherent(beta, count: int) -> PhaseSampleSet:
    """Coherent state: a delta function at alpha = alpha_tilde = beta."""
    _check_count(count)
    beta = complex(beta)
    row = np.full(count, beta, dtype=complex)
    return PhaseSampleSet(alpha=row, alpha_tilde=row.copy(), state=coherent_state(beta))


def sample_thermal(nbar: float, count: int, seed=None) -> PhaseSampleSet:
    """Thermal state: alpha = alpha_tilde, complex Gaussian with <|alpha|^2> = nbar."""
    _check_count(count)
    if nbar < 0:
        raise ConfigError(f"thermal occupation must be >= 0, got {nbar}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    g = rng.standard_normal((2, count))
    row = math.sqrt(nbar / 2.0) * (g[0] + 1j * g[1])
    return PhaseSampleSet(alpha=row, alpha_tilde=row.copy(),
                          state=thermal_state(nbar), seed=seed)


def sample_squeezed_vacuum(r: float, theta: float, count: int, seed=None) -> PhaseSampleSet:
    """Squeezed vacuum from four standard normals q1..q4 per sample:

        delta = (q1 + i q2)/sqrt(2)
        nu    = sqrt(exp(-r) cosh r / 2) q3 + i sqrt(exp(r) cosh r / 2) q4
        alpha = e^{i theta} nu + delta,   alpha_tilde = e^{i theta} nu - delta

    which gives <alpha conj(alpha_tilde)> = sinh(r)^2 and
    <alpha alpha_tilde> = <alpha^2> = -e^{2 i theta} sinh(r) cosh(r).
    """
    _check_count(count)
    if r < 0:
        raise ConfigError(f"squeezing magnitude must be >= 0, got {r}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    q = rng.standard_normal((4, count))
    delta = (q[0] + 1j * q[1]) / math.sqrt(2.0)
    nu = (math.sqrt(math.exp(-r) * math.cosh(r) / 2.0) * q[2]
          + 1j * math.sqrt(math.exp(r) * math.cosh(r) / 2.0) * q[3])
    rot = np.exp(1j * theta)
    return PhaseSampleSet(alpha=rot * nu + delta, alpha_tilde=rot * nu - delta,
                          state=squeezed_state(r, theta), seed=seed)


def _cat_weight(beta, cat_phase: float) -> float:
    """(1 + e^{-2|beta|^2} cos phase): the cat's norm up to a factor 2, and the
    acceptance rate of its rejection sampler up to a factor 1/2."""
    return 1.0 + math.exp(-2.0 * abs(beta) ** 2) * math.cos(cat_phase)


def cat_norm_squared(beta, cat_phase: float) -> float:
    """Squared normalization of N(|beta> + e^{i phase}|-beta>)."""
    return 1.0 / (2.0 * _cat_weight(beta, cat_phase))


def cat_canonical_density(alpha, alpha_tilde, beta, cat_phase: float):
    """Canonical doubled-phase-space density of a cat state.

    P(alpha, alpha_tilde) = (N^2 / 4 pi^2) * exp(-(|alpha|^2 + |alpha_tilde|^2)/2)
                            * exp(-|beta|^2) * |e^{mu_bar beta} + e^{i phase} e^{-mu_bar beta}|^2

    with mu_bar = conj(alpha + alpha_tilde)/2.  Normalized to integrate to 1
    over the four real dimensions.  Accepts scalars or broadcastable arrays.
    """
    alpha = np.asarray(alpha, dtype=complex)
    alpha_tilde = np.asarray(alpha_tilde, dtype=complex)
    beta = complex(beta)
    mu_bar = np.conj(alpha + alpha_tilde) / 2.0
    x = mu_bar * beta
    # Factor exp(|Re x|) out of the bracket so neither exponential overflows.
    ax = np.abs(x.real)
    bracket = np.exp(x - ax) + np.exp(1j * cat_phase) * np.exp(-x - ax)
    log_gauss = -(np.abs(alpha) ** 2 + np.abs(alpha_tilde) ** 2) / 2.0 \
        - abs(beta) ** 2 + 2.0 * ax
    pref = cat_norm_squared(beta, cat_phase) / (4.0 * np.pi ** 2)
    return pref * np.exp(log_gauss) * np.abs(bracket) ** 2


def canonical_density_from_fock(rho, alpha, alpha_tilde):
    """Canonical density of an arbitrary single-mode state given in Fock basis.

    P = (1 / 4 pi^2) * exp(-|alpha - alpha_tilde|^2 / 4) * <mu| rho |mu>,
    mu = (alpha + alpha_tilde)/2.  `rho` may be a (d, d) array or any object
    with a `.data` attribute holding one.  Used to pin closed-form densities
    against an independent construction.
    """
    rho = np.asarray(getattr(rho, "data", rho), dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ConfigError(f"expected a square density matrix, got shape {rho.shape}")
    alpha = np.atleast_1d(np.asarray(alpha, dtype=complex))
    alpha_tilde = np.atleast_1d(np.asarray(alpha_tilde, dtype=complex))
    if alpha.shape != alpha_tilde.shape:
        raise ConfigError("alpha and alpha_tilde must have matching shapes")
    shape = alpha.shape
    mu = ((alpha + alpha_tilde) / 2.0).ravel()
    d = rho.shape[0]
    n = np.arange(d)
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, d)))]) if d > 1 else np.zeros(1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_mu = np.where(mu[:, None] == 0, -np.inf, np.log(np.abs(mu[:, None])))
        log_mag = n[None, :] * log_mu - 0.5 * log_fact[None, :]
        coeff = np.exp(log_mag - np.abs(mu[:, None]) ** 2 / 2.0) \
            * np.exp(1j * n[None, :] * np.angle(mu[:, None]))
    coeff[np.isnan(coeff)] = 0.0
    coeff[:, 0] = np.exp(-np.abs(mu) ** 2 / 2.0)  # n=0 term, also covers mu == 0
    expect = np.einsum("si,ij,sj->s", np.conj(coeff), rho, coeff)
    gauss = np.exp(-np.abs(alpha.ravel() - alpha_tilde.ravel()) ** 2 / 4.0)
    out = gauss * expect.real / (4.0 * np.pi ** 2)
    return out.reshape(shape)


def _cat_round(rng, beta: complex, cat_phase: float, draws: int):
    """One rejection round: `draws` envelope samples and the mask of those kept."""
    centre = np.where(rng.random(draws) < 0.5, beta, -beta)
    g = rng.standard_normal((4, draws))
    alpha = centre + (g[0] + 1j * g[1])
    alpha_tilde = centre + (g[2] + 1j * g[3])
    x = np.conj(alpha + alpha_tilde) * (beta / 2.0)
    # Scale both exponentials by exp(-|Re x|) so neither overflows.
    ax = np.abs(x.real)
    plus = np.exp(x - ax)
    minus = np.exp(-x - ax)
    accept = np.abs(plus + np.exp(1j * cat_phase) * minus) ** 2 \
        / (2.0 * (np.abs(plus) ** 2 + np.abs(minus) ** 2))
    return alpha, alpha_tilde, rng.random(draws) < accept


def sample_cat(beta, cat_phase: float, count: int, seed=None) -> PhaseSampleSet:
    """Draw cat-state samples exactly, by rejection from a Gaussian envelope.

    The canonical density (cat_canonical_density) is G |e^x + e^{i phase} e^{-x}|^2
    with x = conj(alpha + alpha_tilde) beta / 2.  Since |a + b|^2 <= 2(|a|^2 + |b|^2),
    it is bounded by a multiple of an equal mixture of two complex Gaussians
    centred at alpha = alpha_tilde = +beta and -beta, unit variance per real
    component.  A draw from the mixture is kept with probability

        |e^x + e^{i phase} e^{-x}|^2 / (2 (|e^x|^2 + |e^{-x}|^2)),

    so kept draws follow the density exactly; on average a fraction
    (1 + e^{-2|beta|^2} cos phase) / 2 is kept.  Draws come in rounds sized from
    that rate, at most ROUND_DRAWS each, all from one generator, so the samples
    depend only on (beta, cat_phase, count, seed).
    """
    _check_count(count)
    state = cat_state(beta, cat_phase)
    rate = _cat_weight(state.beta, cat_phase) / 2.0
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    alphas, alpha_tildes = [], []
    need = count
    while need > 0:
        draws = min(ROUND_DRAWS, math.ceil(1.1 * need / rate) + 16)
        alpha, alpha_tilde, keep = _cat_round(rng, state.beta, cat_phase, draws)
        kept = np.flatnonzero(keep)[:need]
        alphas.append(alpha[kept])
        alpha_tildes.append(alpha_tilde[kept])
        need -= kept.size
    return PhaseSampleSet(alpha=np.concatenate(alphas),
                          alpha_tilde=np.concatenate(alpha_tildes),
                          state=state, seed=seed)


def sample_state(state: StateSpec, count: int, seed=None) -> PhaseSampleSet:
    """Dispatch to the sampler for `state.kind`."""
    if state.kind == "coherent":
        out = sample_coherent(state.beta, count)
    elif state.kind == "thermal":
        out = sample_thermal(state.nbar, count, seed=seed)
    elif state.kind == "squeezed_vacuum":
        out = sample_squeezed_vacuum(state.r, state.theta, count, seed=seed)
    else:
        out = sample_cat(state.beta, state.cat_phase, count, seed=seed)
    return out


def vacuum_samples(count: int) -> PhaseSampleSet:
    """Vacuum source: all amplitudes exactly zero."""
    return sample_coherent(0j, count)


# ---------------------------------------------------------------------------
# moment estimation


def estimate_moment(samples: PhaseSampleSet, p: int, q: int):
    """Estimate <b_dag^q b^p> as mean(alpha^p conj(alpha_tilde)^q).

    Returns (mean, stderr); the standard error combines real and imaginary
    scatter in quadrature, estimated from up to 100 equal consecutive batches
    (trailing remainder samples contribute to the mean but not the error bar).
    Identical samples report stderr exactly 0.
    """
    if p < 0 or q < 0:
        raise ConfigError("moment orders must be >= 0")
    values = samples.alpha ** p * np.conj(samples.alpha_tilde) ** q
    return _batched_mean(values)


def mean_occupation(samples: PhaseSampleSet):
    """Estimate <b_dag b> = Re <alpha conj(alpha_tilde)>; returns (mean, stderr)."""
    values = np.real(samples.alpha * np.conj(samples.alpha_tilde))
    return _batched_mean(values)


def _batched_mean(values: np.ndarray):
    s = values.shape[0]
    if s == 0:
        raise ConfigError("cannot estimate a moment from zero samples")
    mean = values.mean()
    if s == 1:
        return mean, 0.0
    if np.ptp(values.real) == 0 and np.ptp(np.imag(values)) == 0:
        return mean, 0.0
    n_batches = min(100, s)
    size = s // n_batches
    trimmed = values[:n_batches * size].reshape(n_batches, size)
    batch_means = trimmed.mean(axis=1)
    scatter = np.abs(batch_means - batch_means.mean()) ** 2
    stderr = math.sqrt(scatter.sum() / (n_batches - 1) / n_batches)
    return mean, stderr


def _check_count(count: int):
    if count < 1:
        raise ConfigError(f"sample count must be >= 1, got {count}")
