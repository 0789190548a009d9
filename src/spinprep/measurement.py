"""Diagonal Gaussian measurement back-action on a collective spin.

A pulsed homodyne record Y acts on the Dicke amplitudes through the diagonal
operator

    M = pi^{-1/4} exp[ i eta m - (Y + chi_x m^2 + chi_p m)^2 / 2 ],

so each amplitude is damped by a Gaussian in the record centered at
-(chi_x m^2 + chi_p m) and phase-rotated by eta m.  The pi^{-1/4} prefactor
makes {M(Y)} a resolution of identity: ||M(Y) psi||^2 is an exact probability
density over Y (a mixture of variance-1/2 Gaussians weighted by P(m)).

Every state update goes through one kernel, :func:`posterior_batch`, which
conditions a log-domain prior on a batch of records and exponentiates only
once, after shifting each record's row by its combined maximum of log prior
plus log weight.  Neither strong measurements (chi_x ~ 10, hundreds of
atoms), far-tail records nor prior amplitudes below the float range can
underflow the update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from .spin_core import NORM_TOL, SpinEnsembleState

_LOG_PI = math.log(math.pi)
# records x levels elements per kernel chunk: about 0.5 MB per float matrix,
# so peak memory is independent of the number of records
_CHUNK_ELEMENTS = 1 << 16
# exp is several times slower on arguments whose result underflows; a level
# more than e^-700 below its row's largest probability is set to 0 instead
_LOG_PROB_FLOOR = -700.0


class PosteriorError(ArithmeticError):
    """A measurement update left no finite, normalizable amplitude mass."""


@dataclass(frozen=True)
class MeasurementSetting:
    """Strengths and accumulated phase of one homodyne measurement.

    ``chi_x`` couples to m^2 (amplitude quadrature), ``chi_p`` to m (phase
    quadrature); the two optimized protocols use one at a time, but mixed
    settings are legal.  ``eta`` is the deterministic phase per unit m.
    """

    chi_x: float = 0.0
    chi_p: float = 0.0
    eta: float = 0.0

    def __post_init__(self):
        for name in ("chi_x", "chi_p"):
            val = getattr(self, name)
            if not (np.isfinite(val) and val >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {val}")
        if not np.isfinite(self.eta):
            raise ValueError(f"eta must be finite, got {self.eta}")


@dataclass(frozen=True)
class MeasurementRecord:
    """One realized outcome with its exact probability density."""

    outcome: float
    probability_density: float
    setting: MeasurementSetting
    seed: int | None = None

    def __post_init__(self):
        if self.probability_density < 0:
            raise ValueError("probability density cannot be negative")

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "density": self.probability_density,
            "chi_x": self.setting.chi_x,
            "chi_p": self.setting.chi_p,
            "eta": self.setting.eta,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, data: dict) -> "MeasurementRecord":
        setting = MeasurementSetting(
            chi_x=data["chi_x"], chi_p=data["chi_p"], eta=data["eta"]
        )
        return cls(
            outcome=data["outcome"],
            probability_density=data["density"],
            setting=setting,
            seed=data.get("seed"),
        )


def _m_values(n_atoms: int) -> np.ndarray:
    return np.arange(n_atoms + 1) - n_atoms / 2.0


def _centers(setting: MeasurementSetting, m: np.ndarray) -> np.ndarray:
    """Gaussian centers -(chi_x m^2 + chi_p m) of the outcome per Dicke level."""
    return -(setting.chi_x * m * m + setting.chi_p * m)


def log_weights(setting: MeasurementSetting, outcome: float, n_atoms: int) -> np.ndarray:
    """Complex log of the diagonal operator entries, index k <-> m = k - S.

    log w_m = i eta m - (Y + chi_x m^2 + chi_p m)^2 / 2 - (1/4) log pi.
    Never exponentiated here, so arbitrarily strong damping stays exact.
    """
    m = _m_values(n_atoms)
    shift = outcome - _centers(setting, m)
    return 1j * setting.eta * m - 0.5 * shift * shift - 0.25 * _LOG_PI


@dataclass(frozen=True)
class Posterior:
    """Conditioned states of one chunk of records, rows ``rows`` of the batch.

    ``probs[r, k]`` is the post-measurement probability of level k for the
    chunk's r-th record; every row sums to 1.  The Gaussian damping is real,
    so the post amplitude is sqrt(probs) exp(i (prior_phase + eta_r m)).
    """

    rows: slice
    probs: np.ndarray
    eta: np.ndarray
    prior_phase: np.ndarray
    m: np.ndarray

    def amplitudes(self) -> np.ndarray:
        """Post-measurement amplitudes, records x levels."""
        phase = self.prior_phase + self.eta[:, None] * self.m
        return _polar(np.sqrt(self.probs), phase)

    def amplitude_at(self, k: np.ndarray) -> np.ndarray:
        """Post-measurement amplitude of the r-th record at level index ``k[r]``."""
        phase = self.prior_phase[k] + self.eta * self.m[k]
        return _polar(np.sqrt(self.probs[np.arange(k.size), k]), phase)


def _polar(magnitude: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """magnitude * exp(i phase), through cos and sin: several times faster than complex exp."""
    amps = np.empty(magnitude.shape, dtype=complex)
    np.multiply(magnitude, np.cos(phase), out=amps.real)
    np.multiply(magnitude, np.sin(phase), out=amps.imag)
    return amps


def _per_record(outcomes, chi_x, chi_p, eta):
    """Broadcast the record values and settings to 1-d arrays; validate settings."""
    arrays = [np.atleast_1d(np.asarray(v, dtype=float)) for v in (outcomes, chi_x, chi_p, eta)]
    y, cx, cp, phase = np.broadcast_arrays(*arrays)
    if y.ndim != 1 or y.size == 0:
        raise ValueError(f"records must be a scalar or a non-empty 1-d array, got shape {y.shape}")
    for name, val in (("chi_x", cx), ("chi_p", cp)):
        if not (np.isfinite(val) & (val >= 0)).all():
            raise ValueError(f"{name} must be finite and >= 0")
    if not np.isfinite(phase).all():
        raise ValueError("eta must be finite")
    return y, cx, cp, phase


def posterior_batch(log_prior, outcomes, chi_x=0.0, chi_p=0.0, eta=0.0, reduce=None):
    """Condition one prior on many records at once, in the log domain.

    ``log_prior`` holds log a_m over the N+1 Dicke levels (complex for a
    phased state, -inf on unoccupied levels), e.g. from
    :func:`spinprep.spin_core.log_css_amplitudes`.  Record r is taken at
    strengths ``chi_x[r]``, ``chi_p[r]`` and phase ``eta[r]``; each of these
    and ``outcomes`` may be a scalar shared by every record.

    Each record's row log|a_m| - (Y_r + chi_x m^2 + chi_p m)^2 / 2 is shifted
    by its maximum, exponentiated once and normalized.  Rows are processed
    in chunks of about 2^16 matrix elements.  ``reduce`` maps each chunk's
    :class:`Posterior` to one value (or array) per record, by default its
    full amplitudes.  Returns the stacked reduced values and the log record
    densities log ||M(Y_r) psi||^2.

    Raises :class:`PosteriorError` if a record leaves no finite, nonzero mass
    or a post state misses unit norm by more than ``NORM_TOL``, and
    ``ValueError`` for invalid settings.
    """
    log_prior = np.asarray(log_prior)
    if log_prior.ndim != 1 or log_prior.size < 2:
        raise ValueError(f"log_prior must hold N+1 >= 2 levels, got shape {log_prior.shape}")
    two_log_mag = 2.0 * log_prior.real
    if not (two_log_mag > -np.inf).any():
        raise PosteriorError("prior has empty support")
    prior_phase = log_prior.imag if np.iscomplexobj(log_prior) else np.zeros(log_prior.size)
    y, cx, cp, phase = _per_record(outcomes, chi_x, chi_p, eta)
    m = _m_values(log_prior.size - 1)
    m2 = m * m
    # strengths shared by every record (each sampled shot) give shared level offsets
    shared = np.ndim(chi_x) == 0 and np.ndim(chi_p) == 0
    reduce = reduce or Posterior.amplitudes
    values, log_density = [], []
    step = max(1, _CHUNK_ELEMENTS // m.size)
    for start in range(0, y.size, step):
        rows = slice(start, start + step)
        offsets = cx[0] * m2 + cp[0] * m if shared else cx[rows, None] * m2 + cp[rows, None] * m
        # an overflowing residual or a non-finite record is caught by the mass check
        with np.errstate(over="ignore", invalid="ignore"):
            # 2 log|a_m w_m| up to the row constant -(1/2) log pi, in place
            log_p = np.add(y[rows, None], offsets)
            np.square(log_p, out=log_p)
            np.subtract(two_log_mag, log_p, out=log_p)
            shift = log_p.max(axis=1)
            log_p -= shift[:, None]
            lost = log_p < _LOG_PROB_FLOOR
            np.maximum(log_p, _LOG_PROB_FLOOR, out=log_p)
            probs = np.exp(log_p, out=log_p)
            probs[lost] = 0.0
            mass = probs.sum(axis=1)
        bad = ~(np.isfinite(shift) & np.isfinite(mass) & (mass > 0.0))
        if np.any(bad):
            record = y[rows][np.argmax(bad)]
            raise PosteriorError(f"measurement update of record {record} lost all amplitude mass")
        probs /= mass[:, None]
        norm_dev = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
        if norm_dev > NORM_TOL:
            raise PosteriorError(f"post state misses unit norm by {norm_dev}")
        values.append(reduce(Posterior(rows, probs, phase[rows], prior_phase, m)))
        log_density.append(np.log(mass) + shift - 0.5 * _LOG_PI)
    if len(values) == 1:  # one chunk, e.g. a single record at large N: no copy
        return values[0], log_density[0]
    return np.concatenate(values), np.concatenate(log_density)


def apply_measurement(
    state: SpinEnsembleState, setting: MeasurementSetting, outcome: float
) -> tuple[SpinEnsembleState, float]:
    """Conditioned state after recording ``outcome``, plus its density.

    The one-record case of :func:`posterior_batch`, fed the log of the
    state's amplitudes; the returned density is ||M psi||^2 before
    renormalization, identical to :func:`outcome_pdf` at the same record.
    """
    with np.errstate(divide="ignore"):
        log_prior = np.log(state.amplitudes)
    amps, log_density = posterior_batch(
        log_prior, outcome, setting.chi_x, setting.chi_p, setting.eta
    )
    return SpinEnsembleState(state.atom_count, amps[0]), float(np.exp(log_density[0]))


def outcome_pdf(state: SpinEnsembleState, setting: MeasurementSetting, outcome):
    """Exact probability density of the record Y for the given state.

    A mixture of variance-1/2 Gaussians: sum_m P(m) pi^{-1/2}
    exp[-(Y + chi_x m^2 + chi_p m)^2].  ``outcome`` may be a scalar or an
    array; the density integrates to 1 over Y for any normalized state.
    """
    p = np.abs(state.amplitudes) ** 2
    centers = _centers(setting, _m_values(state.atom_count))
    y = np.asarray(outcome, dtype=float)
    diff = y[..., None] - centers
    dens = np.exp(-diff * diff) @ p / math.sqrt(math.pi)
    return float(dens) if y.ndim == 0 else dens


def sample_outcome(
    state: SpinEnsembleState, setting: MeasurementSetting, seed
) -> MeasurementRecord:
    """Draw one record: m with probability P(m), then Y ~ N(center_m, 1/2).

    ``seed`` may be an integer (deterministic record), None (fresh entropy,
    recorded as ``seed=None``) or an existing numpy Generator (caller-owned
    stream, advanced by the draw).
    """
    if isinstance(seed, np.random.Generator):
        rng, seed_out = seed, None
    else:
        rng = np.random.default_rng(seed)
        seed_out = None if seed is None else int(seed)
    p = np.abs(state.amplitudes) ** 2
    p = p / p.sum()
    centers = _centers(setting, _m_values(state.atom_count))
    idx = rng.choice(p.size, p=p)
    outcome = rng.normal(centers[idx], math.sqrt(0.5))
    return MeasurementRecord(
        outcome=float(outcome),
        probability_density=outcome_pdf(state, setting, float(outcome)),
        setting=setting,
        seed=seed_out,
    )


def sample_outcomes(
    state: SpinEnsembleState, setting: MeasurementSetting, n_shots: int, seed
) -> np.ndarray:
    """Vectorized i.i.d. records from the same pre-measurement state."""
    if n_shots < 1:
        raise ValueError(f"n_shots must be >= 1, got {n_shots}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    p = np.abs(state.amplitudes) ** 2
    p = p / p.sum()
    centers = _centers(setting, _m_values(state.atom_count))
    idx = rng.choice(p.size, size=n_shots, p=p)
    return rng.normal(centers[idx], math.sqrt(0.5))


def compose(settings_and_outcomes) -> tuple[MeasurementSetting, float, float]:
    """Collapse n equal-strength measurements into one effective operator.

    For records Y_1..Y_n taken at identical (chi_x, chi_p), completing the
    square per m gives the exact identity

        prod_j M(Y_j) = exp(C) * M_eff,

    with chi_eff = sqrt(n) chi, Y_eff = sum_j Y_j / sqrt(n),
    eta_eff = sum_j eta_j and the m-independent log constant
    C = -(n-1)/4 log pi - (sum Y_j^2 - (sum Y_j)^2 / n) / 2.

    Returns (effective setting, effective outcome, C).  Entries with unequal
    strengths are rejected; the collective sqrt(n) enhancement only holds
    for repeated identical probes.
    """
    pairs = list(settings_and_outcomes)
    if not pairs:
        raise ValueError("compose requires at least one measurement")
    first = pairs[0][0]
    for setting, _ in pairs[1:]:
        if setting.chi_x != first.chi_x or setting.chi_p != first.chi_p:
            raise ValueError(
                "compose supports equal strengths only; got mixed chi values"
            )
    n = len(pairs)
    outcomes = np.array([y for _, y in pairs], dtype=float)
    root_n = math.sqrt(n)
    eff = MeasurementSetting(
        chi_x=first.chi_x * root_n,
        chi_p=first.chi_p * root_n,
        eta=float(sum(s.eta for s, _ in pairs)),
    )
    total = float(outcomes.sum())
    eff_outcome = total / root_n
    log_const = -0.25 * (n - 1) * _LOG_PI - 0.5 * (
        float(np.sum(outcomes * outcomes)) - total * total / n
    )
    return eff, eff_outcome, log_const


def acceptance_probability(
    state: SpinEnsembleState,
    setting: MeasurementSetting,
    target: float,
    half_width: float,
) -> float:
    """Probability that the record falls within ``half_width`` of ``target``.

    Composite-Simpson quadrature of :func:`outcome_pdf` over the window; an
    infinite half-width integrates over the full support of the mixture and
    returns 1 up to quadrature error.
    """
    if not half_width > 0:
        raise ValueError(f"half_width must be positive, got {half_width}")
    centers = _centers(setting, _m_values(state.atom_count))
    if math.isinf(half_width):
        lo = float(centers.min()) - 15.0
        hi = float(centers.max()) + 15.0
    else:
        lo, hi = target - half_width, target + half_width
    n_points = max(2001, int(math.ceil((hi - lo) / 0.01)))
    if n_points % 2 == 0:
        n_points += 1
    grid = np.linspace(lo, hi, n_points)
    return float(simpson(outcome_pdf(state, setting, grid), x=grid))
