"""Diagonal Gaussian measurement back-action on a collective spin.

A pulsed homodyne record Y acts on the Dicke amplitudes through the diagonal
operator

    M = pi^{-1/4} exp[ i eta m - (Y + chi_x m^2 + chi_p m)^2 / 2 ],

so each amplitude is damped by a Gaussian in the record centered at
-(chi_x m^2 + chi_p m) and phase-rotated by eta m.  The pi^{-1/4} prefactor
makes {M(Y)} a resolution of identity: ||M(Y) psi||^2 is an exact probability
density over Y (a mixture of variance-1/2 Gaussians weighted by P(m)).

Every state update goes through one kernel, :func:`posterior_batch`, which
conditions the level probabilities of a log-domain prior on a batch of
records and exponentiates only once, after shifting each record's row by its
combined maximum of log prior plus log weight.  Neither strong measurements
(chi_x ~ 10, hundreds of atoms), far-tail records nor prior amplitudes below
the float range can underflow the update.  The operator is diagonal, so
phases pass through the update unchanged; they are applied afterwards, by
:meth:`SpinEnsembleState.from_probabilities`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .spin_core import NORM_TOL, SpinEnsembleState, m_ladder

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
        _per_record(0.0, self.chi_x, self.chi_p)
        if not np.isfinite(np.asarray(self.eta, dtype=float)).all():
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


def _centers(setting: MeasurementSetting, m: np.ndarray) -> np.ndarray:
    """Gaussian centers -(chi_x m^2 + chi_p m) of the outcome per Dicke level."""
    return -(setting.chi_x * m * m + setting.chi_p * m)


def _per_record(outcomes, chi_x, chi_p):
    """Broadcast the record values and strengths to 1-d arrays; validate strengths."""
    arrays = [np.atleast_1d(np.asarray(v, dtype=float)) for v in (outcomes, chi_x, chi_p)]
    y, cx, cp = np.broadcast_arrays(*arrays)
    if y.ndim != 1 or y.size == 0:
        raise ValueError(f"records must be a scalar or a non-empty 1-d array, got shape {y.shape}")
    for name, val in (("chi_x", cx), ("chi_p", cp)):
        bad = ~(np.isfinite(val) & (val >= 0))
        if bad.any():
            raise ValueError(f"{name} must be finite and >= 0, got {val[bad][0]}")
    return y, cx, cp


def posterior_batch(log_prior, outcomes, chi_x=0.0, chi_p=0.0, reduce=None):
    """Condition one prior on many records at once, in the log domain.

    ``log_prior`` holds the real log|a_m| over the N+1 Dicke levels (-inf on
    unoccupied levels), e.g. from :func:`spinprep.spin_core.log_css_amplitudes`.
    The operator is diagonal, so the phases of the prior and the e^{i eta m}
    of the record pass through unchanged and never enter here; a phased state
    is conditioned by :func:`apply_measurement`.  Record r is taken at
    strengths ``chi_x[r]`` and ``chi_p[r]``; each of these and ``outcomes``
    may be a scalar shared by every record.

    Each record's row 2 log|a_m| - (Y_r + chi_x m^2 + chi_p m)^2 is shifted
    by its maximum, exponentiated once and normalized.  Rows are processed
    in chunks of about 2^16 matrix elements.  ``reduce(probs, rows)`` maps
    each chunk's records x levels post-measurement probabilities, rows
    ``rows`` of the batch, to one value (or array) per record; without it
    the probabilities themselves are returned.  Returns the stacked values
    and the log record densities log ||M(Y_r) psi||^2.

    Raises :class:`PosteriorError` if a record leaves no finite, nonzero mass
    or a post state misses unit norm by more than ``NORM_TOL``, and
    ``ValueError`` for invalid strengths or a complex prior.
    """
    log_prior = np.asarray(log_prior)
    if np.iscomplexobj(log_prior):
        raise ValueError(
            "log_prior must be the real log|a_m|; condition a phased state with apply_measurement"
        )
    if log_prior.ndim != 1 or log_prior.size < 2:
        raise ValueError(f"log_prior must hold N+1 >= 2 levels, got shape {log_prior.shape}")
    two_log_mag = 2.0 * log_prior
    if not (two_log_mag > -np.inf).any():
        raise PosteriorError("prior has empty support")
    y, cx, cp = _per_record(outcomes, chi_x, chi_p)
    m = m_ladder(log_prior.size - 1)
    m2 = m * m
    # strengths shared by every record (each sampled shot) give shared level offsets
    shared = np.ndim(chi_x) == 0 and np.ndim(chi_p) == 0
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
        values.append(probs if reduce is None else reduce(probs, rows))
        log_density.append(np.log(mass) + shift - 0.5 * _LOG_PI)
    if len(values) == 1:  # one chunk, e.g. a single record at large N: no copy
        return values[0], log_density[0]
    return np.concatenate(values), np.concatenate(log_density)


def apply_measurement(
    state: SpinEnsembleState, setting: MeasurementSetting, outcome: float
) -> tuple[SpinEnsembleState, float]:
    """Conditioned state after recording ``outcome``, plus its density.

    The one-record case of :func:`posterior_batch`, fed log|a_m| of the
    state; the post state keeps the prior's phases, rotated by eta m.  The
    returned density is ||M psi||^2 before renormalization, identical to
    :func:`outcome_pdf` at the same record.
    """
    amps = state.amplitudes
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.abs(amps))
    probs, log_density = posterior_batch(log_mag, outcome, setting.chi_x, setting.chi_p)
    phase = np.angle(amps) + setting.eta * m_ladder(state.atom_count)
    post = SpinEnsembleState.from_probabilities(state.atom_count, probs[0], phase)
    return post, float(np.exp(log_density[0]))


def outcome_pdf(state: SpinEnsembleState, setting: MeasurementSetting, outcome):
    """Exact probability density of the record Y for the given state.

    A mixture of variance-1/2 Gaussians: sum_m P(m) pi^{-1/2}
    exp[-(Y + chi_x m^2 + chi_p m)^2].  ``outcome`` may be a scalar or an
    array; the density integrates to 1 over Y for any normalized state.
    """
    p = np.abs(state.amplitudes) ** 2
    centers = _centers(setting, m_ladder(state.atom_count))
    y = np.asarray(outcome, dtype=float)
    diff = y[..., None] - centers
    dens = np.exp(-diff * diff) @ p / math.sqrt(math.pi)
    return float(dens) if y.ndim == 0 else dens


def sample_outcome(
    state: SpinEnsembleState, setting: MeasurementSetting, seed
) -> MeasurementRecord:
    """Draw one record, the one-shot case of :func:`sample_outcomes`.

    ``seed`` may be an integer (deterministic record), None (fresh entropy,
    recorded as ``seed=None``) or an existing numpy Generator (caller-owned
    stream, advanced by the draw).
    """
    seed_out = None if seed is None or isinstance(seed, np.random.Generator) else int(seed)
    outcome = float(sample_outcomes(state, setting, 1, seed)[0])
    return MeasurementRecord(
        outcome=outcome,
        probability_density=outcome_pdf(state, setting, outcome),
        setting=setting,
        seed=seed_out,
    )


def sample_outcomes(
    state: SpinEnsembleState, setting: MeasurementSetting, n_shots: int, seed
) -> np.ndarray:
    """Vectorized i.i.d. records: m with probability P(m), then Y ~ N(center_m, 1/2)."""
    if n_shots < 1:
        raise ValueError(f"n_shots must be >= 1, got {n_shots}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    p = np.abs(state.amplitudes) ** 2
    p = p / p.sum()
    centers = _centers(setting, m_ladder(state.atom_count))
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

    Level m contributes P(m) times the window mass of its variance-1/2
    Gaussian centered at c_m = -(chi_x m^2 + chi_p m).  By the Gaussian's
    symmetry that mass is (1/2)[erfc(d_m - h) - erfc(d_m + h)] with
    d_m = |target - c_m| and h the half-width: the erf-difference closed form
    written so that windows far in a tail keep full relative precision.  An
    infinite half-width gives exactly sum_m P(m).
    """
    if not half_width > 0:
        raise ValueError(f"half_width must be positive, got {half_width}")
    if not math.isfinite(target):
        raise ValueError(f"target must be finite, got {target}")
    p = np.abs(state.amplitudes) ** 2
    offset = np.abs(target - _centers(setting, m_ladder(state.atom_count)))
    return float(0.5 * (erfc(offset - half_width) - erfc(offset + half_width)) @ p)
