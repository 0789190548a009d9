"""End-to-end conditional state-preparation workflows.

Each protocol starts from the coherent spin state along x, applies one or
more Gaussian measurement updates for a stated homodyne record, and reports
the figures of merit: fidelity against the two-Dicke target for the
amplitude-quadrature protocol, the Dicke squeezing parameter for the
phase-quadrature protocol, and the combined pulse/repetition budget for the
long-pulse planning helper.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .measurement import (
    MeasurementSetting,
    _condition_one,
    _per_record,
    posterior_batch,
    sample_outcomes,
)
from .pulse_optics import LONG_EXPONENTIAL, CavityParams, FeasibilityReport, feasibility
from .spin_core import CssPrior, SpinEnsembleState, dicke_squeezing

OUTCOME_POLICIES = ("all_zero", "sampled")


@dataclass(frozen=True)
class SuperpositionResult:
    """Outcome of one amplitude-quadrature preparation.

    ``packet_separation`` and ``packet_width`` are the analytic estimates
    d = 2 sqrt(-Y/chi_x) and sigma = 1/(2 sqrt(-Y chi_x)) for a negative
    record Y; a non-negative record collapses to a single packet at m = 0
    (separation 0, width infinite).
    """

    post_state: SpinEnsembleState
    fidelity_vs_target: float
    target_m_c: float
    packet_separation: float
    packet_width: float
    outcome: float


@dataclass(frozen=True)
class DssResult:
    """Outcome of a phase-quadrature (squeezing) preparation."""

    post_state: SpinEnsembleState
    xi_d: float
    outcome: float
    n_rounds: int


@dataclass(frozen=True)
class LongPulsePlan:
    """Budget for combining a stretched probe pulse with repeated probing.

    ``chi_p_required`` is the per-round strength that reaches
    ``target_effective`` after sqrt(n) enhancement; the plan is achievable
    when that fits under the stretched-pulse strength bound and the
    intracavity photon budget holds.
    """

    feasibility: FeasibilityReport
    n_t: float
    n_rounds: int
    chi_p_bound: float
    chi_p_required: float
    chi_p_effective_at_bound: float
    target_effective: float
    achievable: bool


def _snap_to_lattice(n_atoms, value):
    """Nearest non-negative lattice m to ``value``; ties round toward zero."""
    s = n_atoms / 2.0
    k_min = np.ceil(s - 1e-9)  # index of the smallest non-negative m
    k = np.clip(np.ceil(np.asarray(value) + s - 0.5), k_min, n_atoms)
    return k - s


def _packet_geometry(n_atoms, chi_x, outcome):
    """Target m_c, packet separation and packet width per amplitude-quadrature record.

    A non-negative record collapses to a single packet at m = 0: separation
    0, infinite width, and the smallest non-negative lattice point as m_c.
    Each of the three has one entry per record, also where only the atom
    counts vary (adding zeros leaves every depth as it is).
    """
    depth = np.maximum(-np.asarray(outcome, dtype=float), 0.0) + np.zeros(np.shape(n_atoms))
    # depth 0 gives an infinite width, and an overflowing depth / chi_x or depth * chi_x
    # an infinite center or a zero width: each the right limit
    with np.errstate(divide="ignore", over="ignore"):
        center = np.sqrt(depth / chi_x)
        width = 1.0 / (2.0 * np.sqrt(depth * chi_x))
    return _snap_to_lattice(n_atoms, center), 2.0 * center, width


def _target_fidelity(p_plus, p_minus, m_c):
    """|<target|post>|^2 from the post probabilities at m_c and -m_c.

    The target is (e^{i eta m_c} |m_c> + e^{-i eta m_c} |-m_c>) / sqrt(2), or
    |S, 0> when m_c = 0 (then ``p_plus`` and ``p_minus`` are the same level).
    The post state of the real CSS carries the same phases, so eta cancels.
    Multiplying by 1/sqrt(2), as numpy divides a complex number by a real
    one, keeps the eta = 0 values of the amplitude form bit for bit.
    """
    root_plus = np.sqrt(p_plus)
    pair = (root_plus + np.sqrt(p_minus)) * (1.0 / math.sqrt(2.0))
    return np.where(m_c == 0, root_plus, pair) ** 2


def _root_rounds(n_rounds):
    """sqrt(n) for whole round counts n >= 1: n rounds act as one at sqrt(n) chi_p."""
    n = np.asarray(n_rounds, dtype=float)
    if not (np.isfinite(n) & (n >= 1) & (n == np.rint(n))).all():
        raise ValueError(f"n_rounds must be a whole number >= 1, got {n_rounds}")
    return float(np.sqrt(n)) if n.ndim == 0 else np.sqrt(n)


def _of_rows(n_atoms, rows):
    """The atom count of each of the records ``rows``, or the one shared by all."""
    return n_atoms[rows] if isinstance(n_atoms, np.ndarray) else n_atoms


def _xi_rows(n_atoms):
    """Kernel ``reduce``: xi_D of each record's band, normalized in place."""
    return lambda weights, mass, rows, first, count: dicke_squeezing(
        np.divide(weights, mass[:, None], out=weights), _of_rows(n_atoms, rows), first, count
    )


def _fidelity_rows(n_atoms, m_c):
    """Kernel ``reduce``: fidelity of each record's band against its target at ``m_c``.

    The target's two levels are read from the band; a level outside it is
    one the kernel's floor sets to 0.  Only a chunk's rows cast m_c to an
    index, so a failing record's m_c, nan for a nan record, is never cast.
    """

    def fidelity_rows(weights, mass, rows, first, count):
        atoms = _of_rows(n_atoms, rows)
        k = np.rint(m_c[rows] + atoms / 2.0).astype(int)
        column = np.array((k, atoms - k)) - first
        inside = (column >= 0) & (column < weights.shape[1])
        p_plus, p_minus = weights[np.arange(k.size), column * inside] / mass * inside
        return _target_fidelity(p_plus, p_minus, m_c[rows])

    return fidelity_rows


def _require_positive(name: str, value) -> None:
    """Reject a scalar or array ``value`` unless every entry is > 0; name the first that is not."""
    values = np.asarray(value)
    if not (values > 0).all():
        raise ValueError(f"{name} must be positive, got {values[~(values > 0)][0]}")


def superposition_rows(n_atoms, chi_x, outcomes):
    """Amplitude-quadrature preparation from the CSS for a batch of records.

    ``n_atoms``, ``chi_x`` and ``outcomes`` broadcast to one value per
    record; one atom count per record conditions each record on the CSS of
    its own N, all in one kernel call.  Returns arrays (fidelity, target
    m_c, packet separation, packet width, log record density), each row
    equal to :func:`prepare_superposition` for that record at any
    accumulated phase, without materializing any post state.
    """
    _require_positive("chi_x", chi_x)
    prior = CssPrior(n_atoms)
    # the kernel's size check, before the geometry broadcasts the same inputs
    y, cx, _ = _per_record(outcomes, chi_x, 0.0, np.size(prior.atom_count))
    m_c, separation, width = _packet_geometry(prior.atom_count, cx, y)
    fid, log_density = posterior_batch(
        prior, y, chi_x=cx, reduce=_fidelity_rows(prior.atom_count, m_c)
    )
    return fid, m_c, separation, width, log_density


def dss_rows(n_atoms, chi_p, outcomes):
    """Phase-quadrature preparation from the CSS for a batch of records.

    ``n_atoms``, ``chi_p`` and ``outcomes`` broadcast to one value per
    record; one atom count per record conditions each record on the CSS of
    its own N, all in one kernel call.  Returns arrays (xi_D, log record
    density), each row equal to :func:`prepare_dss` for that record at any
    accumulated phase.
    """
    _require_positive("chi_p", chi_p)
    prior = CssPrior(n_atoms)
    return posterior_batch(prior, outcomes, chi_p=chi_p, reduce=_xi_rows(prior.atom_count))


def repetitive_dss_rows(n_atoms, chi_p, n_rounds, outcomes=0.0):
    """xi_D after n phase-quadrature rounds that each record ``outcomes``.

    ``n_atoms``, ``chi_p``, ``n_rounds`` and ``outcomes`` broadcast to one
    value per row.
    n rounds that all record Y equal one round at sqrt(n) chi_p recording
    sqrt(n) Y; the default record 0 is the all-zero repetitive protocol.
    """
    root_n = _root_rounds(n_rounds)
    _require_positive("chi_p", chi_p)  # the value passed, before sqrt(n) scales it
    chi_p, outcomes = np.asarray(chi_p, dtype=float), np.asarray(outcomes, dtype=float)
    sizes = (np.size(n_atoms), chi_p.size, np.size(root_n), outcomes.size)
    if len(set(sizes) - {1}) > 1:
        raise ValueError(
            "atom counts, strengths, round counts and records do not broadcast: "
            f"sizes {sizes[0]}, {sizes[1]}, {sizes[2]} and {sizes[3]}"
        )
    xi, _ = dss_rows(n_atoms, chi_p * root_n, root_n * outcomes)
    return xi


def prepare_superposition(
    n_atoms: int, chi_x: float, outcome: float, eta: float = 0.0
) -> SuperpositionResult:
    """Amplitude-quadrature measurement on the CSS, scored against its target.

    The record ``outcome`` selects wave packets near m = +/- sqrt(-outcome /
    chi_x); the target is the two-Dicke superposition at the nearest lattice
    point, carrying the same accumulated phase.  A positive record is allowed
    but produces a single packet at m = 0 (flagged with a warning).
    """
    _require_positive("chi_x", chi_x)
    if outcome > 0:
        warnings.warn(
            "positive amplitude-quadrature record: state collapses to a single "
            "packet at m = 0",
            stacklevel=2,
        )
    m_c, separation, width = _packet_geometry(n_atoms, chi_x, np.atleast_1d(outcome))
    setting = MeasurementSetting(chi_x=chi_x, eta=eta)
    post, fidelity, _ = _condition_one(
        CssPrior(n_atoms), setting, outcome, _fidelity_rows(n_atoms, m_c)
    )
    return SuperpositionResult(
        post_state=post,
        fidelity_vs_target=fidelity,
        target_m_c=float(m_c[0]),
        packet_separation=float(separation[0]),
        packet_width=float(width[0]),
        outcome=outcome,
    )


def prepare_dss(
    n_atoms: int, chi_p: float, outcome: float, eta: float = 0.0
) -> DssResult:
    """Phase-quadrature measurement on the CSS; reports the squeezing xi_D.

    The one-round case of :func:`dss_with_repeated_outcome`.  A record of 0
    concentrates the state on |S, 0>; records outside
    [-chi_p S, chi_p S] are allowed but exponentially improbable and are
    flagged with a warning.
    """
    _require_positive("chi_p", chi_p)
    setting = MeasurementSetting(chi_p=chi_p, eta=eta)
    result = _dss_rounds(CssPrior(n_atoms), setting, 1, 1.0, outcome)
    edge = chi_p * n_atoms / 2.0
    if abs(outcome) > edge:
        warnings.warn(
            f"record {outcome} lies outside the likely window [{-edge}, {edge}]",
            stacklevel=2,
        )
    return result


def dss_with_repeated_outcome(
    n_atoms: int, chi_p: float, n_rounds: int, outcome: float, eta: float = 0.0
) -> DssResult:
    """n identical phase-quadrature rounds, each returning the same record.

    Uses the exact composition identity: n rounds at (chi_p, outcome, eta)
    equal one round at (sqrt(n) chi_p, sqrt(n) outcome, n eta).
    """
    _require_positive("chi_p", chi_p)
    root_n = _root_rounds(n_rounds)
    setting = MeasurementSetting(chi_p=root_n * chi_p, eta=n_rounds * eta)
    return _dss_rounds(CssPrior(n_atoms), setting, n_rounds, root_n, outcome)


def _dss_rounds(prior, setting, n_rounds, root_n, outcome) -> DssResult:
    """:func:`dss_with_repeated_outcome` for n rounds acting as one ``setting``, sqrt(n) chi_p and n eta.

    ``root_n`` is sqrt(n_rounds); each caller checks its inputs once, in its
    own order, and builds the setting once.
    """
    post, xi_d, _ = _condition_one(prior, setting, root_n * outcome, _xi_rows(prior.atom_count))
    return DssResult(post_state=post, xi_d=xi_d, outcome=outcome, n_rounds=int(n_rounds))


def repetitive_dss(
    n_atoms: int,
    chi_p: float,
    n_rounds: int,
    outcome_policy: str = "all_zero",
    seed=None,
    eta: float = 0.0,
) -> DssResult:
    """Repeated phase-quadrature probing of the same ensemble.

    Both policies pick a per-round record and condition the CSS once through
    the exact sqrt(n) composition identity (:func:`dss_with_repeated_outcome`).
    ``all_zero`` takes the record 0.  ``sampled`` requires a ``seed`` (or
    Generator): every round probes the same level m, so the post state
    depends on the records only through Y_eff = sum_j Y_j / sqrt(n), which is
    distributed as one record of the CSS at sqrt(n) chi_p.  That record is
    drawn, and ``outcome`` is the mean per-round record Y_eff / sqrt(n).
    """
    root_n = _root_rounds(n_rounds)
    _require_positive("chi_p", chi_p)  # the value passed, before sqrt(n) scales it
    if outcome_policy not in OUTCOME_POLICIES:
        raise ValueError(
            f"unknown outcome policy {outcome_policy!r}; expected one of {OUTCOME_POLICIES}"
        )
    sampled = outcome_policy == "sampled"
    if sampled and seed is None:
        raise ValueError("sampled outcome policy requires a seed")
    # one setting and one prior serve the draw (which reads no eta) and the update
    setting = MeasurementSetting(chi_p=root_n * chi_p, eta=n_rounds * eta)
    prior = CssPrior(n_atoms)
    outcome = float(sample_outcomes(prior, setting, 1, seed)[0]) / root_n if sampled else 0.0
    return _dss_rounds(prior, setting, n_rounds, root_n, outcome)


def long_pulse_plan(
    cavity: CavityParams,
    n_t: float,
    n_rounds: int,
    target_effective: float = 2.0,
) -> LongPulsePlan:
    """Combine pulse stretching and repetition to reach a target strength.

    Stretching the probe by n_t relaxes the per-round strength bound to
    g sqrt(20 n_t e) / kappa while lowering the instantaneous intracavity
    field; sqrt(n) repetition then multiplies the effective strength.  The
    plan reports whether ``target_effective`` (default 2, the near-ideal
    squeezing point) is reachable within both budgets.
    """
    root_n = _root_rounds(n_rounds)
    _require_positive("target_effective", target_effective)
    report = feasibility(cavity, kind=LONG_EXPONENTIAL, n_t=n_t)
    required = target_effective / root_n
    return LongPulsePlan(
        feasibility=report,
        n_t=float(n_t),
        n_rounds=int(n_rounds),
        chi_p_bound=report.chi_p_bound,
        chi_p_required=required,
        chi_p_effective_at_bound=root_n * report.chi_p_bound,
        target_effective=target_effective,
        achievable=bool(required < report.chi_p_bound and report.ok),
    )

