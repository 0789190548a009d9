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
    apply_measurement,
    compose,
    posterior_batch,
    sample_outcome,
)
from .pulse_optics import (
    LONG_EXPONENTIAL,
    CavityParams,
    FeasibilityReport,
    feasibility,
)
from .spin_core import (
    SpinEnsembleState,
    dicke_squeezing,
    log_css_amplitudes,
    make_css,
    observables,
    prob_distribution,
)

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

    def to_json(self) -> dict:
        return {
            "n_atoms": self.post_state.atom_count,
            "fidelity": self.fidelity_vs_target,
            "target_m_c": self.target_m_c,
            "separation": self.packet_separation,
            "width": self.packet_width,
            "outcome": self.outcome,
        }


@dataclass(frozen=True)
class DssResult:
    """Outcome of a phase-quadrature (squeezing) preparation."""

    post_state: SpinEnsembleState
    xi_d: float
    outcome: float
    n_rounds: int

    def to_json(self) -> dict:
        return {
            "n_atoms": self.post_state.atom_count,
            "xi_d": self.xi_d,
            "outcome": self.outcome,
            "n_rounds": self.n_rounds,
        }


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


def _snap_to_lattice(n_atoms: int, value):
    """Nearest non-negative lattice m to ``value``; ties round toward zero."""
    s = n_atoms / 2.0
    k_min = math.ceil(s - 1e-9)  # index of the smallest non-negative m
    k = np.clip(np.ceil(np.asarray(value) + s - 0.5), k_min, n_atoms)
    return k - s


def _packet_geometry(n_atoms: int, chi_x, outcome):
    """Target m_c, packet separation and packet width per amplitude-quadrature record.

    A non-negative record collapses to a single packet at m = 0: separation
    0, infinite width, and the smallest non-negative lattice point as m_c.
    """
    depth = np.maximum(-np.asarray(outcome, dtype=float), 0.0)
    center = np.sqrt(depth / chi_x)
    with np.errstate(divide="ignore"):
        width = 1.0 / (2.0 * np.sqrt(depth * chi_x))
    return _snap_to_lattice(n_atoms, center), 2.0 * center, width


def _target_fidelity(a_plus, a_minus, m_c, eta):
    """|<target|post>|^2 from the post amplitudes at m_c and -m_c.

    The target is (e^{i eta m_c} |m_c> + e^{-i eta m_c} |-m_c>) / sqrt(2), or
    |S, 0> when m_c = 0 (then ``a_plus`` and ``a_minus`` are the same level).
    """
    turn = np.exp(1j * eta * m_c)
    pair = (np.conj(turn) * a_plus + turn * a_minus) / math.sqrt(2.0)
    return np.abs(np.where(m_c == 0.0, a_plus, pair)) ** 2


def _condition_css(n_atoms: int, setting: MeasurementSetting, outcome: float) -> SpinEnsembleState:
    """The CSS conditioned on one record: the one-record case of the kernel."""
    amps, _ = posterior_batch(
        log_css_amplitudes(n_atoms), outcome, setting.chi_x, setting.chi_p, setting.eta
    )
    return SpinEnsembleState(n_atoms, amps[0])


def _require_positive(name: str, value) -> None:
    if not np.all(np.asarray(value) > 0):
        raise ValueError(f"{name} must be positive, got {value}")


def superposition_rows(n_atoms: int, chi_x, outcomes, eta=0.0):
    """Amplitude-quadrature preparation from the CSS for a batch of records.

    ``chi_x``, ``outcomes`` and ``eta`` broadcast to one value per record.
    Returns arrays (fidelity, target m_c, packet separation, packet width,
    log record density), each row equal to :func:`prepare_superposition`
    for that record, without materializing any post state.
    """
    _require_positive("chi_x", chi_x)
    per_record = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (chi_x, outcomes, eta))
    )
    m_c, separation, width = _packet_geometry(n_atoms, *per_record[:2])
    k_plus = np.rint(m_c + n_atoms / 2.0).astype(int)

    def fidelity_rows(post):
        k = k_plus[post.rows]
        a_plus, a_minus = post.amplitude_at(k), post.amplitude_at(n_atoms - k)
        return _target_fidelity(a_plus, a_minus, m_c[post.rows], post.eta)

    fid, log_density = posterior_batch(
        log_css_amplitudes(n_atoms), outcomes, chi_x=chi_x, eta=eta, reduce=fidelity_rows
    )
    return fid, m_c, separation, width, log_density


def dss_rows(n_atoms: int, chi_p, outcomes, eta=0.0):
    """Phase-quadrature preparation from the CSS for a batch of records.

    ``chi_p``, ``outcomes`` and ``eta`` broadcast to one value per record.
    Returns arrays (xi_D, log record density), each row equal to
    :func:`prepare_dss` for that record.
    """
    _require_positive("chi_p", chi_p)
    return posterior_batch(
        log_css_amplitudes(n_atoms), outcomes, chi_p=chi_p, eta=eta,
        reduce=lambda post: dicke_squeezing(post.probs),
    )


def repetitive_dss_rows(n_atoms: int, chi_p, n_rounds):
    """xi_D of the all-zero repetitive protocol for a batch of (chi_p, n) settings.

    n rounds that all record 0 equal one round at sqrt(n) chi_p recording 0,
    the exact composition identity of :func:`spinprep.measurement.compose`.
    """
    n_rounds = np.asarray(n_rounds)
    if np.any(n_rounds < 1):
        raise ValueError(f"n_rounds must be >= 1, got {n_rounds}")
    xi, _ = dss_rows(n_atoms, np.asarray(chi_p, dtype=float) * np.sqrt(n_rounds), 0.0)
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
    m_c, separation, width = (float(v) for v in _packet_geometry(n_atoms, chi_x, outcome))
    post = _condition_css(n_atoms, MeasurementSetting(chi_x=chi_x, eta=eta), outcome)
    k_plus = round(m_c + n_atoms / 2.0)
    amps = post.amplitudes
    return SuperpositionResult(
        post_state=post,
        fidelity_vs_target=float(_target_fidelity(amps[k_plus], amps[n_atoms - k_plus], m_c, eta)),
        target_m_c=m_c,
        packet_separation=separation,
        packet_width=width,
        outcome=outcome,
    )


def prepare_dss(
    n_atoms: int, chi_p: float, outcome: float, eta: float = 0.0
) -> DssResult:
    """Phase-quadrature measurement on the CSS; reports the squeezing xi_D.

    A record of 0 concentrates the state on |S, 0>; records outside
    [-chi_p S, chi_p S] are allowed but exponentially improbable and are
    flagged with a warning.
    """
    _require_positive("chi_p", chi_p)
    edge = chi_p * n_atoms / 2.0
    if abs(outcome) > edge:
        warnings.warn(
            f"record {outcome} lies outside the likely window [{-edge}, {edge}]",
            stacklevel=2,
        )
    post = _condition_css(n_atoms, MeasurementSetting(chi_p=chi_p, eta=eta), outcome)
    return DssResult(
        post_state=post, xi_d=observables(post).xi_d, outcome=outcome, n_rounds=1
    )


def dss_with_repeated_outcome(
    n_atoms: int, chi_p: float, n_rounds: int, outcome: float, eta: float = 0.0
) -> DssResult:
    """n identical phase-quadrature rounds, each returning the same record.

    Uses the exact composition identity: n rounds at (chi_p, outcome)
    equal one round at (sqrt(n) chi_p, sqrt(n) outcome).
    """
    if n_rounds < 1:
        raise ValueError(f"n_rounds must be >= 1, got {n_rounds}")
    setting = MeasurementSetting(chi_p=chi_p, eta=eta)
    eff_setting, eff_outcome, _ = compose([(setting, outcome)] * n_rounds)
    post = _condition_css(n_atoms, eff_setting, eff_outcome)
    return DssResult(
        post_state=post, xi_d=observables(post).xi_d, outcome=outcome, n_rounds=n_rounds
    )


def repetitive_dss(
    n_atoms: int,
    chi_p: float,
    n_rounds: int,
    outcome_policy: str = "all_zero",
    seed=None,
    eta: float = 0.0,
) -> DssResult:
    """Repeated phase-quadrature probing of the same ensemble.

    ``all_zero`` assumes every round records 0 and collapses the product of
    operators through the exact sqrt(n) composition identity.  ``sampled``
    draws each round's record from the current conditional state and applies
    the rounds sequentially, so the reported squeezing reflects honest
    conditional statistics; it requires a ``seed`` (or Generator).
    """
    _require_positive("chi_p", chi_p)
    if n_rounds < 1:
        raise ValueError(f"n_rounds must be >= 1, got {n_rounds}")
    if outcome_policy == "all_zero":
        return dss_with_repeated_outcome(n_atoms, chi_p, n_rounds, 0.0, eta)
    if outcome_policy == "sampled":
        if seed is None:
            raise ValueError("sampled outcome policy requires a seed")
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        setting = MeasurementSetting(chi_p=chi_p, eta=eta)
        state = make_css(n_atoms)
        outcome = 0.0
        for _ in range(n_rounds):
            record = sample_outcome(state, setting, rng)
            state, _ = apply_measurement(state, setting, record.outcome)
            outcome = record.outcome
        return DssResult(
            post_state=state,
            xi_d=observables(state).xi_d,
            outcome=outcome,
            n_rounds=n_rounds,
        )
    raise ValueError(
        f"unknown outcome policy {outcome_policy!r}; expected one of {OUTCOME_POLICIES}"
    )


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
    if n_t < 1:
        raise ValueError(f"n_t must be >= 1, got {n_t}")
    if n_rounds < 1:
        raise ValueError(f"n_rounds must be >= 1, got {n_rounds}")
    report = feasibility(cavity, kind=LONG_EXPONENTIAL, n_t=n_t)
    root_n = math.sqrt(n_rounds)
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


def positive_side_argmax(state: SpinEnsembleState) -> float:
    """The m > 0 value with the largest probability; helper for peak reports."""
    pairs = [(m, p) for m, p in prob_distribution(state) if m > 0]
    return max(pairs, key=lambda mp: mp[1])[0]
