"""Diagonal Gaussian measurement back-action on a collective spin.

A pulsed homodyne record Y acts on the Dicke amplitudes through the diagonal
operator

    M = pi^{-1/4} exp[ i eta m - (Y + chi_x m^2 + chi_p m)^2 / 2 ],

so each amplitude is damped by a Gaussian in the record centered at
-(chi_x m^2 + chi_p m) and phase-rotated by eta m.  The pi^{-1/4} prefactor
makes {M(Y)} a resolution of identity: ||M(Y) psi||^2 is an exact probability
density over Y (a mixture of variance-1/2 Gaussians weighted by P(m)).

Every state update and every record density goes through one kernel,
:func:`posterior_batch`, which conditions the level probabilities of a
log-domain prior on a batch of records and exponentiates only once, after
shifting each record's row by its combined maximum of log prior plus log
weight.  Neither strong measurements (chi_x ~ 10, hundreds of atoms),
far-tail records nor prior amplitudes below the float range can underflow
the update.  The operator is diagonal, so phases pass through the update
unchanged; they are applied afterwards, by
:meth:`SpinEnsembleState.from_probabilities`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .spin_core import (
    NORM_TOL,
    CssPrior,
    SpinEnsembleState,
    css_log_window,
    m_ladder,
    span_bounds,
    span_sums,
)

_LOG_PI = math.log(math.pi)
# records x band elements per kernel chunk: about 0.5 MB per float matrix,
# so peak memory is independent of the number of records
_CHUNK_ELEMENTS = 1 << 16
# the rows of _band_limits: its two residual signs, and the margins of its ends
_RESIDUAL_SIGNS = np.array([[-1.0], [1.0]])
_END_MARGINS = np.array([[-1.0], [2.0]])
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


def _centers(setting: MeasurementSetting, m: np.ndarray) -> np.ndarray:
    """Gaussian centers -(chi_x m^2 + chi_p m) of the outcome per Dicke level."""
    return -(setting.chi_x * m * m + setting.chi_p * m)


def _per_record(outcomes, chi_x, chi_p, ladders=1):
    """Record values and strengths as 1-d arrays; validate strengths.

    The strengths keep a single entry when they are shared by every record
    (a scalar or one-element input); otherwise they broadcast to one entry
    per record.  The records always do, also to ``ladders`` entries, the
    number of atom counts (1, or one per record).
    """
    y = np.array(outcomes, dtype=float, ndmin=1)
    cx = np.array(chi_x, dtype=float, ndmin=1)
    cp = np.array(chi_p, dtype=float, ndmin=1)
    if y.ndim != 1 or y.size == 0:
        raise ValueError(f"records must be a scalar or a non-empty 1-d array, got shape {y.shape}")
    strengths = np.concatenate((cx.ravel(), cp.ravel()))
    # the minimum is nan if any strength is, so this also rejects nan
    if not (strengths.min() >= 0.0 and strengths.max() < math.inf):
        for name, val in (("chi_x", cx), ("chi_p", cp)):
            bad = ~(np.isfinite(val) & (val >= 0))
            if bad.any():
                raise ValueError(f"{name} must be finite and >= 0, got {val[bad][0]}")
    if strengths.size != 2 or ladders != 1:  # some input holds one entry per record
        size = max(y.size, cx.size, cp.size, ladders)
        if any(v.ndim != 1 or v.size not in (1, size) for v in (cx, cp)) or not (
            y.size in (1, size) and ladders in (1, size)
        ):
            raise ValueError(
                "records, strengths and atom counts do not broadcast: "
                f"sizes {y.size}, {cx.size}, {cp.size} and {ladders}"
            )
        zeros = np.zeros(size)
        y = y + zeros
        if strengths.size != 2:
            cx, cp = cx + zeros, cp + zeros
    return y, cx, cp


def _level_windows(levels: np.ndarray, width: int) -> np.ndarray:
    """View whose row k is ``levels[k : k + width]`` of a contiguous 1-d array."""
    step = levels.strides[0]
    return np.ndarray((levels.size - width + 1, width), levels.dtype, levels, 0, (step, step))


def _band_limits(n_levels, top, y, cx, cp) -> np.ndarray:
    """Index of the lowest and the highest level each record's row can keep, as two rows.

    Level m survives the floor only if 2 log|a_m| - (Y + c_m)^2, with
    c_m = chi_x m^2 + chi_p m, lies within -_LOG_PROB_FLOOR of the row's
    peak.  Any occupied level j bounds that peak from below; with j the
    prior's largest level ``top``, a surviving level has |Y + c_m| <= R,

        R^2 = (Y + c_j)^2 - _LOG_PROB_FLOOR.

    For any chi_x, chi_p >= 0 that set lies between the roots of
    Y + c_m = R, and above the upper root of Y + c_m = -R where the hole
    Y + c_m < -R reaches below the lower one (chi_x = 0: the window of a
    linear residual).  The single interval that results is widened by a
    level on each side against rounding and cut to the ladder.  A
    non-finite record gives nan ends and a band over every level; the
    kernel's row checks see it, and a record whose row overflows, in any
    band.

    ``n_levels`` and ``top``, the prior's level count and largest level, are
    shared by every record or hold one entry per record.
    """
    s = 0.5 * (n_levels - 1)
    m = top - s
    reach = np.hypot((cx * m + cp) * m + y, math.sqrt(-_LOG_PROB_FLOOR))
    c = y + _RESIDUAL_SIGNS * reach  # Y + c_m = R, then Y + c_m = -R
    # roots q / cx <= c / q of cx m^2 + cp m + c = 0, q = -(cp/2 + sqrt(cp^2/4 - cx c)):
    # free of cancellation for cx, cp >= 0; q / cx is -inf at cx = 0
    half_cp = 0.5 * cp
    q = np.negative(half_cp + np.sqrt(half_cp * half_cp - cx * c))
    ends, upper = q / cx, c / q
    np.fmax(ends[0], upper[1], out=ends[0], where=ends[1] <= ends[0])
    ends[1] = upper[0]
    ends = np.floor(ends + (_END_MARGINS + s))
    return np.fmin(np.fmax(ends, 0.0), 2.0 * s).astype(np.intp)


def _ladders(atoms, n_records: int) -> tuple[list, list]:
    """The atom count of each ladder, a run of records with one count, and the runs' bounds.

    Records ``bounds[i]`` to ``bounds[i + 1] - 1`` form ladder i; ``atoms``
    is one atom count (one ladder) or an array of one per record.
    """
    if not isinstance(atoms, np.ndarray):
        return [atoms], [0, n_records]
    bounds = [0, *(np.flatnonzero(atoms[1:] != atoms[:-1]) + 1).tolist(), n_records]
    return atoms[bounds[:-1]].tolist(), bounds


def _ladder_groups(lo, hi, widest):
    """Consecutive ladders that share one level axis, as (first, stop, W, levels).

    Ladder i's bands start at levels ``lo[i]`` to ``hi[i]`` and are at most
    ``widest[i]`` wide.  A group adds ladders while its axis, each ladder's
    window running W levels past its highest band start, W the group's
    widest band, holds at most ``_CHUNK_ELEMENTS`` levels; a ladder wider
    than that forms a group alone.  ``levels`` is the size of the axis.
    """
    groups = []
    g0, width, spread = 0, widest[0], hi[0] - lo[0]
    for i in range(1, len(lo)):
        wider = max(width, widest[i])
        if spread + hi[i] - lo[i] + (i - g0 + 1) * wider > _CHUNK_ELEMENTS:
            groups.append((g0, i, width, spread + (i - g0) * width))
            g0, width, spread = i, widest[i], hi[i] - lo[i]
        else:
            width, spread = wider, spread + hi[i] - lo[i]
    groups.append((g0, len(lo), width, spread + (len(lo) - g0) * width))
    return groups


def _in_record_order(values, order):
    """``values`` of the records ``order``, rearranged into record order."""
    out = np.empty_like(values)
    out[order] = values
    return out


def level_rows(bands, first, n_levels: int) -> np.ndarray:
    """Band rows of :func:`posterior_batch` scattered into zeros over all ``n_levels`` levels."""
    rows, width = bands.shape
    # bands may run past the top level; those columns hold zeros and are cut off
    full = np.zeros((rows, n_levels + width))
    _level_windows(full.reshape(-1), width)[np.arange(0, full.size, full.shape[1]) + first] = bands
    return full[:, :n_levels]


def posterior_batch(log_prior, outcomes, chi_x=0.0, chi_p=0.0, reduce=None):
    """Condition one prior on many records at once, in the log domain.

    ``log_prior`` holds the real log|a_m| over the N+1 Dicke levels (-inf on
    unoccupied levels), e.g. of a state, or is a :class:`CssPrior`, the
    coherent spin state's log|a_m| computed on demand, for one atom count or
    for one per record.  The operator is diagonal, so the phases of the
    prior and the e^{i eta m} of the record pass through unchanged and never
    enter here; a phased state is conditioned by :func:`apply_measurement`.
    Record r is taken at strengths ``chi_x[r]`` and ``chi_p[r]``; each of
    these and ``outcomes`` may be a scalar shared by every record.

    A record selects a narrow packet of levels, so each record's row is
    evaluated only on its band: the ``count[r]`` consecutive levels from
    ``first[r]`` that hold every level within e^-700 of the row's peak (see
    :func:`_band_limits`, which needs only the prior's largest level: the
    array's argmax, or N // 2 for the CSS).  Every level outside it is one
    the floor would set to 0.  On the band, the row
    2 log|a_m| - (Y_r + chi_x m^2 + chi_p m)^2 is shifted by its maximum,
    exponentiated once (levels more than e^-700 below the peak set to 0) and
    normalized by its sum over the band, which depends on the record alone.

    The band limits come first, and the prior is read only on the window of
    levels its bands index.  A ladder is a run of consecutive records with
    one atom count (an array prior is one ladder).  Consecutive ladders form
    a group while their windows, each running from its lowest band start to
    W levels past its highest, W the group's widest band, fit in about 2^16
    levels; a larger ladder forms a group alone.  Each group lays its
    ladders' windows end to end on one level axis, read once: an array
    prior is sliced, and a :class:`CssPrior` is computed there by
    :func:`css_log_window`, so a batch of narrow bands costs O(window), not
    O(N), and no band reads a neighbour's levels.  A group's records are
    processed in chunks of about 2^16 elements, each chunk of records x W
    levels with W its own widest band: a group that fits in one chunk keeps
    record order, and a larger one is stable-sorted by band width, widest
    first, so that narrow bands are not padded to the widest.
    ``reduce(probs, rows, first, count)`` maps each chunk's records x W
    probabilities, records ``rows`` (an index array) of the batch, whose
    entry [r, i] is level ``first[r] + i`` of the record's ladder (zero
    from ``count[r]`` on), to one value (or array) per record; ``probs`` is
    reused by the next chunk, so ``reduce`` must not return a view of it.
    Without ``reduce`` the bands are scattered into zeros over the levels of
    the largest ladder (:func:`level_rows`) and the records x (N+1)
    probabilities are returned.  Returns the stacked values in record order
    (a batch of one chunk, such as a single record, returns what ``reduce``
    gave, as it is) and the log record densities log ||M(Y_r) psi||^2.

    Raises :class:`PosteriorError` if a record leaves no finite, nonzero mass
    (naming the batch's first such record) or a post state misses unit norm
    by more than ``NORM_TOL``, and ``ValueError`` for invalid strengths or a
    complex prior.
    """
    if isinstance(log_prior, CssPrior):
        atoms, top = log_prior.atom_count, log_prior.top
        read_window = css_log_window
    else:
        log_prior = np.asarray(log_prior)
        if np.iscomplexobj(log_prior):
            raise ValueError(
                "log_prior must be the real log|a_m|; "
                "condition a phased state with apply_measurement"
            )
        if log_prior.ndim != 1 or log_prior.size < 2:
            raise ValueError(f"log_prior must hold N+1 >= 2 levels, got shape {log_prior.shape}")
        atoms, top = log_prior.size - 1, int(log_prior.argmax())
        if log_prior[top] == -np.inf:
            raise PosteriorError("prior has empty support")
        read_window = lambda n_atoms, first, stop: log_prior[first:stop]  # noqa: E731
    n_counts = atoms.size if isinstance(atoms, np.ndarray) else 1  # 1, or one per record
    y, cx, cp = _per_record(outcomes, chi_x, chi_p, n_counts)
    ladder_n, bounds = _ladders(atoms, y.size)
    if reduce is None:
        n_levels = max(ladder_n) + 1
        reduce = lambda probs, rows, first, count: level_rows(probs, first, n_levels)  # noqa: E731
    # strengths shared by every record (each sampled shot) give shared level offsets
    shared = cx.size == 1
    values, log_density, value_rows = [], [], []
    # (first record, message) of each failing chunk; chunks do not run in
    # record order, so the batch's first failure is named once all have run
    failures = []

    def condition_group(g0, g1, width, levels):
        """Condition the records of ladders g0 ... g1 - 1, W = ``width``, on one level axis.

        A function of its own, so that the group's arrays are freed before
        the next group reads its window.
        """
        # each ladder's window runs W levels past its highest band start,
        # so that no band of the group reads the next ladder's levels
        two_log_mag = np.full(levels, -np.inf)
        m = np.empty(two_log_mag.size)
        base = 0
        for i in range(g0, g1):
            n_atoms, low, end = ladder_n[i], lo[i], hi[i] + width
            stop = min(end, n_atoms + 1)  # a band may run past the top level
            log_window = read_window(n_atoms, low, stop)
            np.add(log_window, log_window, out=two_log_mag[base : base + stop - low])
            m_ladder(n_atoms, low, end, out=m[base : base + end - low])
            rows = slice(bounds[i], bounds[i + 1])
            np.add(first[rows], base - low, out=band_start[rows])
            base += end - low
        if shared:
            offsets = cx[0] * (m * m) + cp[0] * m
        r0, r1 = bounds[g0], bounds[g1]
        order = np.arange(r0, r1)
        if order.size * width > _CHUNK_ELEMENTS:  # more than one chunk: widest band first
            order = r0 + np.argsort(-count[r0:r1], kind="stable")
        # one chunk buffer for the whole group: a fresh records x W matrix per
        # chunk can cost more in page faults than the arithmetic on it
        work = np.empty(min(order.size * width, max(_CHUNK_ELEMENTS, width)))
        start = 0
        while start < order.size:
            # the first chunk holds the group's widest band
            band_width = int(count[order[start]]) if start else width
            rows = order[start : start + max(1, _CHUNK_ELEMENTS // band_width)]
            start += rows.size
            bands = band_start[rows]
            log_p = work[: rows.size * band_width].reshape(-1, band_width)
            if shared:
                np.add(_level_windows(offsets, band_width)[bands], y[rows][:, None], log_p)
            else:
                band_m = _level_windows(m, band_width)[bands]
                np.multiply(band_m, band_m, log_p)
                log_p *= cx[rows][:, None]
                band_m *= cp[rows][:, None]
                log_p += band_m
                log_p += y[rows][:, None]
            # 2 log|a_m w_m| up to the row constant -(1/2) log pi, in place
            np.square(log_p, log_p)
            np.subtract(_level_windows(two_log_mag, band_width)[bands], log_p, log_p)
            shift = log_p.max(axis=1)
            log_p -= shift[:, None]
            lost = log_p < _LOG_PROB_FLOOR
            np.maximum(log_p, _LOG_PROB_FLOOR, out=log_p)
            probs = np.exp(log_p, log_p)
            probs[lost] = 0.0
            band_count = count[rows]
            mass = span_sums(probs, span_bounds(band_width, band_count))
            probs /= mass[:, None]
            chunk_density = np.log(mass) + (shift - 0.5 * _LOG_PI)
            # a record without finite, nonzero mass fails the norm check too
            norm_dev = float(np.abs(probs.sum(axis=1) - 1.0).max())
            if not norm_dev <= NORM_TOL:
                bad = rows[~np.isfinite(chunk_density)]
                if bad.size:
                    record = f"measurement update of record {y[bad.min()]} lost all amplitude mass"
                    failures.append((bad.min(), record))
                else:
                    failures.append((rows.min(), f"post state misses unit norm by {norm_dev}"))
                continue
            values.append(reduce(probs, rows, first[rows], band_count))
            log_density.append(chunk_density)
            value_rows.append(rows)

    # an overflowing residual or a non-finite record is caught by the density check
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        first, last = _band_limits(atoms + 1, top, y, cx, cp)
        count = last - first + 1
        starts = bounds[:-1]
        lo = np.minimum.reduceat(first, starts).tolist()
        hi = np.maximum.reduceat(first, starts).tolist()
        widest = np.maximum.reduceat(count, starts).tolist()
        band_start = np.empty_like(first)  # each band's row on its group's level axis
        for group in _ladder_groups(lo, hi, widest):
            condition_group(*group)
    if failures:
        raise PosteriorError(min(failures)[1])
    if len(values) == 1:  # one chunk, e.g. a single record at large N: no copy
        return values[0], log_density[0]
    order = np.concatenate(value_rows)
    return _in_record_order(np.concatenate(values), order), _in_record_order(
        np.concatenate(log_density), order
    )


def _log_magnitudes(state: SpinEnsembleState) -> np.ndarray:
    """log|a_m| of the state, the real prior :func:`posterior_batch` conditions.

    Unoccupied levels give -inf, which the kernel leaves at probability 0.
    """
    with np.errstate(divide="ignore"):
        return np.log(np.abs(state.amplitudes))


def _densities_only(probs, rows, first, count):
    """A ``reduce`` for :func:`posterior_batch` that keeps no post state.

    An empty row per record, in a fresh array per chunk, not a view of
    ``probs``, which the kernel reuses for the next chunk.
    """
    return np.empty((rows.size, 0))


def _condition_one(prior, setting: MeasurementSetting, outcome, figure=None):
    """One record's post state, ``figure`` of its band (or None) and log density.

    Every single-record update builds its post state here, on the record's
    band, 0 on every other level.  ``prior`` is a state, whose phases the
    post state keeps, or the real :class:`CssPrior` of one atom count; both
    are rotated by eta m.  ``figure`` is a kernel ``reduce``, such as a row
    function, so its value equals that record's row bit for bit.
    """
    css, n_atoms = isinstance(prior, CssPrior), prior.atom_count

    def post_and_figure(probs, rows, first, count):
        band = slice(first[0], first[0] + count[0])
        phase = setting.eta * m_ladder(n_atoms, band.start, band.stop)
        if not css:
            phase = np.angle(prior.amplitudes[band]) + phase
        post = SpinEnsembleState.from_probabilities(n_atoms, probs[0, : count[0]], phase, band.start)
        return post, None if figure is None else float(figure(probs, rows, first, count)[0])

    (post, value), log_density = posterior_batch(
        prior if css else _log_magnitudes(prior), outcome, setting.chi_x, setting.chi_p,
        post_and_figure,
    )
    return post, value, log_density[0]


def apply_measurement(
    state: SpinEnsembleState, setting: MeasurementSetting, outcome: float
) -> tuple[SpinEnsembleState, float]:
    """Conditioned state after recording ``outcome``, plus its density.

    The one-record case of :func:`posterior_batch`, fed log|a_m| of the
    state; the post state keeps the prior's phases, rotated by eta m.  The
    returned density is ||M psi||^2 before renormalization, the kernel's log
    density exponentiated: it equals :func:`outcome_pdf` at the same record
    bit for bit.
    """
    post, _, log_density = _condition_one(state, setting, outcome)
    return post, float(np.exp(log_density))


def outcome_pdf(state: SpinEnsembleState, setting: MeasurementSetting, outcome):
    """Exact probability density of the record Y for the given state.

    The density sum_m P(m) pi^{-1/2} exp[-(Y + chi_x m^2 + chi_p m)^2], a
    mixture of variance-1/2 Gaussians, is the log record density that
    :func:`posterior_batch` returns for log|a_m| of the state, exponentiated;
    records are processed in the kernel's chunks, so memory does not grow
    with their number.  A record's density is the same alone and inside a
    batch, and equals :func:`apply_measurement`'s.  ``outcome`` may be a
    scalar (a float is returned) or a non-empty array (its shape is kept);
    the density integrates to 1 over Y for any normalized state.  A
    non-finite record, or one whose squared residual overflows, raises
    :class:`PosteriorError`.
    """
    y = np.asarray(outcome, dtype=float)
    _, log_density = posterior_batch(
        _log_magnitudes(state), y.ravel(), setting.chi_x, setting.chi_p, _densities_only
    )
    density = np.exp(log_density)
    return float(density[0]) if y.ndim == 0 else density.reshape(y.shape)


def sample_outcome(
    state: SpinEnsembleState, setting: MeasurementSetting, seed
) -> tuple[float, float]:
    """Draw one record, the one-shot case of :func:`sample_outcomes`, plus its density.

    ``seed`` may be an integer (deterministic record), None (fresh entropy)
    or an existing numpy Generator (caller-owned stream, advanced by the
    draw).  Returns ``(outcome, density)``, as :func:`apply_measurement`
    returns ``(post, density)``; the density is :func:`outcome_pdf` at the
    drawn record.
    """
    outcome = float(sample_outcomes(state, setting, 1, seed)[0])
    return outcome, outcome_pdf(state, setting, outcome)


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
