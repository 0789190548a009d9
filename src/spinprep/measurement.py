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

from .spin_core import (
    CssPrior,
    SpinEnsembleState,
    _check_atom_count,
    band_window,
    m_ladder,
    span_bounds,
    span_sums,
)

_LOG_PI = math.log(math.pi)
# records x band elements per kernel chunk: about 0.5 MB per float matrix,
# so no matrix grows with the number of records
_CHUNK_ELEMENTS = 1 << 16
# the margins of a band's ends against rounding: a level below, two above the floor
_END_MARGINS = np.array([[-1.0], [2.0]])
_END_SIGNS = np.array([[-1.0], [1.0]])
# exp is several times slower on arguments whose result underflows; a level
# more than e^-700 below its row's largest probability is set to 0 instead
_LOG_PROB_FLOOR = -700.0
# numpy runs a column pass x[:, None] over rows narrower than its default ufunc
# buffer ~3x slower than a flat pass, so a chunk of several rows this wide takes
# a buffer of its row width rounded up to 16s (narrower rows read slower with it)
_ROW_BUFFER_MIN, _NUMPY_BUFFER = 96, 8192


class PosteriorError(ArithmeticError):
    """A measurement update left no finite, normalizable amplitude mass."""


class _ArrayPrior:
    """A real log|a_m| on levels ``first`` ... of ``atom_count`` atoms, -inf where unoccupied.

    Without ``atom_count`` the array holds all N+1 levels, and is validated
    as :func:`posterior_batch`'s input; with it, it holds a state's band, and
    every level outside it is unoccupied.
    """

    def __init__(self, log_magnitudes, atom_count=None, first=0):
        log_mag = np.asarray(log_magnitudes)
        if atom_count is None:
            if np.iscomplexobj(log_mag):
                raise ValueError(
                    "log_prior must be the real log|a_m|; "
                    "condition a phased state with apply_measurement"
                )
            if log_mag.ndim != 1 or log_mag.size < 2:
                raise ValueError(f"log_prior must hold N+1 >= 2 levels, got shape {log_mag.shape}")
            atom_count = log_mag.size - 1
        self.atom_count, self._log_top = atom_count, log_mag.max()
        if self._log_top == -np.inf:
            raise PosteriorError("prior has empty support")
        self._log_mag, self._first = log_mag, first
        # the occupied levels, ascending
        self._support = first + np.flatnonzero(log_mag > -np.inf)

    def window(self, n_atoms: int, first: int, stop: int) -> np.ndarray:
        """Levels ``first`` ... ``stop - 1``, -inf outside the array; ``n_atoms`` is its ``atom_count``."""
        return band_window(self._log_mag, self._first, first, stop, -np.inf)

    def reference(self, points):
        """The occupied levels next to each of ``points``, and twice their log fall below the top.

        As :meth:`spinprep.spin_core.CssPrior.reference`: the nearest occupied
        level at or above each point and the nearest below it (either side
        falls back to the outermost occupied level), found by bisection of
        the occupied levels, and 2 (log|a_top| - log|a_k|), read from the
        array, with top the array's largest level.
        """
        support = self._support
        above = np.searchsorted(support, points)
        sides = np.minimum(np.maximum(np.array((above, above - 1)), 0), support.size - 1)
        levels = support[sides]
        return levels, 2.0 * (self._log_top - self._log_mag[levels - self._first])


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
        for name in ("chi_x", "chi_p", "eta"):
            value = getattr(self, name)
            if not isinstance(value, (float, int)) and np.ndim(value):
                raise ValueError(f"{name} must be one number, got {value!r}")
        # the kernel trusts a setting's strengths: this is their one check
        for name in ("chi_x", "chi_p"):
            _check_strength(name, float(getattr(self, name)))
        if not math.isfinite(float(self.eta)):
            raise ValueError(f"eta must be finite, got {self.eta}")


def _centers(setting: MeasurementSetting, m: np.ndarray) -> np.ndarray:
    """Gaussian centers -(chi_x m^2 + chi_p m) of the outcome per Dicke level."""
    return -(setting.chi_x * m * m + setting.chi_p * m)


def _check_strength(name: str, strength: float):
    """Raise unless ``strength`` is finite and >= 0: the strength rule, stated once."""
    if not 0.0 <= strength < math.inf:  # also false for nan
        raise ValueError(f"{name} must be finite and >= 0, got {strength}")


def _records(outcomes) -> np.ndarray:
    """Records as a non-empty 1-d float array."""
    y = np.array(outcomes, dtype=float, ndmin=1)
    if y.ndim != 1 or y.size == 0:
        raise ValueError(f"records must be a scalar or a non-empty 1-d array, got shape {y.shape}")
    return y


def _per_record(outcomes, chi_x, chi_p, ladders=1):
    """Record values and strengths as 1-d arrays; validate strengths.

    The strengths keep a single entry when they are shared by every record
    (a scalar or one-element input); otherwise they broadcast to one entry
    per record.  The records always do, also to ``ladders`` entries, the
    number of atom counts (1, or one per record).
    """
    y = _records(outcomes)
    cx = np.array(chi_x, dtype=float, ndmin=1)
    cp = np.array(chi_p, dtype=float, ndmin=1)
    strengths = np.concatenate((cx.ravel(), cp.ravel()))
    # the minimum is nan if any strength is, so this also rejects nan
    if not (strengths.min() >= 0.0 and strengths.max() < math.inf):
        for name, val in (("chi_x", cx), ("chi_p", cp)):
            for strength in val.ravel().tolist():  # the first bad one names the error
                _check_strength(name, strength)
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


def _band_limits(log_prior, y, cx, cp):
    """Each record's lowest and highest level its row keeps, and c_j and Y + c_j of its reference level j.

    Level m survives the floor only if 2 log|a_m| - (Y + c_m)^2, with
    c_m = chi_x m^2 + chi_p m, lies within -_LOG_PROB_FLOOR of the row's
    peak.  Any occupied level j bounds that peak from below, and no level
    lies above the prior's largest one, top; so with D_j at least
    2 (log|a_top| - log|a_j|), a surviving level has |Y + c_m| <= R,

        R^2 = (Y + c_j)^2 + D_j - _LOG_PROB_FLOOR.

    j is the record's reference level: of the occupied levels next to both
    roots of Y + c_m = 0, or next to the vertex -chi_p / (2 chi_x) of c_m
    where there is no root, the one of least |Y + c_m|; the prior gives
    these levels and their D through its ``reference``.  So R follows the
    record, however far it lies from top.

    Y + c_m is convex in m, with slope g = sqrt(chi_p^2 - 4 chi_x Y) at the
    upper root and -g at the lower one, so d levels outside either root it
    is g d + chi_x d^2.  So every level with |Y + c_m| <= R lies within
    d = 2R / (g + sqrt(g^2 + 4 chi_x R)) levels of the roots, where that
    sum reaches R, or between them; where there is no root, Y + c_m
    exceeds chi_x d^2 at d levels from the vertex, and the same d with
    g = 0, sqrt(R / chi_x), bounds it.  The band is that interval (for chi_x = 0, around the one
    root), widened by a level on each side against rounding and cut to the
    ladder; it holds j.  The roots
    q / chi_x <= Y / q, q = -(chi_p + g) / 2, are free of cancellation,
    and g of overflow.  A non-finite record gives nan ends, which the cut
    makes level 0; the kernel's row checks see it, and a record whose row
    overflows, in any band.  (At chi_x = chi_p = 0 every level has the same
    residual, and the band is the ladder.)  c_j is rounded as the kernel
    rounds c_m, so that the row is 0 at j exactly.
    """
    s = 0.5 * log_prior.atom_count
    half_cp = 0.5 * cp
    # g / 2, nan where there is no root; with v = sqrt(chi_x |Y|) it is hypot(chi_p / 2, v)
    # for Y <= 0 and sqrt(chi_p / 2 - v) sqrt(chi_p / 2 + v) above, free of overflow
    v = np.sqrt(cx) * np.sqrt(np.abs(y))
    half_slope = np.sqrt(half_cp - v) * np.sqrt(half_cp + v)
    np.copyto(half_slope, np.hypot(half_cp, v), where=y <= 0.0)
    q = -half_cp
    vertex = q / cx  # fmax and fmin take it where there is no root
    q = q - half_slope
    upper = np.fmax(y / q, vertex)
    centers = np.array((np.fmin(q / cx, vertex), upper))
    np.copyto(centers[0], upper, where=centers[0] == -np.inf)  # chi_x = 0: one root
    # on the level axis, cut to the ladder (nan to level 0)
    centers += s
    np.fmin(np.fmax(centers, 0.0, out=centers), s + s, out=centers)
    levels, drops = log_prior.reference(centers)  # the candidates for j
    m = levels - s
    offsets = cx * (m * m) + cp * m
    residuals = y + offsets
    pick = np.abs(residuals).reshape(-1, y.size).argmin(axis=0) * y.size + np.arange(y.size)
    c_ref, residual = offsets.ravel()[pick], residuals.ravel()[pick]
    reach = np.hypot(residual, np.sqrt(drops.ravel()[pick] - _LOG_PROB_FLOOR))
    # d = R / (g/2 + hypot(g/2, sqrt(chi_x R))), with g = 0 where there is no root
    half_slope = np.fmax(half_slope, 0.0)
    reach /= half_slope + np.hypot(half_slope, np.sqrt(cx * reach))
    ends = np.floor(centers + reach * _END_SIGNS)
    ends += _END_MARGINS
    first, last = np.fmin(np.fmax(ends, 0.0, out=ends), s + s, out=ends).astype(np.intp)
    return first, last, c_ref, residual


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


def level_rows(bands, first, n_levels: int) -> np.ndarray:
    """Band rows of :func:`posterior_batch` scattered into zeros over all ``n_levels`` levels."""
    rows, width = bands.shape
    # bands may run past the top level; those columns hold zeros and are cut off
    full = np.zeros((rows, n_levels + width))
    _level_windows(full.reshape(-1), width)[np.arange(0, full.size, full.shape[1]) + first] = bands
    return full[:, :n_levels]


def posterior_batch(log_prior, outcomes, chi_x=0.0, chi_p=0.0, reduce=None):
    """Condition one prior on many records at once, in the log domain.

    ``log_prior`` is read only through ``atom_count``, ``reference(points)``
    (the occupied levels next to points of the level axis, and how far each
    falls below the prior's largest level) and ``window(n_atoms, first,
    stop)`` (log|a_m| on those levels), e.g. a :class:`CssPrior` of one atom
    count or one per record; a real log|a_m| over N+1 levels (-inf where
    unoccupied) is validated into the private array prior.  The operator is
    diagonal, so the phases of the prior and the e^{i eta m} of the record
    pass through unchanged and never enter here; a phased state is
    conditioned by :func:`apply_measurement`.  Record r is taken at
    strengths ``chi_x[r]`` and ``chi_p[r]``; each of these and ``outcomes``
    may be a scalar shared by every record.

    A record selects a narrow packet of levels, so each record's row is
    evaluated only on its band: the ``count[r]`` consecutive levels from
    ``first[r]`` that hold every level within e^-700 of the row's peak,
    bounded from the record's reference level j (see :func:`_band_limits`).
    On the band, the row 2 log|a_m| - (Y_r + c_m)^2, c_m = chi_x m^2 +
    chi_p m, is formed relative to j, as 2 log|a_m| - (c_m - c_j)(c_m + c_j
    + 2 Y_r), so that the row's constant -(Y_r + c_j)^2, about 10^6 for a
    record 10^3 from every center, joins its shift instead of rounding the
    levels' differences.  The row is shifted by its maximum, exponentiated
    once (levels more than e^-700 below the peak set to 0) and summed over
    the band, a mass that depends on the record alone.

    The band limits come first, and the prior is read only on the window of
    levels its bands index.  A ladder is a run of consecutive records with
    one atom count (an array prior is one ladder).  Consecutive ladders form
    a group while their windows, each running from its lowest band start to
    W levels past its highest, W the group's widest band, fit in about 2^16
    levels; a larger ladder forms a group alone.  Each group lays its
    ladders' windows end to end on one level axis, each read once through
    ``window``, so a batch of narrow bands on a :class:`CssPrior` costs
    O(window), not O(N), and no band reads a neighbour's levels.  A group's
    records are taken in chunks of about 2^16 elements, each chunk of
    records x W levels with W its own widest band and its rows in record
    order; a group of several chunks is taken widest band first, so that
    narrow bands are not padded to the widest.
    ``reduce(weights, mass, rows, first, count)`` maps each chunk to one
    value (or array) per record.  ``weights`` holds the unnormalized band
    weights of records ``rows`` (ascending) of the batch, records x W, entry
    [r, i] level ``first[r] + i`` of the record's ladder (zero from
    ``count[r]`` on), and ``mass[r]`` (finite, > 0) is row r's sum over its
    band.  The kernel divides nothing: a ``reduce`` divides the entries it
    reads by their row's mass, so each probability keeps its bits.
    ``weights`` is reused by the next chunk: ``reduce`` may overwrite it but
    must not return a view of it.
    Without ``reduce`` the normalized bands are scattered into zeros over the
    levels of the largest ladder (:func:`level_rows`) and the records x
    (N+1) probabilities are returned.  Each chunk's values are written at its
    records' rows, and the values are returned in record order (a batch of
    one chunk, such as a single record, returns what ``reduce`` gave, as it
    is) with the log record densities log ||M(Y_r) psi||^2.

    Raises :class:`PosteriorError` if a record leaves no finite, nonzero mass
    or no finite density (naming the batch's first such record), and
    ``ValueError`` for invalid strengths or a complex prior.
    """
    if not hasattr(log_prior, "window"):  # an array of log|a_m|
        log_prior = _ArrayPrior(log_prior)
    atoms = log_prior.atom_count
    y, cx, cp = _per_record(outcomes, chi_x, chi_p, np.size(atoms))
    if reduce is None:
        n_levels = int(np.max(atoms)) + 1
        def reduce(weights, mass, rows, first, count):
            return level_rows(np.divide(weights, mass[:, None], out=weights), first, n_levels)
    return _condition(log_prior, y, cx, cp, reduce)


def _condition(log_prior, y, cx, cp, reduce):
    """:func:`posterior_batch` on 1-d records and strengths that are already checked."""
    atoms = log_prior.atom_count
    ladder_n, bounds = _ladders(atoms, y.size)
    # strengths shared by every record (each sampled shot) give shared level offsets
    shared = cx.size == 1
    values, log_density = None, np.empty(y.size)
    # (first record, message) of each failing chunk; chunks do not run in
    # record order, so the batch's first failure is named once all have run
    failures = []

    def condition_group(g0, g1, width, levels):
        """Condition the records of ladders g0 ... g1 - 1, W = ``width``, on one level axis.

        A function of its own, so that the group's arrays are freed before
        the next group reads its window.
        """
        nonlocal values
        # each ladder's window runs W levels past its highest band start,
        # so that no band of the group reads the next ladder's levels
        two_log_mag = np.empty(levels)
        m = np.empty(levels)
        base = 0
        for i in range(g0, g1):
            n_atoms, low, end = ladder_n[i], lo[i], hi[i] + width
            stop = min(end, n_atoms + 1)  # a band may run past the top level
            log_window = log_prior.window(n_atoms, low, stop)
            np.add(log_window, log_window, out=two_log_mag[base : base + stop - low])
            if stop < end:
                two_log_mag[base + stop - low : base + end - low] = -np.inf
            m_ladder(n_atoms, low, end, out=m[base : base + end - low])
            rows = slice(bounds[i], bounds[i + 1])
            np.add(first[rows], base - low, out=band_start[rows])
            base += end - low
        if shared:
            offsets = cx[0] * (m * m) + cp[0] * m
        r0, r1 = bounds[g0], bounds[g1]
        # one chunk buffer for the whole group: a fresh records x W matrix per
        # chunk can cost more in page faults than the arithmetic on it
        work = np.empty(min((r1 - r0) * width, max(_CHUNK_ELEMENTS, width)))
        for rows, at, band_width in _chunks(count, r0, r1, width):
            if rows.size > 1:  # the errstate block's exit restores the caller's buffer
                flat = _ROW_BUFFER_MIN <= band_width < _NUMPY_BUFFER
                np.setbufsize(-(-band_width // 16) * 16 if flat else _NUMPY_BUFFER)
            bands = band_start[at]
            log_p = work[: rows.size * band_width].reshape(-1, band_width)
            c_j = c_ref[at]
            if shared:
                scratch = _level_windows(offsets, band_width)[bands]  # a copy, reused below
                np.subtract(scratch, c_j[:, None], log_p)
            else:
                scratch = _level_windows(m, band_width)[bands]
                np.multiply(scratch, scratch, log_p)
                log_p *= cx[at][:, None]
                scratch *= cp[at][:, None]
                log_p += scratch
                log_p -= c_j[:, None]
            # (Y + c_m)^2 = (Y + c_j)^2 + (c_m - c_j)(c_m - c_j + 2 (Y + c_j)), j the
            # reference level: the first term, shared by the row, goes to its shift
            residual = r_ref[at]
            np.add(log_p, (residual + residual)[:, None], scratch)  # c_m + c_j + 2Y
            log_p *= scratch
            del scratch  # freed before the next copy: two at once cost page faults
            # 2 log|a_m w_m| up to the row constant -(Y + c_j)^2 - (1/2) log pi, in place
            np.subtract(_level_windows(two_log_mag, band_width)[bands], log_p, log_p)
            shift = np.maximum.reduce(log_p, axis=1)
            log_p -= shift[:, None]
            lost = log_p < _LOG_PROB_FLOOR
            np.copyto(log_p, _LOG_PROB_FLOOR, where=lost)  # a masked copy: 2x a maximum's speed
            weights = np.exp(log_p, log_p)
            np.copyto(weights, 0.0, where=lost)
            band_count = count[at]
            mass = span_sums(weights, span_bounds(band_width, band_count))
            # log(mass) is not finite where the mass is 0, inf or nan; a row
            # constant that overflows leaves a finite mass but no density
            chunk_density = np.log(mass) + (shift - residual * residual - 0.5 * _LOG_PI)
            bad = rows[~np.isfinite(chunk_density)]
            if bad.size:
                record = f"measurement update of record {y[bad[0]]} lost all amplitude mass"
                failures.append((bad[0], record))
                continue
            chunk_values = reduce(weights, mass, rows, first[at], band_count)
            log_density[at] = chunk_density
            if rows.size == y.size:  # one chunk, e.g. a single record at large N: no copy
                values = chunk_values
                continue
            if values is None:
                values = np.empty((y.size, *chunk_values.shape[1:]), chunk_values.dtype)
            values[at] = chunk_values

    # an overflowing residual or a non-finite record is caught by the density check
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        first, last, c_ref, r_ref = _band_limits(log_prior, y, cx, cp)
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
    return values, log_density


def _chunks(count, r0, r1, width):
    """Records r0 ... r1 - 1 of bands ``count`` wide, at most ``width``, as (rows, at, W) chunks.

    Each chunk holds about ``_CHUNK_ELEMENTS`` elements, W its widest band,
    and its rows in record order; ``at`` indexes them, as a slice where they
    are consecutive, so that their per-record entries are read as views.
    Records that fit one chunk form it as they are; more are taken widest
    band first, so that narrow bands are not padded to the widest.
    """
    if r1 - r0 <= max(1, _CHUNK_ELEMENTS // width):
        yield np.arange(r0, r1), slice(r0, r1), width
        return
    order = r0 + np.argsort(-count[r0:r1], kind="stable")
    start = 0
    while start < order.size:
        band_width = int(count[order[start]])
        rows = np.sort(order[start : start + max(1, _CHUNK_ELEMENTS // band_width)])
        start += rows.size
        yield rows, rows, band_width


def _state_prior(state: SpinEnsembleState) -> _ArrayPrior:
    """log|a_m| of the state's band as the real prior :func:`posterior_batch` conditions.

    Unoccupied levels, inside the band or outside it, give -inf, which the
    kernel leaves at probability 0.
    """
    with np.errstate(divide="ignore"):
        return _ArrayPrior(np.log(np.abs(state.band)), state.atom_count, state.first)


def _densities_only(weights, mass, rows, first, count):
    """A ``reduce`` for :func:`posterior_batch` that keeps no post state and divides nothing.

    An empty row per record, a fresh array, not a view of the reused ``weights``.
    """
    return np.empty((rows.size, 0))


def _condition_one(prior, setting: MeasurementSetting, outcome, figure=None):
    """One record's post state, ``figure`` of its band (or None) and log density.

    Every single-record update builds its post state here, on the record's
    band, 0 on every other level.  ``prior`` is a state, whose phases the
    post state keeps, or the real :class:`CssPrior` of one atom count; both
    are rotated by eta m.  ``figure`` is a kernel ``reduce``, such as a row
    function, so its value equals that record's row bit for bit.  The
    setting's strengths were checked when it was built, so the kernel takes
    them as they are.
    """
    css, n_atoms = isinstance(prior, CssPrior), prior.atom_count

    def post_and_figure(weights, mass, rows, first, count):
        band = slice(first[0], first[0] + count[0])
        phase = setting.eta * m_ladder(n_atoms, band.start, band.stop)
        if not css:
            phase = np.angle(prior._levels(band.start, band.stop)) + phase
        probs = weights[0, : count[0]] / mass[0]
        post = SpinEnsembleState.from_probabilities(n_atoms, probs, phase, band.start)
        if figure is None:
            return post, None
        return post, float(figure(weights, mass, rows, first, count)[0])

    (post, value), log_density = _condition(
        prior if css else _state_prior(prior), _records(outcome),
        np.array((setting.chi_x,), dtype=float), np.array((setting.chi_p,), dtype=float),
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
    records are taken in the kernel's chunks, so no records x levels matrix
    is built (the band limits keep about 0.3 kB per record).  A record's
    density is the same alone and inside a batch, and equals
    :func:`apply_measurement`'s.  ``outcome`` may be a scalar (a float is
    returned) or a non-empty array (its shape is kept); the density
    integrates to 1 over Y for any normalized state.  A non-finite record,
    or one whose squared residual overflows, raises :class:`PosteriorError`.
    """
    y = np.asarray(outcome, dtype=float)
    _, log_density = posterior_batch(
        _state_prior(state), y.ravel(), setting.chi_x, setting.chi_p, _densities_only
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
    state: SpinEnsembleState | CssPrior, setting: MeasurementSetting, n_shots: int, seed
) -> np.ndarray:
    """Vectorized i.i.d. records: m with probability P(m), then Y ~ N(center_m, 1/2).

    P(m) is a state's, drawn from its band, or Binomial(N, 1/2) for a
    :class:`CssPrior` of one atom count.
    """
    if not isinstance(n_shots, (int, np.integer)) or isinstance(n_shots, bool):
        raise ValueError(f"n_shots must be an integer, got {n_shots!r}")
    if n_shots < 1:
        raise ValueError(f"n_shots must be >= 1, got {n_shots}")
    rng = np.random.default_rng(seed)
    if isinstance(state, CssPrior):
        m = rng.binomial(_check_atom_count(state.atom_count), 0.5, n_shots) - state.atom_count / 2
    else:
        p = np.abs(state.band) ** 2
        levels = m_ladder(state.atom_count, state.first, state.first + p.size)
        m = levels[rng.choice(p.size, size=n_shots, p=p / p.sum())]
    return rng.normal(_centers(setting, m), math.sqrt(0.5))


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
    from scipy.special import erfc  # deferred: most of the package's import time

    if not half_width > 0:
        raise ValueError(f"half_width must be positive, got {half_width}")
    if not math.isfinite(target):
        raise ValueError(f"target must be finite, got {target}")
    p = np.abs(state.band) ** 2
    levels = m_ladder(state.atom_count, state.first, state.first + p.size)
    offset = np.abs(target - _centers(setting, levels))
    return float(0.5 * (erfc(offset - half_width) - erfc(offset + half_width)) @ p)
