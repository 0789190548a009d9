"""Collective spin states of N two-level atoms in the Dicke basis.

The symmetric subspace of N spin-1/2 atoms carries total spin S = N/2 and is
spanned by the Dicke states |S, m>, m = -S ... S (half-integer lattice for odd
N).  A pure state is a complex amplitude vector of length N+1 over that basis,
held as its band: the amplitudes from its first to its last nonzero level.
Every z-axis observable is a diagonal sum over |a_m|^2, and within the fixed-S
subspace <Sx^2 + Sy^2> = S(S+1) - <Sz^2>, an identity that the tests check
against explicit spin matrices for small N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Unit-norm tolerance enforced on every state.
NORM_TOL = 1e-12

_LATTICE_TOL = 1e-9
_LN2 = math.log(2.0)
# exp(x) rounds to 0 at and below log(2^-1075), half the smallest subnormal
_EXP_UNDERFLOW = -1075 * _LN2
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# the largest atom count: above 2^53 the level indices k and m = k - N/2 are not exact floats
_MAX_ATOMS = 1 << 53
# levels between the exact anchors of css_log_window's running sums, counted from N // 2
_ANCHOR_SPACING = 1 << 12
# the two sides of each point on which a prior's ``reference`` looks: at or
# above it, then below it
_SIDES = np.array([[[0.0]], [[1.0]]])


def m_ladder(n_atoms: int, first: int = 0, stop: int | None = None, out=None) -> np.ndarray:
    """Eigenvalue ladder m = -S ... S of n_atoms atoms, index k <-> m = k - S.

    With ``first`` and ``stop``, the entries k = first ... stop - 1 alone,
    each the same float as in the whole ladder; ``out``, if given, receives them.
    """
    return np.subtract(np.arange(first, n_atoms + 1 if stop is None else stop), n_atoms / 2.0, out)


def _locked(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False, init=False)
class SpinEnsembleState:
    """Normalized pure state of ``atom_count`` atoms in the Dicke basis.

    The state holds its band: ``band[i]`` multiplies |S, m> with
    m = ``first`` + i - S, S = atom_count / 2, and every level outside the
    band has amplitude exactly 0.  ``amplitudes`` is the dense vector over
    all N+1 levels, built on request.  Instances are immutable; the band
    and every dense vector built from it are write-locked.  Equality is
    identity, so states can be compared and hashed; compare amplitudes (or
    take :func:`fidelity`) to compare two states' contents.
    """

    atom_count: int
    first: int
    band: np.ndarray

    def __init__(self, atom_count: int, amplitudes):
        """The state of the dense ``amplitudes`` over all N+1 levels, holding the
        span from its first to its last nonzero level."""
        n = _check_atom_count(atom_count)
        amps = np.asarray(amplitudes, dtype=complex)
        if amps.shape != (n + 1,):
            raise ValueError(f"expected {n + 1} amplitudes, got shape {amps.shape}")
        occupied = np.flatnonzero(amps)
        first, stop = (int(occupied[0]), int(occupied[-1]) + 1) if occupied.size else (0, 1)
        self._hold(n, first, amps[first:stop])

    def _hold(self, atom_count: int, first: int, band: np.ndarray):
        """Take ``band`` (complex, 1-d) as levels ``first`` ... of the state, once its norm is checked."""
        norm2 = float(np.vdot(band, band).real)
        # a non-finite amplitude makes the norm inf or nan, so this check runs only then
        if not abs(norm2 - 1.0) <= NORM_TOL:
            if not np.isfinite(band).all():
                raise ValueError("amplitudes must be finite")
            raise ValueError(f"squared norm {norm2} deviates from 1 by more than {NORM_TOL}")
        object.__setattr__(self, "atom_count", atom_count)
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "band", _locked(band))

    @classmethod
    def _of_band(cls, atom_count: int, first: int, band: np.ndarray) -> "SpinEnsembleState":
        """The state whose levels ``first`` ... hold ``band``, 0 on every other level."""
        state = cls.__new__(cls)
        state._hold(atom_count, first, band)
        return state

    @property
    def amplitudes(self) -> np.ndarray:
        """The dense amplitudes over all N+1 levels, a write-locked vector built on request."""
        return _locked(self._levels(0, self.atom_count + 1))

    def _levels(self, first: int, stop: int) -> np.ndarray:
        """Amplitudes of levels ``first`` ... ``stop - 1``, 0 outside the band (see :func:`band_window`)."""
        return band_window(self.band, self.first, first, stop, 0.0)

    @classmethod
    def from_unnormalized(cls, atom_count: int, amplitudes) -> "SpinEnsembleState":
        """Build a state from raw amplitudes, dividing out the norm (see :func:`_normalized`)."""
        return cls(atom_count, _normalized(np.asarray(amplitudes, dtype=complex)))

    @classmethod
    def from_probabilities(
        cls, atom_count: int, probs, phase, first: int = 0
    ) -> "SpinEnsembleState":
        """Build the state with amplitudes sqrt(probs) exp(i phase), level by level.

        ``probs`` and ``phase`` hold the levels ``first``, ``first + 1``, ...:
        all N+1 levels (``first`` 0, the default) or a band of them, such as
        a record's band from :func:`spinprep.measurement.posterior_batch`,
        which becomes the state's band.  Every level outside them gets
        amplitude 0, and nothing runs on those levels.
        """
        magnitude = np.sqrt(probs)
        band = np.empty(magnitude.size, dtype=complex)
        # magnitude * exp(i phase) through cos and sin: several times faster than complex exp
        np.multiply(magnitude, np.cos(phase), out=band.real)
        np.multiply(magnitude, np.sin(phase), out=band.imag)
        return cls._of_band(atom_count, first, band)


def band_window(values: np.ndarray, at: int, first: int, stop: int, fill) -> np.ndarray:
    """Levels ``first`` ... ``stop - 1`` of a band ``values`` that starts at level ``at``.

    A view where the band holds them all, else a fresh array with ``fill``
    on the levels outside the band.
    """
    lo, hi = first - at, stop - at
    if 0 <= lo and hi <= values.size:
        return values[lo:hi]
    window = np.full(stop - first, fill, dtype=values.dtype)
    inside = slice(max(lo, 0), min(hi, values.size))
    if inside.start < inside.stop:
        window[inside.start - lo : inside.stop - lo] = values[inside]
    return window


def _normalized(amps: np.ndarray) -> np.ndarray:
    """Complex ``amps`` divided by their norm.

    Where the plain norm over- or underflows, the amplitudes are first
    scaled by a power of two, which is exact but for levels that the
    division would take below the float range anyway; an input whose plain
    norm is finite and nonzero keeps every bit of ``amps / norm``.
    """
    with np.errstate(over="ignore"):  # an overflowing sum of squares is caught below
        norm = np.linalg.norm(amps)
    if not 0.0 < norm < math.inf:
        peak = max(np.abs(amps.real).max(initial=0.0), np.abs(amps.imag).max(initial=0.0))
        if not 0.0 < peak < math.inf:
            raise ValueError("cannot normalize amplitudes with zero or non-finite norm")
        exponent = -math.frexp(peak)[1]
        scaled = np.empty_like(amps)
        np.ldexp(amps.real, exponent, out=scaled.real)
        np.ldexp(amps.imag, exponent, out=scaled.imag)
        amps, norm = scaled, np.linalg.norm(scaled)
    return amps / norm


@dataclass(frozen=True)
class ObservableReport:
    """Spin-z moments and the Dicke squeezing parameter of one state.

    ``xi_d`` = N (Var Sz + 1/4) / <Sx^2 + Sy^2>; equal to 1 for a coherent
    spin state along x and minimal, 1/(N+2), for the ideal |S, 0> state.
    """

    mean_sz: float
    mean_sz2: float
    var_sz: float
    mean_sx2_plus_sy2: float
    xi_d: float


def _lattice_index(n_atoms: int, m: float) -> int:
    """Index k with m = k - S, or raise if m is off the lattice of n_atoms."""
    k = m + n_atoms / 2.0
    k_round = round(k) if math.isfinite(k) else -1  # an infinite or nan m is off the lattice
    if abs(k - k_round) > _LATTICE_TOL or not 0 <= k_round <= n_atoms:
        raise ValueError(
            f"m = {m} is not on the spin-z lattice of {n_atoms} atoms "
            f"(need m in {{-S, -S+1, ..., S}} with S = {n_atoms / 2})"
        )
    return int(k_round)


def _check_atom_count(n_atoms) -> int:
    if not isinstance(n_atoms, (int, np.integer)) or isinstance(n_atoms, bool) or n_atoms < 1:
        raise ValueError(f"atom count must be a positive integer, got {n_atoms!r}")
    if n_atoms > _MAX_ATOMS:
        raise ValueError(f"atom count must be at most 2**53 = {_MAX_ATOMS}, got {int(n_atoms)}")
    return int(n_atoms)


def css_log_window(n_atoms: int, first: int, stop: int) -> np.ndarray:
    """log|a_m| of the coherent spin state along +x on levels ``first`` ... ``stop - 1``.

    log a_m = (1/2) log C(N, k) - (N/2) log 2 at index k = m + S.  Anchors sit
    at the largest level c = N // 2 and every B = ``_ANCHOR_SPACING`` levels
    on both sides of it; :func:`_log_binomial_half` gives each to a few ulps
    of itself at any N.  Every other level adds half the cumulative sum of
    log C(N, i) / C(N, i - 1) = log((N - i + 1) / i), taken as
    ``log1p((N + 1 - 2i) / i)``, outward from the anchor between it and c.
    One chain serves the window: it runs up and down the ladder from the
    anchor of the window's level nearest c (c itself if the window holds
    it) and restarts at each anchor it passes.  So a level's value depends
    on N and the level alone: every window equals the same slice of the
    whole ladder bit for bit, wherever it lies, at a cost of O(window + B).  The ratios between levels, all the measurement
    update reads, are exact to a few ulps of log|a_m| however large N is,
    and so are the levels themselves, which the record densities read.  No
    level underflows, however far it sits from m = 0.
    """
    n = _check_atom_count(n_atoms)
    if not 0 <= first < stop <= n + 1:
        raise ValueError(f"window [{first}, {stop}) is not inside levels 0 ... {n}")
    center = n // 2
    # the anchor of the window's level nearest c: c itself, unless the window lies on one side
    if first > center:
        home = center + (first - center) // _ANCHOR_SPACING * _ANCHOR_SPACING
    elif stop <= center:
        home = center - (center + 1 - stop) // _ANCHOR_SPACING * _ANCHOR_SPACING
    else:
        home = center
    low, high = min(first, home), max(stop, home + 1)
    at = home - low
    # entry k holds the step log C(N, i) / C(N, i - 1) = log((N - i + 1) / i) of
    # the level i a chain from the home anchor enters on its way to k: i = k above
    # the anchor and k + 1 below it
    i = np.arange(low, high, dtype=float)
    i[:at] += 1.0
    i[at] = 1.0  # the anchor's own entry, 0 once summed
    log_ratio = np.log1p((n + 1.0 - (i + i)) / i, out=i)
    log_ratio *= 0.5  # exact, so it commutes with the sums
    # half of log C(N, k) - log C(N, its anchor): summed up the ladder, and
    # subtracted down it, the steps' negated sum bit for bit
    up, down = log_ratio[at:], log_ratio[at::-1]
    _sum_blocks(up, np.add)
    _sum_blocks(down, np.subtract)
    # both chains start at the home anchor
    home_block = slice(max(at + 1 - _ANCHOR_SPACING, 0), at + _ANCHOR_SPACING)
    log_ratio[home_block] += 0.5 * _log_binomial_half(n, home)
    for chain, step in (up, 1), (down, -1):
        for a in range(_ANCHOR_SPACING, chain.size, _ANCHOR_SPACING):
            chain[a : a + _ANCHOR_SPACING] += 0.5 * _log_binomial_half(n, home + step * a)
    return log_ratio[first - low : stop - low]


def _sum_blocks(chain: np.ndarray, ufunc):
    """``ufunc.accumulate`` of ``chain`` from 0 at every ``_ANCHOR_SPACING``-th entry, in place."""
    chain[::_ANCHOR_SPACING] = 0.0
    whole = chain.size // _ANCHOR_SPACING * _ANCHOR_SPACING
    if whole:
        blocks = chain[:whole].reshape(-1, _ANCHOR_SPACING)
        ufunc.accumulate(blocks, axis=1, out=blocks)
    if chain.size > whole + 1:  # more than the last anchor alone
        ufunc.accumulate(chain[whole:], out=chain[whole:])


def _stirling_remainder(x: int) -> float:
    """log Gamma(x) - ((x - 1/2) log x - x + (1/2) log 2 pi) for a whole number x >= 1."""
    if x < 16:  # where the series below has not converged; lgamma is exact enough here
        return math.lgamma(x) - ((x - 0.5) * math.log(x) - x + _HALF_LOG_2PI)
    y = 1.0 / (x * x)  # Stirling's series, first omitted term below 2e-14 from x = 16
    return (1.0 / 12.0 - y * (1.0 / 360.0 - y * (1.0 / 1260.0 - y / 1680.0))) / x


def _log_binomial_half(n: int, k: int) -> float:
    """log(C(N, k) 2^-N), the probability of level k of the CSS, to a few ulps of its value.

    Stirling's form of the three factorials: with d = (2k - N)/(N + 2) and
    the remainders r of :func:`_stirling_remainder`,

        1 - (N + 1) log1p(1/(N + 1)) + log 2 - (1/2) log(2 pi (N + 1))
        - (2k - N) atanh(d) - ((N + 1)/2) log(1 - d^2)
        + r(N + 1) - r(k + 1) - r(N - k + 1).

    No term is of size N log N, as each ``lgamma(N + 1)`` is, so the value
    holds its relative precision at any N up to 2^53.  The integers 2k - N,
    N + 1 and N + 2 are exact Python ints, and log(1 - d^2) is taken from
    d^2 near the middle and from 1 - d and 1 + d near the ends.
    """
    skew = 2 * k - n
    d = skew / (n + 2)
    log_1md2 = math.log1p(-d * d) if abs(d) < 0.5 else math.log1p(d) + math.log1p(-d)
    return (
        1.0 - (n + 1) * math.log1p(1 / (n + 1)) + _LN2 - _HALF_LOG_2PI - 0.5 * math.log(n + 1)
        - skew * math.atanh(d) - 0.5 * (n + 1) * log_1md2
        + _stirling_remainder(n + 1) - _stirling_remainder(k + 1) - _stirling_remainder(n - k + 1)
    )


@dataclass(frozen=True, eq=False)
class CssPrior:
    """The coherent spin state's log|a_m| as a prior for the measurement kernel.

    It stands in for :func:`css_log_window` over all N+1 levels:
    :meth:`reference` gives levels near given points and bounds their fall
    below the largest level, N // 2, in closed form, and :meth:`window`
    computes only the levels that :func:`spinprep.measurement.posterior_batch`
    reads.
    ``atom_count`` is one atom count, or a non-empty 1-d integer array of one
    per record, each record then conditioned on the CSS of its own N.
    Equality is identity, as for :class:`SpinEnsembleState`.
    """

    atom_count: int | np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "atom_count", _check_atom_counts(self.atom_count))

    def window(self, n_atoms: int, first: int, stop: int) -> np.ndarray:
        """log|a_m| on levels ``first`` ... ``stop - 1`` of the CSS of ``n_atoms`` atoms."""
        return css_log_window(n_atoms, first, stop)

    def reference(self, points):
        """The occupied levels next to each of ``points``, and twice their log fall below the top.

        ``points`` are positions k on the level axis, 0 <= k <= N, one per
        record on the last axis or one shared by every record.  Both
        returned arrays have shape (2, *points.shape): the nearest occupied
        level at or above each point, then the nearest below it (either
        falls back to the other where the ladder ends), as integer indices
        or as whole floats, and at each an upper bound D on
        2 (log|a_top| - log|a_k|) = log C(N, top) - log C(N, k), with
        top = N // 2 the largest level.  Every level of the CSS is occupied,
        so the levels are ceil(k) and ceil(k) - 1; each of the |m| ratios
        C(N, i - 1) / C(N, i) between level k and the top, m = k - N/2, is
        at most (N/2 + |m|) / (N/2 - |m| + 1), so

            D = |m| log((N/2 + |m|) / (N/2 - |m| + 1)),

        0 at the top and at most about twice the fall in the tails.
        """
        levels = np.fmax(np.ceil(points) - _SIDES, 0.0)
        s = 0.5 * self.atom_count
        far = np.abs(levels - s)
        return levels, far * np.log1p((far + far - 1.0) / (s + 1.0 - far))


def _check_atom_counts(n_atoms):
    """One atom count as an int, or a 1-d array of several as a locked integer array."""
    if isinstance(n_atoms, (int, np.integer)) or np.ndim(n_atoms) == 0:
        return _check_atom_count(n_atoms)
    counts = np.asarray(n_atoms)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError(f"atom counts must be a non-empty 1-d array, got shape {counts.shape}")
    if counts.dtype.kind not in "iu" or not (counts.min() >= 1 and counts.max() <= _MAX_ATOMS):
        for n in counts.tolist():  # the first count the scalar check rejects names the error
            _check_atom_count(n)
    return int(counts[0]) if counts.size == 1 else _locked(counts.astype(np.intp))


def make_css(n_atoms: int) -> SpinEnsembleState:
    """Coherent spin state along +x, Sx |psi> = S |psi>.

    Amplitudes are the square roots of the symmetric binomial distribution,
    2^{-S} C(2S, S+m)^{1/2}, exponentiated from :func:`css_log_window`; the
    state's band is the levels whose amplitude lies in the float range, every
    other level an exact 0.  With m = k - N/2, the fall of level k below the
    top level c = N // 2 is log C(N, c) - log C(N, k) >= m^2 / (N/2 + |m|) - 1/4
    (log C(N, N/2 + m) - log C(N, N/2) <= -m^2 / (N/2 + |m|), and C(N, N/2)
    exceeds C(N, c) by less than e^{1/4}), so the window is taken only over
    the levels where that bound leaves room above the float range, and
    ``exp`` runs only on the levels that do not underflow.
    """
    n = _check_atom_count(n_atoms)
    s = 0.5 * n
    # twice the room between the top level and the float range, plus the 1/4
    room = 2.0 * (0.5 * _log_binomial_half(n, n // 2) - _EXP_UNDERFLOW) + 0.25
    reach = 0.5 * (room + math.sqrt(room * (room + 4.0 * s)))
    first, stop = max(0, math.floor(s - reach)), min(n + 1, math.ceil(s + reach) + 1)
    log_mag = css_log_window(n, first, stop)
    # log C(N, k) is concave in k, so the levels in the float range are consecutive
    kept = np.flatnonzero(log_mag > _EXP_UNDERFLOW)
    lo, hi = int(kept[0]), int(kept[-1]) + 1
    band = np.exp(log_mag[lo:hi]).astype(complex)
    return SpinEnsembleState._of_band(n, first + lo, _normalized(band))


def make_dicke(n_atoms: int, m: float) -> SpinEnsembleState:
    """Dicke state |S, m> with S = n_atoms / 2: a band of one level."""
    n = _check_atom_count(n_atoms)
    return SpinEnsembleState._of_band(n, _lattice_index(n, m), np.ones(1, dtype=complex))


def make_superposition_target(n_atoms: int, m_c: float, eta: float = 0.0) -> SpinEnsembleState:
    """Two-component target (e^{i eta m_c} |S, m_c> + e^{-i eta m_c} |S, -m_c>) / sqrt(2).

    For m_c = 0 the two branches coincide and the only normalized limit is
    |S, 0>, which is what is returned.  m_c must be a non-negative point on
    the m lattice.
    """
    n = _check_atom_count(n_atoms)
    if m_c < -_LATTICE_TOL:
        raise ValueError(f"m_c must be non-negative, got {m_c}")
    idx_plus = _lattice_index(n, m_c)
    idx_minus = _lattice_index(n, -m_c)
    # a band of 2 m_c + 1 levels, from -m_c to m_c
    band = np.zeros(idx_plus - idx_minus + 1, dtype=complex)
    if idx_plus == idx_minus:
        band[0] = 1.0
    else:
        band[-1] = np.exp(1j * eta * m_c) / math.sqrt(2.0)
        band[0] = np.exp(-1j * eta * m_c) / math.sqrt(2.0)
    return SpinEnsembleState._of_band(n, idx_minus, band)


def span_bounds(width: int, count) -> np.ndarray:
    """``np.add.reduceat`` bounds of the first ``count[r]`` entries of rows of ``width``."""
    size = width * count.size
    bounds = np.empty(2 * count.size, dtype=np.intp)
    bounds[0::2] = np.arange(0, size, width)
    bounds[1::2] = bounds[0::2] + count
    # reduceat ends a span at the next bound; the last span may end at the array's end
    return bounds[:-1] if bounds[-1] == size else bounds


def span_sums(values, bounds) -> np.ndarray:
    """Sum of each row of ``values`` over its span in ``bounds`` (see :func:`span_bounds`).

    ``np.add.reduceat`` sums a span as a function of its entries alone, so a
    row's sum does not depend on the row's width or on the rows beside it.
    """
    return np.add.reduceat(values.ravel(), bounds)[::2]


def _z_moments(probs, n_atoms: int, first=0, count=None):
    """<Sz>, <Sz^2>, Var Sz, <Sx^2 + Sy^2> and xi_D of each row of ``probs`` (1-d arrays).

    Entry i of a row is the level with index ``first + i`` (per row), and
    only its first ``count`` entries (per row) are summed, so a row may hold
    all N+1 levels (``first`` 0, the default ``count``) or a band of them.
    The moments are centred, mu = sum p_i i, then sum p_i (i - mu)^2, in
    coordinates local to the row: no digits cancel when the state sits far
    from m = 0, and a band's values depend on its ``count`` entries alone,
    not on its width or on the rows beside it.
    """
    width = probs.shape[-1]
    rows = probs.reshape(-1, width)
    bounds = span_bounds(width, np.full(rows.shape[0], width) if count is None else count)
    local = np.arange(width, dtype=float)
    spread = rows * local
    mean_local = span_sums(spread, bounds)
    np.subtract(local, mean_local[:, None], spread)
    np.square(spread, spread)
    spread *= rows
    var_sz = span_sums(spread, bounds)
    mean_sz = (first - 0.5 * n_atoms) + mean_local
    mean_sz2 = var_sz + mean_sz * mean_sz
    s = n_atoms / 2.0
    mean_perp2 = s * (s + 1.0) - mean_sz2
    return mean_sz, mean_sz2, var_sz, mean_perp2, n_atoms * (var_sz + 0.25) / mean_perp2


def observables(state: SpinEnsembleState) -> ObservableReport:
    """Spin-z moments, transverse second moment, and the squeezing parameter, from the band."""
    moments = _z_moments(np.abs(state.band) ** 2, state.atom_count, state.first)
    return ObservableReport(*(float(v[0]) for v in moments))


def dicke_squeezing(probs, n_atoms, first=0, count=None) -> np.ndarray:
    """xi_D for each row of level probabilities (last axis: the levels) of ``n_atoms`` atoms.

    A full row holds the N+1 levels.  A band row holds levels ``first``,
    ``first + 1``, ... in its first ``count`` entries (``n_atoms`` and both
    of these per row or shared), as
    :func:`spinprep.measurement.posterior_batch` hands them to its ``reduce``.
    """
    probs = np.asarray(probs, dtype=float)
    return _z_moments(probs, n_atoms, first, count)[-1].reshape(probs.shape[:-1])


def fidelity(a: SpinEnsembleState, b: SpinEnsembleState) -> float:
    """|<a|b>|^2 over the levels the two bands share; invariant under a global phase of either."""
    if a.atom_count != b.atom_count:
        raise ValueError(
            f"fidelity requires equal atom counts, got {a.atom_count} and {b.atom_count}"
        )
    first = max(a.first, b.first)
    stop = max(first, min(a.first + a.band.size, b.first + b.band.size))
    return float(abs(np.vdot(a._levels(first, stop), b._levels(first, stop))) ** 2)
