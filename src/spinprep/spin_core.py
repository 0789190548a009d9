"""Collective spin states of N two-level atoms in the Dicke basis.

The symmetric subspace of N spin-1/2 atoms carries total spin S = N/2 and is
spanned by the Dicke states |S, m>, m = -S ... S (half-integer lattice for odd
N).  A pure state is a complex amplitude vector of length N+1 over that basis.
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


@dataclass(frozen=True, eq=False)
class SpinEnsembleState:
    """Normalized pure state of ``atom_count`` atoms in the Dicke basis.

    ``amplitudes[k]`` multiplies |S, m> with m = k - S, S = atom_count / 2.
    Instances are immutable; the amplitude array is write-locked.  Equality
    is identity, so states can be compared and hashed; compare amplitudes
    (or take :func:`fidelity`) to compare two states' contents.
    """

    atom_count: int
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "atom_count", _check_atom_count(self.atom_count))
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.atom_count + 1,):
            raise ValueError(
                f"expected {self.atom_count + 1} amplitudes, got shape {amps.shape}"
            )
        norm2 = float(np.vdot(amps, amps).real)
        # a non-finite amplitude makes the norm inf or nan, so this check runs only then
        if not abs(norm2 - 1.0) <= NORM_TOL:
            if not np.isfinite(amps).all():
                raise ValueError("amplitudes must be finite")
            raise ValueError(f"squared norm {norm2} deviates from 1 by more than {NORM_TOL}")
        object.__setattr__(self, "amplitudes", _locked(amps))

    @property
    def m_values(self) -> np.ndarray:
        """Eigenvalue ladder m = -S ... S aligned with ``amplitudes``."""
        return m_ladder(self.atom_count)

    @classmethod
    def from_unnormalized(cls, atom_count: int, amplitudes) -> "SpinEnsembleState":
        """Build a state from raw amplitudes, dividing out the norm."""
        amps = np.asarray(amplitudes, dtype=complex)
        norm = np.linalg.norm(amps)
        if not np.isfinite(norm) or norm == 0.0:
            raise ValueError("cannot normalize amplitudes with zero or non-finite norm")
        return cls(atom_count, amps / norm)

    @classmethod
    def from_probabilities(
        cls, atom_count: int, probs, phase, first: int = 0
    ) -> "SpinEnsembleState":
        """Build the state with amplitudes sqrt(probs) exp(i phase), level by level.

        ``probs`` and ``phase`` hold the levels ``first``, ``first + 1``, ...:
        all N+1 levels (``first`` 0, the default) or a band of them, such as
        a record's band from :func:`spinprep.measurement.posterior_batch`.
        Every level outside them gets amplitude 0, and ``sqrt``, ``cos`` and
        ``sin`` run on the given levels only.
        """
        magnitude = np.sqrt(probs)
        amps = np.zeros(atom_count + 1, dtype=complex)
        band = amps[first : first + magnitude.size]
        # magnitude * exp(i phase) through cos and sin: several times faster than complex exp
        np.multiply(magnitude, np.cos(phase), out=band.real)
        np.multiply(magnitude, np.sin(phase), out=band.imag)
        return cls(atom_count, amps)


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
    return int(n_atoms)


def css_log_window(n_atoms: int, first: int, stop: int) -> np.ndarray:
    """log|a_m| of the coherent spin state along +x on levels ``first`` ... ``stop - 1``.

    log a_m = (1/2) log C(N, k) - (N/2) log 2 at index k = m + S.  One
    ``math.lgamma`` anchor gives the value at the window's level nearest
    m = 0 (index N // 2, the state's largest level, or the window's end
    closest to it); every other level adds half the cumulative sum of
    log C(N, i) / C(N, i - 1) = log((N - i + 1) / i), taken outward from
    the anchor as ``log1p((N + 1 - 2i) / i)``.  So the cost is O(window),
    the anchor's rounding (at the scale of log N!) shifts the whole window
    by one constant, and the ratios between levels, all the measurement
    update reads, are exact to a few ulps however large N is.  No level
    underflows, however far it sits from m = 0.  A window that holds level
    N // 2 equals the same slice of :func:`log_css_amplitudes` bit for bit.
    """
    n = _check_atom_count(n_atoms)
    if not 0 <= first < stop <= n + 1:
        raise ValueError(f"window [{first}, {stop}) is not inside levels 0 ... {n}")
    anchor = min(max(n // 2, first), stop - 1)
    at = anchor - first
    i = np.arange(first + 1, stop, dtype=float)
    # log C(N, i) - log C(N, i - 1) = log((N - i + 1) / i) for each level i past the first
    steps = np.log1p((n + 1.0 - 2.0 * i) / i)
    log_ratio = np.empty(stop - first)  # log C(N, k) - log C(N, anchor)
    log_ratio[at] = 0.0
    np.cumsum(steps[at:], out=log_ratio[at + 1 :])
    # below the anchor the steps i = anchor, anchor - 1, ..., k + 1 are taken off
    np.cumsum(-steps[:at][::-1], out=log_ratio[:at][::-1])
    log_ratio *= 0.5
    log_ratio += 0.5 * (
        math.lgamma(n + 1) - math.lgamma(anchor + 1) - math.lgamma(n - anchor + 1) - n * _LN2
    )
    return log_ratio


@dataclass(frozen=True, eq=False)
class CssPrior:
    """The coherent spin state's log|a_m| as a prior for the measurement kernel.

    It stands in for the array :func:`log_css_amplitudes` would give:
    :func:`spinprep.measurement.posterior_batch` takes its largest level,
    ``top`` = N // 2, in closed form and computes only the window of levels
    that its records' bands index, through :func:`css_log_window`.
    ``atom_count`` is one atom count, or a non-empty 1-d integer array of one
    per record, each record then conditioned on the CSS of its own N.
    Equality is identity, as for :class:`SpinEnsembleState`.
    """

    atom_count: int | np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "atom_count", _check_atom_counts(self.atom_count))

    @property
    def top(self):
        """Index of the largest level, the first of the two middle ones for odd N."""
        return self.atom_count // 2


def _check_atom_counts(n_atoms):
    """One atom count as an int, or a 1-d array of several as a locked integer array."""
    if isinstance(n_atoms, (int, np.integer)) or np.ndim(n_atoms) == 0:
        return _check_atom_count(n_atoms)
    counts = np.asarray(n_atoms)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError(f"atom counts must be a non-empty 1-d array, got shape {counts.shape}")
    bad = counts < 1 if counts.dtype.kind in "iu" else np.ones(counts.size, dtype=bool)
    if bad.any():
        raise ValueError(f"atom count must be a positive integer, got {counts[bad][0].item()!r}")
    return int(counts[0]) if counts.size == 1 else _locked(counts.astype(np.intp))


def log_css_amplitudes(n_atoms: int) -> np.ndarray:
    """Log amplitudes of the coherent spin state along +x, index k <-> m = k - S.

    :func:`css_log_window` over all N+1 levels.  This is the prior the
    measurement kernel conditions (which computes only the window of levels
    its records can reach, through the same function); it is never
    exponentiated before the update.
    """
    n = _check_atom_count(n_atoms)
    return css_log_window(n, 0, n + 1)


def make_css(n_atoms: int) -> SpinEnsembleState:
    """Coherent spin state along +x, Sx |psi> = S |psi>.

    Amplitudes are the square roots of the symmetric binomial distribution,
    2^{-S} C(2S, S+m)^{1/2}, exponentiated from :func:`log_css_amplitudes`;
    levels below the float range become exact zeros.
    """
    return SpinEnsembleState.from_unnormalized(n_atoms, np.exp(log_css_amplitudes(n_atoms)))


def make_dicke(n_atoms: int, m: float) -> SpinEnsembleState:
    """Dicke state |S, m> with S = n_atoms / 2."""
    n = _check_atom_count(n_atoms)
    idx = _lattice_index(n, m)
    amps = np.zeros(n + 1, dtype=complex)
    amps[idx] = 1.0
    return SpinEnsembleState(n, amps)


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
    amps = np.zeros(n + 1, dtype=complex)
    if idx_plus == idx_minus:
        amps[idx_plus] = 1.0
    else:
        amps[idx_plus] = np.exp(1j * eta * m_c) / math.sqrt(2.0)
        amps[idx_minus] = np.exp(-1j * eta * m_c) / math.sqrt(2.0)
    return SpinEnsembleState(n, amps)


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
    """Spin-z moments, transverse second moment, and the squeezing parameter."""
    moments = _z_moments(np.abs(state.amplitudes) ** 2, state.atom_count)
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
    """|<a|b>|^2; invariant under a global phase of either argument."""
    if a.atom_count != b.atom_count:
        raise ValueError(
            f"fidelity requires equal atom counts, got {a.atom_count} and {b.atom_count}"
        )
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
