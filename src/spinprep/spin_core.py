"""Collective spin states of N two-level atoms in the Dicke basis.

The symmetric subspace of N spin-1/2 atoms carries total spin S = N/2 and is
spanned by the Dicke states |S, m>, m = -S ... S (half-integer lattice for odd
N).  A pure state is a complex amplitude vector of length N+1 over that basis.
Every z-axis observable is a diagonal sum over |a_m|^2, and within the fixed-S
subspace <Sx^2 + Sy^2> = S(S+1) - <Sz^2>, an identity that the explicit matrix
construction in :func:`spin_matrix_oracle` verifies independently for small N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

# Unit-norm tolerance enforced on every state.
NORM_TOL = 1e-12
# Dense matrices are only meant for cross-checks; keep them small.
ORACLE_MAX_ATOMS = 12

_LATTICE_TOL = 1e-9
_LN2 = math.log(2.0)


def _locked(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SpinEnsembleState:
    """Normalized pure state of ``atom_count`` atoms in the Dicke basis.

    ``amplitudes[k]`` multiplies |S, m> with m = k - S, S = atom_count / 2.
    Instances are immutable; the amplitude array is write-locked.
    """

    atom_count: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = self.atom_count
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
            raise ValueError(f"atom_count must be a positive integer, got {n!r}")
        object.__setattr__(self, "atom_count", int(n))
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.atom_count + 1,):
            raise ValueError(
                f"expected {self.atom_count + 1} amplitudes, got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps.real)) or not np.all(np.isfinite(amps.imag)):
            raise ValueError("amplitudes must be finite")
        norm2 = float(np.sum(np.abs(amps) ** 2))
        if abs(norm2 - 1.0) > NORM_TOL:
            raise ValueError(f"squared norm {norm2} deviates from 1 by more than {NORM_TOL}")
        object.__setattr__(self, "amplitudes", _locked(amps))

    @property
    def total_spin(self) -> float:
        """S = N/2."""
        return self.atom_count / 2.0

    @property
    def m_values(self) -> np.ndarray:
        """Eigenvalue ladder m = -S ... S aligned with ``amplitudes``."""
        return np.arange(self.atom_count + 1) - self.total_spin

    @classmethod
    def from_unnormalized(cls, atom_count: int, amplitudes) -> "SpinEnsembleState":
        """Build a state from raw amplitudes, dividing out the norm."""
        amps = np.asarray(amplitudes, dtype=complex)
        norm = np.linalg.norm(amps)
        if not np.isfinite(norm) or norm == 0.0:
            raise ValueError("cannot normalize amplitudes with zero or non-finite norm")
        return cls(atom_count, amps / norm)


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
    k_round = round(k)
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


def log_css_amplitudes(n_atoms: int) -> np.ndarray:
    """Log amplitudes of the coherent spin state along +x, index k <-> m = k - S.

    log a_m = (1/2) log C(2S, S+m) - S log 2 through log-gamma, so no level
    underflows however far it sits from m = 0.  This is the prior the
    measurement kernel conditions; it is never exponentiated before the
    update.
    """
    n = _check_atom_count(n_atoms)
    k = np.arange(n + 1)
    return 0.5 * (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)) - 0.5 * n * _LN2


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


def _z_moments(probs, n_atoms: int):
    """<Sz>, <Sz^2>, Var Sz, <Sx^2 + Sy^2> and xi_D along the last axis of ``probs``."""
    m = np.arange(n_atoms + 1) - n_atoms / 2.0
    mean_sz = probs @ m
    mean_sz2 = probs @ (m * m)
    # rounding can push the variance a hair below zero; clamp
    var_sz = np.maximum(mean_sz2 - mean_sz * mean_sz, 0.0)
    s = n_atoms / 2.0
    mean_perp2 = s * (s + 1.0) - mean_sz2
    return mean_sz, mean_sz2, var_sz, mean_perp2, n_atoms * (var_sz + 0.25) / mean_perp2


def observables(state: SpinEnsembleState) -> ObservableReport:
    """Spin-z moments, transverse second moment, and the squeezing parameter."""
    moments = _z_moments(np.abs(state.amplitudes) ** 2, state.atom_count)
    return ObservableReport(*(float(v) for v in moments))


def dicke_squeezing(probs) -> np.ndarray:
    """xi_D for each row of level probabilities (last axis: the N+1 levels)."""
    probs = np.asarray(probs, dtype=float)
    return _z_moments(probs, probs.shape[-1] - 1)[-1]


def prob_distribution(state: SpinEnsembleState) -> list[tuple[float, float]]:
    """P(m) = |<S, m | psi>|^2 as a list of (m, P(m)) pairs."""
    p = np.abs(state.amplitudes) ** 2
    return list(zip(state.m_values.tolist(), p.tolist()))


def fidelity(a: SpinEnsembleState, b: SpinEnsembleState) -> float:
    """|<a|b>|^2; invariant under a global phase of either argument."""
    if a.atom_count != b.atom_count:
        raise ValueError(
            f"fidelity requires equal atom counts, got {a.atom_count} and {b.atom_count}"
        )
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def spin_matrix_oracle(n_atoms: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (N+1)x(N+1) matrices (Sx, Sy, Sz) in the Dicke basis.

    Standard ladder construction: <m+1| S_+ |m> = sqrt(S(S+1) - m(m+1)).
    Guarded to small N; the point of these matrices is to verify the O(N)
    diagonal formulas used everywhere else, not to do linear algebra at scale.
    """
    n = _check_atom_count(n_atoms)
    if n > ORACLE_MAX_ATOMS:
        raise ValueError(
            f"matrix oracle limited to {ORACLE_MAX_ATOMS} atoms, got {n}"
        )
    s = n / 2.0
    m = np.arange(n + 1) - s
    sz = np.diag(m).astype(complex)
    raise_elems = np.sqrt(s * (s + 1.0) - m[:-1] * (m[:-1] + 1.0))
    sp = np.zeros((n + 1, n + 1), dtype=complex)
    sp[np.arange(1, n + 1), np.arange(n)] = raise_elems
    sm = sp.conj().T
    sx = 0.5 * (sp + sm)
    sy = -0.5j * (sp - sm)
    return sx, sy, sz
