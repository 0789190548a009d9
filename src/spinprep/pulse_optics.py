"""Probe pulse envelopes, cavity response functions, and homodyne strengths.

Time grids are dimensionless: t is measured in units of 1/kappa and envelopes
in units of sqrt(kappa), so every pulse here is normalized to unit L2 mass,
int |beta_in(t)|^2 dt = 1, and a single grid serves any cavity.  Physical
rates enter only through the ratio Omega/kappa and the probe photon number.

The cavity maps the input envelope into three response functions.  With the
causal kernels sqrt(2) e^{-tau}, sqrt(2) tau e^{-tau} and sqrt(2) tau^2
e^{-tau} (tau = kappa (t - t')):

* beta0 carries the mean field (intracavity photon number N_p |beta0|^2),
* beta1 carries the linear spin-z signal read out on the phase quadrature,
* beta2 carries the quadratic spin-z signal read out on the amplitude
  quadrature.

Matching the local-oscillator shape to beta1 (resp. beta2) maximizes the
linear (resp. quadratic) measurement strength; the analytic optima
chi_p = sqrt(10 N_p) Omega/kappa (exponential pulse) and
chi_x = sqrt(42 N_p) Omega^2 / (2 kappa^2) (flat-top spectral pulse)
serve as oracles for the quadrature evaluation done here.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .spin_core import _locked

EXPONENTIAL = "exponential"
LONG_EXPONENTIAL = "long_exponential"
OPTIMAL_X_SPECTRAL = "optimal_x_spectral"
PULSE_KINDS = (EXPONENTIAL, LONG_EXPONENTIAL, OPTIMAL_X_SPECTRAL)

# Grid defaults (units of 1/kappa).  The span must hold not only the pulse but
# also the tau^2-kernel response tail below 1e-6, which needs ~30 decay times.
DEFAULT_DT = 0.005
DEFAULT_SPAN_FACTOR = 30.0
MIN_SPAN_FACTOR = 10.0
MAX_DT = 0.01

_NORM_TOL = 1e-6

# max_t beta0(t)^2 of the flat-top spectral pulse (see feasibility): (32/(27 pi^2))
# t^4 (K_2(t) + K_1(t))^2 at t = 0.6231526117193044, the root of (1 - t) K_1(t) = t K_0(t)
_FLAT_TOP_PEAK = 0.6422856225898251


@dataclass(frozen=True)
class CavityParams:
    """Dispersive cavity-ensemble parameters, all rates in rad/s.

    The population coupling strength Omega = 2 g^2 / |Delta| is derived, and
    n_photons is the mean photon number of the probe pulse.  n_photons = 0 is
    allowed (trivial no-probe limit); the rates themselves must be positive.
    """

    g: float
    delta: float
    kappa: float
    n_photons: float

    def __post_init__(self):
        for name in ("g", "kappa"):
            val = getattr(self, name)
            if not (np.isfinite(val) and val > 0):
                raise ValueError(f"{name} must be positive and finite, got {val}")
        if not (np.isfinite(self.delta) and self.delta != 0):
            raise ValueError(f"delta must be nonzero and finite, got {self.delta}")
        if not (np.isfinite(self.n_photons) and self.n_photons >= 0):
            raise ValueError(f"n_photons must be non-negative, got {self.n_photons}")

    @property
    def omega(self) -> float:
        """Dispersive coupling Omega = 2 g^2 / |Delta|."""
        return 2.0 * self.g * self.g / abs(self.delta)

    @classmethod
    def from_two_pi_megahertz(cls, g, delta, kappa, n_photons) -> "CavityParams":
        """Build from rates quoted as 2*pi x (value in MHz)."""
        scale = 2.0 * math.pi * 1e6
        return cls(g * scale, delta * scale, kappa * scale, n_photons)


@dataclass(frozen=True, eq=False)
class PulseGrid:
    """Sampled probe envelope and derived quantities on a uniform time grid.

    ``PulseGrid(times, beta_in)`` is the whole input, validated once,
    here: ``times`` is a uniform grid in units of 1/kappa with an odd sample
    count, as the composite Simpson rule needs, and its step ``dt`` comes
    from the span; ``beta_in`` is the real input envelope of unit L2 mass.
    The stage arrays are None until their stage runs:
    :func:`response_functions` attaches the cavity responses ``beta0/1/2``
    and :func:`set_local_oscillator` the unit-norm local oscillator
    ``beta_lo``, each to a copy, without re-running the checks.  Instances
    are immutable, and a :func:`dataclasses.replace` drops the stage arrays.
    Equality is identity, so grids can be compared and hashed.
    """

    times: np.ndarray
    beta_in: np.ndarray
    beta_lo: np.ndarray | None = field(default=None, init=False)
    beta0: np.ndarray | None = field(default=None, init=False)
    beta1: np.ndarray | None = field(default=None, init=False)
    beta2: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 3:
            raise ValueError("times must be a 1-d grid with at least 3 samples")
        if t.size % 2 == 0:
            raise ValueError(f"times must have an odd sample count, got {t.size}")
        steps = np.diff(t)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("times must be uniformly spaced")
        beta = np.asarray(self.beta_in)
        if np.iscomplexobj(beta):
            raise ValueError("beta_in must be real")
        if beta.shape != t.shape:
            raise ValueError("beta_in must match the time grid shape")
        object.__setattr__(self, "times", _locked(t))
        object.__setattr__(self, "beta_in", _locked(beta))
        norm = l2_mass(self.times, self.beta_in)
        if not abs(norm - 1.0) <= _NORM_TOL:  # NaN fails too
            raise ValueError(f"pulse L2 mass {norm} deviates from 1 by more than {_NORM_TOL}")

    @property
    def dt(self) -> float:
        return float(_step(self.times))


def _stage(pulse: PulseGrid, name: str) -> np.ndarray:
    """The grid's stage array ``name``; raise, naming the stage to run, if it has not run."""
    arr = getattr(pulse, name)
    if arr is None:
        if name == "beta_lo":
            raise ValueError("local oscillator not set; call set_local_oscillator first")
        raise ValueError("response functions not computed; call response_functions first")
    return arr


def _attach(pulse: PulseGrid, **arrays: np.ndarray) -> PulseGrid:
    """A copy of the grid with stage arrays this module computed, set unchecked."""
    pulse = copy.copy(pulse)  # no __init__, so no __post_init__
    for name, arr in arrays.items():
        object.__setattr__(pulse, name, _locked(arr))
    return pulse


@dataclass(frozen=True)
class FeasibilityReport:
    """Intracavity-photon check against the dispersive-regime budget.

    ``ok`` holds when the peak photon number stays below ``threshold`` times
    the dispersive bound (Delta/g)^2.  The strength bounds are the closed
    forms sqrt(42) g^3 / (kappa^2 |Delta|) and g sqrt(20 n_t e) / kappa, where
    n_t is the pulse's stretch: ``n_t`` for the long exponential, else 1.
    """

    max_intracavity_photons: float
    dispersive_bound: float
    chi_x_bound: float
    chi_p_bound: float
    ok: bool
    threshold: float


def _step(times: np.ndarray) -> float:
    """Step of a uniform grid from its span (times[1] - times[0] rounds as times[1] does)."""
    return (times[-1] - times[0]) / (times.size - 1)


def _simpson(times: np.ndarray, values: np.ndarray) -> float:
    """Composite Simpson rule on a uniform grid with an odd sample count."""
    h = _step(times)
    ends = values[0] + values[-1]
    return float(h / 3.0 * (ends + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-1:2].sum()))


def l2_mass(times: np.ndarray, values: np.ndarray) -> float:
    """Simpson quadrature of |values|^2 over the grid."""
    return _simpson(times, np.abs(np.asarray(values)) ** 2)


def _time_grid(span: float, dt: float) -> np.ndarray:
    # a multiple of 4 steps: an odd sample count for Simpson, and t = 0, the
    # kink of e^{-|t|}, on a panel's edge rather than inside one
    n_steps = 4 * math.ceil(round(2.0 * span / dt) / 4)
    return np.linspace(-span, span, n_steps + 1)


def _spectral_envelope(times: np.ndarray) -> np.ndarray:
    """Closed-form inverse Fourier transform of the flat-top optimal spectrum.

    The spectrum sqrt(8/(3 pi)) (1 + w^2)^{-3/2} has unit L2(dw) mass, so its
    unitary cosine transform is a unit-L2(dt) pulse.  Basset's integral (DLMF
    10.32.11) gives int_0^inf (1 + w^2)^{-3/2} cos(w t) dw = |t| K_1(|t|),
    whose limit at t = 0 is 1.
    """
    from scipy.special import k1  # deferred: most of the package's import time

    t = np.abs(times)
    shape = np.ones_like(t)
    nonzero = t > 0.0
    shape[nonzero] = t[nonzero] * k1(t[nonzero])
    return math.sqrt(8.0 / (3.0 * math.pi)) * math.sqrt(2.0 / math.pi) * shape


def _stretch(kind: str, n_t: float) -> float:
    """Check a pulse's kind and ``n_t``; return the factor by which ``n_t`` stretches it.

    Only the long exponential pulse is stretched.  This is the one check of
    both values, for :func:`build_pulse` and :func:`feasibility` alike.
    """
    if not (np.isfinite(n_t) and n_t >= 1.0):
        raise ValueError(f"n_t must be >= 1, got {n_t}")
    if kind not in PULSE_KINDS:
        raise ValueError(f"unknown pulse kind {kind!r}; expected one of {PULSE_KINDS}")
    return n_t if kind == LONG_EXPONENTIAL else 1.0


def build_pulse(
    kind: str,
    n_t: float = 1.0,
    span: float | None = None,
    dt: float = DEFAULT_DT,
) -> PulseGrid:
    """Sample a normalized probe envelope of the requested kind.

    Times are in units of 1/kappa and envelopes in units of sqrt(kappa), so
    the grid serves any cavity.  ``n_t`` stretches the long exponential
    pulse; ``span``/``dt`` override the grid defaults.
    """
    stretch = _stretch(kind, n_t)
    span = DEFAULT_SPAN_FACTOR * stretch if span is None else span
    if not (np.isfinite(span) and span >= MIN_SPAN_FACTOR * stretch):
        raise ValueError(f"grid span must be finite and >= {MIN_SPAN_FACTOR * stretch}: {span}")
    if not 0.0 < dt <= MAX_DT:
        raise ValueError(f"grid step dt must lie in (0, {MAX_DT}], got {dt}")

    times = _time_grid(span, dt)
    if kind == EXPONENTIAL:
        beta = np.exp(-np.abs(times))
    elif kind == LONG_EXPONENTIAL:
        beta = math.sqrt(1.0 / n_t) * np.exp(-np.abs(times) / n_t)
    else:
        beta = _spectral_envelope(times)
    return PulseGrid(times=times, beta_in=beta)


def _decay_sums(f: np.ndarray, dt: float) -> tuple[np.ndarray, ...]:
    """S_j[n] = sum_{i<=n} i^j r^i f[n-i] for j = 0, 1, 2, with r = e^{-dt}.

    Each obeys y[n] = r y[n-1] + g[n] from y[-1] = 0: g[n] is f[n] for S_0,
    r S_0[n-1] for S_1 and r (S_0 + 2 S_1)[n-1] for S_2.  A block of the
    recursion is the cumsum of g[i] e^{i dt} over e^{i dt}, the previous
    block's last value carried into its first term.
    """
    r = math.exp(-dt)
    size = min(f.size, max(1, int(300.0 / dt)))  # 300 decay times: weights below e^300
    grow = np.exp(dt * np.arange(size))

    def recur(g: np.ndarray) -> np.ndarray:
        out, carry = np.empty_like(g), 0.0
        for start in range(0, g.size, size):
            block = out[start : start + size]
            np.multiply(g[start : start + size], grow[: block.size], out=block)
            block[0] += r * carry
            np.cumsum(block, out=block)
            block /= grow[: block.size]
            carry = block[-1]
        return out

    s0 = recur(f)
    s1 = recur(np.concatenate(([0.0], r * s0[:-1])))
    return s0, s1, recur(np.concatenate(([0.0], r * (s0[:-1] + 2.0 * s1[:-1]))))


def response_functions(pulse: PulseGrid) -> PulseGrid:
    """Attach the cavity response functions beta0, beta1, beta2 to the grid.

    Causal convolutions of beta_in with sqrt(2) tau^j e^{-tau}, j = 0, 1, 2,
    evaluated by trapezoid quadrature; on the grid the kernel is
    sqrt(2) dt^j i^j e^{-i dt}, so the sums come from exact recursions.
    """
    f, dt = pulse.beta_in, pulse.dt
    tau = pulse.times - pulse.times[0]
    s0, s1, s2 = _decay_sums(f, dt)
    # trapezoid end corrections: the tau = 0 sample and the earliest sample
    # each carry half weight
    edge = 0.5 * dt * f[0] * math.sqrt(2.0) * np.exp(-tau)
    b0 = math.sqrt(2.0) * dt * (s0 - 0.5 * f) - edge
    b1 = math.sqrt(2.0) * dt**2 * s1 - tau * edge
    b2 = math.sqrt(2.0) * dt**3 * s2 - tau * tau * edge
    return _attach(pulse, beta0=b0, beta1=b1, beta2=b2)


def peak_intracavity(pulse: PulseGrid) -> float:
    """max_t |beta0(t)|^2; multiply by N_p for the peak photon number."""
    return float(np.max(np.abs(_stage(pulse, "beta0")) ** 2))


def _exponential_peak(stretch: float) -> float:
    """max_t |beta0(t)|^2 of the unit-mass pulse stretch^{-1/2} e^{-|t|/stretch}, exactly.

    With a = 1/stretch the response peaks at 2a ((1 + a)/2)^{2a/(1 - a)}, whose
    exponent is a log1p(-h)/h with h = (1 - a)/2.  h is floored at the
    smallest subnormal, where log1p(-h) = -h exactly, so stretch = 1 gives the
    limit 2/e with no branch.
    """
    a = 1.0 / stretch
    half_gap = max((1.0 - a) / 2.0, math.ulp(0.0))
    return 2.0 * a * math.exp(a * math.log1p(-half_gap) / half_gap)


def set_local_oscillator(pulse: PulseGrid, shape="beta1") -> PulseGrid:
    """Choose the local-oscillator temporal mode, normalized to unit L2 mass.

    ``shape`` is "beta1" or "beta2" (matched filtering on the corresponding
    response function) or an explicit sample array on the same grid.
    """
    if isinstance(shape, str):
        if shape not in ("beta1", "beta2"):
            raise ValueError(f"shape must be 'beta1', 'beta2' or an array, got {shape!r}")
        ref = _stage(pulse, shape)
    else:
        if np.iscomplexobj(shape):
            raise ValueError("local-oscillator samples must be real")
        ref = np.asarray(shape, dtype=float)
        if ref.shape != pulse.times.shape:
            raise ValueError("local-oscillator samples must match the time grid")
    mass = l2_mass(pulse.times, ref)
    if not 0.0 < mass < math.inf:  # NaN fails too
        raise ValueError(f"local-oscillator envelope needs finite, nonzero mass, got {mass}")
    return _attach(pulse, beta_lo=ref / math.sqrt(mass))


def strengths_numeric(pulse: PulseGrid, cavity: CavityParams, phi: float) -> tuple[float, float]:
    """Quadrature evaluation of the two measurement strengths (chi_x, chi_p).

    chi_x = sqrt(N_p) sqrt(2) (Omega/kappa)^2 cos(phi) int beta_lo beta2 dt,
    chi_p = sqrt(N_p) 2 sqrt(2) (Omega/kappa) sin(phi) int beta_lo beta1 dt,
    with the sqrt(N_p) prefactor carried by the probe amplitude.
    """
    beta_lo = _stage(pulse, "beta_lo")
    beta1, beta2 = _stage(pulse, "beta1"), _stage(pulse, "beta2")
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi}")
    ratio = cavity.omega / cavity.kappa
    root_np = math.sqrt(cavity.n_photons)
    overlap2 = _simpson(pulse.times, beta_lo * beta2)
    overlap1 = _simpson(pulse.times, beta_lo * beta1)
    # sqrt(N_p) multiplies last so the photon number scales the result exactly
    chi_x = math.sqrt(2.0) * ratio * ratio * math.cos(phi) * overlap2 * root_np
    chi_p = 2.0 * math.sqrt(2.0) * ratio * math.sin(phi) * overlap1 * root_np
    return chi_x, chi_p


def accumulated_phase(kind: str, cavity: CavityParams) -> float:
    """Deterministic spin-z phase imprinted by the optimal probe pulses.

    Only the two optimized protocols have closed forms:
    -5 Omega N_p / (3 kappa) for the flat-top spectral pulse and
    -3 Omega N_p / (2 kappa) for the exponential pulse.  Other pulse kinds
    are rejected rather than approximated.
    """
    ratio = cavity.omega / cavity.kappa * cavity.n_photons
    if kind == OPTIMAL_X_SPECTRAL:
        return -5.0 * ratio / 3.0
    if kind == EXPONENTIAL:
        return -1.5 * ratio
    raise ValueError(f"no accumulated-phase formula for pulse kind {kind!r}")


def feasibility(
    cavity: CavityParams,
    kind: str = EXPONENTIAL,
    n_t: float = 1.0,
    threshold: float = 0.01,
) -> FeasibilityReport:
    """Check the dispersive-regime photon budget for the given probe choice.

    The peak intracavity photon number N_p max|beta0|^2 must stay well below
    (Delta/g)^2; ``threshold``, a positive fraction of that bound, sets how
    much headroom "well below" means.  Every kind's max|beta0|^2 is a closed
    form, O(1) for any ``n_t``: Basset's integral (DLMF 10.32.11) and its
    t-derivative give the flat-top response (2/sqrt(pi)) sqrt(8/(3 pi)) (t^2/3)
    (K_2(|t|) + sgn(t) K_1(|t|)), whose peak is ``_FLAT_TOP_PEAK``.
    """
    if not (math.isfinite(threshold) and threshold > 0):
        raise ValueError(f"threshold must be positive and finite, got {threshold}")
    stretch = _stretch(kind, n_t)
    peak = _FLAT_TOP_PEAK if kind == OPTIMAL_X_SPECTRAL else _exponential_peak(stretch)
    max_photons = cavity.n_photons * peak
    dispersive = (cavity.delta / cavity.g) ** 2
    chi_x_bound = math.sqrt(42.0) * cavity.g**3 / (cavity.kappa**2 * abs(cavity.delta))
    # sqrt(n_t) apart, so that no n_t up to the largest float overflows the product
    chi_p_bound = cavity.g * math.sqrt(20.0 * math.e) * math.sqrt(stretch) / cavity.kappa
    return FeasibilityReport(
        max_intracavity_photons=max_photons,
        dispersive_bound=dispersive,
        chi_x_bound=chi_x_bound,
        chi_p_bound=chi_p_bound,
        ok=bool(max_photons < threshold * dispersive),
        threshold=threshold,
    )
