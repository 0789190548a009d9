"""Closed-form references the benchmark checks spinprep's outputs against.

Everything here is written from the formulas in the paper and the package
docstrings, not from spinprep's code, so a check fails when the program
drifts from the physics rather than when it drifts from itself.  Tolerances
are set by the discretization the program is allowed (pulse grids,
quadrature), never by golden output bytes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import erf, gammaln


class CheckFailed(Exception):
    """An output of the program disagrees with its closed-form reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_xi_d(xi: float, n_atoms: int) -> None:
    """Dicke squeezing parameter between the Heisenberg floor and the CSS."""
    require(
        math.isfinite(xi) and 1.0 / (n_atoms + 2) - 1e-12 <= xi <= 1.0 + 1e-12,
        f"xi_D {xi!r} outside [1/(N+2), 1] for N = {n_atoms}",
    )


def check_fidelity(f: float) -> None:
    require(math.isfinite(f) and 0.0 <= f <= 1.0 + 1e-12, f"fidelity {f!r} outside [0, 1]")


def check_density(d: float) -> None:
    require(math.isfinite(d) and d > 0.0, f"outcome density {d!r} not finite and positive")


def css_probabilities(n_atoms: int) -> np.ndarray:
    """P(m) of the coherent spin state along x: the symmetric binomial."""
    k = np.arange(n_atoms + 1)
    log_p = gammaln(n_atoms + 1) - gammaln(k + 1) - gammaln(n_atoms - k + 1) - n_atoms * math.log(2.0)
    return np.exp(log_p)


def record_centers(n_atoms: int, chi_x: float, chi_p: float) -> np.ndarray:
    """Outcome-density centers -(chi_x m^2 + chi_p m) per Dicke level."""
    m = np.arange(n_atoms + 1) - n_atoms / 2.0
    return -(chi_x * m * m + chi_p * m)


def mixture_window_probability(p: np.ndarray, centers: np.ndarray, lo: float, hi: float) -> float:
    """P(lo <= Y <= hi) for the variance-1/2 Gaussian mixture, via erf."""
    return float(0.5 * np.sum(p * (erf(hi - centers) - erf(lo - centers))))


def chi_p_exponential(omega_over_kappa: float, n_photons: float) -> float:
    """Optimal phase-quadrature strength of the two-sided exponential pulse."""
    return math.sqrt(10.0 * n_photons) * omega_over_kappa


def chi_x_spectral(omega_over_kappa: float, n_photons: float) -> float:
    """Optimal amplitude-quadrature strength of the flat-top spectral pulse."""
    return math.sqrt(42.0 * n_photons) * omega_over_kappa**2 / 2.0


def chi_p_stretched(omega_over_kappa: float, n_photons: float, n_t: float) -> float:
    """Matched-filter chi_p of the pulse n_t^{-1/2} exp(-|t|/n_t).

    chi_p = 2 sqrt(2) (Omega/kappa) sqrt(N_p) ||beta1||, with ||beta1||^2
    evaluated in the frequency domain, where the tau e^{-tau} cavity kernel
    and the exponential pulse both have rational spectra:
    ||beta1||^2 = (1/2 pi) int 8 a^3 / ((1 + w^2)^2 (a^2 + w^2)^2) dw, a = 1/n_t.
    For n_t = 1 this is 5/4, which gives chi_p_exponential.
    """
    a = 1.0 / n_t
    half, _ = quad(
        lambda w: 8.0 * a**3 / ((1.0 + w * w) ** 2 * (a * a + w * w) ** 2),
        0.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=200,
    )
    return 2.0 * math.sqrt(2.0) * omega_over_kappa * math.sqrt(n_photons) * math.sqrt(half / math.pi)


def peak_intracavity_exponential(n_t: float) -> float:
    """max_t |beta0(t)|^2 for the unit-norm pulse n_t^{-1/2} exp(-|t|/n_t).

    The response peaks at t* = ln(2/(1+a))/(1-a), a = 1/n_t, where
    |beta0|^2 = 2a ((1+a)/2)^{2a/(1-a)}; the limit a -> 1 is 2/e.
    """
    a = 1.0 / n_t
    if abs(1.0 - a) < 1e-9:
        return 2.0 / math.e
    return 2.0 * a * ((1.0 + a) / 2.0) ** (2.0 * a / (1.0 - a))


def relative_error(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)
