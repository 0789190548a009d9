import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad, simpson
from scipy.signal import fftconvolve

import spinprep
from spinprep import (
    CavityParams,
    PulseGrid,
    accumulated_phase,
    build_pulse,
    feasibility,
    peak_intracavity,
    response_functions,
    set_local_oscillator,
    strengths_numeric,
)
from spinprep.pulse_optics import l2_mass

CAVITY = CavityParams.from_two_pi_megahertz(0.4, 3000.0, 1.0, 100.0)


def exp_beta0_exact(t):
    """Closed-form response to the two-sided exponential pulse."""
    return np.where(
        t >= 0,
        np.exp(-t) * (1 / math.sqrt(2) + math.sqrt(2) * t),
        np.exp(t) / math.sqrt(2),
    )


def long_pulse_peak_exact(n_t):
    """Analytic max_t |beta0|^2 for the stretched exponential pulse."""
    a = n_t / (n_t - 1.0)
    b = 2.0 * n_t / (n_t**2 - 1.0)
    x_star = n_t * math.log(2.0 * n_t / (n_t + 1.0)) / (n_t - 1.0)
    val = math.sqrt(2.0 / n_t) * (a * math.exp(-x_star / n_t) - b * math.exp(-x_star))
    return val * val


# ---------------------------------------------------------------- envelopes


def test_exponential_envelope(exp_pulse):
    mid = exp_pulse.times.size // 2
    assert exp_pulse.times[mid] == 0.0
    assert exp_pulse.beta_in[mid] == pytest.approx(1.0)
    assert simpson(exp_pulse.beta_in**2, x=exp_pulse.times) == pytest.approx(
        1.0, abs=1e-6
    )


def test_long_envelope(long10_pulse):
    mid = long10_pulse.times.size // 2
    assert long10_pulse.beta_in[mid] == pytest.approx(math.sqrt(0.1))
    assert simpson(long10_pulse.beta_in**2, x=long10_pulse.times) == pytest.approx(
        1.0, abs=1e-6
    )


def test_spectral_parseval(spectral_pulse):
    mass = simpson(spectral_pulse.beta_in**2, x=spectral_pulse.times)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_spectral_matches_bessel_closed_form(spectral_pulse):
    # the envelope is |t| K1(|t|) up to normalization; the reference is the
    # unitary cosine transform of the unit-L2 spectrum sqrt(8/(3 pi)) (1 + w^2)^{-3/2},
    # by QUADPACK's Fourier-weighted rule on [0, inf)
    norm = math.sqrt(8.0 / (3.0 * math.pi)) * math.sqrt(2.0 / math.pi)
    for t in (0.0, 0.1, 1.0, 5.0, 20.0):
        k = int(np.argmin(np.abs(spectral_pulse.times - t)))
        integral, _ = quad(
            lambda w: (1.0 + w * w) ** -1.5, 0.0, np.inf,
            weight="cos", wvar=spectral_pulse.times[k], epsabs=1e-12,
        )
        assert spectral_pulse.beta_in[k] == pytest.approx(norm * integral, rel=0, abs=1e-9)


def test_grid_validation():
    with pytest.raises(ValueError):
        build_pulse("exponential", span=5.0)  # too short
    with pytest.raises(ValueError):
        build_pulse("exponential", dt=0.02)  # too coarse
    with pytest.raises(ValueError):
        build_pulse("sawtooth")
    with pytest.raises(ValueError):
        build_pulse("long_exponential", n_t=0.5)
    with pytest.raises(ValueError):
        build_pulse("long_exponential", n_t=10.0, span=20.0)  # pulse escapes grid


def test_even_sample_count_is_rejected():
    # the composite Simpson rule needs an odd count
    times = np.linspace(-30.0, 30.0, 12000)
    beta = np.exp(-np.abs(times))
    with pytest.raises(ValueError, match="odd sample count, got 12000"):
        PulseGrid(times=times, beta_in=beta, kind="exponential")


def test_complex_envelope_is_rejected():
    pulse = build_pulse("exponential")
    with pytest.raises(ValueError, match="beta_in must be real"):
        PulseGrid(times=pulse.times, beta_in=pulse.beta_in * 1j, kind="exponential")


@pytest.mark.parametrize(
    "change, match",
    [
        pytest.param(lambda t, b: {"kind": "sawtooth"}, "expected one of", id="unknown-kind"),
        pytest.param(lambda t, b: {"times": t[None, :]}, "1-d grid", id="2d-times"),
        pytest.param(
            lambda t, b: {"times": t[:2], "beta_in": b[:2]}, "at least 3", id="2-samples"
        ),
        pytest.param(lambda t, b: {"times": t[:-1], "beta_in": b[:-1]}, "odd", id="even-count"),
        pytest.param(
            lambda t, b: {"times": np.where(t > 0, 1.001 * t, t)}, "uniformly", id="non-uniform"
        ),
        pytest.param(lambda t, b: {"beta_in": b * 1j}, "beta_in must be real", id="complex"),
        pytest.param(lambda t, b: {"beta_in": b[:-2]}, "match the time grid", id="shape"),
        pytest.param(
            lambda t, b: {"beta_in": b * math.sqrt(1.0 + 2e-6)}, "deviates from 1", id="mass"
        ),
        pytest.param(lambda t, b: {"beta_in": np.where(t == 0, np.nan, b)}, "mass nan", id="nan"),
    ],
)
def test_pulse_grid_rejections(exp_pulse, change, match):
    fields = {"times": exp_pulse.times, "beta_in": exp_pulse.beta_in, "kind": "exponential"}
    fields.update(change(exp_pulse.times, exp_pulse.beta_in))
    with pytest.raises(ValueError, match=match):
        PulseGrid(**fields)


@pytest.mark.parametrize(
    "grid",
    [{"dt": 0.0}, {"dt": -0.005}, {"dt": math.nan}, {"span": math.nan}, {"span": math.inf}],
    ids=["dt-zero", "dt-negative", "dt-nan", "span-nan", "span-inf"],
)
def test_grid_arguments_fail_as_value_errors(grid):
    with pytest.raises(ValueError, match="grid (span|step)"):
        build_pulse("exponential", **grid)


def test_step_comes_from_the_span(long10_pulse):
    # times[1] - times[0] is 9.1e-13 relative off on this grid
    t = long10_pulse.times
    assert long10_pulse.dt == (t[-1] - t[0]) / (t.size - 1)


def test_stages_attach_to_a_copy(exp_pulse):
    lo = set_local_oscillator(exp_pulse, "beta1")
    assert exp_pulse.beta_lo is None
    assert lo.beta1 is exp_pulse.beta1
    assert not lo.beta_lo.flags.writeable
    # replace runs the constructor again, which takes no stage arrays
    assert dataclasses.replace(lo).beta_lo is None


def test_import_loads_no_heavy_scipy_submodule():
    # scipy.signal and what it pulls in triple the import time of the package
    src = os.path.dirname(os.path.dirname(spinprep.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, spinprep; print(' '.join(sorted(sys.modules)))"
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "spinprep" in loaded
    for name in ("scipy.signal", "scipy.integrate", "scipy.stats"):
        assert name not in loaded


# ---------------------------------------------------------------- responses


def test_response_exponential_closed_form(exp_pulse):
    np.testing.assert_allclose(
        exp_pulse.beta0, exp_beta0_exact(exp_pulse.times), atol=2e-5
    )


def test_peak_exponential(exp_pulse):
    assert peak_intracavity(exp_pulse) == pytest.approx(2 / math.e, rel=1e-4)
    # the maximum sits half a cavity lifetime after the pulse center
    t_star = exp_pulse.times[np.argmax(np.abs(exp_pulse.beta0) ** 2)]
    assert t_star == pytest.approx(0.5, abs=exp_pulse.dt)


def test_peak_spectral(exp_pulse, spectral_pulse):
    # grid-refined reference value; any unit-norm pulse is bounded by 1
    peak = peak_intracavity(spectral_pulse)
    assert peak < 1.0
    assert peak == pytest.approx(0.642285, rel=1e-3)


def test_peak_long_matches_analytic(long10_pulse):
    assert peak_intracavity(long10_pulse) == pytest.approx(
        long_pulse_peak_exact(10.0), rel=1e-3
    )


@pytest.mark.parametrize("fixture", ["exp_pulse", "spectral_pulse", "long10_pulse"])
def test_response_edge_decay(fixture, request):
    pulse = request.getfixturevalue(fixture)
    for arr in (pulse.beta0, pulse.beta1, pulse.beta2):
        assert abs(arr[0]) < 1e-6  # before the pulse support
        assert abs(arr[-1]) < 1e-6  # decayed by the grid edge


def _response_oracle(pulse):
    """scipy's fftconvolve with the same trapezoid end corrections."""
    tau = pulse.times - pulse.times[0]
    dt, f = pulse.dt, pulse.beta_in
    out = []
    for j in range(3):
        kernel = math.sqrt(2.0) * tau**j * np.exp(-tau)
        full = fftconvolve(f, kernel)[: f.size] * dt
        out.append(full - 0.5 * dt * kernel[0] * f - 0.5 * dt * kernel * f[0])
    return out


@pytest.mark.parametrize(
    "kind, n_t, span, dt, size",
    [
        ("optimal_x_spectral", 1.0, 12.0, 0.01, 2401),
        ("exponential", 1.0, 30.0, 0.005, 12001),
        ("long_exponential", 2.0, 60.0, 0.005, 24001),
    ],
)
def test_responses_match_scipy_convolution(kind, n_t, span, dt, size):
    pulse = response_functions(build_pulse(kind, n_t=n_t, span=span, dt=dt))
    assert pulse.times.size == size
    for got, want in zip((pulse.beta0, pulse.beta1, pulse.beta2), _response_oracle(pulse)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_peak_requires_responses():
    with pytest.raises(ValueError, match="response functions not computed"):
        peak_intracavity(build_pulse("exponential"))


# ---------------------------------------------------------------- strengths


def test_chi_p_oracle(exp_pulse):
    pulse = set_local_oscillator(exp_pulse, "beta1")
    for n_p in (1.0, 10.0, 100.0, 1e4):
        cav = CavityParams(CAVITY.g, CAVITY.delta, CAVITY.kappa, n_p)
        _, chi_p = strengths_numeric(pulse, cav, math.pi / 2)
        oracle = math.sqrt(10.0 * n_p) * cav.omega / cav.kappa
        assert chi_p == pytest.approx(oracle, rel=1e-4)


def test_chi_x_oracle(spectral_pulse):
    pulse = set_local_oscillator(spectral_pulse, "beta2")
    for n_p in (1.0, 10.0, 100.0, 1e4):
        cav = CavityParams(CAVITY.g, CAVITY.delta, CAVITY.kappa, n_p)
        chi_x, _ = strengths_numeric(pulse, cav, 0.0)
        oracle = math.sqrt(42.0 * n_p) * cav.omega**2 / (2.0 * cav.kappa**2)
        assert chi_x == pytest.approx(oracle, rel=1e-3)


def test_chi_p_vanishes_at_phi_zero(exp_pulse):
    pulse = set_local_oscillator(exp_pulse, "beta1")
    _, chi_p = strengths_numeric(pulse, CAVITY, 0.0)
    assert chi_p == 0.0


def test_strengths_scale_as_sqrt_photon_number(exp_pulse):
    pulse = set_local_oscillator(exp_pulse, "beta1")
    cav1 = CavityParams(CAVITY.g, CAVITY.delta, CAVITY.kappa, 1.0)
    cav9 = CavityParams(CAVITY.g, CAVITY.delta, CAVITY.kappa, 9.0)
    _, chi1 = strengths_numeric(pulse, cav1, math.pi / 2)
    _, chi9 = strengths_numeric(pulse, cav9, math.pi / 2)
    assert chi9 == 3.0 * chi1  # the photon number enters only as sqrt(N_p)


def test_chi_p_error_shrinks_with_dt():
    errors = []
    for dt in (0.01, 0.005, 0.0025):
        pulse = set_local_oscillator(
            response_functions(build_pulse("exponential", dt=dt)), "beta1"
        )
        _, chi_p = strengths_numeric(pulse, CAVITY, math.pi / 2)
        oracle = math.sqrt(10.0 * CAVITY.n_photons) * CAVITY.omega / CAVITY.kappa
        errors.append(abs(chi_p - oracle) / oracle)
    assert errors[0] > errors[1] > errors[2]


@pytest.mark.parametrize("fixture", ["exp_pulse", "spectral_pulse", "long10_pulse"])
def test_quadrature_matches_scipy_simpson(fixture, request):
    pulse = request.getfixturevalue(fixture)
    t = pulse.times
    for values in (pulse.beta_in, pulse.beta1, pulse.beta2):
        assert l2_mass(t, values) == pytest.approx(simpson(values**2, x=t), rel=1e-12)
    phi = 0.3
    for shape in ("beta1", "beta2"):
        lo = set_local_oscillator(pulse, shape)
        chi_x, chi_p = strengths_numeric(lo, CAVITY, phi)
        ratio, root_np = CAVITY.omega / CAVITY.kappa, math.sqrt(CAVITY.n_photons)
        overlap2 = simpson(lo.beta_lo * lo.beta2, x=t)
        overlap1 = simpson(lo.beta_lo * lo.beta1, x=t)
        want_x = math.sqrt(2.0) * ratio**2 * math.cos(phi) * overlap2 * root_np
        want_p = 2.0 * math.sqrt(2.0) * ratio * math.sin(phi) * overlap1 * root_np
        assert chi_x == pytest.approx(want_x, rel=1e-12)
        assert chi_p == pytest.approx(want_p, rel=1e-12)


def test_strengths_error_paths(exp_pulse):
    with pytest.raises(ValueError, match="local oscillator not set"):
        strengths_numeric(exp_pulse, CAVITY, 0.0)  # no local oscillator
    bare = build_pulse("exponential")
    # with neither stage run, the local-oscillator check comes first
    with pytest.raises(ValueError, match="local oscillator not set"):
        strengths_numeric(bare, CAVITY, 0.0)
    with pytest.raises(ValueError, match="response functions not computed"):
        set_local_oscillator(bare, "beta1")  # responses missing
    with pytest.raises(ValueError):
        set_local_oscillator(exp_pulse, "beta9")


def test_local_oscillator_from_array(exp_pulse):
    custom = np.exp(-((exp_pulse.times - 1.0) ** 2))
    pulse = set_local_oscillator(exp_pulse, custom)
    assert simpson(pulse.beta_lo**2, x=pulse.times) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        set_local_oscillator(exp_pulse, custom[:-1])
    with pytest.raises(ValueError):
        set_local_oscillator(exp_pulse, np.zeros_like(custom))
    with pytest.raises(ValueError, match="finite, nonzero mass"):
        set_local_oscillator(exp_pulse, np.where(exp_pulse.times == 0, np.nan, custom))
    with pytest.raises(ValueError, match="must be real"):
        set_local_oscillator(exp_pulse, custom * (1.0 + 1.0j))


# ---------------------------------------------------------------- phase


def test_accumulated_phase_values():
    # Omega/kappa = 0.01 with N_p = 100
    cav = CavityParams(g=1.0, delta=200.0, kappa=1.0, n_photons=100.0)
    assert cav.omega / cav.kappa == pytest.approx(0.01)
    assert accumulated_phase("optimal_x_spectral", cav) == pytest.approx(-5.0 / 3.0)
    assert accumulated_phase("exponential", cav) == pytest.approx(-1.5)


def test_accumulated_phase_no_probe_limit():
    cav = CavityParams(g=1.0, delta=200.0, kappa=1.0, n_photons=0.0)
    assert accumulated_phase("exponential", cav) == 0.0


def test_accumulated_phase_rejects_other_kinds():
    with pytest.raises(ValueError):
        accumulated_phase("long_exponential", CAVITY)


# ---------------------------------------------------------------- feasibility


def test_feasibility_reference_numbers():
    report = feasibility(CAVITY)
    assert report.chi_x_bound == pytest.approx(1.4e-4, rel=0.05)
    assert report.chi_p_bound == pytest.approx(3.0, rel=0.05)
    assert report.dispersive_bound == pytest.approx(7500.0**2)
    assert report.ok


def test_feasibility_long_pulse_bound():
    report = feasibility(CAVITY, kind="long_exponential", n_t=10.0)
    assert report.chi_p_bound == pytest.approx(3.0 * math.sqrt(10.0), rel=0.05)
    # stretching lowers the instantaneous field
    assert report.max_intracavity_photons < feasibility(CAVITY).max_intracavity_photons


def test_feasibility_flags_strong_probe():
    strong = CavityParams(CAVITY.g, CAVITY.delta, CAVITY.kappa, 1e7)
    assert not feasibility(strong).ok


def test_cavity_params():
    cav = CavityParams(g=2.0, delta=-8.0, kappa=1.0, n_photons=4.0)
    assert cav.omega == pytest.approx(1.0)
    with pytest.raises(ValueError):
        CavityParams(g=0.0, delta=1.0, kappa=1.0, n_photons=1.0)
    with pytest.raises(ValueError):
        CavityParams(g=1.0, delta=0.0, kappa=1.0, n_photons=1.0)
    with pytest.raises(ValueError):
        CavityParams(g=1.0, delta=1.0, kappa=1.0, n_photons=-2.0)
    converted = CavityParams.from_two_pi_megahertz(0.4, 3000.0, 1.0, 10.0)
    assert converted.g == pytest.approx(2 * math.pi * 0.4e6)
