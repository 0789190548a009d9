"""The coherent-state prior on a window of levels, and states that hold a band.

Every CSS-conditioned path reads the prior only on the window of Dicke levels
its records' bands index, through ``css_log_window``, and builds a post state
only on its record's band, which the state holds; every reader of a state
reads that band alone.  These tests pin that against the whole-ladder
constructions and dense forms, against exact rational arithmetic, and in
memory at N = 10^7.
"""

import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from _oracles import (
    dense_acceptance,
    dense_moments,
    exact_css_log_density,
    exact_dss_xi_d,
    exact_log_binomial_ratio,
    exact_log_css_level,
    full_ladder_amplitudes,
    lattice_gaussian_log_density,
)

from spinprep import (
    CssPrior,
    MeasurementSetting,
    SpinEnsembleState,
    acceptance_probability,
    apply_measurement,
    css_log_window,
    dss_rows,
    fidelity,
    make_css,
    make_dicke,
    observables,
    outcome_pdf,
    posterior_batch,
    prepare_dss,
    prepare_superposition,
    superposition_rows,
)
from spinprep.spin_core import m_ladder

# (N, chi, record) per protocol: a band of a few levels at N = 40 and of
# about 1800 (DSS) or 750 (two-Dicke) levels out of 10^5 + 1
DSS_CASES = ((40, 0.8, 3.0), (10**5, 0.03, 3.0))
SUPERPOSITION_CASES = ((40, 0.2, -5.0), (10**5, 2e-4, -2.0))


def _full_ladder_post(prior, setting, outcome, phase):
    """Post state's amplitudes through the full-ladder rows of the kernel's default ``reduce``."""
    probs, _ = posterior_batch(prior, outcome, setting.chi_x, setting.chi_p)
    return full_ladder_amplitudes(probs[0], phase)


@pytest.mark.parametrize("eta", [0.0, 0.37])
@pytest.mark.parametrize("n_atoms, chi_p, outcome", DSS_CASES)
def test_dss_band_post_state_matches_full_ladder(n_atoms, chi_p, outcome, eta):
    result = prepare_dss(n_atoms, chi_p, outcome, eta)
    setting = MeasurementSetting(chi_p=chi_p)
    expected = _full_ladder_post(CssPrior(n_atoms), setting, outcome, eta * m_ladder(n_atoms))
    np.testing.assert_array_equal(result.post_state.amplitudes, expected)


@pytest.mark.parametrize("eta", [0.0, 0.37])
@pytest.mark.parametrize("n_atoms, chi_x, outcome", SUPERPOSITION_CASES)
def test_superposition_band_post_state_matches_full_ladder(n_atoms, chi_x, outcome, eta):
    result = prepare_superposition(n_atoms, chi_x, outcome, eta)
    setting = MeasurementSetting(chi_x=chi_x)
    expected = _full_ladder_post(CssPrior(n_atoms), setting, outcome, eta * m_ladder(n_atoms))
    np.testing.assert_array_equal(result.post_state.amplitudes, expected)


@pytest.mark.parametrize("eta", [0.0, 0.37])
@pytest.mark.parametrize("n_atoms, chi_p, outcome", DSS_CASES)
def test_apply_measurement_band_post_state_matches_full_ladder(n_atoms, chi_p, outcome, eta):
    # a CSS with a twist phase 0.3 m^2, so the prior's own phases are carried too
    css = make_css(n_atoms)
    m = m_ladder(n_atoms)
    state = SpinEnsembleState(n_atoms, css.amplitudes * np.exp(0.3j * m * m))
    setting = MeasurementSetting(chi_p=chi_p, eta=eta)
    post, _ = apply_measurement(state, setting, outcome)
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.abs(state.amplitudes))
    expected = _full_ladder_post(log_mag, setting, outcome, np.angle(state.amplitudes) + eta * m)
    np.testing.assert_array_equal(post.amplitudes, expected)


@pytest.mark.parametrize("n_atoms", [1, 2, 7, 40, 1001, 10**5])
def test_css_windows_holding_the_centre_equal_the_whole_ladder(n_atoms):
    # every band of a CSS-conditioned record holds the prior's top level N // 2,
    # so every window the kernel reads is one of these
    full = css_log_window(n_atoms, 0, n_atoms + 1)
    center = n_atoms // 2
    for first, stop in {(0, n_atoms + 1), (center, center + 1), (0, center + 1),
                        (center, n_atoms + 1), (max(0, center - 3), min(n_atoms + 1, center + 9))}:
        window = css_log_window(n_atoms, first, stop)
        np.testing.assert_array_equal(window, full[first:stop])


def test_css_windows_off_the_centre_differ_by_the_anchor_rounding_only():
    n_atoms = 10**5
    full = css_log_window(n_atoms, 0, n_atoms + 1)
    # the whole ladder reaches these levels through running sums of up to 5e4
    # steps, which round at the scale of |log a_m|, up to N log 2 / 2 here
    tol = 4 * np.spacing(math.lgamma(n_atoms + 1))
    windows = ((0, 10), (100, 2000), (40_000, 49_999), (50_001, 52_000), (99_000, n_atoms + 1))
    for first, stop in windows:
        window = css_log_window(n_atoms, first, stop)
        assert np.abs(window - full[first:stop]).max() <= tol
        # within the window, level-to-level ratios are exact to a few ulps of log|a_m|
        local = 2.0 * (window[:5] - window[0])
        exact = [exact_log_binomial_ratio(n_atoms, k, first) for k in range(first, first + 5)]
        atol = 8 * np.spacing(np.abs(window[:5]).max())
        np.testing.assert_allclose(local, exact, rtol=0, atol=atol)


@pytest.mark.parametrize("bad", [(-1, 3), (3, 3), (0, 42), (5, 2)])
def test_css_window_must_lie_inside_the_ladder(bad):
    with pytest.raises(ValueError, match="window"):
        css_log_window(40, *bad)


@pytest.mark.parametrize("n_atoms", [40, 1001, 10**5])
def test_css_prior_conditions_as_its_array(n_atoms):
    records = np.array([-4.0, 0.0, 0.7, 3.0, 25.0])
    reduce = lambda weights, mass, rows, first, count: np.concatenate(  # noqa: E731
        (weights / mass[:, None], first[:, None], count[:, None]), axis=1
    )
    for chi_x, chi_p in ((0.0, 0.5), (0.01, 0.0), (0.02, 0.3)):
        band, log_density = posterior_batch(CssPrior(n_atoms), records, chi_x, chi_p, reduce)
        band_ref, log_density_ref = posterior_batch(
            css_log_window(n_atoms, 0, n_atoms + 1), records, chi_x, chi_p, reduce
        )
        np.testing.assert_array_equal(band, band_ref)
        np.testing.assert_array_equal(log_density, log_density_ref)


def test_css_log_ratios_match_exact_binomials():
    n_atoms = 10**5
    center = n_atoms // 2
    log_amps = css_log_window(n_atoms, 0, n_atoms + 1)
    worst = max(
        abs(2.0 * (log_amps[k] - log_amps[center]) - exact_log_binomial_ratio(n_atoms, k, center))
        for k in range(center - 40, center + 41)
    )
    assert worst <= 1e-13


@pytest.mark.parametrize("n_atoms", [40, 41, 1000, 9999, 10**4])
def test_css_levels_match_exact_binomials(n_atoms):
    # log(C(N, k) / 2^N) to a few ulps of itself, off the centre and at the ends too
    levels = {0, 1, n_atoms // 4, n_atoms // 2 - 7, n_atoms // 2, n_atoms - 1, n_atoms}
    for k in sorted(levels):
        log_p = 2.0 * css_log_window(n_atoms, k, k + 1)[0]
        exact = exact_log_css_level(n_atoms, k)
        assert abs(log_p - exact) <= 1e-14 * max(1.0, abs(exact)), k


@pytest.mark.parametrize("chi_p", [0.5, 2.0])
@pytest.mark.parametrize("n_atoms", [40, 41, 1000, 9999, 10**4])
def test_css_record_density_matches_exact_binomials(n_atoms, chi_p):
    # records at 0 and +-3 sigma of the mixture, whose variance is 1/2 + chi_p^2 N / 4
    sigma = math.sqrt(0.5 + chi_p * chi_p * n_atoms / 4.0)
    records = [0.0, 3.0 * sigma, -3.0 * sigma]
    _, log_density = dss_rows(n_atoms, chi_p, records)
    for record, value in zip(records, log_density):
        assert abs(value - exact_css_log_density(n_atoms, chi_p, record)) <= 1e-14, record


@pytest.mark.parametrize("n_atoms", [2**30, 2**40, 2**50, 2**53])
def test_css_densities_match_the_lattice_gaussian_at_huge_n(n_atoms):
    # the levels at 0 and +-3 sigma of the CSS level law, where records at 0 and
    # +-3 sigma of the mixture point
    for sigmas in (0, 3, -3):
        k = n_atoms // 2 + round(sigmas * math.sqrt(n_atoms) / 2)
        m = k - n_atoms / 2
        log_p = 2.0 * css_log_window(n_atoms, k, k + 1)[0]
        gaussian = 0.5 * math.log(2.0 / (math.pi * n_atoms)) - 2.0 * m * m / n_atoms
        assert abs(log_p - gaussian) <= 1e-8, k
    # record densities: a record's band is bounded from its reference level, so
    # a record at +-3 sigma spans a few dozen levels at any N.  One call per
    # record: a batch's window runs from its lowest band to its highest, 3e8
    # levels apart at 2^53
    sigma = math.sqrt(0.5 + n_atoms)
    for record in (0.0, 3.0 * sigma, -3.0 * sigma):
        (value,) = dss_rows(n_atoms, 2.0, [record])[1]
        assert abs(value - lattice_gaussian_log_density(n_atoms, 2.0, record)) <= 1e-8, record


@pytest.mark.parametrize("outcome", [0.0, 0.7])
@pytest.mark.parametrize("n_atoms", [10**5, 10**6, 10**7])
def test_dss_xi_d_matches_exact_arithmetic_at_large_n(n_atoms, outcome):
    (xi_d,), _ = dss_rows(n_atoms, 2.0, [outcome])
    exact = exact_dss_xi_d(n_atoms, 2.0, outcome)
    assert abs(xi_d / exact - 1.0) <= 1e-13


def test_dss_rows_at_ten_million_atoms_never_holds_the_ladder():
    n_atoms = 10**7
    rng = np.random.default_rng(11)
    m = rng.binomial(n_atoms, 0.5, 2000) - n_atoms / 2
    records = rng.normal(-2.0 * m, math.sqrt(0.5))
    tracemalloc.start()
    try:
        xi_d, log_density = dss_rows(n_atoms, 2.0, records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # one float array over the ladder alone is 80 MB
    assert np.all((xi_d >= 1.0 / (n_atoms + 2)) & (xi_d <= 1.0))
    assert np.all(np.isfinite(log_density))


def test_states_at_ten_million_atoms_hold_their_band_only():
    # the post state holds its band of 31 levels (27 nonzero), and the next
    # update, the moments and the overlap read it alone; a dense post state
    # peaked at 153 MB, and apply_measurement and observables of it at 381 and 534 MB
    n_atoms = 10**7
    tracemalloc.start()
    try:
        post = prepare_dss(n_atoms, 2.0, 0.0).post_state
        again, density = apply_measurement(post, MeasurementSetting(chi_p=2.0, eta=0.3), 0.4)
        report = observables(again)
        overlap = fidelity(again, make_dicke(n_atoms, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # one complex array over the ladder alone is 160 MB
    assert post.band.size < 100 and again.band.size <= post.band.size
    assert 1.0 / (n_atoms + 2) <= report.xi_d < 1.0 and np.isfinite(density)
    assert 0.5 < overlap < 1.0


def test_far_records_at_huge_atom_counts_read_their_band_only():
    # a record 3 sigma from the centre of the CSS level law: its band, bounded
    # from the top level, held about 2^20 levels at N = 2^40 (179 MB) and was
    # killed for memory at 2^53; bounded from its reference level, it holds
    # a few dozen
    tracemalloc.start()
    try:
        xi_d, log_density = dss_rows(2**40, 2.0, [3 * 2**20])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert 1.0 / (2**40 + 2) <= xi_d[0] <= 1.0 and np.isfinite(log_density[0])
    xi_d, log_density = dss_rows(2**53, 2.0, [3 * math.sqrt(2**53)])
    assert np.isfinite(xi_d[0]) and np.isfinite(log_density[0])


def test_superposition_rows_read_the_prior_on_their_window_only():
    n_atoms = 10**7
    tracemalloc.start()
    try:
        fid, *_ = superposition_rows(n_atoms, 0.5, [-50.0, -200.0, 3.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert np.all((fid >= 0.0) & (fid <= 1.0 + 1e-12))


@st.composite
def banded_states(draw, n_atoms=None):
    """(state, dense amplitudes): a random band, zeros inside it, at a random place on the ladder."""
    if n_atoms is None:
        n_atoms = draw(st.integers(1, 3000))
    first = draw(st.integers(0, n_atoms))
    width = draw(st.integers(1, min(n_atoms + 1 - first, 400)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = rng.random(width)
    probs[rng.random(width) < 0.4] = 0.0
    probs[rng.integers(width)] = 1.0  # never the zero vector
    probs /= probs.sum()
    phase = rng.uniform(-math.pi, math.pi, width)
    state = SpinEnsembleState.from_probabilities(n_atoms, probs, phase, first)
    dense = np.zeros(n_atoms + 1, dtype=complex)
    dense[first : first + width] = full_ladder_amplitudes(probs, phase)
    return state, dense


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_banded_states_read_as_their_dense_forms(data):
    state, dense = data.draw(banded_states())
    n_atoms = state.atom_count
    levels = m_ladder(n_atoms)
    np.testing.assert_array_equal(state.amplitudes, dense)
    # the public constructor holds the span of the nonzero levels: the same dense vector
    np.testing.assert_array_equal(SpinEnsembleState(n_atoms, dense).amplitudes, dense)
    np.testing.assert_allclose(astuple(observables(state)), dense_moments(dense),
                               rtol=1e-12, atol=1e-12 * n_atoms)
    # bands that overlap this one or not, and a Dicke state anywhere on the ladder
    dicke = make_dicke(n_atoms, levels[data.draw(st.integers(0, n_atoms))])
    for other, other_dense in (data.draw(banded_states(n_atoms)), (dicke, dicke.amplitudes)):
        assert fidelity(state, other) == pytest.approx(
            abs(np.vdot(dense, other_dense)) ** 2, rel=1e-12, abs=1e-15)
    # a record near the center of an occupied level
    m = levels[data.draw(st.sampled_from(np.flatnonzero(dense).tolist()))]
    chi_x = data.draw(st.sampled_from([0.0, 1e-3, 0.05, 0.4]))
    chi_p = data.draw(st.sampled_from([0.0, 0.02, 0.3, 1.5]))
    setting = MeasurementSetting(chi_x=chi_x, chi_p=chi_p, eta=data.draw(st.sampled_from([0.0, 0.7])))
    record = data.draw(st.floats(-2.0, 2.0)) - (chi_x * m * m + chi_p * m)
    half_width = data.draw(st.sampled_from([0.1, 1.0, 4.0]))
    # both round target - c_m (the oracle twice) at the scale of the record, and the
    # window mass moves at most 2/sqrt(pi) times as much
    assert acceptance_probability(state, setting, record, half_width) == pytest.approx(
        dense_acceptance(dense, chi_x, chi_p, record, half_width),
        rel=1e-12, abs=2e-15 * (1.0 + abs(record)))
    # c_m rounded as the kernel rounds it: the record lies at the scale of c_m, and a
    # residual rounded otherwise moves exp(-residual^2) by 1e-11 at |c_m| ~ 10^5
    residuals = record + (chi_x * (levels * levels) + chi_p * levels)
    mixture = (np.abs(dense) ** 2) @ np.exp(-residuals * residuals) / math.sqrt(math.pi)
    assert outcome_pdf(state, setting, record) == pytest.approx(mixture, rel=1e-11)
    # the post state's dense form is the full-ladder post of the dense prior, bit for bit
    post, density = apply_measurement(state, setting, record)
    assert density == outcome_pdf(state, setting, record)
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.abs(dense))
    phase = np.angle(dense) + setting.eta * levels
    np.testing.assert_array_equal(post.amplitudes, _full_ladder_post(log_mag, setting, record, phase))
