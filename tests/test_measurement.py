import json
import math

import numpy as np
import pytest
from scipy.special import erf

from spinprep import (
    MeasurementRecord,
    MeasurementSetting,
    SpinEnsembleState,
    acceptance_probability,
    apply_measurement,
    compose,
    log_weights,
    make_css,
    make_dicke,
    outcome_pdf,
    posterior_batch,
    prob_distribution,
    sample_outcome,
    sample_outcomes,
)


def brute_css_post_probs(n_atoms, chi_x, chi_p, outcome):
    """Independent oracle: CSS measurement update from exact binomials."""
    s = n_atoms / 2
    weights = []
    for k in range(n_atoms + 1):
        m = k - s
        weights.append(
            math.comb(n_atoms, k)
            / 2**n_atoms
            * math.exp(-((outcome + chi_x * m * m + chi_p * m) ** 2))
        )
    total = sum(weights)
    return [w / total for w in weights]


def random_state(n_atoms, rng):
    amps = rng.normal(size=n_atoms + 1) + 1j * rng.normal(size=n_atoms + 1)
    return SpinEnsembleState.from_unnormalized(n_atoms, amps)


def mixture_moments(state, setting):
    """Exact mean/variance/fourth central moment of the outcome mixture."""
    p = np.abs(state.amplitudes) ** 2
    m = state.m_values
    centers = -(setting.chi_x * m * m + setting.chi_p * m)
    mean = float(p @ centers)
    c = centers - mean
    var = float(p @ (c * c)) + 0.5
    mu4 = float(p @ (c**4 + 3.0 * c * c + 0.75))
    return mean, var, mu4


# ---------------------------------------------------------------- log weights


def test_log_weights_identity_at_zero_setting():
    lw = log_weights(MeasurementSetting(), 0.0, 10)
    np.testing.assert_allclose(lw.real, -0.25 * math.log(math.pi))
    np.testing.assert_allclose(lw.imag, 0.0)


def test_log_weights_magnitude():
    lw = log_weights(MeasurementSetting(chi_p=1.0), 0.0, 8)
    idx_m1 = int(1 + 4)  # m = 1 at index m + S
    assert math.exp(lw.real[idx_m1]) == pytest.approx(
        math.pi ** (-0.25) * math.exp(-0.5)
    )


def test_log_weights_peak_at_record_matched_level():
    # record -5 with chi_x = 0.2 leaves zero exponent exactly at m^2 = 25
    lw = log_weights(MeasurementSetting(chi_x=0.2), -5.0, 30)
    re = lw.real
    top = np.flatnonzero(re == re.max())
    assert list(top) == [15 - 5, 15 + 5]


def test_setting_validation():
    with pytest.raises(ValueError):
        MeasurementSetting(chi_x=-0.1)
    with pytest.raises(ValueError):
        MeasurementSetting(chi_p=math.nan)
    with pytest.raises(ValueError):
        MeasurementSetting(eta=math.inf)


# ---------------------------------------------------------------- state update


def test_dicke_states_are_fixed_points():
    state = make_dicke(12, 3)
    setting = MeasurementSetting(chi_x=0.7, chi_p=0.3, eta=0.9)
    outcome = -1.8
    post, density = apply_measurement(state, setting, outcome)
    assert abs(np.vdot(post.amplitudes, state.amplitudes)) == pytest.approx(1.0)
    center = setting.chi_x * 9 + setting.chi_p * 3
    expected = math.pi ** (-0.5) * math.exp(-((outcome + center) ** 2))
    assert density == pytest.approx(expected, rel=1e-12)


def test_dss_update_matches_brute_force():
    post, _ = apply_measurement(make_css(40), MeasurementSetting(chi_p=2.0), 0.0)
    probs = [p for _, p in prob_distribution(post)]
    oracle = brute_css_post_probs(40, 0.0, 2.0, 0.0)
    np.testing.assert_allclose(probs, oracle, atol=1e-14)
    # strong measurement of the zero record concentrates on |S, 0>
    assert probs[20] == pytest.approx(0.9662889644787185, rel=1e-12)
    assert probs[20] > 0.95


def test_superposition_update_matches_brute_force():
    post, _ = apply_measurement(make_css(100), MeasurementSetting(chi_x=0.2), -5.0)
    probs = [p for _, p in prob_distribution(post)]
    oracle = brute_css_post_probs(100, 0.2, 0.0, -5.0)
    np.testing.assert_allclose(probs, oracle, atol=1e-14)
    mass_two_peaks = probs[45] + probs[55]
    assert mass_two_peaks == pytest.approx(oracle[45] + oracle[55], rel=1e-12)
    assert mass_two_peaks > 0.9


def test_update_is_underflow_safe():
    # exponents of order -1e7: direct exponentiation would flush to zero
    for outcome in (0.0, -500.0, 300.0):
        post, density = apply_measurement(
            make_css(200), MeasurementSetting(chi_x=10.0), outcome
        )
        assert np.all(np.isfinite(post.amplitudes.real))
        assert np.all(np.isfinite(post.amplitudes.imag))
        assert np.sum(np.abs(post.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)
        assert density >= 0.0


def test_update_shift_ignores_unoccupied_levels():
    # the operator weight peaks at m = 0, which carries no amplitude here; the
    # log-sum-exp shift must come from the occupied extremal levels or the
    # whole update would flush to zero
    n = 40
    amps = np.zeros(n + 1, dtype=complex)
    amps[0] = amps[-1] = 1 / math.sqrt(2)
    state = SpinEnsembleState(n, amps)
    post, density = apply_measurement(state, MeasurementSetting(chi_p=10.0), 0.0)
    probs = np.abs(post.amplitudes) ** 2
    assert probs[0] == pytest.approx(0.5)
    assert probs[-1] == pytest.approx(0.5)
    assert density == 0.0  # true value e^{-40000} underflows the float range


def test_kernel_numeric_failures_are_arithmetic_errors():
    # empty support and records whose update keeps no finite mass are numeric
    # failures, kept apart from ValueError, which the CLI reports as usage errors
    cases = [
        (np.full(5, -np.inf), 0.0),
        (np.zeros(5), math.nan),
        (np.zeros(5), 1e200),  # the squared residual overflows
    ]
    for log_prior, outcome in cases:
        with pytest.raises(ArithmeticError) as info:
            posterior_batch(log_prior, outcome, chi_p=1.0)
        assert not isinstance(info.value, ValueError)
    with pytest.raises(ValueError):
        posterior_batch(np.zeros(5), 0.0, chi_p=-1.0)


def test_density_equals_outcome_pdf():
    rng = np.random.default_rng(11)
    for n, setting in [
        (6, MeasurementSetting(chi_p=0.4)),
        (17, MeasurementSetting(chi_x=0.3, eta=0.5)),
        (30, MeasurementSetting(chi_x=0.1, chi_p=0.2)),
    ]:
        state = random_state(n, rng)
        outcome = float(rng.normal())
        _, density = apply_measurement(state, setting, outcome)
        assert density == pytest.approx(
            outcome_pdf(state, setting, outcome), rel=1e-12
        )


# ---------------------------------------------------------------- outcome pdf


def test_pdf_dicke_center_value():
    assert outcome_pdf(
        make_dicke(10, 0), MeasurementSetting(chi_p=1.0), 0.0
    ) == pytest.approx(math.pi ** (-0.5))


def test_pdf_css2_mixture_decomposition():
    state = make_css(2)
    setting = MeasurementSetting(chi_p=1.0)
    ys = np.linspace(-4, 4, 41)
    expected = (
        0.25 * np.exp(-((ys - 1.0) ** 2))
        + 0.5 * np.exp(-(ys**2))
        + 0.25 * np.exp(-((ys + 1.0) ** 2))
    ) / math.sqrt(math.pi)
    np.testing.assert_allclose(outcome_pdf(state, setting, ys), expected, atol=1e-15)


def test_pdf_integrates_to_one():
    rng = np.random.default_rng(23)
    cases = [
        (2, MeasurementSetting(chi_p=1.0)),
        (40, MeasurementSetting(chi_p=0.4)),
        (40, MeasurementSetting(chi_x=2.0)),
    ]
    for n, setting in cases:
        state = random_state(n, rng)
        m = state.m_values
        centers = -(setting.chi_x * m * m + setting.chi_p * m)
        grid = np.arange(centers.min() - 15.0, centers.max() + 15.0, 0.2)
        total = np.trapezoid(outcome_pdf(state, setting, grid), grid)
        assert total == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------- sampling


def test_sample_outcome_deterministic_and_serializable():
    state = make_css(12)
    setting = MeasurementSetting(chi_p=0.4, eta=0.2)
    rec1 = sample_outcome(state, setting, 99)
    rec2 = sample_outcome(state, setting, 99)
    assert rec1 == rec2
    blob = json.dumps(rec1.to_json())
    back = MeasurementRecord.from_json(json.loads(blob))
    assert back == rec1


def test_sample_outcome_fresh_entropy():
    state = make_css(12)
    setting = MeasurementSetting(chi_p=0.4)
    rec = sample_outcome(state, setting, None)
    assert rec.seed is None
    assert rec.probability_density == pytest.approx(
        outcome_pdf(state, setting, rec.outcome), rel=1e-15
    )


def test_sample_dicke_outcome_mean():
    state = make_dicke(10, 0)
    setting = MeasurementSetting(chi_x=0.7)
    draws = sample_outcomes(state, setting, 100_000, 5)
    se = math.sqrt(0.5 / draws.size)
    assert abs(np.mean(draws)) < 5 * se


def test_sample_css_variance_matches_mixture_oracle():
    state = make_css(40)
    setting = MeasurementSetting(chi_p=0.4)
    mean, var, mu4 = mixture_moments(state, setting)
    assert mean == pytest.approx(0.0, abs=1e-12)
    assert var == pytest.approx(2.1, rel=1e-12)
    draws = sample_outcomes(state, setting, 20000, 7)
    se_var = math.sqrt((mu4 - var**2) / draws.size)
    assert abs(np.var(draws) - var) < 5 * se_var


def test_sample_outcomes_validation():
    with pytest.raises(ValueError):
        sample_outcomes(make_css(4), MeasurementSetting(), 0, 1)


# ---------------------------------------------------------------- composition


def test_compose_single_is_identity():
    setting = MeasurementSetting(chi_p=0.4, eta=0.3)
    eff, outcome, const = compose([(setting, 1.2)])
    assert eff == setting
    assert outcome == 1.2
    assert const == 0.0


def test_compose_sqrt_n_enhancement():
    setting = MeasurementSetting(chi_p=0.4)
    eff, outcome, _ = compose([(setting, 0.5)] * 4)
    assert eff.chi_p == pytest.approx(0.8)
    assert outcome == pytest.approx(1.0)  # 4 * 0.5 / sqrt(4)


def test_compose_matches_sequential_application():
    rng = np.random.default_rng(31)
    for n_rounds in (2, 7):
        state = random_state(24, rng)
        setting = MeasurementSetting(chi_p=0.3, chi_x=0.05, eta=0.4)
        outcomes = rng.normal(size=n_rounds)
        seq = state
        for y in outcomes:
            seq, _ = apply_measurement(seq, setting, float(y))
        eff, eff_outcome, _ = compose([(setting, float(y)) for y in outcomes])
        direct, _ = apply_measurement(state, eff, eff_outcome)
        np.testing.assert_allclose(
            seq.amplitudes, direct.amplitudes, atol=1e-12, rtol=0
        )


def test_compose_log_constant_is_exact():
    # per-m identity: sum_j log w_j(m) = C + log w_eff(m)
    setting = MeasurementSetting(chi_p=0.7, eta=0.1)
    outcomes = [0.4, -1.1, 2.3]
    eff, eff_outcome, const = compose([(setting, y) for y in outcomes])
    summed = sum(log_weights(setting, y, 14) for y in outcomes)
    effective = log_weights(eff, eff_outcome, 14) + const
    np.testing.assert_allclose(summed, effective, atol=1e-12)


def test_compose_rejects_mixed_strengths():
    with pytest.raises(ValueError):
        compose(
            [
                (MeasurementSetting(chi_p=0.4), 0.0),
                (MeasurementSetting(chi_p=0.5), 0.0),
            ]
        )
    with pytest.raises(ValueError):
        compose([])


# ---------------------------------------------------------------- windows


def test_acceptance_probability_single_gaussian_window():
    state = make_dicke(10, 0)
    value = acceptance_probability(state, MeasurementSetting(), 0.0, 0.1)
    assert value == pytest.approx(float(erf(0.1)), abs=1e-9)


def test_acceptance_probability_full_window():
    state = make_dicke(10, 0)
    assert acceptance_probability(
        state, MeasurementSetting(chi_p=0.3), 0.0, math.inf
    ) == pytest.approx(1.0, abs=1e-6)


def test_acceptance_probability_shrinks_with_strength():
    state = make_css(40)
    values = [
        acceptance_probability(state, MeasurementSetting(chi_p=chi), 0.0, 0.5)
        for chi in (0.2, 0.4, 0.8, 1.6)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_acceptance_probability_validation():
    with pytest.raises(ValueError):
        acceptance_probability(make_css(4), MeasurementSetting(), 0.0, 0.0)


# ---------------------------------------------------------------- phase


def test_eta_changes_phases_only():
    state = make_css(30)
    outcome = -1.0
    plain, _ = apply_measurement(state, MeasurementSetting(chi_p=0.5), outcome)
    phased, _ = apply_measurement(
        state, MeasurementSetting(chi_p=0.5, eta=1.1), outcome
    )
    np.testing.assert_allclose(
        np.abs(plain.amplitudes), np.abs(phased.amplitudes), atol=1e-15
    )
    np.testing.assert_allclose(
        phased.amplitudes, plain.amplitudes * np.exp(1.1j * state.m_values), atol=1e-14
    )
    assert outcome_pdf(state, MeasurementSetting(chi_p=0.5, eta=1.1), 0.3) == (
        outcome_pdf(state, MeasurementSetting(chi_p=0.5), 0.3)
    )
