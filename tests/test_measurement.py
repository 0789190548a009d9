import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf

from _oracles import chi_square_gof

from spinprep import (
    CssPrior,
    MeasurementSetting,
    PosteriorError,
    SpinEnsembleState,
    acceptance_probability,
    apply_measurement,
    compose,
    make_css,
    make_dicke,
    make_superposition_target,
    outcome_pdf,
    posterior_batch,
    sample_outcome,
    sample_outcomes,
)
from spinprep.measurement import _densities_only, level_rows
from spinprep.protocols import (
    dss_with_repeated_outcome,
    prepare_dss,
    prepare_superposition,
    repetitive_dss,
)
from spinprep.spin_core import m_ladder


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
    m = m_ladder(state.atom_count)
    centers = -(setting.chi_x * m * m + setting.chi_p * m)
    mean = float(p @ centers)
    c = centers - mean
    var = float(p @ (c * c)) + 0.5
    mu4 = float(p @ (c**4 + 3.0 * c * c + 0.75))
    return mean, var, mu4


# ---------------------------------------------------------------- kernel identities


def test_kernel_identity_at_zero_setting():
    # at chi_x = chi_p = eta = 0 the operator is pi^{-1/4} e^{-Y^2/2} times the
    # identity: every record leaves the level probabilities unchanged, and the
    # update passes the phases of a phased state through
    state = random_state(10, np.random.default_rng(5))
    outcomes = np.array([0.0, -1.3, 2.0])
    probs, log_density = posterior_batch(
        np.log(np.abs(state.amplitudes)), outcomes, reduce=level_rows(11)
    )
    np.testing.assert_allclose(probs, np.tile(np.abs(state.amplitudes) ** 2, (3, 1)), atol=1e-14)
    np.testing.assert_allclose(log_density, -0.5 * math.log(math.pi) - outcomes**2, atol=1e-14)
    for y, y_log_density in zip(outcomes, log_density):
        post, density = apply_measurement(state, MeasurementSetting(), y)
        np.testing.assert_allclose(post.amplitudes, state.amplitudes, atol=1e-14)
        assert density == np.exp(y_log_density)


def test_kernel_rejects_a_complex_prior():
    # phases never enter the kernel; a phased state goes through apply_measurement
    log_prior = np.log(random_state(6, np.random.default_rng(2)).amplitudes)
    with pytest.raises(ValueError, match="apply_measurement"):
        posterior_batch(log_prior, 0.3, chi_p=0.5, reduce=_densities_only)


@pytest.mark.parametrize("shape", [(0,), (1,), (2, 2)])
def test_kernel_rejects_a_prior_that_is_not_a_ladder(shape):
    # N + 1 >= 2 levels in one dimension
    with pytest.raises(ValueError, match=re.escape(f"N+1 >= 2 levels, got shape {shape}")):
        posterior_batch(np.zeros(shape), 0.3, chi_p=0.5, reduce=_densities_only)


def test_kernel_peak_at_record_matched_level():
    # record -5 with chi_x = 0.2 leaves zero exponent exactly at m^2 = 25, so a
    # flat prior's posterior peaks there
    probs, _ = posterior_batch(np.zeros(31), -5.0, chi_x=0.2, reduce=level_rows(31))
    top = np.flatnonzero(probs[0] == probs[0].max())
    assert list(top) == [15 - 5, 15 + 5]


def test_setting_validation():
    with pytest.raises(ValueError, match=r"chi_x .* got -0\.1"):
        MeasurementSetting(chi_x=-0.1)
    with pytest.raises(ValueError, match="chi_p .* got nan"):
        MeasurementSetting(chi_p=math.nan)
    with pytest.raises(ValueError, match="eta .* got inf"):
        MeasurementSetting(eta=math.inf)


_NAN, _INF = math.nan, math.inf


@pytest.mark.parametrize("update, message", [
    (lambda: MeasurementSetting(chi_p=-1.0), "chi_p must be finite and >= 0, got -1.0"),
    (lambda: MeasurementSetting(chi_x=_NAN), "chi_x must be finite and >= 0, got nan"),
    (lambda: MeasurementSetting(chi_p=_INF), "chi_p must be finite and >= 0, got inf"),
    (lambda: MeasurementSetting(eta=_INF), "eta must be finite, got inf"),
    (lambda: apply_measurement(make_css(40), MeasurementSetting(chi_p=-1.0), 0.0),
     "chi_p must be finite and >= 0, got -1.0"),
    (lambda: posterior_batch(CssPrior(40), 0.0, chi_p=-1.0, reduce=_densities_only),
     "chi_p must be finite and >= 0, got -1.0"),
    (lambda: posterior_batch(CssPrior(40), 0.0, chi_x=_NAN, reduce=_densities_only),
     "chi_x must be finite and >= 0, got nan"),
    *((lambda v=v: prepare_dss(40, v, 0.0), f"chi_p must be positive, got {v}") for v in (-1.0, _NAN)),
    (lambda: prepare_dss(40, _INF, 0.0), "chi_p must be finite and >= 0, got inf"),
    *((lambda v=v: prepare_superposition(40, v, -1.0), f"chi_x must be positive, got {v}")
      for v in (-1.0, _NAN)),
    (lambda: prepare_superposition(40, _INF, -1.0), "chi_x must be finite and >= 0, got inf"),
    *((lambda v=v: dss_with_repeated_outcome(40, v, 4, 0.0), f"chi_p must be positive, got {v}")
      for v in (-1.0, _NAN)),
    *((lambda v=v: repetitive_dss(40, v, 4), f"chi_p must be positive, got {v}")
      for v in (-1.0, _NAN)),
    (lambda: dss_with_repeated_outcome(40, _INF, 4, 0.0), "chi_p must be finite and >= 0, got inf"),
    (lambda: repetitive_dss(40, _INF, 4), "chi_p must be finite and >= 0, got inf"),
    (lambda: apply_measurement(make_css(40), MeasurementSetting(chi_p=1.0), []),
     "records must be a scalar or a non-empty 1-d array, got shape (0,)"),
    (lambda: apply_measurement(make_css(40), MeasurementSetting(chi_p=1.0), [[0.0]]),
     "records must be a scalar or a non-empty 1-d array, got shape (1, 1)"),
])
def test_single_record_error_messages_are_pinned(update, message):
    # a setting's strengths are checked once, when it is built, and the kernel
    # trusts them; each single-record path still names a bad strength, or a
    # record of the wrong shape, as before
    with pytest.raises(ValueError) as info:
        update()
    assert str(info.value) == message


@pytest.mark.parametrize("field", ["chi_x", "chi_p", "eta"])
def test_setting_takes_one_number_per_field(field):
    # an array would validate and then condition at its first entry only
    with pytest.raises(ValueError, match=re.escape(f"{field} must be one number, got [0.1, 0.2]")):
        MeasurementSetting(**{field: [0.1, 0.2]})
    assert getattr(MeasurementSetting(**{field: np.float64(0.2)}), field) == 0.2


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
    probs = np.abs(post.amplitudes) ** 2
    oracle = brute_css_post_probs(40, 0.0, 2.0, 0.0)
    np.testing.assert_allclose(probs, oracle, atol=1e-14)
    # strong measurement of the zero record concentrates on |S, 0>
    assert probs[20] == pytest.approx(0.9662889644787185, rel=1e-12)
    assert probs[20] > 0.95


def test_superposition_update_matches_brute_force():
    post, _ = apply_measurement(make_css(100), MeasurementSetting(chi_x=0.2), -5.0)
    probs = np.abs(post.amplitudes) ** 2
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
            posterior_batch(log_prior, outcome, chi_p=1.0, reduce=_densities_only)
        assert not isinstance(info.value, ValueError)
    with pytest.raises(ValueError):
        posterior_batch(np.zeros(5), 0.0, chi_p=-1.0, reduce=_densities_only)


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
        assert density == outcome_pdf(state, setting, outcome)


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
        m = m_ladder(state.atom_count)
        centers = -(setting.chi_x * m * m + setting.chi_p * m)
        grid = np.arange(centers.min() - 15.0, centers.max() + 15.0, 0.2)
        total = np.trapezoid(outcome_pdf(state, setting, grid), grid)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_pdf_keeps_the_record_shape():
    state = make_css(12)
    setting = MeasurementSetting(chi_p=0.4)
    assert type(outcome_pdf(state, setting, 0.3)) is float
    ys = np.linspace(-3.0, 3.0, 6)
    flat = outcome_pdf(state, setting, ys)
    assert flat.shape == (6,)
    np.testing.assert_array_equal(outcome_pdf(state, setting, ys.reshape(2, 3)), flat.reshape(2, 3))


@pytest.mark.parametrize("record", [math.nan, math.inf, -math.inf])
def test_pdf_non_finite_record_raises(record):
    state = make_css(12)
    setting = MeasurementSetting(chi_p=0.4)
    for outcome in (record, np.array([0.0, record])):
        with pytest.raises(PosteriorError):
            outcome_pdf(state, setting, outcome)


@pytest.mark.parametrize("shape", [(0,), (0, 3)])
def test_pdf_rejects_empty_records(shape):
    with pytest.raises(ValueError, match="non-empty"):
        outcome_pdf(make_css(12), MeasurementSetting(chi_p=0.4), np.empty(shape))


def test_pdf_far_tail_records_are_positive():
    # records up to 1250 from the mean at N = 3000: levels of the CSS up there
    # underflow to exact zeros, and the density down to e^-1221
    state = make_css(3000)
    records = np.arange(-1250.0, 1.0, 50.0)
    density = outcome_pdf(state, MeasurementSetting(chi_p=1.0), records)
    with np.errstate(divide="ignore"):
        _, log_density = posterior_batch(
            np.log(np.abs(state.amplitudes)), records, chi_p=1.0, reduce=_densities_only
        )
    np.testing.assert_array_equal(density, np.exp(log_density))
    normal = log_density >= math.log(np.finfo(float).tiny)
    assert normal.sum() == 20
    assert np.all(density[normal] > 0.0)


def test_pdf_memory_does_not_grow_with_records():
    # one records x levels matrix would take 5000 x 10001 x 8 B = 400 MB
    state = make_css(10_000)
    setting = MeasurementSetting(chi_p=0.05)
    records = np.linspace(-20.0, 20.0, 5000)
    tracemalloc.start()
    try:
        outcome_pdf(state, setting, records)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# ---------------------------------------------------------------- sampling


def test_sample_outcome_deterministic():
    state = make_css(12)
    setting = MeasurementSetting(chi_p=0.4, eta=0.2)
    assert sample_outcome(state, setting, 99) == sample_outcome(state, setting, 99)


def test_sample_outcome_fresh_entropy():
    state = make_css(12)
    setting = MeasurementSetting(chi_p=0.4)
    outcome, density = sample_outcome(state, setting, None)
    assert density == outcome_pdf(state, setting, outcome)


@pytest.mark.parametrize(
    "n_atoms, setting",
    [(40, MeasurementSetting(chi_p=0.4)), (101, MeasurementSetting(chi_x=0.2, eta=0.3))],
)
def test_sample_outcome_is_one_shot_of_sample_outcomes(n_atoms, setting):
    state = make_css(n_atoms)
    for seed in range(400):
        outcome, density = sample_outcome(state, setting, seed)
        assert outcome == sample_outcomes(state, setting, 1, seed)[0]
        assert density == outcome_pdf(state, setting, outcome)


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
    with pytest.raises(ValueError, match=re.escape("n_shots must be >= 1, got 0")):
        sample_outcomes(make_css(4), MeasurementSetting(), 0, 1)
    for n_shots in (2.0, True, "2", None):
        with pytest.raises(ValueError, match=re.escape(f"n_shots must be an integer, got {n_shots!r}")):
            sample_outcomes(make_css(40), MeasurementSetting(chi_p=0.1), n_shots, 1)
    assert sample_outcomes(make_css(40), MeasurementSetting(chi_p=0.1), np.int64(2), 1).shape == (2,)
    with pytest.raises(ValueError, match="atom count"):
        sample_outcomes(CssPrior(np.array([40, 41])), MeasurementSetting(chi_p=0.4), 10, 1)


def test_state_draws_are_pinned():
    # a state's levels come from its N+1 probabilities, in the same stream as
    # before the CSS prior could be sampled
    draws = sample_outcomes(make_css(40), MeasurementSetting(chi_p=0.4), 4, 3)
    assert draws.tolist() == [
        1.2799286160494134, 0.6475497839746446, -2.6283458898227865, -0.5640009570089256
    ]
    state = make_superposition_target(21, 2.5, 0.3)
    draws = sample_outcomes(state, MeasurementSetting(chi_x=0.1, chi_p=0.2, eta=0.3), 4, 11)
    assert draws.tolist() == [
        -0.33569626189020907, -0.49791693918453017, -0.7221426291401553, -0.16464354503257606
    ]
    outcome = sample_outcome(make_dicke(10, 1), MeasurementSetting(chi_x=0.7), 5)
    assert outcome == (-1.6364632265340666, 0.23472789775956393)


@pytest.mark.parametrize("n_atoms", [40, 41])
@pytest.mark.parametrize(
    "setting", [MeasurementSetting(chi_p=0.4), MeasurementSetting(chi_x=0.1, chi_p=0.2)]
)
def test_css_prior_draws_follow_the_mixture(n_atoms, setting):
    # the CSS level is Binomial(N, 1/2) - N/2: the records follow the same
    # mixture as draws from the dense coherent state
    draws = sample_outcomes(CssPrior(n_atoms), setting, 20000, 17)
    stat, critical = chi_square_gof(draws, make_css(n_atoms), setting)
    assert stat < critical


def test_css_prior_draw_moments_at_ten_million_atoms():
    n_atoms, chi_p, n_shots = 10**7, 2.0, 20000
    draws = sample_outcomes(CssPrior(n_atoms), MeasurementSetting(chi_p=chi_p), n_shots, 23)
    # Var Y = 1/2 + chi_p^2 Var m with Var m = N/4, and the fourth central
    # moment of the centers from the binomial's, (N/4) (1 + 3 (N - 2)/4)
    var_m = n_atoms / 4.0
    var = 0.5 + chi_p**2 * var_m
    mu4 = chi_p**4 * var_m * (1.0 + 3.0 * (n_atoms - 2) / 4.0)
    mu4 += 3.0 * chi_p**2 * var_m + 0.75
    assert abs(draws.mean()) < 5.0 * math.sqrt(var / n_shots)
    assert abs(draws.var() - var) < 5.0 * math.sqrt((mu4 - var * var) / n_shots)


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
    m = np.arange(15) - 7.0

    def log_w(s, y):  # log of the operator entries M(Y)_m
        shift = y + s.chi_x * m * m + s.chi_p * m
        return 1j * s.eta * m - 0.5 * shift * shift - 0.25 * math.log(math.pi)

    summed = sum(log_w(setting, y) for y in outcomes)
    effective = log_w(eff, eff_outcome) + const
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


@pytest.mark.parametrize(
    "n_atoms, setting, target, half_width",
    [
        (40, MeasurementSetting(chi_p=0.4), 0.0, 1.0),
        (40, MeasurementSetting(chi_p=0.4), 3.7, 0.05),
        (30, MeasurementSetting(chi_x=0.05, chi_p=0.3), -3.0, 2.5),
        (20, MeasurementSetting(chi_x=0.2, eta=0.7), -5.0, 30.0),
        (40, MeasurementSetting(chi_p=0.4), 12.0, 0.5),  # far tails, 1e-18 and 1e-29
        (40, MeasurementSetting(chi_p=0.4), -15.0, 1.0),
    ],
)
def test_acceptance_probability_matches_dense_quadrature(n_atoms, setting, target, half_width):
    state = make_css(n_atoms)
    lo, hi = target - half_width, target + half_width
    m = np.arange(n_atoms + 1) - n_atoms / 2
    centers = -(setting.chi_x * m * m + setting.chi_p * m)
    inside = np.unique(centers[(centers > lo) & (centers < hi)])
    reference, _ = quad(
        lambda y: outcome_pdf(state, setting, y), lo, hi,
        points=inside if inside.size else None, limit=500, epsabs=0.0, epsrel=1e-13,
    )
    value = acceptance_probability(state, setting, target, half_width)
    assert value == pytest.approx(reference, rel=1e-10, abs=0.0)


def test_acceptance_probability_validation():
    with pytest.raises(ValueError):
        acceptance_probability(make_css(4), MeasurementSetting(), 0.0, 0.0)


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
def test_acceptance_probability_rejects_non_finite_target(target):
    with pytest.raises(ValueError, match="target must be finite"):
        acceptance_probability(make_css(4), MeasurementSetting(chi_p=0.3), target, 1.0)
    with pytest.raises(ValueError, match="target must be finite"):
        acceptance_probability(make_css(4), MeasurementSetting(chi_p=0.3), target, math.inf)


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
        phased.amplitudes, plain.amplitudes * np.exp(1.1j * m_ladder(state.atom_count)), atol=1e-14
    )
    assert outcome_pdf(state, MeasurementSetting(chi_p=0.5, eta=1.1), 0.3) == (
        outcome_pdf(state, MeasurementSetting(chi_p=0.5), 0.3)
    )
