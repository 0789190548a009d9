import math
import warnings

import numpy as np
import pytest
from _oracles import chi_square_gof
from scipy.stats import ks_2samp

from spinprep import (
    CavityParams,
    MeasurementSetting,
    PosteriorError,
    apply_measurement,
    dss_rows,
    dss_with_repeated_outcome,
    feasibility,
    long_pulse_plan,
    make_css,
    make_superposition_target,
    observables,
    prepare_dss,
    prepare_superposition,
    repetitive_dss,
    repetitive_dss_rows,
    sample_outcome,
    superposition_rows,
)

CAVITY = CavityParams.from_two_pi_megahertz(0.4, 3000.0, 1.0, 100.0)


def _positive_side_argmax(state):
    """The m > 0 value with the largest probability."""
    probs = np.abs(state.amplitudes) ** 2
    positive = state.m_values > 0
    return state.m_values[positive][np.argmax(probs[positive])]


def _sequential_sampled(n_atoms, chi_p, n_rounds, seed):
    """Reference sampled policy: each round draws its record from the current
    conditional state and is applied in turn."""
    rng = np.random.default_rng(seed)
    setting = MeasurementSetting(chi_p=chi_p)
    state = make_css(n_atoms)
    for _ in range(n_rounds):
        outcome, _ = sample_outcome(state, setting, rng)
        state, _ = apply_measurement(state, setting, outcome)
    return state


def brute_xi_d(n_atoms, chi_p, outcome):
    """Independent squeezing oracle from exact binomials."""
    s = n_atoms / 2
    weights, mz, mz2 = [], 0.0, 0.0
    for k in range(n_atoms + 1):
        m = k - s
        w = math.comb(n_atoms, k) / 2**n_atoms * math.exp(-((outcome + chi_p * m) ** 2))
        weights.append((m, w))
    total = sum(w for _, w in weights)
    mz = sum(m * w for m, w in weights) / total
    mz2 = sum(m * m * w for m, w in weights) / total
    return n_atoms * (mz2 - mz * mz + 0.25) / (s * (s + 1) - mz2)


# ---------------------------------------------------------------- superposition


def test_superposition_two_packet_structure():
    res = prepare_superposition(100, 0.2, -0.2 * 25.0)
    assert res.target_m_c == 5.0
    assert _positive_side_argmax(res.post_state) == 5.0
    probs = np.abs(res.post_state.amplitudes) ** 2
    m = res.post_state.m_values
    assert probs[m == 5.0] == pytest.approx(probs[m == -5.0])
    assert res.packet_separation == pytest.approx(10.0)
    assert res.packet_width == pytest.approx(0.5)  # 1 / (2 sqrt(5 * 0.2))


def test_superposition_fidelity_grows_with_strength():
    weak = prepare_superposition(100, 0.05, -0.05 * 25.0)
    strong = prepare_superposition(100, 0.2, -0.2 * 25.0)
    assert weak.fidelity_vs_target < strong.fidelity_vs_target


def test_superposition_reaches_ghz():
    res = prepare_superposition(4, 3.0, -3.0 * 4.0)
    assert res.target_m_c == 2.0
    assert res.fidelity_vs_target > 0.99
    ghz = make_superposition_target(4, 2)
    assert abs(np.vdot(res.post_state.amplitudes, ghz.amplitudes)) ** 2 == (
        pytest.approx(res.fidelity_vs_target)
    )
    probs = np.abs(res.post_state.amplitudes) ** 2
    assert probs[res.post_state.m_values == 2.0] == pytest.approx([0.5], abs=0.01)


def test_superposition_fidelity_monotone_over_grid():
    # fidelity vs target is nondecreasing in chi_x for all three record families
    for ratio in (1.0 / 3.0, 0.5, 1.0):
        fids = [
            prepare_superposition(100, chi, -chi * 50.0 * ratio).fidelity_vs_target
            for chi in np.linspace(0.02, 0.5, 25)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(fids, fids[1:]))
        assert fids[-1] > 0.99


def test_superposition_positive_record_single_packet():
    with pytest.warns(UserWarning):
        res = prepare_superposition(10, 0.2, 0.5)
    assert res.target_m_c == 0.0
    assert res.packet_separation == 0.0
    assert math.isinf(res.packet_width)
    assert _positive_side_argmax(res.post_state) == 1.0  # symmetric packet about 0


def test_superposition_requires_positive_strength():
    with pytest.raises(ValueError):
        prepare_superposition(10, 0.0, -1.0)


def test_snap_ties_round_toward_zero():
    # raw center sqrt(6.25) = 2.5 is equidistant from 2 and 3
    res = prepare_superposition(20, 0.2, -0.2 * 6.25)
    assert res.target_m_c == 2.0


def test_snap_half_integer_lattice():
    # odd N: lattice 0.5, 1.5, ...; raw center 1.0 ties toward 0.5
    res = prepare_superposition(7, 0.3, -0.3 * 1.0)
    assert res.target_m_c == 0.5


def test_snap_clamps_to_maximal_m():
    res = prepare_superposition(8, 1.0, -1.0 * 49.0)  # raw center 7 > S = 4
    assert res.target_m_c == 4.0


# ---------------------------------------------------------------- squeezing


def test_dss_matches_brute_oracle():
    res = prepare_dss(40, 2.0, 0.0)
    assert res.xi_d == pytest.approx(brute_xi_d(40, 2.0, 0.0), rel=1e-12)
    assert res.n_rounds == 1


def test_dss_stronger_measurement_squeezes_more():
    assert prepare_dss(40, 0.4, 0.0).xi_d < prepare_dss(40, 0.2, 0.0).xi_d


def test_dss_minimum_at_zero_record():
    for chi in (0.2, 0.4):
        edge = chi * 20.0
        grid = np.linspace(-edge, edge, 21)
        xis = [prepare_dss(40, chi, float(y)).xi_d for y in grid]
        assert np.argmin(xis) == 10  # the center of the grid


def test_dss_saturates_toward_ideal():
    for n in (40, 80, 120):
        xis = [prepare_dss(n, chi, 0.0).xi_d for chi in np.linspace(0.2, 3.0, 15)]
        assert all(b <= a + 1e-12 for a, b in zip(xis, xis[1:]))
        assert xis[-1] * (n + 2) == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("outcome", [-1250.0, -1200.0, -1150.0, -1100.0, -1050.0, -1000.0])
def test_dss_far_tail_record(outcome):
    # the record selects levels near m = -outcome, deep in the CSS tail, where
    # linear CSS amplitudes are ~1e-226 and the edge levels underflow to zero
    res = prepare_dss(3000, 1.0, outcome)
    assert np.sum(np.abs(res.post_state.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)
    assert 1.0 / 3002 <= res.xi_d <= 1.0


def test_dss_out_of_range_record_warns():
    with pytest.warns(UserWarning):
        prepare_dss(40, 0.4, 9.0)


def test_dss_requires_positive_strength():
    for chi_p in (0.0, -0.4):
        calls = (
            lambda: prepare_dss(40, chi_p, 0.0),
            lambda: repetitive_dss(40, chi_p, 3),
            lambda: dss_with_repeated_outcome(40, chi_p, 3, 0.0),
        )
        for call in calls:
            with pytest.raises(ValueError, match="chi_p"):
                call()


@pytest.mark.parametrize("call", [
    pytest.param(lambda chi_p: repetitive_dss(40, chi_p, 4, "all_zero"), id="all_zero"),
    pytest.param(lambda chi_p: repetitive_dss(40, chi_p, 4, "sampled", seed=1), id="sampled"),
    pytest.param(lambda chi_p: repetitive_dss_rows(40, chi_p, 4), id="rows"),
])
@pytest.mark.parametrize("chi_p", [-0.4, math.nan])
def test_invalid_strength_is_reported_as_passed(call, chi_p):
    # n rounds act at sqrt(n) chi_p; the error must still name the chi_p passed
    with pytest.raises(ValueError, match=rf"chi_p .* got {chi_p}$"):
        call(chi_p)


def test_one_record_protocols_reject_non_finite_eta():
    calls = (
        lambda: prepare_dss(40, 0.4, 0.0, eta=math.nan),
        lambda: prepare_superposition(40, 0.1, -1.0, eta=math.inf),
        lambda: dss_with_repeated_outcome(40, 0.4, 3, 0.0, eta=math.nan),
    )
    for call in calls:
        with pytest.raises(ValueError, match="eta must be finite"):
            call()


# ---------------------------------------------------------------- one record vs rows


@pytest.mark.parametrize("n_atoms", [7, 40, 101, 100_000])
def test_one_record_protocols_equal_their_rows(n_atoms):
    # a one-record protocol reads its figure from the same level probabilities,
    # through the same formula, as the row function for that record: bit for bit,
    # at any phase, and for a record far from m = 0 at N = 1e5
    s = n_atoms / 2.0
    for chi_p in (0.4, 2.0):
        records = [f * chi_p * s for f in (-0.9, -0.5, -0.12, 0.0, 0.3, 0.75)]
        records += [-6000.0] if n_atoms == 100_000 else []
        for y in records:
            assert prepare_dss(n_atoms, chi_p, y, 0.3).xi_d == dss_rows(n_atoms, chi_p, y)[0][0]
            assert dss_with_repeated_outcome(n_atoms, chi_p, 5, y / 5, 0.3).xi_d == (
                repetitive_dss_rows(n_atoms, chi_p, 5, y / 5)[0]
            )
    for chi_x in (0.05, 0.3):
        for y in [-f * chi_x * s * s for f in (0.9, 0.5, 0.25, 0.1, 0.01)] + [0.0]:
            fidelity = prepare_superposition(n_atoms, chi_x, y, 0.2).fidelity_vs_target
            assert fidelity == superposition_rows(n_atoms, chi_x, y)[0][0]


@pytest.mark.parametrize("n_atoms, chi", [([40, 50], 0.1), (40, [0.1, 0.2])])
def test_row_functions_reject_unbroadcastable_sizes_alike(n_atoms, chi):
    # the kernel's size check runs before the superposition packet geometry
    for rows in (superposition_rows, dss_rows):
        with pytest.raises(ValueError, match="do not broadcast"):
            rows(n_atoms, chi, [-1.0, 0.0, 1.0])


def test_superposition_rows_zero_width_without_overflow_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        width = superposition_rows(3, 1e200, -2.25e200)[3]
        # a subnormal strength puts the packets at infinite m, snapped to the ladder's end
        m_c, separation = superposition_rows(40, 1e-320, -1.0)[1:3]
        # a nan record fails the update before its target level is taken
        for call in (
            lambda: superposition_rows(40, 0.1, math.nan),
            lambda: prepare_superposition(40, 0.1, math.nan),
        ):
            with pytest.raises(PosteriorError):
                call()
    assert width.tolist() == [0.0]
    assert (m_c.tolist(), separation.tolist()) == ([20.0], [math.inf])


# ---------------------------------------------------------------- repetition


def test_single_round_equals_direct_preparation():
    rep = repetitive_dss(40, 0.4, 1)
    direct = prepare_dss(40, 0.4, 0.0)
    np.testing.assert_array_equal(
        rep.post_state.amplitudes, direct.post_state.amplitudes
    )
    assert rep.xi_d == direct.xi_d
    # prepare_dss is one round of dss_with_repeated_outcome, bit for bit
    for outcome, warns in ((1.3, False), (9.0, True)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            single = prepare_dss(40, 0.4, outcome, 0.7)
        assert [w.category for w in caught] == ([UserWarning] if warns else [])
        rounds = dss_with_repeated_outcome(40, 0.4, 1, outcome, 0.7)
        np.testing.assert_array_equal(single.post_state.amplitudes, rounds.post_state.amplitudes)
        assert (single.xi_d, single.outcome, single.n_rounds) == (
            rounds.xi_d, rounds.outcome, rounds.n_rounds
        )


def test_sqrt_n_equivalence_state_for_state():
    rep = repetitive_dss(40, 0.4, 25)
    direct = prepare_dss(40, math.sqrt(25) * 0.4, 0.0)
    np.testing.assert_allclose(
        rep.post_state.amplitudes, direct.post_state.amplitudes, atol=1e-12, rtol=0
    )
    assert rep.n_rounds == 25


def test_more_rounds_squeeze_harder():
    xi = {n: repetitive_dss(40, 0.4, n).xi_d for n in (1, 5, 25)}
    assert xi[25] < xi[5] < xi[1]


def test_repeated_equal_record_matches_composition():
    res = dss_with_repeated_outcome(40, 0.4, 4, 1.5)
    direct = prepare_dss(40, 0.8, 3.0)  # sqrt(4) chi, 4 * 1.5 / sqrt(4)
    np.testing.assert_allclose(
        res.post_state.amplitudes, direct.post_state.amplitudes, atol=1e-12, rtol=0
    )


def test_repetition_enhances_squeezing_across_central_records():
    # 25 rounds beat a single round pointwise over the central half of the
    # likely record window, not only at the zero record
    for frac in np.linspace(-0.5, 0.5, 11):
        outcome = frac * 0.4 * 20.0
        assert (
            dss_with_repeated_outcome(40, 0.4, 25, outcome).xi_d
            < dss_with_repeated_outcome(40, 0.4, 1, outcome).xi_d
        )


def test_sampled_policy_is_deterministic_and_sequential():
    a = repetitive_dss(40, 0.4, 5, outcome_policy="sampled", seed=123)
    b = repetitive_dss(40, 0.4, 5, outcome_policy="sampled", seed=123)
    np.testing.assert_array_equal(a.post_state.amplitudes, b.post_state.amplitudes)
    c = repetitive_dss(40, 0.4, 5, outcome_policy="sampled", seed=124)
    assert not np.array_equal(a.post_state.amplitudes, c.post_state.amplitudes)


def test_sampled_policy_matches_sequential_rounds_in_law():
    # disjoint seeds keep the two samples independent
    reference = [observables(_sequential_sampled(40, 0.4, 5, seed)).xi_d for seed in range(300)]
    composed = [
        repetitive_dss(40, 0.4, 5, outcome_policy="sampled", seed=seed).xi_d
        for seed in range(10_000, 10_300)
    ]
    assert ks_2samp(reference, composed).pvalue > 1e-3


def test_sampled_policy_records_follow_composed_mixture():
    # sqrt(n) times the mean per-round record is one record at sqrt(n) chi_p
    chi_p, n_rounds = 0.4, 5
    effective = [
        math.sqrt(n_rounds)
        * repetitive_dss(40, chi_p, n_rounds, outcome_policy="sampled", seed=seed).outcome
        for seed in range(1000)
    ]
    setting = MeasurementSetting(chi_p=math.sqrt(n_rounds) * chi_p)
    stat, critical = chi_square_gof(effective, make_css(40), setting)
    assert stat < critical


def test_sampled_policy_outcome_reproduces_result():
    for seed in range(20):
        res = repetitive_dss(40, 0.4, 5, outcome_policy="sampled", seed=seed, eta=0.3)
        again = dss_with_repeated_outcome(40, 0.4, 5, res.outcome, 0.3)
        np.testing.assert_array_equal(res.post_state.amplitudes, again.post_state.amplitudes)
        assert (res.xi_d, res.n_rounds) == (again.xi_d, again.n_rounds)


def test_sampled_policy_requires_seed():
    with pytest.raises(ValueError):
        repetitive_dss(40, 0.4, 5, outcome_policy="sampled")


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        repetitive_dss(40, 0.4, 5, outcome_policy="optimistic")
    with pytest.raises(ValueError):
        repetitive_dss(40, 0.4, 0)


# ---------------------------------------------------------------- long pulses


def test_long_pulse_plan_reaches_target():
    plan = long_pulse_plan(CAVITY, n_t=10.0, n_rounds=4)
    assert plan.achievable
    assert plan.chi_p_required == pytest.approx(1.0)  # 2 / sqrt(4)
    assert plan.chi_p_bound == pytest.approx(3.0 * math.sqrt(10.0), rel=0.05)
    assert plan.chi_p_effective_at_bound >= 2.0


def test_long_pulse_plan_trivial_case_is_plain_feasibility():
    plan = long_pulse_plan(CAVITY, n_t=1.0, n_rounds=1)
    base = feasibility(CAVITY, kind="long_exponential", n_t=1.0)
    assert plan.feasibility == base
    assert plan.chi_p_effective_at_bound == plan.chi_p_bound
    # n_t = 1 long pulse is the plain exponential pulse
    exp_base = feasibility(CAVITY, kind="exponential", n_t=1.0)
    assert base.max_intracavity_photons == pytest.approx(
        exp_base.max_intracavity_photons, rel=1e-12
    )
    assert base.chi_p_bound == exp_base.chi_p_bound


def test_long_pulse_plan_validation():
    with pytest.raises(ValueError):
        long_pulse_plan(CAVITY, n_t=0.5, n_rounds=4)
    with pytest.raises(ValueError):
        long_pulse_plan(CAVITY, n_t=10.0, n_rounds=0)
    for target in (-1.0, 0.0, math.nan):
        with pytest.raises(ValueError, match="target_effective"):
            long_pulse_plan(CAVITY, 2.0, 4, target_effective=target)
    for threshold in (0.0, -0.01, math.nan):
        with pytest.raises(ValueError, match="threshold"):
            feasibility(CAVITY, threshold=threshold)



@pytest.mark.parametrize("n_rounds", [2.5, 0])
def test_round_count_must_be_a_whole_number_at_least_one(n_rounds):
    calls = (
        lambda: long_pulse_plan(CAVITY, 10.0, n_rounds),
        lambda: repetitive_dss_rows(40, 0.4, n_rounds),
        lambda: repetitive_dss(40, 0.4, n_rounds),
        lambda: dss_with_repeated_outcome(40, 0.4, n_rounds, 0.0),
    )
    for call in calls:
        with pytest.raises(ValueError, match="n_rounds"):
            call()
    # an integer-valued float, as a sweep over n passes it, is a round count
    assert repetitive_dss(40, 0.4, 4.0).xi_d == repetitive_dss(40, 0.4, 4).xi_d
