import math

import numpy as np
import pytest

from spinprep import (
    CavityParams,
    dss_with_repeated_outcome,
    feasibility,
    long_pulse_plan,
    make_superposition_target,
    prepare_dss,
    prepare_superposition,
    prob_distribution,
    repetitive_dss,
)
from spinprep.protocols import positive_side_argmax

CAVITY = CavityParams.from_two_pi_megahertz(0.4, 3000.0, 1.0, 100.0)


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
    assert positive_side_argmax(res.post_state) == 5.0
    dist = dict(prob_distribution(res.post_state))
    assert dist[5.0] == pytest.approx(dist[-5.0])
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
    assert dict(prob_distribution(res.post_state))[2.0] == pytest.approx(0.5, abs=0.01)


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
    assert positive_side_argmax(res.post_state) == 1.0  # symmetric packet about 0


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
    with pytest.raises(ValueError):
        prepare_dss(40, 0.0, 0.0)


# ---------------------------------------------------------------- repetition


def test_single_round_equals_direct_preparation():
    rep = repetitive_dss(40, 0.4, 1)
    direct = prepare_dss(40, 0.4, 0.0)
    np.testing.assert_array_equal(
        rep.post_state.amplitudes, direct.post_state.amplitudes
    )
    assert rep.xi_d == direct.xi_d


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


# ---------------------------------------------------------------- records


def test_results_serialize_to_json_records():
    import json

    dss = prepare_dss(40, 0.4, 0.0)
    record = json.loads(json.dumps(dss.to_json()))
    assert record == {
        "n_atoms": 40, "xi_d": dss.xi_d, "outcome": 0.0, "n_rounds": 1,
    }
    sup = prepare_superposition(100, 0.2, -5.0)
    record = json.loads(json.dumps(sup.to_json()))
    assert record["target_m_c"] == 5.0
    assert record["fidelity"] == sup.fidelity_vs_target
    assert record["separation"] == 10.0
