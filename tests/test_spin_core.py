import math

import numpy as np
import pytest
from _oracles import spin_matrix_oracle

from spinprep import (
    MeasurementSetting,
    SpinEnsembleState,
    apply_measurement,
    build_pulse,
    fidelity,
    make_css,
    make_dicke,
    make_superposition_target,
    observables,
    prepare_dss,
    prepare_superposition,
    response_functions,
)


def random_state(n_atoms, rng):
    amps = rng.normal(size=n_atoms + 1) + 1j * rng.normal(size=n_atoms + 1)
    return SpinEnsembleState.from_unnormalized(n_atoms, amps)


# ---------------------------------------------------------------- CSS


def test_css_n2_amplitudes():
    css = make_css(2)
    expected = np.array([0.5, 1 / math.sqrt(2), 0.5])
    np.testing.assert_allclose(css.amplitudes, expected, atol=1e-15)


def test_css_n1_amplitudes():
    css = make_css(1)
    np.testing.assert_allclose(css.amplitudes, [1 / math.sqrt(2)] * 2, atol=1e-15)


def test_css_sz2_matches_binomial_oracle():
    # independent oracle: direct sum over exact binomial coefficients
    n = 40
    oracle = sum(
        math.comb(n, k) / 2**n * (k - n / 2) ** 2 for k in range(n + 1)
    )
    assert oracle == pytest.approx(n / 4, rel=1e-14)
    assert observables(make_css(n)).mean_sz2 == pytest.approx(oracle, rel=1e-13)


@pytest.mark.parametrize("bad", [0, -3, 2.5, "4"])
def test_css_invalid_atom_count(bad):
    with pytest.raises(ValueError):
        make_css(bad)


# ---------------------------------------------------------------- Dicke states


def test_dicke_center():
    state = make_dicke(4, 0)
    assert state.amplitudes[2] == 1.0
    assert np.sum(np.abs(state.amplitudes)) == 1.0


def test_dicke_half_integer_lattice():
    state = make_dicke(3, 0.5)
    assert state.amplitudes[2] == 1.0


@pytest.mark.parametrize("m", [3, -2.5, 0.3, math.inf, -math.inf, math.nan])
def test_dicke_off_lattice_rejected(m):
    with pytest.raises(ValueError, match="lattice"):
        make_dicke(4, m)


# ---------------------------------------------------------------- targets


def test_superposition_target_two_components():
    state = make_superposition_target(100, 5)
    assert state.amplitudes[55] == pytest.approx(1 / math.sqrt(2))
    assert state.amplitudes[45] == pytest.approx(1 / math.sqrt(2))
    assert np.count_nonzero(state.amplitudes) == 2


def test_superposition_target_ghz():
    state = make_superposition_target(100, 50)
    assert abs(state.amplitudes[0]) == pytest.approx(1 / math.sqrt(2))
    assert abs(state.amplitudes[100]) == pytest.approx(1 / math.sqrt(2))


def test_superposition_target_phases():
    eta = 0.7
    state = make_superposition_target(10, 3, eta)
    assert state.amplitudes[8] == pytest.approx(np.exp(1j * eta * 3) / math.sqrt(2))
    assert state.amplitudes[2] == pytest.approx(np.exp(-1j * eta * 3) / math.sqrt(2))


def test_superposition_target_degenerate_center():
    state = make_superposition_target(10, 0)
    assert fidelity(state, make_dicke(10, 0)) == pytest.approx(1.0)


def test_superposition_target_invalid():
    with pytest.raises(ValueError):
        make_superposition_target(10, 0.3)
    with pytest.raises(ValueError):
        make_superposition_target(10, -1)
    with pytest.raises(ValueError):
        make_superposition_target(3, 0)  # odd N has a half-integer lattice
    for m_c in (math.inf, math.nan):
        with pytest.raises(ValueError, match="lattice"):
            make_superposition_target(4, m_c)


# ---------------------------------------------------------------- observables


def test_css_squeezing_parameter_is_one():
    for n in range(1, 61):
        assert abs(observables(make_css(n)).xi_d - 1.0) < 1e-12


def test_dicke0_squeezing_reaches_minimum():
    for n in range(2, 61, 2):
        assert observables(make_dicke(n, 0)).xi_d == pytest.approx(
            1 / (n + 2), abs=1e-12
        )


def test_ghz_n4_observables():
    state = make_superposition_target(4, 2)
    rep = observables(state)
    assert rep.mean_sz == pytest.approx(0.0, abs=1e-14)
    assert rep.var_sz == pytest.approx(4.0)
    assert rep.mean_sx2_plus_sy2 == pytest.approx(2.0)
    assert rep.xi_d == pytest.approx(8.5)


def test_observables_match_matrix_oracle():
    rng = np.random.default_rng(7)
    for n in (2, 5, 8, 12):
        sx, sy, sz = spin_matrix_oracle(n)
        for _ in range(5):
            state = random_state(n, rng)
            v = state.amplitudes
            rep = observables(state)
            assert rep.mean_sz == pytest.approx(np.real(v.conj() @ sz @ v), abs=1e-12)
            assert rep.mean_sz2 == pytest.approx(
                np.real(v.conj() @ sz @ sz @ v), abs=1e-12
            )
            perp = np.real(v.conj() @ (sx @ sx + sy @ sy) @ v)
            assert rep.mean_sx2_plus_sy2 == pytest.approx(perp, abs=1e-10)


# ---------------------------------------------------------------- distributions


def test_dicke_state_probabilities():
    state = make_dicke(4, 1)
    probs = np.abs(state.amplitudes) ** 2
    assert probs[state.m_values == 1.0] == pytest.approx([1.0])
    assert probs.sum() == pytest.approx(1.0)


def test_css2_probabilities():
    probs = np.abs(make_css(2).amplitudes) ** 2
    np.testing.assert_allclose(probs, [0.25, 0.5, 0.25], atol=1e-15)


def test_post_measurement_peak_position():
    # amplitude-quadrature record -chi_x * S/2 concentrates P(m) near sqrt(S/2)
    post, _ = apply_measurement(
        make_css(100), MeasurementSetting(chi_x=0.2), -0.2 * 25.0
    )
    probs = np.abs(post.amplitudes) ** 2
    positive = post.m_values > 0
    assert post.m_values[positive][np.argmax(probs[positive])] == 5.0


# ---------------------------------------------------------------- fidelity


def test_fidelity_basics():
    rng = np.random.default_rng(3)
    psi = random_state(9, rng)
    phi = random_state(9, rng)
    assert fidelity(psi, psi) == pytest.approx(1.0)
    assert 0.0 <= fidelity(psi, phi) <= 1.0
    assert fidelity(psi, phi) == pytest.approx(fidelity(phi, psi))
    assert fidelity(make_dicke(4, 0), make_dicke(4, 1)) == 0.0


def test_fidelity_global_phase_invariance():
    rng = np.random.default_rng(4)
    psi = random_state(6, rng)
    for theta in (0.3, 1.7, -2.2):
        rotated = SpinEnsembleState(6, np.exp(1j * theta) * psi.amplitudes)
        assert fidelity(psi, rotated) == pytest.approx(1.0, abs=1e-13)


def test_fidelity_one_only_for_equal_states():
    rng = np.random.default_rng(5)
    psi = random_state(8, rng)
    phi = random_state(8, rng)
    assert fidelity(psi, phi) < 1.0 - 1e-6


def test_fidelity_requires_equal_atom_count():
    with pytest.raises(ValueError):
        fidelity(make_css(4), make_css(6))


# ---------------------------------------------------------------- matrices


def test_matrix_oracle_sz_diagonal():
    _, _, sz = spin_matrix_oracle(2)
    np.testing.assert_allclose(sz, np.diag([-1.0, 0.0, 1.0]))


def test_matrix_oracle_css_is_sx_eigenstate():
    sx, _, _ = spin_matrix_oracle(2)
    v = make_css(2).amplitudes
    assert np.real(v.conj() @ sx @ v) == pytest.approx(1.0)
    np.testing.assert_allclose(sx @ v, v, atol=1e-14)


def test_matrix_oracle_commutator():
    sx, sy, sz = spin_matrix_oracle(6)
    np.testing.assert_allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-13)


def test_matrix_oracle_size_guard():
    with pytest.raises(ValueError):
        spin_matrix_oracle(13)


# ---------------------------------------------------------------- state type


def test_state_validation():
    with pytest.raises(ValueError):
        SpinEnsembleState(4, np.ones(5))  # unnormalized
    with pytest.raises(ValueError):
        SpinEnsembleState(4, np.zeros(3))  # wrong length
    with pytest.raises(ValueError, match="finite"):
        SpinEnsembleState(4, [np.nan] + [0.0] * 4)
    with pytest.raises(ValueError, match="finite"):
        SpinEnsembleState(4, [1j * np.inf] + [0.0] * 4)
    with pytest.raises(ValueError):
        SpinEnsembleState.from_unnormalized(4, np.zeros(5))


def test_state_amplitudes_are_immutable():
    css = make_css(4)
    with pytest.raises(ValueError):
        css.amplitudes[0] = 1.0


def test_states_grids_and_results_compare_and_hash_by_identity():
    # array fields make field-wise equality ambiguous; equality is identity instead
    pairs = [
        (make_css(4), make_css(4)),
        (build_pulse("exponential"), build_pulse("exponential")),
        (response_functions(build_pulse("exponential")), build_pulse("exponential")),
        (prepare_dss(40, 0.5, 0.0), prepare_dss(40, 0.5, 0.0)),
        (prepare_superposition(40, 0.2, -5.0), prepare_superposition(40, 0.2, -5.0)),
    ]
    for a, b in pairs:
        assert a == a and not a != a
        assert a != b and not a == b
        assert isinstance(hash(a), int) and hash(a) == hash(a)
        assert len({a, a, b}) == 2


def test_eta_enters_only_as_phase():
    plain = make_superposition_target(20, 4, 0.0)
    phased = make_superposition_target(20, 4, 1.3)
    p0 = np.abs(plain.amplitudes) ** 2
    p1 = np.abs(phased.amplitudes) ** 2
    np.testing.assert_allclose(p0, p1, atol=1e-15)
    assert observables(plain).xi_d == pytest.approx(observables(phased).xi_d)
