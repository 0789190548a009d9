"""Property tests of the batched log-domain posterior kernel.

The oracle is the plain linear-domain product binomial prior x Gaussian
weights, evaluated in decimal arithmetic whose exponent range no weight can
underflow, so it needs no log-sum-exp shift and shares no code with the
kernel.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinprep import (
    MeasurementSetting,
    compose,
    log_css_amplitudes,
    make_css,
    outcome_pdf,
    posterior_batch,
)

PROPERTY = settings(max_examples=40, deadline=None)


def linear_posterior(n_atoms, chi_x, chi_p, records):
    """CSS level probabilities after all ``records``, and their log density."""
    with localcontext() as ctx:
        ctx.prec = 40
        ctx.Emin, ctx.Emax = -(10**15), 10**15
        weights = []
        for k in range(n_atoms + 1):
            m = Decimal(k) - Decimal(n_atoms) / 2
            w = Decimal(math.comb(n_atoms, k)) / Decimal(2) ** n_atoms
            for y in records:
                r = Decimal(y) + Decimal(chi_x) * m * m + Decimal(chi_p) * m
                w *= (-r * r).exp()
            weights.append(w)
        total = sum(weights)
        probs = np.array([float(w / total) for w in weights])
        log_density = float(total.ln()) - 0.5 * len(records) * math.log(math.pi)
    return probs, log_density


@st.composite
def batches(draw, max_atoms=10_000, window=3.0, max_records=4):
    """(N, chi_x, chi_p, eta, records); records reach ``window`` times past the
    outermost Gaussian center, far outside [-chi S, chi S]."""
    n_atoms = draw(st.integers(1, max_atoms))
    chi_x = draw(st.floats(0.0, 10.0))
    chi_p = draw(st.floats(0.0, 10.0))
    s = n_atoms / 2.0
    reach = chi_x * s * s + chi_p * s + 5.0
    records = draw(st.lists(st.floats(-window * reach, window * reach),
                            min_size=1, max_size=max_records))
    eta = draw(st.floats(-math.pi, math.pi))
    return n_atoms, chi_x, chi_p, eta, np.array(records)


@PROPERTY
@given(batches())
def test_rows_have_unit_norm(case):
    n_atoms, chi_x, chi_p, eta, records = case
    amps, log_density = posterior_batch(
        log_css_amplitudes(n_atoms), records, chi_x, chi_p, eta
    )
    assert amps.shape == (records.size, n_atoms + 1)
    np.testing.assert_allclose(np.sum(np.abs(amps) ** 2, axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.all(np.isfinite(log_density))


@PROPERTY
@given(batches())
def test_batched_row_equals_one_record_call(case):
    n_atoms, chi_x, chi_p, eta, records = case
    log_prior = log_css_amplitudes(n_atoms)
    amps, log_density = posterior_batch(log_prior, records, chi_x, chi_p, eta)
    for row, y in enumerate(records):
        one, one_density = posterior_batch(log_prior, y, chi_x, chi_p, eta)
        np.testing.assert_allclose(amps[row], one[0], rtol=0, atol=1e-12)
        assert log_density[row] == pytest.approx(one_density[0], rel=1e-12)


@PROPERTY
@given(batches(max_atoms=40, window=1.0, max_records=3))
def test_rows_match_linear_domain_product(case):
    n_atoms, chi_x, chi_p, eta, records = case
    amps, log_density = posterior_batch(
        log_css_amplitudes(n_atoms), records, chi_x, chi_p, eta
    )
    for row, y in enumerate(records):
        probs, ref_density = linear_posterior(n_atoms, chi_x, chi_p, [y])
        np.testing.assert_allclose(np.abs(amps[row]) ** 2, probs, rtol=0, atol=1e-10)
        assert log_density[row] == pytest.approx(ref_density, rel=1e-10, abs=1e-10)


@PROPERTY
@given(batches(max_atoms=1000, max_records=8))
def test_density_equals_outcome_pdf(case):
    n_atoms, chi_x, chi_p, eta, records = case
    setting = MeasurementSetting(chi_x=chi_x, chi_p=chi_p, eta=eta)
    _, log_density = posterior_batch(
        log_css_amplitudes(n_atoms), records, chi_x, chi_p, eta
    )
    pdf = outcome_pdf(make_css(n_atoms), setting, records)
    resolved = pdf > 1e-250
    # both round the Gaussian centers, of size up to chi_x S^2, before squaring
    np.testing.assert_allclose(np.exp(log_density[resolved]), pdf[resolved], rtol=1e-6)
    # where outcome_pdf underflows, the kernel still reports a (tiny) log density
    assert np.all(log_density[pdf == 0.0] < math.log(1e-300))


@PROPERTY
@given(batches(max_atoms=40, window=1.0, max_records=2))
def test_two_records_compose_to_one_at_sqrt2_chi(case):
    n_atoms, chi_x, chi_p, eta, records = case
    y1, y2 = records[0], records[-1]
    setting = MeasurementSetting(chi_x=chi_x, chi_p=chi_p, eta=eta)
    eff, eff_outcome, log_const = compose([(setting, y1), (setting, y2)])
    assert eff.chi_x == pytest.approx(math.sqrt(2.0) * chi_x)
    assert eff.chi_p == pytest.approx(math.sqrt(2.0) * chi_p)
    amps, log_density = posterior_batch(
        log_css_amplitudes(n_atoms), eff_outcome, eff.chi_x, eff.chi_p, eff.eta
    )
    probs, ref_density = linear_posterior(n_atoms, chi_x, chi_p, [y1, y2])
    np.testing.assert_allclose(np.abs(amps[0]) ** 2, probs, rtol=0, atol=1e-10)
    assert log_density[0] + 2.0 * log_const == pytest.approx(ref_density, rel=1e-10, abs=1e-10)


@PROPERTY
@given(batches())
def test_eta_changes_phases_only(case):
    n_atoms, chi_x, chi_p, eta, records = case
    log_prior = log_css_amplitudes(n_atoms)
    plain, plain_density = posterior_batch(log_prior, records, chi_x, chi_p, 0.0)
    phased, phased_density = posterior_batch(log_prior, records, chi_x, chi_p, eta)
    np.testing.assert_array_equal(plain_density, phased_density)
    np.testing.assert_allclose(np.abs(phased), np.abs(plain), rtol=0, atol=1e-15)
    m = np.arange(n_atoms + 1) - n_atoms / 2.0
    np.testing.assert_allclose(phased, plain * np.exp(1j * eta * m), rtol=0, atol=1e-12)
