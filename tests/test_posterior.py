"""Property tests of the batched log-domain posterior kernel and the POVM.

The kernel's oracle is the plain linear-domain product binomial prior x
Gaussian weights, evaluated in decimal arithmetic whose exponent range no
weight can underflow, so it needs no log-sum-exp shift and shares no code
with the kernel.  POVM completeness, int M(Y)^dagger M(Y) dY = I, is checked
by Gauss-Legendre quadrature of each level's outcome density.
"""

import math
import re
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from _oracles import (
    decimal_posterior,
    decimal_xi_d,
    log_domain_rows,
    mixture_pdf,
    normalized_first,
)

from spinprep import (
    CssPrior,
    MeasurementSetting,
    PosteriorError,
    SpinEnsembleState,
    acceptance_probability,
    apply_measurement,
    compose,
    css_log_window,
    dicke_squeezing,
    dss_rows,
    make_css,
    make_dicke,
    outcome_pdf,
    posterior_batch,
    superposition_rows,
)
from spinprep.measurement import (
    _ArrayPrior,
    _band_limits,
    _densities_only,
    _state_prior,
    level_rows,
)
from spinprep.protocols import _fidelity_rows, _packet_geometry, _xi_rows

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
    n_atoms, chi_x, chi_p, _, records = case
    probs, log_density = posterior_batch(
        css_log_window(n_atoms, 0, n_atoms + 1), records, chi_x, chi_p
    )
    assert probs.shape == (records.size, n_atoms + 1)
    np.testing.assert_allclose(np.sum(probs, axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.all(np.isfinite(log_density))


@PROPERTY
@given(batches())
def test_batched_row_equals_one_record_call(case):
    n_atoms, chi_x, chi_p, _, records = case
    log_prior = css_log_window(n_atoms, 0, n_atoms + 1)
    probs, log_density = posterior_batch(log_prior, records, chi_x, chi_p)
    for row, y in enumerate(records):
        one, one_density = posterior_batch(log_prior, y, chi_x, chi_p)
        np.testing.assert_allclose(probs[row], one[0], rtol=0, atol=1e-12)
        assert log_density[row] == pytest.approx(one_density[0], rel=1e-12)


@PROPERTY
@given(batches(max_atoms=40, window=1.0, max_records=3))
# a record about 10^3 from every center, with two nearly tied levels
@example((35, 7.0, 1e-12, 0.0, np.array([2061.0])))
def test_rows_match_linear_domain_product(case):
    n_atoms, chi_x, chi_p, _, records = case
    probs, log_density = posterior_batch(
        css_log_window(n_atoms, 0, n_atoms + 1), records, chi_x, chi_p
    )
    for row, y in enumerate(records):
        ref_probs, ref_density = linear_posterior(n_atoms, chi_x, chi_p, [y])
        np.testing.assert_allclose(probs[row], ref_probs, rtol=0, atol=1e-10)
        assert log_density[row] == pytest.approx(ref_density, rel=1e-10, abs=1e-10)


@PROPERTY
@given(batches(max_atoms=1000, max_records=8))
def test_density_equals_outcome_pdf(case):
    n_atoms, chi_x, chi_p, eta, records = case
    setting = MeasurementSetting(chi_x=chi_x, chi_p=chi_p, eta=eta)
    state = make_css(n_atoms)
    _, log_density = posterior_batch(
        css_log_window(n_atoms, 0, n_atoms + 1), records, chi_x, chi_p
    )
    pdf = outcome_pdf(state, setting, records)
    ref = mixture_pdf(records, state, setting)
    resolved = ref > 1e-250
    # kernel and oracle both round the Gaussian centers, of size up to
    # chi_x S^2, before squaring
    np.testing.assert_allclose(np.exp(log_density[resolved]), ref[resolved], rtol=1e-6)
    np.testing.assert_allclose(pdf[resolved], ref[resolved], rtol=1e-6)
    # where the linear-domain mixture underflows, the kernel still reports a
    # (tiny) log density
    assert np.all(log_density[ref == 0.0] < math.log(1e-300))


@PROPERTY
@given(batches(max_records=20))
# bands 180 and 1007 levels wide: a density that depends on the batch's widest band shows
@example((2000, 0.0, 0.3, 0.0, np.array([-0.72, -250.0])))
def test_record_density_same_alone_and_in_batch(case):
    # up to 20 records span several kernel chunks once N exceeds about 3000
    n_atoms, chi_x, chi_p, eta, records = case
    state = make_css(n_atoms)
    setting = MeasurementSetting(chi_x=chi_x, chi_p=chi_p, eta=eta)
    batch = outcome_pdf(state, setting, records)
    for row, y in enumerate(records):
        assert outcome_pdf(state, setting, y) == batch[row]
        assert apply_measurement(state, setting, y)[1] == batch[row]


@PROPERTY
@given(batches(max_records=20))
def test_figures_same_alone_and_in_batch(case):
    # up to 20 records change the band width and, past N of about 3000, the
    # chunk split; neither may change a record's figure by a bit
    n_atoms, chi_x, chi_p, _, records = case
    chi_x, chi_p = max(chi_x, 1e-3), max(chi_p, 1e-3)  # the row functions need > 0
    xi = dss_rows(n_atoms, chi_p, records)[0]
    per_record_xi = dss_rows(n_atoms, np.full(records.size, chi_p), records)[0]
    fid = superposition_rows(n_atoms, chi_x, records)[0]
    for row, y in enumerate(records):
        assert dss_rows(n_atoms, chi_p, y)[0][0] == xi[row] == per_record_xi[row]
        assert superposition_rows(n_atoms, chi_x, y)[0][0] == fid[row]


def assert_rows_equal_per_record_calls(n_atoms, chi, records):
    """Every figure of a batch over per-record atom counts equals its own call's."""
    xi, xi_density = dss_rows(n_atoms, chi, records)
    fid, m_c, separation, width, fid_density = superposition_rows(n_atoms, chi, records)
    for row, (n, c, y) in enumerate(np.broadcast(n_atoms, chi, records)):
        one_xi, one_xi_density = dss_rows(int(n), c, y)
        assert (xi[row], xi_density[row]) == (one_xi[0], one_xi_density[0])
        one = superposition_rows(int(n), c, y)
        assert (fid[row], m_c[row], separation[row], width[row], fid_density[row]) == tuple(
            v[0] for v in one
        )


@st.composite
def ladder_batches(draw, max_records=8):
    """(atom counts, chi, records): a few atom counts, in runs or interleaved."""
    counts = draw(st.lists(st.integers(1, 3000), min_size=1, max_size=3))
    n_atoms = np.array(draw(st.lists(st.sampled_from(counts), min_size=1, max_size=max_records)))
    chi = draw(st.floats(1e-3, 4.0))
    reach = chi * (n_atoms.max() / 2.0) ** 2 + 5.0
    records = draw(st.lists(st.floats(-reach, reach), min_size=n_atoms.size,
                            max_size=n_atoms.size))
    return n_atoms, chi, np.array(records)


@PROPERTY
@given(ladder_batches())
def test_figures_same_alone_and_in_batch_over_atom_counts(case):
    # records of several atom counts share one kernel call and one level axis;
    # no record's figure may change by a bit
    assert_rows_equal_per_record_calls(*case)


def test_figures_same_alone_and_in_batch_across_chunks():
    # bands of 27 to about 1060 levels: width-sorted chunks, each cut at its own
    # widest band, over one atom count and over several
    chis = np.linspace(0.05, 2.0, 200)
    assert_rows_equal_per_record_calls(2000, chis, 0.0)
    assert_rows_equal_per_record_calls(np.repeat([1999, 2000, 2001], 60), chis[::-1][:180], 1.5)


def test_kernel_writes_each_chunk_at_its_records():
    # two atom counts on one level axis, bands of about 20 to 530 levels: the
    # batch runs in several width-sorted chunks, and each chunk's values must
    # land at its own records' rows
    n_atoms = np.repeat([1000, 1200], 1000)
    chis = np.tile([0.1, 3.0, 0.4, 1.5], 500)
    widths = []

    def reduce(weights, mass, rows, first, count):
        widths.append(weights.shape[1])
        return rows

    rows, _ = posterior_batch(CssPrior(n_atoms), 0.5, chi_p=chis, reduce=reduce)
    assert len(widths) > 2 and len(set(widths)) > 2
    np.testing.assert_array_equal(rows, np.arange(n_atoms.size))
    # a batch of one chunk returns what reduce gave, as it is
    value = object()
    assert posterior_batch(CssPrior(1000), 0.5, chi_p=0.4, reduce=lambda *_: value)[0] is value


# (N, records, chi_p, chi_x): bands of at most 41 levels, under numpy's own
# ufunc buffer, and of about 130 to 5200 levels, each multi-row chunk under a
# buffer of its row width; in one chunk, and in several
REDUCE_CASES = {
    "40x5": (40, 5, 0.4, 0.1),
    "40x2000": (40, 2000, 0.4, 0.1),
    "1e4x5": (10**4, 5, 0.03, 1e-4),
    "1e4x150": (10**4, 150, 0.03, 1e-4),
}


def figure_records(n_atoms, size, chi_p, chi_x, per_record):
    """Phase- and amplitude-quadrature records, within two sigma and on the packets,
    with strengths shared or spread over x1 to x3 per record."""
    scale = np.linspace(1.0, 3.0, size) if per_record else 1.0
    chi_p, chi_x = chi_p * scale, chi_x * scale
    sigma = np.sqrt(0.5 + chi_p * chi_p * n_atoms / 4.0)
    dss = np.linspace(-2.0, 2.0, size) * sigma
    packets = -chi_x * (n_atoms / 2.0 * np.linspace(0.1, 0.5, size)) ** 2
    return chi_p, dss, chi_x, packets


def assert_same_bits(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("per_record", [False, True], ids=["shared", "per_record"])
@pytest.mark.parametrize("case", REDUCE_CASES.values(), ids=REDUCE_CASES.keys())
def test_reduces_equal_reading_rows_normalized_first(case, per_record):
    # the kernel hands a reduce unnormalized weights and their mass, and each
    # reduce divides only what it reads: every value must equal, bit for bit,
    # the reduce's value on rows divided in full by their mass first
    n_atoms, size = case[:2]
    chi_p, dss, chi_x, packets = figure_records(*case, per_record)
    prior = CssPrior(n_atoms)
    m_c = _packet_geometry(n_atoms, chi_x + np.zeros(size), packets)[0]
    for reduce, records, strengths in (
        (_xi_rows(n_atoms), dss, {"chi_p": chi_p}),
        (_densities_only, dss, {"chi_p": chi_p}),
        (_fidelity_rows(n_atoms, m_c), packets, {"chi_x": chi_x}),
    ):
        chunks = []
        got = posterior_batch(prior, records, reduce=reduce, **strengths)
        want = posterior_batch(prior, records, reduce=normalized_first(reduce, chunks), **strengths)
        assert_same_bits(got, want)
        # the case holds the chunks and band widths it names
        assert (len(chunks) > 1) == (size > 5)
        widths = [width for _, width in chunks]
        assert max(widths) < 96 if n_atoms == 40 else min(widths) >= 96
    # fig2 a and b: the default reduce scatters the normalized rows over the ladder
    full_rows = normalized_first(lambda probs, mass, rows, first, count: level_rows(
        probs, first, n_atoms + 1))
    for records, strengths in ((dss, {"chi_p": chi_p}), (packets, {"chi_x": chi_x})):
        assert_same_bits(posterior_batch(prior, records, **strengths),
                         posterior_batch(prior, records, reduce=full_rows, **strengths))


@pytest.mark.parametrize("bufsize", [None, 4096], ids=["numpy_default", "caller_set"])
def test_kernel_leaves_numpy_state_as_the_caller_set_it(bufsize):
    # each multi-row chunk runs under a ufunc buffer of its row width; the
    # caller's buffer size and error state hold after every return and raise
    records = np.linspace(-3.0, 3.0, 150)  # several chunks, bands of about 1770 levels
    overflowing = records.copy()
    overflowing[0] = -1e160
    state, setting = make_css(10**4), MeasurementSetting(chi_p=0.03)
    calls = (
        lambda y: posterior_batch(CssPrior(10**4), y, chi_p=0.03),
        lambda y: outcome_pdf(state, setting, y),
        lambda y: apply_measurement(state, setting, y[0]),
    )
    with np.errstate(divide="raise", invalid="raise"):
        if bufsize is not None:
            np.setbufsize(bufsize)
        caller = np.geterr(), np.getbufsize()
        for call in calls:
            call(records)
            assert (np.geterr(), np.getbufsize()) == caller
            with pytest.raises(PosteriorError):
                call(overflowing)
            assert (np.geterr(), np.getbufsize()) == caller


def test_figures_keep_their_bits_under_any_caller_buffer():
    def figures():
        values = []
        for case in ((40, 150, 0.4, 0.1), (10**4, 150, 0.03, 1e-4)):
            chi_p, dss, chi_x, packets = figure_records(*case, per_record=False)
            values += dss_rows(case[0], chi_p, dss)
            values += superposition_rows(case[0], chi_x, packets)
            values.append(outcome_pdf(make_css(case[0]), MeasurementSetting(chi_p=chi_p), dss))
        return values

    runs = []
    for bufsize in (16, 8192):
        with np.errstate():
            np.setbufsize(bufsize)
            runs.append(figures())
    assert_same_bits(*runs)


@pytest.mark.parametrize("failing", [(40, 100), (100, 40)], ids=["nan_first", "overflow_first"])
def test_batch_names_its_first_failing_record_across_chunks(failing):
    # a nan record and one whose squared residual overflows fail their rows'
    # densities in different chunks, which do not run in record order
    records = np.linspace(-3.0, 3.0, 150)
    records[list(failing)] = math.nan, -1e160
    first = records[min(failing)]
    for reduce in (_densities_only, _xi_rows(10**4)):
        chunks = []

        def counted(weights, *rest, reduce=reduce):
            chunks.append(weights.shape)
            return reduce(weights, *rest)

        with pytest.raises(PosteriorError, match=re.escape(f"record {first} lost")):
            posterior_batch(CssPrior(10**4), records, chi_p=0.03, reduce=counted)
        assert len(chunks) > 1


def test_band_never_reads_a_neighbouring_ladder():
    # the N = 3000 record -1250 has a band of 125 levels, so its group's windows
    # run 125 levels past each band start; the 11- and 12-level ladders beside
    # it must see -inf there, not the next ladder's levels
    n_atoms = np.array([10, 3000, 11, 10])
    records = np.array([0.0, -1250.0, 0.3, 2.0])
    count, _ = posterior_batch(CssPrior(n_atoms), records, chi_p=1.0,
                               reduce=lambda weights, mass, rows, first, count: count)
    assert count.tolist() == [11, 125, 12, 11]
    assert_rows_equal_per_record_calls(n_atoms, 1.0, records)
    probs, log_density = posterior_batch(CssPrior(n_atoms), records, chi_p=1.0)
    assert probs.shape == (4, 3001)
    for row, (n, y) in enumerate(zip(n_atoms, records)):
        alone, alone_density = posterior_batch(CssPrior(int(n)), y, chi_p=1.0)
        np.testing.assert_array_equal(probs[row, : n + 1], alone[0])
        assert not probs[row, n + 1 :].any()
        assert log_density[row] == alone_density[0]


class WindowLog:
    """A prior read through another one, that records every window and reference asked of it.

    It holds the prior's ``atom_count`` and forwards ``reference`` and
    ``window`` alone, so a kernel that read any other fact would fail.
    """

    def __init__(self, prior):
        self.prior, self.windows, self.references = prior, [], []
        self.atom_count = prior.atom_count

    def reference(self, points):
        levels, drops = self.prior.reference(points)
        self.references.append((np.array(points), levels, drops))
        return levels, drops

    def window(self, n_atoms, first, stop):
        self.windows.append((n_atoms, first, stop))
        return self.prior.window(n_atoms, first, stop)


def sparse_log_prior(n_atoms, seed):
    rng = np.random.default_rng(seed)
    log_mag = rng.normal(size=n_atoms + 1)
    log_mag[rng.random(n_atoms + 1) < 0.6] = -np.inf
    log_mag[n_atoms // 3] = 0.0  # some level is occupied
    return log_mag


def banded_state(n_atoms, first, width, seed):
    """A state on levels ``first`` ... ``first + width - 1`` alone, 60 % of them unoccupied."""
    rng = np.random.default_rng(seed)
    probs = rng.random(width)
    probs[rng.random(width) < 0.6] = 0.0
    probs[width // 2] = 1.0  # some level is occupied
    probs /= probs.sum()
    return SpinEnsembleState.from_probabilities(n_atoms, probs, rng.uniform(-3, 3, width), first)


@pytest.mark.parametrize("prior, records, chi_p", [
    (CssPrior(1000), np.linspace(-400.0, 400.0, 9), np.array([0.06, 0.4, 2.0])[:, None]),
    # fig3 c: one record per atom count, 56 ladders on shared level axes
    (CssPrior(np.arange(10, 121, 2)), np.zeros(56), 2.0),
    (_ArrayPrior(sparse_log_prior(300, 7)), np.linspace(-200.0, 200.0, 9), 1.5),
    # a state's band, levels 4000 ... 4059 of 10^4: its windows are offset, and
    # records outside the band read -inf past its ends
    (_state_prior(banded_state(10_000, 4000, 60, 3)), np.linspace(-15.0, 15.0, 9),
     np.array([0.1, 1.5])[:, None]),
], ids=["css", "css_56_counts", "array", "banded_state"])
def test_kernel_reads_a_prior_only_through_its_window(prior, records, chi_p):
    # every window the kernel asks for lies on its ladder and holds each
    # record's band, and a prior that only forwards window calls changes nothing
    records, chi_p = np.broadcast_arrays(records, chi_p)
    records, chi_p = records.ravel(), chi_p.ravel()
    logged = WindowLog(prior)
    bands, _ = posterior_batch(logged, records, chi_p=chi_p,
                               reduce=lambda weights, mass, rows, first, count: np.c_[first, count])
    atoms = np.broadcast_to(prior.atom_count, records.shape)
    assert logged.windows
    for n, first, stop in logged.windows:
        assert n in atoms and 0 <= first < stop <= n + 1
    for n, (first, count) in zip(atoms, bands):
        assert any(w_n == n and w_first <= first and first + count <= w_stop
                   for w_n, w_first, w_stop in logged.windows)
    # one reference call for the batch, at points on each record's ladder: the
    # levels it gives are occupied, and bound the fall below the prior's top
    # from above
    (points, levels, drops), = logged.references
    assert points.shape[-1] == records.size and np.all((0 <= points) & (points <= atoms))
    for n, k, drop in np.broadcast(atoms, levels, drops):
        log_mag = prior.window(int(n), 0, int(n) + 1)
        assert log_mag[int(k)] > -np.inf
        assert drop >= 2.0 * (log_mag.max() - log_mag[int(k)]) - 1e-12
    for reduce in (None, _xi_rows(prior.atom_count)):
        got = posterior_batch(WindowLog(prior), records, chi_p=chi_p, reduce=reduce)
        want = posterior_batch(prior, records, chi_p=chi_p, reduce=reduce)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_batch_over_atom_counts_peaks_as_one_call():
    # at chi_p 1e-6 each band holds all 10^5 + 1 levels, so each ladder forms a
    # group alone; a group's arrays are freed before the next group reads its
    # window, so the batch peaks as one call does (a group kept alive while the
    # next one is built reads 1.2x)
    def peak(run):
        tracemalloc.start()
        run()
        traced = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return traced

    one = peak(lambda: dss_rows(100_000, 1e-6, 0.0))
    batch = peak(lambda: dss_rows(np.arange(100_000, 100_020), 1e-6, 0.0))
    assert batch <= 1.1 * one


def test_largest_atom_count_is_two_to_the_53():
    assert CssPrior(2**53).atom_count == 2**53
    assert CssPrior(np.array([40, 2**53])).atom_count.tolist() == [40, 2**53]
    with pytest.raises(ValueError, match="got 4611686018427387904"):
        dss_rows(2**62, 2.0, [0.0])  # was a log density of +8703 from wrapped level indices


def test_one_atom_count_in_an_array_is_shared_by_every_record():
    records = np.array([-3.0, 0.0, 0.5])
    assert CssPrior(np.array([40])).atom_count == 40
    shared = superposition_rows(40, 0.1, records)
    for got, want in zip(superposition_rows([40], 0.1, records), shared):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(dss_rows([40], 0.4, records)[0], dss_rows(40, 0.4, records)[0])


@pytest.mark.parametrize("n_atoms, message", [
    ([3, 0, 5], "got 0"),
    (np.array([4, -2]), "got -2"),
    ([4.0, 6.0], "got 4.0"),
    ([[4, 6]], "1-d array"),
    ([], "1-d array"),
    ([40, 2**53 + 1], "at most 2\\*\\*53 = 9007199254740992, got 9007199254740993"),
    ([40, 10**20], "got 100000000000000000000"),
    (np.array([40, 2**62], dtype=np.uint64), "got 4611686018427387904"),
])
def test_css_prior_rejects_bad_atom_counts(n_atoms, message):
    with pytest.raises(ValueError, match=message):
        CssPrior(n_atoms)


@st.composite
def priors(draw, n_atoms):
    """Amplitudes of a CSS, a Dicke state or a sparse random state of n_atoms."""
    kind = draw(st.sampled_from(["css", "dicke", "sparse"]))
    if kind == "css":
        return make_css(n_atoms)
    if kind == "dicke":
        return make_dicke(n_atoms, draw(st.integers(0, n_atoms)) - n_atoms / 2)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=n_atoms + 1) + 1j * rng.normal(size=n_atoms + 1)
    amps[rng.random(n_atoms + 1) < 0.7] = 0.0
    amps[rng.integers(n_atoms + 1)] = 1.0  # never the zero vector
    return SpinEnsembleState.from_unnormalized(n_atoms, amps)


@PROPERTY
@given(st.data())
def test_band_keeps_every_level_the_floor_keeps(data):
    # the kernel evaluates each record only on its band; a full-width row of
    # the same formula, relative to the kernel's reference level, must find
    # no level within e^-690 of the peak outside it
    n_atoms, chi_x, chi_p, eta, records = data.draw(batches(max_atoms=2000))
    state = data.draw(priors(n_atoms))
    with np.errstate(all="ignore"):
        strengths = np.array([chi_x]), np.array([chi_p])
        reference_centers = _band_limits(_state_prior(state), records, *strengths)[2]
    log_w, ref = log_domain_rows(state.amplitudes, records, chi_x, chi_p, reference_centers)
    setting = MeasurementSetting(chi_x=chi_x, chi_p=chi_p, eta=eta)
    for row, y in enumerate(records):
        post, _ = apply_measurement(state, setting, y)
        probs = np.abs(post.amplitudes) ** 2
        assert np.all(probs[log_w[row] > -690.0] > 0.0)
        np.testing.assert_allclose(probs, ref[row], rtol=0, atol=1e-12)


@st.composite
def sparse_far_records(draw):
    """(N, chi_x, chi_p, record, occupied levels, seed): a record up to 3x past the
    outermost center, on a state with 1 to 70 % of its levels occupied at random."""
    n_atoms = draw(st.integers(1, 2000))
    chi_x = draw(st.floats(0.0, 10.0))
    chi_p = draw(st.floats(0.0, 10.0))
    s = n_atoms / 2.0
    reach = chi_x * s * s + chi_p * s + 5.0
    record = draw(st.floats(-3.0 * reach, 3.0 * reach))
    occupied = draw(st.integers(1, max(1, 7 * (n_atoms + 1) // 10)))
    return n_atoms, chi_x, chi_p, record, occupied, draw(st.integers(0, 2**32 - 1))


@PROPERTY
@given(sparse_far_records())
# the two levels nearest the ladder's ends, 15 levels in, tie; the level nearest
# the record's centers is empty, and rows formed relative to it put the
# probabilities 4.9e-5 off
@example((1866, 6.02188, 0.0, -1.5557e7, 528, 15))
# near-ties of levels on either side of the roots, found by hypothesis: 2.6e-15,
# 5.9e-15 and 6.8e-13 off, at spreads of 30, 59 and 9253
@example((93, 0.0, 3.7776940314756384, 3.75, 24, 41))
@example((79, 0.0, 2.0, 6.000000000000001, 28, 2333640))
@example((102, 0.0, 9.624433768622985, 9.624433768622985, 9, 9))
def test_sparse_prior_far_record_matches_decimal_posterior(case):
    n_atoms, chi_x, chi_p, record, occupied, seed = case
    rng = np.random.default_rng(seed)
    amps = np.zeros(n_atoms + 1, dtype=complex)
    levels = rng.choice(n_atoms + 1, size=occupied, replace=False)
    amps[levels] = rng.normal(size=occupied) + 1j * rng.normal(size=occupied)
    state = SpinEnsembleState.from_unnormalized(n_atoms, amps)
    with np.errstate(divide="ignore"):
        log_prior = np.log(np.abs(state.amplitudes))
    probs, _ = posterior_batch(log_prior, record, chi_x, chi_p)
    ref = decimal_posterior(state.amplitudes, chi_x, chi_p, record)
    # rows are formed from the offsets c_m - c_j of double centres, each rounded
    # once: where the posterior spreads over levels of different centres (two
    # levels on either side of the roots that nearly tie), that rounding moves
    # the rows by about eps (c_m - c_j)^2, and the probabilities by 0.1 to 0.5
    # eps times the posterior's variance of c_m (the spread) in 16,000 draws;
    # levels of equal centres, the defect's tie, keep the bare 1e-15
    m = np.arange(n_atoms + 1) - n_atoms / 2
    centers = chi_x * (m * m) + chi_p * m
    spread = ref @ (centers - ref @ centers) ** 2
    np.testing.assert_allclose(probs[0], ref, rtol=0, atol=1e-15 + 8 * np.finfo(float).eps * spread)


@pytest.mark.parametrize(
    "n_atoms, chi_p, fraction",
    [(100_000, 3.0, 0.5), (100_000, 2.0, 0.3), (20_000, 4.0, 0.9), (40, 0.4, 0.5)],
)
def test_xi_d_matches_decimal_centred_moments(n_atoms, chi_p, fraction):
    # a record far from m = 0 leaves a narrow packet there; uncentred moments
    # lost up to 6e-7 of xi_D to cancellation, centred ones keep it to 1e-13
    y = -chi_p * fraction * n_atoms / 2
    probs, _ = posterior_batch(css_log_window(n_atoms, 0, n_atoms + 1), y, chi_p=chi_p)
    ref = decimal_xi_d(probs[0], n_atoms)
    assert dicke_squeezing(probs, n_atoms)[0] == pytest.approx(ref, rel=1e-13, abs=0)
    assert dss_rows(n_atoms, chi_p, y)[0][0] == pytest.approx(ref, rel=1e-13, abs=0)


@PROPERTY
@given(batches(max_atoms=40, window=1.0, max_records=2))
@example((38, 4.0, 4.0, 0.0, np.array([1449.0])))
@example((34, 5.0, 5.0, 0.0, np.array([1449.0])))
def test_two_records_compose_to_one_at_sqrt2_chi(case):
    n_atoms, chi_x, chi_p, eta, records = case
    y1, y2 = records[0], records[-1]
    setting = MeasurementSetting(chi_x=chi_x, chi_p=chi_p, eta=eta)
    eff, eff_outcome, log_const = compose([(setting, y1), (setting, y2)])
    assert eff.chi_x == pytest.approx(math.sqrt(2.0) * chi_x)
    assert eff.chi_p == pytest.approx(math.sqrt(2.0) * chi_p)
    probs, log_density = posterior_batch(
        css_log_window(n_atoms, 0, n_atoms + 1), eff_outcome, eff.chi_x, eff.chi_p
    )
    ref_probs, ref_density = linear_posterior(n_atoms, chi_x, chi_p, [y1, y2])
    np.testing.assert_allclose(probs[0], ref_probs, rtol=0, atol=1e-10)
    assert log_density[0] + 2.0 * log_const == pytest.approx(ref_density, rel=1e-10, abs=1e-10)


@PROPERTY
@given(batches())
def test_eta_changes_phases_only(case):
    n_atoms, chi_x, chi_p, eta, records = case
    state = make_css(n_atoms)
    m = np.arange(n_atoms + 1) - n_atoms / 2.0
    for y in records:
        plain, plain_density = apply_measurement(state, MeasurementSetting(chi_x, chi_p), y)
        phased, phased_density = apply_measurement(
            state, MeasurementSetting(chi_x, chi_p, eta), y
        )
        assert phased_density == plain_density
        np.testing.assert_allclose(
            np.abs(phased.amplitudes), np.abs(plain.amplitudes), rtol=0, atol=1e-15
        )
        np.testing.assert_allclose(
            phased.amplitudes, plain.amplitudes * np.exp(1j * eta * m), rtol=0, atol=1e-12
        )


# ---------------------------------------------------------------- POVM completeness

POVM = settings(max_examples=15, deadline=None)
povm_settings = st.builds(
    MeasurementSetting,
    chi_x=st.floats(0.0, 5.0),
    chi_p=st.floats(0.0, 5.0),
    eta=st.floats(-math.pi, math.pi),
)


# a 256-node Gauss-Legendre rule over centre +- 40 integrates a variance-1/2
# Gaussian to about 1e-13, and the tails beyond hold erfc(40), below 1e-690
LEGENDRE_NODES, LEGENDRE_WEIGHTS = np.polynomial.legendre.leggauss(256)


@POVM
@given(st.integers(1, 200), povm_settings, st.data())
def test_level_densities_integrate_to_one(n_atoms, setting, data):
    # M(Y) is diagonal, so int M^dagger M dY = I says each Dicke level's
    # outcome density has unit mass; the outermost levels lie farthest out
    for k in {0, n_atoms, data.draw(st.integers(0, n_atoms))}:
        m = k - n_atoms / 2
        state = make_dicke(n_atoms, m)
        center = -(setting.chi_x * m * m + setting.chi_p * m)
        mass = 40.0 * LEGENDRE_WEIGHTS @ outcome_pdf(state, setting, center + 40.0 * LEGENDRE_NODES)
        assert mass == pytest.approx(1.0, rel=0, abs=1e-10)


@POVM
@given(st.integers(1, 200), povm_settings, st.integers(0, 2**32 - 1))
def test_full_window_accepts_every_record(n_atoms, setting, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n_atoms + 1) + 1j * rng.normal(size=n_atoms + 1)
    amps[rng.random(n_atoms + 1) < 0.5] = 0.0
    amps[rng.integers(n_atoms + 1)] = 1.0  # never the zero vector
    state = SpinEnsembleState.from_unnormalized(n_atoms, amps)
    assert acceptance_probability(state, setting, 0.0, math.inf) == pytest.approx(
        1.0, rel=0, abs=1e-12
    )
