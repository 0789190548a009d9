import argparse
import io
import json
import math
import os
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import chi_square_gof, flat_top_peak, mixture_pdf, stdlib_json_text
from spinprep import (
    MeasurementSetting,
    __version__,
    apply_measurement,
    dss_rows,
    dss_with_repeated_outcome,
    fidelity,
    make_css,
    make_superposition_target,
    observables,
    prepare_dss,
    prepare_superposition,
    repetitive_dss,
)
from spinprep.cli import (
    COMMANDS,
    _command_parser,
    SweepResult,
    SweepSpec,
    main,
    read_result,
    write_csv,
    write_json,
)


def run(tmp_path, *argv, name="out.csv"):
    path = tmp_path / name
    rc = main(list(argv) + ["--out", str(path)])
    assert rc == 0
    return read_result(path), path


def column(result, name):
    idx = result["columns"].index(name)
    return np.array([row[idx] for row in result["rows"]])


# ---------------------------------------------------------------- fig2


def test_fig2a_default_peaks(tmp_path):
    res, _ = run(tmp_path, "fig2", "a")
    assert len(res["rows"]) == 101
    m = column(res, "m")
    for col in ("p_chi_0p05", "p_chi_0p1", "p_chi_0p2"):
        p = column(res, col)
        positive = m > 0
        assert m[positive][np.argmax(p[positive])] == 5.0
        assert p.sum() == pytest.approx(1.0, abs=1e-9)


def test_fig2a_small_ensemble_shape(tmp_path):
    res, _ = run(tmp_path, "fig2", "a", "--N", "4")
    assert len(res["rows"]) == 5


def test_fig_bad_overrides_exit_usage():
    assert main(["fig2", "a", "--N", "0"]) == 1
    assert main(["fig2", "z"]) == 1
    assert main(["fig3", "a", "--chi-p", "-0.4"]) == 1


@pytest.mark.parametrize("sub", ["a", "b", "c"])
def test_fig4_rounds_below_one_exit_usage(sub, capsys):
    assert main(["fig4", sub, "--n", "0"]) == 1
    assert "--n" in capsys.readouterr().err


def test_fig2b_record_families(tmp_path):
    res, _ = run(tmp_path, "fig2", "b")
    assert res["columns"] == ["m", "p_xl_third", "p_xl_half", "p_xl_full"]
    m = column(res, "m")
    # larger record magnitude pushes the packets further out
    peaks = []
    for col in ("p_xl_third", "p_xl_half", "p_xl_full"):
        p = column(res, col)
        positive = m > 0
        peaks.append(m[positive][np.argmax(p[positive])])
    assert peaks[0] < peaks[1] < peaks[2]


def test_fig2c_fidelity_curves(tmp_path):
    res, _ = run(tmp_path, "fig2", "c")
    for col in ("f_xl_third", "f_xl_half", "f_xl_full"):
        f = column(res, col)
        assert all(b >= a - 1e-12 for a, b in zip(f, f[1:]))
        assert f[-1] > 0.99


# ---------------------------------------------------------------- fig3


def test_fig3a_minimum_at_zero_record(tmp_path):
    res, _ = run(tmp_path, "fig3", "a")
    frac = column(res, "outcome_fraction")
    for col in ("xi_d_chi_0p2", "xi_d_chi_0p4"):
        xi = column(res, col)
        assert frac[np.argmin(xi)] == 0.0


def test_fig3b_two_atom_saturation(tmp_path):
    res, _ = run(tmp_path, "fig3", "b", "--N", "2")
    xi = column(res, "xi_d_n2")
    assert all(b <= a + 1e-12 for a, b in zip(xi, xi[1:]))
    assert abs(xi[-1] - 0.25) < 0.03  # approaches 1/(N+2) = 1/4


def test_fig3c_reference_columns(tmp_path):
    res, _ = run(tmp_path, "fig3", "c")
    n = column(res, "n_atoms")
    xi = column(res, "xi_d")
    ideal = column(res, "xi_d_ideal")
    ratio = column(res, "xi_d_times_n_plus_2")
    np.testing.assert_allclose(ideal, 1.0 / (n + 2), rtol=1e-12)
    np.testing.assert_allclose(ratio, xi * (n + 2), rtol=1e-12)
    assert list(n) == list(range(10, 121, 2))


# ---------------------------------------------------------------- fig4


def test_fig4b_single_round_matches_fig3b(tmp_path):
    res4, _ = run(tmp_path, "fig4", "b", name="f4.csv")
    res3, _ = run(tmp_path, "fig3", "b", "--N", "40", name="f3.csv")
    np.testing.assert_array_equal(column(res4, "xi_d_n1"), column(res3, "xi_d_n40"))


def test_fig4c_markers_and_ordering(tmp_path):
    res, _ = run(tmp_path, "fig4", "c")
    assert column(res, "n_opt_chi_0p2")[0] == pytest.approx(100.0)
    assert column(res, "n_opt_chi_0p4")[0] == pytest.approx(25.0)
    xi = column(res, "xi_d_chi_0p4")
    assert all(b <= a + 1e-12 for a, b in zip(xi, xi[1:]))
    n = column(res, "n_rounds")
    at25 = xi[list(n).index(25)]
    assert at25 == pytest.approx(prepare_dss(40, 2.0, 0.0).xi_d, rel=1e-12)


def test_fig4a_single_round_matches_direct(tmp_path):
    res, _ = run(tmp_path, "fig4", "a")
    frac = column(res, "outcome_fraction")
    xi1 = column(res, "xi_d_n1")
    direct = [prepare_dss(40, 0.4, float(f) * 0.4 * 20.0).xi_d for f in frac]
    np.testing.assert_allclose(xi1, direct, rtol=1e-12)


def test_fig4a_rows_equal_repeated_outcome_calls(tmp_path):
    res, _ = run(tmp_path, "fig4", "a", "--N", "60", "--chi-p", "0.3", "--n", "7")
    frac = column(res, "outcome_fraction")
    direct = [dss_with_repeated_outcome(60, 0.3, 7, float(f) * 0.3 * 30.0).xi_d for f in frac]
    np.testing.assert_allclose(column(res, "xi_d_n7"), direct, rtol=1e-12)


# ---------------------------------------------------------------- determinism


@pytest.mark.parametrize(
    "argv",
    [
        ["fig2", "a"],
        ["fig3", "c"],
        ["sample", "dss", "--chi-p", "0.4", "--n-shots", "50", "--seed", "3"],
    ],
)
def test_byte_identical_reruns(tmp_path, argv):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    assert main(argv + ["--out", str(p1)]) == 0
    assert main(argv + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_metadata_round_trip_csv_and_json(tmp_path):
    for fmt, name in (("csv", "r.csv"), ("json", "r.json")):
        path = tmp_path / name
        rc = main(
            ["sweep", "dss", "--param", "chi_p", "--start", "0.1", "--stop", "2.0",
             "--count", "7", "--seed", "5", "--format", fmt, "--out", str(path)]
        )
        assert rc == 0
        parsed = read_result(path)
        spec = parsed["spec"]
        assert spec["command"] == "sweep"
        assert spec["subvariant"] == "dss"
        assert spec["param"] == "chi_p"
        assert spec["grid"] == {"start": 0.1, "stop": 2.0, "count": 7, "scale": "linear"}
        assert spec["seed"] == 5
        assert len(parsed["rows"]) == 7


def test_fig_json_round_trip(tmp_path):
    path = tmp_path / "f3c.json"
    assert main(["fig3", "c", "--format", "json", "--out", str(path)]) == 0
    parsed = read_result(path)
    assert parsed["spec"]["command"] == "fig3"
    assert parsed["columns"][0] == "n_atoms"
    assert len(parsed["rows"]) == 56
    # JSON and CSV carry identical numbers
    csv_path = tmp_path / "f3c.csv"
    assert main(["fig3", "c", "--out", str(csv_path)]) == 0
    np.testing.assert_array_equal(
        np.array(parsed["rows"]), np.array(read_result(csv_path)["rows"])
    )


def test_emitted_bytes_pinned():
    # one row of each awkward number: int, negative, -0.0, inf (the width of a
    # single-packet superposition record), a subnormal-range value and 0.1
    spec = SweepSpec("sweep", "superposition", "chi_x",
                     {"start": 0.1, "stop": 0.2, "count": 2, "scale": "linear"},
                     {"N": 12, "outcome": -0.5}, 3)
    result = SweepResult(spec, ["value", "fidelity", "target_m_c", "separation", "width"],
                         [(3, -0.25, -0.0, 1e-300, math.inf),
                          (0.1, -1.0000000000000002, 0.0, 12, 2.5)])
    spec_json = ('{"command": "sweep", "fixed": {"N": 12, "outcome": -0.5}, "grid": '
                 '{"count": 2, "scale": "linear", "start": 0.1, "stop": 0.2}, '
                 '"param": "chi_x", "seed": 3, "subvariant": "superposition"}')
    stream = io.StringIO()
    write_csv(result, stream)
    assert stream.getvalue() == (
        f"# spec={spec_json}\n# version={__version__}\n"
        "value,fidelity,target_m_c,separation,width\n"
        "3,-0.25,-0,1e-300,inf\n"
        "0.10000000000000001,-1.0000000000000002,0,12,2.5\n"
    )
    stream = io.StringIO()
    write_json(result, stream)
    assert stream.getvalue() == (
        '{\n "columns": [\n  "value",\n  "fidelity",\n  "target_m_c",\n  "separation",\n'
        '  "width"\n ],\n "rows": [\n  [\n   3,\n   -0.25,\n   -0.0,\n   1e-300,\n'
        '   Infinity\n  ],\n  [\n   0.1,\n   -1.0000000000000002,\n   0.0,\n   12,\n'
        '   2.5\n  ]\n ],\n "spec": {\n  "command": "sweep",\n  "fixed": {\n   "N": 12,\n'
        '   "outcome": -0.5\n  },\n  "grid": {\n   "count": 2,\n   "scale": "linear",\n'
        '   "start": 0.1,\n   "stop": 0.2\n  },\n  "param": "chi_x",\n  "seed": 3,\n'
        f'  "subvariant": "superposition"\n }},\n "version": "{__version__}"\n}}\n'
    )


_JSON_NUMBERS = st.one_of(
    st.integers(),
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([-0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan]),
)


@st.composite
def tables(draw):
    width = draw(st.integers(1, 5))
    rows = draw(st.lists(st.tuples(*[_JSON_NUMBERS] * width), max_size=40))
    return [f"col_{i}" for i in range(width)], rows


@settings(max_examples=200, deadline=None)
@given(tables())
def test_write_json_is_the_stdlib_layout(table):
    columns, rows = table
    spec = SweepSpec("sweep", "dss", "chi_p",
                     {"start": 0.1, "stop": 2.0, "count": 7, "scale": "linear"}, {"N": 40}, 5)
    stream = io.StringIO()
    write_json(SweepResult(spec, columns, rows), stream)
    payload = {"spec": asdict(spec), "version": __version__, "columns": columns, "rows": rows}
    assert stream.getvalue() == stdlib_json_text(payload)


def test_infinite_width_in_csv_and_json(tmp_path):
    # a superposition record >= 0 leaves a single packet, whose width is inf
    argv = ["sweep", "superposition", "--param", "outcome", "--start", "-2", "--stop", "0",
            "--count", "3"]
    text = {}
    for fmt in ("csv", "json"):
        res, path = run(tmp_path, *argv, "--format", fmt, name=f"sw.{fmt}")
        width = column(res, "width")
        assert np.all(np.isfinite(width[:-1])) and width[-1] == math.inf
        text[fmt] = path.read_text(encoding="utf-8")
    assert text["csv"].endswith(",inf\n")
    assert "   Infinity\n  ]\n ]" in text["json"]
    assert stdlib_json_text(json.loads(text["json"])) == text["json"]


def test_csv_flat_format(tmp_path):
    _, path = run(tmp_path, "fig3", "c")
    raw = path.read_bytes()
    assert b"\r" not in raw  # LF endings only
    text = raw.decode("utf-8")
    body = [l for l in text.splitlines() if not l.startswith("#")]
    assert body[0] == "n_atoms,xi_d,xi_d_ideal,xi_d_times_n_plus_2"
    assert "," in body[1] and ";" not in body[1]


# ---------------------------------------------------------------- sample


def test_sample_single_shot(tmp_path):
    res, _ = run(tmp_path, "sample", "dss", "--chi-p", "0.4", "--n-shots", "1")
    assert len(res["rows"]) == 1
    assert res["columns"] == ["shot", "outcome", "density", "xi_d"]


def test_sample_superposition_runs(tmp_path):
    res, _ = run(
        tmp_path, "sample", "superposition", "--N", "20", "--chi-x", "0.3",
        "--n-shots", "20", "--seed", "2",
    )
    fid = column(res, "fidelity")
    assert np.all((0.0 <= fid) & (fid <= 1.0))


def test_sample_rows_equal_per_shot_updates(tmp_path):
    # reference: the per-shot path, one update of the CSS per shot, the
    # mixture density and the overlap with the explicit target state
    res, _ = run(tmp_path, "sample", "dss", "--N", "40", "--chi-p", "0.3",
                 "--eta", "0.05", "--n-shots", "50", "--seed", "3", name="dss.csv")
    setting = MeasurementSetting(chi_p=0.3, eta=0.05)
    for _, y, density, xi_d in res["rows"]:
        post, _ = apply_measurement(make_css(40), setting, y)
        assert density == pytest.approx(mixture_pdf(y, make_css(40), setting), rel=1e-12)
        assert xi_d == pytest.approx(observables(post).xi_d, abs=1e-12)
    res, _ = run(tmp_path, "sample", "superposition", "--N", "21", "--chi-x", "0.1",
                 "--eta", "0.07", "--n-shots", "50", "--seed", "5", name="sup.csv")
    setting = MeasurementSetting(chi_x=0.1, eta=0.07)
    for _, y, density, fid, m_c in res["rows"]:
        post, _ = apply_measurement(make_css(21), setting, y)
        target = make_superposition_target(21, m_c, 0.07)
        assert density == pytest.approx(mixture_pdf(y, make_css(21), setting), rel=1e-12)
        assert fid == pytest.approx(fidelity(post, target), abs=1e-12)


def test_sample_outcomes_match_mixture(tmp_path):
    res, _ = run(
        tmp_path, "sample", "dss", "--N", "40", "--chi-p", "0.4",
        "--n-shots", "10000", "--seed", "11",
    )
    outcomes = column(res, "outcome")
    stat, critical = chi_square_gof(
        outcomes, make_css(40), MeasurementSetting(chi_p=0.4)
    )
    assert stat < critical


def test_sample_usage_errors(capsys):
    # each value outside its legal range is reported by the layer that checks it
    cases = (
        (["dss", "--chi-p", "0"], "chi_p"),
        (["dss", "--chi-p", "-1"], "chi_p"),
        (["superposition", "--chi-x", "0"], "chi_x"),
        (["dss", "--chi-p", "0.4", "--n-shots", "0"], "n_shots"),
    )
    for args, name in cases:
        assert main(["sample", *args]) == 1
        assert name in capsys.readouterr().err


# ---------------------------------------------------------------- sweep


def test_sweep_batch_equals_per_point_calls(tmp_path):
    # a sweep runs as one batch; each row must equal the stand-alone protocol
    # call at that point, whatever the batch around it
    base = ["--start", "0.05", "--stop", "0.5", "--count", "9", "--N", "60"]
    res, _ = run(tmp_path, "sweep", "superposition", "--param", "chi_x", *base,
                 "--outcome", "-3.0", "--eta", "0.3", name="sup.csv")
    for chi, fid, m_c, sep, width in res["rows"]:
        ref = prepare_superposition(60, chi, -3.0, 0.3)
        assert fid == pytest.approx(ref.fidelity_vs_target, abs=1e-12)
        assert (m_c, sep, width) == (
            ref.target_m_c, ref.packet_separation, ref.packet_width
        )
    res, _ = run(tmp_path, "sweep", "dss", "--param", "outcome", "--start", "-9",
                 "--stop", "9", "--count", "13", "--N", "41", "--chi-p", "0.7",
                 "--eta", "0.2", name="dss.csv")
    direct = [prepare_dss(41, 0.7, y, 0.2).xi_d for y in column(res, "value")]
    np.testing.assert_allclose(column(res, "xi_d"), direct, rtol=0, atol=1e-12)
    res, _ = run(tmp_path, "sweep", "repetitive_dss", "--param", "chi_p", *base,
                 "--n", "7", name="rep.csv")
    direct = [repetitive_dss(60, chi, 7).xi_d for chi in column(res, "value")]
    np.testing.assert_allclose(column(res, "xi_d"), direct, rtol=0, atol=1e-12)


def test_sweep_far_tail_records(tmp_path):
    res, _ = run(tmp_path, "sweep", "dss", "--N", "3000", "--chi-p", "1",
                 "--param", "outcome", "--start", "-1250", "--stop", "-1000",
                 "--count", "6")
    xi = column(res, "xi_d")
    assert np.all((1.0 / 3002 <= xi) & (xi <= 1.0))


def test_numeric_failure_exits_2(capsys):
    # the squared residual of a 1e200 record overflows, so the update keeps
    # no finite mass: a numeric failure, not a usage error
    argv = ["sweep", "dss", "--param", "outcome", "--start=-1e200", "--stop=1e200",
            "--count", "2"]
    assert main(argv) == 2
    assert "numeric failure" in capsys.readouterr().err
    # 4001 records at N = 3000 run in several chunks, widest band first; the
    # message still names the first record, in record order, that failed
    argv = ["sweep", "dss", "--param", "outcome", "--start=-1e160", "--stop=1e160",
            "--count", "4001", "--N", "3000"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "numeric failure: measurement update of record -1e+160 lost all amplitude mass\n"
    )



@pytest.mark.parametrize("argv, flag", [
    (["sweep", "repetitive_dss", "--param", "chi_p", "--start", "0.1", "--stop", "0.5",
      "--count", "3", "--eta", "nan"], "--eta"),
    (["sample", "dss", "--chi-p", "0.4", "--chi-x", "inf"], "--chi-x"),
    (["sweep", "dss", "--param", "chi_p", "--start", "0.1", "--stop", "0.5", "--count", "3",
      "--outcome", "inf"], "--outcome"),
    (["sweep", "superposition", "--param", "chi_x", "--start", "0.1", "--stop", "0.5",
      "--count", "3", "--eta", "nan"], "--eta"),
    (["sweep", "dss", "--param", "outcome", "--start=-inf", "--stop", "1", "--count", "3"],
     "--start"),
    (["feasibility", "--threshold", "nan"], "--threshold"),
])
def test_non_finite_flags_exit_usage(argv, flag, capsys):
    # a non-finite number comes from outside the program: a usage error, never a
    # NaN or Infinity echoed into the spec line
    assert main(argv) == 1
    assert flag in capsys.readouterr().err


def test_negative_strength_is_named_as_typed(capsys):
    # n rounds act as one at sqrt(n) chi_p; the message names the chi_p typed
    for argv in (
        ["fig4", "a", "--chi-p", "-1", "--n", "4"],
        ["sweep", "repetitive_dss", "--param", "chi_p", "--start", "-1", "--stop", "1",
         "--count", "3", "--n", "4"],
    ):
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: chi_p must be positive, got -1.0\n"


def test_sweep_log_scale(tmp_path):
    res, _ = run(
        tmp_path, "sweep", "repetitive_dss", "--param", "n", "--start", "1",
        "--stop", "16", "--count", "5", "--scale", "log",
    )
    values = column(res, "value")
    np.testing.assert_allclose(values, [1, 2, 4, 8, 16], rtol=1e-12)
    xi = column(res, "xi_d")
    assert all(b <= a + 1e-12 for a, b in zip(xi, xi[1:]))


def test_sweep_spec_without_scale_is_linear():
    spec = SweepSpec("sweep", "dss", "chi_p", {"start": 0.1, "stop": 1.0, "count": 3}, {})
    assert spec.points().tolist() == np.linspace(0.1, 1.0, 3).tolist()


def test_sweep_integer_params_snap_to_computed_value(tmp_path, capsys):
    # geomspace(3, 300, 3)[1] is 29.999999999999996: the row reads and is computed at N = 30
    res, _ = run(tmp_path, "sweep", "dss", "--param", "N", "--start", "3", "--stop", "300",
                 "--count", "3", "--scale", "log")
    assert column(res, "value").tolist() == [3.0, 30.0, 300.0]
    assert res["rows"][1][1] == dss_rows(30, 0.4, 0.0)[0][0]
    for param, start in (("N", "10.5"), ("n", "2.5")):
        argv = ["sweep", "repetitive_dss" if param == "n" else "dss", "--param", param,
                "--start", start, "--stop", "20", "--count", "3"]
        assert main(argv) == 1
        assert f"--param {param} " in capsys.readouterr().err


def test_sweep_over_n_equals_per_n_calls(tmp_path):
    # one kernel call over several atom counts: each row as its own N alone
    res, _ = run(tmp_path, "sweep", "dss", "--param", "N", "--start", "10", "--stop", "200",
                 "--count", "20", "--outcome", "-2", name="dss.csv")
    for n, xi in res["rows"]:
        assert xi == dss_rows(int(n), 0.4, -2.0)[0][0]
    res, _ = run(tmp_path, "sweep", "superposition", "--param", "N", "--start", "10",
                 "--stop", "200", "--count", "20", "--outcome", "-3", name="sup.csv")
    for n, fid, m_c, sep, width in res["rows"]:
        ref = prepare_superposition(int(n), 0.2, -3.0)
        assert (fid, m_c, sep, width) == (
            ref.fidelity_vs_target, ref.target_m_c, ref.packet_separation, ref.packet_width
        )


@pytest.mark.parametrize("argv", [
    *([fig, sub] for fig in ("fig2", "fig3", "fig4") for sub in "abc"),
    ["sweep", "dss", "--param", "N", "--start", "10", "--stop", "120", "--count", "56"],
    ["sweep", "superposition", "--param", "N", "--start", "10", "--stop", "120",
     "--count", "56"],
])
def test_each_table_is_one_kernel_call(argv, monkeypatch, capsys):
    # a table's curves, and its atom counts, are records of one batch
    import spinprep.cli
    import spinprep.protocols

    calls = []
    kernel = spinprep.protocols.posterior_batch
    for module in (spinprep.cli, spinprep.protocols):
        monkeypatch.setattr(module, "posterior_batch",
                            lambda *args, **kw: calls.append(1) or kernel(*args, **kw))
    assert main(argv) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("argv, message", [
    (["sweep", "dss", "--param", "N", "--start", "0", "--stop", "2", "--count", "3"],
     "error: atom count must be a positive integer, got 0\n"),
    (["sweep", "superposition", "--param", "N", "--start", "2", "--stop", "-2",
      "--count", "5"], "error: atom count must be a positive integer, got 0\n"),
    (["sweep", "dss", "--param", "chi_p", "--start", "0", "--stop", "1", "--count", "3"],
     "error: chi_p must be positive, got 0.0\n"),
    (["sweep", "dss", "--param", "chi_p", "--start", "1", "--stop", "-1", "--count", "5"],
     "error: chi_p must be positive, got 0.0\n"),
    (["sweep", "dss", "--param", "chi_p", "--start", "-1", "--stop", "1", "--count", "400"],
     "error: chi_p must be positive, got -1.0\n"),
    (["sweep", "superposition", "--param", "chi_x", "--start", "-1", "--stop", "1",
      "--count", "3"], "error: chi_x must be positive, got -1.0\n"),
])
def test_swept_value_errors_name_the_first_bad_value(argv, message, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err == message


def test_sweep_usage_errors():
    base = ["sweep", "dss", "--start", "0.1", "--stop", "2.0"]
    assert main(base + ["--param", "bogus", "--count", "5"]) == 1
    assert main(base + ["--param", "chi_p", "--count", "1"]) == 1
    assert main(["sweep", "dss", "--param", "chi_p", "--start", "-1", "--stop", "1",
                 "--count", "3", "--scale", "log"]) == 1



@pytest.mark.parametrize("argv", [
    ["sample", "superposition", "--N", "21", "--chi-x", "0.1", "--n-shots", "200",
     "--seed", "5"],
    ["sample", "dss", "--N", "40", "--chi-p", "0.3", "--n-shots", "200", "--seed", "3"],
    ["sweep", "superposition", "--param", "chi_x", "--start", "0.05", "--stop", "0.5",
     "--count", "9", "--N", "60", "--outcome", "-3"],
])
def test_rows_do_not_depend_on_eta(tmp_path, argv):
    # eta rotates the post state about z and the two-Dicke target carries the
    # same phase, so it cancels from every column; the spec still records it
    res0, _ = run(tmp_path, *argv, "--eta", "0", name="eta0.csv")
    res3, _ = run(tmp_path, *argv, "--eta", "0.3", name="eta3.csv")
    assert res3["rows"] == res0["rows"]
    assert res3["spec"]["fixed"]["eta"] == 0.3


# ---------------------------------------------------------------- feasibility


def test_feasibility_default_parameters_ok(tmp_path, capsys):
    out = tmp_path / "feas.json"
    assert main(["feasibility", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["ok"] is True
    assert payload["report"]["chi_x_bound"] == pytest.approx(1.4e-4, rel=0.05)
    assert payload["report"]["chi_p_bound"] == pytest.approx(3.0, rel=0.05)
    text = capsys.readouterr().out
    assert "chi_p bound" in text


def test_feasibility_long_pulse_bound(capsys):
    assert main(["feasibility", "--n-t", "10", "--kind", "long_exponential"]) == 0
    text = capsys.readouterr().out
    bound = float(text.split("chi_p bound")[1].split(":")[1].split()[0])
    assert bound == pytest.approx(3.0 * math.sqrt(10.0), rel=0.05)


def test_feasibility_flat_top_peak(capsys):
    assert main(["feasibility", "--kind", "optimal_x_spectral", "--np", "250"]) == 0
    text = capsys.readouterr().out
    photons = float(text.split("max intracavity photons")[1].split(":")[1].split()[0])
    assert photons == pytest.approx(250.0 * flat_top_peak(), rel=1e-4)


def test_feasibility_exit_codes(capsys):
    cases = (
        (["--g", "0"], "--g"),
        (["--kappa", "-1"], "--kappa"),
        (["--delta", "0"], "--delta"),
        (["--n-t", "0.5"], "n_t"),
        (["--threshold", "0"], "threshold"),
    )
    for args, name in cases:
        assert main(["feasibility", *args]) == 1
        assert name in capsys.readouterr().err
    assert main(["feasibility", "--np", "1e9"]) == 2  # photon budget violated


# ---------------------------------------------------------------- config


def test_config_precedence_file_env_flags(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "N": 6}))
    monkeypatch.setenv("SPINPREP_CONFIG", str(cfg))

    out1 = tmp_path / "from_file.csv"
    assert main(["fig2", "a", "--out", str(out1)]) == 0
    spec = read_result(out1)["spec"]
    assert spec["seed"] == 3 and spec["fixed"]["N"] == 6

    monkeypatch.setenv("SPINPREP_SEED", "4")  # environment beats the file
    out2 = tmp_path / "from_env.csv"
    assert main(["fig2", "a", "--out", str(out2)]) == 0
    assert read_result(out2)["spec"]["seed"] == 4

    out3 = tmp_path / "from_flag.csv"  # flags beat both
    assert main(["fig2", "a", "--seed", "9", "--out", str(out3)]) == 0
    assert read_result(out3)["spec"]["seed"] == 9


def test_config_rejects_bad_choice(monkeypatch):
    monkeypatch.setenv("SPINPREP_FORMAT", "xml")
    assert main(["fig2", "a"]) == 1


def test_env_n_sets_atoms_and_n_rounds_sets_rounds(tmp_path, monkeypatch):
    monkeypatch.setenv("SPINPREP_N", "6")
    res, _ = run(tmp_path, "fig2", "a", name="f2.csv")
    assert len(res["rows"]) == 7
    res, _ = run(tmp_path, "fig4", "c", name="f4.csv")
    assert len(res["rows"]) == 40
    monkeypatch.setenv("SPINPREP_N_ROUNDS", "5")
    res, _ = run(tmp_path, "sweep", "repetitive_dss", "--param", "chi_p", "--start", "0.1",
                 "--stop", "0.5", "--count", "3", name="sw.csv")
    assert res["spec"]["fixed"]["n"] == 5 and res["spec"]["fixed"]["N"] == 6
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_rounds": 3}))
    monkeypatch.delenv("SPINPREP_N_ROUNDS")
    monkeypatch.setenv("SPINPREP_CONFIG", str(cfg))
    res, _ = run(tmp_path, "fig4", "c", name="f4cfg.csv")
    assert len(res["rows"]) == 3


def test_command_dests_distinct_once_upper_cased():
    # SPINPREP_<DEST upper-cased> must name one flag per subcommand
    for command, (_, flags) in COMMANDS.items():
        parser = argparse.ArgumentParser()
        dests = [parser.add_argument(name, **kw).dest.upper() for name, kw in flags]
        assert len(set(dests)) == len(dests), command


def test_config_rejects_bad_values(tmp_path, monkeypatch):
    monkeypatch.setenv("SPINPREP_N_SHOTS", "abc")
    assert main(["sample", "dss", "--chi-p", "0.4"]) == 1
    monkeypatch.delenv("SPINPREP_N_SHOTS")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "xml"}))
    monkeypatch.setenv("SPINPREP_CONFIG", str(cfg))
    assert main(["fig2", "a"]) == 1
    cfg.write_text(json.dumps({"seed": 1.5}))  # not an int: no silent truncation
    assert main(["sample", "dss", "--chi-p", "0.4"]) == 1


def test_help_lists_commands_and_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for command, (help_line, _) in COMMANDS.items():
        assert command in text and help_line in text
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for name, _ in COMMANDS["sweep"][1]:
        if name.startswith("-"):
            assert f"\n  {name} " in text


def test_configured_defaults_read_on_every_call(tmp_path, monkeypatch):
    # the parser is cached; the file and the variables must not be
    for name in [k for k in os.environ if k.startswith("SPINPREP_")]:
        monkeypatch.delenv(name)
    res, _ = run(tmp_path, "fig2", "a", name="plain.csv")
    assert len(res["rows"]) == 101
    monkeypatch.setenv("SPINPREP_N", "6")
    res, _ = run(tmp_path, "fig2", "a", name="env.csv")
    assert len(res["rows"]) == 7
    monkeypatch.delenv("SPINPREP_N")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 4}))
    monkeypatch.setenv("SPINPREP_CONFIG", str(cfg))
    res, _ = run(tmp_path, "fig2", "a", name="file.csv")
    assert len(res["rows"]) == 5
    monkeypatch.delenv("SPINPREP_CONFIG")
    res, _ = run(tmp_path, "fig2", "a", name="plain_again.csv")
    assert len(res["rows"]) == 101


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_help_names_the_command(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: spinprep {command} ")


def test_unknown_command_lists_every_command(capsys):
    assert main(["fig5", "a"]) == 1
    err = capsys.readouterr().err
    assert "invalid choice: 'fig5'" in err
    for command in COMMANDS:
        assert f"'{command}'" in err


def test_second_call_builds_no_parser(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    _command_parser.cache_clear()
    argv = ["fig3", "c", "--N", "10", "--out", str(tmp_path / "f3c.csv")]
    assert main(argv) == 0
    assert built == ["spinprep fig3"]
    assert main(argv) == 0
    assert built == ["spinprep fig3"]
