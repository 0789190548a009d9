import json
import math

import numpy as np
import pytest

from _oracles import chi_square_gof
from spinprep import (
    MeasurementSetting,
    apply_measurement,
    fidelity,
    make_css,
    make_superposition_target,
    observables,
    outcome_pdf,
    prepare_dss,
    prepare_superposition,
    repetitive_dss,
)
from spinprep.cli import main, read_result


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
        assert density == pytest.approx(outcome_pdf(make_css(40), setting, y), rel=1e-12)
        assert xi_d == pytest.approx(observables(post).xi_d, abs=1e-12)
    res, _ = run(tmp_path, "sample", "superposition", "--N", "21", "--chi-x", "0.1",
                 "--eta", "0.07", "--n-shots", "50", "--seed", "5", name="sup.csv")
    setting = MeasurementSetting(chi_x=0.1, eta=0.07)
    for _, y, density, fid, m_c in res["rows"]:
        post, _ = apply_measurement(make_css(21), setting, y)
        target = make_superposition_target(21, m_c, 0.07)
        assert density == pytest.approx(outcome_pdf(make_css(21), setting, y), rel=1e-12)
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


def test_sample_usage_errors(tmp_path):
    assert main(["sample", "dss", "--chi-p", "0"]) == 1
    assert main(["sample", "dss", "--chi-p", "0.4", "--n-shots", "0"]) == 1


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


def test_sweep_log_scale(tmp_path):
    res, _ = run(
        tmp_path, "sweep", "repetitive_dss", "--param", "n", "--start", "1",
        "--stop", "16", "--count", "5", "--scale", "log",
    )
    values = column(res, "value")
    np.testing.assert_allclose(values, [1, 2, 4, 8, 16], rtol=1e-12)
    xi = column(res, "xi_d")
    assert all(b <= a + 1e-12 for a, b in zip(xi, xi[1:]))


def test_sweep_usage_errors():
    base = ["sweep", "dss", "--start", "0.1", "--stop", "2.0"]
    assert main(base + ["--param", "bogus", "--count", "5"]) == 1
    assert main(base + ["--param", "chi_p", "--count", "1"]) == 1
    assert main(["sweep", "dss", "--param", "chi_p", "--start", "-1", "--stop", "1",
                 "--count", "3", "--scale", "log"]) == 1


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


def test_feasibility_exit_codes():
    assert main(["feasibility", "--g", "0"]) == 1
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
