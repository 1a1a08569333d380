from __future__ import annotations

import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cryomux import chain as ch
from cryomux.cli import main
from cryomux.fitkit import PowerSweepPoint
from cryomux.resonator import TWO_PI, CavityLerSystem, purcell

BUNDLED_SYSTEM = CavityLerSystem(
    omega_c=TWO_PI * 6.979e9,
    omega_r=TWO_PI * 4.779e9,
    g=TWO_PI * 1.075408e7,
    kappa_i=TWO_PI * 2.0e6,
    kappa_o=TWO_PI * 2.0e6,
    gamma_c=TWO_PI * 1.0e4,
    gamma_r=TWO_PI * 587.128,
)
BUNDLED_RATES = purcell(BUNDLED_SYSTEM)
BUNDLED_QL = BUNDLED_RATES.omega_r_dressed / (
    BUNDLED_RATES.kappa_pur + BUNDLED_SYSTEM.gamma_r
)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr()


def simulate(tmp_path, name, extra=()):
    out = tmp_path / name
    code = main(
        ["simulate", ch.example_chain_path(), ch.example_sweep_path(), "-o", str(out)]
        + list(extra)
    )
    assert code == 0
    return out


# ------------------------------------------------------------- simulate


def test_simulate_repeat_runs_are_byte_identical(tmp_path):
    first = simulate(tmp_path, "a.csv")
    second = simulate(tmp_path, "b.csv")
    assert first.read_bytes() == second.read_bytes()


def test_simulate_seed_override_changes_output(tmp_path):
    base = simulate(tmp_path, "a.csv")
    reseeded = simulate(tmp_path, "b.csv", ["--seed", "99"])
    reseeded_again = simulate(tmp_path, "c.csv", ["--seed", "99"])
    assert base.read_bytes() != reseeded.read_bytes()
    assert reseeded.read_bytes() == reseeded_again.read_bytes()


def test_simulate_raw_plane_carries_chain_gain(tmp_path):
    calibrated = ch.read_trace(str(simulate(tmp_path, "cal.csv")))
    raw = ch.read_trace(str(simulate(tmp_path, "raw.csv", ["--raw"])))
    # 60 dB attenuation, mux loss, then 80 dB amplification: net gain
    ratio = np.median(np.abs(raw.s21) / np.abs(calibrated.s21))
    assert 5.0 < ratio < 12.0


def test_simulate_missing_chain_file_exits_2(tmp_path, capsys):
    code, captured = run(
        capsys,
        ["simulate", str(tmp_path / "nope.json"), ch.example_sweep_path()],
    )
    assert code == 2
    assert captured.err.startswith("error:")


def stage(raw, kind):
    """The first stage of type ``kind`` in a raw chain object."""
    return next(s for s in raw["stages"] if s["type"] == kind)


def edited_chain(tmp_path, edit):
    raw = json.loads(Path(ch.example_chain_path()).read_text(encoding="utf-8"))
    edit(raw)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_simulate_bad_rng_seed_exits_2(tmp_path, capsys, seed):
    path = edited_chain(tmp_path, lambda raw: raw.update(rng_seed=seed))
    out = tmp_path / "trace.csv"
    code, captured = run(
        capsys, ["simulate", str(path), ch.example_sweep_path(), "-o", str(out)]
    )
    assert code == 2
    assert "rng_seed" in captured.err
    assert not out.exists()


def test_simulate_negative_seed_flag_exits_2(capsys):
    code, captured = run(
        capsys,
        ["simulate", ch.example_chain_path(), ch.example_sweep_path(), "--seed", "-1"],
    )
    assert code == 2
    assert "rng_seed" in captured.err


@pytest.mark.parametrize(
    "index, field, value",
    [(6, "gain_db", 1e308), (6, "gain_db", 7000.0), (0, "loss_db", 7000.0)],
    ids=["gain_1e308", "gain_7000", "loss_7000"],
)
def test_simulate_db_without_linear_factor_exits_2(tmp_path, capsys, index, field, value):
    path = edited_chain(tmp_path, lambda raw: raw["stages"][index].update({field: value}))
    out = tmp_path / "trace.csv"
    code, captured = run(
        capsys, ["simulate", str(path), ch.example_sweep_path(), "-o", str(out)]
    )
    assert code == 2
    assert field in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()


# ------------------------------------------------------------- fit-spectrum


def test_simulate_then_fit_spectrum(tmp_path):
    trace = simulate(tmp_path, "trace.csv")
    report_path = tmp_path / "report.json"
    code = main(
        [
            "fit-spectrum",
            str(trace),
            "--power-dbm-at-sample",
            "-162.955",
            "-o",
            str(report_path),
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["format_version"] == 1
    assert report["converged"] is True
    q = report["params"]["q_loaded"]
    assert abs(q - BUNDLED_QL) <= 0.05 * BUNDLED_QL
    assert set(report["uncertainties"]) <= set(report["params"])
    assert "f_r" in report["uncertainties"] and "q_loaded" in report["uncertainties"]
    assert 0.8 <= report["n_photons"] <= 1.2


def test_fit_spectrum_report_runs_are_identical(tmp_path, capsys):
    trace = simulate(tmp_path, "trace.csv")
    code_a, cap_a = run(capsys, ["fit-spectrum", str(trace)])
    code_b, cap_b = run(capsys, ["fit-spectrum", str(trace)])
    assert code_a == code_b == 0
    assert cap_a.out == cap_b.out
    json.loads(cap_a.out)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_fit_spectrum_unconverged_exits_3(tmp_path):
    f_r, q = 4.9e9, 1.2e4
    width = f_r / q
    grid = ch.FrequencyGrid.linspace(f_r - 5 * width, f_r + 5 * width, 201)
    f = grid.points
    s21 = (0.3 + 1.0 / (1.0 + 2j * q * (f - f_r) / f_r)) * 1e160
    path = tmp_path / "overflow.csv"
    ch.write_trace(str(path), ch.ComplexTrace(grid, s21))
    report_path = tmp_path / "report.json"
    code = main(["fit-spectrum", str(path), "-o", str(report_path)])
    assert code == 3
    report = json.loads(report_path.read_text())
    assert report["converged"] is False


def test_fit_spectrum_ending_on_the_q_bound_exits_3(tmp_path):
    # at 600 averages this seed's fit runs q_loaded onto its 1e12 bound
    sweep = json.loads(Path(ch.example_sweep_path()).read_text(encoding="utf-8"))
    sweep["averages"] = 600
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps(sweep))
    trace = tmp_path / "trace.csv"
    argv = ["simulate", ch.example_chain_path(), str(sweep_path), "--seed", "1116"]
    assert main(argv + ["-o", str(trace)]) == 0
    report_path = tmp_path / "report.json"
    assert main(["fit-spectrum", str(trace), "-o", str(report_path)]) == 3
    report = json.loads(report_path.read_text())
    assert report["converged"] is False
    assert report["params"]["q_loaded"] == 1e12
    assert "q_loaded on its bound" in report["message"]
    assert "n_photons" not in report


def test_fit_spectrum_featureless_trace_exits_2(tmp_path, capsys):
    grid = ch.FrequencyGrid.linspace(4.9e9, 4.9001e9, 101)
    rng = np.random.default_rng(0)
    s21 = 0.01 * (rng.standard_normal(101) + 1j * rng.standard_normal(101))
    path = tmp_path / "noise.csv"
    ch.write_trace(str(path), ch.ComplexTrace(grid, s21))
    code, captured = run(capsys, ["fit-spectrum", str(path)])
    assert code == 2
    assert "error:" in captured.err


def test_fit_spectrum_malformed_csv_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("wrong,header,names\n1,2,3\n")
    code, captured = run(capsys, ["fit-spectrum", str(path)])
    assert code == 2
    assert "line 1" in captured.err


def test_fit_spectrum_nonfinite_field_names_the_line(tmp_path, capsys):
    trace = simulate(tmp_path, "trace.csv")
    lines = trace.read_text().splitlines()
    fields = lines[5].split(",")
    fields[1] = "nan"
    lines[5] = ",".join(fields)
    trace.write_text("\n".join(lines) + "\n")
    code, captured = run(capsys, ["fit-spectrum", str(trace)])
    assert code == 2
    assert "line 6: field 's21_re' is not finite" in captured.err


@pytest.mark.parametrize(
    "command, header",
    [("fit-spectrum", ch.TRACE_HEADER), ("fit-power", ch.POINTS_HEADER)],
    ids=["fit-spectrum", "fit-power"],
)
def test_non_utf8_csv_exits_2_naming_the_file(tmp_path, capsys, command, header):
    path = tmp_path / "latin1.csv"
    path.write_bytes(header.encode() + b"\n1.0,2.0,3.0\xff\n")
    code, captured = run(capsys, [command, str(path)])
    assert code == 2
    assert "latin1.csv" in captured.err and "utf-8" in captured.err
    assert "Traceback" not in captured.err


def test_fit_spectrum_overflowing_power_exits_2(tmp_path, capsys):
    trace = simulate(tmp_path, "trace.csv")
    code, captured = run(
        capsys, ["fit-spectrum", str(trace), "--power-dbm-at-sample", "1e308"]
    )
    assert code == 2
    assert "dBm" in captured.err


# ------------------------------------------------------------- fit-power


def test_fit_power_cli_recovers_model(tmp_path):
    pd, n_c, beta, q0 = 8.34e-5, 1.0, 0.5, 1.0e6
    n = np.logspace(-1.0, 6.0, 25)
    q = 1.0 / (pd / (1.0 + n / n_c) ** beta + 1.0 / q0)
    points = tuple(
        PowerSweepPoint(nk, qk, 1e-3 * qk) for nk, qk in zip(n, q)
    )
    path = tmp_path / "points.csv"
    ch.write_power_points(str(path), points)
    report_path = tmp_path / "fit.json"
    code = main(["fit-power", str(path), "-o", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["converged"] is True
    component = report["model"]["components"][0]
    assert_allclose(component["tan_delta"], pd, rtol=0.02)
    assert_allclose(component["n_c"], n_c, rtol=0.05)
    assert_allclose(component["beta"], beta, rtol=0.02)
    assert_allclose(report["model"]["q0"], q0, rtol=0.05)
    assert_allclose(report["q_single_photon_limit"], 1.1848e4, rtol=0.01)


def test_fit_power_underdetermined_exits_2(tmp_path, capsys):
    points = (
        PowerSweepPoint(1.0, 1.2e4, 12.0),
        PowerSweepPoint(10.0, 1.5e4, 15.0),
        PowerSweepPoint(100.0, 2.0e4, 20.0),
    )
    path = tmp_path / "short.csv"
    ch.write_power_points(str(path), points)
    code, captured = run(capsys, ["fit-power", str(path)])
    assert code == 2
    assert "error:" in captured.err


# ------------------------------------------------------------- loss-budget


def test_loss_budget_bundled_table(capsys):
    code, captured = run(capsys, ["loss-budget"])
    assert code == 0
    report = json.loads(captured.out)
    totals = {
        "hf_stripped": 2.4094e-7,
        "native_oxide": 5.0242e-7,
        "sinx_capped": 5.0684e-6,
        "standard_si": 8.3711e-5,
    }
    for name, expected in totals.items():
        assert_allclose(report["samples"][name]["total_loss"], expected, rtol=1e-3)
    worst = report["samples"]["standard_si"]
    assert_allclose(worst["q_factor"], 1.1946e4, rtol=1e-3)
    assert "1.20e3" in worst["note"]


def test_loss_budget_report_bytes_are_pinned(capsys):
    code, captured = run(capsys, ["loss-budget"])
    assert code == 0
    digest = hashlib.sha256(captured.out.encode("utf-8")).hexdigest()
    assert digest == "209ea56714344d1f6c34b53d60577c2f20f16acdb08050818cfccc5711142426", (
        captured.out
    )


def test_loss_budget_unknown_sample_exits_2(capsys):
    code, captured = run(capsys, ["loss-budget", "--sample", "kapton_tape"])
    assert code == 2
    assert "standard_si" in captured.err


def test_loss_budget_top_level_array_exits_2(capsys, tmp_path):
    table = tmp_path / "table.json"
    table.write_text("[1, 2]")
    code, captured = run(capsys, ["loss-budget", str(table)])
    assert code == 2
    assert "top level must be a JSON object" in captured.err
    assert captured.out == ""


def test_loss_budget_without_finite_q_exits_2(capsys, tmp_path):
    table = tmp_path / "table.json"
    row = {"name": "film", "participation": 1.0, "tan_delta": 1e-320}
    table.write_text(
        json.dumps({"format_version": 1, "samples": {"s": {"components": [row]}}})
    )
    code, captured = run(capsys, ["loss-budget", str(table)])
    assert code == 2
    assert "no finite quality factor" in captured.err
    assert captured.out == ""


# ------------------------------------------------------------- stark


def test_stark_shift_to_occupation(capsys):
    code, captured = run(
        capsys,
        ["stark", "--chi", "-2e6", "--nu-r", "5.569e9", "--nu-q", "6.58e9",
         "--delta-ac", "-7.7e6"],
    )
    assert code == 0
    report = json.loads(captured.out)
    assert_allclose(report["n_mean"], 1.925, rtol=1e-12)
    assert_allclose(report["temperature_resonator_k"], 0.638838, rtol=1e-4)
    assert_allclose(report["temperature_qubit_k"], 0.754813, rtol=1e-4)


def test_stark_temperature_to_shift(capsys):
    code, captured = run(
        capsys,
        ["stark", "--chi", "-2e6", "--nu-r", "5.569e9", "--temp", "0.713"],
    )
    assert code == 0
    report = json.loads(captured.out)
    assert_allclose(report["delta_ac_hz"], -8.7955e6, rtol=1e-3)


def test_stark_zero_chi_exits_2(capsys):
    code, captured = run(
        capsys, ["stark", "--chi", "0", "--nu-r", "5.569e9", "--temp", "0.7"]
    )
    assert code == 2
    assert "error:" in captured.err


@pytest.mark.parametrize(
    "flags, quantity",
    [
        (["--chi", "1e6", "--nu-r", "5e9", "--temp", "1e308"], "mean occupation"),
        (["--chi", "1e300", "--nu-r", "5e9", "--temp", "1e10"], "Stark shift"),
        (["--chi", "1e6", "--nu-r", "1e-300", "--temp", "1e300"], "mean occupation"),
        (["--chi", "1e-300", "--nu-r", "5e9", "--delta-ac", "1e10"], "mean occupation"),
    ],
    ids=["temp_1e308", "chi_1e300", "ratio_underflow", "occupation_overflow"],
)
def test_stark_overflow_exits_2_naming_the_quantity(capsys, flags, quantity):
    code, captured = run(capsys, ["stark"] + flags)
    assert code == 2
    assert captured.out == ""
    assert f"error: {quantity} overflows the float range" in captured.err


def test_stark_occupation_near_overflow_has_a_finite_temperature(capsys):
    # n/(1 + n) rounds to 1 here; ln(1 + 1/n) = 1/n to float precision
    code, captured = run(
        capsys, ["stark", "--chi", "1e6", "--nu-r", "5e9", "--delta-ac", "1e308"]
    )
    assert code == 0
    report = json.loads(captured.out)
    assert report["n_mean"] == 5e301
    h_nu_over_k = 6.62607015e-34 * 5e9 / 1.380649e-23
    assert_allclose(report["temperature_resonator_k"], h_nu_over_k * (5e301 + 0.5), rtol=1e-15)


def test_stark_occupation_below_the_float_range_keeps_the_temperature(capsys):
    # n = 5e-611 underflows to 0, but T = h*nu/(k*ln(1/n)) is about 0.17 mK
    code, captured = run(
        capsys, ["stark", "--chi", "1e300", "--nu-r", "5e9", "--delta-ac", "1e-310"]
    )
    assert code == 0
    report = json.loads(captured.out)
    assert report["n_mean"] == 0.0
    log_inverse_n = math.log(2.0) + math.log(1e300) - math.log(1e-310)
    expected = 6.62607015e-34 * 5e9 / (1.380649e-23 * log_inverse_n)
    assert_allclose(report["temperature_resonator_k"], expected, rtol=1e-13)


@pytest.mark.parametrize(
    "argv",
    [
        ["stark", "--chi", "-2e6", "--nu-r", "5.569e9", "--temp", "inf"],
        ["stark", "--chi", "-2e6", "--nu-r", "5.569e9", "--delta-ac", "nan"],
        ["mux-program", "--port", "1", "--vdd", "nan"],
    ],
    ids=["temp_inf", "delta_ac_nan", "vdd_nan"],
)
def test_nonfinite_flag_exits_2(capsys, argv):
    code, captured = run(capsys, argv)
    assert code == 2
    assert captured.out == ""
    assert "must be finite" in captured.err


def test_stark_requires_exactly_one_input():
    with pytest.raises(SystemExit) as excinfo:
        main(["stark", "--chi", "-2e6", "--nu-r", "5.569e9"])
    assert excinfo.value.code == 2


# ------------------------------------------------------------- mux-program


def test_mux_program_parallel_report(capsys):
    code, captured = run(
        capsys, ["mux-program", "--mode", "parallel", "--port", "3"]
    )
    assert code == 0
    report = json.loads(captured.out)
    assert report["selected_port"] == 3
    assert_allclose(report["programming_time_s"], 1e-8, rtol=1e-12)
    assert_allclose(report["dissipated_power_w"], 3.62e-5, rtol=1e-12)


def test_mux_program_serial_report(capsys):
    code, captured = run(
        capsys,
        ["mux-program", "--mode", "serial", "--port", "2", "--tclk", "1e-8"],
    )
    assert code == 0
    report = json.loads(captured.out)
    assert report["selected_port"] == 2
    assert_allclose(report["programming_time_s"], 4e-8, rtol=1e-12)


def test_mux_program_sparams_file(tmp_path):
    out = tmp_path / "sp.csv"
    code = main(
        ["mux-program", "--mode", "serial", "--port", "1", "-o", str(out),
         "--points", "41"]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "freq_hz,port0_s21_re,port0_s21_im,port1_s21_re,port1_s21_im,"
        "port2_s21_re,port2_s21_im,port3_s21_re,port3_s21_im"
    )
    assert len(lines) == 42
    rows = np.loadtxt(str(out), delimiter=",", skiprows=1)
    mid = rows[rows.shape[0] // 2]
    mags = [np.hypot(mid[1 + 2 * k], mid[2 + 2 * k]) for k in range(4)]
    assert mags[1] == max(mags)
    assert mags[1] > 10.0 * max(mags[0], mags[2], mags[3])


def test_mux_program_bad_port_exits_2(capsys):
    code, captured = run(
        capsys, ["mux-program", "--mode", "parallel", "--port", "9"]
    )
    assert code == 2
    assert "error:" in captured.err


# ------------------------------------------------------------- config dir


def test_config_dir_env_resolution(tmp_path, monkeypatch):
    config_dir = tmp_path / "configs"
    config_dir.mkdir()
    shutil.copy(ch.example_chain_path(), config_dir / "chain.json")
    shutil.copy(ch.example_sweep_path(), config_dir / "sweep.json")
    monkeypatch.setenv(ch.CONFIG_DIR_ENV, str(config_dir))
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "trace.csv"
    code = main(["simulate", "chain.json", "sweep.json", "-o", str(out)])
    assert code == 0
    assert out.exists()


def test_misspelt_mux_config_key_exits_2(tmp_path, capsys):
    raw = json.loads(Path(ch.example_chain_path()).read_text(encoding="utf-8"))
    mux = next(stage for stage in raw["stages"] if stage["type"] == "mux")
    mux["config"] = {"r_onn": 5.0}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(raw))
    code, captured = run(
        capsys, ["simulate", str(path), ch.example_sweep_path()]
    )
    assert code == 2
    assert "r_onn" in captured.err


@pytest.mark.parametrize(
    "edit, where",
    [
        (
            lambda raw: stage(raw, "sample").update(gama_c_hz=5e4),
            "stage 4: unknown sample stage keys ['gama_c_hz']",
        ),
        (
            lambda raw: stage(raw, "attenuator").update(los_db=30.0),
            "stage 0: unknown attenuator stage keys ['los_db']",
        ),
        (lambda raw: raw.update(rng_sed=3), "unknown chain keys ['rng_sed']"),
        (
            lambda raw: stage(raw, "mux").update(type=["mux"]),
            "stage 3: unknown stage type ['mux']",
        ),
    ],
    ids=["sample_stage", "attenuator_stage", "top_level", "unhashable_type"],
)
def test_misspelt_chain_key_exits_2_naming_file_stage_and_key(tmp_path, capsys, edit, where):
    path = edited_chain(tmp_path, edit)
    code, captured = run(capsys, ["simulate", str(path), ch.example_sweep_path()])
    assert code == 2
    assert f"{path}: {where}" in captured.err
    assert "Traceback" not in captured.err


def test_simulate_two_sample_stages_exits_2(tmp_path, capsys):
    def add_second_sample(raw):
        raw["stages"][5:5] = [{"type": "attenuator", "loss_db": 30.0}, dict(stage(raw, "sample"))]

    path = edited_chain(tmp_path, add_second_sample)
    code, captured = run(capsys, ["simulate", str(path), ch.example_sweep_path()])
    assert code == 2
    assert "exactly one sample stage, got 2 at stages [4, 6]" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_simulate_oversized_sweep_exits_2(tmp_path, capsys):
    # no machine can allocate 10**15 points, so the refusal is immediate
    sweep = json.loads(Path(ch.example_sweep_path()).read_text(encoding="utf-8"))
    sweep["points_per_trace"] = 10**15
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(sweep))
    code, captured = run(capsys, ["simulate", ch.example_chain_path(), str(path)])
    assert code == 2
    assert captured.err.startswith("error: out of memory")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_misspelt_sweep_key_exits_2(tmp_path, capsys):
    sweep = json.loads(Path(ch.example_sweep_path()).read_text(encoding="utf-8"))
    sweep["averges"] = 10
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(sweep))
    code, captured = run(capsys, ["simulate", ch.example_chain_path(), str(path)])
    assert code == 2
    assert f"{path}: unknown sweep keys ['averges']" in captured.err


def test_stage_description_is_a_known_key(tmp_path):
    path = edited_chain(tmp_path, lambda raw: stage(raw, "amplifier").update(description="HEMT"))
    out = tmp_path / "trace.csv"
    assert main(["simulate", str(path), ch.example_sweep_path(), "-o", str(out)]) == 0


def tls_sample(tls):
    """Chain edit that puts ``tls`` on the sample stage."""
    return lambda raw: stage(raw, "sample").update(tls=tls)


@pytest.mark.parametrize(
    "tls, message",
    [
        ({"components": [{"participation": 1.0, "tan_delta": 1e-4, "nc": 10.0}]}, "'nc'"),
        ({"components": [1]}, "bad component row 0: expected an object"),
        ({"components": 1}, "components must be a list"),
    ],
    ids=["unknown_key", "non_object_row", "non_list_components"],
)
def test_simulate_bad_tls_block_exits_2(tmp_path, capsys, tls, message):
    path = edited_chain(tmp_path, tls_sample(tls))
    code, captured = run(capsys, ["simulate", str(path), ch.example_sweep_path()])
    assert code == 2
    assert message in captured.err
    assert captured.err.count("stage 4") == 1
    assert "Traceback" not in captured.err


def test_simulate_bistable_tls_power_exits_2_naming_it(tmp_path, capsys):
    # one component with beta = 1 has three self-consistent photon numbers
    # for sample powers from about -136.75 to -112.5 dBm
    row = {"participation": 1.0, "tan_delta": 1e-4, "n_c": 1.0, "beta": 1.0}
    path = edited_chain(tmp_path, tls_sample({"components": [row], "q0": 1e9}))
    chain = ch.load_chain_spec(str(path))
    nu = purcell(chain.sample.system).omega_r_dressed / TWO_PI
    sweep = json.loads(Path(ch.example_sweep_path()).read_text(encoding="utf-8"))
    sweep["instrument_power_dbm"] = -63.0
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps(sweep))
    p_sample = ch.power_at_sample(chain, -63.0, nu)
    assert -136.75 < ch.dbm_from_watts(p_sample) < -112.5
    code, captured = run(capsys, ["simulate", str(path), str(sweep_path)])
    assert code == 2
    assert f"{ch.dbm_from_watts(p_sample):.6g} dBm" in captured.err
    assert "more than one self-consistent photon number" in captured.err
    sweep["instrument_power_dbm"] = -30.0  # far above the fold: one root
    sweep_path.write_text(json.dumps(sweep))
    code, _ = run(capsys, ["simulate", str(path), str(sweep_path)])
    assert code == 0


def test_loss_budget_misspelt_row_key_exits_2(tmp_path, capsys):
    table = {
        "format_version": 1,
        "samples": {"s": {"components": [{"participation": 0.9, "tan_delta": 1e-6, "nc": 3}]}},
    }
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code, captured = run(capsys, ["loss-budget", str(path)])
    assert code == 2
    assert "sample 's': bad component row 0: unknown keys ['nc']" in captured.err


@pytest.mark.parametrize(
    "edit, where",
    [
        (lambda table: table.update(descripton="x"), "unknown component table keys ['descripton']"),
        (
            lambda table: table["samples"]["s"].update(nte="x"),
            "sample 's': unknown keys ['nte']",
        ),
    ],
    ids=["top_level", "sample_entry"],
)
def test_loss_budget_misspelt_table_key_exits_2(tmp_path, capsys, edit, where):
    row = {"participation": 0.9, "tan_delta": 1e-6}
    table = {"format_version": 1, "description": "d", "samples": {"s": {"components": [row]}}}
    table["samples"]["s"]["note"] = "n"
    edit(table)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code, captured = run(capsys, ["loss-budget", str(path)])
    assert code == 2
    assert f"{path}: {where}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("note", ["NaN", "1.5", "null", "[\"n\"]", "{}"])
def test_loss_budget_non_string_note_exits_2(tmp_path, capsys, note):
    # json.loads accepts NaN, and the report's strict JSON writer would not
    row = '{"participation": 0.9, "tan_delta": 1e-6}'
    path = tmp_path / "table.json"
    path.write_text(
        '{"format_version": 1, "samples": {"s": {"components": [%s], "note": %s}}}' % (row, note)
    )
    code, captured = run(capsys, ["loss-budget", str(path)])
    assert code == 2
    assert f"{path}: sample 's': 'note' must be a string" in captured.err
    assert captured.out == ""


def test_truncated_json_reports_line(tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text('{"format_version": 1, "stages": [')
    code, captured = run(
        capsys, ["simulate", str(path), ch.example_sweep_path()]
    )
    assert code == 2
    assert "line" in captured.err
