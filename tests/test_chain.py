from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.constants import k as BOLTZMANN

from cryomux import chain as ch
from cryomux.errors import BandEdgeWarning, InputError
from cryomux.fitkit import FitResult, fit_power_sweep, fit_spectrum, photon_axis
from cryomux.lossbudget import LossComponent, TlsModel, qi_inverse
from cryomux.muxsim import MuxConfig, SwitchBranch
from cryomux.resonator import TWO_PI, CavityLerSystem, mean_photons_from_rates, purcell, s21_physics

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
BUNDLED_NU = BUNDLED_RATES.omega_r_dressed / TWO_PI
BUNDLED_WIDTH = (BUNDLED_RATES.kappa_pur + BUNDLED_SYSTEM.gamma_r) / TWO_PI
BUNDLED_QL = BUNDLED_NU / BUNDLED_WIDTH


def bare_chain(seed=0):
    return ch.ChainSpec(
        stages=(
            ch.AttenuatorStage(20.0),
            ch.AttenuatorStage(20.0),
            ch.AttenuatorStage(20.0),
            ch.SampleStage(system=BUNDLED_SYSTEM),
        ),
        rng_seed=seed,
    )


def full_chain(seed=0, v_dd=0.9):
    return ch.ChainSpec(
        stages=(
            ch.AttenuatorStage(20.0),
            ch.AttenuatorStage(20.0),
            ch.AttenuatorStage(20.0),
            ch.MuxStage(selected_port=0, input_port=0, v_dd=v_dd),
            ch.SampleStage(system=BUNDLED_SYSTEM),
            ch.BandpassStage(4.0e9, 8.0e9, 30.0),
            ch.AmplifierStage(40.0, 4.0),
            ch.AmplifierStage(40.0, 300.0),
        ),
        rng_seed=seed,
    )


def bundled_grid(span_linewidths=10.0, n_points=801):
    half = span_linewidths * BUNDLED_WIDTH
    return ch.FrequencyGrid.linspace(BUNDLED_NU - half, BUNDLED_NU + half, n_points)


# ---------------------------------------------------------------- power


def test_power_at_sample_plain_attenuation():
    p = ch.power_at_sample(bare_chain(), 0.0)
    assert_allclose(p, 1e-9, rtol=1e-12)


def test_power_at_sample_mux_insertion_loss():
    plain = ch.power_at_sample(bare_chain(), 0.0)
    with_mux = ch.power_at_sample(full_chain(), 0.0, frequency_hz=6.0e9)
    extra_db = 10.0 * np.log10(plain / with_mux)
    assert 1.1 <= extra_db <= 2.1


def test_power_at_sample_needs_frequency_with_mux():
    with pytest.raises(InputError, match="frequency"):
        ch.power_at_sample(full_chain(), 0.0)


def test_power_at_sample_linearity():
    chain = full_chain()
    low = ch.power_at_sample(chain, -20.0, frequency_hz=6.0e9)
    high = ch.power_at_sample(chain, -10.0, frequency_hz=6.0e9)
    assert_allclose(high / low, 10.0, rtol=1e-12)


def test_dbm_round_trip():
    assert_allclose(ch.dbm_from_watts(ch.watts_from_dbm(-163.0)), -163.0, rtol=1e-12)
    with pytest.raises(InputError):
        ch.dbm_from_watts(0.0)


# ---------------------------------------------------------------- synthesis


def test_noiseless_raw_trace_is_model_times_attenuation():
    chain = bare_chain()
    sweep = ch.SweepSpec(bundled_grid(), instrument_power_dbm=-30.0)
    trace = ch.synthesize_sweep(chain, sweep, plane="raw")
    expected = s21_physics(BUNDLED_SYSTEM, sweep.grid.omega) * 10.0 ** (-60.0 / 20.0)
    assert trace.sigma is None
    assert_allclose(trace.s21, expected, rtol=1e-12)


def test_noiseless_calibrated_trace_is_bare_model():
    chain = bare_chain()
    sweep = ch.SweepSpec(bundled_grid(), instrument_power_dbm=-30.0)
    trace = ch.synthesize_sweep(chain, sweep, plane="calibrated")
    assert_allclose(trace.s21, s21_physics(BUNDLED_SYSTEM, sweep.grid.omega), rtol=1e-12)


def test_zero_noise_temperature_is_noiseless():
    stages = bare_chain().stages + (ch.AmplifierStage(40.0, 0.0),)
    chain = ch.ChainSpec(stages, rng_seed=3)
    sweep = ch.SweepSpec(bundled_grid(), instrument_power_dbm=-30.0)
    trace = ch.synthesize_sweep(chain, sweep, plane="calibrated")
    assert trace.sigma is None
    assert_allclose(trace.s21, s21_physics(BUNDLED_SYSTEM, sweep.grid.omega), rtol=1e-12)


def test_same_seed_reproduces_bit_identical_trace():
    sweep = ch.SweepSpec(bundled_grid(), instrument_power_dbm=-101.4, averages=1000)
    first = ch.synthesize_sweep(full_chain(seed=11), sweep)
    second = ch.synthesize_sweep(full_chain(seed=11), sweep)
    assert np.array_equal(first.s21, second.s21)
    third = ch.synthesize_sweep(full_chain(seed=12), sweep)
    assert not np.array_equal(first.s21, third.s21)


def test_unknown_plane_rejected():
    sweep = ch.SweepSpec(bundled_grid(), instrument_power_dbm=-30.0)
    with pytest.raises(InputError):
        ch.synthesize_sweep(bare_chain(), sweep, plane="device")


def test_bandpass_reject_and_warn():
    chain = ch.ChainSpec(
        stages=(
            ch.SampleStage(system=BUNDLED_SYSTEM),
            ch.BandpassStage(4.9e9, 8.0e9, 30.0),
        ),
        rng_seed=0,
    )
    sweep = ch.SweepSpec(bundled_grid(), instrument_power_dbm=-30.0)
    with pytest.warns(BandEdgeWarning):
        trace = ch.synthesize_sweep(chain, sweep, plane="raw")
    expected = s21_physics(BUNDLED_SYSTEM, sweep.grid.omega) * 10.0 ** (-30.0 / 20.0)
    assert_allclose(trace.s21, expected, rtol=1e-12)


def test_in_band_sweep_does_not_warn(recwarn):
    sweep = ch.SweepSpec(bundled_grid(), instrument_power_dbm=-101.4, averages=100)
    ch.synthesize_sweep(full_chain(), sweep)
    assert not [w for w in recwarn.list if issubclass(w.category, BandEdgeWarning)]


def test_noise_sigma_matches_friis_hand_value():
    chain = ch.ChainSpec(
        stages=(
            ch.AttenuatorStage(10.0),
            ch.SampleStage(system=BUNDLED_SYSTEM),
            ch.AmplifierStage(30.0, 5.0),
            ch.AmplifierStage(20.0, 290.0),
        ),
        rng_seed=5,
    )
    averages = 400
    sweep = ch.SweepSpec(bundled_grid(), instrument_power_dbm=-40.0, averages=averages)
    trace = ch.synthesize_sweep(chain, sweep, plane="calibrated")
    t_eff = 5.0 + 290.0 / 1000.0
    p_instr = ch.watts_from_dbm(-40.0)
    expected = np.sqrt(BOLTZMANN * t_eff * sweep.rbw_hz / averages) * (
        10.0 ** (10.0 / 20.0) / np.sqrt(p_instr)
    )
    assert_allclose(trace.sigma, expected, rtol=1e-12)

    # empirical noise against the attached sigma
    model = s21_physics(BUNDLED_SYSTEM, sweep.grid.omega)
    scatter = np.std(trace.s21 - model)
    assert_allclose(scatter, expected, rtol=0.15)


def test_noise_shrinks_with_averaging():
    grid = bundled_grid()
    one = ch.synthesize_sweep(
        full_chain(seed=2), ch.SweepSpec(grid, -101.4, averages=1)
    )
    many = ch.synthesize_sweep(
        full_chain(seed=2), ch.SweepSpec(grid, -101.4, averages=100)
    )
    assert_allclose(one.sigma / many.sigma, 10.0, rtol=1e-12)


def test_synthesized_sweep_fit_recovers_q():
    chain = ch.load_chain_spec(ch.example_chain_path())
    sweep = ch.load_sweep_spec(ch.example_sweep_path())
    trace = ch.synthesize_sweep(chain, sweep, plane="calibrated")
    result = fit_spectrum(trace)
    assert result.converged
    assert abs(result.params["q_loaded"] - BUNDLED_QL) <= 0.05 * BUNDLED_QL


# ---------------------------------------------------------------- photons


SATURATING_TLS = TlsModel(
    components=(
        LossComponent(
            name="surface", participation=1.0, tan_delta=8.34e-5, n_c=1.0, beta=0.5
        ),
    ),
    q0=1.0e6,
)

SATURATING_SYSTEM = CavityLerSystem(
    omega_c=TWO_PI * 6.979e9,
    omega_r=TWO_PI * 5.569e9,
    g=TWO_PI * 1.097e8,
    kappa_i=TWO_PI * 2.0e6,
    kappa_o=TWO_PI * 2.0e6,
    gamma_c=TWO_PI * 1.0e4,
    gamma_r=TWO_PI * 4.7e5,
)


def test_solve_photon_number_without_tls_is_single_shot():
    stage = ch.SampleStage(system=BUNDLED_SYSTEM)
    rates = purcell(BUNDLED_SYSTEM)
    p = 5.01e-20
    n, gamma = ch.solve_photon_number(stage, p)
    assert gamma == BUNDLED_SYSTEM.gamma_r
    direct = mean_photons_from_rates(
        rates, BUNDLED_SYSTEM.gamma_r, p, rates.omega_r_dressed
    )
    assert_allclose(n, direct, rtol=1e-12)
    assert ch.solve_photon_number(stage, 0.0)[0] == 0.0


def test_solve_photon_number_fixed_point_is_self_consistent():
    stage = ch.SampleStage(system=SATURATING_SYSTEM, tls=SATURATING_TLS)
    rates = purcell(SATURATING_SYSTEM)
    omega = rates.omega_r_dressed
    for p in (1e-18, 1e-16, 1e-14):
        n, gamma = ch.solve_photon_number(stage, p)
        assert_allclose(gamma, omega * qi_inverse(SATURATING_TLS, n), rtol=1e-8)
        back = mean_photons_from_rates(rates, gamma, p, omega)
        assert_allclose(back, n, rtol=1e-6)


def test_solve_photon_number_saturates():
    stage = ch.SampleStage(system=SATURATING_SYSTEM, tls=SATURATING_TLS)
    powers = (1e-19, 1e-17, 1e-15, 1e-13)
    results = [ch.solve_photon_number(stage, p) for p in powers]
    ns = [n for n, _ in results]
    gammas = [g for _, g in results]
    assert all(a < b for a, b in zip(ns, ns[1:]))
    assert all(a > b for a, b in zip(gammas, gammas[1:]))


# ---------------------------------------------------------------- series


def test_run_power_series_flat_q():
    chain = ch.ChainSpec(
        stages=(
            ch.AttenuatorStage(60.0),
            ch.SampleStage(system=BUNDLED_SYSTEM),
            ch.BandpassStage(4.0e9, 8.0e9, 30.0),
            ch.AmplifierStage(40.0, 4.0),
        ),
        rng_seed=21,
    )
    sweep = ch.SweepSpec(bundled_grid(), instrument_power_dbm=0.0, averages=60000)
    powers = [-103.0, -97.0, -91.0, -85.0]
    series = ch.run_power_series(chain, sweep, powers)
    assert len(series) == len(powers)
    ns = [n for n, _ in series]
    for n, fit in series:
        assert fit.converged
        assert abs(fit.params["q_loaded"] - BUNDLED_QL) <= 0.05 * BUNDLED_QL
    for lo, hi in zip(ns, ns[1:]):
        assert_allclose(hi / lo, 10.0 ** 0.6, rtol=0.2)


def test_run_power_series_tls_round_trip():
    rates = purcell(SATURATING_SYSTEM)
    nu = rates.omega_r_dressed / TWO_PI
    width0 = rates.kappa_pur / TWO_PI + nu * qi_inverse(SATURATING_TLS, 0.0)
    grid = ch.FrequencyGrid.linspace(nu - 2.5 * width0, nu + 2.5 * width0, 1201)
    chain = ch.ChainSpec(
        stages=(
            ch.AttenuatorStage(60.0),
            ch.SampleStage(system=SATURATING_SYSTEM, tls=SATURATING_TLS),
            ch.AmplifierStage(40.0, 4.0),
        ),
        rng_seed=31,
    )
    sweep = ch.SweepSpec(grid, instrument_power_dbm=0.0, averages=6000)
    powers = list(np.linspace(-80.0, -15.0, 12))
    series = ch.run_power_series(chain, sweep, powers)
    points = ch.power_points_from_series(series)
    assert len(points) >= 10

    q_c_true = rates.omega_r_dressed / (
        2.0 * np.sqrt(rates.kappa_pur_i * rates.kappa_pur_o)
    )
    result = fit_power_sweep(points, q_c_mag=q_c_true)
    assert result.converged
    for key, truth in (
        ("p_tan_delta", 8.34e-5),
        ("n_c", 1.0),
        ("beta", 0.5),
        ("q0", 1.0e6),
    ):
        assert abs(result.params[key] - truth) <= 0.15 * truth


@pytest.mark.parametrize("tls", [None, SATURATING_TLS], ids=["no_tls", "tls"])
def test_run_power_series_traces_match_per_power_synthesis(monkeypatch, tls):
    system = BUNDLED_SYSTEM if tls is None else SATURATING_SYSTEM
    stages = tuple(
        ch.SampleStage(system=system, tls=tls) if isinstance(s, ch.SampleStage) else s
        for s in full_chain().stages
    )
    chain = ch.ChainSpec(stages, rng_seed=17)
    rates = purcell(system)
    nu = rates.omega_r_dressed / TWO_PI
    half = 5.0 * rates.kappa_pur / TWO_PI
    sweep = ch.SweepSpec(
        ch.FrequencyGrid.linspace(nu - half, nu + half, 301),
        instrument_power_dbm=0.0,
        averages=1000,
    )
    powers = [-110.0, -80.0, -50.0]

    traces = []
    calls = []
    original_response = ch._stage_response

    def fake_fit(trace):
        traces.append(trace)
        return FitResult({}, None, float("nan"), False, 0)

    def counted_response(stage, grid):
        calls.append(type(stage).__name__)
        return original_response(stage, grid)

    monkeypatch.setattr(ch, "fit_spectrum", fake_fit)
    monkeypatch.setattr(ch, "_stage_response", counted_response)
    ch.run_power_series(chain, sweep, powers)
    hoisted_calls = list(calls)
    monkeypatch.undo()

    seeds = np.random.SeedSequence(chain.rng_seed).spawn(len(powers))
    for p_dbm, seed, trace in zip(powers, seeds, traces):
        expected = ch.synthesize_sweep(
            chain,
            replace(sweep, instrument_power_dbm=p_dbm),
            rng=np.random.default_rng(seed),
            plane="calibrated",
        )
        assert trace.s21.tobytes() == expected.s21.tobytes()
        assert trace.sigma.tobytes() == expected.sigma.tobytes()
    # every stage but a TLS sample once on the grid, plus the mux once at
    # the dressed resonance for its drive power; only that sample per power
    per_power = len(powers) if tls is not None else 0
    assert len(hoisted_calls) == len(chain.stages) + per_power
    assert hoisted_calls.count("SampleStage") == max(per_power, 1)
    assert hoisted_calls.count("MuxStage") == 1 + (tls is not None)


def mux_series_setup(tls):
    """Full chain (mux on the input path) with the sample and a grid around it."""
    system = BUNDLED_SYSTEM if tls is None else SATURATING_SYSTEM
    stages = tuple(
        ch.SampleStage(system=system, tls=tls) if isinstance(s, ch.SampleStage) else s
        for s in full_chain().stages
    )
    rates = purcell(system)
    nu = rates.omega_r_dressed / TWO_PI
    width = (rates.kappa_pur + system.gamma_r) / TWO_PI
    if tls is not None:
        width += nu * qi_inverse(tls, 0.0)
    grid = ch.FrequencyGrid.linspace(nu - 10.0 * width, nu + 10.0 * width, 801)
    return ch.ChainSpec(stages, rng_seed=23), ch.SweepSpec(grid, 0.0, averages=30000)


@pytest.mark.parametrize("tls", [None, SATURATING_TLS], ids=["no_tls", "tls"])
def test_run_power_series_photon_axis_matches_per_power(tls):
    chain, sweep = mux_series_setup(tls)
    powers = [-94.0, -88.0, -82.0, -76.0]
    series = ch.run_power_series(chain, sweep, powers)
    for p_dbm, (n_photons, fit) in zip(powers, series):
        assert fit.converged
        f_fit = fit.params["f_r"]
        expected = photon_axis(ch.power_at_sample(chain, p_dbm, f_fit), fit, f_fit)
        assert_allclose(n_photons, expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("tls", [None, SATURATING_TLS], ids=["no_tls", "tls"])
def test_run_power_series_mux_calls_do_not_grow_with_powers(monkeypatch, tls):
    chain, sweep = mux_series_setup(tls)
    calls = []
    original = ch.mux_s_params

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(ch, "mux_s_params", counted)
    per_series = []
    for powers in ([-90.0, -84.0], [-94.0, -90.0, -86.0, -82.0, -78.0]):
        calls.clear()
        series = ch.run_power_series(chain, sweep, powers)
        assert all(fit.converged for _, fit in series)
        per_series.append(len(calls))
    # the grid, the photon axis, and for a TLS sample its dressed resonance
    assert per_series == [2 + (tls is not None)] * 2


def test_unpowered_mux_gives_same_q_with_larger_error_bars():
    sweep = ch.SweepSpec(bundled_grid(), instrument_power_dbm=-88.0, averages=30000)
    powered = ch.run_power_series(full_chain(seed=41, v_dd=0.9), sweep, [-88.0])
    unpowered = ch.run_power_series(full_chain(seed=42, v_dd=0.0), sweep, [-88.0])
    (_, fit_on), (_, fit_off) = powered[0], unpowered[0]
    assert fit_on.converged and fit_off.converged
    q_on = fit_on.params["q_loaded"]
    q_off = fit_off.params["q_loaded"]
    assert abs(q_off - q_on) <= 0.15 * q_on
    idx = 1
    assert fit_off.covariance[idx, idx] > fit_on.covariance[idx, idx]


# ---------------------------------------------------------------- files


def test_trace_csv_round_trip_is_lossless(tmp_path):
    rng = np.random.default_rng(8)
    grid = bundled_grid(n_points=64)
    s21 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    trace = ch.ComplexTrace(grid, s21)
    path = tmp_path / "trace.csv"
    ch.write_trace(str(path), trace)
    back = ch.read_trace(str(path))
    assert np.array_equal(back.grid.points, grid.points)
    assert np.array_equal(back.s21, s21)


def test_trace_csv_header_and_row_diagnostics(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("frequency,re,im\n1.0,2.0,3.0\n")
    with pytest.raises(InputError, match="line 1"):
        ch.read_trace(str(path))

    path.write_text("freq_hz,s21_re,s21_im\n4.0e9,0.1,0.2\n4.1e9,0.3\n")
    with pytest.raises(InputError, match="line 3"):
        ch.read_trace(str(path))

    path.write_text("freq_hz,s21_re,s21_im\n4.0e9,0.1,0.2\n4.1e9,spam,0.4\n")
    with pytest.raises(InputError, match="s21_re"):
        ch.read_trace(str(path))

    path.write_text("freq_hz,s21_re,s21_im\n")
    with pytest.raises(InputError, match="no data rows"):
        ch.read_trace(str(path))

    for text, field in (("nan", "s21_re"), ("-inf", "s21_im"), ("inf", "freq_hz")):
        row = {"freq_hz": "4.1e9", "s21_re": "0.3", "s21_im": "0.4", field: text}
        path.write_text(
            "freq_hz,s21_re,s21_im\n4.0e9,0.1,0.2\n"
            + ",".join(row[k] for k in ("freq_hz", "s21_re", "s21_im"))
            + "\n"
        )
        with pytest.raises(InputError, match=f"line 3: field '{field}' is not finite"):
            ch.read_trace(str(path))


def test_power_points_csv_round_trip(tmp_path):
    points = (
        ch.PowerSweepPoint(0.5, 1.2e4, 120.0),
        ch.PowerSweepPoint(50.0, 3.4e4, 340.0),
    )
    path = tmp_path / "points.csv"
    ch.write_power_points(str(path), points)
    back = ch.read_power_points(str(path))
    assert back == points

    path.write_text("n_photons,q_loaded,q_uncertainty\n1.0,-2.0,3.0\n")
    with pytest.raises(InputError, match="line 2"):
        ch.read_power_points(str(path))

    path.write_text("n_photons,q_loaded,q_uncertainty\n1.0,2.0,3.0\ninf,2.0,3.0\n")
    with pytest.raises(InputError, match="points.csv: line 3: field 'n_photons'"):
        ch.read_power_points(str(path))


# ---------------------------------------------------------------- configs


def test_example_configs_load():
    chain = ch.load_chain_spec(ch.example_chain_path())
    sweep = ch.load_sweep_spec(ch.example_sweep_path())
    assert sum(isinstance(s, ch.SampleStage) for s in chain.stages) == 1
    assert len(sweep.grid) == 801
    assert sweep.averages == 60000
    sample = chain.sample
    assert_allclose(sample.system.omega_r, TWO_PI * 4.779e9, rtol=1e-12)


def test_chain_json_diagnostics(tmp_path):
    path = tmp_path / "chain.json"

    path.write_text('{"format_version": 2, "stages": []}')
    with pytest.raises(InputError, match="format_version"):
        ch.load_chain_spec(str(path))

    path.write_text('{"format_version": 1, "stages": [{"type": "laser"}]}')
    with pytest.raises(InputError, match="stage 0"):
        ch.load_chain_spec(str(path))

    path.write_text('{"format_version": 1, "stages": [{"type": "attenuator"}]}')
    with pytest.raises(InputError, match="loss_db"):
        ch.load_chain_spec(str(path))

    path.write_text('{"format_version": 1, "stages": [')
    with pytest.raises(InputError, match="line"):
        ch.load_chain_spec(str(path))

    path.write_text(
        '{"format_version": 1, "stages": [{"type": "attenuator", "loss_db": 20}]}'
    )
    with pytest.raises(InputError, match="sample"):
        ch.load_chain_spec(str(path))

    with pytest.raises(InputError, match="cannot read"):
        ch.load_chain_spec(str(tmp_path / "missing.json"))


def test_versioned_json_rejects_boolean_version_and_undecodable_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text('{"format_version": true, "stages": []}')
    with pytest.raises(InputError, match="unsupported format_version True"):
        ch.load_chain_spec(str(path))
    path.write_bytes(b'{"format_version": 1, "stages": ["\xff"]}')
    with pytest.raises(InputError, match="cannot read"):
        ch.load_chain_spec(str(path))


def test_sweep_json_diagnostics(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text('{"format_version": 1, "f_start_hz": 4.0e9}')
    with pytest.raises(InputError, match="f_stop_hz"):
        ch.load_sweep_spec(str(path))


def test_stage_validation():
    with pytest.raises(InputError):
        ch.AttenuatorStage(-1.0)
    with pytest.raises(InputError):
        ch.BandpassStage(8.0e9, 4.0e9, 30.0)
    with pytest.raises(InputError):
        ch.AmplifierStage(30.0, -1.0)
    with pytest.raises(InputError):
        ch.MuxStage(selected_port=7)
    with pytest.raises(InputError):
        ch.MuxStage(selected_port=0, input_port=-1)
    with pytest.raises(InputError):
        ch.ChainSpec(stages=(ch.AttenuatorStage(3.0),))
    # dB values whose amplitude factor is inf or 0 in double precision
    for make, db, field in (
        (ch.AmplifierStage, 1e308, "gain_db"),
        (ch.AmplifierStage, 7000.0, "gain_db"),
        (ch.AmplifierStage, -7000.0, "gain_db"),
        (ch.AttenuatorStage, 7000.0, "loss_db"),
    ):
        with pytest.raises(InputError, match=field):
            make(db)
    assert ch.AttenuatorStage(300.0).loss_db == 300.0


def bundled_chain_raw():
    with open(ch.example_chain_path(), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
def test_rng_seed_must_be_a_non_negative_integer(tmp_path, seed):
    with pytest.raises(InputError, match="rng_seed"):
        ch.ChainSpec(bare_chain().stages, rng_seed=seed)
    raw = bundled_chain_raw()
    raw["rng_seed"] = seed
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(InputError, match="rng_seed"):
        ch.load_chain_spec(str(path))


def test_rng_seed_accepts_integral_values(tmp_path):
    assert ch.ChainSpec(bare_chain().stages, rng_seed=np.int64(5)).rng_seed == 5
    raw = bundled_chain_raw()
    raw["rng_seed"] = 7.0
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(raw))
    assert ch.load_chain_spec(str(path)).rng_seed == 7


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nonfinite_chain_response_is_an_input_error():
    chain = ch.ChainSpec(
        stages=(
            ch.SampleStage(system=BUNDLED_SYSTEM),
            ch.BandpassStage(4.9e9, 8.0e9, 1e4),
        ),
    )
    sweep = ch.SweepSpec(bundled_grid(), instrument_power_dbm=-30.0)
    with pytest.warns(BandEdgeWarning), pytest.raises(
        InputError, match="must all be finite"
    ):
        ch.synthesize_sweep(chain, sweep, plane="calibrated")


def test_sweep_spec_validation():
    grid = bundled_grid(n_points=16)
    with pytest.raises(InputError):
        ch.SweepSpec(grid, instrument_power_dbm=-30.0, averages=0)
    with pytest.raises(InputError):
        ch.SweepSpec(grid, instrument_power_dbm=-30.0, rbw_hz=0.0)
    with pytest.raises(InputError):
        ch.SweepSpec(grid, instrument_power_dbm=float("nan"))


def test_mux_config_overrides(tmp_path):
    path = tmp_path / "chain.json"

    def load(config):
        stages = [
            {"type": "mux", "config": config},
            {"type": "sample", "f_cavity_hz": 6.979e9, "f_resonator_hz": 4.779e9,
             "g_hz": 1.075408e7, "kappa_i_hz": 2.0e6, "kappa_o_hz": 2.0e6,
             "gamma_r_hz": 587.128},
        ]
        path.write_text(json.dumps({"format_version": 1, "stages": stages}))
        return ch.load_chain_spec(str(path)).stages[0].config

    assert load({}) == MuxConfig()
    config = load({"r_on": 5, "n_ports": 8.0, "l_match": 1e-10})
    assert config == MuxConfig(n_ports=8, branch=SwitchBranch(r_on=5.0), l_match=1e-10)
    assert isinstance(config.n_ports, int) and isinstance(config.branch.r_on, float)
    for bad in ({"r_onn": 5.0}, {"branch": {"r_on": 5.0}}, {"temperature_label": "4K"}):
        with pytest.raises(InputError, match="unknown mux config key"):
            load(bad)
    with pytest.raises(InputError, match="stage 0"):
        load({"c_off": "wide"})
    with pytest.raises(InputError, match="parasitic_loss_db"):
        load({"parasitic_loss_db": float("inf")})


def test_mux_stage_control_state():
    latched = ch.MuxStage(selected_port=2).control_state()
    assert latched.latched_selection == 2
    assert latched.shift_register == (0, 0, 1, 0)
    idle = ch.MuxStage(selected_port=None).control_state()
    assert idle.latched_selection is None


def test_resolve_config_path_env(tmp_path, monkeypatch):
    config = tmp_path / "alt" / "my_chain.json"
    config.parent.mkdir()
    config.write_text("{}")
    monkeypatch.setenv(ch.CONFIG_DIR_ENV, str(config.parent))
    assert ch.resolve_config_path("my_chain.json") == str(config)
    assert ch.resolve_config_path("other.json") == "other.json"
