from __future__ import annotations

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.constants import k as BOLTZMANN
from scipy.optimize import minimize_scalar

from cryomux import chain as ch
from cryomux import csvfile
from cryomux.errors import BandEdgeWarning, InputError
from cryomux.fitkit import FitResult, fit_power_sweep, fit_spectrum, photon_axis
from cryomux.jsonfile import CONFIG_DIR_ENV, resolve_config_path
from cryomux.lossbudget import BETA_DEFAULT, N_C_DEFAULT, LossComponent, TlsModel, qi_inverse
from cryomux.muxsim import MuxConfig, SwitchBranch
from cryomux.resonator import TWO_PI, CavityLerSystem, dbm_from_watts, mean_photons_from_rates
from cryomux.resonator import purcell, s21_physics, watts_from_dbm

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
    assert_allclose(dbm_from_watts(watts_from_dbm(-163.0)), -163.0, rtol=1e-12)
    with pytest.raises(InputError):
        dbm_from_watts(0.0)


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


@pytest.mark.parametrize("plane", ["raw", "calibrated"])
@pytest.mark.parametrize("gains_db", [(3500.0, 40.0), (1600.0, 1600.0)], ids=["square", "product"])
def test_friis_sum_past_double_range_takes_its_limit(gains_db, plane):
    # both gains have a finite amplitude factor, but a power factor past
    # double range: the first overflows in |G|**2, the pair in the product
    # after the last amplifier. T / inf = 0 is the limit, with no warning
    chain = ch.load_chain_spec(ch.example_chain_path())
    sweep = ch.load_sweep_spec(ch.example_sweep_path())
    first, second = (i for i, s in enumerate(chain.stages) if isinstance(s, ch.AmplifierStage))

    def with_amplifiers(t_second):
        stages = list(chain.stages)
        stages[first] = ch.AmplifierStage(gains_db[0], stages[first].noise_temperature_k)
        stages[second] = ch.AmplifierStage(gains_db[1], t_second)
        return ch.synthesize_sweep(replace(chain, stages=tuple(stages)), sweep, plane=plane)

    trace = with_amplifiers(chain.stages[second].noise_temperature_k)
    assert np.all(np.isfinite(trace.sigma)) and np.all(trace.sigma > 0.0)
    # the second amplifier's noise is referred through a gain of at least 1e160
    assert trace.sigma.tobytes() == with_amplifiers(0.0).sigma.tobytes()


@pytest.mark.parametrize(
    "first_gain_db, loss_db", [(40.0, 3400.0), (3500.0, 3500.0)], ids=["underflow", "inf_times_0"]
)
def test_friis_referral_rejects_a_gain_ahead_of_an_amplifier_that_is_0_or_nan(
    first_gain_db, loss_db
):
    # a pad between the amplifiers whose power factor underflows to 0 leaves
    # the second amplifier's noise T / 0; after an overflowed first gain the
    # running gain is inf * 0 = NaN. Either is an InputError naming the
    # amplifier, with no RuntimeWarning on the way
    chain = ch.load_chain_spec(ch.example_chain_path())
    sweep = ch.load_sweep_spec(ch.example_sweep_path())
    first, second = (i for i, s in enumerate(chain.stages) if isinstance(s, ch.AmplifierStage))
    stages = list(chain.stages)
    stages[first] = ch.AmplifierStage(first_gain_db, stages[first].noise_temperature_k)
    stages.insert(second, ch.AttenuatorStage(loss_db))
    with pytest.raises(InputError, match=f"stage {second + 1}: the power gain ahead"):
        ch.synthesize_sweep(replace(chain, stages=tuple(stages)), sweep)


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


def roadmap_stage(tan_delta=1e-4, beta=0.5):
    """The bundled sample with one saturable component and q0 = 1e9."""
    return ch.SampleStage(
        system=BUNDLED_SYSTEM,
        tls=TlsModel((LossComponent("x", 1.0, tan_delta, 1.0, beta),), q0=1e9),
    )


def photon_map(stage, n, p):
    """n_rate(gamma(n)): the photon number that the loss rate at n sustains."""
    rates = purcell(stage.system)
    omega = rates.omega_r_dressed
    gamma = omega * qi_inverse(stage.tls, n)
    return mean_photons_from_rates(rates, gamma, p, omega)


@pytest.mark.parametrize("beta", [0.5, 1.0])
@pytest.mark.parametrize("tan_delta", [1e-4, 1e-3, 1e-2])
def test_solve_photon_number_is_the_root_or_refuses_a_bistable_power(tan_delta, beta):
    stage = roadmap_stage(tan_delta, beta)
    powers = ch.watts_from_dbm(0.0) * 10.0 ** (np.linspace(-170.0, -60.0, 221) / 10.0)
    # every root lies between the photon numbers at the largest and the
    # smallest loss; count them by a dense sign scan of n_rate(gamma(n)) - n
    rates = purcell(stage.system)
    omega = rates.omega_r_dressed
    lowest = mean_photons_from_rates(rates, omega * qi_inverse(stage.tls, 0.0), powers[0], omega)
    highest = mean_photons_from_rates(rates, omega / stage.tls.q0, powers[-1], omega)
    n = np.geomspace(0.5 * lowest, 2.0 * highest, 40001)
    above = photon_map(stage, n[:, None], powers[None, :]) > n[:, None]
    roots = np.count_nonzero(above[1:] != above[:-1], axis=0)
    assert np.all(roots >= 1)
    assert (beta == 1.0) or np.all(roots == 1)
    single = roots == 1
    solved, gamma = ch.solve_photon_number(stage, powers[single])
    assert_allclose(photon_map(stage, solved, powers[single]), solved, rtol=1e-12, atol=0.0)
    assert_allclose(gamma, omega * qi_inverse(stage.tls, solved), rtol=1e-15)
    for p in powers[~single]:
        with pytest.raises(InputError, match=f"{ch.dbm_from_watts(p):.6g} dBm"):
            ch.solve_photon_number(stage, p)
    if beta == 1.0 and tan_delta == 1e-4:
        # the bistable window from about -136.75 to -112.5 dBm at the sample
        bistable = np.linspace(-170.0, -60.0, 221)[~single]
        assert bistable.min() == -136.5 and bistable.max() == -112.5


def test_solve_photon_number_pins_roots_the_fixed_point_missed():
    # a fixed-point iteration capped at 50 steps returned 240.8, 16060.6 and
    # 321620.6 here
    stage = roadmap_stage()
    for p_dbm, root in ((-106.0, 17771.9), (-105.5, 179134.8), (-105.0, 533591.6)):
        p = ch.watts_from_dbm(p_dbm)
        n, _ = ch.solve_photon_number(stage, p)
        assert_allclose(n, root, rtol=1e-6)
        assert_allclose(photon_map(stage, n, p), n, rtol=1e-12)


@pytest.mark.parametrize(
    "tan_delta, beta, dbm_range",
    [(1e-3, 0.5, (-150.0, -70.0)), (1e-4, 1.0, (-110.0, -60.0))],
    ids=["monotone", "above_the_fold"],
)
def test_solve_photon_number_array_equals_scalar_solves_bit_for_bit(tan_delta, beta, dbm_range):
    stage = roadmap_stage(tan_delta, beta)
    powers = ch.watts_from_dbm(0.0) * 10.0 ** (np.linspace(*dbm_range, 24) / 10.0)
    n, gamma = ch.solve_photon_number(stage, powers)
    for k, p in enumerate(powers):
        n_k, gamma_k = ch.solve_photon_number(stage, float(p))
        assert isinstance(n_k, float) and isinstance(gamma_k, float)
        assert n_k == n[k] and gamma_k == gamma[k]
    grid_n, grid_gamma = ch.solve_photon_number(stage, powers.reshape(4, 6))
    assert grid_n.shape == grid_gamma.shape == (4, 6)
    assert np.array_equal(grid_n.ravel(), n) and np.array_equal(grid_gamma.ravel(), gamma)


def test_solve_photon_number_zero_power_is_zero_without_warning():
    stage = roadmap_stage()
    gamma0 = purcell(BUNDLED_SYSTEM).omega_r_dressed * qi_inverse(stage.tls, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ch.solve_photon_number(stage, 0.0) == (0.0, gamma0)
        n, gamma = ch.solve_photon_number(stage, np.array([0.0, 1e-18]))
    assert n[0] == 0.0 and gamma[0] == gamma0 and n[1] > 0.0
    with pytest.raises(InputError, match="non-negative"):
        ch.solve_photon_number(stage, np.array([1e-18, -1e-18]))


def test_solve_photon_number_refuses_powers_just_inside_the_fold():
    stage = roadmap_stage(beta=1.0)

    def log_power(x):
        # ln of the sample power (W) whose self-consistent photon number is e**x
        n = np.exp(x)
        return np.log(n / photon_map(stage, n, 1.0))

    x = np.linspace(-10.0, 25.0, 35001)
    falls = np.flatnonzero(np.diff(log_power(x)) < 0.0)
    edges = []
    for j, sign in ((falls[0], -1.0), (falls[-1] + 1, 1.0)):  # the top, then the bottom
        turn = minimize_scalar(
            lambda t: sign * log_power(t), bounds=(x[j - 1], x[j + 1]), method="bounded",
            options={"xatol": 1e-13},
        )
        edges.append((sign * turn.fun, sign))
    assert edges[1][0] < edges[0][0]
    for level, sign in edges:
        # the turns bound the powers with three roots; sign points inward
        with pytest.raises(InputError, match="more than one"):
            ch.solve_photon_number(stage, math.exp(level + sign * 1e-9))
        p = math.exp(level - sign * 1e-9)
        n, _ = ch.solve_photon_number(stage, p)
        assert_allclose(photon_map(stage, n, p), n, rtol=1e-12)


def test_solve_photon_number_names_the_bistable_power_in_an_array():
    stage = roadmap_stage(beta=1.0)
    powers = [ch.watts_from_dbm(p_dbm) for p_dbm in (-150.0, -125.0, -100.0)]
    with pytest.raises(InputError, match="-125 dBm .* more than one"):
        ch.solve_photon_number(stage, np.array(powers))
    # outside the window the same model has one root
    assert ch.solve_photon_number(stage, powers[0])[0] > 0.0


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


def test_run_power_series_with_the_tls_sample_after_the_first_amplifier(monkeypatch):
    # the noise chain then holds the one response that depends on power
    chain = ch.ChainSpec(
        stages=(
            ch.AttenuatorStage(60.0),
            ch.AmplifierStage(20.0, 4.0),
            ch.SampleStage(system=SATURATING_SYSTEM, tls=SATURATING_TLS),
            ch.AmplifierStage(40.0, 300.0),
        ),
        rng_seed=29,
    )
    rates = purcell(SATURATING_SYSTEM)
    nu = rates.omega_r_dressed / TWO_PI
    half = 5.0 * rates.kappa_pur / TWO_PI
    sweep = ch.SweepSpec(
        ch.FrequencyGrid.linspace(nu - half, nu + half, 301),
        instrument_power_dbm=0.0,
        averages=1000,
    )
    powers = [-110.0, -70.0, -30.0]
    traces = []

    def fake_fit(trace):
        traces.append(trace)
        return FitResult({}, None, float("nan"), False, 0)

    monkeypatch.setattr(ch, "fit_spectrum", fake_fit)
    ch.run_power_series(chain, sweep, powers)
    monkeypatch.undo()

    seeds = np.random.SeedSequence(chain.rng_seed).spawn(len(powers))
    for p_dbm, seed, trace in zip(powers, seeds, traces, strict=True):
        expected = ch.synthesize_sweep(
            chain,
            replace(sweep, instrument_power_dbm=p_dbm),
            rng=np.random.default_rng(seed),
            plane="calibrated",
        )
        assert trace.s21.tobytes() == expected.s21.tobytes()
        assert trace.sigma.tobytes() == expected.sigma.tobytes()
    # sigma differs between the powers beyond its 1/sqrt(power) scale: the
    # saturating sample's dip enters the Friis sum and the noise gain
    scaled = [t.sigma * math.sqrt(ch.watts_from_dbm(p)) for p, t in zip(powers, traces)]
    for low, high in zip(scaled, scaled[1:]):
        assert not np.allclose(low, high, rtol=1e-3, atol=0.0)


def test_run_power_series_with_the_tls_sample_ahead_of_the_first_amplifier(monkeypatch):
    # the noise chain then holds no response that depends on power
    chain = ch.ChainSpec(
        stages=(
            ch.AttenuatorStage(60.0),
            ch.SampleStage(system=SATURATING_SYSTEM, tls=SATURATING_TLS),
            ch.AmplifierStage(20.0, 4.0),
            ch.AttenuatorStage(6.0),
            ch.AmplifierStage(40.0, 300.0),
        ),
        rng_seed=37,
    )
    rates = purcell(SATURATING_SYSTEM)
    nu = rates.omega_r_dressed / TWO_PI
    half = 5.0 * rates.kappa_pur / TWO_PI
    sweep = ch.SweepSpec(
        ch.FrequencyGrid.linspace(nu - half, nu + half, 301),
        instrument_power_dbm=0.0,
        averages=1000,
    )
    powers = [-110.0, -70.0, -30.0]
    traces = []

    def fake_fit(trace):
        traces.append(trace)
        return FitResult({}, None, float("nan"), False, 0)

    monkeypatch.setattr(ch, "fit_spectrum", fake_fit)
    ch.run_power_series(chain, sweep, powers)
    monkeypatch.undo()

    seeds = np.random.SeedSequence(chain.rng_seed).spawn(len(powers))
    for p_dbm, seed, trace in zip(powers, seeds, traces, strict=True):
        expected = ch.synthesize_sweep(
            chain,
            replace(sweep, instrument_power_dbm=p_dbm),
            rng=np.random.default_rng(seed),
            plane="calibrated",
        )
        assert trace.s21.tobytes() == expected.s21.tobytes()
        assert trace.sigma.tobytes() == expected.sigma.tobytes()
    # sigma scales as 1/sqrt(power) alone, although the sample saturates
    scaled = [t.sigma * math.sqrt(ch.watts_from_dbm(p)) for p, t in zip(powers, traces)]
    for low, high in zip(scaled, scaled[1:]):
        assert_allclose(high, low, rtol=1e-12, atol=0.0)
    assert not np.allclose(traces[0].s21, traces[-1].s21, rtol=1e-3, atol=0.0)


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


# ---------------------------------------------------------------- CSV files (csvfile)


def test_trace_csv_round_trip_is_lossless(tmp_path):
    rng = np.random.default_rng(8)
    grid = bundled_grid(n_points=64)
    s21 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    trace = ch.ComplexTrace(grid, s21)
    path = tmp_path / "trace.csv"
    csvfile.write_trace(str(path), trace)
    back = csvfile.read_trace(str(path))
    assert np.array_equal(back.grid.points, grid.points)
    assert np.array_equal(back.s21, s21)


def test_trace_csv_header_and_row_diagnostics(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("frequency,re,im\n1.0,2.0,3.0\n")
    with pytest.raises(InputError, match="line 1"):
        csvfile.read_trace(str(path))

    path.write_text("freq_hz,s21_re,s21_im\n4.0e9,0.1,0.2\n4.1e9,0.3\n")
    with pytest.raises(InputError, match="line 3"):
        csvfile.read_trace(str(path))

    path.write_text("freq_hz,s21_re,s21_im\n4.0e9,0.1,0.2\n4.1e9,spam,0.4\n")
    with pytest.raises(InputError, match="s21_re"):
        csvfile.read_trace(str(path))

    path.write_text("freq_hz,s21_re,s21_im\n")
    with pytest.raises(InputError, match="no data rows"):
        csvfile.read_trace(str(path))

    for text, field in (("nan", "s21_re"), ("-inf", "s21_im"), ("inf", "freq_hz")):
        row = {"freq_hz": "4.1e9", "s21_re": "0.3", "s21_im": "0.4", field: text}
        path.write_text(
            "freq_hz,s21_re,s21_im\n4.0e9,0.1,0.2\n"
            + ",".join(row[k] for k in ("freq_hz", "s21_re", "s21_im"))
            + "\n"
        )
        with pytest.raises(InputError, match=f"line 3: field '{field}' is not finite"):
            csvfile.read_trace(str(path))


def test_power_points_csv_round_trip(tmp_path):
    points = (
        ch.PowerSweepPoint(0.5, 1.2e4, 120.0),
        ch.PowerSweepPoint(50.0, 3.4e4, 340.0),
    )
    path = tmp_path / "points.csv"
    csvfile.write_power_points(str(path), points)
    back = csvfile.read_power_points(str(path))
    assert back == points

    path.write_text("n_photons,q_loaded,q_uncertainty\n1.0,-2.0,3.0\n")
    with pytest.raises(InputError, match="line 2"):
        csvfile.read_power_points(str(path))

    path.write_text("n_photons,q_loaded,q_uncertainty\n1.0,2.0,3.0\ninf,2.0,3.0\n")
    with pytest.raises(InputError, match="points.csv: line 3: field 'n_photons'"):
        csvfile.read_power_points(str(path))


H = csvfile.TRACE_HEADER + "\n"

#: (id, file text): inputs on either side of what np.loadtxt and the
#: per-line parser accept; ids ending in "_sep" hold a character that
#: loadtxt strips as field whitespace and str.splitlines breaks a line at
CSV_CORPUS = [
    ("plain", H + "4e9,0.1,0.2\n4.1e9,0.3,0.4\n"),
    ("crlf", (H + "4e9,0.1,0.2\n4.1e9,0.3,0.4\n").replace("\n", "\r\n")),
    ("cr_only", (H + "4e9,0.1,0.2\n4.1e9,0.3,0.4\n").replace("\n", "\r")),
    ("no_final_newline", H + "4e9,0.1,0.2\n4.1e9,0.3,0.4"),
    ("blank_lines", H + "\n4e9,0.1,0.2\n\n4.1e9,0.3,0.4\n\n"),
    ("surrounding_spaces", H + " 4e9 ,\t0.1 , 0.2\t\n"),
    ("sign_and_bare_dots", H + "+4e9,.5,2.\n"),
    ("long_digits", H + "4e9,0.1000000000000000055511151231257827021181583404541015625,-0\n"),
    ("subnormal_and_underflow", H + "4e9,4.9e-324,1e-400\n"),
    ("nan", H + "4e9,nan,0.2\n"),
    ("inf", H + "4e9,0.1,-inf\n"),
    ("overflow", H + "4e9,1e400,0.2\n"),
    ("two_fields", H + "4e9,0.1\n"),
    ("four_fields", H + "4e9,0.1,0.2,0.3\n"),
    ("mixed_field_counts", H + "4e9,0.1,0.2\n4.1e9,0.3\n"),
    ("empty_field", H + "4e9,,0.2\n"),
    ("hash", H + "4e9,0.1,0.2 # note\n"),
    ("comment_line", H + "# note\n4e9,0.1,0.2\n"),
    ("quoted", H + '"4e9",0.1,0.2\n'),
    ("hex", H + "0x10,0.1,0.2\n"),
    ("underscore", H + "4_000,0.1,0.2\n"),
    ("full_width_digits", H + "\uff14e9,0.1,0.2\n"),
    ("whitespace_only_line", H + "4e9,0.1,0.2\n   \n4.1e9,0.3,0.4\n"),
    ("header_only", H),
    ("empty_file", ""),
    ("wrong_header", "f,re,im\n4e9,0.1,0.2\n"),
    ("header_spaces", " " + csvfile.TRACE_HEADER + " \n4e9,0.1,0.2\n"),
    ("no_break_space", H + "4e9\xa0,0.1,0.2\n"),
    ("form_feed_sep", H + "4e9\x0c,0.1,0.2\n"),
    ("vertical_tab_sep", H + "4e9,0.1\x0b,0.2\n"),
    ("file_separator_sep", H + "4e9,0.1,0.2\n4.1e9\x1c,0.3,0.4\n"),
    ("group_separator_sep", H + "4e9,\x1d0.1,0.2\n"),
    ("record_separator_sep", H + "4e9,0.1,0.2\x1e\n"),
    ("unit_separator", H + "4e9\x1f,0.1,0.2\n"),
    ("next_line_sep", H + "4e9\x85,0.1,0.2\n"),
    ("line_separator_sep", H + "4e9\u2028,0.1,0.2\n"),
    ("form_feed_before_header_sep", "\x0c" + H + "4e9,0.1,0.2\n"),
]


def _oracle(path, text):
    """The per-line parser's rows as an array, or its InputError message."""
    try:
        rows = csvfile._parse_csv_lines(path, text, csvfile.TRACE_HEADER, 3)
    except InputError as exc:
        return str(exc)
    return np.array([row for _, row in rows])


# as errors: loadtxt warns on an empty body, as in header_only
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", [t for _, t in CSV_CORPUS], ids=[i for i, _ in CSV_CORPUS])
def test_csv_reader_matches_the_per_line_parser(tmp_path, text):
    path = tmp_path / "trace.csv"
    path.write_bytes(text.encode("utf-8"))
    text = csvfile.read_text(str(path))
    expected = _oracle(str(path), text)
    if isinstance(expected, str):
        with pytest.raises(InputError) as info:
            csvfile._parse_csv(str(path), text, csvfile.TRACE_HEADER, 3)
        assert str(info.value) == expected
    else:
        rows = csvfile._parse_csv(str(path), text, csvfile.TRACE_HEADER, 3)
        assert rows.shape == expected.shape and rows.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n_points", [1, 201, 3201])
def test_trace_csv_round_trip_of_random_traces_is_bit_exact(tmp_path, monkeypatch, n_points):
    rng = np.random.default_rng(n_points)
    grid = ch.FrequencyGrid(np.sort(rng.uniform(4e9, 5e9, n_points)))
    s21 = rng.standard_normal(n_points) * 10.0 ** rng.uniform(-300, 300, n_points)
    trace = ch.ComplexTrace(grid, s21 + 1j * rng.standard_normal(n_points))
    path = tmp_path / "trace.csv"
    csvfile.write_trace(str(path), trace)

    def per_line_parser_called(*args):
        raise AssertionError("a clean trace fell back to the per-line parser")

    # a file as write_trace leaves it takes the single loadtxt parse
    monkeypatch.setattr(csvfile, "_parse_csv_lines", per_line_parser_called)
    back = csvfile.read_trace(str(path))
    assert back.grid.points.tobytes() == grid.points.tobytes()
    assert back.s21.tobytes() == trace.s21.tobytes()


def test_power_point_error_names_its_line_past_blank_lines(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("n_photons,q_loaded,q_uncertainty\n\n1.0,2.0,3.0\n\n1.0,-2.0,3.0\n")
    with pytest.raises(InputError, match="points.csv: line 5: "):
        csvfile.read_power_points(str(path))


def test_non_utf8_csv_is_an_input_error_naming_the_file(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_bytes(H.encode() + b"4e9,0.1,0.2\xff\n")
    with pytest.raises(InputError, match="cannot read .*trace.csv.*utf-8"):
        csvfile.read_trace(str(path))
    with pytest.raises(InputError, match="cannot read .*trace.csv.*utf-8"):
        csvfile.read_power_points(str(path))


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


def chain_with_tls(tmp_path, tls):
    """The example chain file with ``tls`` set on its sample stage."""
    with open(ch.example_chain_path(), encoding="utf-8") as handle:
        raw = json.load(handle)
    next(stage for stage in raw["stages"] if stage["type"] == "sample")["tls"] = tls
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_load_chain_spec_builds_the_tls_model_with_defaults(tmp_path):
    rows = [
        {"name": "surface", "participation": 0.5, "tan_delta": 2e-4, "n_c": 3.0, "beta": 0.4},
        {"participation": 1e-3, "tan_delta": 1e-3},
    ]
    chain = ch.load_chain_spec(chain_with_tls(tmp_path, {"components": rows, "q0": 2e6}))
    assert chain.sample.tls == TlsModel(
        (
            LossComponent("surface", 0.5, 2e-4, 3.0, 0.4),
            LossComponent("component_1", 1e-3, 1e-3, N_C_DEFAULT, BETA_DEFAULT),
        ),
        q0=2e6,
    )
    chain = ch.load_chain_spec(chain_with_tls(tmp_path, {"components": rows[1:], "q0": None}))
    assert chain.sample.tls.q0 == np.inf
    assert ch.load_chain_spec(chain_with_tls(tmp_path, None)).sample.tls is None


@pytest.mark.parametrize(
    "tls, message",
    [
        (
            {"components": [{"participation": 1.0, "tan_delta": 1e-4, "nc": 10.0}]},
            r"bad component row 0: unknown keys \['nc'\]",
        ),
        ({"components": [1]}, "bad component row 0: expected an object, got 1"),
        ({"components": [{"tan_delta": 1e-4}]}, "bad component row 0: .*'participation'"),
        ({"components": [{"participation": 2.0, "tan_delta": 1e-4}]}, "bad component row 0: "),
        ({"components": {"participation": 1.0}}, "tls: components must be a list"),
        ({"components": [], "q0": 1e6, "Q0": 1e6}, r"unknown tls keys \['Q0'\]"),
        ({"components": [], "q0": -1.0}, "tls: q0 must be positive"),
        ([1], "tls must be an object or null"),
    ],
    ids=[
        "row_key", "row_type", "row_missing", "row_value", "rows_type", "block_key", "q0", "block"
    ],
)
def test_chain_tls_block_diagnostics_name_file_and_stage_once(tmp_path, tls, message):
    path = chain_with_tls(tmp_path, tls)
    with pytest.raises(InputError, match=message) as info:
        ch.load_chain_spec(path)
    text = str(info.value)
    assert text.startswith(f"{path}: stage 4: ")
    assert text.count(path) == 1 and text.count("stage 4") == 1
    assert text.count("component row") <= 1


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


def _top(raw):
    return raw


def _mux(raw):
    return next(stage for stage in raw["stages"] if stage["type"] == "mux")


def _mux_config(raw):
    return _mux(raw).setdefault("config", {})


#: (file, the object holding the field, its key) for every integer field a loader reads
INTEGER_SITES = {
    "sweep_points_per_trace": ("sweep", _top, "points_per_trace"),
    "sweep_averages": ("sweep", _top, "averages"),
    "mux_input_port": ("chain", _mux, "input_port"),
    "mux_selected_port": ("chain", _mux, "selected_port"),
    "mux_config_n_ports": ("chain", _mux_config, "n_ports"),
    "chain_rng_seed": ("chain", _top, "rng_seed"),
}


def _load_edited(path, site, value):
    """Write the bundled chain or sweep file with the site's field set to value, then load it."""
    kind, holder, key = {**INTEGER_SITES, **FLOAT_SITES}[site]
    source = ch.example_sweep_path() if kind == "sweep" else ch.example_chain_path()
    with open(source, encoding="utf-8") as handle:
        raw = json.load(handle)
    holder(raw)[key] = value
    path.write_text(json.dumps(raw))
    loader = ch.load_sweep_spec if kind == "sweep" else ch.load_chain_spec
    return loader(str(path))


@pytest.mark.parametrize("site", sorted(INTEGER_SITES))
@pytest.mark.parametrize("value", [0.9, 2.5, 801.9, True, "3", math.inf])
def test_json_integer_fields_reject_fractions_bools_and_strings(tmp_path, site, value):
    path = tmp_path / "edited.json"
    with pytest.raises(InputError) as info:
        _load_edited(path, site, value)
    key = INTEGER_SITES[site][2]
    assert str(info.value).startswith(f"{path}: ")
    assert f"{key} must be an integer, got {value!r}" in str(info.value)


@pytest.mark.parametrize("site", sorted(INTEGER_SITES))
def test_json_integer_fields_accept_integral_floats(tmp_path, site):
    value = {"sweep_points_per_trace": 801, "sweep_averages": 60000, "mux_config_n_ports": 4}
    value = value.get(site, 0)
    as_int = _load_edited(tmp_path / "int.json", site, value)
    assert _load_edited(tmp_path / "float.json", site, float(value)) == as_int


def _sample(raw):
    return next(stage for stage in raw["stages"] if stage["type"] == "sample")


def _tls_row(raw):
    row = {"participation": 0.5, "tan_delta": 1e-6}
    _sample(raw)["tls"] = {"components": [row]}
    return row


#: (file, the object holding the field, its key) for float fields of each loader and row reader
FLOAT_SITES = {
    "attenuator_loss_db": ("chain", lambda raw: raw["stages"][0], "loss_db"),
    "amplifier_gain_db": ("chain", lambda raw: raw["stages"][-1], "gain_db"),
    "mux_config_c_off": ("chain", _mux_config, "c_off"),
    "sample_g_hz": ("chain", _sample, "g_hz"),
    "tls_participation": ("chain", _tls_row, "participation"),
    "sweep_rbw_hz": ("sweep", _top, "rbw_hz"),
}


@pytest.mark.parametrize("site", sorted(FLOAT_SITES))
@pytest.mark.parametrize(
    "value", [True, False, "20", 10**400], ids=["true", "false", "string", "int_1e400"]
)
def test_json_float_fields_reject_bools_strings_and_huge_integers(tmp_path, site, value):
    path = tmp_path / "edited.json"
    with pytest.raises(InputError) as info:
        _load_edited(path, site, value)
    key = FLOAT_SITES[site][2]
    assert str(info.value).startswith(f"{path}: ")
    if isinstance(value, int) and not isinstance(value, bool):
        assert f"{key} is an integer beyond double range" in str(info.value)
    else:
        assert f"{key} must be a number, got {value!r}" in str(info.value)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda raw: _mux(raw).update(config={"r_onn": 5.0}), "stage 3: unknown mux config keys"),
        (lambda raw: _mux(raw).update(config="wide"), "stage 3: config must be an object"),
        (lambda raw: _mux(raw).update(input_port=True), "stage 3: input_port must be an integer"),
        (lambda raw: raw["stages"][0].pop("loss_db"), "stage 0: missing field 'loss_db'"),
        (
            lambda raw: _sample(raw).update(
                tls={"components": [{"participation": 1.0, "tan_delta": "high"}]}
            ),
            "stage 4: tls: bad component row 0: ",
        ),
    ],
    ids=["mux_config_key", "mux_config_type", "input_port_bool", "missing_loss_db", "tls_row"],
)
def test_chain_stage_diagnostics_name_the_file_once(tmp_path, edit, message):
    raw = bundled_chain_raw()
    edit(raw)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(InputError) as info:
        ch.load_chain_spec(str(path))
    text = str(info.value)
    assert text.startswith(f"{path}: {message}")
    assert text.count(str(path)) == 1


def test_chain_needs_exactly_one_sample_stage(tmp_path):
    # a second sample behind the first would get the first's drive power
    tls_sample = ch.SampleStage(system=BUNDLED_SYSTEM, tls=SATURATING_TLS)
    stages = bare_chain().stages + (ch.AttenuatorStage(30.0), tls_sample)
    with pytest.raises(InputError, match=r"exactly one sample stage, got 2 at stages \[3, 5\]"):
        ch.ChainSpec(stages)
    raw = bundled_chain_raw()
    raw["stages"][5:5] = [{"type": "attenuator", "loss_db": 30.0}, dict(_sample(raw))]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(InputError) as info:
        ch.load_chain_spec(str(path))
    assert str(info.value) == (
        f"{path}: chain needs exactly one sample stage, got 2 at stages [4, 6]"
    )


def test_sweep_missing_field_names_the_file_once(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text('{"format_version": 1, "f_start_hz": 4.0e9}')
    with pytest.raises(InputError) as info:
        ch.load_sweep_spec(str(path))
    assert str(info.value) == f"{path}: missing field 'f_stop_hz'"


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
    monkeypatch.setenv(CONFIG_DIR_ENV, str(config.parent))
    assert resolve_config_path("my_chain.json") == str(config)
    assert resolve_config_path("other.json") == "other.json"
