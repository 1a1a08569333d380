from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.constants import hbar

from cryomux import resonator
from cryomux.errors import (
    DispersiveLimitError,
    DispersiveValidityWarning,
    InputError,
    NonphysicalValueError,
)
from cryomux.resonator import CavityLerSystem, LorentzianParams, PurcellRates

TWO_PI = 2.0 * np.pi
RNG = np.random.default_rng(20260822)


def make_system(**overrides):
    base = dict(
        omega_c=TWO_PI * 7.0e9,
        omega_r=TWO_PI * 5.0e9,
        g=TWO_PI * 5.0e6,
        kappa_i=TWO_PI * 10.0e6,
        kappa_o=TWO_PI * 10.0e6,
        gamma_c=0.0,
        gamma_r=TWO_PI * 1.0e3,
    )
    base.update(overrides)
    return CavityLerSystem(**base)


# ---------------------------------------------------------------- rates

def test_purcell_hand_oracle():
    rates = resonator.purcell(make_system())
    # kappa_i * (g / delta)^2 with g/delta = 5/2000
    assert_allclose(rates.kappa_pur_i, TWO_PI * 62.5, rtol=1e-12)
    assert_allclose(rates.kappa_pur_o, TWO_PI * 62.5, rtol=1e-12)
    assert_allclose(rates.kappa_pur, TWO_PI * 125.0, rtol=1e-12)
    # dispersive pull g^2/delta = 12.5 kHz, downward for a cavity above
    assert_allclose(rates.omega_r_dressed, TWO_PI * (5.0e9 - 12.5e3), rtol=1e-15)
    assert rates.omega_r_dressed < TWO_PI * 5.0e9


def test_zero_coupling_leaves_resonator_bare():
    rates = resonator.purcell(make_system(g=0.0))
    assert rates.kappa_pur == 0.0
    assert rates.omega_r_dressed == TWO_PI * 5.0e9


def test_degenerate_detuning_raises():
    with pytest.warns(DispersiveValidityWarning):
        system = make_system(omega_r=TWO_PI * 7.0e9)
    with pytest.raises(DispersiveLimitError):
        resonator.purcell(system)


@pytest.mark.parametrize("as_type", [float, np.float64], ids=["float", "numpy_scalar"])
def test_coupling_whose_square_overflows_is_an_input_error_naming_g(as_type):
    # a numpy scalar's ** gives inf and a RuntimeWarning where a Python float's raises
    system = make_system(g=as_type(TWO_PI * 1e160))
    with pytest.raises(InputError, match=r"^g 6\.28.* rad/s is too strong"):
        resonator.purcell(system)
    assert all(type(getattr(system, name)) is float for name in ("g", "omega_c", "gamma_c"))


def test_marginal_detuning_warns():
    with pytest.warns(DispersiveValidityWarning):
        make_system(omega_r=TWO_PI * (7.0e9 - 50.0e6))


def test_field_validation():
    with pytest.raises(InputError):
        make_system(kappa_i=-1.0)
    with pytest.raises(InputError):
        make_system(gamma_c=-1.0)
    with pytest.raises(InputError):
        PurcellRates(-1.0, 1.0, TWO_PI * 5e9)


def test_purcell_power_laws():
    g_grid = TWO_PI * np.array([1e6, 2e6, 4e6, 8e6])
    k = np.array([resonator.purcell(make_system(g=g)).kappa_pur for g in g_grid])
    slope = np.polyfit(np.log(g_grid), np.log(k), 1)[0]
    assert_allclose(slope, 2.0, rtol=1e-12)

    d_grid = np.array([1e9, 2e9, 3e9, 4e9])
    k = np.array(
        [
            resonator.purcell(make_system(omega_c=TWO_PI * (5.0e9 + d))).kappa_pur
            for d in d_grid
        ]
    )
    slope = np.polyfit(np.log(TWO_PI * d_grid), np.log(k), 1)[0]
    assert_allclose(slope, -2.0, rtol=1e-12)


# ---------------------------------------------------------------- line shapes

def test_reduced_model_peak_and_halfwidth():
    system = make_system(gamma_r=1e-9)  # essentially lossless resonator
    rates = resonator.purcell(system)
    peak = abs(resonator.s21_physics(system, rates.omega_r_dressed))
    assert_allclose(peak, 1.0, rtol=1e-9)  # symmetric lossless peak

    half = 0.5 * (rates.kappa_pur + system.gamma_r)
    for sign in (-1.0, 1.0):
        mag = abs(resonator.s21_physics(system, rates.omega_r_dressed + sign * half))
        assert_allclose(mag, peak / np.sqrt(2.0), rtol=1e-9)


def test_lorentzian_peak_value_and_baseline():
    params = LorentzianParams(
        a_scale=1.0, b_offset=0.0, f_r=4.8e9, q_loaded=1e6, q_c_mag=5e7, phi=0.0
    )
    peak = resonator.s21_lorentzian(params, 4.8e9)
    assert_allclose(peak, 0.02 + 0.0j, rtol=1e-12)
    far = resonator.s21_lorentzian(params, 4.8e9 * 1e4)
    assert abs(far) < 1e-8 * abs(peak)


def test_lorentzian_halfwidth_points():
    params = LorentzianParams(
        a_scale=2.3, b_offset=0.0, f_r=6.1e9, q_loaded=2e5, q_c_mag=6e5, phi=0.0
    )
    peak = abs(resonator.s21_lorentzian(params, params.f_r))
    for sign in (-1.0, 1.0):
        f = params.f_r * (1.0 + sign / (2.0 * params.q_loaded))
        assert_allclose(
            abs(resonator.s21_lorentzian(params, f)), peak / np.sqrt(2.0), rtol=1e-6
        )


def test_phi_rotates_circle_about_offset():
    f = np.linspace(4.7999e9, 4.8001e9, 401)
    flat = LorentzianParams(1.0, 0.25 + 0.1j, 4.8e9, 1e5, 4e5, 0.0)
    tilted = LorentzianParams(1.0, 0.25 + 0.1j, 4.8e9, 1e5, 4e5, 0.3)
    a = resonator.s21_lorentzian(flat, f) - flat.b_offset
    b = resonator.s21_lorentzian(tilted, f) - tilted.b_offset
    assert_allclose(b, a * np.exp(0.3j), rtol=1e-12)


def test_reduced_model_matches_lorentzian_after_mapping():
    system = make_system(gamma_r=TWO_PI * 600.0)
    rates = resonator.purcell(system)
    width = rates.kappa_pur + system.gamma_r
    q_loaded = rates.omega_r_dressed / width
    q_c_mag = rates.omega_r_dressed / (
        2.0 * np.sqrt(rates.kappa_pur_i * rates.kappa_pur_o)
    )
    params = LorentzianParams(
        a_scale=1.0,
        b_offset=0.0,
        f_r=rates.omega_r_dressed / TWO_PI,
        q_loaded=q_loaded,
        q_c_mag=q_c_mag,
        phi=0.0,
    )
    f = params.f_r + np.linspace(-10.0, 10.0, 1001) * width / TWO_PI
    # the physics model winds the resonance circle in the opposite sense to
    # the fitting convention; compare after conjugation
    physics = np.conj(resonator.s21_physics(system, TWO_PI * f))
    lorentz = resonator.s21_lorentzian(params, f)
    peak = np.max(np.abs(lorentz))
    rms = np.sqrt(np.mean(np.abs(physics - lorentz) ** 2))
    assert rms < 1e-9 * peak


def test_exact_model_agrees_near_resonance():
    system = make_system(
        omega_c=TWO_PI * 7.0e9,
        omega_r=TWO_PI * 4.8e9,
        g=TWO_PI * 1.1e7,
        kappa_i=TWO_PI * 2.0e6,
        kappa_o=TWO_PI * 2.0e6,
        gamma_c=TWO_PI * 1.0e4,
        gamma_r=TWO_PI * 500.0,
    )
    rates = resonator.purcell(system)
    width = rates.kappa_pur + system.gamma_r
    omega = rates.omega_r_dressed + np.linspace(-10.0, 10.0, 4001) * width
    reduced = np.abs(resonator.s21_physics(system, omega))
    full = np.abs(resonator.s21_physics(system, omega, exact=True))
    assert_allclose(np.max(full), np.max(reduced), rtol=5e-3)
    # the exact response peaks within one linewidth of the dressed frequency
    assert abs(omega[np.argmax(full)] - rates.omega_r_dressed) < width


def test_scalar_and_array_returns():
    system = make_system()
    assert isinstance(resonator.s21_physics(system, TWO_PI * 5e9), complex)
    arr = resonator.s21_physics(system, TWO_PI * np.array([5e9, 5.000001e9]))
    assert arr.shape == (2,)


# ---------------------------------------------------------------- quality factors

def test_q_internal_arithmetic():
    assert_allclose(resonator.q_relations(7e6, 5e7), 8.1395349e6, rtol=1e-6)
    assert_allclose(resonator.q_relations(7e6, np.inf), 7e6, rtol=1e-12)


def test_q_internal_nonphysical():
    with pytest.raises(NonphysicalValueError):
        resonator.q_relations(5e7, 5e7)
    with pytest.raises(NonphysicalValueError):
        resonator.q_relations(6e7, 5e7)


# ---------------------------------------------------------------- photons

def test_photon_routes_agree_for_symmetric_systems():
    for _ in range(100):
        k_half = 10.0 ** RNG.uniform(1.0, 5.0)
        gamma = 10.0 ** RNG.uniform(0.0, 4.0)
        omega = TWO_PI * 10.0 ** RNG.uniform(9.0, 10.0)
        p_in = 10.0 ** RNG.uniform(-21.0, -15.0)
        rates = PurcellRates(k_half, k_half, omega)
        half = 0.5 * (rates.kappa_pur + gamma)
        peak = np.sqrt(rates.kappa_pur_i * rates.kappa_pur_o) / half
        from_rates = resonator.mean_photons_from_rates(rates, gamma, p_in, omega)
        measurable = resonator.mean_photons_measurable(
            peak, omega / (rates.kappa_pur + gamma), p_in, omega
        )
        assert_allclose(from_rates, measurable, rtol=1e-12)


def test_photon_measurable_hand_oracle():
    n = resonator.mean_photons_measurable(
        0.14, 7e6, 5.01e-20, TWO_PI * 4.78e9
    )
    assert_allclose(n, 1.0323, rtol=1e-4)


def test_photon_linearity_and_detuning():
    rates = PurcellRates(1e3, 1e3, TWO_PI * 4.8e9)
    gamma = 500.0
    on = resonator.mean_photons_from_rates(rates, gamma, 1e-18, rates.omega_r_dressed)
    assert resonator.mean_photons_from_rates(rates, gamma, 0.0, rates.omega_r_dressed) == 0.0
    assert_allclose(
        resonator.mean_photons_from_rates(rates, gamma, 2e-18, rates.omega_r_dressed),
        2.0 * on,
        rtol=1e-12,
    )
    half = 0.5 * (rates.kappa_pur + gamma)
    detuned = resonator.mean_photons_from_rates(
        rates, gamma, 1e-18, rates.omega_r_dressed + half
    )
    assert_allclose(detuned, on / 2.0, rtol=1e-12)


def test_photon_rates_take_array_inputs():
    rates = PurcellRates(1e3, 1e3, TWO_PI * 4.8e9)
    omega = rates.omega_r_dressed
    gammas = np.array([100.0, 500.0, 2500.0])
    powers = np.array([[1e-18], [3e-18]])
    scalar = [
        [resonator.mean_photons_from_rates(rates, g, p, omega) for g in gammas]
        for p in powers[:, 0]
    ]
    assert all(isinstance(n, float) for row in scalar for n in row)
    by_gamma = resonator.mean_photons_from_rates(rates, gammas, 1e-18, omega)
    assert isinstance(by_gamma, np.ndarray) and by_gamma.shape == (3,)
    assert_allclose(by_gamma, scalar[0], rtol=1e-15)
    both = resonator.mean_photons_from_rates(rates, gammas, powers, omega)
    assert both.shape == (2, 3)
    assert_allclose(both, scalar, rtol=1e-15)
    detunings = omega + np.array([-1e3, 0.0, 1e3])
    by_drive = resonator.mean_photons_from_rates(rates, 500.0, 1e-18, detunings)
    assert by_drive.shape == (3,) and by_drive[1] == scalar[0][1]


def test_photon_flux_normalization():
    # one photon per lifetime in through a symmetric lossless pair of ports
    omega = TWO_PI * 5e9
    kappa = 1e4
    rates = PurcellRates(kappa, kappa, omega)
    p_in = hbar * omega * kappa  # flux = kappa photons/s
    n = resonator.mean_photons_from_rates(rates, 0.0, p_in, omega)
    assert_allclose(n, 1.0, rtol=1e-12)
