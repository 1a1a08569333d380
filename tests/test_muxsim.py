from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cryomux import muxsim, rfnet
from cryomux.errors import ClampWarning, InputError, OutOfRangeError, SelectionError
from cryomux.muxsim import ControlState, MuxConfig, PowerTable

BAND = rfnet.FrequencyGrid(np.linspace(4e9, 8e9, 41))
F6 = rfnet.FrequencyGrid(np.array([6e9]))
CFG = MuxConfig()


def il_db(smat):
    """Positive insertion/isolation numbers from an S-matrix."""
    return -rfnet.s_to_db(smat.s21)


# ---------------------------------------------------------------- control

def test_parallel_decode():
    s = ControlState.initial()
    s = muxsim.parallel_write(s, d0=0, d1=0, le_pulse=True)
    assert s.latched_selection == 0
    s = muxsim.parallel_write(s, d0=0, d1=1, le_pulse=True)
    assert s.latched_selection == 2
    assert s.shift_register == (0, 0, 1, 0)


def test_parallel_write_without_pulse_keeps_selection():
    s = muxsim.parallel_write(ControlState.initial(), 1, 0, le_pulse=True)
    s2 = muxsim.parallel_write(s, 1, 1, le_pulse=False)
    assert s2.latched_selection == 1
    assert s2.line_levels.d0 == 1 and s2.line_levels.d1 == 1


def test_parallel_decode_out_of_range():
    s = ControlState.initial(n_ports=3)
    with pytest.raises(SelectionError):
        muxsim.parallel_write(s, d0=1, d1=1, le_pulse=True)


def test_serial_first_bit_addresses_port_zero():
    s = ControlState.initial(mode="serial")
    for bit in (1, 0, 0, 0):
        s = muxsim.serial_clock(s, bit)
    s = muxsim.latch(s)
    assert s.latched_selection == 0
    assert s.shift_register == (1, 0, 0, 0)


def test_serial_all_zeros_deselects():
    s = ControlState.initial(mode="serial")
    for _ in range(4):
        s = muxsim.serial_clock(s, 0)
    s = muxsim.latch(s)
    assert s.latched_selection is None


def test_latch_rejects_multi_hot():
    s = ControlState.initial(mode="serial")
    for bit in (0, 1, 1, 0):
        s = muxsim.serial_clock(s, bit)
    before = s
    with pytest.raises(SelectionError):
        muxsim.latch(s)
    assert s == before  # immutable, nothing moved


def test_control_state_derives_its_latch_from_the_shift_register():
    state = ControlState(shift_register=(0, 0, 1, 0))
    assert state.n_ports == 4 and state.latched_selection == 2
    for register in ((1, 1, 0, 0), (0, 2, 0, 0), (1, 0, 0, -1)):
        with pytest.raises(SelectionError, match="not one-hot or all zero"):
            ControlState(shift_register=register)
    with pytest.raises(InputError, match="pending_register length"):
        ControlState(shift_register=(0, 0, 0), pending_register=(0, 0, 0, 0))


def test_mode_preconditions():
    with pytest.raises(InputError):
        muxsim.serial_clock(ControlState.initial(mode="parallel"), 1)
    with pytest.raises(InputError):
        muxsim.parallel_write(ControlState.initial(mode="serial"), 0, 0, True)


def test_ps_line_switches_mode_at_latch():
    s = ControlState.initial(mode="serial")
    s = muxsim.serial_clock(s, 0)
    s = muxsim.set_lines(s, ps=0)
    s = muxsim.latch(s)
    assert s.mode == "parallel"


def test_parallel_serial_equivalence_bit_exact():
    port = 2
    par = muxsim.parallel_write(ControlState.initial(), d0=0, d1=1, le_pulse=True)
    ser = ControlState.initial(mode="serial")
    bits = [0] * 4
    bits[0] = 0  # first bit in addresses port 0
    program = [1 if i == port else 0 for i in range(4)]
    for bit in program:
        ser = muxsim.serial_clock(ser, bit)
    ser = muxsim.latch(ser)
    assert par.latched_selection == ser.latched_selection == port
    sp = muxsim.mux_s_params(CFG, par, 0.9, F6)
    ss = muxsim.mux_s_params(CFG, ser, 0.9, F6)
    for a, b in zip(sp, ss):
        assert np.array_equal(a.s, b.s)


def test_one_hot_safety_under_random_ops():
    rng = np.random.default_rng(7)
    state = ControlState.initial(mode="serial")
    for _ in range(2000):
        op = rng.integers(0, 4)
        try:
            if op == 0:
                state = muxsim.serial_clock(state, int(rng.integers(0, 2)))
            elif op == 1:
                state = muxsim.latch(state)
            elif op == 2:
                state = muxsim.parallel_write(
                    state, int(rng.integers(0, 2)), int(rng.integers(0, 2)),
                    bool(rng.integers(0, 2)),
                )
            else:
                state = muxsim.set_lines(state, ps=int(rng.integers(0, 2)))
        except (InputError, SelectionError):
            continue
        assert sum(state.shift_register) <= 1
        assert state.latched_selection is None or 0 <= state.latched_selection < 4


# ---------------------------------------------------------------- conductance

def test_conductance_anchors():
    g_max = 1.0 / CFG.branch.r_on
    assert muxsim.branch_conductance(CFG, 0.9) == g_max
    assert muxsim.branch_conductance(CFG, 1.2) == g_max  # capped above nominal
    assert muxsim.branch_conductance(CFG, 0.0) < 1e-9 * g_max


def test_conductance_monotone_and_continuous():
    v = np.linspace(0.0, 1.0, 2001)
    g = np.array([muxsim.branch_conductance(CFG, vv) for vv in v])
    assert np.all(np.diff(g) >= 0.0)
    # value continuity through the subthreshold tangent point
    v_x = CFG.v_th + CFG.subthreshold_slope / math.log(10.0)
    lo = muxsim.branch_conductance(CFG, v_x - 1e-12)
    hi = muxsim.branch_conductance(CFG, v_x + 1e-12)
    assert_allclose(lo, hi, rtol=1e-8)


def test_conductance_rejects_negative_vdd():
    with pytest.raises(InputError):
        muxsim.branch_conductance(CFG, -0.1)


# ---------------------------------------------------------------- s-params

def _selected_state(port=0):
    s = ControlState.initial()
    d0, d1 = port & 1, (port >> 1) & 1
    return muxsim.parallel_write(s, d0, d1, le_pulse=True)


def test_insertion_loss_anchor_6ghz():
    smat = muxsim.mux_s_params(CFG, _selected_state(0), 0.9, F6)[0]
    assert abs(il_db(smat)[0] - 1.6) <= 0.5


def test_isolation_anchor_6ghz():
    smat = muxsim.mux_s_params(CFG, _selected_state(0), 0.9, F6)[1]
    assert abs(il_db(smat)[0] - 34.0) <= 3.0


def test_unpowered_transmission_anchor():
    mats = muxsim.mux_s_params(CFG, _selected_state(0), 0.0, F6)
    levels = [il_db(m)[0] for m in mats]
    # both programmed states collapse to the same capacitive feedthrough
    assert np.ptp(levels) < 1e-9
    assert abs(levels[0] - 21.4) <= 2.0


def test_band_behavior_and_slope():
    mats = muxsim.mux_s_params(CFG, _selected_state(0), 0.9, BAND)
    il = il_db(mats[0])
    iso = il_db(mats[1])
    assert np.all((il >= 1.0) & (il <= 3.0))
    assert np.all((iso >= 30.0) & (iso <= 40.0))
    assert 5.0 <= iso[0] - iso[-1] <= 15.0


def test_unpowered_sits_between_on_and_off():
    on = np.abs(muxsim.mux_s_params(CFG, _selected_state(0), 0.9, BAND)[0].s21)
    off = np.abs(muxsim.mux_s_params(CFG, _selected_state(0), 0.9, BAND)[1].s21)
    unp = np.abs(muxsim.mux_s_params(CFG, _selected_state(0), 0.0, BAND)[0].s21)
    assert np.all(unp < on)
    assert np.all(unp > off)


def test_monotone_degradation_with_vdd():
    prev_on, prev_off = None, None
    for v in np.linspace(CFG.v_th, CFG.v_dd_nominal, 18):
        mats = muxsim.mux_s_params(CFG, _selected_state(0), v, F6)
        on = abs(mats[0].s21[0])
        off = abs(mats[1].s21[0])
        if prev_on is not None:
            assert on >= prev_on - 1e-12
            assert off <= prev_off + 1e-12
        prev_on, prev_off = on, off


def test_passivity():
    for v in (0.0, 0.3, 0.475, 0.7, 0.9):
        for m in muxsim.mux_s_params(CFG, _selected_state(2), v, BAND):
            assert np.all(np.abs(m.s21) <= 1.0 + 1e-9)
            assert np.all(np.abs(m.s11) <= 1.0 + 1e-9)


def _cascade_branch(cfg, grid, selected, v_dd):
    """One branch built element by element through rfnet's ABCD cascade.

    This is the construction the closed form replaced, kept as its oracle.
    """
    jwc = 1j * grid.omega * cfg.branch.c_off
    g_on = muxsim.branch_conductance(cfg, v_dd)
    if selected:
        y_series, y_shunt = g_on + jwc, jwc
    else:
        y_series, y_shunt = muxsim.branch_conductance(cfg, 0.0) + jwc, g_on + jwc
    net = rfnet.cascade(
        rfnet.shunt_element(grid, y_shunt),
        rfnet.series_element(grid, 1.0 / y_series),
        rfnet.lumped(grid, "inductor", cfg.l_match, "series"),
        rfnet.s_to_abcd(rfnet.attenuator(grid, cfg.parasitic_loss_db)),
    )
    return rfnet.abcd_to_s(net)


def _assert_matches_cascade(mats, grid, selection, v_dd):
    for port, m in enumerate(mats):
        oracle = _cascade_branch(CFG, grid, port == selection, v_dd)
        for name in ("s11", "s21", "s22"):
            # the closed form and the cascade round differently; 1e-14 is
            # about 45 ulp, the worst case measured from 0.5 Hz to 10 GHz
            # is under 10 ulp
            assert_allclose(getattr(m, name), getattr(oracle, name), rtol=1e-14)
        # reciprocal by construction; the cascade's 2(AD - BC)/den cancels
        # badly on reflective branches, so S12 is not compared to it
        assert np.array_equal(m.s12, m.s21)


@pytest.mark.parametrize("grid", [BAND, F6], ids=["band", "one_point"])
@pytest.mark.parametrize("v_dd", [0.0, 0.47, 0.5, 0.9])
@pytest.mark.parametrize("selection", [0, 2, None])
def test_closed_form_matches_cascade(grid, v_dd, selection):
    state = ControlState.initial() if selection is None else _selected_state(selection)
    mats = muxsim.mux_s_params(CFG, state, v_dd, grid)
    _assert_matches_cascade(mats, grid, selection, v_dd)


def test_closed_form_matches_cascade_in_clamp_regime():
    # below about 5 Hz the off capacitance's |1/(jwC)| exceeds the 1e12
    # degenerate limit, so the deselected series element is clamped
    grid = rfnet.FrequencyGrid(np.array([0.5, 1.0, 2.0, 5.0, 1e3, 1e6]))
    with pytest.warns(ClampWarning):
        mats = muxsim.mux_s_params(CFG, _selected_state(0), 0.9, grid)
    with pytest.warns(ClampWarning):
        _assert_matches_cascade(mats, grid, 0, 0.9)


def test_deselected_ports_share_one_network():
    mats = muxsim.mux_s_params(CFG, _selected_state(0), 0.9, BAND)
    assert all(m is mats[1] for m in mats[1:])
    assert not np.array_equal(mats[0].s, mats[1].s)
    idle = muxsim.mux_s_params(CFG, ControlState.initial(), 0.9, BAND)
    assert all(m is idle[0] for m in idle)
    assert np.array_equal(idle[0].s, mats[1].s)


def test_state_config_port_mismatch():
    with pytest.raises(InputError):
        muxsim.mux_s_params(CFG, ControlState.initial(n_ports=8), 0.9, F6)


# ---------------------------------------------------------------- transient

def test_envelope_shape():
    assert muxsim.switching_envelope(0.4e-9, 0.0) == 0.0
    t = np.linspace(0, 5e-9, 50)
    env = muxsim.switching_envelope(0.4e-9, t)
    assert np.all(np.diff(env) > 0.0)
    assert env[-1] < 1.0


def test_rise_times_match_measured_values():
    # t95 = tau*ln(20): 0.4 ns -> 1.198 ns, 0.6 ns -> 1.797 ns
    assert abs(muxsim.rise_time(0.4e-9) - 1.2e-9) / 1.2e-9 < 0.01
    assert abs(muxsim.rise_time(0.6e-9) - 1.8e-9) / 1.8e-9 < 0.01
    # the envelope really is at 95% there
    assert_allclose(muxsim.switching_envelope(0.4e-9, muxsim.rise_time(0.4e-9)), 0.95,
                    rtol=1e-12)


def test_tau_interpolation():
    assert_allclose(muxsim.switching_tau(4e9), 0.6e-9)
    assert_allclose(muxsim.switching_tau(6e9), 0.4e-9)
    assert_allclose(muxsim.switching_tau(5e9), 0.5e-9)
    assert_allclose(muxsim.switching_tau(8e9), 0.2e-9)  # end-segment extrapolation


# ---------------------------------------------------------------- dissipation

def test_dissipation_anchor_is_exact():
    table = PowerTable()
    assert muxsim.dissipated_power(table, 0.9) == 36.2e-6
    assert muxsim.dissipated_power(table, 0.0) == 0.0


def test_dissipation_midpoint_on_chord():
    table = PowerTable(samples=((0.0, 0.0), (0.4, 10e-6), (0.8, 30e-6)))
    assert_allclose(muxsim.dissipated_power(table, 0.6), 0.6 * 20e-6, rtol=1e-12)


def test_dissipation_out_of_range():
    with pytest.raises(OutOfRangeError):
        muxsim.dissipated_power(PowerTable(), 1.1)
    with pytest.raises(OutOfRangeError):
        muxsim.dissipated_power(PowerTable(), math.nan)


def test_programming_time():
    assert muxsim.programming_time(4, 10e-9, "serial") == 40e-9
    assert muxsim.programming_time(1024, 10e-9, "serial") == pytest.approx(10.24e-6)
    assert muxsim.programming_time(4, 10e-9, "parallel") == 10e-9
    assert muxsim.programming_time(64, 10e-9, "parallel") == 10e-9
