"""SP4T cryo-CMOS switch multiplexer model.

Covers the digital control state machine (parallel and serial interfaces),
the supply-voltage dependent switch network S-parameters for each input port
to the common RF port, the switching transient envelope and static
dissipation. Each branch is a series pass transistor with a shunt transistor
to ground on the port side, so a deselected branch reflects.

A branch is a shunt admittance Y at the port, a series impedance
Z = 1/y_series + jwL (pass transistor plus matching inductor) and a matched
parasitic-loss pad. Its S-parameters follow in closed form from the ABCD
matrix [[1, Z], [Y, 1 + YZ]], with no cascade of element matrices;
``rfnet``'s element and cascade algebra builds the same network in the
tests and serves as their oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import rfnet
from .errors import InputError, OutOfRangeError, SelectionError, SingularNetworkError
from .rfnet import FrequencyGrid, SMatrix

# branch element defaults, calibrated against the measured band behavior:
# on-state loss 1.6 dB and isolation 34 dB at 6 GHz, unpowered transmission
# -21.4 dB, isolation falling 5-15 dB from 4 to 8 GHz
R_ON_DEFAULT = 9.75
C_OFF_DEFAULT = 28e-15
PARASITIC_LOSS_DB_DEFAULT = 0.70
L_MATCH_DEFAULT = 450e-12

V_DD_NOMINAL = 0.9
V_TH_CRYO = 0.475
#: deep-cryogenic subthreshold swing, volts per decade of channel conductance
SUBTHRESHOLD_SLOPE_DEFAULT = 0.002

T_CLK_DEFAULT = 10e-9

#: measured switching time constant at two carrier frequencies, (Hz, s) pairs
TAU_TABLE = ((4e9, 0.6e-9), (6e9, 0.4e-9))


@dataclass(frozen=True)
class SwitchBranch:
    """On-resistance and off-capacitance of one switch transistor pair."""

    r_on: float = R_ON_DEFAULT
    c_off: float = C_OFF_DEFAULT

    def __post_init__(self) -> None:
        if not (self.r_on > 0.0) or not (self.c_off > 0.0):
            raise InputError("r_on and c_off must be positive")


@dataclass(frozen=True)
class MuxConfig:
    n_ports: int = 4
    branch: SwitchBranch = SwitchBranch()
    l_match: float = L_MATCH_DEFAULT
    v_dd_nominal: float = V_DD_NOMINAL
    v_th: float = V_TH_CRYO
    subthreshold_slope: float = SUBTHRESHOLD_SLOPE_DEFAULT
    parasitic_loss_db: float = PARASITIC_LOSS_DB_DEFAULT

    def __post_init__(self) -> None:
        if self.n_ports < 2:
            raise InputError("n_ports must be at least 2")
        if not (self.v_th < self.v_dd_nominal):
            raise InputError("v_th must be below v_dd_nominal")
        for name in ("l_match", "v_dd_nominal", "v_th", "subthreshold_slope"):
            if not (getattr(self, name) > 0.0):
                raise InputError(f"{name} must be positive")
        if not (0.0 <= self.parasitic_loss_db < math.inf):
            raise InputError("parasitic_loss_db must be finite and non-negative")


@dataclass(frozen=True)
class LineLevels:
    """Logic levels of the six control lines."""

    d0: int = 0
    d1: int = 0
    le: int = 0
    clk: int = 0
    si: int = 0
    ps: int = 0


def _check_bit(value: int, name: str) -> int:
    if value not in (0, 1):
        raise InputError(f"{name} must be 0 or 1")
    return int(value)


@dataclass(frozen=True)
class ControlState:
    """Immutable control-interface state; every transition returns a new one.

    ``pending_register`` holds the serial shift flops, ``shift_register`` the
    latched gate drive: one-hot (that port selected) or all zero (none). The
    first bit shifted in lands on port 0 after a full n_ports-long program.
    """

    mode: str = "parallel"
    shift_register: tuple[int, ...] = (0, 0, 0, 0)
    pending_register: tuple[int, ...] = (0, 0, 0, 0)
    line_levels: LineLevels = LineLevels()

    def __post_init__(self) -> None:
        if self.mode not in ("parallel", "serial"):
            raise InputError(f"unknown mode {self.mode!r}")
        if len(self.pending_register) != self.n_ports:
            raise InputError("pending_register length must equal shift_register length")
        if not set(self.shift_register) <= {0, 1} or sum(self.shift_register) > 1:
            raise SelectionError(
                f"shift register {self.shift_register} is not one-hot or all zero"
            )

    @property
    def n_ports(self) -> int:
        return len(self.shift_register)

    @property
    def latched_selection(self) -> int | None:
        """The selected port, or None with every branch deselected."""
        return self.shift_register.index(1) if 1 in self.shift_register else None

    @classmethod
    def initial(cls, n_ports: int = 4, mode: str = "parallel") -> "ControlState":
        zeros = (0,) * n_ports
        lines = LineLevels(ps=1 if mode == "serial" else 0)
        return cls(mode=mode, shift_register=zeros, pending_register=zeros, line_levels=lines)


def set_lines(state: ControlState, **levels: int) -> ControlState:
    """Drive control lines to new logic levels without clocking or latching."""
    fields = {"d0", "d1", "le", "clk", "si", "ps"}
    unknown = set(levels) - fields
    if unknown:
        raise InputError(f"unknown control lines: {sorted(unknown)}")
    checked = {k: _check_bit(v, k) for k, v in levels.items()}
    return replace(state, line_levels=replace(state.line_levels, **checked))


def _mode_after_latch(lines: LineLevels) -> str:
    # PS is sampled on the LE rising edge: high selects the serial interface
    return "serial" if lines.ps else "parallel"


def parallel_write(state: ControlState, d0: int, d1: int, le_pulse: bool) -> ControlState:
    """Drive D0/D1 and optionally pulse LE to latch the decoded port."""
    if state.mode != "parallel":
        raise InputError("parallel_write requires parallel mode")
    d0 = _check_bit(d0, "d0")
    d1 = _check_bit(d1, "d1")
    lines = replace(state.line_levels, d0=d0, d1=d1, le=0)
    if not le_pulse:
        return replace(state, line_levels=lines)
    index = (d1 << 1) | d0
    if index >= state.n_ports:
        raise SelectionError(
            f"decoded port {index} out of range for {state.n_ports} ports"
        )
    one_hot = tuple(1 if i == index else 0 for i in range(state.n_ports))
    return replace(state, mode=_mode_after_latch(lines), shift_register=one_hot, line_levels=lines)


def serial_clock(state: ControlState, si: int) -> ControlState:
    """One rising clock edge: shift the pending register and admit SI."""
    if state.mode != "serial":
        raise InputError("serial_clock requires serial mode")
    si = _check_bit(si, "si")
    pending = state.pending_register[1:] + (si,)
    lines = replace(state.line_levels, clk=0, si=si)
    return replace(state, pending_register=pending, line_levels=lines)


def latch(state: ControlState) -> ControlState:
    """LE rising edge: commit the pending register to the gate drive.

    The pending register must be one-hot (select that port) or all zero
    (deselect every branch); ControlState rejects anything else.
    """
    lines = replace(state.line_levels, le=0)
    return replace(
        state,
        mode=_mode_after_latch(state.line_levels),
        shift_register=state.pending_register,
        line_levels=lines,
    )


def branch_conductance(cfg: MuxConfig, v_dd: float) -> float:
    """Channel conductance of a switched-on transistor at supply v_dd.

    Linear overdrive above threshold, capped at 1/r_on at nominal supply.
    Below the tangent point v_th + slope/ln(10) the conductance decays
    exponentially with the configured subthreshold slope; the two branches
    meet with matching value and derivative, so G is continuous and
    monotone nondecreasing.
    """
    if not np.isfinite(v_dd) or v_dd < 0.0:
        raise InputError("v_dd must be finite and non-negative")
    g_max = 1.0 / cfg.branch.r_on
    a = g_max / (cfg.v_dd_nominal - cfg.v_th)  # overdrive slope, S/V
    ln10 = math.log(10.0)
    v_x = cfg.v_th + cfg.subthreshold_slope / ln10
    if v_dd >= v_x:
        return min(g_max, a * (v_dd - cfg.v_th))
    g_x = a * cfg.subthreshold_slope / ln10
    # exponent is very negative well below threshold; underflow to 0 is fine
    return g_x * 10.0 ** ((v_dd - v_x) / cfg.subthreshold_slope)


def _branch_two_port(
    cfg: MuxConfig, grid: FrequencyGrid, selected: bool, v_dd: float
) -> SMatrix:
    """S-parameters of one branch, shunt Y then series Z then the pad.

    With den = 2 + Z/z0 + Y*z0 + YZ the bare branch has
    S11 = (Z/z0 - Y*z0 - YZ)/den, S21 = S12 = 2/den and
    S22 = (Z/z0 - Y*z0 + YZ)/den; the matched pad of transmission t scales
    S21 and S12 by t and S22 by t**2. Each element is clamped at
    DEGENERATE_LIMIT as ``rfnet`` clamps it; an element that overflows
    before the clamp (c_off, l_match or the grid too large, a series
    admittance that underflows to 0) is an InputError.
    """
    g_on = branch_conductance(cfg, v_dd)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        omega = grid.omega
        jwc = 1j * omega * cfg.branch.c_off
        if selected:
            y_series = g_on + jwc
            y_shunt = jwc  # shunt transistor held off, its capacitance remains
        else:
            g_gate_low = branch_conductance(cfg, 0.0)  # off transistor, gate held low
            y_series = g_gate_low + jwc
            y_shunt = g_on + jwc
        z_switch = 1.0 / y_series
        z_match = 1j * omega * cfg.l_match
    if not all(np.isfinite(v).all() for v in (y_shunt, z_switch, z_match)):
        raise InputError(
            f"switch branch elements overflow on a grid up to {float(grid.points[-1])!r} Hz "
            f"with c_off {cfg.branch.c_off!r} F and l_match {cfg.l_match!r} H"
        )
    y = rfnet.clamp_degenerate(y_shunt, "shunt admittance")
    z_switch = rfnet.clamp_degenerate(z_switch, "series impedance")
    z_match = rfnet.clamp_degenerate(z_match, "series impedance")
    z = z_switch + z_match
    z0 = rfnet.Z0_DEFAULT
    zn = z / z0
    yn = y * z0
    yz = y * z
    den = 2.0 + zn + yn + yz
    if np.any(den == 0.0):
        raise SingularNetworkError("switch branch hit a singular denominator")
    t = 10.0 ** (-cfg.parasitic_loss_db / 20.0)
    s = np.empty((len(grid), 2, 2), dtype=complex)
    s[:, 0, 0] = (zn - yn - yz) / den
    s[:, 1, 0] = 2.0 * t / den
    s[:, 0, 1] = s[:, 1, 0]
    s[:, 1, 1] = t * t * (zn - yn + yz) / den
    return SMatrix(grid, s, z0)


def mux_s_params(
    cfg: MuxConfig, state: ControlState, v_dd: float, grid: FrequencyGrid
) -> tuple[SMatrix, ...]:
    """Two-port S-parameters from each input port to the common RF port.

    Returns one SMatrix per input port, in port order, for the latched
    selection carried by ``state``. The selected branch passes through its
    series transistor; deselected branches are reflective (series off, shunt
    on). With the supply removed every transistor is off and all ports look
    identical, capacitive in both directions. Every deselected port is the
    same network, so its entries share one SMatrix.
    """
    if state.n_ports != cfg.n_ports:
        raise InputError("state and config disagree on n_ports")
    deselected = _branch_two_port(cfg, grid, selected=False, v_dd=v_dd)
    if state.latched_selection is None:
        return (deselected,) * cfg.n_ports
    selected = _branch_two_port(cfg, grid, selected=True, v_dd=v_dd)
    return tuple(
        selected if port == state.latched_selection else deselected
        for port in range(cfg.n_ports)
    )


def switching_envelope(tau: float, t) -> np.ndarray | float:
    """Normalized switching transient 1 - exp(-t/tau); t95 = tau*ln(20)."""
    if not (tau > 0.0):
        raise InputError("tau must be positive")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise InputError("t must be non-negative")
    out = 1.0 - np.exp(-t_arr / tau)
    return float(out) if np.ndim(t) == 0 else out


def rise_time(tau: float) -> float:
    """Time to reach 95% of the final value, tau*ln(20)."""
    if not (tau > 0.0):
        raise InputError("tau must be positive")
    return tau * math.log(20.0)


def switching_tau(carrier_freq_hz: float) -> float:
    """Transient time constant at a carrier frequency, on the line through
    TAU_TABLE's two points (extrapolated outside them)."""
    if not (carrier_freq_hz > 0.0):
        raise InputError("carrier frequency must be positive")
    (f0, tau0), (f1, tau1) = TAU_TABLE
    tau = tau0 + (tau1 - tau0) / (f1 - f0) * (carrier_freq_hz - f0)
    if tau <= 0.0:
        raise OutOfRangeError(
            f"tau table extrapolates to a non-positive value at {carrier_freq_hz} Hz"
        )
    return tau


@dataclass(frozen=True)
class PowerTable:
    """Supply current versus supply voltage, (V, A) pairs."""

    samples: tuple[tuple[float, float], ...] = ((0.0, 0.0), (0.9, 36.2e-6 / 0.9))

    def __post_init__(self) -> None:
        if len(self.samples) < 2:
            raise InputError("power table needs at least two samples")
        v = np.array([p[0] for p in self.samples])
        i = np.array([p[1] for p in self.samples])
        if np.any(np.diff(v) <= 0.0):
            raise InputError("power table v_dd values must be strictly increasing")
        if np.any(i < 0.0):
            raise InputError("power table currents must be non-negative")


def dissipated_power(table: PowerTable, v_dd: float) -> float:
    """Static dissipation v_dd * i_dd(v_dd), interpolating the table."""
    v = np.array([p[0] for p in table.samples])
    i = np.array([p[1] for p in table.samples])
    if not (v[0] <= v_dd <= v[-1]):  # also rejects NaN
        raise OutOfRangeError(
            f"v_dd = {v_dd} V outside table range [{v[0]}, {v[-1]}] V"
        )
    return float(v_dd * np.interp(v_dd, v, i))


def programming_time(n_ports: int, t_clk: float, mode: str) -> float:
    """Serial programming takes one clock per port; parallel takes one latch."""
    if n_ports < 2:
        raise InputError("n_ports must be at least 2")
    if not (t_clk > 0.0):
        raise InputError("t_clk must be positive")
    if mode == "serial":
        if not n_ports * t_clk < math.inf:
            raise InputError(f"t_clk {t_clk!r} s times {n_ports} ports is beyond double range")
        return n_ports * t_clk
    if mode == "parallel":
        return t_clk
    raise InputError(f"unknown mode {mode!r}")
