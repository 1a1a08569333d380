"""Measurement-chain composition and sweep synthesis.

A chain is an ordered stack of stages between the instrument and the
digitizer: attenuators, a switch multiplexer, the device under test, a
bandpass filter and amplifiers. The forward model multiplies per-frequency
complex responses, refers amplifier noise to the first amplifier input
through the Friis rule, and draws seeded Gaussian noise so that repeated
runs are reproducible bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace
from importlib import resources
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .constants import BOLTZMANN
from .csvfile import read_trace, write_power_points, write_trace  # the benchmark binds these here
from .errors import BandEdgeWarning, InputError, SingularFitError, WindowError
from .fitkit import SPECTRUM_PARAM_NAMES, ComplexTrace, FitResult, PowerSweepPoint
from .fitkit import fit_spectrum, photon_axis
from .jsonfile import check_keys, json_float, json_int, read_versioned
from .lossbudget import TlsModel, loss_components, qi_inverse, qi_inverse_with_slope
from .muxsim import V_DD_NOMINAL, ControlState, MuxConfig, SwitchBranch, mux_s_params
from .resonator import TWO_PI, CavityLerSystem, dbm_from_watts, mean_photons_from_rates, purcell
from .resonator import s21_physics, watts_from_dbm
from .rfnet import FrequencyGrid

RBW_DEFAULT_HZ = 1e3
AMP_NOISE_TEMP_DEFAULT_K = 4.0

EXAMPLE_CHAIN_RESOURCE = "data/example_chain.json"
EXAMPLE_SWEEP_RESOURCE = "data/example_sweep.json"

#: the keys each stage type reads, besides "type" and "description"
_STAGE_KEYS = {
    "attenuator": ("loss_db",),
    "mux": ("config", "selected_port", "input_port", "v_dd"),
    "sample": ("f_cavity_hz", "f_resonator_hz", "g_hz", "kappa_i_hz", "kappa_o_hz")
    + ("gamma_c_hz", "gamma_r_hz", "tls"),
    "bandpass": ("f_low_hz", "f_high_hz", "rejection_db"),
    "amplifier": ("gain_db", "noise_temperature_k"),
}


# ---------------------------------------------------------------------------
# stages


def _check_amplitude_factor(db: float, field: str) -> None:
    """Reject a dB value whose amplitude factor 10**(db/20) is 0 or inf in doubles."""
    try:
        factor = 10.0 ** (db / 20.0)
    except OverflowError:
        factor = math.inf
    if not 0.0 < factor < math.inf:
        raise InputError(
            f"{field} {db!r} dB has no finite, non-zero linear factor"
        )


@dataclass(frozen=True)
class AttenuatorStage:
    """Frequency-flat matched pad on the input line."""

    loss_db: float

    def __post_init__(self) -> None:
        if not (self.loss_db >= 0.0) or not math.isfinite(self.loss_db):
            raise InputError("attenuator loss_db must be finite and non-negative")
        _check_amplitude_factor(-self.loss_db, "attenuator loss_db")


@dataclass(frozen=True)
class MuxStage:
    """One pass through the switch multiplexer.

    The signal enters at ``input_port`` and leaves at the common port.
    ``selected_port`` names the latched branch (None leaves nothing
    latched, every branch isolating); ``v_dd`` is the supply at the chip.
    """

    selected_port: int | None = 0
    input_port: int = 0
    v_dd: float = V_DD_NOMINAL
    config: MuxConfig = MuxConfig()

    def __post_init__(self) -> None:
        if not (0 <= self.input_port < self.config.n_ports):
            raise InputError(
                f"input_port {self.input_port} out of range for "
                f"{self.config.n_ports} ports"
            )
        if self.selected_port is not None and not (
            0 <= self.selected_port < self.config.n_ports
        ):
            raise InputError(
                f"selected_port {self.selected_port} out of range for "
                f"{self.config.n_ports} ports"
            )
        if not (self.v_dd >= 0.0):
            raise InputError("v_dd must be non-negative")

    def control_state(self) -> ControlState:
        one_hot = tuple(int(i == self.selected_port) for i in range(self.config.n_ports))
        return replace(ControlState.initial(self.config.n_ports), shift_register=one_hot)


@dataclass(frozen=True)
class SampleStage:
    """Device under test. With a TLS model the internal loss follows drive power."""

    system: CavityLerSystem
    tls: TlsModel | None = None


@dataclass(frozen=True)
class BandpassStage:
    """Ideal flat passband with finite out-of-band rejection."""

    f_low_hz: float
    f_high_hz: float
    rejection_db: float

    def __post_init__(self) -> None:
        if not (0.0 < self.f_low_hz < self.f_high_hz):
            raise InputError("bandpass needs 0 < f_low_hz < f_high_hz")
        if not (self.rejection_db >= 0.0):
            raise InputError("rejection_db must be non-negative")


@dataclass(frozen=True)
class AmplifierStage:
    """Flat gain block with an equivalent input noise temperature."""

    gain_db: float
    noise_temperature_k: float = AMP_NOISE_TEMP_DEFAULT_K

    def __post_init__(self) -> None:
        if not math.isfinite(self.gain_db):
            raise InputError("gain_db must be finite")
        _check_amplitude_factor(self.gain_db, "amplifier gain_db")
        if not (self.noise_temperature_k >= 0.0):
            raise InputError("noise_temperature_k must be non-negative")


Stage = AttenuatorStage | MuxStage | SampleStage | BandpassStage | AmplifierStage


@dataclass(frozen=True)
class ChainSpec:
    """Ordered measurement chain plus the seed for synthetic noise."""

    stages: tuple[Stage, ...]
    rng_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))
        at = [i for i, s in enumerate(self.stages) if isinstance(s, SampleStage)]
        if len(at) != 1:
            raise InputError(
                f"chain needs exactly one sample stage, got {len(at)} at stages {at}"
            )
        seed = self.rng_seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise InputError(
                f"rng_seed must be a non-negative integer, got {seed!r}"
            )

    @property
    def sample_index(self) -> int:
        # __post_init__ guarantees exactly one sample stage
        return next(i for i, s in enumerate(self.stages) if isinstance(s, SampleStage))

    @property
    def sample(self) -> SampleStage:
        return self.stages[self.sample_index]


@dataclass(frozen=True)
class SweepSpec:
    """Frequency grid and receiver settings for one synthetic sweep."""

    grid: FrequencyGrid
    instrument_power_dbm: float
    averages: int = 1
    rbw_hz: float = RBW_DEFAULT_HZ

    def __post_init__(self) -> None:
        if not math.isfinite(self.instrument_power_dbm):
            raise InputError("instrument_power_dbm must be finite")
        if int(self.averages) != self.averages or self.averages < 1:
            raise InputError("averages must be an integer >= 1")
        if not (self.rbw_hz > 0.0):
            raise InputError("rbw_hz must be positive")


# ---------------------------------------------------------------------------
# stage responses and drive power


def _stage_response(stage: Stage, grid: FrequencyGrid) -> np.ndarray:
    """Complex transmission of one stage on the grid."""
    n = len(grid)
    if isinstance(stage, AttenuatorStage):
        return np.full(n, 10.0 ** (-stage.loss_db / 20.0), dtype=complex)
    if isinstance(stage, AmplifierStage):
        return np.full(n, 10.0 ** (stage.gain_db / 20.0), dtype=complex)
    if isinstance(stage, BandpassStage):
        in_band = (grid.points >= stage.f_low_hz) & (grid.points <= stage.f_high_hz)
        if not np.all(in_band):
            warnings.warn(
                "sweep extends outside the passband "
                f"[{stage.f_low_hz:g}, {stage.f_high_hz:g}] Hz; "
                "out-of-band points carry the stopband rejection",
                BandEdgeWarning,
                stacklevel=3,
            )
        floor = 10.0 ** (-stage.rejection_db / 20.0)
        return np.where(in_band, 1.0 + 0.0j, floor + 0.0j)
    if isinstance(stage, MuxStage):
        branches = mux_s_params(stage.config, stage.control_state(), stage.v_dd, grid)
        return np.asarray(branches[stage.input_port].s21, dtype=complex)
    if isinstance(stage, SampleStage):
        return np.asarray(s21_physics(stage.system, grid.omega), dtype=complex)
    raise InputError(f"unknown stage type {type(stage).__name__}")


def power_at_sample(
    chain: ChainSpec, instrument_power_dbm: float, frequency_hz: float | None = None
) -> float:
    """Drive power reaching the sample, in watts.

    Sums the dB contributions of every stage ahead of the sample. A
    frequency is required as soon as the input path contains a
    frequency-dependent stage (mux or filter).
    """
    return watts_from_dbm(instrument_power_dbm + _input_path_db(chain, frequency_hz))


def _input_path_db(
    chain: ChainSpec, frequency_hz: float | Sequence[float] | np.ndarray | None
) -> float | np.ndarray:
    """Summed dB gain of the stages ahead of the sample.

    frequency_hz is None (only for a frequency-independent input path), a
    scalar, or an array; the result is a float for a scalar or None, and
    an array of frequency_hz's shape otherwise. Frequency-dependent stages
    are evaluated once, on one grid of the distinct frequencies.
    """
    freqs = None if frequency_hz is None else np.asarray(frequency_hz, dtype=float)
    total_db = 0.0 if freqs is None else np.zeros(freqs.shape)
    grid = None
    for stage in chain.stages[: chain.sample_index]:
        if isinstance(stage, AttenuatorStage):
            total_db -= stage.loss_db
        elif isinstance(stage, AmplifierStage):
            total_db += stage.gain_db
        else:
            if freqs is None:
                raise InputError(
                    "the input path is frequency dependent; pass frequency_hz"
                )
            if grid is None:
                distinct, where = np.unique(freqs.reshape(-1), return_inverse=True)
                grid = FrequencyGrid(distinct)
            # scalar abs and log10 per point, so that a frequency gets the
            # same bits alone as within an array (numpy's vector loops can
            # round differently)
            db = [20.0 * math.log10(abs(r)) for r in _stage_response(stage, grid)]
            total_db += np.array(db)[where].reshape(freqs.shape)
    if freqs is None or freqs.ndim == 0:
        return float(total_db)
    return total_db


# ---------------------------------------------------------------------------
# self-consistent photon number


def solve_photon_number(stage: SampleStage, p_in_w: float | np.ndarray):
    """Mean photon number and internal loss rate at the dressed resonance.

    p_in_w, the drive power at the sample in watts, is a scalar or an array;
    both results take its shape. With a TLS model n solves
    n*(kappa_pur + gamma(n))**2 = 4*kappa_pur_i*p/(hbar*omega), where
    gamma(n) = omega*qi_inverse(n), in ln n inside the closed-form bracket
    from n at gamma(0) to n at gamma(inf) = omega/q0. The root is unique
    when every component has beta <= 1/2, as the left side then rises with
    n; with a larger beta a power with more than one root (TLS bistability)
    is an InputError naming it.
    """
    p = np.asarray(p_in_w, dtype=float)
    if not np.all(p >= 0.0):
        raise InputError("drive power must be non-negative")
    rates = purcell(stage.system)
    omega = rates.omega_r_dressed
    tls, flat = stage.tls, p.reshape(-1)
    if tls is None:
        gamma = np.full(flat.shape, stage.system.gamma_r)
        n = mean_photons_from_rates(rates, gamma, flat, omega)
    else:
        def log_power(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # ln of the drive power (W) whose photon number is e**x, and its slope
            loss, slope = qi_inverse_with_slope(tls, np.exp(x))
            per_watt = mean_photons_from_rates(rates, omega * loss, 1.0, omega)
            return x - np.log(per_watt), 1.0 + 2.0 * slope / (rates.kappa_pur / omega + loss)

        n = mean_photons_from_rates(rates, omega * qi_inverse(tls, 0.0), flat, omega)
        n_high = mean_photons_from_rates(rates, omega / tls.q0, flat, omega)
        live = (n > 0.0) & (n < n_high)  # elsewhere the bracket is one point
        if live.any():
            target, low, high = np.log(flat[live]), np.log(n[live]), np.log(n_high[live])
            if any(comp.beta > 0.5 for comp in tls.components):
                _reject_folds(log_power, target, low.min(), high.max())
            n[live] = np.exp(_newton_in_bracket(log_power, target, low, high))
        gamma = omega * qi_inverse(tls, n)
    n, gamma = n.reshape(p.shape), gamma.reshape(p.shape)
    return (float(n), float(gamma)) if p.ndim == 0 else (n, gamma)


def _newton_in_bracket(f, target: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x in [a, b] with f(x) = target, elementwise, given f(a) <= target <= f(b).

    f returns value and slope. Newton starts from a, each evaluated point
    narrows the bracket and a step that leaves it becomes the midpoint. An
    element stops when its step no longer moves it (no tolerance, no cap);
    its bits do not depend on the other elements.
    """
    x = a
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero slope leaves the bracket
        while True:
            value, slope = f(x)
            a, b = np.where(value <= target, x, a), np.where(value >= target, x, b)
            step = x - (value - target) / slope
            step = np.where((a < step) & (step < b) | (step == x), step, a + 0.5 * (b - a))
            if (step == x).all():
                return x
            x = step


def _reject_folds(f, target: np.ndarray, low: float, high: float) -> None:
    """InputError for a target inside a fold of f (value and slope) on [low, high].

    The slope's sign is scanned at 32 points per unit of x and each change
    bisected to the last float (closer turns are not resolved). A target
    strictly between the top and the bottom of a fall has three roots.
    """
    x = np.linspace(low, high, 2 + int(32 * (high - low)))
    falling = f(x)[1] < 0.0
    turn = np.flatnonzero(falling[1:] != falling[:-1])
    a, b = x[turn], x[turn + 1]
    while np.any((a < (mid := a + 0.5 * (b - a))) & (mid < b)):
        a_side = (f(mid)[1] < 0.0) == falling[turn]
        a, b = np.where(a_side, mid, a), np.where(a_side, b, mid)
    # tops and bottoms alternate; a fall cut by an end of the scan has its
    # other turn outside every bracket, so no target is in it: drop that turn
    ends = f(a[int(falling[0]) : a.size - int(falling[-1])])[0].reshape(-1, 2)
    inside = ((ends[:, 1:] < target) & (target < ends[:, :1])).any(axis=0)
    if inside.any():
        raise InputError(
            f"drive power {dbm_from_watts(math.exp(target[np.argmax(inside)])):.6g} dBm at "
            "the sample has more than one self-consistent photon number (TLS bistability)"
        )


# ---------------------------------------------------------------------------
# sweep synthesis


def synthesize_sweep(
    chain: ChainSpec,
    sweep: SweepSpec,
    rng: np.random.Generator | None = None,
    plane: str = "raw",
) -> ComplexTrace:
    """Forward-model one sweep through the chain.

    ``plane`` selects the reference: "raw" returns the full-chain response
    as the receiver sees it, "calibrated" divides out a through trace
    (same chain with the sample removed), which leaves the sample response
    plus referred noise. Noise is complex white Gaussian injected at the
    first amplifier input with the Friis-combined noise temperature, scaled
    by resolution bandwidth and trace averaging. Without an amplifier the
    trace is noiseless. A chain whose response overflows or underflows
    double precision on the grid is an InputError (from ComplexTrace).
    """
    if plane not in ("raw", "calibrated"):
        raise InputError(f"unknown reference plane {plane!r}")
    if rng is None:
        rng = np.random.default_rng(chain.rng_seed)
    (trace,) = _traces(chain, sweep, [sweep.instrument_power_dbm], [rng], plane)
    return trace


def _traces(
    chain: ChainSpec,
    sweep: SweepSpec,
    powers_dbm: Sequence[float],
    rngs: Iterable[np.random.Generator],
    plane: str,
) -> Iterator[ComplexTrace]:
    """synthesize_sweep's trace at each instrument power, drawing power k's noise from rngs[k].

    Every stage response but a TLS sample's is computed once, and so are
    the through product, which holds no sample, and the product of the
    stages ahead of the sample. A TLS sample's gamma_r is solved for every
    power in one call, its drive being the input path's gain at its
    dressed resonance. Per power only that sample's response and the
    product from it on are rebuilt, in the same order as a single sweep's;
    the noise chain too, but only when a TLS sample follows the first
    amplifier, as it is otherwise the same at every power.
    """
    grid, n = sweep.grid, len(sweep.grid)
    index = chain.sample_index
    sample = chain.stages[index]
    responses: list[np.ndarray | None] = []
    gamma = None
    h_thru = np.ones(n, dtype=complex)
    for stage in chain.stages:
        if stage is sample and sample.tls is not None:
            db = _input_path_db(chain, purcell(sample.system).omega_r_dressed / TWO_PI)
            p_w = np.array([watts_from_dbm(p_dbm + db) for p_dbm in powers_dbm])
            gamma = solve_photon_number(sample, p_w)[1]
            responses.append(None)
        else:
            responses.append(_stage_response(stage, grid))
            if stage is not sample:
                h_thru = h_thru * responses[-1]
    h_ahead = np.ones(n, dtype=complex)
    for resp in responses[:index]:
        h_ahead = h_ahead * resp
    amp_index = next(
        (i for i, s in enumerate(chain.stages) if isinstance(s, AmplifierStage)),
        None,
    )
    refer_per_power = gamma is not None and amp_index is not None and amp_index < index

    for k, (p_dbm, rng) in enumerate(zip(powers_dbm, rngs)):
        p_instr_w = watts_from_dbm(p_dbm)
        if gamma is not None:
            system = replace(sample.system, gamma_r=float(gamma[k]))
            responses[index] = _stage_response(SampleStage(system=system), grid)
        h_raw = h_ahead
        for resp in responses[index:]:
            h_raw = h_raw * resp

        noise = np.zeros(n, dtype=complex)
        sigma_trace = None
        if amp_index is not None:
            if k == 0 or refer_per_power:
                gain_power = np.ones(n)
                t_eff = np.zeros(n)
                h_noise = np.ones(n, dtype=complex)
                for i in range(amp_index, len(responses)):
                    stage, resp = chain.stages[i], responses[i]
                    if isinstance(stage, AmplifierStage):
                        if not np.all(gain_power > 0.0):
                            raise InputError(
                                f"stage {i}: the power gain ahead of this amplifier is 0 or "
                                "NaN in double precision, so its noise cannot be referred"
                            )
                        t_eff = t_eff + stage.noise_temperature_k / gain_power
                    # a gain past double range is inf, and T / inf = 0 is the Friis limit;
                    # inf times an underflowed 0 is NaN, rejected at the next amplifier
                    with np.errstate(over="ignore", invalid="ignore"):
                        gain_power = gain_power * np.abs(resp) ** 2
                    h_noise = h_noise * resp
                sigma_w = np.sqrt(BOLTZMANN * t_eff * sweep.rbw_hz / sweep.averages)
            scale = h_noise / math.sqrt(p_instr_w)
            if plane == "calibrated":
                scale = scale / h_thru
            if np.any(sigma_w > 0.0):
                draw = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)
                noise = sigma_w * draw * scale
                sigma_trace = sigma_w * np.abs(scale)

        signal = h_raw if plane == "raw" else h_raw / h_thru
        yield ComplexTrace(grid, signal + noise, sigma=sigma_trace)


def run_power_series(
    chain: ChainSpec, sweep: SweepSpec, power_list_dbm: Sequence[float]
) -> list[tuple[float, FitResult]]:
    """Synthesize and fit one sweep per drive power.

    Returns (photon number, fit) pairs in input order. Powers whose fit
    does not converge are kept with the failure flagged on the result and
    a NaN photon number; the series continues past them. Each power draws
    noise from its own child seed, so inserting or removing powers does
    not perturb the others. Each trace is synthesize_sweep's calibrated
    trace at that power and seed, from the one trace loop (_traces).
    """
    powers = [float(p_dbm) for p_dbm in power_list_dbm]
    seeds = np.random.SeedSequence(chain.rng_seed).spawn(len(powers))
    rngs = (np.random.default_rng(seed) for seed in seeds)
    fits: list[FitResult] = []
    for trace in _traces(chain, sweep, powers, rngs, "calibrated"):
        try:
            fits.append(fit_spectrum(trace))
        except (WindowError, SingularFitError) as exc:
            fits.append(FitResult({}, None, float("nan"), False, 0, message=str(exc)))
    # photon axis: the input path at every fitted f_r, evaluated on one grid
    photons = [float("nan")] * len(fits)
    done = [k for k, fit in enumerate(fits) if fit.converged]
    if done:
        f_fits = [fits[k].params["f_r"] for k in done]
        for k, f_fit, db in zip(done, f_fits, _input_path_db(chain, f_fits).tolist()):
            photons[k] = photon_axis(watts_from_dbm(powers[k] + db), fits[k], f_fit)
    return list(zip(photons, fits))


def power_points_from_series(
    series: Sequence[tuple[float, FitResult]]
) -> tuple[PowerSweepPoint, ...]:
    """Convert converged series entries into power-sweep fit inputs."""
    iq = SPECTRUM_PARAM_NAMES.index("q_loaded")
    points = []
    for n_photons, fit in series:
        if not fit.converged or not math.isfinite(n_photons):
            continue
        q = float(fit.params["q_loaded"])
        variance = 0.0 if fit.covariance is None else float(fit.covariance[iq, iq])
        sigma = math.sqrt(max(variance, (1e-6 * q) ** 2))
        points.append(PowerSweepPoint(n_photons, q, sigma))
    return tuple(points)


# ---------------------------------------------------------------------------
# JSON configuration files


def _require(mapping: Mapping[str, Any], key: str) -> Any:
    if key not in mapping:
        raise InputError(f"missing field {key!r}")
    return mapping[key]


def _float(mapping: Mapping[str, Any], key: str, default: float | None = None) -> float:
    """mapping[key] by json_float's rule; absent, it is default, or without one an InputError."""
    value = _require(mapping, key) if default is None else mapping.get(key, default)
    return json_float(value, key)


def _build_tls(raw: Any) -> TlsModel | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise InputError("tls must be an object or null")
    check_keys(raw, ("components", "q0"), "unknown tls keys")
    components = loss_components(raw.get("components", []), "tls")
    q0 = raw.get("q0")
    try:
        return TlsModel(components, q0=math.inf if q0 is None else json_float(q0, "q0"))
    except (TypeError, ValueError) as exc:
        raise InputError(f"tls: {exc}") from exc


def _build_mux_config(overrides: Any) -> MuxConfig:
    """MuxConfig from a flat override object.

    Keys are MuxConfig's scalar fields plus SwitchBranch's fields; n_ports
    takes json_int's integer rule, every other value json_float's, and absent
    keys keep the default. An unknown key is rejected rather than silently
    ignored.
    """
    if not isinstance(overrides, dict):
        raise InputError("config must be an object")
    known = {f.name: f for f in fields(SwitchBranch)}
    known.update({f.name: f for f in fields(MuxConfig) if f.name != "branch"})
    check_keys(overrides, known, "unknown mux config keys")
    values = {
        name: json_int(value, f"config {name}")
        if isinstance(known[name].default, int)
        else json_float(value, f"config {name}")
        for name, value in overrides.items()
    }
    branch = SwitchBranch(
        **{f.name: values.pop(f.name) for f in fields(SwitchBranch) if f.name in values}
    )
    return MuxConfig(branch=branch, **values)


def _build_stage(raw: Any) -> Stage:
    """One stage from its JSON object; load_chain_spec names the file and stage in errors."""
    if not isinstance(raw, dict):
        raise InputError("expected an object")
    kind = raw.get("type")
    if not isinstance(kind, str) or kind not in _STAGE_KEYS:
        raise InputError(f"unknown stage type {kind!r}")
    check_keys(raw, _STAGE_KEYS[kind] + ("type", "description"), f"unknown {kind} stage keys")
    if kind == "attenuator":
        return AttenuatorStage(loss_db=_float(raw, "loss_db"))
    if kind == "mux":
        selected = raw.get("selected_port")
        return MuxStage(
            config=_build_mux_config(raw.get("config", {})),
            selected_port=None if selected is None else json_int(selected, "selected_port"),
            input_port=json_int(raw.get("input_port", 0), "input_port"),
            v_dd=_float(raw, "v_dd", V_DD_NOMINAL),
        )
    if kind == "sample":
        system = CavityLerSystem(
            omega_c=TWO_PI * _float(raw, "f_cavity_hz"),
            omega_r=TWO_PI * _float(raw, "f_resonator_hz"),
            g=TWO_PI * _float(raw, "g_hz"),
            kappa_i=TWO_PI * _float(raw, "kappa_i_hz"),
            kappa_o=TWO_PI * _float(raw, "kappa_o_hz"),
            gamma_c=TWO_PI * _float(raw, "gamma_c_hz", 0.0),
            gamma_r=TWO_PI * _float(raw, "gamma_r_hz"),
        )
        return SampleStage(system=system, tls=_build_tls(raw.get("tls")))
    if kind == "bandpass":
        return BandpassStage(
            f_low_hz=_float(raw, "f_low_hz"),
            f_high_hz=_float(raw, "f_high_hz"),
            rejection_db=_float(raw, "rejection_db"),
        )
    return AmplifierStage(
        gain_db=_float(raw, "gain_db"),
        noise_temperature_k=_float(raw, "noise_temperature_k", AMP_NOISE_TEMP_DEFAULT_K),
    )


def load_chain_spec(path: str) -> ChainSpec:
    raw = read_versioned(path)
    known = ("format_version", "description", "rng_seed", "stages")
    check_keys(raw, known, f"{path}: unknown chain keys")
    stages_raw = raw.get("stages")
    if not isinstance(stages_raw, list) or not stages_raw:
        raise InputError(f"{path}: expected a non-empty 'stages' list")
    stages = []
    for i, entry in enumerate(stages_raw):
        try:
            stages.append(_build_stage(entry))
        except (TypeError, ValueError) as exc:  # an InputError is a ValueError
            raise InputError(f"{path}: stage {i}: {exc}") from exc
    try:
        return ChainSpec(stages=stages, rng_seed=json_int(raw.get("rng_seed", 0), "rng_seed"))
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_sweep_spec(path: str) -> SweepSpec:
    raw = read_versioned(path)
    known = ("format_version", "description", "f_start_hz", "f_stop_hz", "points_per_trace")
    known += ("instrument_power_dbm", "averages", "rbw_hz")
    check_keys(raw, known, f"{path}: unknown sweep keys")
    try:
        grid = FrequencyGrid.linspace(
            _float(raw, "f_start_hz"),
            _float(raw, "f_stop_hz"),
            json_int(_require(raw, "points_per_trace"), "points_per_trace"),
        )
        return SweepSpec(
            grid=grid,
            instrument_power_dbm=_float(raw, "instrument_power_dbm"),
            averages=json_int(raw.get("averages", 1), "averages"),
            rbw_hz=_float(raw, "rbw_hz", RBW_DEFAULT_HZ),
        )
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def example_chain_path() -> str:
    return str(resources.files("cryomux") / EXAMPLE_CHAIN_RESOURCE)


def example_sweep_path() -> str:
    return str(resources.files("cryomux") / EXAMPLE_SWEEP_RESOURCE)
