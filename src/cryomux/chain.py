"""Measurement-chain composition, sweep synthesis and trace persistence.

A chain is an ordered stack of stages between the instrument and the
digitizer: attenuators, a switch multiplexer, the device under test, a
bandpass filter and amplifiers. The forward model multiplies per-frequency
complex responses, refers amplifier noise to the first amplifier input
through the Friis rule, and draws seeded Gaussian noise so that repeated
runs are reproducible bit for bit.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, fields, replace
from importlib import resources
from typing import Any, Mapping, Sequence

import numpy as np

from .constants import BOLTZMANN
from .errors import BandEdgeWarning, InputError, SingularFitError, WindowError
from .fitkit import (
    SPECTRUM_PARAM_NAMES,
    ComplexTrace,
    FitResult,
    PowerSweepPoint,
    fit_spectrum,
    photon_axis,
)
from .jsonfile import read_versioned
from .lossbudget import LossComponent, TlsModel, qi_inverse
from .muxsim import V_DD_NOMINAL, ControlState, LineLevels, MuxConfig, SwitchBranch, mux_s_params
from .resonator import TWO_PI, CavityLerSystem, mean_photons_from_rates, purcell, s21_physics
from .rfnet import FrequencyGrid

RBW_DEFAULT_HZ = 1e3
AMP_NOISE_TEMP_DEFAULT_K = 4.0

TRACE_HEADER = "freq_hz,s21_re,s21_im"
POINTS_HEADER = "n_photons,q_loaded,q_uncertainty"
FLOAT_FORMAT = "%.16e"

CONFIG_DIR_ENV = "CRYOMUX_CONFIG_DIR"
EXAMPLE_CHAIN_RESOURCE = "data/example_chain.json"
EXAMPLE_SWEEP_RESOURCE = "data/example_sweep.json"

PHOTON_FIXED_POINT_MAX_ITER = 50
PHOTON_FIXED_POINT_RTOL = 1e-9


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
        n = self.config.n_ports
        if self.selected_port is None:
            return ControlState.initial(n_ports=n, mode="parallel")
        one_hot = tuple(1 if i == self.selected_port else 0 for i in range(n))
        return ControlState(
            n_ports=n,
            mode="parallel",
            latched_selection=self.selected_port,
            shift_register=one_hot,
            pending_register=(0,) * n,
            line_levels=LineLevels(),
        )


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
        if not any(isinstance(s, SampleStage) for s in self.stages):
            raise InputError("chain needs at least one sample stage")
        seed = self.rng_seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise InputError(
                f"rng_seed must be a non-negative integer, got {seed!r}"
            )

    @property
    def sample_index(self) -> int:
        for i, stage in enumerate(self.stages):
            if isinstance(stage, SampleStage):
                return i
        raise InputError("chain has no sample stage")

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
# dB and power helpers


def watts_from_dbm(p_dbm: float) -> float:
    try:
        return 1e-3 * 10.0 ** (p_dbm / 10.0)
    except OverflowError as exc:
        raise InputError(f"{p_dbm!r} dBm overflows a power in watts") from exc


def dbm_from_watts(p_w: float) -> float:
    if not (p_w > 0.0):
        raise InputError("power must be positive to express in dBm")
    return 10.0 * math.log10(p_w / 1e-3)


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
    """Drive power reaching the first sample, in watts.

    Sums the dB contributions of every stage ahead of the sample. A
    frequency is required as soon as the input path contains a
    frequency-dependent stage (mux or filter).
    """
    return watts_from_dbm(instrument_power_dbm + _input_path_db(chain, frequency_hz))


def _input_path_db(
    chain: ChainSpec, frequency_hz: float | Sequence[float] | np.ndarray | None
) -> float | np.ndarray:
    """Summed dB gain of the stages ahead of the first sample.

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


def solve_photon_number(stage: SampleStage, p_in_w: float) -> tuple[float, float]:
    """Mean photon number and internal loss rate at the dressed resonance.

    With a TLS model attached the internal rate depends on the photon
    number it produces, so the pair is found by fixed-point iteration;
    without one the occupation follows in a single evaluation.
    """
    if p_in_w < 0.0:
        raise InputError("drive power must be non-negative")
    rates = purcell(stage.system)
    omega = rates.omega_r_dressed
    if stage.tls is None:
        gamma = stage.system.gamma_r
        return mean_photons_from_rates(rates, gamma, p_in_w, omega), gamma
    n = 0.0
    gamma = omega * float(qi_inverse(stage.tls, n))
    for _ in range(PHOTON_FIXED_POINT_MAX_ITER):
        gamma = omega * float(qi_inverse(stage.tls, n))
        n_next = mean_photons_from_rates(rates, gamma, p_in_w, omega)
        if abs(n_next - n) <= PHOTON_FIXED_POINT_RTOL * max(abs(n_next), 1.0):
            n = n_next
            break
        n = n_next
    return n, gamma


def _effective_sample_system(
    stage: SampleStage, drive_power_w: float
) -> CavityLerSystem:
    if stage.tls is None:
        return stage.system
    _, gamma = solve_photon_number(stage, drive_power_w)
    return replace(stage.system, gamma_r=gamma)


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
    fixed, path_db = _fixed_responses(chain, sweep.grid)
    responses = _power_responses(
        chain, sweep.grid, fixed, path_db, sweep.instrument_power_dbm
    )
    return _combine_responses(chain, sweep, responses, rng, plane)


def _fixed_responses(
    chain: ChainSpec, grid: FrequencyGrid
) -> tuple[list[np.ndarray | None], dict[int, float]]:
    """Stage responses that do not depend on drive power.

    A sample with a TLS model depends on it: its slot is None, and the
    returned dict maps its index to the dB gain of the input path at its
    dressed resonance.
    """
    fixed: list[np.ndarray | None] = []
    path_db: dict[int, float] = {}
    for i, stage in enumerate(chain.stages):
        if isinstance(stage, SampleStage) and stage.tls is not None:
            nu = purcell(stage.system).omega_r_dressed / TWO_PI
            path_db[i] = _input_path_db(chain, nu)
            fixed.append(None)
        else:
            fixed.append(_stage_response(stage, grid))
    return fixed, path_db


def _power_responses(
    chain: ChainSpec,
    grid: FrequencyGrid,
    fixed: Sequence[np.ndarray | None],
    path_db: dict[int, float],
    p_dbm: float,
) -> list[np.ndarray]:
    """All stage responses at one instrument power: ``fixed`` with each TLS sample solved."""
    responses = list(fixed)
    for i, total_db in path_db.items():
        p_sample = watts_from_dbm(p_dbm + total_db)
        system = _effective_sample_system(chain.stages[i], p_sample)
        responses[i] = _stage_response(SampleStage(system=system), grid)
    return responses


def _combine_responses(
    chain: ChainSpec,
    sweep: SweepSpec,
    responses: Sequence[np.ndarray],
    rng: np.random.Generator,
    plane: str,
) -> ComplexTrace:
    """Trace from per-stage responses: the chain product plus referred noise."""
    n = len(sweep.grid)
    p_instr_w = watts_from_dbm(sweep.instrument_power_dbm)

    h_raw = np.ones(n, dtype=complex)
    h_thru = np.ones(n, dtype=complex)
    for stage, resp in zip(chain.stages, responses):
        h_raw = h_raw * resp
        if not isinstance(stage, SampleStage):
            h_thru = h_thru * resp

    amp_index = next(
        (i for i, s in enumerate(chain.stages) if isinstance(s, AmplifierStage)),
        None,
    )
    noise = np.zeros(n, dtype=complex)
    sigma_trace = None
    if amp_index is not None:
        gain_power = np.ones(n)
        t_eff = np.zeros(n)
        for stage, resp in zip(chain.stages[amp_index:], responses[amp_index:]):
            if isinstance(stage, AmplifierStage):
                t_eff = t_eff + stage.noise_temperature_k / gain_power
            gain_power = gain_power * np.abs(resp) ** 2
        h_noise = np.ones(n, dtype=complex)
        for resp in responses[amp_index:]:
            h_noise = h_noise * resp
        scale = h_noise / math.sqrt(p_instr_w)
        if plane == "calibrated":
            scale = scale / h_thru
        sigma_w = np.sqrt(BOLTZMANN * t_eff * sweep.rbw_hz / sweep.averages)
        if np.any(sigma_w > 0.0):
            draw = (
                rng.standard_normal(n) + 1j * rng.standard_normal(n)
            ) / math.sqrt(2.0)
            noise = sigma_w * draw * scale
            sigma_trace = sigma_w * np.abs(scale)
        else:
            sigma_trace = None

    signal = h_raw if plane == "raw" else h_raw / h_thru
    return ComplexTrace(sweep.grid, signal + noise, sigma=sigma_trace)


def run_power_series(
    chain: ChainSpec, sweep: SweepSpec, power_list_dbm: Sequence[float]
) -> list[tuple[float, FitResult]]:
    """Synthesize and fit one sweep per drive power.

    Returns (photon number, fit) pairs in input order. Powers whose fit
    does not converge are kept with the failure flagged on the result and
    a NaN photon number; the series continues past them. Each power draws
    noise from its own child seed, so inserting or removing powers does
    not perturb the others. Each trace equals synthesize_sweep's
    calibrated trace at that power and seed: every stage response except
    that of a sample with a TLS model is computed once for the series, and
    only such a sample is re-solved at each power.
    """
    fixed, path_db = _fixed_responses(chain, sweep.grid)
    powers = [float(p_dbm) for p_dbm in power_list_dbm]
    seeds = np.random.SeedSequence(chain.rng_seed).spawn(len(powers))
    fits: list[FitResult] = []
    for p_dbm, seed in zip(powers, seeds):
        responses = _power_responses(chain, sweep.grid, fixed, path_db, p_dbm)
        trace = _combine_responses(
            chain,
            replace(sweep, instrument_power_dbm=p_dbm),
            responses,
            np.random.default_rng(seed),
            "calibrated",
        )
        try:
            fits.append(fit_spectrum(trace))
        except (WindowError, SingularFitError) as exc:
            fits.append(
                FitResult(
                    params={},
                    covariance=None,
                    residual_norm=float("nan"),
                    converged=False,
                    iterations=0,
                    message=str(exc),
                )
            )
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
        variance = 0.0
        if fit.covariance is not None:
            variance = float(fit.covariance[iq, iq])
        sigma = math.sqrt(max(variance, (1e-6 * q) ** 2))
        points.append(PowerSweepPoint(n_photons, q, sigma))
    return tuple(points)


# ---------------------------------------------------------------------------
# JSON configuration files


def resolve_config_path(path: str) -> str:
    """Resolve a config file name against the config-directory env var."""
    if os.path.isabs(path) or os.path.exists(path):
        return path
    base = os.environ.get(CONFIG_DIR_ENV)
    if base:
        candidate = os.path.join(base, path)
        if os.path.exists(candidate):
            return candidate
    return path


def _require(mapping: Mapping[str, Any], key: str, context: str) -> Any:
    if key not in mapping:
        raise InputError(f"{context}: missing field {key!r}")
    return mapping[key]


def _build_tls(raw: Any, context: str) -> TlsModel | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise InputError(f"{context}: tls must be an object or null")
    rows = raw.get("components", [])
    components = []
    for j, row in enumerate(rows):
        try:
            components.append(
                LossComponent(
                    name=str(row.get("name", f"tls_{j}")),
                    participation=float(row["participation"]),
                    tan_delta=float(row["tan_delta"]),
                    n_c=float(row.get("n_c", 1.0)),
                    beta=float(row.get("beta", 0.5)),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{context}: tls component {j}: {exc}") from exc
    q0 = raw.get("q0")
    q0_value = float("inf") if q0 is None else float(q0)
    return TlsModel(components=tuple(components), q0=q0_value)


def _build_mux_config(overrides: Any, context: str) -> MuxConfig:
    """MuxConfig from a flat override object.

    Keys are MuxConfig's scalar fields plus SwitchBranch's fields; each
    value is converted to its default's type and absent keys keep the
    default. An unknown key is rejected rather than silently ignored.
    """
    if not isinstance(overrides, dict):
        raise InputError(f"{context}: config must be an object")
    known = {f.name: f for f in fields(SwitchBranch)}
    known.update({f.name: f for f in fields(MuxConfig) if f.name != "branch"})
    unknown = sorted(set(overrides) - set(known))
    if unknown:
        raise InputError(
            f"{context}: unknown mux config keys {unknown}; "
            f"known keys: {sorted(known)}"
        )
    values = {
        name: type(known[name].default)(value) for name, value in overrides.items()
    }
    branch = SwitchBranch(
        **{f.name: values.pop(f.name) for f in fields(SwitchBranch) if f.name in values}
    )
    return MuxConfig(branch=branch, **values)


def _build_stage(raw: Any, index: int, path: str) -> Stage:
    context = f"{path}: stage {index}"
    if not isinstance(raw, dict):
        raise InputError(f"{context}: expected an object")
    kind = raw.get("type")
    try:
        if kind == "attenuator":
            return AttenuatorStage(loss_db=float(_require(raw, "loss_db", context)))
        if kind == "mux":
            config = _build_mux_config(raw.get("config", {}), context)
            selected = raw.get("selected_port")
            return MuxStage(
                selected_port=None if selected is None else int(selected),
                input_port=int(raw.get("input_port", 0)),
                v_dd=float(raw.get("v_dd", V_DD_NOMINAL)),
                config=config,
            )
        if kind == "sample":
            system = CavityLerSystem(
                omega_c=TWO_PI * float(_require(raw, "f_cavity_hz", context)),
                omega_r=TWO_PI * float(_require(raw, "f_resonator_hz", context)),
                g=TWO_PI * float(_require(raw, "g_hz", context)),
                kappa_i=TWO_PI * float(_require(raw, "kappa_i_hz", context)),
                kappa_o=TWO_PI * float(_require(raw, "kappa_o_hz", context)),
                gamma_c=TWO_PI * float(raw.get("gamma_c_hz", 0.0)),
                gamma_r=TWO_PI * float(_require(raw, "gamma_r_hz", context)),
            )
            return SampleStage(system=system, tls=_build_tls(raw.get("tls"), context))
        if kind == "bandpass":
            return BandpassStage(
                f_low_hz=float(_require(raw, "f_low_hz", context)),
                f_high_hz=float(_require(raw, "f_high_hz", context)),
                rejection_db=float(_require(raw, "rejection_db", context)),
            )
        if kind == "amplifier":
            return AmplifierStage(
                gain_db=float(_require(raw, "gain_db", context)),
                noise_temperature_k=float(
                    raw.get("noise_temperature_k", AMP_NOISE_TEMP_DEFAULT_K)
                ),
            )
    except (TypeError, ValueError) as exc:
        raise InputError(f"{context} ({kind}): {exc}") from exc
    raise InputError(f"{context}: unknown stage type {kind!r}")


def load_chain_spec(path: str) -> ChainSpec:
    raw = read_versioned(path)
    stages_raw = raw.get("stages")
    if not isinstance(stages_raw, list) or not stages_raw:
        raise InputError(f"{path}: expected a non-empty 'stages' list")
    stages = tuple(
        _build_stage(entry, i, path) for i, entry in enumerate(stages_raw)
    )
    seed = raw.get("rng_seed", 0)
    if isinstance(seed, float) and seed.is_integer():
        seed = int(seed)
    try:
        return ChainSpec(stages=stages, rng_seed=seed)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_sweep_spec(path: str) -> SweepSpec:
    raw = read_versioned(path)
    context = path
    try:
        grid = FrequencyGrid.linspace(
            float(_require(raw, "f_start_hz", context)),
            float(_require(raw, "f_stop_hz", context)),
            int(_require(raw, "points_per_trace", context)),
        )
        return SweepSpec(
            grid=grid,
            instrument_power_dbm=float(
                _require(raw, "instrument_power_dbm", context)
            ),
            averages=int(raw.get("averages", 1)),
            rbw_hz=float(raw.get("rbw_hz", RBW_DEFAULT_HZ)),
        )
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def example_chain_path() -> str:
    return str(resources.files("cryomux") / EXAMPLE_CHAIN_RESOURCE)


def example_sweep_path() -> str:
    return str(resources.files("cryomux") / EXAMPLE_SWEEP_RESOURCE)


# ---------------------------------------------------------------------------
# CSV trace files


def trace_csv_text(trace: ComplexTrace) -> str:
    """Render a trace as CSV with 17 significant digits per field."""
    rows = [TRACE_HEADER]
    fmt = ",".join([FLOAT_FORMAT] * 3)
    for f, value in zip(trace.grid.points, trace.s21):
        rows.append(fmt % (f, value.real, value.imag))
    return "\n".join(rows) + "\n"


def write_trace(path: str, trace: ComplexTrace) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(trace_csv_text(trace))


def _parse_csv(
    path: str, header: str, n_fields: int
) -> list[tuple[int, list[float]]]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise InputError(f"cannot read {path!r}: {exc}") from exc
    if not lines or lines[0].strip() != header:
        found = lines[0].strip() if lines else "<empty file>"
        raise InputError(
            f"{path}: line 1: expected header {header!r}, found {found!r}"
        )
    names = header.split(",")
    parsed = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != n_fields:
            raise InputError(
                f"{path}: line {lineno}: expected {n_fields} fields, "
                f"got {len(fields)}"
            )
        row = []
        for name, text in zip(names, fields):
            try:
                value = float(text)
            except ValueError as exc:
                raise InputError(
                    f"{path}: line {lineno}: field {name!r} is not a number: "
                    f"{text.strip()!r}"
                ) from exc
            if not math.isfinite(value):
                raise InputError(
                    f"{path}: line {lineno}: field {name!r} is not finite: "
                    f"{text.strip()!r}"
                )
            row.append(value)
        parsed.append((lineno, row))
    if not parsed:
        raise InputError(f"{path}: no data rows")
    return parsed


def read_trace(path: str) -> ComplexTrace:
    rows = np.array([row for _, row in _parse_csv(path, TRACE_HEADER, 3)])
    try:
        grid = FrequencyGrid(rows[:, 0])
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc
    return ComplexTrace(grid, rows[:, 1] + 1j * rows[:, 2])


def power_points_csv_text(points: Sequence[PowerSweepPoint]) -> str:
    rows = [POINTS_HEADER]
    fmt = ",".join([FLOAT_FORMAT] * 3)
    for p in points:
        rows.append(fmt % (p.n_photons, p.q_loaded, p.q_uncertainty))
    return "\n".join(rows) + "\n"


def write_power_points(path: str, points: Sequence[PowerSweepPoint]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(power_points_csv_text(points))


def read_power_points(path: str) -> tuple[PowerSweepPoint, ...]:
    points = []
    for lineno, row in _parse_csv(path, POINTS_HEADER, 3):
        try:
            points.append(PowerSweepPoint(*row))
        except InputError as exc:
            raise InputError(f"{path}: line {lineno}: {exc}") from exc
    return tuple(points)
