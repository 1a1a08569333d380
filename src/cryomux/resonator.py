"""Physics of a lumped-element resonator read out through a 3D cavity.

The resonator is never probed directly: its line is visible only through the
cavity it hybridizes with, at a rate set by the detuning. This module holds
the dressed-rate algebra, the reduced transmission model near the resonator
line, the complex-coupling Lorentzian used for fitting, and the photon-number
calibration that converts applied power to intracavity occupation.

All physics here works in angular frequency (rad/s). Conversion to Hz happens
only at the fitting boundary, where `s21_lorentzian` takes its frequency axis
in Hz because that is what instruments record.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .constants import HBAR
from .errors import (
    DispersiveLimitError,
    DispersiveValidityWarning,
    InputError,
    NonphysicalValueError,
)

TWO_PI = 2.0 * np.pi

# Detuning must exceed this multiple of the fastest rate before the
# second-order dressed treatment is trustworthy.
DISPERSIVE_MARGIN = 10.0


@dataclass(frozen=True)
class CavityLerSystem:
    """Cavity mode coupled to a lumped-element resonator, rates in rad/s.

    kappa_i and kappa_o are the cavity input and output coupling rates,
    gamma_c its internal loss, gamma_r the resonator internal loss, and g
    the cavity-resonator coupling.
    """

    omega_c: float
    omega_r: float
    g: float
    kappa_i: float
    kappa_o: float
    gamma_c: float
    gamma_r: float

    def __post_init__(self) -> None:
        for f in fields(self):  # numpy scalars' ** gives inf where purcell needs OverflowError
            object.__setattr__(self, f.name, float(getattr(self, f.name)))
        for name in ("omega_c", "omega_r", "kappa_i", "kappa_o", "gamma_r"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise InputError(f"{name} must be a finite positive rate, got {value!r}")
        if not (math.isfinite(self.gamma_c) and self.gamma_c >= 0.0):
            raise InputError(f"gamma_c must be finite and non-negative, got {self.gamma_c!r}")
        if not (math.isfinite(self.g) and self.g >= 0.0):
            raise InputError(f"g must be finite and non-negative, got {self.g!r}")
        fastest = max(self.kappa_i, self.kappa_o, self.gamma_r)
        if abs(self.omega_c - self.omega_r) <= DISPERSIVE_MARGIN * fastest:
            warnings.warn(
                "cavity-resonator detuning is within ten linewidths of the "
                "fastest rate; the dressed-rate treatment is marginal here",
                DispersiveValidityWarning,
                stacklevel=2,
            )

    @property
    def detuning(self) -> float:
        """Cavity-resonator detuning omega_c - omega_r."""
        return self.omega_c - self.omega_r


@dataclass(frozen=True)
class PurcellRates:
    """Cavity-mediated decay rates and the dressed resonator frequency."""

    kappa_pur_i: float
    kappa_pur_o: float
    omega_r_dressed: float

    def __post_init__(self) -> None:
        if self.kappa_pur_i < 0.0 or self.kappa_pur_o < 0.0:
            raise InputError("Purcell rates cannot be negative")
        if not (math.isfinite(self.omega_r_dressed) and self.omega_r_dressed > 0.0):
            raise InputError("omega_r_dressed must be finite and positive")

    @property
    def kappa_pur(self) -> float:
        """Total Purcell rate, the sum of the two port rates."""
        return self.kappa_pur_i + self.kappa_pur_o


@dataclass(frozen=True)
class LorentzianParams:
    """Parameters of the complex-coupling Lorentzian line shape.

    a_scale and b_offset absorb the transmission chain (overall scale and
    feedthrough background); f_r, q_loaded, q_c_mag, and phi describe the
    resonance itself. q_loaded may legitimately approach q_c_mag from below
    when internal loss is small.
    """

    a_scale: complex
    b_offset: complex
    f_r: float
    q_loaded: float
    q_c_mag: float
    phi: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.f_r) and self.f_r > 0.0):
            raise InputError(f"f_r must be finite and positive, got {self.f_r!r}")
        if not self.q_loaded > 0.0:
            raise InputError(f"q_loaded must be positive, got {self.q_loaded!r}")
        if not self.q_c_mag > 0.0:
            raise InputError(f"q_c_mag must be positive, got {self.q_c_mag!r}")


def purcell(system: CavityLerSystem) -> PurcellRates:
    """Second-order decay rates the cavity ports induce on the resonator.

    Each port rate is scaled by (g/detuning)^2 and the resonator frequency
    is pushed by the dispersive shift g^2/detuning.
    """
    delta = system.detuning
    if delta == 0.0:
        raise DispersiveLimitError(
            "cavity and resonator are degenerate; the dressed-rate expansion "
            "has no meaning at zero detuning"
        )
    try:
        scale = (system.g / delta) ** 2
        shift = system.g ** 2 / delta
    except OverflowError:
        raise InputError(
            f"g {system.g!r} rad/s is too strong for the dressed-rate expansion "
            f"at detuning {delta!r} rad/s: its square overflows"
        ) from None
    return PurcellRates(
        kappa_pur_i=system.kappa_i * scale,
        kappa_pur_o=system.kappa_o * scale,
        omega_r_dressed=system.omega_r - shift,
    )


def s21_physics(system: CavityLerSystem, omega, exact: bool = False):
    """Transmission through the cavity near the dressed resonator line.

    The default form eliminates the cavity adiabatically and drops its
    internal loss, which is justified when gamma_c is far below the port
    rates; it is a bare Lorentzian in the dressed frame. With exact=True
    the full coupled two-mode response is evaluated instead, gamma_c and
    all, which is mainly useful as an oracle for the reduced expression.

    omega may be a scalar or an array (rad/s); the return type follows.
    """
    w = np.asarray(omega, dtype=float)
    if exact:
        d_cav = 0.5 * (system.kappa_i + system.kappa_o + system.gamma_c) + 1j * (
            system.omega_c - w
        )
        d_res = 0.5 * system.gamma_r + 1j * (system.omega_r - w)
        out = np.sqrt(system.kappa_i * system.kappa_o) / (d_cav + system.g ** 2 / d_res)
    else:
        rates = purcell(system)
        half_width = 0.5 * (rates.kappa_pur + system.gamma_r)
        out = (
            1j
            * np.sqrt(rates.kappa_pur_i * rates.kappa_pur_o)
            / (w - rates.omega_r_dressed + 1j * half_width)
        )
    if np.ndim(omega) == 0:
        return complex(out)
    return out


def s21_lorentzian(params: LorentzianParams, f):
    """Lorentzian line shape with complex coupling, frequency axis in Hz."""
    x = np.asarray(f, dtype=float)
    depth = params.a_scale * (params.q_loaded / params.q_c_mag) * np.exp(1j * params.phi)
    out = depth / (1.0 + 2j * params.q_loaded * (x / params.f_r - 1.0)) + params.b_offset
    if np.ndim(f) == 0:
        return complex(out)
    return out


def q_relations(q_loaded: float, q_c_mag: float) -> float:
    """Internal quality factor implied by loaded and coupling quality factors."""
    if not q_loaded > 0.0:
        raise InputError(f"q_loaded must be positive, got {q_loaded!r}")
    if not q_c_mag > 0.0:
        raise InputError(f"q_c_mag must be positive, got {q_c_mag!r}")
    if q_loaded >= q_c_mag:
        raise NonphysicalValueError(
            f"loaded Q {q_loaded:g} is not below the coupling Q {q_c_mag:g}, "
            "so the implied internal loss would be zero or negative"
        )
    return 1.0 / (1.0 / q_loaded - 1.0 / q_c_mag)


def watts_from_dbm(p_dbm: float) -> float:
    try:
        return 1e-3 * 10.0 ** (p_dbm / 10.0)
    except OverflowError as exc:
        raise InputError(f"{p_dbm!r} dBm overflows a power in watts") from exc


def dbm_from_watts(p_w: float) -> float:
    if not (p_w > 0.0):
        raise InputError("power must be positive to express in dBm")
    return 10.0 * math.log10(p_w / 1e-3)


def mean_photons_from_rates(rates: PurcellRates, gamma_r, p_in, omega_drive):
    """Mean resonator occupation from the rate picture.

    p_in is the power arriving at the cavity input port in watts. The full
    detuning dependence is kept so off-resonant drive is handled too;
    on resonance this reduces to the familiar flux over half-width-squared
    form. gamma_r, p_in and omega_drive (rad/s) may each be a scalar or an
    array: the result is a float when all three are scalars, and an array
    of their broadcast shape otherwise.
    """
    half_width = 0.5 * (rates.kappa_pur + gamma_r)
    detuning = np.asarray(omega_drive, dtype=float) - rates.omega_r_dressed
    flux = p_in / (HBAR * rates.omega_r_dressed)
    out = rates.kappa_pur_i * flux / (detuning ** 2 + half_width ** 2)
    if np.ndim(gamma_r) == np.ndim(p_in) == np.ndim(omega_drive) == 0:
        return float(out)
    return out


def mean_photons_measurable(
    s21_peak: float, q_loaded: float, p_in: float, omega_dressed: float
) -> float:
    """Mean occupation from quantities a transmission measurement reports.

    Takes the on-resonance transmission magnitude, the loaded quality
    factor, the power at the cavity input in watts, and the dressed
    resonance in rad/s.
    """
    return 2.0 * s21_peak * q_loaded * p_in / (HBAR * omega_dressed ** 2)
