"""Photon-number thermometry from the thermal ac Stark shift.

A qubit shifts by 2*chi per thermal photon in its readout resonator; the closed
forms linking shift, occupation and temperature need only ``math``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .constants import BOLTZMANN, PLANCK
from .errors import InputError, NonphysicalValueError


@dataclass(frozen=True)
class StarkContext:
    """Dispersive-readout constants for Stark-shift thermometry.

    chi is the signed dispersive shift per photon (Hz), nu_r the readout
    resonator frequency. nu_q enables the alternate qubit-frequency
    temperature convention.
    """

    chi: float
    nu_r: float
    nu_q: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.chi) and self.chi != 0.0):
            raise InputError(f"chi must be finite and nonzero, got {self.chi!r}")
        if not 0.0 < self.nu_r < math.inf:
            raise InputError(f"nu_r must be positive and finite, got {self.nu_r!r}")
        if self.nu_q is not None and not 0.0 < self.nu_q < math.inf:
            raise InputError(f"nu_q must be positive and finite, got {self.nu_q!r}")


def _h_nu_over_k(nu: float, x: float) -> float:
    """PLANCK*nu/(BOLTZMANN*x) for positive nu and x, inf on overflow. The binary
    exponents are split off, so no intermediate under- or overflows; where the
    direct expression stays in the normal range, the bits are the same."""
    (m_nu, e_nu), (m_x, e_x) = math.frexp(nu), math.frexp(x)
    try:
        return math.ldexp(PLANCK * m_nu / (BOLTZMANN * m_x), e_nu - e_x)
    except OverflowError:
        return math.inf


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise InputError(f"{name} overflows the float range ({value!r})")
    return value


def stark_forward(
    ctx: StarkContext, temperature: float, truncation: int | str = "auto"
):
    """Thermal ac Stark shift of the qubit in Hz.

    The shift is 2*chi times the mean resonator occupation. Auto mode uses
    the Bose-Einstein closed form 1/expm1(h*nu_r/(k*T)); an integer
    truncation instead sums the Boltzmann-weighted levels 0..truncation,
    which the tests use as the oracle for the closed form.

    Valid for every finite temperature >= 0; an occupation (about k*T/(h*nu_r)
    when large) or a shift beyond the float range is an InputError naming it.
    """
    if not 0.0 <= temperature < math.inf:
        raise InputError(
            f"temperature must be finite and non-negative, got {temperature!r}"
        )
    if temperature == 0.0:
        return 0.0
    ratio = _h_nu_over_k(ctx.nu_r, temperature)
    if truncation == "auto":
        # x/(1 - x) with x = exp(-ratio): 1/expm1(ratio), but x underflows to 0
        # where expm1 would overflow; a ratio that underflowed to 0 means n = inf
        n_mean = math.exp(-ratio) / -math.expm1(-ratio) if ratio > 0.0 else math.inf
    else:
        import numpy as np

        x = math.exp(-ratio)
        levels = np.arange(int(truncation) + 1)
        weights = x ** levels
        n_mean = float((levels * weights).sum() / weights.sum())
    _finite("mean occupation", n_mean)
    return _finite("Stark shift", 2.0 * (ctx.chi * n_mean))


def stark_invert(
    ctx: StarkContext, delta_ac: float, convention: str = "resonator"
) -> tuple[float, float]:
    """Photon number and effective temperature from a measured Stark shift.

    Inverts the closed form: the mean occupation is delta_ac/(2*chi), and
    the temperature follows from the Boltzmann factor at the chosen
    frequency. The resonator-frequency convention is the default; pass
    convention="qubit" to use nu_q instead (the context must carry it).

    Valid for every finite delta_ac of chi's sign or 0; an occupation or a
    temperature beyond the float range is an InputError naming it.
    """
    if convention == "resonator":
        nu = ctx.nu_r
    elif convention == "qubit":
        if ctx.nu_q is None:
            raise InputError(
                "qubit-frequency convention requested but the context has no nu_q"
            )
        nu = ctx.nu_q
    else:
        raise InputError(f"unknown temperature convention {convention!r}")
    if not math.isfinite(delta_ac):
        raise InputError(f"delta_ac must be finite, got {delta_ac!r}")
    if delta_ac == 0.0:
        return 0.0, 0.0
    if (delta_ac < 0.0) != (ctx.chi < 0.0):
        raise NonphysicalValueError(
            f"shift {delta_ac:g} Hz and chi {ctx.chi:g} Hz have opposite "
            "signs; the implied occupation is negative"
        )
    n_mean = _finite("mean occupation", 0.5 * delta_ac / ctx.chi)
    # ln((1 + n)/n), which is ln(2*chi/delta_ac) where n is subnormal or 0
    log_ratio = (math.log1p(1.0 / n_mean) if n_mean >= sys.float_info.min
                 else math.log(2.0) + math.log(abs(ctx.chi)) - math.log(abs(delta_ac)))
    return n_mean, _finite("temperature", _h_nu_over_k(nu, log_ratio))
