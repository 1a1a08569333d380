"""Two-port network algebra on shared frequency grids.

Transfer (ABCD) matrices are stored per frequency point in an (N, 2, 2)
complex array, so cascading networks is a plain matrix product along the
grid axis. Conversions to and from scattering parameters use a single real
reference impedance.

The switch multiplexer (``muxsim``) evaluates its branches in closed form
and uses only the grid, S-matrix, reference impedance and clamp pieces of
this module; the tests rebuild those branches here, element by element,
as the closed form's oracle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ClampWarning, InputError, SingularNetworkError

Z0_DEFAULT = 50.0

#: largest |Z| in ohm (or |Y| in siemens) accepted before an element is
#: clamped; keeps opens and shorts finite instead of producing NaN
DEGENERATE_LIMIT = 1e12


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing, positive sweep frequencies in Hz."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size == 0:
            raise InputError("frequency grid must be a non-empty 1-D array")
        if not np.all(np.isfinite(pts)) or not np.all(pts > 0.0):
            raise InputError("frequencies must be finite and positive")
        if pts.size > 1 and not np.all(np.diff(pts) > 0.0):
            raise InputError("frequencies must be strictly increasing")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @classmethod
    def linspace(cls, f_start_hz: float, f_stop_hz: float, n_points: int) -> "FrequencyGrid":
        if n_points < 1:
            raise InputError("grid needs at least one point")
        if n_points == 1:
            if f_start_hz != f_stop_hz:
                raise InputError("single-point grid needs f_start == f_stop")
            return cls(np.array([f_start_hz]))
        return cls(np.linspace(f_start_hz, f_stop_hz, n_points))

    @property
    def omega(self) -> np.ndarray:
        """Angular frequencies, rad/s."""
        return 2.0 * np.pi * self.points

    def __len__(self) -> int:
        return int(self.points.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrequencyGrid):
            return NotImplemented
        return np.array_equal(self.points, other.points)

    def __hash__(self) -> int:  # frozen dataclass with array field
        return hash((self.points.shape, self.points.tobytes()))


@dataclass(frozen=True)
class AbcdMatrix:
    """Per-frequency transfer matrix, shape (len(grid), 2, 2), complex."""

    grid: FrequencyGrid
    m: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.m, dtype=complex)
        if m.shape != (len(self.grid), 2, 2):
            raise InputError(
                f"ABCD array must have shape ({len(self.grid)}, 2, 2), got {m.shape}"
            )
        if not np.all(np.isfinite(m)):
            raise InputError("ABCD entries must be finite")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "m", m)

    @property
    def a(self) -> np.ndarray:
        return self.m[:, 0, 0]

    @property
    def b(self) -> np.ndarray:
        return self.m[:, 0, 1]

    @property
    def c(self) -> np.ndarray:
        return self.m[:, 1, 0]

    @property
    def d(self) -> np.ndarray:
        return self.m[:, 1, 1]

    def determinant(self) -> np.ndarray:
        """AD - BC per frequency point; 1 for reciprocal networks."""
        return self.a * self.d - self.b * self.c


@dataclass(frozen=True)
class SMatrix:
    """Per-frequency scattering matrix with its reference impedance."""

    grid: FrequencyGrid
    s: np.ndarray
    z0: float = Z0_DEFAULT

    def __post_init__(self) -> None:
        s = np.asarray(self.s, dtype=complex)
        if s.shape != (len(self.grid), 2, 2):
            raise InputError(
                f"S array must have shape ({len(self.grid)}, 2, 2), got {s.shape}"
            )
        if not np.all(np.isfinite(s)):
            raise InputError("S entries must be finite")
        if not (self.z0 > 0.0):
            raise InputError("reference impedance must be positive")
        s = s.copy()
        s.flags.writeable = False
        object.__setattr__(self, "s", s)

    @property
    def s11(self) -> np.ndarray:
        return self.s[:, 0, 0]

    @property
    def s12(self) -> np.ndarray:
        return self.s[:, 0, 1]

    @property
    def s21(self) -> np.ndarray:
        return self.s[:, 1, 0]

    @property
    def s22(self) -> np.ndarray:
        return self.s[:, 1, 1]


def _per_point(grid: FrequencyGrid, value) -> np.ndarray:
    """Broadcast a scalar or per-frequency array onto the grid."""
    arr = np.asarray(value, dtype=complex)
    if arr.ndim == 0:
        arr = np.full(len(grid), complex(value))
    elif arr.shape != (len(grid),):
        raise InputError(f"element value must be scalar or shape ({len(grid)},)")
    if not np.all(np.isfinite(arr)):
        raise InputError("element values must be finite")
    return arr


def clamp_degenerate(values: np.ndarray, what: str) -> np.ndarray:
    """Clamp magnitudes above DEGENERATE_LIMIT, preserving phase."""
    mag = np.abs(values)
    mask = mag > DEGENERATE_LIMIT
    if np.any(mask):
        warnings.warn(
            f"{what} magnitude exceeds {DEGENERATE_LIMIT:.0e}, clamping",
            ClampWarning,
            stacklevel=3,
        )
        values = values.copy()
        # keep the phase of each clamped entry, zero phase for exact zeros
        phase = np.where(mag[mask] > 0.0, values[mask] / mag[mask], 1.0)
        values[mask] = DEGENERATE_LIMIT * phase
    return values


def series_element(grid: FrequencyGrid, z) -> AbcdMatrix:
    """Series impedance z (ohm, scalar or per-frequency) as an ABCD network."""
    z = clamp_degenerate(_per_point(grid, z), "series impedance")
    m = np.zeros((len(grid), 2, 2), dtype=complex)
    m[:, 0, 0] = 1.0
    m[:, 0, 1] = z
    m[:, 1, 1] = 1.0
    return AbcdMatrix(grid, m)


def shunt_element(grid: FrequencyGrid, y) -> AbcdMatrix:
    """Shunt admittance y (siemens, scalar or per-frequency) as an ABCD network."""
    y = clamp_degenerate(_per_point(grid, y), "shunt admittance")
    m = np.zeros((len(grid), 2, 2), dtype=complex)
    m[:, 0, 0] = 1.0
    m[:, 1, 0] = y
    m[:, 1, 1] = 1.0
    return AbcdMatrix(grid, m)


def lumped(grid: FrequencyGrid, kind: str, value: float, placement: str) -> AbcdMatrix:
    """Build a lumped R, L or C element.

    Parameters
    ----------
    grid : FrequencyGrid
    kind : {'resistor', 'inductor', 'capacitor'}
    value : float
        Ohm, henry or farad; must be positive. Extreme values that produce
        degenerate impedances are clamped (with a warning) downstream.
    placement : {'series', 'shunt'}
    """
    if kind not in ("resistor", "inductor", "capacitor"):
        raise InputError(f"unknown lumped kind {kind!r}")
    if placement not in ("series", "shunt"):
        raise InputError(f"unknown placement {placement!r}")
    if not np.isfinite(value) or value <= 0.0:
        raise InputError(f"{kind} value must be finite and positive")

    omega = grid.omega
    if kind == "resistor":
        z = np.full(len(grid), complex(value))
    elif kind == "inductor":
        z = 1j * omega * value
    else:
        z = 1.0 / (1j * omega * value)

    if placement == "series":
        return series_element(grid, z)
    return shunt_element(grid, 1.0 / z)


def cascade(first: AbcdMatrix, *rest: AbcdMatrix) -> AbcdMatrix:
    """Cascade two-ports left to right (input side first)."""
    total = first.m
    for net in rest:
        if net.grid != first.grid:
            raise InputError("cascade requires identical frequency grids")
        total = np.einsum("fij,fjk->fik", total, net.m)
    return AbcdMatrix(first.grid, total)


def abcd_to_s(net: AbcdMatrix, z0: float = Z0_DEFAULT) -> SMatrix:
    """Convert an ABCD matrix to scattering parameters.

    Uses the standard single-impedance relations; the shared denominator is
    A + B/z0 + C*z0 + D and may not vanish.
    """
    if not (z0 > 0.0):
        raise InputError("reference impedance must be positive")
    a, b, c, d = net.a, net.b, net.c, net.d
    den = a + b / z0 + c * z0 + d
    if np.any(den == 0.0) or not np.all(np.isfinite(den)):
        raise SingularNetworkError("ABCD to S conversion hit a singular denominator")
    s = np.empty((len(net.grid), 2, 2), dtype=complex)
    s[:, 0, 0] = (a + b / z0 - c * z0 - d) / den
    s[:, 0, 1] = 2.0 * (a * d - b * c) / den
    s[:, 1, 0] = 2.0 / den
    s[:, 1, 1] = (-a + b / z0 - c * z0 + d) / den
    return SMatrix(net.grid, s, z0)


def s_to_abcd(smat: SMatrix) -> AbcdMatrix:
    """Convert scattering parameters back to an ABCD matrix.

    Requires S21 != 0 everywhere (a two-port with zero transmission has no
    transfer-matrix representation).
    """
    s11, s12, s21, s22 = smat.s11, smat.s12, smat.s21, smat.s22
    if np.any(s21 == 0.0):
        raise SingularNetworkError("S to ABCD conversion requires non-zero S21")
    z0 = smat.z0
    den = 2.0 * s21
    m = np.empty((len(smat.grid), 2, 2), dtype=complex)
    m[:, 0, 0] = ((1.0 + s11) * (1.0 - s22) + s12 * s21) / den
    m[:, 0, 1] = z0 * ((1.0 + s11) * (1.0 + s22) - s12 * s21) / den
    m[:, 1, 0] = ((1.0 - s11) * (1.0 - s22) - s12 * s21) / (z0 * den)
    m[:, 1, 1] = ((1.0 - s11) * (1.0 + s22) + s12 * s21) / den
    return AbcdMatrix(smat.grid, m)


def attenuator(grid: FrequencyGrid, loss_db: float, z0: float = Z0_DEFAULT) -> SMatrix:
    """Matched attenuator with flat loss in dB (must be non-negative)."""
    if not np.isfinite(loss_db) or loss_db < 0.0:
        raise InputError("attenuation in dB must be finite and non-negative")
    t = 10.0 ** (-loss_db / 20.0)
    s = np.zeros((len(grid), 2, 2), dtype=complex)
    s[:, 0, 1] = t
    s[:, 1, 0] = t
    return SMatrix(grid, s, z0)

